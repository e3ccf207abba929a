// Named counters, gauges and fixed-bucket histograms with handle-based
// (index) access, so the hot path pays one array increment per update and
// a name lookup only once, at registration.
//
// Names are interned process-wide (see obs/note_table.hpp), so a handle
// resolved through one registry indexes the same metric in every other:
// the per-component handle structs are function-local statics resolved
// once, while each System reports into the registry of its own recorder.
// A registry grows its value slots on first use of a handle, and
// merge_from() folds another registry's values into this one. Values are
// cumulative: the run report (obs/report.hpp) reads them once, at exit.
//
// A registry is single-threaded, like the System that reports into it;
// only the name tables are shared.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cloudfog::obs {

struct CounterId {
  std::uint32_t index = 0;
};
struct GaugeId {
  std::uint32_t index = 0;
};
struct HistogramId {
  std::uint32_t index = 0;
};

class Registry {
 public:
  /// Registration is idempotent and process-wide: the same name always
  /// returns the same handle, in this and every other registry. A
  /// histogram re-registered with different bounds keeps the original
  /// bounds (first registration in the process wins).
  CounterId counter(std::string_view name);
  GaugeId gauge(std::string_view name);
  HistogramId histogram(std::string_view name, double lo, double hi, std::size_t bins);

  void add(CounterId id, std::uint64_t n = 1) {
    if (id.index >= counters_.size()) counters_.resize(id.index + 1, 0);
    counters_[id.index] += n;
  }
  void set(GaugeId id, double v) {
    if (id.index >= gauges_.size()) gauges_.resize(id.index + 1);
    gauges_[id.index] = v;
  }
  void observe(HistogramId id, double x);

  std::uint64_t counter_value(CounterId id) const {
    return id.index < counters_.size() ? counters_[id.index] : 0;
  }
  double gauge_value(GaugeId id) const {
    return id.index < gauges_.size() ? gauges_[id.index].value_or(0.0) : 0.0;
  }

  /// Slots this registry holds: every metric it registered or updated
  /// (or merged in), plus any interned earlier by the process.
  std::size_t counter_count() const { return counters_.size(); }
  std::size_t gauge_count() const { return gauges_.size(); }
  std::size_t histogram_count() const { return histograms_.size(); }

  std::string_view counter_name(std::size_t i) const;
  std::string_view gauge_name(std::size_t i) const;

  struct HistogramCell {
    std::string name;
    double lo = 0.0;
    double hi = 1.0;
    std::vector<std::uint64_t> counts;
    std::uint64_t total = 0;
    std::uint64_t underflow = 0;  ///< samples below lo (clamped to bin 0)
    std::uint64_t overflow = 0;   ///< samples at/above hi (clamped to last bin)

    double bin_low(std::size_t bin) const;
    double bin_high(std::size_t bin) const;
  };
  const HistogramCell& histogram_cell(std::size_t i) const { return histograms_[i]; }

  /// Value of a counter by name; 0 if never registered (test convenience).
  std::uint64_t counter_value(std::string_view name) const;
  double gauge_value(std::string_view name) const;

  /// Zeroes every value; names and handles stay valid.
  void reset_values();

  /// Folds `other` into this registry: counters and histogram counts are
  /// summed; a gauge `other` has set overwrites this one (as if its
  /// updates had happened here, after ours).
  void merge_from(const Registry& other);

 private:
  void grow_histograms(std::size_t size);

  std::vector<std::uint64_t> counters_;
  std::vector<std::optional<double>> gauges_;  ///< nullopt = never set
  std::vector<HistogramCell> histograms_;
};

}  // namespace cloudfog::obs
