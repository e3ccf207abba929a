#include "obs/registry.hpp"

#include <algorithm>

#include "obs/intern_table.hpp"
#include "util/require.hpp"

namespace cloudfog::obs {

namespace {

struct HistogramSpec {
  double lo = 0.0;
  double hi = 1.0;
  std::size_t bins = 1;
};

// Process-wide name tables, leaked like the note table: the run report
// resolves names as late as static destruction.
InternTable<>& counter_names() {
  // NOLINTNEXTLINE(cloudfog-static-mutable): immortal name table, mutex-guarded
  static auto* t = new InternTable<>();
  return *t;
}

InternTable<>& gauge_names() {
  // NOLINTNEXTLINE(cloudfog-static-mutable): immortal name table, mutex-guarded
  static auto* t = new InternTable<>();
  return *t;
}

InternTable<HistogramSpec>& histogram_specs() {
  // NOLINTNEXTLINE(cloudfog-static-mutable): immortal name table, mutex-guarded
  static auto* t = new InternTable<HistogramSpec>();
  return *t;
}

}  // namespace

CounterId Registry::counter(std::string_view name) {
  const CounterId id{counter_names().intern(name)};
  if (id.index >= counters_.size()) counters_.resize(id.index + 1, 0);
  return id;
}

GaugeId Registry::gauge(std::string_view name) {
  const GaugeId id{gauge_names().intern(name)};
  if (id.index >= gauges_.size()) gauges_.resize(id.index + 1);
  return id;
}

HistogramId Registry::histogram(std::string_view name, double lo, double hi,
                                std::size_t bins) {
  CLOUDFOG_REQUIRE(hi > lo, "histogram range inverted");
  CLOUDFOG_REQUIRE(bins > 0, "histogram needs at least one bin");
  const HistogramId id{histogram_specs().intern(name, HistogramSpec{lo, hi, bins})};
  grow_histograms(id.index + 1);
  return id;
}

void Registry::grow_histograms(std::size_t size) {
  const InternTable<HistogramSpec>& specs = histogram_specs();
  while (histograms_.size() < size) {
    const auto index = static_cast<std::uint32_t>(histograms_.size());
    const HistogramSpec spec = specs.payload(index);
    HistogramCell cell;
    cell.name = std::string(specs.text(index));
    cell.lo = spec.lo;
    cell.hi = spec.hi;
    cell.counts.assign(spec.bins, 0);
    histograms_.push_back(std::move(cell));
  }
}

void Registry::observe(HistogramId id, double x) {
  if (id.index >= histograms_.size()) grow_histograms(id.index + 1);
  HistogramCell& cell = histograms_[id.index];
  const double width =
      (cell.hi - cell.lo) / static_cast<double>(cell.counts.size());
  auto bin = static_cast<std::ptrdiff_t>((x - cell.lo) / width);
  if (bin < 0) {
    bin = 0;
    ++cell.underflow;
  } else if (bin >= static_cast<std::ptrdiff_t>(cell.counts.size())) {
    bin = static_cast<std::ptrdiff_t>(cell.counts.size()) - 1;
    ++cell.overflow;
  }
  ++cell.counts[static_cast<std::size_t>(bin)];
  ++cell.total;
}

double Registry::HistogramCell::bin_low(std::size_t bin) const {
  const double width = (hi - lo) / static_cast<double>(counts.size());
  return lo + width * static_cast<double>(bin);
}

double Registry::HistogramCell::bin_high(std::size_t bin) const {
  const double width = (hi - lo) / static_cast<double>(counts.size());
  return lo + width * static_cast<double>(bin + 1);
}

std::string_view Registry::counter_name(std::size_t i) const {
  return counter_names().text(static_cast<std::uint32_t>(i));
}

std::string_view Registry::gauge_name(std::size_t i) const {
  return gauge_names().text(static_cast<std::uint32_t>(i));
}

std::uint64_t Registry::counter_value(std::string_view name) const {
  return counter_value(CounterId{counter_names().find(name)});
}

double Registry::gauge_value(std::string_view name) const {
  return gauge_value(GaugeId{gauge_names().find(name)});
}

void Registry::reset_values() {
  std::fill(counters_.begin(), counters_.end(), 0);
  std::fill(gauges_.begin(), gauges_.end(), std::nullopt);
  for (auto& cell : histograms_) {
    std::fill(cell.counts.begin(), cell.counts.end(), 0);
    cell.total = 0;
    cell.underflow = 0;
    cell.overflow = 0;
  }
}

void Registry::merge_from(const Registry& other) {
  if (other.counters_.size() > counters_.size()) counters_.resize(other.counters_.size(), 0);
  for (std::size_t i = 0; i < other.counters_.size(); ++i) counters_[i] += other.counters_[i];
  if (other.gauges_.size() > gauges_.size()) gauges_.resize(other.gauges_.size());
  for (std::size_t i = 0; i < other.gauges_.size(); ++i) {
    if (other.gauges_[i].has_value()) gauges_[i] = other.gauges_[i];
  }
  grow_histograms(other.histograms_.size());
  for (std::size_t h = 0; h < other.histograms_.size(); ++h) {
    HistogramCell& cell = histograms_[h];
    const HistogramCell& src = other.histograms_[h];
    for (std::size_t b = 0; b < cell.counts.size(); ++b) cell.counts[b] += src.counts[b];
    cell.total += src.total;
    cell.underflow += src.underflow;
    cell.overflow += src.overflow;
  }
}

}  // namespace cloudfog::obs
