// Output checks and the output digest of the repository benchmark.
//
// Every simulated output a workload produces is folded into a 64-bit
// FNV-1a digest (performance changes must keep it identical) and checked
// against invariants that hold on any seed. Checks are counted, so a run
// reports how many it attempted and how many failed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/metrics.hpp"
#include "core/qos_engine.hpp"
#include "util/table.hpp"

namespace perfbench {

class Checks {
 public:
  /// Counts one check; a failure keeps its description (the first few).
  void expect(bool ok, std::string_view what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// FNV-1a over the exact bytes of every value folded in.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(std::string_view s) { bytes(s.data(), s.size()); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

std::string hex(std::uint64_t v);

/// What a figure table must satisfy besides finite cells. The orderings
/// hold on every row, or (the *OnMean rules) only between the column means
/// over all rows: for sweeps whose small rows hold too few supernodes for
/// a single row's ordering to hold on every seed.
enum class TableRule {
  kFiniteOnly,
  kFogEgressBelowCloud,           ///< Fig. 6: column "CloudFog" < column "Cloud"
  kFogEgressBelowCloudOnMean,     ///< Fig. 6, on the column means
  kFogALatencyBelowCloud,         ///< Fig. 7: column "CloudFog/A" < column "Cloud"
  kFogALatencyBelowCloudOnMean,   ///< Fig. 7, on the column means
  kContinuityInUnit,              ///< Figs. 8/15: every series in [0, 1]
  kServerAssignmentHelps,         ///< Fig. 12: "w/ server lat" < "w/o server lat"
};

/// Checks every data cell of `table` (column 0 is the x axis) for
/// finiteness plus `rule`, and folds the rendered table into `digest`.
void check_table(const cloudfog::util::Table& table, TableRule rule, Checks& checks,
                 Digest& digest);

/// Checks one subcycle's outputs (finite values, continuity in [0, 1])
/// and folds every field into `digest`.
void check_subcycle(const cloudfog::core::SubcycleQos& qos, Checks& checks, Digest& digest);

/// Folds a cell's run-level metrics into `digest`. The wall-clock
/// server-assignment samples are excluded (only their count is folded):
/// they differ between identical runs.
void digest_run_metrics(const cloudfog::core::RunMetrics& m, Digest& digest);

/// Feeds deliberately corrupted tables (a NaN cell, continuity above 1,
/// CloudFog/A slower than Cloud on a row or on the mean, server assignment
/// not helping) and clean ones through check_table. Returns true iff each
/// corruption is flagged and the clean tables pass.
bool self_test(std::string* report);

}  // namespace perfbench
