// Wall-clock profiling of named simulator phases (candidate discovery,
// probing, QoS evaluation, provisioning, ...).
//
// A phase name is interned once, process-wide (name → PhaseId, valid in
// every profiler), and then recorded with raw steady_clock durations by
// ScopedTimer (see recorder.hpp for the CLOUDFOG_TIMED_SCOPE macro). Per
// phase the profiler keeps count, total / min / max, and a log2-bucketed
// duration histogram — timings span six orders of magnitude, so
// fixed-width linear buckets would waste most of their resolution.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cloudfog::obs {

struct PhaseId {
  std::uint32_t index = 0;
};

class PhaseProfiler {
 public:
  /// Number of log2 duration buckets: bucket b holds durations in
  /// [2^b, 2^{b+1}) nanoseconds (bucket 0 also holds 0 ns).
  static constexpr std::size_t kBuckets = 40;

  struct PhaseStats {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t min_ns = 0;
    std::uint64_t max_ns = 0;
    std::vector<std::uint64_t> log2_ns_buckets = std::vector<std::uint64_t>(kBuckets, 0);

    double mean_us() const;
    double total_ms() const { return static_cast<double>(total_ns) / 1e6; }
    /// Scope entries per wall-clock second spent inside the phase.
    double per_second() const;
  };

  /// Process-wide and idempotent: the same name always yields the same
  /// id, in every profiler.
  static PhaseId intern(std::string_view name);

  /// Records one scope of `ns` nanoseconds (the profiler grows the
  /// phase's slot on first use).
  void record(PhaseId id, std::uint64_t ns);

  /// This profiler's slots, indexed by PhaseId (phases it never recorded
  /// may sit between with a zero count).
  const std::vector<PhaseStats>& phases() const { return phases_; }

  /// Stats by name; nullptr if the phase was never registered.
  const PhaseStats* find(std::string_view name) const;

  /// Zeroes accumulated stats; names and ids stay valid.
  void reset_values();

  static std::size_t bucket_for(std::uint64_t ns);

  /// Folds `other` in: counts, totals and buckets summed, min/max combined.
  void merge_from(const PhaseProfiler& other);

 private:
  void grow(std::size_t size);

  std::vector<PhaseStats> phases_;
};

}  // namespace cloudfog::obs
