#include "obs/phase_profiler.hpp"

#include <algorithm>
#include <bit>

#include "obs/intern_table.hpp"

namespace cloudfog::obs {

double PhaseProfiler::PhaseStats::mean_us() const {
  return count == 0 ? 0.0
                    : static_cast<double>(total_ns) / static_cast<double>(count) / 1e3;
}

double PhaseProfiler::PhaseStats::per_second() const {
  return total_ns == 0 ? 0.0
                       : static_cast<double>(count) / (static_cast<double>(total_ns) / 1e9);
}

namespace {

// Leaked like the note table: reports read phase names at static
// destruction.
InternTable<>& phase_names() {
  // NOLINTNEXTLINE(cloudfog-static-mutable): immortal name table, mutex-guarded
  static auto* t = new InternTable<>();
  return *t;
}

}  // namespace

PhaseId PhaseProfiler::intern(std::string_view name) {
  return PhaseId{phase_names().intern(name)};
}

void PhaseProfiler::grow(std::size_t size) {
  while (phases_.size() < size) {
    PhaseStats stats;
    stats.name = std::string(phase_names().text(static_cast<std::uint32_t>(phases_.size())));
    phases_.push_back(std::move(stats));
  }
}

std::size_t PhaseProfiler::bucket_for(std::uint64_t ns) {
  if (ns == 0) return 0;
  const auto bucket = static_cast<std::size_t>(std::bit_width(ns) - 1);
  return std::min(bucket, kBuckets - 1);
}

void PhaseProfiler::record(PhaseId id, std::uint64_t ns) {
  if (id.index >= phases_.size()) grow(id.index + 1);
  PhaseStats& s = phases_[id.index];
  if (s.count == 0) {
    s.min_ns = s.max_ns = ns;
  } else {
    s.min_ns = std::min(s.min_ns, ns);
    s.max_ns = std::max(s.max_ns, ns);
  }
  ++s.count;
  s.total_ns += ns;
  ++s.log2_ns_buckets[bucket_for(ns)];
}

const PhaseProfiler::PhaseStats* PhaseProfiler::find(std::string_view name) const {
  for (const auto& s : phases_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

void PhaseProfiler::reset_values() {
  for (auto& s : phases_) {
    s.count = 0;
    s.total_ns = 0;
    s.min_ns = 0;
    s.max_ns = 0;
    std::fill(s.log2_ns_buckets.begin(), s.log2_ns_buckets.end(), 0);
  }
}

void PhaseProfiler::merge_from(const PhaseProfiler& other) {
  grow(other.phases_.size());
  for (std::size_t i = 0; i < other.phases_.size(); ++i) {
    const PhaseStats& src = other.phases_[i];
    if (src.count == 0) continue;
    PhaseStats& dst = phases_[i];
    dst.min_ns = dst.count == 0 ? src.min_ns : std::min(dst.min_ns, src.min_ns);
    dst.max_ns = std::max(dst.max_ns, src.max_ns);
    dst.count += src.count;
    dst.total_ns += src.total_ns;
    for (std::size_t b = 0; b < kBuckets; ++b) dst.log2_ns_buckets[b] += src.log2_ns_buckets[b];
  }
}

}  // namespace cloudfog::obs
