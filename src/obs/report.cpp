#include "obs/report.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "obs/json.hpp"

namespace cloudfog::obs {

namespace {

/// Indices 0..n-1 ordered by name. Names are interned process-wide in
/// first-use order, which depends on thread timing once sweeps run on a
/// pool; writing by name keeps the report's bytes independent of it.
template <typename NameOf>
std::vector<std::size_t> by_name(std::size_t n, NameOf name_of) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return name_of(a) < name_of(b); });
  return order;
}

void write_stat(JsonWriter& w, const StatSummary& s) {
  w.key(s.name);
  w.begin_object();
  w.field("count", static_cast<std::uint64_t>(s.count));
  w.field("mean", s.mean);
  w.field("stddev", s.stddev);
  w.field("min", s.min);
  w.field("max", s.max);
  if (s.has_percentiles) {
    w.field("p50", s.p50);
    w.field("p95", s.p95);
    w.field("p99", s.p99);
  }
  w.end_object();
}

void write_phase(JsonWriter& w, const PhaseProfiler::PhaseStats& p) {
  w.key(p.name);
  w.begin_object();
  w.field("count", p.count);
  w.field("total_ms", p.total_ms());
  w.field("mean_us", p.mean_us());
  w.field("min_ns", p.min_ns);
  w.field("max_ns", p.max_ns);
  w.field("per_second", p.per_second());
  // Log2 duration histogram, trimmed to the occupied range: entry i covers
  // [2^(first+i), 2^(first+i+1)) nanoseconds.
  std::size_t first = p.log2_ns_buckets.size();
  std::size_t last = 0;
  for (std::size_t b = 0; b < p.log2_ns_buckets.size(); ++b) {
    if (p.log2_ns_buckets[b] != 0) {
      first = std::min(first, b);
      last = b;
    }
  }
  w.key("log2_ns_histogram");
  w.begin_object();
  if (first <= last && first < p.log2_ns_buckets.size()) {
    w.field("first_bucket_log2", static_cast<std::uint64_t>(first));
    w.key("counts");
    w.begin_array();
    for (std::size_t b = first; b <= last; ++b) w.value(p.log2_ns_buckets[b]);
    w.end_array();
  } else {
    w.field("first_bucket_log2", static_cast<std::uint64_t>(0));
    w.key("counts");
    w.begin_array();
    w.end_array();
  }
  w.end_object();
  w.end_object();
}

}  // namespace

void write_report_json(std::ostream& os, const Recorder& recorder) {
  JsonWriter w(os);
  w.begin_object();
  w.field("schema", kReportSchema);

  w.key("runs");
  w.begin_array();
  for (const RunSummary& run : recorder.runs()) {
    w.begin_object();
    w.field("label", run.label);
    w.field("measured_subcycles", run.measured_subcycles);
    w.key("metrics");
    w.begin_object();
    for (const StatSummary& s : run.stats) write_stat(w, s);
    w.end_object();
    w.end_object();
  }
  w.end_array();

  const Registry& reg = recorder.registry();
  w.key("counters");
  w.begin_object();
  for (const std::size_t i :
       by_name(reg.counter_count(), [&](std::size_t i) { return reg.counter_name(i); })) {
    w.field(reg.counter_name(i), reg.counter_value(CounterId{static_cast<std::uint32_t>(i)}));
  }
  w.end_object();

  w.key("gauges");
  w.begin_object();
  for (const std::size_t i :
       by_name(reg.gauge_count(), [&](std::size_t i) { return reg.gauge_name(i); })) {
    w.field(reg.gauge_name(i), reg.gauge_value(GaugeId{static_cast<std::uint32_t>(i)}));
  }
  w.end_object();

  w.key("histograms");
  w.begin_object();
  for (const std::size_t i : by_name(reg.histogram_count(), [&](std::size_t i) {
         return std::string_view(reg.histogram_cell(i).name);
       })) {
    const auto& cell = reg.histogram_cell(i);
    w.key(cell.name);
    w.begin_object();
    w.field("lo", cell.lo);
    w.field("hi", cell.hi);
    w.field("total", cell.total);
    w.field("underflow", cell.underflow);
    w.field("overflow", cell.overflow);
    w.key("counts");
    w.begin_array();
    for (const std::uint64_t c : cell.counts) w.value(c);
    w.end_array();
    w.end_object();
  }
  w.end_object();

  w.key("phases");
  w.begin_object();
  const auto& phases = recorder.profiler().phases();
  for (const std::size_t i :
       by_name(phases.size(), [&](std::size_t i) { return std::string_view(phases[i].name); })) {
    if (phases[i].count > 0) write_phase(w, phases[i]);
  }
  w.end_object();

  const TraceBuffer& trace = recorder.trace_buffer();
  w.key("trace");
  w.begin_object();
  w.field("pushed", trace.total_pushed());
  w.field("sunk", trace.total_sunk());
  w.field("buffered", static_cast<std::uint64_t>(trace.size()));
  w.field("dropped", trace.dropped());
  w.field("sampled_out", trace.sampled_out());
  w.field("aggregated", trace.aggregated());
  w.field("capacity", static_cast<std::uint64_t>(trace.capacity()));
  switch (trace.retention()) {
    case TraceRetention::kFull: w.field("retention", "full"); break;
    case TraceRetention::kSampled:
      w.field("retention", "sampled");
      w.field("sample_every", trace.sample_every());
      break;
    case TraceRetention::kAggregated: w.field("retention", "aggregated"); break;
  }
  w.end_object();

  w.end_object();
  os << '\n';
}

}  // namespace cloudfog::obs
