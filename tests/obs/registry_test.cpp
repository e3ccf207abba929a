#include "obs/registry.hpp"

#include <gtest/gtest.h>

namespace cloudfog::obs {
namespace {

// Names are interned process-wide, so each test uses its own names: the
// indices (and a histogram's first-registered bounds) depend on what else
// the process interned first.

TEST(Registry, CounterInterningIsIdempotent) {
  Registry reg;
  const CounterId a = reg.counter("idempotent.joins");
  const std::size_t n = reg.counter_count();
  EXPECT_GT(n, a.index);
  const CounterId b = reg.counter("idempotent.joins");
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(reg.counter_count(), n);
  const CounterId c = reg.counter("idempotent.leaves");
  EXPECT_NE(a.index, c.index);
  EXPECT_GE(c.index, n);
  EXPECT_EQ(reg.counter_count(), c.index + 1u);
}

TEST(Registry, HandlesAreValidInEveryRegistry) {
  Registry first;
  const CounterId c = first.counter("shared.joins");
  const GaugeId g = first.gauge("shared.online");
  const HistogramId h = first.histogram("shared.lat", 0.0, 10.0, 5);
  Registry second;  // never registered anything
  EXPECT_EQ(second.counter_value(c), 0u);
  second.add(c, 2);
  second.set(g, 4.0);
  second.observe(h, 3.0);
  EXPECT_EQ(second.counter_value("shared.joins"), 2u);
  EXPECT_DOUBLE_EQ(second.gauge_value("shared.online"), 4.0);
  EXPECT_EQ(second.histogram_cell(h.index).counts[1], 1u);
  EXPECT_EQ(second.histogram_cell(h.index).name, "shared.lat");
  EXPECT_EQ(first.counter_value(c), 0u);
}

TEST(Registry, MergeSumsCountsAndKeepsOnlyGaugesTheOtherSet) {
  Registry into;
  const CounterId c = into.counter("merge.joins");
  const GaugeId set_by_both = into.gauge("merge.online");
  const GaugeId set_here_only = into.gauge("merge.deployed");
  const HistogramId h = into.histogram("merge.lat", 0.0, 10.0, 2);
  into.add(c, 3);
  into.set(set_by_both, 1.0);
  into.set(set_here_only, 7.0);
  into.observe(h, 1.0);

  Registry other;
  other.add(c, 4);
  other.set(set_by_both, 9.0);
  other.observe(h, 8.0);
  other.observe(h, 20.0);  // overflow
  into.merge_from(other);

  EXPECT_EQ(into.counter_value(c), 7u);
  EXPECT_DOUBLE_EQ(into.gauge_value(set_by_both), 9.0);
  EXPECT_DOUBLE_EQ(into.gauge_value(set_here_only), 7.0);
  const auto& cell = into.histogram_cell(h.index);
  EXPECT_EQ(cell.counts[0], 1u);
  EXPECT_EQ(cell.counts[1], 2u);
  EXPECT_EQ(cell.total, 3u);
  EXPECT_EQ(cell.overflow, 1u);
}

TEST(Registry, CounterAccumulates) {
  Registry reg;
  const CounterId id = reg.counter("accumulate.events");
  reg.add(id);
  reg.add(id, 4);
  EXPECT_EQ(reg.counter_value(id), 5u);
  EXPECT_EQ(reg.counter_value("accumulate.events"), 5u);
  EXPECT_EQ(reg.counter_value("never-registered"), 0u);
}

TEST(Registry, GaugeKeepsLastValue) {
  Registry reg;
  const GaugeId id = reg.gauge("last.online");
  reg.set(id, 10.0);
  reg.set(id, 3.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value(id), 3.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("last.online"), 3.0);
}

TEST(Registry, HistogramBinsAndClamps) {
  Registry reg;
  const HistogramId id = reg.histogram("bins.lat", 0.0, 100.0, 10);
  reg.observe(id, 5.0);    // bin 0
  reg.observe(id, 55.0);   // bin 5
  reg.observe(id, -20.0);  // underflow, clamps to bin 0
  reg.observe(id, 500.0);  // overflow, clamps to last bin
  const auto& cell = reg.histogram_cell(id.index);
  EXPECT_EQ(cell.total, 4u);
  EXPECT_EQ(cell.counts[0], 2u);
  EXPECT_EQ(cell.counts[5], 1u);
  EXPECT_EQ(cell.counts[9], 1u);
  EXPECT_EQ(cell.underflow, 1u);
  EXPECT_EQ(cell.overflow, 1u);
  EXPECT_DOUBLE_EQ(cell.bin_low(5), 50.0);
  EXPECT_DOUBLE_EQ(cell.bin_high(5), 60.0);
}

TEST(Registry, HistogramFirstRegistrationWins) {
  Registry reg;
  const HistogramId a = reg.histogram("first_wins.lat", 0.0, 100.0, 10);
  const HistogramId b = reg.histogram("first_wins.lat", 0.0, 9999.0, 3);
  EXPECT_EQ(a.index, b.index);
  EXPECT_DOUBLE_EQ(reg.histogram_cell(a.index).hi, 100.0);
  EXPECT_EQ(reg.histogram_cell(a.index).counts.size(), 10u);
}

TEST(Registry, ResetValuesKeepsHandles) {
  Registry reg;
  const CounterId c = reg.counter("reset.joins");
  const HistogramId h = reg.histogram("reset.lat", 0.0, 10.0, 2);
  reg.add(c, 3);
  reg.observe(h, 1.0);
  const std::size_t slots = reg.counter_count();
  reg.reset_values();
  EXPECT_EQ(reg.counter_value(c), 0u);
  EXPECT_EQ(reg.histogram_cell(h.index).total, 0u);
  EXPECT_EQ(reg.counter_count(), slots);
  reg.add(c);
  EXPECT_EQ(reg.counter_value("reset.joins"), 1u);
}

TEST(Registry, LookupByNameReadsZeroForUnknownOrUnsetMetrics) {
  Registry reg;
  EXPECT_EQ(reg.counter_value("lookup.never_interned"), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("lookup.never_interned"), 0.0);
  const CounterId c = reg.counter("lookup.joins");
  const GaugeId g = reg.gauge("lookup.online");
  EXPECT_EQ(reg.counter_value("lookup.joins"), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("lookup.online"), 0.0);
  reg.add(c, 3);
  reg.set(g, 12.5);
  EXPECT_EQ(reg.counter_value("lookup.joins"), 3u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("lookup.online"), 12.5);
}

}  // namespace
}  // namespace cloudfog::obs
