#include "net/ping_trace.hpp"

#include <gtest/gtest.h>

#include "util/stats.hpp"

namespace cloudfog::net {
namespace {

TEST(PingTrace, AccessLatencyPositiveAndBounded) {
  const PingTrace trace(TraceProfile::kLeagueOfLegends);
  util::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double ms = trace.sample_access_latency_ms(rng);
    ASSERT_GT(ms, 0.0);
    ASSERT_LT(ms, 500.0);  // sanity tail bound
  }
}

TEST(PingTrace, AccessMedianInLastMileRange) {
  const PingTrace trace(TraceProfile::kLeagueOfLegends);
  util::Rng rng(2);
  util::SampleSet samples;
  for (int i = 0; i < 50000; ++i) samples.add(trace.sample_access_latency_ms(rng));
  EXPECT_GT(samples.median(), 4.0);
  EXPECT_LT(samples.median(), 15.0);
}

TEST(PingTrace, PlanetLabHasHeavierTail) {
  const PingTrace lol(TraceProfile::kLeagueOfLegends);
  const PingTrace pl(TraceProfile::kPlanetLab);
  util::Rng r1(4);
  util::Rng r2(4);
  util::SampleSet s_lol;
  util::SampleSet s_pl;
  for (int i = 0; i < 50000; ++i) {
    s_lol.add(lol.sample_access_latency_ms(r1));
    s_pl.add(pl.sample_access_latency_ms(r2));
  }
  // Access-mixture component medians e^μ: 8.0/16.9/33.1 ms on PlanetLab
  // against 6.0/14.0/27.9 ms on LoL, with a heavier top weight.
  EXPECT_GT(s_pl.percentile(0.9), s_lol.percentile(0.9));
  EXPECT_GT(pl.base_jitter_ms(), lol.base_jitter_ms());
}

}  // namespace
}  // namespace cloudfog::net
