#include "net/ping_trace.hpp"

namespace cloudfog::net {

namespace {

// Mixture parameters are fitted to the published LoL latency histogram
// buckets: ~30 % of sessions in 20–50 ms, ~40 % in 50–90 ms, ~20 % in
// 90–150 ms, ~10 % above. lognormal(mu, sigma) has median e^mu.
util::LognormalMixture make_rtt_mixture(TraceProfile profile) {
  using C = util::LognormalMixture::Component;
  switch (profile) {
    case TraceProfile::kLeagueOfLegends:
      return util::LognormalMixture({
          C{0.30, 3.55, 0.25},  // median ~35 ms
          C{0.40, 4.22, 0.20},  // median ~68 ms
          C{0.20, 4.75, 0.20},  // median ~115 ms
          C{0.10, 5.30, 0.35},  // median ~200 ms tail
      });
    case TraceProfile::kPlanetLab:
      // PlanetLab paths cross academic backbones; fatter tail, higher base.
      return util::LognormalMixture({
          C{0.25, 3.70, 0.30},  // median ~40 ms
          C{0.35, 4.40, 0.25},  // median ~81 ms
          C{0.25, 4.95, 0.25},  // median ~141 ms
          C{0.15, 5.55, 0.40},  // median ~257 ms tail
      });
  }
  return util::LognormalMixture({C{1.0, 4.0, 0.3}});
}

util::LognormalMixture make_access_mixture(TraceProfile profile) {
  using C = util::LognormalMixture::Component;
  switch (profile) {
    case TraceProfile::kLeagueOfLegends:
      // Cable/fibre majority (~6 ms), DSL minority (~14 ms), a congested
      // or wireless tail (~28 ms). Backbone distance, not the last mile,
      // dominates the trace's latency spread.
      return util::LognormalMixture({
          C{0.55, 1.79, 0.35},
          C{0.35, 2.64, 0.30},
          C{0.10, 3.33, 0.35},
      });
    case TraceProfile::kPlanetLab:
      return util::LognormalMixture({
          C{0.50, 2.08, 0.35},
          C{0.35, 2.83, 0.30},
          C{0.15, 3.50, 0.40},
      });
  }
  return util::LognormalMixture({C{1.0, 2.0, 0.3}});
}

double base_jitter_for(TraceProfile profile) {
  switch (profile) {
    case TraceProfile::kLeagueOfLegends:
      return 6.0;
    case TraceProfile::kPlanetLab:
      return 10.0;
  }
  return 6.0;
}

}  // namespace

PingTrace::PingTrace(TraceProfile profile)
    : profile_(profile),
      rtt_mixture_(make_rtt_mixture(profile)),
      access_mixture_(make_access_mixture(profile)),
      base_jitter_ms_(base_jitter_for(profile)) {}

double PingTrace::sample_access_latency_ms(util::Rng& rng) const {
  return access_mixture_.sample(rng);
}

double PingTrace::sample_rtt_ms(util::Rng& rng) const {
  return rtt_mixture_.sample(rng);
}

double PingTrace::rtt_fraction_within(double ms, util::Rng& rng, int samples) const {
  int within = 0;
  for (int i = 0; i < samples; ++i) {
    if (sample_rtt_ms(rng) <= ms) ++within;
  }
  return static_cast<double>(within) / static_cast<double>(samples);
}

}  // namespace cloudfog::net
