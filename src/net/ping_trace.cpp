#include "net/ping_trace.hpp"

namespace cloudfog::net {

namespace {

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
      access_mixture_(make_access_mixture(profile)),
      base_jitter_ms_(base_jitter_for(profile)) {}

double PingTrace::sample_access_latency_ms(util::Rng& rng) const {
  return access_mixture_.sample(rng);
}

}  // namespace cloudfog::net
