// Synthetic ping-latency trace.
//
// The paper samples pairwise communication latency "from the ping latency
// traces from the League of Legends [54] based on each latency's occurrence
// frequency" (§4.1). The trace itself is not distributable; pairwise
// latency comes from the latency model's geometry, and PingTrace supplies
// the two per-node terms the experiments consume:
//   * per-node access (last-mile) latency — a heavy-tailed lognormal
//     mixture, sampled once per node;
//   * per-packet jitter magnitude — drives the continuity metric.
// The "planetlab" profile has a heavier access tail and more jitter,
// matching the wide-area variance observed on the real testbed.
#pragma once

#include "util/distributions.hpp"
#include "util/rng.hpp"

namespace cloudfog::net {

enum class TraceProfile {
  kLeagueOfLegends,  ///< simulation profile (§4.1, ref. [54])
  kPlanetLab,        ///< wide-area testbed profile (heavier tail)
};

class PingTrace {
 public:
  explicit PingTrace(TraceProfile profile);

  TraceProfile profile() const { return profile_; }

  /// One-way access-network latency for a node, in ms. Heavy-tailed:
  /// most nodes 3–15 ms, a tail of poorly connected ones.
  double sample_access_latency_ms(util::Rng& rng) const;

  /// Mean of per-packet delay jitter (ms) under an uncongested path.
  double base_jitter_ms() const { return base_jitter_ms_; }

 private:
  TraceProfile profile_;
  util::LognormalMixture access_mixture_;
  double base_jitter_ms_;
};

}  // namespace cloudfog::net
