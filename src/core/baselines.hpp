// Factories for the paper's experimental arms (§4.1):
//   Cloud       — the current cloud-gaming model [6]: every player streams
//                 directly from its nearest datacenter;
//   CDN         — EdgeCloud [21]: edge servers compute state and stream;
//                 server count = ½ of CloudFog's supernode count (equal
//                 budget, §4.1);
//   CDN-45/CDN-8 — fixed small CDN deployments (45 servers in simulation,
//                 8 on PlanetLab);
//   CloudFog/B  — the fog infrastructure with no §3 strategies;
//   CloudFog/A  — all four strategies enabled.
#pragma once

#include <cstdint>

#include "core/system.hpp"

namespace cloudfog::core {

/// Supernode fleet size per profile (600 in simulation, 30 on PlanetLab).
std::size_t default_supernode_count(const Testbed& testbed);

/// Fixed small CDN size (45 in simulation, 8 on PlanetLab).
std::size_t small_cdn_count(const Testbed& testbed);

SystemConfig cloud_config(const Testbed& testbed);
SystemConfig cdn_config(const Testbed& testbed, std::size_t servers);
SystemConfig cloudfog_basic_config(const Testbed& testbed, std::size_t supernodes);
SystemConfig cloudfog_advanced_config(const Testbed& testbed, std::size_t supernodes);

/// The arms as Systems reporting into `rec`.
System make_cloud_system(const Testbed& testbed, std::uint64_t seed,
                         obs::Recorder& rec = obs::Recorder::global());
System make_cdn_system(const Testbed& testbed, std::uint64_t seed,
                       obs::Recorder& rec = obs::Recorder::global());
System make_small_cdn_system(const Testbed& testbed, std::uint64_t seed,
                             obs::Recorder& rec = obs::Recorder::global());
System make_cloudfog_basic(const Testbed& testbed, std::uint64_t seed,
                           obs::Recorder& rec = obs::Recorder::global());
System make_cloudfog_advanced(const Testbed& testbed, std::uint64_t seed,
                              obs::Recorder& rec = obs::Recorder::global());

}  // namespace cloudfog::core
