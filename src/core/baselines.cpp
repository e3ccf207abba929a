#include "core/baselines.hpp"

namespace cloudfog::core {

std::size_t default_supernode_count(const Testbed& testbed) {
  const std::size_t capable = testbed.supernode_capable().size();
  const std::size_t target =
      testbed.config().profile == TestbedProfile::kPeerSim ? 600 : 30;
  return std::min(target, capable);
}

std::size_t small_cdn_count(const Testbed& testbed) {
  return testbed.config().profile == TestbedProfile::kPeerSim ? 45 : 8;
}

SystemConfig cloud_config(const Testbed& testbed) {
  (void)testbed;
  SystemConfig cfg;
  cfg.architecture = Architecture::kCloudDirect;
  cfg.strategies = StrategyToggles::none();
  return cfg;
}

SystemConfig cdn_config(const Testbed& testbed, std::size_t servers) {
  (void)testbed;
  SystemConfig cfg;
  cfg.architecture = Architecture::kCdn;
  cfg.strategies = StrategyToggles::none();
  cfg.cdn_server_count = servers;
  return cfg;
}

SystemConfig cloudfog_basic_config(const Testbed& testbed, std::size_t supernodes) {
  (void)testbed;
  SystemConfig cfg;
  cfg.architecture = Architecture::kCloudFog;
  cfg.strategies = StrategyToggles::none();
  cfg.supernode_count = supernodes;
  return cfg;
}

SystemConfig cloudfog_advanced_config(const Testbed& testbed, std::size_t supernodes) {
  SystemConfig cfg = cloudfog_basic_config(testbed, supernodes);
  cfg.strategies = StrategyToggles::all();
  return cfg;
}

System make_cloud_system(const Testbed& testbed, std::uint64_t seed, obs::Recorder& rec) {
  return System(testbed, cloud_config(testbed), seed, rec);
}

System make_cdn_system(const Testbed& testbed, std::uint64_t seed, obs::Recorder& rec) {
  // Equal-budget CDN: half as many edge servers as CloudFog supernodes
  // (a CDN server costs about twice a supernode reward, §4.1/Fig. 6b).
  return System(testbed, cdn_config(testbed, default_supernode_count(testbed) / 2), seed,
                rec);
}

System make_small_cdn_system(const Testbed& testbed, std::uint64_t seed, obs::Recorder& rec) {
  return System(testbed, cdn_config(testbed, small_cdn_count(testbed)), seed, rec);
}

System make_cloudfog_basic(const Testbed& testbed, std::uint64_t seed, obs::Recorder& rec) {
  return System(testbed, cloudfog_basic_config(testbed, default_supernode_count(testbed)),
                seed, rec);
}

System make_cloudfog_advanced(const Testbed& testbed, std::uint64_t seed, obs::Recorder& rec) {
  return System(testbed, cloudfog_advanced_config(testbed, default_supernode_count(testbed)),
                seed, rec);
}

}  // namespace cloudfog::core
