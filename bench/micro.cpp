// Microbenchmarks of the hot paths (google-benchmark): the quantities the
// paper analyses asymptotically — community partitioning (O(h1·Σ deg) with
// in-place swap scoring), O(m·n·N_r) reputation scoring — plus the event
// queue, the rate adapter step and the SARIMA recursion.
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "core/provisioner.hpp"
#include "core/system.hpp"
#include "core/testbed.hpp"
#include "obs/obs.hpp"
#include "forecast/sarima.hpp"
#include "reputation/reputation_store.hpp"
#include "sim/event_queue.hpp"
#include "social/community_partitioner.hpp"
#include "social/social_graph.hpp"
#include "util/rng.hpp"
#include "video/qoe.hpp"
#include "video/rate_adapter.hpp"

namespace {

using namespace cloudfog;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    int fired = 0;
    for (int i = 0; i < n; ++i) {
      q.schedule(static_cast<double>((i * 7919) % n), [&fired] { ++fired; });
    }
    while (!q.empty()) q.pop().callback();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1000)->Arg(10000);

/// z of the §3.4 partition on the default testbed (datacenters × servers).
const int kDefaultServers = static_cast<int>(core::TestbedConfig{}.datacenter_count) *
                            core::TestbedConfig{}.servers_per_datacenter;

void BM_ModularitySwapTrial(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  const auto graph = social::generate_power_law_graph(n, social::SocialGraphConfig{}, rng);
  social::PartitionerConfig pcfg;
  pcfg.communities = kDefaultServers;
  pcfg.max_swap_trials = 0;
  pcfg.max_consecutive_miss = 0;
  social::ModularityState ms(graph, social::CommunityPartitioner(pcfg).greedy_seed(graph, rng),
                             kDefaultServers);
  // Pre-drawn trial pairs, so the loop times the in-place scoring alone.
  std::vector<std::pair<social::PlayerId, social::PlayerId>> trials(4096);
  for (auto& [pi, pj] : trials) {
    pi = static_cast<social::PlayerId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    pj = static_cast<social::PlayerId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const auto& [pi, pj] = trials[next];
    benchmark::DoNotOptimize(ms.score_swap(pi, pj));
    next = (next + 1) % trials.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModularitySwapTrial)->Arg(10000);

void BM_CommunityPartition(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(11);
  const auto graph = social::generate_power_law_graph(n, social::SocialGraphConfig{}, rng);
  const core::SystemConfig defaults;
  social::PartitionerConfig pcfg;
  pcfg.communities = kDefaultServers;
  pcfg.max_swap_trials = defaults.partitioner_swap_trials;
  pcfg.max_consecutive_miss = defaults.partitioner_miss_limit;
  const social::CommunityPartitioner partitioner(pcfg);
  for (auto _ : state) {
    util::Rng run_rng(13);
    benchmark::DoNotOptimize(partitioner.partition(graph, run_rng));
  }
}
BENCHMARK(BM_CommunityPartition)->Arg(1000)->Arg(5000);

void BM_ReputationScore(benchmark::State& state) {
  const int ratings = static_cast<int>(state.range(0));
  reputation::ReputationStore store(0.9, static_cast<std::size_t>(ratings));
  for (int i = 0; i < ratings; ++i) {
    store.add_rating(3, 0.8, i + 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.score(3, ratings + 1));
  }
}
BENCHMARK(BM_ReputationScore)->Arg(16)->Arg(64);

void BM_RateAdapterStep(benchmark::State& state) {
  const auto catalog = game::GameCatalog::paper_default();
  video::RateAdapterConfig cfg;
  video::RateAdapter adapter(catalog, 2, cfg);
  double rate = 900e3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(adapter.step(2.0, rate));
    rate = rate > 500e3 ? rate - 1e3 : 1200e3;  // oscillate around the ladder
  }
}
BENCHMARK(BM_RateAdapterStep);

void BM_SarimaObserveForecast(benchmark::State& state) {
  forecast::SeasonalArima model(forecast::SarimaConfig{42, 0.3, 0.3});
  double v = 1000.0;
  for (auto _ : state) {
    model.observe(v);
    benchmark::DoNotOptimize(model.forecast_next());
    v = v < 5000 ? v * 1.01 : 1000.0;
  }
}
// Bounded iterations: the model keeps its observation history, so an
// unbounded run would grow memory linearly.
BENCHMARK(BM_SarimaObserveForecast)->Iterations(100000);

void BM_QoeMos(benchmark::State& state) {
  const video::QoeModel model;
  double lat = 40.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.mos(lat, 0.93, 1200.0));
    lat = lat < 200.0 ? lat + 0.1 : 40.0;
  }
}
BENCHMARK(BM_QoeMos);

// §3.2 step 1 at fleet scale: the geo-grid index over every player
// endpoint in the testbed. Every node is deployed; with `saturated` only
// every 100th has a free seat, the regime §3.5 provisioning runs the fleet
// in.
void run_candidate_discovery(benchmark::State& state, bool saturated) {
  const auto fleet_size = static_cast<std::size_t>(state.range(0));
  auto cfg = core::TestbedConfig::peersim(std::max<std::size_t>(fleet_size, 2000));
  cfg.supernode_capable_fraction = 1.0;  // allow fleets beyond the 10 % pool
  const core::Testbed testbed(cfg, 42);
  core::Cloud cloud(testbed.make_datacenters(), testbed.latency(), net::IpLocator{});
  auto fleet = testbed.make_supernode_fleet(fleet_size);
  util::Rng reg_rng(7);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    cloud.register_supernode(fleet[i], reg_rng);
    fleet[i].deployed = true;
    if (saturated && i % 100 != 0) fleet[i].served = fleet[i].capacity;
  }
  constexpr std::size_t kQueries = 1000;
  std::vector<std::size_t> out;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kQueries; ++i) {
      cloud.candidate_supernodes_into(testbed.players()[i].endpoint, fleet, 8, out);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kQueries));
}

void BM_CandidateDiscovery(benchmark::State& state) { run_candidate_discovery(state, false); }
BENCHMARK(BM_CandidateDiscovery)->ArgName("fleet")->Arg(1000)->Arg(10000);

void BM_CandidateDiscoverySaturated(benchmark::State& state) {
  run_candidate_discovery(state, true);
}
BENCHMARK(BM_CandidateDiscoverySaturated)->ArgName("fleet")->Arg(10000);

// The join path's lookup (Cloud::candidate_supernodes_for): each player
// walks its own nearby list and asks the grid only when the list cannot
// prove the answer. Lists are built in an untimed first pass, as a System
// builds them on each player's first join; the fleets are the default
// SystemConfig's 600 nodes and 10k, with `saturated` as in
// run_candidate_discovery.
void BM_CandidateDiscoveryNearby(benchmark::State& state) {
  const auto fleet_size = static_cast<std::size_t>(state.range(0));
  const bool saturated = state.range(1) != 0;
  auto cfg = core::TestbedConfig::peersim(std::max<std::size_t>(fleet_size, 2000));
  cfg.supernode_capable_fraction = 1.0;
  const core::Testbed testbed(cfg, 42);
  core::Cloud cloud(testbed.make_datacenters(), testbed.latency(), net::IpLocator{});
  auto fleet = testbed.make_supernode_fleet(fleet_size);
  util::Rng reg_rng(7);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    cloud.register_supernode(fleet[i], reg_rng);
    fleet[i].deployed = true;
    if (saturated && i % 100 != 0) fleet[i].served = fleet[i].capacity;
  }
  constexpr std::size_t kQueries = 1000;
  std::vector<core::PlayerState> players(kQueries);
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < kQueries; ++i) {
    players[i].info = testbed.players()[i];
    cloud.candidate_supernodes_for(players[i], fleet, 8, out);
  }
  for (auto _ : state) {
    for (core::PlayerState& player : players) {
      cloud.candidate_supernodes_for(player, fleet, 8, out);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kQueries));
}
BENCHMARK(BM_CandidateDiscoveryNearby)
    ->ArgNames({"fleet", "saturated"})
    ->Args({600, 0})
    ->Args({600, 1})
    ->Args({10000, 0})
    ->Args({10000, 1});

// One end-to-end System subcycle (population churn + demand tallies + QoS
// pass) on the CloudFog arm. `adapt` 0 runs no §3.3 adaptation, so each
// session's substeps run back to back; `adapt` 1 turns every strategy on
// (StrategyToggles::all()), and the pass keeps substep order.
void BM_QosSubcycle(benchmark::State& state) {
  const auto players = static_cast<std::size_t>(state.range(0));
  const core::Testbed testbed(core::TestbedConfig::peersim(players), 42);
  core::SystemConfig cfg;
  cfg.supernode_count = players / 10;  // the profile's capable pool
  if (state.range(1) != 0) cfg.strategies = core::StrategyToggles::all();
  core::System system(testbed, cfg, 42);
  constexpr int per_day = sim::CycleConfig::subcycles_per_cycle;
  system.begin_cycle(1);
  for (int s = 1; s <= per_day; ++s) system.run_subcycle(1, s, true, false);  // warm up
  int sub = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.run_subcycle(1, sub, false, false));
    sub = sub % per_day + 1;  // subcycles are 1-based on a daily clock
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(players));
}
BENCHMARK(BM_QosSubcycle)
    ->ArgNames({"players", "adapt"})
    ->Args({2000, 0})
    ->Args({2000, 1})
    ->Unit(benchmark::kMillisecond);

// Observability hot paths: the disabled gate must be near-free; the
// enabled increments bound what instrumented code pays per event.
void BM_ObsDisabledGate(benchmark::State& state) {
  auto& rec = obs::Recorder::global();
  const bool was = rec.enabled();
  rec.set_enabled(false);
  const auto id = rec.registry().counter("bench.obs.gate");
  for (auto _ : state) {
    if (rec.enabled()) rec.registry().add(id);
    benchmark::DoNotOptimize(&rec);
  }
  rec.set_enabled(was);
}
BENCHMARK(BM_ObsDisabledGate);

void BM_ObsCounterAdd(benchmark::State& state) {
  auto& rec = obs::Recorder::global();
  const bool was = rec.enabled();
  rec.set_enabled(true);
  const auto id = rec.registry().counter("bench.obs.counter");
  for (auto _ : state) {
    if (rec.enabled()) rec.registry().add(id);
  }
  rec.set_enabled(was);
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramObserve(benchmark::State& state) {
  auto& rec = obs::Recorder::global();
  const bool was = rec.enabled();
  rec.set_enabled(true);
  const auto id = rec.registry().histogram("bench.obs.hist", 0.0, 1000.0, 40);
  double v = 0.0;
  for (auto _ : state) {
    rec.registry().observe(id, v);
    v = v < 1000.0 ? v + 0.7 : 0.0;
  }
  rec.set_enabled(was);
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsTracePush(benchmark::State& state) {
  auto& rec = obs::Recorder::global();
  const bool was = rec.enabled();
  rec.set_enabled(true);
  double t = 0.0;
  for (auto _ : state) {
    rec.trace_at(t, obs::EventKind::kProbeSent, 1, 2, 3.0);
    t += 1.0;
  }
  rec.trace_buffer().clear();
  rec.set_enabled(was);
}
BENCHMARK(BM_ObsTracePush);

// The same push into a count-only recorder, as every sweep cell has: the
// event is counted inline and never built.
void BM_ObsTracePushCountOnly(benchmark::State& state) {
  obs::Recorder rec(0);
  rec.set_enabled(true);
  double t = 0.0;
  for (auto _ : state) {
    rec.trace_at(t, obs::EventKind::kProbeSent, 1, 2, 3.0);
    benchmark::ClobberMemory();
    t += 1.0;
  }
  benchmark::DoNotOptimize(rec.trace_buffer().total_pushed());
}
BENCHMARK(BM_ObsTracePushCountOnly);

void BM_ObsScopedTimer(benchmark::State& state) {
  auto& rec = obs::Recorder::global();
  const bool was = rec.enabled();
  rec.set_enabled(true);
  for (auto _ : state) {
    CLOUDFOG_TIMED_SCOPE(rec, "bench.obs.scope");
    benchmark::DoNotOptimize(&rec);
  }
  rec.set_enabled(was);
}
BENCHMARK(BM_ObsScopedTimer);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): accept the repo-wide --obs-off
// flag (the recorder is off in microbenchmarks either way — the *Obs*
// benchmarks above opt in locally) before google-benchmark rejects it as
// unrecognized.
int main(int argc, char** argv) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--obs-off") == 0) continue;
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  cloudfog::obs::Recorder::global().set_enabled(false);
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
