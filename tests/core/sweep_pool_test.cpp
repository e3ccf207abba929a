// The sweep pool (core::run_cells) must be invisible in every output: the
// tables, and everything the caller's recorder holds afterwards, are the
// same at one worker and at four. Small PlanetLab worlds at quick() scale
// keep each sweep to milliseconds, so the TSan leg can run all of them.
// The tables are also pinned across changes by digest.
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/binary_trace.hpp"
#include "obs/obs.hpp"
#include "scenario/scenario_engine.hpp"
#include "util/rng.hpp"

namespace cloudfog::core {
namespace {

constexpr auto kPlanetLab = TestbedProfile::kPlanetLab;

ExperimentScale scale_with_jobs(int jobs) {
  ExperimentScale scale = ExperimentScale::quick();
  scale.jobs = jobs;
  return scale;
}

/// Every System-running sweep, in a fixed order; each returns its tables.
std::vector<util::Table> all_sweeps(const ExperimentScale& scale, obs::Recorder& rec) {
  std::vector<util::Table> out;
  auto pop = population_sweep(kPlanetLab, {150, 300}, scale, rec);
  out.push_back(pop.bandwidth);
  out.push_back(pop.latency);
  out.push_back(pop.continuity);
  out.push_back(setup_latency_vs_players(kPlanetLab, {150, 300}, scale, rec));
  out.push_back(setup_latency_vs_supernodes(kPlanetLab, {10, 20}, scale, rec));
  out.push_back(
      satisfaction_sweep(kPlanetLab, SatisfactionStrategy::kReputation, {5, 10}, scale, rec));
  out.push_back(satisfaction_sweep(kPlanetLab, SatisfactionStrategy::kRateAdaptation, {5, 10},
                                   scale, rec));
  out.push_back(server_assignment_sweep(kPlanetLab, {5, 10}, scale, rec));
  auto prov = provisioning_sweep(kPlanetLab, {2, 4}, scale, rec);
  out.push_back(prov.bandwidth);
  out.push_back(prov.latency);
  out.push_back(prov.continuity);
  out.push_back(epsilon_ablation(kPlanetLab, {0.5, 1.0}, 4.0, scale, rec));
  out.push_back(failure_rate_sweep(kPlanetLab, {0.0, 0.1}, scale, rec));
  out.push_back(candidate_count_ablation(kPlanetLab, {2, 5}, scale, rec));
  out.push_back(malicious_supernode_sweep(kPlanetLab, {0.0, 0.3}, scale, rec));
  out.push_back(scenario::chaos_sweep_table(kPlanetLab, {0.0, 4.0}, scale, rec));
  return out;
}

/// util::hash64 of each table as printed at one worker, in all_sweeps()
/// order. A change that moves a digest lists it in CHANGES.md with the
/// reason.
struct PinnedTable {
  const char* title;
  std::uint64_t digest;
};
constexpr PinnedTable kPinnedTables[] = {
    {"Fig 6 — cloud bandwidth (Mbps) vs # players (PlanetLab)", 0x22e44c798bb7b15dULL},
    {"Fig 7 — avg response latency (ms) vs # players (PlanetLab)", 0x514439892256d0c0ULL},
    {"Fig 8 — playback continuity vs # players (PlanetLab)", 0x237827e96f93a4cdULL},
    {"Fig 9(a) — setup latencies (s) vs # players", 0xf2cd8c12b0999f89ULL},
    {"Fig 9(b) — setup latencies (s) vs # supernodes", 0x6e33774c4ee2210aULL},
    {"Fig 10 — % satisfied players, reputation-based selection", 0x00d096d4aefdf194ULL},
    {"Fig 11 — % satisfied players, encoding-rate adaptation", 0xd3e5a2e8c8bccd2eULL},
    {"Fig 12 — response latency split by server communication", 0x0226bf08a4dc4d8fULL},
    {"Fig 13 — cloud bandwidth (Mbps) vs peak arrival rate (PlanetLab)", 0xcbd39c8c2c9e1f5aULL},
    {"Fig 14 — avg response latency (ms) vs peak arrival rate (PlanetLab)",
     0xcb327dc86a08c993ULL},
    {"Fig 15 — continuity vs peak arrival rate (PlanetLab)", 0xc0b4dbd43c4845e3ULL},
    {"Ablation — Eq. 15 over-provisioning factor ε", 0x0d4a5df5bfecc137ULL},
    {"Resilience — QoS under per-cycle supernode failures", 0x90c325a12d2fe572ULL},
    {"Ablation — cloud candidate-list size k (§3.2.1)", 0x4b3cd0da34750ecdULL},
    {"Extension — % satisfied players under malicious supernodes", 0x993d534179e6a19fULL},
    {"Chaos — QoS and recovery under a mixed fault schedule", 0x24b03602f553ee07ULL},
};

struct SweepRun {
  std::vector<util::Table> tables;
  obs::Recorder rec;
};

SweepRun run_all(int jobs) {
  SweepRun run;
  run.rec.set_enabled(true);
  run.tables = all_sweeps(scale_with_jobs(jobs), run.rec);
  return run;
}

class SweepPool : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    serial_ = new SweepRun(run_all(1));
    pooled_ = new SweepRun(run_all(4));
  }
  static void TearDownTestSuite() {
    delete serial_;
    delete pooled_;
  }
  static SweepRun* serial_;
  static SweepRun* pooled_;
};

SweepRun* SweepPool::serial_ = nullptr;
SweepRun* SweepPool::pooled_ = nullptr;

TEST_F(SweepPool, TablesAreCellForCellEqualAtOneAndFourWorkers) {
  ASSERT_EQ(serial_->tables.size(), pooled_->tables.size());
  for (std::size_t t = 0; t < serial_->tables.size(); ++t) {
    const util::Table& a = serial_->tables[t];
    const util::Table& b = pooled_->tables[t];
    ASSERT_EQ(a.title(), b.title());
    ASSERT_EQ(a.row_count(), b.row_count()) << a.title();
    ASSERT_EQ(a.column_count(), b.column_count()) << a.title();
    ASSERT_GT(a.row_count(), 0u) << a.title();
    for (std::size_t r = 0; r < a.row_count(); ++r) {
      for (std::size_t c = 0; c < a.column_count(); ++c) {
        EXPECT_EQ(a.cell(r, c), b.cell(r, c)) << a.title() << " row " << r << " col " << c;
      }
    }
  }
}

TEST_F(SweepPool, TablesMatchTheirPinnedDigests) {
  std::size_t pinned = 0;
  for (const util::Table& table : serial_->tables) {
    ASSERT_LT(pinned, std::size(kPinnedTables)) << table.title();
    const PinnedTable& pin = kPinnedTables[pinned++];
    std::ostringstream printed;
    table.print(printed);
    EXPECT_EQ(table.title(), pin.title);
    EXPECT_EQ(util::hash64(printed.str()), pin.digest) << table.title();
  }
  EXPECT_EQ(pinned, std::size(kPinnedTables));
}

TEST_F(SweepPool, RecorderHoldsTheSameRunsCountersAndPhaseCalls) {
  const obs::Recorder& a = serial_->rec;
  const obs::Recorder& b = pooled_->rec;

  ASSERT_EQ(a.runs().size(), b.runs().size());
  ASSERT_FALSE(a.runs().empty());
  for (std::size_t i = 0; i < a.runs().size(); ++i) {
    const obs::RunSummary& ra = a.runs()[i];
    const obs::RunSummary& rb = b.runs()[i];
    EXPECT_EQ(ra.label, rb.label) << "run " << i;
    EXPECT_EQ(ra.measured_subcycles, rb.measured_subcycles) << "run " << i;
    ASSERT_EQ(ra.stats.size(), rb.stats.size()) << "run " << i;
    for (std::size_t s = 0; s < ra.stats.size(); ++s) {
      EXPECT_EQ(ra.stats[s].name, rb.stats[s].name);
      EXPECT_EQ(ra.stats[s].count, rb.stats[s].count) << ra.label << " " << ra.stats[s].name;
      // Server-assignment samples (Fig. 9, weekly reassigns) are wall-clock
      // seconds.
      if (ra.stats[s].name == "server_assignment_seconds") continue;
      EXPECT_EQ(ra.stats[s].mean, rb.stats[s].mean) << ra.label << " " << ra.stats[s].name;
    }
  }

  const obs::Registry& ga = a.registry();
  const obs::Registry& gb = b.registry();
  EXPECT_GT(ga.counter_value("system.player_joins"), 0u);
  const std::size_t counters = std::max(ga.counter_count(), gb.counter_count());
  for (std::size_t i = 0; i < counters; ++i) {
    const obs::CounterId id{static_cast<std::uint32_t>(i)};
    EXPECT_EQ(ga.counter_value(id), gb.counter_value(id)) << ga.counter_name(i);
  }
  ASSERT_EQ(ga.histogram_count(), gb.histogram_count());
  for (std::size_t h = 0; h < ga.histogram_count(); ++h) {
    EXPECT_EQ(ga.histogram_cell(h).counts, gb.histogram_cell(h).counts)
        << ga.histogram_cell(h).name;
    EXPECT_EQ(ga.histogram_cell(h).total, gb.histogram_cell(h).total);
  }

  const auto& pa = a.profiler().phases();
  const auto& pb = b.profiler().phases();
  const std::size_t phases = std::max(pa.size(), pb.size());
  for (std::size_t i = 0; i < phases; ++i) {
    const std::uint64_t ca = i < pa.size() ? pa[i].count : 0;
    const std::uint64_t cb = i < pb.size() ? pb[i].count : 0;
    EXPECT_EQ(ca, cb) << (i < pa.size() ? pa[i].name : pb[i].name);
  }
  ASSERT_NE(a.profiler().find("qos.subcycle"), nullptr);
  EXPECT_GT(a.profiler().find("qos.subcycle")->count, 0u);

  EXPECT_GT(a.trace_buffer().total_pushed(), 0u);
  EXPECT_EQ(a.trace_buffer().total_pushed(), b.trace_buffer().total_pushed());
  EXPECT_EQ(a.trace_buffer().dropped(), b.trace_buffer().dropped());
  // Every event is accounted for: the cells kept none, so they count as
  // dropped, never as buffered.
  for (const obs::Recorder* r : {&a, &b}) {
    const obs::TraceBuffer& t = r->trace_buffer();
    EXPECT_EQ(t.total_pushed(), t.size() + t.dropped());
  }
}

TEST(SweepPoolTrace, TracedSweepRunsInPlaceAndIsByteIdentical) {
  const auto traced = [](int jobs) {
    std::ostringstream os(std::ios::binary);
    obs::BinaryTraceSink sink(os);
    obs::Recorder rec;
    rec.set_enabled(true);
    rec.trace_buffer().set_event_sink(&sink);
    const auto tables =
        candidate_count_ablation(kPlanetLab, {2, 5, 8}, scale_with_jobs(jobs), rec);
    rec.trace_buffer().flush();
    rec.trace_buffer().set_event_sink(nullptr);
    EXPECT_EQ(rec.runs().size(), 3u);
    return os.str();
  };
  const std::string serial = traced(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, traced(4));
}

TEST(SweepPoolErrors, LowestFailingCellIsRethrownAndNoWorkerOutlivesTheSweep) {
  for (int jobs : {1, 4}) {
    std::atomic<int> running{0};
    obs::Recorder rec;
    rec.set_enabled(true);
    const auto cell = [&](std::size_t i, obs::Recorder& cell_rec) {
      ++running;
      // Cell 0 is still busy when cell 3 fails on another worker.
      if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
      cell_rec.add_run_summary(obs::RunSummary{"cell" + std::to_string(i), i, {}});
      --running;
      if (i == 3 || i == 5) throw std::runtime_error("cell " + std::to_string(i));
    };
    try {
      run_cells(8, jobs, rec, cell);
      ADD_FAILURE() << "sweep swallowed the cell error at jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "cell 3") << "jobs=" << jobs;
    }
    EXPECT_EQ(running.load(), 0) << "a worker outlived the sweep at jobs=" << jobs;
    // The cells before the failure are merged, in order.
    ASSERT_EQ(rec.runs().size(), 3u) << "jobs=" << jobs;
    for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(rec.runs()[i].label, "cell" + std::to_string(i));
  }
}

TEST(SweepPoolErrors, ZeroCellsIsANoOp) {
  obs::Recorder rec;
  int calls = 0;
  run_cells(0, 0, rec, [&](std::size_t, obs::Recorder&) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_TRUE(rec.runs().empty());
}

}  // namespace
}  // namespace cloudfog::core
