#include "fault/fault_plan.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>

#include "util/require.hpp"

namespace cloudfog::fault {

namespace {

/// Poisson arrival walk for one fault kind: exponential inter-arrival gaps
/// at `rate_per_s` until the horizon is crossed. One dedicated Rng stream
/// per kind keeps the schedule of each kind independent of the others'
/// mix weights.
template <typename MakeSpec>
void walk_arrivals(double horizon_s, double rate_per_s, util::Rng rng,
                   std::vector<FaultSpec>& out, MakeSpec&& make_spec) {
  if (rate_per_s <= 0.0 || horizon_s <= 0.0) return;
  double t = 0.0;
  for (;;) {
    // Inverse-CDF exponential draw; 1 - u avoids log(0).
    t += -std::log(1.0 - rng.next_double()) / rate_per_s;
    if (t >= horizon_s) break;
    out.push_back(make_spec(t, rng));
  }
}

double draw_duration(const FaultPlanConfig& cfg, util::Rng& rng) {
  const double d = -std::log(1.0 - rng.next_double()) * cfg.mean_duration_s;
  return std::max(d, 60.0);
}

/// Supernode indices random victims are drawn from: the in-box subset when
/// a target box selects one, the whole fleet otherwise (empty = whole).
std::vector<std::size_t> victim_pool(const FaultPlanConfig& cfg) {
  if (!cfg.target_box.has_value() || cfg.positions.empty()) return {};
  return nodes_in_box(cfg.positions, *cfg.target_box);
}

std::size_t draw_supernode(const FaultPlanConfig& cfg,
                           const std::vector<std::size_t>& pool, util::Rng& rng) {
  if (!pool.empty()) {
    return pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
  }
  if (cfg.supernode_count == 0) return kAnyTarget;
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(cfg.supernode_count) - 1));
}

}  // namespace

std::vector<std::size_t> nodes_in_box(const std::vector<NodePosition>& positions,
                                      const GeoBox& box) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (box.contains(positions[i].x_km, positions[i].y_km)) out.push_back(i);
  }
  return out;
}

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kSupernodeCrash: return "supernode_crash";
    case FaultKind::kSlowNode: return "slow_node";
    case FaultKind::kNetworkPartition: return "network_partition";
    case FaultKind::kPacketLossBurst: return "packet_loss_burst";
    case FaultKind::kMessageDelayBurst: return "message_delay_burst";
    case FaultKind::kProbeBlackhole: return "probe_blackhole";
  }
  return "unknown";
}

obs::NoteId fault_kind_note(FaultKind kind) {
  static const std::array<obs::NoteId, 6> notes = {
      obs::intern_note("supernode_crash"),    obs::intern_note("slow_node"),
      obs::intern_note("network_partition"),  obs::intern_note("packet_loss_burst"),
      obs::intern_note("message_delay_burst"), obs::intern_note("probe_blackhole"),
  };
  const auto index = static_cast<std::size_t>(kind);
  return index < notes.size() ? notes[index] : obs::NoteId{};
}

FaultPlan FaultPlan::generate(const FaultPlanConfig& cfg) {
  CLOUDFOG_REQUIRE(cfg.faults_per_hour >= 0.0, "fault rate must be non-negative");
  CLOUDFOG_REQUIRE(cfg.mean_duration_s > 0.0, "mean duration must be positive");
  CLOUDFOG_REQUIRE(cfg.loss_fraction >= 0.0 && cfg.loss_fraction <= 1.0,
                   "loss fraction must be within [0, 1]");

  FaultPlan plan;
  const double mix_total = cfg.mix.total();
  if (cfg.faults_per_hour > 0.0 && cfg.horizon_s > 0.0 && mix_total > 0.0) {
    const double rate_s = cfg.faults_per_hour / 3600.0;
    const auto kind_rng = [&](const char* label) {
      return util::Rng(util::splitmix64(cfg.seed ^ util::hash64(label)),
                       util::hash64(label));
    };
    const auto kind_rate = [&](double weight) { return rate_s * weight / mix_total; };
    const std::vector<std::size_t> pool = victim_pool(cfg);

    walk_arrivals(cfg.horizon_s, kind_rate(cfg.mix.crash), kind_rng("crash"),
                  plan.specs_, [&](double t, util::Rng& rng) {
                    FaultSpec s;
                    s.kind = FaultKind::kSupernodeCrash;
                    s.at_s = t;
                    s.duration_s = draw_duration(cfg, rng);
                    // Unboxed plans defer to the executor (it prefers a
                    // serving victim); a geo-boxed plan must name an in-box
                    // node or the correlation is lost.
                    s.target = pool.empty() ? kAnyTarget : draw_supernode(cfg, pool, rng);
                    return s;
                  });
    walk_arrivals(cfg.horizon_s, kind_rate(cfg.mix.slow_node), kind_rng("slow"),
                  plan.specs_, [&](double t, util::Rng& rng) {
                    FaultSpec s;
                    s.kind = FaultKind::kSlowNode;
                    s.at_s = t;
                    s.duration_s = draw_duration(cfg, rng);
                    s.target = draw_supernode(cfg, pool, rng);
                    s.magnitude = cfg.slow_ms;
                    return s;
                  });
    if (cfg.region_count >= 2) {
      walk_arrivals(cfg.horizon_s, kind_rate(cfg.mix.partition), kind_rng("partition"),
                    plan.specs_, [&](double t, util::Rng& rng) {
                      FaultSpec s;
                      s.kind = FaultKind::kNetworkPartition;
                      s.at_s = t;
                      s.duration_s = draw_duration(cfg, rng);
                      const auto n = static_cast<std::int64_t>(cfg.region_count);
                      s.target = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
                      s.target_b = static_cast<std::size_t>(rng.uniform_int(0, n - 2));
                      if (s.target_b >= s.target) ++s.target_b;  // distinct regions
                      return s;
                    });
    }
    walk_arrivals(cfg.horizon_s, kind_rate(cfg.mix.loss_burst), kind_rng("loss"),
                  plan.specs_, [&](double t, util::Rng& rng) {
                    FaultSpec s;
                    s.kind = FaultKind::kPacketLossBurst;
                    s.at_s = t;
                    s.duration_s = draw_duration(cfg, rng);
                    s.magnitude = cfg.loss_fraction;
                    return s;
                  });
    walk_arrivals(cfg.horizon_s, kind_rate(cfg.mix.delay_burst), kind_rng("delay"),
                  plan.specs_, [&](double t, util::Rng& rng) {
                    FaultSpec s;
                    s.kind = FaultKind::kMessageDelayBurst;
                    s.at_s = t;
                    s.duration_s = draw_duration(cfg, rng);
                    s.magnitude = cfg.delay_ms;
                    return s;
                  });
    walk_arrivals(cfg.horizon_s, kind_rate(cfg.mix.blackhole), kind_rng("blackhole"),
                  plan.specs_, [&](double t, util::Rng& rng) {
                    FaultSpec s;
                    s.kind = FaultKind::kProbeBlackhole;
                    s.at_s = t;
                    s.duration_s = draw_duration(cfg, rng);
                    s.target = draw_supernode(cfg, pool, rng);
                    return s;
                  });
  }

  plan.specs_.insert(plan.specs_.end(), cfg.extra_specs.begin(), cfg.extra_specs.end());
  std::stable_sort(plan.specs_.begin(), plan.specs_.end(),
                   [](const FaultSpec& a, const FaultSpec& b) { return a.at_s < b.at_s; });
  return plan;
}

std::vector<FaultSpec> regional_outage_specs(const std::vector<NodePosition>& positions,
                                             const GeoBox& box, double at_s,
                                             double duration_s, double crash_fraction,
                                             double loss_fraction, double delay_ms,
                                             std::uint64_t seed) {
  CLOUDFOG_REQUIRE(crash_fraction >= 0.0 && crash_fraction <= 1.0,
                   "crash fraction must be within [0, 1]");
  CLOUDFOG_REQUIRE(loss_fraction >= 0.0 && loss_fraction <= 1.0,
                   "loss fraction must be within [0, 1]");
  std::vector<std::size_t> in_box = nodes_in_box(positions, box);
  if (in_box.empty()) return {};

  std::vector<FaultSpec> specs;
  util::Rng rng(util::splitmix64(seed ^ util::hash64("outage")), util::hash64("outage"));
  std::shuffle(in_box.begin(), in_box.end(), rng);
  const auto victims = static_cast<std::size_t>(
      std::ceil(crash_fraction * static_cast<double>(in_box.size())));
  for (std::size_t i = 0; i < victims; ++i) {
    FaultSpec s;
    s.kind = FaultKind::kSupernodeCrash;
    s.at_s = at_s;
    s.duration_s = duration_s;
    s.target = in_box[i];
    specs.push_back(s);
  }
  if (loss_fraction > 0.0) {
    FaultSpec s;
    s.kind = FaultKind::kPacketLossBurst;
    s.at_s = at_s;
    s.duration_s = duration_s;
    s.magnitude = loss_fraction;
    specs.push_back(s);
  }
  if (delay_ms > 0.0) {
    FaultSpec s;
    s.kind = FaultKind::kMessageDelayBurst;
    s.at_s = at_s;
    s.duration_s = duration_s;
    s.magnitude = delay_ms;
    specs.push_back(s);
  }
  return specs;
}

std::uint64_t fault_seed_from_env(std::uint64_t fallback) {
  const char* env = std::getenv("CLOUDFOG_FAULT_SEED");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(env, &end, 10);
  if (end == env) return fallback;
  return static_cast<std::uint64_t>(parsed);
}

}  // namespace cloudfog::fault
