#include "checks.hpp"

#include <cmath>
#include <cstdlib>
#include <sstream>

namespace perfbench {

namespace cu = cloudfog::util;

void Checks::expect(bool ok, std::string_view what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 8) failures_.emplace_back(what);
}

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex;
  os.width(16);
  os.fill('0');
  os << v;
  return os.str();
}

namespace {

/// Parses a whole cell as a number; NaN when it is not one.
double number(const std::string& cell) {
  char* end = nullptr;
  const double v = std::strtod(cell.c_str(), &end);
  return end != cell.c_str() && *end == '\0' ? v : std::nan("");
}

/// Column index of `name` in the table's header (read back from its CSV
/// rendering, whose first line is the header); column_count() if absent.
std::size_t column(const cu::Table& table, std::string_view name) {
  std::ostringstream os;
  table.print_csv(os);
  std::istringstream lines(os.str());
  std::string header;
  std::getline(lines, header);
  std::istringstream cells(header);
  std::string cell;
  for (std::size_t c = 0; std::getline(cells, cell, ','); ++c) {
    if (cell == name) return c;
  }
  return table.column_count();
}

/// Expects column `low` < column `high` on every row, or, with `on_mean`,
/// between the two columns' means over all rows.
void expect_below(const cu::Table& table, std::string_view low, std::string_view high,
                  bool on_mean, Checks& checks) {
  const std::size_t lo = column(table, low);
  const std::size_t hi = column(table, high);
  checks.expect(lo < table.column_count() && hi < table.column_count(),
                "table is missing a compared column");
  if (lo >= table.column_count() || hi >= table.column_count()) return;
  const std::string what = std::string(low) + " not below " + std::string(high);
  if (on_mean) {
    double low_sum = 0.0;
    double high_sum = 0.0;
    for (std::size_t r = 0; r < table.row_count(); ++r) {
      low_sum += number(table.cell(r, lo));
      high_sum += number(table.cell(r, hi));
    }
    checks.expect(low_sum < high_sum, what + " on the mean over rows");
    return;
  }
  for (std::size_t r = 0; r < table.row_count(); ++r) {
    checks.expect(number(table.cell(r, lo)) < number(table.cell(r, hi)),
                  what + " at x=" + table.cell(r, 0));
  }
}

}  // namespace

void check_table(const cu::Table& table, TableRule rule, Checks& checks, Digest& digest) {
  std::ostringstream rendered;
  table.print(rendered);
  digest.str(rendered.str());

  checks.expect(table.row_count() > 0, "empty figure table");
  for (std::size_t r = 0; r < table.row_count(); ++r) {
    for (std::size_t c = 1; c < table.column_count(); ++c) {
      const double v = number(table.cell(r, c));
      checks.expect(std::isfinite(v), "non-finite table cell");
      if (rule == TableRule::kContinuityInUnit) {
        checks.expect(v >= 0.0 && v <= 1.0, "continuity outside [0,1]");
      }
    }
  }
  switch (rule) {
    case TableRule::kFiniteOnly:
    case TableRule::kContinuityInUnit:
      break;
    case TableRule::kFogEgressBelowCloud:
    case TableRule::kFogEgressBelowCloudOnMean:
      expect_below(table, "CloudFog", "Cloud", rule == TableRule::kFogEgressBelowCloudOnMean,
                   checks);
      break;
    case TableRule::kFogALatencyBelowCloud:
    case TableRule::kFogALatencyBelowCloudOnMean:
      expect_below(table, "CloudFog/A", "Cloud",
                   rule == TableRule::kFogALatencyBelowCloudOnMean, checks);
      break;
    case TableRule::kServerAssignmentHelps:
      expect_below(table, "w/ server lat", "w/o server lat", false, checks);
      break;
  }
}

void check_subcycle(const cloudfog::core::SubcycleQos& qos, Checks& checks, Digest& digest) {
  const double values[] = {qos.avg_response_latency_ms, qos.avg_server_latency_ms,
                           qos.avg_continuity,          qos.satisfied_fraction,
                           qos.avg_mos,                 qos.cloud_egress_mbps};
  for (double v : values) {
    checks.expect(std::isfinite(v), "non-finite subcycle output");
    digest.f64(v);
  }
  checks.expect(qos.avg_continuity >= 0.0 && qos.avg_continuity <= 1.0,
                "subcycle continuity outside [0,1]");
  for (std::size_t n : {qos.online_sessions, qos.fog_served, qos.cloud_served, qos.cdn_served}) {
    digest.u64(n);
  }
}

void digest_run_metrics(const cloudfog::core::RunMetrics& m, Digest& digest) {
  for (const cu::RunningStats* s :
       {&m.response_latency_ms, &m.server_latency_ms, &m.continuity, &m.satisfied_fraction,
        &m.mos, &m.cloud_egress_mbps, &m.fog_served_fraction, &m.online_sessions,
        &m.fallback_residency}) {
    digest.u64(s->count());
    digest.f64(s->mean());
  }
  for (const cu::SampleSet* s : {&m.player_join_latency_ms, &m.supernode_join_latency_ms,
                                 &m.migration_latency_ms, &m.mttr_ms}) {
    digest.u64(s->count());
    digest.f64(s->mean());
  }
  digest.u64(m.server_assignment_seconds.count());
  for (std::uint64_t n :
       {m.sessions_interrupted, m.fallbacks, m.fog_returns, m.migration_storm_peak}) {
    digest.u64(n);
  }
}

bool self_test(std::string* report) {
  const auto fig7 = [](const char* fog_a) {
    cu::Table t("Fig 7 — self-test");
    t.set_header({"# players", "Cloud", "CDN", "CloudFog/B", "CloudFog/A"});
    t.add_row({"2000", "180.0", "120.0", "90.0", "70.0"});
    t.add_row({"4000", "190.0", "125.0", "95.0", fog_a});
    return t;
  };
  const auto fig8 = [](const char* fog_a) {
    cu::Table t("Fig 8 — self-test");
    t.set_header({"# players", "Cloud", "CloudFog/A"});
    t.add_row({"2000", "0.700", fog_a});
    return t;
  };
  const auto fig12 = [](const char* with_server) {
    cu::Table t("Fig 12 — self-test");
    t.set_header({"servers per DC", "w/ server lat", "w/ other lat", "w/o server lat",
                  "w/o other lat"});
    t.add_row({"5", with_server, "60.0", "25.0", "60.0"});
    return t;
  };
  struct Case {
    const char* name;
    cu::Table table;
    TableRule rule;
    bool should_fail;
  };
  const Case cases[] = {
      {"clean Fig 7", fig7("75.0"), TableRule::kFogALatencyBelowCloud, false},
      {"clean Fig 8", fig8("0.950"), TableRule::kContinuityInUnit, false},
      {"clean Fig 12", fig12("10.0"), TableRule::kServerAssignmentHelps, false},
      {"CloudFog/A slower than Cloud", fig7("250.0"), TableRule::kFogALatencyBelowCloud, true},
      {"one slow row, mean below Cloud", fig7("250.0"), TableRule::kFogALatencyBelowCloudOnMean,
       false},
      {"CloudFog/A slower than Cloud on the mean", fig7("400.0"),
       TableRule::kFogALatencyBelowCloudOnMean, true},
      {"NaN cell", fig7("nan"), TableRule::kFogALatencyBelowCloud, true},
      {"continuity above 1", fig8("1.200"), TableRule::kContinuityInUnit, true},
      {"server assignment not helping", fig12("30.0"), TableRule::kServerAssignmentHelps,
       true},
  };
  bool ok = true;
  std::ostringstream os;
  for (const Case& c : cases) {
    Checks checks;
    Digest digest;
    check_table(c.table, c.rule, checks, digest);
    const bool flagged = checks.failed() > 0;
    const bool pass = flagged == c.should_fail;
    ok = ok && pass;
    os << (pass ? "ok" : "WRONG") << ": " << c.name << " -> "
       << (flagged ? "flagged" : "passes") << '\n';
  }
  if (report != nullptr) *report = os.str();
  return ok;
}

}  // namespace perfbench
