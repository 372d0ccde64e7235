// Differential test of the report convergecast: the level frontier in
// src/isomap/convergecast.cpp against the full post-order walk it
// replaced (tests/oracles/convergecast_post_order.hpp). Every observable
// output must match bit for bit: sink reports in order, counters, every
// node's ledger and telemetry, the transmission log, e2e latencies and
// the trace event sequence.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "exec/exec.hpp"
#include "isomap/convergecast.hpp"
#include "isomap/node_selection.hpp"
#include "obs/metrics.hpp"
#include "obs/node_telemetry.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "oracles/convergecast_post_order.hpp"
#include "sim/runners.hpp"

namespace isomap {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// One convergecast configuration: a scenario and a link.
struct Case {
  const char* name = "";
  ScenarioConfig scenario;
  bool filtering = true;
  LinkOptions link = [] {
    LinkOptions link;
    link.retries = 1;
    return link;
  }();
  double header_bytes = 0.0;
};

/// Everything one convergecast leaves behind.
struct Outcome {
  ConvergecastResult result;
  std::vector<double> tx, rx, ops;
  obs::NodeTelemetrySnapshot telemetry;
  std::string trace;  ///< JSONL, wall-time "phase" events removed.
};

/// One report per selection entry, at every selected node, reachable or
/// not, carrying the field's exact descent direction.
std::vector<IsolineReport> reports_for(const Scenario& s,
                                       const ContourQuery& query) {
  std::vector<IsolineReport> reports;
  for (const SelectionEntry& e :
       select_isoline_nodes(s.graph, s.readings, query)) {
    const Vec2 pos = s.deployment.node(e.node).reported_pos();
    IsolineReport r{e.isolevel, pos, -s.field.gradient(pos), e.node};
    r.id = static_cast<long long>(reports.size());
    reports.push_back(r);
  }
  return reports;
}

template <typename RouteFn>
Outcome route(const Scenario& s, const std::vector<IsolineReport>& reports,
              const ContourQuery& query, const Case& c, RouteFn&& fn) {
  const int n = s.deployment.size();
  Ledger ledger(n);
  obs::NodeTelemetry telemetry(n);
  obs::MetricsRegistry metrics;
  std::ostringstream jsonl;
  Outcome out;
  {
    obs::TraceSink sink(jsonl);
    const obs::ObsScope scope(&metrics, &sink, &telemetry);
    Channel channel(c.link);
    const InNetworkFilter filter = InNetworkFilter::from_query(query);
    const ConvergecastOptions options{
        .filter = c.filtering ? &filter : nullptr,
        .header_bytes = c.header_bytes,
        .record_transmissions = true};
    out.result = fn(reports, s.tree, channel, ledger, options);
    sink.flush();
  }
  for (int v = 0; v < n; ++v) {
    out.tx.push_back(ledger.tx_bytes(v));
    out.rx.push_back(ledger.rx_bytes(v));
    out.ops.push_back(ledger.ops(v));
  }
  out.telemetry = telemetry.snapshot();
  std::istringstream lines(jsonl.str());
  for (std::string line; std::getline(lines, line);)
    if (line.find("\"kind\":\"phase\"") == std::string::npos)
      out.trace += line + "\n";
  return out;
}

void expect_same_doubles(const std::vector<double>& a,
                         const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(bits(a[i]), bits(b[i])) << what << "[" << i << "]";
}

void expect_identical(const Outcome& got, const Outcome& want) {
  const ConvergecastResult& g = got.result;
  const ConvergecastResult& w = want.result;
  ASSERT_EQ(g.sink_reports.size(), w.sink_reports.size());
  for (std::size_t i = 0; i < g.sink_reports.size(); ++i) {
    const IsolineReport& a = g.sink_reports[i];
    const IsolineReport& b = w.sink_reports[i];
    ASSERT_EQ(a.id, b.id) << "sink report " << i;
    ASSERT_EQ(a.source, b.source) << "sink report " << i;
    ASSERT_EQ(a.hops, b.hops) << "sink report " << i;
    ASSERT_EQ(bits(a.isolevel), bits(b.isolevel)) << "sink report " << i;
    ASSERT_EQ(bits(a.position.x), bits(b.position.x));
    ASSERT_EQ(bits(a.position.y), bits(b.position.y));
    ASSERT_EQ(bits(a.gradient.x), bits(b.gradient.x));
    ASSERT_EQ(bits(a.gradient.y), bits(b.gradient.y));
  }
  EXPECT_EQ(g.filtered, w.filtered);
  EXPECT_EQ(g.lost_channel, w.lost_channel);
  EXPECT_EQ(g.lost_crash, w.lost_crash);
  EXPECT_EQ(g.repairs, w.repairs);
  EXPECT_EQ(bits(g.repair_bytes), bits(w.repair_bytes));
  EXPECT_EQ(bits(g.report_bytes), bits(w.report_bytes));
  EXPECT_EQ(bits(g.bottleneck_bytes), bits(w.bottleneck_bytes));
  ASSERT_EQ(g.transmissions.size(), w.transmissions.size());
  for (std::size_t i = 0; i < g.transmissions.size(); ++i) {
    const Transmission& a = g.transmissions[i];
    const Transmission& b = w.transmissions[i];
    ASSERT_EQ(a.from, b.from) << "transmission " << i;
    ASSERT_EQ(a.to, b.to) << "transmission " << i;
    ASSERT_EQ(a.sender_level, b.sender_level) << "transmission " << i;
    ASSERT_EQ(bits(a.bytes), bits(b.bytes)) << "transmission " << i;
  }
  expect_same_doubles(g.latency_by_id, w.latency_by_id, "latency_by_id");
  expect_same_doubles(got.tx, want.tx, "tx_bytes");
  expect_same_doubles(got.rx, want.rx, "rx_bytes");
  expect_same_doubles(got.ops, want.ops, "ops");
  const obs::NodeTelemetrySnapshot& gt = got.telemetry;
  const obs::NodeTelemetrySnapshot& wt = want.telemetry;
  EXPECT_EQ(gt.hops, wt.hops);
  EXPECT_EQ(gt.filtered, wt.filtered);
  EXPECT_EQ(gt.lost_channel, wt.lost_channel);
  EXPECT_EQ(gt.lost_crash, wt.lost_crash);
  EXPECT_EQ(gt.relayed, wt.relayed);
  EXPECT_EQ(gt.retries, wt.retries);
  EXPECT_EQ(gt.drops, wt.drops);
  EXPECT_EQ(gt.dup_rx, wt.dup_rx);
  EXPECT_EQ(gt.corrupt_rx, wt.corrupt_rx);
  EXPECT_EQ(gt.arq_timeouts, wt.arq_timeouts);
  EXPECT_EQ(got.trace, want.trace);
}

ScenarioConfig harbor(std::uint64_t seed) {
  ScenarioConfig config;
  config.num_nodes = 2500;
  config.field_side = 50.0;
  config.seed = seed;
  return config;
}

std::vector<Case> cases() {
  const ScenarioConfig centre = harbor(3);
  ScenarioConfig corner = harbor(5);
  corner.sink_fx = 0.0;
  corner.sink_fy = 0.0;
  // A short radio range splits the network: whole components hold
  // isoline nodes but no route to the sink.
  ScenarioConfig split = harbor(7);
  split.radio_range = 1.2;
  ImpairmentConfig impair;
  impair.jitter_s = 0.004;
  impair.dup_prob = 0.05;
  impair.reorder_prob = 0.05;
  impair.corrupt_prob = 0.03;
  const GilbertElliottParams burst{0.05, 0.3, 0.02, 0.7};
  std::vector<Case> out;
  const auto add = [&](const char* name, const ScenarioConfig& scenario) {
    Case& c = out.emplace_back();
    c.name = name;
    c.scenario = scenario;
    return &c;
  };
  add("filtered", centre);
  add("unfiltered", centre)->filtering = false;
  add("iid_loss", centre)->link.loss = 0.3;
  Case* c = add("iid_loss_unfiltered", centre);
  c->filtering = false;
  c->link.loss = 0.3;
  add("gilbert_elliott", centre)->link.burst = burst;
  c = add("impaired", centre);
  c->link.loss = 0.2;
  c->link.impair = impair;
  add("header_bytes", centre)->header_bytes = 6.0;
  c = add("corner_sink", corner);
  c->link.loss = 0.3;
  c->link.retries = 2;
  c->header_bytes = 4.0;
  add("disconnected", split);
  return out;
}

TEST(Convergecast, FrontierMatchesPostOrderWalkBitForBit) {
  for (const int threads : {1, 4}) {
    exec::set_thread_count(threads);
    for (const Case& c : cases()) {
      SCOPED_TRACE(std::string(c.name) + " at threads=" +
                   std::to_string(threads));
      const Scenario s = make_scenario(c.scenario);
      const ContourQuery query = default_query(s.field, 8);
      const std::vector<IsolineReport> reports = reports_for(s, query);
      ASSERT_GT(reports.size(), 50u);
      const Outcome got =
          route(s, reports, query, c,
                [](auto&&... args) { return convergecast(args...); });
      const Outcome want = route(s, reports, query, c, [](auto&&... args) {
        return oracle::convergecast_post_order(args...);
      });
      expect_identical(got, want);
      // The fault path's post-order epochs, with a plan that never
      // fires, forward through the same per-hop body.
      FaultInjector quiet(FaultPlan(), s.deployment, s.tree.sink());
      const ConvergecastFaults no_faults{quiet, s.graph};
      expect_identical(route(s, reports, query, c,
                             [&](auto&&... args) {
                               return convergecast(args..., &no_faults);
                             }),
                       want);
      // Each case must exercise what it names.
      if ((c.link.loss > 0.0 || c.link.burst) && !c.link.impair) {
        EXPECT_GT(want.result.lost_channel, 0);
      }
      if (c.filtering) {
        EXPECT_GT(want.result.filtered, 0);
      }
      if (c.link.impair) {
        double total = 0.0;
        for (double lat : want.result.latency_by_id) total += lat;
        EXPECT_GT(total, 0.0);
      }
      if (c.scenario.radio_range > 0.0) {
        EXPECT_GT(want.result.lost_crash, 0);
      }
      EXPECT_FALSE(want.result.sink_reports.empty());
      if (c.scenario.sink_fx == 0.0) {
        EXPECT_GT(s.tree.depth(), 40);
      }
    }
  }
  exec::set_thread_count(0);
}

TEST(Convergecast, SinkReportsAreKeptWhereTheyStart) {
  // Reports generated at the sink take no hop and are never charged.
  const Scenario s = make_scenario(harbor(3));
  IsolineReport at_sink{1.0, {0.0, 0.0}, {1.0, 0.0}, s.tree.sink()};
  at_sink.id = 0;
  Ledger ledger(s.deployment.size());
  Channel channel;
  const ConvergecastResult out =
      convergecast(std::span<const IsolineReport>(&at_sink, 1), s.tree,
                   channel, ledger, ConvergecastOptions{});
  ASSERT_EQ(out.sink_reports.size(), 1u);
  EXPECT_EQ(out.sink_reports[0].hops, 0);
  EXPECT_EQ(out.report_bytes, 0.0);
  EXPECT_EQ(ledger.tx_bytes(s.tree.sink()), 0.0);
}

}  // namespace
}  // namespace isomap
