#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/run_summary.hpp"
#include "sim/runners.hpp"
#include "util/json.hpp"

namespace isomap::obs {
namespace {

TEST(MetricsRegistry, CountersGaugesHistograms) {
  MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  m.add("reports");
  m.add("reports", 4.0);
  m.set("depth", 7.0);
  m.set("depth", 9.0);  // last write wins
  for (double v : {1.0, 2.0, 3.0, 4.0}) m.observe("latency", v);

  EXPECT_DOUBLE_EQ(m.counter("reports"), 5.0);
  EXPECT_DOUBLE_EQ(m.counter("absent"), 0.0);
  EXPECT_DOUBLE_EQ(m.gauge("depth"), 9.0);
  const HistogramSnapshot h = m.histogram("latency");
  EXPECT_EQ(h.count, 4u);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 4.0);
  EXPECT_DOUBLE_EQ(h.mean, 2.5);
  EXPECT_DOUBLE_EQ(h.sum, 10.0);
  EXPECT_FALSE(m.empty());
  m.clear();
  EXPECT_TRUE(m.empty());
}

TEST(MetricsRegistry, SummarizePercentiles) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  const HistogramSnapshot h = summarize_samples(samples);
  EXPECT_EQ(h.count, 100u);
  EXPECT_NEAR(h.p50, 50.0, 1.0);
  EXPECT_NEAR(h.p95, 95.0, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 100.0);
  const HistogramSnapshot none = summarize_samples({});
  EXPECT_EQ(none.count, 0u);
}

TEST(Hooks, NoOpWithoutContext) {
  ASSERT_EQ(metrics(), nullptr);
  ASSERT_EQ(trace(), nullptr);
  EXPECT_FALSE(active());
  EXPECT_STREQ(current_phase(), "unphased");
  // None of these may crash or leak state.
  count("x");
  gauge("x", 1.0);
  observe("x", 1.0);
  emit(TraceEvent{});
  PhaseTimer timer(kPhaseSelect);
  EXPECT_STREQ(current_phase(), "unphased");  // inert without a context
  EXPECT_DOUBLE_EQ(timer.stop(), 0.0);
}

TEST(ObsScope, InstallsAndRestores) {
  MetricsRegistry outer_metrics, inner_metrics;
  {
    ObsScope outer(&outer_metrics, nullptr);
    EXPECT_EQ(metrics(), &outer_metrics);
    count("hits");
    {
      ObsScope inner(&inner_metrics, nullptr);
      EXPECT_EQ(metrics(), &inner_metrics);
      count("hits");
    }
    EXPECT_EQ(metrics(), &outer_metrics);
  }
  EXPECT_EQ(metrics(), nullptr);
  EXPECT_DOUBLE_EQ(outer_metrics.counter("hits"), 1.0);
  EXPECT_DOUBLE_EQ(inner_metrics.counter("hits"), 1.0);
}

TEST(PhaseTimerTest, NestingRestoresOuterPhase) {
  MetricsRegistry m;
  std::ostringstream out;
  TraceSink sink(out);
  ObsScope scope(&m, &sink);

  EXPECT_STREQ(current_phase(), "unphased");
  {
    PhaseTimer outer(kPhaseSelect);
    EXPECT_STREQ(current_phase(), kPhaseSelect);
    {
      PhaseTimer inner(kPhaseFilter);
      EXPECT_STREQ(current_phase(), kPhaseFilter);
    }
    EXPECT_STREQ(current_phase(), kPhaseSelect);
    EXPECT_GE(outer.stop(), 0.0);
    EXPECT_STREQ(current_phase(), "unphased");
    EXPECT_DOUBLE_EQ(outer.stop(), 0.0);  // second stop is a no-op
  }

  EXPECT_EQ(m.histogram("phase.select.seconds").count, 1u);
  EXPECT_EQ(m.histogram("phase.filter.seconds").count, 1u);
  EXPECT_EQ(sink.events(), 2u);  // one "phase" event per timer
}

TEST(PhaseTimerTest, OneHistogramPerLabelText) {
  MetricsRegistry m;
  const std::string same_text(kPhaseFilter);  // Equal text, own address.
  const std::string long_label(200, 'x');     // Longer than any stack key.
  {
    ObsScope scope(&m, nullptr);
    for (int i = 0; i < 7; ++i) PhaseTimer timer(kPhaseFilter);
    { PhaseTimer timer(same_text.c_str()); }
    { PhaseTimer timer(long_label.c_str()); }
  }
  EXPECT_EQ(m.histogram("phase.filter.seconds").count, 8u);
  EXPECT_EQ(m.histogram("phase." + long_label + ".seconds").count, 1u);
  EXPECT_EQ(m.histogram_snapshots().size(), 2u);

  // A copy records into its own histograms, also once the original is
  // cleared.
  MetricsRegistry copy = m;
  m.clear();
  {
    ObsScope scope(&copy, nullptr);
    PhaseTimer timer(kPhaseFilter);
  }
  EXPECT_EQ(copy.histogram("phase.filter.seconds").count, 9u);
  EXPECT_EQ(m.histogram("phase.filter.seconds").count, 0u);
}

TEST(TraceSinkTest, JsonlRoundTrip) {
  std::ostringstream out;
  TraceSink sink(out);
  ASSERT_TRUE(sink.ok());

  TraceEvent cost;
  cost.kind = "cost";
  cost.phase = kPhaseReportRoute;
  cost.node = 3;
  cost.peer = 7;
  cost.tx_bytes = 50.0;
  cost.rx_bytes = 50.0;
  sink.emit(cost);

  TraceEvent drop;
  drop.kind = "drop";
  drop.phase = kPhaseFilterDrop;
  drop.node = 9;
  drop.peer = 4;
  drop.isolevel = 12.5;
  sink.emit(drop);
  sink.flush();
  EXPECT_EQ(sink.events(), 2u);

  std::istringstream in(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  auto e1 = JsonValue::parse(line);
  ASSERT_TRUE(e1.has_value());
  EXPECT_EQ(e1->string_or("kind", ""), "cost");
  EXPECT_EQ(e1->string_or("phase", ""), "report_route");
  EXPECT_DOUBLE_EQ(e1->number_or("node", -1), 3.0);
  EXPECT_DOUBLE_EQ(e1->number_or("tx_bytes", 0), 50.0);
  EXPECT_EQ(e1->find("isolevel"), nullptr);  // defaults omitted

  ASSERT_TRUE(std::getline(in, line));
  auto e2 = JsonValue::parse(line);
  ASSERT_TRUE(e2.has_value());
  EXPECT_EQ(e2->string_or("kind", ""), "drop");
  EXPECT_DOUBLE_EQ(e2->number_or("isolevel", 0), 12.5);
  EXPECT_DOUBLE_EQ(e2->number_or("peer", -1), 4.0);
  EXPECT_FALSE(std::getline(in, line));  // exactly two lines
}

TEST(LedgerTracing, ChargesMirrorAsCostEvents) {
  std::ostringstream out;
  TraceSink sink(out);
  Ledger ledger(4);
  {
    ObsScope scope(nullptr, &sink);
    PhaseTimer timer(kPhaseReportRoute);
    ledger.transmit(0, 1, 10.0);
    ledger.broadcast(1, {0, 2, 3}, 5.0);
    ledger.transmit_lost(2, 8.0);
    ledger.compute(3, 42.0);
  }
  sink.flush();

  double tx = 0.0, rx = 0.0, ops = 0.0;
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) {
    const auto e = JsonValue::parse(line);
    ASSERT_TRUE(e.has_value());
    if (e->string_or("kind", "") != "cost") continue;
    EXPECT_EQ(e->string_or("phase", ""), "report_route");
    tx += e->number_or("tx_bytes", 0.0);
    rx += e->number_or("rx_bytes", 0.0);
    ops += e->number_or("ops", 0.0);
  }
  EXPECT_DOUBLE_EQ(tx, ledger.total_tx_bytes());
  EXPECT_DOUBLE_EQ(rx, ledger.total_rx_bytes());
  EXPECT_DOUBLE_EQ(ops, ledger.total_ops());
}

TEST(RunSummaryTest, SplitsPhaseHistograms) {
  MetricsRegistry m;
  m.add("reports.generated", 12.0);
  m.set("tree.depth", 5.0);
  m.observe("phase.select.seconds", 0.25);
  m.observe("phase.select.seconds", 0.75);
  m.observe("regression.samples", 9.0);

  LedgerTotals totals;
  totals.nodes = 100;
  totals.tx_bytes = 1234.0;
  const RunSummary s = make_run_summary("isomap", m, totals, 1.5, 42);

  EXPECT_EQ(s.protocol, "isomap");
  EXPECT_DOUBLE_EQ(s.wall_s, 1.5);
  EXPECT_EQ(s.trace_events, 42u);
  ASSERT_EQ(s.phases.count("select"), 1u);
  EXPECT_DOUBLE_EQ(s.phase_seconds("select"), 1.0);
  EXPECT_DOUBLE_EQ(s.phase_seconds("never_ran"), 0.0);
  EXPECT_EQ(s.phases.count("phase.select.seconds"), 0u);
  ASSERT_EQ(s.histograms.count("regression.samples"), 1u);
  EXPECT_DOUBLE_EQ(s.counters.at("reports.generated"), 12.0);

  const JsonValue j = s.to_json();
  EXPECT_EQ(j.string_or("protocol", ""), "isomap");
  ASSERT_NE(j.find("ledger"), nullptr);
  EXPECT_DOUBLE_EQ(j.find("ledger")->number_or("tx_bytes", 0), 1234.0);
  ASSERT_NE(j.find("phases"), nullptr);
  EXPECT_NE(j.find("phases")->find("select"), nullptr);
}

// End-to-end: every runner returns a populated summary, and with tracing
// on, the trace's per-phase cost totals reconcile with the ledger.
class RunnerSummary : public ::testing::Test {
 protected:
  static Scenario small_scenario() {
    ScenarioConfig config;
    config.num_nodes = 300;
    config.field_side = 18.0;
    config.seed = 7;
    return make_scenario(config);
  }
};

TEST_F(RunnerSummary, AllProtocolsPopulateSummaries) {
  const Scenario scenario = small_scenario();
  const auto isomap = run_isomap(scenario);
  const auto tinydb = run_tinydb(scenario);
  const auto inlr = run_inlr(scenario);
  const auto escan = run_escan(scenario);
  const auto suppression = run_suppression(scenario);

  const std::vector<std::pair<std::string, const RunSummary*>> all = {
      {"isomap", &isomap.summary},       {"tinydb", &tinydb.summary},
      {"inlr", &inlr.summary},           {"escan", &escan.summary},
      {"suppression", &suppression.summary}};
  for (const auto& [name, s] : all) {
    EXPECT_EQ(s->protocol, name);
    EXPECT_GT(s->wall_s, 0.0) << name;
    EXPECT_EQ(s->ledger.nodes, 300) << name;
    EXPECT_GT(s->ledger.tx_bytes, 0.0) << name;
    EXPECT_FALSE(s->phases.empty()) << name;
    EXPECT_FALSE(s->counters.empty()) << name;
    EXPECT_EQ(s->trace_events, 0u) << name;  // no sink attached
  }
  // Ledger totals survive the copy into the summary.
  EXPECT_DOUBLE_EQ(isomap.summary.ledger.tx_bytes,
                   isomap.ledger.total_tx_bytes());
}

TEST_F(RunnerSummary, TraceReconcilesWithLedger) {
  const Scenario scenario = small_scenario();
  std::ostringstream out;
  TraceSink sink(out);
  const IsoMapRun run = run_isomap(scenario, 4, &sink);
  sink.flush();
  EXPECT_EQ(run.summary.trace_events, sink.events());
  EXPECT_GT(sink.events(), 0u);

  double tx = 0.0, rx = 0.0, ops = 0.0;
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) {
    const auto e = JsonValue::parse(line);
    ASSERT_TRUE(e.has_value()) << line;
    if (e->string_or("kind", "cost") != "cost") continue;
    EXPECT_NE(e->string_or("phase", ""), "");  // every charge is phased
    tx += e->number_or("tx_bytes", 0.0);
    rx += e->number_or("rx_bytes", 0.0);
    ops += e->number_or("ops", 0.0);
  }
  EXPECT_NEAR(tx, run.ledger.total_tx_bytes(), 1e-6);
  EXPECT_NEAR(rx, run.ledger.total_rx_bytes(), 1e-6);
  EXPECT_NEAR(ops, run.ledger.total_ops(), 1e-6);
}

}  // namespace
}  // namespace isomap::obs
