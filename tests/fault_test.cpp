#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "exec/exec.hpp"
#include "fault/fault.hpp"
#include "net/ledger.hpp"
#include "oracles/net_oracle.hpp"
#include "obs/node_telemetry.hpp"
#include "obs/obs.hpp"
#include "sim/runners.hpp"
#include "util/json.hpp"

namespace isomap {
namespace {

const FieldBounds kBounds{0, 0, 50, 50};

Deployment line_deployment(int n, double spacing = 1.0) {
  std::vector<Node> nodes;
  for (int i = 0; i < n; ++i)
    nodes.push_back({i, {static_cast<double>(i) * spacing, 0.0}, true, {}});
  return Deployment(kBounds, std::move(nodes));
}

TEST(FaultPlan, EventsStaySortedAndValidated) {
  FaultPlan plan;
  plan.add({0.7, FaultKind::kNodeCrash, 1, {}, 0.0});
  plan.add({0.2, FaultKind::kNodeCrash, 2, {}, 0.0});
  plan.add({0.5, FaultKind::kRegionBlackout, -1, {10, 10}, 3.0});
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_DOUBLE_EQ(plan.events()[0].time, 0.2);
  EXPECT_DOUBLE_EQ(plan.events()[1].time, 0.5);
  EXPECT_DOUBLE_EQ(plan.events()[2].time, 0.7);
  EXPECT_THROW(plan.add({1.5, FaultKind::kNodeCrash, 0, {}, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(plan.add({-0.1, FaultKind::kNodeCrash, 0, {}, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(plan.add({0.5, FaultKind::kRegionBlackout, -1, {}, -1.0}),
               std::invalid_argument);
}

TEST(FaultPlan, RandomCrashesAreDeterministicAndExcludeSink) {
  Rng rng(3);
  const Deployment dep = Deployment::uniform_random(kBounds, 500, rng);
  const FaultPlan a =
      FaultPlan::random_crashes(dep, 0.1, 0.1, 0.9, Rng(42), /*exclude=*/7);
  const FaultPlan b =
      FaultPlan::random_crashes(dep, 0.1, 0.1, 0.9, Rng(42), /*exclude=*/7);
  ASSERT_EQ(a.size(), 50u);
  ASSERT_EQ(b.size(), 50u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].node, b.events()[i].node);
    EXPECT_DOUBLE_EQ(a.events()[i].time, b.events()[i].time);
    EXPECT_NE(a.events()[i].node, 7);
    EXPECT_GE(a.events()[i].time, 0.1);
    EXPECT_LE(a.events()[i].time, 0.9);
  }
  // Out-of-range fractions clamp like Deployment::fail_random.
  EXPECT_TRUE(FaultPlan::random_crashes(dep, -0.5, 0, 1, Rng(1)).empty());
  EXPECT_EQ(FaultPlan::random_crashes(dep, 1.5, 0, 1, Rng(1)).size(), 500u);
}

TEST(FaultInjector, FiresOnScheduleAndProtectsSink) {
  const Deployment dep = line_deployment(10);
  FaultPlan plan;
  plan.add({0.25, FaultKind::kNodeCrash, 3, {}, 0.0});
  plan.add({0.5, FaultKind::kNodeCrash, 0, {}, 0.0});  // The sink: ignored.
  plan.add({0.75, FaultKind::kNodeCrash, 3, {}, 0.0});  // Already dead.
  FaultInjector injector(plan, dep, /*protected_node=*/0);
  EXPECT_TRUE(injector.advance(0.1).empty());
  const auto died = injector.advance(0.6);
  ASSERT_EQ(died.size(), 1u);
  EXPECT_EQ(died[0], 3);
  EXPECT_FALSE(injector.alive(3));
  EXPECT_TRUE(injector.alive(0));
  EXPECT_TRUE(injector.advance(1.0).empty());  // Re-kill is a no-op.
  EXPECT_EQ(injector.crash_count(), 1);
  EXPECT_TRUE(injector.exhausted());
}

TEST(FaultInjector, RegionBlackoutKillsTheDisc) {
  const Deployment dep = line_deployment(20);  // x = 0..19 on a line.
  FaultInjector injector(FaultPlan::region_blackout({10, 0}, 2.5, 0.5), dep,
                         /*protected_node=*/0);
  const auto died = injector.advance(1.0);
  // Nodes 8..12 lie within distance 2.5 of x = 10.
  ASSERT_EQ(died.size(), 5u);
  EXPECT_EQ(died.front(), 8);
  EXPECT_EQ(died.back(), 12);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(injector.alive(i), i < 8 || i > 12) << i;
}

TEST(FaultInjector, RejectsOutOfRangeCrashTargets) {
  const Deployment dep = line_deployment(5);
  FaultPlan plan;
  plan.add({0.5, FaultKind::kNodeCrash, 99, {}, 0.0});
  EXPECT_THROW(FaultInjector(plan, dep), std::out_of_range);
}

/// A 2-hop chain with a redundant neighbour: 0 (sink) - 1 - 3, where 2 is
/// also adjacent to 0 and 3 but initially loses the parent race to 1.
///   positions: 0 at (0,0); 1 at (1,0); 2 at (0.6,0.8); 3 at (1.4,0.8).
Deployment diamond_deployment() {
  std::vector<Node> nodes = {{0, {0.0, 0.0}, true, {}},
                             {1, {1.0, 0.0}, true, {}},
                             {2, {0.6, 0.8}, true, {}},
                             {3, {1.4, 0.8}, true, {}}};
  return Deployment(kBounds, std::move(nodes));
}

TEST(SelfHealing, OrphanReattachesToLowestLevelAliveNeighbour) {
  const Deployment dep = diamond_deployment();
  const CommGraph graph(dep, 1.1);  // 0-1, 0-2, 1-3, 2-3, 1-2 in range.
  RoutingTree tree(graph, 0);
  ASSERT_EQ(tree.parent(3), 1);  // Deterministic: 1 < 2 at level 1.
  ASSERT_EQ(tree.level(3), 2);

  std::vector<char> alive = {1, 0, 1, 1};  // Node 1 dies.
  Ledger ledger(4);
  const auto report = tree.repair(graph, alive, &ledger);
  EXPECT_EQ(report.orphaned, 1);
  EXPECT_EQ(report.reattached, 1);
  EXPECT_EQ(report.unreachable, 0);
  EXPECT_EQ(tree.parent(3), 2);  // Rerouted through the survivor.
  EXPECT_EQ(tree.level(3), 2);
  EXPECT_FALSE(tree.reachable(1));
  EXPECT_EQ(tree.reachable_count(), 3);
  // The dead node is gone from every child list.
  for (int u = 0; u < 4; ++u)
    for (int c : tree.children(u)) EXPECT_NE(c, 1);
  EXPECT_EQ(std::vector<int>(tree.children(0).begin(), tree.children(0).end()),
            std::vector<int>{2});
  EXPECT_EQ(std::vector<int>(tree.children(2).begin(), tree.children(2).end()),
            std::vector<int>{3});
  oracle::expect_consistent(graph, tree);
  // Energy: one beacon broadcast by the orphan + one ack from the parent.
  EXPECT_DOUBLE_EQ(report.bytes, RoutingTree::kRepairBeaconBytes +
                                     RoutingTree::kRepairAckBytes);
  EXPECT_DOUBLE_EQ(ledger.tx_bytes(3), RoutingTree::kRepairBeaconBytes);
  EXPECT_DOUBLE_EQ(ledger.tx_bytes(2), RoutingTree::kRepairAckBytes);
}

TEST(SelfHealing, SubtreeReattachesInWaves) {
  // Chain 0-1-2-3-4 plus a bridge node 5 at (2, 0.4), in range (1.1) of
  // 1, 2 and 3. Killing 2 orphans {3, 4}; wave 1 re-attaches 3 via the
  // bridge, wave 2 re-attaches 4 through the freshly repaired 3.
  std::vector<Node> nodes = {{0, {0, 0}, true, {}},    {1, {1, 0}, true, {}},
                             {2, {2, 0}, true, {}},    {3, {3, 0}, true, {}},
                             {4, {4, 0}, true, {}},
                             {5, {2.0, 0.4}, true, {}}};
  const Deployment dep(kBounds, std::move(nodes));
  const CommGraph graph(dep, 1.1);
  RoutingTree tree(graph, 0);
  ASSERT_EQ(tree.parent(3), 2);
  ASSERT_EQ(tree.parent(4), 3);

  std::vector<char> alive = {1, 1, 0, 1, 1, 1};
  const auto report = tree.repair(graph, alive);
  EXPECT_EQ(report.orphaned, 2);
  EXPECT_EQ(report.reattached, 2);
  EXPECT_EQ(tree.parent(3), 5);  // Wave 1: via the bridge.
  EXPECT_EQ(tree.parent(4), 3);  // Wave 2: through the repaired 3.
  EXPECT_EQ(tree.level(3), tree.level(5) + 1);
  EXPECT_EQ(tree.level(4), tree.level(3) + 1);
  // Parent level is strictly one below the child's everywhere.
  for (int u = 0; u < dep.size(); ++u) {
    if (!tree.reachable(u) || u == tree.sink()) continue;
    EXPECT_EQ(tree.level(u), tree.level(tree.parent(u)) + 1);
  }
  oracle::expect_consistent(graph, tree);
}

TEST(SelfHealing, NestedDeadSubtreesCountEachOrphanOnce) {
  // Chain sink 5 - 4 - 3 - 2 - 1 - 0 (ids fall away from the sink). Dead
  // node 1 lies inside dead node 3's subtree but is detached first (lower
  // id); 3's detach walk must not count 1's orphan 0 a second time.
  std::vector<Node> nodes;
  for (int i = 0; i < 6; ++i)
    nodes.push_back({i, {static_cast<double>(5 - i), 0.0}, true, {}});
  const Deployment dep(kBounds, std::move(nodes));
  const CommGraph graph(dep, 1.1);
  RoutingTree tree(graph, 5);
  std::vector<char> alive = {1, 0, 1, 0, 1, 1};
  const auto report = tree.repair(graph, alive);
  EXPECT_EQ(report.orphaned, 2);  // Nodes 0 and 2.
  EXPECT_EQ(report.unreachable, 2);
  EXPECT_EQ(tree.reachable_count(), 2);
  oracle::expect_consistent(graph, tree);
}

TEST(SelfHealing, RepairedTreeStaysConsistentAcrossThreadCounts) {
  // A 1500-node tree repaired twice; after each repair the children lists
  // are rebuilt ascending from the parents and the post-order equals the
  // comparator sort, and both thread counts repair identically.
  std::vector<std::vector<int>> parents;
  for (const int threads : {1, 4}) {
    exec::set_thread_count(threads);
    Rng rng(31);
    const Deployment dep = Deployment::uniform_random(kBounds, 1500, rng);
    const CommGraph graph(dep, 2.2);
    const int sink = dep.nearest_alive({25, 25});
    RoutingTree tree(graph, sink);
    oracle::expect_built_by_rule(graph, tree);
    std::vector<char> alive(1500, 1);
    for (const double fraction : {0.1, 0.2}) {
      for (int v = 0; v < 1500; ++v)
        if (v != sink && rng.uniform() < fraction) alive[static_cast<std::size_t>(v)] = 0;
      const auto report = tree.repair(graph, alive);
      EXPECT_GT(report.orphaned, 0);
      oracle::expect_consistent(graph, tree);
    }
    std::vector<int> parent;
    for (int v = 0; v < 1500; ++v) parent.push_back(tree.parent(v));
    parents.push_back(parent);
  }
  exec::set_thread_count(0);
  EXPECT_EQ(parents[0], parents[1]);
}

TEST(SelfHealing, DisconnectedOrphanStaysUnreachable) {
  const Deployment dep = line_deployment(4);
  const CommGraph graph(dep, 1.1);
  RoutingTree tree(graph, 0);
  std::vector<char> alive = {1, 1, 0, 1};  // Node 2 dies; 3 has no route.
  Ledger ledger(4);
  const auto report = tree.repair(graph, alive, &ledger);
  EXPECT_EQ(report.orphaned, 1);
  EXPECT_EQ(report.reattached, 0);
  EXPECT_EQ(report.unreachable, 1);
  EXPECT_FALSE(tree.reachable(3));
  EXPECT_TRUE(tree.path_to_sink(3).empty());
  // The orphan still beaconed (in vain).
  EXPECT_DOUBLE_EQ(ledger.tx_bytes(3), RoutingTree::kRepairBeaconBytes);
  // A repeated repair with the same mask is a no-op.
  const auto again = tree.repair(graph, alive, &ledger);
  EXPECT_EQ(again.orphaned, 0);
  EXPECT_DOUBLE_EQ(again.bytes, 0.0);
}

TEST(SelfHealing, RepairRejectsDeadSinkAndBadMask) {
  const Deployment dep = line_deployment(3);
  const CommGraph graph(dep, 1.1);
  RoutingTree tree(graph, 0);
  std::vector<char> dead_sink = {0, 1, 1};
  EXPECT_THROW(tree.repair(graph, dead_sink), std::invalid_argument);
  std::vector<char> short_mask = {1, 1};
  EXPECT_THROW(tree.repair(graph, short_mask), std::invalid_argument);
}

// --- End-to-end protocol runs under mid-run faults. ---

Scenario chaos_scenario(std::uint64_t seed = 1) {
  ScenarioConfig config;
  config.num_nodes = 2500;
  config.seed = seed;
  return make_scenario(config);
}

TEST(ChaosRun, SelfHealingDeliversUnderModerateCrashes) {
  const Scenario s = chaos_scenario(1);
  IsoMapOptions options = isomap_options(s, 4);
  options.query.enable_filtering = false;  // Exact loss accounting.
  const IsoMapRun clean = run_isomap(s, options);
  ASSERT_GT(clean.result.delivered_reports, 0);
  EXPECT_EQ(clean.result.delivered_reports, clean.result.generated_reports);

  options.fault.crash_fraction = 0.10;
  double delivered_sum = 0.0;
  const std::uint64_t fault_seeds[] = {11, 22, 33};
  for (const std::uint64_t fs : fault_seeds) {
    options.fault.seed = fs;
    const IsoMapRun chaos = run_isomap(s, options);
    EXPECT_GT(chaos.result.crashed_nodes, 200);  // ~10% of 2500.
    EXPECT_GT(chaos.result.route_repairs, 0);
    EXPECT_GT(chaos.result.repair_traffic_bytes, 0.0);
    delivered_sum += chaos.result.delivered_reports;

    // Every generated report is accounted for — no silent losses, for
    // every crash schedule.
    EXPECT_EQ(chaos.result.generated_reports,
              chaos.result.delivered_reports + chaos.result.lost_crash_reports +
                  chaos.result.lost_channel_reports);
    EXPECT_EQ(chaos.result.lost_channel_reports, 0);  // Perfect links here.

    // The RunSummary mirrors the same accounting.
    const auto& f = chaos.summary.faults;
    EXPECT_DOUBLE_EQ(f.crashes, chaos.result.crashed_nodes);
    EXPECT_DOUBLE_EQ(f.route_repairs, chaos.result.route_repairs);
    EXPECT_DOUBLE_EQ(f.repair_bytes, chaos.result.repair_traffic_bytes);
    EXPECT_DOUBLE_EQ(f.reports_lost_crash, chaos.result.lost_crash_reports);
    EXPECT_DOUBLE_EQ(
        chaos.summary.counters.at("reports.generated"),
        chaos.summary.counters.at("reports.delivered") + f.reports_lost_crash +
            f.reports_lost_channel);
  }
  // Acceptance: self-healing keeps mean delivery at >= 90% of the
  // fault-free run under 10% mid-run crashes.
  EXPECT_GE(delivered_sum / std::size(fault_seeds),
            0.9 * clean.result.delivered_reports);
}

TEST(ChaosRun, AccountingIdentityHoldsWithFilteringAndBursts) {
  const Scenario s = chaos_scenario(2);
  IsoMapOptions options = isomap_options(s, 4);
  options.fault.crash_fraction = 0.08;
  options.fault.blackout = true;
  options.fault.blackout_center = {35, 35};
  options.fault.blackout_radius = 6.0;
  options.fault.blackout_time = 0.4;
  options.link.burst = GilbertElliottParams{0.05, 0.2, 0.02, 0.9};
  options.link.retries = 2;
  const IsoMapRun run = run_isomap(s, options);
  EXPECT_GT(run.result.lost_crash_reports, 0);
  EXPECT_GT(run.result.lost_channel_reports, 0);
  EXPECT_GT(run.result.filtered_reports, 0);
  EXPECT_EQ(run.result.generated_reports,
            run.result.delivered_reports + run.result.filtered_reports +
                run.result.lost_channel_reports +
                run.result.lost_crash_reports);
  // Crash counts include the blackout victims.
  EXPECT_GT(run.result.crashed_nodes,
            static_cast<int>(0.08 * 2500 * 0.9));
  // Link-layer overhead is visible in the summary.
  EXPECT_GT(run.summary.counters.at("channel.drops"), 0.0);
  EXPECT_GT(run.summary.counters.at("channel.retries"), 0.0);
}

TEST(ChaosRun, SelfHealingBeatsStaticTree) {
  const Scenario s = chaos_scenario(3);
  IsoMapOptions healed = isomap_options(s, 4);
  healed.query.enable_filtering = false;
  healed.fault.crash_fraction = 0.10;
  healed.fault.seed = 5;
  IsoMapOptions rigid = healed;
  rigid.fault.self_healing = false;
  const IsoMapRun a = run_isomap(s, healed);
  const IsoMapRun b = run_isomap(s, rigid);
  // A static tree loses whole subtrees to each crash; self-healing
  // recovers most of them.
  EXPECT_GT(a.result.delivered_reports, b.result.delivered_reports);
  EXPECT_GT(b.result.lost_crash_reports, a.result.lost_crash_reports);
  EXPECT_EQ(b.result.route_repairs, 0);
  // Accounting is exact in both modes.
  for (const IsoMapRun* run : {&a, &b}) {
    EXPECT_EQ(run->result.generated_reports,
              run->result.delivered_reports + run->result.lost_crash_reports +
                  run->result.lost_channel_reports);
  }
}

TEST(ChaosRun, DeterministicForIdenticalConfig) {
  const Scenario s = chaos_scenario(4);
  IsoMapOptions options = isomap_options(s, 4);
  options.fault.crash_fraction = 0.05;
  options.link.burst = GilbertElliottParams{0.03, 0.25, 0.01, 0.8};
  const IsoMapRun a = run_isomap(s, options);
  const IsoMapRun b = run_isomap(s, options);
  EXPECT_EQ(a.result.delivered_reports, b.result.delivered_reports);
  EXPECT_EQ(a.result.lost_crash_reports, b.result.lost_crash_reports);
  EXPECT_EQ(a.result.lost_channel_reports, b.result.lost_channel_reports);
  EXPECT_EQ(a.result.crashed_nodes, b.result.crashed_nodes);
  EXPECT_EQ(a.result.route_repairs, b.result.route_repairs);
  EXPECT_DOUBLE_EQ(a.ledger.total_tx_bytes(), b.ledger.total_tx_bytes());
}

/// Sum of the four per-node report fates — the right-hand side of the
/// conservation identity generated == delivered + filtered + lost.
long long accounted(const obs::NodeTelemetry& t, int v) {
  return t.delivered(v) + t.filtered(v) + t.lost_channel(v) +
         t.lost_crash(v);
}

TEST(ChaosRun, TelemetryConservesReportsPerNodeUnderChaos) {
  // Crashes + region blackout + bursty channel, with filtering on: every
  // loss mechanism is live at once. The flight recorder must account for
  // every report per SOURCE node, and its charge arrays must equal the
  // Ledger's bit for bit — at 1 worker thread and at 4 (telemetry rides
  // the serial protocol path; exec workers run under an empty context).
  const Scenario s = chaos_scenario(6);
  IsoMapOptions options = isomap_options(s, 4);
  options.fault.crash_fraction = 0.08;
  options.fault.blackout = true;
  options.fault.blackout_center = {35, 35};
  options.fault.blackout_radius = 6.0;
  options.fault.blackout_time = 0.4;
  options.link.burst = GilbertElliottParams{0.05, 0.2, 0.02, 0.9};
  options.link.retries = 2;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    exec::set_thread_count(threads);
    obs::NodeTelemetry telemetry(s.graph.size());
    const IsoMapRun run = run_isomap(s, options, nullptr, &telemetry);
    exec::set_thread_count(0);
    ASSERT_GT(run.result.lost_crash_reports, 0);
    ASSERT_GT(run.result.lost_channel_reports, 0);
    ASSERT_GT(run.result.filtered_reports, 0);

    long long generated = 0, delivered = 0, filtered = 0;
    long long lost_channel = 0, lost_crash = 0;
    for (int v = 0; v < s.graph.size(); ++v) {
      // Charges are posted adjacent to the Ledger's own array writes, in
      // the same order with the same amounts — equality is exact.
      EXPECT_EQ(telemetry.tx_bytes(v), run.ledger.tx_bytes(v)) << v;
      EXPECT_EQ(telemetry.rx_bytes(v), run.ledger.rx_bytes(v)) << v;
      EXPECT_EQ(telemetry.ops(v), run.ledger.ops(v)) << v;
      EXPECT_EQ(telemetry.generated(v), accounted(telemetry, v)) << v;
      generated += telemetry.generated(v);
      delivered += telemetry.delivered(v);
      filtered += telemetry.filtered(v);
      lost_channel += telemetry.lost_channel(v);
      lost_crash += telemetry.lost_crash(v);
    }
    // The per-node fates sum to exactly the run's aggregate counters.
    EXPECT_EQ(generated, run.result.generated_reports);
    EXPECT_EQ(delivered, run.result.delivered_reports);
    EXPECT_EQ(filtered, run.result.filtered_reports);
    EXPECT_EQ(lost_channel, run.result.lost_channel_reports);
    EXPECT_EQ(lost_crash, run.result.lost_crash_reports);
  }
}

TEST(ChaosRun, TelemetryIdenticalAcrossThreadCounts) {
  // The whole table — charges, fates, hops — must be invariant to the
  // worker-pool size, or the flight recorder would make parallel runs
  // unreproducible.
  const Scenario s = chaos_scenario(7);
  IsoMapOptions options = isomap_options(s, 4);
  options.fault.crash_fraction = 0.10;
  options.link.loss = 0.15;
  options.link.retries = 2;
  exec::set_thread_count(1);
  obs::NodeTelemetry serial(s.graph.size());
  run_isomap(s, options, nullptr, &serial);
  exec::set_thread_count(4);
  obs::NodeTelemetry pooled(s.graph.size());
  run_isomap(s, options, nullptr, &pooled);
  exec::set_thread_count(0);
  for (int v = 0; v < s.graph.size(); ++v) {
    EXPECT_EQ(serial.tx_bytes(v), pooled.tx_bytes(v)) << v;
    EXPECT_EQ(serial.rx_bytes(v), pooled.rx_bytes(v)) << v;
    EXPECT_EQ(serial.ops(v), pooled.ops(v)) << v;
    EXPECT_EQ(serial.hops(v), pooled.hops(v)) << v;
    EXPECT_EQ(serial.generated(v), pooled.generated(v)) << v;
    EXPECT_EQ(serial.delivered(v), pooled.delivered(v)) << v;
    EXPECT_EQ(serial.lost_channel(v), pooled.lost_channel(v)) << v;
    EXPECT_EQ(serial.lost_crash(v), pooled.lost_crash(v)) << v;
    EXPECT_EQ(serial.relayed(v), pooled.relayed(v)) << v;
    EXPECT_EQ(serial.retries(v), pooled.retries(v)) << v;
  }
}

TEST(ChaosRun, TraceReconcilesWithLedgerUnderLossAndRepairs) {
  const Scenario s = chaos_scenario(5);
  IsoMapOptions options = isomap_options(s, 4);
  options.fault.crash_fraction = 0.08;
  options.link.loss = 0.2;
  options.link.retries = 2;
  std::ostringstream out;
  obs::TraceSink sink(out);
  const IsoMapRun run = run_isomap(s, options, &sink);
  sink.flush();

  // Sum every "cost" event: must reconcile exactly with the ledger, lost
  // transmissions and repair beacons included.
  double tx = 0.0, rx = 0.0, ops = 0.0;
  bool saw_repair_phase = false;
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) {
    const auto parsed = JsonValue::parse(line);
    ASSERT_TRUE(parsed && parsed->is_object()) << line;
    if (parsed->string_or("kind", "cost") != "cost") continue;
    tx += parsed->number_or("tx_bytes", 0.0);
    rx += parsed->number_or("rx_bytes", 0.0);
    ops += parsed->number_or("ops", 0.0);
    if (parsed->string_or("phase", "") == obs::kPhaseRepair)
      saw_repair_phase = true;
  }
  EXPECT_NEAR(tx, run.ledger.total_tx_bytes(), 1e-6);
  EXPECT_NEAR(rx, run.ledger.total_rx_bytes(), 1e-6);
  EXPECT_NEAR(ops, run.ledger.total_ops(), 1e-6);
  EXPECT_TRUE(saw_repair_phase);  // Repair charges are phase-tagged.
}

TEST(ChaosRun, ConservationHoldsUnderImpairedArqWithCrashes) {
  // Every loss and duplication mechanism at once: mid-run crashes, a
  // bursty loss chain, and the full impairment pipeline (jitter, dup,
  // reorder, corruption) under sliding-window ARQ. The conservation
  // identity must still hold exactly, per source node and in aggregate,
  // at 1 worker thread and at 4 — duplicated frames must never inflate
  // `delivered`, and ARQ give-ups must land in `lost_channel`.
  const Scenario s = chaos_scenario(8);
  IsoMapOptions options = isomap_options(s, 4);
  options.fault.crash_fraction = 0.06;
  options.link.burst = GilbertElliottParams{0.05, 0.2, 0.05, 0.9};
  options.link.retries = 2;
  ImpairmentConfig impair;
  impair.jitter_s = 0.004;
  impair.dup_prob = 0.3;
  impair.reorder_prob = 0.2;
  impair.corrupt_prob = 0.1;
  options.link.impair = impair;
  options.link.arq.max_frame_attempts = 3;  // Give-ups become losses.
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    exec::set_thread_count(threads);
    obs::NodeTelemetry telemetry(s.graph.size());
    const IsoMapRun run = run_isomap(s, options, nullptr, &telemetry);
    exec::set_thread_count(0);
    ASSERT_GT(run.result.delivered_reports, 0);
    ASSERT_GT(run.result.lost_crash_reports, 0);
    ASSERT_GT(run.result.lost_channel_reports, 0);  // ARQ exhaustion.
    EXPECT_EQ(run.result.generated_reports,
              run.result.delivered_reports + run.result.filtered_reports +
                  run.result.lost_channel_reports +
                  run.result.lost_crash_reports);
    long long generated = 0;
    long long dup_rx = 0, corrupt_rx = 0, arq_timeouts = 0;
    for (int v = 0; v < s.graph.size(); ++v) {
      EXPECT_EQ(telemetry.generated(v), accounted(telemetry, v)) << v;
      EXPECT_EQ(telemetry.tx_bytes(v), run.ledger.tx_bytes(v)) << v;
      EXPECT_EQ(telemetry.rx_bytes(v), run.ledger.rx_bytes(v)) << v;
      generated += telemetry.generated(v);
      dup_rx += telemetry.dup_rx(v);
      corrupt_rx += telemetry.corrupt_rx(v);
      arq_timeouts += telemetry.arq_timeouts(v);
    }
    EXPECT_EQ(generated, run.result.generated_reports);
    // The impairments actually fired, and the registry mirrors telemetry.
    EXPECT_GT(dup_rx, 0);
    EXPECT_GT(corrupt_rx, 0);
    EXPECT_GT(arq_timeouts, 0);
    EXPECT_DOUBLE_EQ(run.summary.counters.at("channel.dup_rx"),
                     static_cast<double>(dup_rx));
    EXPECT_DOUBLE_EQ(run.summary.counters.at("channel.corrupt_rx"),
                     static_cast<double>(corrupt_rx));
    EXPECT_DOUBLE_EQ(run.summary.counters.at("channel.arq_timeouts"),
                     static_cast<double>(arq_timeouts));
    // Measured end-to-end latency is populated and ordered.
    EXPECT_GT(run.result.e2e_first_latency_s, 0.0);
    EXPECT_GE(run.result.e2e_mean_latency_s, run.result.e2e_first_latency_s);
    EXPECT_GE(run.result.e2e_last_latency_s, run.result.e2e_mean_latency_s);
  }
}

/// Bitwise map-surface equality: same sink reports, same contour
/// geometry. (Energy and latency legitimately differ when the link
/// duplicates frames, so this compares the *map*, not the whole run.)
void expect_same_map(const IsoMapResult& a, const IsoMapResult& b) {
  ASSERT_EQ(a.sink_reports.size(), b.sink_reports.size());
  for (std::size_t i = 0; i < a.sink_reports.size(); ++i) {
    EXPECT_EQ(a.sink_reports[i].isolevel, b.sink_reports[i].isolevel) << i;
    EXPECT_EQ(a.sink_reports[i].position.x, b.sink_reports[i].position.x)
        << i;
    EXPECT_EQ(a.sink_reports[i].position.y, b.sink_reports[i].position.y)
        << i;
    EXPECT_EQ(a.sink_reports[i].gradient.x, b.sink_reports[i].gradient.x)
        << i;
    EXPECT_EQ(a.sink_reports[i].gradient.y, b.sink_reports[i].gradient.y)
        << i;
    EXPECT_EQ(a.sink_reports[i].source, b.sink_reports[i].source) << i;
  }
  ASSERT_EQ(a.map.level_count(), b.map.level_count());
  for (int k = 0; k < a.map.level_count(); ++k) {
    const auto& ra = a.map.region(k);
    const auto& rb = b.map.region(k);
    ASSERT_EQ(ra.boundaries().size(), rb.boundaries().size()) << k;
    for (std::size_t p = 0; p < ra.boundaries().size(); ++p) {
      const Polyline& pa = ra.boundaries()[p];
      const Polyline& pb = rb.boundaries()[p];
      EXPECT_EQ(pa.closed(), pb.closed());
      ASSERT_EQ(pa.points().size(), pb.points().size());
      for (std::size_t q = 0; q < pa.points().size(); ++q) {
        EXPECT_EQ(pa.points()[q].x, pb.points()[q].x);
        EXPECT_EQ(pa.points()[q].y, pb.points()[q].y);
      }
    }
  }
}

TEST(ChaosRun, DuplicateDeliveryIsIdempotentOnTheMap) {
  // Receiver-side duplicate suppression: with a lossless, corruption-free
  // pipeline, hearing every frame twice (dup_prob = 1) must yield the
  // SAME map, bit for bit, as hearing it once — the in-network filter and
  // sink aggregation never see the duplicates — at 1 thread and at 4.
  const Scenario s = chaos_scenario(9);
  IsoMapOptions once = isomap_options(s, 4);
  ASSERT_TRUE(once.query.enable_filtering);
  once.link.impair = ImpairmentConfig{};  // Latency only.
  IsoMapOptions twice = once;
  twice.link.impair->dup_prob = 1.0;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    exec::set_thread_count(threads);
    const IsoMapRun a = run_isomap(s, once);
    const IsoMapRun b = run_isomap(s, twice);
    exec::set_thread_count(0);
    ASSERT_GT(a.result.delivered_reports, 0);
    ASSERT_GT(a.result.filtered_reports, 0);  // The filter is live.
    EXPECT_EQ(a.result.delivered_reports, b.result.delivered_reports);
    EXPECT_EQ(a.result.filtered_reports, b.result.filtered_reports);
    EXPECT_GT(b.summary.counters.at("channel.dup_rx"), 0.0);
    expect_same_map(a.result, b.result);
    // The duplicated run pays strictly more receive energy.
    EXPECT_GT(b.ledger.total_rx_bytes(), a.ledger.total_rx_bytes());
  }
}

}  // namespace
}  // namespace isomap
