#include "sim/run_capsule.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <utility>

#include "obs/obs.hpp"
#include "sim/runners.hpp"

namespace isomap::capsule {
namespace {

/// Section tags of the run-capsule schema (container-level detail; the
/// public surface is RunCapsule). New sections get new tags — never
/// reuse a retired one.
enum Tag : std::uint64_t {
  kMetaTag = 1,
  kConfigTag = 2,
  kOptionsTag = 3,
  kContinuousTag = 4,
  kDeploymentTag = 5,
  kFaultPlanTag = 6,
  kReadingsTag = 7,
  kSingleOutputsTag = 8,
  kRoundOutputsTag = 9,
  kFinalMapTag = 10,
  kTelemetryTag = 11,
  kLinkImpairTag = 12,
};

/// Decode-time sanity caps: far above any real run, low enough that a
/// corrupt count cannot drive a multi-gigabyte allocation.
constexpr std::size_t kMaxNodes = 1u << 22;
constexpr std::size_t kMaxRounds = 1u << 20;
constexpr std::size_t kMaxItems = 1u << 26;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void put_vec2(Writer& w, Vec2 v) {
  w.put_f64(v.x);
  w.put_f64(v.y);
}

Vec2 get_vec2(Reader& r) {
  Vec2 v;
  v.x = r.get_f64();
  v.y = r.get_f64();
  return v;
}

void put_report(Writer& w, const IsolineReport& report) {
  w.put_f64(report.isolevel);
  put_vec2(w, report.position);
  put_vec2(w, report.gradient);
  w.put_i64(report.source);
}

IsolineReport get_report(Reader& r) {
  IsolineReport report;
  report.isolevel = r.get_f64();
  report.position = get_vec2(r);
  report.gradient = get_vec2(r);
  report.source = static_cast<int>(r.get_i64());
  return report;
}

void put_ledger(Writer& w, const obs::LedgerTotals& t) {
  w.put_i64(t.nodes);
  w.put_f64(t.tx_bytes);
  w.put_f64(t.rx_bytes);
  w.put_f64(t.ops);
  w.put_f64(t.mean_ops);
  w.put_f64(t.max_ops);
}

obs::LedgerTotals get_ledger(Reader& r) {
  obs::LedgerTotals t;
  t.nodes = static_cast<int>(r.get_i64());
  t.tx_bytes = r.get_f64();
  t.rx_bytes = r.get_f64();
  t.ops = r.get_f64();
  t.mean_ops = r.get_f64();
  t.max_ops = r.get_f64();
  return t;
}

void put_contours(Writer& w, const std::vector<LevelContour>& contours) {
  w.put_u64(contours.size());
  for (const LevelContour& lc : contours) {
    w.put_f64(lc.isolevel);
    w.put_i64(lc.report_count);
    w.put_u64(lc.boundaries.size());
    for (const auto& polyline : lc.boundaries) {
      w.put_bool(polyline.closed);
      w.put_u64(polyline.points.size());
      for (Vec2 p : polyline.points) put_vec2(w, p);
    }
  }
}

std::vector<LevelContour> get_contours(Reader& r) {
  std::vector<LevelContour> contours(r.get_count(kMaxItems, 10));
  for (LevelContour& lc : contours) {
    lc.isolevel = r.get_f64();
    lc.report_count = static_cast<int>(r.get_i64());
    lc.boundaries.resize(r.get_count(kMaxItems, 2));
    for (auto& polyline : lc.boundaries) {
      polyline.closed = r.get_bool();
      polyline.points.resize(r.get_count(kMaxItems, 16));
      for (Vec2& p : polyline.points) p = get_vec2(r);
    }
  }
  return contours;
}

/// Throws unless the section payload was consumed exactly — a decoded
/// section with trailing bytes means schema skew or corruption.
void expect_done(Reader& r, const char* section) {
  if (!r.done())
    throw CapsuleError(std::string(section) + " section has " +
                       std::to_string(r.remaining()) + " trailing bytes");
}

const Section& require(const Capsule& c, std::uint64_t tag,
                       const char* name) {
  const Section* s = c.find(tag);
  if (s == nullptr)
    throw CapsuleError(std::string("missing required section ") + name);
  return *s;
}

std::vector<LevelContour> extract_contours(const ContourMap& map) {
  std::vector<LevelContour> out;
  out.reserve(static_cast<std::size_t>(map.level_count()));
  for (int k = 0; k < map.level_count(); ++k) {
    const LevelRegion& region = map.region(k);
    LevelContour lc;
    lc.isolevel = region.isolevel();
    lc.report_count = static_cast<int>(region.reports().size());
    lc.boundaries.reserve(region.boundaries().size());
    for (const Polyline& p : region.boundaries())
      lc.boundaries.push_back({p.closed(), p.points()});
    out.push_back(std::move(lc));
  }
  return out;
}

/// Inputs rebuilt from a capsule: the deployment snapshot materialized,
/// then the graph and tree re-derived exactly as make_scenario derives
/// them (both constructions are deterministic — see net/routing_tree.hpp).
struct Rebuilt {
  Deployment deployment;
  CommGraph graph;
  RoutingTree tree;

  explicit Rebuilt(const RunCapsule& c)
      : deployment(c.deployment.materialize()),
        graph(deployment, c.radio_range),
        tree(graph, c.sink) {}
};

void check_readings(const RunCapsule& c) {
  if (c.rounds.empty())
    throw CapsuleError("capsule holds no readings rounds");
  if (c.kind == RunKind::kSingleShot && c.rounds.size() != 1)
    throw CapsuleError("single-shot capsule must hold exactly one round");
  for (const auto& round : c.rounds)
    if (round.size() != c.deployment.nodes.size())
      throw CapsuleError("readings round size " +
                         std::to_string(round.size()) +
                         " does not match deployment size " +
                         std::to_string(c.deployment.nodes.size()));
}

SingleShotOutputs execute_single_shot(
    const RunCapsule& c, obs::TraceSink* trace,
    std::optional<obs::NodeTelemetrySnapshot>* telemetry_out = nullptr) {
  const Rebuilt in(c);
  Ledger ledger(in.deployment.size());
  obs::MetricsRegistry metrics;
  obs::NodeTelemetry telemetry(in.deployment.size());
  const IsoMapResult result = [&] {
    const obs::ObsScope scope(&metrics, trace, &telemetry);
    const IsoMapProtocol protocol(c.options);
    return protocol.run(c.rounds.front(), in.deployment, in.graph, in.tree,
                        ledger);
  }();
  if (telemetry_out != nullptr) *telemetry_out = telemetry.snapshot();
  SingleShotOutputs out;
  out.isoline_node_count = result.isoline_node_count;
  out.generated_reports = result.generated_reports;
  out.delivered_reports = result.delivered_reports;
  out.filtered_reports = result.filtered_reports;
  out.lost_channel_reports = result.lost_channel_reports;
  out.lost_crash_reports = result.lost_crash_reports;
  out.crashed_nodes = result.crashed_nodes;
  out.route_repairs = result.route_repairs;
  out.repair_traffic_bytes = result.repair_traffic_bytes;
  out.report_traffic_bytes = result.report_traffic_bytes;
  out.measurement_traffic_bytes = result.measurement_traffic_bytes;
  out.dissemination_traffic_bytes = result.dissemination_traffic_bytes;
  out.bottleneck_bytes = result.bottleneck_bytes;
  out.e2e_first_latency_s = result.e2e_first_latency_s;
  out.e2e_last_latency_s = result.e2e_last_latency_s;
  out.e2e_mean_latency_s = result.e2e_mean_latency_s;
  out.sink_reports = result.sink_reports;
  out.contours = extract_contours(result.map);
  out.ledger = ledger_totals(ledger);
  out.summary_json = normalized_summary_json(
      obs::make_run_summary("isomap", metrics, out.ledger, 0.0, 0));
  return out;
}

void execute_continuous(
    const RunCapsule& c, obs::TraceSink* trace,
    std::vector<RoundOutputs>& rounds_out,
    std::vector<LevelContour>& final_contours, std::string& final_summary,
    std::optional<obs::NodeTelemetrySnapshot>* telemetry_out = nullptr) {
  const Rebuilt in(c);
  ContinuousOptions opts = c.continuous;
  opts.base = c.options;
  ContinuousMapper mapper(opts, in.deployment, in.graph, in.tree);
  Ledger ledger(in.deployment.size());
  // One flight-recorder table across every round, mirroring the one
  // ledger: charges accumulate like the ledger's own arrays do. Hop
  // distances come from the initial tree (the continuous engines never
  // rewire it mid-capsule).
  obs::NodeTelemetry telemetry(in.deployment.size());
  for (int v = 0; v < in.deployment.size(); ++v)
    telemetry.set_hops(v, in.tree.level(v));
  rounds_out.clear();
  rounds_out.reserve(c.rounds.size());
  for (std::size_t r = 0; r < c.rounds.size(); ++r) {
    obs::MetricsRegistry metrics;
    const RoundResult result = [&] {
      const obs::ObsScope scope(&metrics, trace, &telemetry);
      return mapper.round(c.rounds[r], ledger);
    }();
    RoundOutputs out;
    out.adds = result.adds;
    out.refreshes = result.refreshes;
    out.withdrawals = result.withdrawals;
    out.suppressed = result.suppressed;
    out.keepalives = result.keepalives;
    out.expired = result.expired;
    out.active_reports = result.active_reports;
    out.delta_traffic_bytes = result.delta_traffic_bytes;
    out.beacon_traffic_bytes = result.beacon_traffic_bytes;
    out.sink = mapper.sink_dump();
    out.ledger = ledger_totals(ledger);
    rounds_out.push_back(std::move(out));
    if (r + 1 == c.rounds.size()) {
      final_contours = extract_contours(result.map);
      final_summary = normalized_summary_json(obs::make_run_summary(
          "continuous", metrics, ledger_totals(ledger), 0.0, 0));
    }
  }
  if (telemetry_out != nullptr) *telemetry_out = telemetry.snapshot();
}

std::string encode_telemetry(const obs::NodeTelemetrySnapshot& t) {
  Writer w;
  const auto n = static_cast<std::size_t>(t.size());
  w.put_u64(n);
  for (double v : t.tx_bytes) w.put_f64(v);
  for (double v : t.rx_bytes) w.put_f64(v);
  for (double v : t.ops) w.put_f64(v);
  for (int v : t.hops) w.put_i64(v);
  for (long long v : t.generated) w.put_i64(v);
  for (long long v : t.delivered) w.put_i64(v);
  for (long long v : t.filtered) w.put_i64(v);
  for (long long v : t.lost_channel) w.put_i64(v);
  for (long long v : t.lost_crash) w.put_i64(v);
  for (long long v : t.relayed) w.put_i64(v);
  for (long long v : t.retries) w.put_i64(v);
  for (long long v : t.drops) w.put_i64(v);
  w.put_f64(t.energy.tx_j_per_byte);
  w.put_f64(t.energy.rx_j_per_byte);
  w.put_f64(t.energy.j_per_op);
  // Per-phase lanes stay out of the capsule on purpose: they are derived
  // observability detail, and omitting them keeps the section a fixed
  // 12-array schema. The link-impairment counters ride *after* the
  // energy triple so pre-impairment readers (which stop at the triple)
  // never see them, and pre-impairment capsules decode with the guarded
  // tail below.
  for (long long v : t.dup_rx) w.put_i64(v);
  for (long long v : t.corrupt_rx) w.put_i64(v);
  for (long long v : t.arq_timeouts) w.put_i64(v);
  return w.take();
}

void decode_telemetry(Reader r, obs::NodeTelemetrySnapshot& t) {
  const std::size_t n = r.get_count(kMaxNodes, 12);
  t.tx_bytes.resize(n);
  t.rx_bytes.resize(n);
  t.ops.resize(n);
  t.hops.resize(n);
  t.generated.resize(n);
  t.delivered.resize(n);
  t.filtered.resize(n);
  t.lost_channel.resize(n);
  t.lost_crash.resize(n);
  t.relayed.resize(n);
  t.retries.resize(n);
  t.drops.resize(n);
  for (double& v : t.tx_bytes) v = r.get_f64();
  for (double& v : t.rx_bytes) v = r.get_f64();
  for (double& v : t.ops) v = r.get_f64();
  for (int& v : t.hops) v = static_cast<int>(r.get_i64());
  for (long long& v : t.generated) v = r.get_i64();
  for (long long& v : t.delivered) v = r.get_i64();
  for (long long& v : t.filtered) v = r.get_i64();
  for (long long& v : t.lost_channel) v = r.get_i64();
  for (long long& v : t.lost_crash) v = r.get_i64();
  for (long long& v : t.relayed) v = r.get_i64();
  for (long long& v : t.retries) v = r.get_i64();
  for (long long& v : t.drops) v = r.get_i64();
  t.energy.tx_j_per_byte = r.get_f64();
  t.energy.rx_j_per_byte = r.get_f64();
  t.energy.j_per_op = r.get_f64();
  // Impairment counters: absent in pre-impairment capsules, where the
  // vectors stay empty. diff_telemetry treats an empty array as n zeros,
  // so such capsules still compare clean against fresh replays (which
  // always fill the arrays — with zeros on an unimpaired run).
  if (!r.done()) {
    t.dup_rx.resize(n);
    t.corrupt_rx.resize(n);
    t.arq_timeouts.resize(n);
    for (long long& v : t.dup_rx) v = r.get_i64();
    for (long long& v : t.corrupt_rx) v = r.get_i64();
    for (long long& v : t.arq_timeouts) v = r.get_i64();
  }
  expect_done(r, "telemetry");
}

// --- Section payload encode/decode ------------------------------------

std::string encode_meta(const RunCapsule& c) {
  Writer w;
  w.put_u64(kRunSchemaVersion);
  w.put_u64(static_cast<std::uint64_t>(c.kind));
  w.put_string(c.label);
  return w.take();
}

void decode_meta(Reader r, RunCapsule& c) {
  const std::uint64_t schema = r.get_u64();
  if (schema == 0 || schema > kRunSchemaVersion)
    throw CapsuleError("unsupported run schema version " +
                       std::to_string(schema));
  const std::uint64_t kind = r.get_u64();
  if (kind > 1) throw CapsuleError("unknown run kind");
  c.kind = static_cast<RunKind>(kind);
  c.label = r.get_string();
  expect_done(r, "meta");
}

std::string encode_config(const ScenarioConfig& s) {
  Writer w;
  w.put_i64(s.num_nodes);
  w.put_f64(s.field_side);
  w.put_f64(s.radio_range);
  w.put_bool(s.grid_deployment);
  w.put_f64(s.failure_fraction);
  w.put_u64(static_cast<std::uint64_t>(s.field));
  w.put_i64(s.random_field_bumps);
  w.put_f64(s.random_field_amplitude);
  w.put_u64(s.seed);
  w.put_f64(s.sink_fx);
  w.put_f64(s.sink_fy);
  w.put_f64(s.reading_noise_std);
  w.put_f64(s.position_error_std);
  return w.take();
}

void decode_config(Reader r, ScenarioConfig& s) {
  s.num_nodes = static_cast<int>(r.get_i64());
  s.field_side = r.get_f64();
  s.radio_range = r.get_f64();
  s.grid_deployment = r.get_bool();
  s.failure_fraction = r.get_f64();
  const std::uint64_t field = r.get_u64();
  if (field > static_cast<std::uint64_t>(FieldKind::kSloped))
    throw CapsuleError("unknown field kind");
  s.field = static_cast<FieldKind>(field);
  s.random_field_bumps = static_cast<int>(r.get_i64());
  s.random_field_amplitude = r.get_f64();
  s.seed = r.get_u64();
  s.sink_fx = r.get_f64();
  s.sink_fy = r.get_f64();
  s.reading_noise_std = r.get_f64();
  s.position_error_std = r.get_f64();
  expect_done(r, "config");
}

std::string encode_options(const IsoMapOptions& o) {
  Writer w;
  const ContourQuery& q = o.query;
  w.put_f64(q.lambda_lo);
  w.put_f64(q.lambda_hi);
  w.put_f64(q.granularity);
  w.put_f64(q.epsilon_fraction);
  w.put_f64(q.angular_separation_deg);
  w.put_f64(q.distance_separation);
  w.put_bool(q.enable_filtering);
  w.put_i64(q.regression_hops);
  w.put_u64(static_cast<std::uint64_t>(o.regulation));
  w.put_bool(o.account_local_measurement);
  w.put_bool(o.account_query_dissemination);
  w.put_f64(o.header_bytes);
  w.put_f64(o.link_loss);
  w.put_i64(o.link_retries);
  w.put_u64(o.link_seed);
  w.put_bool(o.link_burst.has_value());
  if (o.link_burst) {
    w.put_f64(o.link_burst->p_enter_burst);
    w.put_f64(o.link_burst->p_exit_burst);
    w.put_f64(o.link_burst->loss_good);
    w.put_f64(o.link_burst->loss_bad);
  }
  const FaultConfig& f = o.fault;
  w.put_f64(f.crash_fraction);
  w.put_f64(f.crash_window_begin);
  w.put_f64(f.crash_window_end);
  w.put_bool(f.blackout);
  put_vec2(w, f.blackout_center);
  w.put_f64(f.blackout_radius);
  w.put_f64(f.blackout_time);
  w.put_u64(f.seed);
  w.put_bool(f.self_healing);
  w.put_bool(o.record_transmissions);
  w.put_bool(o.adaptive_epsilon);
  return w.take();
}

void decode_options(Reader r, IsoMapOptions& o) {
  ContourQuery& q = o.query;
  q.lambda_lo = r.get_f64();
  q.lambda_hi = r.get_f64();
  q.granularity = r.get_f64();
  q.epsilon_fraction = r.get_f64();
  q.angular_separation_deg = r.get_f64();
  q.distance_separation = r.get_f64();
  q.enable_filtering = r.get_bool();
  q.regression_hops = static_cast<int>(r.get_i64());
  const std::uint64_t regulation = r.get_u64();
  if (regulation > static_cast<std::uint64_t>(RegulationMode::kBlended))
    throw CapsuleError("unknown regulation mode");
  o.regulation = static_cast<RegulationMode>(regulation);
  o.account_local_measurement = r.get_bool();
  o.account_query_dissemination = r.get_bool();
  o.header_bytes = r.get_f64();
  o.link_loss = r.get_f64();
  o.link_retries = static_cast<int>(r.get_i64());
  o.link_seed = r.get_u64();
  if (r.get_bool()) {
    GilbertElliottParams burst;
    burst.p_enter_burst = r.get_f64();
    burst.p_exit_burst = r.get_f64();
    burst.loss_good = r.get_f64();
    burst.loss_bad = r.get_f64();
    o.link_burst = burst;
  } else {
    o.link_burst.reset();
  }
  FaultConfig& f = o.fault;
  f.crash_fraction = r.get_f64();
  f.crash_window_begin = r.get_f64();
  f.crash_window_end = r.get_f64();
  f.blackout = r.get_bool();
  f.blackout_center = get_vec2(r);
  f.blackout_radius = r.get_f64();
  f.blackout_time = r.get_f64();
  f.seed = r.get_u64();
  f.self_healing = r.get_bool();
  o.record_transmissions = r.get_bool();
  o.adaptive_epsilon = r.get_bool();
  expect_done(r, "options");
}

/// Link impairment + ARQ configuration (tag 12, optional — present only
/// when options.link_impair is set, so pre-impairment capsules and
/// unimpaired runs carry byte-identical sections).
std::string encode_link_impair(const ImpairmentConfig& impair,
                               const ArqConfig& arq) {
  Writer w;
  w.put_f64(impair.latency_s);
  w.put_f64(impair.jitter_s);
  w.put_f64(impair.dup_prob);
  w.put_f64(impair.reorder_prob);
  w.put_f64(impair.reorder_extra_s);
  w.put_f64(impair.corrupt_prob);
  w.put_i64(arq.window);
  w.put_f64(arq.frame_payload_bytes);
  w.put_f64(arq.timeout_s);
  w.put_f64(arq.backoff_factor);
  w.put_f64(arq.max_timeout_s);
  w.put_i64(arq.max_frame_attempts);
  return w.take();
}

void decode_link_impair(Reader r, IsoMapOptions& o) {
  ImpairmentConfig impair;
  impair.latency_s = r.get_f64();
  impair.jitter_s = r.get_f64();
  impair.dup_prob = r.get_f64();
  impair.reorder_prob = r.get_f64();
  impair.reorder_extra_s = r.get_f64();
  impair.corrupt_prob = r.get_f64();
  o.link_arq.window = static_cast<int>(r.get_i64());
  o.link_arq.frame_payload_bytes = r.get_f64();
  o.link_arq.timeout_s = r.get_f64();
  o.link_arq.backoff_factor = r.get_f64();
  o.link_arq.max_timeout_s = r.get_f64();
  o.link_arq.max_frame_attempts = static_cast<int>(r.get_i64());
  o.link_impair = impair;
  expect_done(r, "link_impair");
}

std::string encode_continuous(const ContinuousOptions& o) {
  Writer w;
  w.put_f64(o.gradient_refresh_deg);
  w.put_f64(o.withdraw_bytes);
  w.put_f64(o.beacon_bytes);
  w.put_i64(o.stale_rounds);
  w.put_u64(static_cast<std::uint64_t>(o.engine));
  return w.take();
}

void decode_continuous(Reader r, ContinuousOptions& o) {
  o.gradient_refresh_deg = r.get_f64();
  o.withdraw_bytes = r.get_f64();
  o.beacon_bytes = r.get_f64();
  o.stale_rounds = static_cast<int>(r.get_i64());
  const std::uint64_t engine = r.get_u64();
  if (engine > static_cast<std::uint64_t>(ContinuousEngine::kIncremental))
    throw CapsuleError("unknown continuous engine");
  o.engine = static_cast<ContinuousEngine>(engine);
  expect_done(r, "continuous");
}

std::string encode_deployment(const RunCapsule& c) {
  Writer w;
  const DeploymentSnapshot& d = c.deployment;
  w.put_f64(d.bounds.x0);
  w.put_f64(d.bounds.y0);
  w.put_f64(d.bounds.x1);
  w.put_f64(d.bounds.y1);
  w.put_f64(c.radio_range);
  w.put_i64(c.sink);
  w.put_u64(d.nodes.size());
  for (const auto& node : d.nodes) {
    put_vec2(w, node.pos);
    w.put_bool(node.alive);
    w.put_bool(node.believed.has_value());
    if (node.believed) put_vec2(w, *node.believed);
  }
  return w.take();
}

void decode_deployment(Reader r, RunCapsule& c) {
  DeploymentSnapshot& d = c.deployment;
  d.bounds.x0 = r.get_f64();
  d.bounds.y0 = r.get_f64();
  d.bounds.x1 = r.get_f64();
  d.bounds.y1 = r.get_f64();
  c.radio_range = r.get_f64();
  c.sink = static_cast<int>(r.get_i64());
  d.nodes.resize(r.get_count(kMaxNodes, 18));
  for (auto& node : d.nodes) {
    node.pos = get_vec2(r);
    node.alive = r.get_bool();
    if (r.get_bool())
      node.believed = get_vec2(r);
    else
      node.believed.reset();
  }
  if (c.sink < 0 || static_cast<std::size_t>(c.sink) >= d.nodes.size())
    throw CapsuleError("sink id out of range");
  expect_done(r, "deployment");
}

std::string encode_fault_plan(const FaultPlan& plan) {
  Writer w;
  w.put_u64(plan.size());
  for (const FaultEvent& e : plan.events()) {
    w.put_f64(e.time);
    w.put_u64(static_cast<std::uint64_t>(e.kind));
    w.put_i64(e.node);
    put_vec2(w, e.center);
    w.put_f64(e.radius);
  }
  return w.take();
}

void decode_fault_plan(Reader r, FaultPlan& plan) {
  const std::size_t count = r.get_count(kMaxItems, 10);
  for (std::size_t i = 0; i < count; ++i) {
    FaultEvent e;
    e.time = r.get_f64();
    const std::uint64_t kind = r.get_u64();
    if (kind > static_cast<std::uint64_t>(FaultKind::kRegionBlackout))
      throw CapsuleError("unknown fault kind");
    e.kind = static_cast<FaultKind>(kind);
    e.node = static_cast<int>(r.get_i64());
    e.center = get_vec2(r);
    e.radius = r.get_f64();
    if (!(e.time >= 0.0 && e.time <= 1.0) || !(e.radius >= 0.0))
      throw CapsuleError("fault event out of range");
    plan.add(e);
  }
  expect_done(r, "fault_plan");
}

std::string encode_readings(const std::vector<std::vector<double>>& rounds) {
  Writer w;
  w.put_u64(rounds.size());
  for (const auto& round : rounds) {
    w.put_u64(round.size());
    for (double v : round) w.put_f64(v);
  }
  return w.take();
}

void decode_readings(Reader r, std::vector<std::vector<double>>& rounds) {
  rounds.resize(r.get_count(kMaxRounds, 1));
  for (auto& round : rounds) {
    round.resize(r.get_count(kMaxNodes, 8));
    for (double& v : round) v = r.get_f64();
  }
  expect_done(r, "readings");
}

std::string encode_single_outputs(const SingleShotOutputs& o) {
  Writer w;
  w.put_i64(o.isoline_node_count);
  w.put_i64(o.generated_reports);
  w.put_i64(o.delivered_reports);
  w.put_i64(o.filtered_reports);
  w.put_i64(o.lost_channel_reports);
  w.put_i64(o.lost_crash_reports);
  w.put_i64(o.crashed_nodes);
  w.put_i64(o.route_repairs);
  w.put_f64(o.repair_traffic_bytes);
  w.put_f64(o.report_traffic_bytes);
  w.put_f64(o.measurement_traffic_bytes);
  w.put_f64(o.dissemination_traffic_bytes);
  w.put_f64(o.bottleneck_bytes);
  w.put_u64(o.sink_reports.size());
  for (const auto& report : o.sink_reports) put_report(w, report);
  put_contours(w, o.contours);
  put_ledger(w, o.ledger);
  w.put_string(o.summary_json);
  // Impairment latency tail: appended after every original field so
  // pre-impairment readers stop cleanly before it, and pre-impairment
  // capsules decode with the guarded tail below (fields default to 0.0,
  // matching an unimpaired fresh replay bit for bit).
  w.put_f64(o.e2e_first_latency_s);
  w.put_f64(o.e2e_last_latency_s);
  w.put_f64(o.e2e_mean_latency_s);
  return w.take();
}

void decode_single_outputs(Reader r, SingleShotOutputs& o) {
  o.isoline_node_count = static_cast<int>(r.get_i64());
  o.generated_reports = static_cast<int>(r.get_i64());
  o.delivered_reports = static_cast<int>(r.get_i64());
  o.filtered_reports = static_cast<int>(r.get_i64());
  o.lost_channel_reports = static_cast<int>(r.get_i64());
  o.lost_crash_reports = static_cast<int>(r.get_i64());
  o.crashed_nodes = static_cast<int>(r.get_i64());
  o.route_repairs = static_cast<int>(r.get_i64());
  o.repair_traffic_bytes = r.get_f64();
  o.report_traffic_bytes = r.get_f64();
  o.measurement_traffic_bytes = r.get_f64();
  o.dissemination_traffic_bytes = r.get_f64();
  o.bottleneck_bytes = r.get_f64();
  o.sink_reports.resize(r.get_count(kMaxItems, 40));
  for (auto& report : o.sink_reports) report = get_report(r);
  o.contours = get_contours(r);
  o.ledger = get_ledger(r);
  o.summary_json = r.get_string();
  if (!r.done()) {
    o.e2e_first_latency_s = r.get_f64();
    o.e2e_last_latency_s = r.get_f64();
    o.e2e_mean_latency_s = r.get_f64();
  }
  expect_done(r, "single_outputs");
}

std::string encode_round_outputs(const std::vector<RoundOutputs>& rounds) {
  Writer w;
  w.put_u64(rounds.size());
  for (const RoundOutputs& o : rounds) {
    w.put_i64(o.adds);
    w.put_i64(o.refreshes);
    w.put_i64(o.withdrawals);
    w.put_i64(o.suppressed);
    w.put_i64(o.keepalives);
    w.put_i64(o.expired);
    w.put_i64(o.active_reports);
    w.put_f64(o.delta_traffic_bytes);
    w.put_f64(o.beacon_traffic_bytes);
    w.put_u64(o.sink.size());
    for (const auto& entry : o.sink) {
      w.put_i64(entry.node);
      w.put_i64(entry.level);
      w.put_i64(entry.last_update);
      put_report(w, entry.report);
    }
    put_ledger(w, o.ledger);
  }
  return w.take();
}

void decode_round_outputs(Reader r, std::vector<RoundOutputs>& rounds) {
  rounds.resize(r.get_count(kMaxRounds, 24));
  for (RoundOutputs& o : rounds) {
    o.adds = static_cast<int>(r.get_i64());
    o.refreshes = static_cast<int>(r.get_i64());
    o.withdrawals = static_cast<int>(r.get_i64());
    o.suppressed = static_cast<int>(r.get_i64());
    o.keepalives = static_cast<int>(r.get_i64());
    o.expired = static_cast<int>(r.get_i64());
    o.active_reports = static_cast<int>(r.get_i64());
    o.delta_traffic_bytes = r.get_f64();
    o.beacon_traffic_bytes = r.get_f64();
    o.sink.resize(r.get_count(kMaxItems, 42));
    for (auto& entry : o.sink) {
      entry.node = static_cast<int>(r.get_i64());
      entry.level = static_cast<int>(r.get_i64());
      entry.last_update = static_cast<int>(r.get_i64());
      entry.report = get_report(r);
    }
    o.ledger = get_ledger(r);
  }
  expect_done(r, "round_outputs");
}

std::string encode_final_map(const RunCapsule& c) {
  Writer w;
  put_contours(w, c.final_contours);
  w.put_string(c.final_summary_json);
  return w.take();
}

void decode_final_map(Reader r, RunCapsule& c) {
  c.final_contours = get_contours(r);
  c.final_summary_json = r.get_string();
  expect_done(r, "final_map");
}

// --- Structured output diffing -----------------------------------------

/// Collects the first mismatch; all eq_* helpers are no-ops once one is
/// found, so comparisons read as straight-line code.
class DiffFinder {
 public:
  void eq_i(const std::string& where, long long stored, long long fresh) {
    if (found_ || stored == fresh) return;
    found_ = OutputDiff{where, "stored=" + std::to_string(stored) +
                                   " recomputed=" + std::to_string(fresh)};
  }
  void eq_f(const std::string& where, double stored, double fresh) {
    if (found_ || bits(stored) == bits(fresh)) return;
    std::ostringstream os;
    os.precision(17);
    os << "stored=" << stored << " recomputed=" << fresh << " (bits 0x"
       << std::hex << bits(stored) << " vs 0x" << bits(fresh) << ")";
    found_ = OutputDiff{where, os.str()};
  }
  void eq_s(const std::string& where, const std::string& stored,
            const std::string& fresh) {
    if (found_ || stored == fresh) return;
    std::size_t at = 0;
    while (at < stored.size() && at < fresh.size() && stored[at] == fresh[at])
      ++at;
    found_ = OutputDiff{where, "strings diverge at byte " +
                                   std::to_string(at) + " (stored " +
                                   std::to_string(stored.size()) +
                                   " bytes, recomputed " +
                                   std::to_string(fresh.size()) + ")"};
  }
  bool done() const { return found_.has_value(); }
  const std::optional<OutputDiff>& result() const { return found_; }

 private:
  std::optional<OutputDiff> found_;
};

void diff_reports(DiffFinder& d, const std::string& where,
                  const std::vector<IsolineReport>& stored,
                  const std::vector<IsolineReport>& fresh) {
  d.eq_i(where + ".count", static_cast<long long>(stored.size()),
         static_cast<long long>(fresh.size()));
  for (std::size_t i = 0; i < stored.size() && !d.done(); ++i) {
    const std::string at = where + "[" + std::to_string(i) + "]";
    d.eq_f(at + ".isolevel", stored[i].isolevel, fresh[i].isolevel);
    d.eq_f(at + ".position.x", stored[i].position.x, fresh[i].position.x);
    d.eq_f(at + ".position.y", stored[i].position.y, fresh[i].position.y);
    d.eq_f(at + ".gradient.x", stored[i].gradient.x, fresh[i].gradient.x);
    d.eq_f(at + ".gradient.y", stored[i].gradient.y, fresh[i].gradient.y);
    d.eq_i(at + ".source", stored[i].source, fresh[i].source);
  }
}

void diff_contours(DiffFinder& d, const std::string& where,
                   const std::vector<LevelContour>& stored,
                   const std::vector<LevelContour>& fresh) {
  d.eq_i(where + ".levels", static_cast<long long>(stored.size()),
         static_cast<long long>(fresh.size()));
  for (std::size_t k = 0; k < stored.size() && !d.done(); ++k) {
    const std::string at = where + "[" + std::to_string(k) + "]";
    d.eq_f(at + ".isolevel", stored[k].isolevel, fresh[k].isolevel);
    d.eq_i(at + ".report_count", stored[k].report_count,
           fresh[k].report_count);
    d.eq_i(at + ".polylines", static_cast<long long>(stored[k].boundaries.size()),
           static_cast<long long>(fresh[k].boundaries.size()));
    for (std::size_t p = 0; p < stored[k].boundaries.size() && !d.done();
         ++p) {
      const auto& sp = stored[k].boundaries[p];
      const auto& fp = fresh[k].boundaries[p];
      const std::string pl = at + ".polyline[" + std::to_string(p) + "]";
      d.eq_i(pl + ".closed", sp.closed ? 1 : 0, fp.closed ? 1 : 0);
      d.eq_i(pl + ".points", static_cast<long long>(sp.points.size()),
             static_cast<long long>(fp.points.size()));
      for (std::size_t q = 0; q < sp.points.size() && !d.done(); ++q) {
        const std::string pt = pl + "[" + std::to_string(q) + "]";
        d.eq_f(pt + ".x", sp.points[q].x, fp.points[q].x);
        d.eq_f(pt + ".y", sp.points[q].y, fp.points[q].y);
      }
    }
  }
}

void diff_telemetry(DiffFinder& d, const obs::NodeTelemetrySnapshot& stored,
                    const obs::NodeTelemetrySnapshot& fresh) {
  d.eq_i("telemetry.nodes", stored.size(), fresh.size());
  if (d.done()) return;
  const auto per_f64 = [&](const char* field,
                           const std::vector<double>& s,
                           const std::vector<double>& f) {
    for (std::size_t i = 0; i < s.size() && !d.done(); ++i)
      d.eq_f("telemetry." + std::string(field) + "[" + std::to_string(i) +
                 "]",
             s[i], f[i]);
  };
  const auto per_i64 = [&](const char* field,
                           const std::vector<long long>& s,
                           const std::vector<long long>& f) {
    for (std::size_t i = 0; i < s.size() && !d.done(); ++i)
      d.eq_i("telemetry." + std::string(field) + "[" + std::to_string(i) +
                 "]",
             s[i], f[i]);
  };
  per_f64("tx_bytes", stored.tx_bytes, fresh.tx_bytes);
  per_f64("rx_bytes", stored.rx_bytes, fresh.rx_bytes);
  per_f64("ops", stored.ops, fresh.ops);
  for (std::size_t i = 0; i < stored.hops.size() && !d.done(); ++i)
    d.eq_i("telemetry.hops[" + std::to_string(i) + "]", stored.hops[i],
           fresh.hops[i]);
  per_i64("generated", stored.generated, fresh.generated);
  per_i64("delivered", stored.delivered, fresh.delivered);
  per_i64("filtered", stored.filtered, fresh.filtered);
  per_i64("lost_channel", stored.lost_channel, fresh.lost_channel);
  per_i64("lost_crash", stored.lost_crash, fresh.lost_crash);
  per_i64("relayed", stored.relayed, fresh.relayed);
  per_i64("retries", stored.retries, fresh.retries);
  per_i64("drops", stored.drops, fresh.drops);
  // Impairment counters: a capsule recorded before they existed decodes
  // them empty, which compares equal to the all-zero arrays an
  // unimpaired fresh replay produces (empty reads as n zeros).
  const auto per_i64_or_zero = [&](const char* field,
                                   const std::vector<long long>& s,
                                   const std::vector<long long>& f) {
    const std::size_t n = std::max(s.size(), f.size());
    for (std::size_t i = 0; i < n && !d.done(); ++i)
      d.eq_i("telemetry." + std::string(field) + "[" + std::to_string(i) +
                 "]",
             i < s.size() ? s[i] : 0, i < f.size() ? f[i] : 0);
  };
  per_i64_or_zero("dup_rx", stored.dup_rx, fresh.dup_rx);
  per_i64_or_zero("corrupt_rx", stored.corrupt_rx, fresh.corrupt_rx);
  per_i64_or_zero("arq_timeouts", stored.arq_timeouts, fresh.arq_timeouts);
}

void diff_ledger(DiffFinder& d, const std::string& where,
                 const obs::LedgerTotals& stored,
                 const obs::LedgerTotals& fresh) {
  d.eq_i(where + ".nodes", stored.nodes, fresh.nodes);
  d.eq_f(where + ".tx_bytes", stored.tx_bytes, fresh.tx_bytes);
  d.eq_f(where + ".rx_bytes", stored.rx_bytes, fresh.rx_bytes);
  d.eq_f(where + ".ops", stored.ops, fresh.ops);
  d.eq_f(where + ".mean_ops", stored.mean_ops, fresh.mean_ops);
  d.eq_f(where + ".max_ops", stored.max_ops, fresh.max_ops);
}

}  // namespace

DeploymentSnapshot DeploymentSnapshot::of(const Deployment& deployment) {
  DeploymentSnapshot snapshot;
  snapshot.bounds = deployment.bounds();
  snapshot.nodes.reserve(static_cast<std::size_t>(deployment.size()));
  for (const Node& node : deployment.nodes())
    snapshot.nodes.push_back({node.pos, node.alive, node.believed});
  return snapshot;
}

Deployment DeploymentSnapshot::materialize() const {
  std::vector<Node> out;
  out.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    Node node;
    node.id = static_cast<int>(i);
    node.pos = nodes[i].pos;
    node.alive = nodes[i].alive;
    node.believed = nodes[i].believed;
    out.push_back(node);
  }
  return Deployment(bounds, std::move(out));
}

std::string normalized_summary_json(obs::RunSummary summary) {
  summary.wall_s = 0.0;
  summary.phases.clear();
  summary.trace_events = 0;
  // Machine-dependent like wall_s: never part of the identity contract.
  summary.peak_rss_bytes = 0.0;
  // The spatial-balance block is capsule-compared through the dedicated
  // telemetry section, not the summary text — and goldens recorded before
  // the block existed must keep replaying byte-identically.
  summary.node_telemetry.reset();
  return summary.to_json().dump(2);
}

RunCapsule record_single_shot(const Scenario& scenario,
                              const IsoMapOptions& options,
                              std::string label) {
  RunCapsule c;
  c.kind = RunKind::kSingleShot;
  c.label = std::move(label);
  c.config = scenario.config;
  c.options = options;
  c.deployment = DeploymentSnapshot::of(scenario.deployment);
  c.radio_range = scenario.graph.radio_range();
  c.sink = scenario.tree.sink();
  c.fault_plan = make_fault_plan(options.fault, scenario.deployment, c.sink);
  c.rounds = {scenario.readings};
  check_readings(c);
  c.single = execute_single_shot(c, nullptr, &c.telemetry);
  return c;
}

RunCapsule record_continuous(const Scenario& scenario,
                             const ContinuousOptions& options,
                             std::vector<std::vector<double>> round_readings,
                             std::string label) {
  RunCapsule c;
  c.kind = RunKind::kContinuous;
  c.label = std::move(label);
  c.config = scenario.config;
  c.options = options.base;
  c.continuous = options;
  c.deployment = DeploymentSnapshot::of(scenario.deployment);
  c.radio_range = scenario.graph.radio_range();
  c.sink = scenario.tree.sink();
  c.fault_plan =
      make_fault_plan(options.base.fault, scenario.deployment, c.sink);
  c.rounds = std::move(round_readings);
  check_readings(c);
  execute_continuous(c, nullptr, c.round_outputs, c.final_contours,
                     c.final_summary_json, &c.telemetry);
  return c;
}

RunCapsule replay(const RunCapsule& stored, obs::TraceSink* trace) {
  check_readings(stored);
  RunCapsule fresh = stored;
  if (stored.kind == RunKind::kSingleShot) {
    fresh.single = execute_single_shot(stored, trace, &fresh.telemetry);
  } else {
    execute_continuous(stored, trace, fresh.round_outputs,
                       fresh.final_contours, fresh.final_summary_json,
                       &fresh.telemetry);
  }
  return fresh;
}

std::optional<OutputDiff> diff_outputs(const RunCapsule& stored,
                                       const RunCapsule& fresh) {
  DiffFinder d;
  d.eq_i("meta.kind", static_cast<long long>(stored.kind),
         static_cast<long long>(fresh.kind));
  if (d.done()) return d.result();
  if (stored.kind == RunKind::kSingleShot) {
    const SingleShotOutputs& s = stored.single;
    const SingleShotOutputs& f = fresh.single;
    d.eq_i("single.isoline_node_count", s.isoline_node_count,
           f.isoline_node_count);
    d.eq_i("single.generated_reports", s.generated_reports,
           f.generated_reports);
    d.eq_i("single.delivered_reports", s.delivered_reports,
           f.delivered_reports);
    d.eq_i("single.filtered_reports", s.filtered_reports,
           f.filtered_reports);
    d.eq_i("single.lost_channel_reports", s.lost_channel_reports,
           f.lost_channel_reports);
    d.eq_i("single.lost_crash_reports", s.lost_crash_reports,
           f.lost_crash_reports);
    d.eq_i("single.crashed_nodes", s.crashed_nodes, f.crashed_nodes);
    d.eq_i("single.route_repairs", s.route_repairs, f.route_repairs);
    d.eq_f("single.repair_traffic_bytes", s.repair_traffic_bytes,
           f.repair_traffic_bytes);
    d.eq_f("single.report_traffic_bytes", s.report_traffic_bytes,
           f.report_traffic_bytes);
    d.eq_f("single.measurement_traffic_bytes", s.measurement_traffic_bytes,
           f.measurement_traffic_bytes);
    d.eq_f("single.dissemination_traffic_bytes",
           s.dissemination_traffic_bytes, f.dissemination_traffic_bytes);
    d.eq_f("single.bottleneck_bytes", s.bottleneck_bytes,
           f.bottleneck_bytes);
    d.eq_f("single.e2e_first_latency_s", s.e2e_first_latency_s,
           f.e2e_first_latency_s);
    d.eq_f("single.e2e_last_latency_s", s.e2e_last_latency_s,
           f.e2e_last_latency_s);
    d.eq_f("single.e2e_mean_latency_s", s.e2e_mean_latency_s,
           f.e2e_mean_latency_s);
    diff_reports(d, "single.sink_reports", s.sink_reports, f.sink_reports);
    diff_contours(d, "single.contours", s.contours, f.contours);
    diff_ledger(d, "single.ledger", s.ledger, f.ledger);
    d.eq_s("single.summary", s.summary_json, f.summary_json);
    // Telemetry is compared only when the stored capsule carries the
    // section: pre-telemetry goldens keep their original surface.
    if (stored.telemetry && fresh.telemetry)
      diff_telemetry(d, *stored.telemetry, *fresh.telemetry);
    return d.result();
  }
  d.eq_i("rounds.count", static_cast<long long>(stored.round_outputs.size()),
         static_cast<long long>(fresh.round_outputs.size()));
  for (std::size_t r = 0; r < stored.round_outputs.size() && !d.done();
       ++r) {
    const RoundOutputs& s = stored.round_outputs[r];
    const RoundOutputs& f = fresh.round_outputs[r];
    const std::string at = "rounds[" + std::to_string(r) + "]";
    d.eq_i(at + ".adds", s.adds, f.adds);
    d.eq_i(at + ".refreshes", s.refreshes, f.refreshes);
    d.eq_i(at + ".withdrawals", s.withdrawals, f.withdrawals);
    d.eq_i(at + ".suppressed", s.suppressed, f.suppressed);
    d.eq_i(at + ".keepalives", s.keepalives, f.keepalives);
    d.eq_i(at + ".expired", s.expired, f.expired);
    d.eq_i(at + ".active_reports", s.active_reports, f.active_reports);
    d.eq_f(at + ".delta_traffic_bytes", s.delta_traffic_bytes,
           f.delta_traffic_bytes);
    d.eq_f(at + ".beacon_traffic_bytes", s.beacon_traffic_bytes,
           f.beacon_traffic_bytes);
    d.eq_i(at + ".sink.count", static_cast<long long>(s.sink.size()),
           static_cast<long long>(f.sink.size()));
    for (std::size_t i = 0; i < s.sink.size() && !d.done(); ++i) {
      const auto& se = s.sink[i];
      const auto& fe = f.sink[i];
      const std::string entry = at + ".sink[" + std::to_string(i) + "]";
      d.eq_i(entry + ".node", se.node, fe.node);
      d.eq_i(entry + ".level", se.level, fe.level);
      d.eq_i(entry + ".last_update", se.last_update, fe.last_update);
      d.eq_f(entry + ".report.isolevel", se.report.isolevel,
             fe.report.isolevel);
      d.eq_f(entry + ".report.position.x", se.report.position.x,
             fe.report.position.x);
      d.eq_f(entry + ".report.position.y", se.report.position.y,
             fe.report.position.y);
      d.eq_f(entry + ".report.gradient.x", se.report.gradient.x,
             fe.report.gradient.x);
      d.eq_f(entry + ".report.gradient.y", se.report.gradient.y,
             fe.report.gradient.y);
      d.eq_i(entry + ".report.source", se.report.source, fe.report.source);
    }
    diff_ledger(d, at + ".ledger", s.ledger, f.ledger);
  }
  diff_contours(d, "final_map.contours", stored.final_contours,
                fresh.final_contours);
  d.eq_s("final_map.summary", stored.final_summary_json,
         fresh.final_summary_json);
  if (stored.telemetry && fresh.telemetry)
    diff_telemetry(d, *stored.telemetry, *fresh.telemetry);
  return d.result();
}

std::optional<OutputDiff> check_fault_plan(const RunCapsule& c) {
  const Deployment deployment = c.deployment.materialize();
  const FaultPlan derived =
      make_fault_plan(c.options.fault, deployment, c.sink);
  DiffFinder d;
  d.eq_i("fault_plan.count", static_cast<long long>(c.fault_plan.size()),
         static_cast<long long>(derived.size()));
  const auto& stored = c.fault_plan.events();
  const auto& fresh = derived.events();
  for (std::size_t i = 0; i < stored.size() && !d.done(); ++i) {
    const std::string at = "fault_plan[" + std::to_string(i) + "]";
    d.eq_f(at + ".time", stored[i].time, fresh[i].time);
    d.eq_i(at + ".kind", static_cast<long long>(stored[i].kind),
           static_cast<long long>(fresh[i].kind));
    d.eq_i(at + ".node", stored[i].node, fresh[i].node);
    d.eq_f(at + ".center.x", stored[i].center.x, fresh[i].center.x);
    d.eq_f(at + ".center.y", stored[i].center.y, fresh[i].center.y);
    d.eq_f(at + ".radius", stored[i].radius, fresh[i].radius);
  }
  return d.result();
}

Capsule to_capsule(const RunCapsule& run) {
  Capsule c;
  c.add(kMetaTag, encode_meta(run));
  c.add(kConfigTag, encode_config(run.config));
  c.add(kOptionsTag, encode_options(run.options));
  if (run.options.link_impair)
    c.add(kLinkImpairTag,
          encode_link_impair(*run.options.link_impair, run.options.link_arq));
  if (run.kind == RunKind::kContinuous)
    c.add(kContinuousTag, encode_continuous(run.continuous));
  c.add(kDeploymentTag, encode_deployment(run));
  c.add(kFaultPlanTag, encode_fault_plan(run.fault_plan));
  c.add(kReadingsTag, encode_readings(run.rounds));
  if (run.kind == RunKind::kSingleShot) {
    c.add(kSingleOutputsTag, encode_single_outputs(run.single));
  } else {
    c.add(kRoundOutputsTag, encode_round_outputs(run.round_outputs));
    c.add(kFinalMapTag, encode_final_map(run));
  }
  if (run.telemetry) c.add(kTelemetryTag, encode_telemetry(*run.telemetry));
  return c;
}

RunCapsule from_capsule(const Capsule& c) {
  RunCapsule run;
  decode_meta(Reader(require(c, kMetaTag, "meta").payload), run);
  decode_config(Reader(require(c, kConfigTag, "config").payload),
                run.config);
  decode_options(Reader(require(c, kOptionsTag, "options").payload),
                 run.options);
  if (const Section* s = c.find(kLinkImpairTag))
    decode_link_impair(Reader(s->payload), run.options);
  if (run.kind == RunKind::kContinuous) {
    decode_continuous(
        Reader(require(c, kContinuousTag, "continuous").payload),
        run.continuous);
    run.continuous.base = run.options;
  }
  decode_deployment(Reader(require(c, kDeploymentTag, "deployment").payload),
                    run);
  decode_fault_plan(Reader(require(c, kFaultPlanTag, "fault_plan").payload),
                    run.fault_plan);
  decode_readings(Reader(require(c, kReadingsTag, "readings").payload),
                  run.rounds);
  check_readings(run);
  if (run.kind == RunKind::kSingleShot) {
    decode_single_outputs(
        Reader(require(c, kSingleOutputsTag, "single_outputs").payload),
        run.single);
  } else {
    decode_round_outputs(
        Reader(require(c, kRoundOutputsTag, "round_outputs").payload),
        run.round_outputs);
    decode_final_map(Reader(require(c, kFinalMapTag, "final_map").payload),
                     run);
  }
  if (const Section* s = c.find(kTelemetryTag)) {
    obs::NodeTelemetrySnapshot t;
    decode_telemetry(Reader(s->payload), t);
    run.telemetry = std::move(t);
  }
  return run;
}

bool save(const std::string& path, const RunCapsule& run) {
  return write_file(path, to_capsule(run));
}

RunCapsule load(const std::string& path) {
  return from_capsule(read_file(path));
}

}  // namespace isomap::capsule
