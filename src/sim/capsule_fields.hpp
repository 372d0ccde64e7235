#pragma once

#include <cmath>
#include <cstddef>
#include <tuple>
#include <type_traits>

#include "sim/run_capsule.hpp"

namespace isomap::capsule::schema {

/// The run-capsule field tables: one per stored struct, listing its
/// members in wire order. run_capsule.cpp's three walkers read them —
/// the encoder, the guard-checked decoder and the (stored, fresh) diff —
/// so each field is described exactly once. docs/REPLAY.md has the
/// "Adding a field" recipe.

/// One stored member: its name (the diff-path component) and where it
/// lives. A decoded value that fails `rule` is a CapsuleError.
template <class S, class M>
struct Field {
  using Member = M;
  const char* name;
  M S::*member;
  bool (*rule)(const M&) = nullptr;
};

/// A member deliberately kept out of its table, with the reason. Keeps
/// the member count check in tests/capsule_test.cpp honest.
template <class S, class M>
struct Skip {
  M S::*member;
  const char* reason;
};

/// Fields after the tail marker were appended by a later run schema: a
/// payload that ends at the marker decodes them as their defaults. Only
/// meaningful in a struct that is the last part of its section.
struct Tail {};

/// A per-node table: its vector fields hold one value per node, and the
/// node count is stored once, before the first of them, not per vector.
struct PerNode {};

template <class S, class M>
constexpr Field<S, M> field(
    const char* name, M S::*member,
    std::type_identity_t<bool (*)(const M&)> rule = nullptr) {
  return {name, member, rule};
}

template <class S, class M>
constexpr Skip<S, M> skip(M S::*member, const char* reason) {
  return {member, reason};
}

/// Largest value of each stored enum (decode rejects anything above).
constexpr RunKind last_value(RunKind) { return RunKind::kContinuous; }
constexpr FieldKind last_value(FieldKind) { return FieldKind::kSloped; }
constexpr RegulationMode last_value(RegulationMode) {
  return RegulationMode::kBlended;
}
constexpr ContinuousEngine last_value(ContinuousEngine) {
  return ContinuousEngine::kIncremental;
}
constexpr FaultKind last_value(FaultKind) {
  return FaultKind::kRegionBlackout;
}

/// Decode cap on a query's isolevel count, (lambda_hi - lambda_lo) / T:
/// far above the 32 levels any golden or benchmark workload maps, low
/// enough that a corrupt granularity cannot make replay map millions.
inline constexpr double kMaxQueryLevels = 4096.0;

inline bool finite_positive(const double& v) {
  return std::isfinite(v) && v > 0.0;
}
inline bool valid_query(const ContourQuery& q) {
  return finite_positive(q.granularity) &&
         (q.lambda_hi - q.lambda_lo) / q.granularity <= kMaxQueryLevels;
}
inline bool unit_interval(const double& v) { return v >= 0.0 && v <= 1.0; }
inline bool non_negative(const double& v) { return v >= 0.0; }
inline bool finite_non_negative(const double& v) {
  return std::isfinite(v) && v >= 0.0;
}
/// LinkOptions's loss rule, checked as the field decodes so the error
/// names it; from_capsule then runs the whole LinkOptions rule set.
inline bool link_loss_rule(const double& v) { return v >= 0.0 && v < 1.0; }
inline bool non_negative_count(const int& v) { return v >= 0; }
/// IsoMapProtocol's rule: a regression scope of at least one hop.
inline bool positive_count(const int& v) { return v >= 1; }

/// Primary: no table (a wire primitive or a container).
template <class T>
inline constexpr std::nullptr_t kFields = nullptr;

template <class T>
inline constexpr bool kHasFields =
    !std::is_null_pointer_v<std::remove_cvref_t<decltype(kFields<T>)>>;

template <>
inline constexpr auto kFields<Vec2> = std::tuple{
    field("x", &Vec2::x), field("y", &Vec2::y)};

template <>
inline constexpr auto kFields<FieldBounds> = std::tuple{
    field("x0", &FieldBounds::x0), field("y0", &FieldBounds::y0),
    field("x1", &FieldBounds::x1), field("y1", &FieldBounds::y1)};

template <>
inline constexpr auto kFields<ScenarioConfig> = std::tuple{
    field("num_nodes", &ScenarioConfig::num_nodes),
    field("field_side", &ScenarioConfig::field_side),
    field("radio_range", &ScenarioConfig::radio_range),
    field("grid_deployment", &ScenarioConfig::grid_deployment),
    field("failure_fraction", &ScenarioConfig::failure_fraction),
    field("field", &ScenarioConfig::field),
    field("random_field_bumps", &ScenarioConfig::random_field_bumps),
    field("random_field_amplitude", &ScenarioConfig::random_field_amplitude),
    field("seed", &ScenarioConfig::seed),
    field("sink_fx", &ScenarioConfig::sink_fx),
    field("sink_fy", &ScenarioConfig::sink_fy),
    field("reading_noise_std", &ScenarioConfig::reading_noise_std),
    field("position_error_std", &ScenarioConfig::position_error_std)};

template <>
inline constexpr auto kFields<ContourQuery> = std::tuple{
    field("lambda_lo", &ContourQuery::lambda_lo),
    field("lambda_hi", &ContourQuery::lambda_hi),
    field("granularity", &ContourQuery::granularity),
    field("epsilon_fraction", &ContourQuery::epsilon_fraction),
    field("angular_separation_deg", &ContourQuery::angular_separation_deg),
    field("distance_separation", &ContourQuery::distance_separation),
    field("enable_filtering", &ContourQuery::enable_filtering),
    field("regression_hops", &ContourQuery::regression_hops, positive_count)};

template <>
inline constexpr auto kFields<GilbertElliottParams> = std::tuple{
    field("p_enter_burst", &GilbertElliottParams::p_enter_burst),
    field("p_exit_burst", &GilbertElliottParams::p_exit_burst),
    field("loss_good", &GilbertElliottParams::loss_good),
    field("loss_bad", &GilbertElliottParams::loss_bad)};

/// Stored inline in the options section. The `link_` entry names are
/// what decode errors print.
template <>
inline constexpr auto kFields<LinkOptions> = [] {
  using S = LinkOptions;
  return std::tuple{
      field("link_loss", &S::loss, link_loss_rule),
      field("link_retries", &S::retries, non_negative_count),
      field("link_seed", &S::seed), field("link_burst", &S::burst),
      skip(&S::impair, "stored in the link_impair section"),
      skip(&S::arq, "stored in the link_impair section")};
}();

template <>
inline constexpr auto kFields<FaultConfig> = std::tuple{
    field("crash_fraction", &FaultConfig::crash_fraction),
    field("crash_window_begin", &FaultConfig::crash_window_begin),
    field("crash_window_end", &FaultConfig::crash_window_end),
    field("blackout", &FaultConfig::blackout),
    field("blackout_center", &FaultConfig::blackout_center),
    field("blackout_radius", &FaultConfig::blackout_radius),
    field("blackout_time", &FaultConfig::blackout_time),
    field("seed", &FaultConfig::seed),
    field("self_healing", &FaultConfig::self_healing)};

template <>
inline constexpr auto kFields<IsoMapOptions> = [] {
  using S = IsoMapOptions;
  return std::tuple{
      field("query", &S::query, valid_query),
      field("regulation", &S::regulation),
      field("account_local_measurement", &S::account_local_measurement),
      field("account_query_dissemination", &S::account_query_dissemination),
      field("header_bytes", &S::header_bytes, finite_non_negative),
      field("link", &S::link), field("fault", &S::fault),
      field("record_transmissions", &S::record_transmissions),
      field("adaptive_epsilon", &S::adaptive_epsilon)};
}();

template <>
inline constexpr auto kFields<ImpairmentConfig> = std::tuple{
    field("latency_s", &ImpairmentConfig::latency_s),
    field("jitter_s", &ImpairmentConfig::jitter_s),
    field("dup_prob", &ImpairmentConfig::dup_prob),
    field("reorder_prob", &ImpairmentConfig::reorder_prob),
    field("reorder_extra_s", &ImpairmentConfig::reorder_extra_s),
    field("corrupt_prob", &ImpairmentConfig::corrupt_prob)};

template <>
inline constexpr auto kFields<ArqConfig> = std::tuple{
    field("window", &ArqConfig::window),
    field("frame_payload_bytes", &ArqConfig::frame_payload_bytes),
    field("timeout_s", &ArqConfig::timeout_s),
    field("backoff_factor", &ArqConfig::backoff_factor),
    field("max_timeout_s", &ArqConfig::max_timeout_s),
    field("max_frame_attempts", &ArqConfig::max_frame_attempts)};

/// ContinuousMapper's rules; its 1-hop regression rule is checked in
/// from_capsule, since single-shot runs may use wider scopes.
template <>
inline constexpr auto kFields<ContinuousOptions> = [] {
  using S = ContinuousOptions;
  return std::tuple{
      skip(&S::base, "stored in the options section"),
      field("gradient_refresh_deg", &S::gradient_refresh_deg,
            finite_non_negative),
      field("withdraw_bytes", &S::withdraw_bytes, finite_non_negative),
      field("beacon_bytes", &S::beacon_bytes, finite_non_negative),
      field("stale_rounds", &S::stale_rounds, non_negative_count),
      field("engine", &S::engine)};
}();

template <>
inline constexpr auto kFields<DeploymentSnapshot::NodeRec> = std::tuple{
    field("pos", &DeploymentSnapshot::NodeRec::pos),
    field("alive", &DeploymentSnapshot::NodeRec::alive),
    field("believed", &DeploymentSnapshot::NodeRec::believed)};

template <>
inline constexpr auto kFields<FaultEvent> = std::tuple{
    field("time", &FaultEvent::time, unit_interval),
    field("kind", &FaultEvent::kind), field("node", &FaultEvent::node),
    field("center", &FaultEvent::center),
    field("radius", &FaultEvent::radius, non_negative)};

template <>
inline constexpr auto kFields<IsolineReport> = std::tuple{
    field("isolevel", &IsolineReport::isolevel),
    field("position", &IsolineReport::position),
    field("gradient", &IsolineReport::gradient),
    field("source", &IsolineReport::source),
    skip(&IsolineReport::id, "observation-only trace id"),
    skip(&IsolineReport::hops, "observation-only hop count")};

template <>
inline constexpr auto kFields<ContourPolyline> = std::tuple{
    field("closed", &ContourPolyline::closed),
    field("points", &ContourPolyline::points)};

template <>
inline constexpr auto kFields<LevelContour> = std::tuple{
    field("isolevel", &LevelContour::isolevel),
    field("report_count", &LevelContour::report_count),
    field("boundaries", &LevelContour::boundaries)};

template <>
inline constexpr auto kFields<obs::LedgerTotals> = std::tuple{
    field("nodes", &obs::LedgerTotals::nodes),
    field("tx_bytes", &obs::LedgerTotals::tx_bytes),
    field("rx_bytes", &obs::LedgerTotals::rx_bytes),
    field("ops", &obs::LedgerTotals::ops),
    field("mean_ops", &obs::LedgerTotals::mean_ops),
    field("max_ops", &obs::LedgerTotals::max_ops)};

/// IsoMapCounters' entries in two parts: SingleShotOutputs stores the
/// counts before its reports and the latencies after its run schema 2
/// tail.
inline constexpr auto kIsoMapCountFields = [] {
  using S = IsoMapCounters;
  return std::tuple{
      field("isoline_node_count", &S::isoline_node_count),
      field("generated_reports", &S::generated_reports),
      field("delivered_reports", &S::delivered_reports),
      field("filtered_reports", &S::filtered_reports),
      field("lost_channel_reports", &S::lost_channel_reports),
      field("lost_crash_reports", &S::lost_crash_reports),
      field("crashed_nodes", &S::crashed_nodes),
      field("route_repairs", &S::route_repairs),
      field("repair_traffic_bytes", &S::repair_traffic_bytes),
      field("report_traffic_bytes", &S::report_traffic_bytes),
      field("measurement_traffic_bytes", &S::measurement_traffic_bytes),
      field("dissemination_traffic_bytes", &S::dissemination_traffic_bytes),
      field("bottleneck_bytes", &S::bottleneck_bytes)};
}();
inline constexpr auto kIsoMapLatencyFields = std::tuple{
    field("e2e_first_latency_s", &IsoMapCounters::e2e_first_latency_s),
    field("e2e_last_latency_s", &IsoMapCounters::e2e_last_latency_s),
    field("e2e_mean_latency_s", &IsoMapCounters::e2e_mean_latency_s)};

template <>
inline constexpr auto kFields<IsoMapCounters> =
    std::tuple_cat(kIsoMapCountFields, kIsoMapLatencyFields);

template <>
inline constexpr auto kFields<SingleShotOutputs> = [] {
  using S = SingleShotOutputs;
  return std::tuple_cat(
      kIsoMapCountFields,
      std::tuple{field("sink_reports", &S::sink_reports),
                 field("contours", &S::contours), field("ledger", &S::ledger),
                 field("summary", &S::summary_json),
                 Tail{}},  // run schema 2
      kIsoMapLatencyFields);
}();

template <>
inline constexpr auto kFields<ContinuousMapper::SinkDumpEntry> = std::tuple{
    field("node", &ContinuousMapper::SinkDumpEntry::node),
    field("level", &ContinuousMapper::SinkDumpEntry::level),
    field("last_update", &ContinuousMapper::SinkDumpEntry::last_update),
    field("report", &ContinuousMapper::SinkDumpEntry::report)};

template <>
inline constexpr auto kFields<RoundCounters> = std::tuple{
    field("adds", &RoundCounters::adds),
    field("refreshes", &RoundCounters::refreshes),
    field("withdrawals", &RoundCounters::withdrawals),
    field("suppressed", &RoundCounters::suppressed),
    field("keepalives", &RoundCounters::keepalives),
    field("expired", &RoundCounters::expired),
    field("active_reports", &RoundCounters::active_reports),
    field("delta_traffic_bytes", &RoundCounters::delta_traffic_bytes),
    field("beacon_traffic_bytes", &RoundCounters::beacon_traffic_bytes)};

template <>
inline constexpr auto kFields<RoundOutputs> = std::tuple_cat(
    kFields<RoundCounters>,
    std::tuple{field("sink", &RoundOutputs::sink),
               field("ledger", &RoundOutputs::ledger)});

template <>
inline constexpr auto kFields<obs::TelemetryEnergyModel> = std::tuple{
    field("tx_j_per_byte", &obs::TelemetryEnergyModel::tx_j_per_byte),
    field("rx_j_per_byte", &obs::TelemetryEnergyModel::rx_j_per_byte),
    field("j_per_op", &obs::TelemetryEnergyModel::j_per_op)};

template <>
inline constexpr auto kFields<obs::NodeTelemetrySnapshot> = [] {
  using S = obs::NodeTelemetrySnapshot;
  return std::tuple{
      PerNode{}, field("tx_bytes", &S::tx_bytes),
      field("rx_bytes", &S::rx_bytes), field("ops", &S::ops),
      field("hops", &S::hops), field("generated", &S::generated),
      field("delivered", &S::delivered), field("filtered", &S::filtered),
      field("lost_channel", &S::lost_channel),
      field("lost_crash", &S::lost_crash), field("relayed", &S::relayed),
      field("retries", &S::retries), field("drops", &S::drops),
      field("energy", &S::energy),
      Tail{},  // run schema 2; decoded empty, which diffs as n zeros
      field("dup_rx", &S::dup_rx), field("corrupt_rx", &S::corrupt_rx),
      field("arq_timeouts", &S::arq_timeouts),
      skip(&S::phases, "derived per-phase lanes stay out of the capsule")};
}();

}  // namespace isomap::capsule::schema
