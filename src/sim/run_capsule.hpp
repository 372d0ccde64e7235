#pragma once

#include <optional>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "isomap/continuous.hpp"
#include "isomap/protocol.hpp"
#include "net/comm_graph.hpp"
#include "net/deployment.hpp"
#include "net/routing_tree.hpp"
#include "obs/run_summary.hpp"
#include "obs/trace.hpp"
#include "sim/scenario.hpp"
#include "util/capsule.hpp"

namespace isomap::capsule {

/// Run-capsule record/replay: a capsule pins one protocol run — its
/// complete inputs (query/options, deployment, topology parameters,
/// per-round readings, fault plan) and its complete outputs (reports,
/// per-level contour geometry, ledger totals, normalized RunSummary) —
/// in the versioned, endian-stable binary container of util/capsule.hpp.
/// `replay()` re-executes the inputs through the live protocol code and
/// `diff_outputs()` bit-compares what came out against what was stored:
/// any divergence is a behavioural change. tools/isomap_replay is the
/// CLI; tests/golden/ holds the corpus CI replays on every push. See
/// docs/REPLAY.md.

/// Bump when the run-level section schema changes incompatibly (fields
/// reordered/removed, semantics changed). Adding a new *section* does not
/// require a bump — unknown sections are skipped by older readers.
///
/// v2: telemetry gained trailing dup_rx/corrupt_rx/arq_timeouts arrays
/// and single_outputs trailing e2e_*_latency_s fields (schema-1 files
/// still decode — the tails are guard-checked — but schema-1 readers
/// would choke on v2 files, hence the bump); optional link-impairment
/// section (tag 12).
inline constexpr std::uint64_t kRunSchemaVersion = 2;

enum class RunKind : int {
  kSingleShot = 0,  ///< One IsoMapProtocol::run (rounds holds 1 entry).
  kContinuous = 1,  ///< A ContinuousMapper round sequence.
};

/// Value snapshot of a Deployment (positions bit-exact).
struct DeploymentSnapshot {
  FieldBounds bounds;
  struct NodeRec {
    Vec2 pos{};
    bool alive = true;
    std::optional<Vec2> believed;
  };
  std::vector<NodeRec> nodes;

  static DeploymentSnapshot of(const Deployment& deployment);
  Deployment materialize() const;
};

/// One isolevel's sink-side output geometry: the post-filter report count
/// and the estimated isolines (boundary polylines) of its LevelRegion.
struct ContourPolyline {
  bool closed = false;
  std::vector<Vec2> points;
};
struct LevelContour {
  double isolevel = 0.0;
  int report_count = 0;
  std::vector<ContourPolyline> boundaries;
};

/// Outputs of a single-shot run, flattened for bit-comparison: the run's
/// counters (IsoMapResult's own record), then its reports and map. The
/// e2e_*_latency_s counters read exactly 0.0 for unimpaired runs — and
/// for capsules recorded before the fields existed, which decode to the
/// same zeros.
struct SingleShotOutputs : IsoMapCounters {
  std::vector<IsolineReport> sink_reports;
  std::vector<LevelContour> contours;
  obs::LedgerTotals ledger;
  std::string summary_json;  ///< normalized_summary_json() of the run.
};

/// Outputs of one continuous round: the RoundResult counters, the full
/// sink-table dump, and the cumulative ledger totals after the round.
struct RoundOutputs : RoundCounters {
  std::vector<ContinuousMapper::SinkDumpEntry> sink;
  obs::LedgerTotals ledger;
};

/// A fully decoded run capsule: inputs + recorded outputs.
struct RunCapsule {
  RunKind kind = RunKind::kSingleShot;
  std::string label;
  ScenarioConfig config;  ///< Provenance only; replay never rebuilds from it.

  /// Replayable inputs. For continuous runs `options` is
  /// `continuous.base`; the deployment snapshot plus radio_range and sink
  /// deterministically rebuild the CommGraph and RoutingTree.
  IsoMapOptions options;
  ContinuousOptions continuous;
  DeploymentSnapshot deployment;
  double radio_range = 0.0;
  int sink = 0;
  /// The fault plan the recorded run expanded from options.fault — stored
  /// so replay can cross-check its own expansion before executing.
  FaultPlan fault_plan;
  /// Per-round readings, indexed by node id (single-shot: one round).
  std::vector<std::vector<double>> rounds;

  /// Recorded outputs (one of the two, by kind).
  SingleShotOutputs single;
  std::vector<RoundOutputs> round_outputs;
  std::vector<LevelContour> final_contours;  ///< Last round's map.
  std::string final_summary_json;            ///< Last round, normalized.

  /// Per-node flight-recorder snapshot of the run (tag 11, optional).
  /// Capsules recorded before the telemetry section existed simply lack
  /// it — diff_outputs() only compares telemetry when both sides carry
  /// one, so the golden corpus replays unchanged.
  std::optional<obs::NodeTelemetrySnapshot> telemetry;
};

/// A RunSummary stripped of everything legitimately run-dependent (wall
/// time, per-phase timing histograms, trace-event count) and dumped as
/// canonical JSON — the comparable text form capsules store.
std::string normalized_summary_json(obs::RunSummary summary);

/// Record a single-shot run: snapshot the scenario's inputs, execute the
/// protocol on the snapshot (the exact path replay() takes), store the
/// outputs.
RunCapsule record_single_shot(const Scenario& scenario,
                              const IsoMapOptions& options,
                              std::string label);

/// Record a continuous run over `round_readings` (outer index = round;
/// inner = per-node readings, typically sampled from an evolving field).
RunCapsule record_continuous(const Scenario& scenario,
                             const ContinuousOptions& options,
                             std::vector<std::vector<double>> round_readings,
                             std::string label);

/// Re-execute `stored`'s inputs through the live protocol code and
/// return a capsule identical to `stored` except that every output
/// section holds the recomputed values. When `trace` is given, the run
/// streams its trace events there (for trace_summary smoke tests); the
/// recomputed outputs are unaffected.
RunCapsule replay(const RunCapsule& stored, obs::TraceSink* trace = nullptr);

/// First output divergence between two capsules of the same kind, as a
/// (section.field path, human-readable stored-vs-fresh detail) pair;
/// nullopt when every output matches bit for bit.
struct OutputDiff {
  std::string where;
  std::string detail;
};
std::optional<OutputDiff> diff_outputs(const RunCapsule& stored,
                                       const RunCapsule& fresh);

/// Consistency check on inputs: re-expand options.fault against the
/// stored deployment/sink and diff against the stored plan.
std::optional<OutputDiff> check_fault_plan(const RunCapsule& c);

/// Wire conversion. from_capsule throws CapsuleError on malformed or
/// schema-incompatible payloads; unknown sections are ignored.
Capsule to_capsule(const RunCapsule& run);
RunCapsule from_capsule(const Capsule& c);

/// File helpers (write returns false on I/O error; load throws
/// CapsuleError like from_capsule / read_file).
bool save(const std::string& path, const RunCapsule& run);
RunCapsule load(const std::string& path);

}  // namespace isomap::capsule
