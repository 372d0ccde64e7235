#include "sim/run_capsule.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "obs/obs.hpp"
#include "sim/capsule_fields.hpp"
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

using namespace schema;

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;
template <class T>
inline constexpr bool kIsOptional = false;
template <class T>
inline constexpr bool kIsOptional<std::optional<T>> = true;

/// Count cap of a decoded vector, by element type.
template <class T>
inline constexpr std::size_t kMaxCount = kMaxItems;
template <>
inline constexpr std::size_t kMaxCount<DeploymentSnapshot::NodeRec> =
    kMaxNodes;
template <>  // one readings round
inline constexpr std::size_t kMaxCount<double> = kMaxNodes;
template <>
inline constexpr std::size_t kMaxCount<std::vector<double>> = kMaxRounds;
template <>
inline constexpr std::size_t kMaxCount<RoundOutputs> = kMaxRounds;

template <class E>
concept IsField = requires(E e) { e.rule; };

/// Calls `fn` on every entry of T's field table, in wire order.
template <class T, class Fn>
constexpr void for_each_entry(Fn&& fn) {
  std::apply([&](const auto&... entry) { (fn(entry), ...); }, kFields<T>);
}

/// Smallest encoding of one T, up to its tail marker — or, with `per_node`,
/// of one node's slice of a per-node table. get_count multiplies it by a
/// decoded count, so a corrupt count fails before any allocation.
template <class T>
constexpr std::size_t min_bytes(bool per_node = false) {
  if constexpr (std::is_same_v<T, double>) {
    return 8;
  } else if constexpr (kHasFields<T>) {
    std::size_t total = 0;
    bool ended = false;
    for_each_entry<T>([&](const auto& e) {
      using E = std::remove_cvref_t<decltype(e)>;
      if constexpr (std::is_same_v<E, Tail>) {
        ended = true;
      } else if constexpr (IsField<E>) {
        using M = typename E::Member;
        if (ended) return;
        if constexpr (kIsVector<M>)
          total += per_node ? min_bytes<typename M::value_type>() : 1;
        else if (!per_node)
          total += min_bytes<M>();
      }
    });
    return total;
  } else {
    return 1;  // any varint: integer, bool, enum, length or count
  }
}

/// The meta section's leading run schema version.
struct SchemaVersion {};
constexpr SchemaVersion kSchemaVersion;

// --- Writer walker ------------------------------------------------------

template <class T>
void write(Writer& w, const T& v) {
  if constexpr (std::is_same_v<T, SchemaVersion>) {
    w.put_u64(kRunSchemaVersion);
  } else if constexpr (std::is_same_v<T, bool>) {
    w.put_bool(v);
  } else if constexpr (std::is_same_v<T, double>) {
    w.put_f64(v);
  } else if constexpr (std::is_enum_v<T> || std::is_unsigned_v<T>) {
    w.put_u64(static_cast<std::uint64_t>(v));
  } else if constexpr (std::is_integral_v<T>) {
    w.put_i64(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.put_string(v);
  } else if constexpr (kIsVector<T>) {
    w.put_u64(v.size());
    for (const auto& item : v) write(w, item);
  } else if constexpr (kIsOptional<T>) {
    w.put_bool(v.has_value());
    if (v) write(w, *v);
  } else if constexpr (std::is_same_v<T, FaultPlan>) {
    write(w, v.events());
  } else {
    bool per_node = false;  // past a PerNode marker
    bool counted = false;   // per-node count already written
    for_each_entry<T>([&](const auto& e) {
      using E = std::remove_cvref_t<decltype(e)>;
      if constexpr (std::is_same_v<E, PerNode>) {
        per_node = true;
      } else if constexpr (IsField<E>) {
        const auto& value = v.*e.member;
        if constexpr (kIsVector<typename E::Member>) {
          if (per_node) {
            if (!std::exchange(counted, true)) w.put_u64(value.size());
            for (const auto& item : value) write(w, item);
            return;
          }
        }
        write(w, value);
      }
    });
  }
}

// --- Reader walker ------------------------------------------------------

CapsuleError out_of_range(const char* name) {
  return CapsuleError(std::string(name) + " out of range");
}

template <class T>
void read(Reader& r, T& v, const char* name) {
  if constexpr (std::is_same_v<T, const SchemaVersion>) {
    const std::uint64_t schema = r.get_u64();
    if (schema == 0 || schema > kRunSchemaVersion)
      throw CapsuleError("unsupported run schema version " +
                         std::to_string(schema));
  } else if constexpr (std::is_same_v<T, bool>) {
    v = r.get_bool();
  } else if constexpr (std::is_same_v<T, double>) {
    v = r.get_f64();
  } else if constexpr (std::is_enum_v<T>) {
    const std::uint64_t raw = r.get_u64();
    if (raw > static_cast<std::uint64_t>(last_value(T{})))
      throw out_of_range(name);
    v = static_cast<T>(raw);
  } else if constexpr (std::is_unsigned_v<T>) {
    v = r.get_u64();
  } else if constexpr (std::is_integral_v<T>) {
    const std::int64_t raw = r.get_i64();
    if (!std::in_range<T>(raw)) throw out_of_range(name);
    v = static_cast<T>(raw);
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = r.get_string();
  } else if constexpr (kIsVector<T>) {
    using Item = typename T::value_type;
    v.resize(r.get_count(kMaxCount<Item>, min_bytes<Item>()));
    for (Item& item : v) read(r, item, name);
  } else if constexpr (kIsOptional<T>) {
    if (r.get_bool())
      read(r, v.emplace(), name);
    else
      v.reset();
  } else if constexpr (std::is_same_v<T, FaultPlan>) {
    std::vector<FaultEvent> events;
    read(r, events, name);  // FaultEvent's rules keep add() from throwing
    for (const FaultEvent& e : events) v.add(e);
  } else {
    bool per_node = false;             // past a PerNode marker
    std::optional<std::size_t> nodes;  // its count, once read
    bool ended = false;                // the payload stopped at a Tail
    for_each_entry<T>([&](const auto& e) {
      using E = std::remove_cvref_t<decltype(e)>;
      if constexpr (std::is_same_v<E, PerNode>) {
        per_node = true;
      } else if constexpr (std::is_same_v<E, Tail>) {
        ended = r.done();
      } else if constexpr (IsField<E>) {
        if (ended) return;
        auto& value = v.*e.member;
        if constexpr (kIsVector<typename E::Member>) {
          if (per_node) {
            if (!nodes) nodes = r.get_count(kMaxNodes, min_bytes<T>(true));
            value.resize(*nodes);
            for (auto& item : value) read(r, item, e.name);
            return;
          }
        }
        read(r, value, e.name);
        if (e.rule != nullptr && !e.rule(value)) throw out_of_range(e.name);
      }
    });
  }
}

// --- Sections -----------------------------------------------------------

/// to_capsule's side of walk_sections.
struct SectionWriter {
  Capsule capsule;

  void section(std::uint64_t tag, const char*, const auto&... parts) {
    Writer w;
    (write(w, parts), ...);
    capsule.add(tag, w.take());
  }
  template <class T>
  void optional_section(std::uint64_t tag, const char* name,
                        const std::optional<T>& head, const auto&... rest) {
    if (head) section(tag, name, *head, rest...);
  }
};

/// from_capsule's side of walk_sections.
struct SectionReader {
  const Capsule& capsule;

  void section(std::uint64_t tag, const char* name, auto&... parts) {
    const Section* s = capsule.find(tag);
    if (s == nullptr)
      throw CapsuleError(std::string("missing required section ") + name);
    decode(*s, name, parts...);
  }
  template <class T>
  void optional_section(std::uint64_t tag, const char* name,
                        std::optional<T>& head, auto&... rest) {
    if (const Section* s = capsule.find(tag))
      decode(*s, name, head.emplace(), rest...);
  }
  static void decode(const Section& s, const char* name, auto&... parts) {
    Reader r(s.payload);
    (read(r, parts, name), ...);
    // Trailing bytes mean schema skew or corruption.
    if (!r.done())
      throw CapsuleError(std::string(name) + " section has " +
                         std::to_string(r.remaining()) + " trailing bytes");
  }
};

/// The run-level schema: every section in file order with the RunCapsule
/// parts it stores. An optional section is present iff its head is set.
template <class IO, class Run>
void walk_sections(IO& io, Run& run) {
  io.section(kMetaTag, "meta", kSchemaVersion, run.kind, run.label);
  io.section(kConfigTag, "config", run.config);
  io.section(kOptionsTag, "options", run.options);
  io.optional_section(kLinkImpairTag, "link_impair", run.options.link.impair,
                      run.options.link.arq);
  if (run.kind == RunKind::kContinuous)
    io.section(kContinuousTag, "continuous", run.continuous);
  io.section(kDeploymentTag, "deployment", run.deployment.bounds,
             run.radio_range, run.sink, run.deployment.nodes);
  io.section(kFaultPlanTag, "fault_plan", run.fault_plan);
  io.section(kReadingsTag, "readings", run.rounds);
  if (run.kind == RunKind::kSingleShot) {
    io.section(kSingleOutputsTag, "single_outputs", run.single);
  } else {
    io.section(kRoundOutputsTag, "round_outputs", run.round_outputs);
    io.section(kFinalMapTag, "final_map", run.final_contours,
               run.final_summary_json);
  }
  io.optional_section(kTelemetryTag, "telemetry", run.telemetry);
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
  static_cast<IsoMapCounters&>(out) = result;
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
    static_cast<RoundCounters&>(out) = result;
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

// --- Pair walker --------------------------------------------------------

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::string at(const std::string& path, std::size_t i) {
  return path + "[" + std::to_string(i) + "]";
}

/// Sets `found` to the first (stored, fresh) leaf pair under `path` that
/// differs, named path.field[i].sub; a vector's length compares as
/// path.count. A no-op once something is found.
template <class T>
void diff(std::optional<OutputDiff>& found, const std::string& path,
          const T& s, const T& f) {
  if (found) return;
  if constexpr (std::is_same_v<T, double>) {
    if (bits(s) == bits(f)) return;
    std::ostringstream os;
    os.precision(17);
    os << "stored=" << s << " recomputed=" << f << " (bits 0x" << std::hex
       << bits(s) << " vs 0x" << bits(f) << ")";
    found = OutputDiff{path, os.str()};
  } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
    if (s == f) return;
    found = OutputDiff{
        path, "stored=" + std::to_string(static_cast<long long>(s)) +
                  " recomputed=" + std::to_string(static_cast<long long>(f))};
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (s == f) return;
    const auto at = std::mismatch(s.begin(), s.end(), f.begin(), f.end());
    found = OutputDiff{
        path, "strings diverge at byte " +
                  std::to_string(at.first - s.begin()) + " (stored " +
                  std::to_string(s.size()) + " bytes, recomputed " +
                  std::to_string(f.size()) + ")"};
  } else if constexpr (kIsVector<T>) {
    diff(found, path + ".count", s.size(), f.size());
    for (std::size_t i = 0; i < s.size() && !found; ++i)
      diff(found, at(path, i), s[i], f[i]);
  } else {
    bool per_node = false;  // past a PerNode marker
    bool counted = false;   // per-node counts already compared
    for_each_entry<T>([&](const auto& e) {
      using E = std::remove_cvref_t<decltype(e)>;
      if constexpr (std::is_same_v<E, PerNode>) {
        per_node = true;
      } else if constexpr (IsField<E>) {
        const std::string sub = path + "." + e.name;
        const auto& sv = s.*e.member;
        const auto& fv = f.*e.member;
        if constexpr (kIsVector<typename E::Member>) {
          if (per_node) {
            // A vector shorter than the other (an empty schema-1 tail)
            // reads as zeros.
            if (!std::exchange(counted, true))
              diff(found, path + ".nodes", sv.size(), fv.size());
            using Item = typename E::Member::value_type;
            const std::size_t n = std::max(sv.size(), fv.size());
            for (std::size_t i = 0; i < n && !found; ++i)
              diff(found, at(sub, i), i < sv.size() ? sv[i] : Item{},
                   i < fv.size() ? fv[i] : Item{});
            return;
          }
        }
        diff(found, sub, sv, fv);
      }
    });
  }
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
  std::optional<OutputDiff> found;
  diff(found, "meta.kind", stored.kind, fresh.kind);
  if (found) return found;
  if (stored.kind == RunKind::kSingleShot) {
    diff(found, "single", stored.single, fresh.single);
  } else {
    diff(found, "rounds", stored.round_outputs, fresh.round_outputs);
    diff(found, "final_map.contours", stored.final_contours,
         fresh.final_contours);
    diff(found, "final_map.summary", stored.final_summary_json,
         fresh.final_summary_json);
  }
  // Telemetry is compared only when the stored capsule carries the
  // section: pre-telemetry goldens keep their original surface.
  if (stored.telemetry && fresh.telemetry)
    diff(found, "telemetry", *stored.telemetry, *fresh.telemetry);
  return found;
}

std::optional<OutputDiff> check_fault_plan(const RunCapsule& c) {
  const Deployment deployment = c.deployment.materialize();
  const FaultPlan derived =
      make_fault_plan(c.options.fault, deployment, c.sink);
  std::optional<OutputDiff> found;
  diff(found, "fault_plan", c.fault_plan.events(), derived.events());
  return found;
}

Capsule to_capsule(const RunCapsule& run) {
  SectionWriter io;
  walk_sections(io, run);
  return std::move(io.capsule);
}

RunCapsule from_capsule(const Capsule& c) {
  RunCapsule run;
  SectionReader io{c};
  walk_sections(io, run);
  if (run.kind == RunKind::kContinuous) {
    run.continuous.base = run.options;
    // The continuous mapper's fit caches hold 1-hop neighbourhoods.
    if (run.options.query.regression_hops != 1)
      throw out_of_range("regression_hops");
  }
  if (!finite_positive(run.radio_range)) throw out_of_range("radio_range");
  if (run.sink < 0 ||
      static_cast<std::size_t>(run.sink) >= run.deployment.nodes.size())
    throw CapsuleError("sink id out of range");
  // The channel's whole rule set, so a capsule that decodes builds its
  // channel: this adds the burst rules and, with a link_impair section,
  // the impairment and ARQ rules to the per-field ones above.
  try {
    run.options.link.validate();
  } catch (const std::invalid_argument& e) {
    throw CapsuleError(std::string("link: ") + e.what());
  }
  check_readings(run);
  return run;
}

bool save(const std::string& path, const RunCapsule& run) {
  return write_file(path, to_capsule(run));
}

RunCapsule load(const std::string& path) {
  return from_capsule(read_file(path));
}

}  // namespace isomap::capsule
