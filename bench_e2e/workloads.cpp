#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "control/control.hpp"
#include "energy/mica2.hpp"
#include "eval/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/run_summary.hpp"
#include "ops.hpp"
#include "serve/wire.hpp"
#include "trace.hpp"
#include "util/mem.hpp"
#include "util/stats.hpp"

namespace isomap::e2e {
namespace {

// ---- Run shape --------------------------------------------------------------

constexpr int kCheckEvery = 16;      ///< Every 16th query re-derived.
constexpr int kSinkCheckEvery = 10;  ///< Fresh sink rebuild cadence.
constexpr int kAccuracyEvery = 10;   ///< Service accuracy sampling cadence.
constexpr int kFixedRound = 100;  ///< Deterministic metrics are read here.
/// Cold starts per run where one costs well under a second.
constexpr int kColdStarts = 15;
constexpr int kTraceSpanRounds = 10;     ///< Spans kept in the trace dump.
constexpr int kAccuracyResolution = 80;  ///< Fig. 11 raster.
constexpr int kSmokeRounds = 5;

/// The control's own wall times in the calibration runs (seeds 1-10 on a
/// shared 4-vCPU Xeon VM, GCC 12.2, RelWithDebInfo, 4 exec threads). A
/// timing metric is the program's median ratio to the control, times this:
/// the program's time on that host, read through the control, so that a
/// change of the host's speed during or between runs cancels out.
struct Reference {
  double setup_s;
  double first_map_s;
  double round_ms;
  double batch_ms;
};

/// Loop guard: at least `min_rounds` timed rounds and `seconds` of wall,
/// counted from construction.
class Deadline {
 public:
  Deadline(const RunOptions& o, int min_rounds)
      : start_(Clock::now()),
        ms_(o.smoke ? 0.0 : o.seconds * 1000.0),
        min_rounds_(o.smoke ? kSmokeRounds : min_rounds) {}
  bool more(int timed_rounds) const {
    return timed_rounds < min_rounds_ || ms_since(start_) < ms_;
  }

 private:
  Clock::time_point start_;
  double ms_;
  int min_rounds_;
};

/// Run the program's step and the control's, in an order that alternates
/// from one pair to the next.
template <typename Program, typename Control>
void in_turn(bool control_first, Program&& program, Control&& control) {
  if (control_first) control();
  program();
  if (!control_first) control();
}

/// One cold start: set-up, then the first finished map on it.
struct Start {
  double setup_ms = 0.0;
  double first_ms = 0.0;
};

/// Cold starts repeated through the run: start i is due once i/reps of the
/// run's seconds have passed, so the set-up samples span the run.
class ColdStarts {
 public:
  ColdStarts(const RunOptions& o, int reps)
      : start_(Clock::now()),
        ms_(o.smoke ? 0.0 : o.seconds * 1000.0),
        reps_(o.smoke ? 1 : reps) {}
  bool due() const {
    return done_ < reps_ && ms_since(start_) >= ms_ * done_ / reps_;
  }
  bool pending() const { return done_ < reps_; }
  int done() const { return done_; }

  /// The program's cold start and, in an untraced run, the control's.
  void record(const Start& program, const Start* control) {
    setup_ms_.add(program.setup_ms);
    first_map_ms_.add(program.setup_ms + program.first_ms);
    if (control) {
      control_setup_ms_.add(control->setup_ms);
      control_first_map_ms_.add(control->setup_ms + control->first_ms);
      setup_ratio_.add(program.setup_ms / control->setup_ms);
      first_map_ratio_.add((program.setup_ms + program.first_ms) /
                           (control->setup_ms + control->first_ms));
    }
    ++done_;
  }
  const SampleSet& setup_ms() const { return setup_ms_; }
  const SampleSet& first_map_ms() const { return first_map_ms_; }
  const SampleSet& control_setup_ms() const { return control_setup_ms_; }
  const SampleSet& control_first_map_ms() const {
    return control_first_map_ms_;
  }
  const SampleSet& setup_ratio() const { return setup_ratio_; }
  const SampleSet& first_map_ratio() const { return first_map_ratio_; }

 private:
  Clock::time_point start_;
  double ms_;
  int reps_;
  int done_ = 0;
  SampleSet setup_ms_;
  SampleSet first_map_ms_;
  SampleSet control_setup_ms_;
  SampleSet control_first_map_ms_;
  SampleSet setup_ratio_;
  SampleSet first_map_ratio_;
};

/// Set up one side of a cold start, then make its first map: round 1, plus
/// the first batch where `with_batch` (the service). Returns the times.
template <typename MakeFn, typename Side>
Start cold_side(MakeFn&& make, std::unique_ptr<Side>& side, int round,
                bool with_batch) {
  Start s;
  const auto t0 = Clock::now();
  make();
  s.setup_ms = ms_since(t0);
  s.first_ms = side->round(round);
  if (with_batch) {
    side->prepare_batch();
    s.first_ms += side->batch();
  }
  return s;
}

/// Operations attempted and failed; an operation fails when any check on
/// its output fails.
class Tally {
 public:
  void op(bool ok, const char* what, int round) {
    ++attempted_;
    if (ok) return;
    if (++failed_ <= 10)
      std::fprintf(stderr, "[e2e] check failed at round %d: %s\n", round, what);
    if (first_.empty())
      first_ = std::string(what) + " (round " + std::to_string(round) + ")";
  }
  void fill(Outcome& out) const {
    out.attempted = attempted_;
    out.failed = failed_;
    out.first_failure = first_;
  }

 private:
  long long attempted_ = 0;
  long long failed_ = 0;
  std::string first_;
};

/// Timing samples of the round loop. Untraced rounds feed the end-to-end
/// metrics; traced ones only the tracing-overhead comparison.
struct LoopTimes {
  SampleSet round_ms;
  SampleSet traced_round_ms;
  SampleSet batch_ms;
  SampleSet round_ratio;  ///< Program / control, pair by pair.
  SampleSet batch_ratio;
  SampleSet control_round_ms;
  SampleSet control_batch_ms;
  double busy_ms = 0.0;  ///< Round + batch wall of untraced rounds.
  long long queries = 0;

  void add_round(double ms, bool traced) {
    if (traced) {
      traced_round_ms.add(ms);
      return;
    }
    round_ms.add(ms);
    busy_ms += ms;
  }
  void add_batch(double ms, int n, bool traced) {
    if (traced) return;
    batch_ms.add(ms);
    busy_ms += ms;
    queries += n;
  }
};

/// Time `fn` inside a span; `ms` (when non-null) receives its wall time.
template <typename Fn>
auto timed(Tracer& tr, const char* layer, const char* name, int round,
           double* ms, Fn&& fn) {
  const ScopedSpan span(tr, layer, name, round);
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
    fn();
    if (ms) *ms = ms_since(t0);
  } else {
    auto result = fn();
    if (ms) *ms = ms_since(t0);
    return result;
  }
}

/// One round of the program, beside the control's round when there is one.
/// `current` runs the program's round and stores its time in `program_ms`.
template <typename Current>
void round_pair(Current&& current, e2e_control::Instance* ctl, int round,
                const double& program_ms, LoopTimes& times) {
  if (!ctl) {
    current();
    return;
  }
  double control_ms = 0.0;
  in_turn(round % 2 == 1, current, [&] { control_ms = ctl->round(round); });
  times.round_ratio.add(program_ms / control_ms);
  times.control_round_ms.add(control_ms);
}

/// One batch of the program, beside the control's, likewise.
template <typename Current>
void batch_pair(Current&& current, e2e_control::Instance* ctl, int round,
                const double& program_ms, LoopTimes& times) {
  if (!ctl) {
    current();
    return;
  }
  ctl->prepare_batch();
  double control_ms = 0.0;
  in_turn(round % 2 == 1, current, [&] { control_ms = ctl->batch(); });
  times.batch_ratio.add(program_ms / control_ms);
  times.control_batch_ms.add(control_ms);
}

// ---- Metrics ----------------------------------------------------------------

/// Deterministic end-to-end metrics: fixed by the seed, never by timing.
struct Exact {
  double accuracy_pct = 0.0;
  double traffic_kb = 0.0;
  double node_energy_uj = 0.0;
};

using MetricSpec = std::vector<std::pair<std::string, std::string>>;

const MetricSpec& end_to_end_spec() {
  static const MetricSpec spec = {
      {"setup_s", "s"},         {"first_map_s", "s"},
      {"round_ms_p50", "ms"},   {"batch_ms_p50", "ms"},
      {"accuracy_pct", "%"},    {"traffic_kb", "KB"},
      {"node_energy_uj", "uJ"}, {"peak_rss_mb", "MB"},
  };
  return spec;
}

const MetricSpec& per_layer_spec() {
  static const MetricSpec spec = {
      {"field.sample_ms", "ms"},
      {"field.evals", "count"},
      {"net.deploy_ms", "ms"},
      {"net.graph_ms", "ms"},
      {"net.tree_ms", "ms"},
      {"net.edges", "count"},
      {"net.tree_depth", "count"},
      {"phase.select_ms", "ms"},
      {"phase.report_route_ms", "ms"},
      {"phase.filter_ms", "ms"},
      {"phase.map_gen_ms", "ms"},
      {"isomap.filter_keep_ratio", "ratio"},
      {"sink.reports", "count"},
      {"sink.levels", "count"},
      {"sink.rebuild_ms", "ms"},
      {"eval.accuracy_ms", "ms"},
      {"trace.overhead_pct", "%"},
  };
  return spec;
}

std::vector<std::string> names_of(const MetricSpec& spec) {
  std::vector<std::string> names;
  for (const auto& [name, unit] : spec) names.push_back(name);
  return names;
}

using Layers = std::map<std::string, double>;

double peak_rss_mb() {
  return static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0);
}

/// The highest tail percentile of `s` with at least ten samples beyond it,
/// as an extra named `stem` + "_p90" or "_p99", scaled by `scale`.
void add_tail(std::vector<Metric>& extras, const std::string& stem,
              const SampleSet& s, double scale) {
  if (s.count() >= 1000)
    extras.push_back({stem + "_p99", s.quantile(0.99) * scale, "ms"});
  else if (s.count() >= 100)
    extras.push_back({stem + "_p90", s.quantile(0.9) * scale, "ms"});
}

/// The end-to-end metrics of an untraced run, plus as printed-only extras
/// the tails, the wall times as measured on this host, and sample counts.
void end_to_end_metrics(Outcome& out, const Reference& ref,
                        const ColdStarts& cold, const LoopTimes& t,
                        const Exact& x, double rss_mb) {
  const double values[] = {
      ref.setup_s * cold.setup_ratio().median(),
      ref.first_map_s * cold.first_map_ratio().median(),
      ref.round_ms * t.round_ratio.median(),
      ref.batch_ms * t.batch_ratio.median(),
      x.accuracy_pct,
      x.traffic_kb,
      x.node_energy_uj,
      rss_mb,
  };
  const MetricSpec& spec = end_to_end_spec();
  for (std::size_t i = 0; i < spec.size(); ++i)
    out.metrics.push_back({spec[i].first, values[i], spec[i].second});
  add_tail(out.extras, "round_ms", t.round_ratio, ref.round_ms);
  add_tail(out.extras, "batch_ms", t.batch_ratio, ref.batch_ms);
  const std::vector<Metric> measured = {
      {"measured.setup_s", cold.setup_ms().median() / 1000.0, "s"},
      {"measured.first_map_s", cold.first_map_ms().median() / 1000.0, "s"},
      {"measured.round_ms_p50", t.round_ms.median(), "ms"},
      {"measured.batch_ms_p50", t.batch_ms.median(), "ms"},
      {"measured.queries_per_s",
       static_cast<double>(t.queries) / (t.busy_ms / 1000.0), "1/s"},
      {"control.setup_s", cold.control_setup_ms().median() / 1000.0, "s"},
      {"control.first_map_s", cold.control_first_map_ms().median() / 1000.0,
       "s"},
      {"control.round_ms_p50", t.control_round_ms.median(), "ms"},
      {"control.batch_ms_p50", t.control_batch_ms.median(), "ms"},
      {"cold_starts", static_cast<double>(cold.done()), "count"},
      {"rounds", static_cast<double>(t.round_ms.count()), "count"},
  };
  out.extras.insert(out.extras.end(), measured.begin(), measured.end());
}

double median_of(const SampleSet& s) { return s.count() ? s.median() : 0.0; }

/// A traced run's per-layer metrics, printed layer table and span dump.
void finish_traced(Outcome& out, const Tracer& tracer, Layers layers,
                   const LoopTimes& times, const char* title) {
  layers["trace.overhead_pct"] =
      100.0 * (times.traced_round_ms.median() / times.round_ms.median() - 1.0);
  for (const auto& [name, unit] : per_layer_spec()) {
    const auto it = layers.find(name);
    if (it == layers.end())
      throw std::logic_error("per-layer metric not measured: " + name);
    out.metrics.push_back({name, it->second, unit});
  }
  const double p50 = times.round_ms.median();
  print_layer_table(tracer, title, p50);
  out.trace = tracer.to_json(kTraceSpanRounds, p50);
}

// ---- Set-up -----------------------------------------------------------------

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = kFnvBasis) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ULL;
  return h;
}

/// What a set-up produced, compared across cold starts and against the
/// layer-by-layer rebuild.
struct SetupDigest {
  std::size_t edges = 0;
  int depth = 0;
  int sink = -1;
  std::uint64_t readings = 0;  ///< FNV-1a over the readings' bytes.
  bool operator==(const SetupDigest&) const = default;
};

SetupDigest digest_of(const CommGraph& graph, const RoutingTree& tree,
                      const std::vector<double>& readings) {
  return {graph.csr_edges().size(), tree.depth(), tree.sink(),
          fnv1a(readings.data(), readings.size() * sizeof(double))};
}

SetupDigest digest_of(const Scenario& s) {
  return digest_of(s.graph, s.tree, s.readings);
}

GaussianField preset_field(FieldKind kind, const FieldBounds& bounds) {
  switch (kind) {
    case FieldKind::kHarbor:
      return harbor_bathymetry(bounds);
    case FieldKind::kSilted:
      return silted_harbor_bathymetry(bounds);
    case FieldKind::kMultiBasin:
      return multi_basin_bathymetry(bounds);
    case FieldKind::kSloped:
      return sloped_seabed_bathymetry(bounds);
    case FieldKind::kRandom:
      break;
  }
  throw std::invalid_argument("stepwise set-up supports preset fields only");
}

/// Wall time of each set-up layer, from the layer-by-layer rebuild.
struct SetupSteps {
  SetupDigest digest;
  double deploy_ms = 0.0;
  double graph_ms = 0.0;
  double tree_ms = 0.0;
  double sample_ms = 0.0;
  long long evals = 0;
};

/// make_scenario() one layer at a time — field, Deployment::uniform_random,
/// CommGraph, nearest_alive + RoutingTree, sampling — with make_scenario's
/// exact RNG splits, so its digest must equal make_scenario's.
SetupSteps stepwise_setup(const ScenarioConfig& c, Tracer& tr) {
  if (c.grid_deployment || c.failure_fraction > 0.0 ||
      c.position_error_std > 0.0 || c.reading_noise_std > 0.0)
    throw std::invalid_argument("stepwise set-up: unsupported scenario knob");
  const ScopedSpan whole(tr, "sim", "stepwise_setup", 0);
  const FieldBounds bounds = c.bounds();
  SetupSteps steps;
  const GaussianField field =
      timed(tr, "field", "preset_field", 0, nullptr,
            [&] { return preset_field(c.field, bounds); });
  Rng rng(c.seed);
  rng.split();  // Field stream; only random fields draw from it.
  Rng deploy_rng = rng.split();
  const Deployment deployment =
      timed(tr, "net", "Deployment::uniform_random", 0, &steps.deploy_ms, [&] {
        return Deployment::uniform_random(bounds, c.num_nodes, deploy_rng);
      });
  const CommGraph graph =
      timed(tr, "net", "CommGraph", 0, &steps.graph_ms,
            [&] { return CommGraph(deployment, c.effective_radio_range()); });
  const Vec2 sink_pos{bounds.x0 + bounds.width() * c.sink_fx,
                      bounds.y0 + bounds.height() * c.sink_fy};
  const RoutingTree tree =
      timed(tr, "net", "RoutingTree", 0, &steps.tree_ms, [&] {
        return RoutingTree(graph, deployment.nearest_alive(sink_pos));
      });
  std::vector<double> readings;
  timed(tr, "field", "sample", 0, &steps.sample_ms,
        [&] { sample_into(field, deployment, readings); });
  steps.evals = deployment.alive_count();
  steps.digest = digest_of(graph, tree, readings);
  return steps;
}

void add_setup_layers(Layers& layers, const SetupSteps& steps) {
  layers["net.deploy_ms"] += steps.deploy_ms;
  layers["net.graph_ms"] += steps.graph_ms;
  layers["net.tree_ms"] += steps.tree_ms;
  layers["net.edges"] += static_cast<double>(steps.digest.edges);
  double& depth = layers["net.tree_depth"];
  depth = std::max(depth, static_cast<double>(steps.digest.depth));
}

// ---- Program phases ---------------------------------------------------------

/// Phase label -> summed milliseconds, from the program's own PhaseTimers.
using PhaseSums = std::map<std::string, double>;

PhaseSums phase_sums(const obs::RunSummary& summary) {
  PhaseSums out;
  for (const auto& [name, snap] : summary.phases) out[name] = snap.sum * 1e3;
  return out;
}

double get(const PhaseSums& p, const char* name) {
  const auto it = p.find(name);
  return it == p.end() ? 0.0 : it->second;
}

/// Hang a call's phase timings under its span. run_isomap runs the filter
/// nested inside report_route; the continuous mapper runs it after.
void attach_phases(Tracer& tr, int parent, const PhaseSums& phases,
                   bool filter_in_route) {
  int route = parent;
  for (const auto& [name, ms] : phases) {
    if (filter_in_route && name == "filter") continue;
    const int id = tr.phase(parent, "isomap", name, ms);
    if (name == "report_route") route = id;
  }
  if (filter_in_route && phases.count("filter"))
    tr.phase(route, "isomap", "filter", get(phases, "filter"));
}

/// Accumulate phase self times (report_route excludes a nested filter).
void add_phase_layers(Layers& layers, const PhaseSums& phases,
                      bool filter_in_route) {
  layers["phase.select_ms"] += get(phases, "select");
  layers["phase.report_route_ms"] +=
      get(phases, "report_route") -
      (filter_in_route ? get(phases, "filter") : 0.0);
  layers["phase.filter_ms"] += get(phases, "filter");
  layers["phase.map_gen_ms"] += get(phases, "map_gen");
}

void scale_phase_layers(Layers& layers, double rounds) {
  for (const char* key : {"phase.select_ms", "phase.report_route_ms",
                          "phase.filter_ms", "phase.map_gen_ms"})
    layers[key] /= rounds;
}

// ---- Readers ----------------------------------------------------------------

std::vector<int> all_levels(int n) {
  std::vector<int> levels(static_cast<std::size_t>(n));
  std::iota(levels.begin(), levels.end(), 0);
  return levels;
}

std::string map_body(const std::string& name, const ContourMap& map) {
  return serve::serialize_response(
      name, serve::wire_levels_from_map(map, all_levels(map.level_count())));
}

/// The reader batch after a mapping round (OneShot or Drift), beside the
/// control's. Every kCheckEvery-th answer must equal the scalar level_index.
template <typename Ops>
void reader_batch(Ops& ops, const ContourMap& map, e2e_control::Instance* ctl,
                  int round, Tracer& tr, bool traced, LoopTimes& times,
                  Tally& tally) {
  ops.prepare_batch();
  double ms = 0.0;
  batch_pair(
      [&] {
        const ScopedSpan span(tr, "isomap", "ContourMap::level_index_batch",
                              round);
        ms = ops.batch();
      },
      ctl, round, ms, times);
  times.add_batch(ms, kQueriesPerBatch, traced);
  const auto qs = ops.readers.queries();
  const auto answers = ops.readers.answers();
  bool ok = true;
  for (std::size_t i = 0; i < qs.size(); i += kCheckEvery)
    ok = ok && answers[i] == map.level_index(qs[i]);
  tally.op(ok, "level_index_batch differs from level_index", round);
}

// ---- One-shot workloads -----------------------------------------------------

bool same_reports(const std::vector<IsolineReport>& a,
                  const std::vector<IsolineReport>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].isolevel != b[i].isolevel || a[i].position != b[i].position ||
        a[i].gradient != b[i].gradient || a[i].source != b[i].source)
      return false;
  return true;
}

struct OneShotSpec {
  const char* name;
  ScenarioConfig config;
  OptionsFn options;
  Reference reference;
  int cold_starts;
  int min_rounds;
  double min_accuracy_pct;
  bool check_sqrt_law;  ///< Delivered reports / sqrt(n) within [0.2, 3].
};

Outcome run_one_shot(const OneShotSpec& spec, const RunOptions& o) {
  Tracer tracer(o.trace);
  Tracer off(false);
  Tally tally;
  Layers layers;
  LoopTimes times;
  const bool paired = !o.trace;

  std::optional<SetupDigest> expect;
  if (o.trace) {
    const SetupSteps steps = stepwise_setup(spec.config, tracer);
    add_setup_layers(layers, steps);
    layers["field.sample_ms"] = steps.sample_ms;
    layers["field.evals"] = static_cast<double>(steps.evals);
    expect = steps.digest;
  }

  const Deadline deadline(o, spec.min_rounds);
  ColdStarts cold(o, spec.cold_starts);
  std::unique_ptr<OneShot> shot;
  std::unique_ptr<e2e_control::Instance> ctl;
  std::vector<double> levels;
  std::vector<IsolineReport> reference;
  Exact exact;
  double generated = 0.0;
  double rss_mb = 0.0;

  // A cold start replaces the working deployment on both sides: rounds keep
  // no state, and memory holds one deployment per side. The first cold
  // start runs the program first, so the peak RSS read after it excludes
  // the control; its map gives the deterministic metrics, and every later
  // map must deliver the same reports.
  const auto cold_start = [&](int round) {
    const ScopedSpan span(tracer, "bench", "cold_start", round);
    shot.reset();
    ctl.reset();
    Start program, control;
    const auto current = [&] {
      const ScopedSpan call(tracer, "sim", "make_scenario+run_isomap", round);
      program = cold_side(
          [&] { shot = std::make_unique<OneShot>(spec.config, spec.options); },
          shot, round, false);
      if (cold.done() == 0) rss_mb = peak_rss_mb();
    };
    const auto against = [&] {
      control = cold_side(
          [&] { ctl = e2e_control::set_up(spec.name, o.seed, o.smoke); }, ctl,
          round, false);
    };
    if (paired)
      in_turn(cold.done() % 2 == 1, current, against);
    else
      current();
    cold.record(program, paired ? &control : nullptr);

    const IsoMapResult& first = shot->last->result;
    const SetupDigest got = digest_of(shot->scenario);
    if (!expect) expect = got;
    bool ok = got == *expect;
    if (!reference.empty()) {
      ok = ok && same_reports(first.sink_reports, reference);
    } else {
      levels = shot->options.query.isolevels();
      double acc_ms = 0.0;
      const double accuracy =
          timed(tracer, "eval", "mapping_accuracy", round, &acc_ms, [&] {
            return mapping_accuracy(first.map, shot->scenario.field, levels,
                                    kAccuracyResolution);
          });
      exact.accuracy_pct = 100.0 * accuracy;
      layers["eval.accuracy_ms"] = acc_ms;
      exact.traffic_kb = first.report_traffic_bytes / 1024.0;
      exact.node_energy_uj =
          Mica2Model().mean_node_energy_j(shot->last->ledger) * 1e6;
      reference = first.sink_reports;
      generated = first.generated_reports;
      const double per_sqrt_n =
          static_cast<double>(reference.size()) /
          std::sqrt(static_cast<double>(spec.config.num_nodes));
      ok = ok && !reference.empty() &&
           exact.accuracy_pct >= spec.min_accuracy_pct;
      if (spec.check_sqrt_law)
        ok = ok && per_sqrt_n >= 0.2 && per_sqrt_n <= 3.0;
    }
    tally.op(ok, "cold start differs from the first, or its map is degenerate",
             round);
  };

  SampleSet rebuild_ms;
  int traced_rounds = 0;
  int r = 1;
  for (int done = 0; deadline.more(done); ++r, ++done) {
    if (cold.due()) cold_start(r);
    const bool traced = o.trace && r % 2 == 0;
    Tracer& tr = traced ? tracer : off;
    double ms = 0.0;
    int call_span = -1;
    round_pair(
        [&] {
          const ScopedSpan round(tr, "bench", "round", r);
          const ScopedSpan call(tr, "sim", "run_isomap", r);
          call_span = call.id();
          ms = shot->round(r);
        },
        ctl.get(), r, ms, times);
    times.add_round(ms, traced);
    const IsoMapRun& run = *shot->last;
    if (traced) {
      const PhaseSums phases = phase_sums(run.summary);
      attach_phases(tr, call_span, phases, true);
      add_phase_layers(layers, phases, true);
      ++traced_rounds;
    }
    bool ok = same_reports(run.result.sink_reports, reference);
    if (r % kSinkCheckEvery == 2) {
      double build_ms = 0.0;
      const ContourMap fresh =
          timed(tr, "isomap", "ContourMapBuilder::build", r, &build_ms, [&] {
            return ContourMapBuilder(shot->scenario.deployment.bounds(),
                                     shot->options.regulation)
                .build(run.result.sink_reports, levels);
          });
      rebuild_ms.add(build_ms);
      ok = ok && map_body("map", fresh) == map_body("map", run.result.map);
    }
    tally.op(ok, "round differs from the first map or a fresh sink build", r);
    reader_batch(*shot, run.result.map, ctl.get(), r, tr, traced, times, tally);
  }
  while (cold.pending()) cold_start(r);

  Outcome out;
  if (o.trace) {
    scale_phase_layers(layers, traced_rounds);
    layers["isomap.filter_keep_ratio"] =
        static_cast<double>(reference.size()) / generated;
    layers["sink.reports"] = static_cast<double>(reference.size());
    layers["sink.levels"] = static_cast<double>(levels.size());
    layers["sink.rebuild_ms"] = median_of(rebuild_ms);
    finish_traced(out, tracer, std::move(layers), times, spec.name);
  } else {
    end_to_end_metrics(out, spec.reference, cold, times, exact, rss_mb);
  }
  tally.fill(out);
  return out;
}

Outcome run_scale_1m(const RunOptions& o) {
  OneShotSpec spec;
  spec.name = "scale_1m";
  spec.config = scale_1m_config(o.seed, o.smoke);
  spec.options = scaling_options;
  spec.reference = {2.86, 3.06, 173.0, 0.737};
  // A pair of 10^6-node set-ups takes 4-6 s: four pairs, two in each
  // order, fill most of the run, and the rounds get the rest.
  spec.cold_starts = 4;
  spec.min_rounds = 10;
  spec.min_accuracy_pct = 90.0;
  spec.check_sqrt_law = true;
  return run_one_shot(spec, o);
}

Outcome run_harbor_dense(const RunOptions& o) {
  OneShotSpec spec;
  spec.name = "harbor_dense";
  spec.config = harbor_dense_config(o.seed, o.smoke);
  spec.options = dense_harbor_options;
  spec.reference = {0.105, 0.147, 42.7, 2.95};
  spec.cold_starts = kColdStarts;
  spec.min_rounds = 1;
  // 32 levels at the toy size's density 1 map too coarsely for a floor.
  spec.min_accuracy_pct = o.smoke ? 0.0 : 90.0;
  spec.check_sqrt_law = false;
  return run_one_shot(spec, o);
}

// ---- Continuous mapping -----------------------------------------------------

constexpr Reference kDriftReference = {0.116, 0.202, 73.6, 0.829};

Outcome run_harbor_drift(const RunOptions& o) {
  const ScenarioConfig config = harbor_drift_config(o.seed, o.smoke);
  const int fixed_round = o.smoke ? kSmokeRounds : kFixedRound;

  Tracer tracer(o.trace);
  Tracer off(false);
  Tally tally;
  Layers layers;
  LoopTimes times;
  const bool paired = !o.trace;

  std::optional<SetupDigest> expect;
  if (o.trace) {
    const SetupSteps steps = stepwise_setup(config, tracer);
    add_setup_layers(layers, steps);
    layers["field.evals"] = static_cast<double>(steps.evals);
    expect = steps.digest;
  }

  SampleSet sample_ms;
  int traced_rounds = 0;
  double dirty = 0.0, rebuilt = 0.0, post_filter = 0.0, active = 0.0;

  // One round of the program; returns its wall time. A traced round runs
  // the same steps inside spans and reads the mapper's phase timers and
  // counters afterwards.
  const auto drift_round = [&](Drift& d, int r, bool traced) {
    if (!traced) return d.round(r);
    obs::MetricsRegistry registry;
    double sampled_ms = 0.0;
    int call_span = -1;
    d.last.reset();
    const auto t0 = Clock::now();
    {
      const ScopedSpan round(tracer, "bench", "round", r);
      timed(tracer, "field", "sample", r, &sampled_ms, [&] { d.sense(r); });
      const ScopedSpan call(tracer, "continuous", "ContinuousMapper::round", r);
      call_span = call.id();
      const obs::ObsScope scope(&registry, nullptr);
      d.last.emplace(d.mapper.round(d.readings, d.ledger));
    }
    const double ms = ms_since(t0);
    sample_ms.add(sampled_ms);
    const PhaseSums phases =
        phase_sums(obs::make_run_summary("drift", registry, {}, 0.0));
    attach_phases(tracer, call_span, phases, false);
    add_phase_layers(layers, phases, false);
    dirty += registry.counter("continuous.dirty_nodes");
    rebuilt += registry.counter("continuous.levels_rebuilt");
    post_filter += registry.counter("map_gen.reports");
    active += d.last->active_reports;
    ++traced_rounds;
    return ms;
  };

  const Deadline deadline(o, fixed_round);
  ColdStarts cold(o, kColdStarts);
  std::unique_ptr<Drift> working;
  std::unique_ptr<e2e_control::Instance> ctl;
  std::string first_body;
  double fixed_traffic_bytes = 0.0;
  double rss_mb = 0.0;

  // The first cold start becomes the working deployment on each side (its
  // first map is round 1); later ones run beside it and must reproduce its
  // round 1.
  const auto cold_start = [&](int round) {
    const ScopedSpan span(tracer, "bench", "cold_start", round);
    std::unique_ptr<Drift> d;
    std::unique_ptr<e2e_control::Instance> c;
    Start program, control;
    const auto current = [&] {
      const ScopedSpan call(tracer, "sim", "Drift+round", round);
      program = cold_side([&] { d = std::make_unique<Drift>(config); }, d, 1,
                          false);
      if (cold.done() == 0) rss_mb = peak_rss_mb();
    };
    const auto against = [&] {
      control = cold_side(
          [&] { c = e2e_control::set_up("harbor_drift", o.seed, o.smoke); }, c,
          1, false);
    };
    if (paired)
      in_turn(cold.done() % 2 == 1, current, against);
    else
      current();
    cold.record(program, paired ? &control : nullptr);

    const RoundResult& first = *d->last;
    const SetupDigest got = digest_of(d->scenario);
    if (!expect) expect = got;
    const std::string body = map_body("drift", first.map);
    bool ok = got == *expect;
    if (!working) {
      first_body = body;
      fixed_traffic_bytes +=
          first.delta_traffic_bytes + first.beacon_traffic_bytes;
      working = std::move(d);
      ctl = std::move(c);
    }
    tally.op(ok && body == first_body, "cold start differs from the first",
             round);
  };

  Exact exact;
  SampleSet rebuild_ms;
  int r = 2;
  for (int done = 0; deadline.more(done); ++r, ++done) {
    if (cold.due()) cold_start(r);
    Drift& d = *working;
    const bool traced = o.trace && r % 2 == 0;
    Tracer& tr = traced ? tracer : off;
    double ms = 0.0;
    round_pair([&] { ms = drift_round(d, r, traced); }, ctl.get(), r, ms,
               times);
    times.add_round(ms, traced);
    const RoundResult& result = *d.last;

    if (r <= fixed_round)
      fixed_traffic_bytes +=
          result.delta_traffic_bytes + result.beacon_traffic_bytes;
    if (r == fixed_round) {
      double acc_ms = 0.0;
      exact.accuracy_pct =
          100.0 * timed(tr, "eval", "mapping_accuracy", r, &acc_ms, [&] {
            return mapping_accuracy(result.map, d.field,
                                    d.options.base.query.isolevels(),
                                    kAccuracyResolution);
          });
      layers["eval.accuracy_ms"] = acc_ms;
      exact.traffic_kb = fixed_traffic_bytes / fixed_round / 1024.0;
      exact.node_energy_uj =
          Mica2Model().mean_node_energy_j(d.ledger) / fixed_round * 1e6;
    }

    bool ok =
        result.map.level_count() == kDriftLevels && result.active_reports > 0;
    if (r % kSinkCheckEvery == 2) {
      double build_ms = 0.0;
      const ContourMap fresh =
          timed(tr, "isomap", "ContourMapBuilder::build", r, &build_ms, [&] {
            return ContourMapBuilder(d.scenario.deployment.bounds(),
                                     d.options.base.regulation)
                .build(d.mapper.post_filter_reports(),
                       d.options.base.query.isolevels());
          });
      rebuild_ms.add(build_ms);
      ok = ok && map_body("drift", fresh) == map_body("drift", result.map);
    }
    tally.op(ok, "mapper map differs from a fresh sink build", r);
    reader_batch(d, result.map, ctl.get(), r, tr, traced, times, tally);
  }
  while (cold.pending()) cold_start(r);

  Outcome out;
  if (o.trace) {
    const double alive = working->scenario.deployment.alive_count();
    scale_phase_layers(layers, traced_rounds);
    layers["field.sample_ms"] = median_of(sample_ms);
    layers["isomap.filter_keep_ratio"] = post_filter / active;
    layers["sink.reports"] = post_filter / traced_rounds;
    layers["sink.levels"] = kDriftLevels;
    layers["sink.rebuild_ms"] = median_of(rebuild_ms);
    finish_traced(out, tracer, std::move(layers), times, "harbor_drift");
    out.extras = {
        {"continuous.dirty_ratio", dirty / (alive * traced_rounds), "ratio"},
        {"continuous.rebuild_ratio", rebuilt / (kDriftLevels * traced_rounds),
         "ratio"},
    };
  } else {
    end_to_end_metrics(out, kDriftReference, cold, times, exact, rss_mb);
  }
  tally.fill(out);
  return out;
}

// ---- Map service ------------------------------------------------------------

constexpr Reference kServiceReference = {0.0485, 0.0545, 5.84, 1.47};

/// One service shard rebuilt outside the service: the same scenario, mapper
/// options and per-round readings (the shard's triangular drift schedule),
/// so after round r its map equals the shard's bit for bit.
class ShardReplica {
 public:
  explicit ShardReplica(const serve::DeploymentSpec& d)
      : spec_(d),
        scenario_(make_scenario(d.to_config())),
        ledger_(scenario_.deployment.size()) {
    if (d.drift_per_round > 0.0)
      drift_.emplace(preset_field(d.drift_target, scenario_.field.bounds()));
    ContinuousOptions options;
    options.base = isomap_options(scenario_, d.num_levels);
    options.stale_rounds = d.stale_rounds;
    options.engine = d.engine;
    levels_ = options.base.query.isolevels();
    mapper_.emplace(options, scenario_.deployment, scenario_.graph,
                    scenario_.tree);
  }
  ShardReplica(const ShardReplica&) = delete;
  ShardReplica& operator=(const ShardReplica&) = delete;

  void advance(int round) {
    with_field(round, [&](const ScalarField& field) {
      sample_into(field, scenario_.deployment, readings_);
    });
    map_.emplace(mapper_->round(readings_, ledger_).map);
  }

  const ContourMap& map() const { return *map_; }

  /// Fig. 11 accuracy of the current map against the field at `round`.
  double accuracy(int round) const {
    return with_field(round, [&](const ScalarField& field) {
      return mapping_accuracy(*map_, field, levels_, kAccuracyResolution);
    });
  }

 private:
  /// Call fn with the shard's field at `round`, blended toward the drift
  /// target by alpha = 1 - |1 - fmod(drift * (round - 1), 2)|.
  template <typename Fn>
  std::invoke_result_t<Fn&, const ScalarField&> with_field(int round,
                                                          Fn&& fn) const {
    const double phase = spec_.drift_per_round * (round - 1);
    const double alpha = 1.0 - std::abs(1.0 - std::fmod(phase, 2.0));
    if (!drift_ || alpha <= 0.0) return fn(scenario_.field);
    const BlendedField blended(scenario_.field, *drift_, alpha);
    return fn(blended);
  }

  serve::DeploymentSpec spec_;
  Scenario scenario_;
  std::optional<GaussianField> drift_;
  std::vector<double> levels_;
  std::optional<ContinuousMapper> mapper_;  ///< Binds to scenario_.
  Ledger ledger_;
  std::vector<double> readings_;
  std::optional<ContourMap> map_;
};

/// Phase and counter totals summed over every shard's metrics registry.
struct ShardTotals {
  PhaseSums phases;
  double dirty_nodes = 0.0;
  double levels_rebuilt = 0.0;
  double map_gen_reports = 0.0;
};

ShardTotals shard_totals(const serve::IsoMapService& svc) {
  ShardTotals t;
  for (int i = 0; i < svc.shard_count(); ++i) {
    const JsonValue j = svc.shard_summary_json(i, 0.0);
    if (const JsonValue* phases = j.find("phases"))
      for (const auto& [name, snap] : phases->members())
        t.phases[name] += snap.number_or("sum", 0.0) * 1e3;
    if (const JsonValue* counters = j.find("counters")) {
      t.dirty_nodes += counters->number_or("continuous.dirty_nodes", 0.0);
      t.levels_rebuilt += counters->number_or("continuous.levels_rebuilt", 0.0);
      t.map_gen_reports += counters->number_or("map_gen.reports", 0.0);
    }
  }
  return t;
}

/// What happened between two snapshots.
ShardTotals operator-(ShardTotals after, const ShardTotals& before) {
  for (auto& [name, ms] : after.phases) ms -= get(before.phases, name.c_str());
  after.dirty_nodes -= before.dirty_nodes;
  after.levels_rebuilt -= before.levels_rebuilt;
  after.map_gen_reports -= before.map_gen_reports;
  return after;
}

/// Service-wide summary values summed over the shards.
double per_shard_sum(const JsonValue& summary, const char* key) {
  double sum = 0.0;
  for (const JsonValue& shard : summary.find("per_shard")->items())
    sum += shard.number_or(key, 0.0);
  return sum;
}

Outcome run_service_mixed(const RunOptions& o) {
  const serve::ServiceScenario sc = service_scenario(o.seed, o.smoke);
  const int fixed_round = o.smoke ? kSmokeRounds : kFixedRound;
  Tracer tracer(o.trace);
  Tracer off(false);
  Tally tally;
  Layers layers;
  LoopTimes times;
  Exact exact;
  const bool paired = !o.trace;

  if (o.trace) {
    double sample_ms = 0.0, evals = 0.0;
    for (const serve::DeploymentSpec& d : sc.deployments) {
      const SetupSteps steps = stepwise_setup(d.to_config(), tracer);
      tally.op(steps.digest == digest_of(make_scenario(d.to_config())),
               "set-up differs from the layer-by-layer rebuild", 0);
      add_setup_layers(layers, steps);
      sample_ms += steps.sample_ms;
      evals += static_cast<double>(steps.evals);
    }
    layers["field.sample_ms"] = sample_ms;
    layers["field.evals"] = evals;
  }

  // Replicas of both shards, advanced outside the service to the fixed
  // round: a served full-map body must equal its replica's bytes (at every
  // tick for the frozen shard, at the fixed round for the drifting one).
  // The service's accuracy_pct is the replicas' mean accuracy over every
  // 10th round up to the fixed one: the drifting shard's accuracy swings
  // with the drift, and one round's map would stand for the seed badly.
  std::vector<std::string> replica_bodies;
  {
    SampleSet accuracy, acc_ms;
    for (const serve::DeploymentSpec& d : sc.deployments) {
      ShardReplica replica(d);
      for (int r = 1; r <= fixed_round; ++r) {
        replica.advance(r);
        if (r % kAccuracyEvery != 0 && r != fixed_round) continue;
        double ms = 0.0;
        accuracy.add(timed(tracer, "eval", "mapping_accuracy", 0, &ms,
                           [&] { return replica.accuracy(r); }));
        acc_ms.add(ms);
      }
      replica_bodies.push_back(map_body(d.name, replica.map()));
    }
    exact.accuracy_pct = 100.0 * accuracy.mean();
    layers["eval.accuracy_ms"] = acc_ms.mean();
  }

  const Deadline deadline(o, fixed_round);
  ColdStarts cold(o, kColdStarts);
  std::unique_ptr<Service> svc;
  std::unique_ptr<e2e_control::Instance> ctl;
  std::uint64_t first_bodies = 0;
  double rss_mb = 0.0;

  // The first cold start becomes the working service on each side (its
  // first tick and batch are round 1); later ones run beside it and must
  // serve the same first batch.
  const auto cold_start = [&](int round) {
    const ScopedSpan span(tracer, "bench", "cold_start", round);
    std::unique_ptr<Service> s;
    std::unique_ptr<e2e_control::Instance> c;
    Start program, control;
    const auto current = [&] {
      const ScopedSpan call(tracer, "serve", "IsoMapService+first_batch",
                            round);
      program = cold_side([&] { s = std::make_unique<Service>(sc); }, s, round,
                          true);
      if (cold.done() == 0) rss_mb = peak_rss_mb();
    };
    const auto against = [&] {
      control = cold_side(
          [&] { c = e2e_control::set_up("service_mixed", o.seed, o.smoke); },
          c, round, true);
    };
    if (paired)
      in_turn(cold.done() % 2 == 1, current, against);
    else
      current();
    cold.record(program, paired ? &control : nullptr);

    std::uint64_t bodies = kFnvBasis;
    bool ok = true;
    for (const serve::QueryResponse& resp : s->responses) {
      ok = ok && resp.body != nullptr;
      if (resp.body)
        bodies = fnv1a(resp.body->data(), resp.body->size(), bodies);
    }
    if (!svc) {
      first_bodies = bodies;
      svc = std::move(s);
      ctl = std::move(c);
    }
    tally.op(ok && bodies == first_bodies, "cold start differs from the first",
             round);
  };

  SampleSet rebuild_ms;
  long long query_index = 0;
  double body_bytes = 0.0;
  int traced_rounds = 0;
  double dirty = 0.0, rebuilt = 0.0, post_filter = 0.0, active = 0.0;

  int r = 2;
  for (int done = 0; deadline.more(done); ++r, ++done) {
    if (cold.due()) cold_start(r);
    const bool traced = o.trace && r % 2 == 0;
    Tracer& tr = traced ? tracer : off;
    const ShardTotals before = traced ? shard_totals(svc->svc) : ShardTotals{};
    double tick_ms = 0.0;
    int tick_span = -1;
    round_pair(
        [&] {
          const ScopedSpan round(tr, "bench", "round", r);
          const ScopedSpan call(tr, "serve", "IsoMapService::tick", r);
          tick_span = call.id();
          tick_ms = svc->round(r);
        },
        ctl.get(), r, tick_ms, times);
    if (traced) {
      // The shards tick side by side on the exec pool, so their summed
      // phase times can exceed the tick's wall time. Scaled by wall / sum,
      // they split that wall time in proportion and self times stay
      // additive.
      const ShardTotals tick = shard_totals(svc->svc) - before;
      PhaseSums phases = tick.phases;
      const double shard_ms = get(phases, "tick");
      if (shard_ms > tick_ms)
        for (auto& [name, ms] : phases) ms *= tick_ms / shard_ms;
      const int shard_ticks =
          tr.phase(tick_span, "serve", "shard ticks", get(phases, "tick"));
      phases.erase("tick");
      attach_phases(tr, shard_ticks, phases, false);
      add_phase_layers(layers, phases, false);
      dirty += tick.dirty_nodes;
      rebuilt += tick.levels_rebuilt;
      post_filter += tick.map_gen_reports;
      active += per_shard_sum(svc->svc.service_summary(0.0), "sink_reports");
      ++traced_rounds;
    }
    tally.op(svc->svc.rounds_done() == r, "tick did not advance the service",
             r);
    timed(tr, "bench", "mix_for_tick", r, nullptr,
          [&] { svc->prepare_batch(); });
    double batch_ms = 0.0;
    batch_pair(
        [&] {
          const ScopedSpan span(tr, "serve", "IsoMapService::serve_batch", r);
          batch_ms = svc->batch();
        },
        ctl.get(), r, batch_ms, times);
    times.add_round(tick_ms, traced);
    const std::vector<serve::QueryRequest>& mix = svc->mix;
    const std::vector<serve::QueryResponse>& responses = svc->responses;
    times.add_batch(batch_ms, static_cast<int>(mix.size()), traced);

    bool ok = responses.size() == mix.size();
    for (std::size_t i = 0; ok && i < mix.size(); ++i) {
      const serve::QueryResponse& resp = responses[i];
      if (!resp.body) {
        ok = false;
        break;
      }
      body_bytes += static_cast<double>(resp.body->size());
      const serve::DeploymentSpec& d = sc.deployments[mix[i].shard];
      const bool full_map =
          static_cast<int>(mix[i].levels.size()) == d.num_levels;
      if (full_map && (d.drift_per_round == 0.0 || r == fixed_round))
        ok = *resp.body == replica_bodies[mix[i].shard];
      if (query_index++ % kCheckEvery == 0) {
        double ms = 0.0;
        const auto divergence =
            timed(tr, "serve", "IsoMapService::oracle_check", r, &ms,
                  [&] { return svc->svc.oracle_check(mix[i], *resp.body); });
        rebuild_ms.add(ms);
        ok = ok && !divergence;
      }
    }
    tally.op(ok, "served body differs from a fresh build or the replica", r);

    if (r == fixed_round) {
      const JsonValue summary = svc->svc.service_summary(0.0);
      const Mica2Model energy;
      const double tx = per_shard_sum(summary, "tx_bytes");
      const double joules =
          energy.tx_energy_j(tx) +
          energy.rx_energy_j(per_shard_sum(summary, "rx_bytes")) +
          energy.compute_energy_j(per_shard_sum(summary, "ops"));
      exact.traffic_kb = tx / fixed_round / 1024.0;
      exact.node_energy_uj =
          joules / per_shard_sum(summary, "nodes") / fixed_round * 1e6;
    }
  }
  while (cold.pending()) cold_start(r);

  Outcome out;
  if (o.trace) {
    double nodes = 0.0, levels = 0.0;
    for (const serve::DeploymentSpec& d : sc.deployments) {
      nodes += d.nodes;
      levels += d.num_levels;
    }
    scale_phase_layers(layers, traced_rounds);
    const serve::ServiceStats& stats = svc->svc.stats();
    layers["isomap.filter_keep_ratio"] = post_filter / active;
    layers["sink.reports"] = post_filter / traced_rounds;
    layers["sink.levels"] = levels;
    layers["sink.rebuild_ms"] = median_of(rebuild_ms);
    finish_traced(out, tracer, std::move(layers), times, "service_mixed");
    const auto queries = static_cast<double>(stats.queries);
    out.extras = {
        {"continuous.dirty_ratio", dirty / (nodes * traced_rounds), "ratio"},
        {"continuous.rebuild_ratio", rebuilt / (levels * traced_rounds),
         "ratio"},
        {"serve.cache_hit_ratio", static_cast<double>(stats.cache_hits) / queries,
         "ratio"},
        {"serve.unique_bodies_built",
         static_cast<double>(stats.unique_bodies_built) /
             svc->svc.rounds_done(),
         "count"},
        {"serve.body_bytes", body_bytes / queries, "bytes"},
    };
  } else {
    end_to_end_metrics(out, kServiceReference, cold, times, exact, rss_mb);
  }
  tally.fill(out);
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"scale_1m", run_scale_1m},
      {"harbor_dense", run_harbor_dense},
      {"harbor_drift", run_harbor_drift},
      {"service_mixed", run_service_mixed},
  };
  return all;
}

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = names_of(end_to_end_spec());
  return names;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = names_of(per_layer_spec());
  return names;
}

const std::vector<std::string>& deterministic_names() {
  static const std::vector<std::string> names = {"accuracy_pct", "traffic_kb",
                                                 "node_energy_uj"};
  return names;
}

}  // namespace isomap::e2e
