#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "exec/exec.hpp"
#include "field/bathymetry.hpp"
#include "field/blended_field.hpp"
#include "field/gaussian_field.hpp"
#include "isomap/continuous.hpp"
#include "obs/obs.hpp"
#include "obs/run_summary.hpp"
#include "serve/wire.hpp"
#include "sim/run_capsule.hpp"
#include "sim/runners.hpp"
#include "util/rng.hpp"

namespace isomap::serve {
namespace {

double micros_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::shared_ptr<const ScalarField> make_drift_field(const DeploymentSpec& spec,
                                                    const FieldBounds& bounds) {
  if (spec.drift_per_round <= 0.0) return nullptr;
  switch (spec.drift_target) {
    case FieldKind::kHarbor:
      return std::make_shared<GaussianField>(harbor_bathymetry(bounds));
    case FieldKind::kSilted:
      return std::make_shared<GaussianField>(silted_harbor_bathymetry(bounds));
    case FieldKind::kMultiBasin:
      return std::make_shared<GaussianField>(multi_basin_bathymetry(bounds));
    case FieldKind::kSloped:
      return std::make_shared<GaussianField>(sloped_seabed_bathymetry(bounds));
    case FieldKind::kRandom:
      break;  // Rejected by the validator (no seeded drift targets).
  }
  return nullptr;
}

ContinuousOptions make_continuous_options(const DeploymentSpec& spec,
                                          const Scenario& scenario) {
  ContinuousOptions options;
  options.base = isomap_options(scenario, spec.num_levels);
  options.stale_rounds = spec.stale_rounds;
  options.engine = spec.engine;
  return options;
}

}  // namespace

/// One hosted deployment. Members are declared in dependency order (the
/// Rebuilt pattern): the mapper holds pointers into the shard's own
/// deployment/graph/tree, so a Shard is heap-pinned (unique_ptr in the
/// service) and never relocated after construction. Two construction
/// paths share the struct: a field-driven shard generated from a
/// DeploymentSpec (readings sampled from a drifting field each tick) and
/// a capsule-driven shard rebuilt from a recorded continuous run
/// (readings scripted from the capsule's stored rounds).
struct IsoMapService::Shard {
  std::string name;
  ScenarioConfig config;      ///< Provenance for capsule export.
  double radio_range = 0.0;
  double drift_per_round = 0.0;
  std::shared_ptr<const ScalarField> base_field;   ///< Null = scripted.
  std::shared_ptr<const ScalarField> drift_field;  ///< Null = frozen field.
  ContinuousOptions options;
  std::vector<double> isolevels;
  Deployment deployment;
  CommGraph graph;
  RoutingTree tree;
  ContinuousMapper mapper;
  Ledger ledger;
  obs::MetricsRegistry metrics;
  std::optional<RoundResult> last;    ///< Set by every tick().
  std::vector<double> readings;       ///< Per-round sampling scratch.
  std::vector<std::vector<double>> scripted;  ///< Capsule-driven rounds.
  std::vector<std::vector<double>> recorded_rounds;  ///< Capsule export.

  explicit Shard(const DeploymentSpec& s)
      : Shard(s, make_scenario(s.to_config())) {}

  /// Field-driven shard. Takes the freshly built Scenario by value and
  /// moves its deployment/graph/tree into place (both are value types
  /// with no back-references; the mapper binds to the members, never to
  /// the moved-from temporaries). `options` is initialized before the
  /// moves — declaration order guarantees it still sees the intact
  /// scenario.
  Shard(const DeploymentSpec& s, Scenario&& sc)
      : name(s.name),
        config(sc.config),
        radio_range(sc.config.effective_radio_range()),
        drift_per_round(s.drift_per_round),
        base_field(sc.field_storage),
        drift_field(make_drift_field(s, sc.field.bounds())),
        options(make_continuous_options(s, sc)),
        isolevels(options.base.query.isolevels()),
        deployment(std::move(sc.deployment)),
        graph(std::move(sc.graph)),
        tree(std::move(sc.tree)),
        mapper(options, deployment, graph, tree),
        ledger(deployment.size()) {}

  /// Capsule-driven shard: deployment snapshot materialized, graph/tree
  /// re-derived from radio_range + sink exactly as capsule::replay does.
  Shard(std::string shard_name, const capsule::RunCapsule& c)
      : name(std::move(shard_name)),
        config(c.config),
        radio_range(c.radio_range),
        options(c.continuous),
        isolevels(options.base.query.isolevels()),
        deployment(c.deployment.materialize()),
        graph(deployment, c.radio_range),
        tree(graph, c.sink),
        mapper(options, deployment, graph, tree),
        ledger(deployment.size()),
        scripted(c.rounds) {}

  /// Sample this shard's readings for round `round_index` (1-based). A
  /// scripted shard replays its capsule's recorded rounds (clamped to
  /// the last one). A field-driven shard's drift alpha follows a
  /// triangular ping-pong schedule so arbitrarily long soaks keep
  /// producing reading deltas instead of saturating at the drift target.
  void sample_readings(int round_index) {
    if (!scripted.empty()) {
      const std::size_t r =
          std::min(static_cast<std::size_t>(round_index - 1),
                   scripted.size() - 1);
      readings = scripted[r];
      return;
    }
    const double phase =
        drift_per_round * static_cast<double>(round_index - 1);
    const double m = std::fmod(phase, 2.0);
    const double alpha = 1.0 - std::abs(1.0 - m);
    const ScalarField* field = base_field.get();
    std::optional<BlendedField> blended;
    if (drift_field != nullptr && alpha > 0.0) {
      blended.emplace(*base_field, *drift_field, alpha);
      field = &*blended;
    }
    deployment.sense(*field, readings);
  }
};

IsoMapService::IsoMapService(ServiceScenario scenario)
    : scenario_(std::move(scenario)) {
  shards_.reserve(scenario_.deployments.size());
  for (const DeploymentSpec& d : scenario_.deployments)
    shards_.push_back(std::make_unique<Shard>(d));
}

IsoMapService::~IsoMapService() = default;

const std::string& IsoMapService::shard_name(int shard) const {
  return shards_[static_cast<std::size_t>(shard)]->name;
}

int IsoMapService::find_shard(const std::string& name) const {
  for (std::size_t i = 0; i < shards_.size(); ++i)
    if (shards_[i]->name == name) return static_cast<int>(i);
  return -1;
}

int IsoMapService::attach_capsule_shard(const std::string& name,
                                        const capsule::RunCapsule& capsule) {
  if (rounds_done_ > 0)
    throw std::logic_error(
        "IsoMapService::attach_capsule_shard: service already ticked");
  if (capsule.kind != capsule::RunKind::kContinuous)
    throw std::invalid_argument(
        "IsoMapService::attach_capsule_shard: capsule is not a continuous "
        "run");
  if (capsule.rounds.empty())
    throw std::invalid_argument(
        "IsoMapService::attach_capsule_shard: capsule holds no readings "
        "rounds");
  if (find_shard(name) >= 0)
    throw std::invalid_argument(
        "IsoMapService::attach_capsule_shard: duplicate shard name \"" +
        name + "\"");
  shards_.push_back(std::make_unique<Shard>(name, capsule));
  return shard_count() - 1;
}

int IsoMapService::num_levels(int shard) const {
  return static_cast<int>(
      shards_[static_cast<std::size_t>(shard)]->isolevels.size());
}

void IsoMapService::tick() {
  const int round = ++rounds_done_;
  // Shards are independent; the per-shard ObsScope installed inside the
  // body makes every emission (metrics, phase timers, ledger trace tags)
  // thread-local, so the advance is bitwise thread-count-independent.
  exec::parallel_for(shards_.size(), [&](std::size_t i) {
    Shard& s = *shards_[i];
    const obs::ObsScope scope(&s.metrics, nullptr);
    obs::PhaseTimer timer(obs::kPhaseTick);
    obs::count("serve.rounds");
    s.sample_readings(round);
    if (static_cast<int>(s.recorded_rounds.size()) < kCapsuleRoundsCap)
      s.recorded_rounds.push_back(s.readings);
    s.last.emplace(s.mapper.round(s.readings, s.ledger));
  });
}

bool IsoMapService::normalize_levels(QueryRequest& request) const {
  if (request.shard < 0 || request.shard >= shard_count()) return false;
  std::vector<int>& levels = request.levels;
  std::sort(levels.begin(), levels.end());
  levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
  if (levels.empty()) return false;
  return levels.front() >= 0 && levels.back() < num_levels(request.shard);
}

std::vector<QueryRequest> IsoMapService::mix_for_tick() const {
  const QueryMixSpec& mix = scenario_.query_mix;
  std::vector<QueryRequest> out;
  out.reserve(static_cast<std::size_t>(mix.queries_per_tick));
  // Stateless per-tick stream: the mix for tick t is a pure function of
  // (mix seed, t), independent of how many batches were served before.
  Rng rng(mix.seed ^
          (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(rounds_done_)));
  for (int q = 0; q < mix.queries_per_tick; ++q) {
    QueryRequest r;
    r.shard = static_cast<int>(
        rng.uniform_int(static_cast<std::uint64_t>(shard_count())));
    const int n = num_levels(r.shard);
    if (rng.bernoulli(mix.subset_fraction)) {
      for (int k = 0; k < n; ++k)
        if (rng.bernoulli(0.5)) r.levels.push_back(k);
      if (r.levels.empty())
        r.levels.push_back(
            static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(n))));
    } else {
      r.levels.resize(static_cast<std::size_t>(n));
      for (int k = 0; k < n; ++k) r.levels[static_cast<std::size_t>(k)] = k;
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::string IsoMapService::cache_key(const QueryRequest& request) const {
  const Shard& s = *shards_[static_cast<std::size_t>(request.shard)];
  const std::vector<std::uint64_t>& fps = s.mapper.level_fingerprints();
  std::string key = s.name;
  key += '|';
  for (const int k : request.levels) {
    key += std::to_string(k);
    key += ',';
  }
  key += '|';
  char buf[20];
  for (const int k : request.levels) {
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(
                      fps[static_cast<std::size_t>(k)]));
    key += buf;
    key += ',';
  }
  return key;
}

std::shared_ptr<const std::string> IsoMapService::build_body(
    const QueryRequest& request) const {
  const Shard& s = *shards_[static_cast<std::size_t>(request.shard)];
  return std::make_shared<const std::string>(serialize_response(
      s.name, wire_levels_from_map(s.last->map, request.levels)));
}

void IsoMapService::cache_insert(std::string key,
                                 std::shared_ptr<const std::string> body) {
  if (!cache_.emplace(key, std::move(body)).second) return;
  cache_fifo_.push_back(std::move(key));
  while (cache_.size() > static_cast<std::size_t>(scenario_.cache_capacity)) {
    cache_.erase(cache_fifo_.front());
    cache_fifo_.pop_front();
  }
}

std::vector<QueryResponse> IsoMapService::serve_batch(
    const std::vector<QueryRequest>& batch) {
  if (rounds_done_ == 0)
    throw std::logic_error(
        "IsoMapService::serve_batch: no round ticked yet (fingerprints "
        "undefined)");
  std::vector<QueryResponse> out(batch.size());
  std::vector<std::string> keys(batch.size());

  // Phase 1 (serial): cache lookups; deduplicate the misses in
  // first-appearance order.
  std::unordered_map<std::string, std::size_t> miss_of_key;
  std::vector<std::size_t> miss_query;  ///< Representative query per build.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    keys[i] = cache_key(batch[i]);
    const auto it = cache_.find(keys[i]);
    if (it != cache_.end()) {
      out[i].cache_hit = true;
      out[i].body = it->second;
      out[i].latency_us = micros_since(t0);
    } else if (miss_of_key.find(keys[i]) == miss_of_key.end()) {
      miss_of_key.emplace(keys[i], miss_query.size());
      miss_query.push_back(i);
    }
  }

  // Phase 2 (parallel): build the unique missing bodies. Each slot is
  // written by exactly one task and the bodies touch only their own
  // shard's (read-only between ticks) state, so the batch result is
  // thread-count-independent. Empty scope: serialization emits nothing,
  // and worker threads must not inherit the driver's context.
  std::vector<std::shared_ptr<const std::string>> built(miss_query.size());
  std::vector<double> built_us(miss_query.size());
  exec::parallel_for(miss_query.size(), [&](std::size_t b) {
    const obs::ObsScope scope(nullptr, nullptr);
    const auto t0 = std::chrono::steady_clock::now();
    built[b] = build_body(batch[miss_query[b]]);
    built_us[b] = micros_since(t0);
  });

  // Phase 3 (serial): commit to the cache in batch order, resolve every
  // miss, account, and run the oracle lane.
  for (std::size_t b = 0; b < miss_query.size(); ++b)
    cache_insert(keys[miss_query[b]], built[b]);
  stats_.unique_bodies_built += static_cast<long long>(miss_query.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ++stats_.queries;
    if (out[i].body) {
      ++stats_.cache_hits;
      lat_hit_.add(out[i].latency_us);
    } else {
      const std::size_t b = miss_of_key.at(keys[i]);
      out[i].cache_hit = false;
      out[i].body = built[b];
      out[i].latency_us = built_us[b];
      ++stats_.cache_misses;
      lat_miss_.add(out[i].latency_us);
    }
    lat_all_.add(out[i].latency_us);
    const int every = scenario_.oracle_check_every;
    if (every > 0 && stats_.queries % every == 0) {
      ++stats_.oracle_checks;
      if (const auto divergence = oracle_check(batch[i], *out[i].body)) {
        ++stats_.oracle_failures;
        if (first_divergence_.empty()) first_divergence_ = *divergence;
      }
    }
  }
  return out;
}

std::optional<std::string> IsoMapService::oracle_check(
    const QueryRequest& request, const std::string& served) const {
  const Shard& s = *shards_[static_cast<std::size_t>(request.shard)];
  // Empty scope: the rebuild's filter/map phases must not pollute the
  // shard's round metrics.
  const obs::ObsScope scope(nullptr, nullptr);
  const std::vector<IsolineReport> reports = s.mapper.post_filter_reports();
  const ContourMap fresh =
      ContourMapBuilder(s.deployment.bounds(), s.options.base.regulation)
          .build(reports, s.isolevels);
  const std::string rebuilt =
      serialize_response(s.name, wire_levels_from_map(fresh, request.levels));
  if (rebuilt == served) return std::nullopt;
  std::ostringstream os;
  os << "deployment \"" << s.name << "\" round " << rounds_done_
     << " levels [";
  for (std::size_t k = 0; k < request.levels.size(); ++k)
    os << (k ? "," : "") << request.levels[k];
  os << "]: served body (" << served.size()
     << " bytes) != fresh rebuild (" << rebuilt.size() << " bytes)";
  return os.str();
}

JsonValue IsoMapService::service_summary(double wall_s) const {
  const auto quantile = [](const SampleSet& set, double q) {
    return set.count() ? set.quantile(q) : 0.0;
  };
  JsonValue j = JsonValue::object();
  j["scenario"] = scenario_.name;
  j["rounds"] = rounds_done_;
  j["shards"] = shard_count();
  j["queries"] = stats_.queries;
  j["cache_hits"] = stats_.cache_hits;
  j["cache_misses"] = stats_.cache_misses;
  j["unique_bodies_built"] = stats_.unique_bodies_built;
  j["hit_rate_pct"] =
      stats_.queries > 0
          ? 100.0 * static_cast<double>(stats_.cache_hits) /
                static_cast<double>(stats_.queries)
          : 0.0;
  j["cache_size"] = cache_.size();
  j["oracle_checks"] = stats_.oracle_checks;
  j["oracle_failures"] = stats_.oracle_failures;
  if (!first_divergence_.empty()) j["first_divergence"] = first_divergence_;
  JsonValue lat = JsonValue::object();
  lat["p50_us"] = quantile(lat_all_, 0.5);
  lat["p99_us"] = quantile(lat_all_, 0.99);
  lat["hit_p50_us"] = quantile(lat_hit_, 0.5);
  lat["hit_p99_us"] = quantile(lat_hit_, 0.99);
  lat["miss_p50_us"] = quantile(lat_miss_, 0.5);
  lat["miss_p99_us"] = quantile(lat_miss_, 0.99);
  j["latency"] = lat;
  j["wall_s"] = wall_s;
  JsonValue per_shard = JsonValue::array();
  for (const auto& shard : shards_) {
    JsonValue sj = JsonValue::object();
    sj["name"] = shard->name;
    sj["nodes"] = shard->deployment.size();
    sj["levels"] = shard->isolevels.size();
    sj["sink_reports"] = shard->mapper.sink_table_size();
    sj["rounds_recorded"] = shard->recorded_rounds.size();
    sj["tx_bytes"] = shard->ledger.total_tx_bytes();
    sj["rx_bytes"] = shard->ledger.total_rx_bytes();
    sj["ops"] = shard->ledger.total_ops();
    per_shard.push_back(std::move(sj));
  }
  j["per_shard"] = std::move(per_shard);
  return j;
}

JsonValue IsoMapService::shard_summary_json(int shard, double wall_s) const {
  const Shard& s = *shards_[static_cast<std::size_t>(shard)];
  const obs::RunSummary summary = obs::make_run_summary(
      "serve." + s.name, s.metrics, ledger_totals(s.ledger), wall_s);
  return summary.to_json();
}

bool IsoMapService::save_shard_capsule(int shard,
                                       const std::string& path) const {
  const Shard& s = *shards_[static_cast<std::size_t>(shard)];
  capsule::RunCapsule c;
  c.kind = capsule::RunKind::kContinuous;
  c.label = "serve." + s.name;
  c.config = s.config;
  c.options = s.options.base;
  c.continuous = s.options;
  c.deployment = capsule::DeploymentSnapshot::of(s.deployment);
  c.radio_range = s.radio_range;
  c.sink = s.tree.sink();
  c.rounds = s.recorded_rounds;
  // replay() installs its own scopes; keep the driver's context out.
  const obs::ObsScope scope(nullptr, nullptr);
  const capsule::RunCapsule filled = capsule::replay(c);
  return capsule::save(path, filled);
}

}  // namespace isomap::serve
