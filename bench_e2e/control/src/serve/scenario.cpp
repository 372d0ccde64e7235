#include "serve/scenario.hpp"

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

#include "util/json.hpp"

namespace isomap::serve {
namespace {

std::string kind_name(const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "a bool";
    case JsonValue::Kind::kNumber: return "a number";
    case JsonValue::Kind::kString: return "a string";
    case JsonValue::Kind::kArray: return "an array";
    case JsonValue::Kind::kObject: return "an object";
  }
  return "unknown";
}

const JsonValue& expect_object(const JsonValue& v, const std::string& path) {
  if (!v.is_object())
    throw ScenarioError(path, "must be an object, got " + kind_name(v));
  return v;
}

/// Reject keys outside the allowed set — typos fail loudly instead of
/// silently running a different experiment than the author wrote.
void reject_unknown_keys(const JsonValue& obj,
                         std::initializer_list<const char*> allowed,
                         const std::string& path) {
  for (const auto& [key, value] : obj.members()) {
    (void)value;
    bool ok = false;
    for (const char* a : allowed)
      if (key == a) {
        ok = true;
        break;
      }
    if (!ok) throw ScenarioError(path + "." + key, "unknown key");
  }
}

double get_number(const JsonValue& obj, const char* key, double lo, double hi,
                  double def, const std::string& path, bool required = false) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    if (required) throw ScenarioError(path + "." + key, "required key missing");
    return def;
  }
  if (!v->is_number())
    throw ScenarioError(path + "." + key,
                        "must be a number, got " + kind_name(*v));
  const double d = v->as_number();
  if (!(d >= lo && d <= hi)) {
    std::ostringstream os;
    os << "value " << d << " out of range [" << lo << ", " << hi << "]";
    throw ScenarioError(path + "." + key, os.str());
  }
  return d;
}

long long get_int(const JsonValue& obj, const char* key, long long lo,
                  long long hi, long long def, const std::string& path,
                  bool required = false) {
  const double d = get_number(obj, key, static_cast<double>(lo),
                              static_cast<double>(hi),
                              static_cast<double>(def), path, required);
  if (d != std::floor(d))
    throw ScenarioError(path + "." + std::string(key), "must be an integer");
  return static_cast<long long>(d);
}

std::string get_string(const JsonValue& obj, const char* key,
                       const std::string& def, const std::string& path,
                       bool required = false) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    if (required) throw ScenarioError(path + "." + key, "required key missing");
    return def;
  }
  if (!v->is_string())
    throw ScenarioError(path + "." + key,
                        "must be a string, got " + kind_name(*v));
  return v->as_string();
}

bool get_bool(const JsonValue& obj, const char* key, bool def,
              const std::string& path) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return def;
  if (!v->is_bool())
    throw ScenarioError(path + "." + key,
                        "must be a bool, got " + kind_name(*v));
  return v->as_bool();
}

FieldKind parse_field(const std::string& s, const std::string& path,
                      bool allow_random) {
  if (s == "harbor") return FieldKind::kHarbor;
  if (s == "silted") return FieldKind::kSilted;
  if (s == "multi_basin") return FieldKind::kMultiBasin;
  if (s == "sloped") return FieldKind::kSloped;
  if (s == "random") {
    if (allow_random) return FieldKind::kRandom;
    throw ScenarioError(path,
                        "\"random\" needs a seeded generator and cannot be a "
                        "drift target");
  }
  throw ScenarioError(
      path, "\"" + s +
                "\" is not a field kind (harbor|silted|multi_basin|random|"
                "sloped)");
}

const char* field_name(FieldKind kind) {
  switch (kind) {
    case FieldKind::kHarbor: return "harbor";
    case FieldKind::kSilted: return "silted";
    case FieldKind::kMultiBasin: return "multi_basin";
    case FieldKind::kRandom: return "random";
    case FieldKind::kSloped: return "sloped";
  }
  return "?";
}

DeploymentSpec parse_deployment(const JsonValue& v, const std::string& path) {
  expect_object(v, path);
  reject_unknown_keys(v,
                      {"name", "nodes", "field_side", "field", "drift_target",
                       "drift_per_round", "seed", "num_levels", "stale_rounds",
                       "engine", "failure_fraction", "grid"},
                      path);
  DeploymentSpec d;
  d.name = get_string(v, "name", "", path, /*required=*/true);
  if (d.name.empty() || d.name.size() > 64)
    throw ScenarioError(path + ".name", "must be 1..64 characters");
  d.nodes = static_cast<int>(get_int(v, "nodes", 16, 1000000, 400, path));
  d.field_side = get_number(v, "field_side", 4.0, 2000.0, 20.0, path);
  d.field = parse_field(get_string(v, "field", "harbor", path), path + ".field",
                        /*allow_random=*/true);
  d.drift_target =
      parse_field(get_string(v, "drift_target", "silted", path),
                  path + ".drift_target", /*allow_random=*/false);
  d.drift_per_round = get_number(v, "drift_per_round", 0.0, 1.0, 0.0, path);
  d.seed = static_cast<std::uint64_t>(
      get_int(v, "seed", 0, (1LL << 53), 1, path));
  d.num_levels = static_cast<int>(get_int(v, "num_levels", 1, 16, 4, path));
  d.stale_rounds =
      static_cast<int>(get_int(v, "stale_rounds", 0, 100000, 0, path));
  const std::string engine = get_string(v, "engine", "incremental", path);
  if (engine == "incremental")
    d.engine = ContinuousEngine::kIncremental;
  else if (engine == "oracle")
    d.engine = ContinuousEngine::kOracle;
  else
    throw ScenarioError(path + ".engine",
                        "\"" + engine + "\" is not incremental|oracle");
  d.failure_fraction =
      get_number(v, "failure_fraction", 0.0, 0.9, 0.0, path);
  d.grid = get_bool(v, "grid", false, path);
  return d;
}

QueryMixSpec parse_query_mix(const JsonValue& v, const std::string& path) {
  expect_object(v, path);
  reject_unknown_keys(v, {"queries_per_tick", "subset_fraction", "seed"},
                      path);
  QueryMixSpec q;
  q.queries_per_tick =
      static_cast<int>(get_int(v, "queries_per_tick", 0, 1000000, 16, path));
  q.subset_fraction = get_number(v, "subset_fraction", 0.0, 1.0, 0.5, path);
  q.seed =
      static_cast<std::uint64_t>(get_int(v, "seed", 0, (1LL << 53), 1, path));
  return q;
}

}  // namespace

ScenarioConfig DeploymentSpec::to_config() const {
  ScenarioConfig config;
  config.num_nodes = nodes;
  config.field_side = field_side;
  config.field = field;
  config.seed = seed;
  config.grid_deployment = grid;
  config.failure_fraction = failure_fraction;
  return config;
}

ServiceScenario parse_service_scenario(std::string_view text) {
  const auto doc = JsonValue::parse(text);
  if (!doc) throw ScenarioError("$", "not a valid JSON document");
  expect_object(*doc, "$");
  reject_unknown_keys(*doc,
                      {"schema", "name", "rounds", "oracle_check_every",
                       "cache_capacity", "deployments", "query_mix"},
                      "$");
  const long long schema =
      get_int(*doc, "schema", 1, 1, 0, "$", /*required=*/true);
  (void)schema;  // Range pin [1, 1] is the whole check.

  ServiceScenario sc;
  sc.name = get_string(*doc, "name", "", "$", /*required=*/true);
  if (sc.name.empty() || sc.name.size() > 64)
    throw ScenarioError("$.name", "must be 1..64 characters");
  sc.rounds = static_cast<int>(
      get_int(*doc, "rounds", 1, 1000000, 0, "$", /*required=*/true));
  sc.oracle_check_every =
      static_cast<int>(get_int(*doc, "oracle_check_every", 0, 1000000, 0, "$"));
  sc.cache_capacity =
      static_cast<int>(get_int(*doc, "cache_capacity", 1, 1048576, 4096, "$"));

  const JsonValue* deployments = doc->find("deployments");
  if (deployments == nullptr)
    throw ScenarioError("$.deployments", "required key missing");
  if (!deployments->is_array())
    throw ScenarioError("$.deployments", "must be an array, got " +
                                             kind_name(*deployments));
  if (deployments->size() == 0 || deployments->size() > 64)
    throw ScenarioError("$.deployments", "must hold 1..64 deployments");
  std::set<std::string> names;
  for (std::size_t i = 0; i < deployments->size(); ++i) {
    const std::string path = "$.deployments[" + std::to_string(i) + "]";
    DeploymentSpec d = parse_deployment(deployments->at(i), path);
    if (!names.insert(d.name).second)
      throw ScenarioError(path + ".name",
                          "duplicate deployment name \"" + d.name + "\"");
    sc.deployments.push_back(std::move(d));
  }

  if (const JsonValue* mix = doc->find("query_mix"))
    sc.query_mix = parse_query_mix(*mix, "$.query_mix");
  return sc;
}

ServiceScenario load_service_scenario(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ScenarioError("$", "cannot read scenario file " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_service_scenario(buf.str());
}

std::string describe(const ServiceScenario& sc) {
  std::ostringstream os;
  os << "scenario \"" << sc.name << "\": " << sc.deployments.size()
     << " deployment(s), " << sc.rounds << " round(s), "
     << sc.query_mix.queries_per_tick << " queries/tick"
     << " (subset_fraction " << sc.query_mix.subset_fraction << ")"
     << ", cache capacity " << sc.cache_capacity;
  if (sc.oracle_check_every > 0)
    os << ", oracle check every " << sc.oracle_check_every << " queries";
  os << "\n";
  for (const DeploymentSpec& d : sc.deployments) {
    os << "  - " << d.name << ": " << d.nodes << " nodes on "
       << d.field_side << "x" << d.field_side << " " << field_name(d.field)
       << ", " << d.num_levels << " levels, "
       << (d.engine == ContinuousEngine::kIncremental ? "incremental"
                                                      : "oracle")
       << " engine";
    if (d.drift_per_round > 0.0)
      os << ", drift " << d.drift_per_round << "/round -> "
         << field_name(d.drift_target);
    if (d.failure_fraction > 0.0)
      os << ", " << d.failure_fraction * 100.0 << "% failed";
    os << "\n";
  }
  return os.str();
}

}  // namespace isomap::serve
