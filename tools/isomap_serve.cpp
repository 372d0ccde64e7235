// isomap_serve: thin front-end over serve::IsoMapService — host the
// deployments of a service scenario, advance them on virtual-time ticks
// and answer contour queries from the fingerprint-keyed response cache
// (docs/SERVICE.md).
//
// Usage:
//   isomap_serve validate <scenario.json>
//   isomap_serve run <scenario.json> [--threads=N] [--soak-s=S]
//       [--oracle-every=K] [--out=<dir>] [--capsules=<dir>]
//       [--min-cache-hits=N]
//   isomap_serve serve <scenario.json> [--threads=N] [--oracle-every=K]
//
// `validate` parses + validates the scenario and prints its shape.
// `run` drives the scenario's own query mix: one batch per tick, for the
// scenario's round count — or, with --soak-s, repeating until S seconds
// of wall clock elapsed (the CI soak lane). --out writes the service
// summary and the per-shard RunSummaries; --capsules exports each shard
// as a replayable run capsule (isomap_replay / isomap_inspect
// --reconcile). --min-cache-hits asserts a floor on the lifetime
// cache-hit counter. `serve` reads newline-delimited JSON from stdin:
//   {"deployment":"<name>","levels":[0,2]}   enqueue a query
//   {"cmd":"tick"}                           advance one round + answer
//                                            the enqueued batch in order
//   {"cmd":"stats"}                          print the service summary
//   {"cmd":"quit"}  (or EOF)                 flush and exit
// A line longer than 64 KiB is answered {"error":"request line too long"}
// and skipped through its newline.
//
// Exit codes (deterministic, asserted by the CI service-smoke job):
//   0  success
//   2  usage error (bad flags / missing subcommand)
//   3  invalid scenario (syntax, schema, range, unreadable file)
//   4  runtime divergence (oracle mismatch, --min-cache-hits unmet)

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "exec/exec.hpp"
#include "serve/scenario.hpp"
#include "serve/service.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

using namespace isomap;

namespace {

/// Longest request line `serve` reads, newline excluded.
constexpr std::size_t kMaxRequestLine = std::size_t{64} << 10;

/// Read the next line of `in` into `line` like std::getline, but keep at
/// most kMaxRequestLine bytes: a longer line is skipped through its
/// newline and `too_long` set. False at end of input.
bool read_request_line(std::istream& in, std::string& line, bool& too_long) {
  using traits = std::char_traits<char>;
  line.clear();
  too_long = false;
  std::streambuf& buf = *in.rdbuf();
  for (int c = buf.sbumpc();; c = buf.sbumpc()) {
    if (traits::eq_int_type(c, traits::eof())) return !line.empty() || too_long;
    if (c == '\n') return true;
    if (line.size() < kMaxRequestLine)
      line.push_back(traits::to_char_type(c));
    else
      too_long = true;
  }
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

int usage() {
  std::cerr
      << "usage: isomap_serve validate <scenario.json>\n"
         "       isomap_serve run <scenario.json> [--threads=N] [--soak-s=S]"
         " [--oracle-every=K] [--out=<dir>] [--capsules=<dir>]"
         " [--min-cache-hits=N]\n"
         "       isomap_serve serve <scenario.json> [--threads=N]"
         " [--oracle-every=K]\n";
  return 2;
}

/// Write the summary artifacts: <out>/service_summary.json plus one
/// RunSummary per shard. Returns false on I/O error.
bool write_artifacts(const serve::IsoMapService& service,
                     const std::string& out_dir, double wall_s) {
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  {
    std::ofstream out(out_dir + "/service_summary.json");
    out << service.service_summary(wall_s).dump(2) << "\n";
    if (!out) return false;
  }
  for (int i = 0; i < service.shard_count(); ++i) {
    std::ofstream out(out_dir + "/shard_" + service.shard_name(i) + ".json");
    out << service.shard_summary_json(i, wall_s).dump(2) << "\n";
    if (!out) return false;
  }
  return true;
}

int run_mode(const CliArgs& args, serve::ServiceScenario scenario) {
  const double soak_s = args.get_double("soak-s", 0.0);
  const auto t0 = std::chrono::steady_clock::now();
  serve::IsoMapService service(std::move(scenario));

  long long batches = 0;
  for (;;) {
    service.tick();
    service.serve_batch(service.mix_for_tick());
    ++batches;
    if (soak_s > 0.0) {
      // Soak: loop the scenario's round schedule until the clock runs
      // out (the drift ping-pong keeps generating reading deltas).
      if (seconds_since(t0) >= soak_s) break;
    } else if (service.rounds_done() >= service.scenario().rounds) {
      break;
    }
  }
  const double wall_s = seconds_since(t0);

  if (const auto capsule_dir = args.get("capsules")) {
    std::error_code ec;
    std::filesystem::create_directories(*capsule_dir, ec);
    for (int i = 0; i < service.shard_count(); ++i) {
      const std::string path =
          *capsule_dir + "/" + service.shard_name(i) + ".capsule";
      if (!service.save_shard_capsule(i, path)) {
        std::cerr << "isomap_serve: cannot write capsule " << path << "\n";
        return 2;
      }
    }
    std::cout << "capsules: " << service.shard_count() << " shard(s) -> "
              << *capsule_dir << "\n";
  }
  if (const auto out_dir = args.get("out")) {
    if (!write_artifacts(service, *out_dir, wall_s)) {
      std::cerr << "isomap_serve: cannot write artifacts to " << *out_dir
                << "\n";
      return 2;
    }
  }

  const serve::ServiceStats& stats = service.stats();
  std::cout << "rounds:   " << service.rounds_done() << " (" << batches
            << " batches, " << exec::thread_count() << " thread(s), "
            << wall_s << " s)\n"
            << "queries:  " << stats.queries << " (" << stats.cache_hits
            << " hits, " << stats.cache_misses << " misses, "
            << stats.unique_bodies_built << " bodies built)\n"
            << "oracle:   " << stats.oracle_checks << " checks, "
            << stats.oracle_failures << " failures\n";

  if (stats.oracle_failures > 0) {
    std::cerr << "DIVERGENCE: " << service.first_divergence() << "\n";
    return 4;
  }
  if (args.has("min-cache-hits") &&
      stats.cache_hits < args.get_int("min-cache-hits", 0)) {
    std::cerr << "isomap_serve: cache hits " << stats.cache_hits
              << " below required --min-cache-hits="
              << args.get_int("min-cache-hits", 0) << "\n";
    return 4;
  }
  std::cout << "OK\n";
  return 0;
}

int serve_mode(serve::ServiceScenario scenario) {
  serve::IsoMapService service(std::move(scenario));
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<serve::QueryRequest> pending;

  const auto flush = [&]() {
    if (pending.empty()) return;
    if (service.rounds_done() == 0) service.tick();
    const auto responses = service.serve_batch(pending);
    for (const auto& r : responses) {
      std::cout << "{\"cache_hit\":" << (r.cache_hit ? "true" : "false")
                << ",\"response\":" << *r.body << "}\n";
    }
    pending.clear();
  };

  std::string line;
  bool too_long = false;
  while (read_request_line(std::cin, line, too_long)) {
    if (too_long) {
      std::cout << "{\"error\":\"request line too long\"}\n";
      continue;
    }
    if (line.empty()) continue;
    const auto doc = JsonValue::parse(line);
    if (!doc || !doc->is_object()) {
      std::cout << "{\"error\":\"not a JSON object\"}\n";
      continue;
    }
    const std::string cmd = doc->string_or("cmd", "");
    if (cmd == "quit") break;
    if (cmd == "tick") {
      service.tick();
      flush();
      continue;
    }
    if (cmd == "stats") {
      std::cout << service.service_summary(seconds_since(t0)).dump() << "\n";
      continue;
    }
    const JsonValue* name = doc->find("deployment");
    const JsonValue* levels = doc->find("levels");
    if (name == nullptr || !name->is_string() || levels == nullptr ||
        !levels->is_array()) {
      std::cout << "{\"error\":\"expected {deployment, levels} or {cmd}\"}\n";
      continue;
    }
    serve::QueryRequest request;
    request.shard = service.find_shard(name->as_string());
    bool ok = request.shard >= 0;
    for (std::size_t i = 0; ok && i < levels->size(); ++i) {
      // A level is a finite integral number in [0, num_levels): checked
      // on the double, so 1.9, -0.5 or 1e300 never reach the int cast.
      const JsonValue& l = levels->at(i);
      const double x = l.is_number() ? l.as_number() : -1.0;
      ok = std::isfinite(x) && x == std::floor(x) && x >= 0.0 &&
           x < service.num_levels(request.shard);
      if (ok) request.levels.push_back(static_cast<int>(x));
    }
    if (!ok || !service.normalize_levels(request)) {
      std::cout << "{\"error\":\"unknown deployment or bad levels\"}\n";
      continue;
    }
    pending.push_back(std::move(request));
  }
  if (!pending.empty()) {
    if (service.rounds_done() == 0) service.tick();
    flush();
  }
  if (service.stats().oracle_failures > 0) {
    std::cerr << "DIVERGENCE: " << service.first_divergence() << "\n";
    return 4;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.positional().size() < 2) return usage();
  const std::string& mode = args.positional()[0];
  const std::string& path = args.positional()[1];
  if (mode != "validate" && mode != "run" && mode != "serve") return usage();
  if (const int threads = args.get_int("threads", 0); threads > 0)
    exec::set_thread_count(threads);

  serve::ServiceScenario scenario;
  try {
    scenario = serve::load_service_scenario(path);
  } catch (const serve::ScenarioError& e) {
    std::cerr << "isomap_serve: invalid scenario: " << e.what() << "\n";
    return 3;
  }
  if (const int every = args.get_int("oracle-every", -1); every >= 0)
    scenario.oracle_check_every = every;

  if (mode == "validate") {
    std::cout << serve::describe(scenario) << "OK\n";
    return 0;
  }
  try {
    if (mode == "run") return run_mode(args, std::move(scenario));
    return serve_mode(std::move(scenario));
  } catch (const std::exception& e) {
    // A scenario that validates but cannot materialize (e.g. every node
    // failed, leaving no sink) is still an invalid scenario.
    std::cerr << "isomap_serve: " << e.what() << "\n";
    return 3;
  }
}
