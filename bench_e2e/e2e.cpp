// End-to-end benchmark of the Iso-Map simulator and its map service.
//
//   isomap_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//              [--trace-out PATH] [--git-rev REV]
//   isomap_e2e --smoke [--manifest BENCHMARK.json]
//
// One workload per process (so peak RSS is per workload), one calling
// thread, and the exec pools of the program and of the control snapshot
// pinned to min(4, nproc) threads each; only one of them runs at a time.
// The last line of stdout is the result object {"correct", "attempted",
// "failed", "metrics"}: end-to-end metrics from an untraced run, or
// per-layer metrics from a traced one (--trace 1). The line before it
// records the run's context. Exit status is 0 only when every correctness
// check passed.
//
// --smoke runs every workload at toy size, traced and untraced, and checks
// the metric names (against the manifest when given) and values.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "control/control.hpp"
#include "exec/exec.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

using namespace isomap;
using namespace isomap::e2e;

namespace {

struct Args {
  std::string workload;
  RunOptions run;
  std::string trace_out;
  std::string git_rev = "unknown";
  bool smoke = false;
  std::string manifest;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "isomap_e2e: " << error
            << "\nusage: isomap_e2e --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out PATH] [--git-rev REV]\n"
               "       isomap_e2e --smoke [--manifest BENCHMARK.json]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.run.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      a.run.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.run.seconds >= 0.0))
        usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.run.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else if (flag == "--git-rev") {
      a.git_rev = value;
    } else if (flag == "--manifest") {
      a.manifest = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!a.smoke && a.workload.empty()) usage("--workload is required");
  return a;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

JsonValue context_json(const Args& a, const std::string& workload) {
  JsonValue c = JsonValue::object();
  c["workload"] = workload;
  c["seed"] = static_cast<double>(a.run.seed);
  c["seconds"] = a.run.seconds;
  c["trace"] = a.run.trace;
  c["nproc"] = static_cast<int>(std::thread::hardware_concurrency());
  c["exec_threads"] = exec::thread_count();
  c["build_type"] = ISOMAP_E2E_BUILD_TYPE;
  c["compiler"] = ISOMAP_E2E_COMPILER;
  c["git_rev"] = a.git_rev;
  JsonValue deterministic = JsonValue::array();
  for (const std::string& name : deterministic_names())
    deterministic.push_back(name);
  c["deterministic"] = std::move(deterministic);
  return c;
}

JsonValue metrics_json(const std::vector<Metric>& metrics) {
  JsonValue m = JsonValue::object();
  for (const Metric& metric : metrics) {
    JsonValue v = JsonValue::object();
    v["value"] = metric.value;
    v["unit"] = metric.unit;
    m[metric.name] = std::move(v);
  }
  return m;
}

JsonValue result_json(const Outcome& out) {
  JsonValue r = JsonValue::object();
  r["correct"] = out.failed == 0;
  r["attempted"] = out.attempted;
  r["failed"] = out.failed;
  r["metrics"] = metrics_json(out.metrics);
  return r;
}

void print_metrics(const std::string& workload, const Outcome& out) {
  std::printf("\n%s: %lld operations, %lld failed\n", workload.c_str(),
              out.attempted, out.failed);
  for (const Metric& m : out.metrics)
    std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const Metric& m : out.extras)
    std::printf("  %-28s %16.6g %s (not in BENCHMARK.json)\n", m.name.c_str(),
                m.value, m.unit.c_str());
  if (!out.first_failure.empty())
    std::printf("  first failure: %s\n", out.first_failure.c_str());
  std::fflush(stdout);
}

int run_one(const Args& a) {
  const Workload* w = find_workload(a.workload);
  if (!w) usage("unknown workload " + a.workload);
  const Outcome out = w->run(a.run);
  print_metrics(w->name, out);
  const JsonValue context = context_json(a, w->name);
  if (!a.trace_out.empty() && !out.trace.is_null()) {
    JsonValue dump = JsonValue::object();
    dump["context"] = context;
    dump["result"] = result_json(out);
    dump["extras"] = metrics_json(out.extras);
    dump["trace"] = out.trace;
    std::ofstream file(a.trace_out);
    file << dump.dump(1) << "\n";
    if (!file) std::cerr << "isomap_e2e: cannot write " << a.trace_out << "\n";
  }
  JsonValue line = JsonValue::object();
  line["context"] = context;
  std::cout << line.dump() << "\n" << result_json(out).dump() << std::endl;
  return out.failed == 0 ? 0 : 1;
}

/// Names a manifest (BENCHMARK.json) lists under `key`.
std::vector<std::string> manifest_names(const JsonValue& manifest,
                                        const std::string& key) {
  std::vector<std::string> names;
  if (const JsonValue* list = manifest.find(key))
    for (const JsonValue& item : list->items())
      names.push_back(item.string_or("name", ""));
  return names;
}

int run_smoke(const Args& a) {
  bool ok = true;
  const auto fail = [&ok](const std::string& what) {
    std::cerr << "[smoke] " << what << "\n";
    ok = false;
  };
  if (!a.manifest.empty()) {
    std::ifstream in(a.manifest);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const auto manifest = JsonValue::parse(text);
    if (!manifest) {
      fail("cannot parse manifest " + a.manifest);
    } else {
      std::vector<std::string> names;
      for (const Workload& w : workloads()) names.push_back(w.name);
      if (manifest_names(*manifest, "workloads") != names)
        fail("manifest workloads differ from the benchmark's");
      if (manifest_names(*manifest, "end_to_end") != end_to_end_names())
        fail("manifest end_to_end metrics differ from the benchmark's");
      if (manifest_names(*manifest, "per_layer") != per_layer_names())
        fail("manifest per_layer metrics differ from the benchmark's");
    }
  }
  for (const Workload& w : workloads()) {
    for (const bool trace : {false, true}) {
      RunOptions opts = a.run;
      opts.smoke = true;
      opts.trace = trace;
      const Outcome out = w.run(opts);
      print_metrics(std::string(w.name) + (trace ? " (traced)" : ""), out);
      const std::string tag = std::string(w.name) + (trace ? "/traced" : "");
      if (out.failed != 0 || out.attempted <= 0)
        fail(tag + ": checks failed: " + out.first_failure);
      const auto& names = trace ? per_layer_names() : end_to_end_names();
      if (out.metrics.size() != names.size())
        fail(tag + ": wrong metric count");
      for (std::size_t i = 0; i < out.metrics.size() && i < names.size(); ++i) {
        const Metric& m = out.metrics[i];
        if (m.name != names[i]) fail(tag + ": unexpected metric " + m.name);
        if (!std::isfinite(m.value)) fail(tag + ": " + m.name + " not finite");
        if (!trace && !(m.value > 0.0))
          fail(tag + ": " + m.name + " is not > 0");
      }
      if (trace && (out.trace.is_null() || !out.trace.find("layers")))
        fail(tag + ": no span dump");
    }
  }
  std::cout << (ok ? "smoke: ok" : "smoke: FAILED") << std::endl;
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const int threads = std::clamp(nproc, 1, 4);
  exec::set_thread_count(threads);
  e2e_control::set_thread_count(threads);
  try {
    return args.smoke ? run_smoke(args) : run_one(args);
  } catch (const std::exception& e) {
    std::cerr << "isomap_e2e: " << e.what() << "\n";
    return 1;
  }
}
