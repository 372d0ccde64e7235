#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace isomap::e2e {

/// How one workload run is driven. Every workload is a closed loop on one
/// driver thread: the next round starts only after the previous round, its
/// reader batch and its checks finished.
struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< Minimum wall time of the timed loop.
  bool trace = false;     ///< Traced run: per-layer metrics instead of e2e.
  bool smoke = false;     ///< Toy sizes and a handful of rounds.
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::vector<Metric> metrics;  ///< End-to-end, or per-layer when traced.
  std::vector<Metric> extras;   ///< Printed only: tails, wall times as
                                ///< measured, counts, and layers only some
                                ///< workloads have.
  long long attempted = 0;      ///< Cold starts, rounds and batches run.
  long long failed = 0;         ///< Operations whose output failed a check.
  std::string first_failure;
  JsonValue trace;              ///< Span dump of a traced run, else null.
};

struct Workload {
  const char* name;
  Outcome (*run)(const RunOptions&);
};

/// The four benchmark workloads, in BENCHMARK.json order.
const std::vector<Workload>& workloads();

/// Metric names a run must report, in output order.
const std::vector<std::string>& end_to_end_names();
const std::vector<std::string>& per_layer_names();

/// The end-to-end metrics fixed by the seed alone: a change that keeps the
/// program's behaviour keeps them bit for bit.
const std::vector<std::string>& deterministic_names();

}  // namespace isomap::e2e
