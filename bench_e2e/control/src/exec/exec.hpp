#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <vector>

#include "geometry/tile_grid.hpp"
#include "obs/obs.hpp"

namespace isomap::exec {

/// Parallel execution engine for the sink-side hot paths and the bench
/// harness: a single process-wide fixed-size thread pool behind two
/// deterministic primitives, parallel_for and parallel_trials.
///
/// Determinism contract: every parallel region produces bitwise-identical
/// results to its serial execution (ISOMAP_THREADS=1). The primitives
/// guarantee their side: each index/trial writes only its own output slot
/// and results are returned in index order. Callers guarantee theirs:
/// region bodies must not touch shared mutable state and must not emit
/// observability metrics/traces that the serial path would attribute
/// differently (worker threads run with an empty obs::Context).
///
/// Thread count resolution, strongest first:
///   1. set_thread_count(n)  — programmatic override (quickstart --threads)
///   2. ISOMAP_THREADS=n     — environment override (CI, determinism runs)
///   3. hardware concurrency — capped at 16 for the auto default
/// A count of 1 disables the pool entirely: parallel_for runs inline on
/// the calling thread with zero synchronisation.

/// Resolved number of threads a parallel region will use (>= 1).
int thread_count();

/// Override the thread count (n >= 1); n <= 0 clears the override and
/// returns to the ISOMAP_THREADS / hardware default. The pool is rebuilt
/// lazily on the next parallel region; never call mid-region.
void set_thread_count(int n);

/// True on a pool worker thread (nested parallel regions run inline).
bool on_worker_thread();

/// Invoke fn(i) for every i in [0, n), distributed over the pool; blocks
/// until all indices completed. fn runs concurrently on the calling
/// thread plus the pool workers; the first exception thrown by fn is
/// rethrown here (remaining scheduled chunks are abandoned). Nested calls
/// from inside a region run inline, so fn may itself use parallel_for.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Tile-blocked variant: invoke fn(b, begin, end) for every block of the
/// partition, distributed over the pool. The partition is a pure function
/// of (blocks.n, blocks.block), so per-block outputs merged in block
/// order reproduce the serial item order at any thread count. Bodies are
/// subject to the same contract as parallel_for — and note the calling
/// thread participates with its obs::Context still installed, so a body
/// that emits metrics/traces would attribute them nondeterministically:
/// keep blocks pure and do all emission in the caller's ordered merge.
void parallel_for_blocks(
    const TileBlocks& blocks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

/// Run `k` independent trials (1-based, matching the bench harness's
/// "seeds 1..k" convention) and return their results in trial order.
/// Each trial t invokes run_fn(t, seed_fn(t)); the per-trial seed is the
/// only RNG input, so results are independent of execution order and
/// identical to the serial loop. Every trial body runs under a fresh
/// empty obs::Context scope — worker-thread metrics/traces cannot race
/// the caller's, and a trial that installs its own scope (run_isomap
/// does) keeps it private to its thread.
template <typename SeedFn, typename RunFn>
auto parallel_trials(int k, SeedFn&& seed_fn, RunFn&& run_fn)
    -> std::vector<std::decay_t<std::invoke_result_t<RunFn&, int, std::uint64_t>>> {
  using T = std::decay_t<std::invoke_result_t<RunFn&, int, std::uint64_t>>;
  std::vector<std::optional<T>> slots(
      static_cast<std::size_t>(std::max(0, k)));
  parallel_for(slots.size(), [&](std::size_t idx) {
    const int trial = static_cast<int>(idx) + 1;
    const std::uint64_t seed = seed_fn(static_cast<std::uint64_t>(trial));
    const obs::ObsScope scope(nullptr, nullptr);
    slots[idx].emplace(run_fn(trial, seed));
  });
  std::vector<T> out;
  out.reserve(slots.size());
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

}  // namespace isomap::exec
