#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/scenario.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace isomap::capsule {
struct RunCapsule;
}

namespace isomap::serve {

/// One contour query: a shard (by index) and the requested isolevel
/// indices, ascending and unique (normalize_levels() canonicalizes).
struct QueryRequest {
  int shard = 0;
  std::vector<int> levels;
};

/// One served response. `body` is shared with the cache: a hit hands out
/// the cached bytes, a miss the freshly built ones — both the exact
/// serialize_response() output for the shard's current geometry.
struct QueryResponse {
  bool cache_hit = false;
  std::shared_ptr<const std::string> body;
  double latency_us = 0.0;  ///< Measured serve time for this query.
};

/// Service lifetime counters (all deterministic except latency, which is
/// tracked separately as wall-clock samples).
struct ServiceStats {
  long long queries = 0;
  long long cache_hits = 0;
  long long cache_misses = 0;
  long long unique_bodies_built = 0;  ///< Misses after per-batch dedup.
  long long oracle_checks = 0;
  long long oracle_failures = 0;
};

/// Iso-Map as a service: N independent deployments hosted as shards, each
/// owning its scenario, ContinuousMapper, ledger and metrics registry.
/// tick() advances every shard one virtual-time mapping round across the
/// exec pool (per-shard ObsScope inside the region body keeps emissions
/// thread-local — the parallel_trials pattern — so results are bitwise
/// thread-count-independent). Queries are answered between ticks from a
/// FIFO response cache keyed by (deployment, isolevel set, per-level
/// round fingerprint); a batch partitions into hits and deduplicated
/// misses, builds the missing bodies in parallel, then commits them to
/// the cache in batch order. See docs/SERVICE.md.
///
/// Not thread-safe externally: one driver thread calls tick()/serve;
/// internal parallelism goes through exec::parallel_for only.
class IsoMapService {
 public:
  explicit IsoMapService(ServiceScenario scenario);
  ~IsoMapService();
  IsoMapService(const IsoMapService&) = delete;
  IsoMapService& operator=(const IsoMapService&) = delete;

  const ServiceScenario& scenario() const { return scenario_; }
  int shard_count() const { return static_cast<int>(shards_.size()); }
  const std::string& shard_name(int shard) const;
  int find_shard(const std::string& name) const;  ///< -1 when absent.
  int num_levels(int shard) const;
  int rounds_done() const { return rounds_done_; }

  /// Append a shard hosting a recorded continuous run's deployment: the
  /// capsule's deployment snapshot is materialized and its graph/tree
  /// re-derived exactly as replay() does, the mapper runs under the
  /// capsule's stored ContinuousOptions, and tick() feeds the capsule's
  /// stored per-round readings instead of sampling a field (clamped to
  /// the last recorded round past the end). After rounds() ticks the
  /// shard serves maps bitwise-identical to isomap_replay's output for
  /// the same capsule — the golden-compat contract. Returns the new
  /// shard index. Throws std::logic_error after the first tick() and
  /// std::invalid_argument for non-continuous / empty capsules or a
  /// duplicate shard name.
  int attach_capsule_shard(const std::string& name,
                           const capsule::RunCapsule& capsule);

  /// Advance every shard one mapping round (readings sampled from the
  /// shard's drift schedule at the new round index).
  void tick();

  /// Canonicalize request levels in place: sort + dedupe. Returns false
  /// (request unservable) when the shard index or any level index is out
  /// of range, or the set is empty.
  bool normalize_levels(QueryRequest& request) const;

  /// The deterministic query mix for the current tick (scenario
  /// query_mix; a pure function of (mix seed, rounds_done)).
  std::vector<QueryRequest> mix_for_tick() const;

  /// Serve one batch of normalized requests: cache lookups, then one
  /// parallel build pass over the deduplicated misses, then cache commit.
  /// Requires at least one tick() first (fingerprints exist). When the
  /// scenario's oracle_check_every is k > 0, every k-th query (lifetime
  /// count) is re-built from scratch and byte-compared; a divergence is
  /// recorded in stats().oracle_failures and first_divergence().
  std::vector<QueryResponse> serve_batch(
      const std::vector<QueryRequest>& batch);

  /// Adversarial response check: rebuild the request's body with a fresh
  /// ContourMapBuilder pass over the shard's post-filter reports (under
  /// an empty ObsScope — shard metrics stay untouched) and byte-compare
  /// with `served`. Returns a human-readable divergence, or nullopt when
  /// the bytes match.
  std::optional<std::string> oracle_check(const QueryRequest& request,
                                          const std::string& served) const;

  const ServiceStats& stats() const { return stats_; }
  const std::string& first_divergence() const { return first_divergence_; }
  std::size_t cache_size() const { return cache_.size(); }

  /// Latency sample set (microseconds) over all queries.
  const SampleSet& latency_all() const { return lat_all_; }

  /// Service-level summary (queries, hit/miss lanes, latency quantiles,
  /// per-shard ledger digests). Deterministic except wall_s/latency.
  JsonValue service_summary(double wall_s) const;

  /// Per-shard RunSummary JSON ("serve.<name>" protocol tag) from the
  /// shard's metrics registry and ledger.
  JsonValue shard_summary_json(int shard, double wall_s) const;

  /// Pin the shard's recorded rounds (capped at kCapsuleRoundsCap) as a
  /// continuous run capsule: inputs are snapshotted, outputs filled by
  /// capsule::replay through the live protocol code, then saved — so
  /// `isomap_inspect --reconcile` and `isomap_replay` cross-check the
  /// service's shards like any golden capsule. False on I/O error.
  bool save_shard_capsule(int shard, const std::string& path) const;

  /// Rounds of readings retained per shard for capsule export; a soak's
  /// memory stays bounded no matter how long it runs.
  static constexpr int kCapsuleRoundsCap = 64;

 private:
  struct Shard;

  std::string cache_key(const QueryRequest& request) const;
  std::shared_ptr<const std::string> build_body(
      const QueryRequest& request) const;
  void cache_insert(std::string key, std::shared_ptr<const std::string> body);

  ServiceScenario scenario_;
  std::vector<std::unique_ptr<Shard>> shards_;
  int rounds_done_ = 0;

  std::unordered_map<std::string, std::shared_ptr<const std::string>> cache_;
  std::deque<std::string> cache_fifo_;  ///< Insertion order, for eviction.

  ServiceStats stats_;
  std::string first_divergence_;
  SampleSet lat_all_;
  SampleSet lat_hit_;
  SampleSet lat_miss_;
};

}  // namespace isomap::serve
