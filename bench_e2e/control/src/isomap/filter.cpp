#include "isomap/filter.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "isomap/round_arena.hpp"
#include "obs/node_telemetry.hpp"
#include "obs/obs.hpp"

namespace isomap {

InNetworkFilter::InNetworkFilter(double angular_deg, double distance)
    : angular_rad_(angular_deg * M_PI / 180.0), distance_(distance) {
  if (angular_deg < 0.0 || distance < 0.0)
    throw std::invalid_argument("InNetworkFilter: negative threshold");
}

bool InNetworkFilter::redundant(const IsolineReport& a,
                                const IsolineReport& b) const {
  if (a.isolevel != b.isolevel) return false;
  if (a.position.distance_to(b.position) >= distance_) return false;
  return angle_between(a.gradient, b.gradient) < angular_rad_;
}

template <typename Alloc>
void InNetworkFilter::merge(std::vector<IsolineReport, Alloc>& kept,
                            std::span<const IsolineReport> incoming,
                            double* ops, int at_node) const {
  // Resolve the observation context once per merge, not per comparison.
  obs::TraceSink* const sink = obs::trace();
  obs::NodeTelemetry* const tel = obs::telemetry();

  // redundant() never crosses isolevels, so only same-level kept reports
  // can drop an incoming one: bucketing kept by exact level skips the
  // cross-level comparisons the plain scan burns. Decisions, drop order
  // and the charged op count are identical to the full scan — a drop at
  // global index g costs g + 1 scanned comparisons, a keep costs
  // kept.size(), exactly what the linear walk would have charged.
  struct Bucket {
    double isolevel;
    std::vector<std::size_t> members;  ///< Indices into kept, ascending.
  };
  std::vector<Bucket> buckets;
  // Buckets are located through a (level, bucket-index) list kept sorted
  // by operator<, so a lookup is one binary search instead of a walk over
  // every distinct level. Identity stays `==`: < treats -0.0 and 0.0 as
  // one equivalence class exactly like ==, and a NaN level — unordered,
  // never == anything — is left bucketless, matching the unreachable
  // bucket the linear scan used to append for it.
  std::vector<std::pair<double, std::size_t>> index;
  const auto bucket_of = [&](double isolevel) -> Bucket* {
    const auto it = std::lower_bound(
        index.begin(), index.end(), isolevel,
        [](const std::pair<double, std::size_t>& e, double v) {
          return e.first < v;
        });
    if (it == index.end() || it->first != isolevel) return nullptr;
    return &buckets[it->second];
  };
  const auto add_bucket = [&](double isolevel) -> Bucket* {
    buckets.push_back({isolevel, {}});
    if (!std::isnan(isolevel)) {
      const auto it = std::lower_bound(
          index.begin(), index.end(), isolevel,
          [](const std::pair<double, std::size_t>& e, double v) {
            return e.first < v;
          });
      index.insert(it, {isolevel, buckets.size() - 1});
    }
    return &buckets.back();
  };
  for (std::size_t i = 0; i < kept.size(); ++i) {
    Bucket* b = bucket_of(kept[i].isolevel);
    if (b == nullptr) b = add_bucket(kept[i].isolevel);
    b->members.push_back(i);
  }

  std::size_t dropped = 0;
  for (const auto& report : incoming) {
    Bucket* bucket = bucket_of(report.isolevel);
    bool drop = false;
    if (bucket != nullptr) {
      for (const std::size_t idx : bucket->members) {
        if (redundant(kept[idx], report)) {
          drop = true;
          if (ops) *ops += kOpsPerComparison * static_cast<double>(idx + 1);
          break;
        }
      }
    }
    if (!drop && ops)
      *ops += kOpsPerComparison * static_cast<double>(kept.size());
    if (drop) {
      ++dropped;
      if (tel != nullptr && report.source >= 0)
        tel->count_filtered(report.source);
      if (sink != nullptr) {
        obs::TraceEvent event;
        event.kind = "drop";
        event.phase = obs::kPhaseFilterDrop;
        event.node = at_node;
        event.peer = report.source;
        event.report = report.id;
        event.isolevel = report.isolevel;
        sink->emit(event);
      }
      continue;
    }
    kept.push_back(report);
    if (bucket == nullptr) bucket = add_bucket(report.isolevel);
    bucket->members.push_back(kept.size() - 1);
  }
  if (dropped > 0) obs::count("filter.dropped", static_cast<double>(dropped));
}

template void InNetworkFilter::merge(std::vector<IsolineReport>& kept,
                                     std::span<const IsolineReport> incoming,
                                     double* ops, int at_node) const;
template void InNetworkFilter::merge(
    std::vector<IsolineReport, ArenaAlloc<IsolineReport>>& kept,
    std::span<const IsolineReport> incoming, double* ops, int at_node) const;

std::vector<IsolineReport> InNetworkFilter::filter(
    std::vector<IsolineReport> reports, double* ops) const {
  std::vector<IsolineReport> kept;
  kept.reserve(reports.size());
  merge(kept, reports, ops);
  return kept;
}

}  // namespace isomap
