#pragma once

// Oracle for the in-network filter's merge (InNetworkFilter::merge in
// src/isomap/filter.cpp): the per-merge bucket walk it replaced. Each
// merge rebuilds a per-level bucket index over the whole kept vector and
// walks the incoming report's bucket in ascending kept index. Decisions,
// drop order, charged ops and drop events must match the production
// index bit for bit.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "isomap/filter.hpp"
#include "obs/node_telemetry.hpp"
#include "obs/obs.hpp"

namespace isomap::oracle {

/// Merge `incoming` into `kept` the way InNetworkFilter::merge does, over
/// report copies: a drop at kept index g charges g + 1 comparisons, a
/// keep charges kept.size().
inline void merge_bucket_walk(const InNetworkFilter& filter,
                              std::vector<IsolineReport>& kept,
                              std::span<const IsolineReport> incoming,
                              double* ops = nullptr, int at_node = -1) {
  obs::TraceSink* const sink = obs::trace();
  obs::NodeTelemetry* const tel = obs::telemetry();

  struct Bucket {
    double isolevel;
    std::vector<std::size_t> members;  ///< Indices into kept, ascending.
  };
  std::vector<Bucket> buckets;
  // (level, bucket) sorted by operator<: -0.0 and 0.0 share a bucket, a
  // NaN level gets a bucket no lookup ever finds.
  std::vector<std::pair<double, std::size_t>> index;
  const auto less = [](const std::pair<double, std::size_t>& e, double v) {
    return e.first < v;
  };
  const auto bucket_of = [&](double isolevel) -> Bucket* {
    const auto it =
        std::lower_bound(index.begin(), index.end(), isolevel, less);
    if (it == index.end() || it->first != isolevel) return nullptr;
    return &buckets[it->second];
  };
  const auto add_bucket = [&](double isolevel) -> Bucket* {
    buckets.push_back({isolevel, {}});
    if (!std::isnan(isolevel))
      index.insert(std::lower_bound(index.begin(), index.end(), isolevel, less),
                   {isolevel, buckets.size() - 1});
    return &buckets.back();
  };
  for (std::size_t i = 0; i < kept.size(); ++i) {
    Bucket* b = bucket_of(kept[i].isolevel);
    if (b == nullptr) b = add_bucket(kept[i].isolevel);
    b->members.push_back(i);
  }

  std::size_t dropped = 0;
  for (const IsolineReport& report : incoming) {
    Bucket* bucket = bucket_of(report.isolevel);
    bool drop = false;
    if (bucket != nullptr) {
      for (const std::size_t idx : bucket->members) {
        if (filter.redundant(kept[idx], report)) {
          drop = true;
          if (ops)
            *ops += InNetworkFilter::kOpsPerComparison *
                    static_cast<double>(idx + 1);
          break;
        }
      }
    }
    if (!drop && ops)
      *ops += InNetworkFilter::kOpsPerComparison *
              static_cast<double>(kept.size());
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

}  // namespace isomap::oracle
