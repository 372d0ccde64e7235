#include "isomap/filter.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "obs/node_telemetry.hpp"
#include "obs/obs.hpp"

namespace isomap {

FilterIndex::FilterIndex(std::span<const IsolineReport> table)
    : table_(table), links_(table.size()) {
  // Keys are handed out in first-seen order and found through a (level,
  // key) list sorted by operator<, one binary search per report. < treats
  // -0.0 and 0.0 as one equivalence class exactly like ==; a NaN level,
  // unordered and never == anything, stays kNoKey.
  std::vector<std::pair<double, int>> sorted;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const double level = table[i].isolevel;
    if (std::isnan(level)) continue;
    const auto it = std::lower_bound(
        sorted.begin(), sorted.end(), level,
        [](const std::pair<double, int>& e, double v) { return e.first < v; });
    if (it != sorted.end() && it->first == level) {
      links_[i].key = it->second;
    } else {
      links_[i].key = num_keys_;
      sorted.insert(it, {level, num_keys_++});
    }
  }
}

void FilterIndex::keep(KeptSet& kept, int id) {
  Link& link = links_[static_cast<std::size_t>(id)];
  link.next = -1;
  link.pos = static_cast<int>(kept.ids_.size());
  kept.ids_.push_back(id);
  if (link.key == kNoKey) return;
  if (kept.chains_.empty())
    kept.chains_.resize(static_cast<std::size_t>(num_keys_));
  KeptSet::Chain& chain = kept.chains_[static_cast<std::size_t>(link.key)];
  if (chain.tail < 0)
    chain.head = id;
  else
    links_[static_cast<std::size_t>(chain.tail)].next = id;
  chain.tail = id;
}

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

void InNetworkFilter::merge(FilterIndex& index, KeptSet& kept,
                            std::span<const int> incoming, double* ops,
                            int at_node) const {
  // Resolve the observation context once per merge, not per comparison.
  obs::TraceSink* const sink = obs::trace();
  obs::NodeTelemetry* const tel = obs::telemetry();

  std::size_t dropped = 0;
  for (const int id : incoming) {
    const IsolineReport& report = index.table_[static_cast<std::size_t>(id)];
    const int key = index.links_[static_cast<std::size_t>(id)].key;
    int match = -1;
    if (key != FilterIndex::kNoKey && !kept.chains_.empty()) {
      for (int k = kept.chains_[static_cast<std::size_t>(key)].head; k >= 0;
           k = index.links_[static_cast<std::size_t>(k)].next) {
        if (redundant(index.table_[static_cast<std::size_t>(k)], report)) {
          match = k;
          break;
        }
      }
    }
    if (match < 0) {
      if (ops) *ops += kOpsPerComparison * static_cast<double>(kept.size());
      index.keep(kept, id);
      continue;
    }
    if (ops)
      *ops += kOpsPerComparison *
              static_cast<double>(
                  index.links_[static_cast<std::size_t>(match)].pos + 1);
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
  }
  if (dropped > 0) obs::count("filter.dropped", static_cast<double>(dropped));
}

std::vector<IsolineReport> InNetworkFilter::filter(
    std::vector<IsolineReport> reports, double* ops) const {
  FilterIndex index(reports);
  RoundArena arena;
  KeptSet kept(arena);
  std::vector<int> all(reports.size());
  std::iota(all.begin(), all.end(), 0);
  merge(index, kept, all, ops);
  std::vector<IsolineReport> out;
  out.reserve(kept.size());
  for (const int id : kept.ids())
    out.push_back(reports[static_cast<std::size_t>(id)]);
  return out;
}

}  // namespace isomap
