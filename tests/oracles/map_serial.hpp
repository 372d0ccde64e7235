#pragma once

// Oracle for the sink build (ContourMapBuilder::build, with or without a
// level cache): the plain serial construction, with no pool, no cache and
// no fingerprints.

#include <cmath>
#include <vector>

#include "isomap/contour_map.hpp"

namespace isomap::oracle {

/// Each level's reports found by a full scan with the sink's grouping
/// predicate |report − level| < 1e-9, in report order, then one
/// LevelRegion per level in level order.
inline ContourMap serial_map(FieldBounds bounds, RegulationMode mode,
                             const std::vector<IsolineReport>& reports,
                             const std::vector<double>& isolevels) {
  std::vector<LevelRegion> regions;
  regions.reserve(isolevels.size());
  for (const double level : isolevels) {
    std::vector<IsolineReport> group;
    for (const IsolineReport& r : reports)
      if (std::abs(r.isolevel - level) < 1e-9) group.push_back(r);
    regions.emplace_back(level, std::move(group), bounds, mode);
  }
  return ContourMap(bounds, std::move(regions));
}

}  // namespace isomap::oracle
