#pragma once

#include <string>
#include <vector>

#include "isomap/contour_map.hpp"
#include "sim/run_capsule.hpp"

namespace isomap::serve {

/// Borrowed view of one boundary chain for response serialization. The
/// pointed-to points must outlive the serialize_response() call.
struct WirePolyline {
  bool closed = false;
  const std::vector<Vec2>* points = nullptr;
};

/// Borrowed view of one isolevel's served geometry.
struct WireLevel {
  double isolevel = 0.0;
  int report_count = 0;
  std::vector<WirePolyline> boundaries;
};

/// The single serialization path for query-response bodies. Every source
/// of contour geometry — a live ContourMap (fresh build or cache fill),
/// the oracle's ContourMapBuilder rebuild, a replayed capsule's stored
/// LevelContours — funnels through this function, so "bitwise-identical
/// responses" reduces to "identical WireLevel inputs": json_number emits
/// the shortest round-trip form, making byte equality equivalent to bit
/// equality of the underlying doubles. The body deliberately excludes
/// the round number and fingerprints — bytes must not depend on *when*
/// a response was built, only on the geometry it describes.
///
/// Format (one line, no whitespace):
///   {"deployment":"<name>","levels":[{"isolevel":N,"reports":N,
///    "boundaries":[{"closed":B,"points":[[x,y],...]},...]},...]}
std::string serialize_response(const std::string& deployment,
                               const std::vector<WireLevel>& levels);

/// WireLevels for the requested level indices (ascending, in range) of a
/// live map: reports = the level's post-filter report count, boundaries =
/// the LevelRegion's estimated isolines.
std::vector<WireLevel> wire_levels_from_map(const ContourMap& map,
                                            const std::vector<int>& levels);

/// WireLevels for the requested level indices of a capsule's stored
/// per-level contours (capsule::extract_contours output) — the
/// golden-compat path: a capsule replayed by isomap_replay serializes to
/// the same bytes the service serves for the same deployment state.
std::vector<WireLevel> wire_levels_from_contours(
    const std::vector<capsule::LevelContour>& contours,
    const std::vector<int>& levels);

}  // namespace isomap::serve
