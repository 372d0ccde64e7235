#pragma once

#include <string>
#include <vector>

#include "isomap/contour_map.hpp"

namespace isomap {

/// GeoJSON export of a contour map: each isoline boundary chain becomes a
/// LineString (closed chains a Polygon) feature tagged with its isolevel,
/// plus optional Point features for the reporting isoline nodes. World
/// coordinates are written as-is (the consumer applies the survey's CRS).
/// This is the interchange path into GIS tooling (QGIS etc.), matching
/// the harbor-administration workflow the paper's Section 2 describes.
class GeoJsonWriter {
 public:
  GeoJsonWriter() = default;

  /// All boundary chains of `map`, one feature per chain, with
  /// properties {"isolevel": λ, "level_index": k}.
  void add_contour_map(const ContourMap& map);

  /// A single chain with an isolevel property.
  void add_isoline(const Polyline& line, double isolevel, int level_index);

  /// Report positions as Point features with their isolevel.
  void add_reports(const std::vector<IsolineReport>& reports);

  /// Complete FeatureCollection document.
  std::string str() const;

  /// Write to file; false on I/O failure.
  bool save(const std::string& path) const;

  std::size_t feature_count() const { return features_.size(); }

 private:
  std::vector<std::string> features_;
};

}  // namespace isomap
