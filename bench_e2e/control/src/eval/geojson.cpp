#include "eval/geojson.hpp"

#include <fstream>
#include <sstream>

namespace isomap {
namespace {

void append_coords(std::ostringstream& ss, const Polyline& line) {
  ss << "[";
  bool first = true;
  for (const Vec2 p : line.points()) {
    if (!first) ss << ",";
    first = false;
    ss << "[" << p.x << "," << p.y << "]";
  }
  if (line.closed() && !line.points().empty()) {
    // GeoJSON polygons repeat the first vertex to close the ring.
    const Vec2 p = line.points().front();
    ss << ",[" << p.x << "," << p.y << "]";
  }
  ss << "]";
}

}  // namespace

void GeoJsonWriter::add_isoline(const Polyline& line, double isolevel,
                                int level_index) {
  if (line.size() < 2) return;
  std::ostringstream ss;
  ss.precision(12);
  ss << "{\"type\":\"Feature\",\"properties\":{\"isolevel\":" << isolevel
     << ",\"level_index\":" << level_index << "},\"geometry\":{";
  if (line.closed() && line.size() >= 3) {
    ss << "\"type\":\"Polygon\",\"coordinates\":[";
    append_coords(ss, line);
    ss << "]";
  } else {
    ss << "\"type\":\"LineString\",\"coordinates\":";
    append_coords(ss, line);
  }
  ss << "}}";
  features_.push_back(ss.str());
}

void GeoJsonWriter::add_contour_map(const ContourMap& map) {
  for (int k = 0; k < map.level_count(); ++k) {
    for (const auto& chain : map.isolines(k))
      add_isoline(chain, map.region(k).isolevel(), k + 1);
  }
}

void GeoJsonWriter::add_reports(const std::vector<IsolineReport>& reports) {
  for (const auto& r : reports) {
    std::ostringstream ss;
    ss.precision(12);
    ss << "{\"type\":\"Feature\",\"properties\":{\"isolevel\":" << r.isolevel
       << ",\"source\":" << r.source << ",\"gradient\":[" << r.gradient.x
       << "," << r.gradient.y
       << "]},\"geometry\":{\"type\":\"Point\",\"coordinates\":["
       << r.position.x << "," << r.position.y << "]}}";
    features_.push_back(ss.str());
  }
}

std::string GeoJsonWriter::str() const {
  std::ostringstream ss;
  ss << "{\"type\":\"FeatureCollection\",\"features\":[";
  for (std::size_t i = 0; i < features_.size(); ++i) {
    if (i) ss << ",";
    ss << "\n" << features_[i];
  }
  ss << "\n]}\n";
  return ss.str();
}

bool GeoJsonWriter::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << str();
  return static_cast<bool>(out);
}

}  // namespace isomap
