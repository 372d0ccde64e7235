#include "eval/heatmap.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

namespace isomap {

std::vector<RingAggregate> aggregate_by_ring(
    const std::vector<int>& hops, const std::vector<double>& values) {
  if (hops.size() != values.size())
    throw std::invalid_argument("aggregate_by_ring: size mismatch");
  std::map<int, RingAggregate> rings;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (hops[i] < 0) continue;
    RingAggregate& ring = rings[hops[i]];
    ring.hops = hops[i];
    ++ring.node_count;
    ring.total += values[i];
    ring.max = std::max(ring.max, values[i]);
  }
  std::vector<RingAggregate> out;
  out.reserve(rings.size());
  for (const auto& [_, ring] : rings) out.push_back(ring);
  return out;
}

std::string heatmap_csv_grid(const FieldBounds& bounds,
                             const std::vector<Vec2>& positions,
                             const std::vector<double>& values, int rows,
                             int cols) {
  if (positions.size() != values.size())
    throw std::invalid_argument("heatmap_csv_grid: size mismatch");
  if (rows <= 0 || cols <= 0)
    throw std::invalid_argument("heatmap_csv_grid: non-positive grid");
  std::vector<double> cells(static_cast<std::size_t>(rows) *
                                static_cast<std::size_t>(cols),
                            0.0);
  const double w = bounds.width() > 0.0 ? bounds.width() : 1.0;
  const double h = bounds.height() > 0.0 ? bounds.height() : 1.0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    // Nodes on the upper edges land in the last cell, not one past it.
    int cx = static_cast<int>((positions[i].x - bounds.x0) / w *
                              static_cast<double>(cols));
    int cy = static_cast<int>((positions[i].y - bounds.y0) / h *
                              static_cast<double>(rows));
    cx = std::clamp(cx, 0, cols - 1);
    cy = std::clamp(cy, 0, rows - 1);
    cells[static_cast<std::size_t>(cy) * static_cast<std::size_t>(cols) +
          static_cast<std::size_t>(cx)] += values[i];
  }
  std::ostringstream ss;
  ss.precision(12);
  ss << "# bounds " << bounds.x0 << "," << bounds.y0 << "," << bounds.x1
     << "," << bounds.y1 << " grid " << rows << "x" << cols << "\n";
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c) ss << ",";
      ss << cells[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols) +
                  static_cast<std::size_t>(c)];
    }
    ss << "\n";
  }
  return ss.str();
}

std::string heatmap_geojson(const std::vector<Vec2>& positions,
                            const std::vector<double>& values,
                            const std::vector<int>& hops,
                            const std::string& value_name) {
  if (positions.size() != values.size())
    throw std::invalid_argument("heatmap_geojson: size mismatch");
  if (!hops.empty() && hops.size() != positions.size())
    throw std::invalid_argument("heatmap_geojson: hops size mismatch");
  std::ostringstream ss;
  ss.precision(12);
  ss << "{\"type\":\"FeatureCollection\",\"features\":[";
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (i) ss << ",";
    ss << "\n{\"type\":\"Feature\",\"properties\":{\"node\":" << i << ",\""
       << value_name << "\":" << values[i];
    if (!hops.empty()) ss << ",\"hops\":" << hops[i];
    ss << "},\"geometry\":{\"type\":\"Point\",\"coordinates\":["
       << positions[i].x << "," << positions[i].y << "]}}";
  }
  ss << "\n]}\n";
  return ss.str();
}

std::string ring_csv(const std::vector<RingAggregate>& rings) {
  std::ostringstream ss;
  ss.precision(12);
  ss << "hops,nodes,total,mean,max\n";
  for (const RingAggregate& ring : rings)
    ss << ring.hops << "," << ring.node_count << "," << ring.total << ","
       << ring.mean() << "," << ring.max << "\n";
  return ss.str();
}

bool save_text(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

}  // namespace isomap
