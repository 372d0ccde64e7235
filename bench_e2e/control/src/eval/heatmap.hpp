#pragma once

#include <string>
#include <vector>

#include "field/scalar_field.hpp"
#include "geometry/vec2.hpp"

namespace isomap {

/// Spatial heatmap artifacts over a per-node value vector (energy in J,
/// traffic in bytes, report counts — anything indexed by node id). Two
/// renderings of the same data:
///
///  - a dense CSV grid (`heatmap_csv_grid`): the field bounds binned into
///    rows×cols cells, each holding the sum of the values of the nodes in
///    it. Loads straight into numpy / a spreadsheet for a colour map.
///  - GeoJSON points (`heatmap_geojson`): one Point feature per node with
///    `{"node", "value", "hops"}` properties, for GIS tooling — the same
///    interchange path eval/geojson.hpp uses for contours.
///
/// Hop-ring aggregation (`aggregate_by_ring`) collapses the same vector
/// by routing-tree distance to the sink. Ring totals are the natural
/// x-axis for the paper's O(√n) convergecast-traffic claim (Section 4):
/// the report traffic a ring must carry grows toward the sink while the
/// ring population shrinks, so per-node load concentrates near ring 1.

/// One hop ring's aggregate: every node at `hops` tree-hops from the
/// sink. Nodes with hops < 0 (unreachable/unknown) are skipped.
struct RingAggregate {
  int hops = 0;
  int node_count = 0;
  double total = 0.0;
  double max = 0.0;

  double mean() const {
    return node_count == 0 ? 0.0 : total / static_cast<double>(node_count);
  }
};

/// Collapse `values` by hop ring; rings are returned in ascending hop
/// order and cover exactly the hop distances that occur in `hops`.
std::vector<RingAggregate> aggregate_by_ring(const std::vector<int>& hops,
                                             const std::vector<double>& values);

/// The grid rendering as CSV text: a `# x0,y0,x1,y1,rows,cols` header
/// comment, then `rows` lines of `cols` comma-separated cell sums (row 0
/// = lowest y). Node i at positions[i] contributes values[i] to its cell.
std::string heatmap_csv_grid(const FieldBounds& bounds,
                             const std::vector<Vec2>& positions,
                             const std::vector<double>& values, int rows,
                             int cols);

/// GeoJSON FeatureCollection of per-node Point features. `hops` may be
/// empty (property omitted); value_name labels the property ("energy_j",
/// "tx_bytes", ...).
std::string heatmap_geojson(const std::vector<Vec2>& positions,
                            const std::vector<double>& values,
                            const std::vector<int>& hops,
                            const std::string& value_name);

/// Ring table as CSV: `hops,nodes,total,mean,max` with one line per ring.
std::string ring_csv(const std::vector<RingAggregate>& rings);

/// Write `text` to `path`; false on I/O failure.
bool save_text(const std::string& path, const std::string& text);

}  // namespace isomap
