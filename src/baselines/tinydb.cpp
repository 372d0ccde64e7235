#include "baselines/tinydb.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "eval/level_map.hpp"
#include "net/channel.hpp"
#include "geometry/marching_squares.hpp"
#include "obs/obs.hpp"

namespace isomap {

TinyDBProtocol::TinyDBProtocol(TinyDBOptions options)
    : options_(std::move(options)) {
  options_.link.validate();
}

TinyDBResult TinyDBProtocol::run(const Deployment& deployment,
                                 const std::vector<double>& readings,
                                 const RoutingTree& tree,
                                 Ledger& ledger) const {
  TinyDBResult result;
  const int n = deployment.size();

  // Grid dimensions must match Deployment::grid's layout.
  const int cols =
      static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n))));
  const int rows = (n + cols - 1) / cols;

  // Every alive, reachable node reports; the report is forwarded hop by
  // hop along the tree with no aggregation.
  Channel channel(options_.link);
  const bool impaired = channel.impaired();
  obs::PhaseTimer route_timer(obs::kPhaseReportRoute);
  std::vector<std::optional<double>> received(
      static_cast<std::size_t>(cols) * rows);
  std::vector<double> tx_per_node(static_cast<std::size_t>(n), 0.0);
  double latency_sum = 0.0;
  for (const auto& node : deployment.nodes()) {
    if (!node.alive) continue;
    ++result.reports_generated;
    if (!tree.reachable(node.id)) continue;
    const auto path = tree.path_to_sink(node.id);
    bool delivered = true;
    double path_latency = 0.0;
    for (std::size_t h = 0; h + 1 < path.size(); ++h) {
      const Channel::Transfer transfer =
          channel.transfer(path[h], path[h + 1], options_.report_bytes,
                           ledger);
      if (!transfer.delivered) {
        delivered = false;
        break;
      }
      path_latency += transfer.latency_s;
      ledger.compute(path[h + 1], options_.ops_per_forward);
      result.traffic_bytes += options_.report_bytes;
      tx_per_node[static_cast<std::size_t>(path[h])] += options_.report_bytes;
      if (options_.record_transmissions)
        result.transmissions.push_back({path[h], path[h + 1],
                                        options_.report_bytes,
                                        tree.level(path[h])});
    }
    if (!delivered) continue;
    if (impaired) {
      if (result.reports_delivered == 0) {
        result.e2e_first_latency_s = result.e2e_last_latency_s = path_latency;
      } else {
        result.e2e_first_latency_s =
            std::min(result.e2e_first_latency_s, path_latency);
        result.e2e_last_latency_s =
            std::max(result.e2e_last_latency_s, path_latency);
      }
      latency_sum += path_latency;
    }
    ++result.reports_delivered;
    const int r = node.id / cols;
    const int c = node.id % cols;
    received[static_cast<std::size_t>(r) * cols + c] =
        readings[static_cast<std::size_t>(node.id)];
  }
  if (impaired && result.reports_delivered > 0)
    result.e2e_mean_latency_s =
        latency_sum / static_cast<double>(result.reports_delivered);

  // TDMA bottleneck: each tree level gets a slot sized to its busiest
  // forwarder.
  std::vector<double> level_bottleneck(
      static_cast<std::size_t>(tree.depth()) + 1, 0.0);
  for (int u = 0; u < n; ++u) {
    if (!tree.reachable(u)) continue;
    auto& slot = level_bottleneck[static_cast<std::size_t>(tree.level(u))];
    slot = std::max(slot, tx_per_node[static_cast<std::size_t>(u)]);
  }
  for (double slot : level_bottleneck) result.bottleneck_bytes += slot;
  route_timer.stop();
  obs::count("reports.generated", result.reports_generated);
  obs::count("reports.delivered", result.reports_delivered);

  if (result.reports_delivered == 0) return result;

  // Sink interpolation: fill missing cells by iteratively averaging the
  // available 4-neighbourhood until every cell has a value.
  const obs::PhaseTimer map_timer(obs::kPhaseMapGen);
  std::vector<std::optional<double>> grid = received;
  bool any_missing = true;
  for (int pass = 0; pass < cols + rows && any_missing; ++pass) {
    any_missing = false;
    std::vector<std::optional<double>> next = grid;
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        auto& cell = next[static_cast<std::size_t>(r) * cols + c];
        if (cell.has_value()) continue;
        double sum = 0.0;
        int count = 0;
        const int dr[] = {1, -1, 0, 0};
        const int dc[] = {0, 0, 1, -1};
        for (int k = 0; k < 4; ++k) {
          const int rr = r + dr[k];
          const int cc = c + dc[k];
          if (rr < 0 || rr >= rows || cc < 0 || cc >= cols) continue;
          const auto& nb = grid[static_cast<std::size_t>(rr) * cols + cc];
          if (nb.has_value()) {
            sum += *nb;
            ++count;
          }
        }
        if (count > 0) cell = sum / count;
        else any_missing = true;
      }
    }
    grid = std::move(next);
  }

  // Any still-missing cells (fully disconnected areas) default to the mean
  // of the received values.
  double mean = 0.0;
  int have = 0;
  for (const auto& cell : grid)
    if (cell.has_value()) {
      mean += *cell;
      ++have;
    }
  mean = have ? mean / have : 0.0;
  std::vector<double> samples;
  samples.reserve(grid.size());
  for (const auto& cell : grid) samples.push_back(cell.value_or(mean));

  // Grid nodes sit at cell centres; the reconstruction's sample lattice
  // spans centre-to-centre.
  const FieldBounds b = deployment.bounds();
  const double cw = b.width() / cols;
  const double ch = b.height() / rows;
  const FieldBounds sample_bounds{b.x0 + cw / 2, b.y0 + ch / 2,
                                  b.x1 - cw / 2, b.y1 - ch / 2};
  result.reconstruction =
      GridField(sample_bounds, cols, rows, std::move(samples));
  return result;
}

int TinyDBResult::level_index(Vec2 p,
                              const std::vector<double>& isolevels) const {
  if (!reconstruction) return 0;
  // Snap to the nearest grid sample (cell representative value): the
  // TinyDB isobar map is blocky, not interpolated.
  const FieldBounds b = reconstruction->bounds();
  const int nx = reconstruction->nx();
  const int ny = reconstruction->ny();
  const int ix = std::clamp(
      static_cast<int>(std::lround((p.x - b.x0) / b.width() * (nx - 1))), 0,
      nx - 1);
  const int iy = std::clamp(
      static_cast<int>(std::lround((p.y - b.y0) / b.height() * (ny - 1))), 0,
      ny - 1);
  return level_index_of_value(reconstruction->at(ix, iy), isolevels);
}

std::vector<Polyline> TinyDBResult::isolines(double isolevel,
                                             int resolution) const {
  if (!reconstruction) return {};
  if (resolution <= 0)
    return marching_squares(reconstruction->as_sample_grid(), isolevel);
  const GridField dense =
      GridField::sample(*reconstruction, resolution, resolution);
  return marching_squares(dense.as_sample_grid(), isolevel);
}

}  // namespace isomap
