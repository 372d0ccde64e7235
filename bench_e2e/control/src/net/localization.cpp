#include "net/localization.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

namespace isomap {
namespace {

/// BFS hop counts from `source` over alive nodes; -1 where unreachable.
std::vector<int> hop_counts(const CommGraph& graph, int source) {
  std::vector<int> dist(static_cast<std::size_t>(graph.size()), -1);
  std::queue<int> queue;
  dist[static_cast<std::size_t>(source)] = 0;
  queue.push(source);
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop();
    for (int v : graph.neighbours(u)) {
      if (dist[static_cast<std::size_t>(v)] != -1) continue;
      dist[static_cast<std::size_t>(v)] = dist[static_cast<std::size_t>(u)] + 1;
      queue.push(v);
    }
  }
  return dist;
}

/// Least-squares trilateration: minimize sum_i (|p - a_i| - d_i)^2 by
/// Gauss-Newton from the hop-weighted anchor centroid.
Vec2 trilaterate(const std::vector<Vec2>& anchors,
                 const std::vector<double>& distances, int iterations) {
  Vec2 p{};
  double weight_total = 0.0;
  for (std::size_t i = 0; i < anchors.size(); ++i) {
    const double w = 1.0 / std::max(distances[i], 1e-6);
    p += anchors[i] * w;
    weight_total += w;
  }
  if (weight_total > 0.0) p = p / weight_total;

  for (int iter = 0; iter < iterations; ++iter) {
    // Normal equations for the linearized residuals r_i = |p-a_i| - d_i
    // with Jacobian row u_i = (p - a_i)/|p - a_i|.
    double jtj[2][2] = {{0, 0}, {0, 0}};
    double jtr[2] = {0, 0};
    for (std::size_t i = 0; i < anchors.size(); ++i) {
      const Vec2 delta = p - anchors[i];
      const double norm = std::max(delta.norm(), 1e-9);
      const Vec2 u = delta / norm;
      const double r = norm - distances[i];
      jtj[0][0] += u.x * u.x;
      jtj[0][1] += u.x * u.y;
      jtj[1][0] += u.y * u.x;
      jtj[1][1] += u.y * u.y;
      jtr[0] += u.x * r;
      jtr[1] += u.y * r;
    }
    // Levenberg damping keeps the 2x2 solve well-posed for collinear
    // anchor geometries.
    const double damping = 1e-6;
    jtj[0][0] += damping;
    jtj[1][1] += damping;
    const double det = jtj[0][0] * jtj[1][1] - jtj[0][1] * jtj[1][0];
    if (std::abs(det) < 1e-12) break;
    const double dx = (jtj[1][1] * jtr[0] - jtj[0][1] * jtr[1]) / det;
    const double dy = (jtj[0][0] * jtr[1] - jtj[1][0] * jtr[0]) / det;
    p -= Vec2{dx, dy};
    if (std::hypot(dx, dy) < 1e-9) break;
  }
  return p;
}

}  // namespace

DvHopResult dv_hop_localize(const Deployment& deployment,
                            const CommGraph& graph,
                            const DvHopOptions& options, Rng& rng,
                            Ledger& ledger) {
  DvHopResult result;
  const int n = deployment.size();
  result.estimated.resize(static_cast<std::size_t>(n));
  result.error.assign(static_cast<std::size_t>(n), -1.0);
  for (const auto& node : deployment.nodes())
    result.estimated[static_cast<std::size_t>(node.id)] = node.pos;

  // --- Anchor election. ---
  std::vector<int> alive;
  for (const auto& node : deployment.nodes())
    if (node.alive) alive.push_back(node.id);
  if (alive.empty()) return result;
  const int want = std::max(
      options.min_anchors,
      static_cast<int>(options.anchor_fraction * static_cast<double>(alive.size())));
  for (std::size_t i = 0;
       i < alive.size() && static_cast<int>(result.anchors.size()) < want;
       ++i) {
    const std::size_t j = i + static_cast<std::size_t>(
                                  rng.uniform_int(alive.size() - i));
    std::swap(alive[i], alive[j]);
    result.anchors.push_back(alive[i]);
  }

  // --- Phase 1: every anchor floods; all nodes learn hop counts. Each
  // alive node rebroadcasts every anchor's flood once. ---
  std::vector<std::vector<int>> hops;
  hops.reserve(result.anchors.size());
  for (int anchor : result.anchors) {
    hops.push_back(hop_counts(graph, anchor));
    for (const auto& node : deployment.nodes()) {
      if (!node.alive) continue;
      if (hops.back()[static_cast<std::size_t>(node.id)] < 0) continue;
      ledger.broadcast(node.id, graph.neighbours(node.id),
                       options.flood_bytes);
      result.flood_traffic_bytes += options.flood_bytes;
    }
  }

  // --- Phase 2: per-anchor average hop length from anchor-to-anchor
  // ground truth, then a second flood (charged as one more round). ---
  std::vector<double> hop_length(result.anchors.size(), 0.0);
  for (std::size_t a = 0; a < result.anchors.size(); ++a) {
    double dist_sum = 0.0;
    int hop_sum = 0;
    const Vec2 pa = deployment.node(result.anchors[a]).pos;
    for (std::size_t b = 0; b < result.anchors.size(); ++b) {
      if (a == b) continue;
      const int h = hops[a][static_cast<std::size_t>(result.anchors[b])];
      if (h <= 0) continue;
      dist_sum += pa.distance_to(deployment.node(result.anchors[b]).pos);
      hop_sum += h;
    }
    hop_length[a] = hop_sum > 0 ? dist_sum / hop_sum : 1.0;
    for (const auto& node : deployment.nodes()) {
      if (!node.alive) continue;
      if (hops[a][static_cast<std::size_t>(node.id)] < 0) continue;
      ledger.broadcast(node.id, graph.neighbours(node.id),
                       options.flood_bytes);
      result.flood_traffic_bytes += options.flood_bytes;
    }
  }

  // --- Phase 3: trilateration at every non-anchor node. ---
  std::vector<bool> is_anchor(static_cast<std::size_t>(n), false);
  for (int anchor : result.anchors)
    is_anchor[static_cast<std::size_t>(anchor)] = true;

  double err_sum = 0.0;
  int err_count = 0;
  for (const auto& node : deployment.nodes()) {
    if (!node.alive || is_anchor[static_cast<std::size_t>(node.id)]) continue;
    std::vector<Vec2> anchor_pos;
    std::vector<double> anchor_dist;
    int nearest_hops = std::numeric_limits<int>::max();
    std::size_t nearest_anchor = 0;
    for (std::size_t a = 0; a < result.anchors.size(); ++a) {
      const int h = hops[a][static_cast<std::size_t>(node.id)];
      if (h < 0) continue;
      if (h < nearest_hops) {
        nearest_hops = h;
        nearest_anchor = a;
      }
    }
    if (nearest_hops == std::numeric_limits<int>::max()) continue;
    // DV-Hop uses the nearest anchor's hop length for all conversions.
    const double hop_len = hop_length[nearest_anchor];
    for (std::size_t a = 0; a < result.anchors.size(); ++a) {
      const int h = hops[a][static_cast<std::size_t>(node.id)];
      if (h < 0) continue;
      anchor_pos.push_back(deployment.node(result.anchors[a]).pos);
      anchor_dist.push_back(h * hop_len);
    }
    if (anchor_pos.size() < 3) continue;
    const Vec2 estimate = deployment.bounds().clamp(
        trilaterate(anchor_pos, anchor_dist, options.solver_iterations));
    result.estimated[static_cast<std::size_t>(node.id)] = estimate;
    const double err = estimate.distance_to(node.pos);
    result.error[static_cast<std::size_t>(node.id)] = err;
    err_sum += err;
    ++err_count;
    result.max_error = std::max(result.max_error, err);
  }
  result.mean_error = err_count ? err_sum / err_count : 0.0;
  return result;
}

void apply_localization(Deployment& deployment, const DvHopResult& result) {
  std::vector<bool> is_anchor(static_cast<std::size_t>(deployment.size()),
                              false);
  for (int anchor : result.anchors)
    is_anchor[static_cast<std::size_t>(anchor)] = true;
  for (auto& node : deployment.nodes()) {
    if (!node.alive || is_anchor[static_cast<std::size_t>(node.id)]) continue;
    node.believed = result.estimated[static_cast<std::size_t>(node.id)];
  }
}

}  // namespace isomap
