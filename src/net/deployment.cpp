#include "net/deployment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "exec/exec.hpp"

namespace isomap {
namespace {

/// Nodes per parallel block of Deployment::sense.
constexpr std::size_t kSenseBlock = 4096;

}  // namespace

Deployment::Deployment(FieldBounds bounds, std::vector<Node> nodes)
    : bounds_(bounds), nodes_(std::move(nodes)) {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].id != static_cast<int>(i))
      throw std::invalid_argument("Deployment: node ids must be 0..n-1");
  }
}

void Deployment::sense(const ScalarField& field,
                       std::vector<double>& readings) const {
  readings.resize(nodes_.size());
  exec::parallel_for_blocks(
      TileBlocks{nodes_.size(), kSenseBlock},
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
          readings[i] = nodes_[i].alive ? field.value(nodes_[i].pos) : 0.0;
      });
}

Deployment Deployment::uniform_random(FieldBounds bounds, int n, Rng& rng) {
  if (n <= 0) throw std::invalid_argument("Deployment: n must be positive");
  std::vector<Node> nodes;
  nodes.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    nodes.push_back({i,
                     {rng.uniform(bounds.x0, bounds.x1),
                      rng.uniform(bounds.y0, bounds.y1)},
                     true,
                     std::nullopt});
  }
  return Deployment(bounds, std::move(nodes));
}

Deployment Deployment::grid(FieldBounds bounds, int n) {
  if (n <= 0) throw std::invalid_argument("Deployment: n must be positive");
  const int cols = static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n))));
  const int rows = (n + cols - 1) / cols;
  std::vector<Node> nodes;
  nodes.reserve(static_cast<std::size_t>(n));
  const double cw = bounds.width() / cols;
  const double ch = bounds.height() / rows;
  int id = 0;
  for (int r = 0; r < rows && id < n; ++r) {
    for (int c = 0; c < cols && id < n; ++c) {
      nodes.push_back({id,
                       {bounds.x0 + (c + 0.5) * cw, bounds.y0 + (r + 0.5) * ch},
                       true,
                       std::nullopt});
      ++id;
    }
  }
  return Deployment(bounds, std::move(nodes));
}

int Deployment::alive_count() const {
  int count = 0;
  for (const auto& node : nodes_) count += node.alive ? 1 : 0;
  return count;
}

double Deployment::density() const {
  const double area = bounds_.width() * bounds_.height();
  return area > 0.0 ? static_cast<double>(nodes_.size()) / area : 0.0;
}

void Deployment::fail_random(double fraction, Rng& rng) {
  fraction = std::clamp(fraction, 0.0, 1.0);
  std::vector<int> alive_ids;
  for (const auto& node : nodes_)
    if (node.alive) alive_ids.push_back(node.id);
  const auto to_fail = static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(alive_ids.size())));
  // Partial Fisher-Yates: pick `to_fail` distinct victims.
  for (std::size_t i = 0; i < to_fail && i < alive_ids.size(); ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.uniform_int(alive_ids.size() - i));
    std::swap(alive_ids[i], alive_ids[j]);
    nodes_[static_cast<std::size_t>(alive_ids[i])].alive = false;
  }
}

void Deployment::revive_all() {
  for (auto& node : nodes_) node.alive = true;
}

int Deployment::nearest_alive(Vec2 p) const {
  int best = -1;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (const auto& node : nodes_) {
    if (!node.alive) continue;
    const double d2 = (node.pos - p).norm2();
    if (d2 < best_d2) {
      best_d2 = d2;
      best = node.id;
    }
  }
  return best;
}

}  // namespace isomap
