#pragma once

#include <optional>
#include <vector>

#include "field/scalar_field.hpp"
#include "util/rng.hpp"

namespace isomap {

/// One sensor node. Position is fixed at deployment; `alive` toggles under
/// failure injection (a dead node neither senses, reports, nor routes).
///
/// `believed` models imperfect localization (the paper obtains positions
/// "either from attached localization devices such as a GPS receiver or
/// by one of existing algorithms", Section 3.3): it is the position the
/// node *reports* and uses in computations, while `pos` is the physical
/// truth that governs sensing and radio connectivity. Unset means exact
/// localization.
struct Node {
  int id = -1;
  Vec2 pos{};
  bool alive = true;
  std::optional<Vec2> believed;

  Vec2 reported_pos() const { return believed.value_or(pos); }
};

/// A set of sensor nodes placed over a bounded field. The paper deploys
/// n nodes over a sqrt(n) x sqrt(n) normalized field (density 1) either
/// uniformly at random (Iso-Map's native mode) or on a regular grid (what
/// TinyDB-style protocols require).
class Deployment {
 public:
  Deployment(FieldBounds bounds, std::vector<Node> nodes);

  /// n nodes i.i.d. uniform over the bounds.
  static Deployment uniform_random(FieldBounds bounds, int n, Rng& rng);

  /// n nodes on the most-square grid covering the bounds (rows*cols >= n is
  /// rounded so exactly floor(sqrt(n))^2-like layouts come out even;
  /// callers pass perfect squares in the paper's experiments). Cells are
  /// centred, matching TinyDB's one-node-per-grid-cell model.
  static Deployment grid(FieldBounds bounds, int n);

  const FieldBounds& bounds() const { return bounds_; }
  const std::vector<Node>& nodes() const { return nodes_; }
  std::vector<Node>& nodes() { return nodes_; }
  const Node& node(int id) const { return nodes_[static_cast<std::size_t>(id)]; }
  int size() const { return static_cast<int>(nodes_.size()); }
  int alive_count() const;

  /// Sense `field` at every node's physical position: `readings` becomes
  /// one value per node id, field.value(pos) for an alive node and 0.0
  /// for a dead one. Runs over parallel tile blocks (each node writes its
  /// own slot, so the result is independent of the thread count); inside
  /// another parallel region it runs inline.
  void sense(const ScalarField& field, std::vector<double>& readings) const;

  /// Nodes per unit area, counting all (alive or dead) nodes.
  double density() const;

  /// Mark a random `fraction` of currently-alive nodes as failed.
  void fail_random(double fraction, Rng& rng);

  /// Restore all nodes to alive.
  void revive_all();

  /// Id of the alive node nearest to `p` (the sink attachment point);
  /// -1 if no node is alive.
  int nearest_alive(Vec2 p) const;

 private:
  FieldBounds bounds_;
  std::vector<Node> nodes_;
};

}  // namespace isomap
