#pragma once

#include "geometry/vec2.hpp"

namespace isomap {

/// The 3-tuple report an isoline node sends to the sink (Section 3.3):
/// r = <isolevel, position, gradient direction>. `source` identifies the
/// reporting node for bookkeeping (it is not transmitted).
struct IsolineReport {
  double isolevel = 0.0;
  Vec2 position{};
  Vec2 gradient{};  ///< d = -grad(f): direction of steepest value decrease.
  int source = -1;
  /// Observation-only fields — not transmitted, not counted in kWireBytes,
  /// and excluded from capsule serialization / report diffing. `id` is the
  /// per-run causal id carried by "span"/"loss"/"drop" trace events so a
  /// report's full hop path reconstructs from the trace; `hops` counts the
  /// tree edges the report has traversed so far.
  long long id = -1;
  int hops = 0;

  /// Wire size in bytes. The paper's evaluation charges two bytes per
  /// parameter (value, x, y, dx, dy) -> 10 bytes per report.
  static constexpr double kWireBytes = 10.0;
};

}  // namespace isomap
