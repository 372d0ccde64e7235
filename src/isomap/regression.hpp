#pragma once

#include <optional>
#include <span>
#include <vector>

#include "geometry/vec2.hpp"

namespace isomap {
namespace obs {
class Histogram;
}
class Deployment;

/// Result of the local linear fit v = c0 + c1*x + c2*y.
struct PlaneFit {
  double c0 = 0.0;
  double c1 = 0.0;
  double c2 = 0.0;

  double value_at(Vec2 p) const { return c0 + c1 * p.x + c2 * p.y; }
  /// Gradient of the fitted plane.
  Vec2 gradient() const { return {c1, c2}; }
  /// The paper's reported direction d = -(c1, c2) (Eq. 3): steepest
  /// descent, approximating the isoline normal pointing downhill.
  Vec2 descent_direction() const { return {-c1, -c2}; }
};

/// Position block of the centred sufficient statistics behind a plane fit
/// (the normal-equation sums of Eq. 2): sample count, mean position, and
/// the centred position sums. A sensor's own and its neighbours'
/// positions never change between continuous-mapping rounds, so this
/// block is computed once per node and reused verbatim — recomputing it
/// from the same positions in the same order yields the same bits, which
/// is what makes the cached path bitwise-identical to a fresh fit.
struct PlanePositionStats {
  std::size_t n = 0;   ///< Sample count.
  Vec2 mean{};         ///< Mean sample position.
  double sx = 0.0, sy = 0.0;               ///< Centred first-order sums.
  double sxx = 0.0, sxy = 0.0, syy = 0.0;  ///< Centred second-order sums.
};

/// Value block of the sufficient statistics: mean reading and the centred
/// value sums. Depends on every sample's reading (the centring couples
/// them through mean_v), so it is recomputed — in O(n) with ~half the
/// arithmetic of a full fit — whenever any reading in the sample set
/// changed.
struct PlaneValueStats {
  double mean_v = 0.0;
  double sv = 0.0, sxv = 0.0, syv = 0.0;
};

/// Accumulate the position block over the samples in order; positions
/// are given as parallel coordinate arrays. Each accumulator adds its own
/// addends in sample order (vectorization happens across the independent
/// sum chains and via unit-stride loads, never by reassociating within a
/// chain), so the stats — and any fit solved from them — are
/// bit-identical to the array-of-structs loop in tests/oracles.
PlanePositionStats plane_position_stats(std::span<const double> xs,
                                        std::span<const double> ys);

/// Accumulate the value block over the samples in order, centring
/// positions on `pos.mean`. The samples must be the ones `pos` was built
/// from. Bit-identical to the oracle's loop (see above).
PlaneValueStats plane_value_stats(std::span<const double> xs,
                                  std::span<const double> ys,
                                  std::span<const double> vs,
                                  const PlanePositionStats& pos);

/// Least-squares plane fit through the samples, given as parallel
/// coordinate/value arrays, by solving the 3x3 normal equations A w = b of
/// Eq. 2 (Section 3.3): plane_position_stats + plane_value_stats +
/// solve_plane, nothing else — the same kernels the continuous refit
/// runs, so callers holding a cached position block reproduce it bit for
/// bit. Returns nullopt when the samples are degenerate (fewer than 3, or
/// collinear positions), in which case no gradient estimate exists. No
/// observability emission and no ops accounting, so it is safe to call
/// from exec pool workers.
std::optional<PlaneFit> fit_plane_soa(std::span<const double> xs,
                                      std::span<const double> ys,
                                      std::span<const double> vs);

/// Solve the 3x3 normal equations assembled from the two blocks. Returns
/// nullopt on degeneracy (fewer than 3 samples, or collinear positions).
/// Pure arithmetic: no observability emission, no ops accounting.
std::optional<PlaneFit> solve_plane(const PlanePositionStats& pos,
                                    const PlaneValueStats& val);

/// Arithmetic-operation charge of one non-degenerate plane fit over n
/// samples, which the protocol charges to the node's compute ledger: ~12
/// multiply-adds per sample for the sums plus a constant ~40 for the 3x3
/// solve — the O(deg) per-isoline-node cost quoted in Section 4.2. The
/// charge is a function of the sample count only, so a cached fit replays
/// it exactly.
inline double fit_plane_ops(std::size_t n_samples) {
  return 12.0 * static_cast<double>(n_samples) + 40.0;
}

/// One node's plane fit (Eq. 2–3) as both engines keep it, over a fixed
/// sample set: the node itself, then its `scope` in order, at their
/// reported (localized) positions with their sensed readings. prime()
/// lays out the positions and their position block once; refit()
/// rewrites the readings and redoes only the value block and the solve.
/// Together they are fit_plane_soa over the same samples, bit for bit.
/// Neither emits metrics nor charges a ledger, so both may run on pool
/// workers; the ordered merge replays each fit through FitMetrics and
/// charges `ops` to the node.
struct PlaneFitRecord {
  bool primed = false;   ///< Positions and pos_stats are laid out.
  bool valid = false;    ///< The fit below reflects the current readings.
  bool has_fit = false;  ///< False on a degenerate sample set.
  Vec2 descent{};        ///< PlaneFit::descent_direction (Eq. 3).
  double ops = 0.0;      ///< fit_plane_ops, or 0 on a degenerate fit.
  PlanePositionStats pos_stats;
  /// The samples as three parallel arrays back to back, [xs | ys | vs],
  /// in one buffer: xs and ys are written once at prime, only vs again.
  /// refit() reads it; a record that is not refit again may hand the
  /// buffer on (size() does not read it).
  std::vector<double> samples;

  /// Sample count, fixed by prime().
  std::size_t size() const { return pos_stats.n; }

  /// Lay out the sample positions and their position block. Allocates
  /// the sample buffer; leaves the fit invalid.
  void prime(const Deployment& deployment, int node,
             std::span<const int> scope);

  /// Fit the primed samples to `readings` (indexed by node). `node` and
  /// `scope` must be the ones prime() was given. Allocates nothing.
  void refit(std::span<const double> readings, int node,
             std::span<const int> scope);
};

/// The metric emissions of plane fits computed on pool workers, replayed
/// in an ordered merge: per fit "regression.fits" and one
/// "regression.samples" observation, plus "regression.degenerate" when the
/// fit failed. Registry slots are resolved on first use — one map lookup
/// per merge instead of per fit — so each counter appears exactly when a
/// per-fit emission would have created it. Use one per merge: the
/// registry can change between runs and rounds.
class FitMetrics {
 public:
  void record(std::size_t n_samples, bool has_fit);

 private:
  double* fits_ = nullptr;
  obs::Histogram* samples_ = nullptr;
  double* degenerate_ = nullptr;
};

/// Solve a 3x3 linear system in-place by Gaussian elimination with partial
/// pivoting. Returns false if singular. Exposed for testing.
bool solve3x3(double a[3][3], double b[3], double x[3]);

}  // namespace isomap
