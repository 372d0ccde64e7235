#pragma once

#include <stdexcept>
#include <vector>

namespace isomap {

/// A contour-mapping query as disseminated by the sink (Section 3.2): the
/// data space [lambda_lo, lambda_hi], the granularity T, and the tunable
/// protocol parameters. Isolevels are lambda_i = lambda_lo + i*T within
/// the data space.
struct ContourQuery {
  double lambda_lo = 0.0;   ///< Lower end of the queried data space.
  double lambda_hi = 1.0;   ///< Upper end of the queried data space.
  double granularity = 0.1; ///< T: spacing between consecutive isolevels.

  /// Border-region half-width as a fraction of T (epsilon = fraction * T).
  /// The paper's default is 0.05.
  double epsilon_fraction = 0.05;

  /// In-network filter thresholds (Section 3.5): drop one of two reports
  /// when their gradient directions differ by less than
  /// `angular_separation_deg` AND their positions are closer than
  /// `distance_separation`. The paper's evaluation uses 30 deg / 4 units.
  double angular_separation_deg = 30.0;
  double distance_separation = 4.0;
  bool enable_filtering = true;

  /// Neighbourhood scope (hops) for the local regression (Section 3.3).
  int regression_hops = 1;

  double epsilon() const { return epsilon_fraction * granularity; }

  /// The isolevels lambda_i = lambda_lo + i*T that fall inside
  /// [lambda_lo, lambda_hi], in ascending order. The first level sits at
  /// lambda_lo + T (a level equal to the space minimum outlines the whole
  /// field and carries no information).
  std::vector<double> isolevels() const {
    if (granularity <= 0.0)
      throw std::invalid_argument("ContourQuery: granularity must be > 0");
    std::vector<double> levels;
    for (double v = lambda_lo + granularity; v <= lambda_hi + 1e-12;
         v += granularity)
      levels.push_back(v);
    return levels;
  }
};

}  // namespace isomap
