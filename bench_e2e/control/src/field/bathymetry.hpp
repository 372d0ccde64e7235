#pragma once

#include "field/gaussian_field.hpp"

namespace isomap {

/// Synthetic stand-ins for the Huanghua Harbor sonar bathymetry traces used
/// by the paper (proprietary; see DESIGN.md "Substitutions"). Values are in
/// metres of water depth and match the depth range the paper reports
/// (sea-route design depth 13.5 m; post-storm siltation down to 5.7 m).
/// The default bounds reproduce the paper's normalized 50x50 field (the
/// 400 m x 400 m evaluation section at unit node density).

/// Normal-operation harbor section: a dredged shipping channel crossing the
/// field diagonally (deep, ~13.5 m), flanked by natural seabed (~9 m) with
/// a few shoals and basins. Produces nested, well-behaved isobaths.
GaussianField harbor_bathymetry(FieldBounds bounds = {0.0, 0.0, 50.0, 50.0});

/// Post-storm variant: the same section after a siltation event has partly
/// filled the channel (local minimum depth ~5.7 m), as in the October 2003
/// storm the paper describes. Used by the failure/alarm examples.
GaussianField silted_harbor_bathymetry(
    FieldBounds bounds = {0.0, 0.0, 50.0, 50.0});

/// Multi-basin field with several disjoint contour regions at mid levels;
/// exercises the multi-region and nesting paths of the map builder.
GaussianField multi_basin_bathymetry(
    FieldBounds bounds = {0.0, 0.0, 50.0, 50.0});

/// Scale-invariant seabed for the paper's *scaling* experiments (Figs.
/// 14-16, Theorem 4.1): a fixed per-unit depth slope plus a few bumps of
/// absolute size anchored at the field centre. Unlike the scaled harbor
/// presets, the gradient magnitude does not shrink as the field grows, so
/// a fixed-granularity query selects an O(sqrt(n)) strip of isoline nodes
/// — the regime Theorem 4.1 analyses (a constant number of well-behaved
/// contour regions crossing an ever-larger field).
GaussianField sloped_seabed_bathymetry(
    FieldBounds bounds = {0.0, 0.0, 50.0, 50.0});

/// The fixed query that pairs with sloped_seabed_bathymetry for scaling
/// runs: an absolute depth window around the centre depth with 4 levels.
/// (Declared here since the window is a property of the terrain, not of
/// any one experiment.)
struct SlopedSeabedQueryWindow {
  static constexpr double kLambdaLo = 7.5;
  static constexpr double kLambdaHi = 11.5;
  static constexpr double kGranularity = 1.0;
};

}  // namespace isomap
