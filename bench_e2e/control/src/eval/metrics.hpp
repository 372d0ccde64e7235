#pragma once

#include <vector>

#include "eval/level_map.hpp"
#include "field/scalar_field.hpp"
#include "geometry/polyline.hpp"
#include "isomap/contour_map.hpp"

namespace isomap {

/// Ground-truth isolines of a field at one isolevel, extracted by marching
/// squares on a dense sample grid (`resolution` samples per axis).
std::vector<Polyline> true_isolines(const ScalarField& field, double isolevel,
                                    int resolution = 200);

/// The paper's Fig. 11 mapping-accuracy metric: rasterize the estimated
/// map and the ground truth at `resolution` and return the fraction of
/// agreeing pixels.
double mapping_accuracy(const ContourMap& map, const ScalarField& field,
                        const std::vector<double>& isolevels,
                        int resolution = 100);

/// The paper's Fig. 12 metric: the Hausdorff distance between estimated
/// and true isolines, averaged over the isolevels that have estimated
/// boundaries. `sample_spacing` controls the curve sampling density.
/// Returns +inf when no level produced any boundary.
double isoline_hausdorff(const ContourMap& map, const ScalarField& field,
                         const std::vector<double>& isolevels,
                         int resolution = 200, double sample_spacing = 0.5);

/// Error in degrees between an estimated descent direction and the true
/// one (-grad f) at `p`; used by the Fig. 7 gradient-error experiment.
double gradient_error_deg(const ScalarField& field, Vec2 p,
                          Vec2 estimated_descent);

/// Per-level intersection-over-union between the estimated and true
/// superlevel regions {p : level_index(p) >= k+1}; finer-grained than the
/// global pixel accuracy (which is dominated by the large easy areas).
/// Returns one value per isolevel; a level where both regions are empty
/// scores 1, a level where exactly one is empty scores 0.
std::vector<double> level_region_iou(const ContourMap& map,
                                     const ScalarField& field,
                                     const std::vector<double>& isolevels,
                                     int resolution = 100);

/// Mean of level_region_iou over the levels.
double mean_region_iou(const ContourMap& map, const ScalarField& field,
                       const std::vector<double>& isolevels,
                       int resolution = 100);

}  // namespace isomap
