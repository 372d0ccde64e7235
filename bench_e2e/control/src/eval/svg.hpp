#pragma once

#include <functional>
#include <string>
#include <vector>

#include "field/scalar_field.hpp"
#include "geometry/polyline.hpp"

namespace isomap {

/// Minimal SVG writer for contour maps: filled level regions (sampled),
/// isoline polylines, node markers. Produces self-contained documents
/// viewable in any browser — the publication-quality counterpart of the
/// ASCII renders.
class SvgWriter {
 public:
  /// `bounds` is the world window; the document maps it onto a canvas of
  /// `pixels` width (height follows the aspect ratio). World y points up
  /// (SVG's points down; the writer flips).
  SvgWriter(FieldBounds bounds, int pixels = 640);

  /// Filled background from a level classifier sampled on a `cells` x
  /// `cells` grid; level 0 is lightest. Call first (painters' order).
  void add_level_raster(const std::function<int(Vec2)>& classify,
                        int max_level, int cells = 120);

  /// One polyline in the given CSS colour.
  void add_polyline(const Polyline& line, const std::string& colour,
                    double width_px = 1.5);

  /// All chains of a set in one colour.
  void add_polylines(const std::vector<Polyline>& lines,
                     const std::string& colour, double width_px = 1.5);

  /// Dots for node positions (e.g. isoline nodes or the deployment).
  void add_points(const std::vector<Vec2>& points, const std::string& colour,
                  double radius_px = 1.5);

  /// A labelled marker (e.g. the sink).
  void add_marker(Vec2 position, const std::string& label,
                  const std::string& colour);

  /// Complete SVG document.
  std::string str() const;

  /// Write to file; false on I/O failure.
  bool save(const std::string& path) const;

 private:
  Vec2 to_canvas(Vec2 world) const;

  FieldBounds bounds_;
  int width_px_;
  int height_px_;
  std::string body_;
};

/// Colour helper: a light-to-dark blue ramp for level fills.
std::string level_fill_colour(int level, int max_level);

}  // namespace isomap
