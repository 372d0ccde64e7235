#include "eval/svg.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace isomap {

std::string level_fill_colour(int level, int max_level) {
  // Light steel blue down to deep navy.
  const double t = max_level > 0
                       ? std::clamp(static_cast<double>(level) / max_level,
                                    0.0, 1.0)
                       : 0.0;
  const int r = static_cast<int>(224 - t * 190);
  const int g = static_cast<int>(236 - t * 172);
  const int b = static_cast<int>(246 - t * 116);
  std::ostringstream ss;
  ss << "rgb(" << r << "," << g << "," << b << ")";
  return ss.str();
}

SvgWriter::SvgWriter(FieldBounds bounds, int pixels)
    : bounds_(bounds), width_px_(pixels) {
  height_px_ = static_cast<int>(pixels * bounds.height() /
                                std::max(bounds.width(), 1e-9));
}

Vec2 SvgWriter::to_canvas(Vec2 world) const {
  const double x =
      (world.x - bounds_.x0) / bounds_.width() * width_px_;
  const double y =
      (1.0 - (world.y - bounds_.y0) / bounds_.height()) * height_px_;
  return {x, y};
}

void SvgWriter::add_level_raster(const std::function<int(Vec2)>& classify,
                                 int max_level, int cells) {
  std::ostringstream ss;
  const double cw = static_cast<double>(width_px_) / cells;
  const double ch = static_cast<double>(height_px_) / cells;
  for (int iy = 0; iy < cells; ++iy) {
    for (int ix = 0; ix < cells; ++ix) {
      const Vec2 world{
          bounds_.x0 + bounds_.width() * (ix + 0.5) / cells,
          bounds_.y0 + bounds_.height() * (iy + 0.5) / cells};
      const int level = classify(world);
      const Vec2 canvas = to_canvas(
          {bounds_.x0 + bounds_.width() * ix / cells,
           bounds_.y0 + bounds_.height() * (iy + 1.0) / cells});
      ss << "<rect x=\"" << canvas.x << "\" y=\"" << canvas.y
         << "\" width=\"" << cw + 0.5 << "\" height=\"" << ch + 0.5
         << "\" fill=\"" << level_fill_colour(level, max_level)
         << "\" stroke=\"none\"/>\n";
    }
  }
  body_ += ss.str();
}

void SvgWriter::add_polyline(const Polyline& line, const std::string& colour,
                             double width_px) {
  if (line.size() < 2) return;
  std::ostringstream ss;
  ss << (line.closed() ? "<polygon" : "<polyline") << " points=\"";
  for (const Vec2 p : line.points()) {
    const Vec2 c = to_canvas(p);
    ss << c.x << "," << c.y << " ";
  }
  ss << "\" fill=\"none\" stroke=\"" << colour << "\" stroke-width=\""
     << width_px << "\"/>\n";
  body_ += ss.str();
}

void SvgWriter::add_polylines(const std::vector<Polyline>& lines,
                              const std::string& colour, double width_px) {
  for (const auto& line : lines) add_polyline(line, colour, width_px);
}

void SvgWriter::add_points(const std::vector<Vec2>& points,
                           const std::string& colour, double radius_px) {
  std::ostringstream ss;
  for (const Vec2 p : points) {
    const Vec2 c = to_canvas(p);
    ss << "<circle cx=\"" << c.x << "\" cy=\"" << c.y << "\" r=\""
       << radius_px << "\" fill=\"" << colour << "\"/>\n";
  }
  body_ += ss.str();
}

void SvgWriter::add_marker(Vec2 position, const std::string& label,
                           const std::string& colour) {
  const Vec2 c = to_canvas(position);
  std::ostringstream ss;
  ss << "<rect x=\"" << c.x - 4 << "\" y=\"" << c.y - 4
     << "\" width=\"8\" height=\"8\" fill=\"" << colour << "\"/>\n"
     << "<text x=\"" << c.x + 6 << "\" y=\"" << c.y + 4
     << "\" font-size=\"12\" font-family=\"sans-serif\" fill=\"" << colour
     << "\">" << label << "</text>\n";
  body_ += ss.str();
}

std::string SvgWriter::str() const {
  std::ostringstream ss;
  ss << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << width_px_
     << "\" height=\"" << height_px_ << "\" viewBox=\"0 0 " << width_px_
     << " " << height_px_ << "\">\n"
     << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n"
     << body_ << "</svg>\n";
  return ss.str();
}

bool SvgWriter::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << str();
  return static_cast<bool>(out);
}

}  // namespace isomap
