#include "serve/wire.hpp"

#include "util/json.hpp"

namespace isomap::serve {

std::string serialize_response(const std::string& deployment,
                               const std::vector<WireLevel>& levels) {
  std::string out;
  out.reserve(256);
  out += "{\"deployment\":";
  json_escape(out, deployment);
  out += ",\"levels\":[";
  bool first_level = true;
  for (const WireLevel& level : levels) {
    if (!first_level) out += ',';
    first_level = false;
    out += "{\"isolevel\":";
    out += json_number(level.isolevel);
    out += ",\"reports\":";
    out += std::to_string(level.report_count);
    out += ",\"boundaries\":[";
    bool first_chain = true;
    for (const WirePolyline& chain : level.boundaries) {
      if (!first_chain) out += ',';
      first_chain = false;
      out += "{\"closed\":";
      out += chain.closed ? "true" : "false";
      out += ",\"points\":[";
      bool first_point = true;
      for (const Vec2& p : *chain.points) {
        if (!first_point) out += ',';
        first_point = false;
        out += '[';
        out += json_number(p.x);
        out += ',';
        out += json_number(p.y);
        out += ']';
      }
      out += "]}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::vector<WireLevel> wire_levels_from_map(const ContourMap& map,
                                            const std::vector<int>& levels) {
  std::vector<WireLevel> out;
  out.reserve(levels.size());
  for (const int k : levels) {
    const LevelRegion& region = map.region(k);
    WireLevel w;
    w.isolevel = region.isolevel();
    w.report_count = static_cast<int>(region.reports().size());
    w.boundaries.reserve(region.boundaries().size());
    for (const Polyline& chain : region.boundaries())
      w.boundaries.push_back({chain.closed(), &chain.points()});
    out.push_back(std::move(w));
  }
  return out;
}

std::vector<WireLevel> wire_levels_from_contours(
    const std::vector<capsule::LevelContour>& contours,
    const std::vector<int>& levels) {
  std::vector<WireLevel> out;
  out.reserve(levels.size());
  for (const int k : levels) {
    const capsule::LevelContour& lc = contours[static_cast<std::size_t>(k)];
    WireLevel w;
    w.isolevel = lc.isolevel;
    w.report_count = lc.report_count;
    w.boundaries.reserve(lc.boundaries.size());
    for (const capsule::ContourPolyline& chain : lc.boundaries)
      w.boundaries.push_back({chain.closed, &chain.points});
    out.push_back(std::move(w));
  }
  return out;
}

}  // namespace isomap::serve
