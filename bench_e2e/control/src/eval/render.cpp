#include "eval/render.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace isomap {
namespace {

constexpr char kShades[] = {' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'};
constexpr int kNumShades = static_cast<int>(sizeof(kShades));

char shade_for(int level, int max_level) {
  if (max_level <= 0) return kShades[0];
  const int idx = std::min(kNumShades - 1, level * (kNumShades - 1) / max_level);
  return kShades[idx];
}

std::vector<std::string> render_lines(const LevelMap& map) {
  const int max_level = std::max(map.max_level(), 1);
  std::vector<std::string> lines;
  lines.reserve(static_cast<std::size_t>(map.ny()));
  // Top row of the output = highest y (north up).
  for (int iy = map.ny() - 1; iy >= 0; --iy) {
    std::string line;
    line.reserve(static_cast<std::size_t>(map.nx()));
    for (int ix = 0; ix < map.nx(); ++ix)
      line.push_back(shade_for(map.at(ix, iy), max_level));
    lines.push_back(std::move(line));
  }
  return lines;
}

}  // namespace

std::string ascii_render(const LevelMap& map) {
  std::ostringstream out;
  for (const auto& line : render_lines(map)) out << line << "\n";
  return out.str();
}

std::string ascii_render_pair(const LevelMap& left, const LevelMap& right,
                              const std::string& left_caption,
                              const std::string& right_caption) {
  const auto l = render_lines(left);
  const auto r = render_lines(right);
  std::ostringstream out;
  const std::size_t lw = l.empty() ? left_caption.size() : l[0].size();
  out << left_caption;
  if (left_caption.size() < lw + 4)
    out << std::string(lw + 4 - left_caption.size(), ' ');
  out << right_caption << "\n";
  const std::size_t rows = std::max(l.size(), r.size());
  for (std::size_t i = 0; i < rows; ++i) {
    const std::string& ll = i < l.size() ? l[i] : std::string(lw, ' ');
    out << ll << "    " << (i < r.size() ? r[i] : "") << "\n";
  }
  return out.str();
}

bool write_pgm(const LevelMap& map, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  const int max_level = std::max(map.max_level(), 1);
  out << "P5\n" << map.nx() << " " << map.ny() << "\n255\n";
  for (int iy = map.ny() - 1; iy >= 0; --iy) {
    for (int ix = 0; ix < map.nx(); ++ix) {
      const int grey = 255 - map.at(ix, iy) * 255 / max_level;
      out.put(static_cast<char>(grey));
    }
  }
  return static_cast<bool>(out);
}

}  // namespace isomap
