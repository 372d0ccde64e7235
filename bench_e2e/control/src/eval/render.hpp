#pragma once

#include <string>

#include "eval/level_map.hpp"

namespace isomap {

/// Render a level map as ASCII art (one character per pixel, darker
/// characters = higher levels, y axis pointing up). Used by the examples
/// and the Fig. 9/10 benches to show the reconstructed contour maps.
std::string ascii_render(const LevelMap& map);

/// Render two maps side by side with captions (e.g. truth vs estimate).
std::string ascii_render_pair(const LevelMap& left, const LevelMap& right,
                              const std::string& left_caption,
                              const std::string& right_caption);

/// Write the level map as a binary PGM image (grey levels spread over the
/// level range). Returns false on I/O failure.
bool write_pgm(const LevelMap& map, const std::string& path);

}  // namespace isomap
