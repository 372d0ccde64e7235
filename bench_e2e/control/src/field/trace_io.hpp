#pragma once

#include <iosfwd>
#include <string>

#include "field/grid_field.hpp"

namespace isomap {

/// Trace file I/O: GridField <-> ESRI ASCII grid (.asc), the standard
/// interchange format for gridded bathymetry/elevation surveys. This is
/// how a real deployment feeds its sonar data into the simulator in
/// place of the synthetic presets — the paper's evaluation is exactly
/// such a trace-driven run over the Huanghua survey.
///
/// Format (row-major, first data row = northernmost):
///   ncols        <nx>
///   nrows        <ny>
///   xllcorner    <x0>
///   yllcorner    <y0>
///   cellsize     <cell>
///   NODATA_value <nodata>     (optional)
///   v v v ...                 (ny rows of nx values)
///
/// Cells equal to NODATA are filled with the mean of the valid samples
/// on load (the sink-interpolation convention used elsewhere).

/// Parse a trace from a stream. Throws std::runtime_error on malformed
/// input.
GridField read_ascii_grid(std::istream& in);

/// Load from a file path. Throws std::runtime_error when unreadable.
GridField load_ascii_grid(const std::string& path);

/// Serialize a grid field to the format above (no NODATA cells).
void write_ascii_grid(const GridField& grid, std::ostream& out);

/// Save to a file path; returns false on I/O failure.
bool save_ascii_grid(const GridField& grid, const std::string& path);

}  // namespace isomap
