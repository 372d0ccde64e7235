#include "field/trace_io.hpp"

#include <algorithm>
#include <cmath>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace isomap {
namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

}  // namespace

GridField read_ascii_grid(std::istream& in) {
  int ncols = -1, nrows = -1;
  double x0 = 0.0, y0 = 0.0, cell = 1.0;
  double nodata = -9999.0;
  bool has_nodata = false;

  // Header: keyword/value pairs until the first purely numeric token run.
  std::string key;
  for (int i = 0; i < 6; ++i) {
    const auto pos = in.tellg();
    if (!(in >> key)) throw std::runtime_error("trace: truncated header");
    const std::string k = lower(key);
    double value = 0.0;
    if (k == "ncols" || k == "nrows" || k == "xllcorner" ||
        k == "yllcorner" || k == "cellsize" || k == "nodata_value") {
      if (!(in >> value))
        throw std::runtime_error("trace: bad header value for " + key);
      if (k == "ncols") ncols = static_cast<int>(value);
      else if (k == "nrows") nrows = static_cast<int>(value);
      else if (k == "xllcorner") x0 = value;
      else if (k == "yllcorner") y0 = value;
      else if (k == "cellsize") cell = value;
      else {
        nodata = value;
        has_nodata = true;
      }
    } else {
      // First data token: rewind and stop header parsing.
      in.clear();
      in.seekg(pos);
      break;
    }
  }
  if (ncols < 2 || nrows < 2)
    throw std::runtime_error("trace: needs ncols/nrows >= 2");
  if (cell <= 0.0) throw std::runtime_error("trace: cellsize must be > 0");

  std::vector<double> rows_first;
  rows_first.reserve(static_cast<std::size_t>(ncols) * nrows);
  double value = 0.0;
  for (long long i = 0; i < static_cast<long long>(ncols) * nrows; ++i) {
    if (!(in >> value))
      throw std::runtime_error("trace: truncated data section");
    rows_first.push_back(value);
  }

  // Fill NODATA with the mean of valid cells.
  if (has_nodata) {
    double sum = 0.0;
    long long valid = 0;
    for (double v : rows_first) {
      if (v != nodata) {
        sum += v;
        ++valid;
      }
    }
    const double fill = valid ? sum / static_cast<double>(valid) : 0.0;
    for (double& v : rows_first)
      if (v == nodata) v = fill;
  }

  // File rows run north->south; GridField rows run south->north.
  std::vector<double> samples(rows_first.size());
  for (int r = 0; r < nrows; ++r) {
    for (int c = 0; c < ncols; ++c) {
      samples[static_cast<std::size_t>(nrows - 1 - r) * ncols + c] =
          rows_first[static_cast<std::size_t>(r) * ncols + c];
    }
  }

  const FieldBounds bounds{x0, y0, x0 + cell * (ncols - 1),
                           y0 + cell * (nrows - 1)};
  return GridField(bounds, ncols, nrows, std::move(samples));
}

GridField load_ascii_grid(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("trace: cannot open " + path);
  return read_ascii_grid(in);
}

void write_ascii_grid(const GridField& grid, std::ostream& out) {
  const FieldBounds b = grid.bounds();
  const double cell = b.width() / (grid.nx() - 1);
  const double cell_y = b.height() / (grid.ny() - 1);
  if (std::abs(cell - cell_y) > 1e-9 * std::max(cell, cell_y))
    throw std::invalid_argument(
        "trace: ESRI ASCII grids require square cells");
  out.precision(17);  // Round-trip exact doubles (max_digits10).
  out << "ncols " << grid.nx() << "\n"
      << "nrows " << grid.ny() << "\n"
      << "xllcorner " << b.x0 << "\n"
      << "yllcorner " << b.y0 << "\n"
      << "cellsize " << cell << "\n";
  out.precision(12);
  for (int iy = grid.ny() - 1; iy >= 0; --iy) {
    for (int ix = 0; ix < grid.nx(); ++ix)
      out << grid.at(ix, iy) << (ix + 1 < grid.nx() ? ' ' : '\n');
  }
}

bool save_ascii_grid(const GridField& grid, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_ascii_grid(grid, out);
  return static_cast<bool>(out);
}

}  // namespace isomap
