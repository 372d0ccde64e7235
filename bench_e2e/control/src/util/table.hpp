#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace isomap {

/// Fixed-column text table used by the benchmark harnesses to print
/// paper-shaped rows (and optionally CSV for plotting).
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Start a new row; subsequent cell() calls fill it left to right.
  Table& row();
  Table& cell(const std::string& value);
  Table& cell(double value, int precision = 3);
  Table& cell(long long value);
  Table& cell(std::size_t value);
  Table& cell(int value);

  /// Render as an aligned ASCII table.
  void print(std::ostream& os) const;
  /// Render as CSV.
  void print_csv(std::ostream& os) const;
  /// Write CSV to a file path; returns false on I/O failure.
  bool save_csv(const std::string& path) const;

  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_cols() const { return headers_.size(); }
  const std::string& at(std::size_t row, std::size_t col) const;
  const std::vector<std::string>& headers() const { return headers_; }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with fixed precision (helper shared with examples).
std::string format_double(double value, int precision);

}  // namespace isomap
