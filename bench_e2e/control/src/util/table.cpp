#include "util/table.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace isomap {

std::string format_double(double value, int precision) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(precision) << value;
  return ss.str();
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("Table needs >=1 column");
}

Table& Table::row() {
  rows_.emplace_back();
  rows_.back().reserve(headers_.size());
  return *this;
}

Table& Table::cell(const std::string& value) {
  if (rows_.empty()) throw std::logic_error("Table::cell before row()");
  if (rows_.back().size() >= headers_.size())
    throw std::logic_error("Table row has too many cells");
  rows_.back().push_back(value);
  return *this;
}

Table& Table::cell(double value, int precision) {
  return cell(format_double(value, precision));
}

Table& Table::cell(long long value) { return cell(std::to_string(value)); }
Table& Table::cell(std::size_t value) { return cell(std::to_string(value)); }
Table& Table::cell(int value) { return cell(std::to_string(value)); }

const std::string& Table::at(std::size_t row, std::size_t col) const {
  return rows_.at(row).at(col);
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto print_row = [&](const std::vector<std::string>& cells) {
    os << "|";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& v = c < cells.size() ? cells[c] : std::string();
      os << " " << std::setw(static_cast<int>(widths[c])) << v << " |";
    }
    os << "\n";
  };

  print_row(headers_);
  os << "|";
  for (std::size_t c = 0; c < headers_.size(); ++c)
    os << std::string(widths[c] + 2, '-') << "|";
  os << "\n";
  for (const auto& row : rows_) print_row(row);
}

namespace {
std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"') out += "\"\"";
    else out += ch;
  }
  out += "\"";
  return out;
}
}  // namespace

void Table::print_csv(std::ostream& os) const {
  for (std::size_t c = 0; c < headers_.size(); ++c)
    os << (c ? "," : "") << csv_escape(headers_[c]);
  os << "\n";
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c)
      os << (c ? "," : "") << csv_escape(row[c]);
    os << "\n";
  }
}

bool Table::save_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  print_csv(out);
  return static_cast<bool>(out);
}

}  // namespace isomap
