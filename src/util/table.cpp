#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/require.hpp"

namespace cloudfog::util {

Table::Table(std::string title) : title_(std::move(title)) {}

void Table::set_header(std::vector<std::string> header) {
  CLOUDFOG_REQUIRE(rows_.empty(), "set_header must precede add_row");
  CLOUDFOG_REQUIRE(!header.empty(), "header must not be empty");
  header_ = std::move(header);
}

void Table::add_row(std::vector<std::string> cells) {
  CLOUDFOG_REQUIRE(!header_.empty(), "set_header before add_row");
  CLOUDFOG_REQUIRE(cells.size() == header_.size(), "row width mismatch");
  rows_.push_back(std::move(cells));
}

const std::string& Table::cell(std::size_t row, std::size_t col) const {
  CLOUDFOG_REQUIRE(row < rows_.size(), "row out of range");
  CLOUDFOG_REQUIRE(col < header_.size(), "column out of range");
  return rows_[row][col];
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());

  os << "== " << title_ << " ==\n";
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << row[c];
    }
    os << '\n';
  };
  emit_row(header_);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << std::string(widths[c], '-') << "  ";
  }
  os << '\n';
  for (const auto& row : rows_) emit_row(row);
  os << '\n';
}

namespace {

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void Table::print_csv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) os << ',';
      os << csv_escape(row[c]);
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
}

std::string format_double(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

}  // namespace cloudfog::util
