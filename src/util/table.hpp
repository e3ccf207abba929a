// Plain-text table rendering for the benchmark harnesses. Each figure
// reproduction prints one of these tables so the series can be compared
// against the paper by eye or diffed across runs; rows can also be dumped
// as CSV for external plotting.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace cloudfog::util {

/// Column-aligned table with a title, header row and numeric/text cells.
class Table {
 public:
  explicit Table(std::string title);

  /// Sets the header row; must be called before any add_row.
  void set_header(std::vector<std::string> header);

  /// Appends a row of preformatted cells; width must match the header.
  void add_row(std::vector<std::string> cells);

  const std::string& title() const { return title_; }
  std::size_t row_count() const { return rows_.size(); }
  std::size_t column_count() const { return header_.size(); }
  const std::string& cell(std::size_t row, std::size_t col) const;

  /// Renders an aligned ASCII table.
  void print(std::ostream& os) const;

  /// Renders RFC-4180-ish CSV (quotes cells containing commas/quotes).
  void print_csv(std::ostream& os) const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper for table cells).
std::string format_double(double v, int precision = 3);

}  // namespace cloudfog::util
