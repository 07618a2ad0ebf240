// lazyhb/support/table.hpp
//
// Column-aligned text tables and CSV emission for the CLI and the benches:
// a human-readable table on stdout and, on request, machine-readable CSV so
// plots can be regenerated externally.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lazyhb::support {

class Table {
 public:
  /// Construct with column headers.
  explicit Table(std::vector<std::string> headers);

  /// Begin a new row; subsequent cell() calls fill it left to right.
  void beginRow();
  void cell(const std::string& value);
  void cell(std::int64_t value);
  void cell(std::uint64_t value);
  void cell(double value, int precision = 2);

  /// Number of data rows added so far.
  [[nodiscard]] std::size_t rowCount() const noexcept { return rows_.size(); }

  /// Render as an aligned text table.
  [[nodiscard]] std::string toText() const;

  /// Render as CSV (headers + rows, comma-separated, no quoting — callers
  /// must not put commas in cells).
  [[nodiscard]] std::string toCsv() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format n with thousands separators ("1,234,567") for report text.
[[nodiscard]] std::string withCommas(std::uint64_t n);

}  // namespace lazyhb::support
