//===- support/Table.h - Aligned text tables and CSV output ----*- C++ -*-===//
//
// Part of the dtbgc project (Barrett & Zorn DTB reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small table builder that the benchmark binaries use to print the
/// paper's tables as aligned monospace text and, optionally, as CSV for
/// downstream plotting.
///
//===----------------------------------------------------------------------===//

#ifndef DTB_SUPPORT_TABLE_H
#define DTB_SUPPORT_TABLE_H

#include <cstdio>
#include <string>
#include <vector>

namespace dtb {

/// Column alignment within an aligned text rendering.
enum class AlignKind { Left, Right };

/// Accumulates rows of strings and renders them with per-column widths.
class Table {
public:
  /// Creates a table with one header cell per entry of \p Header. All
  /// columns default to right alignment except the first.
  explicit Table(std::vector<std::string> Header);

  /// Overrides the alignment of column \p Column.
  void setAlignment(size_t Column, AlignKind Kind);

  /// Appends a data row; it must have exactly as many cells as the header.
  void addRow(std::vector<std::string> Row);

  /// Appends a horizontal separator line.
  void addSeparator();

  /// Renders as aligned text (header, rule, rows) to \p Out.
  void print(std::FILE *Out) const;

  /// Renders as CSV (no separators, quoted only when needed) to \p Out.
  void printCsv(std::FILE *Out) const;

  size_t numColumns() const { return Header.size(); }
  /// Number of data rows (separators excluded).
  size_t numRows() const;

  /// Returns \p Cell as one CSV field (RFC 4180): as it is, unless it holds
  /// a comma, a quote or a line break; then quoted, with quotes doubled.
  static std::string csvField(const std::string &Cell);

  /// Formats a double with \p Decimals fractional digits (helper for cells).
  static std::string cell(double Value, int Decimals = 0);
  static std::string cell(uint64_t Value);

private:
  std::vector<std::string> Header;
  std::vector<AlignKind> Alignments;
  struct RowEntry {
    bool IsSeparator;
    std::vector<std::string> Cells;
  };
  std::vector<RowEntry> Rows;
};

} // namespace dtb

#endif // DTB_SUPPORT_TABLE_H
