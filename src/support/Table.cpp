//===- support/Table.cpp --------------------------------------------------==//

#include "support/Table.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cinttypes>

using namespace dtb;

Table::Table(std::vector<std::string> Header) : Header(std::move(Header)) {
  if (this->Header.empty())
    fatalError("table requires at least one column");
  Alignments.assign(this->Header.size(), AlignKind::Right);
  Alignments[0] = AlignKind::Left;
}

void Table::setAlignment(size_t Column, AlignKind Kind) {
  assert(Column < Alignments.size() && "column out of range");
  Alignments[Column] = Kind;
}

void Table::addRow(std::vector<std::string> Row) {
  if (Row.size() != Header.size())
    fatalError("table row width does not match header");
  Rows.push_back({/*IsSeparator=*/false, std::move(Row)});
}

void Table::addSeparator() { Rows.push_back({/*IsSeparator=*/true, {}}); }

size_t Table::numRows() const {
  size_t Count = 0;
  for (const RowEntry &Row : Rows)
    if (!Row.IsSeparator)
      ++Count;
  return Count;
}

void Table::print(std::FILE *Out) const {
  std::vector<size_t> Widths(Header.size());
  for (size_t C = 0; C != Header.size(); ++C)
    Widths[C] = Header[C].size();
  for (const RowEntry &Row : Rows) {
    if (Row.IsSeparator)
      continue;
    for (size_t C = 0; C != Row.Cells.size(); ++C)
      Widths[C] = std::max(Widths[C], Row.Cells[C].size());
  }

  auto printCells = [&](const std::vector<std::string> &Cells) {
    for (size_t C = 0; C != Cells.size(); ++C) {
      int Width = static_cast<int>(Widths[C]);
      const char *Sep = C + 1 == Cells.size() ? "\n" : "  ";
      if (Alignments[C] == AlignKind::Left)
        std::fprintf(Out, "%-*s%s", Width, Cells[C].c_str(), Sep);
      else
        std::fprintf(Out, "%*s%s", Width, Cells[C].c_str(), Sep);
    }
  };

  auto printRule = [&] {
    for (size_t C = 0; C != Widths.size(); ++C) {
      for (size_t I = 0; I != Widths[C]; ++I)
        std::fputc('-', Out);
      std::fputs(C + 1 == Widths.size() ? "\n" : "  ", Out);
    }
  };

  printCells(Header);
  printRule();
  for (const RowEntry &Row : Rows) {
    if (Row.IsSeparator)
      printRule();
    else
      printCells(Row.Cells);
  }
}

void Table::printCsv(std::FILE *Out) const {
  auto printCsvRow = [&](const std::vector<std::string> &Cells) {
    for (size_t C = 0; C != Cells.size(); ++C) {
      std::fputs(csvField(Cells[C]).c_str(), Out);
      std::fputc(C + 1 == Cells.size() ? '\n' : ',', Out);
    }
  };
  printCsvRow(Header);
  for (const RowEntry &Row : Rows)
    if (!Row.IsSeparator)
      printCsvRow(Row.Cells);
}

std::string Table::csvField(const std::string &Cell) {
  if (Cell.find_first_of(",\"\r\n") == std::string::npos)
    return Cell;
  std::string Quoted = "\"";
  for (char Ch : Cell) {
    if (Ch == '"')
      Quoted += '"';
    Quoted += Ch;
  }
  return Quoted + '"';
}

std::string Table::cell(double Value, int Decimals) {
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.*f", Decimals, Value);
  return Buffer;
}

std::string Table::cell(uint64_t Value) {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "%" PRIu64, Value);
  return Buffer;
}
