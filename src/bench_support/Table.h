//===- bench_support/Table.h - Paper-style result tables -------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Column-aligned plain-text tables, one per reproduced figure/table. The
/// benches print the same series the paper plots, so the shapes compare
/// directly (see the README's "Benchmarks" section).
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_BENCH_SUPPORT_TABLE_H
#define AUTOSYNCH_BENCH_SUPPORT_TABLE_H

#include <string>
#include <vector>

namespace autosynch::bench {

/// Accumulates rows of string cells and prints them column-aligned.
class Table {
public:
  explicit Table(std::vector<std::string> Header);

  /// Appends a row; must have exactly as many cells as the header.
  void addRow(std::vector<std::string> Cells);

  /// Renders to stdout with two-space column gaps.
  void print() const;

  /// Formats seconds with millisecond resolution ("0.123").
  static std::string fmtSeconds(double S);
  /// Formats a count with no decoration.
  static std::string fmtCount(uint64_t N);
  /// Formats a ratio ("12.3x").
  static std::string fmtRatio(double R);

private:
  std::vector<std::vector<std::string>> Rows;
};

} // namespace autosynch::bench

#endif // AUTOSYNCH_BENCH_SUPPORT_TABLE_H
