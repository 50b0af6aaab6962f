//===- problems/H2O.h - Water-building barrier -----------------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The H2O problem (Andrews; paper Fig. 9): hydrogen threads wait until an
/// oxygen binds two of them into a molecule; the oxygen waits until two
/// hydrogens are available. Shared-only threshold predicates; the paper
/// runs one oxygen thread and sweeps the number of hydrogen threads.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_PROBLEMS_H2O_H
#define AUTOSYNCH_PROBLEMS_H2O_H

#include "problems/Mechanism.h"

#include <cstdint>
#include <memory>

namespace autosynch {

/// Water-molecule assembly barrier.
class H2OIface {
public:
  virtual ~H2OIface() = default;

  /// A hydrogen atom arrives and blocks until consumed by a molecule.
  virtual void hydrogen() = 0;

  /// An oxygen atom arrives, blocks until two hydrogens are available, and
  /// completes one molecule.
  virtual void oxygen() = 0;

  /// Molecules completed (synchronized snapshot).
  virtual int64_t molecules() const = 0;
};

std::unique_ptr<H2OIface> makeH2O(Mechanism M);

} // namespace autosynch

#endif // AUTOSYNCH_PROBLEMS_H2O_H
