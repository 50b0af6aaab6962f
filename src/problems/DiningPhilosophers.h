//===- problems/DiningPhilosophers.h - Dining philosophers -----*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dining philosophers (paper Fig. 13): philosopher i needs chopsticks i
/// and (i+1) mod N simultaneously and holds both while eating. The waiting
/// predicate `!stick[i] && !stick[i+1]` is a conjunction of boolean shared
/// variables; contention is local (each philosopher competes only with two
/// neighbours), which is why the paper sees the mechanisms stay close.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_PROBLEMS_DININGPHILOSOPHERS_H
#define AUTOSYNCH_PROBLEMS_DININGPHILOSOPHERS_H

#include "problems/Mechanism.h"

#include <cstdint>
#include <memory>

namespace autosynch {

/// Chopstick arbiter for N philosophers.
class DiningPhilosophersIface {
public:
  virtual ~DiningPhilosophersIface() = default;

  /// Blocks until both of \p Philosopher's chopsticks are free, then takes
  /// them.
  virtual void pickUp(int64_t Philosopher) = 0;

  /// Returns \p Philosopher's chopsticks.
  virtual void putDown(int64_t Philosopher) = 0;

  /// Completed meals (synchronized snapshot).
  virtual int64_t meals() const = 0;
};

std::unique_ptr<DiningPhilosophersIface>
makeDiningPhilosophers(Mechanism M, int64_t NumPhilosophers);

} // namespace autosynch

#endif // AUTOSYNCH_PROBLEMS_DININGPHILOSOPHERS_H
