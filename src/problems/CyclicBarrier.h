//===- problems/CyclicBarrier.h - FIFO cyclic barrier ----------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A FIFO cyclic barrier: \p Parties threads block in await() until the
/// group is complete, then all advance together and the barrier resets for
/// the next generation. Arrival indices are handed out in monitor-entry
/// order (FIFO), so callers can observe their arrival rank within the
/// generation. The waiting predicate `generation > myGen` is a per-thread
/// threshold predicate after globalization — the threshold-heap workload,
/// complementing round-robin's equivalence predicates.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_PROBLEMS_CYCLICBARRIER_H
#define AUTOSYNCH_PROBLEMS_CYCLICBARRIER_H

#include "problems/Mechanism.h"

#include <cstdint>
#include <memory>

namespace autosynch {

class ConditionManager;

/// Reusable barrier for a fixed party count.
class CyclicBarrierIface {
public:
  virtual ~CyclicBarrierIface() = default;

  /// Blocks until \p Parties threads have arrived, then all are released.
  /// Returns this thread's arrival index in the generation (0 for the
  /// first arrival, Parties-1 for the one that trips the barrier).
  virtual int64_t await() = 0;

  /// Completed generations (synchronized snapshot).
  virtual int64_t trips() const = 0;

  /// The configured party count.
  virtual int64_t parties() const = 0;

  /// The condition manager of automatic implementations (its signaling
  /// statistics); null for Explicit.
  virtual ConditionManager *manager() { return nullptr; }
};

/// Creates the \p M implementation for \p Parties threads per generation.
std::unique_ptr<CyclicBarrierIface>
makeCyclicBarrier(Mechanism M, int64_t Parties);

} // namespace autosynch

#endif // AUTOSYNCH_PROBLEMS_CYCLICBARRIER_H
