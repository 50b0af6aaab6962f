//===- problems/RoundRobin.h - Round-robin access pattern ------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The round-robin access pattern (paper Fig. 11 and Table 1): N threads
/// take turns entering the monitor in id order. Each thread waits on the
/// complex predicate `turn == myId` — after globalization there are N
/// distinct equivalence predicates on the same shared expression, the
/// showcase for equivalence-tag hashing: AutoSynch finds the next thread in
/// O(1) while AutoSynch-T's relay scan degrades linearly with N.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_PROBLEMS_ROUNDROBIN_H
#define AUTOSYNCH_PROBLEMS_ROUNDROBIN_H

#include "problems/Mechanism.h"

#include <cstdint>
#include <memory>

namespace autosynch {

class ConditionManager;

/// Monitor accessed by N threads in strict round-robin order.
class RoundRobinIface {
public:
  virtual ~RoundRobinIface() = default;

  /// Blocks until it is \p MyId's turn, performs the (empty) critical
  /// section, and passes the turn to (MyId + 1) mod N.
  virtual void access(int64_t MyId) = 0;

  /// Total accesses performed (synchronized snapshot).
  virtual int64_t accesses() const = 0;

  /// The condition manager of automatic implementations (its signaling
  /// statistics); null for Explicit.
  virtual ConditionManager *manager() { return nullptr; }
};

/// Creates the \p M implementation for \p NumThreads participants.
std::unique_ptr<RoundRobinIface> makeRoundRobin(Mechanism M,
                                                int64_t NumThreads);

} // namespace autosynch

#endif // AUTOSYNCH_PROBLEMS_ROUNDROBIN_H
