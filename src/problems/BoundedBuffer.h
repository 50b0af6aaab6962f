//===- problems/BoundedBuffer.h - Classic bounded buffer -------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traditional bounded-buffer (producer/consumer) problem, Fig. 8 of
/// the paper: producers block while the buffer is full, consumers while it
/// is empty. Single-item operations; the predicates are shared-only
/// (`count < capacity`, `count > 0`), which is the paper's first problem
/// class (§6.3.1).
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_PROBLEMS_BOUNDEDBUFFER_H
#define AUTOSYNCH_PROBLEMS_BOUNDEDBUFFER_H

#include "problems/Mechanism.h"

#include <cstdint>
#include <memory>

namespace autosynch {

class ConditionManager;

/// Single-item bounded buffer.
class BoundedBufferIface {
public:
  virtual ~BoundedBufferIface() = default;

  /// Blocks until there is space, then deposits \p Item.
  virtual void put(int64_t Item) = 0;

  /// Blocks until there is an item, then removes and returns it.
  virtual int64_t take() = 0;

  /// Bounded put: deposits \p Item and returns true, or returns false
  /// once \p TimeoutNs (monotonic, relative) elapses with the buffer
  /// still full. The buffer is unchanged on false.
  virtual bool putFor(int64_t Item, uint64_t TimeoutNs) = 0;

  /// Bounded take: stores the removed item in \p Out and returns true, or
  /// returns false once \p TimeoutNs elapses with the buffer still empty.
  virtual bool takeFor(int64_t &Out, uint64_t TimeoutNs) = 0;

  /// Current number of buffered items (synchronized snapshot).
  virtual int64_t size() const = 0;

  /// The condition manager of automatic implementations (its signaling
  /// statistics); null for Explicit.
  virtual ConditionManager *manager() { return nullptr; }
};

/// Creates the \p M implementation with space for \p Capacity items.
std::unique_ptr<BoundedBufferIface>
makeBoundedBuffer(Mechanism M, int64_t Capacity);

} // namespace autosynch

#endif // AUTOSYNCH_PROBLEMS_BOUNDEDBUFFER_H
