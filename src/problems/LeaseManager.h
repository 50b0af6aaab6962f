//===- problems/LeaseManager.h - Bounded-hold lease pool -------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lease manager: the first timeout-native evaluation problem. A fixed
/// pool of leases; acquirers block for *at most* a caller-chosen bound —
/// the production idiom (connection pools, distributed-lock leases,
/// admission control) the paper's unbounded waitUntil cannot express. The
/// automatic implementations are one timed wait on `free > 0`; the
/// explicit implementation is the classic hand-written Lock/Condition
/// deadline loop. Grant and timeout counts are part of the observable
/// history, so the differential oracle can compare *timeout sets*, not
/// just completions, across mechanisms.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_PROBLEMS_LEASEMANAGER_H
#define AUTOSYNCH_PROBLEMS_LEASEMANAGER_H

#include "problems/Mechanism.h"

#include <cstdint>
#include <memory>

namespace autosynch {

/// Fixed pool of leases with bounded-blocking acquisition.
class LeaseManagerIface {
public:
  virtual ~LeaseManagerIface() = default;

  /// Blocks until a lease is free, at most \p TimeoutNs nanoseconds
  /// (relative; UINT64_MAX = unbounded). Returns true and takes the lease
  /// on success; false on timeout with the pool unchanged.
  virtual bool acquire(uint64_t TimeoutNs) = 0;

  /// Returns a held lease to the pool.
  virtual void release() = 0;

  /// Currently free leases (synchronized snapshot).
  virtual int64_t available() const = 0;

  /// Successful acquisitions so far.
  virtual int64_t grants() const = 0;

  /// Timed-out acquisitions so far.
  virtual int64_t timeouts() const = 0;
};

/// Creates the \p M implementation managing \p Leases leases.
std::unique_ptr<LeaseManagerIface>
makeLeaseManager(Mechanism M, int64_t Leases);

} // namespace autosynch

#endif // AUTOSYNCH_PROBLEMS_LEASEMANAGER_H
