//===- problems/TokenBucket.h - Token-bucket rate limiter ------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A token-bucket rate limiter: the second timeout-native evaluation
/// problem. Acquirers demand a *per-call* number of tokens — the predicate
/// `tokens >= n` carries a local, so the automatic implementations
/// exercise globalization, slotted wait plans, and threshold tags under
/// deadlines. Refills are explicit operations (not wall-clock driven):
/// that keeps every run's supply schedule deterministic, which is what
/// lets the differential oracle pin down exact timeout sets across
/// mechanisms. Timed-out demands leave the bucket untouched.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_PROBLEMS_TOKENBUCKET_H
#define AUTOSYNCH_PROBLEMS_TOKENBUCKET_H

#include "problems/Mechanism.h"

#include <cstdint>
#include <memory>

namespace autosynch {

/// Token bucket with bounded-blocking batch acquisition.
class TokenBucketIface {
public:
  virtual ~TokenBucketIface() = default;

  /// Blocks until \p N tokens are available, at most \p TimeoutNs
  /// nanoseconds (relative; UINT64_MAX = unbounded), then takes them
  /// atomically. Returns false on timeout with the bucket unchanged.
  /// \p N must be within [1, capacity] — larger demands could never be
  /// satisfied and are rejected fatally, timed or not.
  virtual bool acquire(int64_t N, uint64_t TimeoutNs) = 0;

  /// Adds \p N tokens, saturating at capacity.
  virtual void refill(int64_t N) = 0;

  /// Tokens currently in the bucket (synchronized snapshot).
  virtual int64_t tokens() const = 0;

  /// Successful acquisitions so far.
  virtual int64_t grants() const = 0;

  /// Timed-out acquisitions so far.
  virtual int64_t timeouts() const = 0;
};

/// Creates the \p M implementation with room for \p Capacity tokens; the
/// bucket starts full.
std::unique_ptr<TokenBucketIface>
makeTokenBucket(Mechanism M, int64_t Capacity);

} // namespace autosynch

#endif // AUTOSYNCH_PROBLEMS_TOKENBUCKET_H
