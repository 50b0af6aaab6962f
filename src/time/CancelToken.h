//===- time/CancelToken.h - Cooperative wait cancellation ------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CancelToken: aborts blocked monitor waits from any thread. A token is a
/// cheap copyable handle on shared state; every waitUntilFor/waitUntilBy
/// that takes the token registers its condition variable before blocking
/// and deregisters on return, and cancel() sets the sticky cancelled flag
/// and wakes every registered wait. A cancelled wait returns false exactly
/// like a timeout (predicate-first: a wait that observes its predicate
/// true returns true even if the token fired concurrently).
///
/// Why cancellation cannot be lost: cancel() publishes the flag and then
/// signals while holding the token lock, and a waiter deregisters under
/// the same lock before its stack frame can unwind — so a signal never
/// chases a destroyed condition variable. The wake itself cannot slip
/// between the waiter's last flag check and its block because the waiter
/// captures the condition's wake epoch *before* checking the flag and
/// blocks with sync::Condition::awaitUntil(deadline, epoch), which returns
/// immediately when the epoch has moved (the condition is sequence-
/// counted). Any interleaving therefore either lands the flag before the
/// check, or bumps the epoch after the capture — never a silent miss.
///
/// cancel() uses signalAll on the registered conditions: a record's
/// condition may be shared by cancelled and uncancelled waiters, and the
/// uninvolved ones treat the wake as an ordinary spurious wakeup.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_TIME_CANCELTOKEN_H
#define AUTOSYNCH_TIME_CANCELTOKEN_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace autosynch::sync {
class Condition;
} // namespace autosynch::sync

namespace autosynch::time {

/// Copyable cancellation handle; copies share one sticky flag.
class CancelToken {
public:
  CancelToken();

  /// Sets the sticky cancelled flag and wakes every registered wait.
  /// Idempotent; callable from any thread — but not from inside a monitor
  /// region that a registered wait's monitor could be blocked on (it
  /// signals lock-free, so it takes no monitor lock and cannot deadlock,
  /// but a cancel issued while *holding* the target monitor is pointless:
  /// the woken wait would just block on the mutex the caller holds).
  void cancel();

  bool cancelled() const {
    return S->Cancelled.load(std::memory_order_acquire);
  }

  /// Number of currently registered (blocked) waits; introspection for
  /// tests.
  size_t registeredWaits() const;

private:
  friend class CancelScope;

  struct State {
    std::mutex M;
    std::atomic<bool> Cancelled{false};
    /// Condition variables of blocked waits holding this token. A
    /// condition appears once per blocked wait (duplicates allowed: two
    /// waiters of one predicate record share a condition).
    std::vector<sync::Condition *> Waits;
  };

  std::shared_ptr<State> S;
};

/// RAII registration of one blocked wait with a token, used by the
/// condition manager around its block loop. Detaches on destruction; a
/// null token degenerates to a no-op so untimed/untokened waits share the
/// same call sites.
class CancelScope {
public:
  CancelScope(CancelToken *Token, sync::Condition *Cond);
  ~CancelScope();
  CancelScope(const CancelScope &) = delete;
  CancelScope &operator=(const CancelScope &) = delete;

  bool cancelled() const {
    return Token && Token->cancelled();
  }

private:
  CancelToken *Token;
  sync::Condition *Cond;
};

} // namespace autosynch::time

#endif // AUTOSYNCH_TIME_CANCELTOKEN_H
