//===- sync/Mutex.h - Lock/Condition substrate -----------------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The synchronization substrate the monitors are built on. The API mirrors
/// Java's Lock/Condition (the paper's substrate): a Mutex owns any number of
/// Conditions created by newCondition(); await must be called while holding
/// the mutex.
///
/// One backend, on raw Linux futexes:
///  * Mutex is Drepper's three-state futex mutex ("Futexes Are Tricky").
///  * Condition is a sequence word — which is also its wake epoch — plus a
///    count of the threads parked on that word in the kernel. signal() and
///    signalAll() bump the sequence and enter the kernel only when the
///    count says a thread may be parked, so a signal with nobody waiting
///    costs no syscall.
///
/// Notification is lock-free: signal()/signalAll() may run with or without
/// the mutex held. A waiter parks only while the sequence still holds the
/// value it read, and the kernel compares the two atomically, so a bump
/// that lands between the waiter's unlock and its park is never lost. That
/// lets the monitor defer its relay wakeup until after the monitor lock is
/// released (no wake-then-block convoy).
///
/// Spurious wakeups are permitted; all users wait in predicate-re-checking
/// loops, exactly as the paper's monitors do. Under ThreadSanitizer the
/// mutex is annotated, so TSan checks lock order and ownership on it as it
/// would on a pthread mutex.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_SYNC_MUTEX_H
#define AUTOSYNCH_SYNC_MUTEX_H

#include "support/Compiler.h"
#include "sync/Counters.h"

#include <atomic>
#include <cstdint>
#include <memory>

// ThreadSanitizer does not see a futex as a lock: left alone it would
// check the mutex's atomics but not lock order or ownership. The
// annotations tell it that Mutex is a mutex, exactly as it treats an
// intercepted pthread mutex, on the inline paths as on the out-of-line
// ones. They compile to nothing in other builds.
#if defined(__SANITIZE_THREAD__)
#define AUTOSYNCH_TSAN_MUTEX 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define AUTOSYNCH_TSAN_MUTEX 1
#endif
#endif

#ifdef AUTOSYNCH_TSAN_MUTEX
#include <sanitizer/tsan_interface.h>
#define AUTOSYNCH_TSAN_ANNOTATE(Call) Call
#else
#define AUTOSYNCH_TSAN_ANNOTATE(Call) ((void)0)
#endif

namespace autosynch::sync {

/// Fault-injection hook for robustness tests: when \p N > 0, every Nth
/// Condition::await / awaitUntil across the process returns spuriously
/// (the mutex is genuinely released and re-acquired, no signal consumed)
/// instead of blocking. 0 — the default — disables injection; the hot
/// path then pays one relaxed load. Not for production use.
void setSpuriousWakeupPeriod(uint32_t N);
uint32_t spuriousWakeupPeriod();

/// RAII enable/restore for the spurious-wakeup hook (test scaffolding).
class SpuriousWakeupGuard {
public:
  explicit SpuriousWakeupGuard(uint32_t N) : Prev(spuriousWakeupPeriod()) {
    setSpuriousWakeupPeriod(N);
  }
  ~SpuriousWakeupGuard() { setSpuriousWakeupPeriod(Prev); }
  SpuriousWakeupGuard(const SpuriousWakeupGuard &) = delete;
  SpuriousWakeupGuard &operator=(const SpuriousWakeupGuard &) = delete;

private:
  uint32_t Prev;
};

class Condition;

/// A non-reentrant mutual-exclusion lock with Java's Lock shape. The
/// uncontended lock and unlock are inline: one compare-and-swap and one
/// fetch_sub. Waiting for the lock, waking a waiter, and the timed lock of
/// the Table 1 experiment are out of line.
class Mutex {
public:
  Mutex();
  ~Mutex();
  Mutex(const Mutex &) = delete;
  Mutex &operator=(const Mutex &) = delete;

  void lock() {
    if (AUTOSYNCH_UNLIKELY(Counters::global().timingEnabled()))
      lockTimed();
    else
      acquire();
  }

  void unlock() {
    AUTOSYNCH_TSAN_ANNOTATE(__tsan_mutex_pre_unlock(this, 0));
    if (AUTOSYNCH_UNLIKELY(State.fetch_sub(1, std::memory_order_release) !=
                           1))
      wakeWaiter();
    AUTOSYNCH_TSAN_ANNOTATE(__tsan_mutex_post_unlock(this, 0));
  }

  /// Attempts to acquire without blocking. Returns true on success.
  bool tryLock();

  /// Creates a condition variable bound to this mutex. The mutex must
  /// outlive the condition.
  std::unique_ptr<Condition> newCondition();

private:
  friend class Condition;

  /// lock() without the lock-wait timing; Condition re-acquires with it.
  void acquire() {
    AUTOSYNCH_TSAN_ANNOTATE(__tsan_mutex_pre_lock(this, 0));
    uint32_t C = 0;
    if (AUTOSYNCH_UNLIKELY(
            !State.compare_exchange_strong(C, 1, std::memory_order_acquire)))
      waitForLock(C);
    AUTOSYNCH_TSAN_ANNOTATE(__tsan_mutex_post_lock(this, 0, 0));
  }

  /// acquire() timed into Counters::addLockNs.
  void lockTimed();
  /// The contended acquire: \p C is the state the failed swap read.
  void waitForLock(uint32_t C);
  /// The contended unlock: releases fully and wakes one waiter.
  void wakeWaiter();

  /// 0 = unlocked, 1 = locked with no waiters, 2 = locked with possible
  /// waiters.
  std::atomic<uint32_t> State{0};
};

/// A condition variable bound to a Mutex. await() requires the bound mutex
/// to be held by the calling thread. signal()/signalAll() may be called
/// with or without the mutex held; the caller must guarantee the Condition
/// outlives any in-flight lock-free signal.
class Condition {
public:
  Condition(const Condition &) = delete;
  Condition &operator=(const Condition &) = delete;

  /// Atomically releases the mutex and blocks until signaled (or a spurious
  /// wakeup); re-acquires the mutex before returning.
  void await();

  /// The condition's wake epoch: the sequence word every signal/signalAll
  /// bumps. Timed waits capture it (under the mutex) *before* their final
  /// state checks; awaitUntil then returns immediately if the epoch has
  /// moved, so a wake issued between the capture and the block — the
  /// classic lost-notify window, which CancelToken::cancel's lock-free
  /// wakes would otherwise fall into — is never lost. Relaxed read;
  /// requires the mutex for the ordering guarantee above.
  uint64_t epoch() const { return Seq.load(std::memory_order_relaxed); }

  /// Atomically releases the mutex and blocks until the epoch advances
  /// past \p Epoch, the thread is woken (possibly spuriously), or the
  /// absolute monotonic deadline \p DeadlineNs (time::nowNs domain;
  /// UINT64_MAX = unbounded) passes; re-acquires the mutex before
  /// returning. Returns true iff the wait ended because the deadline
  /// passed — best effort: callers must re-check their predicate and
  /// clock either way.
  bool awaitUntil(uint64_t DeadlineNs, uint64_t Epoch);

  /// Wakes at least one waiting thread, if any are waiting.
  void signal();

  /// Wakes all waiting threads. Counted separately so benches can prove the
  /// AutoSynch policies never use it.
  void signalAll();

  /// Number of await calls on this condition.
  uint64_t awaitCount() const {
    return Awaits.load(std::memory_order_relaxed);
  }
  /// Number of signal calls on this condition.
  uint64_t signalCount() const {
    return Signals.load(std::memory_order_relaxed);
  }
  /// Number of signalAll calls on this condition.
  uint64_t signalAllCount() const {
    return SignalAlls.load(std::memory_order_relaxed);
  }

private:
  friend class Mutex;
  explicit Condition(Mutex &M) : M(M) {}

  /// Releases the mutex, parks while the sequence still reads \p Expected
  /// (or until \p DeadlineNs), and re-acquires. Returns true iff the
  /// deadline passed.
  bool park(uint32_t Expected, uint64_t DeadlineNs);

  /// Bumps the sequence and wakes up to \p Count parked threads.
  void notify(int Count);

  Mutex &M;
  /// The futex word waiters park on; see epoch().
  std::atomic<uint32_t> Seq{0};
  /// Threads between announcing a park and returning from the kernel.
  std::atomic<uint32_t> Parked{0};
  /// Bumped only under the mutex, with a relaxed load and store.
  std::atomic<uint64_t> Awaits{0};
  // Relaxed atomic adds: signal()/signalAll() may run outside the mutex.
  std::atomic<uint64_t> Signals{0};
  std::atomic<uint64_t> SignalAlls{0};
};

} // namespace autosynch::sync

#endif // AUTOSYNCH_SYNC_MUTEX_H
