//===- sync/Mutex.cpp - Lock/Condition substrate ---------------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "sync/Mutex.h"

#include "support/Compiler.h"
#include "sync/Counters.h"
#include "sync/Futex.h"

#include <chrono>
#include <climits>
#include <thread>

using namespace autosynch;
using namespace autosynch::sync;

//===----------------------------------------------------------------------===//
// Spurious-wakeup fault injection (tests only)
//===----------------------------------------------------------------------===//

namespace {
std::atomic<uint32_t> SpuriousPeriod{0};
std::atomic<uint32_t> SpuriousTick{0};

/// True when this wait should return spuriously instead of blocking.
bool injectSpurious() {
  uint32_t P = SpuriousPeriod.load(std::memory_order_relaxed);
  if (AUTOSYNCH_LIKELY(P == 0))
    return false;
  return SpuriousTick.fetch_add(1, std::memory_order_relaxed) % P == P - 1;
}
} // namespace

void sync::setSpuriousWakeupPeriod(uint32_t N) {
  SpuriousPeriod.store(N, std::memory_order_relaxed);
}

uint32_t sync::spuriousWakeupPeriod() {
  return SpuriousPeriod.load(std::memory_order_relaxed);
}


//===----------------------------------------------------------------------===//
// Mutex
//===----------------------------------------------------------------------===//

Mutex::Mutex() {
  AUTOSYNCH_TSAN_ANNOTATE(
      __tsan_mutex_create(this, __tsan_mutex_not_static));
}

Mutex::~Mutex() {
  AUTOSYNCH_TSAN_ANNOTATE(
      __tsan_mutex_destroy(this, __tsan_mutex_not_static));
}

static uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Mutex::lockTimed() {
  uint64_t T0 = nowNs();
  acquire();
  Counters::global().addLockNs(nowNs() - T0);
}

void Mutex::waitForLock(uint32_t C) {
  // Advertise a waiter by setting state 2, then sleep until the owner
  // hands the lock over.
  if (C != 2)
    C = State.exchange(2, std::memory_order_acquire);
  while (C != 0) {
    futexWait(State, 2);
    C = State.exchange(2, std::memory_order_acquire);
  }
}

bool Mutex::tryLock() {
  AUTOSYNCH_TSAN_ANNOTATE(
      __tsan_mutex_pre_lock(this, __tsan_mutex_try_lock));
  uint32_t C = 0;
  bool Locked =
      State.compare_exchange_strong(C, 1, std::memory_order_acquire);
  AUTOSYNCH_TSAN_ANNOTATE(__tsan_mutex_post_lock(
      this,
      __tsan_mutex_try_lock | (Locked ? 0 : __tsan_mutex_try_lock_failed),
      0));
  return Locked;
}

void Mutex::wakeWaiter() {
  // There may be waiters (state was 2).
  State.store(0, std::memory_order_release);
  futexWake(State, 1);
}

std::unique_ptr<Condition> Mutex::newCondition() {
  // Condition's constructor is private; makeshift make_unique.
  return std::unique_ptr<Condition>(new Condition(*this));
}

//===----------------------------------------------------------------------===//
// Condition
//===----------------------------------------------------------------------===//

bool Condition::park(uint32_t Expected, uint64_t DeadlineNs) {
  // The parked count is the classic futex waiter-count pattern. The
  // increment is seq_cst and precedes the kernel's compare of Seq against
  // Expected; notify() bumps Seq with a seq_cst RMW and then loads the
  // count. Either the notifier sees this waiter counted and wakes, or the
  // bump precedes the increment in the total order and the kernel compare
  // sees the new sequence and returns at once. No wake is dropped.
  Parked.fetch_add(1, std::memory_order_seq_cst);
  M.unlock();
  bool TimedOut = futexWaitUntil(Seq, Expected, DeadlineNs);
  Parked.fetch_sub(1, std::memory_order_relaxed);
  M.acquire();
  return TimedOut;
}

void Condition::notify(int Count) {
  Seq.fetch_add(1, std::memory_order_seq_cst);
  if (Parked.load(std::memory_order_seq_cst) != 0)
    futexWake(Seq, Count);
}

void Condition::await() {
  (void)awaitUntil(~uint64_t{0}, Seq.load(std::memory_order_relaxed));
}

bool Condition::awaitUntil(uint64_t DeadlineNs, uint64_t Epoch) {
  // Under the mutex: a plain load and store, no locked instruction.
  Awaits.store(Awaits.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  Counters &G = Counters::global();
  G.onAwait();
  if (AUTOSYNCH_UNLIKELY(injectSpurious())) {
    M.unlock();
    std::this_thread::yield();
    M.acquire();
    G.onWakeup();
    // The verdict must stay truthful even when the kernel never ran:
    // callers lean on it as their only deadline observation.
    return DeadlineNs != ~uint64_t{0} && nowNs() >= DeadlineNs;
  }
  bool TimedOut;
  if (AUTOSYNCH_UNLIKELY(G.timingEnabled())) {
    uint64_t T0 = nowNs();
    TimedOut = park(static_cast<uint32_t>(Epoch), DeadlineNs);
    G.addAwaitNs(nowNs() - T0);
  } else {
    TimedOut = park(static_cast<uint32_t>(Epoch), DeadlineNs);
  }
  G.onWakeup();
  return TimedOut;
}

void Condition::signal() {
  Signals.fetch_add(1, std::memory_order_relaxed);
  Counters::global().onSignal();
  notify(1);
}

void Condition::signalAll() {
  SignalAlls.fetch_add(1, std::memory_order_relaxed);
  Counters::global().onSignalAll();
  notify(INT_MAX);
}
