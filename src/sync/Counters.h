//===- sync/Counters.h - Signaling instrumentation counters ----*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-wide counters of synchronization events. The paper's argument is
/// quantitative — signalAll causes redundant wakeups and context switches —
/// so the substrate counts every await, signal, signalAll, and wakeup. The
/// benches and tests read these to verify, e.g., that the AutoSynch policies
/// never call signalAll (relay invariance, §4.2).
///
/// The four event counts are counted per thread (support/ThreadCounters.h):
/// a count is a relaxed load and store to the counting thread's own slot,
/// with no locked instruction, so they stay on. The two timing totals,
/// which count only while timing is switched on, are relaxed atomics.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_SYNC_COUNTERS_H
#define AUTOSYNCH_SYNC_COUNTERS_H

#include "support/ThreadCounters.h"

#include <atomic>
#include <cstdint>

namespace autosynch::sync {

/// Snapshot of the global synchronization counters.
struct CountersSnapshot {
  uint64_t Awaits = 0;     ///< Condition::await calls (threads that blocked).
  uint64_t Signals = 0;    ///< Condition::signal calls.
  uint64_t SignalAlls = 0; ///< Condition::signalAll calls.
  uint64_t Wakeups = 0;    ///< await calls that returned (incl. spurious).
  uint64_t AwaitNs = 0;    ///< Time blocked in await (when timing enabled).
  uint64_t LockNs = 0;     ///< Time acquiring mutexes (when timing enabled).

  CountersSnapshot operator-(const CountersSnapshot &Rhs) const {
    return {Awaits - Rhs.Awaits,         Signals - Rhs.Signals,
            SignalAlls - Rhs.SignalAlls, Wakeups - Rhs.Wakeups,
            AwaitNs - Rhs.AwaitNs,       LockNs - Rhs.LockNs};
  }

  /// Synchronization-induced context-switch events: every block and every
  /// wakeup implies a scheduler transition. The Fig. 15 bench reports this
  /// when the OS context-switch counters are unavailable (sandboxed
  /// kernels).
  uint64_t contextSwitchEvents() const { return Awaits + Wakeups; }
};

/// Process-wide event counters (see the file comment).
class Counters {
public:
  static Counters &global() {
    static Counters Instance;
    return Instance;
  }

  void onAwait() { Events::bump(AwaitsIdx); }
  void onSignal() { Events::bump(SignalsIdx); }
  void onSignalAll() { Events::bump(SignalAllsIdx); }
  void onWakeup() { Events::bump(WakeupsIdx); }
  void addAwaitNs(uint64_t Ns) {
    AwaitNs.fetch_add(Ns, std::memory_order_relaxed);
  }
  void addLockNs(uint64_t Ns) {
    LockNs.fetch_add(Ns, std::memory_order_relaxed);
  }

  /// The one timing switch of the Table 1 experiment: while on, the sync
  /// layer times await and lock acquisition here, and every condition
  /// manager times its relays and tag management (ManagerStats::RelayNs,
  /// ::TagNs). Costs two clock reads per timed phase; off by default.
  void enableTiming(bool On) {
    TimingEnabled.store(On, std::memory_order_relaxed);
  }
  bool timingEnabled() const {
    return TimingEnabled.load(std::memory_order_relaxed);
  }

  /// Counts since the last reset(), of live and exited threads alike.
  CountersSnapshot snapshot() const {
    Events::Totals E = Events::read();
    return {E[AwaitsIdx],
            E[SignalsIdx],
            E[SignalAllsIdx],
            E[WakeupsIdx],
            AwaitNs.load(std::memory_order_relaxed),
            LockNs.load(std::memory_order_relaxed)};
  }

  void reset() {
    Events::reset();
    AwaitNs.store(0, std::memory_order_relaxed);
    LockNs.store(0, std::memory_order_relaxed);
  }

private:
  enum : size_t { AwaitsIdx, SignalsIdx, SignalAllsIdx, WakeupsIdx, NumEvents };
  using Events = ThreadCounters<Counters, NumEvents>;

  std::atomic<uint64_t> AwaitNs{0};
  std::atomic<uint64_t> LockNs{0};
  std::atomic<bool> TimingEnabled{false};
};

} // namespace autosynch::sync

#endif // AUTOSYNCH_SYNC_COUNTERS_H
