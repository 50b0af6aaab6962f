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
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_SYNC_COUNTERS_H
#define AUTOSYNCH_SYNC_COUNTERS_H

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

/// Process-wide event counters, updated with relaxed atomics (cheap enough
/// to keep always on).
class Counters {
public:
  static Counters &global();

  void onAwait() { Awaits.fetch_add(1, std::memory_order_relaxed); }
  void onSignal() { Signals.fetch_add(1, std::memory_order_relaxed); }
  void onSignalAll() { SignalAlls.fetch_add(1, std::memory_order_relaxed); }
  void onWakeup() { Wakeups.fetch_add(1, std::memory_order_relaxed); }
  void addAwaitNs(uint64_t Ns) {
    AwaitNs.fetch_add(Ns, std::memory_order_relaxed);
  }
  void addLockNs(uint64_t Ns) {
    LockNs.fetch_add(Ns, std::memory_order_relaxed);
  }

  /// Per-phase wall timing of await/lock, for the Table 1 experiment.
  /// Costs two clock reads per operation; off by default.
  void enableTiming(bool On) {
    TimingEnabled.store(On, std::memory_order_relaxed);
  }
  bool timingEnabled() const {
    return TimingEnabled.load(std::memory_order_relaxed);
  }

  CountersSnapshot snapshot() const {
    return {Awaits.load(std::memory_order_relaxed),
            Signals.load(std::memory_order_relaxed),
            SignalAlls.load(std::memory_order_relaxed),
            Wakeups.load(std::memory_order_relaxed),
            AwaitNs.load(std::memory_order_relaxed),
            LockNs.load(std::memory_order_relaxed)};
  }

  void reset() {
    Awaits.store(0, std::memory_order_relaxed);
    Signals.store(0, std::memory_order_relaxed);
    SignalAlls.store(0, std::memory_order_relaxed);
    Wakeups.store(0, std::memory_order_relaxed);
    AwaitNs.store(0, std::memory_order_relaxed);
    LockNs.store(0, std::memory_order_relaxed);
  }

private:
  std::atomic<uint64_t> Awaits{0};
  std::atomic<uint64_t> Signals{0};
  std::atomic<uint64_t> SignalAlls{0};
  std::atomic<uint64_t> Wakeups{0};
  std::atomic<uint64_t> AwaitNs{0};
  std::atomic<uint64_t> LockNs{0};
  std::atomic<bool> TimingEnabled{false};
};

/// Snapshot of the process-wide dirty-set relay counters.
struct RelayCountersSnapshot {
  uint64_t RelayCalls = 0;         ///< relaySignal() invocations.
  uint64_t DirtySkips = 0;         ///< Relays skipped: empty dirty set.
  uint64_t FilteredExprs = 0;      ///< Index entries skipped by read-set
                                   ///< intersection during relay scans.
  uint64_t StampShortCircuits = 0; ///< Predicate checks answered by the
                                   ///< false-stamp, no evaluation run.

  RelayCountersSnapshot operator-(const RelayCountersSnapshot &R) const {
    return {RelayCalls - R.RelayCalls, DirtySkips - R.DirtySkips,
            FilteredExprs - R.FilteredExprs,
            StampShortCircuits - R.StampShortCircuits};
  }
};

/// Process-wide counters of dirty-set relay behavior, aggregated across
/// every monitor (the per-monitor numbers live in ManagerStats). The
/// condition manager batches its lock-guarded stats into these atomics
/// every few dozen relays (and on destruction/reset) rather than touching
/// a shared cache line on every monitor exit; totals therefore trail the
/// per-monitor stats by at most one batch until the monitor flushes.
class RelayCounters {
public:
  static RelayCounters &global();

  /// Adds a per-monitor delta (see ConditionManager::flushRelayCounters).
  void add(const RelayCountersSnapshot &D) {
    RelayCalls.fetch_add(D.RelayCalls, std::memory_order_relaxed);
    DirtySkips.fetch_add(D.DirtySkips, std::memory_order_relaxed);
    FilteredExprs.fetch_add(D.FilteredExprs, std::memory_order_relaxed);
    StampShortCircuits.fetch_add(D.StampShortCircuits,
                                 std::memory_order_relaxed);
  }

  RelayCountersSnapshot snapshot() const {
    return {RelayCalls.load(std::memory_order_relaxed),
            DirtySkips.load(std::memory_order_relaxed),
            FilteredExprs.load(std::memory_order_relaxed),
            StampShortCircuits.load(std::memory_order_relaxed)};
  }

  void reset() {
    RelayCalls.store(0, std::memory_order_relaxed);
    DirtySkips.store(0, std::memory_order_relaxed);
    FilteredExprs.store(0, std::memory_order_relaxed);
    StampShortCircuits.store(0, std::memory_order_relaxed);
  }

private:
  std::atomic<uint64_t> RelayCalls{0};
  std::atomic<uint64_t> DirtySkips{0};
  std::atomic<uint64_t> FilteredExprs{0};
  std::atomic<uint64_t> StampShortCircuits{0};
};

/// Snapshot of the process-wide timed-wait counters.
struct TimedCountersSnapshot {
  uint64_t TimedWaits = 0;   ///< Timed waits that reached the blocking path.
  uint64_t Timeouts = 0;     ///< Timed waits that returned false on expiry.
  uint64_t Cancels = 0;      ///< Waits aborted through a CancelToken.

  TimedCountersSnapshot operator-(const TimedCountersSnapshot &R) const {
    return {TimedWaits - R.TimedWaits, Timeouts - R.Timeouts,
            Cancels - R.Cancels};
  }
};

/// Process-wide counters of deadline-runtime behavior, aggregated across
/// every monitor. Fed in batches by the condition managers exactly like
/// RelayCounters (flushed every few dozen relays and at destruction/
/// reset), so the timed hot path touches no shared atomics either.
class TimedCounters {
public:
  static TimedCounters &global();

  void add(const TimedCountersSnapshot &D) {
    TimedWaits.fetch_add(D.TimedWaits, std::memory_order_relaxed);
    Timeouts.fetch_add(D.Timeouts, std::memory_order_relaxed);
    Cancels.fetch_add(D.Cancels, std::memory_order_relaxed);
  }

  TimedCountersSnapshot snapshot() const {
    return {TimedWaits.load(std::memory_order_relaxed),
            Timeouts.load(std::memory_order_relaxed),
            Cancels.load(std::memory_order_relaxed)};
  }

  void reset() {
    TimedWaits.store(0, std::memory_order_relaxed);
    Timeouts.store(0, std::memory_order_relaxed);
    Cancels.store(0, std::memory_order_relaxed);
  }

private:
  std::atomic<uint64_t> TimedWaits{0};
  std::atomic<uint64_t> Timeouts{0};
  std::atomic<uint64_t> Cancels{0};
};

} // namespace autosynch::sync

#endif // AUTOSYNCH_SYNC_COUNTERS_H
