//===- time/FallbackTicker.h - Far-deadline fallback tick ------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deadline runtime's fallback tick for *far* deadlines (beyond
/// FarHorizonNs). A near-deadline waiter blocks with a
/// kernel-bounded condvar wait — precise, but every such block arms a
/// kernel timer, which alone costs ~10% on a blocking wait/signal cycle
/// even for hand-written pthread-style code. A far-deadline waiter
/// instead blocks *unbounded* under the epoch handshake (sync/Mutex.h)
/// and parks an intrusive node here; one process-wide sweeper thread
/// sleeps until the earliest parked deadline and signalAll-s the
/// conditions that come due. The whole process then arms one kernel
/// timer for all far waits together, and the per-wait cost is two
/// sharded-lock list splices on the waiter's own stack node — no
/// allocation, no global mutex on the hot path.
///
/// Structure: nodes live in one of several shards (picked by thread id,
/// so a producer/consumer pair rarely collides), each an unsorted
/// intrusive list under its own lock. A monotonic atomic lower bound of
/// the earliest deadline tells the sweeper when to wake; it may be stale
/// low after removals (the sweeper then finds nothing due, recomputes it
/// exactly under all shard locks, and goes back to sleep), but it is
/// never late: add() publishes its deadline with an atomic min *before*
/// deciding whether to nudge the sweeper, and the nudge itself takes the
/// sweeper's decision lock, so the sweeper either sees the new bound or
/// receives the notify.
///
/// Lifetime discipline mirrors CancelToken: the sweeper signals while
/// holding the node's shard lock, and a waiter deregisters under that
/// lock before its frame can unwind, so a fired signal never chases a
/// destroyed condition. The sweeper starts lazily on the first park and
/// is joined when the singleton tears down at process exit.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_TIME_FALLBACKTICKER_H
#define AUTOSYNCH_TIME_FALLBACKTICKER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

namespace autosynch::sync {
class Condition;
} // namespace autosynch::sync

namespace autosynch::time {

/// The near/far split: a wait whose deadline is more than this (~4.3 s)
/// away when it blocks parks here and blocks unbounded; a nearer one
/// blocks with its own kernel-bounded wait, which is precise and needs no
/// sweeper round trip.
inline constexpr uint64_t FarHorizonNs = uint64_t{1} << 32;

/// One parked far wait; embedded in the waiter's stack frame (the
/// condition manager's TimedWait). All fields are ticker-internal while
/// the node is parked.
struct FarNode {
  FarNode *Prev = nullptr;
  FarNode *Next = nullptr;
  sync::Condition *Cond = nullptr;
  uint64_t DeadlineNs = 0;
  uint8_t Shard = 0;
  enum class State : uint8_t { Idle, Queued, Fired } S = State::Idle;
};

/// Process-wide far-deadline waker; all members thread-safe.
class FallbackTicker {
public:
  static FallbackTicker &global();

  /// Parks \p N (Cond and DeadlineNs set, deadline bounded): N.Cond will
  /// be signalAll'd at (or promptly after) the deadline unless removed
  /// first.
  void add(FarNode &N);

  /// Unparks \p N (no-op if the sweeper already fired it). \p N is Idle
  /// and safe to destroy on return.
  void remove(FarNode &N);

  /// Parked nodes (introspection for tests; takes every shard lock).
  size_t pending() const;

  ~FallbackTicker();

private:
  static constexpr size_t NumShards = 8;

  struct Shard {
    mutable std::mutex M;
    FarNode *Head = nullptr;
  };

  FallbackTicker() = default;
  void run();
  /// Lowers the sleep bound to \p DeadlineNs and nudges the sweeper if
  /// it may be sleeping past it.
  void publishDeadline(uint64_t DeadlineNs);

  Shard Shards[NumShards];
  /// Lower bound on the earliest parked deadline (never late; may be
  /// stale low). NeverNs when the sweeper believes nothing is parked.
  std::atomic<uint64_t> MinDeadline{~uint64_t{0}};

  /// Sweeper decision lock: held from reading MinDeadline to entering
  /// the wait, so an earlier-deadline publisher cannot slip between.
  std::mutex TickM;
  std::condition_variable CV;
  bool Stop = false;
  std::once_flag StartOnce;
  std::thread Thread;
};

} // namespace autosynch::time

#endif // AUTOSYNCH_TIME_FALLBACKTICKER_H
