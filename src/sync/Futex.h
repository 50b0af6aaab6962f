//===- sync/Futex.h - Raw Linux futex wrappers -----------------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thin wrappers over the Linux futex(2) system call, on which the sync
/// substrate's Mutex and Condition are built. Process-private futexes only.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_SYNC_FUTEX_H
#define AUTOSYNCH_SYNC_FUTEX_H

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <ctime>

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

namespace autosynch::sync {

/// Blocks until \p Word no longer holds \p Expected or the thread is woken.
/// May return spuriously; callers must re-check their condition.
inline void futexWait(std::atomic<uint32_t> &Word, uint32_t Expected) {
  syscall(SYS_futex, reinterpret_cast<uint32_t *>(&Word), FUTEX_WAIT_PRIVATE,
          Expected, nullptr, nullptr, 0);
}

/// Timed futexWait: blocks until \p Word no longer holds \p Expected, the
/// thread is woken, or the absolute CLOCK_MONOTONIC deadline \p DeadlineNs
/// passes (FUTEX_WAIT_BITSET takes an absolute monotonic timespec — the
/// same clock time::nowNs reads, so no relative-timeout re-arithmetic on
/// spurious wakeups). DeadlineNs == UINT64_MAX waits unboundedly. Returns
/// true iff the wait ended because the deadline passed; may also return
/// spuriously (callers re-check their condition either way).
inline bool futexWaitUntil(std::atomic<uint32_t> &Word, uint32_t Expected,
                           uint64_t DeadlineNs) {
  if (DeadlineNs == ~uint64_t{0}) {
    futexWait(Word, Expected);
    return false;
  }
  timespec TS;
  TS.tv_sec = static_cast<time_t>(DeadlineNs / 1000000000u);
  TS.tv_nsec = static_cast<long>(DeadlineNs % 1000000000u);
  long Rc = syscall(SYS_futex, reinterpret_cast<uint32_t *>(&Word),
                    FUTEX_WAIT_BITSET_PRIVATE, Expected, &TS, nullptr,
                    FUTEX_BITSET_MATCH_ANY);
  return Rc == -1 && errno == ETIMEDOUT;
}

/// Wakes up to \p Count threads blocked in futexWait on \p Word.
/// Returns the number of threads actually woken.
inline int futexWake(std::atomic<uint32_t> &Word, int Count) {
  long Woken = syscall(SYS_futex, reinterpret_cast<uint32_t *>(&Word),
                       FUTEX_WAKE_PRIVATE, Count, nullptr, nullptr, 0);
  return Woken < 0 ? 0 : static_cast<int>(Woken);
}

} // namespace autosynch::sync

#endif // AUTOSYNCH_SYNC_FUTEX_H
