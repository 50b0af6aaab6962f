//===- time/Deadline.h - Monotonic deadlines -------------------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deadline runtime's time base: monotonic nanoseconds since the
/// steady-clock epoch (CLOCK_MONOTONIC on Linux — the same clock the sync
/// layer's absolute futex timed waits use, so deadlines mean the same thing
/// in every layer). A Deadline is a point on that clock; NeverNs is the
/// unbounded sentinel, so an untimed wait and a timed wait share one code
/// path with one comparison telling them apart.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_TIME_DEADLINE_H
#define AUTOSYNCH_TIME_DEADLINE_H

#include <chrono>
#include <cstdint>
#include <limits>

namespace autosynch::time {

/// The unbounded-deadline sentinel: no monotonic clock reaches it.
inline constexpr uint64_t NeverNs = ~uint64_t{0};

/// Whether \p DeadlineNs is a real bound. Deadlines at or beyond
/// INT64_MAX nanoseconds (the sentinel, or a saturating now+timeout sum
/// ~292 years out) are unbounded in effect — the monotonic clock's
/// signed representation never reaches them — and the runtime treats
/// them as never: no timer, no expiry.
inline constexpr bool isBounded(uint64_t DeadlineNs) {
  return DeadlineNs < (~uint64_t{0} >> 1);
}

/// Monotonic now, in nanoseconds since the steady-clock epoch.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// \p Now plus \p TimeoutNs, saturating at NeverNs (a huge timeout must
/// stay unbounded-in-effect, never wrap into the past).
inline uint64_t deadlineAfter(uint64_t Now, uint64_t TimeoutNs) {
  return TimeoutNs >= NeverNs - Now ? NeverNs : Now + TimeoutNs;
}

/// A raw nanosecond timeout as a chrono duration for waitUntilFor,
/// clamped to the signed range (INT64_MAX ns ≈ 292 years — unbounded in
/// effect; deadlineAfter and isBounded treat the resulting deadline as
/// never). The uint64-timeout problem interfaces funnel through this.
inline std::chrono::nanoseconds toTimeout(uint64_t TimeoutNs) {
  constexpr uint64_t Max =
      static_cast<uint64_t>(std::numeric_limits<int64_t>::max());
  return std::chrono::nanoseconds(
      static_cast<int64_t>(TimeoutNs < Max ? TimeoutNs : Max));
}

/// A point on the monotonic clock, for waitUntilBy. Value-semantic and
/// trivially copyable; Deadline::never() expresses a cancellation-only
/// wait (block until the predicate holds or the token fires).
struct Deadline {
  uint64_t Ns = NeverNs;

  static constexpr Deadline never() { return Deadline{NeverNs}; }

  /// The deadline \p D from now.
  template <typename Rep, typename Period>
  static Deadline in(std::chrono::duration<Rep, Period> D) {
    auto NsCount =
        std::chrono::duration_cast<std::chrono::nanoseconds>(D).count();
    if (NsCount <= 0)
      return Deadline{nowNs()}; // Already due.
    return Deadline{deadlineAfter(nowNs(), static_cast<uint64_t>(NsCount))};
  }

  /// A steady-clock time point as a deadline.
  static Deadline at(std::chrono::steady_clock::time_point TP) {
    auto NsCount = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       TP.time_since_epoch())
                       .count();
    return Deadline{NsCount <= 0 ? 0 : static_cast<uint64_t>(NsCount)};
  }

  bool isNever() const { return Ns == NeverNs; }
  bool passed(uint64_t NowNanos) const { return NowNanos >= Ns; }
};

} // namespace autosynch::time

#endif // AUTOSYNCH_TIME_DEADLINE_H
