//===- support/ThreadCounters.h - Per-thread event counters ----*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-wide event counts that cost a counting thread no locked
/// instruction. Each thread counts into its own slots with a relaxed load
/// and store; only that thread writes them. A read sums every live
/// thread's slots with the counts of threads that have exited, which fold
/// theirs into a retired total on exit. A reset records the current total
/// as a baseline that later reads subtract, so it never writes another
/// thread's slots.
///
/// The predicate-evaluation count (expr/Eval.h), the sync layer's event
/// counts (sync/Counters.h) and the process-wide plan counts
/// (plan/PlanCache.h) are all instances: one per \p Tag type.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_SUPPORT_THREADCOUNTERS_H
#define AUTOSYNCH_SUPPORT_THREADCOUNTERS_H

#include "support/Compiler.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace autosynch {

/// \p N process-wide counters, counted per thread (see file comment).
/// \p Tag only tells instances apart.
template <typename Tag, size_t N> class ThreadCounters {
public:
  using Totals = std::array<uint64_t, N>;

  /// Adds one to counter \p I for the calling thread.
  static void bump(size_t I) {
    Slots &S = Mine;
    if (AUTOSYNCH_UNLIKELY(!S.Enrolled))
      enroll();
    S.C[I].store(S.C[I].load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
  }

  /// Every thread's counts since the last reset(), live and exited.
  static Totals read() {
    Registry &R = registry();
    std::lock_guard<std::mutex> G(R.M);
    Totals T = R.total();
    for (size_t I = 0; I != N; ++I)
      T[I] -= R.Baseline[I];
    return T;
  }

  /// Makes read() count from now.
  static void reset() {
    Registry &R = registry();
    std::lock_guard<std::mutex> G(R.M);
    R.Baseline = R.total();
  }

private:
  /// One thread's counters. Only its own thread writes them; any thread
  /// may read them for the total.
  struct Slots {
    std::atomic<uint64_t> C[N] = {};
    bool Enrolled = false;
  };

  /// Every live thread's slots, what exited threads counted, and the
  /// total the last reset saw.
  struct Registry {
    std::mutex M;
    std::vector<const Slots *> Live;
    Totals Retired{};
    Totals Baseline{};

    /// Live and retired counts; requires M.
    Totals total() const {
      Totals T = Retired;
      for (const Slots *S : Live)
        for (size_t I = 0; I != N; ++I)
          T[I] += S->C[I].load(std::memory_order_relaxed);
      return T;
    }
  };

  /// Never destroyed: threads may still exit, and retire their counts,
  /// while static destructors run.
  static Registry &registry() {
    static Registry *R = new Registry;
    return *R;
  }

  /// Adds the calling thread's slots to the registry on its first count
  /// and retires them when the thread exits (out of line, off the bump
  /// path).
  AUTOSYNCH_NOINLINE static void enroll() {
    struct Retirement {
      ~Retirement() {
        Registry &R = registry();
        std::lock_guard<std::mutex> G(R.M);
        for (size_t I = 0; I != N; ++I)
          R.Retired[I] += Mine.C[I].load(std::memory_order_relaxed);
        R.Live.erase(std::find(R.Live.begin(), R.Live.end(), &Mine));
      }
    };
    static thread_local Retirement AtExit;
    (void)AtExit;
    Registry &R = registry();
    std::lock_guard<std::mutex> G(R.M);
    R.Live.push_back(&Mine);
    Mine.Enrolled = true;
  }

  /// Constant-initialized and trivially destructible, so a bump reaches
  /// it with no guard beyond Enrolled.
  static inline thread_local constinit Slots Mine;
};

} // namespace autosynch

#endif // AUTOSYNCH_SUPPORT_THREADCOUNTERS_H
