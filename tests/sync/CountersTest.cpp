//===- tests/sync/CountersTest.cpp - Per-thread event counter tests -------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The process-wide event counts (sync::Counters, PlanCounters) are counted
// per thread (support/ThreadCounters.h). These tests pin that no event is
// lost: the counts of threads parked at a latch read exactly, the counts
// of threads that have exited are kept, and a sync::Counters reset taken
// mid-way subtracts only what came before it.
//
//===----------------------------------------------------------------------===//

#include "core/Monitor.h"
#include "plan/PlanCache.h"
#include "sync/Counters.h"
#include "sync/Mutex.h"

#include <gtest/gtest.h>

#include <chrono>
#include <latch>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

using namespace autosynch;
using namespace autosynch::sync;

namespace {

constexpr int Threads = 4;
constexpr int K = 400; ///< Events per thread and phase.

/// Runs \p Work(Thread, Phase) on Threads threads for two phases. After
/// each phase the threads park at a latch while \p Check(Phase, Exited)
/// runs, and it runs once more after they have all exited;
/// \p BetweenPhases runs while they are parked after phase 0.
template <typename WorkFn, typename CheckFn, typename BetweenFn>
void runTwoPhases(WorkFn Work, CheckFn Check, BetweenFn BetweenPhases) {
  std::latch Done0(Threads), Done1(Threads), Go1(1), Go2(1);
  std::vector<std::thread> Ts;
  for (int T = 0; T != Threads; ++T)
    Ts.emplace_back([&, T] {
      Work(T, 0);
      Done0.count_down();
      Go1.wait();
      Work(T, 1);
      Done1.count_down();
      Go2.wait();
    });
  Done0.wait();
  Check(0, /*Exited=*/false);
  BetweenPhases();
  Go1.count_down();
  Done1.wait();
  Check(1, /*Exited=*/false);
  Go2.count_down();
  for (std::thread &T : Ts)
    T.join();
  Check(1, /*Exited=*/true);
}

/// A ping-pong pair on one mutex: each side takes K turns per phase and
/// hands the turn to its partner with a signal.
struct Pair {
  Mutex M;
  std::unique_ptr<Condition> Turn[2] = {M.newCondition(), M.newCondition()};
  int Whose = 0;

  /// Side \p Me's K turns; returns the await calls they made.
  uint64_t play(int Me) {
    uint64_t Awaits = 0;
    for (int I = 0; I != K; ++I) {
      M.lock();
      while (Whose != Me) {
        Turn[Me]->await();
        ++Awaits;
      }
      Whose = 1 - Me;
      Turn[1 - Me]->signal();
      M.unlock();
    }
    return Awaits;
  }
};

TEST(CountersTest, SyncCountsStayExactAcrossParkingExitAndReset) {
  Counters &G = Counters::global();
  Pair Pairs[Threads / 2];
  uint64_t Awaits[2][Threads] = {};
  CountersSnapshot Before = G.snapshot();
  bool WasReset = false;

  runTwoPhases(
      [&](int T, int Phase) { Awaits[Phase][T] = Pairs[T / 2].play(T % 2); },
      [&](int Phase, bool Exited) {
        SCOPED_TRACE(testing::Message()
                     << "phase " << Phase << (Exited ? ", exited" : ""));
        CountersSnapshot S = G.snapshot();
        if (!WasReset)
          S = S - Before;
        uint64_t Blocks =
            std::accumulate(Awaits[Phase], Awaits[Phase] + Threads,
                            uint64_t{0});
        EXPECT_EQ(S.Signals, uint64_t{Threads} * K);
        EXPECT_EQ(S.Awaits, Blocks);
        EXPECT_EQ(S.Wakeups, Blocks); // Every parked thread has returned.
        EXPECT_EQ(S.SignalAlls, 0u);
      },
      [&] {
        G.reset();
        WasReset = true;
        CountersSnapshot S = G.snapshot();
        EXPECT_EQ(S.Awaits + S.Signals + S.SignalAlls + S.Wakeups, 0u);
      });
}

/// A monitor whose one wait gives up at once: a zero-timeout wait on a
/// false predicate binds its plan's record, finds it false and times out
/// without blocking. Its first wait is a cold bind, every later one a
/// bind hit on the parked record.
class Probe : public Monitor {
public:
  Probe() : Monitor(MonitorConfig{}) {}

  bool probe() {
    Region R(*this);
    return waitUntilFor(Count >= lit(5), std::chrono::nanoseconds(0));
  }

  ManagerStats stats() {
    Region R(*this);
    return conditionManager().stats();
  }

private:
  Shared<int64_t> Count{*this, "count", 0};
};

TEST(CountersTest, PlanCountsStayExactAcrossParkingAndExit) {
  PlanCounters &G = PlanCounters::global();
  std::vector<std::unique_ptr<Probe>> Monitors;
  for (int T = 0; T != Threads; ++T)
    Monitors.push_back(std::make_unique<Probe>());
  PlanCountersSnapshot Before = G.snapshot();

  runTwoPhases(
      [&](int T, int) {
        for (int I = 0; I != K; ++I)
          EXPECT_FALSE(Monitors[T]->probe());
      },
      [&](int Phase, bool Exited) {
        SCOPED_TRACE(testing::Message()
                     << "phase " << Phase << (Exited ? ", exited" : ""));
        PlanCountersSnapshot S = G.snapshot() - Before;
        // Each monitor's first wait binds its record cold.
        uint64_t Waits = uint64_t{Threads} * K * (Phase + 1);
        EXPECT_EQ(S.ColdBinds, uint64_t{Threads});
        EXPECT_EQ(S.BindHits, Waits - Threads);
        EXPECT_EQ(S.LegacyWaits, 0u);
        // The monitors' own records agree.
        ManagerStats Sum;
        for (auto &M : Monitors)
          Sum += M->stats();
        EXPECT_EQ(Sum.PlanColdBinds, S.ColdBinds);
        EXPECT_EQ(Sum.PlanBindHits, S.BindHits);
      },
      [] {});
}

} // namespace
