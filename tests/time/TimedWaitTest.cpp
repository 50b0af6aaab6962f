//===- tests/time/TimedWaitTest.cpp - waitUntilFor/By/CancelToken ----------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Semantics of the deadline runtime at the monitor level, across every
// automatic mechanism: success before the
// deadline, expiry, predicate-first returns, cancellation (including
// cross-monitor), plan-cache integration, and expiry under exit traffic
// (a waiter that times out never strands a live sibling).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/Monitor.h"
#include "problems/Mechanism.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

using namespace autosynch;
using namespace std::chrono_literals;

namespace {

/// A monitor with one counter and timed entry points for every front end.
class TimedCell : public Monitor {
public:
  explicit TimedCell(MonitorConfig Cfg = {}) : Monitor(Cfg) {
    N = local("n");
  }

  bool awaitAtLeastEdsl(int64_t Want, std::chrono::nanoseconds Timeout,
                        time::CancelToken *Tok = nullptr) {
    Region R(*this);
    return waitUntilFor(Count >= lit(Want), Timeout, Tok);
  }

  bool awaitAtLeastParsed(int64_t Want, std::chrono::nanoseconds Timeout,
                          time::CancelToken *Tok = nullptr) {
    Region R(*this);
    return waitUntilFor("count >= n", locals().bindInt(N, Want), Timeout,
                        Tok);
  }

  bool awaitAtLeastBy(int64_t Want, time::Deadline D,
                      time::CancelToken *Tok = nullptr) {
    Region R(*this);
    return waitUntilBy(Count >= lit(Want), D, Tok);
  }

  void add(int64_t V) {
    Region R(*this);
    Count += V;
  }

  int64_t count() {
    return synchronized([this] { return Count.get(); });
  }

  const ManagerStats &stats() { return conditionManager().stats(); }

  /// Lock-guarded snapshot of the timeout counter, for polling while
  /// other threads are still running (stats() itself is only safe to
  /// read quiescently).
  uint64_t timeoutsSync() {
    return synchronized(
        [this] { return conditionManager().stats().Timeouts; });
  }

  AUTOSYNCH_TEST_WAITER_PROBE()

private:
  Shared<int64_t> Count{*this, "count", 0};
  VarId N;
};

constexpr SignalPolicy AllPolicies[] = {
    SignalPolicy::Tagged, SignalPolicy::LinearScan, SignalPolicy::Broadcast};

MonitorConfig configOf(SignalPolicy P) {
  MonitorConfig Cfg;
  Cfg.Policy = P;
  return Cfg;
}

TEST(TimedWaitTest, AlreadyTrueReturnsImmediately) {
  for (SignalPolicy P : AllPolicies) {
    SCOPED_TRACE(signalPolicyName(P));
    TimedCell M(configOf(P));
    M.add(5);
    // Zero timeout: predicate-first means success anyway.
    EXPECT_TRUE(M.awaitAtLeastEdsl(5, 0ns));
    EXPECT_TRUE(M.awaitAtLeastParsed(3, 0ns));
    EXPECT_TRUE(M.awaitAtLeastBy(1, time::Deadline{0})); // Deadline past.
    EXPECT_EQ(M.stats().Timeouts, 0u);
  }
}

TEST(TimedWaitTest, TimesOutWhenNeverSatisfied) {
  for (SignalPolicy P : AllPolicies) {
    SCOPED_TRACE(signalPolicyName(P));
    TimedCell M(configOf(P));
    auto T0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(M.awaitAtLeastEdsl(1, 30ms));
    auto Elapsed = std::chrono::steady_clock::now() - T0;
    EXPECT_GE(Elapsed, 30ms) << "returned before the deadline";
    EXPECT_EQ(M.stats().Timeouts, 1u);
    EXPECT_EQ(M.stats().TimedWaits, 1u);
    // The monitor stays fully usable afterwards.
    M.add(2);
    EXPECT_TRUE(M.awaitAtLeastEdsl(2, 0ns));
    EXPECT_EQ(M.count(), 2);
  }
}

TEST(TimedWaitTest, SucceedsWhenMadeTrueBeforeDeadline) {
  for (SignalPolicy P : AllPolicies) {
    SCOPED_TRACE(signalPolicyName(P));
    TimedCell M(configOf(P));
    std::thread Setter([&] {
      testutil::awaitWaiters(M, 1);
      M.add(7);
    });
    EXPECT_TRUE(M.awaitAtLeastParsed(7, 10s));
    Setter.join();
    EXPECT_EQ(M.stats().Timeouts, 0u);
  }
}

TEST(TimedWaitTest, ParsedAndEdslShareTimeoutSemantics) {
  for (SignalPolicy P : AllPolicies) {
    SCOPED_TRACE(signalPolicyName(P));
    TimedCell M(configOf(P));
    EXPECT_FALSE(M.awaitAtLeastParsed(100, 20ms));
    EXPECT_FALSE(M.awaitAtLeastEdsl(100, 20ms));
    EXPECT_EQ(M.stats().Timeouts, 2u);
  }
}

TEST(TimedWaitTest, RepeatTimedWaitsHitThePlanCache) {
  TimedCell M; // Default: Tagged/Std, plan cache on.
  for (int I = 0; I != 4; ++I)
    EXPECT_FALSE(M.awaitAtLeastParsed(50 + I, 10ms));
  // One shape, four bindings: the timed path must ride the plan's
  // signatures (allocation-free steady state), not a keyless
  // registration.
  EXPECT_GE(M.stats().PlanBindHits + M.stats().PlanColdBinds, 4u);
  EXPECT_GE(M.stats().Timeouts, 4u);
}

TEST(TimedWaitTest, KeylessTimedWaitTimesOutAndSucceeds) {
  // `count * n` is a non-linear atom mixing a shared and a local variable:
  // the planner hands the shape back as Legacy, so the timed wait blocks
  // on a record registered without a plan key.
  class Scaled : public Monitor {
  public:
    explicit Scaled(MonitorConfig Cfg) : Monitor(Cfg) {}
    bool awaitScaled(int64_t N, std::chrono::nanoseconds Timeout) {
      Region R(*this);
      return waitUntilFor("count * n >= cap",
                          locals().bindInt(local("n"), N), Timeout);
    }
    void setCount(int64_t V) {
      Region R(*this);
      Count = V;
    }
    AUTOSYNCH_TEST_WAITER_PROBE()

  private:
    Shared<int64_t> Count{*this, "count", 0};
    Shared<int64_t> Cap{*this, "cap", 10};
  };

  for (SignalPolicy P : AllPolicies) {
    SCOPED_TRACE(signalPolicyName(P));
    Scaled M(configOf(P));
    const ConditionManager &Mgr = M.conditionManager();
    auto T0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(M.awaitScaled(2, 20ms));
    EXPECT_GE(std::chrono::steady_clock::now() - T0, 20ms)
        << "returned before the deadline";
    EXPECT_EQ(Mgr.stats().Timeouts, 1u);
    EXPECT_EQ(Mgr.numWaiters(), 0);
    EXPECT_EQ(Mgr.pendingSignals(), 0);

    std::thread Setter([&] {
      testutil::awaitWaiters(M, 1);
      M.setCount(5); // 5 * 2 >= 10.
    });
    EXPECT_TRUE(M.awaitScaled(2, 10s));
    Setter.join();
    EXPECT_EQ(Mgr.stats().Timeouts, 1u);
    EXPECT_EQ(Mgr.numWaiters(), 0);
    EXPECT_EQ(Mgr.pendingSignals(), 0);
  }
}

TEST(TimedWaitTest, CancelTokenAbortsBlockedWait) {
  for (SignalPolicy P : AllPolicies) {
    SCOPED_TRACE(signalPolicyName(P));
    TimedCell M(configOf(P));
    time::CancelToken Tok;
    std::thread Canceller([&] {
      testutil::awaitWaiters(M, 1);
      Tok.cancel();
    });
    auto T0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(M.awaitAtLeastEdsl(1, 10s, &Tok));
    auto Elapsed = std::chrono::steady_clock::now() - T0;
    EXPECT_LT(Elapsed, 5s) << "cancel did not cut the wait short";
    Canceller.join();
    EXPECT_EQ(M.stats().Cancels, 1u);
    EXPECT_EQ(M.stats().Timeouts, 0u);
    EXPECT_TRUE(Tok.cancelled());
    EXPECT_EQ(Tok.registeredWaits(), 0u);
  }
}

TEST(TimedWaitTest, CancelledTokenFailsFastWithoutBlocking) {
  for (SignalPolicy P : AllPolicies) {
    SCOPED_TRACE(signalPolicyName(P));
    TimedCell M(configOf(P));
    time::CancelToken Tok;
    Tok.cancel();
    auto T0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(M.awaitAtLeastEdsl(1, 10s, &Tok));
    EXPECT_LT(std::chrono::steady_clock::now() - T0, 1s);
    // Predicate-first: a true predicate beats a cancelled token.
    M.add(1);
    EXPECT_TRUE(M.awaitAtLeastEdsl(1, 10s, &Tok));
  }
}

TEST(TimedWaitTest, CancellationOnlyWaitViaNeverDeadline) {
  TimedCell M;
  time::CancelToken Tok;
  std::thread Canceller([&] {
    testutil::awaitWaiters(M, 1);
    Tok.cancel();
  });
  EXPECT_FALSE(M.awaitAtLeastBy(1, time::Deadline::never(), &Tok));
  Canceller.join();
  EXPECT_EQ(M.stats().Cancels, 1u);
}

TEST(TimedWaitTest, OneTokenCancelsWaitsAcrossMonitors) {
  TimedCell A, B;
  time::CancelToken Tok;
  std::thread TA([&] { EXPECT_FALSE(A.awaitAtLeastEdsl(1, 10s, &Tok)); });
  std::thread TB([&] { EXPECT_FALSE(B.awaitAtLeastEdsl(1, 10s, &Tok)); });
  testutil::awaitWaiters(A, 1);
  testutil::awaitWaiters(B, 1);
  EXPECT_EQ(Tok.registeredWaits(), 2u);
  Tok.cancel();
  TA.join();
  TB.join();
  EXPECT_EQ(A.stats().Cancels, 1u);
  EXPECT_EQ(B.stats().Cancels, 1u);
}

TEST(TimedWaitTest, ExpiredWaiterDoesNotStrandSiblings) {
  // A timed waiter and a long-deadline waiter share one predicate
  // record. The timed one expires on its own bounded block while exit
  // traffic runs; the long one must still be woken when the predicate
  // turns true — a waiter leaving on timeout must never take the record
  // down under a live sibling. The combinations are independent (one
  // monitor each), so they run side by side and share one 3s deadline.
  std::vector<std::thread> Cells;
  for (SignalPolicy P : AllPolicies) {
    Cells.emplace_back([P] {
      SCOPED_TRACE(signalPolicyName(P));
      TimedCell M(configOf(P));
      std::thread Timed(
          [&] { EXPECT_FALSE(M.awaitAtLeastParsed(9, 3s)); });
      std::thread Long([&] { EXPECT_TRUE(M.awaitAtLeastParsed(9, 60s)); });
      testutil::awaitWaiters(M, 2); // Both park well inside the 3s bound.
      // Exit-path traffic (no state change) until the timed waiter has
      // provably expired and left; the record must stay live for the
      // sibling throughout.
      auto Give = std::chrono::steady_clock::now() + 40s;
      while (M.timeoutsSync() == 0 &&
             std::chrono::steady_clock::now() < Give)
        std::this_thread::sleep_for(2ms); // timeoutsSync is the traffic.
      Timed.join();
      EXPECT_EQ(M.stats().Timeouts, 1u);
      M.add(9); // Now satisfy the surviving waiter.
      Long.join();
    });
  }
  for (std::thread &T : Cells)
    T.join();
}

TEST(TimedWaitTest, HandoffAtDeadlineIsAcceptedNotStolen) {
  // The predicate turns true around the moment the deadline passes; the
  // outcome may be either a success (predicate-first accepts the relayed
  // signal, even late) or a genuine timeout — but timeouts must be
  // counted exactly once per false return and conservation must hold
  // (a "stolen" signal would show up as a lost add or a hang).
  TimedCell M;
  AUTOSYNCH_SEEDED_RNG(R, 9102);
  uint64_t FalseReturns = 0;
  for (int I = 0; I != 20; ++I) {
    auto Delay = std::chrono::microseconds(R.range(0, 20000));
    std::thread Setter([&, Delay] {
      std::this_thread::sleep_for(Delay);
      M.add(1);
    });
    if (!M.awaitAtLeastEdsl(I + 1, 10ms))
      ++FalseReturns;
    Setter.join();
  }
  EXPECT_EQ(M.count(), 20); // Conservation: every round added one.
  EXPECT_EQ(M.stats().Timeouts, FalseReturns); // Exactly once per false.
}

TEST(TimedWaitTest, WheelWakeupsRetireExpiredWaitersUnderTraffic) {
  // A near-deadline waiter under steady exit traffic: its own bounded
  // block is the only expiry tick (exits read no clock), so it must time
  // out exactly once and return false while the traffic goes on.
  TimedCell M;
  std::thread Timed([&] { EXPECT_FALSE(M.awaitAtLeastEdsl(1000, 60ms)); });
  testutil::awaitWaiters(M, 1);
  auto Deadline = std::chrono::steady_clock::now() + 2s;
  while (M.timeoutsSync() == 0 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(1ms); // Each poll enters and exits.
  Timed.join();
  EXPECT_EQ(M.stats().Timeouts, 1u);
}

TEST(TimedWaitTest, BroadcastPolicyKeepsTimedSemantics) {
  MonitorConfig Cfg;
  Cfg.Policy = SignalPolicy::Broadcast;
  TimedCell M(Cfg);
  EXPECT_FALSE(M.awaitAtLeastEdsl(3, 30ms));
  EXPECT_EQ(M.stats().Timeouts, 1u);
  std::thread Setter([&] {
    testutil::awaitWaiters(M, 1);
    M.add(3);
  });
  EXPECT_TRUE(M.awaitAtLeastEdsl(3, 10s));
  Setter.join();
}

TEST(TimedWaitTest, TimedCountersFlushToProcessGlobals) {
  sync::TimedCountersSnapshot Before =
      sync::TimedCounters::global().snapshot();
  {
    TimedCell M;
    EXPECT_FALSE(M.awaitAtLeastEdsl(1, 10ms));
    time::CancelToken Tok;
    Tok.cancel();
    EXPECT_FALSE(M.awaitAtLeastEdsl(1, 10s, &Tok));
  } // Destruction flushes the partial batch.
  sync::TimedCountersSnapshot Delta =
      sync::TimedCounters::global().snapshot() - Before;
  EXPECT_GE(Delta.TimedWaits, 2u);
  EXPECT_GE(Delta.Timeouts, 1u);
  EXPECT_GE(Delta.Cancels, 1u);
}

} // namespace
