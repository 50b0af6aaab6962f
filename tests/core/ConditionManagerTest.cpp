//===- tests/core/ConditionManagerTest.cpp - Manager bookkeeping tests ------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/Monitor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

using namespace autosynch;

namespace {

/// Ping-pong monitor creating many distinct predicates so the inactive
/// cache and eviction paths are exercised.
class TurnMonitor : public Monitor {
public:
  explicit TurnMonitor(MonitorConfig Cfg) : Monitor(Cfg) {}

  void awaitTurn(int64_t T) {
    Region R(*this);
    waitUntil(Turn == T);
  }

  void advance() {
    Region R(*this);
    Turn += 1;
  }

  void reset() {
    Region R(*this);
    Turn = 0;
  }

  AUTOSYNCH_TEST_WAITER_PROBE()

  uint64_t futileWakeups() {
    Region R(*this);
    return conditionManager().stats().FutileWakeups;
  }

  using Monitor::conditionManager;

private:
  Shared<int64_t> Turn{*this, "turn", 0};
};

TEST(ConditionManagerTest, InactiveCacheReusesPredicates) {
  MonitorConfig Cfg;
  Cfg.InactiveCacheLimit = 64;
  TurnMonitor M(Cfg);

  // Two rounds over the same predicates: round two reuses the parked
  // registrations instead of creating new ones.
  for (int Round = 0; Round != 2; ++Round) {
    M.reset();
    for (int64_t T = 1; T <= 4; ++T) {
      std::thread W([&M, T] { M.awaitTurn(T); });
      testutil::awaitWaiters(M, 1);
      for (int64_t Step = 0; Step != T; ++Step)
        M.advance();
      W.join();
      M.reset();
    }
  }

  const ManagerStats &S = M.conditionManager().stats();
  EXPECT_LE(S.Registrations, 4u);
  EXPECT_GE(S.CacheReuses, 1u);
  EXPECT_EQ(M.conditionManager().numWaiters(), 0);
}

TEST(ConditionManagerTest, EvictionBoundsTheTable) {
  MonitorConfig Cfg;
  Cfg.InactiveCacheLimit = 4;
  TurnMonitor M(Cfg);

  // 32 distinct predicates in sequence; the table must stay bounded by
  // the cache limit (plus actives, which drain to zero).
  for (int64_t T = 1; T <= 32; ++T) {
    std::thread W([&M, T] { M.awaitTurn(T); });
    // Let the waiter block (and register) before its predicate turns true;
    // otherwise it takes the fast path and registers nothing.
    testutil::awaitWaiters(M, 1);
    M.advance();
    W.join();
  }
  EXPECT_LE(M.conditionManager().inactiveCacheSize(), 4u);
  EXPECT_LE(M.conditionManager().numRegistered(), 5u);
  EXPECT_GE(M.conditionManager().stats().Evictions, 10u);
}

TEST(ConditionManagerTest, StatsTrackWaitsAndSignals) {
  MonitorConfig Cfg;
  TurnMonitor M(Cfg);
  std::thread W([&] { M.awaitTurn(1); });
  testutil::awaitWaiters(M, 1);
  M.advance();
  W.join();
  const ManagerStats &S = M.conditionManager().stats();
  EXPECT_EQ(S.Waits, 1u);
  EXPECT_EQ(S.SignalsSent, 1u);
  EXPECT_GE(S.RelayCalls, 1u);
}

TEST(ConditionManagerTest, ResetStatsClears) {
  TurnMonitor M(MonitorConfig{});
  std::thread W([&] { M.awaitTurn(1); });
  testutil::awaitWaiters(M, 1);
  M.advance();
  W.join();
  M.conditionManager().resetStats();
  EXPECT_EQ(M.conditionManager().stats().Waits, 0u);
  EXPECT_EQ(M.conditionManager().stats().SignalsSent, 0u);
}

TEST(ConditionManagerTest, HandoffsRacingTheWaiterLeaveNoWaiters) {
  // The advance races the waiter's arrival: the waiter either takes the
  // fast path or blocks and is relayed. A waiter on `turn == T` is only
  // woken while the equality holds; advancing past T concurrently is
  // allowed to strand it (the paper's semantics), so each round advances
  // exactly once and joins.
  TurnMonitor M(MonitorConfig{});
  for (int64_t T = 1; T <= 8; ++T) {
    std::thread W([&M, T] { M.awaitTurn(T); });
    M.advance();
    W.join();
  }
  EXPECT_EQ(M.conditionManager().numWaiters(), 0);
  EXPECT_LE(M.conditionManager().stats().Registrations, 8u);
}

/// Turns the process-wide timing switch on for its scope.
struct TimingOn {
  TimingOn() { sync::Counters::global().enableTiming(true); }
  ~TimingOn() { sync::Counters::global().enableTiming(false); }
};

TEST(ConditionManagerTest, PhaseTimersAccumulateWhenEnabled) {
  TimingOn Timing;
  TurnMonitor M(MonitorConfig{});
  std::thread W([&] { M.awaitTurn(1); });
  testutil::awaitWaiters(M, 1);
  M.advance();
  W.join();
  const ManagerStats &S = M.conditionManager().stats();
  EXPECT_GT(S.RelayNs, 0u);
  // The waiter registered tags (Tagged policy default).
  EXPECT_GT(S.TagNs, 0u);
}

TEST(ConditionManagerTest, PhaseTimersSilentWhenDisabled) {
  ASSERT_FALSE(sync::Counters::global().timingEnabled());
  TurnMonitor M(MonitorConfig{});
  std::thread W([&] { M.awaitTurn(1); });
  testutil::awaitWaiters(M, 1);
  M.advance();
  W.join();
  const ManagerStats &S = M.conditionManager().stats();
  EXPECT_EQ(S.RelayNs, 0u);
  EXPECT_EQ(S.TagNs, 0u);
}

TEST(ConditionManagerTest, OnlyBroadcastWakesFutilely) {
  // Two waiters on different turns; turn 1 comes. The relay policies wake
  // only its waiter. Broadcast's signalAll wakes both, and the turn-2
  // waiter re-checks false and blocks again: a futile wakeup.
  for (SignalPolicy P : {SignalPolicy::Tagged, SignalPolicy::LinearScan,
                         SignalPolicy::Broadcast}) {
    SCOPED_TRACE(signalPolicyName(P));
    MonitorConfig Cfg;
    Cfg.Policy = P;
    TurnMonitor M(Cfg);
    std::thread First([&] { M.awaitTurn(1); });
    std::thread Second([&] { M.awaitTurn(2); });
    testutil::awaitWaiters(M, 2);
    M.advance();
    First.join();
    if (P == SignalPolicy::Broadcast) {
      // The second waiter's re-check may still be pending; turn 2 must
      // not come before it, or its wakeup would find the predicate true.
      auto Deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (M.futileWakeups() == 0 &&
             std::chrono::steady_clock::now() < Deadline)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    M.advance();
    Second.join();
    uint64_t Futile = M.conditionManager().stats().FutileWakeups;
    if (P == SignalPolicy::Broadcast)
      EXPECT_GE(Futile, 1u);
    else
      EXPECT_EQ(Futile, 0u);
    EXPECT_EQ(M.conditionManager().stats().Waits, 2u);
  }
}

TEST(ConditionManagerTest, TaggedSearchStatsAdvance) {
  MonitorConfig Cfg;
  Cfg.Policy = SignalPolicy::Tagged;
  TurnMonitor M(Cfg);
  std::thread W([&] { M.awaitTurn(1); });
  testutil::awaitWaiters(M, 1);
  M.advance();
  W.join();
  const TagSearchStats &S = M.conditionManager().stats().Search;
  EXPECT_GE(S.SharedExprEvals, 1u);
  EXPECT_GE(S.PredicateChecks, 1u);
}

TEST(ConditionManagerTest, RelayCountsEachPredicateCheckOnce) {
  // One parked waiter whose predicate the next exit makes true: the relay
  // checks exactly one predicate, whether the tag index or the linear scan
  // finds it.
  for (SignalPolicy P : {SignalPolicy::Tagged, SignalPolicy::LinearScan}) {
    SCOPED_TRACE(signalPolicyName(P));
    MonitorConfig Cfg;
    Cfg.Policy = P;
    TurnMonitor M(Cfg);
    std::thread W([&] { M.awaitTurn(1); });
    testutil::awaitWaiters(M, 1);
    M.conditionManager().resetStats();
    M.advance();
    W.join();
    const ManagerStats &S = M.conditionManager().stats();
    EXPECT_EQ(S.SignalsSent, 1u);
    EXPECT_EQ(S.Search.PredicateChecks, 1u);
  }
}

} // namespace
