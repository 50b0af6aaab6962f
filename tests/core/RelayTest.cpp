//===- tests/core/RelayTest.cpp - Relay invariance tests (§4.2) -------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The paper's headline guarantee: the relay policies never call signalAll,
// yet no waiter whose predicate became true is stranded. The baseline
// (Broadcast) policy, by contrast, must show signalAll traffic.
//
//===----------------------------------------------------------------------===//

#include "core/Monitor.h"
#include "sync/Counters.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace autosynch;

namespace {

/// Batch-threshold monitor: waiters demand different amounts, the producer
/// deposits in chunks — the paper's §3 scenario where explicit signaling
/// would need signalAll.
class PoolMonitor : public Monitor {
public:
  explicit PoolMonitor(MonitorConfig Cfg) : Monitor(Cfg) {}

  void deposit(int64_t N) {
    Region R(*this);
    Level += N;
  }

  void withdraw(int64_t N) {
    Region R(*this);
    waitUntil(Level >= N);
    Level -= N;
  }

  int64_t level() {
    Region R(*this);
    return Level.get();
  }

  using Monitor::conditionManager;

private:
  Shared<int64_t> Level{*this, "level", 0};
};

class RelayTest : public ::testing::TestWithParam<SignalPolicy> {
protected:
  MonitorConfig config() {
    MonitorConfig Cfg;
    Cfg.Policy = GetParam();
    return Cfg;
  }
};

INSTANTIATE_TEST_SUITE_P(Policies, RelayTest,
                         ::testing::Values(SignalPolicy::Tagged,
                                           SignalPolicy::LinearScan),
                         [](const auto &Info) {
                           return Info.param == SignalPolicy::Tagged
                                      ? "tagged"
                                      : "linearscan";
                         });

TEST_P(RelayTest, RelayPoliciesNeverSignalAll) {
  sync::CountersSnapshot Before = sync::Counters::global().snapshot();

  PoolMonitor M(config());
  constexpr int Waiters = 12;
  std::vector<std::thread> Pool;
  for (int I = 1; I <= Waiters; ++I)
    Pool.emplace_back([&M, I] { M.withdraw(I); });
  // Total demand: 78. Deposit in odd chunks to shuffle wake order.
  std::thread Producer([&] {
    for (int I = 0; I != 26; ++I)
      M.deposit(3);
  });
  for (auto &T : Pool)
    T.join();
  Producer.join();

  sync::CountersSnapshot Delta =
      sync::Counters::global().snapshot() - Before;
  EXPECT_EQ(Delta.SignalAlls, 0u) << "relay policy used signalAll";
  EXPECT_EQ(M.level(), 0);
  EXPECT_EQ(M.conditionManager().stats().BroadcastSignals, 0u);
}

TEST_P(RelayTest, EveryTrueWaiterEventuallyRuns) {
  // Interleave producers and varied-demand waiters; everything must
  // drain — the liveness half of relay invariance (Prop. 2).
  PoolMonitor M(config());
  std::atomic<int> Done{0};
  constexpr int Waiters = 24;
  std::vector<std::thread> Pool;
  for (int I = 0; I != Waiters; ++I) {
    Pool.emplace_back([&M, &Done, I] {
      M.withdraw((I % 6) + 1);
      ++Done;
    });
  }
  int64_t Total = 0;
  for (int I = 0; I != Waiters; ++I)
    Total += (I % 6) + 1;
  std::thread Producer([&] {
    for (int64_t I = 0; I != Total; ++I)
      M.deposit(1);
  });
  for (auto &T : Pool)
    T.join();
  Producer.join();
  EXPECT_EQ(Done.load(), Waiters);
  EXPECT_EQ(M.level(), 0);
  EXPECT_EQ(M.conditionManager().pendingSignals(), 0);
}

TEST_P(RelayTest, SignalsDoNotExceedWakeBudget) {
  // Directed signaling: the number of signals stays in the order of the
  // number of successful wakeups, never the waiter-count blowup that
  // broadcast suffers.
  PoolMonitor M(config());
  constexpr int Waiters = 16;
  std::vector<std::thread> Pool;
  for (int I = 1; I <= Waiters; ++I)
    Pool.emplace_back([&M, I] { M.withdraw(I); });
  std::thread Producer([&] {
    for (int I = 0; I != Waiters * (Waiters + 1) / 2; ++I)
      M.deposit(1);
  });
  for (auto &T : Pool)
    T.join();
  Producer.join();

  const ManagerStats &S = M.conditionManager().stats();
  // Each signal is directed at a then-true predicate. A signaled thread's
  // predicate can be falsified before it resumes, so allow some slack,
  // but far below broadcast's Waiters * deposits.
  EXPECT_LE(S.SignalsSent, static_cast<uint64_t>(4 * Waiters));
}

TEST(RelayBaselineTest, BroadcastUsesSignalAll) {
  MonitorConfig Cfg;
  Cfg.Policy = SignalPolicy::Broadcast;
  PoolMonitor M(Cfg);
  std::thread W([&] { M.withdraw(5); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  for (int I = 0; I != 5; ++I)
    M.deposit(1);
  W.join();
  EXPECT_GE(M.conditionManager().stats().BroadcastSignals, 1u);
}

TEST(RelayBaselineTest, BroadcastAlsoDrains) {
  MonitorConfig Cfg;
  Cfg.Policy = SignalPolicy::Broadcast;
  PoolMonitor M(Cfg);
  std::vector<std::thread> Pool;
  for (int I = 1; I <= 10; ++I)
    Pool.emplace_back([&M, I] { M.withdraw(I); });
  std::thread Producer([&] {
    for (int I = 0; I != 55; ++I)
      M.deposit(1);
  });
  for (auto &T : Pool)
    T.join();
  Producer.join();
  EXPECT_EQ(M.level(), 0);
}

/// Token-ring monitor: thread T blocks on `turn == T`, then passes the
/// token on. Every handoff is one monitor exit whose relay wakeup is
/// deferred past the unlock — the densest possible exercise of the
/// deferred-signal path.
class RingMonitor : public Monitor {
public:
  explicit RingMonitor(MonitorConfig Cfg) : Monitor(Cfg) {}

  void pass(int64_t Me, int64_t Next) {
    Region R(*this);
    waitUntil(Turn == Me);
    Turn = Next;
  }

  int64_t turn() {
    Region R(*this);
    return Turn.get();
  }

private:
  Shared<int64_t> Turn{*this, "turn", 0};
};

TEST(RelayDeferredWakeTest, TokenRingHandoffsOnBothBackends) {
  // Monitor::exit picks the relay winner under the lock but issues the
  // condvar signal after releasing it. A lost or misordered deferred
  // wakeup shows up as a hang (ctest timeout) or a wrong final token.
  // Runs under TSan in CI: the post-unlock signal must not race record
  // reuse or the condvar counters.
  for (SignalPolicy P : {SignalPolicy::Tagged, SignalPolicy::LinearScan,
                         SignalPolicy::Broadcast}) {
    MonitorConfig Cfg;
    Cfg.Policy = P;
    RingMonitor M(Cfg);
    constexpr int64_t Threads = 4;
    constexpr int64_t Rounds = 200;
    std::vector<std::thread> Pool;
    for (int64_t T = 0; T != Threads; ++T) {
      Pool.emplace_back([&M, T] {
        for (int64_t I = 0; I != Rounds; ++I) {
          int64_t Me = I * Threads + T;
          M.pass(Me, Me + 1);
        }
      });
    }
    for (auto &T : Pool)
      T.join();
    EXPECT_EQ(M.turn(), Threads * Rounds) << signalPolicyName(P);
    EXPECT_EQ(M.conditionManager().numWaiters(), 0);
    EXPECT_EQ(M.conditionManager().pendingSignals(), 0);
  }
}

TEST(RelayStressTest, MixedDemandsManyRounds) {
  // Heavier randomized stress across both relay policies.
  for (SignalPolicy P : {SignalPolicy::Tagged, SignalPolicy::LinearScan}) {
    MonitorConfig Cfg;
    Cfg.Policy = P;
    PoolMonitor M(Cfg);
    constexpr int Threads = 8;
    constexpr int Rounds = 200;
    std::vector<std::thread> Pool;
    for (int T = 0; T != Threads; ++T) {
      Pool.emplace_back([&M, T] {
        for (int I = 0; I != Rounds; ++I) {
          M.deposit((T + I) % 5 + 1);
          M.withdraw((T + I) % 5 + 1);
        }
      });
    }
    for (auto &T : Pool)
      T.join();
    EXPECT_EQ(M.level(), 0) << signalPolicyName(P);
    EXPECT_EQ(M.conditionManager().numWaiters(), 0);
  }
}

} // namespace
