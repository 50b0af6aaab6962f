//===- tests/core/StressTest.cpp - Randomized monitor stress -----------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Heavier randomized stress across signal policies: mixed
// threshold/equivalence/boolean predicates churning registrations, with
// conservation oracles. These are the tests most likely to surface relay
// lost-wakeup bugs (they hang, and the ctest timeout flags them).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/Monitor.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace autosynch;

namespace {

/// A small "warehouse": deposits, withdrawals, a gate flag, and an epoch
/// counter — covering threshold, boolean, and equivalence predicates in
/// one monitor.
class Warehouse : public Monitor {
public:
  explicit Warehouse(MonitorConfig Cfg) : Monitor(Cfg) {}

  void deposit(int64_t N) {
    Region R(*this);
    Stock += N;
  }

  void withdraw(int64_t N) {
    Region R(*this);
    waitUntil(Stock >= N && Open.expr());
    Stock -= N;
  }

  void setOpen(bool V) {
    Region R(*this);
    Open = V;
  }

  void nextEpoch() {
    Region R(*this);
    Epoch += 1;
  }

  void awaitEpoch(int64_t E) {
    Region R(*this);
    waitUntil(Epoch == E);
  }

  int64_t stock() {
    Region R(*this);
    return Stock.get();
  }

  AUTOSYNCH_TEST_WAITER_PROBE()
  using Monitor::conditionManager;

private:
  Shared<int64_t> Stock{*this, "stock", 0};
  Shared<int64_t> Epoch{*this, "epoch", 0};
  Shared<bool> Open{*this, "open", true};
};

struct StressCase {
  SignalPolicy Policy;
  testutil::Substrate Sync = testutil::Substrate::Futex;
};

class MonitorStressTest : public ::testing::TestWithParam<StressCase> {};

INSTANTIATE_TEST_SUITE_P(
    All, MonitorStressTest,
    ::testing::Values(StressCase{SignalPolicy::Tagged},
                      StressCase{SignalPolicy::LinearScan},
                      StressCase{SignalPolicy::Broadcast}),
    [](const auto &Info) {
      std::string Name = Info.param.Policy == SignalPolicy::Tagged
                             ? "tagged"
                         : Info.param.Policy == SignalPolicy::LinearScan
                             ? "linearscan"
                             : "broadcast";
      return Name + "Futex";
    });

TEST_P(MonitorStressTest, MixedPredicateChurn) {
  MonitorConfig Cfg;
  Cfg.Policy = GetParam().Policy;
  Cfg.InactiveCacheLimit = 8; // Exercise eviction under load.
  Warehouse W(Cfg);

  constexpr int Withdrawers = 6;
  constexpr int64_t OpsPerThread = 400;

  // Precompute total demand; one supplier covers it exactly.
  int64_t Total = 0;
  for (int T = 0; T != Withdrawers; ++T)
    for (int64_t I = 0; I != OpsPerThread; ++I)
      Total += (T * 7 + I) % 9 + 1;

  std::vector<std::thread> Pool;
  Pool.emplace_back([&W, Total] {
    for (int64_t Left = Total; Left > 0;) {
      int64_t N = Left < 3 ? Left : 3;
      W.deposit(N);
      Left -= N;
    }
  });
  // A gate toggler: closes and reopens the warehouse repeatedly. Waiters
  // must hold while closed (the boolean conjunct) yet never be stranded.
  Pool.emplace_back([&W] {
    for (int I = 0; I != 50; ++I) {
      W.setOpen(false);
      std::this_thread::yield();
      W.setOpen(true);
    }
  });
  for (int T = 0; T != Withdrawers; ++T) {
    Pool.emplace_back([&W, T] {
      for (int64_t I = 0; I != OpsPerThread; ++I)
        W.withdraw((T * 7 + I) % 9 + 1);
    });
  }
  for (auto &T : Pool)
    T.join();

  EXPECT_EQ(W.stock(), 0);
  EXPECT_EQ(W.conditionManager().numWaiters(), 0);
  EXPECT_EQ(W.conditionManager().pendingSignals(), 0);
  if (GetParam().Policy != SignalPolicy::Broadcast) {
    EXPECT_EQ(W.conditionManager().stats().BroadcastSignals, 0u);
  }
}

TEST_P(MonitorStressTest, EpochBarrierChains) {
  // Equivalence-predicate chain: waiters for epochs 1..K are released in
  // order as the epoch advances.
  MonitorConfig Cfg;
  Cfg.Policy = GetParam().Policy;
  Warehouse W(Cfg);

  constexpr int64_t Epochs = 24;
  std::atomic<int64_t> Released{0};
  std::vector<std::thread> Pool;
  for (int64_t E = 1; E <= Epochs; ++E) {
    Pool.emplace_back([&W, &Released, E] {
      W.awaitEpoch(E);
      ++Released;
    });
  }
  // Drive epochs upward with a pause so waiters for every value get their
  // turn while that value is current.
  for (int64_t E = 1; E <= Epochs; ++E) {
    // Wait until the waiter for epoch E has been released before moving
    // on; otherwise an equality waiter could legitimately be skipped.
    W.nextEpoch();
    while (Released.load() < E)
      std::this_thread::yield();
  }
  for (auto &T : Pool)
    T.join();
  EXPECT_EQ(Released.load(), Epochs);
}

TEST(MonitorLifecycleTest, DestructionWithWaitersIsFatal) {
  EXPECT_DEATH(
      {
        auto *W = new Warehouse(MonitorConfig{});
        std::thread T([&] { W->withdraw(100); });
        // Waiter-count probe, not a sleep: the waiter must be parked
        // before destruction or the test would pass vacuously.
        testutil::awaitWaiters(*W, 1);
        delete W; // A blocked waiter exists: must abort, not corrupt.
        T.join();
      },
      "blocked waiters");
}

} // namespace
