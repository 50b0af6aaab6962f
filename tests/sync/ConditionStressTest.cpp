//===- tests/sync/ConditionStressTest.cpp - Multi-condition stress -----------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The condition manager creates one condition variable per registered
// predicate, all bound to the monitor mutex, and signals them selectively.
// These tests hammer exactly that pattern on the raw substrate — many
// conditions on one mutex, targeted handoffs.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "sync/Mutex.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace autosynch;
using namespace autosynch::sync;

namespace {

using testutil::Substrate;

class ConditionStressTest : public ::testing::TestWithParam<Substrate> {};

INSTANTIATE_TEST_SUITE_P(Backends, ConditionStressTest,
                         ::testing::Values(Substrate::Futex),
                         [](const auto &) { return "futex"; });

TEST_P(ConditionStressTest, TargetedSignalsWakeOnlyTheirCondition) {
  // N waiters, each on its own condition; release them one by one in a
  // chosen order and verify the order is honored.
  constexpr int N = 16;
  Mutex M;
  std::vector<std::unique_ptr<Condition>> Conds;
  for (int I = 0; I != N; ++I)
    Conds.push_back(M.newCondition());

  std::vector<bool> Released(N, false);
  std::vector<int> WakeOrder;
  std::vector<std::thread> Pool;
  for (int I = 0; I != N; ++I) {
    Pool.emplace_back([&, I] {
      M.lock();
      while (!Released[I])
        Conds[I]->await();
      WakeOrder.push_back(I); // Under the mutex.
      M.unlock();
    });
  }

  // Every waiter must be parked before the release pattern starts, or an
  // early signal could race a waiter still acquiring the mutex; poll the
  // per-condition await counts instead of sleeping (PR-1 deflaking).
  testutil::awaitParked(
      M,
      [&] {
        int Parked = 0;
        for (const auto &C : Conds)
          Parked += C->awaitCount() >= 1;
        return Parked;
      },
      N);
  // Release even-numbered waiters first, then odd.
  std::vector<int> Expected;
  for (int Pass = 0; Pass != 2; ++Pass) {
    for (int I = Pass; I < N; I += 2) {
      M.lock();
      Released[I] = true;
      Conds[I]->signal();
      M.unlock();
      Expected.push_back(I);
      // Wait for the waiter to record itself before releasing the next,
      // making the global order deterministic.
      for (;;) {
        M.lock();
        bool Done = WakeOrder.size() == Expected.size();
        M.unlock();
        if (Done)
          break;
        std::this_thread::yield();
      }
    }
  }
  for (auto &T : Pool)
    T.join();
  EXPECT_EQ(WakeOrder, Expected);
}

TEST_P(ConditionStressTest, ChainedHandoffAcrossConditions) {
  // A token circulates through K conditions R rounds; each thread waits
  // on its own condition and signals the next — the relay pattern.
  constexpr int K = 8;
  constexpr int Rounds = 500;
  Mutex M;
  std::vector<std::unique_ptr<Condition>> Conds;
  for (int I = 0; I != K; ++I)
    Conds.push_back(M.newCondition());

  int Holder = 0;
  int64_t Hops = 0;
  std::vector<std::thread> Pool;
  for (int I = 0; I != K; ++I) {
    Pool.emplace_back([&, I] {
      for (int R = 0; R != Rounds; ++R) {
        M.lock();
        while (Holder != I)
          Conds[I]->await();
        ++Hops;
        Holder = (I + 1) % K;
        Conds[Holder]->signal();
        M.unlock();
      }
    });
  }
  for (auto &T : Pool)
    T.join();
  EXPECT_EQ(Hops, static_cast<int64_t>(K) * Rounds);
  EXPECT_EQ(Holder, 0); // Full cycles return the token home.
}

TEST_P(ConditionStressTest, ManyConditionsLowTrafficDoNotCrosstalk) {
  // Signals on one condition must never wake a different condition's
  // waiter into a spurious exit of its predicate loop with a corrupted
  // state (each waiter re-checks its own flag).
  constexpr int N = 12;
  Mutex M;
  std::vector<std::unique_ptr<Condition>> Conds;
  for (int I = 0; I != N; ++I)
    Conds.push_back(M.newCondition());
  std::vector<int> Generation(N, 0);
  std::vector<int> Observed(N, 0);

  std::vector<std::thread> Pool;
  for (int I = 0; I != N; ++I) {
    Pool.emplace_back([&, I] {
      for (int G = 1; G <= 50; ++G) {
        M.lock();
        while (Generation[I] < G)
          Conds[I]->await();
        Observed[I] = Generation[I];
        M.unlock();
      }
    });
  }

  for (int G = 1; G <= 50; ++G) {
    for (int I = 0; I != N; ++I) {
      M.lock();
      Generation[I] = G;
      Conds[I]->signal();
      M.unlock();
    }
  }
  for (auto &T : Pool)
    T.join();
  for (int I = 0; I != N; ++I)
    EXPECT_EQ(Observed[I], 50);
}

} // namespace
