//===- tests/time/SpuriousWakeupTest.cpp - Forced-spurious robustness ------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Fault injection: sync::setSpuriousWakeupPeriod makes every Nth condvar
// wait return spuriously (mutex released and re-acquired, no signal).
// Timed waits must be robust in both directions: a spurious wakeup before
// the deadline must not surface as an early false, and the repeated trips
// through the block loop must not double-count a single timeout.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/Monitor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

using namespace autosynch;
using namespace std::chrono_literals;

namespace {

class Cell : public Monitor {
public:
  explicit Cell(MonitorConfig Cfg = {}) : Monitor(Cfg) {}

  bool awaitAtLeast(int64_t Want, std::chrono::nanoseconds Timeout) {
    Region R(*this);
    return waitUntilFor(Count >= lit(Want), Timeout);
  }

  void add(int64_t V) {
    Region R(*this);
    Count += V;
  }

  const ManagerStats &stats() { return conditionManager().stats(); }

  AUTOSYNCH_TEST_WAITER_PROBE()

private:
  Shared<int64_t> Count{*this, "count", 0};
};

TEST(SpuriousWakeupTest, HookInjectsOnBothBackends) {
  sync::SpuriousWakeupGuard Inject(1); // Every wait returns spuriously.
  Cell M;
  // A never-true timed wait now spins through manufactured wakeups; the
  // deadline check must still terminate it (and once only).
  auto T0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(M.awaitAtLeast(1, 20ms));
  EXPECT_GE(std::chrono::steady_clock::now() - T0, 20ms);
  EXPECT_EQ(M.stats().Timeouts, 1u);
}

TEST(SpuriousWakeupTest, NoEarlyFalseUnderInjection) {
  sync::SpuriousWakeupGuard Inject(3);
  Cell M;
  constexpr int Rounds = 25;
  for (int I = 0; I != Rounds; ++I) {
    std::thread Setter([&] {
      testutil::awaitWaiters(M, 1);
      M.add(1);
    });
    // Generous deadline: with the predicate guaranteed to turn true,
    // every spurious trip must re-block, never return false.
    EXPECT_TRUE(M.awaitAtLeast(I + 1, 30s))
        << "spurious wakeup surfaced as a timeout";
    Setter.join();
  }
  EXPECT_EQ(M.stats().Timeouts, 0u);
}

TEST(SpuriousWakeupTest, TimeoutsCountedExactlyOnceUnderInjection) {
  sync::SpuriousWakeupGuard Inject(2);
  Cell M;
  constexpr uint64_t Expiring = 6;
  for (uint64_t I = 0; I != Expiring; ++I)
    EXPECT_FALSE(M.awaitAtLeast(1000, 15ms));
  // Each expiring wait looped through several injected wakeups; the
  // timeout count must equal the number of false returns exactly.
  EXPECT_EQ(M.stats().Timeouts, Expiring);
  EXPECT_EQ(M.stats().TimedWaits, Expiring);
}

TEST(SpuriousWakeupTest, UntimedWaitsSurviveInjectionToo) {
  sync::SpuriousWakeupGuard Inject(2);
  Cell M;
  std::thread Setter([&] {
    testutil::awaitWaiters(M, 1);
    M.add(5);
  });
  // An effectively-unbounded timed wait and the injected substrate: the
  // only way out is the predicate turning true.
  EXPECT_TRUE(M.awaitAtLeast(5, 30s));
  Setter.join();
  EXPECT_EQ(M.stats().Timeouts, 0u);
}

} // namespace
