//===- tests/core/MonitorTest.cpp - Monitor API tests -----------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/Monitor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace autosynch;

namespace {

using testutil::awaitWaiters;

/// A small counter monitor exercising both predicate front ends.
class CounterMonitor : public Monitor {
public:
  explicit CounterMonitor(MonitorConfig Cfg = {}) : Monitor(Cfg) {}

  void add(int64_t N) {
    Region R(*this);
    Count += N;
  }

  void awaitAtLeastEdsl(int64_t N) {
    Region R(*this);
    waitUntil(Count >= N);
  }

  void awaitAtLeastParsed(int64_t N) {
    Region R(*this);
    waitUntil("count >= n", locals().bindInt(local("n"), N));
  }

  int64_t get() {
    Region R(*this);
    return Count.get();
  }

  void nestedAdd(int64_t N) {
    Region Outer(*this);
    add(N); // Re-enters through a nested Region.
  }

  void waitFromNestedRegion() {
    Region Outer(*this);
    Region Inner(*this);
    waitUntil(Count >= 0); // Must be fatal: depth 2.
  }

  bool inMonitorNow() {
    Region R(*this);
    return true;
  }

  AUTOSYNCH_TEST_WAITER_PROBE()

  void waitUnsatisfiable() {
    Region R(*this);
    waitUntil(Count < 0 && Count > 0);
  }

  void waitUnsatisfiableParsed() {
    Region R(*this);
    waitUntil("count < 0 && count > 0");
  }

  using Monitor::conditionManager;

private:
  Shared<int64_t> Count{*this, "count", 0};
};

class MonitorPolicyTest : public ::testing::TestWithParam<SignalPolicy> {
protected:
  MonitorConfig config() {
    MonitorConfig Cfg;
    Cfg.Policy = GetParam();
    return Cfg;
  }
};

INSTANTIATE_TEST_SUITE_P(Policies, MonitorPolicyTest,
                         ::testing::Values(SignalPolicy::Tagged,
                                           SignalPolicy::LinearScan,
                                           SignalPolicy::Broadcast),
                         [](const auto &Info) {
                           std::string Name = signalPolicyName(Info.param);
                           Name.erase(std::remove(Name.begin(), Name.end(),
                                                  '-'),
                                      Name.end());
                           return Name;
                         });

TEST_P(MonitorPolicyTest, FastPathWhenPredicateAlreadyTrue) {
  CounterMonitor M(config());
  M.add(10);
  M.awaitAtLeastEdsl(5); // Returns immediately, no registration.
  EXPECT_EQ(M.conditionManager().stats().Waits, 0u);
  EXPECT_EQ(M.get(), 10);
}

TEST_P(MonitorPolicyTest, WaiterWokenBySingleProducer) {
  CounterMonitor M(config());
  std::thread Waiter([&] { M.awaitAtLeastEdsl(3); });
  // Don't produce until the waiter has blocked, or on a loaded machine the
  // producer can finish first and the wait degenerates to the fast path.
  awaitWaiters(M, 1);
  std::thread Producer([&] {
    for (int I = 0; I != 3; ++I)
      M.add(1);
  });
  Waiter.join();
  Producer.join();
  EXPECT_EQ(M.get(), 3);
  EXPECT_GE(M.conditionManager().stats().Waits, 1u);
}

TEST_P(MonitorPolicyTest, ParsedAndEdslPredicatesBehaveAlike) {
  CounterMonitor M(config());
  std::thread W1([&] { M.awaitAtLeastEdsl(2); });
  std::thread W2([&] { M.awaitAtLeastParsed(4); });
  std::thread Producer([&] {
    for (int I = 0; I != 4; ++I)
      M.add(1);
  });
  W1.join();
  W2.join();
  Producer.join();
  EXPECT_EQ(M.get(), 4);
}

TEST_P(MonitorPolicyTest, ManyWaitersAllReleased) {
  CounterMonitor M(config());
  constexpr int Waiters = 16;
  std::vector<std::thread> Pool;
  for (int I = 1; I <= Waiters; ++I)
    Pool.emplace_back([&M, I] { M.awaitAtLeastEdsl(I); });
  std::thread Producer([&] {
    for (int I = 0; I != Waiters; ++I)
      M.add(1);
  });
  for (auto &T : Pool)
    T.join();
  Producer.join();
  EXPECT_EQ(M.get(), Waiters);
  EXPECT_EQ(M.conditionManager().numWaiters(), 0);
  EXPECT_EQ(M.conditionManager().pendingSignals(), 0);
}

TEST_P(MonitorPolicyTest, ReentrantRegions) {
  CounterMonitor M(config());
  M.nestedAdd(7);
  EXPECT_EQ(M.get(), 7);
}

TEST(MonitorTest, WaitFromNestedRegionIsFatal) {
  CounterMonitor M;
  EXPECT_DEATH(M.waitFromNestedRegion(), "nested monitor region");
}

TEST(MonitorTest, UnsatisfiablePredicateIsFatal) {
  // Under every policy: Broadcast registers nothing, so without the
  // up-front check its wait would block forever instead.
  for (SignalPolicy P : {SignalPolicy::Tagged, SignalPolicy::LinearScan,
                         SignalPolicy::Broadcast}) {
    SCOPED_TRACE(signalPolicyName(P));
    MonitorConfig Cfg;
    Cfg.Policy = P;
    CounterMonitor M(Cfg);
    EXPECT_DEATH(M.waitUnsatisfiable(), "unsatisfiable");
    EXPECT_DEATH(M.waitUnsatisfiableParsed(), "unsatisfiable");
  }
}

TEST(MonitorTest, ParseErrorsAreFatalWithLocation) {
  class BadMonitor : public Monitor {
  public:
    void wait() {
      Region R(*this);
      waitUntil("count >=");
    }

  private:
    Shared<int64_t> Count{*this, "count", 0};
  };
  BadMonitor M;
  EXPECT_DEATH(M.wait(), "waituntil predicate");
}

TEST(MonitorTest, SharedVariableAccessOutsideMonitorIsFatal) {
  class Leaky : public Monitor {
  public:
    Shared<int64_t> Count{*this, "count", 0};
  };
  Leaky M;
  EXPECT_DEATH((void)M.Count.get(), "outside the monitor");
  EXPECT_DEATH(M.Count.set(1), "outside the monitor");
}

TEST(MonitorTest, SharedAccessWhileAnotherThreadOwnsIsFatal) {
  // The ownership check must tell threads apart, not just see that some
  // thread owns the monitor: thread A holds a region while this thread
  // touches a shared variable.
  class Held : public Monitor {
  public:
    Shared<int64_t> Count{*this, "count", 0};
  };
  auto WhileOwnedElsewhere = [](auto Access) {
    Held M;
    std::atomic<bool> Entered{false}, Release{false};
    std::thread A([&] {
      Monitor::Region R(M);
      Entered = true;
      while (!Release)
        std::this_thread::yield();
    });
    while (!Entered)
      std::this_thread::yield();
    Access(M); // Dies; the rest only runs if the check is missing.
    Release = true;
    A.join();
  };
  EXPECT_DEATH(WhileOwnedElsewhere([](Held &M) { (void)M.Count.get(); }),
               "outside the monitor");
  EXPECT_DEATH(WhileOwnedElsewhere([](Held &M) { M.Count.set(1); }),
               "outside the monitor");
}

TEST(MonitorTest, AlreadyTrueWaitsStillCheckOwnershipAndDepth) {
  // The already-true check runs inline in the EDSL templates; it must not
  // skip the checks every wait makes first, even when `count >= 0` holds.
  class AlwaysTrue : public Monitor {
  public:
    enum class Front { Edsl, EdslFor, EdslBy, Parsed };

    void wait(Front F) {
      switch (F) {
      case Front::Edsl:
        waitUntil(Count >= 0);
        break;
      case Front::EdslFor:
        (void)waitUntilFor(Count >= 0, std::chrono::seconds(1));
        break;
      case Front::EdslBy:
        (void)waitUntilBy(Count >= 0, time::Deadline::never());
        break;
      case Front::Parsed:
        waitUntil("count >= 0");
        break;
      }
    }

    void waitNested(Front F) {
      Region Outer(*this);
      Region Inner(*this);
      wait(F);
    }

    void waitInRegion(Front F) {
      Region R(*this);
      wait(F);
    }

  private:
    Shared<int64_t> Count{*this, "count", 0};
  };
  using Front = AlwaysTrue::Front;
  for (Front F : {Front::Edsl, Front::EdslFor, Front::EdslBy, Front::Parsed}) {
    SCOPED_TRACE(static_cast<int>(F));
    AlwaysTrue M;
    M.waitInRegion(F); // Returns: the predicate holds.
    EXPECT_DEATH(M.wait(F), "waitUntil outside the monitor");
    EXPECT_DEATH(M.waitNested(F), "nested monitor region");
  }
}

TEST(MonitorTest, SharedBoolVariables) {
  class Flagged : public Monitor {
  public:
    void setReady() {
      Region R(*this);
      Ready = true;
    }
    void awaitReady() {
      Region R(*this);
      waitUntil(Ready.expr());
    }
    AUTOSYNCH_TEST_WAITER_PROBE()

  private:
    Shared<bool> Ready{*this, "ready", false};
  };
  Flagged M;
  std::thread W([&] { M.awaitReady(); });
  awaitWaiters(M, 1);
  M.setReady();
  W.join();
}

TEST(MonitorTest, EquivalentPredicatesShareOneRegistration) {
  // "x >= 48", "48 <= x", and "2x >= 96" must hit one table entry.
  class M1 : public Monitor {
  public:
    void bump() {
      Region R(*this);
      X += 100;
    }
    void waitA() {
      Region R(*this);
      waitUntil(X >= 48);
    }
    void waitB() {
      Region R(*this);
      waitUntil(48 <= X);
    }
    void waitC() {
      Region R(*this);
      waitUntil(X * 2 >= 96);
    }
    AUTOSYNCH_TEST_WAITER_PROBE()
    using Monitor::conditionManager;

  private:
    Shared<int64_t> X{*this, "x", 0};
  };

  M1 M;
  std::thread A([&] { M.waitA(); });
  std::thread B([&] { M.waitB(); });
  std::thread C([&] { M.waitC(); });
  awaitWaiters(M, 3);
  M.bump();
  A.join();
  B.join();
  C.join();
  // All three blocked before the bump, so exactly one registration was
  // created and the equivalent predicates shared it.
  EXPECT_EQ(M.conditionManager().stats().Registrations, 1u);
}

TEST(MonitorTest, EagerRegistrationIsReused) {
  class M2 : public Monitor {
  public:
    M2() { registerPredicate("x >= 5"); }
    void bump() {
      Region R(*this);
      X += 5;
    }
    void wait() {
      Region R(*this);
      waitUntil(X >= 5);
    }
    AUTOSYNCH_TEST_WAITER_PROBE()
    using Monitor::conditionManager;

  private:
    Shared<int64_t> X{*this, "x", 0};
  };
  M2 M;
  EXPECT_EQ(M.conditionManager().numRegistered(), 1u);
  std::thread W([&] { M.wait(); });
  awaitWaiters(M, 1);
  M.bump();
  W.join();
  EXPECT_EQ(M.conditionManager().stats().Registrations, 1u);
  EXPECT_GE(M.conditionManager().stats().CacheReuses, 1u);
}

TEST(MonitorTest, RegionDepthSurvivesBlockedWait) {
  // Regression (found by the differential signaling oracle): a region
  // whose waitUntil blocked resumes after other regions fully exited —
  // which used to leave Depth at 0 and misfire the nested-region check
  // on the region's *second* waitUntil (the sleeping barber's shape).
  class TwoWaits : public Monitor {
  public:
    void rendezvous() {
      Region R(*this);
      waitUntil(X >= 1); // Blocks until poke(); waker fully exits.
      waitUntil(Y >= 0); // Used to abort: Depth clobbered to 0.
      X -= 1;
    }
    void poke() {
      Region R(*this);
      X += 1;
    }
    AUTOSYNCH_TEST_WAITER_PROBE()
    using Monitor::conditionManager;

  private:
    Shared<int64_t> X{*this, "x", 0};
    Shared<int64_t> Y{*this, "y", 0};
  };
  TwoWaits M;
  std::thread W([&] { M.rendezvous(); });
  awaitWaiters(M, 1);
  M.poke(); // Full enter/exit while W is parked.
  W.join();
  EXPECT_EQ(M.conditionManager().numWaiters(), 0);
}

} // namespace
