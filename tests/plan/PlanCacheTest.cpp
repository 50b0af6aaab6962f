//===- tests/plan/PlanCacheTest.cpp - WaitPlan cache tests ------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The WaitPlan cache: one plan per predicate *shape*, bound per call with
// the thread's local values. Covered here: shape reuse across distinct
// values (both front ends), an already-true EDSL wait that plans nothing,
// allocation-freedom of the steady-state bind path, cold binds that
// register without touching the arena, unification with records
// registered through other routes, the tag a cold bind's record carries,
// the interaction with the inactive cache's eviction limit, waits that
// register without a plan key (Legacy shapes and key overflow) under
// every policy, fatal unsatisfiable bindings under every policy, and a
// differential run against the Broadcast policy, whose blocking waits bind
// records the same way but are woken by signalAll.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/Monitor.h"
#include "expr/Eval.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <vector>

using namespace autosynch;

namespace {

using testutil::awaitWaiters;

/// Pool monitor exercising both predicate front ends over one shape each.
class PoolMonitor : public Monitor {
public:
  explicit PoolMonitor(MonitorConfig Cfg = {}) : Monitor(Cfg) {}

  void deposit(int64_t N) {
    Region R(*this);
    Level += N;
  }

  void withdrawEdsl(int64_t N) {
    Region R(*this);
    waitUntil(Level >= N);
    Level -= N;
  }

  void withdrawParsed(int64_t N) {
    Region R(*this);
    waitUntil("level >= n", locals().bindInt(local("n"), N));
    Level -= N;
  }

  int64_t level() {
    Region R(*this);
    return Level.get();
  }

  AUTOSYNCH_TEST_WAITER_PROBE()

  using Monitor::conditionManager;
  using Monitor::planCache;
  using Monitor::arena;

private:
  Shared<int64_t> Level{*this, "level", 0};
};

/// Runs one blocked-then-released withdraw so the wait registers.
template <typename WithdrawFn>
void blockedWithdraw(PoolMonitor &M, int64_t N, WithdrawFn &&Withdraw) {
  std::thread W([&] { Withdraw(N); });
  awaitWaiters(M, 1);
  M.deposit(N);
  W.join();
}

TEST(PlanCacheTest, ParsedShapeReusedAcrossValues) {
  PoolMonitor M;
  for (int64_t N : {3, 5, 7})
    blockedWithdraw(M, N, [&](int64_t V) { M.withdrawParsed(V); });

  const PlanCacheStats &P = M.planCache().stats();
  // One plan per shape, not per value; repeat parsed waits do not even
  // re-look-it-up (the plan is memoized on the parse-cache entry).
  EXPECT_EQ(P.ShapeBuilds, 1u);
  EXPECT_EQ(P.ShapeHits, 0u);
  // Three distinct values -> three registered predicates, all cold binds.
  const ManagerStats &S = M.conditionManager().stats();
  EXPECT_EQ(S.Registrations, 3u);
  EXPECT_EQ(S.PlanColdBinds, 3u);
  EXPECT_EQ(S.PlanBindHits, 0u);
}

TEST(PlanCacheTest, EdslLiteralsShareOneShape) {
  PoolMonitor M;
  for (int64_t N : {2, 4, 6, 8})
    blockedWithdraw(M, N, [&](int64_t V) { M.withdrawEdsl(V); });

  const PlanCacheStats &P = M.planCache().stats();
  EXPECT_EQ(M.planCache().numSites(), 1u) << "one call site, one key";
  EXPECT_EQ(P.ShapeBuilds, 1u) << "Level >= 2 and Level >= 8 are one shape";
  EXPECT_EQ(M.conditionManager().stats().Registrations, 4u);
}

TEST(PlanCacheTest, EdslAlreadyTrueWaitPlansNothing) {
  // An already-true EDSL wait is only its check: the template evaluates
  // itself once, and no call site is looked up, planned or interned
  // until a wait on it blocks.
  PoolMonitor M;
  M.deposit(10);
  size_t Nodes0 = M.arena().numNodes();
  uint64_t Evals0 = predicateEvalCount();
  M.withdrawEdsl(3);
  EXPECT_EQ(predicateEvalCount() - Evals0, 1u);
  EXPECT_EQ(M.planCache().numSites(), 0u);
  EXPECT_EQ(M.planCache().stats().ShapeBuilds, 0u);
  EXPECT_EQ(M.arena().numNodes(), Nodes0);

  // Level is 7: the first wait that blocks builds exactly one site.
  blockedWithdraw(M, 20, [&](int64_t V) { M.withdrawEdsl(V); });
  EXPECT_EQ(M.planCache().numSites(), 1u);
  EXPECT_EQ(M.planCache().stats().ShapeBuilds, 1u);
  EXPECT_EQ(M.level(), 7);
}

TEST(PlanCacheTest, EdslKeySeparatesVariables) {
  // `!Sticks[0]` and `!Sticks[1]` are one C++ type: the call-site key's
  // VarIds must still give each its own plan, or the second wait would
  // bind the first one's and never see its own stick released.
  class Sticks : public Monitor {
  public:
    Sticks() {
      for (int I = 0; I != 2; ++I)
        Held.emplace_back(*this, "stick" + std::to_string(I), true);
    }
    bool awaitFree(int I) {
      Region R(*this);
      return waitUntilFor(!Held[I].expr(), std::chrono::seconds(10));
    }
    void release(int I) {
      Region R(*this);
      Held[I] = false;
    }
    AUTOSYNCH_TEST_WAITER_PROBE()
    using Monitor::planCache;

  private:
    std::deque<Shared<bool>> Held;
  };

  Sticks M;
  bool Free0 = false, Free1 = false;
  std::thread A([&] { Free0 = M.awaitFree(0); });
  awaitWaiters(M, 1);
  std::thread B([&] { Free1 = M.awaitFree(1); });
  awaitWaiters(M, 2);
  EXPECT_EQ(M.planCache().numSites(), 2u);
  M.release(1);
  B.join();
  EXPECT_TRUE(Free1);
  EXPECT_EQ(M.waiters(), 1) << "releasing stick 1 must not wake stick 0";
  M.release(0);
  A.join();
  EXPECT_TRUE(Free0);
}

TEST(PlanCacheTest, EdslKeySeparatesMultipliers) {
  // `X * 2 >= a` and `X * 3 >= a` are one C++ type; the multiplier is a
  // structural literal, so it is part of the key, not a slot.
  class Scaled : public Monitor {
  public:
    bool awaitDouble(int64_t A) {
      Region R(*this);
      return waitUntilFor(X * 2 >= A, std::chrono::seconds(10));
    }
    bool awaitTriple(int64_t A) {
      Region R(*this);
      return waitUntilFor(X * 3 >= A, std::chrono::seconds(10));
    }
    void set(int64_t V) {
      Region R(*this);
      X = V;
    }
    AUTOSYNCH_TEST_WAITER_PROBE()
    using Monitor::planCache;

  private:
    Shared<int64_t> X{*this, "x", 0};
  };

  Scaled M;
  bool Doubled = false, Tripled = false;
  std::thread A([&] { Doubled = M.awaitDouble(6); }); // x >= 3
  awaitWaiters(M, 1);
  std::thread B([&] { Tripled = M.awaitTriple(6); }); // x >= 2
  awaitWaiters(M, 2);
  EXPECT_EQ(M.planCache().numSites(), 2u);
  EXPECT_EQ(M.planCache().stats().ShapeBuilds, 2u);
  M.set(2);
  B.join();
  EXPECT_TRUE(Tripled);
  EXPECT_EQ(M.waiters(), 1) << "x == 2 must not satisfy x * 2 >= 6";
  M.set(3);
  A.join();
  EXPECT_TRUE(Doubled);
}

TEST(PlanCacheTest, RepeatedBindingsHitWithoutArenaGrowth) {
  PoolMonitor M;
  // Warm the shape and the (level >= 5) signature.
  blockedWithdraw(M, 5, [&](int64_t V) { M.withdrawParsed(V); });
  size_t NodesWarm = M.arena().numNodes();

  for (int Round = 0; Round != 8; ++Round)
    blockedWithdraw(M, 5, [&](int64_t V) { M.withdrawParsed(V); });

  // The steady-state bind path interns nothing: same shape, same
  // signature, record found by its signature.
  EXPECT_EQ(M.arena().numNodes(), NodesWarm);
  const ManagerStats &S = M.conditionManager().stats();
  EXPECT_EQ(S.PlanBindHits, 8u);
  EXPECT_EQ(S.PlanColdBinds, 1u);
  EXPECT_EQ(S.Registrations, 1u);
}

TEST(PlanCacheTest, EdslRepeatedBindingsDoNotGrowArena) {
  PoolMonitor M;
  blockedWithdraw(M, 9, [&](int64_t V) { M.withdrawEdsl(V); });
  size_t NodesWarm = M.arena().numNodes();
  for (int Round = 0; Round != 8; ++Round)
    blockedWithdraw(M, 9, [&](int64_t V) { M.withdrawEdsl(V); });
  EXPECT_EQ(M.arena().numNodes(), NodesWarm);
}

TEST(PlanCacheTest, FrontEndsUnifyOnOneRecord) {
  // The EDSL shape `x >= $i0` bound at 48, the parsed shape `x >= n`
  // bound at 48, and the EDSL shape `x * 2 >= $i0` bound at 96 all
  // canonicalize to `x >= 48` and must share one registration.
  class M1 : public Monitor {
  public:
    void bump() {
      Region R(*this);
      X += 100;
    }
    void waitEdsl() {
      Region R(*this);
      waitUntil(X >= 48);
    }
    void waitParsed() {
      Region R(*this);
      waitUntil("x >= n", locals().bindInt(local("n"), 48));
    }
    void waitScaled() {
      Region R(*this);
      waitUntil(X * 2 >= 96);
    }
    AUTOSYNCH_TEST_WAITER_PROBE()
    using Monitor::conditionManager;

  private:
    Shared<int64_t> X{*this, "x", 0};
  };

  M1 M;
  std::thread A([&] { M.waitEdsl(); });
  std::thread B([&] { M.waitParsed(); });
  std::thread C([&] { M.waitScaled(); });
  awaitWaiters(M, 3);
  M.bump();
  A.join();
  B.join();
  C.join();
  EXPECT_EQ(M.conditionManager().stats().Registrations, 1u);
}

TEST(PlanCacheTest, BindHitsRecordCacheReuse) {
  // A bind hit on a parked record must count as a cache reuse, exactly
  // like a table hit on a keyless wait.
  PoolMonitor M;
  blockedWithdraw(M, 4, [&](int64_t V) { M.withdrawParsed(V); });
  uint64_t ReusesBefore = M.conditionManager().stats().CacheReuses;
  blockedWithdraw(M, 4, [&](int64_t V) { M.withdrawParsed(V); });
  EXPECT_GT(M.conditionManager().stats().CacheReuses, ReusesBefore);
}

TEST(PlanCacheTest, EvictionDropsBindAliasesAndStaysBounded) {
  MonitorConfig Cfg;
  Cfg.InactiveCacheLimit = 4;
  PoolMonitor M(Cfg);

  // 32 distinct bound values: far past the limit. Eviction must keep the
  // table bounded and drop each evicted record's signature key.
  for (int64_t N = 1; N <= 32; ++N)
    blockedWithdraw(M, N, [&](int64_t V) { M.withdrawParsed(V); });

  EXPECT_LE(M.conditionManager().inactiveCacheSize(), 4u);
  EXPECT_LE(M.conditionManager().numRegistered(), 5u);
  EXPECT_GE(M.conditionManager().stats().Evictions, 20u);

  // An evicted binding must come back cleanly (fresh cold bind, fresh
  // record), not resolve through a stale key.
  uint64_t ColdBefore = M.conditionManager().stats().PlanColdBinds;
  blockedWithdraw(M, 1, [&](int64_t V) { M.withdrawParsed(V); });
  EXPECT_GT(M.conditionManager().stats().PlanColdBinds, ColdBefore);
  EXPECT_EQ(M.level(), 0);
}

TEST(PlanCacheTest, ColdBindsLeaveTheArenaAlone) {
  // Never-repeating bound values: every blocking wait is a cold bind that
  // registers a new predicate. The record is built straight from the
  // resolved signature, so once the shape is warm no wait interns a node,
  // and evicted records are recycled for the next registration. Parsed
  // waits under Tagged, and EDSL waits under Broadcast, which bind their
  // records the same way.
  struct Input {
    SignalPolicy Policy;
    bool Edsl;
  };
  for (Input In : {Input{SignalPolicy::Tagged, false},
                   Input{SignalPolicy::Broadcast, true}}) {
    SCOPED_TRACE(signalPolicyName(In.Policy));
    MonitorConfig Cfg;
    Cfg.Policy = In.Policy;
    Cfg.InactiveCacheLimit = 4;
    PoolMonitor M(Cfg);
    auto Withdraw = [&](int64_t V) {
      if (In.Edsl)
        M.withdrawEdsl(V);
      else
        M.withdrawParsed(V);
    };
    blockedWithdraw(M, 1000, Withdraw);
    size_t NodesWarm = M.arena().numNodes();
    M.conditionManager().resetStats();

    for (int64_t N = 1; N <= 200; ++N)
      blockedWithdraw(M, N, Withdraw);

    EXPECT_EQ(M.arena().numNodes(), NodesWarm);
    const ManagerStats &S = M.conditionManager().stats();
    EXPECT_EQ(S.Registrations, 200u);
    EXPECT_EQ(S.PlanColdBinds, 200u);
    EXPECT_EQ(S.PlanBindHits, 0u);
    EXPECT_GE(S.Evictions, 196u);
    EXPECT_LE(M.conditionManager().numRegistered(), 5u);
    EXPECT_EQ(M.level(), 0);
  }
}

TEST(PlanCacheTest, KeylessBoundAndEagerRoutesShareOneRecord) {
  // `count >= 5` reached three ways: eager registration, a Slotted bind of
  // `count >= m`, and a keyless wait on the Legacy shape `count * n >= cap`
  // (globalized to `count * 1 >= 5`, canonicalized to `count >= 5`). All
  // three key the predicate table by the same signature.
  class Routes : public Monitor {
  public:
    Routes() { registerPredicate("count >= 5"); }
    void waitKeyless() {
      Region R(*this);
      waitUntil("count * n >= cap",
                locals().bindInt(local("n"), 1).bindInt(local("cap"), 5));
    }
    void waitBound() {
      Region R(*this);
      waitUntil("count >= m", locals().bindInt(local("m"), 5));
    }
    void bump() {
      Region R(*this);
      Count += 5;
    }
    AUTOSYNCH_TEST_WAITER_PROBE()
    using Monitor::conditionManager;
    using Monitor::planCache;

  private:
    Shared<int64_t> Count{*this, "count", 0};
  };

  Routes M;
  EXPECT_EQ(M.conditionManager().numRegistered(), 1u);
  PlanCountersSnapshot Before = PlanCounters::global().snapshot();
  std::thread A([&] { M.waitKeyless(); });
  awaitWaiters(M, 1);
  std::thread B([&] { M.waitBound(); });
  awaitWaiters(M, 2);
  M.bump();
  A.join();
  B.join();

  PlanCountersSnapshot Delta = PlanCounters::global().snapshot() - Before;
  EXPECT_EQ(M.planCache().stats().LegacyShapes, 1u);
  EXPECT_EQ(Delta.LegacyWaits, 1u);
  const ManagerStats &S = M.conditionManager().stats();
  EXPECT_EQ(S.Registrations, 1u);
  EXPECT_EQ(S.PlanBindHits, 1u);
  EXPECT_EQ(S.PlanColdBinds, 0u);
  EXPECT_EQ(M.conditionManager().numRegistered(), 1u);
  EXPECT_EQ(M.conditionManager().numWaiters(), 0);
}

TEST(PlanCacheTest, ColdBindTagsTheTicketEquivalence) {
  // The tickets shape: three equivalence atoms, only one of them (on
  // `serving`, the lowest VarId, so first in canonical order) keyed by
  // the never-repeating local. Records built from the signature must tag
  // that atom: each winning relay then finds its one record in the
  // `serving` bucket with a single predicate check. A tag on
  // `activeWriters == 0` would put all waiters in one bucket.
  class Tickets : public Monitor {
  public:
    void take(int64_t Ticket) {
      Region R(*this);
      waitUntil("serving == t && activeWriters == 0 && activeReaders == 0",
                locals().bindInt(local("t"), Ticket));
      Serving += 1;
    }
    void open() {
      Region R(*this);
      Serving = 1;
    }
    AUTOSYNCH_TEST_WAITER_PROBE()
    using Monitor::conditionManager;

  private:
    Shared<int64_t> Serving{*this, "serving", 0};
    Shared<int64_t> ActiveWriters{*this, "activeWriters", 0};
    Shared<int64_t> ActiveReaders{*this, "activeReaders", 0};
  };

  constexpr int Waiters = 10;
  Tickets M;
  std::vector<std::thread> Pool;
  // Park the highest ticket first, so a bucket shared by every waiter
  // would be scanned from the wrong end.
  for (int64_t T = Waiters; T >= 1; --T) {
    Pool.emplace_back([&M, T] { M.take(T); });
    awaitWaiters(M, Waiters - static_cast<int>(T) + 1);
  }
  EXPECT_EQ(M.conditionManager().stats().Registrations,
            static_cast<uint64_t>(Waiters));
  M.conditionManager().resetStats();
  uint64_t Evals0 = predicateEvalCount();
  M.open();
  for (auto &T : Pool)
    T.join();

  const ManagerStats &S = M.conditionManager().stats();
  EXPECT_EQ(S.SignalsSent, static_cast<uint64_t>(Waiters));
  // Evaluations besides the relays' reads of `serving`: one predicate
  // check per winning relay, plus each woken waiter's own re-check.
  EXPECT_EQ(predicateEvalCount() - Evals0 - S.Search.SharedExprEvals,
            2u * Waiters);
  EXPECT_EQ(M.conditionManager().numWaiters(), 0);
}

TEST(PlanCacheTest, GroundParsedPredicatePlansOnce) {
  class Flagged : public Monitor {
  public:
    void raise() {
      Region R(*this);
      Count += 1;
    }
    void awaitThree() {
      Region R(*this);
      waitUntil("count >= 3");
    }
    AUTOSYNCH_TEST_WAITER_PROBE()
    using Monitor::conditionManager;
    using Monitor::planCache;

  private:
    Shared<int64_t> Count{*this, "count", 0};
  };

  Flagged M;
  std::thread W([&] { M.awaitThree(); });
  awaitWaiters(M, 1);
  for (int I = 0; I != 3; ++I)
    M.raise();
  W.join();
  M.awaitThree(); // Fast path through the same memoized Ground plan.
  EXPECT_EQ(M.planCache().stats().ShapeBuilds, 1u);
  EXPECT_EQ(M.conditionManager().stats().Registrations, 1u);
}

TEST(PlanCacheTest, UnsatisfiableBindingIsFatal) {
  class Unsat : public Monitor {
  public:
    explicit Unsat(MonitorConfig Cfg) : Monitor(Cfg) {}
    void wait() {
      Region R(*this);
      // Satisfiable as a shape (there are n, m with n <= m), dead for
      // this binding: the bind-time interval check must catch it.
      waitUntil("count >= n && count <= m",
                locals().bindInt(local("n"), 5).bindInt(local("m"), 3));
    }

  private:
    Shared<int64_t> Count{*this, "count", 0};
  };
  for (SignalPolicy P : {SignalPolicy::Tagged, SignalPolicy::LinearScan,
                         SignalPolicy::Broadcast}) {
    SCOPED_TRACE(signalPolicyName(P));
    MonitorConfig Cfg;
    Cfg.Policy = P;
    Unsat M(Cfg);
    EXPECT_DEATH(M.wait(), "unsatisfiable");
  }
}

TEST(PlanCacheTest, GuardedDisjunctionTakesTrueBranchImmediately) {
  // `n <= 0 || level >= n` with n = 0: the guard conjunction is true for
  // this binding, so the wait returns without blocking.
  class Guarded : public Monitor {
  public:
    void wait(int64_t N) {
      Region R(*this);
      waitUntil("n <= 0 || level >= n", locals().bindInt(local("n"), N));
    }
    using Monitor::conditionManager;

  private:
    Shared<int64_t> Level{*this, "level", 0};
  };
  Guarded M;
  M.wait(0);
  M.wait(-3);
  EXPECT_EQ(M.conditionManager().stats().Waits, 0u);
}

TEST(PlanCacheTest, EdslWaitTrueForEveryStateReturnsWhenTheTemplateWraps) {
  // `Count + 1 > Count` resolves to true for every shared state, but the
  // template's own check wraps at INT64_MAX and reads false there. The
  // wait that then plans must take the plan's verdict and return.
  class Wrap : public Monitor {
  public:
    explicit Wrap(MonitorConfig Cfg) : Monitor(Cfg) {
      synchronized([this] { Count = INT64_MAX; });
    }
    bool wait() {
      Region R(*this);
      return waitUntilFor(Count + 1 > Count, std::chrono::milliseconds(0));
    }

  private:
    Shared<int64_t> Count{*this, "count", 0};
  };
  for (SignalPolicy P : {SignalPolicy::Tagged, SignalPolicy::LinearScan,
                         SignalPolicy::Broadcast}) {
    SCOPED_TRACE(signalPolicyName(P));
    MonitorConfig Cfg;
    Cfg.Policy = P;
    Wrap M(Cfg);
    EXPECT_TRUE(M.wait());
  }
}

/// The one wake a single blocked waiter gets from its relay: a directed
/// signal under the relay policies, a signalAll under Broadcast.
void expectOneRelayWake(SignalPolicy P, const ManagerStats &S) {
  if (P == SignalPolicy::Broadcast) {
    EXPECT_GE(S.BroadcastSignals, 1u);
    EXPECT_EQ(S.SignalsSent, 0u);
  } else {
    EXPECT_EQ(S.SignalsSent, 1u);
  }
}

TEST(PlanCacheTest, LegacyShapeRegistersThroughTheUncachedPipeline) {
  // `count * n` mixes a shared and a local variable in a non-linear atom:
  // the planner hands the shape back as Legacy, so the wait globalizes,
  // canonicalizes and registers on every call, and is woken by a relay:
  // a directed signal, or under Broadcast a signalAll.
  class Scaled : public Monitor {
  public:
    explicit Scaled(MonitorConfig Cfg) : Monitor(Cfg) {}
    void awaitScaled(int64_t N) {
      Region R(*this);
      waitUntil("count * n >= cap", locals().bindInt(local("n"), N));
    }
    void setCount(int64_t V) {
      Region R(*this);
      Count = V;
    }
    AUTOSYNCH_TEST_WAITER_PROBE()
    using Monitor::conditionManager;
    using Monitor::planCache;

  private:
    Shared<int64_t> Count{*this, "count", 0};
    Shared<int64_t> Cap{*this, "cap", 10};
  };

  for (SignalPolicy P : {SignalPolicy::Tagged, SignalPolicy::LinearScan,
                         SignalPolicy::Broadcast}) {
    SCOPED_TRACE(signalPolicyName(P));
    MonitorConfig Cfg;
    Cfg.Policy = P;
    Scaled M(Cfg);
    PlanCountersSnapshot Before = PlanCounters::global().snapshot();
    std::thread W([&] { M.awaitScaled(2); });
    awaitWaiters(M, 1);
    M.setCount(5); // 5 * 2 >= 10: the exit relay must find the waiter.
    W.join();

    PlanCountersSnapshot Delta = PlanCounters::global().snapshot() - Before;
    EXPECT_EQ(M.planCache().stats().LegacyShapes, 1u);
    EXPECT_EQ(Delta.LegacyWaits, 1u);
    const ManagerStats &S = M.conditionManager().stats();
    EXPECT_EQ(S.Registrations, 1u);
    EXPECT_EQ(S.PlanColdBinds + S.PlanBindHits, 0u);
    expectOneRelayWake(P, S);
    EXPECT_EQ(M.conditionManager().numWaiters(), 0);
    EXPECT_EQ(M.conditionManager().pendingSignals(), 0);
  }
}

TEST(PlanCacheTest, KeyOverflowRegistersWithoutAKey) {
  // `flag || count - n >= m` is a Slotted shape whose key is n + m. With
  // n = m = 2^62 the key leaves int64 (WaitPlan::ResolveStatus::Overflow)
  // while evaluation does not wrap, so the wait blocks and registers
  // without a key, and the write to `flag` wakes it with one relay: a
  // directed signal, or under Broadcast a signalAll.
  class Wide : public Monitor {
  public:
    explicit Wide(MonitorConfig Cfg) : Monitor(Cfg) {}
    void awaitWide(int64_t N, int64_t M) {
      Region R(*this);
      waitUntil("flag || count - n >= m",
                locals().bindInt(local("n"), N).bindInt(local("m"), M));
    }
    void raise() {
      Region R(*this);
      Flag = true;
    }
    AUTOSYNCH_TEST_WAITER_PROBE()
    using Monitor::conditionManager;

  private:
    Shared<bool> Flag{*this, "flag", false};
    Shared<int64_t> Count{*this, "count", 0};
  };

  constexpr int64_t Big = int64_t{1} << 62;
  for (SignalPolicy P : {SignalPolicy::Tagged, SignalPolicy::LinearScan,
                         SignalPolicy::Broadcast}) {
    SCOPED_TRACE(signalPolicyName(P));
    MonitorConfig Cfg;
    Cfg.Policy = P;
    Wide M(Cfg);
    PlanCountersSnapshot Before = PlanCounters::global().snapshot();
    std::thread W([&] { M.awaitWide(Big, Big); });
    awaitWaiters(M, 1);
    M.raise();
    W.join();

    PlanCountersSnapshot Delta = PlanCounters::global().snapshot() - Before;
    EXPECT_EQ(Delta.LegacyWaits, 1u);
    const ManagerStats &S = M.conditionManager().stats();
    EXPECT_EQ(S.PlanColdBinds + S.PlanBindHits, 0u);
    EXPECT_EQ(S.Registrations, 1u);
    expectOneRelayWake(P, S);
    EXPECT_EQ(M.conditionManager().numWaiters(), 0);
    EXPECT_EQ(M.conditionManager().pendingSignals(), 0);
  }
}

TEST(PlanCacheTest, DifferentialAgainstUncachedPipeline) {
  // The same seeded workload, woken by directed relay signals (Tagged) and
  // by a signalAll on every exit (Broadcast, whose blocking waits re-check
  // their records after every wakeup): identical conservation result and
  // a full drain under both policies and both front ends.
  AUTOSYNCH_SEEDED_RNG(Rng, 0x91a2c3ull);
  std::vector<int64_t> Demands;
  for (int I = 0; I != 200; ++I)
    Demands.push_back(Rng.range(1, 5));

  for (SignalPolicy P : {SignalPolicy::Tagged, SignalPolicy::Broadcast}) {
    MonitorConfig Cfg;
    Cfg.Policy = P;
    PoolMonitor M(Cfg);
    constexpr int Threads = 4;
    std::vector<std::thread> Pool;
    for (int T = 0; T != Threads; ++T) {
      Pool.emplace_back([&M, &Demands, T] {
        for (size_t I = T; I < Demands.size();
             I += static_cast<size_t>(Threads)) {
          M.deposit(Demands[I]);
          if (I % 2 == 0)
            M.withdrawEdsl(Demands[I]);
          else
            M.withdrawParsed(Demands[I]);
        }
      });
    }
    for (auto &T : Pool)
      T.join();
    EXPECT_EQ(M.level(), 0) << signalPolicyName(P);
    EXPECT_EQ(M.conditionManager().numWaiters(), 0);
    EXPECT_EQ(M.conditionManager().pendingSignals(), 0);
  }
}

TEST(PlanCacheTest, BroadcastAlreadyTrueWaitsUseThePlanPrecheck) {
  // Broadcast's already-true waits run the plan's allocation-free
  // compiled check, as the relay policies' do: after the shape is warm,
  // fresh bound values must not grow the arena (globalizing would intern
  // a tree per value), and nothing registers.
  MonitorConfig Cfg;
  Cfg.Policy = SignalPolicy::Broadcast;
  PoolMonitor M(Cfg);
  M.deposit(1'000'000);
  M.withdrawParsed(1); // Warms the parse cache and the plan shape.

  size_t NodesWarm = M.arena().numNodes();
  for (int64_t N = 2; N != 50; ++N)
    M.withdrawParsed(N); // Always true: fast path, fresh value each call.
  EXPECT_EQ(M.arena().numNodes(), NodesWarm)
      << "broadcast already-true waits must not intern per value";
  // One plan for the shape, served from the parse-entry memo afterwards.
  EXPECT_EQ(M.planCache().stats().ShapeBuilds, 1u);
  // No predicate was ever registered and nothing blocked.
  EXPECT_EQ(M.conditionManager().stats().Registrations, 0u);
  EXPECT_EQ(M.conditionManager().stats().Waits, 0u);
}

TEST(PlanCacheTest, BroadcastBlockingWaitsKeepSignalAllSemantics) {
  // The precheck must not change how Broadcast wakes: a blocking wait
  // binds its record like a relay wait, and resumes via signalAll.
  MonitorConfig Cfg;
  Cfg.Policy = SignalPolicy::Broadcast;
  PoolMonitor M(Cfg);
  blockedWithdraw(M, 5, [&](int64_t V) { M.withdrawParsed(V); });
  EXPECT_EQ(M.level(), 0);
  EXPECT_GE(M.conditionManager().stats().BroadcastSignals, 1u);
  EXPECT_EQ(M.conditionManager().stats().SignalsSent, 0u);
  EXPECT_EQ(M.conditionManager().stats().Registrations, 1u);
  EXPECT_EQ(M.conditionManager().numWaiters(), 0);
}

} // namespace
