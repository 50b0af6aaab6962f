//===- tests/time/TimedOracleTest.cpp - Timeout-aware differential oracle --===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The timeout-aware extension of the differential signaling oracle: timed
// runs must agree on *completions and timeout sets* across every
// mechanism. Real time is not
// deterministic, so the scripts make each timeout certain by
// construction: an op times out only when the tokens/leases it demands
// can never materialize again (supply is exhausted and no concurrent
// refiller remains), and succeeds only when its demand is guaranteed
// (either immediately satisfiable or fed by a dedicated supplier) under
// an effectively-unbounded deadline. The observable history — grant
// counts, timeout counts, and final pool state — is then schedule-
// independent, and any divergence is a signaling bug in one mechanism.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "problems/LeaseManager.h"
#include "problems/TokenBucket.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <thread>
#include <vector>

using namespace autosynch;

namespace {

constexpr uint64_t Unbounded = ~uint64_t{0};
/// Short but real bound for certain-timeout ops. The op's outcome does
/// not depend on the exact value — supply is provably exhausted — only
/// the run time does.
constexpr uint64_t ShortNs = 20u * 1000 * 1000; // 20 ms

constexpr Mechanism AllMechanisms[] = {Mechanism::Explicit,
                                       Mechanism::Baseline,
                                       Mechanism::AutoSynchT,
                                       Mechanism::AutoSynch};

/// Runs \p History under every mechanism; every summary must equal the
/// first one's.
void differential(
    const std::function<std::vector<int64_t>(Mechanism)> &History) {
  std::vector<int64_t> Reference = History(AllMechanisms[0]);
  for (size_t I = 1; I != std::size(AllMechanisms); ++I)
    EXPECT_EQ(History(AllMechanisms[I]), Reference)
        << mechanismName(AllMechanisms[I]) << " diverges from "
        << mechanismName(AllMechanisms[0]);
}

TEST(TimedOracleTest, LeaseManagerTimeoutSets) {
  differential([](Mechanism Mech) {
    auto L = makeLeaseManager(Mech, /*Leases=*/3);
    // Phase 1: drain the pool (certain success).
    for (int I = 0; I != 3; ++I)
      EXPECT_TRUE(L->acquire(Unbounded)) << mechanismName(Mech);
    // Phase 2: the pool is empty and nobody will release — every bounded
    // acquire times out, deterministically.
    for (int I = 0; I != 4; ++I)
      EXPECT_FALSE(L->acquire(ShortNs)) << mechanismName(Mech);
    // Phase 3: a release from another thread feeds exactly one blocked
    // bounded acquire (certain success: the supply is dedicated to it).
    std::thread Waiter(
        [&] { EXPECT_TRUE(L->acquire(Unbounded)) << mechanismName(Mech); });
    L->release();
    Waiter.join();
    // Phase 4: empty again; one more certain timeout.
    EXPECT_FALSE(L->acquire(ShortNs)) << mechanismName(Mech);
    return std::vector<int64_t>{L->grants(), L->timeouts(),
                                L->available()};
  });
}

TEST(TimedOracleTest, TokenBucketTimeoutSets) {
  AUTOSYNCH_SEEDED_RNG(R, 6201);
  // A deterministic demand/supply script, shared by every combination:
  // the consumer's demands are served by a dedicated refiller whose total
  // supply exactly covers the in-budget demands; the out-of-budget
  // demands run after the refiller is done, so they time out certainly.
  constexpr int64_t Capacity = 16;
  std::vector<int64_t> Demands;
  int64_t TotalDemand = 0;
  for (int I = 0; I != 40; ++I) {
    Demands.push_back(R.range(1, Capacity));
    TotalDemand += Demands.back();
  }

  differential([&](Mechanism Mech) {
    auto B = makeTokenBucket(Mech, Capacity);
    // Start full; the refiller replaces exactly what the demands consume
    // beyond the initial fill.
    int64_t RefillBudget = TotalDemand - Capacity;
    std::thread Refiller([&] {
      Rng RR(6202);
      int64_t Left = RefillBudget;
      while (Left > 0) {
        int64_t N = std::min<int64_t>(Left, RR.range(1, 6));
        // Never overflow the bucket: a saturated refill would silently
        // drop supply and turn a certain success into a deadlock. Only
        // this thread adds tokens, so headroom observed here can only
        // grow by the time the refill lands.
        if (B->tokens() > Capacity - N) {
          std::this_thread::yield();
          continue;
        }
        B->refill(N);
        Left -= N;
      }
    });
    for (int64_t N : Demands)
      EXPECT_TRUE(B->acquire(N, Unbounded)) << mechanismName(Mech);
    Refiller.join();
    // Supply exactly exhausted: the bucket is empty and no refills
    // remain, so every bounded demand now times out.
    for (int I = 0; I != 5; ++I)
      EXPECT_FALSE(B->acquire(1 + I % Capacity, ShortNs))
          << mechanismName(Mech);
    // One dedicated refill feeds one certain success, restoring a known
    // final state.
    std::thread LastRefill([&] { B->refill(4); });
    EXPECT_TRUE(B->acquire(4, Unbounded)) << mechanismName(Mech);
    LastRefill.join();
    return std::vector<int64_t>{B->grants(), B->timeouts(), B->tokens()};
  });
}

TEST(TimedOracleTest, ContendedLeaseQuotasAgree) {
  // Concurrency beyond one waiter: W workers each perform a fixed number
  // of hold/release cycles with unbounded acquires, while a separate
  // prober repeatedly runs certain-timeout acquires during a phase where
  // the pool is provably saturated... saturation cannot be proven under
  // scheduling freedom, so the prober instead runs *after* the workers
  // finish and the pool is fully drained by the main thread — keeping its
  // timeout count deterministic while the worker phase still exercises
  // contended timed machinery (their acquires are timed but unbounded).
  differential([](Mechanism Mech) {
    constexpr int Workers = 4;
    constexpr int64_t Cycles = 50;
    auto L = makeLeaseManager(Mech, /*Leases=*/2);
    std::vector<std::thread> Pool;
    for (int W = 0; W != Workers; ++W)
      Pool.emplace_back([&] {
        for (int64_t I = 0; I != Cycles; ++I) {
          EXPECT_TRUE(L->acquire(Unbounded));
          L->release();
        }
      });
    for (auto &T : Pool)
      T.join();
    // Drain, then deterministic timeouts.
    EXPECT_TRUE(L->acquire(Unbounded));
    EXPECT_TRUE(L->acquire(Unbounded));
    EXPECT_FALSE(L->acquire(ShortNs));
    EXPECT_FALSE(L->acquire(ShortNs));
    return std::vector<int64_t>{L->grants(), L->timeouts(),
                                L->available()};
  });
}

} // namespace
