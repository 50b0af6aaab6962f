//===- tests/problems/DifferentialOracleTest.cpp - Cross-mechanism oracle ---===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The differential signaling oracle: every problem monitor is driven with
// the *identical* seeded operation sequence under every mechanism, and
// the observable history summary must agree across all of them. The
// explicit implementation serves as the
// reference; a signaling bug in a relay policy shows up as a diverging
// summary (conservation broken, FIFO order violated) or as a hang (lost
// wakeup — caught by the ctest timeout, since every sequence is designed
// to terminate iff no signal is lost).
//
// Op sequences are derived once per test from AUTOSYNCH_SEEDED_RNG and
// replayed byte-identically for each mechanism.
//
//===----------------------------------------------------------------------===//

#include "ProblemTestUtil.h"
#include "TestUtil.h"
#include "problems/BoundedBuffer.h"
#include "problems/CyclicBarrier.h"
#include "problems/DiningPhilosophers.h"
#include "problems/H2O.h"
#include "problems/ParamBoundedBuffer.h"
#include "problems/ReadersWriters.h"
#include "problems/RoundRobin.h"
#include "problems/SantaClaus.h"
#include "problems/SleepingBarber.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

using namespace autosynch;

namespace {

constexpr Mechanism AllMechanisms[] = {Mechanism::Explicit,
                                       Mechanism::Baseline,
                                       Mechanism::AutoSynchT,
                                       Mechanism::AutoSynch};

/// Runs \p History for every mechanism and asserts each mechanism's
/// observable summary equals the first one's.
void differential(
    const std::function<std::vector<int64_t>(Mechanism)> &History) {
  std::vector<int64_t> Reference = History(AllMechanisms[0]);
  for (size_t I = 1; I != std::size(AllMechanisms); ++I)
    EXPECT_EQ(History(AllMechanisms[I]), Reference)
        << mechanismName(AllMechanisms[I]) << " diverges from "
        << mechanismName(AllMechanisms[0]);
}

TEST(DifferentialOracleTest, BoundedBufferFifoSequence) {
  // Single producer, single consumer: the buffer guarantees exact FIFO,
  // so the consumed sequence is fully deterministic — the strongest
  // differential observable.
  AUTOSYNCH_SEEDED_RNG(R, 101);
  constexpr int64_t Items = 800;
  std::vector<int64_t> Produced;
  for (int64_t I = 0; I != Items; ++I)
    Produced.push_back(R.range(-1000, 1000));

  differential([&](Mechanism Mech) {
    auto B = makeBoundedBuffer(Mech, 8);
    std::vector<int64_t> Consumed;
    Consumed.reserve(Items);
    std::thread Producer([&] {
      for (int64_t V : Produced)
        B->put(V);
    });
    for (int64_t I = 0; I != Items; ++I)
      Consumed.push_back(B->take());
    Producer.join();
    EXPECT_EQ(Consumed, Produced) << mechanismName(Mech) << ": FIFO violated";
    Consumed.push_back(B->size()); // Must be 0.
    return Consumed;
  });
}

TEST(DifferentialOracleTest, BoundedBufferContendedConservation) {
  // Multiple producers/consumers: the arrival interleaving is scheduler-
  // dependent, but the multiset of consumed items is not.
  AUTOSYNCH_SEEDED_RNG(R, 202);
  constexpr int Producers = 3, Consumers = 3;
  constexpr int64_t PerProducer = 300;
  std::vector<std::vector<int64_t>> Values(Producers);
  for (auto &V : Values)
    for (int64_t I = 0; I != PerProducer; ++I)
      V.push_back(R.range(1, 1 << 20));

  differential([&](Mechanism Mech) {
    auto B = makeBoundedBuffer(Mech, 4);
    std::vector<std::vector<int64_t>> Consumed(Consumers);
    std::vector<std::thread> Pool;
    for (int P = 0; P != Producers; ++P)
      Pool.emplace_back([&, P] {
        for (int64_t V : Values[P])
          B->put(V);
      });
    for (int Cons = 0; Cons != Consumers; ++Cons)
      Pool.emplace_back([&, Cons] {
        for (int64_t I = 0; I != PerProducer; ++I)
          Consumed[Cons].push_back(B->take());
      });
    for (auto &T : Pool)
      T.join();
    std::vector<int64_t> All;
    for (auto &V : Consumed)
      All.insert(All.end(), V.begin(), V.end());
    std::sort(All.begin(), All.end());
    All.push_back(B->size());
    return All; // Sorted multiset must match across combos.
  });
}

TEST(DifferentialOracleTest, ParamBoundedBufferBatchConservation) {
  AUTOSYNCH_SEEDED_RNG(R, 303);
  // Precompute a terminating batch schedule: supply exactly covers demand.
  constexpr int Consumers = 3;
  std::vector<std::vector<int64_t>> Takes(Consumers);
  int64_t Total = 0;
  for (auto &T : Takes)
    for (int I = 0; I != 60; ++I) {
      T.push_back(R.range(1, 6));
      Total += T.back();
    }
  std::vector<int64_t> Puts;
  for (int64_t Left = Total; Left > 0;) {
    int64_t N = std::min<int64_t>(Left, R.range(1, 8));
    Puts.push_back(N);
    Left -= N;
  }

  differential([&](Mechanism Mech) {
    auto B = makeParamBoundedBuffer(Mech, 16);
    std::vector<std::thread> Pool;
    Pool.emplace_back([&] {
      for (int64_t N : Puts)
        B->put(N);
    });
    for (int Cons = 0; Cons != Consumers; ++Cons)
      Pool.emplace_back([&, Cons] {
        for (int64_t N : Takes[Cons])
          B->take(N);
      });
    for (auto &T : Pool)
      T.join();
    return std::vector<int64_t>{B->size()}; // Drained exactly.
  });
}

TEST(DifferentialOracleTest, H2OMoleculeConservation) {
  constexpr int64_t Molecules = 150;
  constexpr int HThreads = 4;
  differential([&](Mechanism Mech) {
    auto W = makeH2O(Mech);
    std::atomic<int64_t> HLeft{2 * Molecules};
    std::vector<std::thread> Pool;
    Pool.emplace_back([&] {
      for (int64_t I = 0; I != Molecules; ++I)
        W->oxygen();
    });
    for (int T = 0; T != HThreads; ++T)
      Pool.emplace_back([&] {
        while (HLeft.fetch_sub(1) > 0)
          W->hydrogen();
      });
    for (auto &T : Pool)
      T.join();
    return std::vector<int64_t>{W->molecules()};
  });
}

TEST(DifferentialOracleTest, SleepingBarberEveryCutHappens) {
  constexpr int64_t Cuts = 200;
  constexpr int Customers = 4;
  differential([&](Mechanism Mech) {
    auto S = makeSleepingBarber(Mech, 3);
    std::atomic<int64_t> CutsLeft{Cuts};
    std::vector<std::thread> Pool;
    Pool.emplace_back([&] {
      for (int64_t I = 0; I != Cuts; ++I)
        S->cutHair();
    });
    for (int T = 0; T != Customers; ++T)
      Pool.emplace_back([&] {
        // Claim a cut first, then retry balks until it happens: total
        // successful haircuts exactly matches the barber's quota.
        while (CutsLeft.fetch_sub(1) > 0)
          while (!S->getHaircut())
            std::this_thread::yield();
      });
    for (auto &T : Pool)
      T.join();
    return std::vector<int64_t>{S->haircuts()};
  });
}

TEST(DifferentialOracleTest, RoundRobinStrictRotation) {
  constexpr int Threads = 4;
  constexpr int64_t Rounds = 120;
  differential([&](Mechanism Mech) {
    auto RR = makeRoundRobin(Mech, Threads);
    std::vector<std::thread> Pool;
    for (int T = 0; T != Threads; ++T)
      Pool.emplace_back([&, T] {
        for (int64_t I = 0; I != Rounds; ++I)
          RR->access(T);
      });
    for (auto &T : Pool)
      T.join();
    return std::vector<int64_t>{RR->accesses()};
  });
}

TEST(DifferentialOracleTest, ReadersWritersOpConservation) {
  AUTOSYNCH_SEEDED_RNG(R, 404);
  constexpr int Actors = 4;
  // Identical per-actor op scripts (true = read).
  std::vector<std::vector<bool>> Script(Actors);
  for (auto &S : Script)
    for (int I = 0; I != 150; ++I)
      S.push_back(R.chance(3, 4));

  differential([&](Mechanism Mech) {
    auto RW = makeReadersWriters(Mech);
    std::vector<std::thread> Pool;
    for (int A = 0; A != Actors; ++A)
      Pool.emplace_back([&, A] {
        for (bool IsRead : Script[A]) {
          if (IsRead) {
            RW->startRead();
            RW->endRead();
          } else {
            RW->startWrite();
            RW->endWrite();
          }
        }
      });
    for (auto &T : Pool)
      T.join();
    return std::vector<int64_t>{RW->reads(), RW->writes()};
  });
}

TEST(DifferentialOracleTest, DiningPhilosophersMealConservation) {
  constexpr int Philosophers = 5;
  constexpr int64_t Meals = 80;
  differential([&](Mechanism Mech) {
    auto D = makeDiningPhilosophers(Mech, Philosophers);
    std::vector<std::thread> Pool;
    for (int P = 0; P != Philosophers; ++P)
      Pool.emplace_back([&, P] {
        for (int64_t I = 0; I != Meals; ++I) {
          D->pickUp(P);
          D->putDown(P);
        }
      });
    for (auto &T : Pool)
      T.join();
    return std::vector<int64_t>{D->meals()};
  });
}

TEST(DifferentialOracleTest, CyclicBarrierGenerationAccounting) {
  constexpr int Parties = 4;
  constexpr int64_t Generations = 100;
  differential([&](Mechanism Mech) {
    auto B = makeCyclicBarrier(Mech, Parties);
    std::vector<std::vector<int64_t>> Indices(Parties);
    std::vector<std::thread> Pool;
    for (int P = 0; P != Parties; ++P)
      Pool.emplace_back([&, P] {
        for (int64_t G = 0; G != Generations; ++G)
          Indices[P].push_back(B->await());
      });
    for (auto &T : Pool)
      T.join();
    // FIFO observable: per generation each index 0..P-1 appears once, so
    // the overall index histogram is flat at Generations.
    std::vector<int64_t> Histogram(Parties, 0);
    for (auto &V : Indices)
      for (int64_t I : V)
        ++Histogram[I];
    Histogram.push_back(B->trips());
    return Histogram;
  });
}

TEST(DifferentialOracleTest, SantaClausGroupConservation) {
  constexpr int64_t Deliveries = 20;
  constexpr int64_t Consultations = 60;
  differential([&](Mechanism Mech) {
    auto S = makeSantaClaus(Mech, /*ReindeerTeam=*/5, /*ElfGroup=*/3);
    std::atomic<int64_t> RLeft{5 * Deliveries};
    std::atomic<int64_t> ELeft{3 * Consultations};
    std::vector<std::thread> Pool;
    Pool.emplace_back([&] {
      for (int64_t I = 0; I != Deliveries + Consultations; ++I)
        S->santa();
    });
    for (int T = 0; T != 5; ++T)
      Pool.emplace_back([&] {
        while (RLeft.fetch_sub(1) > 0)
          S->reindeer();
      });
    for (int T = 0; T != 6; ++T)
      Pool.emplace_back([&] {
        while (ELeft.fetch_sub(1) > 0)
          S->elf();
      });
    for (auto &T : Pool)
      T.join();
    return std::vector<int64_t>{S->deliveries(), S->consultations()};
  });
}

} // namespace
