//===- bench_support/Drivers.cpp - Saturation workload drivers -------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "bench_support/Drivers.h"

#include "support/Check.h"
#include "support/Rng.h"
#include "support/Stats.h"

#include <atomic>
#include <barrier>
#include <memory>
#include <functional>
#include <thread>
#include <vector>

using namespace autosynch;
using namespace autosynch::bench;

RunMetrics bench::measure(std::vector<std::function<void()>> Work) {
  std::barrier Start(static_cast<ptrdiff_t>(Work.size() + 1));
  std::vector<std::thread> Pool;
  Pool.reserve(Work.size());
  for (auto &Fn : Work) {
    Pool.emplace_back([&Start, &Fn] {
      Start.arrive_and_wait();
      Fn();
    });
  }

  ContextSwitches Ctx0 = readContextSwitches();
  sync::CountersSnapshot Sync0 = sync::Counters::global().snapshot();
  Start.arrive_and_wait();
  Stopwatch Watch;
  for (auto &T : Pool)
    T.join();

  RunMetrics M;
  M.Seconds = Watch.seconds();
  M.OsCtx = readContextSwitches() - Ctx0;
  M.Sync = sync::Counters::global().snapshot() - Sync0;
  return M;
}

namespace {

/// Splits \p Total into \p Parts near-equal shares.
std::vector<int64_t> split(int64_t Total, int Parts) {
  std::vector<int64_t> Shares(Parts, Total / Parts);
  for (int64_t I = 0; I != Total % Parts; ++I)
    ++Shares[I];
  return Shares;
}

} // namespace

RunMetrics bench::runBoundedBuffer(BoundedBufferIface &B, int Producers,
                                   int Consumers, int64_t TotalOps) {
  AUTOSYNCH_CHECK(Producers > 0 && Consumers > 0,
                  "bounded buffer needs producers and consumers");
  std::vector<int64_t> Puts = split(TotalOps, Producers);
  std::vector<int64_t> Takes = split(TotalOps, Consumers);

  std::vector<std::function<void()>> Work;
  for (int P = 0; P != Producers; ++P) {
    Work.push_back([&B, N = Puts[P]] {
      for (int64_t I = 0; I != N; ++I)
        B.put(I);
    });
  }
  for (int C = 0; C != Consumers; ++C) {
    Work.push_back([&B, N = Takes[C]] {
      for (int64_t I = 0; I != N; ++I)
        B.take();
    });
  }
  return measure(std::move(Work));
}

RunMetrics bench::runParamBoundedBuffer(ParamBoundedBufferIface &B,
                                        int Consumers, int64_t TotalItems,
                                        int64_t MaxBatch, uint64_t Seed) {
  AUTOSYNCH_CHECK(Consumers > 0, "needs at least one consumer");
  AUTOSYNCH_CHECK(MaxBatch >= 1, "batch bound must be positive");

  // Precompute each consumer's batch sequence so producer supply exactly
  // covers total demand (avoids an artificial tail deadlock; see the
  // module header).
  std::vector<std::vector<int64_t>> Batches(Consumers);
  std::vector<int64_t> Demand = split(TotalItems, Consumers);
  for (int C = 0; C != Consumers; ++C) {
    Rng R(Seed + C);
    int64_t Left = Demand[C];
    while (Left > 0) {
      int64_t N = std::min<int64_t>(Left, R.range(1, MaxBatch));
      Batches[C].push_back(N);
      Left -= N;
    }
  }

  std::vector<std::function<void()>> Work;
  // The single producer (the paper's Fig. 14 setup).
  Work.push_back([&B, TotalItems, MaxBatch, Seed] {
    Rng R(Seed ^ 0x9e3779b97f4a7c15ULL);
    int64_t Left = TotalItems;
    while (Left > 0) {
      int64_t N = std::min<int64_t>(Left, R.range(1, MaxBatch));
      B.put(N);
      Left -= N;
    }
  });
  for (int C = 0; C != Consumers; ++C) {
    Work.push_back([&B, &Seq = Batches[C]] {
      for (int64_t N : Seq)
        B.take(N);
    });
  }
  return measure(std::move(Work));
}

RunMetrics bench::runH2O(H2OIface &W, int HThreads, int64_t Molecules) {
  AUTOSYNCH_CHECK(HThreads > 1, "needs >= 2 hydrogen threads");

  // Hydrogen threads pull operations from a shared counter instead of
  // owning fixed quotas. With per-thread quotas, a single lagging thread
  // can own the final two hydrogen arrivals — and since an oxygen needs
  // two *concurrently available* hydrogens, no schedule could finish. The
  // shared counter guarantees a free hydrogen thread can always supply the
  // next arrival.
  auto Remaining = std::make_shared<std::atomic<int64_t>>(2 * Molecules);

  std::vector<std::function<void()>> Work;
  Work.push_back([&W, Molecules] { // The single oxygen thread (§6.4).
    for (int64_t I = 0; I != Molecules; ++I)
      W.oxygen();
  });
  for (int T = 0; T != HThreads; ++T) {
    Work.push_back([&W, Remaining] {
      while (Remaining->fetch_sub(1, std::memory_order_relaxed) > 0)
        W.hydrogen();
    });
  }
  return measure(std::move(Work));
}

RunMetrics bench::runSleepingBarber(SleepingBarberIface &S, int Customers,
                                    int64_t TotalCuts) {
  AUTOSYNCH_CHECK(Customers > 0, "needs customers");
  std::vector<int64_t> Cuts = split(TotalCuts, Customers);

  std::vector<std::function<void()>> Work;
  Work.push_back([&S, TotalCuts] { // The barber.
    for (int64_t I = 0; I != TotalCuts; ++I)
      S.cutHair();
  });
  for (int C = 0; C != Customers; ++C) {
    Work.push_back([&S, N = Cuts[C]] {
      for (int64_t Done = 0; Done != N;) {
        if (S.getHaircut())
          ++Done;
        else
          std::this_thread::yield(); // Full shop: retry.
      }
    });
  }
  return measure(std::move(Work));
}

RunMetrics bench::runRoundRobin(RoundRobinIface &RR, int Threads,
                                int64_t TotalOps) {
  AUTOSYNCH_CHECK(Threads > 0, "needs threads");
  // Strict turn order requires whole cycles.
  int64_t PerThread = std::max<int64_t>(1, TotalOps / Threads);

  std::vector<std::function<void()>> Work;
  for (int T = 0; T != Threads; ++T) {
    Work.push_back([&RR, T, PerThread] {
      for (int64_t I = 0; I != PerThread; ++I)
        RR.access(T);
    });
  }
  return measure(std::move(Work));
}

RunMetrics bench::runReadersWriters(ReadersWritersIface &RW, int Writers,
                                    int Readers, int64_t TotalOps) {
  AUTOSYNCH_CHECK(Writers > 0 && Readers > 0, "needs writers and readers");
  std::vector<int64_t> Ops = split(TotalOps, Writers + Readers);

  std::vector<std::function<void()>> Work;
  for (int W = 0; W != Writers; ++W) {
    Work.push_back([&RW, N = Ops[W]] {
      for (int64_t I = 0; I != N; ++I) {
        RW.startWrite();
        RW.endWrite();
      }
    });
  }
  for (int R = 0; R != Readers; ++R) {
    Work.push_back([&RW, N = Ops[Writers + R]] {
      for (int64_t I = 0; I != N; ++I) {
        RW.startRead();
        RW.endRead();
      }
    });
  }
  return measure(std::move(Work));
}

RunMetrics bench::runCyclicBarrier(CyclicBarrierIface &B,
                                   int64_t Generations) {
  AUTOSYNCH_CHECK(Generations > 0, "needs generations");
  int64_t Parties = B.parties();

  std::vector<std::function<void()>> Work;
  for (int64_t P = 0; P != Parties; ++P) {
    Work.push_back([&B, Generations] {
      for (int64_t G = 0; G != Generations; ++G)
        B.await();
    });
  }
  return measure(std::move(Work));
}

RunMetrics bench::runSantaClaus(SantaClausIface &S, int ReindeerThreads,
                                int ElfThreads, int64_t Deliveries,
                                int64_t Consultations) {
  // A group forms only from concurrently blocked arrivals, so the thread
  // pools must cover one full group each; arrivals are pulled from shared
  // counters (see runH2O) so a lagging thread cannot strand the last group.
  AUTOSYNCH_CHECK(ReindeerThreads >= S.reindeerTeam(),
                  "need at least one reindeer team of threads");
  AUTOSYNCH_CHECK(ElfThreads >= S.elfGroup(),
                  "need at least one elf group of threads");
  auto ReindeerLeft =
      std::make_shared<std::atomic<int64_t>>(S.reindeerTeam() * Deliveries);
  auto ElvesLeft =
      std::make_shared<std::atomic<int64_t>>(S.elfGroup() * Consultations);

  std::vector<std::function<void()>> Work;
  Work.push_back([&S, Deliveries, Consultations] { // Santa.
    for (int64_t I = 0; I != Deliveries + Consultations; ++I)
      S.santa();
  });
  for (int T = 0; T != ReindeerThreads; ++T) {
    Work.push_back([&S, ReindeerLeft] {
      while (ReindeerLeft->fetch_sub(1, std::memory_order_relaxed) > 0)
        S.reindeer();
    });
  }
  for (int T = 0; T != ElfThreads; ++T) {
    Work.push_back([&S, ElvesLeft] {
      while (ElvesLeft->fetch_sub(1, std::memory_order_relaxed) > 0)
        S.elf();
    });
  }
  return measure(std::move(Work));
}

RunMetrics bench::runDiningPhilosophers(DiningPhilosophersIface &D,
                                        int Philosophers,
                                        int64_t TotalMeals) {
  AUTOSYNCH_CHECK(Philosophers >= 2, "needs >= 2 philosophers");
  std::vector<int64_t> Meals = split(TotalMeals, Philosophers);

  std::vector<std::function<void()>> Work;
  for (int P = 0; P != Philosophers; ++P) {
    Work.push_back([&D, P, N = Meals[P]] {
      for (int64_t I = 0; I != N; ++I) {
        D.pickUp(P);
        D.putDown(P);
      }
    });
  }
  return measure(std::move(Work));
}

RunMetrics bench::runLeaseManager(LeaseManagerIface &L, int Threads,
                                  int64_t TotalOps, int TimedEvery,
                                  uint64_t TimeoutNs) {
  std::vector<int64_t> Shares = split(TotalOps, Threads);
  std::vector<std::function<void()>> Work;
  for (int T = 0; T != Threads; ++T) {
    int64_t Ops = Shares[T];
    Work.push_back([&L, Ops, TimedEvery, TimeoutNs] {
      for (int64_t I = 0; I != Ops; ++I) {
        if (TimedEvery > 0 && I % TimedEvery == 0) {
          while (!L.acquire(TimeoutNs)) {
            // Expiry counted by the lease manager; retry keeps the
            // per-thread op quota exact.
          }
        } else {
          L.acquire(~uint64_t{0});
        }
        L.release();
      }
    });
  }
  return measure(std::move(Work));
}

RunMetrics bench::runTokenBucket(TokenBucketIface &B, int Consumers,
                                 int64_t Capacity, int64_t TotalItems,
                                 uint64_t Seed) {
  // Precompute seeded demand scripts whose sum is exactly TotalItems.
  std::vector<std::vector<int64_t>> Demands(Consumers);
  Rng R(Seed);
  int64_t Left = TotalItems;
  for (int C = 0; Left > 0; C = (C + 1) % Consumers) {
    int64_t N = std::min<int64_t>(Left, R.range(1, Capacity));
    Demands[C].push_back(N);
    Left -= N;
  }

  std::vector<std::function<void()>> Work;
  for (int C = 0; C != Consumers; ++C) {
    const std::vector<int64_t> &Script = Demands[C];
    Work.push_back([&B, &Script] {
      for (int64_t N : Script)
        B.acquire(N, ~uint64_t{0});
    });
  }
  // The refiller supplies exactly the excess over the initial (full)
  // bucket, checking headroom first: it is the only token source, so an
  // observed fit cannot be invalidated by the time the refill lands.
  Work.push_back([&B, Capacity, TotalItems, Seed] {
    Rng RR(Seed ^ 0x9e3779b97f4a7c15ULL);
    int64_t Budget = TotalItems - Capacity;
    while (Budget > 0) {
      int64_t N = std::min<int64_t>(Budget, RR.range(1, 6));
      if (B.tokens() > Capacity - N) {
        std::this_thread::yield();
        continue;
      }
      B.refill(N);
      Budget -= N;
    }
  });
  return measure(std::move(Work));
}
