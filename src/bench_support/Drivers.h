//===- bench_support/Drivers.h - Saturation workload drivers ---*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One driver per evaluation problem, implementing the paper's saturation
/// tests (§6.1: "only monitor accessing function is performed ... no extra
/// work is in the monitor or out of the monitor"). Every driver starts all
/// threads behind a barrier, times the whole run, and returns wall time
/// plus OS and sync-layer event deltas.
///
/// One deliberate deviation from the paper: the per-cell *total* operation
/// count is fixed and divided among the threads (see the README's
/// "Benchmarks" section).
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_BENCH_SUPPORT_DRIVERS_H
#define AUTOSYNCH_BENCH_SUPPORT_DRIVERS_H

#include "problems/BoundedBuffer.h"
#include "problems/CyclicBarrier.h"
#include "problems/DiningPhilosophers.h"
#include "problems/H2O.h"
#include "problems/LeaseManager.h"
#include "problems/ParamBoundedBuffer.h"
#include "problems/ReadersWriters.h"
#include "problems/RoundRobin.h"
#include "problems/SantaClaus.h"
#include "problems/SleepingBarber.h"
#include "problems/TokenBucket.h"
#include "support/ProcStats.h"
#include "sync/Counters.h"

#include <cstdint>
#include <functional>
#include <vector>

namespace autosynch::bench {

/// Measurements of one driver run.
struct RunMetrics {
  double Seconds = 0.0;
  /// OS context-switch delta (zero on kernels that do not report them).
  ContextSwitches OsCtx;
  /// Sync-layer event deltas (awaits, signals, signalAlls, wakeups).
  sync::CountersSnapshot Sync;
};

/// Runs every work item on its own thread, released together; measures the
/// span from release to the last completion, plus counter deltas.
RunMetrics measure(std::vector<std::function<void()>> Work);

/// Fig. 8: \p Producers producers and \p Consumers consumers moving
/// \p TotalOps items (unit batches) through \p B.
RunMetrics runBoundedBuffer(BoundedBufferIface &B, int Producers,
                            int Consumers, int64_t TotalOps);

/// Figs. 14-15: one producer, \p Consumers consumers, random batches of
/// 1..MaxBatch items, \p TotalItems items in total (demand precomputed so
/// supply exactly covers it).
RunMetrics runParamBoundedBuffer(ParamBoundedBufferIface &B, int Consumers,
                                 int64_t TotalItems, int64_t MaxBatch,
                                 uint64_t Seed);

/// Fig. 9: one oxygen thread, \p HThreads hydrogen threads, \p Molecules
/// molecules in total.
RunMetrics runH2O(H2OIface &W, int HThreads, int64_t Molecules);

/// Fig. 10: one barber, \p Customers customer threads, \p TotalCuts
/// haircuts in total (customers retry when they balk).
RunMetrics runSleepingBarber(SleepingBarberIface &S, int Customers,
                             int64_t TotalCuts);

/// Fig. 11 / Table 1: \p Threads participants, \p TotalOps accesses in
/// round-robin order (rounded down to a whole number of cycles).
RunMetrics runRoundRobin(RoundRobinIface &RR, int Threads,
                         int64_t TotalOps);

/// Fig. 12: \p Writers writer and \p Readers reader threads, \p TotalOps
/// operations split proportionally.
RunMetrics runReadersWriters(ReadersWritersIface &RW, int Writers,
                             int Readers, int64_t TotalOps);

/// Fig. 13: \p Philosophers threads, \p TotalMeals meals in total.
RunMetrics runDiningPhilosophers(DiningPhilosophersIface &D,
                                 int Philosophers, int64_t TotalMeals);

/// Extension: \p B's full party count of threads crossing the barrier
/// \p Generations times each.
RunMetrics runCyclicBarrier(CyclicBarrierIface &B, int64_t Generations);

/// Extension: one Santa, \p ReindeerThreads + \p ElfThreads arrival
/// threads pulling from shared quotas sized for \p Deliveries toy runs and
/// \p Consultations elf meetings.
RunMetrics runSantaClaus(SantaClausIface &S, int ReindeerThreads,
                         int ElfThreads, int64_t Deliveries,
                         int64_t Consultations);

/// Extension (deadline runtime): \p Threads workers performing
/// \p TotalOps acquire/release cycles against \p L; every \p TimedEvery
/// -th acquire uses \p TimeoutNs and retries on expiry (expiries counted
/// in the lease manager's own stats), the rest are unbounded.
RunMetrics runLeaseManager(LeaseManagerIface &L, int Threads,
                           int64_t TotalOps, int TimedEvery,
                           uint64_t TimeoutNs);

/// Extension (deadline runtime): \p Consumers demand seeded batches from
/// \p B (unbounded acquires, \p TotalItems items in total) against one
/// refiller supplying exactly the excess over the initial fill without
/// ever overflowing the bucket.
RunMetrics runTokenBucket(TokenBucketIface &B, int Consumers,
                          int64_t Capacity, int64_t TotalItems,
                          uint64_t Seed);

} // namespace autosynch::bench

#endif // AUTOSYNCH_BENCH_SUPPORT_DRIVERS_H
