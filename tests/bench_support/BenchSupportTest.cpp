//===- tests/bench_support/BenchSupportTest.cpp - Harness tests --------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "bench_support/BenchOptions.h"
#include "bench_support/Claims.h"
#include "bench_support/Drivers.h"
#include "bench_support/Table.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace autosynch;
using namespace autosynch::bench;

namespace {

//===----------------------------------------------------------------------===//
// BenchOptions
//===----------------------------------------------------------------------===//

struct EnvGuard {
  ~EnvGuard() {
    unsetenv("AUTOSYNCH_BENCH_THREADS");
    unsetenv("AUTOSYNCH_BENCH_REPS");
    unsetenv("AUTOSYNCH_BENCH_SCALE");
  }
};

TEST(BenchOptionsTest, Defaults) {
  EnvGuard G;
  BenchOptions O = BenchOptions::fromEnv();
  EXPECT_EQ(O.ThreadCounts, (std::vector<int>{2, 4, 8, 16, 32, 64}));
  EXPECT_EQ(O.Reps, 3);
  EXPECT_DOUBLE_EQ(O.OpsScale, 1.0);
}

TEST(BenchOptionsTest, ThreadListFromEnv) {
  EnvGuard G;
  setenv("AUTOSYNCH_BENCH_THREADS", "2,16,256", 1);
  BenchOptions O = BenchOptions::fromEnv();
  EXPECT_EQ(O.ThreadCounts, (std::vector<int>{2, 16, 256}));
}

TEST(BenchOptionsTest, MalformedThreadListFallsBack) {
  EnvGuard G;
  setenv("AUTOSYNCH_BENCH_THREADS", "zero,,-3", 1);
  BenchOptions O = BenchOptions::fromEnv();
  EXPECT_EQ(O.ThreadCounts, (std::vector<int>{2, 4, 8, 16, 32, 64}));
}

TEST(BenchOptionsTest, RepsAndScale) {
  EnvGuard G;
  setenv("AUTOSYNCH_BENCH_REPS", "7", 1);
  setenv("AUTOSYNCH_BENCH_SCALE", "0.25", 1);
  BenchOptions O = BenchOptions::fromEnv();
  EXPECT_EQ(O.Reps, 7);
  EXPECT_DOUBLE_EQ(O.OpsScale, 0.25);
  EXPECT_EQ(O.scaled(1000), 250);
  EXPECT_EQ(O.scaled(1), 1); // Never below one operation.
}

//===----------------------------------------------------------------------===//
// Table
//===----------------------------------------------------------------------===//

TEST(TableTest, RowWidthMismatchIsFatal) {
  Table T({"a", "b"});
  EXPECT_DEATH(T.addRow({"only-one"}), "width mismatch");
}

TEST(TableTest, Formatters) {
  EXPECT_EQ(Table::fmtSeconds(1.2345), "1.234");
  EXPECT_EQ(Table::fmtSeconds(0.5), "0.500");
  EXPECT_EQ(Table::fmtCount(42), "42");
  EXPECT_EQ(Table::fmtRatio(26.94), "26.9x");
}

//===----------------------------------------------------------------------===//
// Claims (synthetic cells, no threads)
//===----------------------------------------------------------------------===//

Cell cell(const char *Figure, Mechanism M, int N,
          std::map<std::string, double> Counts) {
  return Cell{Figure, mechanismName(M), N, 0.01, std::move(Counts)};
}

ClaimResult claim(const std::vector<ClaimResult> &Results,
                  const std::string &Id) {
  for (const ClaimResult &R : Results)
    if (R.Id == Id)
      return R;
  ADD_FAILURE() << "claim " << Id << " not evaluated";
  return {};
}

/// Cells carrying the counts the figure driver recorded: no relay
/// signalAll, no baseline signal, 1.00 tagged checks per signal, and the
/// scan's 7.66 (N=16), 31.3 (N=64) and 63.35 (N=128) checks per signal.
std::vector<Cell> recordedCells() {
  std::vector<Cell> Cells;
  for (Mechanism M : {Mechanism::AutoSynchT, Mechanism::AutoSynch})
    Cells.push_back(cell("fig08", M, 16, {{"signal_alls", 0}}));
  Cells.push_back(
      cell("fig08", Mechanism::Baseline, 16, {{"signals", 0}}));
  for (int N : {2, 16, 64, 128})
    Cells.push_back(cell("fig11", Mechanism::AutoSynch, N,
                         {{"signal_alls", 0}, {"checks_per_signal", 1.0}}));
  Cells.push_back(cell("fig11", Mechanism::AutoSynchT, 16,
                       {{"signal_alls", 0}, {"checks_per_signal", 7.66}}));
  Cells.push_back(cell("fig11", Mechanism::AutoSynchT, 64,
                       {{"signal_alls", 0}, {"checks_per_signal", 31.3}}));
  Cells.push_back(cell("fig11", Mechanism::AutoSynchT, 128,
                       {{"signal_alls", 0}, {"checks_per_signal", 63.35}}));
  return Cells;
}

TEST(ClaimsTest, RecordedCountsHoldEveryGatedClaim) {
  std::vector<ClaimResult> Results = checkClaims(recordedCells());
  for (const char *Id : {"relay-no-signalall", "baseline-no-signal",
                         "tagged-checks-per-signal",
                         "scan-checks-per-signal"}) {
    ClaimResult R = claim(Results, Id);
    EXPECT_TRUE(R.Gated) << Id;
    EXPECT_TRUE(R.held()) << Id << ": " << R.FirstViolation;
  }
  EXPECT_EQ(claim(Results, "relay-no-signalall").Cells, 9);
  EXPECT_EQ(claim(Results, "scan-checks-per-signal").Cells, 3);
}

TEST(ClaimsTest, RelaySignalAllIsViolated) {
  std::vector<Cell> Cells = recordedCells();
  Cells.push_back(cell("fig10", Mechanism::AutoSynch, 8, {{"signal_alls", 1}}));
  ClaimResult R = claim(checkClaims(Cells), "relay-no-signalall");
  EXPECT_FALSE(R.held());
  EXPECT_EQ(R.Violations, 1);
  EXPECT_NE(R.FirstViolation.find("fig10 AutoSynch N=8"), std::string::npos)
      << R.FirstViolation;
}

TEST(ClaimsTest, BaselineSignalIsViolated) {
  std::vector<Cell> Cells = recordedCells();
  Cells.push_back(cell("fig09", Mechanism::Baseline, 2, {{"signals", 3}}));
  EXPECT_FALSE(claim(checkClaims(Cells), "baseline-no-signal").held());
}

TEST(ClaimsTest, TaggedAtTwoChecksPerSignalIsViolated) {
  std::vector<Cell> Cells = recordedCells();
  Cells.push_back(cell("fig11", Mechanism::AutoSynch, 32,
                       {{"checks_per_signal", 2.0}}));
  ClaimResult R = claim(checkClaims(Cells), "tagged-checks-per-signal");
  EXPECT_FALSE(R.held());
  EXPECT_NE(R.FirstViolation.find("N=32"), std::string::npos);
}

TEST(ClaimsTest, LinearScanAtNOverEightIsViolated) {
  std::vector<Cell> Cells = recordedCells();
  Cells.push_back(cell("fig11", Mechanism::AutoSynchT, 32,
                       {{"checks_per_signal", 32 / 8.0}}));
  ClaimResult R = claim(checkClaims(Cells), "scan-checks-per-signal");
  EXPECT_FALSE(R.held());
  EXPECT_EQ(R.Violations, 1);
  // Below N = 8 the scan's bound does not apply.
  Cells.back().Threads = 4;
  EXPECT_TRUE(claim(checkClaims(Cells), "scan-checks-per-signal").held());
}

TEST(ClaimsTest, BaselineFutileWakeupsAtOrBelowAutoSynchAreViolated) {
  // fig11 at 16 threads read 8.40 futile wakeups per wait for the
  // baseline and 0 for AutoSynch.
  std::vector<Cell> Cells = {
      cell("fig11", Mechanism::Baseline, 16, {{"futile_wakeups", 8.40}}),
      cell("fig11", Mechanism::AutoSynch, 16, {{"futile_wakeups", 0}})};
  ClaimResult R = claim(checkClaims(Cells), "baseline-more-futile-wakeups");
  EXPECT_TRUE(R.Gated);
  EXPECT_TRUE(R.held()) << R.FirstViolation;
  Cells[0].Counts["futile_wakeups"] = 0;
  R = claim(checkClaims(Cells), "baseline-more-futile-wakeups");
  EXPECT_FALSE(R.held());
  EXPECT_NE(R.FirstViolation.find("futile_wakeups 0 vs baseline 0"),
            std::string::npos)
      << R.FirstViolation;
  // Below N = 8 the claim does not apply.
  for (Cell &C : Cells)
    C.Threads = 4;
  for (const ClaimResult &Res : checkClaims(Cells))
    EXPECT_NE(Res.Id, "baseline-more-futile-wakeups");
}

TEST(ClaimsTest, SyncEventComparisonIsReportedNotGated) {
  std::vector<Cell> Cells = {
      cell("fig14", Mechanism::Explicit, 64, {{"sync_events", 1140}}),
      cell("fig14", Mechanism::AutoSynch, 64, {{"sync_events", 1348}})};
  std::vector<ClaimResult> Results = checkClaims(Cells);
  ClaimResult R = claim(Results, "fewer-sync-events");
  EXPECT_FALSE(R.Gated);
  EXPECT_FALSE(R.held());
  // Claims without an applicable cell are left out.
  EXPECT_EQ(Results.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Drivers (small smoke runs; conservation is asserted via problem state)
//===----------------------------------------------------------------------===//

TEST(DriversTest, LeaseManagerDriverBalancesGrants) {
  auto L = makeLeaseManager(Mechanism::AutoSynch, 3);
  RunMetrics M = runLeaseManager(*L, 4, 400, /*TimedEvery=*/5,
                                 /*TimeoutNs=*/10u * 1000 * 1000);
  EXPECT_EQ(L->available(), 3);
  // Every op eventually acquired (timed expiries are retried).
  EXPECT_GE(L->grants(), 400);
  EXPECT_GE(M.Seconds, 0.0);
}

TEST(DriversTest, TokenBucketDriverConservesTokens) {
  auto B = makeTokenBucket(Mechanism::AutoSynch, 16);
  runTokenBucket(*B, 3, 16, 4000, /*Seed=*/11);
  EXPECT_EQ(B->tokens(), 0); // Supply exactly covered demand.
  EXPECT_EQ(B->timeouts(), 0);
}

TEST(DriversTest, BoundedBufferDriverDrains) {
  auto B = makeBoundedBuffer(Mechanism::AutoSynch, 8);
  RunMetrics M = runBoundedBuffer(*B, 2, 2, 500);
  EXPECT_EQ(B->size(), 0);
  EXPECT_GE(M.Seconds, 0.0);
}

TEST(DriversTest, ParamBufferDriverBalancesSupplyAndDemand) {
  auto B = makeParamBoundedBuffer(Mechanism::AutoSynch, 256);
  runParamBoundedBuffer(*B, 3, 5000, 128, /*Seed=*/7);
  EXPECT_EQ(B->size(), 0);
}

TEST(DriversTest, H2ODriverKeepsStoichiometry) {
  auto W = makeH2O(Mechanism::AutoSynch);
  runH2O(*W, 4, 300);
  EXPECT_EQ(W->molecules(), 300);
}

TEST(DriversTest, BarberDriverCompletesAllCuts) {
  auto S = makeSleepingBarber(Mechanism::AutoSynch, 4);
  runSleepingBarber(*S, 3, 300);
  EXPECT_EQ(S->haircuts(), 300);
}

TEST(DriversTest, RoundRobinDriverCompletesWholeCycles) {
  auto RR = makeRoundRobin(Mechanism::AutoSynch, 4);
  runRoundRobin(*RR, 4, 400);
  EXPECT_EQ(RR->accesses(), 400);
}

TEST(DriversTest, ReadersWritersDriverCountsOps) {
  auto RW = makeReadersWriters(Mechanism::AutoSynch);
  runReadersWriters(*RW, 2, 4, 600);
  EXPECT_EQ(RW->reads() + RW->writes(), 600);
}

TEST(DriversTest, PhilosophersDriverCountsMeals) {
  auto D = makeDiningPhilosophers(Mechanism::AutoSynch, 5);
  runDiningPhilosophers(*D, 5, 500);
  EXPECT_EQ(D->meals(), 500);
}

TEST(DriversTest, MetricsCaptureSyncEvents) {
  auto B = makeBoundedBuffer(Mechanism::Baseline, 2);
  RunMetrics M = runBoundedBuffer(*B, 2, 2, 400);
  // A capacity-2 buffer with 4 threads must block sometimes, and the
  // baseline must broadcast.
  EXPECT_GT(M.Sync.Awaits, 0u);
  EXPECT_GT(M.Sync.SignalAlls, 0u);
  EXPECT_EQ(M.Sync.contextSwitchEvents(), M.Sync.Awaits + M.Sync.Wakeups);
}

} // namespace
