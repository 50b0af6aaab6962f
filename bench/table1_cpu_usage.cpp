//===- bench/table1_cpu_usage.cpp - Paper Table 1 -----------------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Table 1: per-phase CPU usage for the round-robin access pattern with 128
// threads. The paper profiles await / lock / relaySignal / tag-manager /
// others with YourKit. Here await and lock come from the globally timed
// sync substrate; relaySignal and tag management from the condition
// manager's phase timers. The paper's headline: predicate tagging cuts
// relaySignal time ~95% (2108ms -> 112ms) at a small tag-management cost,
// while await dominates everything for every mechanism.
//
//===----------------------------------------------------------------------===//

#include "FigureBench.h"

#include "core/ConditionManager.h"

#include <cstdlib>

using namespace autosynch;
using namespace autosynch::bench;

int main() {
  BenchOptions Opts = BenchOptions::fromEnv();
  int Threads = 128;
  if (const char *T = std::getenv("AUTOSYNCH_TABLE1_THREADS"))
    Threads = std::max(2, std::atoi(T));
  const int64_t TotalOps = Opts.scaled(40000);

  banner("Table 1 - CPU usage, round-robin access pattern",
         "await/lock timed in the sync layer; relaySignal/tagMgr in the "
         "condition manager",
         Opts);
  std::printf("# threads=%d (override with AUTOSYNCH_TABLE1_THREADS)\n",
              Threads);

  Table T({"mechanism", "await-ms", "lock-ms", "relaySignal-ms",
           "tagMgr-ms", "others-ms", "total-ms"});

  const Mechanism Mechs[] = {Mechanism::Explicit, Mechanism::AutoSynchT,
                             Mechanism::AutoSynch};
  for (Mechanism M : Mechs) {
    double AwaitMs = 0, LockMs = 0, RelayMs = 0, TagMs = 0, TotalMs = 0;
    bool HasPhases = isAutomatic(M);

    sync::Counters::global().enableTiming(true);
    for (int R = 0; R != Opts.Reps; ++R) {
      auto RR = makeRoundRobin(M, Threads, /*EnablePhaseTimers=*/true);
      sync::CountersSnapshot Before = sync::Counters::global().snapshot();
      RunMetrics Metrics = runRoundRobin(*RR, Threads, TotalOps);
      sync::CountersSnapshot Delta =
          sync::Counters::global().snapshot() - Before;

      AwaitMs += static_cast<double>(Delta.AwaitNs) / 1e6;
      LockMs += static_cast<double>(Delta.LockNs) / 1e6;
      // Aggregate thread time, the closest analogue of the paper's summed
      // per-phase CPU profile.
      TotalMs += Metrics.Seconds * 1e3 * Threads;

      if (ConditionManager *Mgr = RR->manager()) {
        RelayMs += static_cast<double>(
                       Mgr->timers().totalNs(PhaseTimers::Relay)) /
                   1e6;
        TagMs += static_cast<double>(
                     Mgr->timers().totalNs(PhaseTimers::TagMgmt)) /
                 1e6;
      }
    }
    sync::Counters::global().enableTiming(false);

    double OthersMs =
        std::max(0.0, TotalMs - AwaitMs - LockMs - RelayMs - TagMs);
    T.addRow({mechanismName(M), Table::fmtSeconds(AwaitMs / 1e3),
              Table::fmtSeconds(LockMs / 1e3),
              HasPhases ? Table::fmtSeconds(RelayMs / 1e3) : "n/a",
              HasPhases ? Table::fmtSeconds(TagMs / 1e3) : "n/a",
              Table::fmtSeconds(OthersMs / 1e3),
              Table::fmtSeconds(TotalMs / 1e3)});
  }
  T.print();
  std::printf("# values are seconds of aggregate thread time across %d "
              "repetitions\n",
              Opts.Reps);
  return 0;
}
