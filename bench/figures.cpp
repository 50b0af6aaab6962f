//===- bench/figures.cpp - The paper's figures, one driver ------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
//   bench_figures [--json=PATH] [KEY...]
//
// Sweeps each selected paper figure (all of them without a key) over
// AUTOSYNCH_BENCH_THREADS, with AUTOSYNCH_BENCH_REPS repetitions per cell and
// AUTOSYNCH_BENCH_SCALE on every operation budget. Prints one table per
// figure, then the paper's claims checked on the cells' counts
// (bench_support/Claims.h); exits 1 when a gated claim fails. --json writes
// every cell and claim (BENCH_figures.json, schema 1).
//
//===----------------------------------------------------------------------===//

#include "bench_support/BenchOptions.h"
#include "bench_support/Claims.h"
#include "bench_support/Drivers.h"
#include "bench_support/Table.h"
#include "core/ConditionManager.h"
#include "core/Monitor.h"
#include "support/Check.h"
#include "support/Stats.h"
#include "workload/Json.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

using namespace autosynch;
using namespace autosynch::bench;

namespace {

/// A figure's own per-run series, by name (e.g. "checks_per_signal").
using Series = std::map<std::string, double>;

/// One repetition of one cell: runs \p Column at sweep value \p N, returns
/// the driver's measurements and adds the figure's own series to \p Out.
using CellFn = RunMetrics (*)(const std::string &Column, int N,
                              const BenchOptions &Opts, Series &Out);

struct Figure {
  const char *Key;
  const char *Title;
  const char *Setup;
  const char *XLabel;
  std::vector<std::string> Columns;
  /// Series printed after the sync counts every table shows.
  std::vector<std::string> Shown;
  int MinThreads;
  CellFn Run;
};

Mechanism mech(const std::string &Name) {
  for (Mechanism M : {Mechanism::Explicit, Mechanism::Baseline,
                      Mechanism::AutoSynchT, Mechanism::AutoSynch})
    if (Name == mechanismName(M))
      return M;
  AUTOSYNCH_CHECK(false, "unknown mechanism column");
  return Mechanism::AutoSynch;
}

std::vector<std::string> names(std::initializer_list<Mechanism> Mechs) {
  std::vector<std::string> Names;
  for (Mechanism M : Mechs)
    Names.push_back(mechanismName(M));
  return Names;
}

const std::vector<std::string> AllFour =
    names({Mechanism::Explicit, Mechanism::Baseline, Mechanism::AutoSynchT,
           Mechanism::AutoSynch});
// The paper omits the baseline where it is "extremely inefficient in
// comparison".
const std::vector<std::string> NoBaseline =
    names({Mechanism::Explicit, Mechanism::AutoSynchT, Mechanism::AutoSynch});

/// The Fig. 1 batch-threshold monitor with a configurable inactive cache
/// (paper Sec. 5.2), for the inactive-list ablation.
class Pool : public Monitor {
public:
  explicit Pool(size_t CacheLimit) : Monitor(makeConfig(CacheLimit)) {}

  void deposit(int64_t N) {
    Region R(*this);
    Level += N;
  }

  void withdraw(int64_t N) {
    Region R(*this);
    waitUntil(Level >= N);
    Level -= N;
  }

  using Monitor::conditionManager;

private:
  static MonitorConfig makeConfig(size_t CacheLimit) {
    MonitorConfig Cfg;
    Cfg.InactiveCacheLimit = CacheLimit;
    return Cfg;
  }

  Shared<int64_t> Level{*this, "level", 0};
};

/// Withdrawers cycle through 8 distinct threshold predicates while one
/// supplier deposits single units, so withdrawers block (and register a
/// predicate, or revive a cached one) on nearly every operation.
RunMetrics inactiveCell(const std::string &Column, int N,
                        const BenchOptions &Opts, Series &Out) {
  Pool P(Column == "AutoSynch/cache" ? 64 : 0);
  const int64_t Ops = Opts.scaled(2000);
  int64_t Total = 0; // The supplier exactly covers the demand.
  for (int T = 0; T != N; ++T)
    for (int64_t I = 0; I != Ops; ++I)
      Total += (T + I) % 8 + 1;

  std::vector<std::function<void()>> Work;
  Work.push_back([&P, Total] {
    for (int64_t Left = Total; Left > 0; --Left)
      P.deposit(1);
  });
  for (int T = 0; T != N; ++T)
    Work.push_back([&P, T, Ops] {
      for (int64_t I = 0; I != Ops; ++I)
        P.withdraw((T + I) % 8 + 1);
    });
  RunMetrics M = measure(std::move(Work));
  Out["registrations"] =
      static_cast<double>(P.conditionManager().stats().Registrations);
  Out["reuses"] = static_cast<double>(P.conditionManager().stats().CacheReuses);
  return M;
}

RunMetrics roundRobinCell(const std::string &Column, int N,
                          const BenchOptions &Opts, Series &Out) {
  auto RR = makeRoundRobin(mech(Column), N);
  RunMetrics M = runRoundRobin(*RR, N, Opts.scaled(40000));
  ConditionManager *Mgr = RR->manager();
  if (!Mgr)
    return M;
  const ManagerStats &S = Mgr->stats();
  if (S.SignalsSent)
    Out["checks_per_signal"] = static_cast<double>(S.Search.PredicateChecks) /
                               static_cast<double>(S.SignalsSent);
  if (S.Waits)
    Out["futile_wakeups"] =
        static_cast<double>(S.FutileWakeups) / static_cast<double>(S.Waits);
  return M;
}

/// One timing switch times every phase: await and lock in the sync layer,
/// relaySignal and tag management in the condition manager; "others" is
/// the rest of the aggregate thread time, the closest analogue of the
/// paper's summed per-phase CPU profile.
RunMetrics table1Cell(const std::string &Column, int N,
                      const BenchOptions &Opts, Series &Out) {
  sync::Counters::global().enableTiming(true);
  auto RR = makeRoundRobin(mech(Column), N);
  RunMetrics M = runRoundRobin(*RR, N, Opts.scaled(40000));
  sync::Counters::global().enableTiming(false);

  double Left = M.Seconds * 1e3 * N;
  auto Phase = [&](const char *Name, double Ms) {
    Out[Name] = Ms;
    Left -= Ms;
  };
  Phase("await_ms", static_cast<double>(M.Sync.AwaitNs) / 1e6);
  Phase("lock_ms", static_cast<double>(M.Sync.LockNs) / 1e6);
  if (ConditionManager *Mgr = RR->manager()) {
    Phase("relay_ms", static_cast<double>(Mgr->stats().RelayNs) / 1e6);
    Phase("tag_ms", static_cast<double>(Mgr->stats().TagNs) / 1e6);
  }
  Out["others_ms"] = std::max(0.0, Left);
  return M;
}

const Figure Figures[] = {
    {"fig08", "Fig. 8 - bounded buffer",
     "N producers + N consumers, unit ops, capacity 64", "pairs", AllFour,
     {}, 1,
     [](const std::string &C, int N, const BenchOptions &O, Series &) {
       auto B = makeBoundedBuffer(mech(C), 64);
       return runBoundedBuffer(*B, N, N, O.scaled(40000));
     }},
    {"fig09", "Fig. 9 - H2O", "1 oxygen thread, N hydrogen threads",
     "h-atoms", AllFour, {}, 2,
     [](const std::string &C, int N, const BenchOptions &O, Series &) {
       auto W = makeH2O(mech(C));
       return runH2O(*W, N, O.scaled(10000));
     }},
    {"fig10", "Fig. 10 - sleeping barber",
     "1 barber, N customers, 8 waiting chairs", "customers", AllFour, {}, 1,
     [](const std::string &C, int N, const BenchOptions &O, Series &) {
       auto S = makeSleepingBarber(mech(C), 8);
       return runSleepingBarber(*S, N, O.scaled(20000));
     }},
    {"fig11", "Fig. 11 - round-robin access pattern",
     "N threads take turns; checks_per_signal = relay predicate checks per "
     "directed signal (the tagging ablation); futile_wakeups = wakeups that "
     "re-checked false, per blocking wait",
     "threads", AllFour, {"checks_per_signal", "futile_wakeups"}, 1,
     roundRobinCell},
    {"fig12", "Fig. 12 - readers/writers",
     "ticketed fair RW, N writers and 5N readers", "writers", NoBaseline, {},
     1,
     [](const std::string &C, int N, const BenchOptions &O, Series &) {
       auto RW = makeReadersWriters(mech(C));
       return runReadersWriters(*RW, N, 5 * N, O.scaled(20000));
     }},
    {"fig13", "Fig. 13 - dining philosophers",
     "N philosophers, chopstick-pair predicates", "philosophers", NoBaseline,
     {}, 2,
     [](const std::string &C, int N, const BenchOptions &O, Series &) {
       auto D = makeDiningPhilosophers(mech(C), N);
       return runDiningPhilosophers(*D, N, O.scaled(40000));
     }},
    {"fig14", "Figs. 14-15 - parameterized bounded buffer",
     "1 producer, N consumers, random 1..128 item batches, capacity 256; "
     "sync_events = awaits + wakeups (Fig. 15); os_ctx reads getrusage(2), "
     "0 on sandboxed kernels",
     "consumers", names({Mechanism::Explicit, Mechanism::AutoSynch}),
     {"sync_events", "os_ctx"}, 1,
     [](const std::string &C, int N, const BenchOptions &O, Series &Out) {
       auto B = makeParamBoundedBuffer(mech(C), 256);
       RunMetrics M = runParamBoundedBuffer(*B, N, O.scaled(1000000),
                                            /*MaxBatch=*/128, /*Seed=*/42);
       Out["sync_events"] = static_cast<double>(M.Sync.contextSwitchEvents());
       return M;
     }},
    {"table1", "Table 1 - CPU usage, round-robin access pattern",
     "milliseconds of aggregate thread time per phase", "threads",
     NoBaseline, {"await_ms", "lock_ms", "relay_ms", "tag_ms", "others_ms"},
     1, table1Cell},
    {"ext01", "Ext. 1 - FIFO cyclic barrier",
     "N parties, whole-group generations", "parties", AllFour, {}, 1,
     [](const std::string &C, int N, const BenchOptions &O, Series &) {
       // Fixed total await budget: generations shrink as parties grow.
       auto B = makeCyclicBarrier(mech(C), N);
       return runCyclicBarrier(*B, std::max<int64_t>(1, O.scaled(4000) / N));
     }},
    {"ext02", "Ext. 2 - Santa Claus",
     "9-reindeer team, 3-elf groups, max(N, 3) elf threads", "elves",
     AllFour, {}, 1,
     [](const std::string &C, int N, const BenchOptions &O, Series &) {
       auto S = makeSantaClaus(mech(C));
       return runSantaClaus(*S, /*ReindeerThreads=*/9, std::max(N, 3),
                            O.scaled(200), O.scaled(4000));
     }},
    {"inactive", "Ablation - inactive predicate cache (paper Sec. 5.2)",
     "N withdrawers churn 8 threshold predicates; cache limit 0 vs 64",
     "withdrawers", {"AutoSynch/no-cache", "AutoSynch/cache"},
     {"registrations", "reuses"}, 1, inactiveCell},
};

/// Runs one cell's repetitions: the drop-best-and-worst mean of the
/// seconds, and every count averaged over the runs.
Cell measureCell(const Figure &F, const std::string &Column, int N,
                 const BenchOptions &Opts) {
  Cell C{F.Key, Column, N, 0.0, {}};
  std::vector<double> Seconds;
  for (int R = 0; R != Opts.Reps; ++R) {
    Series Counts;
    RunMetrics M = F.Run(Column, N, Opts, Counts);
    Seconds.push_back(M.Seconds);
    Counts["awaits"] = static_cast<double>(M.Sync.Awaits);
    Counts["wakeups"] = static_cast<double>(M.Sync.Wakeups);
    Counts["signals"] = static_cast<double>(M.Sync.Signals);
    Counts["signal_alls"] = static_cast<double>(M.Sync.SignalAlls);
    Counts["os_ctx"] = static_cast<double>(M.OsCtx.total());
    for (const auto &[Name, V] : Counts)
      C.Counts[Name] += V / Opts.Reps;
  }
  C.Seconds = summarizeRuns(Seconds).Mean;
  return C;
}

std::string fmtValue(double V) {
  char Buf[32];
  bool Whole = V == static_cast<double>(static_cast<int64_t>(V));
  std::snprintf(Buf, sizeof(Buf), Whole || V >= 100 ? "%.0f" : "%.2f", V);
  return Buf;
}

void writeJson(const std::string &Path, const BenchOptions &Opts,
               const std::vector<const Figure *> &Ran,
               const std::vector<Cell> &Cells,
               const std::vector<ClaimResult> &Claims) {
  std::ofstream OS(Path);
  workload::JsonWriter J(OS);
  J.beginObject().member("bench", "figures").member("schema", 1);
  J.member("reps", Opts.Reps).member("scale", Opts.OpsScale);
  J.key("figures").beginObject();
  for (const Figure *F : Ran) {
    J.key(F->Key).beginObject().member("title", F->Title);
    J.member("x", F->XLabel).key("cells").beginArray();
    for (const Cell &C : Cells) {
      if (C.Figure != F->Key)
        continue;
      J.beginObject().member("threads", C.Threads);
      J.member("mechanism", C.Column).member("seconds", C.Seconds);
      J.key("counts").beginObject();
      for (const auto &[Name, V] : C.Counts)
        J.member(Name, V);
      J.endObject().endObject();
    }
    J.endArray().endObject();
  }
  J.endObject().key("claims").beginArray();
  for (const ClaimResult &R : Claims) {
    J.beginObject().member("id", R.Id).member("source", R.Source);
    J.member("claim", R.Text).member("gated", R.Gated);
    J.member("held", R.held()).member("cells", R.Cells);
    J.member("violations", R.Violations);
    J.member("first_violation", R.FirstViolation).endObject();
  }
  J.endArray().endObject();
  OS << '\n';
  AUTOSYNCH_CHECK(OS.good(), "cannot write the figures JSON");
  std::printf("# wrote %s (%zu cells)\n", Path.c_str(), Cells.size());
}

} // namespace

int main(int Argc, char **Argv) {
  std::string JsonPath;
  std::vector<const Figure *> Selected;
  for (int I = 1; I != Argc; ++I) {
    const Figure *Match = nullptr;
    for (const Figure &F : Figures)
      if (std::strcmp(Argv[I], F.Key) == 0)
        Match = &F;
    if (Match) {
      Selected.push_back(Match);
    } else if (std::strncmp(Argv[I], "--json=", 7) == 0) {
      JsonPath = Argv[I] + 7;
    } else {
      std::fprintf(stderr, "usage: %s [--json=PATH] [KEY...]\nkeys:",
                   Argv[0]);
      for (const Figure &F : Figures)
        std::fprintf(stderr, " %s", F.Key);
      std::fprintf(stderr, "\nenv: AUTOSYNCH_BENCH_THREADS, "
                           "AUTOSYNCH_BENCH_REPS, AUTOSYNCH_BENCH_SCALE\n");
      return 2;
    }
  }
  if (Selected.empty())
    for (const Figure &F : Figures)
      Selected.push_back(&F);

  BenchOptions Opts = BenchOptions::fromEnv();
  std::vector<Cell> Cells;
  for (const Figure *F : Selected) {
    banner(F->Title, F->Setup, Opts);
    std::vector<std::string> Header = {F->XLabel, "mechanism", "seconds",
                                       "signals", "signal_alls", "awaits"};
    Header.insert(Header.end(), F->Shown.begin(), F->Shown.end());
    Table T(Header);
    for (int N : Opts.ThreadCounts) {
      if (N < F->MinThreads)
        continue;
      for (const std::string &Column : F->Columns) {
        Cell C = measureCell(*F, Column, N, Opts);
        std::vector<std::string> Row = {std::to_string(N), Column,
                                        Table::fmtSeconds(C.Seconds)};
        for (size_t K = 3; K != Header.size(); ++K) {
          auto It = C.Counts.find(Header[K]);
          Row.push_back(It == C.Counts.end() ? "-" : fmtValue(It->second));
        }
        T.addRow(std::move(Row));
        Cells.push_back(std::move(C));
      }
    }
    T.print();
    std::printf("\n");
  }

  std::vector<ClaimResult> Claims = checkClaims(Cells);
  bool Failed = false;
  std::printf("# claims (gated ones fail the run; see the README)\n");
  Table T({"claim", "source", "kind", "verdict", "violations",
           "first violation"});
  for (const ClaimResult &R : Claims) {
    Failed |= R.Gated && !R.held();
    T.addRow({R.Id, R.Source, R.Gated ? "gated" : "reported",
              R.held() ? "held" : "VIOLATED",
              std::to_string(R.Violations) + "/" + std::to_string(R.Cells),
              R.FirstViolation.empty() ? "-" : R.FirstViolation});
  }
  T.print();

  if (!JsonPath.empty())
    writeJson(JsonPath, Opts, Selected, Cells, Claims);
  return Failed ? 1 : 0;
}
