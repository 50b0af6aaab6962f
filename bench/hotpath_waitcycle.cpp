//===- bench/hotpath_waitcycle.cpp - Steady-state waituntil microbench ------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The hot-path microbench behind BENCH_hotpath.json: what does one
// steady-state waitUntil cost, and what does it allocate?
//
// Scenarios:
//  * cycle — two threads hand a token through `turn == me` (the canonical
//    wait/signal cycle: every handoff is one directed signal issued after
//    the monitor unlock). Local values recur, so a plan-cache hit must be
//    completely allocation-free. Reported per mechanism.
//  * fastpath-sweep — one thread calls waitUntil("count >= n") with a
//    fresh n every call while the predicate is already true: the pure
//    bind-and-evaluate check cost.
//  * edsl-fastpath — the same sweep through the EDSL, on the paper's
//    `Count + n <= Cap`: the expression template evaluates itself over
//    the shared slots, with no plan lookup at all. Reported
//    next to fastpath-sweep as an EDSL/parsed ns-per-op ratio (printed,
//    not gated: it depends on the host).
//  * globalize-sweep — a strict producer/consumer handshake where every
//    blocking wait carries a never-repeating local value through the
//    paper's flagship complex predicate `count + n <= cap` (§4.1). Each
//    such wait is a genuinely new predicate: the cold-bind cost. The
//    record is registered straight from the resolved signature into a
//    recycled evicted record, so the sweep interns nothing either.
//
// Allocation metrics: `heap_allocs_per_op` counts every operator-new in
// the process during the measured section (interposed below);
// `arena_nodes_per_op` counts nodes added to the expression arena, and
// `arena_interns_per_op` every interning request, lookups included. The
// plan-hit properties are asserted, not just reported, so the CI smoke
// run enforces them: the steady-state cycle's plan binds hit and intern
// nothing, every cycle and both fast-path sweeps allocate under 0.01
// times per op (the slack absorbs the measured section's thread
// start-up), a warm EDSL wait makes no interning request at all, and the
// globalize sweep interns under 0.01 nodes per op.
//
//===----------------------------------------------------------------------===//

#include "FigureBench.h"
#include "core/Monitor.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <thread>
#include <vector>

using namespace autosynch;
using namespace autosynch::bench;

//===----------------------------------------------------------------------===//
// Heap-allocation interposition
//===----------------------------------------------------------------------===//

static std::atomic<uint64_t> GHeapAllocs{0};

static void *countedAlloc(size_t Size) {
  GHeapAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *operator new(size_t Size) { return countedAlloc(Size); }
void *operator new[](size_t Size) { return countedAlloc(Size); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }

namespace {

uint64_t heapAllocs() {
  return GHeapAllocs.load(std::memory_order_relaxed);
}

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

//===----------------------------------------------------------------------===//
// Monitors
//===----------------------------------------------------------------------===//

/// Token ring of two: the steady-state wait/signal cycle.
class PingPong : public Monitor {
public:
  explicit PingPong(MonitorConfig Cfg)
      : Monitor(Cfg), Me(local("me")) {}

  void step(int64_t Mine, int64_t Next) {
    Region R(*this);
    waitUntil("turn == me", locals().bindInt(Me, Mine));
    Turn = Next;
  }

  /// Spins until \p N threads are parked (warmup choreography).
  void awaitBlocked(int N) {
    while (true) {
      {
        Region R(*this);
        if (conditionManager().numWaiters() >= N)
          return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  using Monitor::arena;
  using Monitor::conditionManager;

private:
  Shared<int64_t> Turn{*this, "turn", 0};
  VarId Me;
};

/// Fast-path sweep: the predicate is always already true; n never repeats.
class Sweeper : public Monitor {
public:
  explicit Sweeper(MonitorConfig Cfg, int64_t Ceiling)
      : Monitor(Cfg), N(local("n")) {
    Region R(*this);
    Count = Ceiling;
  }

  void probe(int64_t Value) {
    Region R(*this);
    waitUntil("count >= n", locals().bindInt(N, Value));
  }

  using Monitor::arena;
  using Monitor::conditionManager;

private:
  Shared<int64_t> Count{*this, "count", 0};
  VarId N;
};

/// EDSL fast-path sweep: `count + n <= cap` is always already true; n
/// never repeats.
class EdslSweeper : public Monitor {
public:
  explicit EdslSweeper(MonitorConfig Cfg, int64_t Ceiling) : Monitor(Cfg) {
    Region R(*this);
    Cap = Ceiling;
  }

  void probe(int64_t N) {
    Region R(*this);
    waitUntil(Count + N <= Cap);
  }

  using Monitor::arena;

private:
  Shared<int64_t> Count{*this, "count", 0};
  Shared<int64_t> Cap{*this, "cap", 0};
};

/// Globalize sweep: a strict two-thread handshake. fill() blocks on the
/// paper's complex predicate `count + n <= cap` with a never-repeating n,
/// then refills the buffer; drain() blocks until full, then empties it.
/// Every fill() wait registers a brand-new globalized predicate.
class Handshake : public Monitor {
public:
  explicit Handshake(MonitorConfig Cfg, int64_t Capacity)
      : Monitor(Cfg), N(local("n")), Cap(Capacity) {
    Region R(*this);
    this->Capacity = Capacity;
    Count = Capacity; // Full: the first fill() blocks.
  }

  void fill(int64_t Fresh) {
    Region R(*this);
    waitUntil("count + n <= cap", locals().bindInt(N, Fresh));
    Count = Cap; // Refill so the next fill() blocks again.
  }

  void drain() {
    Region R(*this);
    waitUntil(Count >= Cap);
    Count = 0;
  }

  using Monitor::arena;
  using Monitor::conditionManager;
  using Monitor::planCache;

private:
  Shared<int64_t> Count{*this, "count", 0};
  Shared<int64_t> Capacity{*this, "cap", 0};
  VarId N;
  int64_t Cap;
};

//===----------------------------------------------------------------------===//
// Cells
//===----------------------------------------------------------------------===//

struct Cell {
  std::string Scenario;
  Mechanism Mech = Mechanism::AutoSynch;
  int64_t Ops = 0;
  double NsPerOp = 0.0;
  double HeapAllocsPerOp = 0.0;
  double ArenaNodesPerOp = 0.0;
  double ArenaInternsPerOp = 0.0;
  uint64_t Signals = 0;
  uint64_t Waits = 0;
  uint64_t PlanBindHits = 0;
  uint64_t PlanColdBinds = 0;
};

Cell runCycle(Mechanism Mech, int64_t Handoffs, int Reps) {
  Cell C;
  C.Scenario = "cycle";
  C.Mech = Mech;
  C.Ops = Handoffs;

  double BestSeconds = -1.0;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    MonitorConfig Cfg = configFor(Mech);
    PingPong M(Cfg);

    // Warm the parse cache, the plan shape, and both signatures so the
    // measured section is pure steady state. Each side is forced to
    // block once: a wait that never blocks stops at the fast-path check
    // and would leave its signature cold (registration happens on the
    // first blocking wait, whichever section that falls in).
    auto Side = [&M](int64_t Mine, int64_t Iters) {
      for (int64_t I = 0; I != Iters; ++I)
        M.step(Mine, 1 - Mine);
    };
    {
      std::thread W1([&] { M.step(1, 0); }); // turn==1 is false: blocks.
      M.awaitBlocked(1);
      M.step(0, 1); // Hands off; W1 restores turn=0.
      W1.join();
      M.step(0, 1); // turn=1 so the other side blocks too.
      std::thread W0([&] { M.step(0, 1); });
      M.awaitBlocked(1);
      M.step(1, 0); // Hands off; W0 sets turn=1.
      W0.join();
      M.step(1, 0); // Restore turn=0 for the measured ping-pong.
    }

    size_t Nodes0 = 0;
    uint64_t Interns0 = 0;
    {
      Monitor::Region R(M);
      Nodes0 = M.arena().numNodes();
      Interns0 = M.arena().internCalls();
    }
    M.conditionManager().resetStats();
    uint64_t Heap0 = heapAllocs();
    double T0 = nowSeconds();
    {
      std::thread A([&] { Side(0, Handoffs / 2); });
      std::thread B([&] { Side(1, Handoffs / 2); });
      A.join();
      B.join();
    }
    double Seconds = nowSeconds() - T0;
    uint64_t HeapDelta = heapAllocs() - Heap0;
    size_t NodesDelta = 0;
    uint64_t InternsDelta = 0;
    {
      Monitor::Region R(M);
      NodesDelta = M.arena().numNodes() - Nodes0;
      InternsDelta = M.arena().internCalls() - Interns0;
    }

    if (BestSeconds < 0 || Seconds < BestSeconds) {
      BestSeconds = Seconds;
      C.NsPerOp = Seconds * 1e9 / static_cast<double>(Handoffs);
      C.HeapAllocsPerOp =
          static_cast<double>(HeapDelta) / static_cast<double>(Handoffs);
      C.ArenaNodesPerOp =
          static_cast<double>(NodesDelta) / static_cast<double>(Handoffs);
      C.ArenaInternsPerOp =
          static_cast<double>(InternsDelta) / static_cast<double>(Handoffs);
      const ManagerStats &S = M.conditionManager().stats();
      C.Signals = S.SignalsSent + S.BroadcastSignals;
      C.Waits = S.Waits;
      C.PlanBindHits = S.PlanBindHits;
      C.PlanColdBinds = S.PlanColdBinds;
    }

    if (Cfg.Policy != SignalPolicy::Broadcast) {
      AUTOSYNCH_CHECK(M.conditionManager().stats().PlanBindHits > 0,
                      "steady-state cycle plan binds must hit");
      AUTOSYNCH_CHECK(NodesDelta == 0,
                      "plan-cache cycle hit path must not intern");
    }
  }
  AUTOSYNCH_CHECK(C.HeapAllocsPerOp < 0.01,
                  "steady-state cycle must not allocate");
  return C;
}

/// An already-true sweep: \p SweeperT::probe(v) waits on a predicate that
/// holds for every v the sweep passes, with a fresh v each call.
template <typename SweeperT>
Cell runSweep(const char *Scenario, int64_t Ops, int Reps) {
  Cell C;
  C.Scenario = Scenario;
  C.Mech = Mechanism::AutoSynch;
  C.Ops = Ops;

  double BestSeconds = -1.0;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    MonitorConfig Cfg = configFor(Mechanism::AutoSynch);
    SweeperT M(Cfg, /*Ceiling=*/Ops + 2);

    M.probe(1); // Warm the parse cache and plan (EDSL: nothing to warm).
    uint64_t Interns0 = M.arena().internCalls();
    uint64_t Heap0 = heapAllocs();
    double T0 = nowSeconds();
    for (int64_t I = 0; I != Ops; ++I)
      M.probe(I + 2); // A fresh bound value every call; always true.
    double Seconds = nowSeconds() - T0;
    uint64_t HeapDelta = heapAllocs() - Heap0;
    uint64_t InternsDelta = M.arena().internCalls() - Interns0;

    if (BestSeconds < 0 || Seconds < BestSeconds) {
      BestSeconds = Seconds;
      C.NsPerOp = Seconds * 1e9 / static_cast<double>(Ops);
      C.HeapAllocsPerOp =
          static_cast<double>(HeapDelta) / static_cast<double>(Ops);
      C.ArenaNodesPerOp = 0.0; // Implied by zero interning requests.
      C.ArenaInternsPerOp =
          static_cast<double>(InternsDelta) / static_cast<double>(Ops);
    }
    AUTOSYNCH_CHECK(InternsDelta == 0,
                    "a warm already-true wait must not touch the arena");
  }
  AUTOSYNCH_CHECK(C.HeapAllocsPerOp < 0.01,
                  "already-true fast path must not allocate");
  return C;
}

Cell runGlobalizeSweep(int64_t Ops, int Reps) {
  Cell C;
  C.Scenario = "globalize-sweep";
  C.Mech = Mechanism::AutoSynch;
  C.Ops = Ops;

  double BestSeconds = -1.0;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    MonitorConfig Cfg = configFor(Mechanism::AutoSynch);
    // Every fill() predicate is brand new; an eviction limit keeps the
    // table (and the run) at steady state, the way a real server would.
    Cfg.InactiveCacheLimit = 256;
    const int64_t Cap = 1'000'000'000;
    Handshake M(Cfg, Cap);

    // Fresh values < Cap so `count + n <= cap` is satisfiable exactly
    // when the buffer was drained.
    auto Rounds = [&M](int64_t First, int64_t Count) {
      std::thread Producer([&] {
        for (int64_t I = 0; I != Count; ++I)
          M.fill(First + I);
      });
      std::thread Consumer([&] {
        for (int64_t I = 0; I != Count; ++I)
          M.drain();
      });
      Producer.join();
      Consumer.join();
    };
    // Warm-up rounds, with fill values the measured run never repeats,
    // until both plan shapes are built: the parsed fill plans on its
    // first call, but an already-true EDSL drain plans nothing, so its
    // call site is built only once a drain has blocked.
    int64_t Warm = Ops + 1;
    do {
      Rounds(Warm, 2);
      Warm += 2;
    } while (M.planCache().numSites() == 0);
    size_t Nodes0 = 0;
    uint64_t Interns0 = 0;
    {
      Monitor::Region R(M);
      Nodes0 = M.arena().numNodes();
      Interns0 = M.arena().internCalls();
    }
    M.conditionManager().resetStats();
    uint64_t Heap0 = heapAllocs();
    double T0 = nowSeconds();
    Rounds(1, Ops);
    double Seconds = nowSeconds() - T0;
    uint64_t HeapDelta = heapAllocs() - Heap0;
    size_t NodesDelta = 0;
    uint64_t InternsDelta = 0;
    {
      Monitor::Region R(M);
      NodesDelta = M.arena().numNodes() - Nodes0;
      InternsDelta = M.arena().internCalls() - Interns0;
    }

    if (BestSeconds < 0 || Seconds < BestSeconds) {
      BestSeconds = Seconds;
      C.NsPerOp = Seconds * 1e9 / static_cast<double>(Ops);
      C.HeapAllocsPerOp =
          static_cast<double>(HeapDelta) / static_cast<double>(Ops);
      C.ArenaNodesPerOp =
          static_cast<double>(NodesDelta) / static_cast<double>(Ops);
      C.ArenaInternsPerOp =
          static_cast<double>(InternsDelta) / static_cast<double>(Ops);
      const ManagerStats &S = M.conditionManager().stats();
      C.Signals = S.SignalsSent + S.BroadcastSignals;
      C.Waits = S.Waits;
      C.PlanBindHits = S.PlanBindHits;
      C.PlanColdBinds = S.PlanColdBinds;
    }
  }
  AUTOSYNCH_CHECK(C.ArenaNodesPerOp < 0.01,
                  "cold binds must register without interning");
  return C;
}

//===----------------------------------------------------------------------===//
// JSON output
//===----------------------------------------------------------------------===//

void writeJson(const std::vector<Cell> &Cells, double EdslRatio,
               const std::string &Path) {
  std::ofstream OS(Path);
  if (!OS) {
    std::fprintf(stderr, "hotpath_waitcycle: cannot open %s\n",
                 Path.c_str());
    std::exit(1);
  }
  OS << "{\n  \"bench\": \"hotpath_waitcycle\",\n  \"schema\": 4,\n"
     << "  \"edsl_over_parsed_fastpath\": " << EdslRatio << ",\n"
     << "  \"runs\": [\n";
  for (size_t I = 0; I != Cells.size(); ++I) {
    const Cell &C = Cells[I];
    OS << "    {\"scenario\": \"" << C.Scenario << "\", \"mechanism\": \""
       << mechanismName(C.Mech) << "\", \"ops\": " << C.Ops
       << ", \"ns_per_op\": " << C.NsPerOp
       << ", \"heap_allocs_per_op\": " << C.HeapAllocsPerOp
       << ", \"arena_nodes_per_op\": " << C.ArenaNodesPerOp
       << ", \"arena_interns_per_op\": " << C.ArenaInternsPerOp
       << ", \"signals\": " << C.Signals << ", \"waits\": " << C.Waits
       << ", \"plan_bind_hits\": " << C.PlanBindHits
       << ", \"plan_cold_binds\": " << C.PlanColdBinds << "}"
       << (I + 1 == Cells.size() ? "\n" : ",\n");
  }
  OS << "  ]\n}\n";
  std::printf("# wrote %s (%zu cells)\n", Path.c_str(), Cells.size());
}

} // namespace

int main(int Argc, char **Argv) {
  std::string JsonPath = "BENCH_hotpath.json";
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--json=", 0) == 0) {
      JsonPath = Arg.substr(7);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json=PATH]\n"
                   "env: AUTOSYNCH_BENCH_REPS, AUTOSYNCH_BENCH_SCALE\n",
                   Argv[0]);
      return 2;
    }
  }

  BenchOptions Opts = BenchOptions::fromEnv();
  banner("Hot path - steady-state waituntil cycle",
         "token handoff ns/op and allocations/op",
         Opts);

  const int64_t Handoffs = Opts.scaled(100000) & ~int64_t(1);
  const int64_t SweepOps = Opts.scaled(50000);

  std::vector<Cell> Cells;
  Table T({"scenario", "mechanism", "ns/op", "heap-allocs/op",
           "arena-nodes/op", "arena-interns/op"});
  auto Record = [&](Cell C) {
    T.addRow({C.Scenario, mechanismName(C.Mech),
              std::to_string(static_cast<int64_t>(C.NsPerOp)),
              std::to_string(C.HeapAllocsPerOp),
              std::to_string(C.ArenaNodesPerOp),
              std::to_string(C.ArenaInternsPerOp)});
    Cells.push_back(std::move(C));
  };

  for (Mechanism Mech :
       {Mechanism::AutoSynch, Mechanism::AutoSynchT, Mechanism::Baseline})
    Record(runCycle(Mech, Handoffs, Opts.Reps));
  Cell Parsed = runSweep<Sweeper>("fastpath-sweep", SweepOps, Opts.Reps);
  Cell Edsl = runSweep<EdslSweeper>("edsl-fastpath", SweepOps, Opts.Reps);
  double EdslRatio = Edsl.NsPerOp / Parsed.NsPerOp;
  Record(std::move(Parsed));
  Record(std::move(Edsl));
  Record(runGlobalizeSweep(SweepOps / 4, Opts.Reps));

  T.print();
  std::printf("# edsl-fastpath / fastpath-sweep: %.2fx ns per op "
              "(target <= 1.1; host-dependent, not gated)\n",
              EdslRatio);
  writeJson(Cells, EdslRatio, JsonPath);
  return 0;
}
