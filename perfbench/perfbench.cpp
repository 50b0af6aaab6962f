//===- perfbench/perfbench.cpp - The repository benchmark driver ----------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Three closed-loop workloads over the public monitor API (Monitor, Region,
// Shared<T>, waitUntil*) under the default MonitorConfig. perfbench/README.md
// explains why each workload exists and defines every metric.
//
//   perfbench --workload ring|batches|tickets --seed N --seconds S --trace 0|1
//
// A run repeats rounds until S seconds have passed. A round builds a fresh
// monitor, starts 3 threads, runs a fixed warm-up plan (the set-up), then
// times a fixed plan of operations. Rounds have a fixed size, so memory and
// arena growth do not depend on speed. A timing is the median over rounds
// and a count is a ratio of totals. --trace 1 adds spans around the
// benchmark's own calls into the monitor and reads the library's counters.
// The process runs on one CPU with one malloc arena (see main).
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//===----------------------------------------------------------------------===//

#include "core/Monitor.h"
#include "expr/Eval.h"
#include "plan/PlanCache.h"
#include "problems/ParamBoundedBuffer.h"
#include "problems/ReadersWriters.h"
#include "problems/RoundRobin.h"
#include "support/ProcStats.h"
#include "support/Rng.h"
#include "sync/Counters.h"

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <latch>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace autosynch;

namespace {

constexpr int NumThreads = 3;

/// A take in `batches` waits this long; it never expires in a sound run.
constexpr std::chrono::nanoseconds TakeTimeout = std::chrono::seconds(2);

/// The process is killed (no result printed) if a run hangs this long;
/// --seconds is at most MaxSeconds, so a sound run ends well before.
constexpr unsigned WatchdogSeconds = 170;
constexpr long long MaxSeconds = 120;

uint64_t wallNs() { return time::nowNs(); }

uint64_t cpuNs() {
  timespec Ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return uint64_t(Ts.tv_sec) * 1000000000u + uint64_t(Ts.tv_nsec);
}

/// Restricts the process to the highest-numbered CPU it may run on; the
/// benchmark's threads inherit this. On a virtual machine a wake-up of a
/// thread on another, idle virtual CPU waits for the host to run that CPU,
/// which costs more than the monitor's own work and swings by 3x with the
/// host's load. On one CPU a handoff is a context switch whose cost is the
/// program's.
bool pinToOneCpu() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof Set, &Set) != 0)
    return false;
  for (int Cpu = CPU_SETSIZE - 1; Cpu >= 0; --Cpu) {
    if (!CPU_ISSET(Cpu, &Set))
      continue;
    CPU_ZERO(&Set);
    CPU_SET(Cpu, &Set);
    return sched_setaffinity(0, sizeof Set, &Set) == 0;
  }
  return false;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

struct Op {
  enum Kind : uint8_t { Access, Put, Take, Peek, Write };
  Kind K;
  int64_t N = 0; ///< Batch size of a Put or Take.
};

/// One op sequence per thread.
using Plan = std::array<std::vector<Op>, NumThreads>;

size_t planOps(const Plan &P) {
  size_t N = 0;
  for (const auto &Ops : P)
    N += Ops.size();
  return N;
}

/// A workload's inputs, generated from the seed before anything is timed.
struct Workload {
  std::string Name;
  Plan Warm;  ///< Run by every round's set-up.
  Plan Timed; ///< Run by every round's timed phase.
  /// ring: the thread that moves first; batches: the buffer capacity;
  /// tickets: the first ticket number.
  int64_t Param = 0;
};

// `batches` shape: the producer is thread 0, the consumers threads 1 and 2.
// Capacity >= PutMax + TakeMax - 1 rules out deadlock (a full buffer always
// satisfies any pending take).
constexpr int64_t PutMin = 1, PutMax = 4;
constexpr int64_t TakeMin = 2, TakeMax = 8;
constexpr int64_t Capacity = 11;
constexpr uint64_t PeekPercent = 30;

/// Appends a balanced batches plan: the producer's puts sum to the
/// consumers' takes, so the buffer is empty again when the plan ends.
void addBatches(Rng &R, size_t TakesPerConsumer, Plan &P) {
  int64_t Items = 0;
  for (int C = 1; C != NumThreads; ++C) {
    for (size_t I = 0; I != TakesPerConsumer;) {
      if (R.chance(PeekPercent, 100)) {
        P[C].push_back({Op::Peek});
        continue;
      }
      int64_t N = R.range(TakeMin, TakeMax);
      P[C].push_back({Op::Take, N});
      Items += N;
      ++I;
    }
  }
  while (Items > 0) {
    if (R.chance(PeekPercent, 100)) {
      P[0].push_back({Op::Peek});
      continue;
    }
    int64_t N = std::min(R.range(PutMin, PutMax), Items);
    P[0].push_back({Op::Put, N});
    Items -= N;
  }
}

void addUniform(Op::Kind K, size_t PerThread, Plan &P) {
  for (auto &Ops : P)
    Ops.assign(PerThread, Op{K});
}

std::optional<Workload> makeWorkload(const std::string &Name, uint64_t Seed) {
  Workload W;
  W.Name = Name;
  Rng R(Seed * 0x9E3779B97F4A7C15ull + 1);
  if (Name == "ring") {
    W.Param = R.range(0, NumThreads - 1);
    addUniform(Op::Access, 500, W.Warm);
    addUniform(Op::Access, 5000, W.Timed);
  } else if (Name == "batches") {
    W.Param = Capacity;
    addBatches(R, 1000, W.Warm);
    addBatches(R, 10000, W.Timed);
  } else if (Name == "tickets") {
    W.Param = R.range(1, 1000) * 1000000;
    addUniform(Op::Write, 500, W.Warm);
    addUniform(Op::Write, 5000, W.Timed);
  } else {
    return std::nullopt;
  }
  return W;
}

//===----------------------------------------------------------------------===//
// Spans (traced run)
//===----------------------------------------------------------------------===//

/// One thread's spans of one round, kept in memory and folded into the
/// report when the round ends. Every span wraps a public call that the
/// benchmark's own monitors make.
struct Spans {
  std::vector<uint64_t> LockNs;    ///< Region construction.
  std::vector<uint64_t> FastNs;    ///< waitUntil* seen true before the call.
  std::vector<uint64_t> BlockedNs; ///< waitUntil* seen false before the call.
  std::vector<uint64_t> ExitNs;    ///< Region destruction.

  void reserve(size_t Ops) {
    for (auto *V : {&LockNs, &FastNs, &BlockedNs, &ExitNs})
      V->reserve(2 * Ops);
  }
  void clear() {
    for (auto *V : {&LockNs, &FastNs, &BlockedNs, &ExitNs})
      V->clear();
  }
  void wait(bool SeenTrue, uint64_t Ns) {
    (SeenTrue ? FastNs : BlockedNs).push_back(Ns);
  }
};

/// A monitor method body: a Region whose construction and destruction are
/// spans when the calling thread traces (\p S non-null).
class Section {
public:
  Section(Monitor &M, Spans *S) : S(S) {
    uint64_t T0 = S ? wallNs() : 0;
    R.emplace(M);
    if (S)
      S->LockNs.push_back(wallNs() - T0);
  }
  ~Section() {
    uint64_t T0 = S ? wallNs() : 0;
    R.reset();
    if (S)
      S->ExitNs.push_back(wallNs() - T0);
  }
  Section(const Section &) = delete;
  Section &operator=(const Section &) = delete;

private:
  Spans *S;
  std::optional<Monitor::Region> R;
};

//===----------------------------------------------------------------------===//
// Workload instances
//===----------------------------------------------------------------------===//

/// One round's system under test: an automatic monitor, or the hand-written
/// explicit monitor of the same protocol (the traced run's reference).
class Instance {
public:
  virtual ~Instance() = default;
  /// Runs one op as thread \p Tid; false if it failed (an expired take).
  virtual bool run(int Tid, const Op &O, Spans *S) = 0;
  /// The end-of-round output check; sets \p Why on a violation.
  virtual bool check(const Workload &W, std::string &Why) = 0;
  /// The automatic monitor, null for an explicit reference.
  virtual Monitor *monitor() { return nullptr; }
};

/// `ring`: strict turns on the parsed predicate `turn == me`, `me` bound
/// as a local (the path autosynchc emits).
class RingMonitor final : public Monitor, public Instance {
public:
  explicit RingMonitor(int64_t First) : Turn(*this, "turn", First) {
    Me = local("me");
  }

  bool run(int Tid, const Op &, Spans *S) override {
    Section R(*this, S);
    bool SeenTrue = S && Turn.get() == Tid;
    uint64_t T0 = S ? wallNs() : 0;
    waitUntil("turn == me", locals().bindInt(Me, Tid));
    if (S)
      S->wait(SeenTrue, wallNs() - T0);
    if (Last >= 0 && Last != (Tid + NumThreads - 1) % NumThreads)
      ++OutOfTurn;
    Last = Tid;
    ++Done[Tid];
    Turn = (Tid + 1) % NumThreads;
    return true;
  }

  bool check(const Workload &W, std::string &Why) override {
    if (OutOfTurn) {
      Why = "ring: " + std::to_string(OutOfTurn) + " accesses out of turn";
      return false;
    }
    for (int T = 0; T != NumThreads; ++T) {
      if (Done[T] != int64_t(W.Warm[T].size() + W.Timed[T].size())) {
        Why = "ring: thread " + std::to_string(T) + " missed its quota";
        return false;
      }
    }
    return true;
  }

  Monitor *monitor() override { return this; }

private:
  Shared<int64_t> Turn;
  VarId Me;
  // Benchmark-side verification state, guarded by the monitor lock.
  int64_t Last = -1;
  int64_t OutOfTurn = 0;
  std::array<int64_t, NumThreads> Done{};
};

/// `batches`: the parameterized bounded buffer of paper Fig. 1 with EDSL
/// predicates; takes are timed, and peeks are read-only sections.
class BatchesMonitor final : public Monitor, public Instance {
public:
  explicit BatchesMonitor(int64_t Capacity) : Capacity(Capacity) {}

  bool run(int, const Op &O, Spans *S) override {
    Section R(*this, S);
    if (O.K == Op::Peek) {
      Peeked = Count.get();
      return true;
    }
    uint64_t T0;
    if (O.K == Op::Put) {
      bool SeenTrue = S && Count.get() + O.N <= Capacity;
      T0 = S ? wallNs() : 0;
      waitUntil(Count + O.N <= Capacity);
      if (S)
        S->wait(SeenTrue, wallNs() - T0);
      Count += O.N;
      Produced += O.N;
      return true;
    }
    bool SeenTrue = S && Count.get() >= O.N;
    T0 = S ? wallNs() : 0;
    bool Ok = waitUntilFor(Count >= O.N, TakeTimeout);
    if (S)
      S->wait(SeenTrue, wallNs() - T0);
    if (!Ok)
      return false;
    Count -= O.N;
    Consumed += O.N;
    return true;
  }

  bool check(const Workload &W, std::string &Why) override {
    int64_t Planned = 0;
    for (const Plan *P : {&W.Warm, &W.Timed})
      for (const Op &O : (*P)[0])
        Planned += O.N;
    int64_t Left = synchronized([this] { return Count.get(); });
    if (Produced != Planned || Consumed != Planned || Left != 0) {
      Why = "batches: produced " + std::to_string(Produced) + ", consumed " +
            std::to_string(Consumed) + ", planned " +
            std::to_string(Planned) + ", left " + std::to_string(Left);
      return false;
    }
    return true;
  }

  Monitor *monitor() override { return this; }

private:
  Shared<int64_t> Count{*this, "count", 0};
  const int64_t Capacity;
  // Benchmark-side verification state, guarded by the monitor lock.
  int64_t Produced = 0;
  int64_t Consumed = 0;
  int64_t Peeked = 0;
};

/// The body of a `tickets` exclusive section, shared by the automatic and
/// the explicit monitor: a benchmark-side check that no other thread holds
/// the section, and a yield of the CPU while holding it. Without the
/// yield, a thread on the benchmark's one CPU would run its whole time
/// slice alone, taking tickets nobody competes for, and never block; with
/// it, the other threads take their tickets behind the holder and the
/// sections rotate, one block per op.
class Occupancy {
public:
  void hold() {
    if (Holders.fetch_add(1, std::memory_order_relaxed) != 0)
      Overlaps.fetch_add(1, std::memory_order_relaxed);
    sched_yield();
    Holders.fetch_sub(1, std::memory_order_relaxed);
  }
  int64_t overlaps() const { return Overlaps.load(); }

private:
  std::atomic<int64_t> Holders{0};
  std::atomic<int64_t> Overlaps{0};
};

/// `tickets`: strictly ordered exclusive sections with the ReadersWriters
/// writer protocol; the local ticket `t` never repeats.
class TicketsMonitor final : public Monitor, public Instance {
public:
  explicit TicketsMonitor(int64_t First)
      : First(First), NextTicket(*this, "nextTicket", First),
        Serving(*this, "serving", First) {
    T = local("t");
  }

  bool run(int, const Op &, Spans *S) override {
    startWrite(S);
    Occ.hold();
    endWrite(S);
    return true;
  }

  bool check(const Workload &W, std::string &Why) override {
    int64_t Issued = int64_t(planOps(W.Warm) + planOps(W.Timed));
    int64_t Served = synchronized([this] { return Serving.get(); }) - First;
    if (Occ.overlaps() != 0 || Served != Issued) {
      Why = "tickets: " + std::to_string(Occ.overlaps()) +
            " overlapping holders, served " + std::to_string(Served) +
            " of " + std::to_string(Issued);
      return false;
    }
    return true;
  }

  Monitor *monitor() override { return this; }

private:
  void startWrite(Spans *S) {
    Section R(*this, S);
    int64_t Ticket = NextTicket.get();
    NextTicket += 1;
    bool SeenTrue = S && Serving.get() == Ticket && ActiveWriters.get() == 0 &&
                    ActiveReaders.get() == 0;
    uint64_t T0 = S ? wallNs() : 0;
    waitUntil("serving == t && activeWriters == 0 && activeReaders == 0",
              locals().bindInt(T, Ticket));
    if (S)
      S->wait(SeenTrue, wallNs() - T0);
    Serving += 1;
    ActiveWriters += 1;
  }

  void endWrite(Spans *S) {
    Section R(*this, S);
    ActiveWriters -= 1;
  }

  const int64_t First;
  Shared<int64_t> NextTicket;
  Shared<int64_t> Serving;
  Shared<int64_t> ActiveReaders{*this, "activeReaders", 0};
  Shared<int64_t> ActiveWriters{*this, "activeWriters", 0};
  VarId T;
  Occupancy Occ;
};

class ExplicitRing final : public Instance {
public:
  ExplicitRing() : M(makeRoundRobin(Mechanism::Explicit, NumThreads)) {}
  bool run(int Tid, const Op &, Spans *) override {
    M->access(Tid);
    return true;
  }
  bool check(const Workload &W, std::string &Why) override {
    if (M->accesses() != int64_t(planOps(W.Warm) + planOps(W.Timed))) {
      Why = "explicit ring: wrong access count";
      return false;
    }
    return true;
  }

private:
  std::unique_ptr<RoundRobinIface> M;
};

class ExplicitBatches final : public Instance {
public:
  explicit ExplicitBatches(int64_t Capacity)
      : M(makeParamBoundedBuffer(Mechanism::Explicit, Capacity)) {}
  bool run(int, const Op &O, Spans *) override {
    if (O.K == Op::Put)
      M->put(O.N);
    else if (O.K == Op::Take)
      M->take(O.N);
    else
      Peeked.store(M->size(), std::memory_order_relaxed);
    return true;
  }
  bool check(const Workload &, std::string &Why) override {
    if (M->size() != 0) {
      Why = "explicit batches: buffer not empty";
      return false;
    }
    return true;
  }

private:
  std::unique_ptr<ParamBoundedBufferIface> M;
  std::atomic<int64_t> Peeked{0};
};

class ExplicitTickets final : public Instance {
public:
  ExplicitTickets() : M(makeReadersWriters(Mechanism::Explicit)) {}
  bool run(int, const Op &, Spans *) override {
    M->startWrite();
    Occ.hold();
    M->endWrite();
    return true;
  }
  bool check(const Workload &W, std::string &Why) override {
    if (Occ.overlaps() != 0 ||
        M->writes() != int64_t(planOps(W.Warm) + planOps(W.Timed))) {
      Why = "explicit tickets: overlap or wrong write count";
      return false;
    }
    return true;
  }

private:
  std::unique_ptr<ReadersWritersIface> M;
  Occupancy Occ;
};

std::unique_ptr<Instance> makeInstance(const Workload &W, bool Explicit) {
  if (W.Name == "ring")
    return Explicit ? std::unique_ptr<Instance>(new ExplicitRing())
                    : std::unique_ptr<Instance>(new RingMonitor(W.Param));
  if (W.Name == "batches")
    return Explicit
               ? std::unique_ptr<Instance>(new ExplicitBatches(W.Param))
               : std::unique_ptr<Instance>(new BatchesMonitor(W.Param));
  return Explicit ? std::unique_ptr<Instance>(new ExplicitTickets())
                  : std::unique_ptr<Instance>(new TicketsMonitor(W.Param));
}

//===----------------------------------------------------------------------===//
// Rounds
//===----------------------------------------------------------------------===//

/// Library counters and span sums of the traced rounds.
struct LayerTotals {
  uint64_t Ops = 0;
  uint64_t LockN = 0, LockNs = 0;
  uint64_t FastN = 0, FastNs = 0;
  uint64_t BlockedN = 0, BlockedNs = 0;
  uint64_t ExitN = 0, ExitNs = 0;
  uint64_t Awaits = 0, Signals = 0, SignalAlls = 0;
  uint64_t VolCtx = 0;
  uint64_t Waits = 0, RelayCalls = 0, RelaySkips = 0, RelayDirtySkips = 0;
  uint64_t StampShortCircuits = 0, Registrations = 0, Evictions = 0;
  uint64_t TimedWaits = 0, Timeouts = 0, WheelWakeups = 0;
  uint64_t HeapVisits = 0, EqLookups = 0, PredicateChecks = 0;
  uint64_t FilteredExprs = 0;
  uint64_t BindHits = 0, ColdBinds = 0, LegacyWaits = 0;
  uint64_t Evals = 0, ArenaNodes = 0;

  void addSpans(const Spans &S) {
    auto Add = [](const std::vector<uint64_t> &V, uint64_t &N, uint64_t &Ns) {
      N += V.size();
      for (uint64_t X : V)
        Ns += X;
    };
    Add(S.LockNs, LockN, LockNs);
    Add(S.FastNs, FastN, FastNs);
    Add(S.BlockedNs, BlockedN, BlockedNs);
    Add(S.ExitNs, ExitN, ExitNs);
  }

  void addStats(const ManagerStats &M) {
    Waits += M.Waits;
    RelayCalls += M.RelayCalls;
    RelaySkips += M.RelaySkips;
    RelayDirtySkips += M.RelayDirtySkips;
    StampShortCircuits += M.StampShortCircuits;
    Registrations += M.Registrations;
    Evictions += M.Evictions;
    TimedWaits += M.TimedWaits;
    Timeouts += M.Timeouts;
    WheelWakeups += M.WheelWakeups;
    HeapVisits += M.Search.HeapVisits;
    EqLookups += M.Search.EqLookups;
    PredicateChecks += M.Search.PredicateChecks;
    FilteredExprs += M.Search.FilteredExprs;
  }
};

struct RoundResult {
  double SetupS = 0, OpsPerS = 0, P50Us = 0, P90Us = 0, CpuUsPerOp = 0;
  uint64_t Ops = 0, Failed = 0;
  bool Ok = true;
  std::string Why;
};

/// Buffers reused by every round, so memory does not grow with the number
/// of rounds a run fits in.
struct Scratch {
  std::array<std::vector<uint64_t>, NumThreads> Lat;
  std::array<Spans, NumThreads> Traces;
  std::vector<uint64_t> All;

  explicit Scratch(const Workload &W) {
    for (int T = 0; T != NumThreads; ++T) {
      Lat[T].resize(W.Timed[T].size());
      Traces[T].reserve(W.Timed[T].size());
    }
    All.reserve(planOps(W.Timed));
  }
};

RoundResult runRound(const Workload &W, bool Explicit, bool Traced,
                     Scratch &Sc, LayerTotals *LT) {
  RoundResult RR;
  std::atomic<uint64_t> Failed{0};
  std::latch Ready(NumThreads), Start(1);

  uint64_t SetupStart = wallNs();
  std::unique_ptr<Instance> I = makeInstance(W, Explicit);
  auto Body = [&](int Tid) {
    for (const Op &O : W.Warm[Tid])
      if (!I->run(Tid, O, nullptr))
        Failed.fetch_add(1, std::memory_order_relaxed);
    Spans *S = Traced ? &Sc.Traces[Tid] : nullptr;
    if (S)
      S->clear();
    const std::vector<Op> &Ops = W.Timed[Tid];
    uint64_t *Lat = Sc.Lat[Tid].data();
    Ready.count_down();
    Start.wait();
    for (size_t J = 0; J != Ops.size(); ++J) {
      uint64_t T0 = wallNs();
      bool Ok = I->run(Tid, Ops[J], S);
      Lat[J] = wallNs() - T0;
      if (!Ok)
        Failed.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back(Body, T);
  Ready.wait();
  RR.SetupS = double(wallNs() - SetupStart) / 1e9;

  // Every thread finished its warm-up and left the monitor; the latch
  // orders their writes before these reads.
  Monitor *M = I->monitor();
  if (M)
    M->conditionManager().resetStats();
  sync::CountersSnapshot Sync0 = sync::Counters::global().snapshot();
  PlanCountersSnapshot Plan0 = PlanCounters::global().snapshot();
  uint64_t Evals0 = predicateEvalCount();
  uint64_t Nodes0 = M ? M->arena().numNodes() : 0;
  ContextSwitches Ctx0 = readContextSwitches();
  uint64_t Cpu0 = cpuNs();
  uint64_t T0 = wallNs();
  Start.count_down();
  for (std::thread &T : Threads)
    T.join();
  uint64_t Elapsed = wallNs() - T0;
  uint64_t Cpu = cpuNs() - Cpu0;
  sync::CountersSnapshot Sync = sync::Counters::global().snapshot() - Sync0;

  RR.Ops = planOps(W.Timed);
  RR.Failed = Failed.load();
  RR.OpsPerS = double(RR.Ops) / (double(Elapsed) / 1e9);
  RR.CpuUsPerOp = double(Cpu) / 1e3 / double(RR.Ops);
  Sc.All.clear();
  for (int T = 0; T != NumThreads; ++T)
    Sc.All.insert(Sc.All.end(), Sc.Lat[T].begin(), Sc.Lat[T].end());
  auto Pct = [&](size_t Num) {
    auto It = Sc.All.begin() + Sc.All.size() * Num / 100;
    std::nth_element(Sc.All.begin(), It, Sc.All.end());
    return double(*It) / 1e3;
  };
  RR.P50Us = Pct(50);
  RR.P90Us = Pct(90);

  RR.Ok = I->check(W, RR.Why);
  if (RR.Ok && M && Sync.SignalAlls != 0) {
    RR.Ok = false;
    RR.Why = "relay invariance: " + std::to_string(Sync.SignalAlls) +
             " signalAll calls";
  }
  if (RR.Ok && M && M->conditionManager().stats().Timeouts != 0) {
    RR.Ok = false;
    RR.Why = "a timed wait expired";
  }

  if (LT && M) {
    LT->Ops += RR.Ops;
    for (const Spans &S : Sc.Traces)
      LT->addSpans(S);
    LT->Awaits += Sync.Awaits;
    LT->Signals += Sync.Signals;
    LT->SignalAlls += Sync.SignalAlls;
    LT->VolCtx += (readContextSwitches() - Ctx0).Voluntary;
    LT->addStats(M->conditionManager().stats());
    PlanCountersSnapshot Plan = PlanCounters::global().snapshot() - Plan0;
    LT->BindHits += Plan.BindHits;
    LT->ColdBinds += Plan.ColdBinds;
    LT->LegacyWaits += Plan.LegacyWaits;
    LT->Evals += predicateEvalCount() - Evals0;
    LT->ArenaNodes += M->arena().numNodes() - Nodes0;
  }
  return RR;
}

/// Rounds of one kind, run until \p Seconds have passed (at least
/// \p MinRounds).
struct Phase {
  std::vector<RoundResult> Rounds;
  uint64_t Ops = 0, Failed = 0;
  bool Ok = true;
  std::string Why;

  double med(double RoundResult::*Field) const {
    std::vector<double> V;
    for (const RoundResult &R : Rounds)
      V.push_back(R.*Field);
    return median(V);
  }
};

Phase runPhase(const Workload &W, bool Explicit, bool Traced, double Seconds,
               size_t MinRounds, Scratch &Sc, LayerTotals *LT) {
  Phase P;
  uint64_t Start = wallNs();
  while (P.Rounds.size() < MinRounds ||
         double(wallNs() - Start) / 1e9 < Seconds) {
    RoundResult R = runRound(W, Explicit, Traced, Sc, LT);
    P.Ops += R.Ops;
    P.Failed += R.Failed;
    if (!R.Ok && P.Ok) {
      P.Ok = false;
      P.Why = R.Why;
    }
    P.Rounds.push_back(std::move(R));
  }
  return P;
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name, Unit;
  double Value;
};

double ratio(uint64_t Num, uint64_t Den) {
  return Den ? double(Num) / double(Den) : 0.0;
}

std::vector<Metric> layerMetrics(const LayerTotals &L, double ExplicitOps,
                                 double Overhead) {
  uint64_t Ops = L.Ops, Relays = L.RelayCalls;
  return {
      {"sync.lock_wait_ns", "ns", ratio(L.LockNs, L.LockN)},
      {"sync.awaits_per_op", "1/op", ratio(L.Awaits, Ops)},
      {"sync.signals_per_op", "1/op", ratio(L.Signals, Ops)},
      {"sync.signal_alls_per_op", "1/op", ratio(L.SignalAlls, Ops)},
      {"sync.vol_ctx_per_op", "1/op", ratio(L.VolCtx, Ops)},
      {"core.wait_fast_ns", "ns", ratio(L.FastNs, L.FastN)},
      {"core.wait_blocked_us", "us", ratio(L.BlockedNs, L.BlockedN) / 1e3},
      {"core.exit_ns", "ns", ratio(L.ExitNs, L.ExitN)},
      {"core.blocked_share", "share", ratio(L.BlockedN, Ops)},
      {"core.futile_wakeups_per_op", "1/op",
       ratio(L.Awaits > L.Waits ? L.Awaits - L.Waits : 0, Ops)},
      {"core.relay_dirty_skip_share", "share",
       ratio(L.RelayDirtySkips, Relays)},
      {"core.relay_inflight_skip_share", "share",
       ratio(L.RelaySkips, Relays)},
      {"core.registrations_per_op", "1/op", ratio(L.Registrations, Ops)},
      {"core.evictions_per_op", "1/op", ratio(L.Evictions, Ops)},
      {"plan.bind_hit_share", "share",
       ratio(L.BindHits, L.BindHits + L.ColdBinds)},
      {"plan.cold_binds_per_op", "1/op", ratio(L.ColdBinds, Ops)},
      {"plan.legacy_waits_per_op", "1/op", ratio(L.LegacyWaits, Ops)},
      {"tag.heap_visits_per_relay", "1/relay", ratio(L.HeapVisits, Relays)},
      {"tag.eq_lookups_per_relay", "1/relay", ratio(L.EqLookups, Relays)},
      {"tag.predicate_checks_per_relay", "1/relay",
       ratio(L.PredicateChecks, Relays)},
      {"tag.filtered_exprs_per_relay", "1/relay",
       ratio(L.FilteredExprs, Relays)},
      {"tag.stamp_short_circuits_per_relay", "1/relay",
       ratio(L.StampShortCircuits, Relays)},
      {"expr.evals_per_op", "1/op", ratio(L.Evals, Ops)},
      {"expr.arena_nodes_per_op", "1/op", ratio(L.ArenaNodes, Ops)},
      {"time.timed_waits_per_op", "1/op", ratio(L.TimedWaits, Ops)},
      {"time.timeouts", "count", double(L.Timeouts)},
      {"time.wheel_wakeups_per_op", "1/op", ratio(L.WheelWakeups, Ops)},
      {"ref.explicit_ops_per_s", "1/s", ExplicitOps},
      {"trace.overhead", "ratio", Overhead},
  };
}

/// Peak resident set size of this program image in MB. VmHWM starts afresh
/// at exec; getrusage's ru_maxrss does not, and would report the peak of
/// the Python wrapper that started the driver whenever that is larger.
double peakRssMb() {
  double Mb = 0;
  if (std::FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    long Kb = 0;
    while (std::fgets(Line, sizeof Line, F))
      if (std::sscanf(Line, "VmHWM: %ld kB", &Kb) == 1)
        Mb = double(Kb) / 1024.0;
    std::fclose(F);
  }
  return Mb;
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Ms) {
  std::string S = "{\"correct\": ";
  S += Correct ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(Attempted);
  S += ", \"failed\": " + std::to_string(Failed);
  S += ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I != Ms.size(); ++I) {
    std::snprintf(Buf, sizeof Buf, "%.17g", Ms[I].Value);
    S += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " + Buf +
         ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  S += "}}";
  std::printf("%s\n", S.c_str());
  std::fflush(stdout);
}

void describe(const char *What, const Phase &P) {
  std::fprintf(stderr,
               "perfbench: %-9s %3zu rounds of %zu ops: ops_per_s %.0f, "
               "p50 %.2f us, p90 %.2f us, cpu %.2f us/op, setup %.4f s\n",
               What, P.Rounds.size(),
               P.Rounds.empty() ? size_t(0) : size_t(P.Rounds[0].Ops),
               P.med(&RoundResult::OpsPerS), P.med(&RoundResult::P50Us),
               P.med(&RoundResult::P90Us), P.med(&RoundResult::CpuUsPerOp),
               P.med(&RoundResult::SetupS));
}

int usage() {
  std::fprintf(stderr, "usage: perfbench --workload ring|batches|tickets "
                       "--seed N --seconds S --trace 0|1\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Name;
  long long Seed = -1, Seconds = -1, Trace = -1;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I];
    char *End = nullptr;
    long long V = std::strtoll(Argv[I + 1], &End, 10);
    bool Num = *Argv[I + 1] && *End == '\0';
    if (Flag == "--workload")
      Name = Argv[I + 1];
    else if (Flag == "--seed" && Num && V >= 0)
      Seed = V;
    else if (Flag == "--seconds" && Num && V >= 1 && V <= MaxSeconds)
      Seconds = V;
    else if (Flag == "--trace" && Num && (V == 0 || V == 1))
      Trace = V;
    else
      return usage();
  }
  if (Argc % 2 == 0 || Seed < 0 || Seconds < 0 || Trace < 0)
    return usage();
  std::optional<Workload> W = makeWorkload(Name, uint64_t(Seed));
  if (!W)
    return usage();
  alarm(WatchdogSeconds);
  if (!pinToOneCpu())
    std::fprintf(stderr, "perfbench: could not pin to one CPU; figures will "
                         "include cross-CPU wake-up latency\n");
  // One malloc arena: on one CPU per-thread arenas save nothing, and they
  // make peak RSS depend on which thread happened to allocate.
  mallopt(M_ARENA_MAX, 1);

  Scratch Sc(*W);
  if (Trace == 0) {
    Phase P = runPhase(*W, /*Explicit=*/false, /*Traced=*/false,
                       double(Seconds), 5, Sc, nullptr);
    describe("untraced", P);
    if (!P.Ok)
      std::fprintf(stderr, "perfbench: check failed: %s\n", P.Why.c_str());
    bool Correct = P.Ok && P.Failed == 0;
    printResult(Correct, P.Ops, Correct ? 0 : std::max(P.Failed, P.Ops),
                {{"ops_per_s", "1/s", P.med(&RoundResult::OpsPerS)},
                 {"op_p50_us", "us", P.med(&RoundResult::P50Us)},
                 {"op_p90_us", "us", P.med(&RoundResult::P90Us)},
                 {"cpu_us_per_op", "us", P.med(&RoundResult::CpuUsPerOp)},
                 {"setup_s", "s", P.med(&RoundResult::SetupS)},
                 {"peak_rss_mb", "MB", peakRssMb()}});
    return 0;
  }

  // Traced run: untraced and traced rounds of the same build measure the
  // tracing overhead; the explicit rounds give the reference throughput.
  LayerTotals LT;
  double S = double(Seconds);
  Phase Plain = runPhase(*W, false, false, 0.3 * S, 3, Sc, nullptr);
  Phase Traced = runPhase(*W, false, true, 0.4 * S, 3, Sc, &LT);
  Phase Ref = runPhase(*W, true, false, 0.3 * S, 3, Sc, nullptr);
  describe("untraced", Plain);
  describe("traced", Traced);
  describe("explicit", Ref);
  bool Correct = true;
  uint64_t Ops = 0, Failed = 0;
  for (const Phase *P : {&Plain, &Traced, &Ref}) {
    if (!P->Ok)
      std::fprintf(stderr, "perfbench: check failed: %s\n", P->Why.c_str());
    Correct = Correct && P->Ok && P->Failed == 0;
    Ops += P->Ops;
    Failed += P->Failed;
  }
  std::vector<Metric> Ms = layerMetrics(
      LT, Ref.med(&RoundResult::OpsPerS),
      Traced.med(&RoundResult::OpsPerS) / Plain.med(&RoundResult::OpsPerS));
  for (const Metric &M : Ms)
    std::fprintf(stderr, "perfbench:   %-36s %14.6g %s\n", M.Name.c_str(),
                 M.Value, M.Unit.c_str());
  printResult(Correct, Ops, Correct ? 0 : std::max(Failed, Ops), Ms);
  return 0;
}
