//===- core/ConditionManager.cpp - The AutoSynch condition manager ---------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "core/ConditionManager.h"

#include "dnf/Dnf.h"
#include "expr/Eval.h"
#include "expr/Subst.h"
#include "plan/PlanCache.h"
#include "sync/Counters.h"
#include "time/Deadline.h"

using namespace autosynch;

const char *autosynch::signalPolicyName(SignalPolicy P) {
  switch (P) {
  case SignalPolicy::Tagged:
    return "tagged";
  case SignalPolicy::LinearScan:
    return "linear-scan";
  case SignalPolicy::Broadcast:
    return "broadcast";
  }
  AUTOSYNCH_UNREACHABLE("invalid SignalPolicy");
}

ConditionManager::ConditionManager(sync::Mutex &MonitorLock,
                                   ExprArena &Arena, SymbolTable &Syms,
                                   const Env &SharedEnv,
                                   const std::vector<Value> &Slots,
                                   const MonitorConfig &Cfg)
    : MonitorLock(MonitorLock), Arena(Arena), Syms(Syms),
      SharedEnv(SharedEnv), Slots(Slots), Cfg(Cfg) {
  if (Cfg.Policy == SignalPolicy::Broadcast)
    BroadcastCond = MonitorLock.newCondition();
}

size_t ConditionManager::hashSignature(const SigEntry *Sig, size_t N) {
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](uint64_t X) {
    H ^= X;
    H *= 1099511628211ull;
  };
  for (size_t I = 0; I != N; ++I) {
    Mix(reinterpret_cast<uintptr_t>(Sig[I].P));
    Mix(Sig[I].Kind);
    Mix(static_cast<uint64_t>(Sig[I].K));
  }
  return static_cast<size_t>(H);
}

ConditionManager::~ConditionManager() {
  AUTOSYNCH_CHECK(TotalWaiters == 0,
                  "destroying a monitor with blocked waiters");
}

namespace {

/// Adds the wall time of its scope to \p Ns while the sync layer's timing
/// switch is on (Table 1); otherwise it costs one relaxed load.
class PhaseClock {
public:
  explicit PhaseClock(uint64_t &Ns)
      : Ns(sync::Counters::global().timingEnabled() ? &Ns : nullptr),
        T0(this->Ns ? time::nowNs() : 0) {}
  ~PhaseClock() {
    if (Ns)
      *Ns += time::nowNs() - T0;
  }
  PhaseClock(const PhaseClock &) = delete;
  PhaseClock &operator=(const PhaseClock &) = delete;

private:
  uint64_t *Ns;
  uint64_t T0;
};

} // namespace

//===----------------------------------------------------------------------===//
// Predicate evaluation
//===----------------------------------------------------------------------===//

bool ConditionManager::recordTrue(Record *R) {
  // The slot program reads the monitor's shared state straight out of the
  // backing array — no virtual Env dispatch on the relay hot path.
  return R->Code.runRawBool(Slots.data(), nullptr);
}

//===----------------------------------------------------------------------===//
// Registration, activation, and the inactive cache (§5.2)
//===----------------------------------------------------------------------===//

ConditionManager::Record *
ConditionManager::lookupOrRegister(const SigEntry *Sig, size_t N,
                                   bool &Hit) {
  size_t Hash = hashSignature(Sig, N);
  auto It = Table.find(SigView{Sig, N, Hash});
  Hit = It != Table.end();
  if (!Hit)
    return registerRecord(Sig, N, Hash);
  Record *R = It->second.get();
  if (!R->Active)
    ++Stats.CacheReuses;
  return R;
}

ConditionManager::Record *
ConditionManager::registerRecord(const SigEntry *Sig, size_t N,
                                 size_t Hash) {
  ++Stats.Registrations;
  std::unique_ptr<Record> Fresh;
  Record *R;
  if (!Spare.empty()) {
    // Evicted records come back with their waiter/signal counts at zero
    // (eviction checks it) and out of every list and index.
    R = Spare.back().mapped().get();
    R->ReadSet.clear();
  } else {
    Fresh = std::make_unique<Record>();
    Fresh->Cond = MonitorLock.newCondition();
    R = Fresh.get();
  }
  // Everything else comes straight from the entries: no expression is
  // built, nothing is interned or canonicalized again.
  R->Sig.assign(Sig, Sig + N);
  R->Hash = Hash;
  deriveTags(Sig, N, Syms, R->Tags);
  for (size_t I = 0; I != N; ++I)
    if (!Sig[I].isSeparator())
      collectVars(Sig[I].P, R->ReadSet);
  CompiledPredicate::compileSignature(
      Sig, N,
      [this](VarId V) -> ResolvedVar {
        AUTOSYNCH_CHECK(Syms.isShared(V),
                        "registered predicate mentions a local");
        return {ResolvedVar::Kind::Shared, V};
      },
      R->Code);

  SigView Key{R->Sig.data(), N, Hash};
  if (Fresh) {
    Table.emplace(Key, std::move(Fresh));
  } else {
    Spare.back().key() = Key;
    Table.insert(std::move(Spare.back()));
    Spare.pop_back();
  }
  // Newly registered predicates start parked; activate() revives them when
  // the first waiter arrives.
  park(R);
  return R;
}

void ConditionManager::park(Record *R) {
  R->ParkedPrev = ParkedTail;
  R->ParkedNext = nullptr;
  (ParkedTail ? ParkedTail->ParkedNext : ParkedHead) = R;
  ParkedTail = R;
}

void ConditionManager::unpark(Record *R) {
  (R->ParkedPrev ? R->ParkedPrev->ParkedNext : ParkedHead) = R->ParkedNext;
  (R->ParkedNext ? R->ParkedNext->ParkedPrev : ParkedTail) = R->ParkedPrev;
  R->ParkedPrev = R->ParkedNext = nullptr;
}

void ConditionManager::activate(Record *R) {
  if (R->Active)
    return;
  unpark(R);
  PhaseClock Clock(Stats.TagNs);
  if (Cfg.Policy == SignalPolicy::Tagged)
    for (const Tag &T : R->Tags)
      Index.add(T, R);
  AUTOSYNCH_CHECK(R->ActiveIdx == InvalidPos,
                  "inactive record still holds an active position");
  R->ActiveIdx = ActiveList.size();
  ActiveList.push_back(R);
  ++ActiveCount;
  R->Active = true;
}

void ConditionManager::deactivate(Record *R) {
  AUTOSYNCH_CHECK(R->Active, "deactivating an inactive record");
  AUTOSYNCH_CHECK(R->Waiters == 0, "deactivating a record with waiters");
  AUTOSYNCH_CHECK(R->PendingSignals == 0,
                  "deactivating a record with an in-flight signal");
  {
    PhaseClock Clock(Stats.TagNs);
    if (Cfg.Policy == SignalPolicy::Tagged)
      for (const Tag &T : R->Tags)
        Index.remove(T, R);
    size_t Pos = R->ActiveIdx;
    AUTOSYNCH_CHECK(Pos < ActiveList.size() && ActiveList[Pos] == R,
                    "record's active position is stale");
    ActiveList[Pos] = ActiveList.back();
    ActiveList[Pos]->ActiveIdx = Pos;
    ActiveList.pop_back();
    R->ActiveIdx = InvalidPos;
    --ActiveCount;
    R->Active = false;
    park(R);
  }
  evictIfNeeded();
}

void ConditionManager::evictIfNeeded() {
  // Least recently parked first. The parked list holds exactly the
  // table's inactive records.
  while (Table.size() - ActiveCount > Cfg.InactiveCacheLimit) {
    Record *R = ParkedHead;
    AUTOSYNCH_CHECK(R && !R->Active && R->Waiters == 0 &&
                        R->PendingSignals == 0,
                    "evicting a record in use");
    unpark(R);
    // Keep the record, condvar included, never destroy it here: a
    // deferred exit-wakeup may still be signaling it (see Spare).
    auto Node = Table.extract(SigView{R->Sig.data(), R->Sig.size(), R->Hash});
    AUTOSYNCH_CHECK(!Node.empty() && Node.mapped().get() == R,
                    "evicted record missing from the table");
    Spare.push_back(std::move(Node));
    ++Stats.Evictions;
  }
}

void ConditionManager::registerPredicate(ExprRef Pred) {
  AUTOSYNCH_CHECK(!isComplex(Pred, Syms),
                  "registerPredicate requires a shared predicate");
  CanonicalPredicate CP = canonicalizePredicate(Arena, Pred, Cfg.Limits);
  if (CP.D.isTrue() || CP.D.isFalse())
    return;
  std::vector<SigEntry> Sig = signatureOf(CP.D);
  bool Hit;
  lookupOrRegister(Sig.data(), Sig.size(), Hit);
  evictIfNeeded();
}

//===----------------------------------------------------------------------===//
// Relay signaling (§4.2)
//===----------------------------------------------------------------------===//

ConditionManager::Record *
ConditionManager::linearScanFindTrue(const VarSet &Dirty) {
  for (Record *R : ActiveList) {
    if (!Dirty.intersects(R->ReadSet)) {
      ++Stats.Search.FilteredExprs;
      continue;
    }
    ++Stats.Search.PredicateChecks;
    if (recordTrue(R))
      return R;
  }
  return nullptr;
}

ConditionManager::Record *
ConditionManager::taggedFindTrue(const VarSet &Dirty) {
  // The index counts every recordTrue call as a predicate check.
  return Index.findTrue(
      [&](ExprRef SharedExpr) { return eval(SharedExpr, SharedEnv).raw(); },
      [&](Record *R) { return recordTrue(R); }, &Stats.Search, &Dirty);
}

void ConditionManager::relayTimed(DeferredWake *Defer) {
  PhaseClock Clock(Stats.RelayNs);
  relay(Defer);
}

void ConditionManager::relaySearch(DeferredWake *Defer) {
  if (Cfg.Policy == SignalPolicy::Broadcast) {
    // Baseline: wake everyone; each waiter re-checks its own record.
    // Deliberately unfiltered — the baseline's behavior is a paper
    // comparison point and must stay bit-for-bit.
    if (TotalWaiters > 0) {
      if (Defer) {
        Defer->Cond = BroadcastCond.get();
        Defer->All = true;
      } else {
        BroadcastCond->signalAll();
      }
      ++Stats.BroadcastSignals;
    }
    return;
  }

  Record *R = Cfg.Policy == SignalPolicy::Tagged
                  ? taggedFindTrue(AccumDirty)
                  : linearScanFindTrue(AccumDirty);
  if (R) {
    // All bookkeeping happens here, under the lock, at pick time; only the
    // condvar notification itself may be deferred past the unlock. The
    // non-zero PendingSignals keeps the record alive (eviction refuses
    // records in use) until the signaled thread resumes. The dirty set
    // survives a successful pick: the scan stopped early, so unvisited
    // records may owe their (unknown) truth to the same writes.
    if (Defer)
      Defer->Cond = R->Cond.get();
    else
      R->Cond->signal();
    ++R->PendingSignals;
    ++PendingTotal;
    ++Stats.SignalsSent;
  } else {
    // Empty-handed scan: every active predicate is (re-)proven false
    // under the current state, so the accumulated dirt is discharged.
    AccumDirty.clear();
  }
}

//===----------------------------------------------------------------------===//
// Waiting (paper Fig. 6)
//===----------------------------------------------------------------------===//

/// Whether a timed wait's deadline has passed before it ever blocks: the
/// one clock read of a timed block loop. After that, awaitUntil's verdict
/// is authoritative (the kernel compared against the same monotonic
/// clock), so wakeups read no clock.
static bool deadlinePassedOnEntry(const ConditionManager::TimedWait *TW) {
  return TW && time::isBounded(TW->DeadlineNs) &&
         time::nowNs() >= TW->DeadlineNs;
}

bool ConditionManager::waitOnRecord(Record *R, TimedWait *TW) {
  // Broadcast parks every waiter on the one condition each signalAll
  // wakes; the relay policies park on the record's own.
  bool Bcast = Cfg.Policy == SignalPolicy::Broadcast;
  sync::Condition *Cond = Bcast ? BroadcastCond.get() : R->Cond.get();
  activate(R);
  ++R->Waiters;
  ++Stats.Waits;
  time::CancelScope Scope(TW ? TW->Token : nullptr, Cond);
  if (TW)
    ++Stats.TimedWaits;
  bool DeadlinePassed = deadlinePassedOnEntry(TW);

  bool Satisfied;
  bool Blocked = false;
  while (true) {
    if (recordTrue(R)) {
      Satisfied = true;
      break;
    }
    if (TW && (DeadlinePassed || Scope.cancelled())) {
      Satisfied = false;
      break;
    }
    // Maintain the invariance before blocking. Broadcast relays before its
    // first block only: a woken waiter that re-checks false has nothing
    // new to announce, and a signalAll per wakeup would ping-pong the
    // blocked waiters forever.
    if (!Bcast || !Blocked)
      relaySignal();
    if (!Blocked) {
      // Counted only after that relay, so Broadcast's first signalAll
      // (which only fires when someone waits) excludes the waiter itself.
      Blocked = true;
      ++TotalWaiters;
    } else {
      // Woken, re-checked false, and blocking again.
      ++Stats.FutileWakeups;
    }
    if (TW) {
      // Epoch after the relay, whose signalAll bumps it under Broadcast,
      // and the cancel flag re-checked after the capture: a cancel wake
      // that lands later bumps the epoch later, so awaitUntil returns
      // immediately (sync/Mutex.h on the closed lost-notify window).
      uint64_t Epoch = Cond->epoch();
      if (!Scope.cancelled())
        DeadlinePassed = Cond->awaitUntil(TW->DeadlineNs, Epoch);
    } else {
      Cond->await();
    }
    if (R->PendingSignals > 0) {
      --R->PendingSignals;
      --PendingTotal;
    }
  }

  if (TW && !Satisfied) {
    if (Scope.cancelled())
      ++Stats.Cancels;
    else
      ++Stats.Timeouts;
    // Baton passing: our wakeup may have consumed a directed signal
    // whose chain obligation we are abandoning; re-run the relay so a
    // thread whose predicate became true is still signaled. Broadcast
    // sends no directed signals, so it has no baton to pass.
    if (!Bcast)
      relaySignal();
  }

  --R->Waiters;
  if (Blocked)
    --TotalWaiters;
  if (R->Waiters == 0)
    deactivate(R);
  return Satisfied;
}

bool ConditionManager::await(ExprRef Pred, const Env &Locals,
                             const WaitKey &Key, TimedWait *TW) {
  const SigEntry *Sig = Key.Sig;
  size_t N = Key.N;
  std::vector<SigEntry> Keyless;
  if (!Sig) {
    // No key: globalize (§4.1) — the thread's locals are substituted so
    // every other thread can evaluate the predicate on our behalf — and
    // canonicalize, then key the result like any other route.
    PlanCounters::global().onLegacyWait();
    ExprRef G =
        isComplex(Pred, Syms) ? globalize(Arena, Pred, Syms, Locals) : Pred;
    CanonicalPredicate CP = canonicalizePredicate(Arena, G, Cfg.Limits);
    if (CP.D.isTrue()) // Canonicalization may prove it (x >= x).
      return true;
    AUTOSYNCH_CHECK(!CP.D.isFalse(),
                    "waituntil on an unsatisfiable predicate would never "
                    "return");
    Keyless = signatureOf(CP.D);
    Sig = Keyless.data();
    N = Keyless.size();
  }

  // A hit goes straight to the record: no interning, no allocation. A
  // miss registers from the signature's entries.
  bool Hit;
  Record *R = lookupOrRegister(Sig, N, Hit);
  if (Key.PlanBind) {
    if (Hit) {
      ++Stats.PlanBindHits;
      PlanCounters::global().onBindHit();
    } else {
      ++Stats.PlanColdBinds;
      PlanCounters::global().onColdBind();
    }
  }
  return waitOnRecord(R, TW);
}
