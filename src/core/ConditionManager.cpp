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
#include "time/FallbackTicker.h"

#include <bit>

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
      SharedEnv(SharedEnv), Slots(Slots), Cfg(Cfg),
      Timers(Cfg.EnablePhaseTimers) {
  if (Cfg.Policy == SignalPolicy::Broadcast)
    BroadcastCond = MonitorLock.newCondition();
}

size_t ConditionManager::SigHash::operator()(const SigView &V) const {
  // FNV-1a over the entry fields.
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](uint64_t X) {
    H ^= X;
    H *= 1099511628211ull;
  };
  for (size_t I = 0; I != V.N; ++I) {
    Mix(reinterpret_cast<uintptr_t>(V.P[I].P));
    Mix(V.P[I].Kind);
    Mix(static_cast<uint64_t>(V.P[I].K));
  }
  return static_cast<size_t>(H);
}

ConditionManager::~ConditionManager() {
  AUTOSYNCH_CHECK(TotalWaiters == 0,
                  "destroying a monitor with blocked waiters");
  flushRelayCounters();
}

void ConditionManager::flushRelayCounters() {
  sync::RelayCountersSnapshot Cur{Stats.RelayCalls, Stats.RelayDirtySkips,
                                  Stats.Search.FilteredExprs,
                                  Stats.StampShortCircuits};
  sync::RelayCounters::global().add(Cur - FlushedRelay);
  FlushedRelay = Cur;
  // The deadline-runtime totals ride the same batching cadence.
  sync::TimedCountersSnapshot Timed{Stats.TimedWaits, Stats.Timeouts,
                                    Stats.Cancels};
  sync::TimedCounters::global().add(Timed - FlushedTimed);
  FlushedTimed = Timed;
}

//===----------------------------------------------------------------------===//
// Predicate evaluation
//===----------------------------------------------------------------------===//

uint64_t ConditionManager::readSetVersion(const VarSet &S) const {
  if (S.universal())
    return GlobalVersion;
  uint64_t V = 0;
  for (uint64_t M = S.mask(); M != 0; M &= M - 1) {
    auto B = static_cast<size_t>(std::countr_zero(M));
    if (B < SlotVersions.size() && SlotVersions[B] > V)
      V = SlotVersions[B];
  }
  return V;
}

bool ConditionManager::recordTrue(Record *R) {
  // Predicates are pure functions of the shared slots, so an unchanged
  // read-set version means an unchanged truth value: a current false-stamp
  // answers without touching the bytecode.
  uint64_t Ver = readSetVersion(R->ReadSet);
  if (R->StampValid && R->FalseVersion == Ver) {
    ++Stats.StampShortCircuits;
    return false;
  }
  // The slot program reads the monitor's shared state straight out of the
  // backing array — no virtual Env dispatch on the relay hot path.
  bool True = R->Code.runRawBool(Slots.data(), nullptr);
  R->StampValid = !True;
  R->FalseVersion = Ver;
  return True;
}

//===----------------------------------------------------------------------===//
// Registration, activation, and the inactive cache (§5.2)
//===----------------------------------------------------------------------===//

ConditionManager::Record *
ConditionManager::lookupOrRegister(const SigEntry *Sig, size_t N,
                                   bool &Hit) {
  auto It = Table.find(SigView{Sig, N});
  Hit = It != Table.end();
  if (!Hit)
    return registerRecord(Sig, N);
  Record *R = It->second.get();
  if (!R->Active)
    ++Stats.CacheReuses;
  return R;
}

ConditionManager::Record *
ConditionManager::registerRecord(const SigEntry *Sig, size_t N) {
  ++Stats.Registrations;
  std::unique_ptr<Record> Fresh;
  Record *R;
  if (!Spare.empty()) {
    // Evicted records come back with their waiter/signal counts at zero
    // (eviction checks it) and out of every list and index.
    R = Spare.back().mapped().get();
    R->StampValid = false;
    R->FalseVersion = 0;
    R->ReadSet.clear();
  } else {
    Fresh = std::make_unique<Record>();
    Fresh->Cond = MonitorLock.newCondition();
    R = Fresh.get();
  }
  // Everything else comes straight from the entries: no expression is
  // built, nothing is interned or canonicalized again.
  R->Sig.assign(Sig, Sig + N);
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

  SigView Key{R->Sig.data(), N};
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
  R->LastUse = ++UseTick;
  if (!R->InQueue) {
    InactiveQueue.push_back(R);
    R->InQueue = true;
  }
}

void ConditionManager::activate(Record *R) {
  if (R->Active)
    return;
  // Revival invalidates the false-stamp: cheap (one eval on the next
  // check), and it keeps "stamps are only trusted on records that stayed
  // active" a local invariant instead of a whole-lifecycle proof.
  R->StampValid = false;
  uint64_t T0 = Timers.start();
  if (Cfg.Policy == SignalPolicy::Tagged)
    for (const Tag &T : R->Tags)
      Index.add(T, R);
  AUTOSYNCH_CHECK(R->ActiveIdx == InvalidPos,
                  "inactive record still holds an active position");
  R->ActiveIdx = ActiveList.size();
  ActiveList.push_back(R);
  ++ActiveCount;
  R->Active = true;
  Timers.stop(PhaseTimers::TagMgmt, T0);
}

void ConditionManager::deactivate(Record *R) {
  AUTOSYNCH_CHECK(R->Active, "deactivating an inactive record");
  AUTOSYNCH_CHECK(R->Waiters == 0, "deactivating a record with waiters");
  AUTOSYNCH_CHECK(R->PendingSignals == 0,
                  "deactivating a record with an in-flight signal");
  uint64_t T0 = Timers.start();
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
  Timers.stop(PhaseTimers::TagMgmt, T0);
  evictIfNeeded();
}

void ConditionManager::evictIfNeeded() {
  // Oldest-first eviction. A queue entry is stale when its record was
  // revived after parking; such records are skipped (they re-enter the
  // queue when they park again).
  while (Table.size() - ActiveCount > Cfg.InactiveCacheLimit &&
         !InactiveQueue.empty()) {
    Record *R = InactiveQueue.front();
    InactiveQueue.pop_front();
    R->InQueue = false;
    if (R->Active)
      continue; // Revived while queued.
    AUTOSYNCH_CHECK(R->Waiters == 0 && R->PendingSignals == 0,
                    "evicting a record in use");
    // Keep the record, condvar included, never destroy it here: a
    // deferred exit-wakeup may still be signaling it (see Spare).
    auto Node = Table.extract(SigView{R->Sig.data(), R->Sig.size()});
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

void ConditionManager::relaySignal(DeferredWake *Defer) {
  uint64_t T0 = Timers.start();
  // The process-wide counters are fed in batches, not per exit: a shared
  // fetch_add here would put cross-monitor cache-line contention on the
  // very path the dirty skip makes cheap.
  if ((++Stats.RelayCalls & 63) == 0)
    flushRelayCounters();

  if (Cfg.Policy == SignalPolicy::Broadcast) {
    // Baseline: wake everyone; each waiter re-evaluates its own predicate.
    // Deliberately unfiltered — the baseline's behavior is a paper
    // comparison point and must stay bit-for-bit.
    if (BroadcastWaiters > 0) {
      if (Defer) {
        Defer->Cond = BroadcastCond.get();
        Defer->All = true;
      } else {
        BroadcastCond->signalAll();
      }
      ++Stats.BroadcastSignals;
    }
    Timers.stop(PhaseTimers::Relay, T0);
    return;
  }

  // A signaled thread that has not resumed yet is active (Definition 3);
  // relay invariance already holds, and that thread will re-relay if its
  // predicate has been falsified in the meantime. The dirty set is left
  // untouched: the in-flight thread's relay must still see these writes.
  if (PendingTotal > 0) {
    ++Stats.RelaySkips;
    Timers.stop(PhaseTimers::Relay, T0);
    return;
  }

  if (AccumDirty.empty()) {
    // Nothing changed since the last empty-handed scan proved every
    // active predicate false — the read-only-exit fast path: no shared-
    // expression evaluation, no predicate check, no heap visit.
    ++Stats.RelayDirtySkips;
    Timers.stop(PhaseTimers::Relay, T0);
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
  Timers.stop(PhaseTimers::Relay, T0);
}

//===----------------------------------------------------------------------===//
// Waiting (paper Fig. 6)
//===----------------------------------------------------------------------===//

bool ConditionManager::awaitBroadcast(ExprRef Pred, const Env &Locals,
                                      TimedWait *TW) {
  OverlayEnv Combined(Locals, SharedEnv);
  // Broadcast timed waits never park in the fallback ticker: signalAll on
  // every exit already wakes them, and their bounded block is its own
  // expiry tick. The token still needs the registration handshake for a
  // wake that races the final flag check (see time/CancelToken.h).
  time::CancelScope Scope(TW ? TW->Token : nullptr, BroadcastCond.get());
  if (TW)
    ++Stats.TimedWaits; // On entry, like waitOnRecord: a wait that dies
                        // at its first deadline check still counts, so
                        // Timeouts <= TimedWaits holds for every policy.
  bool Waited = false;
  // The caller saw the predicate false under the lock, so the loop checks
  // it only after each wakeup.
  while (true) {
    if (TW) {
      if (Scope.cancelled()) {
        ++Stats.Cancels;
        return false;
      }
      if (time::isBounded(TW->deadlineNs()) &&
          time::nowNs() >= TW->deadlineNs()) {
        ++Stats.Timeouts;
        return false;
      }
    }
    if (!Waited) {
      Waited = true;
      ++Stats.Waits;
      // The classic pre-block relay: the region may have changed state
      // before this wait, and the broadcast policy's only bookkeeping is
      // "wake everyone". First iteration only — a woken waiter that
      // re-evaluates false has nothing new to announce, and under
      // epoch-counted (loss-free) timed waits a per-iteration signalAll
      // would ping-pong blocked waiters forever.
      relaySignal();
    }
    ++BroadcastWaiters;
    ++TotalWaiters;
    uint64_t T0 = Timers.start();
    if (TW) {
      // Epoch after every gen-bumping step above and cancel re-checked
      // after the capture: a flag set later necessarily bumps the epoch
      // later, so the bounded wait returns immediately (see
      // sync/Mutex.h on the closed lost-notify window).
      uint64_t Epoch = BroadcastCond->epoch();
      if (!Scope.cancelled())
        BroadcastCond->awaitUntil(TW->deadlineNs(), Epoch);
    } else {
      BroadcastCond->await();
    }
    Timers.stop(PhaseTimers::Await, T0);
    --BroadcastWaiters;
    --TotalWaiters;
    if (evalBool(Pred, Combined))
      return true; // Predicate-first, even past the deadline.
  }
}

bool ConditionManager::waitOnRecord(Record *R, TimedWait *TW) {
  activate(R);
  ++R->Waiters;
  ++TotalWaiters;
  ++Stats.Waits;
  time::CancelScope Scope(TW ? TW->Token : nullptr, R->Cond.get());
  bool Far = false;
  // Near deadlines are detected by the bounded block itself (awaitUntil's
  // verdict is authoritative: the kernel compared against the same
  // monotonic clock), so the near loop needs no per-wakeup clock read —
  // only this entry check, for waits whose deadline already passed before
  // ever blocking. Far deadlines (beyond time::FarHorizonNs) block
  // *unbounded* under the epoch handshake and lean on the process-wide
  // fallback tick for their expiry wake: one armed kernel timer for every
  // far wait in the process, instead of one per block.
  bool DeadlinePassed = false;
  if (TW) {
    ++Stats.TimedWaits;
    if (time::isBounded(TW->deadlineNs())) {
      uint64_t Now = time::nowNs();
      DeadlinePassed = Now >= TW->deadlineNs();
      if (!DeadlinePassed && TW->deadlineNs() - Now > time::FarHorizonNs) {
        TW->FarN.Cond = R->Cond.get();
        TW->FarN.DeadlineNs = TW->deadlineNs();
        time::FallbackTicker::global().add(TW->FarN);
        Far = true;
      }
    }
  }

  bool Satisfied;
  while (true) {
    if (recordTrue(R)) {
      Satisfied = true;
      break;
    }
    uint64_t Epoch = 0;
    if (TW) {
      // Epoch before the flag checks: a cancel or expiry wake that lands
      // after this line bumps it, and awaitUntil then returns
      // immediately — the lost-notify window is closed (sync/Mutex.h).
      Epoch = R->Cond->epoch();
      if (Far)
        DeadlinePassed = time::nowNs() >= TW->deadlineNs();
      if (DeadlinePassed || Scope.cancelled()) {
        Satisfied = false;
        break;
      }
    }
    relaySignal(); // Maintain the invariance before blocking.
    uint64_t T0 = Timers.start();
    if (TW) {
      // Far waits pass the unbounded sentinel: no kernel timer; the
      // fallback tick (or any relay/cancel wake) ends the block.
      bool V = R->Cond->awaitUntil(
          Far ? time::NeverNs : TW->deadlineNs(), Epoch);
      DeadlinePassed = DeadlinePassed || V;
    } else {
      R->Cond->await();
    }
    Timers.stop(PhaseTimers::Await, T0);
    if (R->PendingSignals > 0) {
      --R->PendingSignals;
      --PendingTotal;
    }
  }

  if (TW) {
    if (Far)
      time::FallbackTicker::global().remove(TW->FarN);
    if (!Satisfied) {
      if (Scope.cancelled())
        ++Stats.Cancels;
      else
        ++Stats.Timeouts;
      // Baton passing: our wakeup may have consumed a directed signal
      // whose chain obligation we are abandoning; re-run the relay so a
      // thread whose predicate became true is still signaled.
      relaySignal();
    }
  }

  --R->Waiters;
  --TotalWaiters;
  if (R->Waiters == 0)
    deactivate(R);
  return Satisfied;
}

bool ConditionManager::await(ExprRef Pred, const Env &Locals,
                             const WaitKey &Key, TimedWait *TW) {
  AUTOSYNCH_CHECK(Cfg.Policy != SignalPolicy::Broadcast,
                  "Broadcast waits go through awaitBroadcast");
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
