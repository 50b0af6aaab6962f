//===- core/ConditionManager.h - The AutoSynch condition manager -*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The condition manager (paper §5): it owns the predicate table, the
/// per-predicate condition variables, the tag indices, and the inactive
/// cache, and it implements the relay signaling rule (§4.2):
///
///   "When a thread exits a monitor or goes into waiting state, it checks
///    whether there is some thread waiting on a condition that has become
///    true. If at least one such waiting thread exists, it signals that
///    thread."
///
/// Relay invariance bookkeeping: PendingSignals counts signaled-but-not-yet
/// -resumed threads. Those threads are *active* by the paper's Definition 3
/// ("not waiting ... or has been signaled"), so while one is in flight the
/// relay scan is skipped — if the in-flight thread finds its predicate
/// falsified it re-runs the relay itself, preserving the invariance chain
/// of Proposition 2.
///
/// Dirty-set-directed relays: Monitor::writeSlot reports every
/// value-changing shared write to noteWrite(), which accumulates the
/// written VarIds in a dirty set. The invariant dirty-set relays rest on:
///
///   every active (waiter-holding) predicate whose read set does not
///   intersect the accumulated dirty set is false.
///
/// It holds because a scan that returns empty-handed has just (re-)proven
/// every active predicate false — only then is the dirty set cleared — and
/// a predicate over unchanged variables cannot change truth value. Two
/// consequences shape the code:
///
///  * A relay with an empty dirty set skips the search outright (the
///    read-only-exit fast path; Stats.RelayDirtySkips).
///  * A scan that *finds* a winner must NOT clear the dirty set: the scan
///    stopped early, so records it never reached may have been made true
///    by the same writes, and the relay chain (the winner re-relays on its
///    own exit) must still see them as suspect. For the same reason a
///    relay skipped because a signal is in flight (PendingTotal > 0) may
///    not clear or consume the set — the in-flight thread's later relay
///    inherits the accumulated dirt, so no write is ever dropped on the
///    floor between two scans.
///
/// A record the search does reach is checked by running its slot program
/// over the shared state: there is no cache of earlier verdicts.
///
/// All member functions require the monitor lock to be held by the caller
/// (the Monitor wrapper enforces this); the dirty set is guarded by that
/// lock. The relay's two skips that need no search (a signal in flight,
/// an empty dirty set) are inline, so a section that changes nothing pays
/// no call for its exit relay.
///
/// One wait path for every policy: await() binds (or registers) a record
/// and blocks in waitOnRecord(), which re-checks the record's compiled
/// canonical form after every wakeup. The Broadcast baseline differs only
/// in how a wait is signalled: every waiter blocks on one condition, each
/// relay is a signalAll, a waiter relays only before its first block, and
/// a waiter that leaves on timeout passes no baton.
///
/// Timed waits (the src/time/ deadline runtime): await takes an optional
/// TimedWait carrying a monotonic deadline and an optional CancelToken.
/// A timed waiter, whatever its deadline, blocks with a *bounded* condvar
/// wait (one absolute futex wait): the wait's own deadline is its expiry
/// tick, so expiry never depends on monitor traffic or a helper thread,
/// and exit paths pay nothing for timed waiters (no clock read, no timer
/// store). Two invariants keep this sound against the relay and dirty-set
/// machinery:
///
///  * Predicate-first: a waiter that observes its predicate true returns
///    true even if its deadline passed or its token fired concurrently —
///    a consumed directed signal is thereby *accepted*, never stolen.
///  * Baton passing (relay policies): a timed waiter that leaves
///    unsatisfied re-runs the relay before returning, because its wakeup
///    may have consumed (or pre-empted) a directed signal another thread
///    now deserves.
///
/// The relay does not know about deadlines: it may signal a waiter whose
/// deadline has just passed. That waiter checks its predicate first, so
/// it either takes the signal (true) or hands it on (baton passing).
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_CORE_CONDITIONMANAGER_H
#define AUTOSYNCH_CORE_CONDITIONMANAGER_H

#include "core/MonitorConfig.h"
#include "expr/Bytecode.h"
#include "expr/Env.h"
#include "expr/SigEntry.h"
#include "expr/SymbolTable.h"
#include "expr/VarSet.h"
#include "support/Compiler.h"
#include "sync/Counters.h"
#include "sync/Mutex.h"
#include "tag/TagIndex.h"
#include "time/CancelToken.h"
#include "time/Deadline.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace autosynch {

/// The per-monitor signaling statistics: the one record of a monitor's
/// relay, wait and timing counts. Plain fields guarded by the monitor
/// lock; a reader that wants a total sums the monitors it owns.
struct ManagerStats {
  uint64_t Waits = 0;         ///< await() calls that actually blocked.
  uint64_t FutileWakeups = 0; ///< Wakeups after which the waiter's
                              ///< predicate re-checked false and it
                              ///< blocked again (what signalAll wastes).
  uint64_t RelayCalls = 0;    ///< relaySignal() invocations.
  uint64_t RelaySkips = 0;    ///< Relays skipped (a signal was in flight).
  uint64_t RelayDirtySkips = 0; ///< Relays skipped: empty dirty set (no
                                ///< shared variable changed since the last
                                ///< empty-handed scan).
  uint64_t StampShortCircuits = 0; ///< Always 0: there are no version
                                   ///< stamps any more. Kept because
                                   ///< perfbench/ reads it.
  uint64_t SignalsSent = 0;   ///< Directed signals issued.
  uint64_t BroadcastSignals = 0; ///< signalAll calls (Broadcast policy).
  uint64_t TimedWaits = 0;    ///< Timed waits that reached the blocking
                              ///< path (already-true fast paths excluded).
  uint64_t Timeouts = 0;      ///< Timed waits that returned false because
                              ///< their deadline passed.
  uint64_t Cancels = 0;       ///< Waits aborted through a CancelToken.
  uint64_t WheelWakeups = 0;  ///< Always 0: there is no timer wheel any
                              ///< more. Kept because perfbench/ reads
                              ///< it.
  uint64_t Registrations = 0; ///< Predicates added to the table.
  uint64_t CacheReuses = 0;   ///< Predicates revived from the inactive cache.
  uint64_t Evictions = 0;     ///< Predicates evicted from the cache.
  uint64_t PlanBindHits = 0;  ///< Slotted-plan signatures that found
                              ///< their record in the predicate table.
  uint64_t PlanColdBinds = 0; ///< Slotted-plan signatures that did not
                              ///< (registered from the signature).
  /// Time in relaySignal() and in tag management (activate and
  /// deactivate), taken only while the sync layer's timing switch is on
  /// (sync::Counters::enableTiming; Table 1).
  uint64_t RelayNs = 0;
  uint64_t TagNs = 0;
  TagSearchStats Search;      ///< Relay search work; records pruned by
                              ///< read-set intersection with the dirty set
                              ///< count in Search.FilteredExprs.

  ManagerStats &operator+=(const ManagerStats &R) {
    Waits += R.Waits;
    FutileWakeups += R.FutileWakeups;
    RelayCalls += R.RelayCalls;
    RelaySkips += R.RelaySkips;
    RelayDirtySkips += R.RelayDirtySkips;
    StampShortCircuits += R.StampShortCircuits;
    SignalsSent += R.SignalsSent;
    BroadcastSignals += R.BroadcastSignals;
    TimedWaits += R.TimedWaits;
    Timeouts += R.Timeouts;
    Cancels += R.Cancels;
    WheelWakeups += R.WheelWakeups;
    Registrations += R.Registrations;
    CacheReuses += R.CacheReuses;
    Evictions += R.Evictions;
    PlanBindHits += R.PlanBindHits;
    PlanColdBinds += R.PlanColdBinds;
    RelayNs += R.RelayNs;
    TagNs += R.TagNs;
    Search += R.Search;
    return *this;
  }
};

/// A wakeup picked under the monitor lock but issued after it is released
/// (Monitor::exit), so the signaled thread does not immediately block on
/// the mutex the signaler still holds.
struct DeferredWake {
  sync::Condition *Cond = nullptr;
  bool All = false;

  /// Issues the wakeup (no-op when nothing was picked). Call WITHOUT the
  /// monitor lock.
  void fire() {
    if (!Cond)
      return;
    if (All)
      Cond->signalAll();
    else
      Cond->signal();
  }
};

/// The per-monitor condition manager.
class ConditionManager {
public:
  /// One in-flight timed (or cancellable) wait, passed to await:
  /// DeadlineNs is absolute monotonic (time::nowNs domain), and
  /// time::NeverNs plus a token expresses a cancellation-only wait.
  struct TimedWait {
    uint64_t DeadlineNs = time::NeverNs;
    time::CancelToken *Token = nullptr;
  };

  /// \p SharedEnv must resolve every Shared-scoped variable of \p Syms and
  /// reflect the monitor's current state on each call (the Monitor's slot
  /// environment does); \p Slots is the raw backing array of the same
  /// state, indexed by VarId, for the allocation-free compiled-eval path.
  /// All references must outlive the manager.
  ConditionManager(sync::Mutex &MonitorLock, ExprArena &Arena,
                   SymbolTable &Syms, const Env &SharedEnv,
                   const std::vector<Value> &Slots,
                   const MonitorConfig &Cfg);
  ~ConditionManager();
  ConditionManager(const ConditionManager &) = delete;
  ConditionManager &operator=(const ConditionManager &) = delete;

  /// What a blocking wait is keyed by in the predicate table: the
  /// signature of a Ground plan (computed at plan build), a Slotted plan's
  /// resolved signature (WaitPlan::resolve status Resolved; \p PlanBind
  /// set, so the lookup counts as a bind hit or a cold bind), or nothing
  /// (shapes without a plan key and key overflow). Sig may point into
  /// the monitor's resolve scratch, so it is read only until the wait
  /// first releases the lock.
  struct WaitKey {
    const SigEntry *Sig = nullptr;
    size_t N = 0;
    bool PlanBind = false;
  };

  /// Blocks the calling thread until \p Pred (which may mention local
  /// variables bound in \p Locals) holds; the wait of the paper's Fig. 6,
  /// under every policy. The caller has already checked that \p Pred is
  /// false right now. A \p Key that hits the table goes straight to the
  /// record — zero interning, zero allocation — and a key that misses
  /// registers its record straight from the signature's entries. Without
  /// a key, \p Pred is globalized over \p Locals (§4.1) and canonicalized,
  /// and its signature (signatureOf) is looked up or registered the same
  /// way.
  ///
  /// Monitor lock must be held; it is released while blocked and re-held on
  /// return. Fatal error if the predicate is canonically unsatisfiable
  /// (the wait could never finish — timed waits included: a deadline bounds
  /// waiting for a *possible* condition, it does not legalize an impossible
  /// one).
  ///
  /// With \p TW null this is the classic unbounded wait and always returns
  /// true. With \p TW set, returns true iff the predicate was observed
  /// true, false on deadline expiry or cancellation (predicate-first: see
  /// the file comment).
  bool await(ExprRef Pred, const Env &Locals, const WaitKey &Key,
             TimedWait *TW = nullptr);

  /// The relay signaling rule; called on monitor exit and before blocking.
  /// With \p Defer null the winning record is signaled immediately (the
  /// pre-block relay, where the caller is about to release the lock by
  /// waiting anyway); otherwise the pick is recorded in \p Defer and the
  /// caller fires it after releasing the monitor lock. While the sync
  /// layer's timing switch is on, the whole relay is timed into
  /// Stats.RelayNs.
  void relaySignal(DeferredWake *Defer = nullptr) {
    if (AUTOSYNCH_UNLIKELY(sync::Counters::global().timingEnabled())) {
      relayTimed(Defer);
      return;
    }
    relay(Defer);
  }

  /// Eagerly registers \p Pred (no waiting), mirroring the paper's
  /// constructor-time registration of static shared predicates (Fig. 5).
  /// The predicate starts in the inactive cache and is revived on first
  /// wait. Predicates that canonicalize to true/false are ignored.
  void registerPredicate(ExprRef Pred);

  /// Records that shared variable \p Id changed value: unions it into the
  /// relay dirty set. Called by Monitor::writeSlot under the monitor lock.
  void noteWrite(VarId Id) { AccumDirty.add(Id); }

  //===--------------------------------------------------------------------===//
  // Introspection
  //===--------------------------------------------------------------------===//

  const ManagerStats &stats() const { return Stats; }
  void resetStats() { Stats = ManagerStats(); }

  /// Registered predicates (active + inactive).
  size_t numRegistered() const { return Table.size(); }
  /// Predicates with at least one waiter (tags registered in the index).
  size_t numActive() const { return ActiveCount; }
  /// Parked predicates available for reuse.
  size_t inactiveCacheSize() const { return Table.size() - ActiveCount; }
  /// Threads currently blocked in await().
  int numWaiters() const { return TotalWaiters; }
  /// Signals issued whose target has not resumed yet.
  int pendingSignals() const { return PendingTotal; }

private:
  static constexpr size_t InvalidPos = static_cast<size_t>(-1);

  /// One registered (globalized, canonicalized) predicate. Everything but
  /// the condition variable is rebuilt from the signature on registration;
  /// evicted records are recycled whole (see Spare).
  struct Record {
    /// The predicate's finished signature: its identity, and the storage
    /// the table's key views.
    std::vector<SigEntry> Sig;
    /// hashSignature(Sig): the table key's hash, computed once.
    size_t Hash = 0;
    std::vector<Tag> Tags;
    std::unique_ptr<sync::Condition> Cond;
    CompiledPredicate Code;
    /// Shared variables the predicate reads; intersected with the dirty
    /// set to prune the relay search.
    VarSet ReadSet;
    int Waiters = 0;
    int PendingSignals = 0;
    bool Active = false;
    /// Intrusive links of the parked list (valid while !Active).
    Record *ParkedPrev = nullptr;
    Record *ParkedNext = nullptr;
    /// Intrusive position in ActiveList (InvalidPos when inactive); no
    /// side-table hashing on activate/deactivate.
    size_t ActiveIdx = InvalidPos;
    /// Intrusive position in the tag index's None list (see TagIndex).
    size_t NoneIdx = InvalidPos;
  };

  /// A table key: a view of the owning record's Sig, with its hash.
  struct SigView {
    const SigEntry *P;
    size_t N;
    size_t Hash;
  };
  struct SigHash {
    size_t operator()(const SigView &V) const { return V.Hash; }
  };
  struct SigEq {
    bool operator()(const SigView &A, const SigView &B) const {
      return A.N == B.N && std::equal(A.P, A.P + A.N, B.P);
    }
  };
  using RecordTable =
      std::unordered_map<SigView, std::unique_ptr<Record>, SigHash, SigEq>;

  /// FNV-1a over a signature's entries.
  static size_t hashSignature(const SigEntry *Sig, size_t N);

  /// Appends \p R (inactive, not parked) to the parked list: kept for
  /// reuse, evicted when it reaches the head.
  void park(Record *R);
  /// Takes parked \p R off the parked list.
  void unpark(Record *R);

  /// The record keyed by signature \p Sig (\p N entries), registered on a
  /// miss; \p Hit tells which. A hit on a parked record counts as a
  /// cache reuse.
  Record *lookupOrRegister(const SigEntry *Sig, size_t N, bool &Hit);
  /// Registers the predicate \p Sig denotes (absent from the table;
  /// \p Hash is its hashSignature): a recycled record when one is spare.
  /// Starts parked.
  Record *registerRecord(const SigEntry *Sig, size_t N, size_t Hash);
  void activate(Record *R);
  void deactivate(Record *R);
  void evictIfNeeded();

  /// The blocking loop of every policy: activate, relay-and-wait until the
  /// record's predicate holds (or, with \p TW, the deadline/token fires),
  /// deactivate when the last waiter leaves. Returns false only for a
  /// timed wait that left unsatisfied.
  bool waitOnRecord(Record *R, TimedWait *TW);

  /// Full predicate check under the current shared state.
  bool recordTrue(Record *R);

  /// relaySignal() untimed. The skips that need no search are inline; the
  /// Broadcast signal and the search are not.
  void relay(DeferredWake *Defer) {
    ++Stats.RelayCalls;
    if (Cfg.Policy != SignalPolicy::Broadcast) {
      // A signaled thread that has not resumed yet is active (Definition
      // 3); relay invariance already holds, and that thread will re-relay
      // if its predicate has been falsified in the meantime. The dirty
      // set is left untouched: the in-flight thread's relay must still
      // see these writes.
      if (PendingTotal > 0) {
        ++Stats.RelaySkips;
        return;
      }
      // Nothing changed since the last empty-handed scan proved every
      // active predicate false — the read-only-exit fast path: no shared-
      // expression evaluation, no predicate check, no heap visit.
      if (AccumDirty.empty()) {
        ++Stats.RelayDirtySkips;
        return;
      }
    }
    relaySearch(Defer);
  }
  /// relay() timed into Stats.RelayNs (Table 1).
  void relayTimed(DeferredWake *Defer);
  /// The Broadcast policy's signalAll, or the relay policies' search for
  /// a true record and its signal.
  void relaySearch(DeferredWake *Defer);

  /// Relay search under the LinearScan policy: evaluate active predicates
  /// one by one, skipping those \p Dirty proves unchanged-false.
  Record *linearScanFindTrue(const VarSet &Dirty);

  /// Relay search under the Tagged policy (TagIndex::findTrue), restricted
  /// to predicates whose read sets intersect \p Dirty.
  Record *taggedFindTrue(const VarSet &Dirty);

  sync::Mutex &MonitorLock;
  ExprArena &Arena;
  SymbolTable &Syms;
  const Env &SharedEnv;
  const std::vector<Value> &Slots;
  MonitorConfig Cfg;

  /// Predicate table (§5.2): signature -> record, for every route to a
  /// record (plan binds, Ground plans, keyless waits, registerPredicate).
  /// Equal signatures are syntax-equivalent ground predicates.
  RecordTable Table;

  /// Evicted records, still owned by their table nodes, recycled whole by
  /// registerRecord: node, vector capacities, and condition variable.
  /// Nothing here is destroyed before the manager itself: a deferred
  /// wakeup (Monitor::exit signals after the unlock) may still be in
  /// flight for a record whose waiter already resumed — consuming the
  /// pending-signal accounting and allowing eviction — so destroying the
  /// condvar there would race the signal. Keeping it instead makes the
  /// late signal a legal spurious wakeup for whichever predicate reuses
  /// the record.
  std::vector<RecordTable::node_type> Spare;

  /// Tag indices (Tagged policy).
  TagIndex<Record> Index;

  /// Active records, for the LinearScan policy and diagnostics.
  std::vector<Record *> ActiveList;
  size_t ActiveCount = 0;

  /// The inactive cache in parking order, oldest first: an intrusive list
  /// through the records (Record::ParkedPrev/ParkedNext), so parking and
  /// reviving allocate nothing. It holds exactly the table's inactive
  /// records.
  Record *ParkedHead = nullptr;
  Record *ParkedTail = nullptr;

  /// The one condition every Broadcast waiter blocks on.
  std::unique_ptr<sync::Condition> BroadcastCond;

  /// Threads blocked in waitOnRecord, counted from their first block.
  int TotalWaiters = 0;
  int PendingTotal = 0;

  /// Variables written since the last empty-handed relay scan (guarded by
  /// the monitor lock). See the file comment for the invariant.
  VarSet AccumDirty;

  ManagerStats Stats;
};

} // namespace autosynch

#endif // AUTOSYNCH_CORE_CONDITIONMANAGER_H
