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
/// written VarIds in a dirty set and bumps a per-variable version counter.
/// The invariant dirty-set relays rest on:
///
///   every active (waiter-holding) predicate whose read set does not
///   intersect the accumulated dirty set is false.
///
/// It holds because a scan that returns empty-handed has just (re-)proven
/// every active predicate false — only then is the dirty set cleared — and
/// a predicate over unchanged variables cannot change truth value. Three
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
///  * Version stamps piggyback on the same counters: recordTrue() stamps a
///    record with the newest version among its read set whenever it
///    evaluates false, and later checks answer "still false" without
///    running the bytecode while that stamp is current
///    (Stats.StampShortCircuits). Stamps are discarded on (re)activation
///    and on re-registration of a recycled record, so cache churn can
///    never resurrect a stale proof.
///
/// All member functions require the monitor lock to be held by the caller
/// (the Monitor wrapper enforces this); the dirty set, version counters,
/// and stamps are all guarded by that lock.
///
/// Timed waits (the src/time/ deadline runtime): await and awaitBroadcast
/// take an optional TimedWait carrying a monotonic deadline and an
/// optional CancelToken. A blocked near-deadline waiter blocks with a
/// *bounded* condvar wait: the wait's own deadline is its expiry tick, so
/// expiry never depends on monitor traffic, and exit paths pay nothing
/// for timed waiters (no clock read, no timer store). A far-deadline
/// waiter blocks unbounded and parks in the process-wide fallback ticker
/// (time/FallbackTicker.h), which wakes it at its deadline. Two
/// invariants keep this sound against the relay and dirty-set machinery:
///
///  * Predicate-first: a waiter that observes its predicate true returns
///    true even if its deadline passed or its token fired concurrently —
///    a consumed directed signal is thereby *accepted*, never stolen.
///  * Baton passing: a timed waiter that leaves unsatisfied re-runs the
///    relay before returning, because its wakeup may have consumed (or
///    pre-empted) a directed signal another thread now deserves.
///
/// The relay does not know about deadlines: it may signal a waiter whose
/// deadline has just passed. That waiter checks its predicate first, so
/// it either takes the signal (true) or hands it on (baton passing).
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_CORE_CONDITIONMANAGER_H
#define AUTOSYNCH_CORE_CONDITIONMANAGER_H

#include "core/MonitorConfig.h"
#include "core/PhaseTimers.h"
#include "expr/Bytecode.h"
#include "expr/Env.h"
#include "expr/SigEntry.h"
#include "expr/SymbolTable.h"
#include "expr/VarSet.h"
#include "sync/Counters.h"
#include "sync/Mutex.h"
#include "tag/TagIndex.h"
#include "time/CancelToken.h"
#include "time/FallbackTicker.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

namespace autosynch {

/// Aggregate signaling statistics, exposed to tests and benches.
struct ManagerStats {
  uint64_t Waits = 0;         ///< await() calls that actually blocked.
  uint64_t RelayCalls = 0;    ///< relaySignal() invocations.
  uint64_t RelaySkips = 0;    ///< Relays skipped (a signal was in flight).
  uint64_t RelayDirtySkips = 0; ///< Relays skipped: empty dirty set (no
                                ///< shared variable changed since the last
                                ///< empty-handed scan).
  uint64_t StampShortCircuits = 0; ///< recordTrue() answers proven by the
                                   ///< version stamp without evaluating.
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
  TagSearchStats Search;      ///< Relay search work; records pruned by
                              ///< read-set intersection with the dirty set
                              ///< count in Search.FilteredExprs.
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
  /// One in-flight timed (or cancellable) wait: a stack-allocated record
  /// the blocking thread passes to await or awaitBroadcast. Deadline
  /// semantics: DeadlineNs is absolute monotonic (time::nowNs domain);
  /// time::NeverNs plus a token expresses a cancellation-only wait.
  struct TimedWait {
    TimedWait(uint64_t DeadlineNs, time::CancelToken *Token)
        : DeadlineNs(DeadlineNs), Token(Token) {}

    uint64_t DeadlineNs;
    /// Far-deadline parking slot (time/FallbackTicker.h), used when the
    /// deadline is beyond time::FarHorizonNs.
    time::FarNode FarN;
    time::CancelToken *Token = nullptr;

    uint64_t deadlineNs() const { return DeadlineNs; }
    bool cancelled() const { return Token && Token->cancelled(); }
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
  /// (shapes without a plan key and key overflow).
  struct WaitKey {
    const SigEntry *Sig = nullptr;
    size_t N = 0;
    bool PlanBind = false;
  };

  /// Blocks the calling thread until \p Pred (which may mention local
  /// variables bound in \p Locals) holds; the Tagged/LinearScan wait of
  /// the paper's Fig. 6. The caller has already checked that \p Pred is
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

  /// The Broadcast policy's wait: no registration; relay once before the
  /// first block, then re-evaluate \p Pred after every signalAll. The
  /// caller has already checked that \p Pred is false right now. Lock and
  /// TimedWait semantics as await().
  bool awaitBroadcast(ExprRef Pred, const Env &Locals,
                      TimedWait *TW = nullptr);

  /// The relay signaling rule; called on monitor exit and before blocking.
  /// With \p Defer null the winning record is signaled immediately (the
  /// pre-block relay, where the caller is about to release the lock by
  /// waiting anyway); otherwise the pick is recorded in \p Defer and the
  /// caller fires it after releasing the monitor lock.
  void relaySignal(DeferredWake *Defer = nullptr);

  /// Eagerly registers \p Pred (no waiting), mirroring the paper's
  /// constructor-time registration of static shared predicates (Fig. 5).
  /// The predicate starts in the inactive cache and is revived on first
  /// wait. Predicates that canonicalize to true/false are ignored.
  void registerPredicate(ExprRef Pred);

  /// Records that shared variable \p Id changed value: unions it into the
  /// relay dirty set and bumps its version counter. Called by
  /// Monitor::writeSlot under the monitor lock; a no-op under the
  /// Broadcast policy.
  void noteWrite(VarId Id) {
    if (Cfg.Policy == SignalPolicy::Broadcast)
      return;
    ++GlobalVersion;
    if (Id >= SlotVersions.size())
      SlotVersions.resize(Id + 1, 0);
    SlotVersions[Id] = GlobalVersion;
    AccumDirty.add(Id);
  }

  //===--------------------------------------------------------------------===//
  // Introspection
  //===--------------------------------------------------------------------===//

  const ManagerStats &stats() const { return Stats; }
  void resetStats() {
    flushRelayCounters(); // Keep the process-wide totals exact.
    Stats = ManagerStats();
    FlushedRelay = sync::RelayCountersSnapshot();
    FlushedTimed = sync::TimedCountersSnapshot();
  }

  PhaseTimers &timers() { return Timers; }

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
    std::vector<Tag> Tags;
    std::unique_ptr<sync::Condition> Cond;
    CompiledPredicate Code;
    /// Shared variables the predicate reads; intersected with the dirty
    /// set to prune the relay search.
    VarSet ReadSet;
    /// Version-stamp of the last false evaluation: while no read-set
    /// variable has a newer version, the predicate is still false and
    /// recordTrue() answers without running the bytecode. Invalidated on
    /// activation (StampValid = false).
    uint64_t FalseVersion = 0;
    bool StampValid = false;
    int Waiters = 0;
    int PendingSignals = 0;
    bool Active = false;
    /// Whether the record has an entry in InactiveQueue (at most one).
    bool InQueue = false;
    uint64_t LastUse = 0;
    /// Intrusive position in ActiveList (InvalidPos when inactive); no
    /// side-table hashing on activate/deactivate.
    size_t ActiveIdx = InvalidPos;
    /// Intrusive position in the tag index's None list (see TagIndex).
    size_t NoneIdx = InvalidPos;
  };

  /// A table key: a view of the owning record's Sig.
  struct SigView {
    const SigEntry *P;
    size_t N;
  };
  struct SigHash {
    size_t operator()(const SigView &V) const;
  };
  struct SigEq {
    bool operator()(const SigView &A, const SigView &B) const {
      return A.N == B.N && std::equal(A.P, A.P + A.N, B.P);
    }
  };
  using RecordTable =
      std::unordered_map<SigView, std::unique_ptr<Record>, SigHash, SigEq>;

  /// Parks \p R in the inactive queue for reuse or eventual eviction.
  void park(Record *R);

  /// The record keyed by signature \p Sig (\p N entries), registered on a
  /// miss; \p Hit tells which. A hit on a parked record counts as a
  /// cache reuse.
  Record *lookupOrRegister(const SigEntry *Sig, size_t N, bool &Hit);
  /// Registers the predicate \p Sig denotes (absent from the table): a
  /// recycled record when one is spare. Starts parked.
  Record *registerRecord(const SigEntry *Sig, size_t N);
  void activate(Record *R);
  void deactivate(Record *R);
  void evictIfNeeded();

  /// The shared blocking loop: activate, relay-and-wait until the record's
  /// predicate holds (or, with \p TW, the deadline/token fires),
  /// deactivate when the last waiter leaves. Returns false only for a
  /// timed wait that left unsatisfied.
  bool waitOnRecord(Record *R, TimedWait *TW);

  /// Full predicate check under the current shared state, answered by the
  /// false-stamp when it is still current.
  bool recordTrue(Record *R);

  /// Newest version among \p S's variables (the stamp domain).
  uint64_t readSetVersion(const VarSet &S) const;

  /// Relay search under the LinearScan policy: evaluate active predicates
  /// one by one, skipping those \p Dirty proves unchanged-false.
  Record *linearScanFindTrue(const VarSet &Dirty);

  /// Relay search under the Tagged policy (TagIndex::findTrue), restricted
  /// to predicates whose read sets intersect \p Dirty.
  Record *taggedFindTrue(const VarSet &Dirty);

  /// Folds the delta of the per-monitor relay stats since the last flush
  /// into the process-wide sync::RelayCounters. Called every few dozen
  /// relays, on destruction, and from resetStats — never per exit, so the
  /// hot path touches no shared atomics.
  void flushRelayCounters();

  sync::Mutex &MonitorLock;
  ExprArena &Arena;
  SymbolTable &Syms;
  const Env &SharedEnv;
  const std::vector<Value> &Slots;
  MonitorConfig Cfg;
  PhaseTimers Timers;

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

  /// Inactive cache in parking order. Each record appears at most once
  /// (Record::InQueue); revived records are skipped lazily on eviction.
  std::deque<Record *> InactiveQueue;

  /// Broadcast policy state.
  std::unique_ptr<sync::Condition> BroadcastCond;
  int BroadcastWaiters = 0;

  int TotalWaiters = 0;
  int PendingTotal = 0;
  uint64_t UseTick = 0;

  /// Dirty-set relay state (all guarded by the monitor lock): variables
  /// written since the last empty-handed relay scan, the global write
  /// tick, and per-variable last-write versions (indexed by VarId, grown
  /// lazily). See the file comment for the invariant.
  VarSet AccumDirty;
  uint64_t GlobalVersion = 0;
  std::vector<uint64_t> SlotVersions;

  ManagerStats Stats;
  /// Portion of Stats already folded into sync::RelayCounters::global().
  sync::RelayCountersSnapshot FlushedRelay;
  /// Portion of Stats already folded into sync::TimedCounters::global().
  sync::TimedCountersSnapshot FlushedTimed;
};

} // namespace autosynch

#endif // AUTOSYNCH_CORE_CONDITIONMANAGER_H
