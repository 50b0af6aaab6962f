//===- core/Monitor.cpp - The automatic-signal monitor ---------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "core/Monitor.h"

#include "expr/Eval.h"
#include "expr/Subst.h"
#include "parse/PredicateParser.h"

using namespace autosynch;

Monitor::Monitor(MonitorConfig Config)
    : Cfg(Config), SharedSlots(Syms, Slots),
      Mgr(Lock, Arena, Syms, SharedSlots, Slots, Cfg), Plans(Arena, Syms) {}

Monitor::~Monitor() = default;

//===----------------------------------------------------------------------===//
// Shared-variable slots
//===----------------------------------------------------------------------===//

VarId Monitor::declareShared(std::string_view Name, TypeKind Ty) {
  VarId Id = Syms.declare(Name, Ty, VarScope::Shared);
  if (Slots.size() < Syms.size())
    Slots.resize(Syms.size());
  return Id;
}

//===----------------------------------------------------------------------===//
// Mutual exclusion (reentrant monitor regions)
//===----------------------------------------------------------------------===//

void Monitor::enter() {
  const void *Me = callerToken();
  if (Owner.load(std::memory_order_relaxed) == Me) {
    ++Depth;
    return;
  }
  Lock.lock();
  Owner.store(Me, std::memory_order_relaxed);
  Depth = 1;
}

void Monitor::exit() {
  AUTOSYNCH_CHECK(ownedByCaller(), "monitor exit by a non-owning thread");
  if (--Depth > 0)
    return;
  // Relay signaling rule: on exit, hand the monitor to some thread whose
  // condition has become true (paper §4.2). The winner is picked (and all
  // bookkeeping done) under the lock, but the condvar wakeup fires only
  // after the unlock — otherwise the woken thread would immediately block
  // on the mutex this thread still holds (the wake-then-block convoy).
  DeferredWake Wake;
  Mgr.relaySignal(&Wake);
  Owner.store(nullptr, std::memory_order_relaxed);
  Lock.unlock();
  Wake.fire();
}

//===----------------------------------------------------------------------===//
// waituntil
//===----------------------------------------------------------------------===//

bool Monitor::waitUntilImpl(const Env &Locals, ParseEntry *Entry,
                            const EdslWait *Edsl, const TimedSpec &TS) {
  AUTOSYNCH_CHECK(ownedByCaller(), "waitUntil outside the monitor");
  AUTOSYNCH_CHECK(Depth == 1,
                  "waitUntil from a nested monitor region would deadlock");
  const void *Me = Owner.load(std::memory_order_relaxed);
  // The wait releases the monitor lock; other threads own the monitor in
  // the meantime, so ownership is cleared here and restored when the wait
  // returns with the lock re-held. Depth must be restored as well: an
  // intervening region that fully exited leaves Depth at 0, which would
  // misfire the nested-region check on a later waitUntil in this region
  // (and unbalance exit()). We checked Depth == 1 above, so restoring to
  // 1 is exact.
  Owner.store(nullptr, std::memory_order_relaxed);
  bool Satisfied = dispatchWait(Locals, Entry, Edsl, TS);
  Owner.store(Me, std::memory_order_relaxed);
  Depth = 1;
  return Satisfied;
}

const WaitPlan *Monitor::sitePlan(const EdslWait &W) {
  if (const WaitPlan *Plan = Plans.findSite(W.Key))
    return Plan;
  ExprRef Skeleton = W.Build(W.Expr, Arena, &Plans);
  return Plans.addSite(W.Key, Skeleton, W.NumBound, Cfg.Limits);
}

bool Monitor::dispatchWait(const Env &Locals, ParseEntry *Entry,
                           const EdslWait *Edsl, const TimedSpec &TS) {
  constexpr const char *Unsat =
      "waituntil on an unsatisfiable predicate would never return";
  ExprRef Pred = Entry ? Entry->Expr : nullptr;
  auto Concrete = [&] {
    if (!Pred)
      Pred = Edsl->Build(Edsl->Expr, Arena, nullptr);
    return Pred;
  };
  Value Bound[WaitPlan::MaxSlots];
  const Value *Slot = Bound;
  const WaitPlan *Plan;
  WaitPlan::Kind K;
  if (Edsl) {
    // edslHolds found the predicate false before the wait got here. Slots
    // come straight from the template's literals. A keyless wait, or a
    // call site whose shape the planner gives up on, plans its concrete
    // tree: a Ground plan per distinct predicate, as the parsed front end
    // would plan it written with its values inlined.
    Slot = Edsl->Bound;
    Plan = Edsl->Keyed ? sitePlan(*Edsl) : nullptr;
    K = Plan ? Plan->kind() : WaitPlan::Kind::Legacy;
    if (K == WaitPlan::Kind::Legacy || K == WaitPlan::Kind::AlwaysTrue) {
      Plan = Plans.forShape(Concrete(), Cfg.Limits);
      K = Plan->kind();
    }
    AUTOSYNCH_CHECK(K != WaitPlan::Kind::Unsatisfiable, Unsat);
  } else {
    if (!Entry->Plan) // Memoized on the parse-cache entry.
      Entry->Plan = Plans.forShape(Pred, Cfg.Limits);
    Plan = Entry->Plan;
    K = Plan->kind();
    AUTOSYNCH_CHECK(K != WaitPlan::Kind::Unsatisfiable, Unsat);
    if (K == WaitPlan::Kind::Slotted)
      Plan->bindFromEnv(Locals, Bound);
    // Fast path: already true — the plan's allocation-free compiled
    // check, or a direct evaluation for shapes without a plan key.
    bool Planned =
        K == WaitPlan::Kind::Ground || K == WaitPlan::Kind::Slotted;
    if (Planned ? Plan->code().runRawBool(Slots.data(), Slot)
                : evalBool(Pred, OverlayEnv(Locals, SharedSlots)))
      return true;
  }

  ConditionManager::WaitKey Key;
  if (K == WaitPlan::Kind::Ground) {
    Key.Sig = Plan->signature().data();
    Key.N = Plan->signature().size();
  } else if (K == WaitPlan::Kind::Slotted) {
    switch (Plan->resolve(Slot, PlanScratch, Key.N)) {
    case WaitPlan::ResolveStatus::Resolved:
      Key.Sig = PlanScratch.Sig;
      Key.PlanBind = true;
      break;
    case WaitPlan::ResolveStatus::True:
      // True under any shared state. The parsed fast check ran this
      // plan's canonical form, so only an EDSL wait whose check wrapped
      // gets here (`Count + 1 > Count` at INT64_MAX). The canonical
      // verdict stands.
      AUTOSYNCH_CHECK(Edsl, "plan resolution diverged from evaluation");
      return true;
    case WaitPlan::ResolveStatus::False:
      AUTOSYNCH_CHECK(false, Unsat);
      return false;
    case WaitPlan::ResolveStatus::Overflow:
      // Key arithmetic left int64: wait without a key; globalization's
      // own overflow handling degrades to an untagged opaque atom.
      break;
    }
  }

  // One wait for every policy and key; the deadline is read only now that
  // the wait blocks. A keyless wait registers the predicate tree itself.
  ConditionManager::TimedWait TW{TS.timed() ? TS.deadlineNs() : 0, TS.Token};
  ConditionManager::TimedWait *TWP = TS.timed() ? &TW : nullptr;
  return Mgr.await(Key.Sig ? Pred : Concrete(), Locals, Key, TWP);
}

void Monitor::waitUntil(std::string_view Pred) {
  waitUntilImpl(EmptyEnv::instance(), &parseCached(Pred), nullptr,
                TimedSpec());
}

void Monitor::waitUntil(std::string_view Pred, const MapEnv &Locals) {
  waitUntilImpl(Locals, &parseCached(Pred), nullptr, TimedSpec());
}

//===----------------------------------------------------------------------===//
// Timed and cancellable waits
//===----------------------------------------------------------------------===//

bool Monitor::waitUntilFor(std::string_view Pred,
                           std::chrono::nanoseconds Timeout,
                           time::CancelToken *Token) {
  return waitUntilImpl(EmptyEnv::instance(), &parseCached(Pred), nullptr,
                       TimedSpec::forTimeout(Timeout, Token));
}

bool Monitor::waitUntilFor(std::string_view Pred, const MapEnv &Locals,
                           std::chrono::nanoseconds Timeout,
                           time::CancelToken *Token) {
  return waitUntilImpl(Locals, &parseCached(Pred), nullptr,
                       TimedSpec::forTimeout(Timeout, Token));
}

bool Monitor::waitUntilBy(std::string_view Pred, time::Deadline D,
                          time::CancelToken *Token) {
  return waitUntilImpl(EmptyEnv::instance(), &parseCached(Pred), nullptr,
                       TimedSpec::byDeadline(D, Token));
}

bool Monitor::waitUntilBy(std::string_view Pred, const MapEnv &Locals,
                          time::Deadline D, time::CancelToken *Token) {
  return waitUntilImpl(Locals, &parseCached(Pred), nullptr,
                       TimedSpec::byDeadline(D, Token));
}

Monitor::ParseEntry &Monitor::parseCached(std::string_view Pred) {
  auto It = ParseCache.find(Pred); // Heterogeneous: no key allocation.
  if (It != ParseCache.end())
    return It->second;

  PredicateParseOptions Options;
  Options.AutoDeclareLocals = true;
  PredicateParseResult R = parsePredicate(Pred, Arena, Syms, Options);
  if (!R.ok()) {
    std::string Msg = "waituntil predicate \"" + std::string(Pred) +
                      "\": " + R.Error.toString();
    fatalError(__FILE__, __LINE__, Msg.c_str());
  }
  return ParseCache.emplace(std::string(Pred), ParseEntry{R.Expr, nullptr})
      .first->second;
}

VarId Monitor::local(std::string_view Name, TypeKind Ty) {
  if (const VarInfo *Info = Syms.lookup(Name)) {
    AUTOSYNCH_CHECK(Info->Scope == VarScope::Local,
                    "local(): name already declared as a shared variable");
    AUTOSYNCH_CHECK(Info->Type == Ty,
                    "local(): redeclaration with a different type");
    return Info->Id;
  }
  return Syms.declare(Name, Ty, VarScope::Local);
}

void Monitor::registerPredicate(std::string_view Pred) {
  ExprRef E = parseCached(Pred).Expr;
  AUTOSYNCH_CHECK(!isComplex(E, Syms),
                  "registerPredicate requires a shared predicate");
  Mgr.registerPredicate(E);
}
