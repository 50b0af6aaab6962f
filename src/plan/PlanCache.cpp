//===- plan/PlanCache.cpp - Per-monitor wait-plan cache ---------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "plan/PlanCache.h"

#include <string>

using namespace autosynch;

PlanCounters &PlanCounters::global() {
  static PlanCounters G;
  return G;
}

VarId PlanCache::slotVar(size_t I, TypeKind Ty) {
  std::vector<VarId> &Vars =
      Ty == TypeKind::Int ? IntSlotVars : BoolSlotVars;
  while (Vars.size() <= I) {
    // '$' cannot appear in parsed identifiers, so slot names can never
    // collide with user variables.
    std::string Name = (Ty == TypeKind::Int ? "$i" : "$b") +
                       std::to_string(Vars.size());
    Vars.push_back(Syms.declare(Name, Ty, VarScope::Local));
  }
  return Vars[I];
}

const WaitPlan *PlanCache::forShape(ExprRef Shape, const DnfLimits &Limits) {
  auto It = Plans.find(Shape);
  if (It != Plans.end()) {
    ++Stats.ShapeHits;
    PlanCounters::global().onShapeHit();
    return It->second.get();
  }
  ++Stats.ShapeBuilds;
  PlanCounters::global().onShapeBuild();
  std::unique_ptr<WaitPlan> P = WaitPlan::build(Arena, Syms, Shape, Limits);
  if (P->kind() == WaitPlan::Kind::Legacy)
    ++Stats.LegacyShapes;
  return Plans.emplace(Shape, std::move(P)).first->second.get();
}

const WaitPlan *PlanCache::addSite(const SiteKey &K, ExprRef Skeleton,
                                   size_t NumSlots, const DnfLimits &Limits) {
  const WaitPlan *Plan = forShape(Skeleton, Limits);
  AUTOSYNCH_CHECK(Plan->kind() == WaitPlan::Kind::Legacy ||
                      Plan->slots().size() == NumSlots,
                  "EDSL slot count diverged from the cached shape");
  if (Sites.size() <= K.Shape)
    Sites.resize(K.Shape + 1);
  Sites[K.Shape].emplace(
      hashWords(K), Site{std::vector<int64_t>(K.Words, K.Words + K.N), Plan});
  return Plan;
}
