//===- plan/PlanCache.cpp - Per-monitor wait-plan cache ---------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "plan/PlanCache.h"

#include "expr/Subst.h"

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

const WaitPlan *PlanCache::lookupOrBuild(ExprRef Shape,
                                         const DnfLimits &Limits) {
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

const WaitPlan *PlanCache::forShape(ExprRef Shape, const DnfLimits &Limits) {
  return lookupOrBuild(Shape, Limits);
}

namespace {

/// Skeleton-walk state: literal values collected in walk order.
struct SkeletonWalk {
  PlanCache &Cache;
  ExprArena &Arena;
  Value *BoundOut;
  size_t NumBound = 0;
  size_t IntIdx = 0, BoolIdx = 0;
  bool Overflow = false;

  VarId nextSlot(TypeKind Ty);
  ExprRef walk(ExprRef E, bool AbstractLits);
};

} // namespace

const WaitPlan *PlanCache::forEdsl(ExprRef P, const DnfLimits &Limits,
                                   Value *BoundOut, size_t &NumBound) {
  ++Stats.EdslSkeletons;
  SkeletonWalk W{*this, Arena, BoundOut};
  ExprRef Shape = W.walk(P, /*AbstractLits=*/true);

  if (!W.Overflow) {
    const WaitPlan *Plan = lookupOrBuild(Shape, Limits);
    if (Plan->kind() != WaitPlan::Kind::Legacy) {
      AUTOSYNCH_CHECK(Plan->slots().size() == W.NumBound,
                      "EDSL slot count diverged from the cached shape");
      NumBound = W.NumBound;
      return Plan;
    }
  }

  // No abstractable literals, too many of them, or a shape the planner
  // cannot parameterize: plan the concrete predicate itself. EDSL
  // expressions mention only shared variables and literals, so this is a
  // Ground (or Legacy, for e.g. unbounded DNF) plan over P.
  NumBound = 0;
  if (isComplex(P, Syms))
    return nullptr; // Locals smuggled into an EDSL tree: no plan key.
  return lookupOrBuild(P, Limits);
}

VarId SkeletonWalk::nextSlot(TypeKind Ty) {
  size_t &Idx = Ty == TypeKind::Int ? IntIdx : BoolIdx;
  return Cache.slotVar(Idx++, Ty);
}

ExprRef SkeletonWalk::walk(ExprRef E, bool AbstractLits) {
  if (Overflow)
    return E;

  if (E->isLiteral()) {
    if (!AbstractLits)
      return E;
    if (NumBound == WaitPlan::MaxSlots) {
      Overflow = true;
      return E;
    }
    Value V = E->literalValue();
    VarId Slot = nextSlot(V.type());
    BoundOut[NumBound++] = V;
    return Arena.var(Slot, V.type());
  }

  switch (E->kind()) {
  case ExprKind::Var:
    return E;
  case ExprKind::Neg:
  case ExprKind::Not: {
    ExprRef Op = walk(E->lhs(), AbstractLits);
    return Op == E->lhs() ? E : Arena.unary(E->kind(), Op);
  }
  default:
    break;
  }

  AUTOSYNCH_CHECK(isBinaryKind(E->kind()), "unexpected node in skeleton");
  // Literal operands of * / % are structural: abstracting them would make
  // the atom non-linear (variable * variable) and untaggable.
  bool Structural = E->kind() == ExprKind::Mul ||
                    E->kind() == ExprKind::Div || E->kind() == ExprKind::Mod;
  ExprRef L = walk(E->lhs(), AbstractLits && !(Structural && E->lhs()->isLiteral()));
  ExprRef R = walk(E->rhs(), AbstractLits && !(Structural && E->rhs()->isLiteral()));
  if (L == E->lhs() && R == E->rhs())
    return E;
  return Arena.binary(E->kind(), L, R);
}
