//===- plan/WaitPlan.cpp - Parameterized wait plans -------------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "plan/WaitPlan.h"

#include "dnf/CanonicalAtom.h"
#include "expr/Subst.h"

#include <algorithm>
#include <numeric>

using namespace autosynch;

namespace {

bool compareKeys(int64_t L, ExprKind Op, int64_t R) {
  switch (Op) {
  case ExprKind::Eq:
    return L == R;
  case ExprKind::Ne:
    return L != R;
  case ExprKind::Le:
    return L <= R;
  case ExprKind::Ge:
    return L >= R;
  default:
    AUTOSYNCH_UNREACHABLE("non-canonical op in plan guard");
  }
}

/// Scope census of one expression.
struct ScopeCensus {
  bool AnyShared = false;
  bool AnyLocal = false;
};

void census(ExprRef E, const SymbolTable &Syms, ScopeCensus &Out) {
  if (E->kind() == ExprKind::Var) {
    (Syms.isShared(E->varId()) ? Out.AnyShared : Out.AnyLocal) = true;
    return;
  }
  for (unsigned I = 0; I != E->numOperands(); ++I)
    census(E->operand(I), Syms, Out);
}

/// Interval tracker replicating dnf/Dnf.cpp's BoundsTracker over resolved
/// keys in fixed storage. Exact: build() caps a conjunction at
/// MaxAtomsPerConj atoms and each atom is recorded at most once, so the
/// storage never runs out.
class BindBounds {
public:
  /// Returns false when the conjunction became unsatisfiable.
  bool record(ExprRef Expr, ExprKind Op, int64_t K) {
    Entry &E = find(Expr);
    switch (Op) {
    case ExprKind::Eq:
      if (E.HasEq && E.Eq != K)
        return false;
      E.HasEq = true;
      E.Eq = K;
      break;
    case ExprKind::Ne:
      AUTOSYNCH_CHECK(NumNe != Cap, "more atoms than build() admits");
      Ne[NumNe++] = {Expr, K};
      break;
    case ExprKind::Le:
      if (!E.HasHi || K < E.Hi) {
        E.HasHi = true;
        E.Hi = K;
      }
      break;
    case ExprKind::Ge:
      if (!E.HasLo || K > E.Lo) {
        E.HasLo = true;
        E.Lo = K;
      }
      break;
    default:
      AUTOSYNCH_UNREACHABLE("non-canonical op in BindBounds");
    }
    return satisfiable(E);
  }

private:
  static constexpr size_t Cap = WaitPlan::MaxAtomsPerConj;

  // No default member initializers: the arrays stay uninitialized and
  // find() sets every field of an entry it hands out.
  struct Entry {
    ExprRef Expr;
    bool HasLo, HasHi, HasEq;
    int64_t Lo, Hi, Eq;
  };
  struct NeAtom {
    ExprRef Expr;
    int64_t K;
  };

  Entry &find(ExprRef Expr) {
    for (size_t I = 0; I != Count; ++I)
      if (Entries[I].Expr == Expr)
        return Entries[I];
    AUTOSYNCH_CHECK(Count != Cap, "more atoms than build() admits");
    Entries[Count] = {Expr, false, false, false, 0, 0, 0};
    return Entries[Count++];
  }

  bool hasNe(ExprRef Expr, int64_t K) const {
    for (size_t I = 0; I != NumNe; ++I)
      if (Ne[I].Expr == Expr && Ne[I].K == K)
        return true;
    return false;
  }

  bool satisfiable(const Entry &E) const {
    if (E.HasLo && E.HasHi && E.Lo > E.Hi)
      return false;
    if (E.HasEq) {
      if (E.HasLo && E.Eq < E.Lo)
        return false;
      if (E.HasHi && E.Eq > E.Hi)
        return false;
      if (hasNe(E.Expr, E.Eq))
        return false;
    }
    if (E.HasLo && E.HasHi && E.Lo == E.Hi && hasNe(E.Expr, E.Lo))
      return false;
    return true;
  }

  Entry Entries[Cap];
  NeAtom Ne[Cap];
  size_t Count = 0;
  size_t NumNe = 0;
};

} // namespace

//===----------------------------------------------------------------------===//
// Plan construction
//===----------------------------------------------------------------------===//

int WaitPlan::slotIndex(VarId Var) const {
  for (size_t I = 0; I != Slots.size(); ++I)
    if (Slots[I].Var == Var)
      return static_cast<int>(I);
  return -1;
}

bool WaitPlan::collectSlots(const SymbolTable &Syms) {
  // First-occurrence pre-order over the shape; this is the binding order
  // the EDSL skeletonizer emits values in.
  bool Ok = true;
  auto Walk = [&](auto &&Self, ExprRef E) -> void {
    if (!Ok)
      return;
    if (E->kind() == ExprKind::Var) {
      VarId V = E->varId();
      if (Syms.isLocal(V) && slotIndex(V) < 0) {
        if (Slots.size() == MaxSlots) {
          Ok = false;
          return;
        }
        Slots.push_back({V, Syms.info(V).Type});
      }
      return;
    }
    for (unsigned I = 0; I != E->numOperands(); ++I)
      Self(Self, E->operand(I));
  };
  Walk(Walk, Shape);
  return Ok;
}

bool WaitPlan::lowerConjunction(ExprArena &Arena, const SymbolTable &Syms,
                                const Conjunction &C) {
  ConjTemplate CT;
  for (ExprRef Atom : C.Atoms) {
    ScopeCensus SC;
    census(Atom, Syms, SC);

    AtomCanonResult R = canonicalizeAtom(Atom);
    switch (R.Kind) {
    case AtomCanonKind::True:
      continue; // Contributes nothing (defensive; canonicalization folds).
    case AtomCanonKind::False:
      // False under every binding: the whole conjunction is dead.
      return true;
    case AtomCanonKind::Opaque: {
      AtomTemplate T;
      if (!SC.AnyLocal) {
        T.T = AtomTemplate::TKind::Opaque;
        T.Atom = Atom;
      } else if (!SC.AnyShared) {
        T.T = AtomTemplate::TKind::GuardOpaque;
        T.Guard = CompiledPredicate::compile(
            Atom, [this](VarId V) -> ResolvedVar {
              int I = slotIndex(V);
              AUTOSYNCH_CHECK(I >= 0, "guard atom var is not a plan slot");
              return {ResolvedVar::Kind::Local, static_cast<uint32_t>(I)};
            });
      } else {
        return false; // Mixed opaque atom: beyond the planner.
      }
      CT.Atoms.push_back(std::move(T));
      continue;
    }
    case AtomCanonKind::Atom:
      break;
    }

    // Split the canonical linear form into shared and local parts.
    LinearForm Sh;
    std::vector<std::pair<uint32_t, int64_t>> LocalTerms;
    bool Bad = false;
    for (const LinearForm::Term &Term : R.Atom.Lhs.terms()) {
      if (Term.second == INT64_MIN) {
        Bad = true; // Negation below would overflow; give up on the shape.
        break;
      }
      if (Syms.isShared(Term.first)) {
        std::optional<LinearForm> Sum =
            Sh.add(LinearForm::variableForm(Term.first).scale(Term.second)
                       .value());
        AUTOSYNCH_CHECK(Sum.has_value(), "re-summing sorted terms is exact");
        Sh = *Sum;
      } else {
        int I = slotIndex(Term.first);
        AUTOSYNCH_CHECK(I >= 0, "local term var is not a plan slot");
        LocalTerms.push_back({static_cast<uint32_t>(I), Term.second});
      }
    }
    if (Bad)
      return false;

    AtomTemplate T;
    T.Op = R.Atom.Op;

    if (Sh.terms().empty()) {
      // Local-only comparison: a bind-time guard.
      T.T = AtomTemplate::TKind::Guard;
      T.K = R.Atom.Rhs;
      T.KeyC = 0;
      T.KeyTerms = std::move(LocalTerms);
      CT.Atoms.push_back(std::move(T));
      continue;
    }

    if (LocalTerms.empty()) {
      // Shared-only comparison, already canonical from the symbolic pass.
      T.T = AtomTemplate::TKind::GroundLinear;
      T.SharedExpr = linearFormToExpr(Arena, R.Atom.Lhs);
      T.K = R.Atom.Rhs;
      CT.Atoms.push_back(std::move(T));
      continue;
    }

    // Mixed comparison. Ground canonicalization of the substituted atom
    // (a) moves the local part into the constant, (b) makes the leading
    // shared coefficient positive, (c) gcd-reduces the shared coefficients
    // with an integer-exact bound adjustment. (a) and (b) are replayed
    // here; (c)'s rounding depends on the bound value and runs at bind
    // time through the stored gcd.
    T.T = AtomTemplate::TKind::Linear;
    bool Flip = Sh.terms().front().second < 0;
    if (Flip) {
      if (R.Atom.Rhs == INT64_MIN)
        return false; // -K would overflow.
      std::optional<LinearForm> Neg = Sh.negate();
      if (!Neg)
        return false;
      Sh = *Neg;
      T.KeyC = -R.Atom.Rhs;
      T.KeyTerms = std::move(LocalTerms);
      if (T.Op == ExprKind::Le)
        T.Op = ExprKind::Ge;
      else if (T.Op == ExprKind::Ge)
        T.Op = ExprKind::Le;
    } else {
      T.KeyC = R.Atom.Rhs;
      T.KeyTerms = std::move(LocalTerms);
      for (auto &KT : T.KeyTerms)
        KT.second = -KT.second; // K' = K - Lo(vals).
    }

    uint64_t G = 0;
    for (const LinearForm::Term &Term : Sh.terms())
      G = std::gcd(G, static_cast<uint64_t>(
                          Term.second < 0 ? -static_cast<uint64_t>(Term.second)
                                          : static_cast<uint64_t>(Term.second)));
    AUTOSYNCH_CHECK(G > 0, "gcd of a non-constant form is positive");
    T.G = G;
    if (G > 1) {
      LinearForm Reduced;
      for (const LinearForm::Term &Term : Sh.terms()) {
        std::optional<LinearForm> Part =
            LinearForm::variableForm(Term.first)
                .scale(Term.second / static_cast<int64_t>(G));
        std::optional<LinearForm> Sum = Reduced.add(*Part);
        AUTOSYNCH_CHECK(Sum.has_value(), "gcd division cannot overflow");
        Reduced = *Sum;
      }
      Sh = Reduced;
    }
    T.SharedExpr = linearFormToExpr(Arena, Sh);
    CT.Atoms.push_back(std::move(T));
  }

  if (CT.Atoms.size() > MaxAtomsPerConj)
    return false; // Signature and bound buffers are fixed-size.
  Conjs.push_back(std::move(CT));
  return true;
}

std::unique_ptr<WaitPlan> WaitPlan::build(ExprArena &Arena,
                                          const SymbolTable &Syms,
                                          ExprRef Shape, DnfLimits Limits) {
  AUTOSYNCH_CHECK(Shape->type() == TypeKind::Bool,
                  "wait plans require a bool-typed shape");
  std::unique_ptr<WaitPlan> P(new WaitPlan());
  P->Shape = Shape;
  P->K = Kind::Legacy;

  if (!P->collectSlots(Syms))
    return P;

  // Canonicalize the shape with its locals symbolic. For a shape with no
  // locals this IS the ground canonical form.
  P->CP = canonicalizePredicate(Arena, Shape, Limits);

  if (P->CP.D.isTrue()) {
    P->K = Kind::AlwaysTrue;
    return P;
  }
  if (P->CP.D.isFalse()) {
    P->K = Kind::Unsatisfiable;
    return P;
  }

  auto Resolver = [&Syms, Raw = P.get()](VarId V) -> ResolvedVar {
    if (Syms.isShared(V))
      return {ResolvedVar::Kind::Shared, V};
    int I = Raw->slotIndex(V);
    AUTOSYNCH_CHECK(I >= 0, "plan expression var is not shared or a slot");
    return {ResolvedVar::Kind::Local, static_cast<uint32_t>(I)};
  };

  P->ReadSet = sharedReadSet(P->CP.Expr, Syms);

  if (P->Slots.empty()) {
    P->K = Kind::Ground;
    P->GroundSig = signatureOf(P->CP.D);
    P->Code = CompiledPredicate::compile(P->CP.Expr, Resolver);
    return P;
  }

  if (P->CP.D.Conjs.size() > MaxConjs)
    return P; // Legacy: signature buffers are fixed-size.

  size_t TotalEntries = 0;
  for (const Conjunction &C : P->CP.D.Conjs) {
    if (!P->lowerConjunction(Arena, Syms, C)) {
      P->Conjs.clear();
      return P; // Legacy.
    }
    TotalEntries += C.Atoms.size() + 1;
  }
  if (TotalEntries > MaxSigEntries) {
    P->Conjs.clear();
    return P; // Legacy.
  }

  P->K = Kind::Slotted;
  P->Code = CompiledPredicate::compile(P->CP.Expr, Resolver);
  return P;
}

//===----------------------------------------------------------------------===//
// Binding and signature resolution
//===----------------------------------------------------------------------===//

void WaitPlan::bindFromEnv(const Env &Locals, Value *Out) const {
  for (size_t I = 0; I != Slots.size(); ++I) {
    AUTOSYNCH_CHECK(Locals.has(Slots[I].Var),
                    "waituntil: unbound local variable in predicate");
    Value V = Locals.get(Slots[I].Var);
    AUTOSYNCH_CHECK(V.type() == Slots[I].Type,
                    "waituntil: local bound with mismatched type");
    Out[I] = V;
  }
}

WaitPlan::ResolveStatus WaitPlan::resolve(const Value *Bound, Scratch &S,
                                          size_t &N) const {
  AUTOSYNCH_CHECK(K == Kind::Slotted, "resolve() requires a slotted plan");

  // Evaluates KeyC + sum(coef * Bound[slot]) with overflow checking.
  auto evalKey = [&](const AtomTemplate &T, int64_t &Out) -> bool {
    int64_t Acc = T.KeyC;
    for (const auto &[SlotIdx, Coef] : T.KeyTerms) {
      int64_t Term;
      if (__builtin_mul_overflow(Coef, Bound[SlotIdx].raw(), &Term))
        return false;
      if (__builtin_add_overflow(Acc, Term, &Acc))
        return false;
    }
    Out = Acc;
    return true;
  };

  SigEntry *Tmp = S.Tmp;
  SigSegment *Segs = S.Segs;
  size_t NumSegs = 0;
  size_t Used = 0;

  for (const ConjTemplate &CT : Conjs) {
    size_t Begin = Used;
    bool Dead = false;
    BindBounds Bounds;

    for (const AtomTemplate &T : CT.Atoms) {
      switch (T.T) {
      case AtomTemplate::TKind::Opaque:
        Tmp[Used++] = SigEntry::opaque(T.Atom);
        break;
      case AtomTemplate::TKind::GroundLinear:
        if (!Bounds.record(T.SharedExpr, T.Op, T.K)) {
          Dead = true;
          break;
        }
        Tmp[Used++] = SigEntry::resolved(T.SharedExpr, T.Op, T.K);
        break;
      case AtomTemplate::TKind::Guard: {
        int64_t Key;
        if (!evalKey(T, Key))
          return ResolveStatus::Overflow;
        if (!compareKeys(Key, T.Op, T.K))
          Dead = true;
        break; // True guards contribute nothing.
      }
      case AtomTemplate::TKind::GuardOpaque:
        if (!T.Guard.runRawBool(nullptr, Bound))
          Dead = true;
        break;
      case AtomTemplate::TKind::Linear: {
        int64_t Key;
        if (!evalKey(T, Key))
          return ResolveStatus::Overflow;
        bool AtomTrue = false;
        if (T.G > 1) {
          int64_t Gs = static_cast<int64_t>(T.G);
          switch (T.Op) {
          case ExprKind::Eq:
            if (Key % Gs != 0)
              Dead = true; // g*expr == K unsolvable.
            else
              Key /= Gs;
            break;
          case ExprKind::Ne:
            if (Key % Gs != 0)
              AtomTrue = true; // g*expr != K always holds.
            else
              Key /= Gs;
            break;
          case ExprKind::Le:
            Key = floorDivExact(Key, Gs);
            break;
          case ExprKind::Ge:
            Key = ceilDivExact(Key, Gs);
            break;
          default:
            AUTOSYNCH_UNREACHABLE("non-canonical op in plan template");
          }
        }
        if (Dead || AtomTrue)
          break;
        if (!Bounds.record(T.SharedExpr, T.Op, Key)) {
          Dead = true;
          break;
        }
        Tmp[Used++] = SigEntry::resolved(T.SharedExpr, T.Op, Key);
        break;
      }
      }
      if (Dead)
        break;
    }

    if (Dead) {
      Used = Begin;
      continue;
    }
    if (Used == Begin) {
      // Every atom resolved away true: the predicate holds for this
      // binding under any shared state.
      N = 0;
      return ResolveStatus::True;
    }

    AUTOSYNCH_CHECK(NumSegs < MaxConjs, "conjunction count exceeds the cap "
                                        "build() enforces");
    Segs[NumSegs++] = {Begin, Used};
  }

  if (NumSegs == 0) {
    N = 0;
    return ResolveStatus::False;
  }

  N = finishSignature(Tmp, Segs, NumSegs, S.Sig);
  return ResolveStatus::Resolved;
}
