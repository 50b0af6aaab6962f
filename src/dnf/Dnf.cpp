//===- dnf/Dnf.cpp - Disjunctive normal form --------------------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "dnf/Dnf.h"

#include "dnf/CanonicalAtom.h"
#include "expr/Structural.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <unordered_set>

using namespace autosynch;

//===----------------------------------------------------------------------===//
// Negation-normal form
//===----------------------------------------------------------------------===//

static ExprRef nnfImpl(ExprArena &Arena, ExprRef E, bool Negate) {
  switch (E->kind()) {
  case ExprKind::BoolLit:
    return Arena.boolLit(Negate ? !E->boolValue() : E->boolValue());
  case ExprKind::Not:
    return nnfImpl(Arena, E->lhs(), !Negate);
  case ExprKind::And:
  case ExprKind::Or: {
    ExprKind K = E->kind();
    if (Negate) // De Morgan.
      K = K == ExprKind::And ? ExprKind::Or : ExprKind::And;
    return Arena.binary(K, nnfImpl(Arena, E->lhs(), Negate),
                        nnfImpl(Arena, E->rhs(), Negate));
  }
  default:
    break;
  }

  if (isComparisonKind(E->kind())) {
    if (!Negate)
      return E;
    // !(a < b) becomes a >= b, etc. Exact for == and != on bools too.
    return Arena.binary(negatedComparisonKind(E->kind()), E->lhs(),
                        E->rhs());
  }

  // Remaining bool atom (a bool variable). Int-typed nodes cannot reach
  // here: NNF only descends through bool structure.
  AUTOSYNCH_CHECK(E->type() == TypeKind::Bool, "NNF reached an int node");
  return Negate ? Arena.unary(ExprKind::Not, E) : E;
}

ExprRef autosynch::toNnf(ExprArena &Arena, ExprRef E) {
  AUTOSYNCH_CHECK(E->type() == TypeKind::Bool,
                  "toNnf requires a bool-typed expression");
  return nnfImpl(Arena, E, /*Negate=*/false);
}

//===----------------------------------------------------------------------===//
// DNF distribution
//===----------------------------------------------------------------------===//

namespace {

/// Merges the atoms of two conjunctions. Returns nullopt when the result is
/// trivially unsatisfiable (contains both X and !X, pointer-level) — the
/// merged conjunction can then be dropped from the disjunction.
std::optional<Conjunction> mergeConjunctions(const Conjunction &A,
                                             const Conjunction &B) {
  Conjunction Out;
  std::unordered_set<ExprRef> Seen;
  auto Add = [&](ExprRef Atom) {
    if (Seen.insert(Atom).second)
      Out.Atoms.push_back(Atom);
  };
  for (ExprRef Atom : A.Atoms)
    Add(Atom);
  for (ExprRef Atom : B.Atoms)
    Add(Atom);

  for (ExprRef Atom : Out.Atoms) {
    if (Atom->kind() == ExprKind::Not && Seen.count(Atom->lhs()))
      return std::nullopt;
  }
  return Out;
}

/// Distributes NNF expression \p E into conjunctions, appending to \p Out.
/// Returns false when a cap in \p Limits is exceeded.
bool distribute(ExprRef E, std::vector<Conjunction> &Out,
                const DnfLimits &Limits) {
  if (E->kind() == ExprKind::Or) {
    if (!distribute(E->lhs(), Out, Limits))
      return false;
    return distribute(E->rhs(), Out, Limits);
  }

  if (E->kind() == ExprKind::And) {
    std::vector<Conjunction> L, R;
    if (!distribute(E->lhs(), L, Limits) || !distribute(E->rhs(), R, Limits))
      return false;
    for (const Conjunction &Cl : L) {
      for (const Conjunction &Cr : R) {
        std::optional<Conjunction> Merged = mergeConjunctions(Cl, Cr);
        if (!Merged)
          continue; // X && !X: contributes nothing to the disjunction.
        if (Merged->Atoms.size() > Limits.MaxAtomsPerConjunction)
          return false;
        Out.push_back(std::move(*Merged));
        if (Out.size() > Limits.MaxConjunctions)
          return false;
      }
    }
    return true;
  }

  if (E->kind() == ExprKind::BoolLit) {
    if (E->boolValue())
      Out.push_back(Conjunction{}); // true: one empty conjunction.
    // false: contributes no conjunction.
    return true;
  }

  Out.push_back(Conjunction{{E}});
  return Out.size() <= Limits.MaxConjunctions;
}

} // namespace

Dnf autosynch::toDnf(ExprArena &Arena, ExprRef E, DnfLimits Limits) {
  ExprRef N = toNnf(Arena, E);
  Dnf D;
  if (!distribute(N, D.Conjs, Limits)) {
    // Blow-up: keep the whole predicate as a single opaque atom. It still
    // evaluates exactly; it just cannot be tagged per conjunction.
    D.Conjs.clear();
    D.Conjs.push_back(Conjunction{{N}});
    D.Exact = false;
    return D;
  }
  // An empty conjunction makes the whole disjunction true.
  for (const Conjunction &C : D.Conjs) {
    if (C.Atoms.empty()) {
      D.Conjs.clear();
      D.Conjs.push_back(Conjunction{});
      return D;
    }
  }
  return D;
}

ExprRef autosynch::dnfToExpr(ExprArena &Arena, const Dnf &D) {
  ExprRef Result = nullptr;
  for (const Conjunction &C : D.Conjs) {
    ExprRef ConjExpr = nullptr;
    for (ExprRef Atom : C.Atoms)
      ConjExpr =
          ConjExpr ? Arena.binary(ExprKind::And, ConjExpr, Atom) : Atom;
    if (!ConjExpr)
      ConjExpr = Arena.boolLit(true); // Empty conjunction.
    Result =
        Result ? Arena.binary(ExprKind::Or, Result, ConjExpr) : ConjExpr;
  }
  return Result ? Result : Arena.boolLit(false); // Empty disjunction.
}

//===----------------------------------------------------------------------===//
// Canonicalization
//===----------------------------------------------------------------------===//

namespace {

/// Per-linear-form bound tracking for contradiction pruning, e.g.
/// (x <= 2) && (x >= 5) or (x == 3) && (x != 3).
class BoundsTracker {
public:
  /// Records canonical atom \p A. Returns false when the conjunction became
  /// unsatisfiable.
  bool record(const CanonicalAtom &A) {
    Bounds &B = Map[A.Lhs.terms()];
    switch (A.Op) {
    case ExprKind::Eq:
      if (B.Eq && *B.Eq != A.Rhs)
        return false;
      B.Eq = A.Rhs;
      break;
    case ExprKind::Ne:
      B.Ne.insert(A.Rhs);
      break;
    case ExprKind::Le:
      if (!B.Hi || A.Rhs < *B.Hi)
        B.Hi = A.Rhs;
      break;
    case ExprKind::Ge:
      if (!B.Lo || A.Rhs > *B.Lo)
        B.Lo = A.Rhs;
      break;
    default:
      AUTOSYNCH_UNREACHABLE("non-canonical op in BoundsTracker");
    }
    return B.satisfiable();
  }

private:
  struct Bounds {
    std::optional<int64_t> Lo, Hi, Eq;
    std::set<int64_t> Ne;

    bool satisfiable() const {
      if (Lo && Hi && *Lo > *Hi)
        return false;
      if (Eq) {
        if (Lo && *Eq < *Lo)
          return false;
        if (Hi && *Eq > *Hi)
          return false;
        if (Ne.count(*Eq))
          return false;
      }
      // A fully pinched range that is excluded by a != atom.
      if (Lo && Hi && *Lo == *Hi && Ne.count(*Lo))
        return false;
      return true;
    }
  };

  std::map<std::vector<LinearForm::Term>, Bounds> Map;
};

/// Lexicographic structural order on conjunctions (atom vectors).
bool conjunctionLess(const Conjunction &A, const Conjunction &B) {
  size_t N = std::min(A.Atoms.size(), B.Atoms.size());
  for (size_t I = 0; I != N; ++I)
    if (int C = structuralCompare(A.Atoms[I], B.Atoms[I]))
      return C < 0;
  return A.Atoms.size() < B.Atoms.size();
}

bool conjunctionEqual(const Conjunction &A, const Conjunction &B) {
  return A.Atoms == B.Atoms; // Pointer vectors; atoms are interned.
}

/// True when A's atom set is a proper subset of B's (both sorted): then B
/// implies A and B is redundant in the disjunction.
bool properSubset(const Conjunction &A, const Conjunction &B) {
  return A.Atoms.size() < B.Atoms.size() &&
         std::includes(B.Atoms.begin(), B.Atoms.end(), A.Atoms.begin(),
                       A.Atoms.end(), StructuralLess());
}

CanonicalPredicate makeTrue(ExprArena &Arena) {
  CanonicalPredicate P;
  P.Expr = Arena.boolLit(true);
  P.D.Conjs.push_back(Conjunction{});
  return P;
}

} // namespace

CanonicalPredicate autosynch::canonicalizePredicate(ExprArena &Arena,
                                                    ExprRef E,
                                                    DnfLimits Limits) {
  AUTOSYNCH_CHECK(E->type() == TypeKind::Bool,
                  "canonicalizePredicate requires a bool-typed expression");
  Dnf D0 = toDnf(Arena, E, Limits);

  CanonicalPredicate P;
  P.D.Exact = D0.Exact;

  for (const Conjunction &C : D0.Conjs) {
    if (C.Atoms.empty()) // `true` conjunction: whole predicate is true.
      return makeTrue(Arena);

    bool Dropped = false;
    BoundsTracker Tracker;
    std::vector<ExprRef> Atoms;

    for (ExprRef Atom : C.Atoms) {
      AtomCanonResult R = canonicalizeAtom(Atom);
      switch (R.Kind) {
      case AtomCanonKind::True:
        continue; // Contributes nothing to the conjunction.
      case AtomCanonKind::False:
        Dropped = true;
        break;
      case AtomCanonKind::Atom:
        if (!Tracker.record(R.Atom)) {
          Dropped = true;
          break;
        }
        Atoms.push_back(canonicalAtomToExpr(Arena, R.Atom));
        break;
      case AtomCanonKind::Opaque:
        Atoms.push_back(Atom);
        break;
      }
      if (Dropped)
        break;
    }
    if (Dropped)
      continue;

    std::sort(Atoms.begin(), Atoms.end(), StructuralLess());
    Atoms.erase(std::unique(Atoms.begin(), Atoms.end()), Atoms.end());
    if (Atoms.empty()) // All atoms constantly true.
      return makeTrue(Arena);
    P.D.Conjs.push_back(Conjunction{std::move(Atoms)});
  }

  // Canonical conjunction order, duplicate removal.
  std::sort(P.D.Conjs.begin(), P.D.Conjs.end(), conjunctionLess);
  P.D.Conjs.erase(std::unique(P.D.Conjs.begin(), P.D.Conjs.end(),
                              conjunctionEqual),
                  P.D.Conjs.end());

  // Subsumption: drop any conjunction that another conjunction's atom set
  // properly subsets (the superset conjunction is redundant). Mark first,
  // move after — moving while scanning would leave empty (subsume-all)
  // husks in the vector being compared against.
  std::vector<bool> Redundant(P.D.Conjs.size(), false);
  for (size_t I = 0; I != P.D.Conjs.size(); ++I)
    for (size_t J = 0; J != P.D.Conjs.size() && !Redundant[I]; ++J)
      if (J != I && properSubset(P.D.Conjs[J], P.D.Conjs[I]))
        Redundant[I] = true;
  std::vector<Conjunction> Kept;
  for (size_t I = 0; I != P.D.Conjs.size(); ++I)
    if (!Redundant[I])
      Kept.push_back(std::move(P.D.Conjs[I]));
  P.D.Conjs = std::move(Kept);

  P.Expr = dnfToExpr(Arena, P.D);
  return P;
}

//===----------------------------------------------------------------------===//
// Signatures
//===----------------------------------------------------------------------===//

namespace {

/// Orders opaque \p Atom against the atom `E.P op E.K` that resolved entry
/// \p E denotes, as structuralCompare would order the two expressions.
int compareAtomToResolved(ExprRef Atom, const SigEntry &E) {
  if (Atom->kind() != E.op())
    return Atom->kind() < E.op() ? -1 : 1;
  if (int C = structuralCompare(Atom->lhs(), E.P))
    return C;
  ExprRef Rhs = Atom->rhs();
  if (Rhs->kind() != ExprKind::IntLit)
    return 1; // IntLit is the least kind.
  if (Rhs->intValue() != E.K)
    return Rhs->intValue() < E.K ? -1 : 1;
  return -1; // Same structure, different encoding: opaque first.
}

/// The structural order of the atoms two non-separator entries denote.
int compareSigEntries(const SigEntry &A, const SigEntry &B) {
  if (A == B)
    return 0;
  if (A.isOpaque())
    return B.isOpaque() ? structuralCompare(A.P, B.P)
                        : compareAtomToResolved(A.P, B);
  if (B.isOpaque())
    return -compareAtomToResolved(B.P, A);
  if (A.op() != B.op())
    return A.op() < B.op() ? -1 : 1;
  if (int C = structuralCompare(A.P, B.P))
    return C;
  return A.K < B.K ? -1 : 1;
}

bool sigEntryLess(const SigEntry &A, const SigEntry &B) {
  return compareSigEntries(A, B) < 0;
}

} // namespace

size_t autosynch::finishSignature(SigEntry *Entries, SigSegment *Segs,
                                  size_t NumSegs, SigEntry *Out) {
  // Segments are a handful of entries and conjunctions: insertion sorts,
  // no allocation.
  for (size_t S = 0; S != NumSegs; ++S) {
    SigEntry *B = Entries + Segs[S].Begin, *E = Entries + Segs[S].End;
    for (SigEntry *I = B + (B != E); I < E; ++I)
      for (SigEntry *J = I; J > B && sigEntryLess(*J, J[-1]); --J)
        std::swap(*J, J[-1]);
    Segs[S].End = Segs[S].Begin + (std::unique(B, E) - B);
  }

  auto Len = [](const SigSegment &S) { return S.End - S.Begin; };
  auto At = [Entries](const SigSegment &S, size_t I) {
    return Entries[S.Begin + I];
  };
  auto SegLess = [&](const SigSegment &A, const SigSegment &B) {
    size_t L = std::min(Len(A), Len(B));
    for (size_t I = 0; I != L; ++I)
      if (int C = compareSigEntries(At(A, I), At(B, I)))
        return C < 0;
    return Len(A) < Len(B);
  };
  auto SegEqual = [&](const SigSegment &A, const SigSegment &B) {
    return Len(A) == Len(B) &&
           std::equal(Entries + A.Begin, Entries + A.End,
                      Entries + B.Begin);
  };
  // A properly subsets B (both sorted): B implies A and is redundant.
  auto ProperSubset = [&](const SigSegment &A, const SigSegment &B) {
    return Len(A) < Len(B) &&
           std::includes(Entries + B.Begin, Entries + B.End,
                         Entries + A.Begin, Entries + A.End, sigEntryLess);
  };
  for (size_t I = 1; I < NumSegs; ++I)
    for (size_t J = I; J > 0 && SegLess(Segs[J], Segs[J - 1]); --J)
      std::swap(Segs[J], Segs[J - 1]);
  NumSegs = std::unique(Segs, Segs + NumSegs, SegEqual) - Segs;

  size_t N = 0;
  for (size_t I = 0; I != NumSegs; ++I) {
    bool Subsumed = false;
    for (size_t J = 0; J != NumSegs && !Subsumed; ++J)
      Subsumed = J != I && ProperSubset(Segs[J], Segs[I]);
    if (Subsumed)
      continue;
    Out = std::copy(Entries + Segs[I].Begin, Entries + Segs[I].End, Out);
    *Out++ = SigEntry::separator();
    N += Len(Segs[I]) + 1;
  }
  return N;
}

std::vector<SigEntry> autosynch::signatureOf(const Dnf &D) {
  AUTOSYNCH_CHECK(!D.isTrue() && !D.isFalse(),
                  "constant predicates have no signature");
  std::vector<SigEntry> Entries;
  std::vector<SigSegment> Segs;
  for (const Conjunction &C : D.Conjs) {
    size_t Begin = Entries.size();
    for (ExprRef Atom : C.Atoms) {
      // A canonical comparison reproduces itself; anything the atom
      // canonicalizer leaves alone stays opaque.
      AtomCanonResult R = canonicalizeAtom(Atom);
      if (R.Kind != AtomCanonKind::Atom) {
        Entries.push_back(SigEntry::opaque(Atom));
        continue;
      }
      AUTOSYNCH_CHECK(Atom->kind() == R.Atom.Op &&
                          Atom->rhs()->kind() == ExprKind::IntLit &&
                          Atom->rhs()->intValue() == R.Atom.Rhs,
                      "signatureOf requires a canonical predicate");
      Entries.push_back(SigEntry::resolved(Atom->lhs(), R.Atom.Op, R.Atom.Rhs));
    }
    Segs.push_back({Begin, Entries.size()});
  }
  std::vector<SigEntry> Out(Entries.size() + Segs.size());
  Out.resize(finishSignature(Entries.data(), Segs.data(), Segs.size(),
                             Out.data()));
  return Out;
}
