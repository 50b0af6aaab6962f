//===- tag/Tag.cpp - Predicate tags (paper Section 4.3) --------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "tag/Tag.h"

#include "dnf/CanonicalAtom.h"
#include "expr/Printer.h"
#include "expr/Subst.h"

#include <algorithm>

using namespace autosynch;

const char *autosynch::tagKindName(TagKind K) {
  switch (K) {
  case TagKind::Equivalence:
    return "equivalence";
  case TagKind::Threshold:
    return "threshold";
  case TagKind::None:
    return "none";
  }
  AUTOSYNCH_UNREACHABLE("invalid TagKind");
}

std::string Tag::toString(const SymbolTable &Syms) const {
  if (Kind == TagKind::None)
    return "(none)";
  std::string S = "(";
  S += tagKindName(Kind);
  S += ", ";
  S += printExpr(SharedExpr, Syms);
  S += ", ";
  S += std::to_string(Key);
  if (Kind == TagKind::Threshold) {
    S += ", ";
    S += exprKindSpelling(Op);
  }
  S += ")";
  return S;
}

namespace {

/// Tries to view the atom \p E denotes as an equivalence or threshold over
/// a shared linear form; also recognizes boolean shared variables (`b`,
/// `!b`) as equivalences with keys 1/0. Other opaque atoms are untaggable.
bool classifyEntry(const SigEntry &E, const SymbolTable &Syms, Tag &Out) {
  if (E.isOpaque()) {
    ExprRef Atom = E.P;
    if (Atom->kind() == ExprKind::Var && Atom->type() == TypeKind::Bool) {
      if (!Syms.isShared(Atom->varId()))
        return false;
      Out = Tag{TagKind::Equivalence, Atom, 1, ExprKind::Eq};
      return true;
    }
    if (Atom->kind() == ExprKind::Not &&
        Atom->lhs()->kind() == ExprKind::Var) {
      if (!Syms.isShared(Atom->lhs()->varId()))
        return false;
      Out = Tag{TagKind::Equivalence, Atom->lhs(), 0, ExprKind::Eq};
      return true;
    }
    return false;
  }
  // Tags are only usable when any thread in the monitor can evaluate the
  // shared expression.
  if (isComplex(E.P, Syms))
    return false;
  switch (E.op()) {
  case ExprKind::Eq:
    Out = Tag{TagKind::Equivalence, E.P, E.K, ExprKind::Eq};
    return true;
  case ExprKind::Le:
  case ExprKind::Ge:
  case ExprKind::Lt:
  case ExprKind::Gt:
    Out = Tag{TagKind::Threshold, E.P, E.K, E.op()};
    return true;
  default:
    // Ne is neither an equivalence nor a threshold (paper Defs. 6-7).
    return false;
  }
}

/// The entry form of an arbitrary conjunction atom: its canonical
/// comparison when the atom canonicalizer finds one, else the atom itself.
SigEntry entryOf(ExprArena &Arena, ExprRef Atom) {
  AtomCanonResult R = canonicalizeAtom(Atom);
  if (R.Kind != AtomCanonKind::Atom)
    return SigEntry::opaque(Atom);
  return SigEntry::resolved(linearFormToExpr(Arena, R.Atom.Lhs), R.Atom.Op,
                            R.Atom.Rhs);
}

/// Paper Fig. 3 over one conjunction: prefer an equivalence atom; fall
/// back to the first threshold atom; otherwise None. Only one tag per
/// conjunction — more would not speed up the search (§4.3.1).
class TagPick {
public:
  /// Offers the next atom; true once the pick is final.
  bool offer(const SigEntry &E, const SymbolTable &Syms) {
    Tag T;
    if (Final || !classifyEntry(E, Syms, T))
      return Final;
    if (T.Kind == TagKind::Equivalence || Pick.Kind == TagKind::None)
      Pick = T;
    Final = T.Kind == TagKind::Equivalence;
    return Final;
  }
  const Tag &result() const { return Pick; }

private:
  Tag Pick;
  bool Final = false;
};

void addUnique(std::vector<Tag> &Tags, const Tag &T) {
  if (std::find(Tags.begin(), Tags.end(), T) == Tags.end())
    Tags.push_back(T);
}

} // namespace

Tag autosynch::deriveTag(ExprArena &Arena, const Conjunction &C,
                         const SymbolTable &Syms) {
  TagPick Pick;
  for (ExprRef Atom : C.Atoms)
    if (Pick.offer(entryOf(Arena, Atom), Syms))
      break;
  return Pick.result();
}

std::vector<Tag> autosynch::deriveTags(ExprArena &Arena, const Dnf &D,
                                       const SymbolTable &Syms) {
  std::vector<Tag> Tags;
  for (const Conjunction &C : D.Conjs)
    addUnique(Tags, deriveTag(Arena, C, Syms));
  return Tags;
}

void autosynch::deriveTags(const SigEntry *Sig, size_t N,
                           const SymbolTable &Syms, std::vector<Tag> &Out) {
  Out.clear();
  TagPick Pick;
  for (size_t I = 0; I != N; ++I) {
    if (Sig[I].isSeparator()) {
      addUnique(Out, Pick.result());
      Pick = TagPick();
    } else {
      Pick.offer(Sig[I], Syms);
    }
  }
}
