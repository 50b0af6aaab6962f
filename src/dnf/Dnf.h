//===- dnf/Dnf.h - Disjunctive normal form ---------------------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// DNF conversion and predicate canonicalization. The paper assumes every
/// waituntil predicate is in DNF (§4.1: "every Boolean formula can be
/// converted into DNF using De Morgan's laws and distributive law"); its
/// preprocessor performs the conversion, and tags are assigned per
/// conjunction. This module is that conversion:
///
///   NNF (negations pushed to atoms, comparisons flipped)
///    -> DNF (Or over And distribution, with blow-up caps)
///    -> per-atom canonicalization (dnf/CanonicalAtom.h)
///    -> conjunction-level simplification (contradiction pruning,
///       duplicate and subsumed conjunction removal)
///    -> a canonical, interned predicate expression;
///    -> its flat signature (expr/SigEntry.h), the predicate-table key
///       giving the paper's "syntax equivalence" (§5.2).
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_DNF_DNF_H
#define AUTOSYNCH_DNF_DNF_H

#include "expr/ExprArena.h"
#include "expr/SigEntry.h"

#include <cstddef>
#include <vector>

namespace autosynch {

/// One DNF conjunction: the conjunction of its atoms. Atoms are bool-typed
/// expressions that are not And/Or (after an inexact fallback an atom may
/// be an arbitrary boolean expression; taggers must not assume shape).
struct Conjunction {
  std::vector<ExprRef> Atoms;
};

/// A predicate in disjunctive normal form.
struct Dnf {
  std::vector<Conjunction> Conjs;
  /// False when the distribution hit the blow-up cap and the predicate was
  /// kept as a single opaque atom instead.
  bool Exact = true;

  /// True when the DNF is the constant `true` (one empty conjunction).
  bool isTrue() const {
    return Conjs.size() == 1 && Conjs.front().Atoms.empty();
  }
  /// True when the DNF is the constant `false` (no conjunctions).
  bool isFalse() const { return Conjs.empty(); }
};

/// Negation-normal form: Not appears only directly above non-logical atoms;
/// negated comparisons are flipped instead. Result is interned in \p Arena.
ExprRef toNnf(ExprArena &Arena, ExprRef E);

/// Limits for DNF distribution. The paper's predicates have a handful of
/// conjunctions; the caps only guard against pathological inputs.
struct DnfLimits {
  size_t MaxConjunctions = 128;
  size_t MaxAtomsPerConjunction = 64;
};

/// Converts bool-typed \p E to DNF. When distribution exceeds \p Limits the
/// result is a single conjunction whose only atom is the whole NNF
/// expression, with Exact = false (it still evaluates correctly; it simply
/// gets a None tag).
Dnf toDnf(ExprArena &Arena, ExprRef E, DnfLimits Limits = {});

/// Rebuilds the expression form of \p D: `(a && b) || (c) || ...` with the
/// conjunctions and atoms in their stored order.
ExprRef dnfToExpr(ExprArena &Arena, const Dnf &D);

/// A fully canonicalized predicate: the DNF (canonical atoms, sorted,
/// deduplicated) plus its interned expression form. Two predicates that are
/// "syntax equivalent after globalization" (paper §5.2) — and many that are
/// merely semantically equal, thanks to atom canonicalization — share the
/// same Expr pointer.
struct CanonicalPredicate {
  ExprRef Expr = nullptr;
  Dnf D;
};

/// Canonicalizes globalized, bool-typed \p E.
CanonicalPredicate canonicalizePredicate(ExprArena &Arena, ExprRef E,
                                         DnfLimits Limits = {});

/// One conjunction's run of entries, [Begin, End), in a signature under
/// construction (no separators inside).
struct SigSegment {
  size_t Begin = 0;
  size_t End = 0;
};

/// The finishing step every route to a signature shares, so one ground
/// predicate gets one key however it was built: sorts each segment's
/// entries into the order structuralCompare gives the atoms they denote
/// (canonicalizePredicate's atom order) and drops duplicates, then sorts
/// the segments lexicographically and drops duplicate and subsumed ones.
/// Writes the separator-terminated result to \p Out, which must hold the
/// total segment length plus \p NumSegs entries and must not alias
/// \p Entries, and returns its length. \p Entries and \p Segs are
/// reordered in place.
size_t finishSignature(SigEntry *Entries, SigSegment *Segs, size_t NumSegs,
                       SigEntry *Out);

/// The signature of canonical \p D (a canonicalizePredicate result that is
/// neither true nor false): canonical comparisons become resolved entries,
/// every other atom an opaque one. No size cap.
std::vector<SigEntry> signatureOf(const Dnf &D);

} // namespace autosynch

#endif // AUTOSYNCH_DNF_DNF_H
