//===- tag/Tag.h - Predicate tags (paper Section 4.3) ----------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Predicate tags. A tag is the paper's four-tuple (M, expr, key, op)
/// (Definition 8): M ∈ {Equivalence, Threshold, None}; expr is a shared
/// expression; key is the globalized local-expression value; op is the
/// threshold comparison. One tag is assigned per DNF conjunction with
/// priority Equivalence > Threshold > None (Fig. 3), because an equivalence
/// tag prunes the search space hardest.
///
/// Because registration happens after globalization and canonicalization,
/// the tagged atoms here have the shape `linear-shared-expr op constant` —
/// a registered record's tags are read straight off the resolved entries
/// of its signature (expr/SigEntry.h); boolean shared variables `b` / `!b`
/// are tagged as equivalences with keys 1 / 0.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_TAG_TAG_H
#define AUTOSYNCH_TAG_TAG_H

#include "dnf/Dnf.h"
#include "expr/SigEntry.h"
#include "expr/SymbolTable.h"

#include <cstdint>
#include <string>
#include <vector>

namespace autosynch {

/// The tag's mode M (paper Definition 8).
enum class TagKind : uint8_t { Equivalence, Threshold, None };

/// Returns "equivalence", "threshold", or "none".
const char *tagKindName(TagKind K);

/// A predicate tag. For None tags, SharedExpr is null and Key/Op are
/// meaningless (the paper's ⊥).
struct Tag {
  TagKind Kind = TagKind::None;
  /// The canonical shared expression (interned; pointer identity groups
  /// tags of the same expression, as the paper's per-expression structures
  /// require).
  ExprRef SharedExpr = nullptr;
  /// Globalized local-expression value.
  int64_t Key = 0;
  /// For Threshold tags: Le, Ge (canonical), or Lt, Gt (accepted for
  /// generality). Unused otherwise.
  ExprKind Op = ExprKind::Eq;

  bool operator==(const Tag &Rhs) const {
    return Kind == Rhs.Kind && SharedExpr == Rhs.SharedExpr &&
           Key == Rhs.Key && Op == Rhs.Op;
  }

  std::string toString(const SymbolTable &Syms) const;
};

/// Derives the tag of one conjunction (paper Fig. 3): the first equivalence
/// atom wins, else the first threshold atom, else None. Atoms mentioning
/// local variables are not taggable (the caller globalizes first; the check
/// is defensive).
Tag deriveTag(ExprArena &Arena, const Conjunction &C,
              const SymbolTable &Syms);

/// Derives one tag per conjunction of \p D and deduplicates (the paper
/// notes multiple conjunctions may share a tag; indices store each record
/// once per distinct tag).
std::vector<Tag> deriveTags(ExprArena &Arena, const Dnf &D,
                            const SymbolTable &Syms);

/// The same derivation over the signature \p Sig (\p N entries, as
/// finishSignature leaves it): one tag per conjunction segment, in entry
/// order, deduplicated, written to \p Out (its storage is reused).
void deriveTags(const SigEntry *Sig, size_t N, const SymbolTable &Syms,
                std::vector<Tag> &Out);

} // namespace autosynch

#endif // AUTOSYNCH_TAG_TAG_H
