//===- expr/ExprArena.h - Interning arena for expressions ------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owns and interns ExprNodes. One arena per monitor; all construction for a
/// monitor happens while holding the monitor lock (or during construction),
/// so the arena is deliberately not thread-safe.
///
/// Construction constant-folds literal operands. Folding is what makes
/// globalization (§4.1) produce canonical shared predicates: substituting
/// num=48 into `count >= num` yields the same interned node as writing
/// `count >= 48` directly.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_EXPR_EXPRARENA_H
#define AUTOSYNCH_EXPR_EXPRARENA_H

#include "expr/Expr.h"

#include <deque>
#include <unordered_set>

namespace autosynch {

/// Content hash for interning lookups.
struct ExprNodeContentHash {
  size_t operator()(const ExprNode *N) const;
};

/// Content equality for interning lookups.
struct ExprNodeContentEq {
  bool operator()(const ExprNode *A, const ExprNode *B) const;
};

/// Bump-allocates and hash-conses expression nodes. Returned ExprRefs are
/// valid for the lifetime of the arena.
class ExprArena {
public:
  ExprArena() = default;
  ExprArena(const ExprArena &) = delete;
  ExprArena &operator=(const ExprArena &) = delete;

  ExprRef intLit(int64_t V);
  ExprRef boolLit(bool B);
  ExprRef var(const VarInfo &Info) { return var(Info.Id, Info.Type); }
  ExprRef var(VarId Id, TypeKind Ty);

  /// Builds a unary node (Neg over int, Not over bool). Type-checked;
  /// literal operands are folded.
  ExprRef unary(ExprKind K, ExprRef Op);

  /// Builds a binary node. Type-checked; literal operands are folded
  /// (except division/modulo by a zero literal, which is left unfolded and
  /// faults at evaluation time).
  ExprRef binary(ExprKind K, ExprRef L, ExprRef R);

  /// Builds the literal for \p V.
  ExprRef literal(const Value &V) {
    return V.isBool() ? boolLit(V.asBool()) : intLit(V.asInt());
  }

  /// Number of distinct interned nodes.
  size_t numNodes() const { return Nodes.size(); }

  /// Number of interning requests so far, lookups of existing nodes
  /// included: every node constructor that reached the hash table.
  uint64_t internCalls() const { return InternCalls; }

private:
  ExprRef intern(const ExprNode &Candidate);

  uint64_t InternCalls = 0;

  std::deque<ExprNode> Nodes;
  std::unordered_set<const ExprNode *, ExprNodeContentHash, ExprNodeContentEq>
      Interned;
};

} // namespace autosynch

#endif // AUTOSYNCH_EXPR_EXPRARENA_H
