//===- expr/SigEntry.h - Flat predicate signature entries ------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flat encoding of a ground predicate in DNF — its *signature*. A
/// signature is an array of entries: atoms grouped into conjunction
/// segments, each segment terminated by a separator. An atom is either a
/// resolved comparison `P op K` (P an interned shared linear expression,
/// op one of ==, !=, <=, >=, K a constant) or an opaque atom kept as an
/// interned expression. Entries compare bitwise, so a finished signature
/// (dnf/Dnf.h, finishSignature) is the condition manager's predicate-table
/// key, and the bytecode compiler and tagger read records straight from it.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_EXPR_SIGENTRY_H
#define AUTOSYNCH_EXPR_SIGENTRY_H

#include "expr/Expr.h"

#include <cstdint>

namespace autosynch {

/// One entry of a signature (see file comment).
struct SigEntry {
  /// Separator / opaque-atom / resolved-comparison discriminator. Values
  /// >= OpBase encode the comparison ExprKind of a resolved atom.
  enum : uint64_t { Separator = 0, Opaque = 1, OpBase = 2 };

  ExprRef P = nullptr; ///< Shared expression (resolved) or whole atom.
  uint64_t Kind = Separator;
  int64_t K = 0;

  static SigEntry separator() { return SigEntry{}; }
  static SigEntry opaque(ExprRef Atom) { return {Atom, Opaque, 0}; }
  static SigEntry resolved(ExprRef Shared, ExprKind Op, int64_t K) {
    return {Shared, OpBase + static_cast<uint64_t>(Op), K};
  }

  bool isSeparator() const { return Kind == Separator; }
  bool isOpaque() const { return Kind == Opaque; }
  ExprKind op() const { return static_cast<ExprKind>(Kind - OpBase); }

  bool operator==(const SigEntry &R) const {
    return P == R.P && Kind == R.Kind && K == R.K;
  }
};

} // namespace autosynch

#endif // AUTOSYNCH_EXPR_SIGENTRY_H
