//===- expr/Expr.h - Hash-consed expression AST ----------------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Immutable expression nodes for waituntil predicates. Nodes are interned
/// (hash-consed) by ExprArena, so two structurally identical expressions are
/// the *same pointer*. That gives the O(1) "syntax equivalence" test the
/// paper's predicate table needs (§5.2: predicates identical after
/// globalization map to the same condition variable).
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_EXPR_EXPR_H
#define AUTOSYNCH_EXPR_EXPR_H

#include "expr/Var.h"
#include "support/Check.h"

#include <cstdint>

namespace autosynch {

/// Node kinds of the predicate language.
enum class ExprKind : uint8_t {
  // Leaves.
  IntLit,
  BoolLit,
  Var,
  // Unary.
  Neg, ///< Integer negation.
  Not, ///< Boolean negation.
  // Integer arithmetic.
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  // Comparisons (operands of equal type; result bool).
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  // Boolean connectives.
  And,
  Or
};

constexpr bool isLeafKind(ExprKind K) {
  return K == ExprKind::IntLit || K == ExprKind::BoolLit || K == ExprKind::Var;
}

constexpr bool isUnaryKind(ExprKind K) {
  return K == ExprKind::Neg || K == ExprKind::Not;
}

constexpr bool isArithKind(ExprKind K) {
  return K >= ExprKind::Add && K <= ExprKind::Mod;
}

constexpr bool isComparisonKind(ExprKind K) {
  return K >= ExprKind::Eq && K <= ExprKind::Ge;
}

constexpr bool isLogicalKind(ExprKind K) {
  return K == ExprKind::And || K == ExprKind::Or;
}

constexpr bool isBinaryKind(ExprKind K) {
  return isArithKind(K) || isComparisonKind(K) || isLogicalKind(K);
}

/// Returns the comparison kind equivalent to !(a K b), e.g. Lt -> Ge.
inline ExprKind negatedComparisonKind(ExprKind K) {
  switch (K) {
  case ExprKind::Eq:
    return ExprKind::Ne;
  case ExprKind::Ne:
    return ExprKind::Eq;
  case ExprKind::Lt:
    return ExprKind::Ge;
  case ExprKind::Le:
    return ExprKind::Gt;
  case ExprKind::Gt:
    return ExprKind::Le;
  case ExprKind::Ge:
    return ExprKind::Lt;
  default:
    AUTOSYNCH_UNREACHABLE("negatedComparisonKind on non-comparison");
  }
}

/// Returns the comparison kind of (b K a) given (a K b), e.g. Lt -> Gt.
inline ExprKind swappedComparisonKind(ExprKind K) {
  switch (K) {
  case ExprKind::Eq:
  case ExprKind::Ne:
    return K;
  case ExprKind::Lt:
    return ExprKind::Gt;
  case ExprKind::Le:
    return ExprKind::Ge;
  case ExprKind::Gt:
    return ExprKind::Lt;
  case ExprKind::Ge:
    return ExprKind::Le;
  default:
    AUTOSYNCH_UNREACHABLE("swappedComparisonKind on non-comparison");
  }
}

/// Returns the source spelling of an operator kind (e.g. "<=").
const char *exprKindSpelling(ExprKind K);

class ExprNode;

/// Canonical handle to an interned expression. Pointer equality is
/// structural equality.
using ExprRef = const ExprNode *;

/// An immutable, interned expression node. Construct only via ExprArena.
class ExprNode {
public:
  ExprKind kind() const { return Kind; }
  TypeKind type() const { return Ty; }

  unsigned numOperands() const { return NumOps; }

  ExprRef operand(unsigned I) const {
    AUTOSYNCH_CHECK(I < NumOps, "operand index out of range");
    return Ops[I];
  }

  ExprRef lhs() const { return operand(0); }
  ExprRef rhs() const { return operand(1); }

  int64_t intValue() const {
    AUTOSYNCH_CHECK(Kind == ExprKind::IntLit, "intValue on non-IntLit");
    return Payload;
  }

  bool boolValue() const {
    AUTOSYNCH_CHECK(Kind == ExprKind::BoolLit, "boolValue on non-BoolLit");
    return Payload != 0;
  }

  VarId varId() const {
    AUTOSYNCH_CHECK(Kind == ExprKind::Var, "varId on non-Var");
    return static_cast<VarId>(Payload);
  }

  bool isLiteral() const {
    return Kind == ExprKind::IntLit || Kind == ExprKind::BoolLit;
  }

  /// The literal's runtime value (IntLit or BoolLit only).
  Value literalValue() const {
    if (Kind == ExprKind::IntLit)
      return Value::makeInt(Payload);
    AUTOSYNCH_CHECK(Kind == ExprKind::BoolLit,
                    "literalValue on non-literal node");
    return Value::makeBool(Payload != 0);
  }

private:
  friend class ExprArena;
  friend struct ExprNodeContentHash;
  friend struct ExprNodeContentEq;

  ExprNode() = default;

  ExprKind Kind = ExprKind::IntLit;
  TypeKind Ty = TypeKind::Int;
  uint8_t NumOps = 0;
  /// IntLit value, BoolLit as 0/1, or VarId, depending on Kind.
  int64_t Payload = 0;
  ExprRef Ops[2] = {nullptr, nullptr};
};

} // namespace autosynch

#endif // AUTOSYNCH_EXPR_EXPR_H
