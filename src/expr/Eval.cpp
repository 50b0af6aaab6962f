//===- expr/Eval.cpp - Tree-walking evaluator ------------------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "expr/Eval.h"

using namespace autosynch;

uint64_t autosynch::predicateEvalCount() {
  return detail::PredicateEvalCounter::read()[0];
}

void autosynch::resetPredicateEvalCount() {
  detail::PredicateEvalCounter::reset();
}

static int64_t wrap(uint64_t V) { return static_cast<int64_t>(V); }

static Value evalImpl(ExprRef E, const Env &Bindings) {
  switch (E->kind()) {
  case ExprKind::IntLit:
    return Value::makeInt(E->intValue());
  case ExprKind::BoolLit:
    return Value::makeBool(E->boolValue());
  case ExprKind::Var:
    return Bindings.get(E->varId());
  case ExprKind::Neg:
    return Value::makeInt(
        wrap(-static_cast<uint64_t>(evalImpl(E->lhs(), Bindings).asInt())));
  case ExprKind::Not:
    return Value::makeBool(!evalImpl(E->lhs(), Bindings).asBool());
  case ExprKind::And: {
    // Short-circuit, like the source language.
    if (!evalImpl(E->lhs(), Bindings).asBool())
      return Value::makeBool(false);
    return Value::makeBool(evalImpl(E->rhs(), Bindings).asBool());
  }
  case ExprKind::Or: {
    if (evalImpl(E->lhs(), Bindings).asBool())
      return Value::makeBool(true);
    return Value::makeBool(evalImpl(E->rhs(), Bindings).asBool());
  }
  default:
    break;
  }

  // Remaining kinds are strict binary operators.
  Value LV = evalImpl(E->lhs(), Bindings);
  Value RV = evalImpl(E->rhs(), Bindings);

  if (isComparisonKind(E->kind())) {
    int64_t A = LV.raw(), B = RV.raw();
    switch (E->kind()) {
    case ExprKind::Eq:
      return Value::makeBool(A == B);
    case ExprKind::Ne:
      return Value::makeBool(A != B);
    case ExprKind::Lt:
      return Value::makeBool(A < B);
    case ExprKind::Le:
      return Value::makeBool(A <= B);
    case ExprKind::Gt:
      return Value::makeBool(A > B);
    case ExprKind::Ge:
      return Value::makeBool(A >= B);
    default:
      AUTOSYNCH_UNREACHABLE("invalid comparison kind");
    }
  }

  int64_t A = LV.asInt(), B = RV.asInt();
  switch (E->kind()) {
  case ExprKind::Add:
    return Value::makeInt(
        wrap(static_cast<uint64_t>(A) + static_cast<uint64_t>(B)));
  case ExprKind::Sub:
    return Value::makeInt(
        wrap(static_cast<uint64_t>(A) - static_cast<uint64_t>(B)));
  case ExprKind::Mul:
    return Value::makeInt(
        wrap(static_cast<uint64_t>(A) * static_cast<uint64_t>(B)));
  case ExprKind::Div:
    AUTOSYNCH_CHECK(B != 0, "division by zero in predicate");
    AUTOSYNCH_CHECK(!(A == INT64_MIN && B == -1),
                    "INT64_MIN / -1 overflow in predicate");
    return Value::makeInt(A / B);
  case ExprKind::Mod:
    AUTOSYNCH_CHECK(B != 0, "modulo by zero in predicate");
    AUTOSYNCH_CHECK(!(A == INT64_MIN && B == -1),
                    "INT64_MIN % -1 overflow in predicate");
    return Value::makeInt(A % B);
  default:
    AUTOSYNCH_UNREACHABLE("invalid ExprKind in eval");
  }
}

Value autosynch::eval(ExprRef E, const Env &Bindings) {
  detail::bumpPredicateEvalCount();
  return evalImpl(E, Bindings);
}

bool autosynch::evalBool(ExprRef E, const Env &Bindings) {
  return eval(E, Bindings).asBool();
}

int64_t autosynch::evalInt(ExprRef E, const Env &Bindings) {
  return eval(E, Bindings).asInt();
}
