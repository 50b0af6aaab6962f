//===- expr/Eval.cpp - Tree-walking evaluator ------------------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "expr/Eval.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <vector>

using namespace autosynch;

namespace {

/// One thread's evaluation count. Only its own thread writes it, with a
/// relaxed load and store (no locked read-modify-write); any thread may
/// read it for the total.
struct EvalCounter {
  std::atomic<uint64_t> N{0};
  bool Enrolled = false;

  void bump() {
    if (AUTOSYNCH_UNLIKELY(!Enrolled))
      enroll();
    N.store(N.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  /// Adds the counter to the registry on the thread's first evaluation and
  /// retires it when the thread exits (out of line, off the bump path).
  AUTOSYNCH_NOINLINE void enroll();
};

/// Every live thread's counter, what exited threads counted, and the
/// total the last reset saw.
struct EvalRegistry {
  std::mutex M;
  std::vector<const EvalCounter *> Live;
  uint64_t Retired = 0;
  uint64_t Baseline = 0;

  /// Live and retired counts; requires M.
  uint64_t total() const {
    uint64_t Sum = Retired;
    for (const EvalCounter *C : Live)
      Sum += C->N.load(std::memory_order_relaxed);
    return Sum;
  }
};

/// Never destroyed: threads may still exit, and retire their counts, while
/// static destructors run.
EvalRegistry &registry() {
  static EvalRegistry *R = new EvalRegistry;
  return *R;
}

/// Constant-initialized and trivially destructible, so a bump reads it
/// with no guard beyond Enrolled.
thread_local constinit EvalCounter MyEvals;

void EvalCounter::enroll() {
  /// Folds this thread's count into Retired when the thread exits.
  struct Retirement {
    ~Retirement() {
      EvalRegistry &R = registry();
      std::lock_guard<std::mutex> G(R.M);
      R.Retired += MyEvals.N.load(std::memory_order_relaxed);
      R.Live.erase(std::find(R.Live.begin(), R.Live.end(), &MyEvals));
    }
  };
  static thread_local Retirement AtExit;
  (void)AtExit;
  EvalRegistry &R = registry();
  std::lock_guard<std::mutex> G(R.M);
  R.Live.push_back(this);
  Enrolled = true;
}

} // namespace

uint64_t autosynch::predicateEvalCount() {
  EvalRegistry &R = registry();
  std::lock_guard<std::mutex> G(R.M);
  return R.total() - R.Baseline;
}

void autosynch::resetPredicateEvalCount() {
  EvalRegistry &R = registry();
  std::lock_guard<std::mutex> G(R.M);
  R.Baseline = R.total();
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

void autosynch::detail::bumpPredicateEvalCount() { MyEvals.bump(); }

Value autosynch::eval(ExprRef E, const Env &Bindings) {
  MyEvals.bump();
  return evalImpl(E, Bindings);
}

bool autosynch::evalBool(ExprRef E, const Env &Bindings) {
  return eval(E, Bindings).asBool();
}

int64_t autosynch::evalInt(ExprRef E, const Env &Bindings) {
  return eval(E, Bindings).asInt();
}
