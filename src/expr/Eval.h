//===- expr/Eval.h - Tree-walking evaluator --------------------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reference (tree-walking) evaluator for predicate expressions. The
/// condition manager calls this on behalf of waiting threads (the point of
/// globalization, §4.1). A bytecode evaluator with identical semantics lives
/// in expr/Bytecode.h.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_EXPR_EVAL_H
#define AUTOSYNCH_EXPR_EVAL_H

#include "expr/Env.h"
#include "expr/Expr.h"
#include "support/ThreadCounters.h"

#include <cstdint>

namespace autosynch {

/// Evaluates \p E under \p Bindings.
///
/// Semantics: two's-complement wrapping arithmetic, truncating division,
/// short-circuit && and ||. Division or modulo by zero is a fatal error
/// (predicates must be total).
Value eval(ExprRef E, const Env &Bindings);

/// Evaluates a bool-typed expression. Fatal error on an int-typed \p E.
bool evalBool(ExprRef E, const Env &Bindings);

/// Evaluates an int-typed expression. Fatal error on a bool-typed \p E.
int64_t evalInt(ExprRef E, const Env &Bindings);

/// Process-wide count of eval() calls on predicate roots since the last
/// resetPredicateEvalCount(); the benches use this to report
/// predicate-evaluation workloads. Each thread counts into its own
/// counter (support/ThreadCounters.h: a plain store, no locked
/// instruction) and the read sums every live thread's count with those of
/// threads that have exited.
/// Compiled-predicate executions (expr/Bytecode.h) count too, so the
/// number means "predicate evaluations" regardless of evaluator.
uint64_t predicateEvalCount();
/// Makes predicateEvalCount() count from now; other threads' counters are
/// left alone.
void resetPredicateEvalCount();

namespace detail {
struct PredicateEvalTag;
using PredicateEvalCounter = ThreadCounters<PredicateEvalTag, 1>;

/// Bumps the predicateEvalCount() counter; the bytecode VM and the EDSL's
/// inline check call this on every run so every evaluator feeds one
/// statistic.
inline void bumpPredicateEvalCount() { PredicateEvalCounter::bump(0); }
} // namespace detail

} // namespace autosynch

#endif // AUTOSYNCH_EXPR_EVAL_H
