//===- bench/ablation_eval.cpp - Evaluator micro-ablation ---------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Micro-ablation of predicate-evaluation strategies: the reference
// tree-walking evaluator versus the compiled bytecode VM, on predicates
// representative of the paper's problems. Relay signaling evaluates
// predicates on its hot path (§1's "predicate evaluation" cost), so this
// is the per-check cost the monitor pays. The VM runs two programs: the
// Env program (variables through the virtual Env) and the slot program
// that the condition manager's records and the wait plans run (variables
// resolved at compile time to indices into a flat value array).
//
//===----------------------------------------------------------------------===//

#include "expr/Bytecode.h"
#include "expr/Eval.h"
#include "parse/PredicateParser.h"

#include <benchmark/benchmark.h>

#include <vector>

using namespace autosynch;

namespace {

struct Fixture {
  SymbolTable Syms;
  ExprArena Arena;
  MapEnv Env;
  /// The same state as Env, indexed by VarId (the monitor's slot array).
  std::vector<Value> Slots;
  ExprRef Pred;
  CompiledPredicate Code;
  CompiledPredicate SlotCode;

  explicit Fixture(const char *Src) {
    VarId Count = Syms.declare("count", TypeKind::Int, VarScope::Shared);
    VarId Serving = Syms.declare("serving", TypeKind::Int, VarScope::Shared);
    VarId Writers = Syms.declare("writers", TypeKind::Int, VarScope::Shared);
    VarId Readers = Syms.declare("readers", TypeKind::Int, VarScope::Shared);
    Env.bindInt(Count, 37).bindInt(Serving, 12).bindInt(Writers, 0);
    Env.bindInt(Readers, 3);
    Slots.resize(Syms.size());
    for (VarId V : {Count, Serving, Writers, Readers})
      Slots[V] = Env.get(V);
    PredicateParseResult R = parsePredicate(Src, Arena, Syms);
    AUTOSYNCH_CHECK(R.ok(), "fixture predicate must parse");
    Pred = R.Expr;
    Code = CompiledPredicate::compile(Pred);
    SlotCode = CompiledPredicate::compile(Pred, [](VarId V) {
      return ResolvedVar{ResolvedVar::Kind::Shared, V};
    });
  }
};

constexpr const char *SimpleThreshold = "count >= 48";
constexpr const char *RwConjunction =
    "serving == 12 && writers == 0 && readers == 0";
constexpr const char *WideDisjunction =
    "count >= 48 || serving == 3 || count + readers >= 100 || "
    "writers == 1 && count <= 10";

void treeWalk(benchmark::State &State, const char *Src) {
  Fixture F(Src);
  for (auto _ : State) {
    bool B = evalBool(F.Pred, F.Env);
    benchmark::DoNotOptimize(B);
  }
}

void bytecode(benchmark::State &State, const char *Src) {
  Fixture F(Src);
  for (auto _ : State) {
    bool B = F.Code.runBool(F.Env);
    benchmark::DoNotOptimize(B);
  }
}

void slotBytecode(benchmark::State &State, const char *Src) {
  Fixture F(Src);
  for (auto _ : State) {
    bool B = F.SlotCode.runRawBool(F.Slots.data(), nullptr);
    benchmark::DoNotOptimize(B);
  }
}

} // namespace

BENCHMARK_CAPTURE(treeWalk, simple_threshold, SimpleThreshold);
BENCHMARK_CAPTURE(bytecode, simple_threshold, SimpleThreshold);
BENCHMARK_CAPTURE(slotBytecode, simple_threshold, SimpleThreshold);
BENCHMARK_CAPTURE(treeWalk, rw_conjunction, RwConjunction);
BENCHMARK_CAPTURE(bytecode, rw_conjunction, RwConjunction);
BENCHMARK_CAPTURE(slotBytecode, rw_conjunction, RwConjunction);
BENCHMARK_CAPTURE(treeWalk, wide_disjunction, WideDisjunction);
BENCHMARK_CAPTURE(bytecode, wide_disjunction, WideDisjunction);
BENCHMARK_CAPTURE(slotBytecode, wide_disjunction, WideDisjunction);

BENCHMARK_MAIN();
