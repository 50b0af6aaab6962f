//===- tests/expr/EvalTest.cpp - Tree-walk evaluator tests ------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "expr/Eval.h"

#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <utility>
#include <vector>

using namespace autosynch;
using testutil::Vars;

namespace {

class EvalTest : public ::testing::Test {
protected:
  Vars V;
  ExprArena A;
  MapEnv Env;

  void SetUp() override {
    Env.bindInt(V.X, 10).bindInt(V.Y, -3).bindInt(V.Z, 0);
    Env.bindBool(V.Flag, true);
    Env.bindInt(V.A, 4).bindInt(V.B, 7).bindBool(V.P, false);
  }

  ExprRef x() { return A.var(V.Syms.info(V.X)); }
  ExprRef y() { return A.var(V.Syms.info(V.Y)); }
  ExprRef z() { return A.var(V.Syms.info(V.Z)); }
  ExprRef flag() { return A.var(V.Syms.info(V.Flag)); }
};

TEST_F(EvalTest, Leaves) {
  EXPECT_EQ(eval(A.intLit(42), Env), Value::makeInt(42));
  EXPECT_EQ(eval(A.boolLit(false), Env), Value::makeBool(false));
  EXPECT_EQ(eval(x(), Env), Value::makeInt(10));
  EXPECT_EQ(eval(flag(), Env), Value::makeBool(true));
}

TEST_F(EvalTest, Arithmetic) {
  EXPECT_EQ(evalInt(A.binary(ExprKind::Add, x(), y()), Env), 7);
  EXPECT_EQ(evalInt(A.binary(ExprKind::Sub, x(), y()), Env), 13);
  EXPECT_EQ(evalInt(A.binary(ExprKind::Mul, x(), y()), Env), -30);
  EXPECT_EQ(evalInt(A.binary(ExprKind::Div, x(), y()), Env), -3);
  EXPECT_EQ(evalInt(A.binary(ExprKind::Mod, x(), A.intLit(3)), Env), 1);
  EXPECT_EQ(evalInt(A.unary(ExprKind::Neg, y()), Env), 3);
}

TEST_F(EvalTest, Comparisons) {
  EXPECT_TRUE(evalBool(A.binary(ExprKind::Gt, x(), y()), Env));
  EXPECT_FALSE(evalBool(A.binary(ExprKind::Lt, x(), y()), Env));
  EXPECT_TRUE(evalBool(A.binary(ExprKind::Ge, x(), A.intLit(10)), Env));
  EXPECT_TRUE(evalBool(A.binary(ExprKind::Le, y(), A.intLit(-3)), Env));
  EXPECT_TRUE(evalBool(A.binary(ExprKind::Eq, z(), A.intLit(0)), Env));
  EXPECT_TRUE(evalBool(A.binary(ExprKind::Ne, x(), z()), Env));
}

TEST_F(EvalTest, BoolEqualityComparison) {
  ExprRef P = A.var(V.Syms.info(V.P));
  EXPECT_FALSE(evalBool(A.binary(ExprKind::Eq, flag(), P), Env));
  EXPECT_TRUE(evalBool(A.binary(ExprKind::Ne, flag(), P), Env));
}

TEST_F(EvalTest, ShortCircuitAndSkipsFaultingRhs) {
  // (false && x/z == 0): the division by zero on the right must never run.
  ExprRef Faulting =
      A.binary(ExprKind::Eq, A.binary(ExprKind::Div, x(), z()), A.intLit(0));
  ExprRef E = A.binary(ExprKind::And,
                       A.binary(ExprKind::Lt, x(), A.intLit(0)), Faulting);
  EXPECT_FALSE(evalBool(E, Env));
}

TEST_F(EvalTest, ShortCircuitOrSkipsFaultingRhs) {
  ExprRef Faulting =
      A.binary(ExprKind::Eq, A.binary(ExprKind::Div, x(), z()), A.intLit(0));
  ExprRef E = A.binary(ExprKind::Or,
                       A.binary(ExprKind::Gt, x(), A.intLit(0)), Faulting);
  EXPECT_TRUE(evalBool(E, Env));
}

TEST_F(EvalTest, DivisionByZeroIsFatal) {
  ExprRef E = A.binary(ExprKind::Div, x(), z());
  EXPECT_DEATH(eval(E, Env), "division by zero");
  ExprRef M = A.binary(ExprKind::Mod, x(), z());
  EXPECT_DEATH(eval(M, Env), "modulo by zero");
}

TEST_F(EvalTest, WrappingOverflow) {
  MapEnv Big;
  Big.bindInt(V.X, INT64_MAX);
  ExprRef E = A.binary(ExprKind::Add, A.var(V.Syms.info(V.X)), A.intLit(1));
  EXPECT_EQ(evalInt(E, Big), INT64_MIN);
}

TEST_F(EvalTest, UnboundVariableIsFatal) {
  MapEnv Empty;
  EXPECT_DEATH(eval(x(), Empty), "unbound variable");
}

TEST_F(EvalTest, EvalCountAdvances) {
  resetPredicateEvalCount();
  eval(x(), Env);
  eval(x(), Env);
  EXPECT_EQ(predicateEvalCount(), 2u);
}

TEST_F(EvalTest, EvalCountSumsAcrossThreads) {
  // Each thread counts into its own counter: the total must see every
  // live thread's count, keep it once the thread has exited, and a reset
  // must drop exactly what was counted before it.
  constexpr int Threads = 4;
  constexpr uint64_t PerThread = 1000;
  ExprRef E = x();
  auto Round = [&](uint64_t EvalsBefore, uint64_t EvalsAfter,
                   auto AtMidpoint) {
    std::latch Counted(Threads), Resume(1), Finished(Threads), Exit(1);
    std::vector<std::thread> Workers;
    for (int T = 0; T != Threads; ++T)
      Workers.emplace_back([&] {
        for (uint64_t I = 0; I != EvalsBefore; ++I)
          eval(E, Env);
        Counted.count_down();
        Resume.wait();
        for (uint64_t I = 0; I != EvalsAfter; ++I)
          eval(E, Env);
        Finished.count_down();
        Exit.wait();
      });
    Counted.wait();
    AtMidpoint();
    Resume.count_down();
    Finished.wait();
    uint64_t Parked = predicateEvalCount(); // Threads still alive.
    Exit.count_down();
    for (std::thread &W : Workers)
      W.join();
    return std::make_pair(Parked, predicateEvalCount());
  };

  // No reset: +4000 while the threads are parked, still +4000 once
  // their counters have been retired.
  uint64_t Before = predicateEvalCount();
  auto [Parked, Joined] = Round(PerThread / 2, PerThread / 2, [] {});
  EXPECT_EQ(Parked - Before, Threads * PerThread);
  EXPECT_EQ(Joined - Before, Threads * PerThread);

  // A reset taken mid-way, while the threads are parked between their two
  // halves, subtracts the first half (and everything before it) only.
  uint64_t AtReset = ~uint64_t(0);
  auto [ParkedR, JoinedR] = Round(300, PerThread - 300, [&] {
    resetPredicateEvalCount();
    AtReset = predicateEvalCount();
  });
  EXPECT_EQ(AtReset, 0u);
  EXPECT_EQ(ParkedR, Threads * (PerThread - 300));
  EXPECT_EQ(JoinedR, Threads * (PerThread - 300));
}

} // namespace
