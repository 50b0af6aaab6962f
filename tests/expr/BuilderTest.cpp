//===- tests/expr/BuilderTest.cpp - EDSL builder tests ----------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The expression-template EDSL: operator types, the trees they build in
// an arena, direct evaluation, compile-time typing, shape ids, and the
// cross-monitor check.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/Monitor.h"
#include "expr/Builder.h"
#include "expr/Eval.h"

#include <gtest/gtest.h>

#include <limits>
#include <type_traits>
#include <vector>

using namespace autosynch;
using testutil::Vars;

namespace {

using IntLeaf = edsl::Leaf<TypeKind::Int>;
using BoolLeaf = edsl::Leaf<TypeKind::Bool>;

template <typename L, typename R>
concept Addable = requires(L Lhs, R Rhs) { Lhs + Rhs; };
template <typename L, typename R>
concept Conjoinable = requires(L Lhs, R Rhs) { Lhs && Rhs; };
template <typename L, typename R>
concept Ordered = requires(L Lhs, R Rhs) { Lhs < Rhs; };
template <typename L, typename R>
concept Equatable = requires(L Lhs, R Rhs) { Lhs == Rhs; };
template <typename E>
concept Negatable = requires(E X) { -X; };
template <typename E>
concept Invertible = requires(E X) { !X; };

class BuilderTest : public ::testing::Test {
protected:
  Vars V;
  ExprArena A;
  std::vector<Value> Slots = std::vector<Value>(V.Syms.size());

  IntLeaf x() const { return {nullptr, V.X}; }
  IntLeaf y() const { return {nullptr, V.Y}; }
  BoolLeaf flag() const { return {nullptr, V.Flag}; }

  template <typename E> ExprRef tree(const E &X) {
    return edsl::buildConcrete(X, A);
  }
  template <typename E> Value eval(const E &X) {
    return edsl::evaluate(X, Slots.data());
  }
};

TEST_F(BuilderTest, ArithmeticOperators) {
  auto E = x() + y() * 2 - 1;
  Slots[V.X] = Value::makeInt(10);
  Slots[V.Y] = Value::makeInt(3);
  EXPECT_EQ(eval(E).asInt(), 15);
  MapEnv Env;
  Env.bindInt(V.X, 10).bindInt(V.Y, 3);
  EXPECT_EQ(evalInt(tree(E), Env), 15);

  // At the int64 edge, evaluation wraps like expr/Eval.cpp, but a wait's
  // already-true check does not trust a wrapped result either way.
  constexpr int64_t Max = std::numeric_limits<int64_t>::max();
  Slots[V.X] = Value::makeInt(Max);
  EXPECT_TRUE(eval(x() + 1 <= x()).asBool());
  EXPECT_FALSE(edsl::holds(x() + 1 <= x(), Slots.data()));
  Slots[V.X] = Value::makeInt(Max - 2);
  EXPECT_FALSE(eval(x() + 5 >= 0).asBool());
  EXPECT_FALSE(edsl::holds(x() + 5 >= 0, Slots.data()));
  EXPECT_TRUE(edsl::holds(x() + 2 >= 0, Slots.data()));
  Slots[V.X] = Value::makeInt(std::numeric_limits<int64_t>::min());
  EXPECT_FALSE(edsl::holds(-x() != 0, Slots.data()));
  EXPECT_FALSE(edsl::holds(x() * 2 != 0 || x() - 1 != 0, Slots.data()));
}

TEST_F(BuilderTest, IntOnEitherSide) {
  static_assert(std::is_same_v<decltype(x() + 5),
                               edsl::Bin<ExprKind::Add, IntLeaf, int64_t>>);
  static_assert(std::is_same_v<decltype(5 + x()),
                               edsl::Bin<ExprKind::Add, int64_t, IntLeaf>>);
  EXPECT_EQ(tree(x() + 5)->kind(), ExprKind::Add);
  EXPECT_EQ(tree(5 + x())->kind(), ExprKind::Add);
  // No commutative normalization at build time: distinct trees (the DNF
  // canonicalizer merges them later).
  EXPECT_NE(tree(x() + 5), tree(5 + x()));
}

TEST_F(BuilderTest, ComparisonsProduceBool) {
  static_assert(edsl::Traits<decltype(x() < 3)>::Type == TypeKind::Bool);
  static_assert(edsl::Traits<decltype(x() + 3)>::Type == TypeKind::Int);
  EXPECT_EQ(tree(x() < 3)->type(), TypeKind::Bool);
  EXPECT_EQ(tree(x() <= 3)->kind(), ExprKind::Le);
  EXPECT_EQ(tree(x() > 3)->kind(), ExprKind::Gt);
  EXPECT_EQ(tree(x() >= 3)->kind(), ExprKind::Ge);
  EXPECT_EQ(tree(x() == 3)->kind(), ExprKind::Eq);
  EXPECT_EQ(tree(x() != 3)->kind(), ExprKind::Ne);
  EXPECT_EQ(tree(flag() == true)->kind(), ExprKind::Eq);
}

TEST_F(BuilderTest, TypeErrorsDoNotCompile) {
  // ExprArena::binary's typing rules, enforced by the operators' own
  // constraints instead of a fatal error at run time.
  static_assert(Addable<IntLeaf, int>);
  static_assert(!Addable<BoolLeaf, int>);
  static_assert(!Addable<IntLeaf, BoolLeaf>);
  static_assert(Conjoinable<BoolLeaf, bool>);
  static_assert(!Conjoinable<IntLeaf, IntLeaf>);
  static_assert(!Ordered<BoolLeaf, bool>);
  static_assert(Equatable<BoolLeaf, bool>);
  static_assert(!Equatable<IntLeaf, BoolLeaf>);
  static_assert(Negatable<IntLeaf> && !Negatable<BoolLeaf>);
  static_assert(Invertible<BoolLeaf> && !Invertible<IntLeaf>);
  // Plain values keep their own operators: at least one operand must be
  // an expression.
  static_assert(std::is_same_v<decltype(int64_t{2} + 3), int64_t>);
}

TEST_F(BuilderTest, LogicalOperators) {
  auto E = (x() > 0 && y() < 5) || !flag();
  Slots[V.X] = Value::makeInt(1);
  Slots[V.Y] = Value::makeInt(10);
  Slots[V.Flag] = Value::makeBool(false);
  EXPECT_TRUE(eval(E).asBool());
  MapEnv Env;
  Env.bindInt(V.X, 1).bindInt(V.Y, 10).bindBool(V.Flag, false);
  EXPECT_TRUE(evalBool(tree(E), Env));
}

TEST_F(BuilderTest, UnaryMinus) {
  auto E = -x() + 1;
  Slots[V.X] = Value::makeInt(4);
  EXPECT_EQ(eval(E).asInt(), -3);
  MapEnv Env;
  Env.bindInt(V.X, 4);
  EXPECT_EQ(evalInt(tree(E), Env), -3);
}

TEST_F(BuilderTest, SameExpressionInterns) {
  // One C++ type, one shape id; the same tree interns once.
  auto E1 = x() + 1 <= 64;
  auto E2 = x() + 2 <= 63;
  static_assert(std::is_same_v<decltype(E1), decltype(E2)>);
  EXPECT_EQ(edsl::ShapeId<decltype(E1)>, edsl::ShapeId<decltype(E2)>);
  EXPECT_NE(edsl::ShapeId<decltype(E1)>,
            edsl::ShapeId<decltype(x() - 1 <= 64)>);
  EXPECT_EQ(tree(x() + 1 <= 64), tree(x() + 1 <= 64));
}

TEST_F(BuilderTest, LiteralFoldingThroughOperators) {
  // Literals are plain values, so C++ folds literal-only operands before
  // a node exists; the arena still folds what the concrete tree exposes.
  auto E = x() + (int64_t{2} + 3);
  static_assert(std::is_same_v<decltype(E), decltype(x() + 5)>);
  EXPECT_EQ(tree(E), tree(x() + 5));
  EXPECT_EQ(tree(flag() && (true && false)), A.boolLit(false));
}

/// Two of these mixed in one predicate must be rejected.
class PairedMonitor : public Monitor {
public:
  /// Waits on `X + Other.X >= 0`.
  void waitMixed(PairedMonitor &Other) {
    Region R(*this);
    waitUntil(X + Other.X >= 0);
  }
  /// Waits on `Other.X >= 0`: only a foreign leaf, whose VarId also
  /// names this monitor's `x`, so it would read true from these slots.
  void waitForeign(PairedMonitor &Other) {
    Region R(*this);
    waitUntil(Other.X >= 0);
  }
  void waitOwn() {
    Region R(*this);
    waitUntil(X + X >= 0);
  }

private:
  Shared<int64_t> X{*this, "x", 0};
};

TEST_F(BuilderTest, MixingArenasIsFatal) {
  // Each monitor has its own arena and variables: a predicate mixing two
  // monitors' leaves is rejected before it reaches either.
  PairedMonitor M1, M2;
  EXPECT_DEATH(M1.waitMixed(M2),
               "predicate built against a different monitor");
  // The leaf-owner check runs before the already-true check: a foreign
  // predicate must die even where evaluating it would return at once.
  EXPECT_DEATH(M1.waitForeign(M2),
               "predicate built against a different monitor");
  M1.waitOwn(); // The same shape over one monitor is fine.
}

TEST_F(BuilderTest, ModuloAndDivision) {
  auto E = x() % 4 == 0 && x() / 2 > 1;
  Slots[V.X] = Value::makeInt(8);
  EXPECT_TRUE(eval(E).asBool());
  MapEnv Env;
  Env.bindInt(V.X, 8);
  EXPECT_TRUE(evalBool(tree(E), Env));
}

} // namespace
