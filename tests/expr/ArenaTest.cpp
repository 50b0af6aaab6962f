//===- tests/expr/ArenaTest.cpp - Interning arena tests ---------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "expr/ExprArena.h"

#include <gtest/gtest.h>

using namespace autosynch;
using testutil::Vars;

TEST(ArenaTest, LiteralsAreInterned) {
  ExprArena A;
  EXPECT_EQ(A.intLit(5), A.intLit(5));
  EXPECT_NE(A.intLit(5), A.intLit(6));
  EXPECT_EQ(A.boolLit(true), A.boolLit(true));
  EXPECT_NE(A.boolLit(true), A.boolLit(false));
}

TEST(ArenaTest, VarsAreInterned) {
  Vars V;
  ExprArena A;
  EXPECT_EQ(A.var(V.Syms.info(V.X)), A.var(V.Syms.info(V.X)));
  EXPECT_NE(A.var(V.Syms.info(V.X)), A.var(V.Syms.info(V.Y)));
}

TEST(ArenaTest, StructurallyEqualTreesShareOneNode) {
  Vars V;
  ExprArena A;
  ExprRef X = A.var(V.Syms.info(V.X));
  ExprRef E1 = A.binary(ExprKind::Add, X, A.intLit(1));
  ExprRef E2 = A.binary(ExprKind::Add, X, A.intLit(1));
  EXPECT_EQ(E1, E2);
  // Same shape via a different build order still dedups.
  ExprRef G1 = A.binary(ExprKind::Ge, E1, A.intLit(3));
  ExprRef G2 =
      A.binary(ExprKind::Ge, A.binary(ExprKind::Add, X, A.intLit(1)),
               A.intLit(3));
  EXPECT_EQ(G1, G2);
}

TEST(ArenaTest, NodeCountReflectsSharing) {
  Vars V;
  ExprArena A;
  size_t Before = A.numNodes();
  ExprRef X = A.var(V.Syms.info(V.X));
  A.binary(ExprKind::Add, X, A.intLit(1));
  A.binary(ExprKind::Add, X, A.intLit(1)); // No new nodes.
  EXPECT_EQ(A.numNodes(), Before + 3);     // x, 1, x+1.
}

TEST(ArenaTest, InternCallsCountLookups) {
  // Unlike numNodes(), internCalls() also counts requests that found an
  // existing node: it measures arena traffic, not arena growth.
  Vars V;
  ExprArena A;
  ExprRef X = A.var(V.Syms.info(V.X));
  A.binary(ExprKind::Add, X, A.intLit(1));
  uint64_t Before = A.internCalls();
  size_t Nodes = A.numNodes();
  A.binary(ExprKind::Add, X, A.intLit(1)); // Two lookups, no new node.
  EXPECT_EQ(A.internCalls(), Before + 2);
  EXPECT_EQ(A.numNodes(), Nodes);
}

TEST(ArenaTest, ConstantFoldingArithmetic) {
  ExprArena A;
  EXPECT_EQ(A.binary(ExprKind::Add, A.intLit(2), A.intLit(3)), A.intLit(5));
  EXPECT_EQ(A.binary(ExprKind::Sub, A.intLit(2), A.intLit(3)),
            A.intLit(-1));
  EXPECT_EQ(A.binary(ExprKind::Mul, A.intLit(4), A.intLit(3)),
            A.intLit(12));
  EXPECT_EQ(A.binary(ExprKind::Div, A.intLit(7), A.intLit(2)), A.intLit(3));
  EXPECT_EQ(A.binary(ExprKind::Mod, A.intLit(7), A.intLit(2)), A.intLit(1));
  EXPECT_EQ(A.unary(ExprKind::Neg, A.intLit(5)), A.intLit(-5));
}

TEST(ArenaTest, ConstantFoldingComparisons) {
  ExprArena A;
  EXPECT_EQ(A.binary(ExprKind::Lt, A.intLit(2), A.intLit(3)),
            A.boolLit(true));
  EXPECT_EQ(A.binary(ExprKind::Ge, A.intLit(2), A.intLit(3)),
            A.boolLit(false));
  EXPECT_EQ(A.binary(ExprKind::Eq, A.intLit(3), A.intLit(3)),
            A.boolLit(true));
}

TEST(ArenaTest, DivisionByZeroLiteralIsNotFolded) {
  ExprArena A;
  ExprRef E = A.binary(ExprKind::Div, A.intLit(7), A.intLit(0));
  EXPECT_EQ(E->kind(), ExprKind::Div); // Left for evaluation to fault on.
}

TEST(ArenaTest, BooleanIdentityFolds) {
  Vars V;
  ExprArena A;
  ExprRef F = A.var(V.Syms.info(V.Flag));
  EXPECT_EQ(A.binary(ExprKind::And, F, A.boolLit(true)), F);
  EXPECT_EQ(A.binary(ExprKind::And, F, A.boolLit(false)),
            A.boolLit(false));
  EXPECT_EQ(A.binary(ExprKind::Or, F, A.boolLit(false)), F);
  EXPECT_EQ(A.binary(ExprKind::Or, A.boolLit(true), F), A.boolLit(true));
  EXPECT_EQ(A.unary(ExprKind::Not, A.boolLit(true)), A.boolLit(false));
}

TEST(ArenaTest, WrappingFoldMatchesEvalSemantics) {
  ExprArena A;
  ExprRef E = A.binary(ExprKind::Add, A.intLit(INT64_MAX), A.intLit(1));
  ASSERT_EQ(E->kind(), ExprKind::IntLit);
  EXPECT_EQ(E->intValue(), INT64_MIN); // Two's-complement wrap.
}

TEST(ArenaTest, TypeErrorsAreFatal) {
  Vars V;
  ExprArena A;
  ExprRef X = A.var(V.Syms.info(V.X));
  ExprRef F = A.var(V.Syms.info(V.Flag));
  EXPECT_DEATH(A.binary(ExprKind::Add, X, F), "arithmetic requires int");
  EXPECT_DEATH(A.binary(ExprKind::And, X, X), "requires bool");
  EXPECT_DEATH(A.binary(ExprKind::Lt, F, F), "ordering comparison");
  EXPECT_DEATH(A.unary(ExprKind::Not, X), "Not requires a bool");
  EXPECT_DEATH(A.unary(ExprKind::Neg, F), "Neg requires an int");
}
