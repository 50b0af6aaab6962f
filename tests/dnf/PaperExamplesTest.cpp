//===- tests/dnf/PaperExamplesTest.cpp - Paper predicate goldens -------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Golden canonicalization + tagging results for every predicate the paper
// uses as an example (Fig. 7's condition-manager population, the §4.3
// rearrangements, and the Fig. 1 buffer predicates).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "dnf/Dnf.h"
#include "expr/Printer.h"
#include "expr/Subst.h"
#include "parse/PredicateParser.h"
#include "tag/Tag.h"

#include <gtest/gtest.h>

using namespace autosynch;
using testutil::Vars;

namespace {

class PaperExamplesTest : public ::testing::Test {
protected:
  Vars V;
  ExprArena A;

  ExprRef parse(std::string_view Src) {
    PredicateParseOptions Options;
    Options.AutoDeclareLocals = true;
    PredicateParseResult R = parsePredicate(Src, A, V.Syms, Options);
    EXPECT_TRUE(R.ok()) << Src << ": " << R.Error.toString();
    return R.Expr;
  }

  std::string canonAndTag(std::string_view Src) {
    CanonicalPredicate CP = canonicalizePredicate(A, parse(Src));
    std::string Out = printExpr(CP.Expr, V.Syms);
    Out += "  tags:";
    for (const Tag &T : deriveTags(A, CP.D, V.Syms)) {
      Out += ' ';
      Out += T.toString(V.Syms);
    }
    return Out;
  }
};

TEST_F(PaperExamplesTest, Figure7Population) {
  // The condition manager of Fig. 7 holds these predicates over x. Each
  // line pins the canonical form and the derived tag.
  EXPECT_EQ(canonAndTag("x > 5"), "x >= 6  tags: (threshold, x, 6, >=)");
  EXPECT_EQ(canonAndTag("x >= 5"), "x >= 5  tags: (threshold, x, 5, >=)");
  EXPECT_EQ(canonAndTag("x < 3"), "x <= 2  tags: (threshold, x, 2, <=)");
  EXPECT_EQ(canonAndTag("x <= 3"), "x <= 3  tags: (threshold, x, 3, <=)");
  EXPECT_EQ(canonAndTag("x == 6"), "x == 6  tags: (equivalence, x, 6)");
  EXPECT_EQ(canonAndTag("x == 7"), "x == 7  tags: (equivalence, x, 7)");
  EXPECT_EQ(canonAndTag("x != 9"), "x != 9  tags: (none)");
  EXPECT_EQ(canonAndTag("x != 5"), "x != 5  tags: (none)");
  EXPECT_EQ(canonAndTag("(x != 1) && (x <= 2)"),
            "x != 1 && x <= 2  tags: (threshold, x, 2, <=)");
  EXPECT_EQ(canonAndTag("(x != 9) && (x >= 2)"),
            "x != 9 && x >= 2  tags: (threshold, x, 2, >=)");
  EXPECT_EQ(canonAndTag("(x >= 8) || (x == 3)"),
            "x == 3 || x >= 8  tags: (equivalence, x, 3) "
            "(threshold, x, 8, >=)");
}

TEST_F(PaperExamplesTest, Section43ThresholdRearrangement) {
  // "consider the Threshold predicate x + b > 2y + a where a and b are
  // local variables with values 11 and 2 ... converted to (x - 2y > 9),
  // represented by the tag (Threshold, x - 2y, 9, >)". Inclusive integer
  // form here: x - 2y >= 10.
  MapEnv Locals;
  Locals.bindInt(V.A, 11).bindInt(V.B, 2);
  ExprRef G = globalize(A, parse("x + b > 2 * y + a"), V.Syms, Locals);
  CanonicalPredicate CP = canonicalizePredicate(A, G);
  EXPECT_EQ(printExpr(CP.Expr, V.Syms), "x + -2 * y >= 10");
  std::vector<Tag> Tags = deriveTags(A, CP.D, V.Syms);
  ASSERT_EQ(Tags.size(), 1u);
  EXPECT_EQ(Tags[0].toString(V.Syms), "(threshold, x + -2 * y, 10, >=)");
}

TEST_F(PaperExamplesTest, Section43EquivalenceRearrangement) {
  // "(x - a = y + b) ... is equivalent to (x - y = a + b)", a = 5, b = 2.
  MapEnv Locals;
  Locals.bindInt(V.A, 5).bindInt(V.B, 2);
  ExprRef G = globalize(A, parse("x - a == y + b"), V.Syms, Locals);
  CanonicalPredicate CP = canonicalizePredicate(A, G);
  EXPECT_EQ(printExpr(CP.Expr, V.Syms), "x + -1 * y == 7");
  std::vector<Tag> Tags = deriveTags(A, CP.D, V.Syms);
  ASSERT_EQ(Tags.size(), 1u);
  EXPECT_EQ(Tags[0].Kind, TagKind::Equivalence);
  EXPECT_EQ(Tags[0].Key, 7);
}

TEST_F(PaperExamplesTest, Figure1BufferPredicates) {
  // The parameterized buffer's waituntil conditions, globalized at
  // items = 48 / num = 32, buffer length 64.
  MapEnv Locals;
  Locals.bindInt(V.A, 48); // a plays 'items'
  Locals.bindInt(V.B, 32); // b plays 'num'
  ExprRef Put = globalize(A, parse("x + a <= 64"), V.Syms, Locals);
  EXPECT_EQ(printExpr(canonicalizePredicate(A, Put).Expr, V.Syms),
            "x <= 16");
  ExprRef Take = globalize(A, parse("x >= b"), V.Syms, Locals);
  EXPECT_EQ(printExpr(canonicalizePredicate(A, Take).Expr, V.Syms),
            "x >= 32");
}

TEST_F(PaperExamplesTest, Section41DnfExample) {
  // "(x = 1) ∧ (y = 6) ∨ (z ≠ 8) is DNF, where c1 = ... and c2 = ...".
  CanonicalPredicate CP =
      canonicalizePredicate(A, parse("x == 1 && y == 6 || z != 8"));
  ASSERT_EQ(CP.D.Conjs.size(), 2u);
  std::vector<Tag> Tags = deriveTags(A, CP.D, V.Syms);
  ASSERT_EQ(Tags.size(), 2u);
  // One equivalence tag (from the two-atom conjunction) and one None tag
  // (z != 8 is neither equivalence nor threshold).
  EXPECT_TRUE((Tags[0].Kind == TagKind::Equivalence &&
               Tags[1].Kind == TagKind::None) ||
              (Tags[0].Kind == TagKind::None &&
               Tags[1].Kind == TagKind::Equivalence));
}

TEST_F(PaperExamplesTest, SharedConjunctTagSharing) {
  // §4.3.1: "the predicates (x = 5) ∧ (z ≤ 4) and (x = 5) ∧ (y ≥ 4) would
  // have a shared equivalence tag of (x = 5)."
  CanonicalPredicate P1 = canonicalizePredicate(A, parse("x == 5 && z <= 4"));
  CanonicalPredicate P2 = canonicalizePredicate(A, parse("x == 5 && y >= 4"));
  std::vector<Tag> T1 = deriveTags(A, P1.D, V.Syms);
  std::vector<Tag> T2 = deriveTags(A, P2.D, V.Syms);
  ASSERT_EQ(T1.size(), 1u);
  ASSERT_EQ(T2.size(), 1u);
  EXPECT_TRUE(T1[0] == T2[0]); // Same kind, shared expr pointer, and key.
}

} // namespace
