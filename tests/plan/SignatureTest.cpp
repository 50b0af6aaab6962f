//===- tests/plan/SignatureTest.cpp - Signature compiler property tests -----===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// A predicate record is built straight from a signature: its program by
// CompiledPredicate::compileSignature, its tags and read set from the
// entries. These property tests take random slotted shapes — disjunctions,
// `!=`, coefficients the canonicalizer gcd-reduces, shared and local bool
// atoms — bind random local values, and check that
//
//  * WaitPlan::resolve gives the same signature as signatureOf applied to
//    the globalized, canonicalized predicate (one key for every route),
//    and the same True/False verdicts;
//  * the program compiled from that signature agrees with evalBool of the
//    globalized predicate on 1,000 random shared states.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "dnf/Dnf.h"
#include "expr/Bytecode.h"
#include "expr/Eval.h"
#include "expr/Subst.h"
#include "plan/WaitPlan.h"
#include "tag/Tag.h"

#include <gtest/gtest.h>

#include <vector>

using namespace autosynch;
using testutil::Vars;

namespace {

class SignatureTest : public ::testing::Test {
protected:
  Vars V;
  ExprArena A;

  ExprRef var(VarId Id) { return A.var(V.Syms.info(Id)); }

  /// c * E, with the unit coefficient elided.
  ExprRef scaled(int64_t C, ExprRef E) {
    return C == 1 ? E : A.binary(ExprKind::Mul, A.intLit(C), E);
  }

  /// A random comparison over the shared ints with an optional local
  /// part. The shared coefficients share a random factor, so the ground
  /// canonicalizer gcd-reduces them (rounding the bound) about half the
  /// time; a few atoms are local-only guards.
  ExprRef randomComparison(Rng &R) {
    const VarId Shared[] = {V.X, V.Y, V.Z};
    const VarId Local[] = {V.A, V.B};
    int64_t G = R.chance(1, 2) ? 1 : R.range(2, 3);
    ExprRef Lhs = nullptr;
    if (!R.chance(1, 8)) {
      for (VarId S : Shared) {
        if (Lhs && !R.chance(1, 2))
          continue;
        int64_t C = R.range(1, 2) * G * (R.chance(1, 3) ? -1 : 1);
        ExprRef T = scaled(C, var(S));
        Lhs = Lhs ? A.binary(ExprKind::Add, Lhs, T) : T;
        if (R.chance(1, 2))
          break;
      }
    }
    ExprRef Rhs = A.intLit(R.range(-6, 6));
    for (VarId L : Local)
      if (R.chance(1, 2))
        Rhs = A.binary(R.chance(1, 2) ? ExprKind::Add : ExprKind::Sub, Rhs,
                       scaled(R.range(1, 3), var(L)));
    if (!Lhs)
      Lhs = var(Local[R.range(0, 1)]);
    auto Op = static_cast<ExprKind>(static_cast<int>(ExprKind::Eq) +
                                    R.range(0, 5));
    return A.binary(Op, Lhs, Rhs);
  }

  /// A comparison, or one of the bool atoms `flag`, `!flag` (shared) and
  /// `p`, `!p` (local).
  ExprRef randomAtom(Rng &R) {
    if (!R.chance(1, 4))
      return randomComparison(R);
    ExprRef B = var(R.chance(1, 2) ? V.Flag : V.P);
    return R.chance(1, 2) ? B : A.unary(ExprKind::Not, B);
  }

  /// A disjunction of 1-3 conjunctions of 1-3 atoms, sometimes with a
  /// negated conjunction (De Morgan gives the DNF more disjuncts).
  ExprRef randomShape(Rng &R) {
    ExprRef Or = nullptr;
    for (int64_t C = 0, NC = R.range(1, 3); C != NC; ++C) {
      ExprRef And = nullptr;
      for (int64_t I = 0, NA = R.range(1, 3); I != NA; ++I) {
        ExprRef Atom = randomAtom(R);
        And = And ? A.binary(ExprKind::And, And, Atom) : Atom;
      }
      if (R.chance(1, 6))
        And = A.unary(ExprKind::Not, And);
      Or = Or ? A.binary(ExprKind::Or, Or, And) : And;
    }
    return Or;
  }

  MapEnv randomLocals(Rng &R) {
    MapEnv L;
    L.bindInt(V.A, R.range(-6, 6));
    L.bindInt(V.B, R.range(-6, 6));
    L.bindBool(V.P, R.chance(1, 2));
    return L;
  }

  /// Randomizes the shared state in both views the check compares.
  void randomState(Rng &R, MapEnv &Env, std::vector<Value> &Slots) {
    for (VarId Id : {V.X, V.Y, V.Z}) {
      Slots[Id] = Value::makeInt(R.range(-10, 10));
      Env.bind(Id, Slots[Id]);
    }
    Slots[V.Flag] = Value::makeBool(R.chance(1, 2));
    Env.bind(V.Flag, Slots[V.Flag]);
  }

  CompiledPredicate compile(const std::vector<SigEntry> &Sig) {
    CompiledPredicate P;
    CompiledPredicate::compileSignature(
        Sig.data(), Sig.size(),
        [this](VarId Id) -> ResolvedVar {
          EXPECT_TRUE(V.Syms.isShared(Id));
          return {ResolvedVar::Kind::Shared, Id};
        },
        P);
    return P;
  }
};

TEST_F(SignatureTest, RecordProgramMatchesGlobalizedPredicate) {
  AUTOSYNCH_SEEDED_RNG(R, 0x5161a7u);
  constexpr int Shapes = 150, BindingsPerShape = 4, States = 1000;
  int Slotted = 0, Resolved = 0;
  std::vector<Value> Slots(V.Syms.size());

  for (int S = 0; S != Shapes; ++S) {
    ExprRef Shape = randomShape(R);
    std::unique_ptr<WaitPlan> Plan = WaitPlan::build(A, V.Syms, Shape, {});
    if (Plan->kind() != WaitPlan::Kind::Slotted)
      continue; // Constant shapes and local-free shapes have no binding.
    ++Slotted;
    for (int B = 0; B != BindingsPerShape; ++B) {
      MapEnv Locals = randomLocals(R);
      Value Bound[WaitPlan::MaxSlots];
      Plan->bindFromEnv(Locals, Bound);
      WaitPlan::Scratch Buf;
      size_t N = 0;
      WaitPlan::ResolveStatus Status = Plan->resolve(Bound, Buf, N);

      ExprRef G = globalize(A, Shape, V.Syms, Locals);
      CanonicalPredicate CP = canonicalizePredicate(A, G);
      SCOPED_TRACE(::testing::Message() << "shape #" << S << " binding #"
                                        << B);
      ASSERT_NE(Status, WaitPlan::ResolveStatus::Overflow);
      if (Status == WaitPlan::ResolveStatus::True) {
        EXPECT_TRUE(CP.D.isTrue());
        continue;
      }
      if (Status == WaitPlan::ResolveStatus::False) {
        EXPECT_TRUE(CP.D.isFalse());
        continue;
      }
      ASSERT_FALSE(CP.D.isTrue() || CP.D.isFalse());
      ++Resolved;

      std::vector<SigEntry> Sig(Buf.Sig, Buf.Sig + N);
      EXPECT_EQ(Sig, signatureOf(CP.D))
          << "a binding and its globalized predicate must share one key";
      std::vector<Tag> Tags;
      deriveTags(Sig.data(), Sig.size(), V.Syms, Tags);
      EXPECT_EQ(Tags, deriveTags(A, CP.D, V.Syms));

      CompiledPredicate Code = compile(Sig);
      MapEnv Shared;
      for (int I = 0; I != States; ++I) {
        randomState(R, Shared, Slots);
        ASSERT_EQ(Code.runRawBool(Slots.data(), nullptr),
                  evalBool(G, Shared))
            << "state #" << I;
      }
    }
  }
  // The generator must actually exercise the signature route.
  EXPECT_GE(Slotted, Shapes / 2);
  EXPECT_GE(Resolved, Shapes);
}

TEST_F(SignatureTest, FinishingOrdersSubsumesAndDeduplicates) {
  // `x >= a || (x >= b && y != 0) || x >= a` with a == b: the duplicate
  // conjunction goes, and the second one is subsumed by the first.
  ExprRef X = var(V.X), Y = var(V.Y);
  ExprRef Shape = A.binary(
      ExprKind::Or,
      A.binary(ExprKind::Or, A.binary(ExprKind::Ge, X, var(V.A)),
               A.binary(ExprKind::And, A.binary(ExprKind::Ne, Y, A.intLit(0)),
                        A.binary(ExprKind::Ge, X, var(V.B)))),
      A.binary(ExprKind::Ge, X, var(V.A)));
  std::unique_ptr<WaitPlan> Plan = WaitPlan::build(A, V.Syms, Shape, {});
  ASSERT_EQ(Plan->kind(), WaitPlan::Kind::Slotted);
  MapEnv Locals;
  Locals.bindInt(V.A, 4).bindInt(V.B, 4).bindBool(V.P, false);
  Value Bound[WaitPlan::MaxSlots];
  Plan->bindFromEnv(Locals, Bound);
  WaitPlan::Scratch Buf;
  size_t N = 0;
  ASSERT_EQ(Plan->resolve(Bound, Buf, N), WaitPlan::ResolveStatus::Resolved);
  std::vector<SigEntry> Expected = {SigEntry::resolved(X, ExprKind::Ge, 4),
                                    SigEntry::separator()};
  EXPECT_EQ(std::vector<SigEntry>(Buf.Sig, Buf.Sig + N), Expected);
}

} // namespace
