//===- tests/plan/EdslPlanTest.cpp - EDSL vs. parsed plan agreement -------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The EDSL keys its plans by the expression template's C++ type and fills
// the plan's slots from the template's literals; the parsed front end
// plans the parse and binds named locals. For the same predicate the two
// must agree. The shapes here are random expression-template *types*,
// drawn at compile time from a fixed seed list: int and bool shared
// variables, `+ - * / %`, unary minus, comparisons, `&& || !` and
// literals. The variables each leaf reads and every literal value are
// drawn at run time from the seeded Rng. Each predicate is also printed
// as a parsed predicate whose abstractable literals are named locals, and
// the test checks that
//
//  * both plans have the same kind, and resolve() gives the same
//    True/False/Overflow verdict and the same signature, which is also
//    the signature of the concrete predicate canonicalized outright;
//  * the already-true check of either path (compiled plan check, or a
//    direct evaluation for keyless shapes) agrees with evalBool of the
//    concrete tree on 1,000 random shared states;
//  * a zero-timeout wait through either front end returns that verdict.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/Monitor.h"
#include "dnf/Dnf.h"
#include "expr/Eval.h"
#include "expr/Subst.h"
#include "parse/PredicateParser.h"
#include "plan/WaitPlan.h"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

using namespace autosynch;

namespace {

using edsl::Bin;
using edsl::Leaf;
using edsl::Un;

//===----------------------------------------------------------------------===//
// Compile-time random shapes
//===----------------------------------------------------------------------===//

constexpr uint64_t mix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}
constexpr uint64_t child(uint64_t S, uint64_t I) { return mix(S * 31 + I); }

template <typename T> struct Id {
  using type = T;
};

template <uint64_t S, int D> struct IntNode;
template <uint64_t S, int D> struct BoolNode;

/// An int operand: a literal a third of the time, else a node.
template <uint64_t S, int D>
struct IntOp : std::conditional_t<mix(S) % 3 == 0, Id<int64_t>,
                                  IntNode<S, D>> {};
/// A bool operand: a literal a quarter of the time, else a node.
template <uint64_t S, int D>
struct BoolOp : std::conditional_t<mix(S) % 4 == 0, Id<bool>,
                                   BoolNode<S, D>> {};

/// A binary node over two operands, at least one of them a node.
template <ExprKind K, template <uint64_t, int> class Op,
          template <uint64_t, int> class Nd, uint64_t S, int D>
struct PairOf {
  using L = typename Op<child(S, 1), D>::type;
  using R = typename std::conditional_t<edsl::IsLit<L>, Nd<child(S, 2), D>,
                                        Op<child(S, 2), D>>::type;
  using type = Bin<K, L, R>;
};

template <int Choice, uint64_t S, int D>
struct IntPick : Id<Leaf<TypeKind::Int>> {};
template <uint64_t S, int D>
struct IntPick<2, S, D> : PairOf<ExprKind::Add, IntOp, IntNode, S, D - 1> {};
template <uint64_t S, int D>
struct IntPick<3, S, D> : PairOf<ExprKind::Sub, IntOp, IntNode, S, D - 1> {};
template <uint64_t S, int D>
struct IntPick<4, S, D> : PairOf<ExprKind::Mul, IntOp, IntNode, S, D - 1> {};
// Division and modulo by a literal only (drawn nonzero): predicates must
// stay total.
template <uint64_t S, int D>
struct IntPick<5, S, D>
    : Id<Bin<ExprKind::Div, typename IntNode<child(S, 1), D - 1>::type,
             int64_t>> {};
template <uint64_t S, int D>
struct IntPick<6, S, D>
    : Id<Bin<ExprKind::Mod, typename IntNode<child(S, 1), D - 1>::type,
             int64_t>> {};
template <uint64_t S, int D>
struct IntPick<7, S, D>
    : Id<Un<ExprKind::Neg, typename IntNode<child(S, 1), D - 1>::type>> {};

template <uint64_t S, int D>
struct IntNode : IntPick<D == 0 ? 0 : static_cast<int>(mix(S) % 8), S, D> {};

template <int Choice, uint64_t S, int D>
struct BoolPick : Id<Leaf<TypeKind::Bool>> {};
template <uint64_t S, int D>
struct BoolPick<1, S, D>
    : PairOf<static_cast<ExprKind>(static_cast<int>(ExprKind::Eq) +
                                   mix(S + 7) % 6),
             IntOp, IntNode, S, D - 1> {};
template <uint64_t S, int D>
struct BoolPick<2, S, D> : BoolPick<1, S, D> {};
template <uint64_t S, int D>
struct BoolPick<3, S, D> : PairOf<ExprKind::And, BoolOp, BoolNode, S, D - 1> {};
template <uint64_t S, int D>
struct BoolPick<4, S, D> : PairOf<ExprKind::Or, BoolOp, BoolNode, S, D - 1> {};
template <uint64_t S, int D>
struct BoolPick<5, S, D>
    : Id<Un<ExprKind::Not, typename BoolNode<child(S, 1), D - 1>::type>> {};
template <uint64_t S, int D>
struct BoolPick<6, S, D>
    : PairOf<mix(S + 7) % 2 ? ExprKind::Eq : ExprKind::Ne, BoolOp, BoolNode,
             S, D - 1> {};

template <uint64_t S, int D>
struct BoolNode : BoolPick<D == 0 ? 0 : static_cast<int>(mix(S) % 7), S, D> {};

/// The I-th random shape: a comparison or connective at the root.
template <size_t I>
using ShapeAt =
    typename BoolPick<1 + static_cast<int>(mix(0x5eed0000ULL + I) % 6),
                      mix(0xed51ULL + I), 3>::type;

constexpr size_t NumShapes = 48;

//===----------------------------------------------------------------------===//
// The monitor both front ends wait on
//===----------------------------------------------------------------------===//

class Probe : public Monitor {
public:
  explicit Probe(MonitorConfig Cfg = {}) : Monitor(Cfg) {}

  Shared<int64_t> X{*this, "x", 0}, Y{*this, "y", 0}, Z{*this, "z", 0};
  Shared<bool> F{*this, "f", false}, G{*this, "g", false};

  void setState(const std::vector<Value> &State) {
    Region R(*this);
    for (Shared<int64_t> *V : {&X, &Y, &Z})
      *V = State[V->id()].asInt();
    for (Shared<bool> *V : {&F, &G})
      *V = State[V->id()].asBool();
  }

  void setX(int64_t V) {
    Region R(*this);
    X = V;
  }

  template <typename E> const WaitPlan *planOf(const E &P, Value *Bound) {
    Region R(*this);
    return edslPlan(P, Bound);
  }

  template <typename E>
  bool tryWait(const E &P,
               std::chrono::nanoseconds Timeout = std::chrono::nanoseconds(0)) {
    Region R(*this);
    return waitUntilFor(P, Timeout);
  }

  bool tryWait(const std::string &Pred, const MapEnv &Locals,
               std::chrono::nanoseconds Timeout = std::chrono::nanoseconds(0)) {
    Region R(*this);
    return waitUntilFor(Pred, Locals, Timeout);
  }

  VarId declareLocal(const std::string &Name, TypeKind Ty) {
    Region R(*this);
    return local(Name, Ty);
  }

  using Monitor::arena;
  using Monitor::config;
  using Monitor::planCache;
  using Monitor::symbols;
};

//===----------------------------------------------------------------------===//
// Run-time values for a shape: leaves, literals, and the parsed twin
//===----------------------------------------------------------------------===//

struct Maker {
  Probe &M;
  Rng &R;

  template <typename T> T make() {
    if constexpr (std::is_same_v<T, int64_t>) {
      return R.range(-8, 8);
    } else if constexpr (std::is_same_v<T, bool>) {
      return R.chance(1, 2);
    } else if constexpr (std::is_same_v<T, Leaf<TypeKind::Int>>) {
      const Probe::Shared<int64_t> *Vars[] = {&M.X, &M.Y, &M.Z};
      return Vars[R.range(0, 2)]->expr();
    } else if constexpr (std::is_same_v<T, Leaf<TypeKind::Bool>>) {
      return R.chance(1, 2) ? M.F.expr() : M.G.expr();
    } else {
      return makeNode(static_cast<const T *>(nullptr));
    }
  }

  template <ExprKind K, typename E> Un<K, E> makeNode(const Un<K, E> *) {
    return {make<E>()};
  }

  template <ExprKind K, typename L, typename Rt>
  Bin<K, L, Rt> makeNode(const Bin<K, L, Rt> *) {
    L Lhs = make<L>();
    if constexpr (K == ExprKind::Div || K == ExprKind::Mod)
      return {Lhs, R.chance(1, 2) ? R.range(1, 7) : R.range(-7, -1)};
    else
      return {Lhs, make<Rt>()};
  }
};

/// Prints a predicate for the parser: leaves by name, structural literals
/// inline, every other literal as a fresh named local bound in Locals (in
/// pre-order, so the parsed shape's slots line up with the template's).
struct Printer {
  explicit Printer(Probe &M) : M(M) {}

  Probe &M;
  std::string Out;
  MapEnv Locals;
  int NextLocal = 0;

  template <typename T> void print(const T &X) {
    if constexpr (requires { X.Id; }) {
      Out += M.symbols().info(X.Id).Name;
    } else {
      constexpr ExprKind K = decltype(edsl::kindOf(X))::value;
      if constexpr (requires { X.Op; }) {
        Out += exprKindSpelling(K);
        Out += "(";
        print(X.Op);
        Out += ")";
      } else {
        Out += "(";
        operand<edsl::isStructural(K)>(X.Lhs);
        Out += ' ';
        Out += exprKindSpelling(K);
        Out += ' ';
        operand<edsl::isStructural(K)>(X.Rhs);
        Out += ")";
      }
    }
  }

  template <bool Structural, typename T> void operand(const T &X) {
    if constexpr (!edsl::IsLit<T>) {
      print(X);
    } else if constexpr (Structural) {
      Out += '(';
      Out += std::to_string(X);
      Out += ')';
    } else {
      bool IsBool = std::is_same_v<T, bool>;
      std::string Name(1, IsBool ? 'b' : 'a');
      Name += std::to_string(NextLocal++);
      VarId V = M.declareLocal(Name, IsBool ? TypeKind::Bool : TypeKind::Int);
      if (IsBool)
        Locals.bindBool(V, X);
      else
        Locals.bindInt(V, static_cast<int64_t>(X));
      Out += Name;
    }
  }
};

//===----------------------------------------------------------------------===//
// The comparison
//===----------------------------------------------------------------------===//

struct Verdict {
  WaitPlan::Kind K = WaitPlan::Kind::Legacy;
  WaitPlan::ResolveStatus S = WaitPlan::ResolveStatus::Resolved;
  std::vector<SigEntry> Sig;
};

Verdict verdictOf(const WaitPlan &P, const Value *Bound) {
  Verdict V;
  V.K = P.kind();
  if (V.K == WaitPlan::Kind::Ground) {
    V.Sig = P.signature();
  } else if (V.K == WaitPlan::Kind::Slotted) {
    WaitPlan::Scratch Buf;
    size_t N = 0;
    V.S = P.resolve(Bound, Buf, N);
    if (V.S == WaitPlan::ResolveStatus::Resolved)
      V.Sig.assign(Buf.Sig, Buf.Sig + N);
  }
  return V;
}

bool planned(const WaitPlan &P) {
  return P.kind() == WaitPlan::Kind::Ground ||
         P.kind() == WaitPlan::Kind::Slotted;
}

struct Tally {
  int Bindings = 0, Slotted = 0, Resolved = 0, Keyless = 0, Waits = 0;
};

template <typename E>
void checkShape(Probe &M, Rng &R, size_t ShapeIdx, Tally &T) {
  constexpr int Bindings = 4, States = 1000, WaitedStates = 8;
  const VarId IntIds[] = {M.X.id(), M.Y.id(), M.Z.id()};
  const VarId BoolIds[] = {M.F.id(), M.G.id()};

  for (int B = 0; B != Bindings; ++B) {
    Maker Mk{M, R};
    E P = Mk.make<E>();
    Printer Pr(M);
    Pr.print(P);
    SCOPED_TRACE(::testing::Message() << "shape #" << ShapeIdx << " binding #"
                                      << B << ": " << Pr.Out);
    ++T.Bindings;

    // The template path.
    Value TBound[WaitPlan::MaxSlots];
    const WaitPlan *TPlan = M.planOf(P, TBound);
    ASSERT_NE(TPlan, nullptr);

    // Shared states the real waits below replay, and whether each holds.
    std::vector<std::vector<Value>> Waited;
    std::vector<bool> WaitedHolds;
    bool Unsat = false;
    {
      Monitor::Region Lock(M);
      // The parsed path, locals bound.
      PredicateParseResult PR = parsePredicate(Pr.Out, M.arena(), M.symbols());
      ASSERT_TRUE(PR.ok()) << PR.Error.toString();
      const WaitPlan *PPlan =
          M.planCache().forShape(PR.Expr, M.config().Limits);
      Value PBound[WaitPlan::MaxSlots];
      if (PPlan->kind() == WaitPlan::Kind::Slotted)
        PPlan->bindFromEnv(Pr.Locals, PBound);

      Verdict TV = verdictOf(*TPlan, TBound), PV = verdictOf(*PPlan, PBound);
      ASSERT_EQ(TV.K, PV.K);
      ASSERT_EQ(TV.S, PV.S);
      EXPECT_EQ(TV.Sig, PV.Sig) << "one predicate, one key from both fronts";

      // Both agree with the concrete predicate canonicalized outright.
      ExprRef Concrete = edsl::buildConcrete(P, M.arena());
      CanonicalPredicate CP = canonicalizePredicate(M.arena(), Concrete);
      if (TV.K == WaitPlan::Kind::Slotted) {
        ++T.Slotted;
        if (TV.S == WaitPlan::ResolveStatus::True) {
          EXPECT_TRUE(CP.D.isTrue());
        }
        if (TV.S == WaitPlan::ResolveStatus::False) {
          EXPECT_TRUE(CP.D.isFalse());
        }
      }
      Unsat = CP.D.isFalse();
      if (!TV.Sig.empty()) {
        ++T.Resolved;
        EXPECT_EQ(TV.Sig, signatureOf(CP.D));
      } else if (!planned(*TPlan)) {
        // Keyless on both fronts: the concrete predicate and the globalized
        // parse still meet on one signature.
        ++T.Keyless;
        ExprRef G = globalize(M.arena(), PR.Expr, M.symbols(), Pr.Locals);
        CanonicalPredicate PCP = canonicalizePredicate(M.arena(), G);
        EXPECT_EQ(CP.D.isTrue(), PCP.D.isTrue());
        EXPECT_EQ(CP.D.isFalse(), PCP.D.isFalse());
        if (!CP.D.isTrue() && !CP.D.isFalse()) {
          EXPECT_EQ(signatureOf(CP.D), signatureOf(PCP.D));
        }
      }

      // The already-true check of each path against the concrete tree.
      std::vector<Value> State(M.symbols().size());
      MapEnv StateEnv;
      auto RandomState = [&] {
        for (VarId Id : IntIds) {
          State[Id] = Value::makeInt(R.range(-10, 10));
          StateEnv.bind(Id, State[Id]);
        }
        for (VarId Id : BoolIds) {
          State[Id] = Value::makeBool(R.chance(1, 2));
          StateEnv.bind(Id, State[Id]);
        }
      };
      for (int S = 0; S != States; ++S) {
        RandomState();
        bool Want = evalBool(Concrete, StateEnv);
        bool ViaTemplate = planned(*TPlan)
                               ? TPlan->code().runRawBool(State.data(), TBound)
                               : edsl::evaluate(P, State.data()).asBool();
        bool ViaParse =
            planned(*PPlan)
                ? PPlan->code().runRawBool(State.data(), PBound)
                : evalBool(PR.Expr, OverlayEnv(Pr.Locals, StateEnv));
        ASSERT_EQ(ViaTemplate, Want) << "state #" << S;
        ASSERT_EQ(ViaParse, Want) << "state #" << S;
        if (S < WaitedStates) {
          Waited.push_back(State);
          WaitedHolds.push_back(Want);
        }
      }
    }

    // Real waits (skipped for unsatisfiable predicates, which are fatal).
    if (Unsat)
      continue;
    for (size_t I = 0; I != Waited.size(); ++I) {
      M.setState(Waited[I]);
      EXPECT_EQ(M.tryWait(P), WaitedHolds[I]) << "waited state #" << I;
      EXPECT_EQ(M.tryWait(Pr.Out, Pr.Locals), WaitedHolds[I])
          << "waited state #" << I;
      ++T.Waits;
    }
  }
}

template <size_t... Is>
void checkAllShapes(Probe &M, Rng &R, Tally &T, std::index_sequence<Is...>) {
  (checkShape<ShapeAt<Is>>(M, R, Is, T), ...);
}

TEST(EdslPlanTest, TemplateAndParsedPathsAgree) {
  AUTOSYNCH_SEEDED_RNG(R, 0xed5u);
  Probe M;
  Tally T;
  checkAllShapes(M, R, T, std::make_index_sequence<NumShapes>());
  // The generator must exercise both the keyed and the keyless routes.
  EXPECT_EQ(T.Bindings, static_cast<int>(NumShapes) * 4);
  EXPECT_GE(T.Slotted, T.Bindings / 4);
  EXPECT_GE(T.Resolved, T.Bindings / 4);
  EXPECT_GE(T.Keyless, 1);
  EXPECT_GE(T.Waits, T.Bindings);

  // The int64 edge, under every policy: an EDSL check whose arithmetic
  // wraps reads neither true nor false, and the plan's exact verdict
  // stands, as it does for the parsed twins. A wait that blocks re-checks
  // its record's exact canonical form, so none may time out.
  constexpr int64_t Max = std::numeric_limits<int64_t>::max();
  constexpr std::chrono::milliseconds Bound(50);
  for (SignalPolicy P : {SignalPolicy::Tagged, SignalPolicy::LinearScan,
                         SignalPolicy::Broadcast}) {
    SCOPED_TRACE(signalPolicyName(P));
    MonitorConfig Cfg;
    Cfg.Policy = P;
    Probe E(Cfg);
    MapEnv Five;
    Five.bindInt(E.declareLocal("n", TypeKind::Int), 5);
    E.setX(Max - 2);
    EXPECT_TRUE(E.tryWait(E.X.expr() + 5 >= 0, Bound));
    EXPECT_TRUE(E.tryWait("x + 5 >= 0", MapEnv(), Bound));
    EXPECT_TRUE(E.tryWait("x + n >= 0", Five, Bound));
  }
  M.setX(Max);
  EXPECT_DEATH(M.tryWait(M.X.expr() + 1 <= M.X.expr()), "unsatisfiable");
  EXPECT_DEATH(M.tryWait("x + 1 <= x", MapEnv()), "unsatisfiable");
}

} // namespace
