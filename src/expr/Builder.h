//===- expr/Builder.h - Expression-template EDSL ---------------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Operator-overloading front end for predicates written in C++:
///
/// \code
///   waitUntil(Count + Items <= Cap);
///   // Bin<Le, Bin<Add, Leaf<Int>, int64_t>, int64_t>{{{&M, count}, 48}, 64}
/// \endcode
///
/// The operators build typed, stack-allocated expression templates; no
/// arena is involved. A Leaf is a shared variable tagged with the monitor
/// that owns it, literals stay plain int64_t / bool values (the C++
/// analogue of the paper's globalization: the waiting thread captures its
/// locals at waituntil time), and the C++ type of the whole expression is
/// its *shape*. Type errors (`Flag + 1`, `Count && Flag`) are compile
/// errors: the operators only exist for well-typed operands.
///
/// A wait scans its expression once per call (edsl::scan) to split the
/// literals the way the plan cache keys them:
///
///  * literal operands of `*`, `/` and `%` are *structural* — a slot there
///    would make the atom non-linear and untaggable — and go into the
///    call-site key together with every leaf's VarId;
///  * every other literal is *abstractable*: its value fills the next
///    slot of the shape's WaitPlan, in pre-order.
///
/// So `Count >= 3` and `Count >= 7` bind one plan, while `X * 2 >= a` and
/// `X * 3 >= a`, or `Sticks[0]` and `Sticks[1]`, key distinct ones. The
/// arena sees an expression only through edsl::build: once per key for
/// the slotted skeleton, and on the few blocking paths that need the
/// concrete tree (see core/Monitor.h).
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_EXPR_BUILDER_H
#define AUTOSYNCH_EXPR_BUILDER_H

#include "expr/Eval.h"
#include "expr/ExprArena.h"

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace autosynch {

class Monitor;

namespace edsl {

/// A shared variable of the monitor \p Owner.
template <TypeKind Ty> struct Leaf {
  const Monitor *Owner;
  VarId Id;
};

/// A binary operator node; literal operands are plain int64_t / bool.
template <ExprKind K, typename L, typename R> struct Bin {
  L Lhs;
  R Rhs;
};

/// A unary operator node (Neg over int, Not over bool).
template <ExprKind K, typename E> struct Un {
  E Op;
};

/// The operator of a node type (unevaluated use only).
template <ExprKind K, typename L, typename R>
std::integral_constant<ExprKind, K> kindOf(const Bin<K, L, R> &);
template <ExprKind K, typename E>
std::integral_constant<ExprKind, K> kindOf(const Un<K, E> &);

template <typename T>
inline constexpr bool IsLit =
    std::is_same_v<T, int64_t> || std::is_same_v<T, bool>;

/// Shape facts of a node type: its value type, how many words its
/// call-site key holds, and how many plan slots its literals fill.
/// Undefined for anything that is not a node.
template <typename T> struct Traits;

template <TypeKind Ty> struct Traits<Leaf<Ty>> {
  static constexpr TypeKind Type = Ty;
  static constexpr size_t KeyWords = 1;
  static constexpr size_t Slots = 0;
};

/// Value type of a node or literal operand.
template <typename T> constexpr TypeKind typeOf() {
  if constexpr (std::is_same_v<T, int64_t>)
    return TypeKind::Int;
  else if constexpr (std::is_same_v<T, bool>)
    return TypeKind::Bool;
  else
    return Traits<T>::Type;
}

/// Literal operands of * / % are structural (keyed), all others slotted.
constexpr bool isStructural(ExprKind K) {
  return K == ExprKind::Mul || K == ExprKind::Div || K == ExprKind::Mod;
}

template <bool Structural, typename T> constexpr size_t operandKeyWords() {
  if constexpr (IsLit<T>)
    return Structural ? 1 : 0;
  else
    return Traits<T>::KeyWords;
}

template <bool Structural, typename T> constexpr size_t operandSlots() {
  if constexpr (IsLit<T>)
    return Structural ? 0 : 1;
  else
    return Traits<T>::Slots;
}

template <ExprKind K, typename L, typename R> struct Traits<Bin<K, L, R>> {
  static constexpr TypeKind Type =
      isArithKind(K) ? TypeKind::Int : TypeKind::Bool;
  static constexpr size_t KeyWords = operandKeyWords<isStructural(K), L>() +
                                     operandKeyWords<isStructural(K), R>();
  static constexpr size_t Slots = operandSlots<isStructural(K), L>() +
                                  operandSlots<isStructural(K), R>();
};

template <ExprKind K, typename E> struct Traits<Un<K, E>> {
  static constexpr TypeKind Type = Traits<E>::Type;
  static constexpr size_t KeyWords = Traits<E>::KeyWords;
  static constexpr size_t Slots = Traits<E>::Slots;
};

template <typename T>
concept Node = requires { Traits<T>::Type; };

/// A node, or something that converts to one: a Shared<T> member (through
/// its expr()).
template <typename T>
concept ExprLike = Node<std::remove_cvref_t<T>> || requires(const T &X) {
  { X.expr() } -> Node;
};

template <typename T>
concept Operand = ExprLike<T> || std::is_integral_v<std::remove_cvref_t<T>>;

/// The node or literal an operand stands for.
template <typename T> constexpr auto toNode(const T &X) {
  if constexpr (Node<T>)
    return X;
  else if constexpr (std::is_same_v<T, bool>)
    return X;
  else if constexpr (std::is_integral_v<T>)
    return static_cast<int64_t>(X);
  else
    return X.expr();
}

template <typename T> using NodeOf = decltype(toNode(std::declval<T>()));

/// The typing rules of ExprArena::binary, checked at compile time.
template <ExprKind K, typename L, typename R>
constexpr bool wellTyped() {
  constexpr TypeKind LT = typeOf<L>(), RT = typeOf<R>();
  if constexpr (isArithKind(K))
    return LT == TypeKind::Int && RT == TypeKind::Int;
  else if constexpr (isLogicalKind(K))
    return LT == TypeKind::Bool && RT == TypeKind::Bool;
  else
    return LT == RT &&
           (K == ExprKind::Eq || K == ExprKind::Ne || LT == TypeKind::Int);
}

template <ExprKind K, typename L, typename R>
concept BinaryOperands =
    Operand<L> && Operand<R> && (ExprLike<L> || ExprLike<R>) &&
    wellTyped<K, NodeOf<std::remove_cvref_t<L>>,
              NodeOf<std::remove_cvref_t<R>>>();

template <ExprKind K, typename E>
concept UnaryOperand =
    ExprLike<E> && typeOf<NodeOf<std::remove_cvref_t<E>>>() ==
                       (K == ExprKind::Neg ? TypeKind::Int : TypeKind::Bool);

template <ExprKind K, typename L, typename R>
constexpr auto makeBin(const L &Lhs, const R &Rhs) {
  return Bin<K, NodeOf<L>, NodeOf<R>>{toNode(Lhs), toNode(Rhs)};
}

//===----------------------------------------------------------------------===//
// Shape identity
//===----------------------------------------------------------------------===//

inline std::atomic<uint32_t> NextShapeId{1};

/// Process-wide id of the expression type \p E, assigned once during
/// static initialization. Dense, so a monitor indexes its call-site table
/// by it directly. Reads 0 (never an assigned id) until initialized: a
/// wait run from another global's constructor may see that.
template <typename E> inline const uint32_t ShapeId =
    NextShapeId.fetch_add(1, std::memory_order_relaxed);

//===----------------------------------------------------------------------===//
// Per-call scan
//===----------------------------------------------------------------------===//

/// Output cursors of one scan: the call-site key, the abstractable literal
/// values in slot order, and whether every leaf belongs to Owner.
struct Scan {
  const Monitor *Owner;
  int64_t *Key;
  Value *Bound;
  bool Owned = true;
};

template <typename T> void scan(const T &X, Scan &S);

template <bool Structural, typename T>
void scanOperand(const T &X, Scan &S) {
  if constexpr (!IsLit<T>)
    scan(X, S);
  else if constexpr (Structural)
    *S.Key++ = static_cast<int64_t>(X);
  else if constexpr (std::is_same_v<T, bool>)
    *S.Bound++ = Value::makeBool(X);
  else
    *S.Bound++ = Value::makeInt(X);
}

template <typename T> void scan(const T &X, Scan &S) {
  if constexpr (requires { X.Id; }) {
    S.Owned &= X.Owner == S.Owner;
    *S.Key++ = static_cast<int64_t>(X.Id);
  } else if constexpr (requires { X.Op; }) {
    scan(X.Op, S);
  } else {
    constexpr bool St = isStructural(decltype(kindOf(X))::value);
    scanOperand<St>(X.Lhs, S);
    scanOperand<St>(X.Rhs, S);
  }
}

//===----------------------------------------------------------------------===//
// Arena trees
//===----------------------------------------------------------------------===//

/// Builds \p X in \p A. Abstractable literals become `Slot(Value)`, in
/// slot order: A.literal for the concrete tree, a slot variable for the
/// plan's skeleton.
template <typename T, typename SlotFn>
ExprRef build(const T &X, ExprArena &A, SlotFn &Slot);

template <bool Structural, typename T, typename SlotFn>
ExprRef buildOperand(const T &X, ExprArena &A, SlotFn &Slot) {
  if constexpr (!IsLit<T>)
    return build(X, A, Slot);
  else if constexpr (std::is_same_v<T, bool>)
    return Slot(Value::makeBool(X));
  else if constexpr (Structural)
    return A.intLit(X);
  else
    return Slot(Value::makeInt(X));
}

template <typename T, typename SlotFn>
ExprRef build(const T &X, ExprArena &A, SlotFn &Slot) {
  if constexpr (requires { X.Id; }) {
    return A.var(X.Id, Traits<T>::Type);
  } else {
    constexpr ExprKind K = decltype(kindOf(X))::value;
    if constexpr (requires { X.Op; })
      return A.unary(K, build(X.Op, A, Slot));
    else
      return A.binary(K, buildOperand<isStructural(K)>(X.Lhs, A, Slot),
                      buildOperand<isStructural(K)>(X.Rhs, A, Slot));
  }
}

/// The concrete tree of \p X.
template <typename T> ExprRef buildConcrete(const T &X, ExprArena &A) {
  auto Literal = [&A](Value V) { return A.literal(V); };
  return build(X, A, Literal);
}

//===----------------------------------------------------------------------===//
// Direct evaluation
//===----------------------------------------------------------------------===//

/// Raw value of \p X over the shared slots \p Shared (indexed by VarId),
/// with expr/Eval.cpp's semantics: wrapping arithmetic, short-circuit
/// connectives, and a fatal error on division by zero. Sets \p Wrapped
/// when an evaluated `+`, `-`, `*` or unary `-` leaves int64.
template <typename T>
int64_t evalRaw(const T &X, const Value *Shared, bool &Wrapped) {
  if constexpr (IsLit<T>) {
    return static_cast<int64_t>(X);
  } else if constexpr (requires { X.Id; }) {
    return Shared[X.Id].raw();
  } else {
    constexpr ExprKind K = decltype(kindOf(X))::value;
    int64_t R = 0;
    if constexpr (K == ExprKind::Neg) {
      Wrapped |= __builtin_sub_overflow(int64_t{0},
                                        evalRaw(X.Op, Shared, Wrapped), &R);
      return R;
    } else if constexpr (K == ExprKind::Not) {
      return !evalRaw(X.Op, Shared, Wrapped);
    } else if constexpr (K == ExprKind::And) {
      return evalRaw(X.Lhs, Shared, Wrapped) &&
             evalRaw(X.Rhs, Shared, Wrapped);
    } else if constexpr (K == ExprKind::Or) {
      return evalRaw(X.Lhs, Shared, Wrapped) ||
             evalRaw(X.Rhs, Shared, Wrapped);
    } else {
      int64_t A = evalRaw(X.Lhs, Shared, Wrapped),
              B = evalRaw(X.Rhs, Shared, Wrapped);
      switch (K) {
      case ExprKind::Add:
        Wrapped |= __builtin_add_overflow(A, B, &R);
        return R;
      case ExprKind::Sub:
        Wrapped |= __builtin_sub_overflow(A, B, &R);
        return R;
      case ExprKind::Mul:
        Wrapped |= __builtin_mul_overflow(A, B, &R);
        return R;
      case ExprKind::Div:
        AUTOSYNCH_CHECK(B != 0, "division by zero in predicate");
        AUTOSYNCH_CHECK(!(A == INT64_MIN && B == -1),
                        "INT64_MIN / -1 overflow in predicate");
        return A / B;
      case ExprKind::Mod:
        AUTOSYNCH_CHECK(B != 0, "modulo by zero in predicate");
        AUTOSYNCH_CHECK(!(A == INT64_MIN && B == -1),
                        "INT64_MIN % -1 overflow in predicate");
        return A % B;
      case ExprKind::Eq:
        return A == B;
      case ExprKind::Ne:
        return A != B;
      case ExprKind::Lt:
        return A < B;
      case ExprKind::Le:
        return A <= B;
      case ExprKind::Gt:
        return A > B;
      default:
        return A >= B;
      }
    }
  }
}

/// Evaluates \p X over \p Shared; counts as one predicate evaluation.
template <typename T> Value evaluate(const T &X, const Value *Shared) {
  detail::bumpPredicateEvalCount();
  bool Wrapped = false;
  int64_t V = evalRaw(X, Shared, Wrapped);
  return Traits<T>::Type == TypeKind::Bool ? Value::makeBool(V != 0)
                                           : Value::makeInt(V);
}

/// Whether \p X holds over \p Shared: a wait's already-true check. A
/// check whose arithmetic wrapped is not trusted either way and reads
/// false, so the wait's plan, which works over exact integers, decides.
/// Counts as one predicate evaluation.
template <typename T> bool holds(const T &X, const Value *Shared) {
  detail::bumpPredicateEvalCount();
  bool Wrapped = false;
  return evalRaw(X, Shared, Wrapped) != 0 && !Wrapped;
}

//===----------------------------------------------------------------------===//
// Operators
//===----------------------------------------------------------------------===//

#define AUTOSYNCH_BUILDER_BINOP(Sym, Kind)                                    \
  template <typename L, typename R>                                           \
    requires BinaryOperands<ExprKind::Kind, L, R>                             \
  constexpr auto operator Sym(const L &Lhs, const R &Rhs) {                   \
    return makeBin<ExprKind::Kind>(Lhs, Rhs);                                 \
  }

AUTOSYNCH_BUILDER_BINOP(+, Add)
AUTOSYNCH_BUILDER_BINOP(-, Sub)
AUTOSYNCH_BUILDER_BINOP(*, Mul)
AUTOSYNCH_BUILDER_BINOP(/, Div)
AUTOSYNCH_BUILDER_BINOP(%, Mod)
AUTOSYNCH_BUILDER_BINOP(==, Eq)
AUTOSYNCH_BUILDER_BINOP(!=, Ne)
AUTOSYNCH_BUILDER_BINOP(<, Lt)
AUTOSYNCH_BUILDER_BINOP(<=, Le)
AUTOSYNCH_BUILDER_BINOP(>, Gt)
AUTOSYNCH_BUILDER_BINOP(>=, Ge)
// Logical connectives build a node; there is no short-circuit at build
// time (evaluation short-circuits).
AUTOSYNCH_BUILDER_BINOP(&&, And)
AUTOSYNCH_BUILDER_BINOP(||, Or)

#undef AUTOSYNCH_BUILDER_BINOP

template <typename E>
  requires UnaryOperand<ExprKind::Not, E>
constexpr auto operator!(const E &X) {
  return Un<ExprKind::Not, NodeOf<E>>{toNode(X)};
}

template <typename E>
  requires UnaryOperand<ExprKind::Neg, E>
constexpr auto operator-(const E &X) {
  return Un<ExprKind::Neg, NodeOf<E>>{toNode(X)};
}

} // namespace edsl

// Argument-dependent lookup reaches the operators from the nodes
// (namespace edsl) and from Shared<T> members (namespace autosynch).
using edsl::operator+;
using edsl::operator-;
using edsl::operator*;
using edsl::operator/;
using edsl::operator%;
using edsl::operator==;
using edsl::operator!=;
using edsl::operator<;
using edsl::operator<=;
using edsl::operator>;
using edsl::operator>=;
using edsl::operator&&;
using edsl::operator||;
using edsl::operator!;

} // namespace autosynch

#endif // AUTOSYNCH_EXPR_BUILDER_H
