//===- expr/ExprArena.cpp - Interning arena for expressions ---------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "expr/ExprArena.h"

using namespace autosynch;

const char *autosynch::exprKindSpelling(ExprKind K) {
  switch (K) {
  case ExprKind::IntLit:
    return "<int>";
  case ExprKind::BoolLit:
    return "<bool>";
  case ExprKind::Var:
    return "<var>";
  case ExprKind::Neg:
    return "-";
  case ExprKind::Not:
    return "!";
  case ExprKind::Add:
    return "+";
  case ExprKind::Sub:
    return "-";
  case ExprKind::Mul:
    return "*";
  case ExprKind::Div:
    return "/";
  case ExprKind::Mod:
    return "%";
  case ExprKind::Eq:
    return "==";
  case ExprKind::Ne:
    return "!=";
  case ExprKind::Lt:
    return "<";
  case ExprKind::Le:
    return "<=";
  case ExprKind::Gt:
    return ">";
  case ExprKind::Ge:
    return ">=";
  case ExprKind::And:
    return "&&";
  case ExprKind::Or:
    return "||";
  }
  AUTOSYNCH_UNREACHABLE("invalid ExprKind");
}

size_t ExprNodeContentHash::operator()(const ExprNode *N) const {
  // FNV-style mix over kind, payload, and operand pointers (operands are
  // already interned, so pointer identity is structural identity).
  uint64_t H = 0xcbf29ce484222325ULL;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 0x100000001b3ULL;
  };
  Mix(static_cast<uint64_t>(N->Kind));
  Mix(static_cast<uint64_t>(N->Payload));
  for (unsigned I = 0; I != N->NumOps; ++I)
    Mix(reinterpret_cast<uintptr_t>(N->Ops[I]));
  return static_cast<size_t>(H);
}

bool ExprNodeContentEq::operator()(const ExprNode *A,
                                   const ExprNode *B) const {
  if (A->Kind != B->Kind || A->Payload != B->Payload ||
      A->NumOps != B->NumOps)
    return false;
  for (unsigned I = 0; I != A->NumOps; ++I)
    if (A->Ops[I] != B->Ops[I])
      return false;
  return true;
}

ExprRef ExprArena::intern(const ExprNode &Candidate) {
  ++InternCalls;
  auto It = Interned.find(&Candidate);
  if (It != Interned.end())
    return *It;
  Nodes.push_back(Candidate);
  ExprRef Stored = &Nodes.back();
  Interned.insert(Stored);
  return Stored;
}

ExprRef ExprArena::intLit(int64_t V) {
  ExprNode N;
  N.Kind = ExprKind::IntLit;
  N.Ty = TypeKind::Int;
  N.Payload = V;
  return intern(N);
}

ExprRef ExprArena::boolLit(bool B) {
  ExprNode N;
  N.Kind = ExprKind::BoolLit;
  N.Ty = TypeKind::Bool;
  N.Payload = B ? 1 : 0;
  return intern(N);
}

ExprRef ExprArena::var(VarId Id, TypeKind Ty) {
  ExprNode N;
  N.Kind = ExprKind::Var;
  N.Ty = Ty;
  N.Payload = static_cast<int64_t>(Id);
  return intern(N);
}

/// Two's-complement wrapping arithmetic: evaluation and folding share these
/// semantics so folding never changes a predicate's meaning.
static int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
static int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
static int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}
static int64_t wrapNeg(int64_t A) {
  return static_cast<int64_t>(-static_cast<uint64_t>(A));
}

ExprRef ExprArena::unary(ExprKind K, ExprRef Op) {
  AUTOSYNCH_CHECK(isUnaryKind(K), "unary() requires a unary kind");
  if (K == ExprKind::Neg) {
    AUTOSYNCH_CHECK(Op->type() == TypeKind::Int, "Neg requires an int");
    if (Op->kind() == ExprKind::IntLit)
      return intLit(wrapNeg(Op->intValue()));
  } else {
    AUTOSYNCH_CHECK(Op->type() == TypeKind::Bool, "Not requires a bool");
    if (Op->kind() == ExprKind::BoolLit)
      return boolLit(!Op->boolValue());
  }
  ExprNode N;
  N.Kind = K;
  N.Ty = Op->type();
  N.NumOps = 1;
  N.Ops[0] = Op;
  return intern(N);
}

ExprRef ExprArena::binary(ExprKind K, ExprRef L, ExprRef R) {
  AUTOSYNCH_CHECK(isBinaryKind(K), "binary() requires a binary kind");
  if (isArithKind(K)) {
    AUTOSYNCH_CHECK(L->type() == TypeKind::Int && R->type() == TypeKind::Int,
                    "arithmetic requires int operands");
  } else if (isLogicalKind(K)) {
    AUTOSYNCH_CHECK(L->type() == TypeKind::Bool && R->type() == TypeKind::Bool,
                    "logical connective requires bool operands");
  } else {
    AUTOSYNCH_CHECK(L->type() == R->type(),
                    "comparison requires operands of equal type");
    AUTOSYNCH_CHECK(K == ExprKind::Eq || K == ExprKind::Ne ||
                        L->type() == TypeKind::Int,
                    "ordering comparison requires int operands");
  }

  // Constant folding.
  if (L->isLiteral() && R->isLiteral()) {
    int64_t A = L->Payload;
    int64_t B = R->Payload;
    switch (K) {
    case ExprKind::Add:
      return intLit(wrapAdd(A, B));
    case ExprKind::Sub:
      return intLit(wrapSub(A, B));
    case ExprKind::Mul:
      return intLit(wrapMul(A, B));
    case ExprKind::Div:
      if (B != 0 && !(A == INT64_MIN && B == -1))
        return intLit(A / B);
      break; // Leave the faulting division unfolded.
    case ExprKind::Mod:
      if (B != 0 && !(A == INT64_MIN && B == -1))
        return intLit(A % B);
      break;
    case ExprKind::Eq:
      return boolLit(A == B);
    case ExprKind::Ne:
      return boolLit(A != B);
    case ExprKind::Lt:
      return boolLit(A < B);
    case ExprKind::Le:
      return boolLit(A <= B);
    case ExprKind::Gt:
      return boolLit(A > B);
    case ExprKind::Ge:
      return boolLit(A >= B);
    case ExprKind::And:
      return boolLit(A != 0 && B != 0);
    case ExprKind::Or:
      return boolLit(A != 0 || B != 0);
    default:
      AUTOSYNCH_UNREACHABLE("invalid binary kind");
    }
  }

  // Boolean identity folds keep DNF conversion output tidy.
  if (K == ExprKind::And) {
    if (L->kind() == ExprKind::BoolLit)
      return L->boolValue() ? R : L;
    if (R->kind() == ExprKind::BoolLit)
      return R->boolValue() ? L : R;
  } else if (K == ExprKind::Or) {
    if (L->kind() == ExprKind::BoolLit)
      return L->boolValue() ? L : R;
    if (R->kind() == ExprKind::BoolLit)
      return R->boolValue() ? R : L;
  }

  ExprNode N;
  N.Kind = K;
  N.Ty = isArithKind(K) ? TypeKind::Int : TypeKind::Bool;
  N.NumOps = 2;
  N.Ops[0] = L;
  N.Ops[1] = R;
  return intern(N);
}
