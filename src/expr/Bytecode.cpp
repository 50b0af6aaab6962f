//===- expr/Bytecode.cpp - Compiled predicate evaluation -------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "expr/Bytecode.h"

#include "expr/Eval.h"

#include <cstdint>

using namespace autosynch;

//===----------------------------------------------------------------------===//
// Compilation
//===----------------------------------------------------------------------===//

class CompiledPredicate::Compiler {
public:
  Compiler(CompiledPredicate &P, const VarResolver *Resolve)
      : P(P), Resolve(Resolve) {}

  void compile(ExprRef E) {
    emitExpr(E);
    P.ResultType = E->type();
    P.MaxStack = MaxDepth;
  }

  void compileSignature(const SigEntry *Sig, size_t N) {
    AUTOSYNCH_CHECK(N > 0 && Sig[N - 1].isSeparator(),
                    "signature not separator-terminated");
    // Pending short-circuit jumps are chained through their (not yet
    // patched) targets: one chain per conjunction, one for the program.
    uint32_t AndChain = NoJump, OrChain = NoJump;
    bool AtConjStart = true;
    for (size_t I = 0; I != N; ++I) {
      const SigEntry &E = Sig[I];
      if (E.isSeparator()) {
        AUTOSYNCH_CHECK(!AtConjStart, "empty conjunction in a signature");
        patch(AndChain, P.Code.size());
        AtConjStart = true;
        continue;
      }
      if (!AtConjStart)
        emitShortCircuit(OpCode::JumpFalsePeek, AndChain);
      else if (I != 0)
        emitShortCircuit(OpCode::JumpTruePeek, OrChain);
      AtConjStart = false;
      emitExpr(E.P);
      if (!E.isOpaque()) {
        emitPush(E.K);
        emitBinary(E.op());
      }
    }
    patch(OrChain, P.Code.size());
    P.ResultType = TypeKind::Bool;
    P.MaxStack = MaxDepth;
  }

private:
  static constexpr uint32_t NoJump = UINT32_MAX;

  /// Emits a short-circuit test of the value on top of the stack whose
  /// target joins \p Chain, then pops the value for the next operand.
  void emitShortCircuit(OpCode Jump, uint32_t &Chain) {
    emit({Jump, Chain, 0});
    Chain = static_cast<uint32_t>(P.Code.size() - 1);
    emit({OpCode::Pop, 0, 0});
    pop();
  }

  /// Points every jump on \p Chain at \p Target.
  void patch(uint32_t &Chain, size_t Target) {
    while (Chain != NoJump) {
      uint32_t Next = P.Code[Chain].A;
      P.Code[Chain].A = static_cast<uint32_t>(Target);
      Chain = Next;
    }
  }

  void emitExpr(ExprRef E) {
    switch (E->kind()) {
    case ExprKind::IntLit:
      emitPush(E->intValue());
      return;
    case ExprKind::BoolLit:
      emitPush(E->boolValue() ? 1 : 0);
      return;
    case ExprKind::Var:
      if (Resolve) {
        ResolvedVar R = (*Resolve)(E->varId());
        emit({R.K == ResolvedVar::Kind::Shared ? OpCode::LoadShared
                                               : OpCode::LoadLocal,
              R.Index, 0});
      } else {
        emit({OpCode::LoadVar, E->varId(), 0});
      }
      push();
      return;
    case ExprKind::Neg:
      emitExpr(E->lhs());
      emit({OpCode::Neg, 0, 0});
      return;
    case ExprKind::Not:
      emitExpr(E->lhs());
      emit({OpCode::Not, 0, 0});
      return;
    case ExprKind::And:
    case ExprKind::Or: {
      // Short-circuit: evaluate LHS; if it already decides the result,
      // jump over the RHS keeping the LHS value as the result.
      emitExpr(E->lhs());
      OpCode Jump = E->kind() == ExprKind::And ? OpCode::JumpFalsePeek
                                               : OpCode::JumpTruePeek;
      size_t Patch = P.Code.size();
      emit({Jump, 0, 0});
      emit({OpCode::Pop, 0, 0});
      pop();
      emitExpr(E->rhs());
      P.Code[Patch].A = static_cast<uint32_t>(P.Code.size());
      return;
    }
    default:
      break;
    }

    emitExpr(E->lhs());
    emitExpr(E->rhs());
    emitBinary(E->kind());
  }

  /// Emits the binary operator \p K over the two values on top.
  void emitBinary(ExprKind K) {
    OpCode Op;
    switch (K) {
    case ExprKind::Add:
      Op = OpCode::Add;
      break;
    case ExprKind::Sub:
      Op = OpCode::Sub;
      break;
    case ExprKind::Mul:
      Op = OpCode::Mul;
      break;
    case ExprKind::Div:
      Op = OpCode::Div;
      break;
    case ExprKind::Mod:
      Op = OpCode::Mod;
      break;
    case ExprKind::Eq:
      Op = OpCode::Eq;
      break;
    case ExprKind::Ne:
      Op = OpCode::Ne;
      break;
    case ExprKind::Lt:
      Op = OpCode::Lt;
      break;
    case ExprKind::Le:
      Op = OpCode::Le;
      break;
    case ExprKind::Gt:
      Op = OpCode::Gt;
      break;
    case ExprKind::Ge:
      Op = OpCode::Ge;
      break;
    default:
      AUTOSYNCH_UNREACHABLE("invalid binary kind in bytecode compiler");
    }
    emit({Op, 0, 0});
    pop(); // Two operands popped, one result pushed.
  }

  void emitPush(int64_t V) {
    emit({OpCode::PushImm, 0, V});
    push();
  }

  void emit(Instr I) { P.Code.push_back(I); }

  void push() {
    if (++Depth > MaxDepth)
      MaxDepth = Depth;
  }
  void pop() {
    AUTOSYNCH_CHECK(Depth > 0, "bytecode compiler stack underflow");
    --Depth;
  }

  CompiledPredicate &P;
  const VarResolver *Resolve;
  unsigned Depth = 0;
  unsigned MaxDepth = 0;
};

CompiledPredicate CompiledPredicate::compile(ExprRef E) {
  CompiledPredicate P;
  Compiler(P, nullptr).compile(E);
  return P;
}

CompiledPredicate CompiledPredicate::compile(ExprRef E,
                                             const VarResolver &Resolve) {
  CompiledPredicate P;
  Compiler(P, &Resolve).compile(E);
  return P;
}

void CompiledPredicate::compileSignature(const SigEntry *Sig, size_t N,
                                         const VarResolver &Resolve,
                                         CompiledPredicate &Out) {
  Out.Code.clear(); // Keeps the capacity: recycled records recompile here.
  Compiler(Out, &Resolve).compileSignature(Sig, N);
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

static int64_t wrap(uint64_t V) { return static_cast<int64_t>(V); }

/// Shared interpreter loop; \p Load maps a load instruction to the raw
/// payload it pushes. Templated (not virtual) so the slot path inlines to
/// plain array indexing.
template <typename LoadFn>
Value CompiledPredicate::execute(LoadFn &&Load) const {
  AUTOSYNCH_CHECK(valid(), "running an empty CompiledPredicate");
  detail::bumpPredicateEvalCount();

  // Predicates are small; a fixed stack avoids allocation on the relay path.
  constexpr unsigned StackCap = 256;
  AUTOSYNCH_CHECK(MaxStack <= StackCap, "predicate too deep for VM stack");
  int64_t Stack[StackCap];
  unsigned Top = 0; // Next free slot.

  for (size_t Pc = 0; Pc != Code.size(); ++Pc) {
    const Instr &I = Code[Pc];
    switch (I.Op) {
    case OpCode::PushImm:
      Stack[Top++] = I.Imm;
      break;
    case OpCode::LoadVar:
    case OpCode::LoadShared:
    case OpCode::LoadLocal:
      Stack[Top++] = Load(I.Op, I.A);
      break;
    case OpCode::Neg:
      Stack[Top - 1] = wrap(-static_cast<uint64_t>(Stack[Top - 1]));
      break;
    case OpCode::Not:
      Stack[Top - 1] = Stack[Top - 1] == 0 ? 1 : 0;
      break;
    case OpCode::JumpFalsePeek:
      if (Stack[Top - 1] == 0)
        Pc = I.A - 1; // -1: the loop increments.
      break;
    case OpCode::JumpTruePeek:
      if (Stack[Top - 1] != 0)
        Pc = I.A - 1;
      break;
    case OpCode::Pop:
      --Top;
      break;
    default: {
      int64_t B = Stack[--Top];
      int64_t A = Stack[Top - 1];
      int64_t R;
      switch (I.Op) {
      case OpCode::Add:
        R = wrap(static_cast<uint64_t>(A) + static_cast<uint64_t>(B));
        break;
      case OpCode::Sub:
        R = wrap(static_cast<uint64_t>(A) - static_cast<uint64_t>(B));
        break;
      case OpCode::Mul:
        R = wrap(static_cast<uint64_t>(A) * static_cast<uint64_t>(B));
        break;
      case OpCode::Div:
        AUTOSYNCH_CHECK(B != 0, "division by zero in compiled predicate");
        AUTOSYNCH_CHECK(!(A == INT64_MIN && B == -1),
                        "INT64_MIN / -1 overflow in compiled predicate");
        R = A / B;
        break;
      case OpCode::Mod:
        AUTOSYNCH_CHECK(B != 0, "modulo by zero in compiled predicate");
        AUTOSYNCH_CHECK(!(A == INT64_MIN && B == -1),
                        "INT64_MIN % -1 overflow in compiled predicate");
        R = A % B;
        break;
      case OpCode::Eq:
        R = A == B;
        break;
      case OpCode::Ne:
        R = A != B;
        break;
      case OpCode::Lt:
        R = A < B;
        break;
      case OpCode::Le:
        R = A <= B;
        break;
      case OpCode::Gt:
        R = A > B;
        break;
      case OpCode::Ge:
        R = A >= B;
        break;
      default:
        AUTOSYNCH_UNREACHABLE("invalid opcode");
      }
      Stack[Top - 1] = R;
      break;
    }
    }
  }

  AUTOSYNCH_CHECK(Top == 1, "bytecode left a malformed stack");
  return ResultType == TypeKind::Bool ? Value::makeBool(Stack[0] != 0)
                                      : Value::makeInt(Stack[0]);
}

Value CompiledPredicate::run(const Env &Bindings) const {
  return execute([&Bindings](OpCode Op, uint32_t A) {
    AUTOSYNCH_CHECK(Op == OpCode::LoadVar,
                    "slot program run without slot arrays");
    return Bindings.get(A).raw();
  });
}

Value CompiledPredicate::runRaw(const Value *Shared,
                                const Value *Locals) const {
  return execute([Shared, Locals](OpCode Op, uint32_t A) {
    if (Op == OpCode::LoadShared)
      return Shared[A].raw();
    AUTOSYNCH_CHECK(Op == OpCode::LoadLocal,
                    "Env program run through runRaw");
    return Locals[A].raw();
  });
}
