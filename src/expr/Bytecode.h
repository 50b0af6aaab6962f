//===- expr/Bytecode.h - Compiled predicate evaluation ---------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stack-machine compilation of predicate expressions. The condition
/// manager evaluates registered predicates on every relay-signal scan
/// (the paper's "predicate evaluation" cost, §1); compiling a registered
/// predicate once and running flat bytecode avoids repeated tree walks.
/// Semantics are identical to expr/Eval.h, including short-circuiting of
/// && and || via conditional jumps (verified by property tests).
///
/// Two variable-access models:
///  * Env programs (LoadVar): every variable goes through the virtual
///    Env::get — flexible, used by tests and ad-hoc evaluation.
///  * Slot programs (LoadShared/LoadLocal, compiled with a VarResolver):
///    variables are resolved at compile time to indices into two flat
///    Value arrays, so the hot relay/wait paths evaluate with plain array
///    reads — no virtual dispatch, no hashing, no allocation.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_EXPR_BYTECODE_H
#define AUTOSYNCH_EXPR_BYTECODE_H

#include "expr/Env.h"
#include "expr/Expr.h"
#include "expr/SigEntry.h"

#include <functional>
#include <vector>

namespace autosynch {

/// Compile-time resolution of one variable reference in a slot program.
struct ResolvedVar {
  enum class Kind : uint8_t {
    Shared, ///< Index into the shared-slot array passed to runRaw.
    Local   ///< Index into the bound-locals array passed to runRaw.
  };
  Kind K = Kind::Shared;
  uint32_t Index = 0;
};

/// Maps a VarId to its slot at compile time (slot programs only).
using VarResolver = std::function<ResolvedVar(VarId)>;

/// A flat, relocatable predicate program.
class CompiledPredicate {
public:
  /// An empty program; valid() is false and run() is a fatal error.
  CompiledPredicate() = default;

  /// Compiles \p E as an Env program. The program embeds VarIds, not
  /// values, so one program serves every evaluation environment.
  static CompiledPredicate compile(ExprRef E);

  /// Compiles \p E as a slot program: every variable is resolved through
  /// \p Resolve once, at compile time. Run with runRaw.
  static CompiledPredicate compile(ExprRef E, const VarResolver &Resolve);

  /// Compiles the predicate signature \p Sig (\p N entries; no empty
  /// conjunction) denotes into \p Out as a slot program, reusing Out's
  /// storage. The code is what compiling the canonical expression would
  /// give — atoms and conjunctions evaluated in signature order, && and
  /// || short-circuiting — with each short-circuit jumping straight to
  /// the end of its conjunction or of the program.
  static void compileSignature(const SigEntry *Sig, size_t N,
                               const VarResolver &Resolve,
                               CompiledPredicate &Out);

  bool valid() const { return !Code.empty(); }

  /// Executes an Env program under \p Bindings. Fatal error on a slot
  /// program (it has no Env to resolve against).
  Value run(const Env &Bindings) const;

  /// Executes a slot program against flat value arrays: \p Shared is
  /// indexed by LoadShared operands, \p Locals by LoadLocal operands
  /// (null is fine when the program references none). Fatal error on an
  /// Env program.
  Value runRaw(const Value *Shared, const Value *Locals) const;

  /// Executes a bool-typed program. Fatal error for int-typed programs.
  bool runBool(const Env &Bindings) const {
    return run(Bindings).asBool();
  }

  /// Bool-typed slot program against flat value arrays.
  bool runRawBool(const Value *Shared, const Value *Locals) const {
    return runRaw(Shared, Locals).asBool();
  }

  TypeKind resultType() const { return ResultType; }
  size_t numInstructions() const { return Code.size(); }
  unsigned maxStackDepth() const { return MaxStack; }

private:
  enum class OpCode : uint8_t {
    PushImm,    ///< push Imm
    LoadVar,    ///< push Bindings.get(A).raw() (Env programs)
    LoadShared, ///< push Shared[A].raw() (slot programs)
    LoadLocal,  ///< push Locals[A].raw() (slot programs)
    Neg,
    Not,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    JumpFalsePeek, ///< if top == 0, jump to A (top stays — short-circuit &&)
    JumpTruePeek,  ///< if top != 0, jump to A (top stays — short-circuit ||)
    Pop
  };

  struct Instr {
    OpCode Op;
    uint32_t A = 0;   ///< VarId or jump target.
    int64_t Imm = 0;  ///< PushImm payload.
  };

  class Compiler;

  template <typename LoadFn> Value execute(LoadFn &&Load) const;

  std::vector<Instr> Code;
  TypeKind ResultType = TypeKind::Bool;
  unsigned MaxStack = 0;
};

} // namespace autosynch

#endif // AUTOSYNCH_EXPR_BYTECODE_H
