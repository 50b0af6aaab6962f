//===- plan/WaitPlan.h - Parameterized wait plans --------------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wait plans: the front half of the waituntil pipeline (globalization §4.1
/// -> canonicalization -> DNF -> tag-key derivation) run ONCE per predicate
/// *shape* and parameterized over the waiting thread's local values.
///
/// A shape is a predicate expression whose Local-scoped variables are held
/// symbolic — a parsed predicate as written ("count >= n"), or an EDSL
/// expression with its literals abstracted into slots (plan/PlanCache.h).
/// Building a plan canonicalizes the shape symbolically and compiles, per
/// DNF conjunction, small *atom templates* whose constants are linear
/// functions of the slots:
///
///   count >= n      ->  (count, >=, K(n) = n)
///   2*count >= n    ->  (count, >=, K(n) = ceil(n/2))
///   n > 0           ->  guard: bind-time truth test, no shared part
///
/// A steady-state waitUntil then *binds* current local values into the
/// cached plan: evaluate each key form (O(#locals) integer arithmetic),
/// drop conjunctions whose guards fail, and emit a flat, stack-allocated
/// *signature* (expr/SigEntry.h) — the ground canonical form of the
/// globalized predicate, expressed as (interned shared-expression, op,
/// key) triples. The condition manager keys every predicate record by its
/// signature, so the whole hit path performs zero arena interning and zero
/// heap allocation, and a signature it has not seen is registered straight
/// from its entries — no expression is rebuilt and nothing is
/// canonicalized again.
///
/// Resolution applies the ground canonicalizer's rules to the bound keys
/// (guard failure, divisibility, interval contradiction) and finishes
/// with the same step as signatureOf (dnf/Dnf.h): canonical entry order,
/// duplicate removal, subsumption. The signature of a binding therefore
/// equals the signature of the globalized, canonicalized predicate, and
/// a binding meets records registered by any other route (eager
/// registration, keyless waits, Ground plans, other shapes).
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_PLAN_WAITPLAN_H
#define AUTOSYNCH_PLAN_WAITPLAN_H

#include "dnf/Dnf.h"
#include "expr/Bytecode.h"
#include "expr/SigEntry.h"
#include "expr/SymbolTable.h"
#include "expr/VarSet.h"

#include <memory>
#include <vector>

namespace autosynch {

/// A parameterized wait plan for one predicate shape.
class WaitPlan {
public:
  enum class Kind : uint8_t {
    Ground,        ///< No slots: canonicalized outright at build time.
    Slotted,       ///< Parameterized over local-value slots.
    Legacy,        ///< Shape the planner cannot parameterize (e.g. a
                   ///< non-linear atom mixing shared and local variables);
                   ///< its waits carry no key and are globalized and
                   ///< canonicalized on every blocking call.
    AlwaysTrue,    ///< Canonically true for every binding.
    Unsatisfiable  ///< Canonically false for every binding.
  };

  /// One local-value slot of the shape.
  struct Slot {
    VarId Var = 0;
    TypeKind Type = TypeKind::Int;
  };

  /// Shapes with more slots, conjunctions, or atoms are planned as Legacy;
  /// the caps size the fixed buffers resolve() works in
  /// (build() enforces them, so resolution never overflows).
  static constexpr size_t MaxSlots = 16;
  static constexpr size_t MaxConjs = 24;
  static constexpr size_t MaxAtomsPerConj = 32;
  static constexpr size_t MaxSigEntries = 96;

  /// Outcome of resolving a binding into a signature.
  enum class ResolveStatus : uint8_t {
    Resolved, ///< Signature written; proceed to record lookup.
    True,     ///< Predicate is true for this binding under any state.
    False,    ///< Predicate is false for this binding under any state
              ///< (an unsatisfiable wait — fatal at the call site).
    Overflow  ///< Key arithmetic overflowed int64; the wait carries no
              ///< key (registered like a Legacy shape's).
  };

  /// Builds the plan for \p Shape (bool-typed; locals symbolic). Always
  /// returns a plan; shapes beyond the planner's reach come back as
  /// Kind::Legacy.
  static std::unique_ptr<WaitPlan> build(ExprArena &Arena,
                                         const SymbolTable &Syms,
                                         ExprRef Shape, DnfLimits Limits);

  Kind kind() const { return K; }
  ExprRef shape() const { return Shape; }
  const std::vector<Slot> &slots() const { return Slots; }

  /// The symbolic canonical predicate (Ground and Slotted plans). For
  /// Ground plans this is the finished ground canonical form.
  const CanonicalPredicate &canonical() const { return CP; }

  /// A Ground plan's signature, computed once at build time: the key its
  /// every blocking wait looks its record up by.
  const std::vector<SigEntry> &signature() const { return GroundSig; }

  /// Slot program evaluating the canonical predicate over (shared slots,
  /// bound locals); the allocation-free fast-path check.
  const CompiledPredicate &code() const { return Code; }

  /// The shared variables the canonical shape reads, computed once at
  /// build time (meaningful for Ground and Slotted plans). Every ground
  /// predicate a binding of this plan registers reads a subset of these
  /// variables, so the dirty-set relay's per-record read sets agree with
  /// the plan-level one regardless of front end.
  const VarSet &readSet() const { return ReadSet; }

  /// Binds local values out of \p Locals into \p Out (size >= MaxSlots) in
  /// slot order. Fatal error on an unbound or type-mismatched local.
  void bindFromEnv(const Env &Locals, Value *Out) const;

  /// resolve()'s working storage: the bound entries, their conjunction
  /// segments, and the finished signature (Sig). About 5 KB, so a caller
  /// keeps one and reuses it rather than zero-filling a fresh one on
  /// every blocking wait.
  struct Scratch {
    SigEntry Tmp[MaxSigEntries];
    SigSegment Segs[MaxConjs];
    SigEntry Sig[MaxSigEntries];
  };

  /// Resolves bound values into a signature, written to \p S.Sig; \p N
  /// receives the entry count (including the per-conjunction separators).
  ResolveStatus resolve(const Value *Bound, Scratch &S, size_t &N) const;

private:
  WaitPlan() = default;

  /// One atom of one conjunction, parameterized over the slots.
  struct AtomTemplate {
    enum class TKind : uint8_t {
      Opaque,      ///< Shared-only atom with no linear form; emitted as-is.
      GroundLinear,///< Shared-only canonical comparison; constant known.
      Linear,      ///< Mixed comparison; key is a linear form of slots.
      Guard,       ///< Local-only canonical comparison; bind-time truth.
      GuardOpaque  ///< Local-only opaque atom; compiled over the slots.
    };

    TKind T = TKind::Opaque;
    ExprRef Atom = nullptr;       ///< Opaque: the interned atom.
    ExprRef SharedExpr = nullptr; ///< GroundLinear/Linear: reduced LHS.
    ExprKind Op = ExprKind::Eq;   ///< Comparison op (Eq/Ne/Le/Ge).
    int64_t K = 0;                ///< GroundLinear constant / Guard RHS.
    uint64_t G = 1;               ///< Linear: gcd the key divides through.
    int64_t KeyC = 0;             ///< Linear/Guard key-form constant.
    /// Linear/Guard key-form terms: (slot index, coefficient).
    std::vector<std::pair<uint32_t, int64_t>> KeyTerms;
    CompiledPredicate Guard;      ///< GuardOpaque program.
  };

  struct ConjTemplate {
    std::vector<AtomTemplate> Atoms;
  };

  /// Builds the slot list from \p Shape; false when over MaxSlots.
  bool collectSlots(const SymbolTable &Syms);

  /// Lowers one canonical conjunction into templates; false -> Legacy.
  bool lowerConjunction(ExprArena &Arena, const SymbolTable &Syms,
                       const Conjunction &C);

  /// Slot index of \p Var, or -1.
  int slotIndex(VarId Var) const;

  Kind K = Kind::Legacy;
  ExprRef Shape = nullptr;
  CanonicalPredicate CP;
  std::vector<SigEntry> GroundSig;
  VarSet ReadSet;
  std::vector<Slot> Slots;
  std::vector<ConjTemplate> Conjs;
  CompiledPredicate Code;
};

} // namespace autosynch

#endif // AUTOSYNCH_PLAN_WAITPLAN_H
