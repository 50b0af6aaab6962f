//===- plan/PlanCache.h - Per-monitor wait-plan cache ----------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The monitor's cache of WaitPlans, keyed by predicate *shape*:
///
///  * parsed predicates — the interned parse result is the shape (locals
///    are already symbolic); the parse-cache entry memoizes its plan;
///  * EDSL predicates — a per-call-site table indexed by the expression
///    template's process-wide shape id (expr/Builder.h). The key is that
///    id plus the leaves' VarIds plus the structural literal operands of
///    `*`, `/` and `%`; the other literals are slots, filled per call
///    straight from the template. So `Count >= 3` and `Count >= 7` find
///    one plan, while two call sites of one C++ type over different
///    variables or multipliers find different ones. A key's first use
///    builds its slotted skeleton (`count >= $i0`, slot variables "$i0",
///    "$b0", ... by occurrence) in the arena once and plans it like any
///    shape; every later wait is an array index, a hash of the key
///    words, and a key compare.
///    Structural literals stay concrete because a slot there would make
///    the atom non-linear and untaggable, and because they are how
///    shapes like `X * 2 >= 96` still canonicalize onto the same record
///    as `X >= 48`.
///
/// The cache is append-only like the parse cache: distinct shapes are
/// bounded by distinct waituntil call sites, not by data — except for EDSL
/// expressions without a usable skeleton plan, whose blocking waits plan
/// each distinct concrete predicate.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_PLAN_PLANCACHE_H
#define AUTOSYNCH_PLAN_PLANCACHE_H

#include "plan/WaitPlan.h"
#include "support/ThreadCounters.h"

#include <algorithm>
#include <unordered_map>

namespace autosynch {

/// Per-monitor plan-cache statistics (guarded by the monitor lock).
struct PlanCacheStats {
  uint64_t ShapeBuilds = 0;   ///< Plans constructed.
  uint64_t ShapeHits = 0;     ///< Lookups served by a cached plan.
  uint64_t LegacyShapes = 0;  ///< Shapes the planner handed back as Legacy.
};

/// Snapshot of the process-wide plan counters (workbench/bench reporting).
struct PlanCountersSnapshot {
  uint64_t ShapeBuilds = 0;
  uint64_t ShapeHits = 0;
  uint64_t BindHits = 0;   ///< Resolved signatures found in the table.
  uint64_t ColdBinds = 0;  ///< Resolved signatures registered anew.
  uint64_t LegacyWaits = 0;///< Blocking waits registered without a key.

  PlanCountersSnapshot operator-(const PlanCountersSnapshot &R) const {
    return {ShapeBuilds - R.ShapeBuilds, ShapeHits - R.ShapeHits,
            BindHits - R.BindHits, ColdBinds - R.ColdBinds,
            LegacyWaits - R.LegacyWaits};
  }
};

/// Process-wide plan counters: aggregates across every monitor in the
/// process, counted per thread (support/ThreadCounters.h) so a count is a
/// plain store with no locked instruction. The per-monitor numbers live
/// in PlanCacheStats / ManagerStats.
class PlanCounters {
public:
  static PlanCounters &global();

  void onShapeBuild() { Events::bump(ShapeBuildsIdx); }
  void onShapeHit() { Events::bump(ShapeHitsIdx); }
  void onBindHit() { Events::bump(BindHitsIdx); }
  void onColdBind() { Events::bump(ColdBindsIdx); }
  void onLegacyWait() { Events::bump(LegacyWaitsIdx); }

  /// Counts of live and exited threads alike.
  PlanCountersSnapshot snapshot() const {
    Events::Totals E = Events::read();
    return {E[ShapeBuildsIdx], E[ShapeHitsIdx], E[BindHitsIdx],
            E[ColdBindsIdx], E[LegacyWaitsIdx]};
  }

private:
  enum : size_t {
    ShapeBuildsIdx,
    ShapeHitsIdx,
    BindHitsIdx,
    ColdBindsIdx,
    LegacyWaitsIdx,
    NumEvents
  };
  using Events = ThreadCounters<PlanCounters, NumEvents>;
};

/// The per-monitor shape -> WaitPlan cache. All member functions require
/// the monitor lock (shapes intern into the monitor's arena).
class PlanCache {
public:
  PlanCache(ExprArena &Arena, SymbolTable &Syms) : Arena(Arena), Syms(Syms) {}

  /// Plan for a shape whose locals are already symbolic (parsed
  /// predicates). O(1) on repeat shapes.
  const WaitPlan *forShape(ExprRef Shape, const DnfLimits &Limits);

  /// An EDSL call-site key: the expression type's shape id and the
  /// key words its scan wrote (their count is fixed by the type).
  struct SiteKey {
    uint32_t Shape = 0;
    const int64_t *Words = nullptr;
    size_t N = 0;
  };

  /// The plan of a call site seen before, or null. No arena access; one
  /// hash of the key words, whatever the number of the shape's sites.
  const WaitPlan *findSite(const SiteKey &K) const {
    if (K.Shape >= Sites.size())
      return nullptr;
    auto [It, End] = Sites[K.Shape].equal_range(hashWords(K));
    for (; It != End; ++It)
      if (std::equal(It->second.Words.begin(), It->second.Words.end(),
                     K.Words))
        return It->second.Plan;
    return nullptr;
  }

  /// Plans a new call site from its slotted \p Skeleton, which abstracts
  /// \p NumSlots literals.
  const WaitPlan *addSite(const SiteKey &K, ExprRef Skeleton,
                          size_t NumSlots, const DnfLimits &Limits);

  /// Number of distinct EDSL call-site keys.
  size_t numSites() const {
    size_t N = 0;
    for (const SiteTable &S : Sites)
      N += S.size();
    return N;
  }

  const PlanCacheStats &stats() const { return Stats; }
  void resetStats() { Stats = PlanCacheStats(); }

  /// Number of cached shapes.
  size_t size() const { return Plans.size(); }

  /// The I-th synthetic slot variable of type \p Ty, declared on demand
  /// (public for the skeleton builder; not part of the monitor-facing API).
  VarId slotVar(size_t I, TypeKind Ty);

private:
  ExprArena &Arena;
  SymbolTable &Syms;
  std::unordered_map<ExprRef, std::unique_ptr<WaitPlan>> Plans;
  std::vector<VarId> IntSlotVars, BoolSlotVars;

  struct Site {
    std::vector<int64_t> Words;
    const WaitPlan *Plan;
  };
  /// One shape's call sites, keyed by hashWords of their key words.
  using SiteTable = std::unordered_multimap<uint64_t, Site>;

  /// FNV-1a over \p K's key words.
  static uint64_t hashWords(const SiteKey &K) {
    uint64_t H = 1469598103934665603ull;
    for (size_t I = 0; I != K.N; ++I) {
      H ^= static_cast<uint64_t>(K.Words[I]);
      H *= 1099511628211ull;
    }
    return H;
  }

  /// EDSL call sites, indexed by shape id.
  std::vector<SiteTable> Sites;
  PlanCacheStats Stats;
};

} // namespace autosynch

#endif // AUTOSYNCH_PLAN_PLANCACHE_H
