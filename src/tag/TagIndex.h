//===- tag/TagIndex.h - Per-expression tag indices (paper Fig. 7) -*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The condition manager's tag storage (paper Fig. 7): for every distinct
/// shared expression, an equivalence hash table keyed by the globalized
/// value, plus a lower-bound min-heap and an upper-bound max-heap of
/// threshold tags; untaggable predicates go to the None list and are
/// scanned exhaustively, last.
///
/// findTrue() is the search half of relay signaling: given the monitor's
/// current state it returns some registered record whose predicate is true,
/// or null — with as few predicate evaluations as the tags allow.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_TAG_TAGINDEX_H
#define AUTOSYNCH_TAG_TAGINDEX_H

#include "expr/VarSet.h"
#include "tag/Tag.h"
#include "tag/ThresholdHeap.h"

#include <unordered_map>

namespace autosynch {

/// Tag-directed index of records (registered predicates). RecordT is
/// supplied by the condition manager; tests instantiate it with a stub.
///
/// RecordT must expose a `size_t NoneIdx` member initialized to
/// TagIndex::InvalidPos — the index stores a record's position in the None
/// list intrusively, so None-tag activation/deactivation does no hashing —
/// and a `VarSet ReadSet` member naming the shared variables the record's
/// predicate reads. Each per-expression group maintains a *cover set*, the
/// union of the read sets of every record added to it: findTrue can then
/// skip whole groups whose cover cannot intersect the caller's dirty set.
/// The cover is not shrunk on remove (stale bits only widen the scan,
/// never lose one) and dies with the group when its last tag is removed.
///
/// An equivalence bucket emptied by remove is not freed: it joins a few
/// spare buckets (hash node and vector capacity) that the next adds
/// needing a new bucket re-key, so a record that deactivates and another
/// that activates under a fresh key allocate nothing. A few spares, not
/// one per key seen: keys may never repeat. An emptied per-expression
/// group is recycled the same way (one spare), and each threshold heap
/// keeps its own spare node (ThresholdHeap::remove).
template <typename RecordT> class TagIndex {
public:
  static constexpr size_t InvalidPos = static_cast<size_t>(-1);

  /// Registers \p R under \p T.
  void add(const Tag &T, RecordT *R) {
    if (T.Kind == TagKind::None) {
      AUTOSYNCH_CHECK(R->NoneIdx == InvalidPos,
                      "record already in the None list");
      R->NoneIdx = NoneList.size();
      NoneList.push_back(R);
      return;
    }

    PerExpr &P = byExpr(T.SharedExpr);
    P.Cover.unionWith(R->ReadSet);
    if (T.Kind == TagKind::Equivalence) {
      auto BucketIt = P.Eq.find(T.Key);
      if (BucketIt == P.Eq.end()) {
        if (NumSpareBuckets == 0) {
          BucketIt = P.Eq.try_emplace(T.Key).first;
        } else {
          auto &Spare = SpareBuckets[--NumSpareBuckets];
          Spare.key() = T.Key;
          BucketIt = P.Eq.insert(std::move(Spare)).position;
        }
      }
      BucketIt->second.push_back(R);
      return;
    }
    heapFor(P, T).add(T.Key, isStrictOp(T.Op), R);
  }

  /// Unregisters \p R from \p T (must match a prior add).
  void remove(const Tag &T, RecordT *R) {
    if (T.Kind == TagKind::None) {
      size_t Pos = R->NoneIdx;
      AUTOSYNCH_CHECK(Pos < NoneList.size() && NoneList[Pos] == R,
                      "record not in the None list");
      NoneList[Pos] = NoneList.back();
      NoneList[Pos]->NoneIdx = Pos;
      NoneList.pop_back();
      R->NoneIdx = InvalidPos;
      return;
    }

    auto ExprIt = Exprs.find(T.SharedExpr);
    AUTOSYNCH_CHECK(ExprIt != Exprs.end(), "removing an unregistered tag");
    PerExpr &P = ExprIt->second;
    if (T.Kind == TagKind::Equivalence) {
      auto BucketIt = P.Eq.find(T.Key);
      AUTOSYNCH_CHECK(BucketIt != P.Eq.end(),
                      "removing an unregistered equivalence tag");
      std::vector<RecordT *> &Bucket = BucketIt->second;
      auto Pos = std::find(Bucket.begin(), Bucket.end(), R);
      AUTOSYNCH_CHECK(Pos != Bucket.end(),
                      "removing an unregistered record");
      *Pos = Bucket.back();
      Bucket.pop_back();
      if (Bucket.empty()) {
        if (NumSpareBuckets != MaxSpareBuckets)
          SpareBuckets[NumSpareBuckets++] = P.Eq.extract(BucketIt);
        else
          P.Eq.erase(BucketIt);
      }
    } else {
      heapFor(P, T).remove(T.Key, isStrictOp(T.Op), R);
    }
    if (P.Eq.empty() && P.LowerBound.empty() && P.UpperBound.empty()) {
      if (SpareExpr.empty())
        SpareExpr = Exprs.extract(ExprIt);
      else
        Exprs.erase(ExprIt);
    }
  }

  /// Searches for a record whose predicate is true.
  ///
  /// \p EvalShared maps a shared expression to its current int64 value
  /// (bool expressions as 0/1); \p IsTrue is the full predicate check.
  /// Order (paper Fig. 7): per shared expression, the equivalence bucket
  /// for the current value, then the two threshold heaps; finally the None
  /// list, exhaustively.
  ///
  /// With \p Dirty set, only entries whose read sets intersect it are
  /// visited: per-expression groups are pruned through their cover sets,
  /// None-list records individually. The caller guarantees every record
  /// whose read set misses \p Dirty is known false (the dirty-set relay
  /// invariant), so pruned entries cannot be the answer.
  template <typename EvalSharedFn, typename IsTrueFn>
  RecordT *findTrue(EvalSharedFn &&EvalShared, IsTrueFn &&IsTrue,
                    TagSearchStats *Stats = nullptr,
                    const VarSet *Dirty = nullptr) {
    for (auto &[SharedExpr, P] : Exprs) {
      if (Dirty && !Dirty->intersects(P.Cover)) {
        if (Stats)
          ++Stats->FilteredExprs;
        continue;
      }
      int64_t V = EvalShared(SharedExpr);
      if (Stats)
        ++Stats->SharedExprEvals;

      // Equivalence hash: at most one bucket can be true for this value
      // (§4.3.2), found in O(1).
      if (!P.Eq.empty()) {
        if (Stats)
          ++Stats->EqLookups;
        auto BucketIt = P.Eq.find(V);
        if (BucketIt != P.Eq.end()) {
          for (RecordT *R : BucketIt->second) {
            if (Stats)
              ++Stats->PredicateChecks;
            if (IsTrue(R))
              return R;
          }
        }
      }

      if (RecordT *R = P.LowerBound.search(V, IsTrue, Stats))
        return R;
      if (RecordT *R = P.UpperBound.search(V, IsTrue, Stats))
        return R;
    }

    // Exhaustive fallback over untaggable predicates.
    for (RecordT *R : NoneList) {
      if (Dirty && !Dirty->intersects(R->ReadSet)) {
        if (Stats)
          ++Stats->FilteredExprs;
        continue;
      }
      if (Stats) {
        ++Stats->NoneScans;
        ++Stats->PredicateChecks;
      }
      if (IsTrue(R))
        return R;
    }
    return nullptr;
  }

  /// Number of distinct shared expressions currently indexed.
  size_t numSharedExprs() const { return Exprs.size(); }
  /// Number of records in the None list.
  size_t noneListSize() const { return NoneList.size(); }
  bool empty() const { return Exprs.empty() && NoneList.empty(); }

private:
  using EqMap = std::unordered_map<int64_t, std::vector<RecordT *>>;

  struct PerExpr {
    /// Union of the read sets of every record added under this expression
    /// (grows only; see class comment).
    VarSet Cover;
    EqMap Eq;
    ThresholdHeap<RecordT> LowerBound{
        ThresholdHeap<RecordT>::Direction::LowerBound};
    ThresholdHeap<RecordT> UpperBound{
        ThresholdHeap<RecordT>::Direction::UpperBound};
  };

  static bool isStrictOp(ExprKind Op) {
    return Op == ExprKind::Lt || Op == ExprKind::Gt;
  }

  static bool isLowerBoundOp(ExprKind Op) {
    return Op == ExprKind::Ge || Op == ExprKind::Gt;
  }

  ThresholdHeap<RecordT> &heapFor(PerExpr &P, const Tag &T) {
    AUTOSYNCH_CHECK(T.Kind == TagKind::Threshold,
                    "heapFor requires a threshold tag");
    return isLowerBoundOp(T.Op) ? P.LowerBound : P.UpperBound;
  }

  PerExpr &byExpr(ExprRef SharedExpr) {
    if (auto It = Exprs.find(SharedExpr); It != Exprs.end())
      return It->second;
    if (SpareExpr.empty())
      return Exprs[SharedExpr];
    SpareExpr.key() = SharedExpr;
    SpareExpr.mapped().Cover.clear(); // The group's cover dies with it.
    return Exprs.insert(std::move(SpareExpr)).position->second;
  }

  using ExprMap = std::unordered_map<ExprRef, PerExpr>;

  ExprMap Exprs;
  std::vector<RecordT *> NoneList;
  /// Recycled equivalence buckets and per-expression group (see class
  /// comment).
  static constexpr size_t MaxSpareBuckets = 4;
  typename EqMap::node_type SpareBuckets[MaxSpareBuckets];
  size_t NumSpareBuckets = 0;
  typename ExprMap::node_type SpareExpr;
};

} // namespace autosynch

#endif // AUTOSYNCH_TAG_TAGINDEX_H
