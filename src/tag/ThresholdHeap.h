//===- tag/ThresholdHeap.h - Threshold-tag heaps (paper Fig. 4) -*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's threshold-tag heap (§4.3.2, Fig. 4). For one shared
/// expression, lower-bound tags (`expr >= k`, `expr > k`) live in a
/// min-heap: if the root tag (smallest k) is false under the current value,
/// every descendant is false too, so the scan stops after one comparison.
/// Upper-bound tags (`<=`, `<`) mirror this with a max-heap.
///
/// Tie-breaking follows the paper exactly: for equal keys, `>=` is treated
/// as smaller than `>` in the min-heap (it is true for more values, so it
/// must be examined first); dually `<=` precedes `<` in the max-heap.
///
/// The search implements Fig. 4's temporary-removal loop: when a true root
/// tag yields no true predicate, the node is popped into a backup list so
/// the next-priority tag (which may also be true) becomes visible; all
/// backups are re-inserted before returning.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_TAG_THRESHOLDHEAP_H
#define AUTOSYNCH_TAG_THRESHOLDHEAP_H

#include "support/Check.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

namespace autosynch {

/// Statistics of one or more tag searches, reported by benches and used by
/// tests to pin down pruning behaviour.
struct TagSearchStats {
  uint64_t SharedExprEvals = 0; ///< Shared expressions evaluated.
  uint64_t EqLookups = 0;       ///< Equivalence hash probes.
  uint64_t HeapVisits = 0;      ///< Threshold heap nodes examined.
  uint64_t PredicateChecks = 0; ///< Predicate checks issued. A relay's
                                ///< check may be answered by the
                                ///< record's false-stamp without an
                                ///< evaluation, so actual evaluations
                                ///< are PredicateChecks minus
                                ///< ManagerStats::StampShortCircuits.
  uint64_t NoneScans = 0;       ///< Records checked in the None list.
  uint64_t FilteredExprs = 0;   ///< Index entries (per-expression groups,
                                ///< None/linear-scan records) skipped
                                ///< because their read set cannot
                                ///< intersect the relay dirty set.

  TagSearchStats &operator+=(const TagSearchStats &R) {
    SharedExprEvals += R.SharedExprEvals;
    EqLookups += R.EqLookups;
    HeapVisits += R.HeapVisits;
    PredicateChecks += R.PredicateChecks;
    NoneScans += R.NoneScans;
    FilteredExprs += R.FilteredExprs;
    return *this;
  }
};

/// A heap of threshold tags for one shared expression and one bound
/// direction, mapping each distinct (key, strictness) to the records
/// (registered predicates) carrying that tag.
template <typename RecordT> class ThresholdHeap {
public:
  enum class Direction : uint8_t {
    LowerBound, ///< Tags `expr >= k` / `expr > k`; min-heap on k.
    UpperBound  ///< Tags `expr <= k` / `expr < k`; max-heap on k.
  };

  explicit ThresholdHeap(Direction Dir) : Dir(Dir) {}

  bool empty() const { return Heap.empty(); }

  /// Number of live (key, strictness) nodes.
  size_t numNodes() const { return Nodes.size(); }

  /// Registers \p R under tag (\p Key, \p Strict).
  void add(int64_t Key, bool Strict, RecordT *R) {
    auto It = Nodes.find(std::make_pair(Key, Strict));
    if (It == Nodes.end()) {
      if (SpareNode.empty()) {
        It = Nodes.emplace(std::make_pair(Key, Strict),
                           std::make_unique<Node>())
                 .first;
      } else {
        SpareNode.key() = std::make_pair(Key, Strict);
        It = Nodes.insert(std::move(SpareNode)).position;
      }
      It->second->Key = Key;
      It->second->Strict = Strict;
      pushNode(It->second.get());
    }
    It->second->Records.push_back(R);
  }

  /// Unregisters \p R from tag (\p Key, \p Strict). When the tag's last
  /// record goes away the node is removed too (§5.2: "A threshold tag also
  /// needs to be removed once it has no predicate"); the heap keeps it as
  /// its one spare node, re-keyed by the next add of a new tag, so churn
  /// under never-repeating keys allocates nothing.
  void remove(int64_t Key, bool Strict, RecordT *R) {
    auto It = Nodes.find(std::make_pair(Key, Strict));
    AUTOSYNCH_CHECK(It != Nodes.end(), "removing an unregistered tag");
    std::vector<RecordT *> &Records = It->second->Records;
    auto Pos = std::find(Records.begin(), Records.end(), R);
    AUTOSYNCH_CHECK(Pos != Records.end(), "removing an unregistered record");
    *Pos = Records.back();
    Records.pop_back();
    if (Records.empty())
      eraseNode(It);
  }

  /// Fig. 4: scans tags in priority order while they are true under
  /// \p SharedVal, calling IsTrue on each record; returns the first record
  /// whose predicate holds, or null when the frontier tag is false (all
  /// remaining tags are then false too). Temporarily popped nodes are
  /// restored.
  template <typename IsTrueFn>
  RecordT *search(int64_t SharedVal, IsTrueFn &&IsTrue,
                  TagSearchStats *Stats = nullptr) {
    std::vector<Node *> Backup;
    RecordT *Found = nullptr;

    while (!Heap.empty()) {
      Node *Top = Heap.front();
      AUTOSYNCH_CHECK(!Top->Records.empty(),
                      "empty node survived eager removal");
      if (Stats)
        ++Stats->HeapVisits;
      if (!tagTrue(SharedVal, *Top))
        break; // Every descendant tag is false as well.
      for (RecordT *R : Top->Records) {
        if (Stats)
          ++Stats->PredicateChecks;
        if (IsTrue(R)) {
          Found = R;
          break;
        }
      }
      if (Found)
        break;
      // No true predicate under a true tag: remove temporarily so the
      // next-priority tag becomes visible (its predicates may hold).
      popTop();
      Backup.push_back(Top);
    }

    for (Node *N : Backup)
      pushNode(N);
    return Found;
  }

private:
  struct Node {
    int64_t Key = 0;
    bool Strict = false;
    std::vector<RecordT *> Records;
  };

  using NodeMap = std::map<std::pair<int64_t, bool>, std::unique_ptr<Node>>;

  /// Whether tag (`expr op key`) holds for `expr == SharedVal`.
  bool tagTrue(int64_t SharedVal, const Node &N) const {
    if (Dir == Direction::LowerBound)
      return N.Strict ? SharedVal > N.Key : SharedVal >= N.Key;
    return N.Strict ? SharedVal < N.Key : SharedVal <= N.Key;
  }

  /// True when \p A has strictly lower scan priority than \p B. The heap's
  /// front is the highest-priority node: smallest key for lower bounds
  /// (largest for upper bounds), non-strict before strict on equal keys.
  bool lowerPriority(const Node *A, const Node *B) const {
    if (A->Key != B->Key)
      return Dir == Direction::LowerBound ? A->Key > B->Key
                                          : A->Key < B->Key;
    return A->Strict && !B->Strict;
  }

  void pushNode(Node *N) {
    Heap.push_back(N);
    std::push_heap(Heap.begin(), Heap.end(),
                   [this](const Node *A, const Node *B) {
                     return lowerPriority(A, B);
                   });
  }

  void popTop() {
    std::pop_heap(Heap.begin(), Heap.end(),
                  [this](const Node *A, const Node *B) {
                    return lowerPriority(A, B);
                  });
    Heap.pop_back();
  }

  /// Removes \p It's node from both the map and the heap vector (linear
  /// scan + re-heapify; the node count is the number of distinct keys,
  /// which stays small).
  void eraseNode(typename NodeMap::iterator It) {
    Node *N = It->second.get();
    auto Pos = std::find(Heap.begin(), Heap.end(), N);
    AUTOSYNCH_CHECK(Pos != Heap.end(), "node missing from the heap");
    *Pos = Heap.back();
    Heap.pop_back();
    std::make_heap(Heap.begin(), Heap.end(),
                   [this](const Node *A, const Node *B) {
                     return lowerPriority(A, B);
                   });
    if (SpareNode.empty())
      SpareNode = Nodes.extract(It);
    else
      Nodes.erase(It);
  }

  Direction Dir;
  std::vector<Node *> Heap;
  NodeMap Nodes;
  /// An erased node kept for reuse (see remove); empty or holding a node
  /// with no records.
  typename NodeMap::node_type SpareNode;
};

} // namespace autosynch

#endif // AUTOSYNCH_TAG_THRESHOLDHEAP_H
