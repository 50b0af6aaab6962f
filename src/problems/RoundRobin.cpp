//===- problems/RoundRobin.cpp - Round-robin access pattern -----------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "problems/RoundRobin.h"

#include "core/Monitor.h"
#include "support/Check.h"
#include "sync/Mutex.h"

#include <vector>

using namespace autosynch;

namespace {

/// Explicit signaling with "an array of condition variables ... for
/// associating the id of each thread and its condition variable" (§6.4):
/// the leaving thread signals exactly the next thread's condition, the
/// explicit mechanism's best case.
class ExplicitRoundRobin final : public RoundRobinIface {
public:
  explicit ExplicitRoundRobin(int64_t NumThreads) : NumThreads(NumThreads) {
    Turns.reserve(NumThreads);
    for (int64_t I = 0; I != NumThreads; ++I)
      Turns.push_back(Mutex.newCondition());
  }

  void access(int64_t MyId) override {
    Mutex.lock();
    while (Turn != MyId)
      Turns[MyId]->await();
    Turn = (Turn + 1) % NumThreads;
    ++Accesses;
    Turns[Turn]->signal();
    Mutex.unlock();
  }

  int64_t accesses() const override {
    Mutex.lock();
    int64_t N = Accesses;
    Mutex.unlock();
    return N;
  }

private:
  mutable sync::Mutex Mutex;
  std::vector<std::unique_ptr<sync::Condition>> Turns;
  const int64_t NumThreads;
  int64_t Turn = 0;
  int64_t Accesses = 0;
};

class AutoRoundRobin final : public RoundRobinIface, private Monitor {
public:
  AutoRoundRobin(int64_t NumThreads, const MonitorConfig &Cfg)
      : Monitor(Cfg), NumThreads(NumThreads) {}

  void access(int64_t MyId) override {
    Region R(*this);
    // Globalized complex predicate: `turn == <myId>`. N distinct
    // equivalence predicates over the shared expression `turn`.
    waitUntil(Turn == MyId);
    Turn = (Turn.get() + 1) % NumThreads;
    Accesses += 1;
  }

  int64_t accesses() const override {
    return const_cast<AutoRoundRobin *>(this)->synchronized(
        [this] { return Accesses.get(); });
  }

  ConditionManager *manager() override { return &conditionManager(); }

private:
  Shared<int64_t> Turn{*this, "turn", 0};
  Shared<int64_t> Accesses{*this, "accesses", 0};
  const int64_t NumThreads;
};

} // namespace

std::unique_ptr<RoundRobinIface>
autosynch::makeRoundRobin(Mechanism M, int64_t NumThreads) {
  AUTOSYNCH_CHECK(NumThreads > 0, "round robin requires >= 1 thread");
  if (M == Mechanism::Explicit)
    return std::make_unique<ExplicitRoundRobin>(NumThreads);
  return std::make_unique<AutoRoundRobin>(NumThreads, configFor(M));
}
