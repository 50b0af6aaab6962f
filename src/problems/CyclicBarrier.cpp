//===- problems/CyclicBarrier.cpp - FIFO cyclic barrier ---------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Protocol: each arrival takes the next index of the current generation;
// the Parties-th arrival resets the count, bumps the generation, and wakes
// the group. Waiters block on "the generation has advanced past mine" —
// monotone, so a threshold predicate rather than an equivalence one.
//
//===----------------------------------------------------------------------===//

#include "problems/CyclicBarrier.h"

#include "core/Monitor.h"
#include "support/Check.h"
#include "sync/Mutex.h"

using namespace autosynch;

namespace {

/// Hand-written explicit version: one condition for the whole group;
/// signalAll on the trip is the natural explicit rendering (every waiter of
/// the finished generation must run).
class ExplicitCyclicBarrier final : public CyclicBarrierIface {
public:
  explicit ExplicitCyclicBarrier(int64_t Parties)
      : Tripped(Mutex.newCondition()), NumParties(Parties) {}

  int64_t await() override {
    Mutex.lock();
    int64_t MyGen = Generation;
    int64_t Index = Arrived++;
    if (Arrived == NumParties) {
      Arrived = 0;
      ++Generation;
      ++Trips;
      Tripped->signalAll();
    } else {
      while (Generation == MyGen)
        Tripped->await();
    }
    Mutex.unlock();
    return Index;
  }

  int64_t trips() const override {
    Mutex.lock();
    int64_t N = Trips;
    Mutex.unlock();
    return N;
  }

  int64_t parties() const override { return NumParties; }

private:
  mutable sync::Mutex Mutex;
  std::unique_ptr<sync::Condition> Tripped;
  const int64_t NumParties;
  int64_t Arrived = 0;
  int64_t Generation = 0;
  int64_t Trips = 0;
};

class AutoCyclicBarrier final : public CyclicBarrierIface, private Monitor {
public:
  AutoCyclicBarrier(int64_t Parties, const MonitorConfig &Cfg)
      : Monitor(Cfg), NumParties(Parties) {}

  int64_t await() override {
    Region R(*this);
    int64_t MyGen = Generation.get();
    int64_t Index = Arrived.get();
    Arrived += 1;
    if (Index + 1 == NumParties) {
      Arrived = 0;
      Generation += 1;
      Trips += 1;
    } else {
      // Globalized threshold predicate `generation > <myGen>`: one
      // lower-bound tag per blocked generation.
      waitUntil(Generation > MyGen);
    }
    return Index;
  }

  int64_t trips() const override {
    return const_cast<AutoCyclicBarrier *>(this)->synchronized(
        [this] { return Trips.get(); });
  }

  int64_t parties() const override { return NumParties; }

  ConditionManager *manager() override { return &conditionManager(); }

private:
  Shared<int64_t> Arrived{*this, "arrived", 0};
  Shared<int64_t> Generation{*this, "generation", 0};
  Shared<int64_t> Trips{*this, "trips", 0};
  const int64_t NumParties;
};

} // namespace

std::unique_ptr<CyclicBarrierIface>
autosynch::makeCyclicBarrier(Mechanism M, int64_t Parties) {
  AUTOSYNCH_CHECK(Parties > 0, "cyclic barrier requires >= 1 party");
  if (M == Mechanism::Explicit)
    return std::make_unique<ExplicitCyclicBarrier>(Parties);
  return std::make_unique<AutoCyclicBarrier>(Parties, configFor(M));
}
