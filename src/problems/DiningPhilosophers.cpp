//===- problems/DiningPhilosophers.cpp - Dining philosophers ----------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "problems/DiningPhilosophers.h"

#include "core/Monitor.h"
#include "support/Check.h"
#include "sync/Mutex.h"

#include <deque>
#include <string>
#include <vector>

using namespace autosynch;

namespace {

/// Explicit signaling: one condition per philosopher; putting chopsticks
/// down signals both neighbours (they are the only threads whose
/// predicates may have turned true).
class ExplicitDiningPhilosophers final : public DiningPhilosophersIface {
public:
  explicit ExplicitDiningPhilosophers(int64_t N) : Stick(N, false), N(N) {
    Conds.reserve(N);
    for (int64_t I = 0; I != N; ++I)
      Conds.push_back(Mutex.newCondition());
  }

  void pickUp(int64_t P) override {
    Mutex.lock();
    while (Stick[P] || Stick[(P + 1) % N])
      Conds[P]->await();
    Stick[P] = Stick[(P + 1) % N] = true;
    Mutex.unlock();
  }

  void putDown(int64_t P) override {
    Mutex.lock();
    Stick[P] = Stick[(P + 1) % N] = false;
    ++Meals;
    Conds[(P + N - 1) % N]->signal();
    Conds[(P + 1) % N]->signal();
    Mutex.unlock();
  }

  int64_t meals() const override {
    Mutex.lock();
    int64_t N = Meals;
    Mutex.unlock();
    return N;
  }

private:
  mutable sync::Mutex Mutex;
  std::vector<std::unique_ptr<sync::Condition>> Conds;
  std::vector<bool> Stick;
  const int64_t N;
  int64_t Meals = 0;
};

class AutoDiningPhilosophers final : public DiningPhilosophersIface,
                                     private Monitor {
public:
  AutoDiningPhilosophers(int64_t N, const MonitorConfig &Cfg)
      : Monitor(Cfg), N(N) {
    // The base is private; convert here, where it is accessible, rather
    // than inside the container's construct_at.
    Monitor &Self = *this;
    for (int64_t I = 0; I != N; ++I)
      Sticks.emplace_back(Self, "stick" + std::to_string(I), false);
  }

  void pickUp(int64_t P) override {
    Region R(*this);
    // `!stick[p] && !stick[p+1]`: boolean equivalence tags (key 0) on both
    // chopstick variables.
    waitUntil(!Sticks[P].expr() && !Sticks[(P + 1) % N].expr());
    Sticks[P] = true;
    Sticks[(P + 1) % N] = true;
  }

  void putDown(int64_t P) override {
    Region R(*this);
    Sticks[P] = false;
    Sticks[(P + 1) % N] = false;
    Meals += 1;
  }

  int64_t meals() const override {
    return const_cast<AutoDiningPhilosophers *>(this)->synchronized(
        [this] { return Meals.get(); });
  }

private:
  std::deque<Shared<bool>> Sticks;
  Shared<int64_t> Meals{*this, "meals", 0};
  const int64_t N;
};

} // namespace

std::unique_ptr<DiningPhilosophersIface>
autosynch::makeDiningPhilosophers(Mechanism M, int64_t NumPhilosophers) {
  AUTOSYNCH_CHECK(NumPhilosophers >= 2,
                  "dining philosophers requires >= 2 philosophers");
  if (M == Mechanism::Explicit)
    return std::make_unique<ExplicitDiningPhilosophers>(NumPhilosophers);
  return std::make_unique<AutoDiningPhilosophers>(NumPhilosophers,
                                                  configFor(M));
}
