//===- problems/H2O.cpp - Water-building barrier ----------------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Protocol: HWaiting counts blocked hydrogens; an oxygen waits until
// HWaiting >= 2, then claims two hydrogens by moving them to HPasses;
// each blocked hydrogen leaves once it can consume a pass. Every molecule
// therefore consumes exactly one oxygen call and two hydrogen calls.
//
//===----------------------------------------------------------------------===//

#include "problems/H2O.h"

#include "core/Monitor.h"
#include "sync/Mutex.h"

using namespace autosynch;

namespace {

class ExplicitH2O final : public H2OIface {
public:
  ExplicitH2O()
      : EnoughHydrogen(Mutex.newCondition()),
        PassAvailable(Mutex.newCondition()) {}

  void hydrogen() override {
    Mutex.lock();
    ++HWaiting;
    if (HWaiting >= 2)
      EnoughHydrogen->signal();
    while (HPasses == 0)
      PassAvailable->await();
    --HPasses;
    Mutex.unlock();
  }

  void oxygen() override {
    Mutex.lock();
    while (HWaiting < 2)
      EnoughHydrogen->await();
    HWaiting -= 2;
    HPasses += 2;
    ++Molecules;
    // Exactly two passes were minted: wake two hydrogens.
    PassAvailable->signal();
    PassAvailable->signal();
    Mutex.unlock();
  }

  int64_t molecules() const override {
    Mutex.lock();
    int64_t N = Molecules;
    Mutex.unlock();
    return N;
  }

private:
  mutable sync::Mutex Mutex;
  std::unique_ptr<sync::Condition> EnoughHydrogen;
  std::unique_ptr<sync::Condition> PassAvailable;
  int64_t HWaiting = 0;
  int64_t HPasses = 0;
  int64_t Molecules = 0;
};

class AutoH2O final : public H2OIface, private Monitor {
public:
  explicit AutoH2O(const MonitorConfig &Cfg) : Monitor(Cfg) {}

  void hydrogen() override {
    Region R(*this);
    HWaiting += 1;
    waitUntil(HPasses > 0);
    HPasses -= 1;
  }

  void oxygen() override {
    Region R(*this);
    waitUntil(HWaiting >= 2);
    HWaiting -= 2;
    HPasses += 2;
    Molecules += 1;
  }

  int64_t molecules() const override {
    return const_cast<AutoH2O *>(this)->synchronized(
        [this] { return Molecules.get(); });
  }

private:
  Shared<int64_t> HWaiting{*this, "hWaiting", 0};
  Shared<int64_t> HPasses{*this, "hPasses", 0};
  Shared<int64_t> Molecules{*this, "molecules", 0};
};

} // namespace

std::unique_ptr<H2OIface> autosynch::makeH2O(Mechanism M) {
  if (M == Mechanism::Explicit)
    return std::make_unique<ExplicitH2O>();
  return std::make_unique<AutoH2O>(configFor(M));
}
