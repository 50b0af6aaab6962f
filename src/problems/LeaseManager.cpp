//===- problems/LeaseManager.cpp - Bounded-hold lease pool -----------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "problems/LeaseManager.h"

#include "core/Monitor.h"
#include "support/Check.h"
#include "sync/Mutex.h"
#include "time/Deadline.h"

#include <chrono>

using namespace autosynch;

namespace {

/// Hand-written explicit-signal implementation: one condition, deadline
/// loop with the epoch handshake (sync/Mutex.h) so a release signaled
/// between the last check and the block is never lost.
class ExplicitLeaseManager final : public LeaseManagerIface {
public:
  explicit ExplicitLeaseManager(int64_t Leases)
      : Freed(Mutex.newCondition()), Free(Leases) {}

  bool acquire(uint64_t TimeoutNs) override {
    uint64_t Deadline = time::deadlineAfter(time::nowNs(), TimeoutNs);
    Mutex.lock();
    while (Free == 0) {
      uint64_t Epoch = Freed->epoch();
      if (Deadline != time::NeverNs && time::nowNs() >= Deadline) {
        ++Timeouts;
        Mutex.unlock();
        return false;
      }
      Freed->awaitUntil(Deadline, Epoch);
    }
    --Free;
    ++Grants;
    Mutex.unlock();
    return true;
  }

  void release() override {
    Mutex.lock();
    ++Free;
    Freed->signal();
    Mutex.unlock();
  }

  int64_t available() const override {
    Mutex.lock();
    int64_t F = Free;
    Mutex.unlock();
    return F;
  }

  int64_t grants() const override {
    Mutex.lock();
    int64_t G = Grants;
    Mutex.unlock();
    return G;
  }

  int64_t timeouts() const override {
    Mutex.lock();
    int64_t T = Timeouts;
    Mutex.unlock();
    return T;
  }

private:
  mutable sync::Mutex Mutex;
  std::unique_ptr<sync::Condition> Freed;
  int64_t Free;
  int64_t Grants = 0;
  int64_t Timeouts = 0;
};

/// Automatic-signal implementation: one timed waituntil, no conditions,
/// no signals. The bound rides the deadline runtime (timer wheel +
/// bounded block); the shared predicate `free > 0` is eagerly registered
/// like the paper's Fig. 5 constructors.
class AutoLeaseManager final : public LeaseManagerIface, private Monitor {
public:
  AutoLeaseManager(int64_t Leases, const MonitorConfig &Cfg)
      : Monitor(Cfg), LeaseCount(Leases) {
    registerPredicate("free > 0");
  }

  bool acquire(uint64_t TimeoutNs) override {
    Region R(*this);
    if (!waitUntilFor(Free > lit(0), time::toTimeout(TimeoutNs))) {
      ++Timeouts;
      return false;
    }
    Free -= 1;
    ++Grants;
    return true;
  }

  void release() override {
    Region R(*this);
    Free += 1;
  }

  int64_t available() const override {
    auto *Self = const_cast<AutoLeaseManager *>(this);
    return Self->synchronized([Self] { return Self->Free.get(); });
  }

  int64_t grants() const override {
    auto *Self = const_cast<AutoLeaseManager *>(this);
    return Self->synchronized([Self] { return Self->Grants; });
  }

  int64_t timeouts() const override {
    auto *Self = const_cast<AutoLeaseManager *>(this);
    return Self->synchronized([Self] { return Self->Timeouts; });
  }

private:
  // Declared before Free so the Shared slot's initial value is ready.
  int64_t LeaseCount;
  Shared<int64_t> Free{*this, "free", LeaseCount};
  // Plain counters: mutated inside regions only; deliberately not Shared
  // so bookkeeping writes never dirty the relay set.
  int64_t Grants = 0;
  int64_t Timeouts = 0;
};

} // namespace

std::unique_ptr<LeaseManagerIface>
autosynch::makeLeaseManager(Mechanism M, int64_t Leases) {
  AUTOSYNCH_CHECK(Leases > 0, "lease manager requires at least one lease");
  if (M == Mechanism::Explicit)
    return std::make_unique<ExplicitLeaseManager>(Leases);
  return std::make_unique<AutoLeaseManager>(Leases, configFor(M));
}
