//===- problems/BoundedBuffer.cpp - Classic bounded buffer -----------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "problems/BoundedBuffer.h"

#include "core/Monitor.h"
#include "support/Check.h"
#include "sync/Mutex.h"
#include "time/Deadline.h"

#include <chrono>
#include <vector>

using namespace autosynch;

namespace {

/// Hand-written explicit-signal implementation, the C++ rendering of the
/// paper's Fig. 1 Java class (single-item variant). Two condition
/// variables; `signal` suffices because all waiters on one condition wait
/// for the same single-item event.
class ExplicitBoundedBuffer final : public BoundedBufferIface {
public:
  explicit ExplicitBoundedBuffer(int64_t Capacity)
      : NotFull(Mutex.newCondition()), NotEmpty(Mutex.newCondition()),
        Buffer(Capacity) {}

  void put(int64_t Item) override {
    Mutex.lock();
    while (Count == static_cast<int64_t>(Buffer.size()))
      NotFull->await();
    Buffer[PutPtr] = Item;
    PutPtr = (PutPtr + 1) % static_cast<int64_t>(Buffer.size());
    ++Count;
    NotEmpty->signal();
    Mutex.unlock();
  }

  int64_t take() override {
    Mutex.lock();
    while (Count == 0)
      NotEmpty->await();
    int64_t Item = Buffer[TakePtr];
    TakePtr = (TakePtr + 1) % static_cast<int64_t>(Buffer.size());
    --Count;
    NotFull->signal();
    Mutex.unlock();
    return Item;
  }

  bool putFor(int64_t Item, uint64_t TimeoutNs) override {
    uint64_t Deadline = time::deadlineAfter(time::nowNs(), TimeoutNs);
    Mutex.lock();
    while (Count == static_cast<int64_t>(Buffer.size())) {
      uint64_t Epoch = NotFull->epoch();
      if (time::nowNs() >= Deadline) {
        Mutex.unlock();
        return false;
      }
      NotFull->awaitUntil(Deadline, Epoch);
    }
    Buffer[PutPtr] = Item;
    PutPtr = (PutPtr + 1) % static_cast<int64_t>(Buffer.size());
    ++Count;
    NotEmpty->signal();
    Mutex.unlock();
    return true;
  }

  bool takeFor(int64_t &Out, uint64_t TimeoutNs) override {
    uint64_t Deadline = time::deadlineAfter(time::nowNs(), TimeoutNs);
    Mutex.lock();
    while (Count == 0) {
      uint64_t Epoch = NotEmpty->epoch();
      if (time::nowNs() >= Deadline) {
        Mutex.unlock();
        return false;
      }
      NotEmpty->awaitUntil(Deadline, Epoch);
    }
    Out = Buffer[TakePtr];
    TakePtr = (TakePtr + 1) % static_cast<int64_t>(Buffer.size());
    --Count;
    NotFull->signal();
    Mutex.unlock();
    return true;
  }

  int64_t size() const override {
    Mutex.lock();
    int64_t S = Count;
    Mutex.unlock();
    return S;
  }

private:
  mutable sync::Mutex Mutex;
  std::unique_ptr<sync::Condition> NotFull;
  std::unique_ptr<sync::Condition> NotEmpty;
  std::vector<int64_t> Buffer;
  int64_t PutPtr = 0;
  int64_t TakePtr = 0;
  int64_t Count = 0;
};

/// Automatic-signal implementation: the paper's `AutoSynch class` — no
/// condition variables, no signals, just waituntil. One class serves the
/// Baseline / AutoSynch-T / AutoSynch mechanisms via the signal policy.
class AutoBoundedBuffer final : public BoundedBufferIface,
                                private Monitor {
public:
  AutoBoundedBuffer(int64_t Capacity, const MonitorConfig &Cfg)
      : Monitor(Cfg), Buffer(Capacity) {
    // Paper Fig. 5: static shared predicates can be registered eagerly.
    registerPredicate("count > 0");
    registerPredicate("count < " + std::to_string(Capacity));
  }

  void put(int64_t Item) override {
    Region R(*this);
    waitUntil(Count < static_cast<int64_t>(Buffer.size()));
    Buffer[PutPtr] = Item;
    PutPtr = (PutPtr + 1) % static_cast<int64_t>(Buffer.size());
    Count += 1;
  }

  int64_t take() override {
    Region R(*this);
    waitUntil(Count > 0);
    int64_t Item = Buffer[TakePtr];
    TakePtr = (TakePtr + 1) % static_cast<int64_t>(Buffer.size());
    Count -= 1;
    return Item;
  }

  bool putFor(int64_t Item, uint64_t TimeoutNs) override {
    Region R(*this);
    if (!waitUntilFor(Count < static_cast<int64_t>(Buffer.size()),
                      time::toTimeout(TimeoutNs)))
      return false;
    Buffer[PutPtr] = Item;
    PutPtr = (PutPtr + 1) % static_cast<int64_t>(Buffer.size());
    Count += 1;
    return true;
  }

  bool takeFor(int64_t &Out, uint64_t TimeoutNs) override {
    Region R(*this);
    if (!waitUntilFor(Count > 0, time::toTimeout(TimeoutNs)))
      return false;
    Out = Buffer[TakePtr];
    TakePtr = (TakePtr + 1) % static_cast<int64_t>(Buffer.size());
    Count -= 1;
    return true;
  }

  int64_t size() const override { return CountPeek(); }

  ConditionManager *manager() override { return &conditionManager(); }

private:
  int64_t CountPeek() const {
    // Quiescent-only peek for tests; bypasses the ownership check.
    return const_cast<AutoBoundedBuffer *>(this)->synchronized(
        [this] { return Count.get(); });
  }

  Shared<int64_t> Count{*this, "count", 0};
  std::vector<int64_t> Buffer;
  int64_t PutPtr = 0;
  int64_t TakePtr = 0;
};

} // namespace

std::unique_ptr<BoundedBufferIface>
autosynch::makeBoundedBuffer(Mechanism M, int64_t Capacity) {
  AUTOSYNCH_CHECK(Capacity > 0, "bounded buffer requires capacity >= 1");
  if (M == Mechanism::Explicit)
    return std::make_unique<ExplicitBoundedBuffer>(Capacity);
  return std::make_unique<AutoBoundedBuffer>(Capacity, configFor(M));
}
