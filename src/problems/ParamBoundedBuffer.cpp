//===- problems/ParamBoundedBuffer.cpp - Parameterized buffer --------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "problems/ParamBoundedBuffer.h"

#include "core/Monitor.h"
#include "support/Check.h"
#include "sync/Mutex.h"

using namespace autosynch;

namespace {

/// The paper's Fig. 1 explicit-signal Java class, in C++. Waiters need
/// different item counts, so the signaler cannot know whom to wake:
/// signalAll on both conditions is forced (§3).
class ExplicitParamBoundedBuffer final : public ParamBoundedBufferIface {
public:
  explicit ExplicitParamBoundedBuffer(int64_t Capacity)
      : InsufficientSpace(Mutex.newCondition()),
        InsufficientItems(Mutex.newCondition()), Capacity(Capacity) {}

  void put(int64_t NumItems) override {
    Mutex.lock();
    while (Count + NumItems > Capacity)
      InsufficientSpace->await();
    Count += NumItems;
    InsufficientItems->signalAll();
    Mutex.unlock();
  }

  void take(int64_t NumItems) override {
    Mutex.lock();
    while (Count < NumItems)
      InsufficientItems->await();
    Count -= NumItems;
    InsufficientSpace->signalAll();
    Mutex.unlock();
  }

  int64_t size() const override {
    Mutex.lock();
    int64_t S = Count;
    Mutex.unlock();
    return S;
  }

private:
  mutable sync::Mutex Mutex;
  std::unique_ptr<sync::Condition> InsufficientSpace;
  std::unique_ptr<sync::Condition> InsufficientItems;
  const int64_t Capacity;
  int64_t Count = 0;
};

/// The paper's Fig. 1 automatic-signal class. Each call bakes its batch
/// size into the predicate (the EDSL analogue of globalization), producing
/// per-threshold predicates the tag heaps discriminate between.
class AutoParamBoundedBuffer final : public ParamBoundedBufferIface,
                                     private Monitor {
public:
  AutoParamBoundedBuffer(int64_t Capacity, const MonitorConfig &Cfg)
      : Monitor(Cfg), Capacity(Capacity) {}

  void put(int64_t NumItems) override {
    Region R(*this);
    waitUntil(Count + NumItems <= Capacity);
    Count += NumItems;
  }

  void take(int64_t NumItems) override {
    Region R(*this);
    waitUntil(Count >= NumItems);
    Count -= NumItems;
  }

  int64_t size() const override {
    return const_cast<AutoParamBoundedBuffer *>(this)->synchronized(
        [this] { return Count.get(); });
  }

private:
  Shared<int64_t> Count{*this, "count", 0};
  const int64_t Capacity;
};

} // namespace

std::unique_ptr<ParamBoundedBufferIface>
autosynch::makeParamBoundedBuffer(Mechanism M, int64_t Capacity) {
  AUTOSYNCH_CHECK(Capacity > 0,
                  "parameterized bounded buffer requires capacity >= 1");
  if (M == Mechanism::Explicit)
    return std::make_unique<ExplicitParamBoundedBuffer>(Capacity);
  return std::make_unique<AutoParamBoundedBuffer>(Capacity, configFor(M));
}
