//===- problems/TokenBucket.cpp - Token-bucket rate limiter ----------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "problems/TokenBucket.h"

#include "core/Monitor.h"
#include "support/Check.h"
#include "sync/Mutex.h"
#include "time/Deadline.h"

#include <algorithm>
#include <chrono>

using namespace autosynch;

namespace {

/// Hand-written explicit-signal implementation. Waiters have
/// heterogeneous thresholds (each demands its own N), so a refill must
/// signalAll — the classic over-signaling the automatic mechanisms avoid
/// with threshold tags.
class ExplicitTokenBucket final : public TokenBucketIface {
public:
  explicit ExplicitTokenBucket(int64_t Capacity)
      : Refilled(Mutex.newCondition()), Capacity(Capacity),
        Tokens(Capacity) {}

  bool acquire(int64_t N, uint64_t TimeoutNs) override {
    AUTOSYNCH_CHECK(N >= 1 && N <= Capacity,
                    "token demand outside [1, capacity]");
    uint64_t Deadline = time::deadlineAfter(time::nowNs(), TimeoutNs);
    Mutex.lock();
    while (Tokens < N) {
      uint64_t Epoch = Refilled->epoch();
      if (Deadline != time::NeverNs && time::nowNs() >= Deadline) {
        ++Timeouts;
        Mutex.unlock();
        return false;
      }
      Refilled->awaitUntil(Deadline, Epoch);
    }
    Tokens -= N;
    ++Grants;
    Mutex.unlock();
    return true;
  }

  void refill(int64_t N) override {
    AUTOSYNCH_CHECK(N >= 0, "negative refill");
    Mutex.lock();
    Tokens = std::min(Capacity, Tokens + N);
    Refilled->signalAll();
    Mutex.unlock();
  }

  int64_t tokens() const override {
    Mutex.lock();
    int64_t T = Tokens;
    Mutex.unlock();
    return T;
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
  std::unique_ptr<sync::Condition> Refilled;
  const int64_t Capacity;
  int64_t Tokens;
  int64_t Grants = 0;
  int64_t Timeouts = 0;
};

/// Automatic-signal implementation: the per-call demand is a *local* in a
/// parsed predicate, so timed waits run the full globalize-once slotted
/// plan path (threshold tags direct the relay; the deadline rides the
/// waiter's own bounded block).
class AutoTokenBucket final : public TokenBucketIface, private Monitor {
public:
  AutoTokenBucket(int64_t Capacity, const MonitorConfig &Cfg)
      : Monitor(Cfg), Capacity(Capacity), NVar(local("n")) {}

  bool acquire(int64_t N, uint64_t TimeoutNs) override {
    AUTOSYNCH_CHECK(N >= 1 && N <= Capacity,
                    "token demand outside [1, capacity]");
    Region R(*this);
    if (!waitUntilFor("tokens >= n", locals().bindInt(NVar, N),
                      time::toTimeout(TimeoutNs))) {
      ++Timeouts;
      return false;
    }
    Tokens -= N;
    ++Grants;
    return true;
  }

  void refill(int64_t N) override {
    AUTOSYNCH_CHECK(N >= 0, "negative refill");
    Region R(*this);
    Tokens = std::min<int64_t>(Capacity, Tokens.get() + N);
  }

  int64_t tokens() const override {
    auto *Self = const_cast<AutoTokenBucket *>(this);
    return Self->synchronized([Self] { return Self->Tokens.get(); });
  }

  int64_t grants() const override {
    auto *Self = const_cast<AutoTokenBucket *>(this);
    return Self->synchronized([Self] { return Self->Grants; });
  }

  int64_t timeouts() const override {
    auto *Self = const_cast<AutoTokenBucket *>(this);
    return Self->synchronized([Self] { return Self->Timeouts; });
  }

private:
  const int64_t Capacity;
  VarId NVar;
  Shared<int64_t> Tokens{*this, "tokens", Capacity};
  int64_t Grants = 0;
  int64_t Timeouts = 0;
};

} // namespace

std::unique_ptr<TokenBucketIface>
autosynch::makeTokenBucket(Mechanism M, int64_t Capacity) {
  AUTOSYNCH_CHECK(Capacity > 0, "token bucket requires capacity >= 1");
  if (M == Mechanism::Explicit)
    return std::make_unique<ExplicitTokenBucket>(Capacity);
  return std::make_unique<AutoTokenBucket>(Capacity, configFor(M));
}
