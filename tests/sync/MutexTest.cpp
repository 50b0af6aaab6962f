//===- tests/sync/MutexTest.cpp - Lock/Condition substrate tests -----------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The futex Mutex/Condition: mutual exclusion under contention, condition
// signal/signalAll semantics, the epoch handshake timed waits rely on, and
// the instrumentation counters.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "sync/Counters.h"
#include "sync/Mutex.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

using namespace autosynch;
using namespace autosynch::sync;

namespace {

constexpr uint64_t NeverNs = ~uint64_t{0};

using testutil::Substrate;

class MutexTest : public ::testing::TestWithParam<Substrate> {};

INSTANTIATE_TEST_SUITE_P(Backends, MutexTest,
                         ::testing::Values(Substrate::Futex),
                         [](const auto &) { return "futex"; });

} // namespace

TEST_P(MutexTest, LockUnlockSingleThread) {
  Mutex M;
  M.lock();
  M.unlock();
  M.lock();
  M.unlock();
}

TEST_P(MutexTest, TryLockReflectsState) {
  Mutex M;
  EXPECT_TRUE(M.tryLock());
  std::thread([&] { EXPECT_FALSE(M.tryLock()); }).join();
  M.unlock();
  EXPECT_TRUE(M.tryLock());
  M.unlock();
}

TEST_P(MutexTest, MutualExclusionUnderContention) {
  Mutex M;
  int64_t Counter = 0;
  constexpr int Threads = 8;
  constexpr int64_t Iters = 20000;

  std::vector<std::thread> Pool;
  for (int T = 0; T != Threads; ++T) {
    Pool.emplace_back([&] {
      for (int64_t I = 0; I != Iters; ++I) {
        M.lock();
        ++Counter; // Data race unless the lock excludes.
        M.unlock();
      }
    });
  }
  for (auto &T : Pool)
    T.join();
  EXPECT_EQ(Counter, Threads * Iters);
}

TEST_P(MutexTest, ConditionSignalWakesOneWaiter) {
  Mutex M;
  auto C = M.newCondition();
  bool Ready = false;

  std::thread Waiter([&] {
    M.lock();
    while (!Ready)
      C->await();
    M.unlock();
  });

  // Let the waiter block, then release it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  M.lock();
  Ready = true;
  C->signal();
  M.unlock();
  Waiter.join();
}

TEST_P(MutexTest, SignalAllWakesEveryWaiter) {
  Mutex M;
  auto C = M.newCondition();
  bool Ready = false;
  int Woken = 0;
  constexpr int Waiters = 6;

  std::vector<std::thread> Pool;
  for (int T = 0; T != Waiters; ++T) {
    Pool.emplace_back([&] {
      M.lock();
      while (!Ready)
        C->await();
      ++Woken;
      M.unlock();
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  M.lock();
  Ready = true;
  C->signalAll();
  M.unlock();
  for (auto &T : Pool)
    T.join();
  EXPECT_EQ(Woken, Waiters);
}

TEST_P(MutexTest, SignalBeforeAnyWaiterIsNotRemembered) {
  // A condition variable is not a semaphore: a signal with no waiter is
  // lost, and the waiter relies on its predicate re-check.
  Mutex M;
  auto C = M.newCondition();
  M.lock();
  C->signal(); // No waiter: must not break anything.
  M.unlock();

  bool Ready = false;
  std::thread Waiter([&] {
    M.lock();
    while (!Ready)
      C->await();
    M.unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  M.lock();
  Ready = true;
  C->signal();
  M.unlock();
  Waiter.join();
}

TEST_P(MutexTest, ProducerConsumerHandoffStress) {
  // Two conditions on one mutex, as the monitors use them.
  Mutex M;
  auto NotEmpty = M.newCondition();
  auto NotFull = M.newCondition();
  int64_t Buffer = 0; // 0 = empty, 1 = full.
  int64_t Produced = 0, Consumed = 0;
  constexpr int64_t Total = 20000;

  std::thread Producer([&] {
    for (int64_t I = 0; I != Total; ++I) {
      M.lock();
      while (Buffer == 1)
        NotFull->await();
      Buffer = 1;
      ++Produced;
      NotEmpty->signal();
      M.unlock();
    }
  });
  std::thread Consumer([&] {
    for (int64_t I = 0; I != Total; ++I) {
      M.lock();
      while (Buffer == 0)
        NotEmpty->await();
      Buffer = 0;
      ++Consumed;
      NotFull->signal();
      M.unlock();
    }
  });
  Producer.join();
  Consumer.join();
  EXPECT_EQ(Produced, Total);
  EXPECT_EQ(Consumed, Total);
  EXPECT_EQ(Buffer, 0);
}

TEST_P(MutexTest, PerConditionCountersTrackCalls) {
  Mutex M;
  auto C = M.newCondition();
  EXPECT_EQ(C->awaitCount(), 0u);
  EXPECT_EQ(C->signalCount(), 0u);
  EXPECT_EQ(C->signalAllCount(), 0u);

  M.lock();
  C->signal();
  C->signal();
  C->signalAll();
  M.unlock();
  EXPECT_EQ(C->signalCount(), 2u);
  EXPECT_EQ(C->signalAllCount(), 1u);
}

TEST_P(MutexTest, GlobalCountersAccumulate) {
  Counters &G = Counters::global();
  CountersSnapshot Before = G.snapshot();

  Mutex M;
  auto C = M.newCondition();
  bool Ready = false;
  std::thread Waiter([&] {
    M.lock();
    while (!Ready)
      C->await();
    M.unlock();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  M.lock();
  Ready = true;
  C->signal();
  M.unlock();
  Waiter.join();

  CountersSnapshot Delta = G.snapshot() - Before;
  EXPECT_GE(Delta.Awaits, 1u);
  EXPECT_GE(Delta.Signals, 1u);
  EXPECT_GE(Delta.Wakeups, 1u);
}

TEST_P(MutexTest, EpochMovedBeforeAwaitUntilReturnsAtOnce) {
  // A signal after the epoch capture is a wake the waiter must not miss:
  // awaitUntil sees the epoch has moved and returns without parking.
  Mutex M;
  auto C = M.newCondition();
  M.lock();
  uint64_t E = C->epoch();
  C->signal();
  EXPECT_NE(C->epoch(), E);
  EXPECT_FALSE(C->awaitUntil(NeverNs, E));
  M.unlock();
}

TEST_P(MutexTest, PastDeadlineReturnsTimedOutWithoutBlocking) {
  Mutex M;
  auto C = M.newCondition();
  M.lock();
  auto T0 = std::chrono::steady_clock::now();
  // 1 ns after the monotonic clock's epoch: long past.
  EXPECT_TRUE(C->awaitUntil(/*DeadlineNs=*/1, C->epoch()));
  EXPECT_LT(std::chrono::steady_clock::now() - T0, std::chrono::seconds(1));
  M.unlock();
}

TEST_P(MutexTest, LockFreeSignalRacingAParkingWaiterIsNeverLost) {
  // Each round the waiter captures the epoch under the lock, checks the
  // round's flag, announces itself and parks; the signaler sets the flag
  // and fires a lock-free signal() the moment it sees the announcement,
  // so the signal lands anywhere in the waiter's unlock / parked-count /
  // kernel-compare window. The waiter loops on the flag the way every
  // monitor does, so spurious returns (a late kernel wake from the
  // previous round) are harmless. A lost wake would leave the waiter
  // parked forever: the watchdog then fails the test and rescues it with
  // repeated signalAll(), or aborts if even that cannot wake it, instead
  // of hanging.
  constexpr int64_t Rounds = 20000;
  Mutex M;
  auto C = M.newCondition();
  std::atomic<int64_t> Armed{-1}, Sent{0}, Done{0};
  std::atomic<bool> Abort{false};

  std::thread Waiter([&] {
    for (int64_t I = 0; I != Rounds && !Abort.load(); ++I) {
      M.lock();
      for (;;) {
        uint64_t E = C->epoch();
        if (Sent.load() > I || Abort.load())
          break;
        Armed.store(I);
        C->awaitUntil(NeverNs, E);
      }
      M.unlock();
      Done.store(I + 1);
    }
  });
  std::thread Signaler([&] {
    for (int64_t I = 0; I != Rounds && !Abort.load(); ++I) {
      while (Armed.load() < I && !Abort.load())
        std::this_thread::yield();
      Sent.store(I + 1);
      C->signal();
    }
  });

  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (Done.load() != Rounds && std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (Done.load() != Rounds) {
    ADD_FAILURE() << "signal lost: the waiter is parked in round "
                  << Done.load() << " whose signal was sent";
    Abort.store(true);
    Signaler.join();
    Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (Done.load() <= Armed.load()) {
      if (std::chrono::steady_clock::now() > Deadline) {
        std::fprintf(stderr, "signalAll cannot wake the parked waiter\n");
        std::abort();
      }
      C->signalAll();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Waiter.join();
    return;
  }
  Waiter.join();
  Signaler.join();
}
