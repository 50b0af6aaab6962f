//===- problems/ReadersWriters.cpp - Ticketed readers/writers ---------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Ticket protocol: every arrival takes NextTicket++. Admission is strictly
// in ticket order: a reader may start when Serving reaches its ticket and
// no writer is active; a writer additionally needs the readers drained.
// Advancing Serving on admission lets consecutive readers overlap while a
// waiting writer blocks later arrivals — the classic fair RW.
//
//===----------------------------------------------------------------------===//

#include "problems/ReadersWriters.h"

#include "core/Monitor.h"
#include "support/Check.h"
#include "sync/Mutex.h"

#include <deque>

using namespace autosynch;

namespace {

/// Explicit signaling in Buhr & Harji's style: each waiting thread parks on
/// its own condition variable in an arrival-order queue; whoever changes
/// the admission state signals exactly the queue head when it can run. This
/// is the explicit mechanism's strength — it always knows whom to wake.
class ExplicitReadersWriters final : public ReadersWritersIface {
public:
  void startRead() override {
    Mutex.lock();
    if (!Queue.empty() || ActiveWriters != 0) {
      Waiter W{Mutex.newCondition(), /*IsWriter=*/false, /*Admitted=*/false};
      Queue.push_back(&W);
      while (!W.Admitted)
        W.Cond->await();
    } else {
      ++ActiveReaders;
    }
    ++Reads;
    Mutex.unlock();
  }

  void endRead() override {
    Mutex.lock();
    --ActiveReaders;
    admitFromQueue();
    Mutex.unlock();
  }

  void startWrite() override {
    Mutex.lock();
    if (!Queue.empty() || ActiveWriters != 0 || ActiveReaders != 0) {
      Waiter W{Mutex.newCondition(), /*IsWriter=*/true, /*Admitted=*/false};
      Queue.push_back(&W);
      while (!W.Admitted)
        W.Cond->await();
    } else {
      ++ActiveWriters;
    }
    ++Writes;
    Mutex.unlock();
  }

  void endWrite() override {
    Mutex.lock();
    --ActiveWriters;
    admitFromQueue();
    Mutex.unlock();
  }

  int64_t reads() const override {
    Mutex.lock();
    int64_t N = Reads;
    Mutex.unlock();
    return N;
  }
  int64_t writes() const override {
    Mutex.lock();
    int64_t N = Writes;
    Mutex.unlock();
    return N;
  }

private:
  struct Waiter {
    std::unique_ptr<sync::Condition> Cond;
    bool IsWriter;
    bool Admitted;
  };

  /// Admits the queue head if it can run now; after admitting a reader,
  /// keeps admitting consecutive readers (they overlap).
  void admitFromQueue() {
    while (!Queue.empty()) {
      Waiter *W = Queue.front();
      if (W->IsWriter) {
        if (ActiveReaders != 0 || ActiveWriters != 0)
          return;
        Queue.pop_front();
        ++ActiveWriters;
        W->Admitted = true;
        W->Cond->signal();
        return; // A writer is exclusive; stop admitting.
      }
      if (ActiveWriters != 0)
        return;
      Queue.pop_front();
      ++ActiveReaders;
      W->Admitted = true;
      W->Cond->signal();
      // Continue: the next queued reader may overlap.
    }
  }

  mutable sync::Mutex Mutex;
  std::deque<Waiter *> Queue;
  int64_t ActiveReaders = 0;
  int64_t ActiveWriters = 0;
  int64_t Reads = 0;
  int64_t Writes = 0;
};

/// Automatic-signal ticketed implementation (§6.3.2). After globalization
/// every waiter has an equivalence predicate on `serving` — the tag hash
/// finds the next thread to admit in O(1).
class AutoReadersWriters final : public ReadersWritersIface,
                                 private Monitor {
public:
  explicit AutoReadersWriters(const MonitorConfig &Cfg) : Monitor(Cfg) {}

  void startRead() override {
    Region R(*this);
    int64_t MyTicket = NextTicket.get();
    NextTicket += 1;
    waitUntil(Serving == MyTicket && ActiveWriters == 0);
    Serving += 1; // Admitted; the next ticket holder may be examined.
    ActiveReaders += 1;
    Reads += 1;
  }

  void endRead() override {
    Region R(*this);
    ActiveReaders -= 1;
  }

  void startWrite() override {
    Region R(*this);
    int64_t MyTicket = NextTicket.get();
    NextTicket += 1;
    waitUntil(Serving == MyTicket && ActiveWriters == 0 &&
              ActiveReaders == 0);
    Serving += 1;
    ActiveWriters += 1;
    Writes += 1;
  }

  void endWrite() override {
    Region R(*this);
    ActiveWriters -= 1;
  }

  int64_t reads() const override {
    return const_cast<AutoReadersWriters *>(this)->synchronized(
        [this] { return Reads.get(); });
  }
  int64_t writes() const override {
    return const_cast<AutoReadersWriters *>(this)->synchronized(
        [this] { return Writes.get(); });
  }

  ConditionManager *manager() override { return &conditionManager(); }

private:
  Shared<int64_t> NextTicket{*this, "nextTicket", 0};
  Shared<int64_t> Serving{*this, "serving", 0};
  Shared<int64_t> ActiveReaders{*this, "activeReaders", 0};
  Shared<int64_t> ActiveWriters{*this, "activeWriters", 0};
  Shared<int64_t> Reads{*this, "reads", 0};
  Shared<int64_t> Writes{*this, "writes", 0};
};

} // namespace

std::unique_ptr<ReadersWritersIface>
autosynch::makeReadersWriters(Mechanism M) {
  if (M == Mechanism::Explicit)
    return std::make_unique<ExplicitReadersWriters>();
  return std::make_unique<AutoReadersWriters>(configFor(M));
}
