//===- problems/SleepingBarber.cpp - Sleeping barber ------------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Protocol (monitor state): Waiting counts customers in waiting chairs;
// Offers counts barber offers not yet taken. The barber publishes one offer
// and waits until a customer takes it; a waiting customer takes an offer,
// frees a chair, and has the haircut. A customer finding all chairs taken
// leaves immediately.
//
//===----------------------------------------------------------------------===//

#include "problems/SleepingBarber.h"

#include "core/Monitor.h"
#include "support/Check.h"
#include "sync/Mutex.h"

using namespace autosynch;

namespace {

class ExplicitSleepingBarber final : public SleepingBarberIface {
public:
  explicit ExplicitSleepingBarber(int64_t Chairs)
      : CustomerAvailable(Mutex.newCondition()),
        OfferAvailable(Mutex.newCondition()),
        OfferTaken(Mutex.newCondition()), Chairs(Chairs) {}

  bool getHaircut() override {
    Mutex.lock();
    if (Waiting == Chairs) {
      Mutex.unlock();
      return false; // No free chair: the customer leaves.
    }
    ++Waiting;
    CustomerAvailable->signal(); // Wake the barber if he is asleep.
    while (Offers == 0)
      OfferAvailable->await();
    --Offers;
    --Waiting;
    ++Haircuts;
    OfferTaken->signal();
    Mutex.unlock();
    return true;
  }

  void cutHair() override {
    Mutex.lock();
    while (Waiting == 0)
      CustomerAvailable->await(); // The barber sleeps.
    ++Offers;
    OfferAvailable->signal();
    while (Offers != 0)
      OfferTaken->await();
    Mutex.unlock();
  }

  int64_t haircuts() const override {
    Mutex.lock();
    int64_t H = Haircuts;
    Mutex.unlock();
    return H;
  }

private:
  mutable sync::Mutex Mutex;
  std::unique_ptr<sync::Condition> CustomerAvailable;
  std::unique_ptr<sync::Condition> OfferAvailable;
  std::unique_ptr<sync::Condition> OfferTaken;
  const int64_t Chairs;
  int64_t Waiting = 0;
  int64_t Offers = 0;
  int64_t Haircuts = 0;
};

class AutoSleepingBarber final : public SleepingBarberIface,
                                 private Monitor {
public:
  AutoSleepingBarber(int64_t Chairs, const MonitorConfig &Cfg)
      : Monitor(Cfg), Chairs(Chairs) {}

  bool getHaircut() override {
    Region R(*this);
    if (Waiting.get() == Chairs)
      return false; // No free chair: the customer leaves.
    Waiting += 1;
    waitUntil(Offers > 0);
    Offers -= 1;
    Waiting -= 1;
    Done += 1;
    return true;
  }

  void cutHair() override {
    Region R(*this);
    waitUntil(Waiting > 0); // The barber sleeps until a customer arrives.
    Offers += 1;
    waitUntil(Offers == 0); // Until some customer takes the offer.
  }

  int64_t haircuts() const override {
    return const_cast<AutoSleepingBarber *>(this)->synchronized(
        [this] { return Done.get(); });
  }

private:
  Shared<int64_t> Waiting{*this, "waiting", 0};
  Shared<int64_t> Offers{*this, "offers", 0};
  Shared<int64_t> Done{*this, "done", 0};
  const int64_t Chairs;
};

} // namespace

std::unique_ptr<SleepingBarberIface>
autosynch::makeSleepingBarber(Mechanism M, int64_t Chairs) {
  AUTOSYNCH_CHECK(Chairs > 0, "sleeping barber requires >= 1 chair");
  if (M == Mechanism::Explicit)
    return std::make_unique<ExplicitSleepingBarber>(Chairs);
  return std::make_unique<AutoSleepingBarber>(Chairs, configFor(M));
}
