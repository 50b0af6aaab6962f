//===- problems/SantaClaus.cpp - The Santa Claus problem --------------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Protocol (pass counters, like H2O): arrivals increment a waiting count;
// Santa waits for a full group, converts the group's waiting count into
// passes, and each blocked arrival leaves by consuming one pass. Reindeer
// priority lives in santa()'s group choice, not in the predicates.
//
//===----------------------------------------------------------------------===//

#include "problems/SantaClaus.h"

#include "core/Monitor.h"
#include "support/Check.h"
#include "sync/Mutex.h"

using namespace autosynch;

namespace {

class ExplicitSantaClaus final : public SantaClausIface {
public:
  ExplicitSantaClaus(int64_t ReindeerTeam, int64_t ElfGroup)
      : GroupReady(Mutex.newCondition()),
        RPassAvailable(Mutex.newCondition()),
        EPassAvailable(Mutex.newCondition()), ReindeerTeam(ReindeerTeam),
        ElfGroup(ElfGroup) {}

  void reindeer() override {
    Mutex.lock();
    ++RWaiting;
    if (RWaiting >= ReindeerTeam)
      GroupReady->signal();
    while (RPasses == 0)
      RPassAvailable->await();
    --RPasses;
    Mutex.unlock();
  }

  void elf() override {
    Mutex.lock();
    ++EWaiting;
    if (EWaiting >= ElfGroup)
      GroupReady->signal();
    while (EPasses == 0)
      EPassAvailable->await();
    --EPasses;
    Mutex.unlock();
  }

  SantaService santa() override {
    Mutex.lock();
    while (RWaiting < ReindeerTeam && EWaiting < ElfGroup)
      GroupReady->await();
    SantaService Served;
    if (RWaiting >= ReindeerTeam) { // Reindeer priority.
      RWaiting -= ReindeerTeam;
      RPasses += ReindeerTeam;
      ++Deliveries;
      for (int64_t I = 0; I != ReindeerTeam; ++I)
        RPassAvailable->signal();
      Served = SantaService::Toys;
    } else {
      EWaiting -= ElfGroup;
      EPasses += ElfGroup;
      ++Consultations;
      for (int64_t I = 0; I != ElfGroup; ++I)
        EPassAvailable->signal();
      Served = SantaService::Consult;
    }
    Mutex.unlock();
    return Served;
  }

  int64_t deliveries() const override {
    Mutex.lock();
    int64_t N = Deliveries;
    Mutex.unlock();
    return N;
  }

  int64_t consultations() const override {
    Mutex.lock();
    int64_t N = Consultations;
    Mutex.unlock();
    return N;
  }

  int64_t reindeerWaiting() const override {
    Mutex.lock();
    int64_t N = RWaiting;
    Mutex.unlock();
    return N;
  }

  int64_t elvesWaiting() const override {
    Mutex.lock();
    int64_t N = EWaiting;
    Mutex.unlock();
    return N;
  }

  int64_t reindeerTeam() const override { return ReindeerTeam; }
  int64_t elfGroup() const override { return ElfGroup; }

private:
  mutable sync::Mutex Mutex;
  std::unique_ptr<sync::Condition> GroupReady;
  std::unique_ptr<sync::Condition> RPassAvailable;
  std::unique_ptr<sync::Condition> EPassAvailable;
  const int64_t ReindeerTeam;
  const int64_t ElfGroup;
  int64_t RWaiting = 0;
  int64_t EWaiting = 0;
  int64_t RPasses = 0;
  int64_t EPasses = 0;
  int64_t Deliveries = 0;
  int64_t Consultations = 0;
};

class AutoSantaClaus final : public SantaClausIface, private Monitor {
public:
  AutoSantaClaus(int64_t ReindeerTeam, int64_t ElfGroup,
                 const MonitorConfig &Cfg)
      : Monitor(Cfg), ReindeerTeam(ReindeerTeam), ElfGroup(ElfGroup) {}

  void reindeer() override {
    Region R(*this);
    RWaiting += 1;
    waitUntil(RPasses > 0);
    RPasses -= 1;
  }

  void elf() override {
    Region R(*this);
    EWaiting += 1;
    waitUntil(EPasses > 0);
    EPasses -= 1;
  }

  SantaService santa() override {
    Region R(*this);
    waitUntil(RWaiting >= ReindeerTeam || EWaiting >= ElfGroup);
    if (RWaiting.get() >= ReindeerTeam) { // Reindeer priority.
      RWaiting -= ReindeerTeam;
      RPasses += ReindeerTeam;
      Deliveries += 1;
      return SantaService::Toys;
    }
    EWaiting -= ElfGroup;
    EPasses += ElfGroup;
    Consultations += 1;
    return SantaService::Consult;
  }

  int64_t deliveries() const override {
    return const_cast<AutoSantaClaus *>(this)->synchronized(
        [this] { return Deliveries.get(); });
  }

  int64_t consultations() const override {
    return const_cast<AutoSantaClaus *>(this)->synchronized(
        [this] { return Consultations.get(); });
  }

  int64_t reindeerWaiting() const override {
    return const_cast<AutoSantaClaus *>(this)->synchronized(
        [this] { return RWaiting.get(); });
  }

  int64_t elvesWaiting() const override {
    return const_cast<AutoSantaClaus *>(this)->synchronized(
        [this] { return EWaiting.get(); });
  }

  int64_t reindeerTeam() const override { return ReindeerTeam; }
  int64_t elfGroup() const override { return ElfGroup; }

private:
  Shared<int64_t> RWaiting{*this, "rWaiting", 0};
  Shared<int64_t> EWaiting{*this, "eWaiting", 0};
  Shared<int64_t> RPasses{*this, "rPasses", 0};
  Shared<int64_t> EPasses{*this, "ePasses", 0};
  Shared<int64_t> Deliveries{*this, "deliveries", 0};
  Shared<int64_t> Consultations{*this, "consultations", 0};
  const int64_t ReindeerTeam;
  const int64_t ElfGroup;
};

} // namespace

std::unique_ptr<SantaClausIface>
autosynch::makeSantaClaus(Mechanism M, int64_t ReindeerTeam,
                          int64_t ElfGroup) {
  AUTOSYNCH_CHECK(ReindeerTeam > 0 && ElfGroup > 0,
                  "santa claus requires positive group sizes");
  if (M == Mechanism::Explicit)
    return std::make_unique<ExplicitSantaClaus>(ReindeerTeam, ElfGroup);
  return std::make_unique<AutoSantaClaus>(ReindeerTeam, ElfGroup,
                                          configFor(M));
}
