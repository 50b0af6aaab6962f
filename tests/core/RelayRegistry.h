//===- tests/core/RelayRegistry.h - Dirty-set relay fixture -----*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The registry-style monitor the dirty-set relay tests in
/// RelayFilterTest.cpp are built on. The zero-evaluation assertions there
/// depend on exactly which shared variables each operation writes and
/// each waiter reads.
///
///   waiters       read set
///   waitLevel(n)  {level}   (parsed front end, local threshold)
///   waitGate()    {gate}    (EDSL front end)
///
///   operations    write set
///   peek()        {}        read-only exit: must dirty-skip the relay
///   bump()        {stamp}   no waiter reads it: must be filtered
///   setLevel(v)   {level} when v changes it, {} when idempotent
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_TESTS_CORE_RELAYREGISTRY_H
#define AUTOSYNCH_TESTS_CORE_RELAYREGISTRY_H

#include "core/Monitor.h"

namespace autosynch::testutil {

class RelayRegistry : public Monitor {
public:
  explicit RelayRegistry(MonitorConfig Cfg) : Monitor(Cfg), N(local("n")) {}

  /// Parks until `level >= Threshold` (parsed predicate, one record per
  /// distinct threshold).
  void waitLevel(int64_t Threshold) {
    Region R(*this);
    waitUntil("level >= n", locals().bindInt(N, Threshold));
  }

  /// Parks until `gate == 1` (EDSL predicate, one shared record).
  void waitGate() {
    Region R(*this);
    waitUntil(Gate == lit(1));
  }

  /// Read-only region: writes nothing.
  int64_t peek() {
    Region R(*this);
    return Level.get();
  }

  /// Writes a counter no waiter reads.
  void bump() {
    Region R(*this);
    Stamp += 1;
  }

  void setLevel(int64_t L) {
    Region R(*this);
    Level = L;
  }

  void setGate(int64_t G) {
    Region R(*this);
    Gate = G;
  }

  void setLevelAndGate(int64_t L, int64_t G) {
    Region R(*this);
    Level = L;
    Gate = G;
  }

  /// Parked-waiter count, read under the monitor lock (the probe
  /// testutil::awaitWaiters expects).
  int waiters() {
    Region R(*this);
    return conditionManager().numWaiters();
  }

  /// The condition manager's counts, read under the monitor lock. The
  /// region's own exit relay comes after the read.
  ManagerStats stats() {
    Region R(*this);
    return conditionManager().stats();
  }

  using Monitor::conditionManager;

private:
  Shared<int64_t> Level{*this, "level", 0};
  Shared<int64_t> Gate{*this, "gate", 0};
  Shared<int64_t> Stamp{*this, "stamp", 0};
  VarId N;
};

} // namespace autosynch::testutil

#endif // AUTOSYNCH_TESTS_CORE_RELAYREGISTRY_H
