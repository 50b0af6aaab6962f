//===- problems/Mechanism.cpp - The four signaling mechanisms --------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "problems/Mechanism.h"

#include "support/Check.h"

using namespace autosynch;

const char *autosynch::mechanismName(Mechanism M) {
  switch (M) {
  case Mechanism::Explicit:
    return "explicit";
  case Mechanism::Baseline:
    return "baseline";
  case Mechanism::AutoSynchT:
    return "AutoSynch-T";
  case Mechanism::AutoSynch:
    return "AutoSynch";
  }
  AUTOSYNCH_UNREACHABLE("invalid Mechanism");
}

MonitorConfig autosynch::configFor(Mechanism M) {
  MonitorConfig Cfg;
  switch (M) {
  case Mechanism::Baseline:
    Cfg.Policy = SignalPolicy::Broadcast;
    return Cfg;
  case Mechanism::AutoSynchT:
    Cfg.Policy = SignalPolicy::LinearScan;
    return Cfg;
  case Mechanism::AutoSynch:
    Cfg.Policy = SignalPolicy::Tagged;
    return Cfg;
  case Mechanism::Explicit:
    break;
  }
  AUTOSYNCH_UNREACHABLE("explicit mechanism has no automatic monitor");
}
