//===- core/MonitorConfig.h - Monitor policy configuration -----*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration of the automatic-signal monitor. One Monitor
/// implementation instantiates all three automatic mechanisms the paper
/// evaluates (§6.2) by switching the signal policy:
///
///  * Tagged     — "AutoSynch": relay signaling directed by predicate tags.
///  * LinearScan — "AutoSynch-T": relay signaling, tags disabled; the relay
///                 scan evaluates active predicates one by one.
///  * Broadcast  — "Baseline": one condition variable, signalAll on every
///                 exit and before a waiter's first block; each woken
///                 thread re-checks its own registered predicate.
///
/// The explicit-signal mechanism has no automatic monitor; its problem
/// implementations are hand-written in src/problems/ like the paper's Java.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_CORE_MONITORCONFIG_H
#define AUTOSYNCH_CORE_MONITORCONFIG_H

#include "dnf/Dnf.h"

#include <cstddef>

namespace autosynch {

/// How the condition manager signals waiting threads.
enum class SignalPolicy : uint8_t {
  Tagged,     ///< Full AutoSynch (relay invariance + predicate tagging).
  LinearScan, ///< AutoSynch-T (relay invariance, exhaustive scan).
  Broadcast   ///< Baseline (single condition variable + signalAll).
};

/// Returns "tagged", "linear-scan", or "broadcast".
const char *signalPolicyName(SignalPolicy P);

struct MonitorConfig {
  SignalPolicy Policy = SignalPolicy::Tagged;

  /// Registered predicates with no waiters are parked in an inactive cache
  /// for reuse (§5.2) instead of being destroyed; the oldest entries are
  /// evicted beyond this limit.
  size_t InactiveCacheLimit = 64;

  /// DNF conversion caps.
  DnfLimits Limits;
};

} // namespace autosynch

#endif // AUTOSYNCH_CORE_MONITORCONFIG_H
