//===- problems/Mechanism.h - The four signaling mechanisms ----*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four signaling mechanisms compared throughout the paper's
/// evaluation (§6.2). Every synchronization problem in this directory has
/// one implementation per applicable mechanism, created through a factory
/// taking a Mechanism value.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_PROBLEMS_MECHANISM_H
#define AUTOSYNCH_PROBLEMS_MECHANISM_H

#include "core/MonitorConfig.h"

namespace autosynch {

/// Which signaling mechanism implements a problem (paper §6.2).
enum class Mechanism : uint8_t {
  Explicit,   ///< Hand-written Lock/Condition code with explicit signals.
  Baseline,   ///< Automatic; one condition variable + signalAll.
  AutoSynchT, ///< AutoSynch without predicate tagging (linear relay scan).
  AutoSynch   ///< Full AutoSynch (relay invariance + predicate tagging).
};

/// Returns "explicit", "baseline", "AutoSynch-T", or "AutoSynch".
const char *mechanismName(Mechanism M);

/// Whether \p M uses the automatic-signal Monitor (everything but
/// Explicit).
inline bool isAutomatic(Mechanism M) { return M != Mechanism::Explicit; }

/// Monitor configuration matching \p M. Fatal error for Explicit (it has
/// no automatic monitor).
MonitorConfig configFor(Mechanism M);

} // namespace autosynch

#endif // AUTOSYNCH_PROBLEMS_MECHANISM_H
