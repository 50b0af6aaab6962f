//===- bench_support/Claims.h - The paper's claims as checks ---*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's qualitative claims, checked on the counts of a figure
/// sweep. The check is a pure function of the cells, so it can be tested
/// on synthetic cells without running a thread.
///
/// A claim is *gated* when it holds by construction on any host: the relay
/// policies never broadcast, the baseline never directs a signal, the tag
/// index checks O(1) predicates per signal where the linear scan checks
/// O(N), and on round robin the baseline's signalAll wakes waiters whose
/// turn has not come where AutoSynch wakes only the next one. Comparisons whose outcome depends on the host's scheduling (sync
/// events, blocks, inactive-cache registrations) are only *reported*; see
/// the README's "Benchmarks" section for the runs behind that split.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_BENCH_SUPPORT_CLAIMS_H
#define AUTOSYNCH_BENCH_SUPPORT_CLAIMS_H

#include <map>
#include <string>
#include <vector>

namespace autosynch::bench {

/// One threads x column cell of a figure sweep.
struct Cell {
  std::string Figure; ///< Figure key, e.g. "fig11".
  std::string Column; ///< Mechanism name, or an ablation's variant.
  int Threads = 0;    ///< The sweep's x value.
  double Seconds = 0; ///< Drop-best-and-worst mean over the repetitions.
  /// Per-run counts, averaged over the repetitions: the sync layer's
  /// "awaits", "wakeups", "signals", "signal_alls", the OS's "os_ctx", and
  /// the figure's own series (e.g. "checks_per_signal").
  std::map<std::string, double> Counts;
};

/// The outcome of one claim over every cell it applies to.
struct ClaimResult {
  std::string Id;     ///< Stable name, e.g. "relay-no-signalall".
  std::string Source; ///< The paper figure or section it comes from.
  std::string Text;   ///< The claim in words.
  bool Gated = false; ///< A violation fails the figure driver.
  int Cells = 0;      ///< Cells the claim applied to.
  int Violations = 0; ///< Cells where it did not hold.
  std::string FirstViolation; ///< "fig11 AutoSynch N=16: ..." or empty.

  bool held() const { return Violations == 0; }
};

/// Checks every claim against \p Cells. A claim that applies to no cell
/// (its figure was not run, or no thread count reached its range) is left
/// out of the result.
std::vector<ClaimResult> checkClaims(const std::vector<Cell> &Cells);

} // namespace autosynch::bench

#endif // AUTOSYNCH_BENCH_SUPPORT_CLAIMS_H
