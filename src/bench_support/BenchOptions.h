//===- bench_support/BenchOptions.h - Bench configuration ------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Environment-configurable benchmark parameters. The paper sweeps 2..256
/// threads with 25 repetitions on a 64-hardware-thread machine; the default
/// here is a faster sweep suitable for CI, extensible via:
///
///   AUTOSYNCH_BENCH_THREADS  comma list, e.g. "2,4,8,16,32,64,128,256"
///   AUTOSYNCH_BENCH_REPS     repetitions per cell (default 3)
///   AUTOSYNCH_BENCH_SCALE    multiplier on per-cell operation counts
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_BENCH_SUPPORT_BENCHOPTIONS_H
#define AUTOSYNCH_BENCH_SUPPORT_BENCHOPTIONS_H

#include <cstdint>
#include <vector>

namespace autosynch::bench {

struct BenchOptions {
  /// Thread counts on the sweep's x-axis.
  std::vector<int> ThreadCounts = {2, 4, 8, 16, 32, 64};

  /// Repetitions per cell; best and worst are dropped when >= 3 (paper
  /// §6.1).
  int Reps = 3;

  /// Scales every per-cell operation budget.
  double OpsScale = 1.0;

  /// Reads the environment overrides.
  static BenchOptions fromEnv();

  /// Applies OpsScale to a base operation count (min 1).
  int64_t scaled(int64_t BaseOps) const;
};

/// Prints the standard bench banner: \p Experiment, \p Description, and
/// the repetitions and scale in force.
void banner(const char *Experiment, const char *Description,
            const BenchOptions &Opts);

} // namespace autosynch::bench

#endif // AUTOSYNCH_BENCH_SUPPORT_BENCHOPTIONS_H
