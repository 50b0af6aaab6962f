//===- bench_support/BenchOptions.cpp - Bench configuration ----------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "bench_support/BenchOptions.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace autosynch::bench;

BenchOptions BenchOptions::fromEnv() {
  BenchOptions Opts;

  if (const char *Threads = std::getenv("AUTOSYNCH_BENCH_THREADS")) {
    std::vector<int> Counts;
    std::string S(Threads);
    size_t Pos = 0;
    while (Pos < S.size()) {
      size_t Comma = S.find(',', Pos);
      if (Comma == std::string::npos)
        Comma = S.size();
      int V = std::atoi(S.substr(Pos, Comma - Pos).c_str());
      if (V > 0)
        Counts.push_back(V);
      Pos = Comma + 1;
    }
    if (!Counts.empty())
      Opts.ThreadCounts = std::move(Counts);
  }

  if (const char *Reps = std::getenv("AUTOSYNCH_BENCH_REPS"))
    Opts.Reps = std::max(1, std::atoi(Reps));

  if (const char *Scale = std::getenv("AUTOSYNCH_BENCH_SCALE")) {
    double V = std::atof(Scale);
    if (V > 0)
      Opts.OpsScale = V;
  }

  return Opts;
}

int64_t BenchOptions::scaled(int64_t BaseOps) const {
  int64_t V = static_cast<int64_t>(static_cast<double>(BaseOps) * OpsScale);
  return std::max<int64_t>(1, V);
}

void autosynch::bench::banner(const char *Experiment, const char *Description,
                              const BenchOptions &Opts) {
  std::printf("# %s\n# %s\n# reps=%d scale=%.2f (override with "
              "AUTOSYNCH_BENCH_THREADS / _REPS / _SCALE)\n",
              Experiment, Description, Opts.Reps, Opts.OpsScale);
}
