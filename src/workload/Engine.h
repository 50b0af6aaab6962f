//===- workload/Engine.h - Scenario execution engine -----------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a scenario graph: instantiates one monitor per stage (bounded
/// buffers as inter-stage channels, RW/barrier/round-robin monitors as
/// stage work) under a chosen Mechanism, drives it with seeded closed- or
/// open-loop sources, and reports per-stage throughput and latency
/// histograms plus end-to-end sojourn times.
///
/// This is the first layer that exercises many automatic-signal monitors
/// concurrently in one process: a P-stage scenario at W workers runs
/// 2P monitors (channel + work) under P*W + sources threads.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_WORKLOAD_ENGINE_H
#define AUTOSYNCH_WORKLOAD_ENGINE_H

#include "core/ConditionManager.h"
#include "plan/PlanCache.h"
#include "problems/Mechanism.h"
#include "support/Stats.h"
#include "sync/Counters.h"
#include "workload/Scenario.h"

#include <cstdint>
#include <ostream>

namespace autosynch::workload {

class JsonWriter;

/// One scenario execution's knobs.
struct RunConfig {
  Mechanism Mech = Mechanism::AutoSynch;

  /// Tokens each source emits.
  int64_t TokensPerSource = 10000;

  /// Base seed for the sources' arrival processes and the RW read/write
  /// choice. The same seed reproduces the same op sequence per stage.
  uint64_t Seed = 1;

  /// Overrides every source's arrival process when set (the workbench's
  /// --arrival/--rate knobs).
  bool OverrideArrival = false;
  Arrival Process = Arrival::Closed;
  double RatePerSec = 0.0;

  /// Per-operation deadline on every channel put/take (0 = untimed, the
  /// classic engine). A timed-out op is *retried* until it lands — token
  /// conservation and the per-stage quotas stay exact — with each expiry
  /// counted per stage, so the sweep exposes how often backpressure
  /// exceeds the bound without ever dropping work.
  uint64_t OpTimeoutNs = 0;
};

/// Per-stage results.
struct StageReport {
  std::string Name;
  StageKind Kind = StageKind::Queue;
  int Workers = 0;
  int64_t Tokens = 0;       ///< Tokens processed (sources: emitted).
  double SpanSeconds = 0.0; ///< First arrival to last completion.
  double Throughput = 0.0;  ///< Tokens / SpanSeconds.
  /// ReadersWriters stages: the seed-determined op split (0 elsewhere).
  int64_t Reads = 0;
  int64_t Writes = 0;
  /// Channel-op expiries charged to this stage under RunConfig::
  /// OpTimeoutNs: timed-out takes from its input channel plus timed-out
  /// puts *into* it (the producer was blocked by this stage's
  /// backpressure). 0 in untimed runs.
  int64_t OpTimeouts = 0;
  /// Stage sojourn per token: enqueue on the input channel to forward.
  /// Empty for sources.
  LatencyHistogram Latency;
  /// The condition-manager stats of the stage's monitors (input channel
  /// and work monitor) summed; all zero for sources and Explicit.
  ManagerStats Monitor;
};

/// Whole-scenario results.
struct ScenarioReport {
  std::string Scenario;
  Mechanism Mech = Mechanism::AutoSynch;
  int64_t TotalTokens = 0;
  int TotalThreads = 0;
  double WallSeconds = 0.0;
  double Throughput = 0.0; ///< Sink completions / wall seconds.
  /// Source emission to sink completion, across all sinks.
  LatencyHistogram EndToEnd;
  /// Sync-layer event deltas over the run (process-wide).
  sync::CountersSnapshot Sync;
  /// Wait-plan cache deltas over the run (process-wide): how the
  /// monitors' blocking waits were served (plan bind hits vs. cold
  /// binds vs. keyless registrations).
  PlanCountersSnapshot Plan;
  /// The stages' Monitor blocks summed: every relay, skip, filtered
  /// index entry and timed wait of the run's monitors.
  ManagerStats Monitor;
  /// The per-op deadline in force (RunConfig::OpTimeoutNs) and the total
  /// op expiries across stages.
  uint64_t OpTimeoutNs = 0;
  int64_t OpTimeouts = 0;
  std::vector<StageReport> Stages;
};

/// Runs \p Spec (which must validate()) under \p Cfg and blocks until every
/// token has drained. Fatal error on an invalid spec.
ScenarioReport runScenario(const ScenarioSpec &Spec, const RunConfig &Cfg);

/// Renders \p R as one JSON object through \p J (the element schema of
/// BENCH_workload.json's "runs" array; see README). \p J must be
/// positioned where a value may start (array element or after a key).
void writeReportJson(const ScenarioReport &R, JsonWriter &J);

/// Convenience: renders \p R as a standalone JSON document on \p OS.
void writeReportJson(const ScenarioReport &R, std::ostream &OS);

} // namespace autosynch::workload

#endif // AUTOSYNCH_WORKLOAD_ENGINE_H
