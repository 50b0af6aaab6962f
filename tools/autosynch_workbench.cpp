//===- tools/autosynch_workbench.cpp - Multi-monitor workload CLI -----------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Drives the workload engine's scenario graphs over a sweep of thread
// counts and signaling mechanisms, printing a per-cell summary table and
// writing the full results as machine-readable JSON (BENCH_workload.json
// by default; schema documented in the README).
//
//   autosynch-workbench --scenario=pipeline --threads=8 --tokens=20000
//   autosynch-workbench --list
//
// Thread counts default to the AUTOSYNCH_BENCH_THREADS sweep (see
// bench_support/BenchOptions); every flag has a sane default so the bare
// invocation produces a full sweep of the pipeline scenario.
//
//===----------------------------------------------------------------------===//

#include "bench_support/BenchOptions.h"
#include "bench_support/Table.h"
#include "support/Stats.h"
#include "workload/Engine.h"
#include "workload/Json.h"
#include "workload/Scenario.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

using namespace autosynch;
using namespace autosynch::workload;

namespace {

int usage(const char *Argv0, int Code) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "Runs multi-monitor workload scenarios and writes JSON results.\n"
      "\n"
      "  --list                 print the built-in scenarios and exit\n"
      "  --scenario=NAME        scenario to run (default: pipeline)\n"
      "  --threads=N[,N...]     workers per processing stage sweep\n"
      "                         (default: AUTOSYNCH_BENCH_THREADS or 2..64)\n"
      "  --mechanisms=M[,M...]  explicit,baseline,autosynch-t,autosynch\n"
      "                         (default: all four)\n"
      "  --tokens=N             tokens per source (default: 10000)\n"
      "  --arrival=MODE         closed, open-uniform, open-poisson\n"
      "                         (default: the scenario's own setting)\n"
      "  --rate=R               open-loop tokens/sec per source\n"
      "  --seed=S               workload seed (default: 1)\n"
      "  --op-timeout-us=N[,N..] per-op channel deadline sweep in\n"
      "                         microseconds; 0 = untimed (default: 0).\n"
      "                         Timed ops that expire are counted and\n"
      "                         retried, so token conservation holds\n"
      "  --json=PATH            output file (default: BENCH_workload.json;\n"
      "                         '-' for pure JSON on stdout, '' to skip)\n"
      "  --assert-plan-cache    fail unless every automatic run served\n"
      "                         waits from the plan cache\n"
      "  --assert-relay-skips   fail unless every relay-policy run\n"
      "                         exercised the dirty-set machinery\n"
      "                         (skipped relays or filtered entries)\n",
      Argv0);
  return Code;
}

// Enum-style flags reject unknown values with the full list of valid
// choices — a typo'd cell label must fail loudly, never silently publish
// results under the default.
constexpr const char *MechanismChoices =
    "explicit, baseline, autosynch-t, autosynch";
constexpr const char *ArrivalChoices = "closed, open-uniform, open-poisson";

bool parseMechanism(std::string_view S, Mechanism &Out) {
  if (S == "explicit")
    Out = Mechanism::Explicit;
  else if (S == "baseline")
    Out = Mechanism::Baseline;
  else if (S == "autosynch-t" || S == "AutoSynch-T")
    Out = Mechanism::AutoSynchT;
  else if (S == "autosynch" || S == "AutoSynch")
    Out = Mechanism::AutoSynch;
  else
    return false;
  return true;
}

std::vector<std::string> splitList(const std::string &S) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos <= S.size()) {
    size_t Comma = S.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = S.size();
    if (Comma > Pos)
      Out.push_back(S.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  return Out;
}

/// "--flag=value" match; returns the value half on success.
const char *matchFlag(const char *Arg, const char *Flag) {
  size_t N = std::strlen(Flag);
  if (std::strncmp(Arg, Flag, N) == 0 && Arg[N] == '=')
    return Arg + N + 1;
  return nullptr;
}

double fmtMs(uint64_t Ns) { return static_cast<double>(Ns) / 1e6; }

} // namespace

int main(int Argc, char **Argv) {
  bench::BenchOptions Env = bench::BenchOptions::fromEnv();

  std::string ScenarioName = "pipeline";
  std::vector<int> Threads = Env.ThreadCounts;
  std::vector<Mechanism> Mechs = {Mechanism::Explicit, Mechanism::Baseline,
                                  Mechanism::AutoSynchT,
                                  Mechanism::AutoSynch};
  std::vector<uint64_t> OpTimeoutsUs = {0};
  RunConfig Base;
  std::string JsonPath = "BENCH_workload.json";
  bool AssertPlanCache = false;
  bool AssertRelaySkips = false;

  for (int I = 1; I != Argc; ++I) {
    const char *Arg = Argv[I];
    const char *V;
    if (std::strcmp(Arg, "--list") == 0) {
      for (const ScenarioSpec &S : builtinScenarios()) {
        std::printf("%-10s %s\n", S.Name.c_str(), S.Description.c_str());
        for (const StageSpec &St : S.Stages) {
          std::printf("    %-10s %-15s", St.Name.c_str(),
                      stageKindName(St.Kind));
          if (St.Downstream.empty()) {
            std::printf(" -> (sink)\n");
            continue;
          }
          std::printf(" ->");
          for (int D : St.Downstream)
            std::printf(" %s", S.Stages[D].Name.c_str());
          std::printf("\n");
        }
      }
      return 0;
    }
    if (std::strcmp(Arg, "--help") == 0 || std::strcmp(Arg, "-h") == 0)
      return usage(Argv[0], 0);
    if ((V = matchFlag(Arg, "--scenario"))) {
      ScenarioName = V;
    } else if ((V = matchFlag(Arg, "--threads"))) {
      Threads.clear();
      for (const std::string &T : splitList(V)) {
        char *End = nullptr;
        long N = std::strtol(T.c_str(), &End, 10);
        // Reject, not skip: a silently dropped cell would publish a
        // partial sweep as if it were complete.
        if (End == T.c_str() || *End != '\0' || N < 1 || N > 4096) {
          std::fprintf(stderr, "%s: bad --threads entry '%s'\n", Argv[0],
                       T.c_str());
          return 2;
        }
        Threads.push_back(static_cast<int>(N));
      }
      if (Threads.empty()) {
        std::fprintf(stderr, "%s: empty --threads list\n", Argv[0]);
        return 2;
      }
    } else if ((V = matchFlag(Arg, "--mechanisms"))) {
      Mechs.clear();
      for (const std::string &M : splitList(V)) {
        Mechanism Mech;
        if (!parseMechanism(M, Mech)) {
          std::fprintf(stderr, "%s: unknown mechanism '%s' (valid: %s)\n",
                       Argv[0], M.c_str(), MechanismChoices);
          return 2;
        }
        Mechs.push_back(Mech);
      }
      if (Mechs.empty()) {
        std::fprintf(stderr, "%s: empty --mechanisms list\n", Argv[0]);
        return 2; // A zero-cell sweep must not publish as success.
      }
    } else if ((V = matchFlag(Arg, "--op-timeout-us"))) {
      OpTimeoutsUs.clear();
      for (const std::string &T : splitList(V)) {
        char *End = nullptr;
        unsigned long long N = std::strtoull(T.c_str(), &End, 10);
        if (End == T.c_str() || *End != '\0' ||
            N > 60ull * 1000 * 1000) { // Cap at one minute per op.
          std::fprintf(stderr,
                       "%s: bad --op-timeout-us entry '%s' (valid: "
                       "0..60000000; 0 = untimed)\n",
                       Argv[0], T.c_str());
          return 2;
        }
        OpTimeoutsUs.push_back(static_cast<uint64_t>(N));
      }
      if (OpTimeoutsUs.empty()) {
        std::fprintf(stderr, "%s: empty --op-timeout-us list\n", Argv[0]);
        return 2;
      }
    } else if ((V = matchFlag(Arg, "--tokens"))) {
      char *End = nullptr;
      Base.TokensPerSource = std::strtoll(V, &End, 10);
      if (End == V || *End != '\0' || Base.TokensPerSource < 1) {
        std::fprintf(stderr, "%s: bad --tokens value '%s'\n", Argv[0], V);
        return 2;
      }
    } else if ((V = matchFlag(Arg, "--arrival"))) {
      Base.OverrideArrival = true;
      if (std::strcmp(V, "closed") == 0)
        Base.Process = Arrival::Closed;
      else if (std::strcmp(V, "open-uniform") == 0)
        Base.Process = Arrival::OpenUniform;
      else if (std::strcmp(V, "open-poisson") == 0)
        Base.Process = Arrival::OpenPoisson;
      else {
        std::fprintf(stderr,
                     "%s: unknown arrival mode '%s' (valid: %s)\n",
                     Argv[0], V, ArrivalChoices);
        return 2;
      }
    } else if ((V = matchFlag(Arg, "--rate"))) {
      char *End = nullptr;
      Base.RatePerSec = std::strtod(V, &End);
      if (End == V || *End != '\0' || Base.RatePerSec <= 0.0) {
        std::fprintf(stderr, "%s: bad --rate value '%s'\n", Argv[0], V);
        return 2;
      }
    } else if ((V = matchFlag(Arg, "--seed"))) {
      char *End = nullptr;
      Base.Seed = std::strtoull(V, &End, 0);
      if (End == V || *End != '\0') {
        std::fprintf(stderr, "%s: bad --seed value '%s'\n", Argv[0], V);
        return 2;
      }
    } else if ((V = matchFlag(Arg, "--json"))) {
      JsonPath = V;
    } else if (std::strcmp(Arg, "--assert-plan-cache") == 0) {
      AssertPlanCache = true;
    } else if (std::strcmp(Arg, "--assert-relay-skips") == 0) {
      AssertRelaySkips = true;
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", Argv[0], Arg);
      return usage(Argv[0], 2);
    }
  }

  if (Base.OverrideArrival && Base.Process != Arrival::Closed &&
      Base.RatePerSec <= 0.0) {
    std::fprintf(stderr, "%s: open-loop arrivals need --rate\n", Argv[0]);
    return 2;
  }
  if (!Base.OverrideArrival && Base.RatePerSec > 0.0) {
    // A silently ignored rate would still be published in the JSON.
    std::fprintf(stderr, "%s: --rate requires --arrival\n", Argv[0]);
    return 2;
  }

  const ScenarioSpec *Scenario = findScenario(ScenarioName);
  if (!Scenario) {
    std::fprintf(stderr, "%s: unknown scenario '%s' (try --list)\n",
                 Argv[0], ScenarioName.c_str());
    return 2;
  }

  // With --json=- the JSON owns stdout; keep it machine-parseable by
  // suppressing the human-readable banner and summary table.
  const bool HumanOutput = JsonPath != "-";
  if (HumanOutput) {
    std::printf("# autosynch-workbench: scenario '%s' (%s)\n",
                Scenario->Name.c_str(), Scenario->Description.c_str());
    std::printf("# tokens/source=%lld seed=%llu\n",
                static_cast<long long>(Base.TokensPerSource),
                static_cast<unsigned long long>(Base.Seed));
  }

  bench::Table Summary({"threads", "mechanism", "op-to-us", "timeouts",
                        "wall-s", "tokens/s", "e2e-p50-ms", "e2e-p95-ms",
                        "e2e-p99-ms"});
  std::vector<ScenarioReport> Reports;
  for (int T : Threads) {
    ScenarioSpec Sized = Scenario->withWorkers(T);
    for (Mechanism M : Mechs) {
      for (uint64_t OtUs : OpTimeoutsUs) {
        RunConfig Cfg = Base;
        Cfg.Mech = M;
        Cfg.OpTimeoutNs = OtUs * 1000;
        ScenarioReport R = runScenario(Sized, Cfg);
        char Buf[32];
        auto Fmt = [&Buf](double Val) {
          std::snprintf(Buf, sizeof(Buf), "%.3f", Val);
          return std::string(Buf);
        };
        Summary.addRow({std::to_string(T), mechanismName(M),
                        std::to_string(OtUs), std::to_string(R.OpTimeouts),
                        Fmt(R.WallSeconds), Fmt(R.Throughput),
                        Fmt(fmtMs(R.EndToEnd.quantileNanos(0.50))),
                        Fmt(fmtMs(R.EndToEnd.quantileNanos(0.95))),
                        Fmt(fmtMs(R.EndToEnd.quantileNanos(0.99)))});
        Reports.push_back(std::move(R));
      }
    }
  }
  if (HumanOutput)
    Summary.print();

  if (AssertPlanCache) {
    // Every automatic run (any signal policy) must have served its
    // waituntil calls through the plan cache: no keyless waits, and the
    // cache actually consulted. Explicit runs have no plan path by
    // design.
    for (const ScenarioReport &R : Reports) {
      if (!isAutomatic(R.Mech))
        continue;
      uint64_t Consulted = R.Plan.ShapeBuilds + R.Plan.ShapeHits +
                           R.Plan.BindHits + R.Plan.ColdBinds;
      if (R.Plan.LegacyWaits != 0 || Consulted == 0) {
        std::fprintf(stderr,
                     "%s: plan-cache assertion failed for %s: "
                     "legacy_waits=%llu consulted=%llu\n",
                     Argv[0], mechanismName(R.Mech),
                     static_cast<unsigned long long>(R.Plan.LegacyWaits),
                     static_cast<unsigned long long>(Consulted));
        return 1;
      }
    }
    if (HumanOutput)
      std::printf("# plan-cache assertion: ok\n");
  }

  if (AssertRelaySkips) {
    // Every relay-policy run must show the dirty-set machinery doing
    // real work: relays skipped outright, or index entries pruned by
    // read-set intersection. Broadcast/Explicit runs have no skip path by
    // design and are not checked.
    for (const ScenarioReport &R : Reports) {
      if (R.Mech != Mechanism::AutoSynch && R.Mech != Mechanism::AutoSynchT)
        continue;
      uint64_t Exercised =
          R.Monitor.RelayDirtySkips + R.Monitor.Search.FilteredExprs;
      if (Exercised == 0) {
        std::fprintf(stderr,
                     "%s: relay-skip assertion failed for %s: "
                     "calls=%llu dirty_skips=0 filtered_exprs=0\n",
                     Argv[0], mechanismName(R.Mech),
                     static_cast<unsigned long long>(R.Monitor.RelayCalls));
        return 1;
      }
    }
    if (HumanOutput)
      std::printf("# relay-skip assertion: ok\n");
  }

  if (JsonPath.empty())
    return 0;

  std::ofstream File;
  std::ostream *OS = &std::cout;
  if (JsonPath != "-") {
    File.open(JsonPath);
    if (!File) {
      std::fprintf(stderr, "%s: cannot write '%s'\n", Argv[0],
                   JsonPath.c_str());
      return 1;
    }
    OS = &File;
  }

  JsonWriter J(*OS);
  J.beginObject()
      .member("tool", "autosynch-workbench")
      .member("version", 9) // Bumped on every schema change (README).
      .member("scenario", Scenario->Name)
      .member("description", Scenario->Description)
      .member("tokens_per_source", Base.TokensPerSource)
      .member("seed", Base.Seed)
      .member("arrival",
              Base.OverrideArrival ? arrivalName(Base.Process)
                                   : "per-scenario")
      .member("rate_per_sec", Base.RatePerSec);
  J.key("runs");
  J.beginArray();
  for (const ScenarioReport &R : Reports)
    writeReportJson(R, J);
  J.endArray();
  J.endObject();
  *OS << '\n';
  if (JsonPath != "-")
    std::fprintf(stderr, "wrote %zu runs to %s\n", Reports.size(),
                 JsonPath.c_str());
  return 0;
}
