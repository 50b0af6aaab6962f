//===- bench_support/Claims.cpp - The paper's claims as checks -------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "bench_support/Claims.h"

#include "problems/Mechanism.h"

#include <cstdio>
#include <optional>

using namespace autosynch;
using namespace autosynch::bench;

namespace {

bool is(const Cell &C, Mechanism M) { return C.Column == mechanismName(M); }

std::optional<double> count(const Cell &C, const char *Name) {
  auto It = C.Counts.find(Name);
  if (It == C.Counts.end())
    return std::nullopt;
  return It->second;
}

/// The cell of \p Column at \p C's figure and thread count, if it ran.
const Cell *sibling(const std::vector<Cell> &Cells, const Cell &C,
                    const std::string &Column) {
  for (const Cell &S : Cells)
    if (S.Figure == C.Figure && S.Threads == C.Threads && S.Column == Column)
      return &S;
  return nullptr;
}

/// "name value (must be Rel Bound)".
std::string bound(const char *Name, double V, const char *Rel, double Bound) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "%s %.2f (must be %s %.2f)", Name, V, Rel,
                Bound);
  return Buf;
}

/// Compares \p Name of \p C against the same count of its \p Other sibling:
/// holds when \p C's is lower, or equal unless \p Strict.
std::optional<bool> lowerThan(const std::vector<Cell> &Cells, const Cell &C,
                              const std::string &Other, const char *Name,
                              bool Strict, std::string &Seen) {
  const Cell *O = sibling(Cells, C, Other);
  std::optional<double> Mine = count(C, Name);
  std::optional<double> Theirs = O ? count(*O, Name) : std::nullopt;
  if (!Mine || !Theirs)
    return std::nullopt;
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), "%s %g vs %s %g", Name, *Mine,
                Other.c_str(), *Theirs);
  Seen = Buf;
  return *Mine < *Theirs || (!Strict && *Mine == *Theirs);
}

/// One claim: \p Check returns nullopt when a cell is outside the claim,
/// else whether it holds, with what it saw in \p Seen.
struct Spec {
  const char *Id;
  const char *Source;
  const char *Text;
  bool Gated;
  std::optional<bool> (*Check)(const Cell &C, const std::vector<Cell> &All,
                               std::string &Seen);
};

const Spec Specs[] = {
    {"relay-no-signalall", "relay invariance, Prop. 2 (every figure)",
     "AutoSynch and AutoSynch-T issue no signalAll", true,
     [](const Cell &C, const std::vector<Cell> &,
        std::string &Seen) -> std::optional<bool> {
       std::optional<double> N = count(C, "signal_alls");
       if (!N || !(is(C, Mechanism::AutoSynch) ||
                   is(C, Mechanism::AutoSynchT)))
         return std::nullopt;
       Seen = bound("signal_alls", *N, "==", 0);
       return *N == 0;
     }},
    {"baseline-no-signal", "signalAll baseline (every figure)",
     "the baseline issues no directed signal", true,
     [](const Cell &C, const std::vector<Cell> &,
        std::string &Seen) -> std::optional<bool> {
       std::optional<double> N = count(C, "signals");
       if (!N || !is(C, Mechanism::Baseline))
         return std::nullopt;
       Seen = bound("signals", *N, "==", 0);
       return *N == 0;
     }},
    {"tagged-checks-per-signal", "Fig. 11 and Table 1 (round robin)",
     "AutoSynch checks at most 1.05 predicates per directed signal", true,
     [](const Cell &C, const std::vector<Cell> &,
        std::string &Seen) -> std::optional<bool> {
       std::optional<double> V = count(C, "checks_per_signal");
       if (!V || C.Figure != "fig11" || !is(C, Mechanism::AutoSynch))
         return std::nullopt;
       Seen = bound("checks_per_signal", *V, "<=", 1.05);
       return *V <= 1.05;
     }},
    {"scan-checks-per-signal", "Fig. 11 and Table 1 (round robin)",
     "AutoSynch-T checks at least N/4 predicates per directed signal at "
     "N >= 8",
     true,
     [](const Cell &C, const std::vector<Cell> &,
        std::string &Seen) -> std::optional<bool> {
       std::optional<double> V = count(C, "checks_per_signal");
       if (!V || C.Figure != "fig11" || !is(C, Mechanism::AutoSynchT) ||
           C.Threads < 8)
         return std::nullopt;
       Seen = bound("checks_per_signal", *V, ">=", C.Threads / 4.0);
       return *V >= C.Threads / 4.0;
     }},
    {"baseline-more-futile-wakeups", "Fig. 11 (signalAll's futile wakeups)",
     "the baseline has more futile wakeups per blocking wait than AutoSynch "
     "at N >= 8",
     true,
     [](const Cell &C, const std::vector<Cell> &All,
        std::string &Seen) -> std::optional<bool> {
       if (C.Figure != "fig11" || !is(C, Mechanism::AutoSynch) ||
           C.Threads < 8)
         return std::nullopt;
       return lowerThan(All, C, mechanismName(Mechanism::Baseline),
                        "futile_wakeups", /*Strict=*/true, Seen);
     }},
    {"fewer-sync-events", "Fig. 15 (parameterized bounded buffer)",
     "AutoSynch has fewer sync events than explicit at >= 16 consumers",
     false,
     [](const Cell &C, const std::vector<Cell> &All,
        std::string &Seen) -> std::optional<bool> {
       if (C.Figure != "fig14" || !is(C, Mechanism::AutoSynch) ||
           C.Threads < 16)
         return std::nullopt;
       return lowerThan(All, C, mechanismName(Mechanism::Explicit),
                        "sync_events", /*Strict=*/true, Seen);
     }},
    {"blocks-vs-baseline", "Figs. 8-11, ext01, ext02",
     "AutoSynch blocks no more often than the baseline", false,
     [](const Cell &C, const std::vector<Cell> &All,
        std::string &Seen) -> std::optional<bool> {
       if (!is(C, Mechanism::AutoSynch))
         return std::nullopt;
       return lowerThan(All, C, mechanismName(Mechanism::Baseline), "awaits",
                        /*Strict=*/false, Seen);
     }},
    {"cache-saves-registrations", "Sec. 5.2 inactive list",
     "the inactive cache registers fewer predicates than no cache", false,
     [](const Cell &C, const std::vector<Cell> &All,
        std::string &Seen) -> std::optional<bool> {
       if (C.Column != "AutoSynch/cache")
         return std::nullopt;
       return lowerThan(All, C, "AutoSynch/no-cache", "registrations",
                        /*Strict=*/true, Seen);
     }},
};

} // namespace

std::vector<ClaimResult> bench::checkClaims(const std::vector<Cell> &Cells) {
  std::vector<ClaimResult> Results;
  for (const Spec &S : Specs) {
    ClaimResult R;
    R.Id = S.Id;
    R.Source = S.Source;
    R.Text = S.Text;
    R.Gated = S.Gated;
    for (const Cell &C : Cells) {
      std::string Seen;
      std::optional<bool> Holds = S.Check(C, Cells, Seen);
      if (!Holds)
        continue;
      ++R.Cells;
      if (*Holds || R.Violations++ != 0)
        continue;
      R.FirstViolation = C.Figure;
      R.FirstViolation += ' ';
      R.FirstViolation += C.Column;
      R.FirstViolation += " N=";
      R.FirstViolation += std::to_string(C.Threads);
      R.FirstViolation += ": ";
      R.FirstViolation += Seen;
    }
    if (R.Cells != 0)
      Results.push_back(std::move(R));
  }
  return Results;
}
