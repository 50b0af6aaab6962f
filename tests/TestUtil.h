//===- tests/TestUtil.h - Shared test helpers ------------------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the test suites: tiny fixture symbol tables, random
/// expression generation for property tests, and random environments.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_TESTS_TESTUTIL_H
#define AUTOSYNCH_TESTS_TESTUTIL_H

#include "expr/Builder.h"
#include "expr/Env.h"
#include "expr/ExprArena.h"
#include "expr/SymbolTable.h"
#include "support/Rng.h"
#include "sync/Mutex.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace autosynch::testutil {

/// The sync substrate the parameterized sync and stress suites run on
/// (the futex Mutex/Condition). ctest lists those cases by name and by
/// the bytes gtest prints for their parameter, so the value stays 1.
enum class Substrate : uint8_t { Futex = 1 };

/// Parses AUTOSYNCH_TEST_SEED (decimal or 0x-hex). Returns true and sets
/// \p Out when the variable is present; the parse result is cached so every
/// call site in a test binary sees the same base seed.
inline bool envSeedBase(uint64_t &Out) {
  struct Cached {
    bool Present = false;
    uint64_t Value = 0;
  };
  static const Cached C = [] {
    Cached R;
    if (const char *S = std::getenv("AUTOSYNCH_TEST_SEED")) {
      char *End = nullptr;
      R.Present = true;
      // Explicit base: base 0 would read a zero-padded decimal as octal.
      int Base = (S[0] == '0' && (S[1] == 'x' || S[1] == 'X')) ? 16 : 10;
      errno = 0;
      R.Value = std::strtoull(S, &End, Base);
      // strtoull would silently negate a '-' seed and saturate on
      // overflow; both are typos worth rejecting.
      if (End == S || *End != '\0' || S[0] == '-' || errno == ERANGE) {
        // A typo'd seed silently mixing base 0 would mask the mistake;
        // fail the run loudly instead.
        std::fprintf(stderr,
                     "AUTOSYNCH_TEST_SEED='%s' is not a number "
                     "(decimal or 0x-hex)\n",
                     S);
        std::abort();
      }
    }
    return R;
  }();
  Out = C.Value;
  return C.Present;
}

/// The seed a randomized test should run with: the per-site \p Default
/// normally, or — when AUTOSYNCH_TEST_SEED is set — the environment base
/// mixed with the site default so distinct call sites keep distinct
/// streams. Same environment value, same effective seed: flakes reproduce.
inline uint64_t effectiveSeed(uint64_t Default) {
  uint64_t Base;
  if (!envSeedBase(Base))
    return Default;
  return Base ^ (Default * 0x9e3779b97f4a7c15ULL);
}

/// Failure annotation naming the seed in force, so a flaky randomized test
/// prints everything needed to rerun it.
inline std::string seedNote(uint64_t Default) {
  std::ostringstream OS;
  uint64_t Base;
  OS << "randomized test seed 0x" << std::hex << effectiveSeed(Default);
  if (envSeedBase(Base))
    OS << " (AUTOSYNCH_TEST_SEED=0x" << Base << ")";
  else
    OS << " (rerun with AUTOSYNCH_TEST_SEED to vary)";
  return OS.str();
}

/// Blocks until \p N threads are parked in M's await(). The fixture must
/// expose waiters() (see AUTOSYNCH_TEST_WAITER_PROBE); a fixed sleep is
/// not enough under TSan or on loaded machines. Bounded so a fast-path
/// regression (the waiter never parks) fails with context in seconds
/// instead of hanging until the ctest timeout kills the binary.
template <typename MonitorT> void awaitWaiters(MonitorT &M, int N) {
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (M.waiters() < N) {
    if (std::chrono::steady_clock::now() >= Deadline) {
      FAIL() << "awaitWaiters: still " << M.waiters() << "/" << N
             << " parked waiters after 30s; did the waiter take the "
                "fast path?";
      return;
    }
    // A real sleep, not a yield: each poll takes the monitor lock and runs
    // the relay on exit, which is expensive under TSan and contends with
    // the waiter trying to park.
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

/// Raw-substrate analogue of awaitWaiters: blocks until \p Count — a
/// functor evaluated while holding \p M — reaches \p N. Condition::await
/// bumps awaitCount() under the mutex *before* parking, so once the count
/// is observed under the lock the waiter has released it inside await();
/// a signal issued while still holding the mutex can no longer be lost.
/// Bounded like awaitWaiters so a regression fails fast.
template <typename CountFn>
void awaitParked(sync::Mutex &M, CountFn Count, int N) {
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    M.lock();
    int Parked = Count();
    M.unlock();
    if (Parked >= N)
      return;
    if (std::chrono::steady_clock::now() >= Deadline) {
      FAIL() << "awaitParked: still " << Parked << "/" << N
             << " parked waiters after 30s";
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

/// A fixture with a few shared and local variables of both types:
/// shared ints x, y, z; shared bool flag; local ints a, b; local bool p.
struct Vars {
  SymbolTable Syms;
  VarId X, Y, Z, Flag, A, B, P;

  Vars() {
    X = Syms.declare("x", TypeKind::Int, VarScope::Shared);
    Y = Syms.declare("y", TypeKind::Int, VarScope::Shared);
    Z = Syms.declare("z", TypeKind::Int, VarScope::Shared);
    Flag = Syms.declare("flag", TypeKind::Bool, VarScope::Shared);
    A = Syms.declare("a", TypeKind::Int, VarScope::Local);
    B = Syms.declare("b", TypeKind::Int, VarScope::Local);
    P = Syms.declare("p", TypeKind::Bool, VarScope::Local);
  }

  std::vector<VarId> intVars() const { return {X, Y, Z, A, B}; }
  std::vector<VarId> boolVars() const { return {Flag, P}; }
};

/// Generates a random well-typed expression of type \p Want. Values stay
/// small enough (literals in [-8, 8], depth <= MaxDepth) that evaluation
/// never approaches the int64 boundary, where canonicalization's
/// no-overflow assumption would not hold.
inline ExprRef randomExpr(Rng &R, ExprArena &Arena, const Vars &V,
                          TypeKind Want, int MaxDepth) {
  if (Want == TypeKind::Int) {
    if (MaxDepth <= 0 || R.chance(1, 3)) {
      if (R.chance(1, 2))
        return Arena.intLit(R.range(-8, 8));
      auto Ints = V.intVars();
      return Arena.var(V.Syms.info(Ints[R.range(0, Ints.size() - 1)]));
    }
    switch (R.range(0, 5)) {
    case 0:
      return Arena.unary(ExprKind::Neg,
                         randomExpr(R, Arena, V, TypeKind::Int, MaxDepth - 1));
    case 1:
    case 2:
      return Arena.binary(
          R.chance(1, 2) ? ExprKind::Add : ExprKind::Sub,
          randomExpr(R, Arena, V, TypeKind::Int, MaxDepth - 1),
          randomExpr(R, Arena, V, TypeKind::Int, MaxDepth - 1));
    case 3:
      return Arena.binary(
          ExprKind::Mul, randomExpr(R, Arena, V, TypeKind::Int, MaxDepth - 1),
          randomExpr(R, Arena, V, TypeKind::Int, MaxDepth - 1));
    case 4:
      // Division by a nonzero literal only: predicates must stay total.
      return Arena.binary(
          ExprKind::Div, randomExpr(R, Arena, V, TypeKind::Int, MaxDepth - 1),
          Arena.intLit(R.chance(1, 2) ? R.range(1, 7) : R.range(-7, -1)));
    default:
      return Arena.binary(
          ExprKind::Mod, randomExpr(R, Arena, V, TypeKind::Int, MaxDepth - 1),
          Arena.intLit(R.range(1, 7)));
    }
  }

  // Bool.
  if (MaxDepth <= 0 || R.chance(1, 4)) {
    if (R.chance(1, 3))
      return Arena.boolLit(R.chance(1, 2));
    auto Bools = V.boolVars();
    return Arena.var(V.Syms.info(Bools[R.range(0, Bools.size() - 1)]));
  }
  switch (R.range(0, 4)) {
  case 0:
    return Arena.unary(ExprKind::Not,
                       randomExpr(R, Arena, V, TypeKind::Bool, MaxDepth - 1));
  case 1:
  case 2: {
    ExprKind K = static_cast<ExprKind>(
        static_cast<int>(ExprKind::Eq) + R.range(0, 5));
    return Arena.binary(K,
                        randomExpr(R, Arena, V, TypeKind::Int, MaxDepth - 1),
                        randomExpr(R, Arena, V, TypeKind::Int, MaxDepth - 1));
  }
  default:
    return Arena.binary(
        R.chance(1, 2) ? ExprKind::And : ExprKind::Or,
        randomExpr(R, Arena, V, TypeKind::Bool, MaxDepth - 1),
        randomExpr(R, Arena, V, TypeKind::Bool, MaxDepth - 1));
  }
}

/// Binds every fixture variable to a random small value.
inline MapEnv randomEnv(Rng &R, const Vars &V) {
  MapEnv E;
  for (VarId Id : V.intVars())
    E.bindInt(Id, R.range(-10, 10));
  for (VarId Id : V.boolVars())
    E.bindBool(Id, R.chance(1, 2));
  return E;
}

} // namespace autosynch::testutil

/// Declares `::autosynch::Rng Var` honoring AUTOSYNCH_TEST_SEED, and
/// arranges for any assertion failure in the enclosing scope to print the
/// seed that produced it.
#define AUTOSYNCH_SEEDED_RNG(Var, Default)                                   \
  ::autosynch::Rng Var(::autosynch::testutil::effectiveSeed(Default));       \
  SCOPED_TRACE(::autosynch::testutil::seedNote(Default))

/// Injects a race-free `waiters()` accessor into a test monitor class:
/// reads numWaiters() under the region lock, where the condition manager
/// mutates it. Pair with testutil::awaitWaiters.
#define AUTOSYNCH_TEST_WAITER_PROBE()                                        \
  int waiters() {                                                            \
    Region R(*this);                                                         \
    return conditionManager().numWaiters();                                  \
  }

#endif // AUTOSYNCH_TESTS_TESTUTIL_H
