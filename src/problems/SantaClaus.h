//===- problems/SantaClaus.h - The Santa Claus problem ---------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Trono's Santa Claus problem: Santa sleeps until either a full team of
/// reindeer (classically 9) has returned — then he delivers toys — or a
/// group of elves (classically 3) is stuck — then he consults them.
/// Reindeer have priority. Santa's waiting predicate is a *disjunction* of
/// two thresholds (`rWaiting >= R || eWaiting >= E`), exercising the DNF
/// path with multiple disjuncts; reindeer and elves block on shared-only
/// pass counters like H2O's hydrogens.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_PROBLEMS_SANTACLAUS_H
#define AUTOSYNCH_PROBLEMS_SANTACLAUS_H

#include "problems/Mechanism.h"

#include <cstdint>
#include <memory>

namespace autosynch {

/// What one santa() call serviced.
enum class SantaService : uint8_t {
  Toys,   ///< Harnessed a full reindeer team and delivered toys.
  Consult ///< Consulted a group of elves.
};

/// The Santa Claus rendezvous monitor.
class SantaClausIface {
public:
  virtual ~SantaClausIface() = default;

  /// A reindeer returns from vacation; blocks until its team has been
  /// harnessed and the delivery is under way.
  virtual void reindeer() = 0;

  /// An elf gets stuck; blocks until Santa has consulted its group.
  virtual void elf() = 0;

  /// Santa serves exactly one complete group, sleeping until one is
  /// available. Reindeer teams take priority over elf groups.
  virtual SantaService santa() = 0;

  /// Completed toy deliveries / consultations (synchronized snapshots).
  virtual int64_t deliveries() const = 0;
  virtual int64_t consultations() const = 0;

  /// Arrivals currently waiting to be served (synchronized snapshots;
  /// tests use these to know a group has formed without sleeping).
  virtual int64_t reindeerWaiting() const = 0;
  virtual int64_t elvesWaiting() const = 0;

  /// The configured group sizes.
  virtual int64_t reindeerTeam() const = 0;
  virtual int64_t elfGroup() const = 0;
};

/// Creates the \p M implementation with a reindeer team of \p ReindeerTeam
/// and elf groups of \p ElfGroup.
std::unique_ptr<SantaClausIface>
makeSantaClaus(Mechanism M, int64_t ReindeerTeam = 9, int64_t ElfGroup = 3);

} // namespace autosynch

#endif // AUTOSYNCH_PROBLEMS_SANTACLAUS_H
