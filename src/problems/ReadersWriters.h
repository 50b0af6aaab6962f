//===- problems/ReadersWriters.h - Ticketed readers/writers ----*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The readers/writers problem in the fair, ticketed formulation the paper
/// adopts from Buhr & Harji (§6.3.2): "a ticket is used to maintain the
/// accessing order of readers and writers. Every reader and writer gets a
/// ticket number indicating its arrival order" and is admitted in that
/// order — readers may overlap; a writer is exclusive. The waiting
/// predicates (`serving == myTicket && ...`) are complex; globalization
/// yields per-thread equivalence predicates on the shared `serving`.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_PROBLEMS_READERSWRITERS_H
#define AUTOSYNCH_PROBLEMS_READERSWRITERS_H

#include "problems/Mechanism.h"

#include <cstdint>
#include <memory>

namespace autosynch {

class ConditionManager;

/// Fair (arrival-order) readers/writers lock over a monitored resource.
class ReadersWritersIface {
public:
  virtual ~ReadersWritersIface() = default;

  virtual void startRead() = 0;
  virtual void endRead() = 0;
  virtual void startWrite() = 0;
  virtual void endWrite() = 0;

  /// Completed (read, write) operations (synchronized snapshots).
  virtual int64_t reads() const = 0;
  virtual int64_t writes() const = 0;

  /// The condition manager of automatic implementations (its signaling
  /// statistics); null for Explicit.
  virtual ConditionManager *manager() { return nullptr; }
};

std::unique_ptr<ReadersWritersIface> makeReadersWriters(Mechanism M);

} // namespace autosynch

#endif // AUTOSYNCH_PROBLEMS_READERSWRITERS_H
