//===- problems/SleepingBarber.h - Sleeping barber -------------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sleeping-barber problem (paper Fig. 10): one barber, a bounded
/// waiting room. A customer leaves when no chair is free, otherwise takes a
/// chair and waits for the barber's offer; the barber sleeps (waits) until
/// a customer is available. The rendezvous uses shared-only predicates
/// (`offers > 0`, `offers == 0`, `waiting > 0`), the paper's first problem
/// class.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_PROBLEMS_SLEEPINGBARBER_H
#define AUTOSYNCH_PROBLEMS_SLEEPINGBARBER_H

#include "problems/Mechanism.h"

#include <cstdint>
#include <memory>

namespace autosynch {

/// One-barber shop with a bounded waiting room.
class SleepingBarberIface {
public:
  virtual ~SleepingBarberIface() = default;

  /// A customer tries to get a haircut. Returns false when every waiting
  /// chair was taken (the customer leaves), true once the haircut happened.
  virtual bool getHaircut() = 0;

  /// The barber serves exactly one customer (sleeping until one arrives).
  virtual void cutHair() = 0;

  /// Haircuts completed (synchronized snapshot).
  virtual int64_t haircuts() const = 0;
};

/// Creates the \p M implementation with \p Chairs waiting chairs.
std::unique_ptr<SleepingBarberIface>
makeSleepingBarber(Mechanism M, int64_t Chairs);

} // namespace autosynch

#endif // AUTOSYNCH_PROBLEMS_SLEEPINGBARBER_H
