//===- problems/ParamBoundedBuffer.h - Parameterized buffer ----*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parameterized bounded buffer of the paper's Fig. 1 and Figs. 14-15:
/// producers deposit a *batch* of items and consumers remove a batch, so
/// every thread may wait on a different threshold (`count + n <= capacity`,
/// `count >= num`). The explicit-signal version cannot know which waiter to
/// wake and must use signalAll — the workload where AutoSynch wins by an
/// order of magnitude (§6.4, 26.9x at 256 consumers).
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_PROBLEMS_PARAMBOUNDEDBUFFER_H
#define AUTOSYNCH_PROBLEMS_PARAMBOUNDEDBUFFER_H

#include "problems/Mechanism.h"

#include <cstdint>
#include <memory>

namespace autosynch {

/// Batch-operation bounded buffer (paper Fig. 1).
class ParamBoundedBufferIface {
public:
  virtual ~ParamBoundedBufferIface() = default;

  /// Blocks until \p NumItems fit, then deposits them.
  virtual void put(int64_t NumItems) = 0;

  /// Blocks until \p NumItems are available, then removes them.
  virtual void take(int64_t NumItems) = 0;

  /// Current item count (synchronized snapshot).
  virtual int64_t size() const = 0;
};

/// Creates the \p M implementation. Only Explicit and the automatic
/// mechanisms the paper plots (AutoSynch) are exercised by the Fig. 14
/// bench, but every mechanism is constructible.
std::unique_ptr<ParamBoundedBufferIface>
makeParamBoundedBuffer(Mechanism M, int64_t Capacity);

} // namespace autosynch

#endif // AUTOSYNCH_PROBLEMS_PARAMBOUNDEDBUFFER_H
