//===- time/CancelToken.cpp - Cooperative wait cancellation ----------------===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "time/CancelToken.h"

#include "support/Check.h"
#include "sync/Mutex.h"

#include <algorithm>

using namespace autosynch;
using namespace autosynch::time;

CancelToken::CancelToken() : S(std::make_shared<State>()) {}

void CancelToken::cancel() {
  std::lock_guard<std::mutex> G(S->M);
  S->Cancelled.store(true, std::memory_order_release);
  // Signal while holding the token lock: a registered wait cannot
  // deregister (and its monitor cannot be torn down) until we are done,
  // so every pointer here is live. signalAll is lock-free-safe (see
  // sync/Mutex.h).
  for (sync::Condition *C : S->Waits)
    C->signalAll();
}

size_t CancelToken::registeredWaits() const {
  std::lock_guard<std::mutex> G(S->M);
  return S->Waits.size();
}

CancelScope::CancelScope(CancelToken *Token, sync::Condition *Cond)
    : Token(Token), Cond(Cond) {
  if (!Token)
    return;
  std::lock_guard<std::mutex> G(Token->S->M);
  Token->S->Waits.push_back(Cond);
}

CancelScope::~CancelScope() {
  if (!Token)
    return;
  std::lock_guard<std::mutex> G(Token->S->M);
  auto &W = Token->S->Waits;
  auto It = std::find(W.begin(), W.end(), Cond);
  AUTOSYNCH_CHECK(It != W.end(), "cancel scope lost its registration");
  *It = W.back();
  W.pop_back();
}
