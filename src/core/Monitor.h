//===- core/Monitor.h - The automatic-signal monitor -----------*- C++ -*-===//
//
// Part of AutoSynch-C++, a reproduction of "AutoSynch: An Automatic-Signal
// Monitor Based on Predicate Tagging" (Hung & Garg, PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The user-facing automatic-signal monitor: the C++ rendering of the
/// paper's `AutoSynch class`. Derive from Monitor, declare monitor state as
/// Shared<T> members, wrap each public method body in a Region, and block
/// with waitUntil — no condition variables, no signal/signalAll:
///
/// \code
///   class BoundedBuffer : public autosynch::Monitor {
///   public:
///     explicit BoundedBuffer(int64_t N) : Capacity(N) {}
///
///     void put(int64_t Items) {
///       Region R(*this);
///       waitUntil(Count + Items <= Capacity);   // EDSL predicate
///       Count += Items;
///     }
///
///     int64_t take(int64_t Num) {
///       Region R(*this);
///       waitUntil("count >= num", locals().bindInt(local("num"), Num));
///       Count -= Num;
///       return Num;
///     }
///
///   private:
///     Shared<int64_t> Count{*this, "count", 0};
///     int64_t Capacity;
///   };
/// \endcode
///
/// Two predicate front ends with identical behaviour:
///  * the EDSL (expression templates over Shared<T>, expr/Builder.h):
///    local values are captured as literals — globalization done by
///    construction. An already-true wait is decided inline in the
///    waitUntil template: the ownership and region-depth checks, then the
///    template evaluated over the shared slots — no call into the wait
///    pipeline, no plan lookup, no arena. The template's C++ type
///    is the predicate's shape, so a wait that blocks finds its plan by
///    shape id and key (PlanCache) and fills the plan's slots straight
///    from the literals: the arena sees a shape once per key, and a warm
///    wait neither interns nor allocates, under every signal policy. Only
///    blocking waits that carry no plan key (shapes the planner cannot
///    parameterize, more literals than a plan has slots, key overflow)
///    build the concrete tree;
///  * parsed strings: locals stay symbolic, are parsed once (cached), and
///    are globalized per call from the provided bindings — the path the
///    autosynchc translator emits.
///
//===----------------------------------------------------------------------===//

#ifndef AUTOSYNCH_CORE_MONITOR_H
#define AUTOSYNCH_CORE_MONITOR_H

#include "core/ConditionManager.h"
#include "expr/Builder.h"
#include "plan/PlanCache.h"
#include "time/CancelToken.h"
#include "time/Deadline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace autosynch {

namespace detail {

/// Environment over the monitor's shared-variable slots; always reflects
/// the current state.
class SlotEnv final : public Env {
public:
  SlotEnv(const SymbolTable &Syms, const std::vector<Value> &Slots)
      : Syms(Syms), Slots(Slots) {}

  Value get(VarId Id) const override {
    AUTOSYNCH_CHECK(has(Id), "unbound shared variable");
    return Slots[Id];
  }

  bool has(VarId Id) const override {
    return Id < Slots.size() && Syms.isShared(Id);
  }

private:
  const SymbolTable &Syms;
  const std::vector<Value> &Slots;
};

} // namespace detail

/// Base class for automatic-signal monitors.
class Monitor {
public:
  Monitor(const Monitor &) = delete;
  Monitor &operator=(const Monitor &) = delete;

  /// RAII monitor section: acquires the monitor lock on construction
  /// (reentrant for the owning thread) and releases it — after running the
  /// relay signaling rule — on destruction.
  class Region {
  public:
    explicit Region(Monitor &M) : M(M) { M.enter(); }
    ~Region() { M.exit(); }
    Region(const Region &) = delete;
    Region &operator=(const Region &) = delete;

  private:
    Monitor &M;
  };

  /// A shared monitor variable (paper Def. 1's set S). Reads and writes
  /// require the calling thread to be inside the monitor.
  template <typename T> class Shared {
    static_assert(std::is_same_v<T, bool> ||
                      (std::is_integral_v<T> && sizeof(T) <= 8),
                  "Shared<T> supports bool and integral types up to 64 bits");

  public:
    Shared(Monitor &M, std::string_view Name, T Initial = T())
        : M(M), Id(M.declareShared(Name, typeKind())) {
      M.writeSlot(Id, toValue(Initial), /*RequireOwned=*/false);
    }

    /// Current value; caller must be inside the monitor.
    T get() const { return fromValue(M.readSlot(Id)); }

    void set(T V) { M.writeSlot(Id, toValue(V), /*RequireOwned=*/true); }

    Shared &operator=(T V) {
      set(V);
      return *this;
    }
    Shared &operator+=(T V) {
      set(static_cast<T>(get() + V));
      return *this;
    }
    Shared &operator-=(T V) {
      set(static_cast<T>(get() - V));
      return *this;
    }

    /// The variable as an EDSL expression leaf.
    edsl::Leaf<std::is_same_v<T, bool> ? TypeKind::Bool : TypeKind::Int>
    expr() const {
      return {&M, Id};
    }

    VarId id() const { return Id; }

  private:
    static constexpr TypeKind typeKind() {
      return std::is_same_v<T, bool> ? TypeKind::Bool : TypeKind::Int;
    }
    static Value toValue(T V) {
      if constexpr (std::is_same_v<T, bool>)
        return Value::makeBool(V);
      else
        return Value::makeInt(static_cast<int64_t>(V));
    }
    static T fromValue(Value V) {
      if constexpr (std::is_same_v<T, bool>)
        return V.asBool();
      else
        return static_cast<T>(V.asInt());
    }

    Monitor &M;
    VarId Id;
  };

  //===--------------------------------------------------------------------===//
  // Introspection (tests and benches)
  //===--------------------------------------------------------------------===//

  ConditionManager &conditionManager() { return Mgr; }
  ExprArena &arena() { return Arena; }
  SymbolTable &symbols() { return Syms; }
  const MonitorConfig &config() const { return Cfg; }
  /// The monitor's wait-plan cache (predicate-shape -> WaitPlan).
  PlanCache &planCache() { return Plans; }

  /// How a wait is bounded (implementation descriptor, public so the
  /// out-of-line helpers can build one). For-timeouts stay relative until
  /// the wait actually blocks (no clock read on the already-true fast
  /// path); the deadline is materialized once, so every retry of the
  /// block loop sees the same instant.
  struct TimedSpec {
    enum class Kind : uint8_t { None, For, By };
    Kind K = Kind::None;
    uint64_t Ns = 0; ///< For: relative timeout; By: absolute deadline.
    time::CancelToken *Token = nullptr;

    static TimedSpec forTimeout(std::chrono::nanoseconds Timeout,
                                time::CancelToken *Token) {
      return {Kind::For,
              Timeout.count() <= 0 ? 0 : static_cast<uint64_t>(Timeout.count()),
              Token};
    }
    static TimedSpec byDeadline(time::Deadline D, time::CancelToken *Token) {
      return {Kind::By, D.Ns, Token};
    }

    bool timed() const { return K != Kind::None; }
    /// The absolute monotonic deadline (clock read only for For).
    uint64_t deadlineNs() const {
      return K == Kind::For ? time::deadlineAfter(time::nowNs(), Ns) : Ns;
    }
  };

protected:
  explicit Monitor(MonitorConfig Config = {});
  ~Monitor();

  /// Blocks until the EDSL predicate \p P holds. Must be called inside the
  /// monitor at region depth 1 (a wait from a nested region would deadlock
  /// and is rejected). Fatal error if \p P is canonically unsatisfiable or
  /// mentions another monitor's variables.
  template <edsl::ExprLike P> void waitUntil(const P &Pred) {
    EdslFrame F(*this, edsl::toNode(Pred));
    if (!edslHolds(F))
      waitUntilImpl(EmptyEnv::instance(), nullptr, &F.W, TimedSpec());
  }

  /// Blocks until the parsed predicate \p Pred (shared variables only)
  /// holds. The parse is cached per source string.
  void waitUntil(std::string_view Pred);

  /// Blocks until parsed predicate \p Pred holds, with local variables
  /// bound in \p Locals (globalized per call, paper §4.1).
  void waitUntil(std::string_view Pred, const MapEnv &Locals);

  //===--------------------------------------------------------------------===//
  // Timed and cancellable waits (the src/time/ deadline runtime)
  //===--------------------------------------------------------------------===//
  //
  // waitUntilFor bounds the wait by a relative timeout, waitUntilBy by an
  // absolute monotonic deadline (time::Deadline; Deadline::never() plus a
  // CancelToken expresses a cancellation-only wait). All variants return
  // true iff the predicate was observed true — predicate-first: a wait
  // whose predicate holds returns true even if the deadline passed or the
  // token fired concurrently, so a relayed signal is accepted, never
  // stolen — and false on expiry or cancellation, with the monitor
  // re-entered and the region still intact either way. The fast path
  // (predicate already true) reads no clock; timeouts convert to
  // deadlines only when the wait actually blocks. Same restrictions as
  // waitUntil (region depth 1; canonically unsatisfiable predicates are
  // fatal — a deadline bounds a possible wait, it does not legalize an
  // impossible one).

  /// Bounded wait on an EDSL predicate.
  template <edsl::ExprLike P>
  bool waitUntilFor(const P &Pred, std::chrono::nanoseconds Timeout,
                    time::CancelToken *Token = nullptr) {
    EdslFrame F(*this, edsl::toNode(Pred));
    return edslHolds(F) ||
           waitUntilImpl(EmptyEnv::instance(), nullptr, &F.W,
                         TimedSpec::forTimeout(Timeout, Token));
  }

  /// Bounded wait on a parsed shared-only predicate.
  bool waitUntilFor(std::string_view Pred, std::chrono::nanoseconds Timeout,
                    time::CancelToken *Token = nullptr);

  /// Bounded wait on a parsed predicate with local bindings.
  bool waitUntilFor(std::string_view Pred, const MapEnv &Locals,
                    std::chrono::nanoseconds Timeout,
                    time::CancelToken *Token = nullptr);

  /// Deadline wait on an EDSL predicate.
  template <edsl::ExprLike P>
  bool waitUntilBy(const P &Pred, time::Deadline D,
                   time::CancelToken *Token = nullptr) {
    EdslFrame F(*this, edsl::toNode(Pred));
    return edslHolds(F) ||
           waitUntilImpl(EmptyEnv::instance(), nullptr, &F.W,
                         TimedSpec::byDeadline(D, Token));
  }

  /// Deadline wait on a parsed shared-only predicate.
  bool waitUntilBy(std::string_view Pred, time::Deadline D,
                   time::CancelToken *Token = nullptr);

  /// Deadline wait on a parsed predicate with local bindings.
  bool waitUntilBy(std::string_view Pred, const MapEnv &Locals,
                   time::Deadline D, time::CancelToken *Token = nullptr);

  /// Declares (or retrieves) a Local-scoped variable for use in parsed
  /// predicates. Call during construction or while inside the monitor.
  VarId local(std::string_view Name, TypeKind Ty = TypeKind::Int);

  /// Fresh, empty local-bindings environment (sugar for call sites).
  static MapEnv locals() { return MapEnv(); }

  /// Integer literal (EDSL convenience: literals are plain values).
  static constexpr int64_t lit(int64_t V) { return V; }
  /// Boolean literal.
  static constexpr bool blit(bool V) { return V; }

  /// The plan a wait on the EDSL predicate \p P binds, with its slot
  /// values written to \p Bound (at least WaitPlan::MaxSlots entries);
  /// null for waits that go keyless (more literals than a plan has
  /// slots). Requires the monitor lock. Introspection for tests.
  template <edsl::ExprLike P>
  const WaitPlan *edslPlan(const P &Pred, Value *Bound) {
    EdslFrame F(*this, edsl::toNode(Pred));
    if (!F.W.Keyed)
      return nullptr;
    std::copy(F.W.Bound, F.W.Bound + F.W.NumBound, Bound);
    return sitePlan(F.W);
  }

  /// Eagerly registers a shared predicate (paper Fig. 5 registers all
  /// static shared predicates in the constructor). Purely an optimization;
  /// waits register on demand anyway.
  void registerPredicate(std::string_view Pred);

  /// Runs \p F inside the monitor.
  template <typename Fn> auto synchronized(Fn &&F) {
    Region R(*this);
    return F();
  }

private:
  template <typename> friend class Shared;

  void enter();
  void exit();

  /// The calling thread's identity for Owner: the address of a
  /// thread-local byte, distinct for every live thread and computed
  /// without a call (std::this_thread::get_id() is one).
  static const void *callerToken() {
    static thread_local char Token;
    return &Token;
  }
  bool ownedByCaller() const {
    return Owner.load(std::memory_order_relaxed) == callerToken();
  }

  VarId declareShared(std::string_view Name, TypeKind Ty);

  Value readSlot(VarId Id) const {
    AUTOSYNCH_CHECK(ownedByCaller(),
                    "shared variable read outside the monitor");
    return Slots[Id];
  }

  void writeSlot(VarId Id, Value V, bool RequireOwned) {
    AUTOSYNCH_CHECK(!RequireOwned || ownedByCaller(),
                    "shared variable write outside the monitor");
    // A write that does not change the value cannot change any predicate:
    // it neither dirties the relay set nor bumps the variable's version,
    // so idempotent stores keep the read-only-exit fast path.
    if (Slots[Id] == V)
      return;
    Slots[Id] = V;
    Mgr.noteWrite(Id);
  }

  /// A parse-cache entry: the interned parse plus the memoized WaitPlan
  /// for that shape (filled on first use; plans are never evicted, so the
  /// pointer is stable). Saves a plan-cache hash lookup per parsed wait.
  struct ParseEntry {
    ExprRef Expr = nullptr;
    const WaitPlan *Plan = nullptr;
  };

  ParseEntry &parseCached(std::string_view Pred);

  /// An EDSL wait that blocks, type-erased for the out-of-line pipeline:
  /// its call-site key and slot values as scanned from the template, and
  /// a callback that builds the template's tree for the paths that need
  /// one.
  struct EdslWait {
    PlanCache::SiteKey Key;
    /// False when the shape has more literals than a plan has slots (or
    /// no shape id yet): the wait is keyless, like a Legacy shape's.
    bool Keyed = false;
    const Value *Bound = nullptr;
    size_t NumBound = 0;
    const void *Expr = nullptr;
    /// Builds the tree in the arena: the slotted skeleton when a plan
    /// cache is given (first use of a key), else the concrete predicate.
    ExprRef (*Build)(const void *Expr, ExprArena &A,
                     PlanCache *Slots) = nullptr;
  };

  /// Stack storage for one EDSL wait: scans \p X into its key and slot
  /// values and checks that every leaf is this monitor's.
  template <typename E> struct EdslFrame {
    using T = edsl::Traits<E>;
    static_assert(T::Type == TypeKind::Bool,
                  "waitUntil requires a bool predicate");

    E Node;
    int64_t Words[T::KeyWords + 1];
    Value Bound[T::Slots + 1];
    EdslWait W;

    EdslFrame(const Monitor &M, const E &X) : Node(X) {
      edsl::Scan S{&M, Words, Bound};
      edsl::scan(Node, S);
      AUTOSYNCH_CHECK(S.Owned, "predicate built against a different monitor");
      W.Key = {edsl::ShapeId<E>, Words, T::KeyWords};
      // Keyless also while the shape id is not yet assigned (static
      // initialization order).
      W.Keyed = T::Slots <= WaitPlan::MaxSlots && W.Key.Shape != 0;
      W.Bound = Bound;
      W.NumBound = T::Slots;
      W.Expr = &Node;
      W.Build = &build;
    }

    EdslFrame(const EdslFrame &) = delete;
    EdslFrame &operator=(const EdslFrame &) = delete;

    static ExprRef build(const void *P, ExprArena &A, PlanCache *Slots) {
      const E &X = *static_cast<const E *>(P);
      if (!Slots)
        return edsl::buildConcrete(X, A);
      size_t Next[2] = {0, 0}; // Per type: $i0, $i1, ... and $b0, ...
      auto Slot = [&](Value V) {
        VarId Id = Slots->slotVar(Next[V.isBool()]++, V.type());
        return A.var(Id, V.type());
      };
      return edsl::build(X, A, Slot);
    }
  };

  /// An EDSL wait's checks and its already-true check (Fig. 6 checks P
  /// first), inline so that a wait that does not block never calls into
  /// the wait pipeline. The template evaluates itself over the shared
  /// slots. An unsatisfiable predicate is never true, and a check whose
  /// arithmetic wrapped reads false, so both go on to the plan's exact
  /// verdict in dispatchWait.
  template <typename E> bool edslHolds(const EdslFrame<E> &F) const {
    AUTOSYNCH_CHECK(ownedByCaller(), "waitUntil outside the monitor");
    AUTOSYNCH_CHECK(Depth == 1,
                    "waitUntil from a nested monitor region would deadlock");
    return edsl::holds(F.Node, Slots.data());
  }

  /// The plan of an EDSL call site; its first use builds the skeleton.
  const WaitPlan *sitePlan(const EdslWait &W);

  /// Exactly one of \p Entry (parsed) and \p Edsl is set.
  bool waitUntilImpl(const Env &Locals, ParseEntry *Entry,
                     const EdslWait *Edsl, const TimedSpec &TS);
  /// Picks the plan and resolves its key, then hands the blocking wait to
  /// the policy's entry point. A parsed wait makes its already-true check
  /// here, once its plan is bound; an EDSL wait has made it already
  /// (edslHolds) and arrives only to block.
  bool dispatchWait(const Env &Locals, ParseEntry *Entry,
                    const EdslWait *Edsl, const TimedSpec &TS);

  /// Heterogeneous string hashing so the parse-cache hit path looks up by
  /// string_view without materializing a std::string key.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>{}(S);
    }
    size_t operator()(const std::string &S) const {
      return std::hash<std::string_view>{}(S);
    }
  };

  MonitorConfig Cfg;
  sync::Mutex Lock;
  ExprArena Arena;
  SymbolTable Syms;
  std::vector<Value> Slots;
  detail::SlotEnv SharedSlots;
  ConditionManager Mgr;
  PlanCache Plans;
  std::unordered_map<std::string, ParseEntry, StringHash, std::equal_to<>>
      ParseCache;
  /// The owning thread's callerToken(), null while no thread owns the
  /// monitor.
  std::atomic<const void *> Owner{nullptr};
  int Depth = 0;
  /// Where a blocking keyed wait resolves its signature (under the lock;
  /// see ConditionManager::WaitKey).
  WaitPlan::Scratch PlanScratch;
};

} // namespace autosynch

#endif // AUTOSYNCH_CORE_MONITOR_H
