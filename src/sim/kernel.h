// Deterministic discrete-event simulation kernel with cooperative actors.
//
// The kernel owns a virtual clock and an event list. Two kinds of code run
// on top of it:
//
//  * event handlers — plain callbacks executed on the kernel thread; the
//    network models (links, switches, co-processors) are written this way;
//  * actors — sequential "processes" (one per MPI rank, one per modelled
//    co-processor loop) that may block on virtual time or on Triggers.
//
// The kernel enforces that exactly one of {kernel, some actor} runs at any
// instant, handing control back and forth. That makes the whole simulation
// single-threaded in effect: deterministic, race-free on shared state, and
// repeatable event order (ties broken by insertion sequence).
//
// Each actor runs as a stackful fiber (src/sim/fiber.h): a user-space
// coroutine switched in a few dozen instructions. The switch goes through
// the ActorContext interface only so that tests can substitute a
// std::thread + mutex/condvar handoff (tests/thread_actor_context.h) as a
// differential oracle; Kernel(ActorContextMaker) is that seam, and nothing
// in the library uses it. Which actor starts, yields or wakes, and in what
// order, is decided by the event list alone, so the mechanism cannot move
// virtual time.
//
// Deadlock detection falls out naturally: if the event list drains while
// actors are still blocked, no future wakeup can exist, and the kernel
// reports which actors were stuck — which is exactly what a hung MPI
// program looks like, so the tests use it to assert deadlock behaviour.
//
// Hot-path design: the dominant event kinds — actor wakeups from advance()
// / Trigger notifies, and actor starts — carry their payload inline in the
// Event record instead of a std::function, so scheduling them performs no
// heap allocation. Cancellation state lives in a pooled slab indexed by
// (cell, generation) instead of a per-event shared_ptr; callback events
// and cancellable timers borrow a cell from the free list and return it
// when they fire.
//
// The event list is a binary heap over a vector. Events pop in strictly
// increasing (time, seq) order, where seq is the kernel-assigned insertion
// sequence number, so the executed schedule — and every virtual-time
// observable — is a pure function of what was scheduled
// (tests/sched_property_test.cpp checks it against an independent sort).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/util/status.h"
#include "src/util/time.h"

namespace lcmpi::sim {

class Kernel;
class Actor;
class StackPool;  // src/sim/fiber.h

/// Thrown by Kernel::run when every remaining actor is blocked and the event
/// list is empty (no wakeup can ever arrive).
class SimDeadlock : public std::runtime_error {
 public:
  explicit SimDeadlock(std::string what) : std::runtime_error(std::move(what)) {}
};

/// Thrown when virtual time passes the watchdog limit (a livelock guard:
/// retransmission storms and poll loops generate events forever, which a
/// deadlock detector cannot see).
class SimTimeLimit : public std::runtime_error {
 public:
  explicit SimTimeLimit(std::string what) : std::runtime_error(std::move(what)) {}
};

/// Thrown inside actor blocking calls when the kernel is tearing down; it
/// unwinds the actor's stack (running destructors of locals parked in
/// Mailbox::pop and friends) and the actor body wrapper swallows it so
/// fiber stacks can be recycled.
class ActorCancelled {};

// ------------------------------------------------------- actor execution

/// Host-side counters for actor execution (host_perf and tests; virtual
/// time is unaffected by any of this). Switches count one-way transfers —
/// each kernel→actor resume and each actor→kernel yield is one switch.
struct ActorStats {
  std::uint64_t switches = 0;         // one-way kernel<->actor transfers
  std::uint64_t actors_spawned = 0;
  std::uint64_t stacks_allocated = 0; // fresh fiber stacks mmap'd
  std::uint64_t stack_reuses = 0;     // fiber stacks recycled from the pool
  std::size_t stack_high_water = 0;   // deepest observed fiber stack use
  std::size_t stack_bytes = 0;        // configured usable fiber stack size
};

/// The execution mechanism of one actor: how its body gets a stack and how
/// control transfers between the kernel and that stack. Exactly one side
/// runs at a time; resume() is called on the kernel side only, yield() on
/// the actor side only. The kernel's own implementation is a fiber
/// (kernel.cpp); tests supply another through Kernel(ActorContextMaker).
class ActorContext {
 public:
  virtual ~ActorContext() = default;
  /// Runs or resumes the actor body; returns when it yields or finishes.
  virtual void resume() = 0;
  /// Suspends the actor body; returns when the kernel next resumes it.
  virtual void yield() = 0;
  /// Teardown fast path: if the body never started and this context can
  /// discard it without ever running it (fibers: nothing is parked on a
  /// stack yet), do so and return true. A context whose body is parked
  /// elsewhere (a thread) returns false and is resumed once so it can exit.
  virtual bool discard_if_unstarted() { return false; }
};

/// A waitable condition with condition-variable semantics (no memory): a
/// notify wakes currently blocked waiters only. Blocked actors re-check
/// their predicate in a loop, so this is safe under cooperative scheduling.
class Trigger {
 public:
  Trigger() = default;
  Trigger(const Trigger&) = delete;
  Trigger& operator=(const Trigger&) = delete;
  /// Actors still registered here outlive the trigger only to be cancelled
  /// by kernel teardown; the destructor unlinks them so they do not reach
  /// back into it then.
  ~Trigger();

  void notify_all();
  void notify_one();

  [[nodiscard]] std::size_t waiter_count() const { return waiters_.size(); }

 private:
  friend class Actor;
  friend class Kernel;
  /// Unregisters `a` (it is no longer waiting here) and queues its wake.
  static void wake(Actor* a);

  std::vector<Actor*> waiters_;
  // notify_all drains into this reusable buffer before waking, so a waiter
  // that re-registers (mutating waiters_) cannot invalidate the iteration,
  // and neither vector's capacity is thrown away per notify. `draining_`
  // guards the scratch buffer against re-entrant notify_all on the same
  // trigger (a woken callee notifying the trigger it was woken from): the
  // nested call falls back to a local drain buffer.
  std::vector<Actor*> scratch_;
  bool draining_ = false;
};

/// Handle to a scheduled event; allows cancellation (used for timers).
/// Refers to a pooled (cell, generation) slot in the kernel; safe to hold
/// or cancel after the event fired and even after the kernel is destroyed.
class EventHandle {
 public:
  EventHandle() = default;
  void cancel();
  [[nodiscard]] bool valid() const { return kernel_ != nullptr; }

 private:
  friend class Kernel;
  EventHandle(Kernel* kernel, std::uint32_t cell, std::uint32_t gen,
              std::weak_ptr<const bool> alive)
      : kernel_(kernel), cell_(cell), gen_(gen), alive_(std::move(alive)) {}
  Kernel* kernel_ = nullptr;
  std::uint32_t cell_ = 0;
  std::uint32_t gen_ = 0;
  std::weak_ptr<const bool> alive_;  // expires with the kernel
};

/// A cooperative simulated process. Construct via Kernel::spawn — or via
/// Actor::detached for code that runs on a real OS thread (the
/// shared-memory threads world) but still needs an Actor identity.
class Actor {
 public:
  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;
  ~Actor();

  /// An actor bound to no kernel: each rank of runtime::ThreadsWorld gets
  /// one so Actor::current(), actor-local storage, and the engine's cost
  /// charging keep working on real threads. Virtual-time calls are inert
  /// (now() is the epoch, advance()/wait_until return immediately — host
  /// work takes real time instead); blocking on a Trigger requires a
  /// kernel and throws. Pair with Actor::BindScope on the owning thread.
  [[nodiscard]] static std::unique_ptr<Actor> detached(std::string name);

  /// Binds an actor as Actor::current() for the calling OS thread and
  /// restores the previous binding on destruction. The kernel binds its
  /// own actors (run_body / resume_from_kernel); only detached actors need
  /// this.
  class [[nodiscard]] BindScope {
   public:
    explicit BindScope(Actor* a);
    ~BindScope();
    BindScope(const BindScope&) = delete;
    BindScope& operator=(const BindScope&) = delete;

   private:
    Actor* prev_;
  };

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Kernel& kernel() const {
    LCMPI_CHECK(kernel_ != nullptr, "detached actor has no kernel");
    return *kernel_;
  }
  [[nodiscard]] bool is_detached() const { return kernel_ == nullptr; }
  [[nodiscard]] TimePoint now() const;

  /// Models local computation: blocks this actor for `d` of virtual time.
  /// Like every blocking call below, it throws ActorCancelled on entry once
  /// the kernel is tearing down, before it touches a trigger or queues an
  /// event: an actor that catches the cancellation and blocks again must
  /// not register with a trigger that may already be freed.
  void advance(Duration d);
  void wait_until(TimePoint t);

  /// Blocks until the trigger is notified. Caller re-checks its predicate.
  void wait(Trigger& trigger);

  /// Blocks until the trigger is notified or `timeout` elapses.
  /// Returns true if the trigger fired, false on timeout.
  bool wait_with_timeout(Trigger& trigger, Duration timeout);

  [[nodiscard]] bool finished() const { return finished_; }

  /// The actor whose body the calling code is running inside, or nullptr
  /// on the kernel side. Fibers share the kernel thread, so the kernel
  /// maintains this across switches; a context that runs the body on a
  /// thread of its own has it pinned once on that thread (run_body).
  [[nodiscard]] static Actor* current();

  /// Actor-local storage (one slot, like pthread_setspecific for simulated
  /// processes): ambient per-rank state for layers like the C API whose
  /// functions take no context argument. Plain thread_local is wrong for
  /// that purpose — every fiber shares the kernel thread's slot — so such
  /// layers key off Actor::current() instead. The actor does not own the
  /// pointee.
  void set_local(void* p) { local_ = p; }
  [[nodiscard]] void* local() const { return local_; }

 private:
  friend class Kernel;
  friend class Trigger;

  Actor(Kernel* kernel, std::string name, std::function<void(Actor&)> body);

  /// The body wrapper every actor context runs on the actor's own stack:
  /// skips the body if the kernel is already cancelling, swallows
  /// ActorCancelled (teardown unwind), captures anything else for the
  /// kernel to rethrow.
  void run_body();

  /// Throws ActorCancelled while the kernel tears down: on entry to every
  /// blocking call, and when teardown resumes a blocked actor. Leaves the
  /// actor's trigger first, so no trigger keeps a pointer to an actor the
  /// kernel is about to free.
  void throw_if_cancelling();
  /// Removes this actor from the waiters of the trigger it is registered
  /// with, if any.
  void leave_trigger();

  // Control transfer (called on the actor side).
  void yield_to_kernel();
  // Control transfer (called on the kernel side).
  void resume_from_kernel();

  // Blocks the actor; a wake is delivered by Kernel::wake(this, epoch).
  void block();

  Kernel* kernel_;
  std::string name_;
  std::function<void(Actor&)> body_;
  std::unique_ptr<ActorContext> ctx_;

  bool started_ = false;
  bool finished_ = false;
  std::exception_ptr error_;
  void* local_ = nullptr;  // actor-local storage slot

  // Wakeup bookkeeping (touched only under cooperative scheduling).
  std::uint64_t wake_epoch_ = 0;  // incremented on every block()
  bool blocked_ = false;
  bool woke_by_trigger_ = false;  // result channel for wait_with_timeout
  Trigger* waiting_on_ = nullptr;  // the trigger listing this actor, if any
};

// ------------------------------------------------------------------ kernel

class Kernel {
 public:
  /// Builds the ActorContext of one actor around `run`, the body wrapper
  /// the context must execute on the actor's side.
  using ActorContextMaker =
      std::function<std::unique_ptr<ActorContext>(std::function<void()> run)>;

  /// Actors run as fibers.
  Kernel();
  /// Test seam: every actor runs in the context `make_context` builds
  /// instead of a fiber (the thread oracle, tests/thread_actor_context.h).
  explicit Kernel(ActorContextMaker make_context);
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;
  ~Kernel();

  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `fn` to run on the kernel thread after `delay`.
  EventHandle schedule(Duration delay, std::function<void()> fn);
  EventHandle schedule_at(TimePoint t, std::function<void()> fn);

  /// Creates an actor whose body starts executing at the current time.
  Actor& spawn(std::string name, std::function<void(Actor&)> body);

  /// Runs until the event list is empty and all actors have finished.
  /// Throws SimDeadlock if actors remain blocked with no pending events,
  /// and rethrows the first exception escaping any actor body.
  void run();

  /// Runs until virtual time would exceed `t` (events at exactly `t` run).
  void run_until(TimePoint t);

  /// Arms a watchdog: any event past `limit` makes run() throw
  /// SimTimeLimit instead of executing it.
  void set_time_limit(TimePoint limit) { time_limit_ = limit; }

  [[nodiscard]] std::uint64_t events_executed() const { return events_executed_; }
  [[nodiscard]] std::size_t live_actor_count() const;
  /// Queued events, cancelled ones not yet popped included.
  [[nodiscard]] std::size_t pending_events() const { return events_.size(); }
  /// Context-switch / actor-lifecycle counters, with the fiber stack
  /// pool's numbers.
  [[nodiscard]] ActorStats actor_stats() const;

 private:
  friend class Actor;
  friend class Trigger;
  friend class EventHandle;

  /// Sentinel for "this event holds no cancellation cell".
  static constexpr std::uint32_t kNoCell = 0xFFFFFFFFu;

  /// One pending occurrence in the event list. `seq` is assigned at push
  /// time and makes (time, seq) a strict total order.
  struct Event {
    TimePoint time;
    std::uint64_t seq = 0;
    enum class Kind : std::uint8_t { kFn, kWake, kStart };
    Kind kind = Kind::kFn;
    bool by_trigger = false;        // kWake
    std::uint32_t cell = kNoCell;   // cancellation slot, kNoCell = none
    Actor* actor = nullptr;         // kWake / kStart target
    std::uint64_t epoch = 0;        // kWake staleness check
    std::function<void()> fn;       // kFn only (empty otherwise)
  };

  /// "a fires after b": the heap comparator, so the front pops first.
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  // Pooled cancellation slab. A cell is borrowed while its event is queued
  // and recycled (generation bumped) when the event pops or is skipped.
  struct CancelCell {
    std::uint32_t gen = 0;
    bool cancelled = false;
    bool in_use = false;
  };

  // Schedules a wakeup for a blocked actor (valid only while its epoch
  // matches, so stale notifies and raced timeouts are ignored).
  void wake(Actor* a, std::uint64_t epoch, bool by_trigger);
  /// Allocation-free wake/timer event; with_cell => cancellable via handle.
  EventHandle schedule_wake_at(TimePoint t, Actor* a, std::uint64_t epoch,
                               bool by_trigger, bool with_cell);
  void push_event(Event ev);
  std::uint32_t borrow_cell();
  /// Recycles a cell; returns whether it had been cancelled.
  bool release_cell(std::uint32_t idx);
  void cancel_cell(std::uint32_t idx, std::uint32_t gen);
  void dispatch(Event& ev);
  void transfer_to(Actor* a);
  /// Executes the earliest live event due at or before `until`, dropping
  /// cancelled events ahead of it; false if there is none.
  bool step(TimePoint until);
  void cancel_all_actors();

  /// Constructs the ActorContext for a newly spawned actor.
  std::unique_ptr<ActorContext> make_actor_context(Actor* a);

  TimePoint now_{};
  TimePoint time_limit_ = TimePoint::max();
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_executed_ = 0;
  std::vector<Event> events_;       // binary heap under EventAfter
  ActorContextMaker make_context_;  // empty: fibers from stack_pool_
  std::unique_ptr<StackPool> stack_pool_;
  std::vector<CancelCell> cells_;
  std::vector<std::uint32_t> free_cells_;
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
  std::vector<std::unique_ptr<Actor>> actors_;
  std::uint64_t actor_switches_ = 0;
  std::uint64_t actors_spawned_ = 0;
  bool cancelling_ = false;
  bool running_ = false;
};

}  // namespace lcmpi::sim
