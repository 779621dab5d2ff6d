#include "src/sim/kernel.h"

#include <algorithm>

#include "src/sim/fiber.h"

namespace lcmpi::sim {

// ---------------------------------------------------------------- Trigger

Trigger::~Trigger() {
  for (Actor* a : waiters_) a->waiting_on_ = nullptr;
}

void Trigger::wake(Actor* a) {
  a->waiting_on_ = nullptr;
  a->kernel().wake(a, a->wake_epoch_, /*by_trigger=*/true);
}

void Trigger::notify_all() {
  if (waiters_.empty()) return;
  if (draining_) {
    // Re-entrant notify on the same trigger (a synchronously-run callee
    // notifying the trigger it is being drained from): the scratch buffer
    // is busy holding the outer drain, so take a local one. Only waiters
    // registered since the outer drain began are here — the outer loop
    // already owns the earlier registrations.
    std::vector<Actor*> local;
    local.swap(waiters_);
    for (Actor* a : local) wake(a);
    return;
  }
  // Drain into the reusable scratch buffer first: a woken actor only gets a
  // wake *event* here (it runs later), but being defensive about re-entrant
  // registration keeps the iteration valid even if wake() ever runs waiter
  // code synchronously. Swapping (not copying) preserves both capacities.
  draining_ = true;
  scratch_.swap(waiters_);
  for (Actor* a : scratch_) wake(a);
  scratch_.clear();
  draining_ = false;
  // Shrink policy: a burst (e.g. a barrier over a large world) should not
  // pin its high-water capacity forever.
  if (scratch_.capacity() > 1024) scratch_.shrink_to_fit();
}

void Trigger::notify_one() {
  if (waiters_.empty()) return;
  Actor* a = waiters_.front();
  waiters_.erase(waiters_.begin());
  wake(a);
}

// ------------------------------------------------------------ EventHandle

void EventHandle::cancel() {
  if (kernel_ != nullptr && !alive_.expired()) kernel_->cancel_cell(cell_, gen_);
  kernel_ = nullptr;
  alive_.reset();
}

// ------------------------------------------------------------ fiber actors

namespace {

/// Each actor body runs on a pooled fiber stack. The Fiber is created
/// lazily on the first resume (the kStart event), so an actor cancelled
/// before it ever ran never allocates a stack — that is what
/// discard_if_unstarted() exploits during teardown.
class FiberActorContext final : public ActorContext {
 public:
  FiberActorContext(StackPool& pool, std::function<void()> run)
      : pool_(pool), run_(std::move(run)) {}

  void resume() override {
    if (!fiber_)
      fiber_ = std::make_unique<Fiber>(pool_, &FiberActorContext::entry, this);
    fiber_->switch_in();
  }

  void yield() override { fiber_->switch_out(); }

  bool discard_if_unstarted() override { return fiber_ == nullptr; }

 private:
  static void entry(void* self) {
    static_cast<FiberActorContext*>(self)->run_();
  }

  StackPool& pool_;
  std::function<void()> run_;
  std::unique_ptr<Fiber> fiber_;
};

}  // namespace

// ----------------------------------------------------------------- Actor

namespace {
// The actor the calling code is executing inside, nullptr on the kernel
// side. Fibers share the kernel thread, and resume_from_kernel() maintains
// the slot across switches. thread_local so that detached actors on real
// threads, and a test context that runs an actor body on a thread of its
// own (run_body pins that thread's slot once), each see their own.
thread_local Actor* g_current_actor = nullptr;
}  // namespace

Actor* Actor::current() { return g_current_actor; }

Actor::Actor(Kernel* kernel, std::string name, std::function<void(Actor&)> body)
    : kernel_(kernel), name_(std::move(name)), body_(std::move(body)) {}

Actor::~Actor() = default;

std::unique_ptr<Actor> Actor::detached(std::string name) {
  // Not make_unique: the constructor is private and only befriends types.
  return std::unique_ptr<Actor>(new Actor(nullptr, std::move(name), nullptr));
}

Actor::BindScope::BindScope(Actor* a) : prev_(g_current_actor) {
  g_current_actor = a;
}

Actor::BindScope::~BindScope() { g_current_actor = prev_; }

TimePoint Actor::now() const {
  return kernel_ == nullptr ? TimePoint{} : kernel_->now();
}

void Actor::run_body() {
  g_current_actor = this;  // pins the slot for bodies on their own thread
  if (!kernel_->cancelling_) {
    try {
      body_(*this);
    } catch (const ActorCancelled&) {
      // Kernel teardown: unwind quietly.
    } catch (...) {
      error_ = std::current_exception();
    }
  }
  finished_ = true;
}

void Actor::throw_if_cancelling() {
  if (!kernel_->cancelling_) return;
  leave_trigger();
  throw ActorCancelled{};
}

void Actor::leave_trigger() {
  if (waiting_on_ == nullptr) return;
  auto& ws = waiting_on_->waiters_;
  ws.erase(std::remove(ws.begin(), ws.end(), this), ws.end());
  waiting_on_ = nullptr;
}

void Actor::yield_to_kernel() {
  ctx_->yield();
  throw_if_cancelling();
}

void Actor::resume_from_kernel() {
  // Each resume comes back via exactly one yield (or the body finishing),
  // so count both one-way transfers here.
  kernel_->actor_switches_ += 2;
  g_current_actor = this;  // fibers run on this thread; see Actor::current
  ctx_->resume();
  g_current_actor = nullptr;
}

void Actor::block() {
  blocked_ = true;
  ++wake_epoch_;
  yield_to_kernel();
  blocked_ = false;
}

void Actor::advance(Duration d) {
  LCMPI_CHECK(d.ns >= 0, "advance by negative duration");
  wait_until(now() + d);
}

void Actor::wait_until(TimePoint t) {
  if (kernel_ == nullptr) return;  // detached: host work takes real time
  throw_if_cancelling();
  if (t <= now()) return;
  const std::uint64_t epoch = wake_epoch_ + 1;  // epoch block() will assign
  kernel_->schedule_wake_at(t, this, epoch, /*by_trigger=*/false,
                            /*with_cell=*/false);
  block();
}

void Actor::wait(Trigger& trigger) {
  LCMPI_CHECK(kernel_ != nullptr, "detached actor cannot wait on a sim Trigger");
  throw_if_cancelling();
  trigger.waiters_.push_back(this);
  waiting_on_ = &trigger;
  block();
}

bool Actor::wait_with_timeout(Trigger& trigger, Duration timeout) {
  LCMPI_CHECK(kernel_ != nullptr, "detached actor cannot wait on a sim Trigger");
  throw_if_cancelling();
  trigger.waiters_.push_back(this);
  waiting_on_ = &trigger;
  const std::uint64_t epoch = wake_epoch_ + 1;
  EventHandle timer = kernel_->schedule_wake_at(
      kernel_->now() + timeout, this, epoch, /*by_trigger=*/false, /*with_cell=*/true);
  woke_by_trigger_ = false;
  block();
  timer.cancel();
  if (!woke_by_trigger_) leave_trigger();  // timed out: drop the registration
  return woke_by_trigger_;
}

// ----------------------------------------------------------------- Kernel

Kernel::Kernel() : Kernel(ActorContextMaker{}) {}

Kernel::Kernel(ActorContextMaker make_context)
    : make_context_(std::move(make_context)),
      stack_pool_(std::make_unique<StackPool>()) {
  events_.reserve(64);
}

Kernel::~Kernel() { cancel_all_actors(); }

void Kernel::cancel_all_actors() {
  cancelling_ = true;
  for (auto& a : actors_) {
    // Resume until the body has actually finished: an actor that catches
    // ActorCancelled and blocks again gets cancelled again, so no fiber
    // stack stays parked. An actor whose body never started is discarded
    // outright when its context allows (fibers: no stack exists yet); a
    // context that parks the body elsewhere is resumed once so it exits.
    while (!a->finished_) {
      if (!a->started_ && a->ctx_->discard_if_unstarted()) {
        a->finished_ = true;
        break;
      }
      a->resume_from_kernel();
    }
  }
}

ActorStats Kernel::actor_stats() const {
  ActorStats s;
  s.switches = actor_switches_;
  s.actors_spawned = actors_spawned_;
  const StackPoolStats& p = stack_pool_->stats();
  s.stacks_allocated = p.allocated;
  s.stack_reuses = p.reused;
  s.stack_high_water = p.high_water;
  s.stack_bytes = p.stack_bytes;
  return s;
}

std::unique_ptr<ActorContext> Kernel::make_actor_context(Actor* a) {
  std::function<void()> run = [a] { a->run_body(); };
  if (make_context_) return make_context_(std::move(run));
  return std::make_unique<FiberActorContext>(*stack_pool_, std::move(run));
}

std::uint32_t Kernel::borrow_cell() {
  if (free_cells_.empty()) {
    cells_.push_back(CancelCell{});
    free_cells_.push_back(static_cast<std::uint32_t>(cells_.size() - 1));
  }
  const std::uint32_t idx = free_cells_.back();
  free_cells_.pop_back();
  cells_[idx].cancelled = false;
  cells_[idx].in_use = true;
  return idx;
}

bool Kernel::release_cell(std::uint32_t idx) {
  CancelCell& c = cells_[idx];
  const bool was_cancelled = c.cancelled;
  c.in_use = false;
  c.cancelled = false;
  ++c.gen;  // invalidates outstanding handles to this borrow
  free_cells_.push_back(idx);
  return was_cancelled;
}

void Kernel::cancel_cell(std::uint32_t idx, std::uint32_t gen) {
  if (idx < cells_.size() && cells_[idx].in_use && cells_[idx].gen == gen)
    cells_[idx].cancelled = true;
}

void Kernel::push_event(Event ev) {
  LCMPI_CHECK(ev.time >= now_, "schedule_at in the past");
  ev.seq = next_seq_++;
  events_.push_back(std::move(ev));
  std::push_heap(events_.begin(), events_.end(), EventAfter{});
}

EventHandle Kernel::schedule(Duration delay, std::function<void()> fn) {
  LCMPI_CHECK(delay.ns >= 0, "schedule with negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

EventHandle Kernel::schedule_at(TimePoint t, std::function<void()> fn) {
  Event ev;
  ev.time = t;
  ev.kind = Event::Kind::kFn;
  ev.fn = std::move(fn);
  ev.cell = borrow_cell();
  EventHandle h(this, ev.cell, cells_[ev.cell].gen, alive_);
  push_event(std::move(ev));
  return h;
}

EventHandle Kernel::schedule_wake_at(TimePoint t, Actor* a, std::uint64_t epoch,
                                     bool by_trigger, bool with_cell) {
  Event ev;
  ev.time = t;
  ev.kind = Event::Kind::kWake;
  ev.actor = a;
  ev.epoch = epoch;
  ev.by_trigger = by_trigger;
  EventHandle h;
  if (with_cell) {
    ev.cell = borrow_cell();
    h = EventHandle(this, ev.cell, cells_[ev.cell].gen, alive_);
  }
  push_event(std::move(ev));
  return h;
}

Actor& Kernel::spawn(std::string name, std::function<void(Actor&)> body) {
  actors_.push_back(std::unique_ptr<Actor>(new Actor(this, std::move(name), std::move(body))));
  Actor* a = actors_.back().get();
  a->ctx_ = make_actor_context(a);
  ++actors_spawned_;
  Event ev;
  ev.time = now_;
  ev.kind = Event::Kind::kStart;
  ev.actor = a;
  push_event(std::move(ev));
  return *a;
}

void Kernel::wake(Actor* a, std::uint64_t epoch, bool by_trigger) {
  schedule_wake_at(now_, a, epoch, by_trigger, /*with_cell=*/false);
}

void Kernel::transfer_to(Actor* a) {
  a->resume_from_kernel();
  if (a->finished_ && a->error_) {
    std::exception_ptr err = a->error_;
    a->error_ = nullptr;
    std::rethrow_exception(err);
  }
}

std::size_t Kernel::live_actor_count() const {
  std::size_t n = 0;
  for (const auto& a : actors_)
    if (!a->finished_) ++n;
  return n;
}

void Kernel::dispatch(Event& ev) {
  switch (ev.kind) {
    case Event::Kind::kFn:
      ev.fn();
      break;
    case Event::Kind::kWake: {
      Actor* a = ev.actor;
      if (a->finished_ || !a->blocked_ || a->wake_epoch_ != ev.epoch) return;  // stale
      a->woke_by_trigger_ = ev.by_trigger;
      transfer_to(a);
      break;
    }
    case Event::Kind::kStart:
      ev.actor->started_ = true;
      transfer_to(ev.actor);
      break;
  }
}

bool Kernel::step(TimePoint until) {
  // The bound is checked per popped event, not only before the first: a
  // cancelled event due by `until` must not let a live one past it run.
  while (!events_.empty() && events_.front().time <= until) {
    std::pop_heap(events_.begin(), events_.end(), EventAfter{});
    Event ev = std::move(events_.back());
    events_.pop_back();
    if (ev.cell != kNoCell && release_cell(ev.cell)) continue;  // cancelled
    LCMPI_CHECK(ev.time >= now_, "event list went backwards");
    if (ev.time > time_limit_)
      throw SimTimeLimit("virtual time limit exceeded at " + to_string(ev.time));
    now_ = ev.time;
    ++events_executed_;
    dispatch(ev);
    return true;
  }
  return false;
}

namespace {
struct FlagGuard {
  bool& flag;
  explicit FlagGuard(bool& f) : flag(f) { flag = true; }
  ~FlagGuard() { flag = false; }
};
}  // namespace

void Kernel::run() {
  LCMPI_CHECK(!running_, "Kernel::run is not reentrant");
  FlagGuard guard(running_);
  while (step(TimePoint::max())) {
  }
  // Event list empty: either everything finished, or we are deadlocked.
  std::string stuck;
  for (const auto& a : actors_) {
    if (a->started_ && !a->finished_) {
      if (!stuck.empty()) stuck += ", ";
      stuck += a->name();
    }
  }
  if (!stuck.empty())
    throw SimDeadlock("simulation deadlock at " + to_string(now_) +
                      "; blocked actors: " + stuck);
}

void Kernel::run_until(TimePoint t) {
  LCMPI_CHECK(!running_, "Kernel::run is not reentrant");
  FlagGuard guard(running_);
  while (step(t)) {
  }
  if (now_ < t) now_ = t;
}

}  // namespace lcmpi::sim
