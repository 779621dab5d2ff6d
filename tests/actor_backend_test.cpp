// Differential tests for the kernel's actor mechanism: fibers (the
// production kernel) and the thread + mutex/condvar oracle
// (tests/thread_actor_context.h, entered through the Kernel test seam) must
// make *identical* scheduling decisions — which actor starts, yields, or
// wakes, and in what order, is decided by the kernel's event list alone,
// so every observable trace and every virtual timestamp must be
// bit-identical across the two. Only host time differs.
//
// Also covers the fiber side on its own: the stack size read from the
// environment, actor-local storage (Actor::current / set_local),
// cancellation unwind through blocking primitives, and the fiber stack
// pool's reuse accounting.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/fiber.h"
#include "src/sim/kernel.h"
#include "src/sim/mailbox.h"
#include "src/util/env.h"
#include "tests/scoped_env.h"
#include "tests/thread_actor_context.h"

namespace lcmpi::sim {
namespace {

/// One observable step of the mixed workload: who did what, and when on
/// the virtual clock. Both mechanisms must produce identical sequences.
struct TraceEntry {
  std::string what;
  std::int64_t at_ns;
  bool operator==(const TraceEntry& o) const {
    return what == o.what && at_ns == o.at_ns;
  }
};

/// A deliberately tangled workload: trigger ping-pong with notify_one and
/// notify_all, timed waits that both fire and time out, a mailbox consumer
/// fed from an event handler, and interleaved advance() calls. Returns the
/// full observable trace plus the final clock and event count.
struct WorkloadResult {
  std::vector<TraceEntry> trace;
  std::int64_t final_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t switches = 0;
};

WorkloadResult run_mixed_workload(ActorMechanism mechanism) {
  WorkloadResult out;
  const std::unique_ptr<Kernel> kp = make_kernel(mechanism);
  Kernel& k = *kp;
  Trigger ping, pong, crowd;
  Mailbox<int> mb;
  int turn = 0;
  const auto log = [&](const std::string& what) {
    out.trace.push_back({what, k.now().ns});
  };

  k.spawn("ping", [&](Actor& self) {
    log("ping:start");
    for (int i = 0; i < 3; ++i) {
      self.advance(microseconds(2));
      turn = 1;
      pong.notify_one();
      while (turn != 0) self.wait(ping);
      log("ping:round" + std::to_string(i));
    }
    crowd.notify_all();
    log("ping:done");
  });
  k.spawn("pong", [&](Actor& self) {
    log("pong:start");
    for (int i = 0; i < 3; ++i) {
      while (turn != 1) self.wait(pong);
      self.advance(microseconds(1));
      turn = 0;
      ping.notify_one();
      log("pong:round" + std::to_string(i));
    }
  });
  // Two actors parked on the same trigger: notify_all wake order must be
  // registration order under both mechanisms.
  for (const char* name : {"crowd-a", "crowd-b"}) {
    k.spawn(name, [&, name](Actor& self) {
      log(std::string(name) + ":start");
      self.wait(crowd);
      log(std::string(name) + ":woke");
    });
  }
  k.spawn("timed", [&](Actor& self) {
    const bool fired = self.wait_with_timeout(crowd, microseconds(1));
    log(fired ? "timed:fired" : "timed:timeout");
    const bool fired2 = self.wait_with_timeout(crowd, milliseconds(100));
    log(fired2 ? "timed2:fired" : "timed2:timeout");
  });
  k.spawn("consumer", [&](Actor& self) {
    for (int i = 0; i < 2; ++i)
      log("consumer:got" + std::to_string(mb.pop(self)));
  });
  k.schedule(microseconds(3), [&] { mb.push(7); });
  k.schedule(microseconds(9), [&] { mb.push(8); });

  k.run();
  out.final_ns = k.now().ns;
  out.events = k.events_executed();
  out.switches = k.actor_stats().switches;
  return out;
}

TEST(ActorBackendTest, MixedWorkloadTraceIdenticalAcrossBackends) {
  const WorkloadResult fib = run_mixed_workload(ActorMechanism::kFibers);
  const WorkloadResult thr = run_mixed_workload(ActorMechanism::kThreads);
  ASSERT_EQ(fib.trace.size(), thr.trace.size());
  for (std::size_t i = 0; i < fib.trace.size(); ++i) {
    EXPECT_EQ(fib.trace[i].what, thr.trace[i].what) << "step " << i;
    EXPECT_EQ(fib.trace[i].at_ns, thr.trace[i].at_ns) << "step " << i;
  }
  EXPECT_EQ(fib.final_ns, thr.final_ns);
  EXPECT_EQ(fib.events, thr.events);
  // Switch counting is mechanism-invariant: same schedule, same transfers.
  EXPECT_EQ(fib.switches, thr.switches);
  EXPECT_GT(fib.switches, 0u);
}

void check_current_and_local(ActorMechanism mechanism) {
  const std::unique_ptr<Kernel> kp = make_kernel(mechanism);
  Kernel& k = *kp;
  int slot_a = 1, slot_b = 2;
  Trigger tick;
  bool kernel_side_null = false;
  std::vector<int> seen;
  const auto body = [&](int* slot) {
    return [&, slot](Actor& self) {
      EXPECT_EQ(Actor::current(), &self) << mechanism_name(mechanism);
      self.set_local(slot);
      for (int i = 0; i < 2; ++i) {
        self.wait(tick);
        // After resumption the ambient identity must still be this actor,
        // even though another actor (with its own local) ran in between.
        EXPECT_EQ(Actor::current(), &self);
        seen.push_back(*static_cast<int*>(Actor::current()->local()));
      }
    };
  };
  k.spawn("a", body(&slot_a));
  k.spawn("b", body(&slot_b));
  for (int i = 1; i <= 2; ++i) {
    k.schedule(microseconds(i), [&] {
      kernel_side_null = Actor::current() == nullptr;
      tick.notify_all();
    });
  }
  k.run();
  EXPECT_TRUE(kernel_side_null);
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 1, 2}));
}

TEST(ActorBackendTest, ActorCurrentAndLocalSlotPerActor) {
  for (const ActorMechanism m : kBothMechanisms) check_current_and_local(m);
}

/// Sets a flag when destroyed — proof that an actor's stack unwound.
struct UnwindSentinel {
  explicit UnwindSentinel(bool* flag) : flag_(flag) {}
  ~UnwindSentinel() { *flag_ = true; }
  bool* flag_;
};

void check_cancellation_unwind(ActorMechanism mechanism) {
  bool unwound = false, mailbox_unwound = false;
  {
    const std::unique_ptr<Kernel> kp = make_kernel(mechanism);
    Kernel& k = *kp;
    Trigger never;
    auto mb = std::make_shared<Mailbox<int>>();
    k.spawn("stuck", [&](Actor& self) {
      UnwindSentinel s(&unwound);
      self.wait(never);  // no notify is ever scheduled
    });
    k.spawn("reader", [&, mb](Actor& self) {
      UnwindSentinel s(&mailbox_unwound);
      (void)mb->pop(self);  // parked inside Mailbox::pop's wait loop
    });
    k.schedule(microseconds(1), [] {});
    k.run_until(TimePoint{microseconds(1).ns});
    EXPECT_FALSE(unwound);
    // Kernel destruction cancels both actors: ActorCancelled must unwind
    // through wait() and through Mailbox::pop, running local destructors.
  }
  EXPECT_TRUE(unwound);
  EXPECT_TRUE(mailbox_unwound);
}

TEST(ActorBackendTest, CancellationUnwindsBlockedActors) {
  for (const ActorMechanism m : kBothMechanisms) check_cancellation_unwind(m);
}

TEST(ActorBackendTest, FiberStacksAreReusedAcrossActorLifetimes) {
  Kernel k;
  constexpr int kActors = 50;
  int done = 0;
  // Sequential lifetimes: each actor finishes before the next starts, so
  // one stack should serve everybody.
  std::function<void(int)> chain = [&](int i) {
    if (i == kActors) return;
    k.spawn("worker" + std::to_string(i), [&, i](Actor& self) {
      volatile char burn[2048];  // force measurable stack use
      for (std::size_t j = 0; j < sizeof burn; j += 64) burn[j] = 1;
      self.advance(microseconds(1));
      ++done;
      chain(i + 1);
    });
  };
  chain(0);
  k.run();
  EXPECT_EQ(done, kActors);
  const ActorStats s = k.actor_stats();
  EXPECT_EQ(s.actors_spawned, static_cast<std::uint64_t>(kActors));
  EXPECT_EQ(s.stacks_allocated, 1u);
  EXPECT_EQ(s.stack_reuses, static_cast<std::uint64_t>(kActors - 1));
  EXPECT_GE(s.stack_high_water, sizeof(char) * 2048);
  EXPECT_LT(s.stack_high_water, s.stack_bytes);
  EXPECT_GT(s.stack_bytes, 0u);
}

/// Pages of `s` below `depth` bytes from its top that are resident.
std::size_t resident_pages_below(const FiberStack& s, std::size_t depth) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> vec(s.usable() / page);
  EXPECT_EQ(::mincore(s.base(), s.usable(), vec.data()), 0);
  const std::size_t below = (s.usable() - depth) / page;
  std::size_t resident = 0;
  for (std::size_t p = 0; p < below; ++p) resident += vec[p] & 1;
  return resident;
}

TEST(ActorBackendTest, ReleasingAShallowStackCostsItsDepthNotItsSize) {
  // The release scan starts at the lowest resident page, so a shallow
  // fiber's release faults in none of the pages below its depth, and the
  // depth it reports is exact.
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  StackPool pool(std::size_t{1} << 20);
  {
    Fiber f(pool, [](void*) {
      volatile char burn[1024];
      for (std::size_t j = 0; j < sizeof burn; j += 64) burn[j] = 1;
    }, nullptr);
    f.switch_in();
    ASSERT_TRUE(f.finished());
  }
  const std::size_t fiber_depth = pool.stats().high_water;
  EXPECT_GE(fiber_depth, 1024u);
  EXPECT_LT(fiber_depth, 16 * page);
  FiberStack* s = pool.acquire();  // the same stack: LIFO reuse
  const std::size_t fiber_pages = (fiber_depth + page - 1) / page;
  EXPECT_EQ(resident_pages_below(*s, fiber_pages * page), 0u);

  // A known depth: the deepest write lands 3 pages less 40 bytes below top.
  const std::size_t depth = 3 * page - 40;
  std::memset(static_cast<std::byte*>(s->top()) - depth, 0x7f, depth);
  pool.release(s);
  EXPECT_EQ(pool.stats().high_water, std::max(depth, fiber_depth));
  EXPECT_EQ(s->touched(), 0u);  // reset() zeroed what the release measured
  EXPECT_EQ(resident_pages_below(*s, std::max(3 * page, fiber_pages * page)), 0u);
}

TEST(ActorBackendTest, FiberStackSizeFromEnvIsParsedStrictly) {
  // A suffix is junk, not a unit: "1M" must fail naming the variable and
  // the value, not read as 1 KiB and hand every fiber a one-page stack.
  {
    ScopedEnv scope("LCMPI_FIBER_STACK_KB", "1M");
    try {
      (void)fiber_stack_bytes_from_env();
      ADD_FAILURE() << "LCMPI_FIBER_STACK_KB=1M was accepted";
    } catch (const env::EnvError& e) {
      EXPECT_NE(std::string(e.what()).find("LCMPI_FIBER_STACK_KB=\"1M\""),
                std::string::npos)
          << e.what();
    }
  }
  {
    ScopedEnv scope("LCMPI_FIBER_STACK_KB", "256");
    EXPECT_EQ(fiber_stack_bytes_from_env(), std::size_t{256} * 1024);
  }
  ScopedEnv unset("LCMPI_FIBER_STACK_KB", nullptr);
  EXPECT_EQ(fiber_stack_bytes_from_env(), std::size_t{1} << 20);
}

TEST(ActorBackendTest, NeverStartedFiberActorAllocatesNoStack) {
  bool ran = false;
  {
    Kernel k;
    k.spawn("never", [&](Actor&) { ran = true; });
    // No run(): the start event never fires and the fiber is created
    // lazily, so no stack has been borrowed yet.
    EXPECT_EQ(k.actor_stats().stacks_allocated, 0u);
  }
  // Teardown discarded the unstarted actor without ever running its body.
  EXPECT_FALSE(ran);
}

TEST(ActorBackendTest, ThreadContextHandshakeIsDirectlyExercisable) {
  // The reference context, driven bare: resume runs the body to its first
  // yield; a second resume finishes it; the destructor joins the thread.
  std::vector<int> order;
  ThreadActorContext* ctx_ptr = nullptr;
  ThreadActorContext ctx([&] {
    order.push_back(1);
    ctx_ptr->yield();
    order.push_back(3);
  });
  ctx_ptr = &ctx;
  EXPECT_FALSE(ctx.discard_if_unstarted());  // threads must be resumed out
  order.push_back(0);
  ctx.resume();
  order.push_back(2);
  ctx.resume();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ActorBackendTest, SwitchCountersTrackResumes) {
  for (const ActorMechanism m : kBothMechanisms) {
    const std::unique_ptr<Kernel> k = make_kernel(m);
    k->spawn("hop", [](Actor& self) {
      for (int i = 0; i < 5; ++i) self.advance(microseconds(1));
    });
    k->run();
    const ActorStats s = k->actor_stats();
    // 1 start + 5 wakeups, each a resume+yield pair = 2 one-way switches.
    EXPECT_EQ(s.switches, 12u) << mechanism_name(m);
    EXPECT_EQ(s.actors_spawned, 1u) << mechanism_name(m);
  }
}

}  // namespace
}  // namespace lcmpi::sim
