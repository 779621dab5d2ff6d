// Model-based property test of the kernel's event list. The determinism
// contract every golden virtual-time figure rests on fits in one sentence:
// callback events execute in strictly increasing (time, schedule index)
// order, a cancelled event never executes, and run_until(t) executes
// exactly the live events due at or before t.
//
// Each workload drives a real Kernel with seeded schedule_at calls — bursts
// at one timestamp (the FIFO tie-break), far-future events, follow-ups
// scheduled from inside callbacks (at the current time too), cancels of
// pending and of already-fired handles, from outside and from inside
// callbacks — executed in run_until chunks. It checks the executed order
// against an independent sort of the surviving (time, schedule index)
// pairs, and the run_until boundary after every chunk.
//
// At the bottom, a seeded actor/timer workload runs on both actor
// mechanisms (fibers and the thread oracle of tests/thread_actor_context.h)
// and must produce the identical trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/kernel.h"
#include "src/util/rng.h"
#include "tests/thread_actor_context.h"

namespace lcmpi::sim {
namespace {

// ------------------------------------------------------ event-list model

struct Workload {
  std::uint64_t seed = 1;
  int ops = 3000;
  double p_schedule = 0.6;    // else cancel (p_cancel) or run a chunk
  double p_cancel = 0.1;      // also: chance a callback cancels something
  double p_burst = 0.1;       // same-timestamp burst of 2..17 events
  double p_far = 0.05;        // far-future event
  double p_follow_up = 0.2;   // chance a callback schedules a follow-up
  std::int64_t near_ns = 50'000;          // near-horizon spread
  std::int64_t far_ns = 50'000'000'000;   // far-horizon spread (~50 s)
};

struct Scheduled {
  std::int64_t time_ns = 0;
  EventHandle handle;
  bool cancelled = false;  // cancel() issued while still pending
  bool fired = false;
};

void check_against_model(const Workload& cfg) {
  Kernel k;
  Rng rng(cfg.seed);
  std::deque<Scheduled> events;     // index = schedule index
  std::vector<std::size_t> executed;  // schedule indices, execution order

  const auto cancel_random = [&] {
    if (events.empty()) return;
    Scheduled& e = events[rng.next_below(events.size())];
    if (!e.fired) e.cancelled = true;  // pending: must never run
    e.handle.cancel();                 // fired: a stale, harmless cancel
  };
  std::function<void(std::int64_t)> schedule = [&](std::int64_t t_ns) {
    const std::size_t idx = events.size();
    events.push_back(Scheduled{t_ns, {}, false, false});
    events[idx].handle = k.schedule_at(TimePoint{t_ns}, [&, idx] {
      Scheduled& e = events[idx];
      EXPECT_FALSE(e.fired) << "event " << idx << " ran twice";
      EXPECT_FALSE(e.cancelled) << "cancelled event " << idx << " ran";
      EXPECT_EQ(k.now().ns, e.time_ns) << "event " << idx;
      e.fired = true;
      executed.push_back(idx);
      if (rng.chance(cfg.p_follow_up))
        schedule(k.now().ns + (rng.chance(0.5) ? 0 : rng.uniform(1, cfg.near_ns)));
      if (rng.chance(cfg.p_cancel)) cancel_random();
    });
  };

  for (int op = 0; op < cfg.ops; ++op) {
    const std::int64_t now = k.now().ns;
    const double r = rng.next_double();
    if (r < cfg.p_schedule) {
      const double kind = rng.next_double();
      if (kind < cfg.p_burst) {
        const std::int64_t t = now + rng.uniform(0, cfg.near_ns);
        const int n = static_cast<int>(2 + rng.next_below(16));
        for (int i = 0; i < n; ++i) schedule(t);
      } else if (kind < cfg.p_burst + cfg.p_far) {
        schedule(now + cfg.near_ns + rng.uniform(1, cfg.far_ns));
      } else {
        schedule(now + rng.uniform(0, cfg.near_ns));
      }
    } else if (r < cfg.p_schedule + cfg.p_cancel) {
      cancel_random();
    } else {
      const std::int64_t until = now + rng.uniform(0, cfg.near_ns);
      k.run_until(TimePoint{until});
      ASSERT_EQ(k.now().ns, until) << "op " << op << " seed " << cfg.seed;
      for (std::size_t i = 0; i < events.size(); ++i) {
        const Scheduled& e = events[i];
        ASSERT_EQ(e.fired, !e.cancelled && e.time_ns <= until)
            << "event " << i << " at " << e.time_ns << " after run_until("
            << until << "), op " << op << " seed " << cfg.seed;
      }
    }
  }
  k.run();

  std::vector<std::size_t> model;
  for (std::size_t i = 0; i < events.size(); ++i)
    if (!events[i].cancelled) model.push_back(i);
  std::sort(model.begin(), model.end(), [&](std::size_t a, std::size_t b) {
    if (events[a].time_ns != events[b].time_ns)
      return events[a].time_ns < events[b].time_ns;
    return a < b;
  });
  ASSERT_EQ(executed, model) << "seed " << cfg.seed;
  EXPECT_EQ(k.pending_events(), 0u);
}

TEST(SchedPropertyTest, RandomPushPopAgreesAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Workload cfg;
    cfg.seed = seed;
    check_against_model(cfg);
  }
}

TEST(SchedPropertyTest, BurstHeavyWorkloadKeepsFifoTieBreak) {
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    Workload cfg;
    cfg.seed = seed;
    cfg.p_burst = 0.6;  // mostly same-timestamp bursts
    cfg.near_ns = 500;  // few distinct timestamps -> heavy collisions
    check_against_model(cfg);
  }
}

TEST(SchedPropertyTest, FarFutureEventsSurfaceInOrder) {
  for (std::uint64_t seed = 200; seed < 210; ++seed) {
    Workload cfg;
    cfg.seed = seed;
    cfg.p_far = 0.4;  // a large standing far-future population
    check_against_model(cfg);
  }
}

TEST(SchedPropertyTest, PopHeavyDrainAndRefill) {
  for (std::uint64_t seed = 300; seed < 310; ++seed) {
    Workload cfg;
    cfg.seed = seed;
    cfg.p_schedule = 0.35;  // the list repeatedly drains to near-empty
    check_against_model(cfg);
  }
}

// ------------------------------------------------------ actor mechanisms

// One seeded workload of actors, cancellable timers, reschedules (cancel +
// re-arm), and trigger traffic. Returns the full observable trace.
struct KernelTrace {
  std::vector<std::string> events;     // "<ns>:<label>" in execution order
  std::vector<int> cancelled;          // timer ids whose callbacks never ran
  std::int64_t final_ns = 0;
  std::uint64_t executed = 0;
};

KernelTrace run_kernel_workload(ActorMechanism mechanism, std::uint64_t seed) {
  KernelTrace trace;
  const std::unique_ptr<Kernel> kp = make_kernel(mechanism);
  Kernel& k = *kp;
  Rng rng(seed);
  Trigger tick;
  std::vector<EventHandle> handles(64);
  std::vector<bool> ran(512, false);

  // A driver actor that schedules, cancels, and reschedules timers.
  k.spawn("driver", [&](Actor& self) {
    int next_id = 0;
    for (int round = 0; round < 120; ++round) {
      const double r = rng.next_double();
      if (r < 0.5 && next_id < 512) {
        const int id = next_id++;
        const int slot = id % 64;
        const Duration d = microseconds(rng.uniform(1, 400));
        handles[slot] = k.schedule(d, [&trace, &ran, &k, id] {
          ran[static_cast<std::size_t>(id)] = true;
          trace.events.push_back(std::to_string(k.now().ns) + ":t" + std::to_string(id));
        });
      } else if (r < 0.7) {
        handles[rng.next_below(64)].cancel();  // may be stale/fired: no-op
      } else if (r < 0.85 && next_id < 512) {
        // Reschedule: cancel a slot then arm a fresh timer in it.
        const int slot = static_cast<int>(rng.next_below(64));
        handles[static_cast<std::size_t>(slot)].cancel();
        const int id = next_id++;
        const Duration d = microseconds(rng.uniform(1, 400));
        handles[static_cast<std::size_t>(slot)] =
            k.schedule(d, [&trace, &ran, &k, id] {
              ran[static_cast<std::size_t>(id)] = true;
              trace.events.push_back(std::to_string(k.now().ns) + ":t" +
                                     std::to_string(id));
            });
      } else {
        tick.notify_all();
      }
      self.advance(microseconds(rng.uniform(1, 50)));
    }
    tick.notify_all();
  });

  // Waiter actors racing timeouts against trigger notifies (exercises the
  // allocation-free wake path and cell recycling under both mechanisms).
  for (int w = 0; w < 3; ++w) {
    k.spawn("waiter" + std::to_string(w), [&, w](Actor& self) {
      for (int i = 0; i < 40; ++i) {
        const bool fired = self.wait_with_timeout(tick, microseconds(37 + w * 13));
        trace.events.push_back(std::to_string(self.now().ns) + ":w" +
                               std::to_string(w) + (fired ? "+" : "-"));
      }
    });
  }

  k.run();
  for (int id = 0; id < 512; ++id)
    if (!ran[static_cast<std::size_t>(id)]) trace.cancelled.push_back(id);
  trace.final_ns = k.now().ns;
  trace.executed = k.events_executed();
  return trace;
}

TEST(SchedPropertyTest, KernelWorkloadIdenticalAcrossBackends) {
  // Timers, cancels and timed trigger waits on fibers and on the thread
  // oracle: which actor runs when is the event list's decision alone.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const KernelTrace fib = run_kernel_workload(ActorMechanism::kFibers, seed);
    const KernelTrace thr = run_kernel_workload(ActorMechanism::kThreads, seed);
    ASSERT_EQ(fib.events, thr.events) << "seed " << seed;
    EXPECT_EQ(fib.cancelled, thr.cancelled) << "seed " << seed;
    EXPECT_EQ(fib.final_ns, thr.final_ns) << "seed " << seed;
    EXPECT_EQ(fib.executed, thr.executed) << "seed " << seed;
  }
}

}  // namespace
}  // namespace lcmpi::sim
