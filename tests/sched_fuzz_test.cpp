// Fuzz: EventHandle lifecycle under the pooled (cell, generation)
// cancellation slab. Random interleavings of schedule / fire / cancel /
// double-cancel / stale-cancel-after-reuse, executed in run_until chunks so
// cancels race in-flight events at every phase. Invariants:
//
//  * a callback fires at most once;
//  * a callback cancelled before its fire time never fires;
//  * a live callback always fires;
//  * a cancel issued after the fire is a no-op (never kills the event that
//    recycled the pooled cell — the generation check).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/sim/kernel.h"
#include "src/util/rng.h"

namespace lcmpi::sim {
namespace {

struct TimerRecord {
  EventHandle handle;
  std::int64_t due_ns = 0;
  int fires = 0;
  bool cancel_before_due = false;  // cancel() issued while still pending
};

void run_lifecycle_fuzz(std::uint64_t seed) {
  constexpr int kTimers = 600;
  constexpr std::int64_t kHorizonNs = 2'000'000;  // 2 ms of virtual time
  Kernel k;
  Rng rng(seed);
  std::vector<TimerRecord> timers(kTimers);

  auto arm = [&](int id) {
    TimerRecord& t = timers[static_cast<std::size_t>(id)];
    const std::int64_t now = k.now().ns;
    const std::int64_t delay =
        rng.chance(0.1) ? rng.uniform(kHorizonNs, kHorizonNs * 20)  // far spill
                        : rng.uniform(0, kHorizonNs / 4);
    t.due_ns = now + delay;
    t.handle = k.schedule_at(TimePoint{t.due_ns}, [&t, &k] {
      ++t.fires;
      EXPECT_EQ(k.now().ns, t.due_ns);
    });
  };

  int next_timer = 0;
  std::int64_t chunk_end = 0;
  while (next_timer < kTimers || k.pending_events() > 0) {
    // Mutate between chunks: arm new timers, cancel/recancel old ones.
    const int burst = static_cast<int>(1 + rng.next_below(8));
    for (int i = 0; i < burst && next_timer < kTimers; ++i) arm(next_timer++);
    const int cancels = static_cast<int>(rng.next_below(6));
    for (int i = 0; i < cancels && next_timer > 0; ++i) {
      const int id = static_cast<int>(rng.next_below(
          static_cast<std::uint64_t>(next_timer)));
      TimerRecord& t = timers[static_cast<std::size_t>(id)];
      // Record intent only when the timer is genuinely still pending; a
      // cancel aimed at a fired timer must be a harmless stale-handle hit
      // on a recycled cell.
      if (t.fires == 0 && t.due_ns > k.now().ns && !t.cancel_before_due)
        t.cancel_before_due = true;
      t.handle.cancel();
      if (rng.chance(0.3)) t.handle.cancel();  // double-cancel: idempotent
    }
    chunk_end += rng.uniform(1, kHorizonNs / 8);
    k.run_until(TimePoint{chunk_end});
  }
  k.run();

  for (int id = 0; id < kTimers; ++id) {
    const TimerRecord& t = timers[static_cast<std::size_t>(id)];
    EXPECT_LE(t.fires, 1) << "timer " << id << " double-fired, seed " << seed;
    if (t.cancel_before_due)
      EXPECT_EQ(t.fires, 0) << "cancelled timer " << id << " fired, seed " << seed;
    else
      EXPECT_EQ(t.fires, 1) << "live timer " << id << " lost, seed " << seed;
  }
}

TEST(SchedFuzzTest, LifecycleInvariantsHold) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) run_lifecycle_fuzz(seed);
}

TEST(SchedFuzzTest, CellReuseNeverCrossCancels) {
  // Deterministic tight loop on the recycling path: every iteration fires
  // one timer (returning its cell to the pool), arms a new one that reuses
  // the cell, then cancels through the stale handle. The new timer must
  // survive.
  Kernel k;
  int fired = 0;
  EventHandle stale;
  for (int i = 0; i < 1000; ++i) {
    EventHandle h = k.schedule(microseconds(1), [&fired] { ++fired; });
    k.run();  // fires; cell recycled
    stale.cancel();  // aims at a generation long gone
    stale = h;
  }
  EXPECT_EQ(fired, 1000);
}

TEST(SchedFuzzTest, CancelStormWhileQueueRebuilds) {
  // Interleaves mass-cancellation with far-future arming, so most of the
  // event list is cancelled tombstones while it drains and refills. The
  // survivors must still fire exactly once, in time order.
  Kernel k;
  Rng rng(7);
  std::vector<std::int64_t> fired_at;
  for (int round = 0; round < 50; ++round) {
    std::vector<EventHandle> doomed;
    const std::int64_t base = k.now().ns;
    for (int i = 0; i < 100; ++i) {
      const std::int64_t at = base + rng.uniform(1, 50'000);
      if (i % 10 == 0) {
        k.schedule_at(TimePoint{at}, [&fired_at, &k] {
          fired_at.push_back(k.now().ns);
        });
      } else {
        doomed.push_back(k.schedule_at(TimePoint{at}, [] { FAIL(); }));
      }
    }
    // One far event per round, pending across later rounds.
    k.schedule_at(TimePoint{base + 10'000'000 + round}, [] {});
    for (EventHandle& h : doomed) h.cancel();
    k.run();
  }
  EXPECT_EQ(fired_at.size(), 500u);
  for (std::size_t i = 1; i < fired_at.size(); ++i)
    EXPECT_LE(fired_at[i - 1], fired_at[i]);
}

}  // namespace
}  // namespace lcmpi::sim
