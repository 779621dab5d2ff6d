// Edge cases in the simulation kernel and the machine/network models.
#include <gtest/gtest.h>

#include "src/atmnet/atm.h"
#include "src/atmnet/ethernet.h"
#include "src/meiko/machine.h"
#include "src/sim/mailbox.h"
#include "src/sim/server.h"
#include "tests/thread_actor_context.h"

namespace lcmpi {
namespace {

TEST(SimEdgeTest, CancelAfterFireIsHarmless) {
  sim::Kernel k;
  bool ran = false;
  sim::EventHandle h = k.schedule(microseconds(1), [&] { ran = true; });
  k.run();
  EXPECT_TRUE(ran);
  h.cancel();  // already fired: must not crash or affect anything
}

TEST(SimEdgeTest, ZeroTimeoutWaitReturnsPromptly) {
  sim::Kernel k;
  sim::Trigger tr;
  bool fired = true;
  k.spawn("w", [&](sim::Actor& self) {
    fired = self.wait_with_timeout(tr, Duration{0});
  });
  k.run();
  EXPECT_FALSE(fired);
}

TEST(SimEdgeTest, MailboxTimeoutSuccessPath) {
  sim::Kernel k;
  sim::Mailbox<int> mb;
  std::optional<int> got;
  k.spawn("c", [&](sim::Actor& self) {
    got = mb.pop_with_timeout(self, milliseconds(10));
  });
  k.schedule(microseconds(100), [&] { mb.push(5); });
  k.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 5);
}

TEST(SimEdgeTest, FifoServerIdleAtTracksBacklog) {
  sim::Kernel k;
  sim::FifoServer srv(k);
  k.schedule(Duration{0}, [&] {
    EXPECT_EQ(srv.idle_at().ns, 0);
    srv.submit(microseconds(10), [] {});
    EXPECT_EQ(srv.idle_at().ns, 10'000);
    EXPECT_EQ(srv.backlog(), 1u);
  });
  k.run();
  EXPECT_EQ(srv.backlog(), 0u);
}

TEST(SimEdgeTest, ActorFinishingWithoutBlockingIsClean) {
  sim::Kernel k;
  int order = 0;
  k.spawn("instant", [&](sim::Actor&) { order = 1; });
  k.run();
  EXPECT_EQ(order, 1);
  EXPECT_EQ(k.live_actor_count(), 0u);
}

// ------------------------------------------------------ kernel teardown
// Destroying a kernel mid-run must tear every actor down deterministically
// on fibers and on the thread oracle alike: blocked actors unwind via
// ActorCancelled, never-started actors are discarded, and — the hard case
// — an actor that *catches* the cancellation and blocks again is cancelled
// again until its body actually exits (no leaked fiber stack, no unjoined
// thread), without touching the trigger it tried to block on.

void run_teardown_midway(sim::ActorMechanism mechanism) {
  int stubborn_catches = 0;
  bool unwound = false;
  bool late_ran = false;
  {
    const std::unique_ptr<sim::Kernel> kp = sim::make_kernel(mechanism);
    sim::Kernel& k = *kp;
    sim::Trigger never;  // declared after the kernel: freed before teardown
    sim::Mailbox<int> mb;
    k.spawn("stubborn", [&](sim::Actor& self) {
      try {
        (void)mb.pop(self);
      } catch (const sim::ActorCancelled&) {
        ++stubborn_catches;
        self.wait(never);  // re-blocks during teardown: must be re-cancelled
      }
    });
    k.spawn("plain", [&](sim::Actor& self) {
      struct Sentinel {
        bool* flag;
        ~Sentinel() { *flag = true; }
      } s{&unwound};
      self.wait(never);
    });
    k.schedule(microseconds(1), [] {});
    k.run_until(TimePoint{microseconds(1).ns});
    // "late" is spawned but its start event never fires before teardown.
    k.spawn("late", [&](sim::Actor&) { late_ran = true; });
  }
  EXPECT_EQ(stubborn_catches, 1);
  EXPECT_TRUE(unwound);
  EXPECT_FALSE(late_ran);
}

TEST(SimEdgeTest, TeardownMidRunCancelsActorsUnderFibers) {
  run_teardown_midway(sim::ActorMechanism::kFibers);
}

TEST(SimEdgeTest, TeardownMidRunCancelsActorsUnderThreads) {
  run_teardown_midway(sim::ActorMechanism::kThreads);
}

TEST(SimEdgeTest, TeardownWithoutRunDiscardsAllActors) {
  for (const sim::ActorMechanism m : sim::kBothMechanisms) {
    bool ran = false;
    {
      const std::unique_ptr<sim::Kernel> k = sim::make_kernel(m);
      for (int i = 0; i < 4; ++i)
        k->spawn("unstarted", [&](sim::Actor&) { ran = true; });
    }
    EXPECT_FALSE(ran) << sim::mechanism_name(m);
  }
}

TEST(SimEdgeTest, TeardownLeavesNoWaiterOnATriggerThatOutlivesTheKernel) {
  // A trigger the kernel does not outlive must list no actor once the
  // kernel is gone, or a later notify reaches a freed actor. One actor is
  // blocked on it when teardown starts; two more catch the cancellation
  // and then try to block on it, which must throw again before they
  // register.
  for (const sim::ActorMechanism m : sim::kBothMechanisms) {
    sim::Trigger outlives;  // declared before the kernel: destroyed after it
    int catches = 0;
    {
      const std::unique_ptr<sim::Kernel> k = sim::make_kernel(m);
      k->spawn("blocked", [&](sim::Actor& self) { self.wait(outlives); });
      k->spawn("waits", [&](sim::Actor& self) {
        try {
          self.advance(milliseconds(1));
        } catch (const sim::ActorCancelled&) {
          ++catches;
          self.wait(outlives);
        }
      });
      k->spawn("waits-with-timeout", [&](sim::Actor& self) {
        try {
          self.advance(milliseconds(1));
        } catch (const sim::ActorCancelled&) {
          ++catches;
          (void)self.wait_with_timeout(outlives, milliseconds(1));
        }
      });
      k->run_until(TimePoint{microseconds(1).ns});
    }
    EXPECT_EQ(catches, 2) << sim::mechanism_name(m);
    EXPECT_EQ(outlives.waiter_count(), 0u) << sim::mechanism_name(m);
    outlives.notify_all();  // must touch no actor
  }
}

TEST(MeikoEdgeTest, BroadcastPayloadChargesPerByteOnSourceElan) {
  sim::Kernel k;
  meiko::Machine m(k, 3);
  std::int64_t at_small = -1, at_big = -1;
  m.node(1).set_bcast_handler(1, [&](meiko::TxnDelivery d) {
    if (d.data.size() == 16) at_small = k.now().ns;
    else at_big = k.now().ns;
  });
  m.node(2).set_bcast_handler(1, [](meiko::TxnDelivery) {});
  k.schedule(Duration{0}, [&] { m.broadcast(0, 1, meiko::Bytes(16)); });
  k.schedule(milliseconds(1), [&] { m.broadcast(0, 1, meiko::Bytes(4096)); });
  k.run();
  ASSERT_GT(at_small, 0);
  ASSERT_GT(at_big, 0);
  const meiko::Calib c;
  const std::int64_t delta_expected = (c.txn_per_byte * (4096 - 16)).ns;
  EXPECT_EQ((at_big - 1'000'000) - at_small, delta_expected);
}

TEST(MeikoEdgeTest, StagedDmaLeakDetection) {
  sim::Kernel k;
  meiko::Machine m(k, 2);
  k.schedule(Duration{0}, [&] {
    (void)m.node(0).stage_dma(meiko::Bytes(100));
    (void)m.node(0).stage_dma(meiko::Bytes(200));
  });
  k.run();
  EXPECT_EQ(m.node(0).staged_dma_count(), 2u);  // never pulled: visible leak
}

TEST(AtmEdgeTest, EmptyPduStillOccupiesOneCell) {
  sim::Kernel k;
  atmnet::AtmNetwork net(k, 2);
  EXPECT_EQ(net.cells_for(0), 1);  // AAL5 trailer alone needs a cell
}

TEST(EthernetEdgeTest, LossDropsBroadcastForAllReceiversAtomically) {
  sim::Kernel k;
  atmnet::EthernetNetwork net(k, 4);
  net.set_loss(0.5, 7);
  std::vector<int> per_host(4, 0);
  for (int h = 0; h < 4; ++h)
    net.set_handler(h, [&, h](int, Bytes) { ++per_host[static_cast<std::size_t>(h)]; });
  k.schedule(Duration{0}, [&] {
    for (int i = 0; i < 40; ++i) net.broadcast(0, Bytes(8));
  });
  k.run();
  // A dropped broadcast is dropped for everyone: receivers agree exactly.
  EXPECT_EQ(per_host[1], per_host[2]);
  EXPECT_EQ(per_host[2], per_host[3]);
  EXPECT_GT(per_host[1], 5);
  EXPECT_LT(per_host[1], 35);
}

TEST(EthernetEdgeTest, MinimumFramePaddingAppliesBelowFortySixBytes) {
  sim::Kernel k;
  atmnet::EthernetNetwork net(k, 2);
  EXPECT_EQ(net.frame_time(1).ns, net.frame_time(46).ns);
  EXPECT_GT(net.frame_time(47).ns, net.frame_time(46).ns);
}

}  // namespace
}  // namespace lcmpi
