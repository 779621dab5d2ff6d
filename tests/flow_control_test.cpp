// Directed flow-control tests: credit exhaustion and replenishment with
// no reverse traffic (standalone credit returns), slot cycling, and
// argument validation.
#include <gtest/gtest.h>

#include <string>

#include "src/runtime/world.h"

namespace lcmpi::mpi {
namespace {

using fabric::FlowControl;
using runtime::LoopWorld;

fabric::LoopFabric::Options credit_opts(std::int64_t credit) {
  fabric::LoopFabric::Options opt;
  opt.caps.flow = FlowControl::kCredit;
  opt.caps.credit_bytes = credit;
  opt.caps.eager_threshold = 1024;
  return opt;
}

TEST(CreditFlowTest, OneWayFloodReplenishesViaStandaloneCredits) {
  // 100 eager messages of 512 B against a 2 KB reserve, with NO reverse
  // application traffic: progress depends on the receiver's explicit
  // credit-return messages (the paper's "once freed, the receiver informs
  // the sender that the space can be reused").
  LoopWorld w(2, credit_opts(2048));
  int received = 0;
  w.run([&](Comm& c, sim::Actor&) {
    constexpr int kN = 100;
    Bytes buf(512, std::byte{9});
    if (c.rank() == 0) {
      for (int i = 0; i < kN; ++i)
        c.send(buf.data(), 512, Datatype::byte_type(), 1, 0);
    } else {
      Bytes in(512);
      for (int i = 0; i < kN; ++i) {
        c.recv(in.data(), 512, Datatype::byte_type(), 0, 0);
        ++received;
      }
    }
  });
  EXPECT_EQ(received, 100);
}

TEST(CreditFlowTest, RendezvousEnvelopesAlsoConsumeCredit) {
  // RTS envelopes are charged the control-record size; a flood of large
  // messages must also recycle credit.
  LoopWorld w(2, credit_opts(128));  // fits only ~5 RTS records
  int received = 0;
  w.run([&](Comm& c, sim::Actor&) {
    constexpr int kN = 30;
    Bytes buf(4096, std::byte{1});
    if (c.rank() == 0) {
      for (int i = 0; i < kN; ++i)
        c.send(buf.data(), 4096, Datatype::byte_type(), 1, 0);
    } else {
      Bytes in(4096);
      for (int i = 0; i < kN; ++i) {
        c.recv(in.data(), 4096, Datatype::byte_type(), 0, 0);
        ++received;
      }
    }
  });
  EXPECT_EQ(received, 30);
}

TEST(CreditFlowTest, SynchronousSendsUnderTightCredit) {
  LoopWorld w(2, credit_opts(600));
  w.run([&](Comm& c, sim::Actor&) {
    Bytes buf(512, std::byte{2});
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i)
        c.send(buf.data(), 512, Datatype::byte_type(), 1, 0, Mode::kSynchronous);
    } else {
      Bytes in(512);
      for (int i = 0; i < 10; ++i)
        c.recv(in.data(), 512, Datatype::byte_type(), 0, 0);
    }
  });
  SUCCEED();
}

TEST(CreditFlowTest, SendLargerThanTheWindowRaisesNamingBothParameters) {
  // Eager threshold == the 16 KiB window: a 16 KiB eager send needs its
  // 25 B control record on top, more credit than the receiver can ever
  // grant. It must fail at isend instead of waiting forever; 25 B less
  // fits and is delivered. The receiver never posts the refused message.
  fabric::LoopFabric::Options opt = credit_opts(16 * 1024);
  opt.caps.pull_bulk = false;
  EngineConfig cfg;
  cfg.eager_threshold_override = 16 * 1024;
  LoopWorld w(2, opt, cfg);
  Err code = Err::kSuccess;
  std::string error;
  std::int64_t delivered = -1;
  w.run([&](Comm& c, sim::Actor&) {
    Bytes buf(16 * 1024, std::byte{4});
    if (c.rank() == 0) {
      try {
        c.send(buf.data(), 16 * 1024, Datatype::byte_type(), 1, 0);
      } catch (const MpiError& e) {
        code = e.code();
        error = e.what();
      }
      c.send(buf.data(), 16 * 1024 - 25, Datatype::byte_type(), 1, 1);
    } else {
      delivered = c.recv(buf.data(), 16 * 1024, Datatype::byte_type(), 0, 1).count_bytes;
    }
  });
  EXPECT_EQ(code, Err::kResources);
  EXPECT_NE(error.find("eager_threshold = 16384"), std::string::npos) << error;
  EXPECT_NE(error.find("credit_bytes = 16384"), std::string::npos) << error;
  EXPECT_EQ(delivered, 16 * 1024 - 25);
}

TEST(SlotFlowTest, SingleSlotCyclesThroughManyMessages) {
  fabric::LoopFabric::Options opt;
  opt.caps.flow = FlowControl::kSingleSlot;
  LoopWorld w(2, opt);
  int received = 0;
  w.run([&](Comm& c, sim::Actor&) {
    constexpr int kN = 50;
    std::int32_t v = 1;
    if (c.rank() == 0) {
      for (int i = 0; i < kN; ++i) c.send(&v, 1, Datatype::int32_type(), 1, 0);
    } else {
      for (int i = 0; i < kN; ++i) {
        c.recv(&v, 1, Datatype::int32_type(), 0, 0);
        ++received;
      }
    }
  });
  EXPECT_EQ(received, 50);
}

TEST(SlotFlowTest, SlotsAreIndependentPerDestination) {
  fabric::LoopFabric::Options opt;
  opt.caps.flow = FlowControl::kSingleSlot;
  LoopWorld w(3, opt);
  w.run([&](Comm& c, sim::Actor& self) {
    std::int32_t v = c.rank();
    if (c.rank() == 0) {
      // Fire one message at each destination back to back; the second
      // must not wait for the first destination's slot.
      auto r1 = c.isend(&v, 1, Datatype::int32_type(), 1, 0);
      auto r2 = c.isend(&v, 1, Datatype::int32_type(), 2, 0);
      EXPECT_TRUE(r1->launched);
      EXPECT_TRUE(r2->launched);
      c.wait(r1);
      c.wait(r2);
    } else {
      self.advance(milliseconds(1));
      std::int32_t got = -1;
      c.recv(&got, 1, Datatype::int32_type(), 0, 0);
      EXPECT_EQ(got, 0);
    }
  });
}

TEST(BadArgsTest, InvalidSendArgumentsRaise) {
  LoopWorld w(2);
  w.run([&](Comm& c, sim::Actor&) {
    std::int32_t v = 1;
    if (c.rank() == 0) {
      EXPECT_THROW(c.send(&v, -1, Datatype::int32_type(), 1, 0), MpiError);  // count
      EXPECT_THROW(c.send(&v, 1, Datatype::int32_type(), 1, -3), MpiError);  // tag
      EXPECT_THROW(c.engine().isend(&v, 1, Datatype::int32_type(), 99, 0, 0,
                                    Mode::kStandard),
                   MpiError);  // rank out of range
    }
    c.barrier();
  });
}

TEST(CreditClampTest, PiggybackGrantClampsAtWireFieldBoundary) {
  // The wire's credit field is u32; owed_ is an int64 byte balance. The
  // old static_cast silently dropped the high bits — a 4 GiB+1 balance
  // became 1 byte of credit and the rest vanished, eventually wedging the
  // sender. clamp_credit must conserve the balance across the split.
  constexpr std::int64_t kMax = std::numeric_limits<std::uint32_t>::max();

  EXPECT_EQ(clamp_credit(0).grant, 0u);
  EXPECT_EQ(clamp_credit(0).remainder, 0);
  EXPECT_EQ(clamp_credit(1).grant, 1u);
  EXPECT_EQ(clamp_credit(1).remainder, 0);

  // At the boundary: exactly representable, nothing carried.
  EXPECT_EQ(clamp_credit(kMax).grant, std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(clamp_credit(kMax).remainder, 0);

  // One past: the old cast produced grant == 0 here (all credit lost).
  EXPECT_EQ(clamp_credit(kMax + 1).grant, std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(clamp_credit(kMax + 1).remainder, 1);

  // Far past: conservation grant + remainder == owed, repeatedly applied
  // until drained.
  std::int64_t owed = 3 * kMax + 12345;
  std::uint64_t granted = 0;
  int rounds = 0;
  while (owed > 0) {
    const CreditGrant g = clamp_credit(owed);
    EXPECT_EQ(static_cast<std::int64_t>(g.grant) + g.remainder, owed);
    granted += g.grant;
    owed = g.remainder;
    ++rounds;
  }
  EXPECT_EQ(granted, static_cast<std::uint64_t>(3 * kMax + 12345));
  EXPECT_EQ(rounds, 4);  // three full fields + the tail

  // Extreme: no UB, no loss at int64 max.
  EXPECT_EQ(clamp_credit(std::numeric_limits<std::int64_t>::max()).remainder,
            std::numeric_limits<std::int64_t>::max() - kMax);
}

TEST(BadArgsTest, InvalidRecvArgumentsRaise) {
  LoopWorld w(2);
  w.run([&](Comm& c, sim::Actor&) {
    std::int32_t v = 1;
    if (c.rank() == 0) {
      EXPECT_THROW(c.engine().irecv(&v, 1, Datatype::int32_type(), 42, 0, 0), MpiError);
      EXPECT_THROW(c.recv(&v, -2, Datatype::int32_type(), 1, 0), MpiError);
    }
    c.barrier();
  });
}

}  // namespace
}  // namespace lcmpi::mpi
