// ThreadsWorld conformance + threads-only behavior. The cross-world
// battery itself lives in tests/world_conformance.h, shared with the
// multi-process socket backend (socket_world_test.cpp); this file binds it
// to ThreadsWorld and adds what only makes sense with threads (ring
// parking, detached-actor identity under one address space).
//
// This file is the first place the MPI core executes under true
// concurrency, so CI also runs it under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/capi/mpi.h"
#include "src/runtime/world.h"
#include "tests/world_conformance.h"

namespace lcmpi {
namespace {

using mpi::Datatype;
using namespace lcmpi::conformance;

std::vector<RankLog> run_on_threads(int nranks, const Program& prog,
                                    fabric::ShmFabric::Options opt = {},
                                    const mpi::EngineConfig& cfg = {}) {
  std::vector<RankLog> logs(static_cast<std::size_t>(nranks));
  runtime::ThreadsWorld world(nranks, opt, cfg);
  // Each rank thread writes only its own slot; join() publishes them all.
  world.run([&prog, &logs](mpi::Comm& comm, sim::Actor&) {
    prog(comm, logs[static_cast<std::size_t>(comm.rank())]);
  });
  return logs;
}

/// Runs `prog` on both worlds and asserts rank-by-rank identical logs.
void conform(int nranks, const Program& prog, fabric::ShmFabric::Options opt = {},
             const mpi::EngineConfig& cfg = {}) {
  expect_logs_equal(run_on_loop(nranks, prog, cfg), run_on_threads(nranks, prog, opt, cfg));
}

// ---------------------------------------------------------------- tests

TEST(ThreadsWorldConformance, EagerAndRendezvousPingPong) {
  conform(2, pingpong_program);
}

TEST(ThreadsWorldConformance, WildcardGatherPerStreamOrdering) {
  conform(4, wildcard_gather_program);
}

TEST(ThreadsWorldConformance, NonblockingAllPairs) {
  conform(4, nonblocking_program);
}

TEST(ThreadsWorldConformance, SendrecvRing) {
  conform(4, sendrecv_ring_program);
}

TEST(ThreadsWorldConformance, Collectives) {
  conform(4, collectives_program);
}

TEST(ThreadsWorldConformance, CollectiveAlgorithmBattery) {
  // The engine-v2 battery (crossover-straddling sizes, non-commutative
  // user-op fold order, zero-length and sub/self-comm collectives), once
  // per forced software algorithm and once under auto-selection.
  for (const mpi::coll::Algo algo : mpi::coll::kAllAlgos) {
    mpi::EngineConfig cfg;
    cfg.coll.force = algo;
    conform(4, coll_battery_program, {}, cfg);
  }
  conform(4, coll_battery_program);
}

TEST(ThreadsWorldConformance, CollectiveAlgorithmBatteryOddSize) {
  mpi::EngineConfig cfg;
  cfg.coll.force = mpi::coll::Algo::kRing;
  conform(3, coll_battery_program, {}, cfg);
}

TEST(ThreadsWorldConformance, CreditExhaustion) {
  conform(2, credit_exhaustion_program);
}

TEST(ThreadsWorldConformance, CreditExhaustionTinyRings) {
  // 8-slot rings force the transport-level backpressure path (producer
  // parks on a full ring) underneath the MPI-level credit protocol.
  fabric::ShmFabric::Options opt;
  opt.ring_slots = 8;
  conform(2, credit_exhaustion_program, opt);
}

TEST(ThreadsWorldConformance, MixedTrafficDirectBulkHandoff) {
  // Rendezvous payloads cross threads via the registered-buffer direct
  // copy, eager chatter via the rings.
  conform(2, mixed_traffic_program);
}

TEST(ThreadsWorldConformance, TruncatedRendezvousBothPlanes) {
  // Truncation through the direct copy: bytes past the posted buffer
  // are dropped and the Status reports them.
  conform(2, truncation_program);
}

TEST(ThreadsWorldTest, DirectBulkHandoffCountsTransfers) {
  runtime::ThreadsWorld world(2);
  world.run([](mpi::Comm& c, sim::Actor&) {
    const auto byte = Datatype::byte_type();
    constexpr std::size_t kBig = 1 << 20;
    if (c.rank() == 0) {
      std::vector<unsigned char> out(kBig, 0x3c);
      c.send(out.data(), static_cast<int>(kBig), byte, 1, 8);
    } else {
      std::vector<unsigned char> in(kBig);
      c.recv(in.data(), static_cast<int>(kBig), byte, 0, 8);
      for (const unsigned char v : in)
        if (v != 0x3c) throw std::runtime_error("bulk payload corrupted");
    }
  });
  const fabric::ShmFabric::Stats s = world.fabric().stats();
  EXPECT_EQ(s.bulk_transfers, 1u);
  EXPECT_EQ(s.bulk_bytes, std::uint64_t{1} << 20);
}

TEST(ThreadsWorldTest, RingsAreCreatedOnFirstSend) {
  // A pair's ring exists once its sender has sent, and never before: a
  // 2-rank ping-pong builds 0->1 and 1->0 however many round trips it
  // makes, and a 4-rank r <-> r^1 exchange builds four rings, not the
  // sixteen of a full mesh.
  const auto exchange = [](mpi::Comm& c, sim::Actor&) {
    const auto i32 = Datatype::int32_type();
    const int peer = c.rank() ^ 1;
    for (int i = 0; i < 10; ++i) {
      std::int32_t v = c.rank() * 100 + i;
      if (c.rank() < peer) {
        c.send(&v, 1, i32, peer, 3);
        c.recv(&v, 1, i32, peer, 4);
      } else {
        c.recv(&v, 1, i32, peer, 3);
        c.send(&v, 1, i32, peer, 4);
      }
      if (v != std::min(c.rank(), peer) * 100 + i)
        throw std::runtime_error("exchange payload mismatch");
    }
  };
  runtime::ThreadsWorld pair(2);
  EXPECT_EQ(pair.fabric().stats().rings, 0u);
  pair.run(exchange);
  EXPECT_EQ(pair.fabric().stats().rings, 2u);
  runtime::ThreadsWorld quad(4);
  quad.run(exchange);
  EXPECT_EQ(quad.fabric().stats().rings, 4u);
}

TEST(ThreadsWorldConformance, WholeBatteryBackToBack) {
  // One world per program, all shapes again at 3 ranks where applicable —
  // catches size-dependent assumptions (ring arithmetic, tree collectives).
  conform(3, wildcard_gather_program);
  conform(3, nonblocking_program);
  conform(3, sendrecv_ring_program);
  conform(3, collectives_program);
}

// ------------------------------------------------------------- one-sided RMA

TEST(ThreadsWorldConformance, OneSidedRmaBattery) {
  // The shared address space commits the window to the DIRECT strategy
  // (true stores/loads, fence barriers for the ordering edges); the logs
  // must match the LoopWorld MESSAGE strategy byte for byte.
  conform(4, rma_battery_program);
}

TEST(ThreadsWorldConformance, OneSidedRmaBatteryOddSize) {
  conform(3, rma_battery_program);
}

TEST(ThreadsWorldTest, RmaWindowPicksDirectStrategy) {
  // Every pair shares the address space, so window creation must agree on
  // direct mode — puts are stores, and a put/get round trip works without
  // any target-side progress beyond the fence.
  runtime::ThreadsWorld world(2);
  world.run([](mpi::Comm& c, sim::Actor&) {
    const auto i32 = Datatype::int32_type();
    std::vector<std::int32_t> wbuf(16, 0);
    mpi::Win win(c, wbuf.data(), 64, 4);
    if (!win.direct_mode()) throw std::runtime_error("expected DIRECT strategy");
    win.fence();
    std::int32_t v = 100 + c.rank();
    win.put(&v, 1, i32, 1 - c.rank(), static_cast<std::int64_t>(c.rank()), 1, i32);
    win.fence();
    // My slot `1 - my rank` now holds the peer's value.
    if (wbuf[static_cast<std::size_t>(1 - c.rank())] != 100 + (1 - c.rank()))
      throw std::runtime_error("direct put did not land");
    win.fence();
    std::int32_t back = -1;
    win.get(&back, 1, i32, 1 - c.rank(), static_cast<std::int64_t>(c.rank()), 1, i32);
    win.fence();
    if (back != 100 + c.rank()) throw std::runtime_error("direct get mismatch");
    win.free();
  });
}

// ------------------------------------------------------------------ scale

TEST(ThreadsWorldScale, RingN128BuildsOneRingPerNeighbour) {
  // 128 rank threads, each sending only to its right neighbour: 128
  // rings, where a mesh built up front would make 128 x 128 = 16,384
  // before any rank ran. The 64 B payload stays eager, so no CTS or
  // credit return travels back to the left.
  constexpr int kN = 128;
  runtime::ThreadsWorld world(kN);
  world.run([](mpi::Comm& c, sim::Actor&) {
    const auto i32 = Datatype::int32_type();
    const int right = (c.rank() + 1) % c.size();
    const int left = (c.rank() + c.size() - 1) % c.size();
    std::int32_t out[16], in[16];
    for (int i = 0; i < 16; ++i) out[i] = c.rank() * 1000 + i;
    c.sendrecv(out, 16, i32, right, 9, in, 16, i32, left, 9);
    for (int i = 0; i < 16; ++i)
      if (in[i] != left * 1000 + i)
        throw std::runtime_error("rank " + std::to_string(c.rank()) +
                                 ": ring payload mismatch");
  });
  EXPECT_EQ(world.fabric().stats().rings, static_cast<std::uint64_t>(kN));
}

TEST(ThreadsWorldScale, ConformanceN64Ring) {
  conform(64, sendrecv_ring_program);
}

TEST(ThreadsWorldScale, ConformanceN64Collectives) {
  conform(64, collectives_program);
}

TEST(ThreadsWorldScale, ConformanceN32WildcardGather) {
  // 31 senders race their first sends to rank 0, so 31 rings are
  // published into one inbound list while its owner is already polling
  // it; per-stream order must still match LoopWorld's.
  conform(32, wildcard_gather_program);
}

// ------------------------------------------------------- threads-only bits

TEST(ThreadsWorldTest, ReportsWallClockAndTransportStats) {
  runtime::ThreadsWorld world(2);
  const Duration elapsed = world.run([](mpi::Comm& c, sim::Actor&) {
    const auto i32 = Datatype::int32_type();
    for (int i = 0; i < 100; ++i) {
      std::int32_t v = i;
      if (c.rank() == 0) {
        c.send(&v, 1, i32, 1, 1);
        c.recv(&v, 1, i32, 1, 2);
      } else {
        std::int32_t in = 0;
        c.recv(&in, 1, i32, 0, 1);
        c.send(&in, 1, i32, 0, 2);
      }
    }
  });
  EXPECT_GT(elapsed.ns, 0);  // real time, not virtual
  const fabric::ShmFabric::Stats s = world.fabric().stats();
  EXPECT_GE(s.messages, 200u);  // 200 app messages + protocol traffic
}

TEST(ThreadsWorldTest, TinyRingsForceFullRingParking) {
  fabric::ShmFabric::Options opt;
  opt.ring_slots = 2;
  runtime::ThreadsWorld world(2, opt);
  world.run([](mpi::Comm& c, sim::Actor&) {
    const auto byte = Datatype::byte_type();
    constexpr int kMsgs = 300;
    if (c.rank() == 0) {
      std::vector<unsigned char> buf(64, 0xab);
      for (int i = 0; i < kMsgs; ++i)
        c.send(buf.data(), static_cast<int>(buf.size()), byte, 1, 5);
    } else {
      std::vector<unsigned char> buf(64);
      for (int i = 0; i < kMsgs; ++i)
        c.recv(buf.data(), static_cast<int>(buf.size()), byte, 0, 5);
    }
  });
  // 300 eager messages through 2-slot rings: the sender must have parked.
  EXPECT_GT(world.fabric().stats().full_parks, 0u);
}

TEST(ThreadsWorldTest, CreditReturnsToAFinishedRankAreDropped) {
  // Rank 0 sends 64 B eager messages filling 13/16 of its credit window
  // (so it never waits for credit) and a closing tag-99 message, then
  // finishes. Rank 1 takes tag 99 first, leaving the rest unexpected, and
  // consumes them only once rank 0 is done. That owes rank 0 three credit
  // returns (one per quarter window), and the 2-slot 1->0 ring holds two:
  // the third must be dropped, not park forever on a ring nobody drains.
  fabric::ShmFabric::Options opt;
  opt.ring_slots = 2;
  runtime::ThreadsWorld world(2, opt);
  const fabric::FabricCaps& caps = world.fabric().caps();
  const int msgs = static_cast<int>(caps.credit_bytes * 13 / 16 / (64 + caps.control_record_bytes));
  std::atomic<bool> rank0_done{false};
  int intact = 0;
  world.run([&](mpi::Comm& c, sim::Actor&) {
    const auto byte = Datatype::byte_type();
    std::vector<unsigned char> buf(64, 0xab);
    if (c.rank() == 0) {
      for (int i = 0; i < msgs; ++i)
        c.send(buf.data(), static_cast<int>(buf.size()), byte, 1, 5);
      c.send(buf.data(), 1, byte, 1, 99);
      rank0_done.store(true);
      return;
    }
    c.recv(buf.data(), 1, byte, 0, 99);
    while (!rank0_done.load()) std::this_thread::yield();
    for (int i = 0; i < msgs; ++i) {
      std::vector<unsigned char> in(64);
      c.recv(in.data(), static_cast<int>(in.size()), byte, 0, 5);
      if (in == buf) ++intact;
    }
  });
  EXPECT_EQ(intact, msgs);
}

TEST(ThreadsWorldTest, SendLargerThanTheWindowRaisesNamingBothParameters) {
  // Eager threshold == the default credit window: a window-sized send can
  // never launch and must raise on the sending rank, which catches it and
  // carries on; 25 B less (one control record) fits and is delivered.
  const std::int64_t window = fabric::ShmFabric(2).caps().credit_bytes;
  mpi::EngineConfig cfg;
  cfg.eager_threshold_override = window;
  runtime::ThreadsWorld world(2, {}, cfg);
  ASSERT_EQ(world.fabric().caps().credit_bytes, window);
  const int n = static_cast<int>(window);
  Err code = Err::kSuccess;
  std::string error;
  std::int64_t delivered = -1;
  world.run([&](mpi::Comm& c, sim::Actor&) {
    std::vector<unsigned char> buf(static_cast<std::size_t>(n), 0x5c);
    if (c.rank() == 0) {
      try {
        c.send(buf.data(), n, Datatype::byte_type(), 1, 0);
      } catch (const MpiError& e) {
        code = e.code();
        error = e.what();
      }
      c.send(buf.data(), n - 25, Datatype::byte_type(), 1, 1);
    } else {
      delivered = c.recv(buf.data(), n, Datatype::byte_type(), 0, 1).count_bytes;
    }
  });
  EXPECT_EQ(code, Err::kResources);
  EXPECT_NE(error.find("eager_threshold = " + std::to_string(window)), std::string::npos)
      << error;
  EXPECT_NE(error.find("credit_bytes = " + std::to_string(window)), std::string::npos)
      << error;
  EXPECT_EQ(delivered, window - 25);
}

TEST(ThreadsWorldTest, LateRootGathersThresholdSizedBlocksWithinTheUnexpectedCap) {
  // The shm default's window gets too small for its threshold only from
  // N = 342 on; a threshold at the window's cap brings the same squeeze
  // to 18 ranks, whose 17 senders get 4 MiB / 17 each. The threshold
  // must fall to what that window carries, or the 17 late blocks
  // overflow rank 0's unexpected-message cap.
  constexpr int kRanks = 18;
  fabric::ShmFabric::Options opt;
  opt.caps.eager_threshold = fabric::kCreditCapBytes;
  runtime::ThreadsWorld world(kRanks, opt);
  const fabric::FabricCaps& caps = world.fabric().caps();
  EXPECT_EQ(caps.credit_bytes, fabric::credit_window(kRanks));
  EXPECT_EQ(caps.eager_threshold, caps.credit_bytes - caps.control_record_bytes);
  EXPECT_LE((kRanks - 1) * caps.eager_threshold, mpi::EngineConfig{}.max_unexpected_bytes);
  world.run([](mpi::Comm& c, sim::Actor&) { late_root_gather_program(c); });
}

TEST(ThreadsWorldTest, RankExceptionPropagatesAfterJoin) {
  runtime::ThreadsWorld world(2);
  EXPECT_THROW(world.run([](mpi::Comm& c, sim::Actor&) {
                 // Both ranks throw, so neither blocks in a recv forever;
                 // run() must join and rethrow the rank-0 error.
                 throw std::runtime_error("rank " + std::to_string(c.rank()) + " failed");
               }),
               std::runtime_error);
}

TEST(ThreadsWorldTest, SecondRunThrowsLogicError) {
  // The documented contract is std::logic_error (InternalError derives
  // from it); pin the std type so callers need not know the hierarchy.
  runtime::ThreadsWorld world(2);
  world.run([](mpi::Comm&, sim::Actor&) {});
  EXPECT_THROW(world.run([](mpi::Comm&, sim::Actor&) {}), std::logic_error);
}

TEST(ThreadsWorldTest, DetachedActorIdentity) {
  runtime::ThreadsWorld world(3);
  world.run([](mpi::Comm& c, sim::Actor& self) {
    EXPECT_TRUE(self.is_detached());
    EXPECT_EQ(sim::Actor::current(), &self);  // per-OS-thread binding
    EXPECT_EQ(self.name(), "rank-" + std::to_string(c.rank()));
    self.advance(microseconds(5));  // inert: host work takes real time
    EXPECT_EQ(self.now().ns, 0);
  });
}

TEST(ThreadsWorldTest, CApiPerRankStateOnRealThreads) {
  // The C API keys RankState off Actor::current(); with one detached actor
  // bound per OS thread, every rank must see its own state concurrently.
  runtime::ThreadsWorld world(4);
  capi::run_on(world, [] {
    MPI_Init(nullptr, nullptr);
    int rank = -1, size = -1;
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &size);
    EXPECT_EQ(size, 4);
    int token = rank * 11;
    int sum = 0;
    MPI_Allreduce(&token, &sum, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD);
    EXPECT_EQ(sum, 11 * (0 + 1 + 2 + 3));
    MPI_Finalize();
  });
}

}  // namespace
}  // namespace lcmpi
