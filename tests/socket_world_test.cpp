// SocketWorld conformance + multi-process-only behavior.
//
// The shared battery (tests/world_conformance.h) runs on LoopWorld and on
// one-process-per-rank SocketWorld; logs come back from the forked ranks
// as serialized bytes in their result files (run_collect). Anything
// asserted INSIDE a rank must throw rather than use gtest EXPECTs — a
// failing EXPECT in a forked child cannot fail the parent's test, but an
// exception becomes a rank-failure record the launcher rethrows.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/capi/mpi.h"
#include "src/runtime/world.h"
#include "src/util/bytes.h"
#include "tests/world_conformance.h"

namespace lcmpi {
namespace {

using mpi::Datatype;
using namespace lcmpi::conformance;

std::vector<RankLog> run_on_sockets(int nranks, const Program& prog,
                                    fabric::SocketFabric::Options opt = {},
                                    const mpi::EngineConfig& cfg = {}) {
  runtime::SocketWorld world(nranks, opt, cfg);
  const std::vector<Bytes> raw =
      world.run_collect([&prog](mpi::Comm& comm, sim::Actor&) {
        RankLog log;
        prog(comm, log);
        return log.serialize();
      });
  std::vector<RankLog> logs;
  logs.reserve(raw.size());
  for (const Bytes& b : raw) logs.push_back(RankLog::deserialize(b));
  return logs;
}

/// Runs `prog` on both worlds and asserts rank-by-rank identical logs.
void conform(int nranks, const Program& prog, fabric::SocketFabric::Options opt = {},
             const mpi::EngineConfig& cfg = {}) {
  expect_logs_equal(run_on_loop(nranks, prog, cfg), run_on_sockets(nranks, prog, opt, cfg));
}

// ---------------------------------------------------------------- battery

TEST(SocketWorldConformance, EagerAndRendezvousPingPong) {
  conform(2, pingpong_program);
}

TEST(SocketWorldConformance, WildcardGatherPerStreamOrdering) {
  conform(4, wildcard_gather_program);
}

TEST(SocketWorldConformance, NonblockingAllPairs) {
  conform(4, nonblocking_program);
}

TEST(SocketWorldConformance, SendrecvRing) {
  conform(4, sendrecv_ring_program);
}

TEST(SocketWorldConformance, Collectives) {
  conform(4, collectives_program);
}

TEST(SocketWorldConformance, CollectiveAlgorithmBattery) {
  // Each software algorithm forced across process boundaries; the logs
  // must match the LoopWorld reference under the same force bit-for-bit.
  for (const mpi::coll::Algo algo : mpi::coll::kAllAlgos) {
    mpi::EngineConfig cfg;
    cfg.coll.force = algo;
    conform(4, coll_battery_program, {}, cfg);
  }
  conform(4, coll_battery_program);  // auto-selection table
}

TEST(SocketWorldConformance, CreditExhaustion) {
  conform(2, credit_exhaustion_program);
}

TEST(SocketWorldConformance, ThreeRankShapes) {
  // Odd size: ring arithmetic, non-power-of-two collective trees.
  conform(3, wildcard_gather_program);
  conform(3, sendrecv_ring_program);
  conform(3, collectives_program);
}

TEST(SocketWorldConformance, InetLoopbackPingPong) {
  // Same battery entry over AF_INET/127.0.0.1 (TCP_NODELAY) instead of
  // AF_UNIX: exercises the pre-bound-listener rendezvous handoff.
  fabric::SocketFabric::Options opt;
  opt.domain = fabric::SocketFabric::Domain::kInet;
  conform(2, pingpong_program, opt);
}

// --------------------------------------------------------- scale battery
//
// The lazy-connection story: a pair that never exchanges a message costs
// zero fds and zero dials, so sparse communication graphs scale past the
// O(N) fd budget a full mesh would burn per rank. Stats cross the process
// boundary via run_collect_fab.

/// Per-rank scale gauges shipped back over the launcher pipe.
struct ScaleStats {
  std::uint64_t pairs_connected = 0;
  std::uint64_t fds_open = 0;
  std::uint64_t lazy_dials = 0;

  [[nodiscard]] Bytes serialize() const {
    Bytes b;
    ByteWriter w(b);
    w.put(pairs_connected);
    w.put(fds_open);
    w.put(lazy_dials);
    return b;
  }
  static ScaleStats deserialize(const Bytes& b) {
    ByteReader r(b);
    ScaleStats s;
    s.pairs_connected = r.get<std::uint64_t>();
    s.fds_open = r.get<std::uint64_t>();
    s.lazy_dials = r.get<std::uint64_t>();
    return s;
  }
};

std::vector<ScaleStats> run_scale(int nranks, const runtime::RankFn& fn,
                                  fabric::SocketFabric::Options opt = {}) {
  runtime::SocketWorld world(nranks, opt);
  const std::vector<Bytes> raw = world.run_collect_fab(
      [&fn](mpi::Comm& comm, sim::Actor& self, fabric::SocketFabric& fab) {
        fn(comm, self);
        ScaleStats s;
        s.pairs_connected = fab.stats().pairs_connected;
        s.fds_open = fab.stats().fds_open;
        s.lazy_dials = fab.stats().lazy_dials;
        return s.serialize();
      });
  std::vector<ScaleStats> out;
  out.reserve(raw.size());
  for (const Bytes& b : raw) out.push_back(ScaleStats::deserialize(b));
  return out;
}

TEST(SocketWorldScale, ConformanceN64) {
  // 64 processes over AF_UNIX. The ring program touches neighbors only,
  // which is exactly the sparse pattern lazy dialing is built for.
  conform(64, sendrecv_ring_program);
}

TEST(SocketWorldScale, ConformanceN128) {
  conform(128, sendrecv_ring_program);
}

TEST(SocketWorldScale, LazyDialSilentPairsStayUnconnected) {
  // Ranks 0<->1 talk; ranks 2 and 3 never send or receive. With lazy
  // connections their fabrics must end the run with ZERO pairs — no
  // startup mesh dial ever happened.
  const std::vector<ScaleStats> stats =
      run_scale(4, [](mpi::Comm& c, sim::Actor&) {
        const auto i32 = Datatype::int32_type();
        if (c.rank() >= 2) return;  // silent
        std::int32_t v = 7;
        if (c.rank() == 0) {
          c.send(&v, 1, i32, 1, 1);
          c.recv(&v, 1, i32, 1, 2);
        } else {
          c.recv(&v, 1, i32, 0, 1);
          c.send(&v, 1, i32, 0, 2);
        }
      });
  EXPECT_EQ(stats[0].pairs_connected, 1u);
  EXPECT_EQ(stats[1].pairs_connected, 1u);
  EXPECT_EQ(stats[2].pairs_connected, 0u);
  EXPECT_EQ(stats[3].pairs_connected, 0u);
  EXPECT_EQ(stats[2].lazy_dials, 0u);
  EXPECT_EQ(stats[3].lazy_dials, 0u);
}

TEST(SocketWorldScale, RingConnectsNeighborsOnlyFdsSublinear) {
  // An 8-rank neighbor exchange: every rank talks to exactly two peers,
  // so pairs_connected == 2 and the fd gauge stays O(degree), not O(N).
  constexpr int kN = 8;
  const std::vector<ScaleStats> stats =
      run_scale(kN, [](mpi::Comm& c, sim::Actor&) {
        const auto i32 = Datatype::int32_type();
        const int right = (c.rank() + 1) % c.size();
        const int left = (c.rank() + c.size() - 1) % c.size();
        std::int32_t out = c.rank(), in = -1;
        c.sendrecv(&out, 1, i32, right, 9, &in, 1, i32, left, 9);
        if (in != left) throw std::runtime_error("ring payload mismatch");
      });
  for (int r = 0; r < kN; ++r) {
    EXPECT_EQ(stats[static_cast<std::size_t>(r)].pairs_connected, 2u)
        << "rank " << r;
    // Budget: epoll + listener + 2 control links (+ cross-dial doubles) +
    // possible bulk sockets. Far below the 2*(N-1)+2 a full mesh needs.
    EXPECT_LE(stats[static_cast<std::size_t>(r)].fds_open, 10u) << "rank " << r;
  }
}

// ------------------------------------------------- bulk-data-plane battery

TEST(SocketWorldConformance, MixedTrafficMemfdBulk) {
  // AF_UNIX: the bulk plane is the memfd ring; 1 MiB rendezvous payloads
  // and eager pings interleave on one pair.
  conform(2, mixed_traffic_program);
}

TEST(SocketWorldConformance, MixedTrafficInetStream) {
  // AF_INET: the bulk plane is the dedicated stream socket.
  fabric::SocketFabric::Options opt;
  opt.domain = fabric::SocketFabric::Domain::kInet;
  conform(2, mixed_traffic_program, opt);
}

TEST(SocketWorldConformance, MixedTrafficTinyRingForcesWraparound) {
  // A ring far smaller than the 1 MiB transfers: wraparound split copies
  // and ring-full backpressure (doorbell credit wakeups) every round.
  fabric::SocketFabric::Options opt;
  opt.bulk_ring_bytes = 64 * 1024;
  conform(2, mixed_traffic_program, opt);
}

TEST(SocketWorldConformance, TruncatedRendezvousAllPlanes) {
  // The memfd ring (AF_UNIX) and the stream socket (AF_INET).
  for (const auto domain : {fabric::SocketFabric::Domain::kUnix,
                            fabric::SocketFabric::Domain::kInet}) {
    fabric::SocketFabric::Options opt;
    opt.domain = domain;
    conform(2, truncation_program, opt);
  }
}

TEST(SocketWorldTest, RendezvousPlaneFollowsDomain) {
  // One 1 MiB rendezvous message per domain. AF_UNIX pairs always map a
  // memfd ring; AF_INET pairs never do. Either way the receiver counts
  // the whole payload as bulk-plane bytes.
  constexpr int kBig = 1 << 20;
  for (const auto domain : {fabric::SocketFabric::Domain::kUnix,
                            fabric::SocketFabric::Domain::kInet}) {
    fabric::SocketFabric::Options opt;
    opt.domain = domain;
    runtime::SocketWorld world(2, opt);
    const std::vector<Bytes> raw = world.run_collect_fab(
        [](mpi::Comm& c, sim::Actor&, fabric::SocketFabric& fab) {
          std::vector<unsigned char> buf(kBig, 0x6d);
          if (c.rank() == 0) {
            c.send(buf.data(), kBig, Datatype::byte_type(), 1, 3);
          } else {
            c.recv(buf.data(), kBig, Datatype::byte_type(), 0, 3);
          }
          Bytes out;
          ByteWriter w(out);
          w.put(fab.stats().memfd_pairs);
          w.put(fab.stats().bulk_rx_bytes);
          return out;
        });
    const bool unix_domain = domain == fabric::SocketFabric::Domain::kUnix;
    for (int r = 0; r < 2; ++r) {
      ByteReader rd(raw[static_cast<std::size_t>(r)]);
      const auto memfd_pairs = rd.get<std::uint64_t>();
      const auto bulk_rx_bytes = rd.get<std::uint64_t>();
      if (unix_domain) {
        EXPECT_GT(memfd_pairs, 0u) << "rank " << r;
      } else {
        EXPECT_EQ(memfd_pairs, 0u) << "rank " << r;
      }
      EXPECT_EQ(bulk_rx_bytes, r == 1 ? std::uint64_t{kBig} : 0u)
          << "rank " << r << (unix_domain ? " (AF_UNIX)" : " (AF_INET)");
    }
  }
}

TEST(SocketWorldTest, PeerDeathMidBulkTransferMemfd) {
  // Rank 1 dies with an 8 MiB rendezvous push in flight (it fits only
  // twice over in the ring, so the transfer cannot have completed).
  // Rank 0 must classify the EOF as a death, not deliver short data.
  runtime::SocketWorld world(2);
  try {
    world.run([](mpi::Comm& c, sim::Actor&) {
      const auto byte = Datatype::byte_type();
      constexpr std::size_t kBig = 8 * 1024 * 1024;
      if (c.rank() == 1) {
        std::vector<unsigned char> out(kBig, 0x5a);
        const mpi::Request r =
            c.isend(out.data(), static_cast<int>(kBig), byte, 0, 4);
        (void)c.test(r);  // start the push, then die mid-stream
        std::_Exit(7);
      }
      std::vector<unsigned char> in(kBig);
      c.recv(in.data(), static_cast<int>(kBig), byte, 1, 4);
    });
    FAIL() << "mid-bulk peer death was not detected";
  } catch (const fabric::FabricError& e) {
    EXPECT_NE(std::string(e.what()).find("died"), std::string::npos) << e.what();
  }
}

TEST(SocketWorldTest, PeerDeathMidBulkTransferStream) {
  // The same death over AF_INET, whose bulk plane is the stream socket.
  fabric::SocketFabric::Options opt;
  opt.domain = fabric::SocketFabric::Domain::kInet;
  runtime::SocketWorld world(2, opt);
  try {
    world.run([](mpi::Comm& c, sim::Actor&) {
      const auto byte = Datatype::byte_type();
      constexpr std::size_t kBig = 8 * 1024 * 1024;
      if (c.rank() == 1) {
        std::vector<unsigned char> out(kBig, 0xa5);
        const mpi::Request r =
            c.isend(out.data(), static_cast<int>(kBig), byte, 0, 4);
        (void)c.test(r);
        std::_Exit(7);
      }
      std::vector<unsigned char> in(kBig);
      c.recv(in.data(), static_cast<int>(kBig), byte, 1, 4);
    });
    FAIL() << "mid-bulk peer death was not detected";
  } catch (const fabric::FabricError& e) {
    EXPECT_NE(std::string(e.what()).find("died"), std::string::npos) << e.what();
  }
}

// ------------------------------------------------------------- one-sided RMA

TEST(SocketWorldConformance, OneSidedRmaBattery) {
  // Separate address spaces force the MESSAGE strategy: kRma* frames on
  // the control plane, serviced by the target's progress loop. Logs must
  // match the LoopWorld reference rank by rank.
  conform(4, rma_battery_program);
}

TEST(SocketWorldConformance, OneSidedRmaBatteryThreeRanks) {
  conform(3, rma_battery_program);
}

TEST(SocketWorldTest, PeerDeathMidRmaEpochNamesThePeer) {
  // Rank 1 dies inside an open access epoch; rank 0's fence blocks in the
  // reduce-scatter / frame wait and must surface a FabricError naming the
  // dead rank instead of hanging.
  runtime::SocketWorld world(2);
  try {
    world.run([](mpi::Comm& c, sim::Actor&) {
      const auto i32 = Datatype::int32_type();
      std::vector<std::int32_t> wbuf(16, 0);
      mpi::Win win(c, wbuf.data(), 64, 4);
      win.fence();
      if (c.rank() == 1) std::_Exit(7);  // dies mid-epoch, no BYE
      std::int32_t v = 5;
      win.put(&v, 1, i32, 1, 0, 1, i32);
      win.fence();  // never completes: the peer is gone
    });
    FAIL() << "mid-epoch peer death was not detected";
  } catch (const fabric::FabricError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("died"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
  }
}

// ------------------------------------------------------ process-only bits

TEST(SocketWorldTest, ReportsWallClockTime) {
  runtime::SocketWorld world(2);
  const Duration elapsed = world.run([](mpi::Comm& c, sim::Actor&) {
    const auto i32 = Datatype::int32_type();
    std::int32_t v = 42;
    if (c.rank() == 0) {
      c.send(&v, 1, i32, 1, 1);
    } else {
      std::int32_t in = 0;
      c.recv(&in, 1, i32, 0, 1);
      if (in != 42) throw std::runtime_error("payload corrupted");
    }
  });
  EXPECT_GT(elapsed.ns, 0);  // real time, not virtual
}

TEST(SocketWorldTest, RunCollectShipsPerRankBytes) {
  runtime::SocketWorld world(3);
  const std::vector<Bytes> results = world.run_collect([](mpi::Comm& c, sim::Actor&) {
    // Rank results of different sizes: rank r returns r+1 bytes of r.
    return Bytes(static_cast<std::size_t>(c.rank() + 1),
                 static_cast<std::byte>(c.rank()));
  });
  ASSERT_EQ(results.size(), 3u);
  for (int r = 0; r < 3; ++r) {
    const auto& b = results[static_cast<std::size_t>(r)];
    ASSERT_EQ(b.size(), static_cast<std::size_t>(r + 1)) << "rank " << r;
    for (const std::byte v : b) EXPECT_EQ(v, static_cast<std::byte>(r));
  }
}

TEST(SocketWorldTest, PeerDeathSurfacesCleanErrorNotHang) {
  // Rank 1 dies abruptly (no BYE, no unwind) while rank 0 is blocked in a
  // receive. Rank 0's fabric must classify the EOF as a death and throw
  // FabricError — which the launcher propagates — instead of hanging.
  runtime::SocketWorld world(2);
  try {
    world.run([](mpi::Comm& c, sim::Actor&) {
      if (c.rank() == 1) std::_Exit(7);  // skips destructors: no BYE
      std::int32_t v = 0;
      c.recv(&v, 1, Datatype::int32_type(), 1, 1);  // never satisfied
    });
    FAIL() << "peer death was not detected";
  } catch (const fabric::FabricError& e) {
    EXPECT_NE(std::string(e.what()).find("died"), std::string::npos) << e.what();
  }
}

TEST(SocketWorldTest, RankErrorReleasesPeersBlockedOnIt) {
  // Rank 1 fails at once with an error record, having never sent to
  // rank 0, while rank 0 blocks in a receive from it. Connections are
  // lazy, so rank 0's fabric has nothing to notice: the launcher must
  // grace-kill rank 0 and report rank 1's own error, not the kill.
  runtime::SocketWorld world(2);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    world.run([](mpi::Comm& c, sim::Actor&) {
      if (c.rank() == 1) throw std::runtime_error("rank 1 gave up");
      std::int32_t v = 0;
      c.recv(&v, 1, Datatype::int32_type(), 1, 1);  // never satisfied
    });
    FAIL() << "rank 1's error was not reported";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 1 failed: rank 1 gave up"),
              std::string::npos)
        << e.what();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30));
}

TEST(SocketWorldTest, BlameFallsOnTheFailedRankNotItsLostPeers) {
  // Rank 1 throws while the other ranks run a sendrecv ring, then send to
  // rank 0. Rank 0 may lose its dial to rank 1 and fail with a
  // FabricError before rank 1's own exit is reaped; ranks 2 and 3 wedge
  // and are grace-killed. Only rank 1 failed on its own, so every world
  // must report rank 1's error, whatever order the exits race in.
  for (int round = 0; round < 5; ++round) {
    runtime::SocketWorld world(4);
    try {
      world.run([](mpi::Comm& c, sim::Actor&) {
        if (c.rank() == 1) throw std::runtime_error("boom: scripted failure");
        const auto i32 = Datatype::int32_type();
        const int n = c.size();
        const int me = c.rank();
        std::int32_t token = me;
        std::int32_t got = -1;
        c.sendrecv(&token, 1, i32, (me + 1) % n, 7, &got, 1, i32, (me + n - 1) % n, 7);
        if (me != 0) {
          c.send(&token, 1, i32, 0, 8);
        } else {
          for (int r = 1; r < n; ++r) c.recv(&got, 1, i32, r, 8);
        }
      });
      FAIL() << "rank 1's failure was not reported";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("rank 1 failed: boom: scripted failure"),
                std::string::npos)
          << "world " << round << ": " << e.what();
    }
  }
}

TEST(SocketWorldTest, CreditReturnsToAFinishedRankAreDropped) {
  // Rank 0 sends 150 eager messages (13 KiB of its 16 KiB credit window,
  // so it never waits for credit) and a closing tag-99 message, then
  // finishes: goodbye, close, exit. Rank 1 takes tag 99 first and
  // consumes the rest after rank 0 is gone, which owes rank 0 three
  // credit returns. They must be dropped; a send to a finished peer is
  // otherwise an error. Both domains: AF_INET may answer a write to the
  // closed socket with a reset.
  for (const auto domain :
       {fabric::SocketFabric::Domain::kUnix, fabric::SocketFabric::Domain::kInet}) {
    fabric::SocketFabric::Options opt;
    opt.domain = domain;
    runtime::SocketWorld world(2, opt);
    world.run([](mpi::Comm& c, sim::Actor&) {
      const auto byte = Datatype::byte_type();
      constexpr int kMsgs = 150;
      std::vector<unsigned char> buf(64, 0xab);
      if (c.rank() == 0) {
        for (int i = 0; i < kMsgs; ++i)
          c.send(buf.data(), static_cast<int>(buf.size()), byte, 1, 5);
        c.send(buf.data(), 1, byte, 1, 99);
        return;
      }
      c.recv(buf.data(), 1, byte, 0, 99);
      std::this_thread::sleep_for(std::chrono::milliseconds(100));  // rank 0 exits
      for (int i = 0; i < kMsgs; ++i) {
        std::vector<unsigned char> in(64);
        c.recv(in.data(), static_cast<int>(in.size()), byte, 0, 5);
        if (in != buf) throw std::runtime_error("payload corrupted");
      }
    });
  }
}

TEST(SocketWorldTest, RankExceptionPropagates) {
  runtime::SocketWorld world(2);
  try {
    world.run([](mpi::Comm& c, sim::Actor&) {
      // Both ranks throw, so neither blocks in a recv forever; the
      // launcher must rethrow the rank-0 message.
      throw std::runtime_error("boom from rank " + std::to_string(c.rank()));
    });
    FAIL() << "rank exception did not propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("boom from rank 0"), std::string::npos)
        << e.what();
  }
}

TEST(SocketWorldTest, SecondRunThrowsLogicError) {
  // Same contract as ThreadsWorld: a world runs exactly once.
  runtime::SocketWorld world(2);
  world.run([](mpi::Comm&, sim::Actor&) {});
  EXPECT_THROW(world.run([](mpi::Comm&, sim::Actor&) {}), std::logic_error);
}

TEST(SocketWorldTest, DetachedActorIdentityInChild) {
  // Assertions run in the forked rank: violations throw and surface
  // through the launcher as rank failures.
  runtime::SocketWorld world(2);
  world.run([](mpi::Comm& c, sim::Actor& self) {
    if (!self.is_detached()) throw std::logic_error("actor not detached");
    if (sim::Actor::current() != &self) throw std::logic_error("current() unbound");
    if (self.name() != "rank-" + std::to_string(c.rank()))
      throw std::logic_error("wrong actor name");
  });
}

TEST(SocketWorldTest, CApiPerRankStateAcrossProcesses) {
  // The C API binds RankState to the child's detached actor; each process
  // must see its own rank and a correct collective result.
  runtime::SocketWorld world(4);
  capi::run_on(world, [] {
    MPI_Init(nullptr, nullptr);
    int rank = -1, size = -1;
    MPI_Comm_rank(MPI_COMM_WORLD, &rank);
    MPI_Comm_size(MPI_COMM_WORLD, &size);
    if (size != 4) throw std::runtime_error("wrong world size");
    int token = rank * 11;
    int sum = 0;
    MPI_Allreduce(&token, &sum, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD);
    if (sum != 11 * (0 + 1 + 2 + 3)) throw std::runtime_error("allreduce mismatch");
    MPI_Finalize();
  });
}

TEST(SocketWorldTest, RunSocketsConvenience) {
  const Duration d = runtime::run_sockets(2, [](mpi::Comm& c, sim::Actor&) {
    std::int32_t v = c.rank();
    std::int32_t sum = 0;
    c.allreduce(&v, &sum, 1, Datatype::int32_type(), mpi::Op::kSum);
    if (sum != 1) throw std::runtime_error("allreduce mismatch");
  });
  EXPECT_GT(d.ns, 0);
}

}  // namespace
}  // namespace lcmpi
