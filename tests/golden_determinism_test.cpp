// Golden determinism: the paper-figure workloads must produce *bit-identical*
// virtual times across host-side optimizations. The constants below were
// harvested from the original linear-scan matcher and allocating event
// kernel; the bucketed matcher (src/core/matching.h) and the pooled event
// kernel (src/sim/kernel.*) must reproduce them exactly, because host-time
// engineering is only legitimate here if it leaves the model's physics —
// including the per-entry matching charges — untouched.
//
// If a test in this file fails after an intentional cost-model change (new
// MpiCosts rates, protocol change, fabric timing change), re-harvest the
// constants and say so in the commit; if it fails after a "pure perf"
// change, the change is not pure.
// The fig4/fig6 constants (ATM protocol ladder, TCP stream bandwidth) were
// harvested from the binary-heap event kernel.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "src/apps/solver.h"
#include "src/atmnet/atm.h"
#include "src/atmnet/ethernet.h"
#include "src/core/datatype.h"
#include "src/inet/cluster.h"
#include "src/inet/tcp.h"
#include "src/runtime/world.h"
#include "tests/scoped_env.h"

namespace lcmpi {
namespace {

/// Steady-state ping-pong: one warm-up round trip, then kIters timed round
/// trips on rank 0's virtual clock. Mirrors bench/fig2_latency.cpp.
template <typename World, typename CommT>
std::int64_t pingpong_ns(World& w, int bytes, int iters) {
  std::int64_t elapsed_ns = 0;
  w.run([&](CommT& c, sim::Actor& self) {
    Bytes buf(static_cast<std::size_t>(bytes), std::byte{5});
    Bytes in(buf.size());
    auto t = mpi::Datatype::byte_type();
    if (c.rank() == 0) {
      c.send(buf.data(), bytes, t, 1, 1);
      c.recv(in.data(), bytes, t, 1, 2);
      const TimePoint t0 = self.now();
      for (int i = 0; i < iters; ++i) {
        c.send(buf.data(), bytes, t, 1, 1);
        c.recv(in.data(), bytes, t, 1, 2);
      }
      elapsed_ns = (self.now() - t0).ns;
    } else {
      for (int i = 0; i < iters + 1; ++i) {
        c.recv(in.data(), bytes, t, 0, 1);
        c.send(in.data(), bytes, t, 0, 2);
      }
    }
  });
  return elapsed_ns;
}

TEST(GoldenDeterminismTest, Fig2MeikoPingpongVirtualTimes) {
  struct Point { int bytes; std::int64_t ns; };
  // 10 timed iterations, Meiko low-latency MPI, 2 ranks.
  constexpr Point kGolden[] = {
      {1, 1006760},      {2, 1009400},    {4, 1014680},   {8, 1025240},
      {16, 1046360},     {32, 1088600},   {64, 1173080},  {128, 1342040},
      {180, 1479320},    {256, 1534520},  {512, 1665800}, {1024, 1928360},
      {2048, 2453480},   {4096, 3503740},
  };
  for (const Point& p : kGolden) {
    runtime::MeikoWorld w(2);
    EXPECT_EQ((pingpong_ns<runtime::MeikoWorld, mpi::Comm>(w, p.bytes, 10)), p.ns)
        << "fig2 " << p.bytes << "B drifted from seed";
  }
}

TEST(GoldenDeterminismTest, Fig2MpichBaselineVirtualTime) {
  runtime::MpichMeikoWorld w(2);
  EXPECT_EQ((pingpong_ns<runtime::MpichMeikoWorld, mpi::MpichComm>(w, 64, 10)),
            2047680);
}

TEST(GoldenDeterminismTest, Fig5TcpAtmPingpongVirtualTimes) {
  struct Point { int bytes; std::int64_t ns; };
  // 4 timed iterations, ATM media over the TCP transport stack.
  constexpr Point kGolden[] = {{16, 6469960}, {1024, 7891528}};
  for (const Point& p : kGolden) {
    runtime::ClusterWorld w(2, runtime::Media::kAtm, runtime::Transport::kTcp);
    EXPECT_EQ((pingpong_ns<runtime::ClusterWorld, mpi::Comm>(w, p.bytes, 4)), p.ns)
        << "fig5_tcp " << p.bytes << "B drifted from seed";
  }
}

/// Fig 4 protocol-ladder round trips: raw AAL3/4 datagrams vs UDP vs TCP on
/// the ATM cluster. One warm-up, then `iters` timed round trips. Mirrors
/// bench/fig4_atm_protocols.cpp.
std::int64_t fig4_dgram_rtt_ns(bool raw_api, int bytes, int iters = 8) {
  sim::Kernel kernel;
  atmnet::AtmNetwork net{kernel, 2};
  inet::InetCluster cluster{net, inet::atm_profile()};
  inet::DatagramSocket& a =
      raw_api ? cluster.raw_socket(0, 700) : cluster.udp_socket(0, 700);
  inet::DatagramSocket& b =
      raw_api ? cluster.raw_socket(1, 701) : cluster.udp_socket(1, 701);
  std::int64_t elapsed = 0;
  kernel.spawn("ping", [&, bytes, iters](sim::Actor& self) {
    a.send_to(self, 1, 701, Bytes(static_cast<std::size_t>(bytes)));
    (void)a.recv(self);
    const TimePoint t0 = self.now();
    for (int i = 0; i < iters; ++i) {
      a.send_to(self, 1, 701, Bytes(static_cast<std::size_t>(bytes)));
      (void)a.recv(self);
    }
    elapsed = (self.now() - t0).ns;
  });
  kernel.spawn("pong", [&, iters](sim::Actor& self) {
    for (int i = 0; i < iters + 1; ++i) {
      inet::Datagram d = b.recv(self);
      b.send_to(self, d.src_host, d.src_port, std::move(d.data));
    }
  });
  kernel.run();
  return elapsed;
}

std::int64_t fig4_tcp_rtt_ns(int bytes, int iters = 8) {
  sim::Kernel kernel;
  atmnet::AtmNetwork net{kernel, 2};
  inet::InetCluster cluster{net, inet::atm_profile()};
  inet::TcpConnection& c = cluster.tcp_pair(0, 1);
  std::int64_t elapsed = 0;
  kernel.spawn("ping", [&, bytes, iters](sim::Actor& self) {
    Bytes buf(static_cast<std::size_t>(bytes), std::byte{1});
    Bytes in(buf.size());
    c.a().write(self, buf);
    c.a().read_exact(self, in.data(), in.size());
    const TimePoint t0 = self.now();
    for (int i = 0; i < iters; ++i) {
      c.a().write(self, buf);
      c.a().read_exact(self, in.data(), in.size());
    }
    elapsed = (self.now() - t0).ns;
  });
  kernel.spawn("pong", [&, bytes, iters](sim::Actor& self) {
    Bytes in(static_cast<std::size_t>(bytes));
    for (int i = 0; i < iters + 1; ++i) {
      c.b().read_exact(self, in.data(), in.size());
      c.b().write(self, in);
    }
  });
  kernel.run();
  return elapsed;
}

TEST(GoldenDeterminismTest, Fig4AtmProtocolVirtualTimes) {
  struct Point { int bytes; std::int64_t aal4_ns, udp_ns, tcp_ns; };
  // 8 timed round trips per protocol on the 2-host ATM cluster.
  constexpr Point kGolden[] = {
      {1, 7255520, 8695520, 8695520},
      {64, 7544160, 8984160, 9035936},
      {1024, 9577920, 11017920, 11069696},
  };
  for (const Point& p : kGolden) {
    EXPECT_EQ(fig4_dgram_rtt_ns(/*raw_api=*/true, p.bytes), p.aal4_ns)
        << "fig4 aal4 " << p.bytes << "B drifted from seed";
    EXPECT_EQ(fig4_dgram_rtt_ns(/*raw_api=*/false, p.bytes), p.udp_ns)
        << "fig4 udp " << p.bytes << "B drifted from seed";
    EXPECT_EQ(fig4_tcp_rtt_ns(p.bytes), p.tcp_ns)
        << "fig4 tcp " << p.bytes << "B drifted from seed";
  }
}

/// Fig 6 one-way TCP stream: `reps` back-to-back writes, timed on the
/// sender from after a warm-up write until the receiver's final-ack byte
/// returns. Mirrors bench/fig6_tcp_bandwidth.cpp.
std::int64_t fig6_raw_tcp_stream_ns(runtime::Media media, int bytes,
                                    int reps = 3) {
  sim::Kernel kernel;
  std::unique_ptr<atmnet::Network> net;
  std::unique_ptr<inet::InetCluster> cluster;
  if (media == runtime::Media::kAtm) {
    net = std::make_unique<atmnet::AtmNetwork>(kernel, 2);
    cluster = std::make_unique<inet::InetCluster>(*net, inet::atm_profile());
  } else {
    net = std::make_unique<atmnet::EthernetNetwork>(kernel, 2);
    cluster = std::make_unique<inet::InetCluster>(*net, inet::ethernet_profile());
  }
  inet::TcpConnection& c = cluster->tcp_pair(0, 1);
  std::int64_t elapsed = 0;
  kernel.spawn("tx", [&, bytes, reps](sim::Actor& self) {
    Bytes buf(static_cast<std::size_t>(bytes), std::byte{1});
    Bytes fin(1);
    c.a().write(self, buf);
    c.a().read_exact(self, fin.data(), 1);
    const TimePoint t0 = self.now();
    for (int i = 0; i < reps; ++i) c.a().write(self, buf);
    c.a().read_exact(self, fin.data(), 1);
    elapsed = (self.now() - t0).ns;
  });
  kernel.spawn("rx", [&, bytes, reps](sim::Actor& self) {
    Bytes in(static_cast<std::size_t>(bytes));
    Bytes fin(1, std::byte{1});
    for (int i = 0; i < reps + 1; ++i) {
      c.b().read_exact(self, in.data(), in.size());
      if (i == 0 || i == reps) c.b().write(self, fin);
    }
  });
  kernel.run();
  return elapsed;
}

std::int64_t fig6_mpi_bw_ns(runtime::Media media, int bytes, int reps = 3) {
  runtime::ClusterWorld w(2, media, runtime::Transport::kTcp);
  std::int64_t elapsed = 0;
  w.run([&, bytes, reps](mpi::Comm& c, sim::Actor& self) {
    Bytes buf(static_cast<std::size_t>(bytes), std::byte{3});
    auto t = mpi::Datatype::byte_type();
    if (c.rank() == 0) {
      c.send(buf.data(), bytes, t, 1, 1);
      std::uint8_t fin = 0;
      c.recv(&fin, 1, t, 1, 2);
      const TimePoint t0 = self.now();
      for (int i = 0; i < reps; ++i) c.send(buf.data(), bytes, t, 1, 1);
      c.recv(&fin, 1, t, 1, 2);
      elapsed = (self.now() - t0).ns;
    } else {
      std::uint8_t fin = 1;
      for (int i = 0; i < reps + 1; ++i) {
        c.recv(buf.data(), bytes, t, 0, 1);
        if (i == 0 || i == reps) c.send(&fin, 1, t, 0, 2);
      }
    }
  });
  return elapsed;
}

TEST(GoldenDeterminismTest, Fig6TcpStreamVirtualTimes) {
  struct Point { int bytes; std::int64_t eth_ns, atm_ns; };
  // 3 timed back-to-back stream writes over the raw TCP endpoints.
  constexpr Point kGolden[] = {
      {4096, 11935680, 2401037},
      {65536, 179705880, 14831254},
  };
  for (const Point& p : kGolden) {
    EXPECT_EQ(fig6_raw_tcp_stream_ns(runtime::Media::kEthernet, p.bytes), p.eth_ns)
        << "fig6 raw eth " << p.bytes << "B drifted from seed";
    EXPECT_EQ(fig6_raw_tcp_stream_ns(runtime::Media::kAtm, p.bytes), p.atm_ns)
        << "fig6 raw atm " << p.bytes << "B drifted from seed";
  }
}

TEST(GoldenDeterminismTest, Fig6MpiBandwidthVirtualTimes) {
  EXPECT_EQ(fig6_mpi_bw_ns(runtime::Media::kEthernet, 16384), 51318975);
  EXPECT_EQ(fig6_mpi_bw_ns(runtime::Media::kAtm, 16384), 11552671);
}

TEST(GoldenDeterminismTest, Fig7SolverVirtualTimes) {
  ScopedEnv coll_scope("LCMPI_COLL", nullptr);  // pin the auto selection table
  const apps::LinearSystem sys = apps::LinearSystem::random(96, 42);
  struct Point { int p; std::int64_t ns; };
  // Re-harvested when the solver's closing barrier moved onto the modelled
  // Elan hardware barrier (it was a software dissemination barrier before);
  // p=1 skips the barrier entirely and is unchanged.
  constexpr Point kLowlat[] = {{1, 60828800},  {2, 43534892}, {4, 28680492},
                               {8, 21248492},  {16, 17522892}};
  for (const Point& pt : kLowlat) {
    runtime::MeikoWorld w(pt.p);
    const Duration d = w.run([&](mpi::Comm& c, sim::Actor& self) {
      (void)apps::solve_parallel(c, self, sys, apps::sparc_profile());
    });
    EXPECT_EQ(d.ns, pt.ns) << "fig7 lowlat p=" << pt.p << " drifted from seed";
  }
  constexpr Point kMpich[] = {{1, 60828800}, {4, 63661891}};
  for (const Point& pt : kMpich) {
    runtime::MpichMeikoWorld w(pt.p);
    const Duration d = w.run([&](mpi::MpichComm& c, sim::Actor& self) {
      (void)apps::solve_parallel(c, self, sys, apps::sparc_profile());
    });
    EXPECT_EQ(d.ns, pt.ns) << "fig7 mpich p=" << pt.p << " drifted from seed";
  }
}

}  // namespace
}  // namespace lcmpi
