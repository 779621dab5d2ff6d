// Host-time performance harness (wall-clock, not virtual time).
//
// Everything else in bench/ measures the *model* — virtual nanoseconds that
// reproduce the paper's figures. This harness measures the *simulator*: how
// fast the host executes matching lookups, kernel events, and whole solver
// runs. It exists to (a) prove the bucketed matcher's O(1) host-time claim
// against the retained linear reference, and (b) catch host-side perf
// regressions, while golden_determinism_test proves the same changes left
// virtual time bit-identical.
//
// Usage: host_perf [--quick] [--out PATH]
//   --quick  ~10x fewer iterations (CI smoke mode)
//   --out    JSON output path (default: BENCH_host.json in the cwd)
//
// JSON schema (lcmpi-host-perf-v12):
//   matching[]   — ns/match for bucketed vs linear posted + unexpected
//                  queues at several steady-state depths, with speedups
//   event_kernel — callback-event dispatch and timer borrow/cancel/release
//                  throughput (events per host second)
//   actors       — switch-heavy trigger ping-pong: fiber context switches
//                  per host second, plus an actor-lifecycle churn point
//                  (fiber stack pool reuse / high-water)
//   cluster_points[] — whole-cluster runs on the non-default fabrics
//                  (Ethernet media, RUDP transport): events and virtual ms
//                  simulated per host second
//   threads_world — REAL execution numbers (wall clock, not virtual):
//                  SPSC-ring vs mutex/condvar channel throughput and
//                  ping-pong between two OS threads, plus a 2-rank MPI
//                  ping-pong over ThreadsWorld/ShmFabric. The process
//                  exits nonzero if the ring delivers < 5x the mutex
//                  channel's msgs/sec.
//   rma          — REAL one-sided numbers over ThreadsWorld/ShmFabric: the
//                  amortized cost of a small MPI_Put on the DIRECT strategy
//                  (epochs of 1024 back-to-back 8 B puts, fence included in
//                  the division) next to the empty-epoch fence cost, gated
//                  against the two-sided 8 B eager ping-pong RTT measured in
//                  the same run. A direct put is one store into the target's
//                  window, so its amortized cost must undercut the full
//                  send/recv round trip; the process exits nonzero if it
//                  does not.
//   socket_world — REAL multi-process numbers: a 2-rank MPI ping-pong over
//                  SocketWorld (one forked process per rank, kernel stream
//                  sockets), once per domain (AF_UNIX and AF_INET loopback).
//                  Wall time includes fork + rendezvous, so this is a whole-
//                  launch figure, not a pure wire latency. Per domain: the
//                  8-byte msgs/sec point (gated against the pre-lazy-dial
//                  full-mesh baseline — the epoll/lazy rewrite must not tax
//                  the 2-rank hot path) and a 64 B .. 64 KiB size sweep fit
//                  to t(N) = a + b*N one-way (a = latency, 1/b = bandwidth,
//                  the MPICH reporting convention). The process exits
//                  nonzero if either domain's msgs/sec drops below its floor.
//   socket_scale — the lazy-connection gate: a 256-process all-to-one eager
//                  burst. Rank 0's fd count is O(N) by design (degree N-1);
//                  every other rank must finish with a constant handful of
//                  fds (<= nonroot_fd_budget). The process exits nonzero on
//                  failure or a budget breach.
//   launcher     — REAL exec-based launch numbers (the lcmpirun path):
//                  host_perf re-execs ITSELF via bootstrap::launch — each
//                  rank is a fresh process wired purely by LCMPI_* env, no
//                  fork-inherited state — and measures (a) the 2-rank
//                  AF_UNIX 8 B ping-pong msgs/sec on that path, gated
//                  against the same floor as the fork-based socket_world
//                  (exec must not tax the steady-state hot path), and (b)
//                  an N-rank spawn: wall seconds to launch, ring-exchange,
//                  and reap N env-bootstrapped processes, with the max
//                  non-root fd gauge shipped back and held to the O(log N)
//                  budget. The process exits nonzero if the floor or the
//                  budget is missed.
//   bulk_plane   — REAL bulk-data-plane numbers: a one-way rendezvous
//                  bandwidth sweep (64 KiB .. 4 MiB) per transport, each on
//                  its one plane — ThreadsWorld direct handoff, SocketWorld
//                  AF_UNIX memfd ring, AF_INET stream socket — with a
//                  least-squares y(N) = a + b*N fit per transport (a = fixed
//                  per-transfer cost, 1/b = asymptotic bytes/sec). Timings
//                  are taken INSIDE rank 0 and shipped out via run_collect,
//                  so fork + rendezvous cost is excluded. One gate: the
//                  eager ping-pong RTT measured concurrently with a huge
//                  in-flight rendezvous must stay <= 2x the idle RTT or
//                  inside an absolute envelope (bulk/control isolation —
//                  the whole point of the split data plane; the envelope
//                  keeps idle-latency improvements from flunking the
//                  ratio). The process exits nonzero if it fails.
//   collectives  — VIRTUAL-time sweep of the collective-algorithm engine on
//                  the CS/2 model: (size x ranks x algorithm) for bcast and
//                  allreduce with hw offload disabled, an hw-enabled bcast
//                  column, and the Fig. 7 solver re-run per forced
//                  algorithm. Two gates feed the exit code: the
//                  auto-selection table must land within 10% of the best
//                  fixed algorithm at every swept point, and the modelled
//                  Elan hardware broadcast must beat the software binomial
//                  tree at >= 8 ranks.
//   end_to_end   — 16-rank Meiko solver: virtual ms simulated per host s
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/mutex_channel.h"
#include "src/apps/particles.h"
#include "src/apps/solver.h"
#include "src/core/matching.h"
#include "src/core/matching_ref.h"
#include "src/core/profile.h"
#include "src/core/win.h"
#include "src/runtime/bootstrap.h"
#include "src/runtime/world.h"
#include "src/sim/kernel.h"
#include "src/util/bytes.h"
#include "src/util/env.h"
#include "src/util/spsc_ring.h"

namespace lcmpi::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Defeats dead-code elimination of the measured loops.
std::size_t g_sink = 0;

// --- matching: steady-state lookups at fixed depth ---------------------------
//
// The depth-isolating shape of bench/ext_matching_depth: `depth - 1` parked
// entries from other sources sit at the front of the queue (receives whose
// peers have not sent yet / unexpected messages nobody asked for), and the
// entry the lookup wants arrived last. The linear matcher scans past every
// parked entry on every lookup; the bucketed matcher goes straight to the
// target source's bucket. Each iteration matches (a hit) and re-adds the
// target, holding depth constant. The *virtual* charge is `depth` entries
// for both implementations — only host time differs.

template <typename Q>
double posted_ns_per_match(int depth, int iters) {
  Q q;
  std::uint64_t id = 1;
  for (int i = 0; i < depth - 1; ++i)
    q.post({/*context=*/1, /*src=*/i, /*tag=*/0, /*request_id=*/id++});
  const int target = depth - 1;
  q.post({1, target, 0, id++});
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    std::size_t scanned = 0;
    auto e = q.match(1, target, 0, &scanned);
    g_sink += scanned + (e ? 1u : 0u);
    q.post({1, target, 0, id++});
  }
  return seconds_since(t0) * 1e9 / iters;
}

template <typename Q>
double unexpected_ns_per_match(int depth, int iters) {
  Q q;
  std::uint64_t id = 1;
  const auto park = [&q, &id](int src) {
    fabric::ProtoMsg m;
    m.kind = fabric::MsgKind::kEager;
    m.context = 1;
    m.src = src;
    m.tag = 0;
    m.sender_req = id++;
    q.add(std::move(m));
  };
  for (int i = 0; i < depth - 1; ++i) park(i);
  const int target = depth - 1;
  park(target);
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    std::size_t scanned = 0;
    auto m = q.match(1, target, 0, &scanned);
    g_sink += scanned + (m ? 1u : 0u);
    park(target);
  }
  return seconds_since(t0) * 1e9 / iters;
}

struct MatchingPoint {
  int depth;
  double posted_linear_ns, posted_bucketed_ns, posted_speedup;
  double unexpected_linear_ns, unexpected_bucketed_ns, unexpected_speedup;
};

MatchingPoint matching_point(int depth, int iters) {
  MatchingPoint p{};
  p.depth = depth;
  p.posted_bucketed_ns = posted_ns_per_match<mpi::PostedQueue>(depth, iters);
  p.posted_linear_ns = posted_ns_per_match<mpi::LinearPostedQueue>(depth, iters);
  p.posted_speedup = p.posted_linear_ns / p.posted_bucketed_ns;
  p.unexpected_bucketed_ns =
      unexpected_ns_per_match<mpi::UnexpectedQueue>(depth, iters);
  p.unexpected_linear_ns =
      unexpected_ns_per_match<mpi::LinearUnexpectedQueue>(depth, iters);
  p.unexpected_speedup = p.unexpected_linear_ns / p.unexpected_bucketed_ns;
  return p;
}

// --- event kernel ------------------------------------------------------------

/// Callback events scheduled and dispatched in waves (bounded queue).
double fn_events_per_sec(int total) {
  sim::Kernel k;
  const int wave = 100'000;
  long long done = 0;
  const auto t0 = Clock::now();
  for (int scheduled = 0; scheduled < total; scheduled += wave) {
    const int n = std::min(wave, total - scheduled);
    for (int i = 0; i < n; ++i)
      k.schedule(microseconds(i + 1), [&done] { ++done; });
    k.run();
  }
  g_sink += static_cast<std::size_t>(done);
  return done / seconds_since(t0);
}

/// Timer churn: borrow a cancellation cell, cancel, pop the dead event —
/// the wait_with_timeout fast path where the trigger fires first.
double timer_churn_per_sec(int total) {
  sim::Kernel k;
  const int wave = 100'000;
  const auto t0 = Clock::now();
  for (int scheduled = 0; scheduled < total; scheduled += wave) {
    const int n = std::min(wave, total - scheduled);
    for (int i = 0; i < n; ++i) {
      sim::EventHandle h = k.schedule(microseconds(i + 1), [] {});
      h.cancel();
    }
    k.run();
  }
  return total / seconds_since(t0);
}

// --- actors: switch-heavy trigger ping-pong ----------------------------------
//
// Two actors bounce a token through a pair of Triggers; every round is two
// wakes, each costing one kernel→actor and one actor→kernel transfer plus a
// wake event — the simulated-MPI blocking pattern with all payload work
// stripped out, so host time is dominated by the fiber switch itself.

struct ActorPoint {
  double host_s = 0;
  double switches_per_sec = 0;
  std::uint64_t switches = 0;
  std::uint64_t events = 0;
  std::int64_t virtual_ns = 0;
  sim::ActorStats stats;
};

ActorPoint actor_switch_workload(int rounds) {
  ActorPoint out;
  const auto t0 = Clock::now();
  sim::Kernel kernel;
  sim::Trigger ping, pong;
  int turn = 0;
  kernel.spawn("ping", [&](sim::Actor& a) {
    for (int i = 0; i < rounds; ++i) {
      turn = 1;
      pong.notify_all();
      while (turn != 0) a.wait(ping);
    }
  });
  kernel.spawn("pong", [&](sim::Actor& a) {
    for (int i = 0; i < rounds; ++i) {
      while (turn != 1) a.wait(pong);
      turn = 0;
      ping.notify_all();
    }
  });
  kernel.run();
  out.host_s = seconds_since(t0);
  out.stats = kernel.actor_stats();
  out.switches = out.stats.switches;
  out.events = kernel.events_executed();
  out.virtual_ns = kernel.now().ns;
  out.switches_per_sec = static_cast<double>(out.switches) / out.host_s;
  return out;
}

/// Actor churn: waves of trivial actors that finish on their first resume,
/// so the fiber stack pool serves every spawn after the first from its
/// free list.
ActorPoint actor_lifecycle_workload(int spawns) {
  ActorPoint out;
  const auto t0 = Clock::now();
  long long done = 0;
  {
    sim::Kernel kernel;
    for (int i = 0; i < spawns; ++i)
      kernel.spawn("a" + std::to_string(i), [&done](sim::Actor& self) {
        self.advance(Duration{0});
        ++done;
      });
    kernel.run();
    out.host_s = seconds_since(t0);
    out.stats = kernel.actor_stats();
    out.switches = out.stats.switches;
    out.events = kernel.events_executed();
    out.virtual_ns = kernel.now().ns;
  }
  g_sink += static_cast<std::size_t>(done);
  out.switches_per_sec = static_cast<double>(out.switches) / out.host_s;
  return out;
}

struct ActorResult {
  int rounds = 0;
  int spawns = 0;
  ActorPoint switching, lifecycle;
};

ActorResult actor_point(bool quick) {
  ActorResult r;
  r.rounds = quick ? 20'000 : 100'000;
  r.spawns = quick ? 2'000 : 10'000;
  // Best of two runs damps host-side noise; virtual-time observables are
  // identical across runs by construction.
  for (int rep = 0; rep < 2; ++rep) {
    ActorPoint p = actor_switch_workload(r.rounds);
    if (rep == 0 || p.switches_per_sec > r.switching.switches_per_sec)
      r.switching = p;
  }
  r.lifecycle = actor_lifecycle_workload(r.spawns);
  return r;
}

// --- cluster points: non-default fabrics -------------------------------------
//
// Whole-platform runs over the cluster media/transport combinations the
// default benches do not already track as host-perf numbers: the shared
// Ethernet segment (every frame serialises on the bus, contention events
// dominate) and the reliable-UDP transport (per-datagram ack/retransmit
// timers instead of TCP's stream machinery).

struct ClusterPoint {
  const char* media = "";
  const char* transport = "";
  int ranks = 8;
  int particles = 64;
  double virtual_ms = 0;
  double host_s = 0;
  std::uint64_t events = 0;
  double events_per_sec = 0;
  double sim_ms_per_host_s = 0;
};

ClusterPoint cluster_point(runtime::Media media, runtime::Transport transport,
                           const std::vector<apps::Particle>& particles) {
  ClusterPoint p;
  p.media = media == runtime::Media::kEthernet ? "ethernet" : "atm";
  p.transport = transport == runtime::Transport::kRudp ? "rudp" : "tcp";
  p.particles = static_cast<int>(particles.size());
  runtime::ClusterWorld w(p.ranks, media, transport);
  const auto t0 = Clock::now();
  const Duration d = w.run([&](mpi::Comm& c, sim::Actor& self) {
    (void)apps::forces_ring(c, self, particles, apps::sgi_profile());
  });
  p.host_s = seconds_since(t0);
  p.virtual_ms = static_cast<double>(d.ns) / 1e6;
  p.events = w.kernel().events_executed();
  p.events_per_sec = static_cast<double>(p.events) / p.host_s;
  p.sim_ms_per_host_s = p.virtual_ms / p.host_s;
  return p;
}

// --- threads world: real execution over the SPSC-ring fabric -----------------
//
// Everything above measures the simulator; this section measures the one
// backend that is not a simulation. Two channel microbenchmarks compare the
// lock-free SPSC ring against the in-tree mutex/condvar reference under the
// identical two-thread workloads — one-way streaming throughput (the ring's
// design target: a burst of eager envelopes) and request/response ping-pong
// (the latency shape MPI blocking calls produce). A third point runs a real
// 2-rank MPI ping-pong through ThreadsWorld, so protocol cost (matching,
// credits, parking) is included, not just raw slot transfer. Failed spins
// yield rather than burn the timeslice: on single-CPU hosts the other side
// needs the core to make progress at all.

struct ThreadsWorldResult {
  std::uint64_t channel_items = 0, pingpong_rounds = 0, mpi_rounds = 0;
  double ring_msgs_per_sec = 0, mutex_msgs_per_sec = 0;
  double ring_rt_per_sec = 0, mutex_rt_per_sec = 0;
  double throughput_speedup = 0, pingpong_speedup = 0;
  double mpi_usec_per_rtt = 0, mpi_msgs_per_sec = 0;
  fabric::ShmFabric::Stats mpi_stats;
  bool meets_bar = false;  // ring >= 5x mutex msgs/sec
};

double ring_throughput(std::uint64_t items) {
  util::SpscRing<std::uint64_t> ring(1024);
  const auto t0 = Clock::now();
  std::thread consumer([&ring, items] {
    std::uint64_t got = 0, acc = 0;
    while (got < items) {
      if (auto v = ring.try_pop()) {
        acc += *v;
        ++got;
      } else {
        std::this_thread::yield();
      }
    }
    g_sink += static_cast<std::size_t>(acc);
  });
  for (std::uint64_t i = 0; i < items; ++i) {
    std::uint64_t v = i;
    while (!ring.try_push(std::move(v))) std::this_thread::yield();
  }
  consumer.join();
  return static_cast<double>(items) / seconds_since(t0);
}

double mutex_throughput(std::uint64_t items) {
  util::MutexChannel<std::uint64_t> ch(1024);
  const auto forever = Clock::now() + std::chrono::minutes(10);
  const auto t0 = Clock::now();
  std::thread consumer([&ch, items, forever] {
    std::uint64_t got = 0, acc = 0;
    while (got < items) {
      if (auto v = ch.pop_until(forever)) {
        acc += *v;
        ++got;
      }
    }
    g_sink += static_cast<std::size_t>(acc);
  });
  for (std::uint64_t i = 0; i < items; ++i) {
    std::uint64_t v = i;
    ch.push_until(v, forever);
  }
  consumer.join();
  return static_cast<double>(items) / seconds_since(t0);
}

double ring_pingpong(std::uint64_t rounds) {
  util::SpscRing<std::uint64_t> req(16), rsp(16);
  const auto t0 = Clock::now();
  std::thread echo([&req, &rsp, rounds] {
    for (std::uint64_t i = 0; i < rounds; ++i) {
      std::optional<std::uint64_t> v;
      while (!(v = req.try_pop())) std::this_thread::yield();
      while (!rsp.try_push(std::move(*v))) std::this_thread::yield();
    }
  });
  for (std::uint64_t i = 0; i < rounds; ++i) {
    std::uint64_t v = i;
    while (!req.try_push(std::move(v))) std::this_thread::yield();
    std::optional<std::uint64_t> r;
    while (!(r = rsp.try_pop())) std::this_thread::yield();
    g_sink += static_cast<std::size_t>(*r & 1);
  }
  echo.join();
  return static_cast<double>(rounds) / seconds_since(t0);
}

double mutex_pingpong(std::uint64_t rounds) {
  util::MutexChannel<std::uint64_t> req(16), rsp(16);
  const auto forever = Clock::now() + std::chrono::minutes(10);
  const auto t0 = Clock::now();
  std::thread echo([&req, &rsp, rounds, forever] {
    for (std::uint64_t i = 0; i < rounds; ++i) {
      auto v = req.pop_until(forever);
      rsp.push_until(*v, forever);
    }
  });
  for (std::uint64_t i = 0; i < rounds; ++i) {
    std::uint64_t v = i;
    req.push_until(v, forever);
    auto r = rsp.pop_until(forever);
    g_sink += static_cast<std::size_t>(*r & 1);
  }
  echo.join();
  return static_cast<double>(rounds) / seconds_since(t0);
}

ThreadsWorldResult threads_world_point(bool quick) {
  ThreadsWorldResult r;
  r.channel_items = quick ? 200'000 : 2'000'000;
  r.pingpong_rounds = quick ? 20'000 : 200'000;
  r.mpi_rounds = quick ? 1'000 : 10'000;
  // Best of two runs damps scheduler noise on shared hosts.
  for (int rep = 0; rep < 2; ++rep) {
    r.ring_msgs_per_sec = std::max(r.ring_msgs_per_sec, ring_throughput(r.channel_items));
    r.mutex_msgs_per_sec =
        std::max(r.mutex_msgs_per_sec, mutex_throughput(r.channel_items));
    r.ring_rt_per_sec = std::max(r.ring_rt_per_sec, ring_pingpong(r.pingpong_rounds));
    r.mutex_rt_per_sec =
        std::max(r.mutex_rt_per_sec, mutex_pingpong(r.pingpong_rounds));
  }
  r.throughput_speedup = r.ring_msgs_per_sec / r.mutex_msgs_per_sec;
  r.pingpong_speedup = r.ring_rt_per_sec / r.mutex_rt_per_sec;

  const std::uint64_t rounds = r.mpi_rounds;
  runtime::ThreadsWorld world(2);
  const Duration wall = world.run([rounds](mpi::Comm& c, sim::Actor&) {
    const auto byte = mpi::Datatype::byte_type();
    unsigned char buf[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    for (std::uint64_t i = 0; i < rounds; ++i) {
      if (c.rank() == 0) {
        c.send(buf, sizeof buf, byte, 1, 1);
        c.recv(buf, sizeof buf, byte, 1, 2);
      } else {
        c.recv(buf, sizeof buf, byte, 0, 1);
        c.send(buf, sizeof buf, byte, 0, 2);
      }
    }
  });
  r.mpi_usec_per_rtt = static_cast<double>(wall.ns) / 1e3 / static_cast<double>(rounds);
  r.mpi_msgs_per_sec =
      static_cast<double>(2 * rounds) / (static_cast<double>(wall.ns) / 1e9);
  r.mpi_stats = world.fabric().stats();
  r.meets_bar = r.throughput_speedup >= 5.0;
  return r;
}

// --- one-sided RMA -----------------------------------------------------------
//
// The window layer's whole pitch on shared memory is that a Put is a store:
// no envelope, no matching, no target-side progress. This point prices that
// claim with wall clocks. Two ranks, one 64 B window each, epochs of 1024
// back-to-back 8-byte puts into the peer's half (disjoint per-origin slots,
// per the §6i conflict rules) closed by a fence; the amortized per-put cost
// divides the fence in. A second fence-only run prices the empty epoch so
// the two components can be read separately. The gate compares against the
// two-sided 8 B eager ping-pong RTT from the SAME harness run: one-sided
// must undercut the round trip it replaces.

struct RmaResult {
  std::uint64_t puts_per_epoch = 0, epochs = 0;
  double put_usec_amortized = 0;  // wall / (epochs * puts), fences included
  double fence_usec = 0;          // empty-epoch fence, wall / epochs
  double eager_rtt_usec = 0;      // same-run two-sided floor
  bool direct = false;            // the window committed to the DIRECT strategy
  bool meets_bar = false;         // put_usec_amortized <= eager_rtt_usec
};

RmaResult rma_point(bool quick, double eager_rtt_usec) {
  RmaResult r;
  r.puts_per_epoch = 1024;
  r.epochs = quick ? 20 : 200;
  r.eager_rtt_usec = eager_rtt_usec;

  bool direct = true;
  {
    runtime::ThreadsWorld world(2);
    const Duration wall = world.run([&r, &direct](mpi::Comm& c, sim::Actor&) {
      const auto byte = mpi::Datatype::byte_type();
      unsigned char wbuf[64] = {0};
      unsigned char src[8] = {1, 2, 3, 4, 5, 6, 7, 8};
      mpi::Win win(c, wbuf, sizeof wbuf, 1);
      if (c.rank() == 0) direct = win.direct_mode();
      const int peer = 1 - c.rank();
      const std::int64_t disp = c.rank() * 8;  // my slot on the peer
      for (std::uint64_t e = 0; e < r.epochs; ++e) {
        for (std::uint64_t i = 0; i < r.puts_per_epoch; ++i)
          win.put(src, 8, byte, peer, disp, 8, byte);
        win.fence();
      }
      win.free();
    });
    r.put_usec_amortized = static_cast<double>(wall.ns) / 1e3 /
                           static_cast<double>(r.epochs * r.puts_per_epoch);
  }
  {
    runtime::ThreadsWorld world(2);
    const Duration wall = world.run([&r](mpi::Comm& c, sim::Actor&) {
      unsigned char wbuf[64] = {0};
      mpi::Win win(c, wbuf, sizeof wbuf, 1);
      for (std::uint64_t e = 0; e < r.epochs; ++e) win.fence();
      win.free();
    });
    r.fence_usec = static_cast<double>(wall.ns) / 1e3 / static_cast<double>(r.epochs);
  }
  r.direct = direct;
  r.meets_bar = r.direct && r.put_usec_amortized <= r.eager_rtt_usec;
  return r;
}

// --- fit helper (shared by socket-world ping-pong and the bulk sweep) --------

struct BulkFit {
  double a_usec = 0;        // fixed per-transfer cost (fit intercept)
  double bytes_per_sec = 0; // asymptotic bandwidth (1 / fit slope)
};

struct BulkSweepPoint {
  std::size_t bytes = 0;
  double usec_per_transfer = 0;
  double mb_per_sec = 0;
};

/// Least squares for t(N) = a + b*N over the sweep points — the MPICH
/// methodology: the intercept is the size-independent latency, the
/// reciprocal slope the asymptotic bandwidth.
BulkFit fit_points(const std::vector<BulkSweepPoint>& pts) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double n = static_cast<double>(pts.size());
  for (const BulkSweepPoint& p : pts) {
    const double x = static_cast<double>(p.bytes);
    const double y = p.usec_per_transfer * 1e-6;
    sx += x; sy += y; sxx += x * x; sxy += x * y;
  }
  const double denom = n * sxx - sx * sx;
  const double b = (n * sxy - sx * sy) / denom;
  BulkFit f;
  f.a_usec = (sy - b * sx) / n * 1e6;
  f.bytes_per_sec = b > 0 ? 1.0 / b : 0;
  return f;
}

// --- socket world ------------------------------------------------------------
//
// Whole-launch numbers: the measured wall clock spans fork, rendezvous, the
// ping-pong exchange, and teardown, because that is what run_sockets() gives
// every caller. Rounds are sized so the exchange dominates on a healthy host.
//
// Two kinds of result per domain: the 8-byte msgs/sec point (regression-gated
// against the pre-lazy-connection full-mesh baseline — laziness must not tax
// the N=2 hot path), and a message-size sweep fit to t(N) = a + b*N
// (one-way time), separating protocol latency from stream bandwidth the same
// way the bulk sweep below does.

// N=2 msgs/sec floors. Full-mesh baselines (BENCH_host.json before the epoll
// rewrite, full mode): unix 53929 msgs/s, inet 51253 msgs/s; the floor is
// ~0.75x to absorb host noise. Quick mode amortises the launch cost over 10x
// fewer rounds, so its floor is half the full-mode one.
constexpr double kUnixMsgsFloorFull = 40'000;
constexpr double kInetMsgsFloorFull = 38'000;

struct SocketWorldResult {
  std::uint64_t rounds = 0;
  double unix_usec_per_rtt = 0, unix_msgs_per_sec = 0;
  double inet_usec_per_rtt = 0, inet_msgs_per_sec = 0;
  double unix_floor = 0, inet_floor = 0;
  std::vector<BulkSweepPoint> unix_sweep, inet_sweep;  // one-way usec per size
  BulkFit unix_fit, inet_fit;
  bool meets_bar = false;  // both domains at or above their msgs/sec floor
};

SocketWorldResult socket_world_point(bool quick) {
  SocketWorldResult r;
  r.rounds = quick ? 2'000 : 20'000;
  r.unix_floor = quick ? kUnixMsgsFloorFull / 2 : kUnixMsgsFloorFull;
  r.inet_floor = quick ? kInetMsgsFloorFull / 2 : kInetMsgsFloorFull;
  const auto pingpong_wall = [](fabric::SocketFabric::Domain d, std::size_t size,
                                std::uint64_t rounds) {
    const auto prog = [size, rounds](mpi::Comm& c, sim::Actor&) {
      const auto byte = mpi::Datatype::byte_type();
      std::vector<unsigned char> buf(size, 0x5c);
      for (std::uint64_t i = 0; i < rounds; ++i) {
        if (c.rank() == 0) {
          c.send(buf.data(), static_cast<int>(size), byte, 1, 1);
          c.recv(buf.data(), static_cast<int>(size), byte, 1, 2);
        } else {
          c.recv(buf.data(), static_cast<int>(size), byte, 0, 1);
          c.send(buf.data(), static_cast<int>(size), byte, 0, 2);
        }
      }
      // Runs in a forked rank: throwing (not EXPECT) reaches the launcher.
      if (buf[0] != 0x5c) throw std::runtime_error("socket ping-pong corrupted payload");
    };
    fabric::SocketFabric::Options opt;
    opt.domain = d;
    return runtime::run_sockets(2, prog, opt);
  };
  const auto domain = [&](fabric::SocketFabric::Domain d, double& usec_per_rtt,
                          double& msgs_per_sec, std::vector<BulkSweepPoint>& sweep,
                          BulkFit& fit) {
    const Duration wall = pingpong_wall(d, 8, r.rounds);
    usec_per_rtt =
        static_cast<double>(wall.ns) / 1e3 / static_cast<double>(r.rounds);
    msgs_per_sec = static_cast<double>(2 * r.rounds) /
                   (static_cast<double>(wall.ns) / 1e9);
    for (const std::size_t size : {std::size_t{64}, std::size_t{1024},
                                   std::size_t{8192}, std::size_t{65536}}) {
      // Fewer rounds as sizes grow: the big points are bandwidth-bound.
      const std::uint64_t rounds =
          std::max<std::uint64_t>(r.rounds / (1 + size / 1024), 200);
      const Duration w = pingpong_wall(d, size, rounds);
      BulkSweepPoint p;
      p.bytes = size;
      p.usec_per_transfer =
          static_cast<double>(w.ns) / 1e3 / static_cast<double>(2 * rounds);
      p.mb_per_sec = static_cast<double>(size) / (p.usec_per_transfer * 1e-6) / 1e6;
      sweep.push_back(p);
    }
    fit = fit_points(sweep);
  };
  domain(fabric::SocketFabric::Domain::kUnix, r.unix_usec_per_rtt,
         r.unix_msgs_per_sec, r.unix_sweep, r.unix_fit);
  domain(fabric::SocketFabric::Domain::kInet, r.inet_usec_per_rtt,
         r.inet_msgs_per_sec, r.inet_sweep, r.inet_fit);
  r.meets_bar =
      r.unix_msgs_per_sec >= r.unix_floor && r.inet_msgs_per_sec >= r.inet_floor;
  return r;
}

// --- socket world at scale ---------------------------------------------------
//
// The lazy-connection gate: 256 processes, every non-root rank fires one
// eager message at rank 0 and exits. Under the old full-mesh startup this
// burned 2(N-1)+2 fds on EVERY rank before the first byte moved; with lazy
// dialing only rank 0 (degree N-1) pays O(N) — every other rank holds a
// constant handful of fds no matter how wide the world is. Per-rank gauges
// come back as the ranks' result files (run_collect_fab).

struct SocketScaleResult {
  int ranks = 0;
  std::uint64_t root_fds = 0;          // rank 0: O(N) by design (degree N-1)
  std::uint64_t max_nonroot_fds = 0;   // must stay O(1)
  std::uint64_t max_nonroot_pairs = 0;
  bool completed = false;
  bool fds_bar = false;  // completed && max_nonroot_fds <= kNonRootFdBudget
};

// epoll + listener + one dialed control pair (plus cross-dial and bulk
// headroom): far under any O(N) growth at 256 ranks.
constexpr std::uint64_t kNonRootFdBudget = 16;

SocketScaleResult socket_scale_point() {
  SocketScaleResult r;
  r.ranks = 256;
  runtime::SocketWorld world(r.ranks);
  const std::vector<Bytes> raw = world.run_collect_fab(
      [](mpi::Comm& c, sim::Actor&, fabric::SocketFabric& fab) {
        const auto i32 = mpi::Datatype::int32_type();
        if (c.rank() == 0) {
          std::int64_t sum = 0;
          for (int src = 1; src < c.size(); ++src) {
            std::int32_t v = -1;
            c.recv(&v, 1, i32, mpi::kAnySource, 3);
            sum += v;
          }
          const std::int64_t n = c.size() - 1;
          if (sum != n * (n + 1) / 2)
            throw std::runtime_error("all-to-one burst sum mismatch");
        } else {
          std::int32_t v = c.rank();
          c.send(&v, 1, i32, 0, 3);
        }
        Bytes b;
        ByteWriter w(b);
        w.put<std::uint64_t>(fab.stats().fds_open);
        w.put<std::uint64_t>(fab.stats().pairs_connected);
        return b;
      });
  r.completed = true;
  for (int rank = 0; rank < r.ranks; ++rank) {
    ByteReader rd(raw[static_cast<std::size_t>(rank)]);
    const auto fds = rd.get<std::uint64_t>();
    const auto pairs = rd.get<std::uint64_t>();
    if (rank == 0) {
      r.root_fds = fds;
    } else {
      r.max_nonroot_fds = std::max(r.max_nonroot_fds, fds);
      r.max_nonroot_pairs = std::max(r.max_nonroot_pairs, pairs);
    }
  }
  r.fds_bar = r.completed && r.max_nonroot_fds <= kNonRootFdBudget;
  return r;
}

// --- launcher: the exec/env bootstrap path (lcmpirun) ------------------------
//
// Everything above that runs real processes forks them, inheriting the
// parent's address space and rank closure. The lcmpirun path execs cold
// processes wired purely by LCMPI_* environment — this section proves that
// path costs nothing at steady state (same ping-pong floor as the forked
// socket_world) and scales (N ranks spawned/reaped, non-root fds O(log N)).
// host_perf re-execs ITSELF as the rank binary: when bootstrap::env_launched()
// the process runs launcher_child() instead of the benchmark suite, and
// results travel back through an LCMPI_BENCH_OUT file (an exec'd rank has no
// closure whose bytes run_collect could return).

struct LauncherResult {
  std::uint64_t rounds = 0;
  double usec_per_rtt = 0, msgs_per_sec = 0, msgs_floor = 0;
  int spawn_ranks = 0;
  double spawn_secs = 0, ranks_per_sec = 0;
  std::uint64_t max_nonroot_fds = 0, fd_budget = 0;
  bool completed = false;
  bool meets_bar = false;  // completed && floor met && fds within budget
};

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return buf;
}

/// Non-root fd budget for an N-rank ring + barrier world: host_perf's O(1)
/// allowance plus two fds per dissemination-barrier round.
std::uint64_t launcher_fd_budget(int nranks) {
  std::uint64_t budget = kNonRootFdBudget;
  for (int span = 1; span < nranks; span *= 2) budget += 2;
  return budget;
}

/// The rank side of the launcher section (this binary, re-exec'd).
int launcher_child() {
  const char* mode_env = std::getenv("LCMPI_BENCH_MODE");
  const std::string mode = mode_env != nullptr ? mode_env : "pingpong";
  const char* out_env = std::getenv("LCMPI_BENCH_OUT");
  const std::string out = out_env != nullptr ? out_env : "";
  std::uint64_t rounds = 2'000;
  if (const char* r = std::getenv("LCMPI_BENCH_ROUNDS"))
    rounds = static_cast<std::uint64_t>(
        env::parse_long("LCMPI_BENCH_ROUNDS", r, 1, 100'000'000));
  return runtime::bootstrap::rank_main_fab(
      [&](mpi::Comm& c, sim::Actor&, fabric::SocketFabric& fab) {
        const auto byte = mpi::Datatype::byte_type();
        if (mode == "pingpong") {
          unsigned char b = 0x5c;
          const int peer = 1 - c.rank();
          const auto half = [&](int warm_rounds, bool lead) {
            for (int i = 0; i < warm_rounds; ++i) {
              if (lead) {
                c.send(&b, 1, byte, peer, 1);
                c.recv(&b, 1, byte, peer, 2);
              } else {
                c.recv(&b, 1, byte, peer, 1);
                c.send(&b, 1, byte, peer, 2);
              }
            }
          };
          half(64, c.rank() == 0);  // warmup: dials + credit priming
          const auto t0 = std::chrono::steady_clock::now();
          half(static_cast<int>(rounds), c.rank() == 0);
          const double secs = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
          if (c.rank() == 0 && !out.empty()) {
            std::ofstream f(out);
            f << (secs * 1e6 / static_cast<double>(rounds)) << " "
              << (static_cast<double>(rounds) / secs) << "\n";
          }
        } else {  // "ring": neighbor exchange, then ship the fd gauge home
          const auto i32 = mpi::Datatype::int32_type();
          const int n = c.size();
          const int me = c.rank();
          std::int32_t token = me, got = -1;
          c.sendrecv(&token, 1, i32, (me + 1) % n, 1, &got, 1, i32,
                     (me + n - 1) % n, 1);
          if (got != (me + n - 1) % n)
            throw std::runtime_error("launcher ring token mismatch");
          c.barrier();
          std::uint64_t fds = fab.stats().fds_open;
          if (me != 0) {
            c.send(&fds, sizeof(fds), byte, 0, 2);
          } else {
            std::uint64_t max_fds = 0;
            for (int src = 1; src < n; ++src) {
              c.recv(&fds, sizeof(fds), byte, mpi::kAnySource, 2);
              max_fds = std::max(max_fds, fds);
            }
            if (!out.empty()) {
              std::ofstream f(out);
              f << max_fds << "\n";
            }
          }
        }
      });
}

LauncherResult launcher_point(bool quick) {
  namespace bs = runtime::bootstrap;
  LauncherResult r;
  r.rounds = quick ? 2'000 : 20'000;
  r.msgs_floor = quick ? kUnixMsgsFloorFull / 2 : kUnixMsgsFloorFull;
  r.spawn_ranks = quick ? 64 : 128;
  r.fd_budget = launcher_fd_budget(r.spawn_ranks);
  const std::string self = self_exe();
  std::string dir = "/tmp/lcmpi-hperf.XXXXXX";
  if (self.empty() || ::mkdtemp(dir.data()) == nullptr) return r;

  bs::LaunchSpec pp;
  pp.nranks = 2;
  pp.cmd = {self};
  pp.extra_env = {"LCMPI_BENCH_MODE=pingpong",
                  "LCMPI_BENCH_OUT=" + dir + "/pingpong",
                  "LCMPI_BENCH_ROUNDS=" + std::to_string(r.rounds)};
  const bs::LaunchResult ppres = bs::launch(pp);
  bool ok = ppres.ok;
  if (ok) {
    std::ifstream f(dir + "/pingpong");
    ok = static_cast<bool>(f >> r.usec_per_rtt >> r.msgs_per_sec);
  }

  if (ok) {
    bs::LaunchSpec ring;
    ring.nranks = r.spawn_ranks;
    ring.cmd = {self};
    ring.extra_env = {"LCMPI_BENCH_MODE=ring",
                      "LCMPI_BENCH_OUT=" + dir + "/ring"};
    const auto t0 = std::chrono::steady_clock::now();
    const bs::LaunchResult rres = bs::launch(ring);
    r.spawn_secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    ok = rres.ok;
    if (ok) {
      r.ranks_per_sec = static_cast<double>(r.spawn_ranks) / r.spawn_secs;
      std::ifstream f(dir + "/ring");
      ok = static_cast<bool>(f >> r.max_nonroot_fds);
    }
  }
  (void)::unlink((dir + "/pingpong").c_str());
  (void)::unlink((dir + "/ring").c_str());
  (void)::rmdir(dir.c_str());
  r.completed = ok;
  r.meets_bar = r.completed && r.msgs_per_sec >= r.msgs_floor &&
                r.max_nonroot_fds <= r.fd_budget;
  return r;
}

// --- bulk plane: per-transport rendezvous bandwidth + control isolation ------
//
// The zero-copy bulk plane exists to make two numbers better: large-transfer
// bandwidth (fewer copies per byte) and small-message latency while a large
// transfer is in flight (bulk bytes no longer head-of-line-block the framed
// control channel). This section measures both on the real backends.
//
// Bandwidth: rank 0 pushes `reps` rendezvous messages of N bytes to rank 1
// and waits for a 1-byte ack; N sweeps 64 KiB -> 4 MiB. Per-transfer time is
// fit with least squares to t(N) = a + b*N, so the per-transfer fixed cost
// (a) and the marginal cost per byte (b, reported as 1/b bytes/sec) separate
// cleanly even though small-N points include protocol overhead. Timing runs
// inside rank 0 (after a warmup transfer and a barrier), so fork/rendezvous
// setup never pollutes the fit.
//
// Isolation: with a huge rendezvous in flight 1 -> 0, rank 0 runs eager
// ping-pongs against rank 1 and compares the loaded RTT to the idle RTT
// measured moments earlier in the same world. Had the bulk payload ridden
// the control socket inline, it would serialise ahead of control frames; on
// the bulk plane its bytes move in 256 KiB pump quanta on their own
// socket/ring, so control frames overtake them.

struct BulkTransport {
  std::string name;
  std::vector<BulkSweepPoint> points;
  BulkFit fit;
};

struct BulkResult {
  int reps = 0;
  std::vector<std::size_t> sizes;
  std::vector<BulkTransport> transports;
  std::size_t isolation_bulk_bytes = 0;
  std::uint64_t isolation_rounds = 0;
  double idle_usec_per_rtt = 0;
  double loaded_usec_per_rtt = 0;
  double isolation_ratio = 0;
  // Loaded RTT <= 2x idle, OR within an absolute envelope. The pure
  // ratio punishes idle-latency improvements: the epoll rewrite halved
  // idle RTT (~22 -> ~10 us) while also improving loaded RTT (~44 ->
  // ~30 us), which *raises* the ratio. Genuine head-of-line blocking —
  // e.g. one unbudgeted 4 MiB ring drain — costs hundreds of us, far
  // outside the envelope.
  bool isolation_bar = false;
};

/// Absolute loaded-RTT envelope for the isolation bar (see above).
constexpr double kIsolationLoadedEnvelopeUsec = 36.0;

/// One-way rendezvous push, timed inside rank 0: barrier, `reps` pipelined
/// sends of `size` bytes (the receiver pre-posts every irecv, netpipe-style,
/// so the RTS/CTS handshakes overlap the data and the plane's streaming
/// rate is what gets measured), then a 1-byte ack so the clock stops at
/// full delivery. Returns the measured seconds (meaningful on rank 0 only).
double bulk_push_seconds(mpi::Comm& c, std::size_t size, int reps) {
  const auto byte = mpi::Datatype::byte_type();
  std::vector<unsigned char> buf(size, 0xb5);
  unsigned char ack = 0;
  // Warmup: first rendezvous on a fresh pair dials the bulk channel.
  if (c.rank() == 0) {
    c.send(buf.data(), static_cast<int>(size), byte, 1, 7);
  } else {
    c.recv(buf.data(), static_cast<int>(size), byte, 0, 7);
  }
  c.barrier();
  const auto t0 = Clock::now();
  std::vector<mpi::Request> window;
  window.reserve(static_cast<std::size_t>(reps));
  if (c.rank() == 0) {
    for (int i = 0; i < reps; ++i)
      window.push_back(c.isend(buf.data(), static_cast<int>(size), byte, 1, 7));
    c.wait_all(window);
    c.recv(&ack, 1, byte, 1, 8);
  } else {
    for (int i = 0; i < reps; ++i)
      window.push_back(c.irecv(buf.data(), static_cast<int>(size), byte, 0, 7));
    c.wait_all(window);
    c.send(&ack, 1, byte, 0, 8);
  }
  return seconds_since(t0);
}

/// Eager ping-pong RTT idle, then again with a huge rendezvous in flight
/// 1 -> 0. Writes {idle_s, loaded_s} (rank 0 only).
void bulk_isolation_program(mpi::Comm& c, std::size_t bulk_bytes,
                            std::uint64_t rounds, double out[2]) {
  const auto byte = mpi::Datatype::byte_type();
  unsigned char small[64] = {1};
  const auto pingpong = [&](int tag_out, int tag_in) {
    for (std::uint64_t i = 0; i < rounds; ++i) {
      if (c.rank() == 0) {
        c.send(small, sizeof small, byte, 1, tag_out);
        c.recv(small, sizeof small, byte, 1, tag_in);
      } else {
        c.recv(small, sizeof small, byte, 0, tag_out);
        c.send(small, sizeof small, byte, 0, tag_in);
      }
    }
  };
  c.barrier();
  auto t0 = Clock::now();
  pingpong(1, 2);
  out[0] = seconds_since(t0);
  c.barrier();
  std::vector<unsigned char> big(bulk_bytes, 0x7e);
  if (c.rank() == 0) {
    mpi::Request r = c.irecv(big.data(), static_cast<int>(bulk_bytes), byte, 1, 99);
    t0 = Clock::now();
    pingpong(3, 4);
    out[1] = seconds_since(t0);
    c.wait(r);
  } else {
    mpi::Request r = c.isend(big.data(), static_cast<int>(bulk_bytes), byte, 0, 99);
    pingpong(3, 4);
    c.wait(r);
  }
  c.barrier();
}

Bytes pack_doubles(const double* v, std::size_t n) {
  Bytes out(n * sizeof(double));
  std::memcpy(out.data(), v, out.size());
  return out;
}

double unpack_double(const Bytes& b, std::size_t i) {
  double v = 0;
  std::memcpy(&v, b.data() + i * sizeof(double), sizeof(double));
  return v;
}

BulkResult bulk_plane_point(bool quick) {
  BulkResult r;
  // Enough reps to amortise scheduler quanta — on a single-CPU host the
  // two rank processes time-slice, so short runs measure the scheduler.
  r.reps = quick ? 32 : 64;
  r.sizes = {64 << 10, 256 << 10, 1 << 20, 4 << 20};

  const auto add_transport = [&](std::string name,
                                 const std::function<double(std::size_t)>& run) {
    BulkTransport t;
    t.name = std::move(name);
    for (const std::size_t size : r.sizes) {
      BulkSweepPoint p;
      p.bytes = size;
      // Best of two launches damps host noise on the small sizes.
      double s = run(size);
      s = std::min(s, run(size));
      p.usec_per_transfer = s * 1e6 / r.reps;
      p.mb_per_sec = static_cast<double>(size) * r.reps / s / 1e6;
      t.points.push_back(p);
    }
    t.fit = fit_points(t.points);
    r.transports.push_back(std::move(t));
  };

  add_transport("threads-shm", [&](std::size_t size) {
    double s = 0;
    runtime::ThreadsWorld world(2);
    world.run([&](mpi::Comm& c, sim::Actor&) {
      const double mine = bulk_push_seconds(c, size, r.reps);
      if (c.rank() == 0) s = mine;
    });
    return s;
  });
  const auto socket_bw = [&](fabric::SocketFabric::Options opt,
                             std::size_t size) {
    runtime::SocketWorld world(2, opt);
    std::vector<Bytes> out =
        world.run_collect([&](mpi::Comm& c, sim::Actor&) -> Bytes {
          const double s = bulk_push_seconds(c, size, r.reps);
          return pack_doubles(&s, 1);
        });
    return unpack_double(out[0], 0);
  };
  {
    fabric::SocketFabric::Options opt;  // AF_UNIX: memfd ring
    add_transport("unix-memfd",
                  [&, opt](std::size_t size) { return socket_bw(opt, size); });
  }
  {
    fabric::SocketFabric::Options opt;
    opt.domain = fabric::SocketFabric::Domain::kInet;  // stream socket
    add_transport("inet-stream",
                  [&, opt](std::size_t size) { return socket_bw(opt, size); });
  }

  // Control/bulk isolation on the default SocketWorld transport.
  r.isolation_bulk_bytes = quick ? (8u << 20) : (64u << 20);
  r.isolation_rounds = quick ? 300 : 1500;
  {
    runtime::SocketWorld world(2);
    std::vector<Bytes> out =
        world.run_collect([&](mpi::Comm& c, sim::Actor&) -> Bytes {
          double t[2] = {0, 0};
          bulk_isolation_program(c, r.isolation_bulk_bytes, r.isolation_rounds, t);
          return pack_doubles(t, 2);
        });
    r.idle_usec_per_rtt =
        unpack_double(out[0], 0) * 1e6 / static_cast<double>(r.isolation_rounds);
    r.loaded_usec_per_rtt =
        unpack_double(out[0], 1) * 1e6 / static_cast<double>(r.isolation_rounds);
  }
  r.isolation_ratio = r.loaded_usec_per_rtt / r.idle_usec_per_rtt;
  r.isolation_bar = r.isolation_ratio <= 2.0 ||
                    r.loaded_usec_per_rtt <= kIsolationLoadedEnvelopeUsec;
  return r;
}

// --- collectives engine ------------------------------------------------------
//
// Virtual-time sweep of the software collective algorithms on the CS/2
// model: (message size x ranks x algorithm) for bcast and allreduce, with
// hardware offload DISABLED so the software algorithms are actually
// measured, plus one hw-enabled bcast column. Two gates:
//   * the auto-selection table must land within 10% of the best fixed
//     algorithm at every swept point (the crossover table earns its keep);
//   * the modelled Elan hardware broadcast must beat the software binomial
//     tree at >= 8 ranks (the paper's core hardware-broadcast claim).
// Also re-runs the Fig. 7 solver study once per forced algorithm (hw
// offload off, so the force reaches the solver's broadcasts) plus the
// hw-offload row benches compare against.

struct CollSweepPoint {
  int ranks = 0;
  std::int64_t bytes = 0;
  double fixed_usec[3] = {0, 0, 0};  // indexed by coll::Algo
  double auto_usec = 0;
  double hw_usec = 0;          // bcast only; 0 for allreduce
  mpi::coll::Algo auto_choice = mpi::coll::Algo::kBinomial;
  bool auto_ok = false;        // auto <= 1.1x best fixed
  bool hw_ok = true;           // ranks < 8 || hw < binomial (bcast only)
};

struct CollFig7Row {
  int procs = 0;
  double fixed_s[3] = {0, 0, 0};
  double hw_s = 0;
};

struct CollectivesResult {
  std::vector<CollSweepPoint> bcast;
  std::vector<CollSweepPoint> allreduce;
  std::vector<CollFig7Row> fig7;
  bool auto_bar = true;  // every swept point's auto_ok
  bool hw_bar = true;    // every bcast point's hw_ok
};

/// Virtual us per collective on the Meiko model. `force` pins a software
/// algorithm (nullopt = the selection table); `hw` enables the Elan
/// offload (which outranks any force for world-spanning comms).
double coll_virtual_usec(int ranks, int doubles, bool is_allreduce,
                         std::optional<mpi::coll::Algo> force, bool hw) {
  mpi::EngineConfig cfg;
  cfg.coll.force = force;
  cfg.use_hw_bcast = hw;
  cfg.use_hw_barrier = hw;
  runtime::MeikoWorld w(ranks, {}, cfg);
  constexpr int kReps = 4;
  const Duration d = w.run([&](mpi::Comm& c, sim::Actor&) {
    std::vector<double> buf(static_cast<std::size_t>(doubles), 1.0);
    std::vector<double> out(static_cast<std::size_t>(doubles));
    c.barrier();  // absorb startup skew outside the measured reps
    for (int i = 0; i < kReps; ++i) {
      if (is_allreduce) {
        c.allreduce(buf.data(), out.data(), doubles, mpi::Datatype::double_type(),
                    mpi::Op::kSum);
        std::swap(buf, out);
      } else {
        c.bcast(buf.data(), doubles, mpi::Datatype::double_type(), 0);
      }
    }
  });
  return d.usec() / kReps;
}

CollectivesResult collectives_point(bool quick) {
  CollectivesResult r;
  const std::vector<int> ranks = quick ? std::vector<int>{2, 8, 16}
                                       : std::vector<int>{2, 4, 8, 16};
  // 256 B / 16 KiB / 256 KiB / 1 MiB of doubles: one size per selection
  // zone plus both crossover boundaries.
  const std::vector<int> counts = quick ? std::vector<int>{32, 2048, 32768}
                                        : std::vector<int>{32, 2048, 32768, 131072};
  for (const bool is_allreduce : {false, true}) {
    for (const int n : ranks) {
      for (const int doubles : counts) {
        CollSweepPoint p;
        p.ranks = n;
        p.bytes = static_cast<std::int64_t>(doubles) * 8;
        double best = 0;
        for (const mpi::coll::Algo a : mpi::coll::kAllAlgos) {
          const double us = coll_virtual_usec(n, doubles, is_allreduce, a, false);
          p.fixed_usec[static_cast<int>(a)] = us;
          if (best == 0 || us < best) best = us;
        }
        p.auto_usec = coll_virtual_usec(n, doubles, is_allreduce, std::nullopt, false);
        p.auto_choice = mpi::coll::select(
            is_allreduce ? mpi::coll::Kind::kAllreduce : mpi::coll::Kind::kBcast,
            p.bytes, n, mpi::coll::Tuning{});
        p.auto_ok = p.auto_usec <= 1.1 * best;
        if (!p.auto_ok) r.auto_bar = false;
        if (!is_allreduce) {
          p.hw_usec = coll_virtual_usec(n, doubles, false, std::nullopt, true);
          p.hw_ok = n < 8 ||
                    p.hw_usec < p.fixed_usec[static_cast<int>(mpi::coll::Algo::kBinomial)];
          if (!p.hw_ok) r.hw_bar = false;
        }
        (is_allreduce ? r.allreduce : r.bcast).push_back(p);
      }
    }
  }
  // Fig. 7 solver study per algorithm (hw off so the force matters), plus
  // the hw-offload row everything in bench/ compares against.
  const apps::LinearSystem sys = apps::LinearSystem::random(96, 5);
  const std::vector<int> procs = quick ? std::vector<int>{4, 16}
                                       : std::vector<int>{2, 4, 8, 16};
  for (const int p : procs) {
    CollFig7Row row;
    row.procs = p;
    auto solver_s = [&](std::optional<mpi::coll::Algo> force, bool hw) {
      mpi::EngineConfig cfg;
      cfg.coll.force = force;
      cfg.use_hw_bcast = hw;
      cfg.use_hw_barrier = hw;
      runtime::MeikoWorld w(p, {}, cfg);
      return w
          .run([&](mpi::Comm& c, sim::Actor& self) {
            (void)apps::solve_parallel(c, self, sys, apps::sparc_profile());
          })
          .sec();
    };
    for (const mpi::coll::Algo a : mpi::coll::kAllAlgos)
      row.fixed_s[static_cast<int>(a)] = solver_s(a, false);
    row.hw_s = solver_s(std::nullopt, true);
    r.fig7.push_back(row);
  }
  return r;
}

// --- end to end --------------------------------------------------------------

struct EndToEnd {
  int ranks = 16;
  int solver_n = 96;
  double virtual_ms = 0;
  double host_s = 0;
  double sim_ms_per_host_s = 0;
};

EndToEnd solver_end_to_end() {
  EndToEnd e;
  const apps::LinearSystem sys = apps::LinearSystem::random(e.solver_n, 42);
  runtime::MeikoWorld w(e.ranks);
  const auto t0 = Clock::now();
  const Duration d = w.run([&](mpi::Comm& c, sim::Actor& self) {
    (void)apps::solve_parallel(c, self, sys, apps::sparc_profile());
  });
  e.host_s = seconds_since(t0);
  e.virtual_ms = static_cast<double>(d.ns) / 1e6;
  e.sim_ms_per_host_s = e.virtual_ms / e.host_s;
  return e;
}

// --- output ------------------------------------------------------------------

struct EventKernelNumbers {
  double fn_events_per_sec = 0;
  double timer_churn_per_sec = 0;
};

void write_json(const std::string& path, bool quick,
                const std::vector<MatchingPoint>& pts,
                const EventKernelNumbers& ek, const ActorResult& actors,
                const std::vector<ClusterPoint>& cluster,
                const ThreadsWorldResult& tw, const RmaResult& rma,
                const SocketWorldResult& sw,
                const SocketScaleResult& scale, const LauncherResult& lr,
                const BulkResult& bp, const CollectivesResult& coll,
                const EndToEnd& e2e) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "host_perf: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"schema\": \"lcmpi-host-perf-v12\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"matching\": [\n");
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const MatchingPoint& p = pts[i];
    std::fprintf(f,
                 "    {\"depth\": %d, "
                 "\"posted_linear_ns\": %.1f, \"posted_bucketed_ns\": %.1f, "
                 "\"posted_speedup\": %.2f, "
                 "\"unexpected_linear_ns\": %.1f, \"unexpected_bucketed_ns\": %.1f, "
                 "\"unexpected_speedup\": %.2f}%s\n",
                 p.depth, p.posted_linear_ns, p.posted_bucketed_ns,
                 p.posted_speedup, p.unexpected_linear_ns, p.unexpected_bucketed_ns,
                 p.unexpected_speedup, i + 1 < pts.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"event_kernel\": {\"fn_events_per_sec\": %.0f, "
               "\"timer_churn_per_sec\": %.0f},\n",
               ek.fn_events_per_sec, ek.timer_churn_per_sec);
  const auto actor_side = [f](const char* name, const ActorPoint& p,
                              const char* trailing) {
    std::fprintf(f,
                 "    \"%s\": {\"switches\": %llu, \"host_s\": %.3f, "
                 "\"switches_per_sec\": %.0f, \"stacks_allocated\": %llu, "
                 "\"stack_reuses\": %llu, \"stack_high_water\": %zu}%s\n",
                 name, static_cast<unsigned long long>(p.switches), p.host_s,
                 p.switches_per_sec,
                 static_cast<unsigned long long>(p.stats.stacks_allocated),
                 static_cast<unsigned long long>(p.stats.stack_reuses),
                 p.stats.stack_high_water, trailing);
  };
  std::fprintf(f,
               "  \"actors\": {\"workload\": \"trigger_pingpong\", "
               "\"rounds\": %d, \"spawns\": %d,\n",
               actors.rounds, actors.spawns);
  actor_side("fibers", actors.switching, ",");
  actor_side("lifecycle_fibers", actors.lifecycle, "");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"cluster_points\": [\n");
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const ClusterPoint& p = cluster[i];
    std::fprintf(f,
                 "    {\"media\": \"%s\", \"transport\": \"%s\", "
                 "\"ranks\": %d, \"particles\": %d, \"virtual_ms\": %.3f, "
                 "\"host_s\": %.3f, \"events\": %llu, "
                 "\"events_per_sec\": %.0f, \"sim_ms_per_host_s\": %.1f}%s\n",
                 p.media, p.transport, p.ranks, p.particles, p.virtual_ms,
                 p.host_s, static_cast<unsigned long long>(p.events),
                 p.events_per_sec, p.sim_ms_per_host_s,
                 i + 1 < cluster.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"threads_world\": {\"channel_items\": %llu, "
               "\"pingpong_rounds\": %llu, \"mpi_rounds\": %llu,\n"
               "    \"ring_msgs_per_sec\": %.0f, \"mutex_msgs_per_sec\": %.0f, "
               "\"throughput_speedup\": %.2f,\n"
               "    \"ring_roundtrips_per_sec\": %.0f, "
               "\"mutex_roundtrips_per_sec\": %.0f, \"pingpong_speedup\": %.2f,\n"
               "    \"mpi_usec_per_rtt\": %.2f, \"mpi_msgs_per_sec\": %.0f, "
               "\"fabric_messages\": %llu, \"fabric_full_parks\": %llu, "
               "\"fabric_idle_parks\": %llu},\n",
               static_cast<unsigned long long>(tw.channel_items),
               static_cast<unsigned long long>(tw.pingpong_rounds),
               static_cast<unsigned long long>(tw.mpi_rounds),
               tw.ring_msgs_per_sec, tw.mutex_msgs_per_sec, tw.throughput_speedup,
               tw.ring_rt_per_sec, tw.mutex_rt_per_sec, tw.pingpong_speedup,
               tw.mpi_usec_per_rtt, tw.mpi_msgs_per_sec,
               static_cast<unsigned long long>(tw.mpi_stats.messages),
               static_cast<unsigned long long>(tw.mpi_stats.full_parks),
               static_cast<unsigned long long>(tw.mpi_stats.idle_parks));
  std::fprintf(f,
               "  \"rma\": {\"puts_per_epoch\": %llu, \"epochs\": %llu, "
               "\"put_usec_amortized\": %.3f, \"fence_usec\": %.2f, "
               "\"eager_rtt_usec\": %.2f, \"direct\": %s, \"meets_bar\": %s},\n",
               static_cast<unsigned long long>(rma.puts_per_epoch),
               static_cast<unsigned long long>(rma.epochs),
               rma.put_usec_amortized, rma.fence_usec, rma.eager_rtt_usec,
               rma.direct ? "true" : "false", rma.meets_bar ? "true" : "false");
  const auto sweep_json = [f](const char* name, const std::vector<BulkSweepPoint>& v,
                              const BulkFit& fit) {
    std::fprintf(f, "    \"%s_sweep\": [", name);
    for (std::size_t j = 0; j < v.size(); ++j)
      std::fprintf(f, "{\"bytes\": %zu, \"oneway_usec\": %.2f, \"mb_per_sec\": %.1f}%s",
                   v[j].bytes, v[j].usec_per_transfer, v[j].mb_per_sec,
                   j + 1 < v.size() ? ", " : "");
    std::fprintf(f, "],\n    \"%s_fit_a_usec\": %.2f, \"%s_fit_mb_per_sec\": %.1f,\n",
                 name, fit.a_usec, name, fit.bytes_per_sec / 1e6);
  };
  std::fprintf(f,
               "  \"socket_world\": {\"rounds\": %llu,\n"
               "    \"unix_usec_per_rtt\": %.2f, \"unix_msgs_per_sec\": %.0f, "
               "\"unix_msgs_floor\": %.0f,\n"
               "    \"inet_usec_per_rtt\": %.2f, \"inet_msgs_per_sec\": %.0f, "
               "\"inet_msgs_floor\": %.0f,\n",
               static_cast<unsigned long long>(sw.rounds), sw.unix_usec_per_rtt,
               sw.unix_msgs_per_sec, sw.unix_floor, sw.inet_usec_per_rtt,
               sw.inet_msgs_per_sec, sw.inet_floor);
  sweep_json("unix", sw.unix_sweep, sw.unix_fit);
  sweep_json("inet", sw.inet_sweep, sw.inet_fit);
  std::fprintf(f, "    \"msgs_bar\": %s},\n", sw.meets_bar ? "true" : "false");
  std::fprintf(f,
               "  \"socket_scale\": {\"ranks\": %d, \"root_fds\": %llu, "
               "\"max_nonroot_fds\": %llu, \"max_nonroot_pairs\": %llu, "
               "\"nonroot_fd_budget\": %llu, \"completed\": %s, \"fds_bar\": %s},\n",
               scale.ranks, static_cast<unsigned long long>(scale.root_fds),
               static_cast<unsigned long long>(scale.max_nonroot_fds),
               static_cast<unsigned long long>(scale.max_nonroot_pairs),
               static_cast<unsigned long long>(kNonRootFdBudget),
               scale.completed ? "true" : "false",
               scale.fds_bar ? "true" : "false");
  std::fprintf(f,
               "  \"launcher\": {\"rounds\": %llu, \"usec_per_rtt\": %.2f, "
               "\"msgs_per_sec\": %.0f, \"msgs_floor\": %.0f,\n"
               "    \"spawn_ranks\": %d, \"spawn_secs\": %.3f, "
               "\"ranks_per_sec\": %.0f, \"max_nonroot_fds\": %llu, "
               "\"nonroot_fd_budget\": %llu,\n"
               "    \"completed\": %s, \"launcher_bar\": %s},\n",
               static_cast<unsigned long long>(lr.rounds), lr.usec_per_rtt,
               lr.msgs_per_sec, lr.msgs_floor, lr.spawn_ranks, lr.spawn_secs,
               lr.ranks_per_sec,
               static_cast<unsigned long long>(lr.max_nonroot_fds),
               static_cast<unsigned long long>(lr.fd_budget),
               lr.completed ? "true" : "false",
               lr.meets_bar ? "true" : "false");
  std::fprintf(f, "  \"bulk_plane\": {\"reps\": %d,\n    \"transports\": [\n",
               bp.reps);
  for (std::size_t i = 0; i < bp.transports.size(); ++i) {
    const BulkTransport& t = bp.transports[i];
    std::fprintf(f, "      {\"name\": \"%s\", \"points\": [", t.name.c_str());
    for (std::size_t j = 0; j < t.points.size(); ++j)
      std::fprintf(f, "{\"bytes\": %zu, \"usec_per_transfer\": %.1f, "
                      "\"mb_per_sec\": %.1f}%s",
                   t.points[j].bytes, t.points[j].usec_per_transfer,
                   t.points[j].mb_per_sec, j + 1 < t.points.size() ? ", " : "");
    std::fprintf(f, "],\n       \"fit_a_usec\": %.1f, \"fit_mb_per_sec\": %.1f}%s\n",
                 t.fit.a_usec, t.fit.bytes_per_sec / 1e6,
                 i + 1 < bp.transports.size() ? "," : "");
  }
  std::fprintf(f,
               "    ],\n"
               "    \"isolation\": {\"bulk_bytes\": %zu, \"rounds\": %llu, "
               "\"idle_usec_per_rtt\": %.2f, \"loaded_usec_per_rtt\": %.2f, "
               "\"ratio\": %.2f, \"loaded_envelope_usec\": %.1f, "
               "\"isolation_bar\": %s}},\n",
               bp.isolation_bulk_bytes,
               static_cast<unsigned long long>(bp.isolation_rounds),
               bp.idle_usec_per_rtt, bp.loaded_usec_per_rtt, bp.isolation_ratio,
               kIsolationLoadedEnvelopeUsec,
               bp.isolation_bar ? "true" : "false");
  const auto coll_sweep = [f](const char* name, const std::vector<CollSweepPoint>& v,
                              bool has_hw) {
    std::fprintf(f, "    \"%s\": [\n", name);
    for (std::size_t i = 0; i < v.size(); ++i) {
      const CollSweepPoint& p = v[i];
      std::fprintf(f,
                   "      {\"ranks\": %d, \"bytes\": %lld, "
                   "\"binomial_usec\": %.2f, \"scatter_allgather_usec\": %.2f, "
                   "\"ring_usec\": %.2f, \"auto_usec\": %.2f, "
                   "\"auto_choice\": \"%s\", \"auto_ok\": %s",
                   p.ranks, static_cast<long long>(p.bytes), p.fixed_usec[0],
                   p.fixed_usec[1], p.fixed_usec[2], p.auto_usec,
                   mpi::coll::name(p.auto_choice), p.auto_ok ? "true" : "false");
      if (has_hw)
        std::fprintf(f, ", \"hw_usec\": %.2f, \"hw_ok\": %s", p.hw_usec,
                     p.hw_ok ? "true" : "false");
      std::fprintf(f, "}%s\n", i + 1 < v.size() ? "," : "");
    }
    std::fprintf(f, "    ],\n");
  };
  std::fprintf(f, "  \"collectives\": {\n");
  coll_sweep("bcast", coll.bcast, true);
  coll_sweep("allreduce", coll.allreduce, false);
  std::fprintf(f, "    \"fig7_per_algorithm\": [\n");
  for (std::size_t i = 0; i < coll.fig7.size(); ++i) {
    const CollFig7Row& row = coll.fig7[i];
    std::fprintf(f,
                 "      {\"procs\": %d, \"binomial_s\": %.4f, "
                 "\"scatter_allgather_s\": %.4f, \"ring_s\": %.4f, "
                 "\"hw_offload_s\": %.4f}%s\n",
                 row.procs, row.fixed_s[0], row.fixed_s[1], row.fixed_s[2],
                 row.hw_s, i + 1 < coll.fig7.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n    \"auto_bar\": %s, \"hw_bar\": %s},\n",
               coll.auto_bar ? "true" : "false", coll.hw_bar ? "true" : "false");
  std::fprintf(f,
               "  \"end_to_end\": {\"ranks\": %d, \"solver_n\": %d, "
               "\"virtual_ms\": %.3f, \"host_s\": %.3f, "
               "\"sim_ms_per_host_s\": %.1f}\n",
               e2e.ranks, e2e.solver_n, e2e.virtual_ms, e2e.host_s,
               e2e.sim_ms_per_host_s);
  std::fprintf(f, "}\n");
  std::fclose(f);
}

int run(int argc, char** argv) {
  // Re-exec'd as one rank of the launcher section: run the rank program,
  // not the benchmark suite.
  if (runtime::bootstrap::env_launched()) return launcher_child();
  bool quick = false;
  std::string out = "BENCH_host.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: host_perf [--quick] [--out PATH]\n");
      return 2;
    }
  }

  const int match_iters = quick ? 20'000 : 200'000;
  const int event_total = quick ? 100'000 : 1'000'000;

  std::printf("host_perf: matching (steady-state, non-wildcard, ns/match)\n");
  std::printf("%8s %14s %14s %9s %14s %14s %9s\n", "depth", "post_lin",
              "post_bucket", "speedup", "unexp_lin", "unexp_bucket", "speedup");
  std::vector<MatchingPoint> pts;
  bool meets_bar = false;
  for (int depth : {16, 64, 256, 1024}) {
    const MatchingPoint p = matching_point(depth, match_iters);
    pts.push_back(p);
    std::printf("%8d %14.1f %14.1f %8.2fx %14.1f %14.1f %8.2fx\n", p.depth,
                p.posted_linear_ns, p.posted_bucketed_ns, p.posted_speedup,
                p.unexpected_linear_ns, p.unexpected_bucketed_ns,
                p.unexpected_speedup);
    if (depth >= 256 && p.posted_speedup >= 5.0 && p.unexpected_speedup >= 5.0)
      meets_bar = true;
  }
  std::printf("matching speedup bar (>=5x at depth>=256): %s\n",
              meets_bar ? "PASS" : "FAIL");

  std::printf("\nhost_perf: event kernel\n");
  EventKernelNumbers ek;
  // Best of two runs: the first run in a process also pays the page faults
  // of growing the heap to a 100k-event wave.
  for (int rep = 0; rep < 2; ++rep) {
    ek.fn_events_per_sec =
        std::max(ek.fn_events_per_sec, fn_events_per_sec(event_total));
    ek.timer_churn_per_sec =
        std::max(ek.timer_churn_per_sec, timer_churn_per_sec(event_total));
  }
  std::printf("  fn events/sec:    %.0f\n", ek.fn_events_per_sec);
  std::printf("  timer churn/sec:  %.0f\n", ek.timer_churn_per_sec);

  std::printf("\nhost_perf: actors (switch-heavy trigger ping-pong)\n");
  const ActorResult actors = actor_point(quick);
  std::printf("  fibers:  %.0f switches/sec (%llu switches in %.3f s)\n",
              actors.switching.switches_per_sec,
              static_cast<unsigned long long>(actors.switching.switches),
              actors.switching.host_s);
  std::printf("  lifecycle (%d spawns):\n", actors.spawns);
  mpi::actor_report(actors.lifecycle.stats).print();

  std::printf("\nhost_perf: cluster points (non-default fabrics, 8-rank "
              "particle ring)\n");
  const auto cluster_particles = apps::random_particles(64, 11);
  std::vector<ClusterPoint> cluster;
  cluster.push_back(cluster_point(runtime::Media::kEthernet,
                                  runtime::Transport::kTcp, cluster_particles));
  cluster.push_back(cluster_point(runtime::Media::kAtm,
                                  runtime::Transport::kRudp, cluster_particles));
  for (const ClusterPoint& p : cluster)
    std::printf("  %s/%s: %.0f events/sec, %.1f sim-ms/host-s "
                "(%.3f virtual ms in %.3f s)\n",
                p.media, p.transport, p.events_per_sec, p.sim_ms_per_host_s,
                p.virtual_ms, p.host_s);

  std::printf("\nhost_perf: threads world (real OS threads, wall clock)\n");
  const ThreadsWorldResult tw = threads_world_point(quick);
  std::printf("  channel throughput: ring %.0f msgs/s | mutex %.0f msgs/s "
              "(%.1fx)\n",
              tw.ring_msgs_per_sec, tw.mutex_msgs_per_sec, tw.throughput_speedup);
  std::printf("  channel ping-pong:  ring %.0f rt/s | mutex %.0f rt/s (%.1fx)\n",
              tw.ring_rt_per_sec, tw.mutex_rt_per_sec, tw.pingpong_speedup);
  std::printf("  mpi ping-pong (2 ranks, 8 B): %.2f us/rtt, %.0f msgs/s "
              "(%llu fabric msgs, %llu full parks, %llu idle parks)\n",
              tw.mpi_usec_per_rtt, tw.mpi_msgs_per_sec,
              static_cast<unsigned long long>(tw.mpi_stats.messages),
              static_cast<unsigned long long>(tw.mpi_stats.full_parks),
              static_cast<unsigned long long>(tw.mpi_stats.idle_parks));
  std::printf("threads-world bar (ring >= 5x mutex channel msgs/sec): %s\n",
              tw.meets_bar ? "PASS" : "FAIL");

  std::printf("\nhost_perf: one-sided RMA (ThreadsWorld direct strategy, "
              "wall clock)\n");
  const RmaResult rma = rma_point(quick, tw.mpi_usec_per_rtt);
  std::printf("  put 8 B amortized (%llu puts/epoch x %llu epochs, fences "
              "in): %.3f us/put | empty fence: %.2f us | strategy: %s\n",
              static_cast<unsigned long long>(rma.puts_per_epoch),
              static_cast<unsigned long long>(rma.epochs),
              rma.put_usec_amortized, rma.fence_usec,
              rma.direct ? "direct" : "message");
  std::printf("rma bar (amortized shm put <= %.2f us two-sided eager rtt): "
              "%s\n",
              rma.eager_rtt_usec, rma.meets_bar ? "PASS" : "FAIL");

  std::printf("\nhost_perf: socket world (one process per rank, kernel "
              "sockets, whole-launch wall clock)\n");
  const SocketWorldResult sw = socket_world_point(quick);
  std::printf("  mpi ping-pong (2 ranks, 8 B, %llu rounds):\n",
              static_cast<unsigned long long>(sw.rounds));
  std::printf("    unix: %.2f us/rtt, %.0f msgs/s (floor %.0f)\n",
              sw.unix_usec_per_rtt, sw.unix_msgs_per_sec, sw.unix_floor);
  std::printf("    inet: %.2f us/rtt, %.0f msgs/s (floor %.0f)\n",
              sw.inet_usec_per_rtt, sw.inet_msgs_per_sec, sw.inet_floor);
  const auto print_sweep_fit = [](const char* name,
                                  const std::vector<BulkSweepPoint>& v,
                                  const BulkFit& fit) {
    std::printf("    %s sweep (one-way us):", name);
    for (const BulkSweepPoint& p : v)
      std::printf(" %zuB=%.1f", p.bytes, p.usec_per_transfer);
    std::printf("  | fit a=%.1f us, 1/b=%.0f MB/s\n", fit.a_usec,
                fit.bytes_per_sec / 1e6);
  };
  print_sweep_fit("unix", sw.unix_sweep, sw.unix_fit);
  print_sweep_fit("inet", sw.inet_sweep, sw.inet_fit);
  std::printf("socket-world bar (msgs/sec >= pre-lazy full-mesh floor, both "
              "domains): %s\n",
              sw.meets_bar ? "PASS" : "FAIL");

  std::printf("\nhost_perf: socket world at scale (lazy connections, "
              "all-to-one burst)\n");
  const SocketScaleResult scale = socket_scale_point();
  std::printf("  N=%d: root fds %llu, max non-root fds %llu (budget %llu), "
              "max non-root pairs %llu\n",
              scale.ranks, static_cast<unsigned long long>(scale.root_fds),
              static_cast<unsigned long long>(scale.max_nonroot_fds),
              static_cast<unsigned long long>(kNonRootFdBudget),
              static_cast<unsigned long long>(scale.max_nonroot_pairs));
  std::printf("socket-scale bar (burst completes, non-root fds O(1)): %s\n",
              scale.fds_bar ? "PASS" : "FAIL");

  std::printf("\nhost_perf: launcher (exec/env bootstrap — the lcmpirun "
              "path, AF_UNIX)\n");
  const LauncherResult lr = launcher_point(quick);
  std::printf("  2-rank ping-pong: %.2f us/rtt, %.0f msgs/s (floor %.0f)\n",
              lr.usec_per_rtt, lr.msgs_per_sec, lr.msgs_floor);
  std::printf("  N=%d spawn+ring+reap: %.3f s (%.0f ranks/s), max non-root "
              "fds %llu (budget %llu)\n",
              lr.spawn_ranks, lr.spawn_secs, lr.ranks_per_sec,
              static_cast<unsigned long long>(lr.max_nonroot_fds),
              static_cast<unsigned long long>(lr.fd_budget));
  std::printf("launcher bar (completed, msgs/sec >= socket-world floor, "
              "non-root fds O(log N)): %s\n",
              lr.meets_bar ? "PASS" : "FAIL");

  std::printf("\nhost_perf: bulk plane (rendezvous bandwidth sweep + "
              "control/bulk isolation)\n");
  const BulkResult bp = bulk_plane_point(quick);
  std::printf("  %-12s %10s %10s %10s %10s | fit a=%s, 1/b=%s\n", "transport",
              "64K", "256K", "1M", "4M", "usec", "MB/s");
  for (const BulkTransport& t : bp.transports) {
    std::printf("  %-12s", t.name.c_str());
    for (const BulkSweepPoint& p : t.points) std::printf(" %9.1f", p.mb_per_sec);
    std::printf("  | a=%.1f us, %.0f MB/s\n", t.fit.a_usec,
                t.fit.bytes_per_sec / 1e6);
  }
  std::printf("  control RTT: idle %.2f us, with %zu MiB bulk in flight "
              "%.2f us (%.2fx)\n",
              bp.idle_usec_per_rtt, bp.isolation_bulk_bytes >> 20,
              bp.loaded_usec_per_rtt, bp.isolation_ratio);
  std::printf(
      "bulk/control isolation bar (loaded <= 2x idle or <= %.0f us): %s\n",
      kIsolationLoadedEnvelopeUsec, bp.isolation_bar ? "PASS" : "FAIL");

  std::printf("\nhost_perf: collectives engine (CS/2 model, virtual us per "
              "call; software algorithms, hw offload column)\n");
  const CollectivesResult coll = collectives_point(quick);
  const auto print_sweep = [](const char* name, const std::vector<CollSweepPoint>& v,
                              bool has_hw) {
    std::printf("  %s:\n  %6s %9s %10s %10s %10s %10s %18s%s\n", name, "ranks",
                "bytes", "binomial", "scat_ag", "ring", "auto", "auto_choice",
                has_hw ? "         hw" : "");
    for (const CollSweepPoint& p : v) {
      std::printf("  %6d %9lld %10.1f %10.1f %10.1f %10.1f %18s", p.ranks,
                  static_cast<long long>(p.bytes), p.fixed_usec[0], p.fixed_usec[1],
                  p.fixed_usec[2], p.auto_usec, mpi::coll::name(p.auto_choice));
      if (has_hw) std::printf(" %10.1f", p.hw_usec);
      std::printf("%s%s\n", p.auto_ok ? "" : "  AUTO-MISS",
                  p.hw_ok ? "" : "  HW-SLOW");
    }
  };
  print_sweep("bcast", coll.bcast, true);
  print_sweep("allreduce", coll.allreduce, false);
  std::printf("  fig7 solver per algorithm (seconds; hw off for the fixed "
              "columns):\n  %6s %10s %10s %10s %10s\n", "procs", "binomial",
              "scat_ag", "ring", "hw_offload");
  for (const CollFig7Row& row : coll.fig7)
    std::printf("  %6d %10.4f %10.4f %10.4f %10.4f\n", row.procs, row.fixed_s[0],
                row.fixed_s[1], row.fixed_s[2], row.hw_s);
  std::printf("collectives auto bar (auto <= 1.1x best fixed at every point): "
              "%s\n", coll.auto_bar ? "PASS" : "FAIL");
  std::printf("collectives hw bar (Elan bcast < software binomial at >= 8 "
              "ranks): %s\n", coll.hw_bar ? "PASS" : "FAIL");

  std::printf("\nhost_perf: end-to-end (16-rank Meiko solver, N=96)\n");
  const EndToEnd e2e = solver_end_to_end();
  std::printf("  virtual: %.3f ms, host: %.3f s -> %.1f sim-ms/host-s\n",
              e2e.virtual_ms, e2e.host_s, e2e.sim_ms_per_host_s);

  write_json(out, quick, pts, ek, actors, cluster, tw, rma, sw, scale, lr, bp,
             coll, e2e);
  std::printf("\nwrote %s\n", out.c_str());
  return meets_bar && tw.meets_bar && rma.meets_bar &&
                 sw.meets_bar && scale.fds_bar && lr.meets_bar &&
                 bp.isolation_bar && coll.auto_bar && coll.hw_bar
             ? 0
             : 1;
}

}  // namespace
}  // namespace lcmpi::bench

int main(int argc, char** argv) { return lcmpi::bench::run(argc, argv); }
