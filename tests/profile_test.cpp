// The profiling interface: per-call counts, virtual time, byte volumes.
#include <gtest/gtest.h>

#include "src/runtime/world.h"

namespace lcmpi::mpi {
namespace {

using runtime::LoopWorld;
using runtime::MeikoWorld;

TEST(ProfileTest, CountsCallsAndBytes) {
  LoopWorld w(2);
  Profiler prof0;
  w.run([&](Comm& c, sim::Actor&) {
    if (c.rank() == 0) c.set_profiler(&prof0);
    std::int32_t v = c.rank();
    std::int32_t sum = 0;
    c.allreduce(&v, &sum, 1, Datatype::int32_type(), Op::kSum);
    if (c.rank() == 0) {
      Bytes b(100);
      c.send(b.data(), 100, Datatype::byte_type(), 1, 0);
    } else {
      Bytes b(100);
      c.recv(b.data(), 100, Datatype::byte_type(), 0, 0);
    }
    c.barrier();
  });
  EXPECT_EQ(prof0.entry(CallKind::kAllreduce).calls, 1);
  EXPECT_EQ(prof0.entry(CallKind::kAllreduce).bytes, 4);
  EXPECT_EQ(prof0.entry(CallKind::kSend).calls, 1);
  EXPECT_EQ(prof0.entry(CallKind::kSend).bytes, 100);
  EXPECT_EQ(prof0.entry(CallKind::kBarrier).calls, 1);
  EXPECT_EQ(prof0.entry(CallKind::kRecv).calls, 0);  // rank 0 never received
  // The loop fabric charges no CPU, but the allreduce blocks for message
  // latency — that waiting is library time.
  EXPECT_GT(prof0.entry(CallKind::kAllreduce).time.ns, 0);
}

TEST(ProfileTest, NestedCallsAttributeToOutermost) {
  // send() = isend() + wait(): only kSend should be recorded.
  LoopWorld w(2);
  Profiler prof;
  w.run([&](Comm& c, sim::Actor&) {
    if (c.rank() == 0) {
      c.set_profiler(&prof);
      std::int32_t v = 1;
      c.send(&v, 1, Datatype::int32_type(), 1, 0);
    } else {
      std::int32_t v = 0;
      c.recv(&v, 1, Datatype::int32_type(), 0, 0);
    }
  });
  EXPECT_EQ(prof.entry(CallKind::kSend).calls, 1);
  EXPECT_EQ(prof.entry(CallKind::kIsend).calls, 0);
  EXPECT_EQ(prof.entry(CallKind::kWait).calls, 0);
}

TEST(ProfileTest, DerivedCommunicatorsInheritProfiler) {
  LoopWorld w(4);
  Profiler prof;
  w.run([&](Comm& c, sim::Actor&) {
    if (c.rank() == 0) c.set_profiler(&prof);
    Comm d = c.dup();
    std::int32_t v = 1, out = 0;
    d.allreduce(&v, &out, 1, Datatype::int32_type(), Op::kSum);
  });
  EXPECT_EQ(prof.entry(CallKind::kCommMgmt).calls, 1);
  EXPECT_EQ(prof.entry(CallKind::kAllreduce).calls, 1);
}

TEST(ProfileTest, CommunicationTimeExcludesCompute) {
  MeikoWorld w(2);
  Profiler prof;
  constexpr std::int64_t kComputeNs = 10'000'000;
  w.run([&](Comm& c, sim::Actor& self) {
    if (c.rank() == 0) c.set_profiler(&prof);
    self.advance(Duration{kComputeNs});  // application compute
    c.barrier();
  });
  // The barrier's recorded time is far below total elapsed time: compute
  // outside the library is not attributed to MPI.
  EXPECT_LT(prof.total_time().ns, kComputeNs / 2);
  EXPECT_GT(prof.total_time().ns, 0);
}

TEST(ProfileTest, ActorReportFormatsKernelCounters) {
  sim::Kernel k;
  k.spawn("a", [](sim::Actor& self) { self.advance(microseconds(1)); });
  k.spawn("b", [](sim::Actor& self) { self.advance(microseconds(2)); });
  k.run();
  const sim::ActorStats s = k.actor_stats();
  EXPECT_EQ(s.actors_spawned, 2u);
  // Per actor: one start resume + one wakeup resume, 2 one-way switches
  // each.
  EXPECT_EQ(s.switches, 8u);
  Table t = actor_report(s);
  EXPECT_EQ(t.rows(), 6u);
  EXPECT_EQ(s.stacks_allocated + s.stack_reuses, 2u);
  EXPECT_GT(s.stack_high_water, 0u);
  EXPECT_GT(s.stack_bytes, 0u);
}

TEST(ProfileTest, FabricReportFormatsScaleGauges) {
  // SocketFabric: every counter — traffic, stalls, and the lazy-scale
  // gauges (fds_open, pairs_connected, lazy_dials, epoll_wakeups) — gets
  // a row, so a scaling harness can dump one table per rank.
  fabric::SocketFabric::Stats ss;
  ss.fds_open = 5;
  ss.pairs_connected = 2;
  ss.lazy_dials = 2;
  ss.epoll_wakeups = 40;
  EXPECT_EQ(fabric_report(ss).rows(), 17u);

  // ShmFabric: live counters from a real run, including the `rings`
  // scale gauge and the collective offload. A 2-rank allreduce may send
  // one way only (its broadcast half can take the offload, which builds
  // no ring), so an exchange makes both rings; the barrier is offloaded.
  runtime::ThreadsWorld w(2);
  w.run([](Comm& c, sim::Actor&) {
    std::int32_t v = c.rank(), sum = 0;
    c.allreduce(&v, &sum, 1, Datatype::int32_type(), Op::kSum);
    std::int32_t back = -1;
    c.sendrecv(&sum, 1, Datatype::int32_type(), 1 - c.rank(), 3, &back, 1,
               Datatype::int32_type(), 1 - c.rank(), 3);
    c.barrier();
  });
  const fabric::ShmFabric::Stats ts = w.fabric().stats();
  EXPECT_GT(ts.messages, 0u);
  EXPECT_EQ(ts.rings, 2u);
  EXPECT_EQ(ts.hw_barriers, 1u);
  EXPECT_EQ(fabric_report(ts).rows(), 8u);
}

TEST(ProfileTest, ReportListsNonEmptyRowsOnly) {
  Profiler p;
  p.record(CallKind::kSend, microseconds(10), 64);
  p.record(CallKind::kSend, microseconds(20), 64);
  p.record(CallKind::kBcast, microseconds(5), 8);
  Table t = p.report();
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(p.total_calls(), 3);
  EXPECT_EQ(p.entry(CallKind::kSend).calls, 2);
  EXPECT_EQ(p.entry(CallKind::kSend).bytes, 128);
  EXPECT_DOUBLE_EQ(p.entry(CallKind::kSend).time.usec(), 30.0);
}

}  // namespace
}  // namespace lcmpi::mpi
