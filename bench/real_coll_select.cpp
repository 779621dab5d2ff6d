// coll::select's crossovers on the real worlds.
//
// The selection table (src/core/coll.h) was tuned on the CS/2 model:
// broadcast leaves the binomial tree past 16 KiB and scatter-allgather for
// the pipelined ring past 128 KiB; reductions leave the tree past 4 KiB.
// This harness times every software algorithm, and the table's own pick,
// on a 4-rank ThreadsWorld (ShmFabric) and a 4-rank AF_UNIX SocketWorld
// at sizes straddling those crossovers, with each fabric's default eager
// threshold and credit window.
//
//   real_coll_select
//
// Rank 0 times a run of back-to-back collectives closed by a barrier;
// each cell is the median over three fresh worlds run in turn.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/real_world_run.h"
#include "src/runtime/world.h"
#include "src/util/table.h"

namespace lcmpi::bench {
namespace {

using Clock = std::chrono::steady_clock;
using mpi::coll::Algo;

constexpr int kRanks = 4;
constexpr int kWorlds = 3;     // fresh worlds per configuration, run in turn
constexpr int kBatchMiB = 16;  // payload per timed run: 8 to 400 collectives

struct Point {
  bool bcast;
  std::int64_t bytes;
};

std::vector<Point> points() {
  std::vector<Point> p;
  for (const std::int64_t b : {4 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10,
                               1 << 20})
    p.push_back({true, b});
  for (const std::int64_t b : {1 << 10, 4 << 10, 8 << 10, 16 << 10, 64 << 10})
    p.push_back({false, b});
  return p;
}

/// Rank 0 returns microseconds per collective at each point.
std::vector<double> time_points(mpi::Comm& c) {
  std::vector<double> out;
  for (const Point& p : points()) {
    const int count = static_cast<int>(p.bytes / 8);
    std::vector<double> in(static_cast<std::size_t>(count), 1.0 + c.rank());
    std::vector<double> res(in.size());
    const auto once = [&] {
      if (p.bcast) {
        c.bcast(in.data(), count, mpi::Datatype::double_type(), 0);
      } else {
        c.allreduce(in.data(), res.data(), count, mpi::Datatype::double_type(), mpi::Op::kSum);
      }
    };
    const int iters =
        static_cast<int>(std::clamp<std::int64_t>((kBatchMiB << 20) / p.bytes, 8, 400));
    for (int i = 0; i < 3; ++i) once();
    c.barrier();
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) once();
    c.barrier();
    out.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count() / iters);
  }
  return out;
}

std::vector<double> run_world(bool sockets, std::optional<Algo> force) {
  mpi::EngineConfig cfg;
  cfg.coll.force = force;
  if (!sockets) {
    runtime::ThreadsWorld world(kRanks, {}, cfg);
    return rank0_numbers(world, time_points);
  }
  runtime::SocketWorld world(kRanks, {}, cfg);
  return rank0_numbers(world, time_points);
}

void sweep(bool sockets) {
  const std::optional<Algo> configs[] = {Algo::kBinomial, Algo::kScatterAllgather, Algo::kRing,
                                         std::nullopt};
  std::vector<std::vector<double>> runs[4];
  for (int w = 0; w < kWorlds; ++w)
    for (int k = 0; k < 4; ++k) runs[k].push_back(run_world(sockets, configs[k]));
  std::printf("\n== %s, %d ranks\n", sockets ? "unix (SocketWorld)" : "shm (ThreadsWorld)",
              kRanks);
  Table t({"collective", "bytes", "binomial_us", "scatter_allgather_us", "ring_us", "auto_us",
           "auto_picks", "fastest", "auto_vs_fastest"});
  const std::vector<Point> pts = points();
  const mpi::coll::Tuning tuning;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    double us[4];
    for (int k = 0; k < 4; ++k) {
      std::vector<double> v;
      for (const std::vector<double>& r : runs[k]) v.push_back(r[i]);
      us[k] = median(std::move(v));
    }
    const int best = static_cast<int>(std::min_element(us, us + 3) - us);
    const Algo picked = mpi::coll::select(
        pts[i].bcast ? mpi::coll::Kind::kBcast : mpi::coll::Kind::kAllreduce, pts[i].bytes,
        kRanks, tuning);
    t.add_row({pts[i].bcast ? "bcast" : "allreduce", std::to_string(pts[i].bytes), fmt(us[0]),
               fmt(us[1]), fmt(us[2]), fmt(us[3]), mpi::coll::name(picked),
               mpi::coll::name(*configs[best]),
               (us[3] >= us[best] ? "+" : "") + fmt(100.0 * (us[3] / us[best] - 1.0), 1) + "%"});
  }
  t.print();
}

}  // namespace
}  // namespace lcmpi::bench

int main() {
  std::printf("coll::select crossovers on the real worlds\n");
  for (const bool sockets : {false, true}) lcmpi::bench::sweep(sockets);
  return 0;
}
