// Figure 1 on the real transports: where eager stops paying.
//
// The paper measured the CS/2 (Fig. 1, fig1_meiko_transfer) and set its
// eager/rendezvous switch at the 180 B crossover. This harness makes the
// same measurement on the transports the MPI core really runs on:
// ShmFabric (ThreadsWorld, one thread per rank) and SocketFabric over
// AF_UNIX and AF_INET (SocketWorld, one process per rank).
//
//   fig1_real_transfer [--quick]
//
// Per transport, a 2-rank ping-pong runs at every size from 64 B to 1 MiB
// three ways: forced eager and forced rendezvous
// (EngineConfig::eager_threshold_override), in worlds whose credit window
// fits a 1 MiB eager message, and at the fabric's defaults. Rank 0 times
// the round trips itself, in batches; each cell is the median batch. Each
// forced branch is fitted as a + b*N by least squares, as the MPICH
// ping-pong benchmark fits its one-way times, weighting every size by its
// relative error (the sizes are spaced geometrically, so an unweighted fit
// would be the 1 MiB points alone). The crossover is where the two fitted
// lines meet. --quick runs fewer, shorter batches: enough to show that
// the sweep runs, not to choose a threshold.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench/real_world_run.h"
#include "src/runtime/world.h"
#include "src/util/table.h"

namespace lcmpi::bench {
namespace {

using Clock = std::chrono::steady_clock;

enum class Transport { kShm, kUnix, kInet };

const char* transport_name(Transport t) {
  switch (t) {
    case Transport::kShm: return "shm";
    case Transport::kUnix: return "unix";
    case Transport::kInet: return "inet";
  }
  return "?";
}

/// Credit window of the forced worlds: room for one 1 MiB eager message.
constexpr std::int64_t kForcedWindow = std::int64_t{4} << 20;

struct Plan {
  int worlds = 9;   // fresh worlds per branch, interleaved across branches
  int batches = 5;  // timed batches per size in each world
  std::int64_t batch_bytes = 8 << 20;  // payload bytes per batch, each way
  [[nodiscard]] int iters(std::int64_t size) const {
    return static_cast<int>(std::clamp<std::int64_t>(batch_bytes / size, 8, 1000));
  }
};

std::vector<std::int64_t> sweep_sizes() {
  std::vector<std::int64_t> s;
  for (std::int64_t n = 64; n <= (1 << 20); n *= 2) s.push_back(n);
  return s;
}

/// The ping-pong body. Rank 0 returns the median batch round trip (us)
/// per size, then the eager threshold and credit window in force; rank 1
/// echoes and returns nothing.
std::vector<double> pingpong(mpi::Comm& c, const std::vector<std::int64_t>& sizes,
                             const Plan& plan) {
  const auto byte = mpi::Datatype::byte_type();
  std::vector<double> out;
  for (const std::int64_t size : sizes) {
    const int iters = plan.iters(size);
    const int warmup = 1 + iters / 4;
    const int n = static_cast<int>(size);
    std::vector<unsigned char> buf(static_cast<std::size_t>(size), 0x5a);
    if (c.rank() == 0) {
      const auto trip = [&] {
        c.send(buf.data(), n, byte, 1, 1);
        c.recv(buf.data(), n, byte, 1, 2);
      };
      for (int i = 0; i < warmup; ++i) trip();
      std::vector<double> batch;
      for (int b = 0; b < plan.batches; ++b) {
        const auto t0 = Clock::now();
        for (int i = 0; i < iters; ++i) trip();
        batch.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count() /
                        iters);
      }
      out.push_back(median(std::move(batch)));
    } else {
      for (int i = 0; i < warmup + plan.batches * iters; ++i) {
        c.recv(buf.data(), n, byte, 0, 1);
        c.send(buf.data(), n, byte, 0, 2);
      }
    }
  }
  if (c.rank() == 0) {
    out.push_back(static_cast<double>(c.engine().eager_threshold()));
    out.push_back(static_cast<double>(c.engine().caps().credit_bytes));
  }
  return out;
}

std::vector<double> run_world(Transport t, std::optional<std::int64_t> threshold,
                              const std::vector<std::int64_t>& sizes, const Plan& plan) {
  mpi::EngineConfig cfg;
  cfg.eager_threshold_override = threshold;
  const bool forced = threshold.has_value();
  const RankBody body = [&](mpi::Comm& c) { return pingpong(c, sizes, plan); };
  if (t == Transport::kShm) {
    fabric::ShmFabric::Options opt;
    if (forced) opt.caps.credit_bytes = kForcedWindow;
    runtime::ThreadsWorld world(2, opt, cfg);
    return rank0_numbers(world, body);
  }
  fabric::SocketFabric::Options opt;
  opt.domain = t == Transport::kUnix ? fabric::SocketFabric::Domain::kUnix
                                     : fabric::SocketFabric::Domain::kInet;
  if (forced) opt.caps.credit_bytes = kForcedWindow;
  runtime::SocketWorld world(2, opt, cfg);
  return rank0_numbers(world, body);
}

/// y = a + b*N, fitted by least squares on relative error (weights 1/y^2).
struct Fit {
  double a = 0;  // us
  double b = 0;  // us per byte
};

Fit fit_line(const std::vector<std::int64_t>& x, const std::vector<double>& y) {
  double s = 0, sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double w = 1.0 / (y[i] * y[i]);
    const auto xi = static_cast<double>(x[i]);
    s += w;
    sx += w * xi;
    sy += w * y[i];
    sxx += w * xi * xi;
    sxy += w * xi * y[i];
  }
  Fit f;
  f.b = (s * sxy - sx * sy) / (s * sxx - sx * sx);
  f.a = (sy - f.b * sx) / s;
  return f;
}

void sweep(Transport t, const Plan& plan) {
  const std::vector<std::int64_t> sizes = sweep_sizes();
  // Each cell is the median over plan.worlds fresh worlds per branch, run
  // in turn, so a world whose threads or processes landed badly on the
  // CPUs skews no branch on its own.
  const std::optional<std::int64_t> branches[] = {kForcedWindow, 0, std::nullopt};
  std::vector<std::vector<double>> runs[3];
  for (int w = 0; w < plan.worlds; ++w)
    for (int b = 0; b < 3; ++b) runs[b].push_back(run_world(t, branches[b], sizes, plan));
  const auto cell = [&](int b, std::size_t i) {
    std::vector<double> v;
    for (const std::vector<double>& r : runs[b]) v.push_back(r[i]);
    return median(std::move(v));
  };
  std::vector<double> eager, rndv, dflt;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    eager.push_back(cell(0, i));
    rndv.push_back(cell(1, i));
    dflt.push_back(cell(2, i));
  }
  const double threshold = runs[2][0][sizes.size()];
  const double window = runs[2][0][sizes.size() + 1];

  const char* name = transport_name(t);
  std::printf("\n== %s: default eager threshold %.0f B, credit window %.0f B (N = 2)\n", name,
              threshold, window);
  Table tab({"bytes", "eager_us", "rndv_us", "default_us", "faster", "default_vs_faster"});
  std::size_t rndv_from = sizes.size();  // first size of the all-rendezvous suffix
  for (std::size_t i = sizes.size(); i-- > 0;) {
    if (rndv[i] >= eager[i]) break;
    rndv_from = i;
  }
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const double best = std::min(eager[i], rndv[i]);
    tab.add_row({std::to_string(sizes[i]), fmt(eager[i]), fmt(rndv[i]), fmt(dflt[i]),
                 eager[i] <= rndv[i] ? "eager" : "rndv",
                 (dflt[i] >= best ? "+" : "") + fmt(100.0 * (dflt[i] / best - 1.0), 1) + "%"});
  }
  tab.print();
  const Fit fe = fit_line(sizes, eager);
  const Fit fr = fit_line(sizes, rndv);
  std::printf("fit %s eager:      a = %s us, b = %s ns/B\n", name, fmt(fe.a).c_str(),
              fmt(fe.b * 1e3, 4).c_str());
  std::printf("fit %s rendezvous: a = %s us, b = %s ns/B\n", name, fmt(fr.a).c_str(),
              fmt(fr.b * 1e3, 4).c_str());
  const std::string measured =
      rndv_from == sizes.size()
          ? "eager is faster at every swept size"
          : rndv_from == 0 ? "rendezvous is faster at every swept size"
                           : "eager faster through " + std::to_string(sizes[rndv_from - 1]) +
                                 " B, rendezvous from " + std::to_string(sizes[rndv_from]) +
                                 " B";
  if (fe.b > fr.b && fr.a > fe.a) {
    std::printf("crossover %s: %.0f B fitted; measured: %s\n", name,
                (fr.a - fe.a) / (fe.b - fr.b), measured.c_str());
  } else {
    std::printf("crossover %s: none (the fitted lines do not meet); measured: %s\n", name,
                measured.c_str());
  }
}

int run(bool quick) {
  std::printf("Figure 1 on real transports: eager vs rendezvous round trips%s\n",
              quick ? " (--quick)" : "");
  Plan plan;
  if (quick) {
    // Still a median over worlds: one world whose ranks share a CPU can
    // time every size several times too slow.
    plan.worlds = 3;
    plan.batches = 3;
    plan.batch_bytes = 1 << 20;
  }
  for (const Transport t : {Transport::kShm, Transport::kUnix, Transport::kInet}) sweep(t, plan);
  return 0;
}

}  // namespace
}  // namespace lcmpi::bench

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: fig1_real_transfer [--quick]\n");
      return 2;
    }
  }
  return lcmpi::bench::run(quick);
}
