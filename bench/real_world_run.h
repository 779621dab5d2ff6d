// What the wall-clock benches over the real worlds share: run one body on
// every rank of a ThreadsWorld or a SocketWorld and keep the numbers rank
// 0 reports, and take the median of a sample.
#pragma once

#include <algorithm>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "src/runtime/world.h"
#include "src/util/bytes.h"

namespace lcmpi::bench {

/// A rank's part of a measurement; only rank 0's numbers are kept.
using RankBody = std::function<std::vector<double>(mpi::Comm&)>;

/// Runs `body` on every rank of `world` and returns rank 0's numbers.
inline std::vector<double> rank0_numbers(runtime::ThreadsWorld& world, const RankBody& body) {
  std::vector<double> result;
  world.run([&](mpi::Comm& c, sim::Actor&) {
    std::vector<double> r = body(c);
    if (c.rank() == 0) result = std::move(r);
  });
  return result;
}

/// The same over forked ranks, whose numbers come back as bytes.
inline std::vector<double> rank0_numbers(runtime::SocketWorld& world, const RankBody& body) {
  const std::vector<Bytes> raw = world.run_collect([&](mpi::Comm& c, sim::Actor&) {
    const std::vector<double> r = body(c);
    Bytes b(r.size() * sizeof(double));
    if (!r.empty()) std::memcpy(b.data(), r.data(), b.size());
    return b;
  });
  std::vector<double> result(raw[0].size() / sizeof(double));
  if (!result.empty()) std::memcpy(result.data(), raw[0].data(), raw[0].size());
  return result;
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace lcmpi::bench
