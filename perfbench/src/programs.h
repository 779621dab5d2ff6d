// The rank programs the benchmark runs, their seeded inputs, and the fixed
// amount of work one round does.
//
//   p2p_program   — 2 ranks: the ping-pong size ladder, the 1 MiB stream,
//                   and the 64-message eager burst received in a seeded
//                   permuted order.
//   app_program   — 4 ranks: heat2d_parallel on a 2x2 grid in both halo
//                   modes, 8 B allreduce and 64 KiB bcast loops, and
//                   fence/put/fence epochs of halo-sized strips.
//
// Every payload, grid, reduction input and strip is drawn from the seed and
// checked by the receiving rank outside the timed span; each check is one
// attempted operation in the rank's Report.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "worlds.h"

namespace perfbench {

/// The work one round does, the same on every workload, so counter metrics
/// from different commits count the same operations.
struct Plan {
  static constexpr std::array<int, 4> kLadder = {8, 256, 4096, 65536};
  static constexpr int kLadderWarmup = 100;
  static constexpr int kLadderIters = 1000;   // timed round trips per rung
  static constexpr int kStreamBytes = 1 << 20;
  static constexpr int kStreamMsgs = 8;       // messages per stream sample
  static constexpr int kStreamSamples = 16;   // plus one warm-up sample
  static constexpr int kBurstMsgs = 64;
  static constexpr int kBurstBytes = 64;
  static constexpr int kBurstSamples = 32;    // plus one warm-up sample
  static constexpr int kGrid = 64;            // heat2d n (n x n doubles)
  static constexpr int kSteps = 40;           // heat2d steps per call
  static constexpr int kHeatCalls = 8;        // calls per halo mode
  static constexpr int kAllreduceOps = 50;    // ops per batch
  static constexpr int kAllreduceBatches = 20;  // plus one warm-up batch
  static constexpr int kBcastBytes = 65536;
  static constexpr int kBcastOps = 10;        // ops per batch
  static constexpr int kBcastBatches = 20;    // plus one warm-up batch
  static constexpr int kStrip = 32;           // doubles per RMA strip
  static constexpr int kRmaEpochs = 100;

  /// Checked operations a world performs; a failed world counts them all.
  static constexpr std::int64_t p2p_ops() {
    return static_cast<std::int64_t>(kLadder.size()) * (kLadderWarmup + kLadderIters) +
           (kStreamSamples + 1) * kStreamMsgs + (kBurstSamples + 1) * kBurstMsgs;
  }
  static constexpr std::int64_t app_ops(int nranks) {
    return 2 * kHeatCalls + (kAllreduceBatches + 1) * kAllreduceOps * nranks +
           (kBcastBatches + 1) * kBcastOps * (nranks - 1) + kRmaEpochs * nranks;
  }
};

/// Which output the self-test corrupts (once, in the first round).
enum class Corrupt { kNone, kRtt, kStream, kBurst, kHeat2d, kHeat2dRma, kAllreduce, kBcast, kRma };
[[nodiscard]] Corrupt parse_corrupt(const std::string& s);

/// Seeded inputs shared by every rank (built before any world starts).
struct Inputs {
  explicit Inputs(std::uint64_t seed);

  /// `size` seeded bytes; distinct `key`s give distinct byte strings.
  [[nodiscard]] const std::byte* pattern(std::uint64_t key, std::size_t size) const;
  /// A seeded exact-integer double per (key...) tuple.
  [[nodiscard]] double value(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                             std::uint64_t d) const;

  std::uint64_t seed;
  Bytes pool;
  std::vector<std::vector<int>> perms;  // burst receive orders
  std::vector<std::vector<double>> grids;  // heat2d initial grids
  std::vector<std::vector<double>> refs;   // heat2d_serial of each grid
};

/// One round's context for a rank program.
struct RoundCtx {
  const Inputs* in = nullptr;
  int round = 0;
  bool traced = false;
  Corrupt corrupt = Corrupt::kNone;
};

void p2p_program(lcmpi::mpi::Comm& c, const RankEnv& env, Report& rep, const RoundCtx& ctx);
void app_program(lcmpi::mpi::Comm& c, const RankEnv& env, Report& rep, const RoundCtx& ctx);

}  // namespace perfbench
