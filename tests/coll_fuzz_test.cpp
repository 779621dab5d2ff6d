// Differential collective-algorithm fuzzer.
//
// A seeded script of random collective workloads — op x datatype x size x
// root x communicator subset — runs on LoopWorld once per software
// algorithm (binomial tree, scatter-allgather, pipelined ring), forced via
// EngineConfig::coll.force, and once on a ThreadsWorld, whose world
// communicator takes ShmFabric's barrier and broadcast offload. Every
// observable (broadcast bytes at each rank, the reduction result at the
// root, the allreduce result everywhere) must be BYTE-IDENTICAL to the binomial reference: all three
// reduction families fold contributions in ascending comm-rank order, so
// for exactly associative ops (all integer/byte ops, float Min/Max,
// associative user ops — including non-commutative ones) the algorithm
// choice must be invisible, not just "numerically close".
//
// Value ranges are deliberately bounded so no run overflows a signed type
// (UBSan-clean by construction): Sum draws small magnitudes, Prod draws
// from {1, 2} (at most 2^7 over 8 ranks), and the non-commutative 2x2
// matrix product draws entries from {0, 1, 2} whose subtree bound
// 2*M^2 stays far below INT32_MAX for 8 ranks. Doubles only fuzz Min/Max:
// Sum/Prod association differs across algorithms in the last ulp, which
// is exactly what this test must not tolerate elsewhere.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "src/runtime/world.h"
#include "src/util/rng.h"

namespace lcmpi::mpi {
namespace {

std::uint64_t fnv1a(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

enum class Dt : int { kInt32, kInt64, kByte, kDouble };
enum class WOp : int { kSum, kProd, kMin, kMax, kMatMul };

struct Workload {
  int nranks = 2;
  int count = 0;  // elements of `dtype`
  int root = 0;   // comm rank within the (sub)communicator
  Dt dtype = Dt::kInt32;
  WOp op = WOp::kSum;
  bool subset = false;  // run on split(even world ranks) instead of world
  std::uint64_t seed = 0;
};

/// Derives workload #i deterministically. Sizes straddle the ring segment
/// (8 KiB) and the selection crossovers; zero-length and 1-element counts
/// appear regularly.
Workload make_workload(int i) {
  Rng rng(0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(i) * 7919);
  Workload w;
  w.seed = rng.next_u64();
  w.nranks = static_cast<int>(rng.uniform(2, 8));
  w.subset = rng.chance(0.3);
  const int counts[] = {0, 1, 3, 17, 256, 1024, 4096, 6000};
  w.count = counts[rng.next_below(8)];
  w.dtype = static_cast<Dt>(rng.next_below(4));
  if (w.dtype == Dt::kDouble) {
    w.op = rng.chance(0.5) ? WOp::kMin : WOp::kMax;
  } else {
    w.op = static_cast<WOp>(rng.next_below(4));
  }
  // Every 5th workload: the non-commutative associative user op (2x2 int32
  // matrix chain product). The datatype becomes contiguous(4, int32) — one
  // element IS one matrix, so the algorithms' element-boundary
  // segmentation (ring segments, reduce-scatter blocks) can never split a
  // matrix, exactly as MPI requires of user-op datatypes.
  if (i % 5 == 4) {
    w.dtype = Dt::kInt32;
    w.op = WOp::kMatMul;
    const int mats[] = {1, 5, 32, 700};
    w.count = mats[rng.next_below(4)];
  }
  return w;
}

Datatype datatype_of(const Workload& w) {
  if (w.op == WOp::kMatMul) return Datatype::contiguous(4, Datatype::int32_type());
  switch (w.dtype) {
    case Dt::kInt32: return Datatype::int32_type();
    case Dt::kInt64: return Datatype::int64_type();
    case Dt::kByte: return Datatype::byte_type();
    case Dt::kDouble: return Datatype::double_type();
  }
  return Datatype::byte_type();
}

Op builtin_of(WOp op) {
  switch (op) {
    case WOp::kSum: return Op::kSum;
    case WOp::kProd: return Op::kProd;
    case WOp::kMin: return Op::kMin;
    case WOp::kMax: return Op::kMax;
    case WOp::kMatMul: break;
  }
  return Op::kSum;
}

/// Rank `rank`'s contribution: a pure function of (workload seed, rank),
/// identical across algorithms and value-bounded per the op (see header
/// comment).
std::vector<unsigned char> make_input(const Workload& w, int rank) {
  Rng rng = Rng(w.seed).split(static_cast<std::uint64_t>(rank));
  const Datatype t = datatype_of(w);
  std::vector<unsigned char> buf(static_cast<std::size_t>(w.count * t.size()));
  // For matmul each element is a whole 4-int32 matrix.
  const int n = w.op == WOp::kMatMul ? w.count * 4 : w.count;
  switch (w.dtype) {
    case Dt::kInt32: {
      auto* v = reinterpret_cast<std::int32_t*>(buf.data());
      for (int i = 0; i < n; ++i) {
        if (w.op == WOp::kProd) v[i] = static_cast<std::int32_t>(rng.uniform(1, 2));
        else if (w.op == WOp::kMatMul) v[i] = static_cast<std::int32_t>(rng.uniform(0, 2));
        else v[i] = static_cast<std::int32_t>(rng.uniform(-100, 100));
      }
      break;
    }
    case Dt::kInt64: {
      auto* v = reinterpret_cast<std::int64_t*>(buf.data());
      for (int i = 0; i < n; ++i) {
        if (w.op == WOp::kProd) v[i] = rng.uniform(1, 2);
        else v[i] = rng.uniform(-100000, 100000);
      }
      break;
    }
    case Dt::kByte:
      // uint8 arithmetic wraps (defined); any value is safe for any op.
      for (int i = 0; i < n; ++i) buf[static_cast<std::size_t>(i)] =
          static_cast<unsigned char>(rng.next_below(256));
      break;
    case Dt::kDouble: {
      auto* v = reinterpret_cast<double*>(buf.data());
      for (int i = 0; i < n; ++i)
        v[i] = static_cast<double>(rng.uniform(-1000000, 1000000)) / 128.0;
      break;
    }
  }
  return buf;
}

/// 2x2 int32 matrix chain product: associative, NOT commutative. One
/// datatype element = one matrix (contiguous(4, int32)), so `count` is in
/// matrices. The ascending fold computes acc = acc * in (lower rank on
/// the left), so combine(in, inout) multiplies inout (left) by in (right).
void matmul_combine(const void* in, void* inout, int count) {
  const auto* a = static_cast<const std::int32_t*>(in);
  auto* b = static_cast<std::int32_t*>(inout);
  for (int mat = 0; mat < count; ++mat) {
    const int m = mat * 4;
    const std::int32_t r0 = b[m] * a[m] + b[m + 1] * a[m + 2];
    const std::int32_t r1 = b[m] * a[m + 1] + b[m + 1] * a[m + 3];
    const std::int32_t r2 = b[m + 2] * a[m] + b[m + 3] * a[m + 2];
    const std::int32_t r3 = b[m + 2] * a[m + 1] + b[m + 3] * a[m + 3];
    b[m] = r0;
    b[m + 1] = r1;
    b[m + 2] = r2;
    b[m + 3] = r3;
  }
}

/// Runs the workload's collective phases on `c`, appending one digest per
/// observable to `log`. Non-root ranks log a sentinel where the reduce
/// result is undefined so log shapes match across ranks.
void run_phases(Comm& c, const Workload& w, std::vector<std::uint64_t>& log) {
  const Datatype t = datatype_of(w);
  const std::size_t bytes = static_cast<std::size_t>(w.count * t.size());
  const int root = c.size() == 0 ? 0 : w.root % c.size();

  // Phase 1: bcast from `root`.
  std::vector<unsigned char> bc(bytes);
  if (c.rank() == root) bc = make_input(w, /*rank=*/root);
  c.bcast(bc.data(), w.count, t, root);
  log.push_back(fnv1a(bc.data(), bc.size()));

  const std::vector<unsigned char> mine = make_input(w, c.rank());
  std::vector<unsigned char> out(bytes, 0xcd);

  // Phase 2: rooted reduce.
  if (w.op == WOp::kMatMul) {
    c.reduce(mine.data(), out.data(), w.count, t, Comm::UserOp(matmul_combine), root);
  } else {
    c.reduce(mine.data(), out.data(), w.count, t, builtin_of(w.op), root);
  }
  log.push_back(c.rank() == root ? fnv1a(out.data(), out.size()) : 0xd0d0ull);

  // Phase 3: allreduce.
  std::fill(out.begin(), out.end(), 0xab);
  if (w.op == WOp::kMatMul) {
    c.allreduce(mine.data(), out.data(), w.count, t, Comm::UserOp(matmul_combine));
  } else {
    c.allreduce(mine.data(), out.data(), w.count, t, builtin_of(w.op));
  }
  log.push_back(fnv1a(out.data(), out.size()));

  // Phase 4: barrier under the same forced algorithm.
  c.barrier();
  log.push_back(0xba11);
}

/// One full run of `w` on `world`; logs indexed by WORLD rank (non-members
/// of a subset communicator log a fixed marker). Each rank writes only its
/// own log, so a ThreadsWorld's rank threads share nothing here.
template <typename World>
std::vector<std::vector<std::uint64_t>> run_on(World& world, const Workload& w) {
  std::vector<std::vector<std::uint64_t>> logs(static_cast<std::size_t>(w.nranks));
  world.run([&](Comm& wc, sim::Actor&) {
    auto& log = logs[static_cast<std::size_t>(wc.rank())];
    if (!w.subset) {
      run_phases(wc, w, log);
      return;
    }
    // Even world ranks form the sub-communicator; odd ranks sit out. With
    // nranks == 2 or 3 this yields 1- and 2-rank comms, exercising the
    // self-comm fast paths under every algorithm.
    std::optional<Comm> sub = wc.split(wc.rank() % 2 == 0 ? 0 : -1, wc.rank());
    if (!sub) {
      log.push_back(0x0ddba11);
      return;
    }
    run_phases(*sub, w, log);
  });
  return logs;
}

/// `w` on LoopWorld under `algo`.
std::vector<std::vector<std::uint64_t>> run_workload(const Workload& w, coll::Algo algo) {
  EngineConfig cfg;
  cfg.coll.force = algo;
  runtime::LoopWorld world(w.nranks, {}, cfg);
  return run_on(world, w);
}

TEST(CollFuzzTest, AllAlgorithmsByteIdenticalAcrossFortyEightWorkloads) {
  for (int i = 0; i < 48; ++i) {
    const Workload w = make_workload(i);
    SCOPED_TRACE(testing::Message()
                 << "workload " << i << ": nranks=" << w.nranks << " count=" << w.count
                 << " dtype=" << static_cast<int>(w.dtype) << " op=" << static_cast<int>(w.op)
                 << " root=" << w.root << " subset=" << w.subset);
    const auto ref = run_workload(w, coll::Algo::kBinomial);
    for (const coll::Algo algo : coll::kAllAlgos) {
      if (algo == coll::Algo::kBinomial) continue;
      const auto got = run_workload(w, algo);
      ASSERT_EQ(ref.size(), got.size());
      for (std::size_t r = 0; r < ref.size(); ++r) {
        EXPECT_EQ(ref[r], got[r])
            << "algorithm " << coll::name(algo) << " diverges from binomial at rank " << r;
      }
    }
  }
}

// The same script on real threads with the default configuration: on the
// world communicator ShmFabric's barrier and broadcast offload run (and
// the broadcast half of a binomial allreduce), while the even-rank subsets
// fall back to the software algorithms. Both must match the LoopWorld
// binomial reference byte for byte.
TEST(CollFuzzTest, ThreadsWorldOffloadMatchesTheBinomialReference) {
  for (int i = 0; i < 48; ++i) {
    const Workload w = make_workload(i);
    SCOPED_TRACE(testing::Message()
                 << "workload " << i << ": nranks=" << w.nranks << " count=" << w.count
                 << " dtype=" << static_cast<int>(w.dtype) << " op=" << static_cast<int>(w.op)
                 << " subset=" << w.subset);
    runtime::ThreadsWorld world(w.nranks);
    const auto got = run_on(world, w);
    const auto ref = run_workload(w, coll::Algo::kBinomial);
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t r = 0; r < ref.size(); ++r)
      EXPECT_EQ(ref[r], got[r]) << "ThreadsWorld diverges from binomial at rank " << r;
    if (!w.subset) {
      EXPECT_GE(world.fabric().stats().hw_bcasts, 1u);
      EXPECT_EQ(world.fabric().stats().hw_barriers, 1u);
    }
  }
}

// The same differential run, repeated with a varied root: the binomial
// tree roots its fold at comm rank 0 and relays to a non-zero root, the
// chain splices prefix/suffix at the root — a root sweep is where those
// paths could disagree for non-commutative ops.
TEST(CollFuzzTest, NonCommutativeUserOpRootSweep) {
  for (int nranks : {2, 3, 5, 8}) {
    for (int root = 0; root < nranks; ++root) {
      Workload w;
      w.nranks = nranks;
      w.count = 9;  // nine 2x2 matrices per rank
      w.root = root;
      w.dtype = Dt::kInt32;
      w.op = WOp::kMatMul;
      w.seed = 0xfeedULL * static_cast<std::uint64_t>(nranks * 31 + root);
      SCOPED_TRACE(testing::Message() << "nranks=" << nranks << " root=" << root);
      const auto ref = run_workload(w, coll::Algo::kBinomial);
      for (const coll::Algo algo : coll::kAllAlgos) {
        const auto got = run_workload(w, algo);
        for (std::size_t r = 0; r < ref.size(); ++r)
          EXPECT_EQ(ref[r], got[r]) << coll::name(algo) << " rank " << r;
      }
    }
  }
}

}  // namespace
}  // namespace lcmpi::mpi
