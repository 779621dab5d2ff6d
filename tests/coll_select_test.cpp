// Properties of the collective-algorithm selection layer (src/core/coll.h)
// and the hardware-offload precedence rules it documents:
//
//   * the table is TOTAL and STABLE: every (kind, bytes, nranks) cell maps
//     to exactly one valid algorithm, every time;
//   * a force collapses the whole table to one algorithm;
//   * the LCMPI_COLL environment override wins over the table, loses to a
//     programmatic force, and ignores junk values;
//   * Meiko hardware offload fires only for world-spanning communicators —
//     a sub-communicator falls back to the software algorithms (counted at
//     the Machine) — and is NOT disabled by a forced software algorithm;
//   * a 1-rank allreduce is a pure local copy: no tree, no staging-pool
//     traffic (the BufferPool acquire count must not move).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/runtime/world.h"
#include "tests/scoped_env.h"
#include "tests/world_conformance.h"

namespace lcmpi::mpi {
namespace {

constexpr coll::Kind kKinds[] = {coll::Kind::kBcast, coll::Kind::kReduce,
                                 coll::Kind::kAllreduce, coll::Kind::kBarrier};

bool is_valid(coll::Algo a) {
  for (const coll::Algo v : coll::kAllAlgos)
    if (a == v) return true;
  return false;
}

// ------------------------------------------------------------- table shape

TEST(CollSelectTest, TableIsTotalAndStableOverTheSweptGrid) {
  const coll::Tuning t;  // defaults, no force
  const std::int64_t sizes[] = {0,     1,      64,          4096,   16 * 1024,
                                16 * 1024 + 1, 256 * 1024,  256 * 1024 + 1,
                                1 << 20,       8LL << 20};
  for (const coll::Kind kind : kKinds) {
    for (const std::int64_t bytes : sizes) {
      for (int n = 1; n <= 64; n = n < 8 ? n + 1 : n * 2) {
        const coll::Algo first = coll::select(kind, bytes, n, t);
        EXPECT_TRUE(is_valid(first))
            << "kind=" << static_cast<int>(kind) << " bytes=" << bytes << " n=" << n;
        // Exactly one algorithm per cell: repeated queries never disagree.
        for (int rep = 0; rep < 3; ++rep)
          EXPECT_EQ(first, coll::select(kind, bytes, n, t));
      }
    }
  }
}

TEST(CollSelectTest, CrossoversFollowTheTunedThresholds) {
  const coll::Tuning t;
  // Small payloads and tiny comms stay on the binomial tree (this is also
  // what keeps default behaviour identical to the pre-engine-v2 library).
  EXPECT_EQ(coll::select(coll::Kind::kBcast, 64, 8, t), coll::Algo::kBinomial);
  EXPECT_EQ(coll::select(coll::Kind::kBcast, t.long_msg_bytes, 8, t), coll::Algo::kBinomial);
  EXPECT_EQ(coll::select(coll::Kind::kBcast, 1 << 20, 2, t), coll::Algo::kBinomial);
  // Bcast past long_msg_bytes: scatter-allgather, until huge_msg_bytes.
  EXPECT_EQ(coll::select(coll::Kind::kBcast, t.long_msg_bytes + 1, 8, t),
            coll::Algo::kScatterAllgather);
  EXPECT_EQ(coll::select(coll::Kind::kBcast, t.huge_msg_bytes, 8, t),
            coll::Algo::kScatterAllgather);
  // Bcast past huge_msg_bytes: the pipelined ring.
  EXPECT_EQ(coll::select(coll::Kind::kBcast, t.huge_msg_bytes + 1, 8, t),
            coll::Algo::kRing);
  // Reductions cross over to the block reduce-scatter much earlier (the
  // fold work parallelises with the bytes) and never use the chain ring.
  EXPECT_EQ(coll::select(coll::Kind::kReduce, t.reduce_long_msg_bytes, 8, t),
            coll::Algo::kBinomial);
  EXPECT_EQ(coll::select(coll::Kind::kReduce, t.reduce_long_msg_bytes + 1, 2, t),
            coll::Algo::kScatterAllgather);
  EXPECT_EQ(coll::select(coll::Kind::kAllreduce, 8 << 20, 16, t),
            coll::Algo::kScatterAllgather);
  // Barriers carry no payload; the dissemination pattern rides the
  // scatter-allgather slot at every size.
  EXPECT_EQ(coll::select(coll::Kind::kBarrier, 0, 8, t), coll::Algo::kScatterAllgather);
}

TEST(CollSelectTest, ForceCollapsesEveryCell) {
  for (const coll::Algo forced : coll::kAllAlgos) {
    coll::Tuning t;
    t.force = forced;
    for (const coll::Kind kind : kKinds)
      for (const std::int64_t bytes : {std::int64_t{0}, std::int64_t{1 << 20}})
        for (int n : {1, 2, 16})
          EXPECT_EQ(coll::select(kind, bytes, n, t), forced);
  }
}

// ------------------------------------------------- env / force precedence

TEST(CollSelectTest, EnvOverrideWinsOverTheTable) {
  ScopedEnv env("LCMPI_COLL", "ring");
  const coll::Tuning t = coll::resolve({});
  ASSERT_TRUE(t.force.has_value());
  EXPECT_EQ(*t.force, coll::Algo::kRing);
  EXPECT_EQ(coll::select(coll::Kind::kBcast, 64, 8, t), coll::Algo::kRing);
}

TEST(CollSelectTest, ProgrammaticForceBeatsEnv) {
  ScopedEnv env("LCMPI_COLL", "ring");
  coll::Tuning t;
  t.force = coll::Algo::kBinomial;
  t = coll::resolve(t);
  EXPECT_EQ(*t.force, coll::Algo::kBinomial);
}

TEST(CollSelectTest, UnsetEmptyOrJunkEnvMeansNoForce) {
  {
    ScopedEnv env("LCMPI_COLL", nullptr);
    EXPECT_FALSE(coll::resolve({}).force.has_value());
  }
  {
    ScopedEnv env("LCMPI_COLL", "");
    EXPECT_FALSE(coll::resolve({}).force.has_value());
  }
  {
    ScopedEnv env("LCMPI_COLL", "quantum_telepathy");
    EXPECT_FALSE(coll::resolve({}).force.has_value());
  }
}

TEST(CollSelectTest, ParseAcceptsAllDocumentedAliases) {
  EXPECT_EQ(coll::parse_algo("binomial"), coll::Algo::kBinomial);
  EXPECT_EQ(coll::parse_algo("tree"), coll::Algo::kBinomial);
  EXPECT_EQ(coll::parse_algo("scatter_allgather"), coll::Algo::kScatterAllgather);
  EXPECT_EQ(coll::parse_algo("vdg"), coll::Algo::kScatterAllgather);
  EXPECT_EQ(coll::parse_algo("ring"), coll::Algo::kRing);
  EXPECT_EQ(coll::parse_algo("pipeline"), coll::Algo::kRing);
  EXPECT_EQ(coll::parse_algo("carrier_pigeon"), std::nullopt);
  for (const coll::Algo a : coll::kAllAlgos)
    EXPECT_EQ(coll::parse_algo(coll::name(a)), a) << coll::name(a);
}

// -------------------------------------------- Meiko offload fallback rules

TEST(CollSelectTest, MeikoOffloadFallsBackToSoftwareOnSubCommunicators) {
  runtime::MeikoWorld world(4);
  meiko::Machine& machine = world.machine();
  world.run([&](Comm& c, sim::Actor&) {
    std::int32_t buf[8] = {};
    if (c.rank() == 0)
      for (int i = 0; i < 8; ++i) buf[i] = 100 + i;
    c.bcast(buf, 8, Datatype::int32_type(), 0);  // world-spanning: hardware
    EXPECT_EQ(buf[7], 107);
    c.barrier();  // world-spanning: hardware
    const std::uint64_t hw_bcasts_before = machine.hw_bcasts();
    const std::uint64_t hw_barriers_before = machine.hw_barriers();

    // A 2-rank sub-communicator must use the software paths even though
    // the fabric advertises hw_bcast/hw_barrier.
    std::optional<Comm> sub = c.split(c.rank() < 2 ? 0 : -1, c.rank());
    if (sub) {
      std::int32_t v = sub->rank() == 0 ? 42 : -1;
      sub->bcast(&v, 1, Datatype::int32_type(), 0);
      EXPECT_EQ(v, 42);
      sub->barrier();
      std::int32_t sum = 0;
      sub->allreduce(&v, &sum, 1, Datatype::int32_type(), Op::kSum);
      EXPECT_EQ(sum, 84);
    }
    c.barrier();
    if (c.rank() == 0) {
      EXPECT_EQ(machine.hw_bcasts(), hw_bcasts_before)
          << "sub-communicator bcast must not ride the Elan broadcast";
      // The trailing world barrier is hardware again; the sub-comm barrier
      // must not have touched the arrival counter.
      EXPECT_EQ(machine.hw_barriers(), hw_barriers_before + 1);
    }
  });
  EXPECT_GT(machine.hw_bcasts(), 0u);
  EXPECT_GT(machine.hw_barriers(), 0u);
}

TEST(CollSelectTest, ForcedSoftwareAlgorithmDoesNotDisableOffload) {
  // Rule A: a force governs only the SOFTWARE algorithm choice. On the
  // Meiko, a world-spanning bcast/barrier still rides the hardware even
  // with LCMPI_COLL or a programmatic force in effect — which is what
  // keeps the golden Fig. 7 times invariant under CI's forced legs.
  for (const coll::Algo forced : coll::kAllAlgos) {
    EngineConfig cfg;
    cfg.coll.force = forced;
    runtime::MeikoWorld world(4, {}, cfg);
    world.run([&](Comm& c, sim::Actor&) {
      std::int32_t v = c.rank() == 1 ? 77 : 0;
      c.bcast(&v, 1, Datatype::int32_type(), 1);
      EXPECT_EQ(v, 77);
      c.barrier();
    });
    EXPECT_EQ(world.machine().hw_bcasts(), 1u) << coll::name(forced);
    EXPECT_EQ(world.machine().hw_barriers(), 1u) << coll::name(forced);
  }
}

TEST(CollSelectTest, OffloadRespectsEngineConfigSwitches) {
  EngineConfig cfg;
  cfg.use_hw_bcast = false;
  cfg.use_hw_barrier = false;
  runtime::MeikoWorld world(4, {}, cfg);
  world.run([&](Comm& c, sim::Actor&) {
    std::int32_t v = c.rank() == 0 ? 5 : 0;
    c.bcast(&v, 1, Datatype::int32_type(), 0);
    EXPECT_EQ(v, 5);
    c.barrier();
  });
  EXPECT_EQ(world.machine().hw_bcasts(), 0u);
  EXPECT_EQ(world.machine().hw_barriers(), 0u);
}

// ------------------------------------------- 1-rank allreduce regression

TEST(CollSelectTest, OneRankAllreduceSkipsTreeAndPoolStaging) {
  // Regression: allreduce on a 1-rank communicator used to walk the full
  // tree machinery (pool staging included) to copy a buffer onto itself.
  // It must now be a plain local copy under EVERY algorithm.
  for (const coll::Algo forced : coll::kAllAlgos) {
    EngineConfig cfg;
    cfg.coll.force = forced;
    runtime::LoopWorld world(1, {}, cfg);
    world.run([&](Comm& c, sim::Actor&) {
      std::int64_t in[64], out[64];
      for (int i = 0; i < 64; ++i) {
        in[i] = i * 3 - 7;
        out[i] = -1;
      }
      const std::int64_t acquires_before = c.engine().pool().stats().acquires;
      c.allreduce(in, out, 64, Datatype::int64_type(), Op::kSum);
      std::int32_t m[4] = {1, 2, 3, 4}, mo[4] = {};
      c.allreduce(m, mo, 4, Datatype::int32_type(),
                  Comm::UserOp([](const void*, void*, int) {
                    FAIL() << "combine must never run on a 1-rank comm";
                  }));
      EXPECT_EQ(c.engine().pool().stats().acquires, acquires_before)
          << coll::name(forced) << ": 1-rank allreduce must not stage through the pool";
      for (int i = 0; i < 64; ++i) EXPECT_EQ(out[i], in[i]);
      for (int i = 0; i < 4; ++i) EXPECT_EQ(mo[i], m[i]);
    });
  }
}

// ------------------------------------------ Meiko substrate conformance

/// The collectives battery on the CS/2 model vs the LoopWorld reference,
/// per algorithm. On the Meiko the world-spanning broadcasts and barriers
/// ride the Elan hardware while LoopWorld runs pure software — the DATA
/// observed by every rank must be identical anyway.
TEST(CollSelectTest, MeikoMatchesLoopAcrossAlgorithms) {
  using conformance::RankLog;
  auto run_on_meiko = [](int nranks, const conformance::Program& prog,
                         const EngineConfig& cfg) {
    std::vector<RankLog> logs(static_cast<std::size_t>(nranks));
    runtime::MeikoWorld world(nranks, {}, cfg);
    world.run([&](Comm& comm, sim::Actor&) {
      prog(comm, logs[static_cast<std::size_t>(comm.rank())]);
    });
    return logs;
  };
  for (const coll::Algo algo : coll::kAllAlgos) {
    EngineConfig cfg;
    cfg.coll.force = algo;
    conformance::expect_logs_equal(
        conformance::run_on_loop(4, conformance::coll_battery_program, cfg),
        run_on_meiko(4, conformance::coll_battery_program, cfg));
  }
  conformance::expect_logs_equal(
      conformance::run_on_loop(5, conformance::coll_battery_program, {}),
      run_on_meiko(5, conformance::coll_battery_program, {}));
}

// In-world split to a singleton: same fast path through a derived comm.
TEST(CollSelectTest, SplitSingletonAllreduceIsALocalCopy) {
  runtime::LoopWorld world(3);
  world.run([&](Comm& c, sim::Actor&) {
    std::optional<Comm> solo = c.split(c.rank(), /*key=*/0);  // colors all differ
    ASSERT_TRUE(solo.has_value());
    ASSERT_EQ(solo->size(), 1);
    const std::int64_t acquires_before = c.engine().pool().stats().acquires;
    double v = 1.5 * c.rank(), r = -1;
    solo->allreduce(&v, &r, 1, Datatype::double_type(), Op::kMax);
    EXPECT_EQ(r, v);
    EXPECT_EQ(c.engine().pool().stats().acquires, acquires_before);
  });
}

}  // namespace
}  // namespace lcmpi::mpi
