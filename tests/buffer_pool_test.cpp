// BufferPool unit tests: reuse accounting, best-fit selection, capped
// retention, and the engine-level integration (collectives + rendezvous
// staging actually recycle buffers and report via mpi::pool_report).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/buffer_pool.h"
#include "src/core/profile.h"
#include "src/runtime/world.h"

namespace lcmpi {
namespace {

using mpi::BufferPool;

TEST(BufferPoolTest, FirstAcquireAllocatesFresh) {
  BufferPool pool;
  Bytes b = pool.acquire(1024);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_GE(b.capacity(), 1024u);
  const auto& s = pool.stats();
  EXPECT_EQ(s.acquires, 1);
  EXPECT_EQ(s.reuses, 0);
  EXPECT_EQ(s.bytes_allocated, 1024);
}

TEST(BufferPoolTest, ReleaseThenAcquireReuses) {
  BufferPool pool;
  Bytes b = pool.acquire(4096);
  b.resize(4096, std::byte{0x5a});
  pool.release(std::move(b));
  EXPECT_EQ(pool.pooled(), 1u);

  Bytes c = pool.acquire(2048);  // smaller request fits the pooled 4 KiB
  EXPECT_EQ(c.size(), 0u);       // comes back cleared
  EXPECT_GE(c.capacity(), 4096u);
  const auto& s = pool.stats();
  EXPECT_EQ(s.acquires, 2);
  EXPECT_EQ(s.reuses, 1);
  EXPECT_EQ(s.releases, 1);
  EXPECT_EQ(s.bytes_allocated, 4096);  // no second allocation
}

TEST(BufferPoolTest, TooSmallPooledBufferIsNotReused) {
  BufferPool pool;
  pool.release(pool.acquire(256));
  Bytes big = pool.acquire(1 << 20);
  EXPECT_GE(big.capacity(), std::size_t{1} << 20);
  EXPECT_EQ(pool.stats().reuses, 0);
  EXPECT_EQ(pool.pooled(), 1u);  // the small one stays for a small caller
}

TEST(BufferPoolTest, BestFitPrefersSmallestAdequateBuffer) {
  BufferPool pool;
  Bytes big = pool.acquire(1 << 20);   // 1 MiB
  Bytes small = pool.acquire(8 << 10); // 8 KiB (fresh: big not yet pooled)
  pool.release(std::move(big));
  pool.release(std::move(small));
  Bytes b = pool.acquire(4 << 10);     // 4 KiB request
  // Must take the 8 KiB buffer, leaving the 1 MiB one for a big caller.
  EXPECT_LT(b.capacity(), std::size_t{1} << 20);
  EXPECT_GE(b.capacity(), std::size_t{4} << 10);
}

TEST(BufferPoolTest, RetentionCapKeepsLargestCapacities) {
  BufferPool pool(/*max_buffers=*/2);
  pool.release(pool.acquire(100));
  pool.release(pool.acquire(200));
  pool.release(pool.acquire(5000));  // pool full: must evict the 100-byte one
  EXPECT_EQ(pool.pooled(), 2u);
  EXPECT_EQ(pool.stats().discards, 1);
  Bytes b = pool.acquire(4000);
  EXPECT_EQ(pool.stats().reuses, 1);  // 5000-capacity buffer survived
}

TEST(BufferPoolTest, CollectivesRecycleStagingBuffers) {
  // Repeated large broadcasts on a real world: after warm-up every
  // scatter_allgather staging acquire should be served from the pool.
  // The algorithm is pinned programmatically (outranks LCMPI_COLL): a
  // forced-binomial suite leg would otherwise bcast straight from the
  // user buffer with no staging at all. The offload is off, since
  // ShmFabric's broadcast outranks any force on the world.
  mpi::EngineConfig cfg;
  cfg.coll.force = mpi::coll::Algo::kScatterAllgather;
  cfg.use_hw_bcast = false;
  runtime::ThreadsWorld world(4, {}, cfg);
  world.run([](mpi::Comm& c, sim::Actor&) {
    std::vector<unsigned char> buf(256 << 10);
    if (c.rank() == 0)
      for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<unsigned char>(i * 31);
    const auto byte = mpi::Datatype::byte_type();
    for (int round = 0; round < 6; ++round)
      c.bcast(buf.data(), static_cast<int>(buf.size()), byte, 0);
    const BufferPool::Stats s = c.engine().pool().stats();
    EXPECT_GT(s.acquires, 0);
    EXPECT_GT(s.reuses, 0);  // later rounds recycle round-1 buffers
    EXPECT_EQ(s.releases, s.acquires);  // nothing leaked mid-collective
  });
}

TEST(BufferPoolTest, PoolReportRendersCounters) {
  BufferPool pool;
  pool.release(pool.acquire(1024));
  (void)pool.acquire(512);
  const Table t = mpi::pool_report(pool.stats());
  EXPECT_EQ(t.rows(), 5u);  // acquires/reuses/releases/discards/bytes
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  t.print_csv(f);
  std::rewind(f);
  std::string text(4096, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), f));
  std::fclose(f);
  EXPECT_NE(text.find("acquires,2"), std::string::npos);
  EXPECT_NE(text.find("reuses,1"), std::string::npos);
}

}  // namespace
}  // namespace lcmpi
