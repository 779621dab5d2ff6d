// Cross-world conformance harness, shared by every REAL execution backend
// (threads_world_test.cpp, socket_world_test.cpp).
//
// The same battery of rank programs runs on the single-threaded simulator
// (LoopWorld) and on a real backend, and every observable that MPI pins
// down must agree — payload bytes, Status fields, and the order of
// messages *within* each (source, tag) stream. What MPI deliberately
// leaves open (the interleaving *across* sources under wildcards) is
// compared order-insensitively, which is exactly what keying the logs by
// (source, tag) encodes.
//
// RankLogs serialize to bytes because the socket world's ranks are forked
// processes: writes to captured vectors die with the child, so the log
// itself is the rank's result, shipped back over the launcher pipe.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/win.h"
#include "src/runtime/world.h"

namespace lcmpi::conformance {

/// What one rank observed. Streams are keyed by (source, tag) — the unit
/// MPI orders — holding payload checksums in receive order; scalars hold
/// collective results and other single values, in program order.
struct RankLog {
  std::map<std::pair<int, int>, std::vector<std::uint64_t>> streams;
  std::vector<std::int64_t> scalars;

  void log_msg(int src, int tag, std::uint64_t checksum) {
    streams[{src, tag}].push_back(checksum);
  }
  void log_scalar(std::int64_t v) { scalars.push_back(v); }

  [[nodiscard]] Bytes serialize() const {
    Bytes out;
    ByteWriter w(out);
    w.put(static_cast<std::uint32_t>(streams.size()));
    for (const auto& [key, seq] : streams) {
      w.put(static_cast<std::int32_t>(key.first));
      w.put(static_cast<std::int32_t>(key.second));
      w.put(static_cast<std::uint32_t>(seq.size()));
      for (const std::uint64_t v : seq) w.put(v);
    }
    w.put(static_cast<std::uint32_t>(scalars.size()));
    for (const std::int64_t v : scalars) w.put(v);
    return out;
  }

  [[nodiscard]] static RankLog deserialize(const Bytes& in) {
    RankLog log;
    ByteReader r(in);
    const auto nstreams = r.get<std::uint32_t>();
    for (std::uint32_t s = 0; s < nstreams; ++s) {
      const auto src = r.get<std::int32_t>();
      const auto tag = r.get<std::int32_t>();
      const auto count = r.get<std::uint32_t>();
      auto& seq = log.streams[{src, tag}];
      seq.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) seq.push_back(r.get<std::uint64_t>());
    }
    const auto nscalars = r.get<std::uint32_t>();
    for (std::uint32_t i = 0; i < nscalars; ++i)
      log.scalars.push_back(r.get<std::int64_t>());
    return log;
  }
};

inline std::uint64_t fnv1a(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  return h;
}

/// Deterministic payload: a pure function of (src, tag, index, size), so
/// every world generates — and must observe — identical bytes.
inline std::vector<unsigned char> make_payload(int src, int tag, int index,
                                               std::size_t size) {
  std::vector<unsigned char> buf(size);
  std::uint64_t x = fnv1a(&size, sizeof size) ^ static_cast<std::uint64_t>(src) << 40 ^
                    static_cast<std::uint64_t>(tag) << 20 ^
                    static_cast<std::uint64_t>(index);
  for (std::size_t i = 0; i < size; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    buf[i] = static_cast<unsigned char>(x >> 56);
  }
  return buf;
}

using Program = std::function<void(mpi::Comm&, RankLog&)>;

/// The reference run: the program on the idealised simulated fabric. The
/// EngineConfig rides along so the collective battery can force one
/// algorithm on BOTH sides of a conformance comparison.
inline std::vector<RankLog> run_on_loop(int nranks, const Program& prog,
                                        const mpi::EngineConfig& cfg = {}) {
  std::vector<RankLog> logs(static_cast<std::size_t>(nranks));
  runtime::LoopWorld world(nranks, {}, cfg);
  world.run([&prog, &logs](mpi::Comm& comm, sim::Actor&) {
    prog(comm, logs[static_cast<std::size_t>(comm.rank())]);
  });
  return logs;
}

/// Asserts rank-by-rank identical logs between the reference (`sim`) and a
/// real backend (`real`).
inline void expect_logs_equal(const std::vector<RankLog>& sim,
                              const std::vector<RankLog>& real) {
  ASSERT_EQ(sim.size(), real.size());
  for (std::size_t r = 0; r < sim.size(); ++r) {
    const RankLog& a = sim[r];
    const RankLog& b = real[r];
    EXPECT_EQ(a.scalars, b.scalars) << "rank " << r;
    ASSERT_EQ(a.streams.size(), b.streams.size()) << "rank " << r;
    for (const auto& [key, seq] : a.streams) {
      auto it = b.streams.find(key);
      ASSERT_NE(it, b.streams.end())
          << "rank " << r << " missing stream (" << key.first << "," << key.second << ")";
      EXPECT_EQ(seq, it->second)
          << "rank " << r << " stream (" << key.first << "," << key.second << ")";
    }
  }
}

// ------------------------------------------------------------ sizing
//
// One size list serves every world, so the LoopWorld reference logs stay
// comparable. The sizes come from the defaults of every fabric the
// battery runs on: the simulator's 180 B crossover and each real fabric's
// eager threshold and credit window. A section that must take a protocol
// path asserts it from the engine's counters, so a moved default cannot
// quietly turn the battery eager-only.

/// Every default eager threshold in an N-rank world: the simulator's, and
/// ShmFabric's and SocketFabric's once their credit window is sized for N
/// (at large N the window can pull a threshold down).
inline std::vector<std::int64_t> default_thresholds(int nranks) {
  std::vector<std::int64_t> t = {fabric::FabricCaps{}.eager_threshold};
  for (fabric::FabricCaps caps :
       {fabric::ShmFabric::Options{}.caps, fabric::SocketFabric::Options{}.caps}) {
    fabric::size_credit_window(caps, nranks);
    t.push_back(caps.eager_threshold);
  }
  return t;
}

/// Past every default eager threshold at any N: rendezvous on every world.
inline std::size_t rendezvous_size() {
  const std::vector<std::int64_t> t = default_thresholds(2);
  return static_cast<std::size_t>(*std::max_element(t.begin(), t.end()) + 1);
}

/// The largest credit window a real fabric uses by default (at N = 2).
inline std::int64_t largest_window() { return fabric::credit_window(2); }

/// Which protocol this rank's sends took between construction and
/// expect(), from the engine's counters.
class PathCheck {
 public:
  explicit PathCheck(mpi::Comm& c)
      : c_(c), eager0_(c.engine().eager_sends()), rndv0_(c.engine().rendezvous_sends()) {}

  /// Ends the span: sends after this call no longer count. Returns *this.
  const PathCheck& stop() {
    eager1_ = c_.engine().eager_sends();
    rndv1_ = c_.engine().rendezvous_sends();
    return *this;
  }

  /// Throws unless exactly `eager` eager and `rndv` rendezvous sends left
  /// this rank since construction. A throw fails the rank on every world,
  /// forked SocketWorld ranks included; call it after the section's last
  /// synchronization, since ThreadsWorld has no backstop for a peer left
  /// blocked on a rank that threw.
  void expect(std::int64_t eager, std::int64_t rndv, const std::string& section) const {
    const std::int64_t saw_eager = eager1_.value_or(c_.engine().eager_sends()) - eager0_;
    const std::int64_t saw_rndv = rndv1_.value_or(c_.engine().rendezvous_sends()) - rndv0_;
    if (saw_eager == eager && saw_rndv == rndv) return;
    throw std::runtime_error("rank " + std::to_string(c_.rank()) + ", " + section +
                             ": expected " + std::to_string(eager) + " eager and " +
                             std::to_string(rndv) + " rendezvous sends, saw " +
                             std::to_string(saw_eager) + " and " + std::to_string(saw_rndv) +
                             " (eager threshold " +
                             std::to_string(c_.engine().eager_threshold()) + " B)");
  }

 private:
  mpi::Comm& c_;
  std::int64_t eager0_;
  std::int64_t rndv0_;
  std::optional<std::int64_t> eager1_;  // set by stop()
  std::optional<std::int64_t> rndv1_;
};

// ------------------------------------------------------------ the battery

/// Eager and rendezvous sizes straddling every default crossover (T - 1,
/// T and T + 1 for the simulator's and each real fabric's threshold T),
/// echoed back so both directions of each protocol mode are exercised.
/// Rank 0 checks that this world's threshold is one the list straddles:
/// its T goes eager and its T + 1 rendezvous.
inline void pingpong_program(mpi::Comm& c, RankLog& log) {
  const auto byte = mpi::Datatype::byte_type();
  std::vector<std::size_t> sizes = {1, 64, 4096};
  for (const std::int64_t t : default_thresholds(c.size()))
    for (const std::int64_t d : {-1, 0, 1}) sizes.push_back(static_cast<std::size_t>(t + d));
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  const auto threshold = static_cast<std::size_t>(c.engine().eager_threshold());
  std::vector<std::pair<std::size_t, PathCheck>> at_threshold;  // sends of T and T + 1
  int tag = 100;
  for (const std::size_t size : sizes) {
    if (c.rank() == 0) {
      auto out = make_payload(0, tag, 0, size);
      PathCheck path(c);
      c.send(out.data(), static_cast<int>(size), byte, 1, tag);
      if (size == threshold || size == threshold + 1) at_threshold.emplace_back(size, path.stop());
      std::vector<unsigned char> back(size);
      const mpi::Status st = c.recv(back.data(), static_cast<int>(size), byte, 1, tag + 1);
      log.log_msg(st.source, st.tag, fnv1a(back.data(), back.size()));
      log.log_scalar(st.count_bytes);
    } else if (c.rank() == 1) {
      std::vector<unsigned char> in(size);
      const mpi::Status st = c.recv(in.data(), static_cast<int>(size), byte, 0, tag);
      log.log_msg(st.source, st.tag, fnv1a(in.data(), in.size()));
      c.send(in.data(), static_cast<int>(size), byte, 0, tag + 1);
    }
    tag += 2;
  }
  if (c.rank() != 0) return;
  if (at_threshold.size() != 2)
    throw std::runtime_error("ping-pong: the sizes do not straddle this world's " +
                             std::to_string(threshold) + " B eager threshold");
  for (const auto& [size, path] : at_threshold) {
    const bool eager = size == threshold;
    path.expect(eager ? 1 : 0, eager ? 0 : 1, "ping-pong at " + std::to_string(size) + " B");
  }
}

/// Every rank but 0 fires bursts at rank 0, which receives fully wildcarded
/// and logs per actual (source, tag) — the interleaving across sources is
/// free, the order within each stream is not.
inline void wildcard_gather_program(mpi::Comm& c, RankLog& log) {
  const auto byte = mpi::Datatype::byte_type();
  constexpr int kPerRank = 9;
  const std::size_t big = rendezvous_size();
  if (c.rank() == 0) {
    const int total = (c.size() - 1) * kPerRank;
    std::vector<unsigned char> buf(big);
    for (int i = 0; i < total; ++i) {
      const mpi::Status st = c.recv(buf.data(), static_cast<int>(buf.size()), byte,
                                    mpi::kAnySource, mpi::kAnyTag);
      log.log_msg(st.source, st.tag,
                  fnv1a(buf.data(), static_cast<std::size_t>(st.count_bytes)));
    }
  } else {
    const PathCheck path(c);
    for (int i = 0; i < kPerRank; ++i) {
      const int tag = i % 3;
      // Mixed sizes: eager and rendezvous messages interleave per stream.
      const std::size_t size = i % 2 == 0 ? 96 : big;
      auto out = make_payload(c.rank(), tag, i, size);
      c.send(out.data(), static_cast<int>(size), byte, 0, tag);
    }
    path.expect((kPerRank + 1) / 2, kPerRank / 2, "wildcard gather");
  }
}

/// All-pairs nonblocking exchange: isend to every peer, irecv from every
/// peer, one wait_all over the lot.
inline void nonblocking_program(mpi::Comm& c, RankLog& log) {
  const auto byte = mpi::Datatype::byte_type();
  const int n = c.size();
  const std::size_t size = rendezvous_size();  // so completion needs progress
  const PathCheck path(c);
  std::vector<std::vector<unsigned char>> outs, ins;
  std::vector<mpi::Request> reqs;
  for (int peer = 0; peer < n; ++peer) {
    if (peer == c.rank()) continue;
    outs.push_back(make_payload(c.rank(), peer, 0, size));
    reqs.push_back(c.isend(outs.back().data(), static_cast<int>(size), byte, peer,
                           /*tag=*/c.rank()));
  }
  for (int peer = 0; peer < n; ++peer) {
    if (peer == c.rank()) continue;
    ins.emplace_back(size);
    reqs.push_back(c.irecv(ins.back().data(), static_cast<int>(size), byte, peer,
                           /*tag=*/peer));
  }
  c.wait_all(reqs);
  path.expect(0, n - 1, "nonblocking all-pairs");
  std::size_t slot = 0;
  for (int peer = 0; peer < n; ++peer) {
    if (peer == c.rank()) continue;
    log.log_msg(peer, peer, fnv1a(ins[slot].data(), ins[slot].size()));
    ++slot;
  }
}

/// sendrecv ring rotations, then sendrecv_replace in the other direction.
inline void sendrecv_ring_program(mpi::Comm& c, RankLog& log) {
  const auto i32 = mpi::Datatype::int32_type();
  const int n = c.size();
  const int right = (c.rank() + 1) % n;
  const int left = (c.rank() + n - 1) % n;
  std::int32_t vals[8];
  for (int i = 0; i < 8; ++i) vals[i] = c.rank() * 1000 + i;
  for (int round = 0; round < n; ++round) {
    std::int32_t incoming[8];
    const mpi::Status st = c.sendrecv(vals, 8, i32, right, 7, incoming, 8, i32, left, 7);
    std::memcpy(vals, incoming, sizeof vals);
    log.log_msg(st.source, st.tag, fnv1a(vals, sizeof vals));
  }
  for (int round = 0; round < n; ++round) {
    const mpi::Status st = c.sendrecv_replace(vals, 8, i32, left, 9, right, 9);
    log.log_msg(st.source, st.tag, fnv1a(vals, sizeof vals));
  }
  log.log_scalar(vals[0]);
}

/// bcast from every root, reduce/allreduce, barriers between phases.
inline void collectives_program(mpi::Comm& c, RankLog& log) {
  const auto i32 = mpi::Datatype::int32_type();
  const int n = c.size();
  for (int root = 0; root < n; ++root) {
    std::int32_t buf[16];
    if (c.rank() == root)
      for (int i = 0; i < 16; ++i) buf[i] = root * 100 + i;
    c.bcast(buf, 16, i32, root);
    log.log_scalar(static_cast<std::int64_t>(fnv1a(buf, sizeof buf) & 0x7fffffff));
    c.barrier();
  }
  std::int32_t mine = (c.rank() + 1) * 7;
  std::int32_t sum = 0;
  c.reduce(&mine, &sum, 1, i32, mpi::Op::kSum, 0);
  if (c.rank() == 0) log.log_scalar(sum);
  std::int32_t maxv = 0;
  c.allreduce(&mine, &maxv, 1, i32, mpi::Op::kMax);
  log.log_scalar(maxv);
  c.barrier();
}

/// One sender floods eager messages past twice the largest default credit
/// window at a receiver that only starts consuming after the flood is in
/// flight — deferred launches, credit returns, and the transport-level
/// backpressure path (full SPSC ring, full kernel socket buffer) all fire.
/// Every payload must still arrive intact and in order.
inline void credit_exhaustion_program(mpi::Comm& c, RankLog& log) {
  const auto byte = mpi::Datatype::byte_type();
  constexpr std::size_t kSize = 128;  // eager on every world
  const std::int64_t record = c.engine().caps().control_record_bytes;
  const int msgs = static_cast<int>(2 * largest_window() /
                                    (static_cast<std::int64_t>(kSize) + record) + 1);
  PathCheck path(c);
  if (c.rank() == 0) {
    std::vector<mpi::Request> reqs;
    std::vector<std::vector<unsigned char>> bufs;
    reqs.reserve(static_cast<std::size_t>(msgs));
    for (int i = 0; i < msgs; ++i) {
      bufs.push_back(make_payload(0, 3, i, kSize));
      reqs.push_back(c.isend(bufs.back().data(), static_cast<int>(kSize), byte, 1, 3));
    }
    c.wait_all(reqs);
    path.stop();
  } else if (c.rank() == 1) {
    for (int i = 0; i < msgs; ++i) {
      std::vector<unsigned char> buf(kSize);
      const mpi::Status st = c.recv(buf.data(), static_cast<int>(kSize), byte, 0, 3);
      log.log_msg(st.source, st.tag, fnv1a(buf.data(), buf.size()));
    }
  }
  c.barrier();
  if (c.rank() != 0) return;
  path.expect(msgs, 0, "credit flood");
  const fabric::FabricCaps& caps = c.engine().caps();
  if (caps.flow == fabric::FlowControl::kCredit &&
      msgs * (static_cast<std::int64_t>(kSize) + record) <= 2 * caps.credit_bytes)
    throw std::runtime_error("credit flood: " + std::to_string(msgs) +
                             " messages stay within twice the " +
                             std::to_string(caps.credit_bytes) + " B window");
}

/// Not a conformance program (its sizes are this world's, so its traffic
/// differs from the LoopWorld's): every rank but 0 sends rank 0 one eager
/// message of exactly this world's eager threshold, and rank 0, arriving
/// late, probes for all of them before it receives any, so all N-1 sit in
/// its unexpected queue at once. Where the credit window is too small to
/// carry the fabric's threshold, the threshold must give way: N-1 such
/// messages must fit the engine's unexpected-message cap, or the probes
/// raise kResources.
inline void late_root_gather_program(mpi::Comm& c) {
  const auto byte = mpi::Datatype::byte_type();
  const auto size = static_cast<std::size_t>(c.engine().eager_threshold());
  constexpr int kTag = 17;
  if (c.rank() != 0) {
    const auto out = make_payload(c.rank(), kTag, 0, size);
    PathCheck path(c);
    c.send(out.data(), static_cast<int>(size), byte, 0, kTag);
    path.expect(1, 0, "late-root gather");
    return;
  }
  for (int src = 1; src < c.size(); ++src) (void)c.probe(src, kTag);
  std::vector<unsigned char> in(size);
  for (int src = 1; src < c.size(); ++src) {
    (void)c.recv(in.data(), static_cast<int>(size), byte, src, kTag);
    if (in != make_payload(src, kTag, 0, size))
      throw std::runtime_error("late-root gather: rank " + std::to_string(src) +
                               "'s block arrived corrupted");
  }
}

/// Interleaved small-eager and huge-rendezvous traffic between the SAME
/// pair, both directions at once — the bulk-data-plane stress case. Each
/// side posts its big irecv first, isends a large (well past any eager
/// threshold) payload, then ping-pongs small eager messages while the
/// bulk transfers are still in flight. The eager stream and the bulk
/// stream must not corrupt each other, and per-(source, tag) order must
/// hold even though the bytes travel different channels.
inline void mixed_traffic_program(mpi::Comm& c, RankLog& log) {
  const auto byte = mpi::Datatype::byte_type();
  if (c.rank() > 1) {
    c.barrier();
    return;
  }
  const int me = c.rank();
  const int peer = 1 - me;
  constexpr std::size_t kBulk = 1 << 20;  // 1 MiB: far rendezvous-side
  constexpr int kRounds = 3;
  constexpr int kSmallPerRound = 8;
  constexpr std::size_t kSmall = 64;
  PathCheck path(c);
  for (int round = 0; round < kRounds; ++round) {
    const int bulk_tag = 500 + round;
    std::vector<unsigned char> bulk_in(kBulk);
    auto bulk_out = make_payload(me, bulk_tag, round, kBulk);
    mpi::Request rr = c.irecv(bulk_in.data(), static_cast<int>(kBulk), byte,
                              peer, bulk_tag);
    mpi::Request sr = c.isend(bulk_out.data(), static_cast<int>(kBulk), byte,
                              peer, bulk_tag);
    // Small eager chatter while both 1 MiB transfers are in flight.
    for (int i = 0; i < kSmallPerRound; ++i) {
      const int tag = 900 + i % 2;
      auto small_out = make_payload(me, tag, round * kSmallPerRound + i, kSmall);
      std::vector<unsigned char> small_in(kSmall);
      mpi::Status st;
      if (me == 0) {
        c.send(small_out.data(), static_cast<int>(kSmall), byte, peer, tag);
        st = c.recv(small_in.data(), static_cast<int>(kSmall), byte, peer, tag);
      } else {
        st = c.recv(small_in.data(), static_cast<int>(kSmall), byte, peer, tag);
        c.send(small_out.data(), static_cast<int>(kSmall), byte, peer, tag);
      }
      log.log_msg(st.source, st.tag, fnv1a(small_in.data(), small_in.size()));
    }
    c.wait(rr);
    c.wait(sr);
    const mpi::Status& bst = rr->status;
    log.log_msg(bst.source, bst.tag, fnv1a(bulk_in.data(), bulk_in.size()));
    log.log_scalar(bst.count_bytes);
  }
  path.stop();
  c.barrier();
  path.expect(kRounds * kSmallPerRound, kRounds, "mixed traffic");
}

/// 2x2 int32 matrix product — associative but NOT commutative, the
/// canonical probe for reduction fold order. One datatype element is one
/// whole matrix (contiguous(4, int32)), so algorithm segmentation can
/// never split a matrix. Entry values stay in [0, 2]: the worst-case
/// subtree product over 8 ranks is far below INT32_MAX.
inline void matmul2x2_combine(const void* in, void* inout, int count) {
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

/// The collectives-engine battery: broadcast/reduce/allreduce/barrier at
/// sizes straddling both selection crossovers (16 KiB and 256 KiB),
/// rotating roots, a non-commutative user-op reduction (fold order must be
/// ascending comm rank on every substrate and algorithm), zero-length
/// collectives, and sub-/self-communicator collectives after a split.
/// Run it under a forced EngineConfig::coll.force to pin one algorithm on
/// both sides of the comparison, or with the default config to conform
/// the auto-selection table itself.
inline void coll_battery_program(mpi::Comm& c, RankLog& log) {
  const auto i32 = mpi::Datatype::int32_type();
  const int n = c.size();

  // Broadcast sweep: 0 B, eager-small, ~20 KB (past long_msg_bytes) and
  // ~280 KB (past huge_msg_bytes), root rotating across ranks.
  const int bcast_counts[] = {0, 9, 5000, 70000};
  int root = 0;
  for (const int count : bcast_counts) {
    std::vector<std::int32_t> buf(static_cast<std::size_t>(count < 1 ? 1 : count));
    if (c.rank() == root)
      for (int i = 0; i < count; ++i)
        buf[static_cast<std::size_t>(i)] = root * 1000003 + i * 7;
    c.bcast(buf.data(), count, i32, root);
    log.log_scalar(static_cast<std::int64_t>(
        fnv1a(buf.data(), static_cast<std::size_t>(count) * 4) & 0x7fffffffffff));
    root = (root + 1) % n;
  }
  c.barrier();

  // Rooted reduce + allreduce, built-in op, a size in the reduce-scatter
  // zone so blocks and the ring allgatherv carry real data.
  {
    const int count = 6000;
    std::vector<std::int32_t> mine(count), out(count, -1);
    for (int i = 0; i < count; ++i) mine[static_cast<std::size_t>(i)] =
        (c.rank() + 1) * (i % 97) - 48;
    for (int r = 0; r < n; ++r) {
      std::fill(out.begin(), out.end(), -1);
      c.reduce(mine.data(), out.data(), count, i32, mpi::Op::kSum, r);
      log.log_scalar(c.rank() == r
                         ? static_cast<std::int64_t>(fnv1a(out.data(), out.size() * 4) &
                                                     0x7fffffffffff)
                         : -7);
    }
    std::fill(out.begin(), out.end(), -1);
    c.allreduce(mine.data(), out.data(), count, i32, mpi::Op::kMin);
    log.log_scalar(static_cast<std::int64_t>(fnv1a(out.data(), out.size() * 4) &
                                             0x7fffffffffff));
  }

  // Non-commutative user-op reduction: ascending comm-rank fold order is
  // pinned by the scalar below, identically on every substrate.
  {
    const auto mat4 = mpi::Datatype::contiguous(4, i32);
    const int mats = 700;  // 11200 B: past the binomial zone when auto
    std::vector<std::int32_t> mine(static_cast<std::size_t>(mats) * 4), out(mine.size(), 0);
    for (std::size_t i = 0; i < mine.size(); ++i)
      mine[i] = static_cast<std::int32_t>((static_cast<std::size_t>(c.rank()) * 31 + i) % 3);
    c.reduce(mine.data(), out.data(), mats, mat4, mpi::Comm::UserOp(matmul2x2_combine), 0);
    log.log_scalar(c.rank() == 0
                       ? static_cast<std::int64_t>(fnv1a(out.data(), out.size() * 4) &
                                                   0x7fffffffffff)
                       : -11);
    std::fill(out.begin(), out.end(), 0);
    c.allreduce(mine.data(), out.data(), mats, mat4, mpi::Comm::UserOp(matmul2x2_combine));
    log.log_scalar(static_cast<std::int64_t>(fnv1a(out.data(), out.size() * 4) &
                                             0x7fffffffffff));
  }

  // Zero-length reduce/allreduce: must complete (and move no data).
  {
    std::int32_t dummy_in = 5, dummy_out = -5;
    c.reduce(&dummy_in, &dummy_out, 0, i32, mpi::Op::kSum, n - 1);
    c.allreduce(&dummy_in, &dummy_out, 0, i32, mpi::Op::kMax);
    log.log_scalar(dummy_out);  // untouched: -5
  }
  c.barrier();

  // Sub-communicator (even ranks) and self-communicator (one color per
  // rank) collectives: the split machinery plus the 1-rank fast paths.
  {
    std::optional<mpi::Comm> sub = c.split(c.rank() % 2 == 0 ? 0 : -1, c.rank());
    if (sub) {
      std::int32_t v = sub->rank() == 0 ? 4242 : 0;
      sub->bcast(&v, 1, i32, 0);
      std::int32_t s = 0;
      sub->allreduce(&v, &s, 1, i32, mpi::Op::kSum);
      sub->barrier();
      log.log_scalar(s);
    } else {
      log.log_scalar(-1);
    }
    std::optional<mpi::Comm> solo = c.split(c.rank(), 0);
    std::int32_t me = c.rank() * 17 + 1, out = -1;
    solo->allreduce(&me, &out, 1, i32, mpi::Op::kProd);
    solo->bcast(&out, 1, i32, 0);
    solo->barrier();
    log.log_scalar(out);
  }
  c.barrier();
}

/// A rendezvous receive posted with a SMALLER buffer than the incoming
/// payload: the fabric must clamp at the registered capacity, drop the
/// overflow, and the Status must report truncation with the clamped
/// count — identically on every transport (inline kRdata unpacks a
/// partial payload; the bulk planes discard in flight).
inline void truncation_program(mpi::Comm& c, RankLog& log) {
  c.engine().set_errors_return(true);  // MPI_ERRORS_RETURN: inspect Status
  const auto byte = mpi::Datatype::byte_type();
  constexpr std::size_t kSend = 300 * 1024;
  constexpr std::size_t kRecv = 64 * 1024;
  PathCheck path(c);
  if (c.rank() == 0) {
    auto out = make_payload(0, 31, 0, kSend);
    c.send(out.data(), static_cast<int>(kSend), byte, 1, 31);
    path.stop();
  } else if (c.rank() == 1) {
    std::vector<unsigned char> in(kRecv);
    const mpi::Status st = c.recv(in.data(), static_cast<int>(kRecv), byte, 0, 31);
    log.log_scalar(st.error == Err::kTruncate ? 1 : 0);
    log.log_scalar(st.count_bytes);
    log.log_msg(st.source, st.tag, fnv1a(in.data(), in.size()));
  }
  c.barrier();
  if (c.rank() == 0) path.expect(0, 1, "truncated rendezvous");
}

/// The one-sided battery: Put/Get/Accumulate across sizes (self-target and
/// zero-length included), a strided origin datatype against a contiguous
/// target, built-in integer and double accumulates, a non-commutative
/// user-op accumulate (fold order must be ascending origin rank on every
/// strategy), and back-to-back fences closing an empty epoch. The window
/// checksum is logged after every epoch — byte-identical windows on every
/// world, DIRECT or MESSAGE strategy alike, is the pinned observable.
///
/// Epoch conflict discipline (DESIGN §6i): put regions are origin-keyed
/// slots, so puts never overlap across origins; get epochs issue no puts;
/// accumulates overlap freely.
inline void rma_battery_program(mpi::Comm& c, RankLog& log) {
  const auto i32 = mpi::Datatype::int32_type();
  const auto f64 = mpi::Datatype::double_type();
  const int n = c.size();
  const int me = c.rank();
  const int right = (me + 1) % n;
  const int left = (me + n - 1) % n;

  // Window: 4096 int32 (disp unit = 4 bytes). Layout:
  //   [0, 2048)      put/get playground, origin slot o = [o*slot, (o+1)*slot)
  //   [2048, 2560)   built-in int accumulate region (origins overlap)
  //   [2560, 2688)   user-op (2x2 matmul) accumulate region
  //   [3072, 3104)   double-sum region (16 doubles, 8-byte aligned)
  constexpr std::int64_t kWinInts = 4096;
  const std::int64_t slot = 2048 / n;
  std::vector<std::int32_t> wbuf(static_cast<std::size_t>(kWinInts));
  for (std::int64_t i = 0; i < kWinInts; ++i)
    wbuf[static_cast<std::size_t>(i)] =
        i >= 3072 ? 0 : static_cast<std::int32_t>((i * 7 + me * 13) % 3);
  mpi::Win win(c, wbuf.data(), kWinInts * 4, 4);
  win.register_user_op(7, mpi::Comm::UserOp(matmul2x2_combine));

  auto snap = [&] {
    log.log_scalar(static_cast<std::int64_t>(
        fnv1a(wbuf.data(), wbuf.size() * 4) & 0x7fffffffffff));
  };

  // --- epoch 1: puts at three sizes into right / stride-2 / self ---------
  win.fence();
  {
    std::vector<std::int32_t> src(static_cast<std::size_t>(slot));
    for (std::int64_t i = 0; i < slot; ++i)
      src[static_cast<std::size_t>(i)] = static_cast<std::int32_t>((me * 31 + i) % 3);
    const std::int64_t my_slot = me * slot;
    win.put(src.data(), 1, i32, right, my_slot, 1, i32);
    win.put(src.data(), static_cast<int>(slot / 2), i32, (me + 2) % n,
            my_slot, static_cast<int>(slot / 2), i32);
    win.put(src.data(), static_cast<int>(slot), i32, me, my_slot,
            static_cast<int>(slot), i32);  // self-target, full slot
    win.put(src.data(), 0, i32, right, 0, 0, i32);  // zero-length: a no-op
    // Strided origin against a contiguous target: 4 ints, origin stride 2.
    auto v42 = mpi::Datatype::vector(4, 1, 2, i32);
    if (slot >= 16)
      win.put(src.data(), 1, v42, right, my_slot + slot - 4, 4, i32);
  }
  win.fence();
  snap();

  // --- epoch 2: gets only (read-only epoch; no put conflicts) ------------
  {
    // The full slot left put into itself last epoch, read back.
    std::vector<std::int32_t> got(static_cast<std::size_t>(slot), -1);
    win.get(got.data(), static_cast<int>(slot / 2), i32, left, left * slot,
            static_cast<int>(slot / 2), i32);
    // Self-get through a strided origin layout (unpacked at the origin).
    std::vector<std::int32_t> strided(8, -1);
    auto v42 = mpi::Datatype::vector(4, 1, 2, i32);
    win.get(strided.data(), 1, v42, me, 2048, 4, i32);
    win.get(got.data(), 0, i32, right, 0, 0, i32);  // zero-length get
    win.fence();
    log.log_msg(left, 9001, fnv1a(got.data(), got.size() * 4));
    log.log_msg(me, 9002, fnv1a(strided.data(), strided.size() * 4));
  }
  snap();

  // --- epoch 3: built-in accumulates, int sum + double sum ---------------
  {
    std::vector<std::int32_t> acc(64);
    for (std::size_t i = 0; i < acc.size(); ++i)
      acc[i] = static_cast<std::int32_t>((static_cast<std::size_t>(me) * 17 + i) % 5);
    // Overlapping contributions into three targets, self included.
    win.accumulate(acc.data(), 64, i32, right, 2048, 64, i32, mpi::Op::kSum);
    win.accumulate(acc.data(), 64, i32, (me + 2) % n, 2048, 64, i32, mpi::Op::kSum);
    win.accumulate(acc.data(), 32, i32, me, 2048, 32, i32, mpi::Op::kSum);
    win.accumulate(acc.data(), 0, i32, right, 2048, 0, i32, mpi::Op::kSum);
    // Double sum: fold order is pinned (ascending origin rank), so even
    // floating-point sums are byte-identical across worlds.
    double d[16];
    for (int i = 0; i < 16; ++i) d[i] = me + 0.5 * i;
    win.accumulate(d, 16, f64, right, /*disp=*/3072, 16, f64, mpi::Op::kSum);
  }
  win.fence();
  snap();

  // --- epoch 4: non-commutative user-op accumulate -----------------------
  {
    // Cap contributing origins at 8 so the 2x2 products stay in int32.
    // One datatype element is one whole matrix, so the user op's count
    // argument is matrix-granular (the fold calls fn(data, window, count)).
    if (me < 8) {
      const auto mat4 = mpi::Datatype::contiguous(4, i32);
      std::vector<std::int32_t> mats(32);
      for (std::size_t i = 0; i < mats.size(); ++i)
        mats[i] = static_cast<std::int32_t>((static_cast<std::size_t>(me) * 31 + i) % 3);
      win.accumulate(mats.data(), 8, mat4, right, 2560, 8, mat4, mpi::Op::kSum,
                     /*user_op_id=*/7);
    }
  }
  win.fence();
  snap();

  // --- epoch 5: back-to-back fences around an empty epoch ----------------
  win.fence();
  win.fence();
  snap();

  win.free();
  log.log_scalar(static_cast<std::int64_t>(win.epoch()));
}

}  // namespace lcmpi::conformance
