// Shared pieces of the perfbench binary: the clock, the seeded input
// generator, the per-rank span recorder, and the per-rank report that
// carries samples, counters and spans back to the launcher.
//
// Every timing is taken inside a rank with steady_clock. On Linux that is
// CLOCK_MONOTONIC, which forked ranks share with the launcher, so
// timestamps from different ranks and the launcher can be compared.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/bytes.h"

namespace perfbench {

using lcmpi::Bytes;

/// Nanoseconds on the shared monotonic clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: the seeded source of every payload, permutation and grid.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// Span names: one per call the benchmark makes into a layer, plus the
/// benchmark-level operations that contain them.
enum class SpanName : std::uint16_t {
  kRtt,        // one ping-pong round trip (rank 0)
  kEcho,       // one echo (rank 1)
  kStream,     // one stream sample (rank 0)
  kBurst,      // one burst sample (rank 0)
  kSend,       // Comm::send
  kRecv,       // Comm::recv
  kHeat2d,     // apps::heat2d_parallel, two-sided halos
  kHeat2dRma,  // apps::heat2d_parallel, one-sided halos
  kAllreduce,  // Comm::allreduce
  kBcast,      // Comm::bcast
  kEpoch,      // one fence/put/fence epoch
  kPut,        // Win::put
  kFence,      // Win::fence
  kCount
};

inline const char* span_label(SpanName n) {
  static const char* const kLabels[] = {
      "bench.rtt",          "bench.echo",          "bench.stream",
      "bench.burst",        "core.send",           "core.recv",
      "apps.heat2d",        "apps.heat2d_rma",     "core.coll.allreduce",
      "core.coll.bcast",    "bench.rma_epoch",     "core.win.put",
      "core.win.fence"};
  static_assert(sizeof(kLabels) / sizeof(kLabels[0]) ==
                static_cast<std::size_t>(SpanName::kCount));
  return kLabels[static_cast<std::size_t>(n)];
}

/// One recorded span. `parent` indexes the enclosing span in the same
/// rank's record list (-1 at top level); `arg` is the message size where
/// one applies. Explicit padding: records cross the rank pipes by memcpy.
struct SpanRec {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;
  std::uint16_t name = 0;
  std::uint16_t pad = 0;
  std::uint32_t arg = 0;
  std::uint32_t pad2 = 0;
};

/// Fixed-capacity in-memory span recorder, one per rank. Spans nest by
/// construction order; records past the capacity are counted and dropped.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity) { recs_.reserve(capacity); }

  std::int32_t begin(SpanName name, std::uint32_t arg) {
    if (recs_.size() == recs_.capacity()) {
      ++dropped_;
      return -1;
    }
    SpanRec r;
    r.parent = open_;
    r.name = static_cast<std::uint16_t>(name);
    r.arg = arg;
    r.start = now_ns();
    recs_.push_back(r);
    open_ = static_cast<std::int32_t>(recs_.size() - 1);
    return open_;
  }

  void end(std::int32_t idx) {
    if (idx < 0) return;
    SpanRec& r = recs_[static_cast<std::size_t>(idx)];
    r.end = now_ns();
    open_ = r.parent;
  }

  [[nodiscard]] const std::vector<SpanRec>& records() const { return recs_; }
  [[nodiscard]] std::int64_t dropped() const { return dropped_; }

 private:
  std::vector<SpanRec> recs_;
  std::int32_t open_ = -1;
  std::int64_t dropped_ = 0;
};

/// Scoped span; a null tracer (tracing off) records nothing.
class Span {
 public:
  Span(Tracer* t, SpanName name, std::uint32_t arg = 0)
      : t_(t), idx_(t != nullptr ? t->begin(name, arg) : -1) {}
  ~Span() {
    if (t_ != nullptr) t_->end(idx_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  std::int32_t idx_;
};

/// What one rank ships back from one world: sample series, counter deltas,
/// checked-operation tallies, and (traced rounds) its spans.
struct Report {
  std::map<std::string, std::vector<double>> series;
  std::map<std::string, double> counters;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<SpanRec> spans;
  std::int64_t spans_dropped = 0;

  /// Tallies one checked operation.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }

  /// The bytes a socket rank returns through SocketWorld::run_collect_fab.
  [[nodiscard]] Bytes encode() const;
  [[nodiscard]] static Report decode(const Bytes& b);
};

}  // namespace perfbench
