// Profiling interface (MPI-1 chapter 8 names one; the paper lists it
// among the standard's features).
//
// A Profiler attached to a communicator records, per MPI call kind, the
// call count, the virtual time spent inside the library (communication +
// protocol overhead, as distinct from application compute), and the bytes
// handed over. Nested library calls (send = isend + wait) are attributed
// to the outermost call only, PMPI-style.
#pragma once

#include <array>
#include <cstdint>

#include "src/core/buffer_pool.h"
#include "src/core/matching.h"
#include "src/fabric/shm_fabric.h"
#include "src/fabric/socket_fabric.h"
#include "src/sim/kernel.h"
#include "src/util/status.h"
#include "src/util/table.h"
#include "src/util/time.h"

namespace lcmpi::mpi {

/// Formats the matching-engine counters of one rank (posted + unexpected
/// queues) as a table: queue depth high-water, lookup/scan totals, and
/// bucket occupancy. The `entries_scanned` column is the *logical* linear
/// scan count — exactly what Engine::charge_match billed in virtual time —
/// so the paper's cost model stays observable after the bucketed rewrite.
[[nodiscard]] Table matching_report(const MatchStats& posted,
                                    const MatchStats& unexpected);

/// Formats a kernel's actor-execution counters (Kernel::actor_stats) as a
/// table: context switches, spawns, fiber stack allocations vs. pool
/// reuses, stack high-water, and the configured stack size. These are
/// host-side numbers; virtual time never depends on them.
[[nodiscard]] Table actor_report(const sim::ActorStats& s);

/// Formats one rank's SocketFabric transport counters as a table. The
/// scale gauges (fds_open, pairs_connected, lazy_dials, epoll_wakeups)
/// sit next to the traffic totals so a scaling run can assert the lazy
/// story directly: idle pairs cost zero fds and zero dials.
[[nodiscard]] Table fabric_report(const fabric::SocketFabric::Stats& s);

/// Formats ShmFabric transport counters. The `rings` gauge is the shm
/// counterpart of pairs_connected: rings exist only for pairs that sent.
[[nodiscard]] Table fabric_report(const fabric::ShmFabric::Stats& s);

/// Formats an engine BufferPool's recycling counters (acquires, capacity
/// hits, fresh bytes allocated) — the observable for the pooled-staging
/// fix on the long-broadcast and bulk-rendezvous paths.
[[nodiscard]] Table pool_report(const BufferPool::Stats& s);

enum class CallKind : std::uint8_t {
  kSend, kRecv, kIsend, kIrecv, kWait, kTest, kProbe, kSendrecv,
  kBcast, kBarrier, kReduce, kAllreduce, kGather, kScatter, kAllgather,
  kAlltoall, kScan, kCommMgmt,
  kCount,
};

[[nodiscard]] const char* call_kind_name(CallKind k);

class Profiler {
 public:
  struct Entry {
    std::int64_t calls = 0;
    Duration time{};
    std::int64_t bytes = 0;
  };

  void record(CallKind kind, Duration elapsed, std::int64_t bytes) {
    Entry& e = entries_[static_cast<std::size_t>(kind)];
    ++e.calls;
    e.time += elapsed;
    e.bytes += bytes;
  }

  [[nodiscard]] const Entry& entry(CallKind kind) const {
    return entries_[static_cast<std::size_t>(kind)];
  }

  [[nodiscard]] std::int64_t total_calls() const {
    std::int64_t n = 0;
    for (const Entry& e : entries_) n += e.calls;
    return n;
  }
  [[nodiscard]] Duration total_time() const {
    Duration t{};
    for (const Entry& e : entries_) t += e.time;
    return t;
  }

  /// Formats the non-empty rows as a table (calls, time, bytes).
  [[nodiscard]] Table report() const;

  // Depth tracking for outermost-only attribution.
  [[nodiscard]] bool enter() { return depth_++ == 0; }
  void leave() { --depth_; }

 private:
  std::array<Entry, static_cast<std::size_t>(CallKind::kCount)> entries_{};
  int depth_ = 0;
};

}  // namespace lcmpi::mpi
