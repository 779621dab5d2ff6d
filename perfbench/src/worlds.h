// Running one rank program on one real world and collecting every rank's
// Report, with the world's set-up and teardown timed from outside.
//
//   shm  — runtime::ThreadsWorld over ShmFabric (one thread per rank)
//   unix — runtime::SocketWorld over AF_UNIX (one forked process per rank);
//          each rank ships its Report back through run_collect_fab
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "src/core/comm.h"

namespace perfbench {

enum class WorldKind { kShm, kUnix };

/// The fabric counters the benchmark reads, in one shape for both fabrics.
/// Fields a fabric does not have stay zero.
struct FabricCounters {
  double frames = 0;          // shm: ring pushes; socket: frames written
  double bytes = 0;           // shm: bulk handoff bytes; socket: framed + bulk bytes written
  double idle_waits = 0;      // shm: idle_parks; socket: idle_polls
  double epoll_wakeups = 0;   // socket only
  double full_parks = 0;      // shm only
  double send_stalls = 0;     // socket only
  double bulk_bytes = 0;      // payload bytes on the bulk plane (sent)
};

/// What a rank program gets besides its communicator.
struct RankEnv {
  std::function<FabricCounters()> counters;
  /// true: counters() covers every rank of the world (ShmFabric), so only
  /// rank 0 reports fabric deltas; false: each rank reports its own.
  bool counters_global = false;
};

using RankProgram = std::function<void(lcmpi::mpi::Comm&, const RankEnv&, Report&)>;

struct WorldRun {
  bool ok = false;
  std::string error;
  std::vector<Report> reports;  // index = rank; empty unless ok
  double setup_s = 0;           // construction start -> first barrier done on all ranks
  double spawn_s = 0;           // construction start -> every rank entered its program
  double first_barrier_s = 0;   // last rank entered -> first barrier done on all ranks
  double teardown_s = 0;        // last rank returned -> world fully gone
};

/// Builds a fresh `nranks` world, runs `prog` on every rank after a first
/// barrier, tears the world down. A world that hangs is not stopped here:
/// the caller's process deadline (perfbench/run.py) covers it.
[[nodiscard]] WorldRun run_world(WorldKind kind, int nranks,
                                 const lcmpi::mpi::EngineConfig& cfg, const RankProgram& prog);

}  // namespace perfbench
