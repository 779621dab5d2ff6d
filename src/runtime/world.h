// World builders: one object assembles a whole platform — simulator
// kernel, machine/network model, fabric, and per-rank engines — and runs a
// rank function on every rank, mirroring mpirun.
//
//   MeikoWorld      — CS/2 + the paper's low-latency MPI (mpi::Comm)
//   MpichMeikoWorld — CS/2 + MPICH-over-tport baseline (mpi::MpichComm)
//   ClusterWorld    — SGI cluster over {ATM, Ethernet} x {TCP, reliable-UDP}
//                     with the low-latency MPI (mpi::Comm)
//   LoopWorld       — idealised fabric for fast semantics tests
//   ThreadsWorld    — REAL execution: one OS thread per rank over the
//                     shared-memory SPSC-ring fabric (wall-clock time)
//   SocketWorld     — REAL execution: one OS *process* per rank over a
//                     kernel socket mesh (SocketFabric, wall-clock time)
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/atmnet/atm.h"
#include "src/atmnet/ethernet.h"
#include "src/core/comm.h"
#include "src/core/mpich.h"
#include "src/fabric/loop_fabric.h"
#include "src/fabric/meiko_fabric.h"
#include "src/fabric/shm_fabric.h"
#include "src/fabric/socket_fabric.h"
#include "src/fabric/stream_fabric.h"
#include "src/inet/rudp.h"
#include "src/inet/tcp.h"
#include "src/meiko/machine.h"
#include "src/meiko/tport.h"

namespace lcmpi::runtime {

/// Rank function for worlds using the low-latency MPI.
using RankFn = std::function<void(mpi::Comm& world, sim::Actor& self)>;
/// Rank function for the MPICH baseline world.
using MpichRankFn = std::function<void(mpi::MpichComm& world, sim::Actor& self)>;

class MeikoWorld {
 public:
  explicit MeikoWorld(int nranks, meiko::Calib calib = {},
                      mpi::EngineConfig engine_cfg = {});

  [[nodiscard]] sim::Kernel& kernel() { return kernel_; }
  [[nodiscard]] meiko::Machine& machine() { return *machine_; }
  [[nodiscard]] int nranks() const { return machine_->size(); }

  /// Spawns every rank running `fn` and drives the simulation to
  /// completion. Returns the elapsed virtual time.
  Duration run(const RankFn& fn);

 private:
  sim::Kernel kernel_;
  std::unique_ptr<meiko::Machine> machine_;
  std::unique_ptr<fabric::MeikoFabric> fabric_;
  mpi::EngineConfig engine_cfg_;
};

class MpichMeikoWorld {
 public:
  explicit MpichMeikoWorld(int nranks, meiko::Calib calib = {});

  [[nodiscard]] sim::Kernel& kernel() { return kernel_; }
  [[nodiscard]] meiko::Machine& machine() { return *machine_; }
  [[nodiscard]] int nranks() const { return machine_->size(); }

  Duration run(const MpichRankFn& fn);

 private:
  sim::Kernel kernel_;
  std::unique_ptr<meiko::Machine> machine_;
  std::vector<std::unique_ptr<meiko::Tport>> tports_;
};

enum class Media { kAtm, kEthernet };
enum class Transport { kTcp, kRudp };

class ClusterWorld {
 public:
  /// `eth_broadcast_collectives` enables the Bruck-et-al.-style extension:
  /// MPI_Bcast rides the Ethernet's link-layer broadcast instead of a
  /// point-to-point tree. Ethernet media only.
  ClusterWorld(int nranks, Media media, Transport transport,
               mpi::EngineConfig engine_cfg = {},
               fabric::StreamFabric::Options fabric_opt = {},
               bool eth_broadcast_collectives = false);

  [[nodiscard]] sim::Kernel& kernel() { return kernel_; }
  [[nodiscard]] atmnet::Network& network() { return *net_; }
  [[nodiscard]] inet::InetCluster& cluster() { return *cluster_; }
  [[nodiscard]] int nranks() const { return nranks_; }

  Duration run(const RankFn& fn);

 private:
  int nranks_;
  sim::Kernel kernel_;
  std::unique_ptr<atmnet::Network> net_;
  // All connections/channels live in the cluster (tcp_pair / rudp_pair):
  // one owner, and teardown order is fixed by the cluster's member order
  // (channels before the sockets they point into).
  std::unique_ptr<inet::InetCluster> cluster_;
  std::unique_ptr<fabric::StreamFabric> fabric_;
  mpi::EngineConfig engine_cfg_;
};

class LoopWorld {
 public:
  explicit LoopWorld(int nranks, fabric::LoopFabric::Options opt = {},
                     mpi::EngineConfig engine_cfg = {});

  [[nodiscard]] sim::Kernel& kernel() { return kernel_; }
  [[nodiscard]] fabric::LoopFabric& fabric() { return *fabric_; }
  [[nodiscard]] int nranks() const { return fabric_->nranks(); }

  Duration run(const RankFn& fn);

 private:
  sim::Kernel kernel_;
  std::unique_ptr<fabric::LoopFabric> fabric_;
  mpi::EngineConfig engine_cfg_;
};

/// The one world that is not a simulation: every rank is a real OS thread
/// and messages move through the lock-free SPSC rings of ShmFabric. The
/// same RankFn programs run unchanged — each thread gets a detached
/// sim::Actor (no kernel) so Actor::current(), actor-local state (the C
/// API), and the engine's cost charging (inert here) all keep working.
/// run() returns elapsed *wall-clock* time, and a World can run only once.
class ThreadsWorld {
 public:
  explicit ThreadsWorld(int nranks, fabric::ShmFabric::Options opt = {},
                        mpi::EngineConfig engine_cfg = {});

  [[nodiscard]] fabric::ShmFabric& fabric() { return *fabric_; }
  [[nodiscard]] int nranks() const { return fabric_->nranks(); }

  /// Runs `fn` on every rank concurrently; joins all threads, rethrowing
  /// the lowest-ranked escaped exception. Returns elapsed wall-clock time.
  Duration run(const RankFn& fn);

 private:
  std::unique_ptr<fabric::ShmFabric> fabric_;
  mpi::EngineConfig engine_cfg_;
  bool ran_ = false;
};

/// One-shot convenience mirroring the other worlds' run() entry points.
Duration run_threads(int nranks, const RankFn& fn,
                     fabric::ShmFabric::Options opt = {},
                     mpi::EngineConfig engine_cfg = {});

/// Rank function whose returned bytes are shipped back to the launcher (as
/// the rank's result file) — the only way data leaves a SocketWorld rank,
/// since each rank is a separate process and writes to captured
/// variables die with the child.
using CollectRankFn = std::function<Bytes(mpi::Comm& world, sim::Actor& self)>;

/// As CollectRankFn, with the rank's live SocketFabric exposed — the hook
/// scale tests and benchmarks use to ship per-rank fabric::Stats (fd
/// gauges, lazy-dial counters) back across the process boundary.
using CollectFabricRankFn = std::function<Bytes(
    mpi::Comm& world, sim::Actor& self, fabric::SocketFabric& fab)>;

/// Real execution across PROCESS boundaries: run() forks one child per
/// rank; each child builds its SocketFabric attachment (rank-0
/// rendezvous over AF_UNIX, or AF_INET loopback through a rendezvous
/// file; lazy per-pair connections dialed on first send) and runs the
/// unchanged engine + RankFn. Starting, reaping and blaming go through
/// the launch core lcmpirun uses (src/runtime/launch_core.h), in one
/// private world dir (/tmp/lcmpi-sock.XXXXXX) that holds the sockets,
/// each rank's status file and its result bytes. A rank that dies
/// before ever connecting is invisible to its peers' fabrics, so after
/// the first failure the survivors get a short grace to report their
/// own errors, then the wedged stragglers are SIGKILLed. The error
/// thrown is the blamed rank's (see launch_core.h for the rule): its
/// own message (FabricError kept as FabricError — the peer-death path),
/// or, for a rank that died without a report, a FabricError naming its
/// exit status or signal. Like ThreadsWorld, a SocketWorld runs only
/// once (second run() throws std::logic_error) and run() returns
/// elapsed wall-clock time.
class SocketWorld {
 public:
  explicit SocketWorld(int nranks, fabric::SocketFabric::Options opt = {},
                       mpi::EngineConfig engine_cfg = {});
  ~SocketWorld();
  SocketWorld(const SocketWorld&) = delete;
  SocketWorld& operator=(const SocketWorld&) = delete;

  [[nodiscard]] int nranks() const { return nranks_; }

  /// Forks, runs `fn` on every rank, joins. Returns wall-clock elapsed.
  Duration run(const RankFn& fn);

  /// As run(), but returns each rank's result bytes (index = rank).
  std::vector<Bytes> run_collect(const CollectRankFn& fn);

  /// As run_collect(), additionally handing `fn` the rank's SocketFabric.
  std::vector<Bytes> run_collect_fab(const CollectFabricRankFn& fn);

 private:
  int nranks_;
  fabric::SocketFabric::Options opt_;
  mpi::EngineConfig engine_cfg_;
  std::string dir_;       // the world dir (sockets, status, results), removed in dtor
  Duration elapsed_{};    // wall-clock of the (single) run
  bool ran_ = false;
};

/// One-shot convenience mirroring run_threads.
Duration run_sockets(int nranks, const RankFn& fn,
                     fabric::SocketFabric::Options opt = {},
                     mpi::EngineConfig engine_cfg = {});

/// Shared helper: spawn one actor per rank running `fn` over `fabric`.
Duration run_ranks(sim::Kernel& kernel, fabric::Fabric& fabric,
                   const mpi::EngineConfig& cfg, const RankFn& fn);

/// Shared child-side body for REAL-execution ranks — a ThreadsWorld
/// thread or a whole rank process (SocketWorld, lcmpirun): binds a
/// detached actor to the calling thread, builds the engine over `ep`,
/// and hands `fn` the world communicator. Exceptions propagate to the
/// caller, which owns reporting (rethrow order, status files).
void run_detached_rank(fabric::Endpoint& ep, int rank,
                       const mpi::EngineConfig& cfg, const RankFn& fn);

}  // namespace lcmpi::runtime
