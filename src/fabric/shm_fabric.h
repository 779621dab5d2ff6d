// ShmFabric — the real-threads shared-memory fabric.
//
// Every other fabric in the tree is simulated: one kernel thread, virtual
// time, modelled costs. This one is real: each MPI rank runs on its own OS
// thread (runtime::ThreadsWorld), and ProtoMsg envelopes move through
// bounded lock-free SPSC rings (src/util/spsc_ring.h) — one ring per
// directed rank pair, so per-(src, dst) FIFO order (the MPI non-overtaking
// substrate every engine assumes) is a structural property, not a locking
// discipline. A pair's ring is created by its sender on the first send to
// that receiver and published once, by appending it to the receiver's
// inbound list; a pair that never talks costs a null pointer, not a ring,
// so the fabric scales with the pairs a program uses, not with N².
//
// Protocol shape, mirroring the paper's ATM/TCP port rather than the
// Meiko one: push-mode rendezvous (RTS → CTS through the rings; nothing
// is staged in sender memory for a remote pull, which would need
// cross-thread synchronization the rings already provide) and per-sender
// credit flow control at the MPI layer. Rendezvous PAYLOADS always take
// the shared-memory bulk plane: the sender thread copies once, straight
// into the buffer the receiver registered with bulk_post — ring slots
// carry only envelopes and completion notes. Backpressure is two-layered:
// credits bound the *bytes* a sender may have parked at a receiver, and
// ring occupancy bounds the *messages* in flight — a producer hitting a
// full ring parks on the ring's mutex/condvar pad until the consumer
// drains a slot.
//
// Blocking receives park the endpoint on one ParkingLot shared by all of
// its inbound rings ("anything for me"), after a short spin for the
// latency-critical ping-pong case. MpiCosts are zero: host work takes
// real time here, and endpoint now() reports wall-clock nanoseconds since
// fabric construction, which is what makes this the repo's first source
// of real (not virtual) latency numbers.
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/fabric/fabric.h"

namespace lcmpi::fabric {

class ShmFabric final : public Fabric {
 public:
  struct Options {
    FabricCaps caps;
    /// Zero by default: matching/copy work costs whatever it costs the
    /// host CPU; there is no virtual clock to charge.
    MpiCosts costs;
    /// Slots per directed-pair ring (rounded up to a power of two).
    /// Small enough that an unresponsive receiver exerts backpressure,
    /// large enough that a default credit window of eager messages of
    /// 256 B or more fits (credit_window() is at most 256 KiB). A flood
    /// of smaller messages fills the ring before the window, and its
    /// sender parks on the ring, draining its own inbound rings, until
    /// the receiver catches up.
    std::size_t ring_slots = 1024;
    Options() {
      caps.hw_broadcast = false;  // software tree broadcast
      caps.pull_bulk = false;     // push-mode rendezvous (CTS/RDATA)
      caps.flow = FlowControl::kCredit;
      // Fig. 1 on this fabric (bench/fig1_real_transfer, EXPERIMENTS "Fig. 1
      // on real transports"): eager wins through 8 KiB, the direct handoff
      // from 16 KiB, and the fitted lines cross at 15-18 KB.
      caps.eager_threshold = 12 * 1024;
      caps.credit_bytes = 0;  // sized from N by size_credit_window()
    }
  };

  explicit ShmFabric(int nranks, Options opt = {});
  ~ShmFabric() override;

  [[nodiscard]] int nranks() const override { return static_cast<int>(eps_.size()); }
  [[nodiscard]] Endpoint& endpoint(int rank) override;

  /// Marks `rank` finished: its thread never drains its inbound rings
  /// again. From then on a credit or slot return that finds its ring
  /// toward `rank` full is dropped instead of parking forever; a finished
  /// rank sends nothing more, so it needs no flow control. ThreadsWorld
  /// calls this as each rank's function ends.
  void retire(int rank);

  /// Wall-clock nanoseconds since fabric construction (= endpoint now()).
  [[nodiscard]] TimePoint wall_now() const;

  /// Aggregated transport counters (relaxed atomics; exact once quiescent).
  struct Stats {
    std::uint64_t messages = 0;    // successful ring pushes
    std::uint64_t full_parks = 0;  // sender parked on a full ring
    std::uint64_t idle_parks = 0;  // receiver parked awaiting traffic
    std::uint64_t bulk_transfers = 0;  // direct posted-buffer handoffs
    std::uint64_t bulk_bytes = 0;      // bytes moved by those handoffs
    std::uint64_t rings = 0;           // pair rings, each made on its first send
  };
  [[nodiscard]] Stats stats() const;

 private:
  class Ep;

  // One-sided windows: every rank's exposed segment, keyed by (rank, win
  // key). Ranks share this process's address space, so an origin resolves
  // a peer's segment here once at window creation and then satisfies
  // Put/Get with plain stores/loads (the window fence's barrier provides
  // the happens-before edges; see src/core/win.h).
  std::mutex rma_mu_;
  std::map<std::pair<int, std::uint64_t>, Endpoint::RmaSegment> rma_segs_;

  Options opt_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<Ep>> eps_;  // each owns its inbound rings
};

}  // namespace lcmpi::fabric
