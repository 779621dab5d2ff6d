// Fabric — the transport abstraction beneath the MPI core.
//
// The paper's MPI protocol needs exactly four transport services, and the
// Meiko and TCP implementations differ in how each is provided:
//
//   1. small control/eager messages, reliable and ordered per sender pair
//      (Meiko: remote transactions into the per-sender envelope slot;
//       TCP: fixed 25-byte records on the stream, per Table 1);
//   2. bulk data movement for the rendezvous protocol
//      (Meiko: receiver-initiated DMA *pull* of staged data — caps().pull_bulk;
//       TCP: CTS back to the sender, which *pushes* the payload; the real
//       fabrics push it on their one bulk plane — bulk_plane());
//   3. optionally, hardware broadcast (Meiko only);
//   4. a cost/capability profile: what the MPI layer should charge for
//      matching and copies, the eager/rendezvous threshold, and which
//      flow-control discipline the medium requires (single envelope slot
//      on the Meiko, per-sender credit over TCP).
//
// The MPI engine (src/core/engine.h) is written once against this
// interface; every platform in the paper is a Fabric implementation.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "src/core/types.h"
#include "src/sim/kernel.h"
#include "src/util/bytes.h"
#include "src/util/time.h"

namespace lcmpi::fabric {

/// A transport-level failure on a real (non-simulated) fabric: a peer
/// process died mid-run (EOF/reset on its connection), a rendezvous timed
/// out, or a socket syscall failed unrecoverably. Simulated fabrics never
/// throw this — their transports are modelled, not real.
class FabricError : public std::runtime_error {
 public:
  explicit FabricError(const std::string& what) : std::runtime_error(what) {}
};

/// Protocol message kinds exchanged by the MPI engines.
enum class MsgKind : std::uint8_t {
  kEager = 1,    // envelope + payload, overlapped with matching
  kRts = 2,      // rendezvous request-to-send (envelope only)
  kCts = 3,      // receiver matched an RTS; push-mode fabrics only
  kRdata = 4,    // rendezvous payload push; push-mode fabrics only
  kCredit = 5,   // flow-control credit return (credit fabrics)
  kSlotFree = 6, // envelope slot released (single-slot fabrics)
  kSsendAck = 7, // synchronous-mode send matched at the receiver
  kBcast = 8,    // hardware broadcast payload
  // Bulk-plane completion notes. Locally synthesized by fabrics with a
  // separate bulk data plane (never encoded on any wire): kBulkSent tells
  // the SENDING engine its bulk payload has fully left the user buffer;
  // kBulkDelivered tells the RECEIVING engine a transfer has fully landed
  // in the buffer it registered with bulk_post(). Both carry sender_req
  // as the transfer cookie and no seq/credit (they never crossed a
  // sequenced channel).
  kBulkSent = 9,
  kBulkDelivered = 10,
  // Hardware barrier release: the fabric's combine network saw every rank
  // enter and replicated the release to all nodes. Like kBcast it bypasses
  // the per-pair sequenced channel (no seq, no credit).
  kBarrier = 11,
  // One-sided (RMA) frames, serviced entirely by the target's progress
  // loop. They ride the normal per-pair sequenced channel (seq-checked,
  // credit piggybacked) but never charge flow-control credit: the window
  // epoch protocol, not the unexpected queue, bounds their memory.
  // bulk_key carries the window key; tag carries the access epoch;
  // sender_req routes a kRmaGetReply back to the originating get.
  kRmaPut = 12,
  kRmaGet = 13,
  kRmaGetReply = 14,
  kRmaAcc = 15,
};

/// Credit and slot returns. They matter only to a peer that will send
/// again, so a fabric may drop one addressed to a peer that has finished
/// rather than block on a channel that peer no longer drains.
[[nodiscard]] constexpr bool is_flow_return(MsgKind k) {
  return k == MsgKind::kCredit || k == MsgKind::kSlotFree;
}

/// A parsed protocol message. Fabrics own the wire encoding; the engine
/// never sees raw bytes except the payload.
struct ProtoMsg {
  MsgKind kind = MsgKind::kEager;
  int src = -1;                 // world rank of the sender (set on delivery)
  std::int32_t tag = 0;         // MPI tag
  std::uint32_t context = 0;    // communicator context id
  std::uint8_t mode = 0;        // mpi::Mode of the originating send
  std::uint32_t size = 0;       // full payload size of the message
  std::uint64_t sender_req = 0; // sender-side request id (CTS/ACK routing)
  std::uint64_t bulk_key = 0;   // staged-bulk handle (pull-mode rendezvous)
  std::uint32_t credit = 0;     // credit bytes returned (kCredit)
  std::uint64_t seq = 0;        // per-(src,dst) sequence number
  Bytes payload;                // eager / rdata / bcast data
};

/// Flow-control discipline the engine must apply (paper §4.1 and §5.1).
enum class FlowControl : std::uint8_t {
  kNone = 0,
  kSingleSlot = 1,  // one outstanding envelope per (sender, receiver)
  kCredit = 2,      // per-sender reserved memory at each receiver
};

struct FabricCaps {
  bool hw_broadcast = false;
  /// Hardware barrier: ranks enter via hw_barrier_enter and the fabric
  /// delivers a kBarrier release to every rank once all have entered.
  bool hw_barrier = false;
  /// True: rendezvous data is pulled by the receiver (DMA get). False: the
  /// receiver sends CTS and the sender pushes a kRdata message.
  bool pull_bulk = false;
  /// Eager/rendezvous protocol switch, bytes (Fig. 1 crossover). 180 B
  /// is the CS/2's; the real fabrics measure their own (ShmFabric::Options,
  /// SocketFabric::Options).
  std::int64_t eager_threshold = 180;
  FlowControl flow = FlowControl::kNone;
  /// Credit reserve per sender at each receiver (credit fabrics). The
  /// real fabrics' options leave it 0, which sizes it by N
  /// (size_credit_window()).
  std::int64_t credit_bytes = 16 * 1024;
  /// Fixed per-message control record size used for credit accounting.
  std::int64_t control_record_bytes = 25;
};

/// The real fabrics' credit window (ShmFabric, SocketFabric), sized the
/// way the paper's TCP port sizes its reservation (§5.1): a receiver
/// reserves the window for each of its N-1 senders, so one per-rank
/// budget, split N-1 ways, bounds the eager bytes they can all park at
/// it. The budget is the engine's unexpected-message cap
/// (EngineConfig::max_unexpected_bytes), so no flood that credit admits
/// can overflow it. The window never rises above kCreditCapBytes, where a
/// larger one stops paying on a pair that has the whole budget; the cap
/// also keeps a 1 MiB eager send from ever finding enough credit.
inline constexpr std::int64_t kCreditBudgetBytes = std::int64_t{4} << 20;
inline constexpr std::int64_t kCreditCapBytes = std::int64_t{256} << 10;

/// Each sender's window in an N-rank world: budget / (N-1), at most the cap.
[[nodiscard]] constexpr std::int64_t credit_window(int nranks) {
  return nranks > 1 ? std::min(kCreditBudgetBytes / (nranks - 1), kCreditCapBytes)
                    : kCreditCapBytes;
}

/// Sizes `caps` for an N-rank world if its credit_bytes is 0 (the real
/// fabrics' default): the window becomes credit_window(N), and an eager
/// threshold the window cannot carry with its control record falls to
/// the largest message it can. The threshold gives way, not the window:
/// N-1 windows past the budget would let one eager message from each
/// sender overflow the receiver's unexpected-message cap. An explicit
/// window is kept as given, and so is its threshold.
constexpr void size_credit_window(FabricCaps& caps, int nranks) {
  if (caps.credit_bytes != 0) return;
  caps.credit_bytes = credit_window(nranks);
  caps.eager_threshold = std::max<std::int64_t>(
      0, std::min(caps.eager_threshold, caps.credit_bytes - caps.control_record_bytes));
}

/// Costs the MPI layer charges to the calling processor (the SPARC on the
/// Meiko, the SGI host CPU over TCP). Transport costs are charged by the
/// fabric itself.
struct MpiCosts {
  Duration envelope_build{};       // per send: communicator/datatype/mode work
  Duration match{};                // per matching attempt at the receiver
  Duration match_per_entry{};      // per queue entry scanned
  Duration unexpected_copy_base{}; // buffering an unmatched eager message
  Duration unexpected_copy_per_byte{};
  Duration bookkeeping{};          // request allocate/complete
  /// Copy-out of a hardware-broadcast payload (bulk memcpy; cheaper than
  /// the envelope-slot double copy of the eager path).
  Duration bcast_copy_per_byte{};
};

class Fabric;

/// One rank's attachment to the fabric.
class Endpoint {
 public:
  Endpoint(Fabric& fabric, int rank) : fabric_(fabric), rank_(rank) {}
  virtual ~Endpoint() = default;
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] Fabric& fabric() const { return fabric_; }

  /// The clock MPI-level timestamps (traces, Comm::wtime) are drawn from:
  /// virtual time on the simulated fabrics, wall-clock time on the
  /// real-threads shared-memory fabric.
  [[nodiscard]] virtual TimePoint now() const;

  /// Sends a control/eager/rdata message. Reliable; ordered per (src,dst).
  /// Transport costs are charged to `self` and/or the modelled NIC.
  virtual void send(sim::Actor& self, int dst, ProtoMsg msg) = 0;

  /// Pull-mode fabrics: stages payload for a remote pull_bulk. `on_pulled`
  /// fires when the data has left local memory (sender completion).
  virtual std::uint64_t stage_bulk(sim::Actor& self, Bytes data,
                                   std::function<void()> on_pulled);

  /// Pull-mode fabrics: fetches remote staged data into local memory.
  virtual void pull_bulk(sim::Actor& self, int src, std::uint64_t key,
                         std::function<void(Bytes)> on_data);

  /// Hardware broadcast to every other rank (caps().hw_broadcast only).
  virtual void hw_broadcast(sim::Actor& self, ProtoMsg msg);

  /// Enters the fabric's hardware barrier (caps().hw_barrier only). The
  /// fabric delivers one kBarrier message to every rank — this one
  /// included — once all ranks have entered.
  virtual void hw_barrier_enter(sim::Actor& self);

  // --- bulk data plane -----------------------------------------------------
  //
  // Push-mode fabrics with a dedicated bulk plane move rendezvous payloads
  // OUTSIDE the framed control channel, so a 64 MiB transfer cannot
  // head-of-line-block eager envelopes. The real fabrics each have one:
  // ShmFabric copies straight into the posted buffer, SocketFabric uses a
  // memfd ring on AF_UNIX and a second stream socket on AF_INET. The
  // simulated fabrics keep inline kRdata. Protocol (driven by the engine):
  //
  //   receiver: bulk_post(src, cookie, dst, cap)  -- BEFORE sending CTS
  //   sender:   bulk_send(dst, cookie, data, n)   -- on CTS; async, data
  //             must stay valid until kBulkSent is delivered locally
  //   fabric:   streams bytes opportunistically from poll()/wait_activity,
  //             clamps writes at `cap` (discarding overflow), then
  //             delivers kBulkDelivered (receiver) / kBulkSent (sender).
  //
  // The registration always precedes the transfer header on the wire
  // because bulk_post happens before the CTS leaves the receiver and the
  // sender writes bulk bytes only after the CTS arrives.

  /// True if rendezvous payloads to `peer` travel on this fabric's bulk
  /// plane. Each fabric has at most one plane, fixed per transport; false
  /// (the default, and always for self-sends) keeps the inline kRdata
  /// path, which carries the payload inside a control frame.
  [[nodiscard]] virtual bool bulk_plane(int peer) const {
    (void)peer;
    return false;
  }

  /// Receiver: register the posted buffer for an expected bulk arrival
  /// from `src` with transfer cookie `cookie` (the sender's request id).
  /// At most `capacity` bytes are written; overflow is consumed and
  /// discarded (the engine reports truncation from the RTS size).
  virtual void bulk_post(int src, std::uint64_t cookie, void* dst,
                         std::size_t capacity);

  /// Sender: start the asynchronous bulk transfer of `size` bytes to
  /// `dst`. `data` is borrowed — it must remain valid until the fabric
  /// delivers the matching kBulkSent completion note.
  virtual void bulk_send(sim::Actor& self, int dst, std::uint64_t cookie,
                         const void* data, std::size_t size);

  // --- one-sided window seam ------------------------------------------------
  //
  // Fabrics whose ranks share an address space (ShmFabric) can satisfy
  // Put/Get with plain loads and stores into the peer's registered window;
  // everyone else falls back to the message protocol (kRma* frames). The
  // window layer exposes its segment at creation, asks rma_direct() per
  // peer after a barrier, and commits to one strategy for the window's
  // lifetime. acc_sink is an opaque pointer the window layer interprets
  // (the target's serialized accumulate buffer); the fabric only stores it.

  /// A directly addressable view of a peer's window segment.
  struct RmaSegment {
    std::byte* base = nullptr;
    std::int64_t bytes = 0;
    void* acc_sink = nullptr;
  };

  /// Registers this rank's window segment under `key` (collective window
  /// creation calls this on every rank before the creation barrier).
  virtual void rma_expose(std::uint64_t key, void* base, std::int64_t bytes,
                          void* acc_sink);

  /// Withdraws a segment registered with rma_expose (window free).
  virtual void rma_retract(std::uint64_t key);

  /// True if `peer`'s segment `key` is directly addressable from this
  /// rank, filling `out`. Default: no shared address space — message mode.
  [[nodiscard]] virtual bool rma_direct(int peer, std::uint64_t key,
                                        RmaSegment* out);

  /// Dequeues the next arrived message, if any. Stream fabrics perform the
  /// actual (charged) socket reads here, which is why `self` is needed.
  virtual std::optional<ProtoMsg> poll(sim::Actor& self);

  /// Blocks until something may have arrived. Condition-variable
  /// semantics: callers re-check poll() in a loop. Simulated fabrics park
  /// the actor on a Trigger; the shared-memory fabric parks the OS thread.
  virtual void wait_activity(sim::Actor& self);

  /// Wakes a blocked wait_activity without a delivery (completion
  /// callbacks — e.g. a DMA pull finishing — use this).
  virtual void wake() { activity_.notify_all(); }

 protected:
  /// Delivery from the fabric's event machinery: enqueue + wake.
  void deliver(ProtoMsg msg);
  /// Wakes a blocked engine without delivering (e.g. readable stream).
  void notify_activity() { activity_.notify_all(); }

  Fabric& fabric_;
  int rank_;
  std::deque<ProtoMsg> incoming_;
  sim::Trigger activity_;
};

class Fabric {
 public:
  virtual ~Fabric() = default;
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] virtual int nranks() const = 0;
  [[nodiscard]] virtual Endpoint& endpoint(int rank) = 0;
  [[nodiscard]] const FabricCaps& caps() const { return caps_; }
  [[nodiscard]] const MpiCosts& mpi_costs() const { return mpi_costs_; }

  /// The driving simulator. Only the simulated fabrics have one; the
  /// real-threads shared-memory fabric (src/fabric/shm_fabric.h) runs on
  /// OS threads and wall-clock time instead.
  [[nodiscard]] sim::Kernel& kernel() const {
    LCMPI_CHECK(kernel_ != nullptr, "this fabric runs on real threads, not a sim kernel");
    return *kernel_;
  }

 protected:
  Fabric(sim::Kernel& kernel, FabricCaps caps, MpiCosts costs)
      : kernel_(&kernel), caps_(caps), mpi_costs_(costs) {}
  /// Kernel-less base for fabrics driven by real threads.
  Fabric(FabricCaps caps, MpiCosts costs) : caps_(caps), mpi_costs_(costs) {}

  sim::Kernel* kernel_ = nullptr;
  FabricCaps caps_;
  MpiCosts mpi_costs_;
};

}  // namespace lcmpi::fabric
