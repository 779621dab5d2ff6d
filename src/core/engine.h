// The low-latency MPI engine — the paper's point-to-point machinery.
//
// One Engine runs per rank, on that rank's actor (the modelled main
// processor: the SPARC on the Meiko, the SGI host over TCP). Everything
// the paper argues about lives here:
//
//  * matching at the receiver on the MAIN processor (not a co-processor):
//    the posted/unexpected queues are scanned inside MPI calls and charged
//    to the calling actor at MpiCosts rates;
//  * the hybrid transfer protocol: payloads at or below the fabric's
//    eager threshold travel WITH the envelope, overlapped with matching,
//    buffered at the receiver when no receive is posted; larger payloads
//    send an envelope first (RTS) and move by DMA pull (Meiko) or
//    CTS-then-push (TCP) straight into the user buffer — no intermediate
//    copy;
//  * flow control: a single pre-allocated envelope slot per sender
//    (Meiko), or per-sender credit that the receiver replenishes as
//    messages are matched and drained (TCP) — sends that cannot proceed
//    are deferred per-destination in FIFO order, preserving MPI's
//    non-overtaking guarantee;
//  * all four send modes, blocking and nonblocking, probe, and the
//    envelope-resource overflow detection of Burns & Daoud.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <optional>

#include "src/core/buffer_pool.h"
#include "src/core/coll.h"
#include "src/core/datatype.h"
#include "src/core/matching.h"
#include "src/core/request.h"
#include "src/core/trace.h"
#include "src/core/types.h"
#include "src/fabric/fabric.h"

namespace lcmpi::mpi {

/// How much of an owed-credit balance fits the wire's u32 credit field.
struct CreditGrant {
  std::uint32_t grant = 0;        // goes out in ProtoMsg::credit
  std::int64_t remainder = 0;     // stays in owed_ for a later message
};

/// Splits `owed` into the largest grant the u32 field can carry plus the
/// remainder to keep owing. The engine's credit unit is bytes, so a
/// balance past 4 GiB is exotic but legal (credit_bytes is configurable);
/// truncating it would silently destroy credit and eventually wedge the
/// sender — the remainder must ride a later message instead.
[[nodiscard]] constexpr CreditGrant clamp_credit(std::int64_t owed) {
  constexpr std::int64_t kFieldMax = std::numeric_limits<std::uint32_t>::max();
  if (owed <= 0) return {0, owed};
  if (owed <= kFieldMax) return {static_cast<std::uint32_t>(owed), 0};
  return {static_cast<std::uint32_t>(kFieldMax), owed - kFieldMax};
}

struct EngineConfig {
  /// Cap on eager payload bytes parked in the unexpected queue; exceeding
  /// it raises Err::kResources (Burns & Daoud overflow reporting). The
  /// real fabrics split the same budget among a receiver's senders as
  /// their credit windows (fabric::credit_window).
  std::int64_t max_unexpected_bytes = fabric::kCreditBudgetBytes;
  /// false: error completions throw MpiError (MPI_ERRORS_ARE_FATAL).
  /// true: errors are reported in Status (MPI_ERRORS_RETURN) where the
  /// standard allows continuing (truncation); resource errors still throw.
  bool errors_return = false;
  /// Ablation override of the fabric's eager/rendezvous threshold.
  std::optional<std::int64_t> eager_threshold_override;
  /// Use fabric hardware broadcast for world-spanning communicators.
  bool use_hw_bcast = true;
  /// Use the fabric's hardware barrier for world-spanning communicators.
  bool use_hw_barrier = true;
  /// Software collective-algorithm selection (src/core/coll.h): crossover
  /// thresholds plus an optional forced algorithm. The LCMPI_COLL
  /// environment override is folded in once, at Engine construction; a
  /// programmatic force set here beats it.
  coll::Tuning coll;
  /// Optional shared protocol-milestone tracer (see src/core/trace.h).
  MsgTrace* trace = nullptr;
};

/// Receiver of routed one-sided frames: a window (src/core/win.h)
/// registers itself under its key and the engine's progress loop feeds it
/// every kRma* frame addressed to that key — Get replies and Accumulate
/// folds run entirely inside the target's progress, never in user code.
class RmaTarget {
 public:
  virtual ~RmaTarget() = default;
  virtual void on_rma(fabric::ProtoMsg msg) = 0;
};

class Engine {
 public:
  Engine(fabric::Endpoint& ep, sim::Actor& self, EngineConfig cfg = {});
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] int rank() const { return ep_.rank(); }
  [[nodiscard]] int nranks() const { return ep_.fabric().nranks(); }
  [[nodiscard]] sim::Actor& self() const { return self_; }
  [[nodiscard]] TimePoint now() const { return ep_.now(); }
  [[nodiscard]] const EngineConfig& config() const { return cfg_; }
  /// MPI_Errhandler_set(MPI_ERRORS_RETURN) equivalent: report failed
  /// requests through Status::error instead of throwing on wait.
  void set_errors_return(bool v) { cfg_.errors_return = v; }
  [[nodiscard]] const fabric::FabricCaps& caps() const { return ep_.fabric().caps(); }
  [[nodiscard]] fabric::Endpoint& endpoint() const { return ep_; }

  // --- point-to-point (world ranks; communicators translate) ---------------
  Request isend(const void* buf, int count, const Datatype& type, int dst_world,
                std::int32_t tag, std::uint32_t context, Mode mode);
  Request irecv(void* buf, int count, const Datatype& type, int src_world,
                std::int32_t tag, std::uint32_t context);
  void wait(const Request& req);
  bool test(const Request& req);
  /// MPI_Cancel for receives: true if the posted receive was withdrawn
  /// before matching (the request then completes as cancelled). Sends and
  /// already-matched receives cannot be cancelled (returns false).
  bool cancel(const Request& req);
  Status probe(int src_world, std::int32_t tag, std::uint32_t context);
  std::optional<Status> iprobe(int src_world, std::int32_t tag, std::uint32_t context);

  // --- buffered-send buffer management (MPI_Buffer_attach/detach) ----------
  void buffer_attach(std::int64_t bytes);
  /// Blocks until all buffered sends complete; returns the detached size.
  std::int64_t buffer_detach();
  [[nodiscard]] std::int64_t buffer_bytes_in_use() const { return bsend_used_; }

  // --- hardware collective offload ------------------------------------------
  void hw_bcast_root(Bytes payload, std::uint32_t context, std::uint64_t seq);
  Bytes hw_bcast_recv(std::uint32_t context, std::uint64_t seq);
  /// Enters the fabric's hardware barrier and blocks until the release
  /// (caps().hw_barrier only). Releases arrive strictly one per enter, so
  /// concurrent communicators cannot confuse them: no engine can re-enter
  /// before every engine left the previous barrier.
  void hw_barrier();

  // --- one-sided (RMA) plumbing ---------------------------------------------
  /// A window key every rank of a communicator derives identically:
  /// windows are created collectively, so per-context creation order
  /// agrees across ranks. High word = context, low word = per-context
  /// creation sequence.
  [[nodiscard]] std::uint64_t rma_make_key(std::uint32_t context);
  void rma_register(std::uint64_t key, RmaTarget* win);
  void rma_deregister(std::uint64_t key);
  /// Sends an RMA frame down the normal sequenced channel. No credit is
  /// charged (epochs bound the target's buffering); owed credit still
  /// piggybacks like any other control message.
  void rma_send(int dst_world, fabric::ProtoMsg msg);

  // --- progress --------------------------------------------------------------
  /// Drains and handles every arrived message. Nonblocking.
  void progress();
  /// progress(), then blocks for activity if `until` is still false.
  void progress_until(const std::function<bool()>& until);

  // --- diagnostics -------------------------------------------------------------
  [[nodiscard]] std::size_t unexpected_count() const { return unexpected_.size(); }
  [[nodiscard]] std::int64_t unexpected_bytes() const { return unexpected_.buffered_bytes(); }
  [[nodiscard]] std::size_t posted_count() const { return posted_.size(); }
  [[nodiscard]] std::int64_t eager_sends() const { return eager_sends_; }
  [[nodiscard]] std::int64_t rendezvous_sends() const { return rndv_sends_; }
  /// Matching-engine observability (depth high-water, logical scan totals,
  /// bucket occupancy) — see MatchStats in src/core/matching.h.
  [[nodiscard]] MatchStats posted_match_stats() const { return posted_.stats(); }
  [[nodiscard]] MatchStats unexpected_match_stats() const { return unexpected_.stats(); }

  /// Effective eager/rendezvous threshold in force.
  [[nodiscard]] std::int64_t eager_threshold() const;

  /// Recycled staging buffers (bulk rendezvous, long-message collectives).
  [[nodiscard]] BufferPool& pool() { return pool_; }

  /// Next derived-communicator context id (managed by Comm).
  std::uint32_t next_context_ = 2;

 private:
  // Send-side protocol.
  void enqueue_launch(const Request& req);
  void try_launch(int dst);
  void launch(const Request& req);
  /// Credit a send of `nbytes` consumes: its control record, plus the
  /// payload when it goes eager.
  [[nodiscard]] std::int64_t flow_cost(std::int64_t nbytes) const;
  void send_msg(int dst, fabric::ProtoMsg msg);
  void complete_send(const Request& req);

  // Receive-side protocol.
  void handle(fabric::ProtoMsg msg);
  void handle_eager(fabric::ProtoMsg msg);
  void handle_rts(fabric::ProtoMsg msg);
  /// Moves msg.payload into the user buffer (msg's envelope fields survive).
  void deliver_payload(const Request& req, fabric::ProtoMsg& msg);
  void start_rendezvous(const Request& req, const fabric::ProtoMsg& rts);
  void complete_recv(const Request& req);
  void accrue_credit(int src, std::int64_t bytes);
  void send_slot_free(int src);
  void charge_match(std::size_t scanned);
  void raise(Err code, const std::string& what);

  fabric::Endpoint& ep_;
  sim::Actor& self_;
  EngineConfig cfg_;

  std::uint64_t next_req_id_ = 1;
  std::map<std::uint64_t, Request> live_;  // all requests the engine drives

  // Matching state (the paper's receiver-side queues).
  PostedQueue posted_;
  UnexpectedQueue unexpected_;

  // Rendezvous routing: (src world rank, sender request id) -> recv request.
  std::map<std::pair<int, std::uint64_t>, std::uint64_t> pending_rdata_;

  // Flow control.
  std::vector<bool> slot_free_;          // single-slot fabrics
  std::vector<std::int64_t> credit_;     // credit fabrics: available to us
  std::vector<std::int64_t> owed_;       // credit fabrics: owed back per src
  std::vector<std::deque<std::uint64_t>> deferred_;  // per-dst launch queue
  std::vector<std::uint64_t> next_seq_;  // per-dst send sequence
  std::vector<std::uint64_t> expect_seq_;  // per-src delivery check

  // One-sided routing: window key -> registered window.
  std::map<std::uint64_t, RmaTarget*> rma_wins_;
  std::map<std::uint32_t, std::uint32_t> rma_win_seq_;  // per-context counter

  // Hardware broadcast reassembly: per context, in-order payload queue.
  std::map<std::uint32_t, std::deque<fabric::ProtoMsg>> bcast_q_;

  // Hardware barrier bookkeeping (entered vs released counts).
  std::uint64_t hw_barrier_entered_ = 0;
  std::uint64_t hw_barrier_released_ = 0;

  // Buffered sends.
  std::int64_t bsend_capacity_ = 0;
  std::int64_t bsend_used_ = 0;

  // Recycled staging buffers.
  BufferPool pool_;

  // Stats.
  std::int64_t eager_sends_ = 0;
  std::int64_t rndv_sends_ = 0;
};

}  // namespace lcmpi::mpi
