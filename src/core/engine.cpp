#include "src/core/engine.h"

#include <algorithm>
#include <string>
#include <utility>

namespace lcmpi::mpi {

using fabric::FlowControl;
using fabric::MsgKind;
using fabric::ProtoMsg;

Engine::Engine(fabric::Endpoint& ep, sim::Actor& self, EngineConfig cfg)
    : ep_(ep), self_(self), cfg_(cfg) {
  cfg_.coll = coll::resolve(cfg_.coll);
  const int n = nranks();
  slot_free_.assign(static_cast<std::size_t>(n), true);
  credit_.assign(static_cast<std::size_t>(n), caps().credit_bytes);
  owed_.assign(static_cast<std::size_t>(n), 0);
  deferred_.resize(static_cast<std::size_t>(n));
  next_seq_.assign(static_cast<std::size_t>(n), 0);
  expect_seq_.assign(static_cast<std::size_t>(n), 0);
}

std::int64_t Engine::eager_threshold() const {
  return cfg_.eager_threshold_override.value_or(caps().eager_threshold);
}

void Engine::raise(Err code, const std::string& what) {
  throw MpiError(code, "rank " + std::to_string(rank()) + ": " + what);
}

namespace {
void trace_ev(MsgTrace* t, int src, std::uint64_t req, MsgEvent ev, TimePoint now) {
  if (t != nullptr) t->record(MsgTrace::Key{src, req}, ev, now);
}
}  // namespace

void Engine::charge_match(std::size_t scanned) {
  const fabric::MpiCosts& c = ep_.fabric().mpi_costs();
  self_.advance(c.match + c.match_per_entry * static_cast<std::int64_t>(scanned));
}

// ------------------------------------------------------------------- sends

Request Engine::isend(const void* buf, int count, const Datatype& type, int dst_world,
                      std::int32_t tag, std::uint32_t context, Mode mode) {
  if (count < 0 || dst_world < 0 || dst_world >= nranks() || tag < 0)
    raise(Err::kBadArgument, "invalid isend arguments");
  const std::int64_t nbytes = type.size() * count;
  // A send whose flow cost exceeds the whole credit window would wait in
  // the deferred queue forever: refuse it instead of hanging.
  if (caps().flow == FlowControl::kCredit && dst_world != rank() &&
      flow_cost(nbytes) > caps().credit_bytes) {
    raise(Err::kResources,
          "a " + std::to_string(nbytes) + " B send needs " +
              std::to_string(flow_cost(nbytes)) +
              " B of credit, more than the whole window: eager_threshold = " +
              std::to_string(eager_threshold()) + " B, credit_bytes = " +
              std::to_string(caps().credit_bytes) + " B");
  }
  const fabric::MpiCosts& c = ep_.fabric().mpi_costs();
  const TimePoint isend_entry = now();
  self_.advance(c.envelope_build + c.bookkeeping);

  auto req = std::make_shared<RequestState>();
  req->kind = RequestState::Kind::kSend;
  req->id = next_req_id_++;
  trace_ev(cfg_.trace, rank(), req->id, MsgEvent::kIsendStart, isend_entry);
  req->mode = mode;
  req->dst = dst_world;
  req->tag = tag;
  req->context = context;
  req->send_buf = buf;
  req->send_count = count;
  req->send_type = type;
  req->needs_ssend_ack = (mode == Mode::kSynchronous);

  if (nbytes <= eager_threshold()) {
    // Eager: pack now; the payload travels with the envelope.
    req->send_payload = type.pack(buf, count);
    ++eager_sends_;
  } else {
    ++rndv_sends_;
    // Pull fabrics need the data staged at launch; push fabrics pack
    // lazily when the CTS arrives (the user buffer must stay valid, per
    // the MPI standard).
    if (caps().pull_bulk) req->send_payload = type.pack(buf, count);
  }

  if (mode == Mode::kBuffered) {
    const std::int64_t need = nbytes;
    if (bsend_used_ + need > bsend_capacity_)
      raise(Err::kBufferExhausted, "buffered send exceeds attached buffer");
    bsend_used_ += need;
    req->from_bsend_buffer = true;
    req->bsend_bytes = need;
    // Buffered semantics: the user-visible operation completes now; the
    // engine keeps driving the transfer in the background.
    if (req->send_payload.empty() && nbytes > 0)
      req->send_payload = type.pack(buf, count);  // snapshot before returning
    req->done = true;
  }

  live_[req->id] = req;
  enqueue_launch(req);
  return req;
}

std::int64_t Engine::flow_cost(std::int64_t nbytes) const {
  if (nbytes <= eager_threshold()) return caps().control_record_bytes + nbytes;
  return caps().control_record_bytes;  // RTS envelope only
}

void Engine::enqueue_launch(const Request& req) {
  deferred_[static_cast<std::size_t>(req->dst)].push_back(req->id);
  try_launch(req->dst);
}

void Engine::try_launch(int dst) {
  auto& q = deferred_[static_cast<std::size_t>(dst)];
  while (!q.empty()) {
    auto it = live_.find(q.front());
    LCMPI_CHECK(it != live_.end(), "deferred send vanished");
    const Request req = it->second;
    if (dst != rank()) {
      switch (caps().flow) {
        case FlowControl::kSingleSlot:
          if (!slot_free_[static_cast<std::size_t>(dst)]) return;
          slot_free_[static_cast<std::size_t>(dst)] = false;
          break;
        case FlowControl::kCredit: {
          const std::int64_t need = flow_cost(req->send_type.size() * req->send_count);
          if (credit_[static_cast<std::size_t>(dst)] < need) return;
          credit_[static_cast<std::size_t>(dst)] -= need;
          break;
        }
        case FlowControl::kNone:
          break;
      }
    }
    q.pop_front();
    launch(req);
  }
}

void Engine::launch(const Request& req) {
  const std::int64_t nbytes = req->send_type.size() * req->send_count;
  req->launched = true;
  trace_ev(cfg_.trace, rank(), req->id, MsgEvent::kLaunched, now());

  ProtoMsg msg;
  msg.tag = req->tag;
  msg.context = req->context;
  msg.mode = static_cast<std::uint8_t>(req->mode);
  msg.size = static_cast<std::uint32_t>(nbytes);
  msg.sender_req = req->id;

  if (nbytes <= eager_threshold()) {
    msg.kind = MsgKind::kEager;
    // The request never reads the payload again after launch; hand the
    // buffer to the fabric instead of copying it.
    msg.payload = std::move(req->send_payload);
    req->data_out = true;
    send_msg(req->dst, std::move(msg));
    if (!req->needs_ssend_ack) complete_send(req);
    return;
  }

  msg.kind = MsgKind::kRts;
  if (caps().pull_bulk) {
    // Stage for the receiver's DMA pull; completion = data pulled.
    const std::uint64_t id = req->id;
    msg.bulk_key = ep_.stage_bulk(self_, std::move(req->send_payload),
                                  [this, id] {
                                    auto it = live_.find(id);
                                    if (it == live_.end()) return;
                                    it->second->data_out = true;
                                    complete_send(it->second);
                                    ep_.wake();  // unblock a waiting sender
                                  });
    req->send_payload.clear();
  }
  send_msg(req->dst, std::move(msg));
  // Push fabrics: completion happens when the CTS arrives and the data is
  // written (handle() drives it). Pull fabrics: on_pulled above.
}

void Engine::send_msg(int dst, ProtoMsg msg) {
  if (dst == rank()) {
    // Self-send: no fabric, no flow control; deliver synchronously.
    msg.src = rank();
    msg.seq = next_seq_[static_cast<std::size_t>(dst)]++;
    expect_seq_[static_cast<std::size_t>(dst)]++;  // keep the check aligned
    handle(std::move(msg));
    return;
  }
  if (caps().flow == FlowControl::kCredit) {
    // Piggyback any credit we owe this peer — clamped to the u32 wire
    // field; any overflow stays owed and rides the next message.
    auto& owed = owed_[static_cast<std::size_t>(dst)];
    const CreditGrant g = clamp_credit(owed);
    msg.credit = g.grant;
    owed = g.remainder;
  }
  msg.seq = next_seq_[static_cast<std::size_t>(dst)]++;
  ep_.send(self_, dst, std::move(msg));
}

void Engine::complete_send(const Request& req) {
  trace_ev(cfg_.trace, rank(), req->id, MsgEvent::kSendComplete, now());
  if (req->from_bsend_buffer) {
    bsend_used_ -= req->bsend_bytes;
    LCMPI_CHECK(bsend_used_ >= 0, "bsend buffer accounting underflow");
  }
  req->done = true;
  live_.erase(req->id);
}

// ---------------------------------------------------------------- receives

Request Engine::irecv(void* buf, int count, const Datatype& type, int src_world,
                      std::int32_t tag, std::uint32_t context) {
  if (count < 0 || (src_world != kAnySource && (src_world < 0 || src_world >= nranks())))
    raise(Err::kBadArgument, "invalid irecv arguments");
  // Drain arrivals first: entering the library is when the main processor
  // notices deposited envelopes (and when erroneous ready sends surface).
  progress();
  const fabric::MpiCosts& c = ep_.fabric().mpi_costs();
  self_.advance(c.bookkeeping);

  auto req = std::make_shared<RequestState>();
  req->kind = RequestState::Kind::kRecv;
  req->id = next_req_id_++;
  req->recv_buf = buf;
  req->recv_count = count;
  req->recv_type = type;
  req->src = src_world;
  req->tag = tag;
  req->context = context;
  live_[req->id] = req;

  // First look in the unexpected queue (charged scan).
  std::size_t scanned = 0;
  if (auto m = unexpected_.match(context, src_world, tag, &scanned)) {
    charge_match(scanned);
    req->matched = true;
    if (m->kind == MsgKind::kEager) {
      // Second copy of the buffering path: temp buffer -> user buffer.
      const std::int64_t payload_bytes = static_cast<std::int64_t>(m->payload.size());
      const fabric::MpiCosts& costs = ep_.fabric().mpi_costs();
      self_.advance(costs.unexpected_copy_per_byte * payload_bytes);
      trace_ev(cfg_.trace, m->src, m->sender_req, MsgEvent::kMatched, now());
      deliver_payload(req, *m);
      accrue_credit(m->src, caps().control_record_bytes + payload_bytes);
      complete_recv(req);
      trace_ev(cfg_.trace, m->src, m->sender_req, MsgEvent::kDelivered, now());
    } else {
      LCMPI_CHECK(m->kind == MsgKind::kRts, "unexpected queue held non-envelope");
      accrue_credit(m->src, caps().control_record_bytes);
      start_rendezvous(req, *m);
    }
    return req;
  }
  charge_match(scanned);
  posted_.post(PostedQueue::Entry{context, src_world, tag, req->id});
  return req;
}

void Engine::deliver_payload(const Request& req, ProtoMsg& msg) {
  const std::int64_t capacity = req->recv_type.size() * req->recv_count;
  Bytes payload = std::move(msg.payload);  // consumed: delivery is terminal
  req->status.source = msg.src;
  req->status.tag = msg.tag;
  if (static_cast<std::int64_t>(msg.size) > capacity) {
    req->status.error = Err::kTruncate;
    payload.resize(static_cast<std::size_t>(capacity));
  }
  req->status.count_bytes = static_cast<std::int64_t>(payload.size());
  req->recv_type.unpack(payload, req->recv_buf, req->recv_count);
  // Only eager synchronous sends need an explicit ack; rendezvous
  // completion (pull finished / CTS received) already implies the match.
  if (msg.kind == MsgKind::kEager &&
      static_cast<Mode>(msg.mode) == Mode::kSynchronous) {
    ProtoMsg ack;
    ack.kind = MsgKind::kSsendAck;
    ack.sender_req = msg.sender_req;
    send_msg(msg.src, std::move(ack));
  }
}

void Engine::complete_recv(const Request& req) {
  req->done = true;
  live_.erase(req->id);
}

void Engine::start_rendezvous(const Request& req, const ProtoMsg& rts) {
  req->status.source = rts.src;
  req->status.tag = rts.tag;
  if (caps().pull_bulk) {
    // The paper's Meiko path: the receiver initiates a DMA from the sender
    // straight into the user buffer — no intermediate buffering.
    const std::uint64_t id = req->id;
    const int rts_src = rts.src;
    const std::uint64_t rts_req = rts.sender_req;
    ep_.pull_bulk(self_, rts.src, rts.bulk_key, [this, id, rts_src, rts_req](Bytes data) {
      auto it = live_.find(id);
      LCMPI_CHECK(it != live_.end(), "pull completion for dead request");
      const Request r = it->second;
      const std::int64_t capacity = r->recv_type.size() * r->recv_count;
      if (static_cast<std::int64_t>(data.size()) > capacity) {
        r->status.error = Err::kTruncate;
        data.resize(static_cast<std::size_t>(capacity));
      }
      r->status.count_bytes = static_cast<std::int64_t>(data.size());
      r->recv_type.unpack(data, r->recv_buf, r->recv_count);
      r->done = true;
      live_.erase(r->id);
      trace_ev(cfg_.trace, rts_src, rts_req, MsgEvent::kDelivered, now());
      ep_.wake();
    });
    return;
  }
  // Push path (TCP): tell the sender to transmit; route the data back to
  // this request by the sender's request id.
  if (ep_.bulk_plane(rts.src)) {
    // Bulk plane: the payload will bypass the framed control channel, so
    // register the landing buffer with the fabric BEFORE the CTS leaves —
    // the sender writes bulk bytes only after the CTS arrives, so the
    // registration always precedes the transfer header. A contiguous
    // receive type lands straight in the user buffer (single-copy or
    // zero-copy, per transport); otherwise the fabric fills a pooled
    // staging buffer unpacked at kBulkDelivered.
    const std::int64_t capacity = req->recv_type.size() * req->recv_count;
    const std::int64_t expect =
        std::min<std::int64_t>(capacity, static_cast<std::int64_t>(rts.size));
    req->bulk_total = rts.size;
    void* dst = nullptr;
    if (req->recv_type.is_contiguous()) {
      dst = req->recv_buf;
    } else {
      req->bulk_staging = pool_.acquire(static_cast<std::size_t>(expect));
      req->bulk_staging.resize(static_cast<std::size_t>(expect));
      dst = req->bulk_staging.data();
    }
    ep_.bulk_post(rts.src, rts.sender_req, dst, static_cast<std::size_t>(expect));
  }
  pending_rdata_[{rts.src, rts.sender_req}] = req->id;
  ProtoMsg cts;
  cts.kind = MsgKind::kCts;
  cts.sender_req = rts.sender_req;
  send_msg(rts.src, std::move(cts));
}

// ----------------------------------------------------------------- handlers

void Engine::progress() {
  while (auto m = ep_.poll(self_)) handle(std::move(*m));
}

void Engine::progress_until(const std::function<bool()>& until) {
  for (;;) {
    progress();
    if (until()) return;
    ep_.wait_activity(self_);
  }
}

void Engine::handle(ProtoMsg msg) {
  // Bulk completion notes are synthesized by the local fabric, not popped
  // off a sequenced channel: they carry no seq and no piggybacked credit.
  // Hardware broadcast and barrier releases likewise bypass the per-pair
  // sequenced channel (the fat tree replicates them in hardware).
  const bool local_note =
      msg.kind == MsgKind::kBulkSent || msg.kind == MsgKind::kBulkDelivered;
  if (msg.src != rank() && msg.kind != MsgKind::kBcast &&
      msg.kind != MsgKind::kBarrier && !local_note) {
    LCMPI_CHECK(msg.seq == expect_seq_[static_cast<std::size_t>(msg.src)]++,
                "fabric delivered out of order");
    if (caps().flow == FlowControl::kCredit && msg.credit > 0) {
      credit_[static_cast<std::size_t>(msg.src)] += msg.credit;
      try_launch(msg.src);
    }
  }
  switch (msg.kind) {
    case MsgKind::kEager:
      handle_eager(std::move(msg));
      break;
    case MsgKind::kRts:
      handle_rts(std::move(msg));
      break;
    case MsgKind::kCts: {
      auto it = live_.find(msg.sender_req);
      LCMPI_CHECK(it != live_.end(), "CTS for unknown send");
      const Request req = it->second;
      if (ep_.bulk_plane(req->dst)) {
        // Bulk plane: stream the payload outside the framed control
        // channel. A contiguous user buffer is handed to the fabric
        // as-is — zero pack copy; the MPI standard keeps it valid until
        // the request completes, which happens at kBulkSent. Bsend
        // snapshots and pull-staged payloads already sit in send_payload;
        // non-contiguous sends pack into a pooled buffer returned at
        // completion. The transfer is asynchronous and chunk-pumped from
        // poll()/wait_activity, so eager envelopes interleave with it.
        const std::int64_t nbytes = req->send_type.size() * req->send_count;
        const void* src = nullptr;
        if (!req->send_payload.empty()) {
          src = req->send_payload.data();
        } else if (req->send_type.is_contiguous()) {
          src = req->send_buf;
        } else {
          req->send_payload = pool_.acquire(static_cast<std::size_t>(nbytes));
          req->send_type.pack_append(req->send_buf, req->send_count,
                                     req->send_payload);
          req->bulk_pooled = true;
          src = req->send_payload.data();
        }
        ep_.bulk_send(self_, req->dst, req->id, src,
                      static_cast<std::size_t>(nbytes));
        break;  // completes at kBulkSent
      }
      ProtoMsg data;
      data.kind = MsgKind::kRdata;
      data.sender_req = req->id;
      data.mode = static_cast<std::uint8_t>(req->mode);
      data.size = static_cast<std::uint32_t>(req->send_type.size() * req->send_count);
      data.payload = req->send_payload.empty() && req->send_count > 0
                         ? req->send_type.pack(req->send_buf, req->send_count)
                         : std::move(req->send_payload);  // send completes below
      req->data_out = true;
      send_msg(req->dst, std::move(data));
      complete_send(req);
      break;
    }
    case MsgKind::kRdata: {
      auto key = std::make_pair(msg.src, msg.sender_req);
      auto it = pending_rdata_.find(key);
      LCMPI_CHECK(it != pending_rdata_.end(), "RDATA with no pending rendezvous");
      const std::uint64_t req_id = it->second;
      pending_rdata_.erase(it);
      auto lit = live_.find(req_id);
      LCMPI_CHECK(lit != live_.end(), "RDATA for dead request");
      const Request req = lit->second;
      // Rendezvous data lands straight in the user buffer (the fabric
      // already charged the transport read). The RDATA record does not
      // repeat the envelope, so restore the matched RTS's source/tag.
      ProtoMsg as_delivery = std::move(msg);
      as_delivery.src = req->status.source;
      as_delivery.tag = req->status.tag;
      deliver_payload(req, as_delivery);
      complete_recv(req);
      trace_ev(cfg_.trace, as_delivery.src, as_delivery.sender_req, MsgEvent::kDelivered,
               now());
      break;
    }
    case MsgKind::kCredit:
      // Credit was already banked by the common path above.
      break;
    case MsgKind::kSlotFree:
      slot_free_[static_cast<std::size_t>(msg.src)] = true;
      try_launch(msg.src);
      break;
    case MsgKind::kSsendAck: {
      auto it = live_.find(msg.sender_req);
      LCMPI_CHECK(it != live_.end(), "ssend ack for unknown send");
      const Request req = it->second;
      req->got_ssend_ack = true;
      if (req->launched) complete_send(req);
      break;
    }
    case MsgKind::kRmaPut:
    case MsgKind::kRmaGet:
    case MsgKind::kRmaGetReply:
    case MsgKind::kRmaAcc: {
      auto it = rma_wins_.find(msg.bulk_key);
      LCMPI_CHECK(it != rma_wins_.end(), "RMA frame for unknown window");
      it->second->on_rma(std::move(msg));
      break;
    }
    case MsgKind::kBcast:
      bcast_q_[msg.context].push_back(std::move(msg));
      break;
    case MsgKind::kBarrier:
      ++hw_barrier_released_;
      break;
    case MsgKind::kBulkSent: {
      // Local note: our bulk payload has fully left the user buffer.
      auto it = live_.find(msg.sender_req);
      LCMPI_CHECK(it != live_.end(), "bulk-sent note for unknown send");
      const Request req = it->second;
      req->data_out = true;
      if (req->bulk_pooled) {
        pool_.release(std::move(req->send_payload));
        req->bulk_pooled = false;
      }
      complete_send(req);
      break;
    }
    case MsgKind::kBulkDelivered: {
      // Local note: a bulk transfer fully landed in the registered buffer.
      const auto key = std::make_pair(msg.src, msg.sender_req);
      auto it = pending_rdata_.find(key);
      LCMPI_CHECK(it != pending_rdata_.end(), "bulk delivery with no pending rendezvous");
      const std::uint64_t req_id = it->second;
      pending_rdata_.erase(it);
      auto lit = live_.find(req_id);
      LCMPI_CHECK(lit != live_.end(), "bulk delivery for dead request");
      const Request req = lit->second;
      const std::int64_t capacity = req->recv_type.size() * req->recv_count;
      const std::int64_t total = static_cast<std::int64_t>(req->bulk_total);
      if (total > capacity) req->status.error = Err::kTruncate;
      req->status.count_bytes = std::min(capacity, total);
      if (!req->recv_type.is_contiguous()) {  // landed in pooled staging
        req->recv_type.unpack(req->bulk_staging, req->recv_buf, req->recv_count);
        pool_.release(std::move(req->bulk_staging));
      }
      complete_recv(req);
      trace_ev(cfg_.trace, msg.src, msg.sender_req, MsgEvent::kDelivered, now());
      break;
    }
  }
}

void Engine::handle_eager(ProtoMsg msg) {
  trace_ev(cfg_.trace, msg.src, msg.sender_req, MsgEvent::kArrived, now());
  std::size_t scanned = 0;
  auto posted = posted_.match(msg.context, msg.src, msg.tag, &scanned);
  charge_match(scanned);
  if (posted) trace_ev(cfg_.trace, msg.src, msg.sender_req, MsgEvent::kMatched, now());
  const std::int64_t payload_bytes = static_cast<std::int64_t>(msg.payload.size());
  if (posted) {
    auto it = live_.find(posted->request_id);
    LCMPI_CHECK(it != live_.end(), "posted receive vanished");
    const Request req = it->second;
    // Copy out of the envelope slot into the user buffer.
    const fabric::MpiCosts& c = ep_.fabric().mpi_costs();
    self_.advance(c.unexpected_copy_base + c.unexpected_copy_per_byte * payload_bytes);
    if (msg.src != rank()) send_slot_free(msg.src);
    deliver_payload(req, msg);
    accrue_credit(msg.src, caps().control_record_bytes + payload_bytes);
    complete_recv(req);
    trace_ev(cfg_.trace, msg.src, msg.sender_req, MsgEvent::kDelivered, now());
    return;
  }
  if (static_cast<Mode>(msg.mode) == Mode::kReady)
    raise(Err::kNoPostedRecv, "ready-mode message with no posted receive");
  if (unexpected_.buffered_bytes() + payload_bytes > cfg_.max_unexpected_bytes)
    throw MpiError(Err::kResources,
                   "rank " + std::to_string(rank()) +
                       ": unexpected-message buffer overflow (Burns & Daoud)");
  // Buffer temporarily at the receiver (the paper's eager trade-off):
  // copy into reserved memory, freeing the envelope slot.
  const fabric::MpiCosts& c = ep_.fabric().mpi_costs();
  self_.advance(c.unexpected_copy_base + c.unexpected_copy_per_byte * payload_bytes);
  const int src = msg.src;
  unexpected_.add(std::move(msg));
  if (src != rank()) send_slot_free(src);
}

void Engine::handle_rts(ProtoMsg msg) {
  trace_ev(cfg_.trace, msg.src, msg.sender_req, MsgEvent::kArrived, now());
  std::size_t scanned = 0;
  auto posted = posted_.match(msg.context, msg.src, msg.tag, &scanned);
  charge_match(scanned);
  if (posted) trace_ev(cfg_.trace, msg.src, msg.sender_req, MsgEvent::kMatched, now());
  if (msg.src != rank()) send_slot_free(msg.src);
  if (posted) {
    auto it = live_.find(posted->request_id);
    LCMPI_CHECK(it != live_.end(), "posted receive vanished");
    accrue_credit(msg.src, caps().control_record_bytes);
    start_rendezvous(it->second, msg);
    return;
  }
  if (static_cast<Mode>(msg.mode) == Mode::kReady)
    raise(Err::kNoPostedRecv, "ready-mode rendezvous with no posted receive");
  unexpected_.add(std::move(msg));
}

void Engine::send_slot_free(int src) {
  if (caps().flow != FlowControl::kSingleSlot) return;
  ProtoMsg m;
  m.kind = MsgKind::kSlotFree;
  send_msg(src, std::move(m));
}

void Engine::accrue_credit(int src, std::int64_t bytes) {
  if (caps().flow != FlowControl::kCredit || src == rank()) return;
  auto& owed = owed_[static_cast<std::size_t>(src)];
  owed += bytes;
  if (owed >= caps().credit_bytes / 4) {
    ProtoMsg m;
    m.kind = MsgKind::kCredit;
    send_msg(src, std::move(m));  // send_msg piggybacks (and clears) owed_
  }
}

// ------------------------------------------------------------ one-sided RMA

std::uint64_t Engine::rma_make_key(std::uint32_t context) {
  const std::uint32_t seq = rma_win_seq_[context]++;
  return (static_cast<std::uint64_t>(context) << 32) | seq;
}

void Engine::rma_register(std::uint64_t key, RmaTarget* win) {
  LCMPI_CHECK(rma_wins_.emplace(key, win).second, "window key registered twice");
}

void Engine::rma_deregister(std::uint64_t key) { rma_wins_.erase(key); }

void Engine::rma_send(int dst_world, ProtoMsg msg) {
  send_msg(dst_world, std::move(msg));
}

// --------------------------------------------------------- wait/test/probe

void Engine::wait(const Request& req) {
  progress_until([&] { return req->done; });
  const fabric::MpiCosts& c = ep_.fabric().mpi_costs();
  self_.advance(c.bookkeeping);
  if (req->status.error != Err::kSuccess && !cfg_.errors_return)
    raise(req->status.error, "request completed with error");
}

bool Engine::test(const Request& req) {
  progress();
  if (req->done && req->status.error != Err::kSuccess && !cfg_.errors_return)
    raise(req->status.error, "request completed with error");
  return req->done;
}

bool Engine::cancel(const Request& req) {
  if (req->kind != RequestState::Kind::kRecv || req->done || req->matched) return false;
  if (!posted_.remove(req->id)) return false;
  req->status.source = kProcNull;
  req->status.count_bytes = 0;
  req->done = true;
  live_.erase(req->id);
  return true;
}

Status Engine::probe(int src_world, std::int32_t tag, std::uint32_t context) {
  const fabric::ProtoMsg* found = nullptr;
  progress_until([&] {
    std::size_t scanned = 0;
    found = unexpected_.peek(context, src_world, tag, &scanned);
    charge_match(scanned);
    return found != nullptr;
  });
  Status s;
  s.source = found->src;
  s.tag = found->tag;
  s.count_bytes = found->size;
  return s;
}

std::optional<Status> Engine::iprobe(int src_world, std::int32_t tag,
                                     std::uint32_t context) {
  progress();
  std::size_t scanned = 0;
  const fabric::ProtoMsg* found = unexpected_.peek(context, src_world, tag, &scanned);
  charge_match(scanned);
  if (!found) return std::nullopt;
  Status s;
  s.source = found->src;
  s.tag = found->tag;
  s.count_bytes = found->size;
  return s;
}

// ------------------------------------------------------------ bsend buffer

void Engine::buffer_attach(std::int64_t bytes) {
  LCMPI_CHECK(bytes >= 0, "negative buffer size");
  bsend_capacity_ = bytes;
}

std::int64_t Engine::buffer_detach() {
  progress_until([&] { return bsend_used_ == 0; });
  const std::int64_t old = bsend_capacity_;
  bsend_capacity_ = 0;
  return old;
}

// ------------------------------------------------------- hardware broadcast

void Engine::hw_bcast_root(Bytes payload, std::uint32_t context, std::uint64_t seq) {
  ProtoMsg msg;
  msg.kind = MsgKind::kBcast;
  msg.context = context;
  msg.seq = seq;
  msg.size = static_cast<std::uint32_t>(payload.size());
  msg.payload = std::move(payload);
  const fabric::MpiCosts& c = ep_.fabric().mpi_costs();
  self_.advance(c.envelope_build);
  ep_.hw_broadcast(self_, std::move(msg));
}

Bytes Engine::hw_bcast_recv(std::uint32_t context, std::uint64_t seq) {
  progress_until([&] {
    auto it = bcast_q_.find(context);
    return it != bcast_q_.end() && !it->second.empty();
  });
  auto& q = bcast_q_[context];
  ProtoMsg msg = std::move(q.front());
  q.pop_front();
  LCMPI_CHECK(msg.seq == seq, "hardware broadcast out of order");
  const fabric::MpiCosts& c = ep_.fabric().mpi_costs();
  self_.advance(c.unexpected_copy_base +
                c.bcast_copy_per_byte * static_cast<std::int64_t>(msg.payload.size()));
  return std::move(msg.payload);
}

void Engine::hw_barrier() {
  ep_.hw_barrier_enter(self_);
  const std::uint64_t target = ++hw_barrier_entered_;
  progress_until([&] { return hw_barrier_released_ >= target; });
}

}  // namespace lcmpi::mpi
