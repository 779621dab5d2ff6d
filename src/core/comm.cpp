#include "src/core/comm.h"

#include <algorithm>
#include <cstring>

namespace lcmpi::mpi {
namespace {

/// Internal tags for collective phases (user tags are >= 0, and the
/// collective context separates this traffic anyway). Offsets from
/// kCollTag: 0 tree bcast, +1 binomial reduce, +2 gather, +3 scatter,
/// +4 allgather, +5 alltoall, +6 context agreement, +7 scan, +8 gatherv,
/// +9 scatterv, +10 ring bcast, +11 reduce-scatter exchange, +12
/// reduce-scatter gather-to-root, +13 reduce-scatter ring allgatherv,
/// +14 chain reduce, +16 binomial-reduce root relay, +20/+21 ring-barrier
/// laps, +22/+23 tree-barrier fan-in/fan-out, +64+k dissemination rounds.
constexpr int kCollTag = 0;

/// Equal block partition of `count` elements over `n` ranks (the first
/// count%n blocks get one extra element). Shared by the reduce-scatter
/// family so senders and receivers agree on every block boundary.
void block_partition(int count, int n, std::vector<int>& starts, std::vector<int>& lens) {
  starts.assign(static_cast<std::size_t>(n), 0);
  lens.assign(static_cast<std::size_t>(n), 0);
  const int base = count / n;
  const int extra = count % n;
  int at = 0;
  for (int r = 0; r < n; ++r) {
    lens[static_cast<std::size_t>(r)] = base + (r < extra ? 1 : 0);
    starts[static_cast<std::size_t>(r)] = at;
    at += lens[static_cast<std::size_t>(r)];
  }
}

template <typename T>
void apply_op(Op op, const T* in, T* inout, int n) {
  switch (op) {
    case Op::kSum:
      for (int i = 0; i < n; ++i) inout[i] = static_cast<T>(inout[i] + in[i]);
      break;
    case Op::kProd:
      for (int i = 0; i < n; ++i) inout[i] = static_cast<T>(inout[i] * in[i]);
      break;
    case Op::kMin:
      for (int i = 0; i < n; ++i) inout[i] = std::min(inout[i], in[i]);
      break;
    case Op::kMax:
      for (int i = 0; i < n; ++i) inout[i] = std::max(inout[i], in[i]);
      break;
  }
}

}  // namespace

void reduce_op(const Datatype& type, Op op, const void* in, void* inout, int count) {
  switch (type.primitive()) {
    case Datatype::Primitive::kInt32:
      apply_op(op, static_cast<const std::int32_t*>(in), static_cast<std::int32_t*>(inout),
               count);
      break;
    case Datatype::Primitive::kInt64:
      apply_op(op, static_cast<const std::int64_t*>(in), static_cast<std::int64_t*>(inout),
               count);
      break;
    case Datatype::Primitive::kFloat:
      apply_op(op, static_cast<const float*>(in), static_cast<float*>(inout), count);
      break;
    case Datatype::Primitive::kDouble:
      apply_op(op, static_cast<const double*>(in), static_cast<double*>(inout), count);
      break;
    case Datatype::Primitive::kByte:
      apply_op(op, static_cast<const std::uint8_t*>(in), static_cast<std::uint8_t*>(inout),
               count);
      break;
    case Datatype::Primitive::kNone:
      throw MpiError(Err::kBadArgument, "reduction requires a basic numeric datatype");
  }
}

// ----------------------------------------------------------------- plumbing

Comm::Comm(Engine& engine, std::vector<int> group, int my_rank, std::uint32_t ctx_pt2pt)
    : eng_(&engine),
      group_(std::move(group)),
      my_rank_(my_rank),
      ctx_pt2pt_(ctx_pt2pt),
      ctx_coll_(ctx_pt2pt + 1) {}

Comm Comm::world(Engine& engine) {
  std::vector<int> group(static_cast<std::size_t>(engine.nranks()));
  for (int i = 0; i < engine.nranks(); ++i) group[static_cast<std::size_t>(i)] = i;
  return Comm(engine, std::move(group), engine.rank(), /*ctx_pt2pt=*/0);
}

int Comm::world_rank(int comm_rank) const {
  LCMPI_CHECK(comm_rank >= 0 && comm_rank < size(), "comm rank out of range");
  return group_[static_cast<std::size_t>(comm_rank)];
}

bool Comm::spans_world() const {
  if (size() != eng_->nranks()) return false;
  for (int i = 0; i < size(); ++i)
    if (group_[static_cast<std::size_t>(i)] != i) return false;
  return true;
}

Status Comm::translate(Status s) const {
  if (s.source != kAnySource && s.source != kProcNull) {
    auto it = std::find(group_.begin(), group_.end(), s.source);
    LCMPI_CHECK(it != group_.end(), "message from outside the group");
    s.source = static_cast<int>(it - group_.begin());
  }
  return s;
}

/// Outermost-call timing scope for the profiling interface.
class ProfScope {
 public:
  ProfScope(Profiler* p, Engine& e, CallKind kind, std::int64_t bytes)
      : p_(p), e_(e), kind_(kind), bytes_(bytes) {
    if (p_ != nullptr) {
      outermost_ = p_->enter();
      t0_ = e_.now();
    }
  }
  ~ProfScope() {
    if (p_ != nullptr) {
      p_->leave();
      if (outermost_) p_->record(kind_, e_.now() - t0_, bytes_);
    }
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Profiler* p_;
  Engine& e_;
  CallKind kind_;
  std::int64_t bytes_;
  bool outermost_ = false;
  TimePoint t0_{};
};

// ------------------------------------------------------------ point-to-point

void Comm::send(const void* buf, int count, const Datatype& type, int dst, int tag,
                Mode mode) {
  ProfScope prof(profiler_, *eng_, CallKind::kSend, type.size() * count);
  wait(isend(buf, count, type, dst, tag, mode));
}

Status Comm::recv(void* buf, int count, const Datatype& type, int src, int tag) {
  ProfScope prof(profiler_, *eng_, CallKind::kRecv, type.size() * count);
  Request r = irecv(buf, count, type, src, tag);
  wait(r);
  return translate(r->status);
}

namespace {
/// A pre-completed request (MPI_PROC_NULL endpoints).
Request null_request(RequestState::Kind kind) {
  auto req = std::make_shared<RequestState>();
  req->kind = kind;
  req->done = true;
  req->status.source = kProcNull;
  req->status.tag = kAnyTag;
  req->status.count_bytes = 0;
  return req;
}
}  // namespace

Request Comm::isend(const void* buf, int count, const Datatype& type, int dst, int tag,
                    Mode mode) {
  ProfScope prof(profiler_, *eng_, CallKind::kIsend, type.size() * count);
  if (dst == kProcNull) return null_request(RequestState::Kind::kSend);
  return eng_->isend(buf, count, type, world_rank(dst), tag, ctx_pt2pt_, mode);
}

Request Comm::irecv(void* buf, int count, const Datatype& type, int src, int tag) {
  ProfScope prof(profiler_, *eng_, CallKind::kIrecv, type.size() * count);
  if (src == kProcNull) return null_request(RequestState::Kind::kRecv);
  const int src_world = src == kAnySource ? kAnySource : world_rank(src);
  return eng_->irecv(buf, count, type, src_world, tag, ctx_pt2pt_);
}

void Comm::wait(const Request& req) {
  ProfScope prof(profiler_, *eng_, CallKind::kWait, 0);
  eng_->wait(req);
}

bool Comm::test(const Request& req) {
  ProfScope prof(profiler_, *eng_, CallKind::kTest, 0);
  return eng_->test(req);
}

void Comm::wait_all(const std::vector<Request>& reqs) {
  for (const Request& r : reqs) eng_->wait(r);
}

std::size_t Comm::wait_any(const std::vector<Request>& reqs) {
  LCMPI_CHECK(!reqs.empty(), "wait_any on empty set");
  std::size_t found = reqs.size();
  eng_->progress_until([&] {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (reqs[i]->done) {
        found = i;
        return true;
      }
    }
    return false;
  });
  return found;
}

std::vector<std::size_t> Comm::wait_some(const std::vector<Request>& reqs) {
  LCMPI_CHECK(!reqs.empty(), "wait_some on empty set");
  std::vector<std::size_t> done;
  eng_->progress_until([&] {
    done.clear();
    for (std::size_t i = 0; i < reqs.size(); ++i)
      if (reqs[i]->done) done.push_back(i);
    return !done.empty();
  });
  return done;
}

bool Comm::test_all(const std::vector<Request>& reqs) {
  eng_->progress();
  for (const Request& r : reqs)
    if (!r->done) return false;
  return true;
}

std::optional<std::size_t> Comm::test_any(const std::vector<Request>& reqs) {
  eng_->progress();
  for (std::size_t i = 0; i < reqs.size(); ++i)
    if (reqs[i]->done) return i;
  return std::nullopt;
}

Comm::PersistentOp Comm::send_init(const void* buf, int count, const Datatype& type,
                                   int dst, int tag, Mode mode) const {
  PersistentOp op;
  op.is_send = true;
  op.send_buf = buf;
  op.count = count;
  op.type = type;
  op.peer = dst;
  op.tag = tag;
  op.mode = mode;
  return op;
}

Comm::PersistentOp Comm::recv_init(void* buf, int count, const Datatype& type, int src,
                                   int tag) const {
  PersistentOp op;
  op.is_send = false;
  op.recv_buf = buf;
  op.count = count;
  op.type = type;
  op.peer = src;
  op.tag = tag;
  return op;
}

Request Comm::start(const PersistentOp& op) {
  if (op.is_send) return isend(op.send_buf, op.count, op.type, op.peer, op.tag, op.mode);
  return irecv(op.recv_buf, op.count, op.type, op.peer, op.tag);
}

Status Comm::sendrecv(const void* sendbuf, int sendcount, const Datatype& sendtype, int dst,
                      int sendtag, void* recvbuf, int recvcount, const Datatype& recvtype,
                      int src, int recvtag) {
  ProfScope prof(profiler_, *eng_, CallKind::kSendrecv, sendtype.size() * sendcount + recvtype.size() * recvcount);
  Request rr = irecv(recvbuf, recvcount, recvtype, src, recvtag);
  Request sr = isend(sendbuf, sendcount, sendtype, dst, sendtag);
  wait(sr);
  wait(rr);
  return translate(rr->status);
}

Status Comm::sendrecv_replace(void* buf, int count, const Datatype& type, int dst,
                              int sendtag, int src, int recvtag) {
  ProfScope prof(profiler_, *eng_, CallKind::kSendrecv, 2 * type.size() * count);
  // Snapshot the outgoing data (as packed bytes — the wire format anyway);
  // the incoming message overwrites the buffer.
  Bytes staging = type.pack(buf, count);
  Request rr = irecv(buf, count, type, src, recvtag);
  if (dst != kProcNull) {
    Request sr = eng_->isend(staging.data(), static_cast<int>(staging.size()),
                             Datatype::byte_type(), world_rank(dst), sendtag, ctx_pt2pt_,
                             Mode::kStandard);
    wait(sr);
  }
  wait(rr);
  return translate(rr->status);
}

Status Comm::probe(int src, int tag) {
  ProfScope prof(profiler_, *eng_, CallKind::kProbe, 0);
  const int src_world = src == kAnySource ? kAnySource : world_rank(src);
  return translate(eng_->probe(src_world, tag, ctx_pt2pt_));
}

std::optional<Status> Comm::iprobe(int src, int tag) {
  const int src_world = src == kAnySource ? kAnySource : world_rank(src);
  auto s = eng_->iprobe(src_world, tag, ctx_pt2pt_);
  if (!s) return std::nullopt;
  return translate(*s);
}

// ----------------------------------------------------------------- barriers

void Comm::barrier() {
  ProfScope prof(profiler_, *eng_, CallKind::kBarrier, 0);
  if (size() == 1) return;
  // Hardware offload is checked before software selection and is never
  // disabled by a forced software algorithm: the fat tree's combine
  // network synchronises world-spanning communicators in one round trip.
  if (eng_->caps().hw_barrier && eng_->config().use_hw_barrier && spans_world()) {
    eng_->hw_barrier();
    return;
  }
  switch (coll::select(coll::Kind::kBarrier, 0, size(), eng_->config().coll)) {
    case coll::Algo::kBinomial:
      barrier_tree();
      break;
    case coll::Algo::kScatterAllgather:
      barrier_dissemination();
      break;
    case coll::Algo::kRing:
      barrier_ring();
      break;
  }
}

void Comm::barrier_dissemination() {
  // Dissemination barrier: log2(n) rounds of paired exchanges.
  const int n = size();
  std::uint8_t token = 0;
  std::uint8_t sink = 0;
  for (int k = 1; k < n; k <<= 1) {
    const int to = (my_rank_ + k) % n;
    const int from = (my_rank_ - k % n + n) % n;
    Request rr = eng_->irecv(&sink, 1, Datatype::byte_type(), world_rank(from),
                             kCollTag + 64 + k, ctx_coll_);
    Request sr = eng_->isend(&token, 1, Datatype::byte_type(), world_rank(to),
                             kCollTag + 64 + k, ctx_coll_, Mode::kStandard);
    eng_->wait(sr);
    eng_->wait(rr);
  }
}

void Comm::barrier_tree() {
  // Binomial fan-in to rank 0, then a binomial fan-out: two half-trees of
  // empty tokens.
  const int n = size();
  std::uint8_t token = 0;
  std::uint8_t sink = 0;
  int mask = 1;
  while (mask < n) {
    if (my_rank_ & mask) {
      Request r = eng_->isend(&token, 1, Datatype::byte_type(),
                              world_rank(my_rank_ - mask), kCollTag + 22, ctx_coll_,
                              Mode::kStandard);
      eng_->wait(r);
      break;
    }
    if (my_rank_ + mask < n) {
      Request r = eng_->irecv(&sink, 1, Datatype::byte_type(),
                              world_rank(my_rank_ + mask), kCollTag + 22, ctx_coll_);
      eng_->wait(r);
    }
    mask <<= 1;
  }
  mask = 1;
  while (mask < n) {
    if (my_rank_ & mask) {
      Request r = eng_->irecv(&sink, 1, Datatype::byte_type(),
                              world_rank(my_rank_ - mask), kCollTag + 23, ctx_coll_);
      eng_->wait(r);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (my_rank_ + mask < n) {
      Request r = eng_->isend(&token, 1, Datatype::byte_type(),
                              world_rank(my_rank_ + mask), kCollTag + 23, ctx_coll_,
                              Mode::kStandard);
      eng_->wait(r);
    }
    mask >>= 1;
  }
}

void Comm::barrier_ring() {
  // Two token laps around the ring: the first lap's return to rank 0
  // proves every rank entered; the second lap releases them.
  const int n = size();
  std::uint8_t token = 0;
  std::uint8_t sink = 0;
  const int right = world_rank((my_rank_ + 1) % n);
  const int left = world_rank((my_rank_ - 1 + n) % n);
  for (int lap = 0; lap < 2; ++lap) {
    const int tag = kCollTag + 20 + lap;
    if (my_rank_ == 0) {
      Request sr = eng_->isend(&token, 1, Datatype::byte_type(), right, tag, ctx_coll_,
                               Mode::kStandard);
      eng_->wait(sr);
      Request rr = eng_->irecv(&sink, 1, Datatype::byte_type(), left, tag, ctx_coll_);
      eng_->wait(rr);
    } else {
      Request rr = eng_->irecv(&sink, 1, Datatype::byte_type(), left, tag, ctx_coll_);
      eng_->wait(rr);
      Request sr = eng_->isend(&token, 1, Datatype::byte_type(), right, tag, ctx_coll_,
                               Mode::kStandard);
      eng_->wait(sr);
    }
  }
}

// ---------------------------------------------------------------- broadcast

void Comm::p2p_tree_bcast(void* buf, int count, const Datatype& type, int root) {
  // Binomial tree over relative ranks (MPICH-style point-to-point bcast).
  const int n = size();
  const int vrank = (my_rank_ - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if (vrank & mask) {
      const int parent = ((vrank - mask) + root) % n;
      Request r = eng_->irecv(buf, count, type, world_rank(parent), kCollTag, ctx_coll_);
      eng_->wait(r);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < n) {
      const int child = ((vrank + mask) + root) % n;
      Request r = eng_->isend(buf, count, type, world_rank(child), kCollTag, ctx_coll_,
                              Mode::kStandard);
      eng_->wait(r);
    }
    mask >>= 1;
  }
}

void Comm::scatter_allgather_bcast(void* buf, int count, const Datatype& type, int root) {
  // van de Geijn: scatter the payload in equal blocks, then ring-allgather
  // them back — every byte crosses each link ~twice regardless of rank
  // count, vs log2(n) times for the tree. Wins for long messages.
  const int p = size();
  const std::int64_t total = type.size() * count;
  const std::int64_t block = (total + p - 1) / p;
  auto bt = Datatype::byte_type();

  // Staging comes from the engine's pool: a broadcast-heavy loop reuses
  // the same two allocations instead of paying a multi-megabyte malloc
  // per call. resize() value-initializes, matching the old fresh vectors.
  BufferPool& pool = eng_->pool();
  Bytes packed = pool.acquire(static_cast<std::size_t>(block) * static_cast<std::size_t>(p));
  packed.resize(static_cast<std::size_t>(block) * static_cast<std::size_t>(p));
  if (my_rank_ == root) {
    Bytes real = type.pack(buf, count);
    std::copy(real.begin(), real.end(), packed.begin());
  }
  Bytes mine = pool.acquire(static_cast<std::size_t>(block));
  mine.resize(static_cast<std::size_t>(block));
  scatter(packed.data(), mine.data(), static_cast<int>(block), bt, root);
  allgather(mine.data(), static_cast<int>(block), packed.data(), bt);
  if (my_rank_ != root) {
    packed.resize(static_cast<std::size_t>(total));
    type.unpack(packed, buf, count);
  }
  pool.release(std::move(packed));
  pool.release(std::move(mine));
}

void Comm::ring_bcast(void* buf, int count, const Datatype& type, int root) {
  // Pipelined chain in root-relative rank order: the payload streams
  // through the ring in ring_segment_bytes slices, so every byte crosses
  // each link exactly once and all links run concurrently once the
  // pipeline fills. Wins for huge messages.
  const int n = size();
  const int vrank = (my_rank_ - root + n) % n;
  const std::int64_t total = type.size() * count;
  if (total == 0) return;
  auto bt = Datatype::byte_type();
  BufferPool& pool = eng_->pool();
  Bytes packed = pool.acquire(static_cast<std::size_t>(total));
  if (my_rank_ == root) {
    type.pack_append(buf, count, packed);
  } else {
    packed.resize(static_cast<std::size_t>(total));
  }
  const std::int64_t seg =
      std::max<std::int64_t>(1, eng_->config().coll.ring_segment_bytes);
  const int prev = world_rank((my_rank_ - 1 + n) % n);
  const int next = world_rank((my_rank_ + 1) % n);
  for (std::int64_t off = 0; off < total; off += seg) {
    const int len = static_cast<int>(std::min(seg, total - off));
    if (vrank > 0) {
      Request r = eng_->irecv(packed.data() + off, len, bt, prev, kCollTag + 10, ctx_coll_);
      eng_->wait(r);
    }
    if (vrank + 1 < n) {
      Request r = eng_->isend(packed.data() + off, len, bt, next, kCollTag + 10, ctx_coll_,
                              Mode::kStandard);
      eng_->wait(r);
    }
  }
  if (my_rank_ != root) type.unpack(packed, buf, count);
  pool.release(std::move(packed));
}

void Comm::bcast(void* buf, int count, const Datatype& type, int root) {
  ProfScope prof(profiler_, *eng_, CallKind::kBcast, type.size() * count);
  LCMPI_CHECK(root >= 0 && root < size(), "bcast root out of range");
  if (size() == 1) {
    ++bcast_seq_;
    return;
  }
  // Hardware offload is checked before software selection and is never
  // disabled by a forced software algorithm (the force only picks which
  // software algorithm runs when the offload path is unavailable).
  const bool hw = eng_->caps().hw_broadcast && eng_->config().use_hw_bcast && spans_world();
  if (hw) {
    // The fabric's broadcast: one launch reaches every node (the Meiko's
    // Elan broadcast, ShmFabric's one published payload).
    const std::uint64_t seq = bcast_seq_++;
    if (my_rank_ == root) {
      eng_->hw_bcast_root(type.pack(buf, count), ctx_coll_, seq);
    } else {
      Bytes payload = eng_->hw_bcast_recv(ctx_coll_, seq);
      const std::int64_t capacity = type.size() * count;
      if (static_cast<std::int64_t>(payload.size()) > capacity)
        throw MpiError(Err::kTruncate, "broadcast payload exceeds receive buffer");
      type.unpack(payload, buf, count);
    }
    return;
  }
  ++bcast_seq_;
  switch (coll::select(coll::Kind::kBcast, type.size() * count, size(),
                       eng_->config().coll)) {
    case coll::Algo::kBinomial:
      p2p_tree_bcast(buf, count, type, root);
      break;
    case coll::Algo::kScatterAllgather:
      scatter_allgather_bcast(buf, count, type, root);
      break;
    case coll::Algo::kRing:
      ring_bcast(buf, count, type, root);
      break;
  }
}

// --------------------------------------------------------------- reductions

void Comm::binomial_reduce(const void* sendbuf, void* recvbuf, int count,
                           const Datatype& type, const CombineFn& combine, int root) {
  // Binomial reduction tree rooted at rank 0: children fold into parents,
  // and a parent's accumulator always covers a contiguous lower rank range
  // while the incoming child data covers the adjacent higher range — so
  // contributions combine in ascending rank order and non-commutative ops
  // are safe. Rooting at 0 keeps that order independent of `root`; the
  // result is relayed to a non-zero root in one extra message.
  const int n = size();
  const std::size_t bytes = static_cast<std::size_t>(type.size() * count);
  BufferPool& pool = eng_->pool();
  Bytes acc = pool.acquire(bytes);
  acc.resize(bytes);
  std::memcpy(acc.data(), sendbuf, bytes);
  Bytes incoming = pool.acquire(bytes);
  incoming.resize(bytes);
  int mask = 1;
  while (mask < n) {
    if (my_rank_ & mask) {
      Request r = eng_->isend(acc.data(), count, type, world_rank(my_rank_ - mask),
                              kCollTag + 1, ctx_coll_, Mode::kStandard);
      eng_->wait(r);
      break;
    }
    if (my_rank_ + mask < n) {
      Request r = eng_->irecv(incoming.data(), count, type, world_rank(my_rank_ + mask),
                              kCollTag + 1, ctx_coll_);
      eng_->wait(r);
      combine(incoming.data(), acc.data(), count);
    }
    mask <<= 1;
  }
  if (root == 0) {
    if (my_rank_ == 0) std::memcpy(recvbuf, acc.data(), bytes);
  } else if (my_rank_ == 0) {
    Request r = eng_->isend(acc.data(), count, type, world_rank(root), kCollTag + 16,
                            ctx_coll_, Mode::kStandard);
    eng_->wait(r);
  } else if (my_rank_ == root) {
    Request r = eng_->irecv(recvbuf, count, type, world_rank(0), kCollTag + 16, ctx_coll_);
    eng_->wait(r);
  }
  pool.release(std::move(acc));
  pool.release(std::move(incoming));
}

void Comm::chain_reduce(const void* sendbuf, void* recvbuf, int count, const Datatype& type,
                        const CombineFn& combine, int root) {
  // Pipelined bidirectional chain: ranks below the root stream a growing
  // prefix fold upward (0 -> root), ranks above stream a suffix fold
  // downward (n-1 -> root), segment by segment; the root splices
  // prefix op own op suffix. Contributions always combine in ascending
  // rank order, and the segmentation overlaps the links into a pipeline.
  const int n = size();
  const auto elem = static_cast<std::size_t>(type.size());
  const std::size_t bytes = elem * static_cast<std::size_t>(count);
  const int seg_elems = std::max(
      1, static_cast<int>(static_cast<std::size_t>(std::max<std::int64_t>(
                              1, eng_->config().coll.ring_segment_bytes)) /
                          elem));
  BufferPool& pool = eng_->pool();
  Bytes own = pool.acquire(bytes);
  own.resize(bytes);
  std::memcpy(own.data(), sendbuf, bytes);
  Bytes stage = pool.acquire(static_cast<std::size_t>(seg_elems) * elem);
  stage.resize(static_cast<std::size_t>(seg_elems) * elem);
  auto* out = static_cast<std::byte*>(recvbuf);
  for (int at = 0; at < count; at += seg_elems) {
    const int len = std::min(seg_elems, count - at);
    std::byte* own_seg = own.data() + static_cast<std::size_t>(at) * elem;
    if (my_rank_ < root) {
      if (my_rank_ > 0) {
        Request r = eng_->irecv(stage.data(), len, type, world_rank(my_rank_ - 1),
                                kCollTag + 14, ctx_coll_);
        eng_->wait(r);
        combine(own_seg, stage.data(), len);  // stage = prefix(0..r-1) op own
        Request s = eng_->isend(stage.data(), len, type, world_rank(my_rank_ + 1),
                                kCollTag + 14, ctx_coll_, Mode::kStandard);
        eng_->wait(s);
      } else {
        Request s = eng_->isend(own_seg, len, type, world_rank(my_rank_ + 1),
                                kCollTag + 14, ctx_coll_, Mode::kStandard);
        eng_->wait(s);
      }
    } else if (my_rank_ > root) {
      if (my_rank_ < n - 1) {
        Request r = eng_->irecv(stage.data(), len, type, world_rank(my_rank_ + 1),
                                kCollTag + 14, ctx_coll_);
        eng_->wait(r);
        combine(stage.data(), own_seg, len);  // own = own op suffix(r+1..n-1)
      }
      Request s = eng_->isend(own_seg, len, type, world_rank(my_rank_ - 1), kCollTag + 14,
                              ctx_coll_, Mode::kStandard);
      eng_->wait(s);
    } else {
      std::byte* out_seg = out + static_cast<std::size_t>(at) * elem;
      if (root > 0) {
        Request r = eng_->irecv(stage.data(), len, type, world_rank(root - 1),
                                kCollTag + 14, ctx_coll_);
        eng_->wait(r);
        std::memcpy(out_seg, stage.data(), static_cast<std::size_t>(len) * elem);
        combine(own_seg, out_seg, len);  // out = prefix op own
      } else {
        std::memcpy(out_seg, own_seg, static_cast<std::size_t>(len) * elem);
      }
      if (root < n - 1) {
        Request r = eng_->irecv(stage.data(), len, type, world_rank(root + 1),
                                kCollTag + 14, ctx_coll_);
        eng_->wait(r);
        combine(stage.data(), out_seg, len);  // out op= suffix
      }
    }
  }
  pool.release(std::move(own));
  pool.release(std::move(stage));
}

void Comm::reduce_scatter_ascending(const void* sendbuf, const Datatype& type,
                                    const std::vector<int>& starts,
                                    const std::vector<int>& lens, const CombineFn& combine,
                                    std::byte* myblock) {
  // Direct exchange: rank b owns block b, everyone sends its contribution
  // for block b straight to the owner (a transposed all-to-all), then each
  // owner folds the n contributions in ascending rank order. Combined with
  // a gather or ring allgatherv this moves every payload byte ~twice total
  // regardless of rank count — the bandwidth-optimal family.
  const int n = size();
  const auto elem = static_cast<std::size_t>(type.size());
  const auto* in = static_cast<const std::byte*>(sendbuf);
  const auto myl = static_cast<std::size_t>(lens[static_cast<std::size_t>(my_rank_)]);
  BufferPool& pool = eng_->pool();
  Bytes contrib = pool.acquire(myl * elem * static_cast<std::size_t>(n));
  contrib.resize(myl * elem * static_cast<std::size_t>(n));
  std::vector<Request> reqs;
  for (int s = 0; s < n && myl > 0; ++s) {
    std::byte* slot = contrib.data() + static_cast<std::size_t>(s) * myl * elem;
    if (s == my_rank_) {
      std::memcpy(slot,
                  in + static_cast<std::size_t>(starts[static_cast<std::size_t>(s)]) * elem,
                  myl * elem);
      continue;
    }
    reqs.push_back(eng_->irecv(slot, static_cast<int>(myl), type, world_rank(s),
                               kCollTag + 11, ctx_coll_));
  }
  for (int b = 0; b < n; ++b) {
    if (b == my_rank_ || lens[static_cast<std::size_t>(b)] == 0) continue;
    reqs.push_back(eng_->isend(
        in + static_cast<std::size_t>(starts[static_cast<std::size_t>(b)]) * elem,
        lens[static_cast<std::size_t>(b)], type, world_rank(b), kCollTag + 11, ctx_coll_,
        Mode::kStandard));
  }
  for (const Request& r : reqs) eng_->wait(r);
  if (myl > 0) {
    std::memcpy(myblock, contrib.data(), myl * elem);
    for (int s = 1; s < n; ++s)
      combine(contrib.data() + static_cast<std::size_t>(s) * myl * elem, myblock,
              static_cast<int>(myl));
  }
  pool.release(std::move(contrib));
}

void Comm::rs_reduce(const void* sendbuf, void* recvbuf, int count, const Datatype& type,
                     const CombineFn& combine, int root) {
  // Reduce-scatter, then gather the reduced blocks at the root.
  const int n = size();
  const auto elem = static_cast<std::size_t>(type.size());
  std::vector<int> starts;
  std::vector<int> lens;
  block_partition(count, n, starts, lens);
  const auto myl = static_cast<std::size_t>(lens[static_cast<std::size_t>(my_rank_)]);
  BufferPool& pool = eng_->pool();
  Bytes myblock = pool.acquire(myl * elem);
  myblock.resize(myl * elem);
  reduce_scatter_ascending(sendbuf, type, starts, lens, combine, myblock.data());
  if (my_rank_ == root) {
    auto* out = static_cast<std::byte*>(recvbuf);
    std::memcpy(out + static_cast<std::size_t>(starts[static_cast<std::size_t>(root)]) * elem,
                myblock.data(), myl * elem);
    std::vector<Request> reqs;
    for (int b = 0; b < n; ++b) {
      if (b == my_rank_ || lens[static_cast<std::size_t>(b)] == 0) continue;
      reqs.push_back(eng_->irecv(
          out + static_cast<std::size_t>(starts[static_cast<std::size_t>(b)]) * elem,
          lens[static_cast<std::size_t>(b)], type, world_rank(b), kCollTag + 12, ctx_coll_));
    }
    for (const Request& r : reqs) eng_->wait(r);
  } else if (myl > 0) {
    Request r = eng_->isend(myblock.data(), static_cast<int>(myl), type, world_rank(root),
                            kCollTag + 12, ctx_coll_, Mode::kStandard);
    eng_->wait(r);
  }
  pool.release(std::move(myblock));
}

void Comm::rs_allreduce(const void* sendbuf, void* recvbuf, int count, const Datatype& type,
                        const CombineFn& combine) {
  // Reduce-scatter, then a ring allgatherv of the reduced blocks.
  const int n = size();
  const auto elem = static_cast<std::size_t>(type.size());
  std::vector<int> starts;
  std::vector<int> lens;
  block_partition(count, n, starts, lens);
  auto* out = static_cast<std::byte*>(recvbuf);
  const auto block_at = [&](int b) {
    return out + static_cast<std::size_t>(starts[static_cast<std::size_t>(b)]) * elem;
  };
  reduce_scatter_ascending(sendbuf, type, starts, lens, combine, block_at(my_rank_));
  const int left = world_rank((my_rank_ - 1 + n) % n);
  const int right = world_rank((my_rank_ + 1) % n);
  int have = my_rank_;
  for (int step = 0; step < n - 1; ++step) {
    const int incoming = (my_rank_ - 1 - step + 2 * n) % n;
    Request rr;
    Request sr;
    if (lens[static_cast<std::size_t>(incoming)] > 0)
      rr = eng_->irecv(block_at(incoming), lens[static_cast<std::size_t>(incoming)], type,
                       left, kCollTag + 13, ctx_coll_);
    if (lens[static_cast<std::size_t>(have)] > 0)
      sr = eng_->isend(block_at(have), lens[static_cast<std::size_t>(have)], type, right,
                       kCollTag + 13, ctx_coll_, Mode::kStandard);
    if (sr) eng_->wait(sr);
    if (rr) eng_->wait(rr);
    have = incoming;
  }
}

void Comm::reduce_impl(const void* sendbuf, void* recvbuf, int count, const Datatype& type,
                       const CombineFn& combine, int root, coll::Algo algo) {
  if (count == 0) return;
  if (size() == 1) {
    std::memmove(recvbuf, sendbuf, static_cast<std::size_t>(type.size() * count));
    return;
  }
  switch (algo) {
    case coll::Algo::kBinomial:
      binomial_reduce(sendbuf, recvbuf, count, type, combine, root);
      break;
    case coll::Algo::kScatterAllgather:
      rs_reduce(sendbuf, recvbuf, count, type, combine, root);
      break;
    case coll::Algo::kRing:
      chain_reduce(sendbuf, recvbuf, count, type, combine, root);
      break;
  }
}

void Comm::allreduce_impl(const void* sendbuf, void* recvbuf, int count,
                          const Datatype& type, const CombineFn& combine) {
  if (count == 0) return;
  if (size() == 1) {
    // 1-rank fast path: a plain copy — no tree, no pool staging.
    std::memmove(recvbuf, sendbuf, static_cast<std::size_t>(type.size() * count));
    return;
  }
  switch (coll::select(coll::Kind::kAllreduce, type.size() * count, size(),
                       eng_->config().coll)) {
    case coll::Algo::kBinomial:
      // Reduce to 0, then bcast — which dispatches again and may take the
      // fabric's broadcast (on the Meiko and on ShmFabric).
      reduce_impl(sendbuf, recvbuf, count, type, combine, 0, coll::Algo::kBinomial);
      bcast(recvbuf, count, type, 0);
      break;
    case coll::Algo::kScatterAllgather:
      rs_allreduce(sendbuf, recvbuf, count, type, combine);
      break;
    case coll::Algo::kRing:
      reduce_impl(sendbuf, recvbuf, count, type, combine, 0, coll::Algo::kRing);
      ring_bcast(recvbuf, count, type, 0);
      break;
  }
}

void Comm::reduce(const void* sendbuf, void* recvbuf, int count, const Datatype& type,
                  Op op, int root) {
  ProfScope prof(profiler_, *eng_, CallKind::kReduce, type.size() * count);
  LCMPI_CHECK(type.is_contiguous(), "reduce requires a contiguous basic type");
  LCMPI_CHECK(root >= 0 && root < size(), "reduce root out of range");
  const CombineFn combine = [&type, op](const void* in, void* inout, int cnt) {
    reduce_op(type, op, in, inout, cnt);
  };
  reduce_impl(sendbuf, recvbuf, count, type, combine, root,
              coll::select(coll::Kind::kReduce, type.size() * count, size(),
                           eng_->config().coll));
}

void Comm::allreduce(const void* sendbuf, void* recvbuf, int count, const Datatype& type,
                     Op op) {
  ProfScope prof(profiler_, *eng_, CallKind::kAllreduce, type.size() * count);
  LCMPI_CHECK(type.is_contiguous(), "allreduce requires a contiguous basic type");
  const CombineFn combine = [&type, op](const void* in, void* inout, int cnt) {
    reduce_op(type, op, in, inout, cnt);
  };
  allreduce_impl(sendbuf, recvbuf, count, type, combine);
}

void Comm::reduce(const void* sendbuf, void* recvbuf, int count, const Datatype& type,
                  const UserOp& op, int root) {
  ProfScope prof(profiler_, *eng_, CallKind::kReduce, type.size() * count);
  LCMPI_CHECK(type.is_contiguous(), "reduce requires a contiguous type");
  LCMPI_CHECK(root >= 0 && root < size(), "reduce root out of range");
  reduce_impl(sendbuf, recvbuf, count, type, op, root,
              coll::select(coll::Kind::kReduce, type.size() * count, size(),
                           eng_->config().coll));
}

void Comm::allreduce(const void* sendbuf, void* recvbuf, int count, const Datatype& type,
                     const UserOp& op) {
  ProfScope prof(profiler_, *eng_, CallKind::kAllreduce, type.size() * count);
  LCMPI_CHECK(type.is_contiguous(), "allreduce requires a contiguous type");
  allreduce_impl(sendbuf, recvbuf, count, type, op);
}

// --------------------------------------------------------- gather / scatter

void Comm::gather(const void* sendbuf, int sendcount, void* recvbuf, const Datatype& type,
                  int root) {
  ProfScope prof(profiler_, *eng_, CallKind::kGather, type.size() * sendcount);
  const std::size_t block = static_cast<std::size_t>(type.size() * sendcount);
  if (my_rank_ == root) {
    auto* out = static_cast<std::byte*>(recvbuf);
    std::memcpy(out + static_cast<std::size_t>(my_rank_) * block, sendbuf, block);
    std::vector<Request> reqs;
    for (int r = 0; r < size(); ++r) {
      if (r == my_rank_) continue;
      reqs.push_back(eng_->irecv(out + static_cast<std::size_t>(r) * block, sendcount, type,
                                 world_rank(r), kCollTag + 2, ctx_coll_));
    }
    for (const Request& r : reqs) eng_->wait(r);
  } else {
    Request r = eng_->isend(sendbuf, sendcount, type, world_rank(root), kCollTag + 2,
                            ctx_coll_, Mode::kStandard);
    eng_->wait(r);
  }
}

void Comm::scatter(const void* sendbuf, void* recvbuf, int recvcount, const Datatype& type,
                   int root) {
  ProfScope prof(profiler_, *eng_, CallKind::kScatter, type.size() * recvcount);
  const std::size_t block = static_cast<std::size_t>(type.size() * recvcount);
  if (my_rank_ == root) {
    const auto* in = static_cast<const std::byte*>(sendbuf);
    std::vector<Request> reqs;
    for (int r = 0; r < size(); ++r) {
      if (r == my_rank_) {
        // A zero-count call may pass null buffers, which memcpy forbids.
        if (block > 0) std::memcpy(recvbuf, in + static_cast<std::size_t>(r) * block, block);
        continue;
      }
      reqs.push_back(eng_->isend(in + static_cast<std::size_t>(r) * block, recvcount, type,
                                 world_rank(r), kCollTag + 3, ctx_coll_, Mode::kStandard));
    }
    for (const Request& r : reqs) eng_->wait(r);
  } else {
    Request r =
        eng_->irecv(recvbuf, recvcount, type, world_rank(root), kCollTag + 3, ctx_coll_);
    eng_->wait(r);
  }
}

void Comm::allgather(const void* sendbuf, int sendcount, void* recvbuf,
                     const Datatype& type) {
  ProfScope prof(profiler_, *eng_, CallKind::kAllgather, type.size() * sendcount);
  // Ring allgather: n-1 steps, each passing one block around.
  const int n = size();
  const std::size_t block = static_cast<std::size_t>(type.size() * sendcount);
  auto* out = static_cast<std::byte*>(recvbuf);
  if (block > 0) std::memcpy(out + static_cast<std::size_t>(my_rank_) * block, sendbuf, block);
  const int right = (my_rank_ + 1) % n;
  const int left = (my_rank_ - 1 + n) % n;
  int have = my_rank_;  // block we forward this step
  for (int step = 0; step < n - 1; ++step) {
    const int incoming = (my_rank_ - 1 - step + 2 * n) % n;
    Request rr = eng_->irecv(out + static_cast<std::size_t>(incoming) * block, sendcount,
                             type, world_rank(left), kCollTag + 4, ctx_coll_);
    Request sr = eng_->isend(out + static_cast<std::size_t>(have) * block, sendcount, type,
                             world_rank(right), kCollTag + 4, ctx_coll_, Mode::kStandard);
    eng_->wait(sr);
    eng_->wait(rr);
    have = incoming;
  }
}

void Comm::alltoall(const void* sendbuf, int count_per_peer, void* recvbuf,
                    const Datatype& type) {
  ProfScope prof(profiler_, *eng_, CallKind::kAlltoall, type.size() * count_per_peer);
  const int n = size();
  const std::size_t block = static_cast<std::size_t>(type.size() * count_per_peer);
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  std::memcpy(out + static_cast<std::size_t>(my_rank_) * block,
              in + static_cast<std::size_t>(my_rank_) * block, block);
  std::vector<Request> reqs;
  for (int r = 0; r < n; ++r) {
    if (r == my_rank_) continue;
    reqs.push_back(eng_->irecv(out + static_cast<std::size_t>(r) * block, count_per_peer,
                               type, world_rank(r), kCollTag + 5, ctx_coll_));
  }
  for (int r = 0; r < n; ++r) {
    if (r == my_rank_) continue;
    reqs.push_back(eng_->isend(in + static_cast<std::size_t>(r) * block, count_per_peer,
                               type, world_rank(r), kCollTag + 5, ctx_coll_,
                               Mode::kStandard));
  }
  for (const Request& r : reqs) eng_->wait(r);
}

void Comm::scan(const void* sendbuf, void* recvbuf, int count, const Datatype& type,
                Op op) {
  ProfScope prof(profiler_, *eng_, CallKind::kScan, type.size() * count);
  // Linear chain: receive the prefix from rank-1, fold, pass to rank+1.
  const std::size_t bytes = static_cast<std::size_t>(type.size() * count);
  std::memcpy(recvbuf, sendbuf, bytes);
  std::vector<std::byte> prefix(bytes);
  if (my_rank_ > 0) {
    Request r = eng_->irecv(prefix.data(), count, type, world_rank(my_rank_ - 1),
                            kCollTag + 7, ctx_coll_);
    eng_->wait(r);
    reduce_op(type, op, prefix.data(), recvbuf, count);
  }
  if (my_rank_ + 1 < size()) {
    Request r = eng_->isend(recvbuf, count, type, world_rank(my_rank_ + 1), kCollTag + 7,
                            ctx_coll_, Mode::kStandard);
    eng_->wait(r);
  }
}

void Comm::reduce_scatter_block(const void* sendbuf, void* recvbuf, int count_per_rank,
                                const Datatype& type, Op op) {
  const int n = size();
  std::vector<std::byte> full(static_cast<std::size_t>(type.size()) *
                              static_cast<std::size_t>(count_per_rank) *
                              static_cast<std::size_t>(n));
  reduce(sendbuf, full.data(), count_per_rank * n, type, op, 0);
  scatter(full.data(), recvbuf, count_per_rank, type, 0);
}

void Comm::gatherv(const void* sendbuf, int sendcount, void* recvbuf,
                   const std::vector<int>& counts, const std::vector<int>& displs,
                   const Datatype& type, int root) {
  LCMPI_CHECK(static_cast<int>(counts.size()) == size() &&
                  static_cast<int>(displs.size()) == size(),
              "gatherv shape mismatch");
  if (my_rank_ == root) {
    auto* out = static_cast<std::byte*>(recvbuf);
    std::vector<Request> reqs;
    for (int r = 0; r < size(); ++r) {
      std::byte* dst = out + static_cast<std::size_t>(displs[static_cast<std::size_t>(r)]) *
                                 static_cast<std::size_t>(type.extent());
      if (r == my_rank_) {
        Bytes packed = type.pack(sendbuf, sendcount);
        type.unpack(packed, dst, counts[static_cast<std::size_t>(r)]);
        continue;
      }
      reqs.push_back(eng_->irecv(dst, counts[static_cast<std::size_t>(r)], type,
                                 world_rank(r), kCollTag + 8, ctx_coll_));
    }
    for (const Request& r : reqs) eng_->wait(r);
  } else {
    Request r = eng_->isend(sendbuf, sendcount, type, world_rank(root), kCollTag + 8,
                            ctx_coll_, Mode::kStandard);
    eng_->wait(r);
  }
}

void Comm::scatterv(const void* sendbuf, const std::vector<int>& counts,
                    const std::vector<int>& displs, void* recvbuf, int recvcount,
                    const Datatype& type, int root) {
  LCMPI_CHECK(static_cast<int>(counts.size()) == size() &&
                  static_cast<int>(displs.size()) == size(),
              "scatterv shape mismatch");
  if (my_rank_ == root) {
    const auto* in = static_cast<const std::byte*>(sendbuf);
    std::vector<Request> reqs;
    for (int r = 0; r < size(); ++r) {
      const std::byte* src = in + static_cast<std::size_t>(displs[static_cast<std::size_t>(r)]) *
                                      static_cast<std::size_t>(type.extent());
      if (r == my_rank_) {
        Bytes packed = type.pack(src, counts[static_cast<std::size_t>(r)]);
        type.unpack(packed, recvbuf, recvcount);
        continue;
      }
      reqs.push_back(eng_->isend(src, counts[static_cast<std::size_t>(r)], type,
                                 world_rank(r), kCollTag + 9, ctx_coll_, Mode::kStandard));
    }
    for (const Request& r : reqs) eng_->wait(r);
  } else {
    Request r = eng_->irecv(recvbuf, recvcount, type, world_rank(root), kCollTag + 9,
                            ctx_coll_);
    eng_->wait(r);
  }
}

// --------------------------------------------------- communicator management

std::uint32_t Comm::agree_new_context() {
  // Everyone proposes their engine's next free context; the max wins, and
  // all members advance past it. Overlapping communicators share member
  // ranks, so the counter information always propagates.
  std::uint32_t mine = eng_->next_context_;
  std::uint32_t agreed = mine;
  // allreduce(max) over this comm using p2p (coll context, distinct tag).
  const int n = size();
  const int vrank = my_rank_;
  int mask = 1;
  while (mask < n) {
    if (vrank & mask) {
      const int parent = vrank - mask;
      Request r = eng_->isend(&agreed, 1, Datatype::int32_type(), world_rank(parent),
                              kCollTag + 6, ctx_coll_, Mode::kStandard);
      eng_->wait(r);
      break;
    }
    if (vrank + mask < n) {
      std::uint32_t other = 0;
      Request r = eng_->irecv(&other, 1, Datatype::int32_type(), world_rank(vrank + mask),
                              kCollTag + 6, ctx_coll_);
      eng_->wait(r);
      agreed = std::max(agreed, other);
    }
    mask <<= 1;
  }
  p2p_tree_bcast(&agreed, 1, Datatype::int32_type(), 0);
  eng_->next_context_ = agreed + 2;
  return agreed;
}

Comm Comm::dup() {
  ProfScope prof(profiler_, *eng_, CallKind::kCommMgmt, 0);
  const std::uint32_t ctx = agree_new_context();
  Comm child(*eng_, group_, my_rank_, ctx);
  child.profiler_ = profiler_;
  return child;
}

std::optional<Comm> Comm::create_from_group(const Group& g) {
  for (int r : g.ranks())
    LCMPI_CHECK(std::find(group_.begin(), group_.end(), r) != group_.end(),
                "create_from_group: group not a subset of the communicator");
  const int my_new_rank = g.rank_of(eng_->rank());
  auto sub = split(my_new_rank >= 0 ? 0 : -1, my_new_rank);
  if (!sub) return std::nullopt;
  LCMPI_CHECK(sub->group_ == g.ranks(), "create_from_group rank ordering mismatch");
  return sub;
}

std::optional<Comm> Comm::split(int color, int key) {
  // Gather (color, key, world_rank) from everyone via allgather.
  struct Entry {
    std::int32_t color;
    std::int32_t key;
    std::int32_t world;
  };
  std::vector<Entry> all(static_cast<std::size_t>(size()));
  Entry mine{color, key, eng_->rank()};
  allgather(&mine, static_cast<int>(sizeof(Entry)), all.data(), Datatype::byte_type());

  const std::uint32_t ctx = agree_new_context();
  if (color < 0) return std::nullopt;

  std::vector<Entry> members;
  for (const Entry& e : all)
    if (e.color == color) members.push_back(e);
  std::sort(members.begin(), members.end(), [](const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.world < b.world;
  });
  std::vector<int> group;
  int my_new_rank = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    group.push_back(members[i].world);
    if (members[i].world == eng_->rank()) my_new_rank = static_cast<int>(i);
  }
  LCMPI_CHECK(my_new_rank >= 0, "rank missing from its own split group");
  Comm child(*eng_, std::move(group), my_new_rank, ctx);
  child.profiler_ = profiler_;
  return child;
}

}  // namespace lcmpi::mpi
