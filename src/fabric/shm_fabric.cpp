#include "src/fabric/shm_fabric.h"

#include <cstring>
#include <deque>
#include <map>
#include <mutex>

#include "src/util/spsc_ring.h"

namespace lcmpi::fabric {
namespace {

using Channel = util::SpscChannel<ProtoMsg>;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

// How long an idle receiver sleeps per park. wait_activity has
// condition-variable semantics (callers re-poll in a loop), so this only
// bounds wakeup staleness in the already-fenced-away race cases.
constexpr std::chrono::milliseconds kIdleSlice{10};

}  // namespace

class ShmFabric::Ep final : public Endpoint {
 public:
  Ep(ShmFabric& f, int rank, int nranks)
      : Endpoint(f, rank), owner_(f), out_(static_cast<std::size_t>(nranks)),
        in_(static_cast<std::size_t>(nranks)) {}

  void send(sim::Actor&, int dst, ProtoMsg msg) override {
    msg.src = rank_;
    Ep& to = *owner_.eps_[static_cast<std::size_t>(dst)];
    // A flow-control return that meets a full ring toward a retired rank
    // is dropped: that rank never drains its rings again, and never sends
    // again, so parking on the ring would hang this rank for nothing.
    const Ep* unless_retired = is_flow_return(msg.kind) ? &to : nullptr;
    if (!push_blocking(ring_to(to), std::move(msg), unless_retired)) return;
    messages_.fetch_add(1, std::memory_order_relaxed);
    to.notify_arrival();
  }

  std::optional<ProtoMsg> poll(sim::Actor&) override {
    if (!staged_.empty()) {
      ProtoMsg m = std::move(staged_.front());
      staged_.pop_front();
      return m;
    }
    return pop_any();
  }

  void wait_activity(sim::Actor&) override {
    const std::uint64_t seen = wake_seq_.load(std::memory_order_acquire);
    const auto ready = [this, seen] {
      if (wake_seq_.load(std::memory_order_acquire) != seen) return true;
      const std::size_t k = in_count_.load(std::memory_order_acquire);
      for (std::size_t i = 0; i < k; ++i)
        if (!in_[i]->ring().empty_approx()) return true;
      return false;
    };
    // Spin briefly first: the latency-critical case (ping-pong) has the
    // answer in flight, and a park/unpark round trip costs microseconds.
    for (int i = 0; i < 512; ++i) {
      if (ready()) return;
      cpu_relax();
    }
    idle_parks_.fetch_add(1, std::memory_order_relaxed);
    pad_.park_until(std::chrono::steady_clock::now() + kIdleSlice, ready);
  }

  void wake() override {
    wake_seq_.fetch_add(1, std::memory_order_release);
    pad_.unpark();
  }

  [[nodiscard]] TimePoint now() const override { return owner_.wall_now(); }

  // --- bulk plane: direct cross-thread copy into the posted buffer --------
  //
  // The receiver registers its landing buffer (under this endpoint's
  // mutex) BEFORE its CTS enters the ring; the sender looks it up when
  // the CTS arrives, so the registration is always visible (mutex) and
  // the payload copy happens-before the receiver's read (the completion
  // note travels through the SPSC ring's release/acquire publication).
  // One memcpy total for contiguous types — the payload never stages
  // through ring slots at all.

  [[nodiscard]] bool bulk_plane(int peer) const override { return peer != rank_; }

  void bulk_post(int src, std::uint64_t cookie, void* dst,
                 std::size_t capacity) override {
    const std::lock_guard<std::mutex> lock(bulk_mu_);
    bulk_regs_[{src, cookie}] = Landing{dst, capacity};
  }

  void bulk_send(sim::Actor& self, int dst, std::uint64_t cookie,
                 const void* data, std::size_t size) override {
    Ep& peer = *owner_.eps_[static_cast<std::size_t>(dst)];
    {
      const std::lock_guard<std::mutex> lock(peer.bulk_mu_);
      auto it = peer.bulk_regs_.find({rank_, cookie});
      LCMPI_CHECK(it != peer.bulk_regs_.end(),
                  "bulk transfer with no registered landing buffer");
      const Landing reg = it->second;
      peer.bulk_regs_.erase(it);
      const std::size_t n = std::min(size, reg.capacity);
      if (n > 0) std::memcpy(reg.dst, data, n);  // overflow past cap: dropped
    }
    bulk_transfers_.fetch_add(1, std::memory_order_relaxed);
    bulk_bytes_.fetch_add(size, std::memory_order_relaxed);
    // Receiver completion rides the normal sequencedless note: the ring
    // push publishes (release) after the copy above.
    ProtoMsg done;
    done.kind = MsgKind::kBulkDelivered;
    done.sender_req = cookie;
    done.size = static_cast<std::uint32_t>(size);
    send(self, dst, std::move(done));
    // Sender completion is local and synchronous: the bytes left the user
    // buffer in the memcpy. poll() serves staged_ first.
    ProtoMsg sent;
    sent.kind = MsgKind::kBulkSent;
    sent.src = rank_;
    sent.sender_req = cookie;
    staged_.push_back(std::move(sent));
  }

  // --- one-sided window seam: ranks share this address space --------------

  void rma_expose(std::uint64_t key, void* base, std::int64_t bytes,
                  void* acc_sink) override {
    const std::lock_guard<std::mutex> lock(owner_.rma_mu_);
    owner_.rma_segs_[{rank_, key}] =
        RmaSegment{static_cast<std::byte*>(base), bytes, acc_sink};
  }

  void rma_retract(std::uint64_t key) override {
    const std::lock_guard<std::mutex> lock(owner_.rma_mu_);
    owner_.rma_segs_.erase({rank_, key});
  }

  bool rma_direct(int peer, std::uint64_t key, RmaSegment* out) override {
    const std::lock_guard<std::mutex> lock(owner_.rma_mu_);
    const auto it = owner_.rma_segs_.find({peer, key});
    if (it == owner_.rma_segs_.end()) return false;
    *out = it->second;
    return true;
  }

  void notify_arrival() { pad_.unpark(); }

 private:
  /// Pushes one envelope into `ch`, parking on backpressure. Ring full is
  /// transport backpressure: a failed try_push moves nothing (the full
  /// check precedes the move), so msg stays intact for the retry loop.
  /// Crucially, a blocked sender must KEEP DRAINING its own inbound
  /// rings: rank A stuck pushing into a full A->B ring while B is stuck
  /// pushing (say, a credit update) into a full B->A ring is a deadlock
  /// unless someone consumes — and the engine only polls between fabric
  /// calls, not during them. Drained envelopes go to a staging queue that
  /// poll() serves first, preserving per-source FIFO. Short park slices
  /// bound retry latency when inbound is dry. Returns false, having
  /// pushed nothing, once `unless_retired` (if not null) has retired.
  bool push_blocking(Channel& ch, ProtoMsg msg, const Ep* unless_retired) {
    if (ch.try_push(std::move(msg))) return true;
    full_parks_.fetch_add(1, std::memory_order_relaxed);
    for (;;) {
      const bool drained = drain_inbound();
      if (ch.try_push(std::move(msg))) return true;
      if (unless_retired != nullptr &&
          unless_retired->retired_.load(std::memory_order_acquire))
        return false;
      if (!drained &&
          ch.push_until(msg, std::chrono::steady_clock::now() +
                                 std::chrono::milliseconds(1)))
        return true;
    }
  }

  /// This rank's ring toward `to`, created on the first send to it and
  /// handed to `to` for publication. Only this rank's thread touches out_.
  Channel& ring_to(Ep& to) {
    Channel*& ch = out_[static_cast<std::size_t>(to.rank_)];
    if (ch == nullptr) ch = to.publish(std::make_unique<Channel>(owner_.opt_.ring_slots));
    return *ch;
  }

  /// Appends a sender's new ring to this endpoint's inbound list. The
  /// slot is filled under in_mu_ (senders race for the next one), and the
  /// release-store of in_count_ publishes it — with every earlier slot —
  /// to this rank's acquire-loads. Filled slots are never rewritten, so
  /// the owner reads slots below the count without the lock.
  Channel* publish(std::unique_ptr<Channel> ch) {
    ch->share_consumer_pad(&pad_);
    Channel* raw = ch.get();
    const std::lock_guard<std::mutex> lock(in_mu_);
    const std::size_t k = in_count_.load(std::memory_order_relaxed);
    in_[k] = std::move(ch);
    in_count_.store(k + 1, std::memory_order_release);
    return raw;
  }

  /// Pops the next available inbound envelope from the transport rings,
  /// round-robin over the published ones (staging queue NOT consulted —
  /// callers handle staged_ first).
  std::optional<ProtoMsg> pop_any() {
    const std::size_t k = in_count_.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < k; ++i) {
      Channel& ch = *in_[cursor_];
      cursor_ = cursor_ + 1 == k ? 0 : cursor_ + 1;
      if (std::optional<ProtoMsg> m = ch.try_pop()) return m;
    }
    return std::nullopt;
  }

  /// Pops every currently-available inbound envelope into the staging
  /// queue. Only the owning rank's thread calls this (from a blocked
  /// send), and only that thread touches staged_ — no locking needed.
  bool drain_inbound() {
    bool any = false;
    while (std::optional<ProtoMsg> m = pop_any()) {
      staged_.push_back(std::move(*m));
      any = true;
    }
    return any;
  }

  friend class ShmFabric;
  ShmFabric& owner_;
  std::atomic<bool> retired_{false};  // see ShmFabric::retire
  std::vector<Channel*> out_;  // [dst]: this rank's ring toward dst, or null
  // Inbound rings in publication order: in_[0, in_count_) are live, each
  // filled once by its sender (see publish). Sized n up front so a
  // sender's append never moves the slots the owner is reading.
  std::mutex in_mu_;
  std::vector<std::unique_ptr<Channel>> in_;
  std::atomic<std::size_t> in_count_{0};
  std::size_t cursor_ = 0;  // round-robin fairness over inbound rings
  std::deque<ProtoMsg> staged_;  // inbound drained during blocked sends
  util::ParkingLot pad_;  // shared consumer pad of every inbound ring
  std::atomic<std::uint64_t> wake_seq_{0};
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> full_parks_{0};
  std::atomic<std::uint64_t> idle_parks_{0};

  /// A posted receive buffer awaiting a bulk transfer (this endpoint is
  /// the receiver; senders look it up under bulk_mu_).
  struct Landing {
    void* dst = nullptr;
    std::size_t capacity = 0;
  };
  std::mutex bulk_mu_;
  std::map<std::pair<int, std::uint64_t>, Landing> bulk_regs_;
  std::atomic<std::uint64_t> bulk_transfers_{0};
  std::atomic<std::uint64_t> bulk_bytes_{0};
};

ShmFabric::ShmFabric(int nranks, Options opt)
    : Fabric(opt.caps, opt.costs), opt_(opt),
      epoch_(std::chrono::steady_clock::now()) {
  LCMPI_CHECK(nranks > 0, "ShmFabric needs at least one rank");
  size_credit_window(caps_, nranks);
  eps_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r)
    eps_.push_back(std::make_unique<Ep>(*this, r, nranks));
}

ShmFabric::~ShmFabric() = default;

Endpoint& ShmFabric::endpoint(int rank) {
  return *eps_.at(static_cast<std::size_t>(rank));
}

void ShmFabric::retire(int rank) {
  eps_.at(static_cast<std::size_t>(rank))->retired_.store(true, std::memory_order_release);
}

TimePoint ShmFabric::wall_now() const {
  return TimePoint{std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - epoch_)
                       .count()};
}

ShmFabric::Stats ShmFabric::stats() const {
  Stats s;
  for (const auto& ep : eps_) {
    s.messages += ep->messages_.load(std::memory_order_relaxed);
    s.full_parks += ep->full_parks_.load(std::memory_order_relaxed);
    s.idle_parks += ep->idle_parks_.load(std::memory_order_relaxed);
    s.bulk_transfers += ep->bulk_transfers_.load(std::memory_order_relaxed);
    s.bulk_bytes += ep->bulk_bytes_.load(std::memory_order_relaxed);
    s.rings += ep->in_count_.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace lcmpi::fabric
