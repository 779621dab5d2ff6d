// Simulated TCP: reliable ordered byte streams with go-back-N recovery.
//
// Enough of TCP is modelled to make the paper's measurements meaningful:
// segmentation to the medium's MSS, a receiver-advertised window (so
// bandwidth is bounded by buffer/RTT when that binds), cumulative ACKs
// with the ack-every-second-segment rule plus a delayed-ACK timer (so
// ping-pong traffic piggybacks ACKs instead of paying a pure-ACK frame on
// the shared Ethernet), window updates from the reader, go-back-N
// retransmission on timeout, and zero-window probes. Connection setup is
// not modelled — the paper's clusters use static connections.
#pragma once

#include <cstdint>
#include <deque>

#include "src/inet/cluster.h"
#include "src/inet/stream.h"

namespace lcmpi::inet {

class TcpConnection;

class TcpEndpoint final : public StreamEndpoint {
 public:
  void write(sim::Actor& self, const Bytes& data) override;
  Bytes read(sim::Actor& self, std::size_t max) override;
  [[nodiscard]] std::size_t available() const override { return rcv_buf_.size(); }
  [[nodiscard]] int peer_host() const override { return peer_host_; }

  /// Maximum segment size on this attachment.
  [[nodiscard]] std::int64_t mss() const;

  /// TCP_NODELAY. Default on (MPI implementations always set it); turning
  /// it off enables Nagle's algorithm: sub-MSS data is held while any
  /// earlier data is unacknowledged — catastrophic for request/response
  /// message traffic once it interlocks with the peer's delayed ACKs.
  void set_nodelay(bool nodelay) { nodelay_ = nodelay; }
  [[nodiscard]] bool nodelay() const { return nodelay_; }

  // Diagnostics.
  [[nodiscard]] std::int64_t segments_sent() const { return segs_sent_; }
  [[nodiscard]] std::int64_t retransmits() const { return retransmits_; }
  [[nodiscard]] std::int64_t pure_acks_sent() const { return pure_acks_; }
  [[nodiscard]] std::int64_t cwnd() const { return cwnd_; }

 private:
  friend class TcpConnection;
  friend class InetCluster;
  TcpEndpoint() = default;

  void pump();
  void send_segment(std::uint64_t seq, Bytes payload);
  void send_pure_ack();
  void schedule_delayed_ack();
  void on_segment(std::uint64_t seq, std::uint64_t ack, std::int64_t wnd, Bytes payload);
  void handle_ack(std::uint64_t ack, std::int64_t wnd);
  void arm_rto();
  void on_rto();
  [[nodiscard]] std::int64_t advertised_window() const;
  [[nodiscard]] std::int64_t in_flight() const {
    return static_cast<std::int64_t>(snd_nxt_ - snd_una_);
  }

  InetCluster* cluster_ = nullptr;
  int host_ = -1;
  int peer_host_ = -1;
  std::uint32_t conn_ = 0;
  std::uint8_t side_ = 0;  // 0 = a, 1 = b; segments are addressed to a side
  TcpEndpoint* peer_ = nullptr;

  // --- sender state ---------------------------------------------------------
  std::deque<std::byte> send_q_;  // [snd_una_, snd_una_+size): unacked + unsent
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  std::int64_t peer_wnd_ = 0;
  // Tahoe congestion control: slow start from one segment, additive
  // increase past ssthresh, collapse to one segment on timeout.
  std::int64_t cwnd_ = 0;     // initialised to one MSS on first use
  std::int64_t ssthresh_ = 0; // initialised to the receive buffer
  bool nodelay_ = true;       // MPI sets TCP_NODELAY; Nagle is the ablation
  sim::EventHandle rto_timer_;
  bool rto_armed_ = false;
  sim::Trigger writable_;

  // --- receiver state ---------------------------------------------------------
  std::deque<std::byte> rcv_buf_;
  std::uint64_t rcv_nxt_ = 0;
  std::int64_t unacked_rx_ = 0;       // bytes received since last ACK we sent
  std::int64_t last_advertised_ = 0;  // window we last told the peer about
  bool delayed_ack_pending_ = false;
  sim::EventHandle ack_timer_;
  sim::Trigger readable_;

  // --- stats -----------------------------------------------------------------
  std::int64_t segs_sent_ = 0;
  std::int64_t retransmits_ = 0;
  std::int64_t pure_acks_ = 0;
};

/// A pre-connected TCP connection; `a()` lives on host_a, `b()` on host_b.
class TcpConnection {
 public:
  TcpConnection(InetCluster& cluster, int host_a, int host_b, std::uint32_t conn_id);
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  [[nodiscard]] TcpEndpoint& a() { return a_; }
  [[nodiscard]] TcpEndpoint& b() { return b_; }
  /// The endpoint living on `host` (the two hosts must differ).
  [[nodiscard]] TcpEndpoint& on_host(int host);

 private:
  friend class InetCluster;
  TcpEndpoint a_;
  TcpEndpoint b_;
};

}  // namespace lcmpi::inet
