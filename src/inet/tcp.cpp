#include "src/inet/tcp.h"

#include <algorithm>

namespace lcmpi::inet {
namespace {

constexpr std::uint8_t kProtoTcp = 1;

struct SegHeader {
  std::uint32_t conn = 0;
  std::uint8_t to_side = 0;  // which endpoint this segment is addressed to
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
  std::int64_t wnd = 0;
  std::uint32_t len = 0;
};

Bytes encode_segment(const SegHeader& h, const Bytes* payload) {
  Bytes out;
  ByteWriter w(out);
  w.put(kProtoTcp);
  w.put(h.conn);
  w.put(h.to_side);
  w.put(h.seq);
  w.put(h.ack);
  w.put(h.wnd);
  w.put(h.len);
  if (payload) w.put_bytes(payload->data(), payload->size());
  return out;
}

}  // namespace

// ------------------------------------------------------------ TcpConnection

TcpConnection::TcpConnection(InetCluster& cluster, int host_a, int host_b,
                             std::uint32_t conn_id) {
  LCMPI_CHECK(host_a != host_b, "TCP loopback connections are not modelled");
  auto init = [&](TcpEndpoint& e, int host, int peer, std::uint8_t side, TcpEndpoint* p) {
    e.cluster_ = &cluster;
    e.host_ = host;
    e.peer_host_ = peer;
    e.conn_ = conn_id;
    e.side_ = side;
    e.peer_ = p;
    e.peer_wnd_ = cluster.profile().rcvbuf;
    e.last_advertised_ = cluster.profile().rcvbuf;
  };
  init(a_, host_a, host_b, 0, &b_);
  init(b_, host_b, host_a, 1, &a_);
}

TcpEndpoint& TcpConnection::on_host(int host) {
  if (host == a_.host_) return a_;
  LCMPI_CHECK(host == b_.host_, "host is not an endpoint of this connection");
  return b_;
}

// -------------------------------------------------------------- TcpEndpoint

std::int64_t TcpEndpoint::mss() const {
  return cluster_->network().mtu() - cluster_->profile().header_bytes;
}

std::int64_t TcpEndpoint::advertised_window() const {
  return cluster_->profile().rcvbuf - static_cast<std::int64_t>(rcv_buf_.size());
}

void TcpEndpoint::write(sim::Actor& self, const Bytes& data) {
  const DriverProfile& p = cluster_->profile();
  InetCluster::charge_write(self, p, static_cast<std::int64_t>(data.size()));
  std::size_t offset = 0;
  while (offset < data.size()) {
    const std::int64_t space = p.sndbuf - static_cast<std::int64_t>(send_q_.size());
    if (space <= 0) {
      self.wait(writable_);
      continue;
    }
    const std::size_t take = std::min<std::size_t>(static_cast<std::size_t>(space),
                                                   data.size() - offset);
    send_q_.insert(send_q_.end(), data.begin() + static_cast<std::ptrdiff_t>(offset),
                   data.begin() + static_cast<std::ptrdiff_t>(offset + take));
    offset += take;
    pump();
  }
}

void TcpEndpoint::pump() {
  if (cwnd_ == 0) {  // first use
    cwnd_ = mss();
    ssthresh_ = cluster_->profile().rcvbuf;
  }
  const std::int64_t window = std::min(peer_wnd_, cwnd_);
  for (;;) {
    const std::int64_t unsent =
        static_cast<std::int64_t>(send_q_.size()) - in_flight();
    const std::int64_t win_left = window - in_flight();
    if (unsent <= 0 || win_left <= 0) break;
    // Nagle: hold a sub-MSS tail while earlier data is unacknowledged.
    if (!nodelay_ && unsent < mss() && in_flight() > 0) break;
    const std::int64_t len = std::min({unsent, win_left, mss()});
    Bytes payload(static_cast<std::size_t>(len));
    const std::size_t start = static_cast<std::size_t>(in_flight());
    for (std::int64_t i = 0; i < len; ++i)
      payload[static_cast<std::size_t>(i)] = send_q_[start + static_cast<std::size_t>(i)];
    send_segment(snd_nxt_, std::move(payload));
    snd_nxt_ += static_cast<std::uint64_t>(len);
  }
  if (in_flight() > 0) arm_rto();
}

void TcpEndpoint::send_segment(std::uint64_t seq, Bytes payload) {
  SegHeader h;
  h.conn = conn_;
  h.to_side = static_cast<std::uint8_t>(1 - side_);
  h.seq = seq;
  h.ack = rcv_nxt_;
  h.wnd = advertised_window();
  h.len = static_cast<std::uint32_t>(payload.size());
  // Data segments piggyback the ACK: cancel any pending pure ACK.
  if (delayed_ack_pending_) {
    ack_timer_.cancel();
    delayed_ack_pending_ = false;
  }
  unacked_rx_ = 0;
  last_advertised_ = h.wnd;
  ++segs_sent_;
  cluster_->kernel_send(host_, peer_host_, encode_segment(h, &payload), /*raw_path=*/false);
}

void TcpEndpoint::send_pure_ack() {
  SegHeader h;
  h.conn = conn_;
  h.to_side = static_cast<std::uint8_t>(1 - side_);
  h.seq = snd_nxt_;
  h.ack = rcv_nxt_;
  h.wnd = advertised_window();
  h.len = 0;
  unacked_rx_ = 0;
  last_advertised_ = h.wnd;
  ++pure_acks_;
  cluster_->kernel_send(host_, peer_host_, encode_segment(h, nullptr), /*raw_path=*/false);
}

void TcpEndpoint::schedule_delayed_ack() {
  if (delayed_ack_pending_) return;
  delayed_ack_pending_ = true;
  ack_timer_ = cluster_->kernel().schedule(cluster_->profile().delayed_ack, [this] {
    delayed_ack_pending_ = false;
    send_pure_ack();
  });
}

void TcpEndpoint::arm_rto() {
  if (rto_armed_) return;
  rto_armed_ = true;
  rto_timer_ = cluster_->kernel().schedule(cluster_->profile().rto, [this] {
    rto_armed_ = false;
    on_rto();
  });
}

void TcpEndpoint::on_rto() {
  if (send_q_.empty()) return;
  // Go-back-N: rewind to the oldest unacknowledged byte, and Tahoe
  // congestion response: halve ssthresh, restart slow start.
  ssthresh_ = std::max<std::int64_t>(in_flight() / 2, 2 * mss());
  cwnd_ = mss();
  snd_nxt_ = snd_una_;
  ++retransmits_;
  if (peer_wnd_ <= 0) {
    // Zero-window probe: one byte, ignoring the window, so a lost window
    // update cannot wedge the connection.
    Bytes probe{send_q_.front()};
    send_segment(snd_nxt_, std::move(probe));
    snd_nxt_ += 1;
  } else {
    pump();
  }
  arm_rto();
}

void TcpEndpoint::handle_ack(std::uint64_t ack, std::int64_t wnd) {
  peer_wnd_ = wnd;
  if (ack > snd_una_) {
    LCMPI_CHECK(ack <= snd_una_ + send_q_.size(), "ACK beyond sent data");
    // Tahoe window growth: exponential below ssthresh, linear above.
    if (cwnd_ > 0) {
      if (cwnd_ < ssthresh_) cwnd_ += mss();
      else cwnd_ += std::max<std::int64_t>(1, mss() * mss() / cwnd_);
    }
    const auto acked = static_cast<std::size_t>(ack - snd_una_);
    send_q_.erase(send_q_.begin(), send_q_.begin() + static_cast<std::ptrdiff_t>(acked));
    snd_una_ = ack;
    if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
    if (rto_armed_) {
      rto_timer_.cancel();
      rto_armed_ = false;
    }
    writable_.notify_all();
  }
  pump();
}

void TcpEndpoint::on_segment(std::uint64_t seq, std::uint64_t ack, std::int64_t wnd,
                             Bytes payload) {
  handle_ack(ack, wnd);
  if (payload.empty()) return;  // pure ACK / window update

  const std::uint64_t end = seq + payload.size();
  if (end <= rcv_nxt_) {
    // Complete duplicate (retransmission raced our ACK): re-ACK it.
    send_pure_ack();
    return;
  }
  if (seq > rcv_nxt_) {
    // Gap after a loss: go-back-N receiver drops and re-ACKs.
    send_pure_ack();
    return;
  }
  // Accept the new suffix (handles partial overlap from retransmits).
  const auto skip = static_cast<std::size_t>(rcv_nxt_ - seq);
  const std::int64_t fresh = static_cast<std::int64_t>(payload.size() - skip);
  const std::int64_t room = advertised_window();
  const std::int64_t take = std::min(fresh, room);
  if (take <= 0) {
    send_pure_ack();  // window full: tell the peer where we are
    return;
  }
  rcv_buf_.insert(rcv_buf_.end(), payload.begin() + static_cast<std::ptrdiff_t>(skip),
                  payload.begin() + static_cast<std::ptrdiff_t>(skip + take));
  rcv_nxt_ += static_cast<std::uint64_t>(take);
  unacked_rx_ += take;

  // ACK policy: immediately after two segments' worth, else delayed.
  if (unacked_rx_ >= 2 * mss()) {
    send_pure_ack();
  } else {
    schedule_delayed_ack();
  }
  // Wake a blocked reader after the kernel's wakeup delay.
  cluster_->kernel().schedule(cluster_->profile().sock_wakeup, [this] {
    readable_.notify_all();
    signal_readable();
  });
}

Bytes TcpEndpoint::read(sim::Actor& self, std::size_t max) {
  LCMPI_CHECK(max > 0, "zero-length read");
  while (rcv_buf_.empty()) self.wait(readable_);
  const std::size_t take = std::min(max, rcv_buf_.size());
  InetCluster::charge_read(self, cluster_->profile(), static_cast<std::int64_t>(take));
  Bytes out(rcv_buf_.begin(), rcv_buf_.begin() + static_cast<std::ptrdiff_t>(take));
  rcv_buf_.erase(rcv_buf_.begin(), rcv_buf_.begin() + static_cast<std::ptrdiff_t>(take));
  // Window update if the reader just opened significant space.
  if (advertised_window() - last_advertised_ >= mss()) send_pure_ack();
  return out;
}

}  // namespace lcmpi::inet
