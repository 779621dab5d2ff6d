// Fabric-layer unit tests: wire formats, delivery, capability plumbing.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "src/atmnet/atm.h"
#include "src/core/engine.h"
#include "src/fabric/loop_fabric.h"
#include "src/fabric/meiko_fabric.h"
#include "src/fabric/shm_fabric.h"
#include "src/fabric/socket_fabric.h"
#include "src/fabric/stream_fabric.h"
#include "src/inet/tcp.h"
#include "src/util/rng.h"

namespace lcmpi::fabric {
namespace {

ProtoMsg sample_msg() {
  ProtoMsg m;
  m.kind = MsgKind::kEager;
  m.tag = 1234;
  m.context = 7;
  m.mode = 2;
  m.sender_req = 99;
  m.seq = 5;
  m.payload = Bytes(48, std::byte{0xab});
  m.size = 48;
  return m;
}

// ------------------------------------------------------------- MeikoFabric

TEST(MeikoFabricTest, RoundTripsEveryEnvelopeField) {
  sim::Kernel k;
  meiko::Machine machine(k, 2);
  MeikoFabric f(machine);
  std::optional<ProtoMsg> got;
  k.spawn("tx", [&](sim::Actor& self) { f.endpoint(0).send(self, 1, sample_msg()); });
  k.spawn("rx", [&](sim::Actor& self) {
    while (!(got = f.endpoint(1).poll(self))) f.endpoint(1).wait_activity(self);
  });
  k.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->kind, MsgKind::kEager);
  EXPECT_EQ(got->src, 0);
  EXPECT_EQ(got->tag, 1234);
  EXPECT_EQ(got->context, 7u);
  EXPECT_EQ(got->mode, 2);
  EXPECT_EQ(got->sender_req, 99u);
  EXPECT_EQ(got->seq, 5u);
  EXPECT_EQ(got->payload, Bytes(48, std::byte{0xab}));
}

TEST(MeikoFabricTest, CapsMatchThePaper) {
  sim::Kernel k;
  meiko::Machine machine(k, 2);
  MeikoFabric f(machine);
  EXPECT_TRUE(f.caps().hw_broadcast);
  EXPECT_TRUE(f.caps().pull_bulk);
  EXPECT_EQ(f.caps().flow, FlowControl::kSingleSlot);
  EXPECT_EQ(f.caps().eager_threshold, 180);
}

TEST(MeikoFabricTest, PollChargesSparcPickup) {
  sim::Kernel k;
  meiko::Machine machine(k, 2);
  MeikoFabric f(machine);
  std::int64_t poll_cost = -1;
  k.spawn("tx", [&](sim::Actor& self) { f.endpoint(0).send(self, 1, sample_msg()); });
  k.spawn("rx", [&](sim::Actor& self) {
    Endpoint& ep = f.endpoint(1);
    self.advance(milliseconds(1));  // message already delivered
    const TimePoint t0 = self.now();
    auto m = ep.poll(self);
    ASSERT_TRUE(m.has_value());
    poll_cost = (self.now() - t0).ns;
  });
  k.run();
  EXPECT_EQ(poll_cost, machine.calib().sparc_poll_deliver.ns);
}

TEST(MeikoFabricTest, BulkStagePullCarriesData) {
  sim::Kernel k;
  meiko::Machine machine(k, 2);
  MeikoFabric f(machine);
  Bytes got;
  bool pulled = false;
  k.spawn("owner", [&](sim::Actor& self) {
    (void)f.endpoint(0).stage_bulk(self, Bytes(1000, std::byte{7}),
                                   [&] { pulled = true; });
  });
  k.spawn("requester", [&](sim::Actor& self) {
    self.advance(microseconds(100));
    f.endpoint(1).pull_bulk(self, 0, 1, [&](Bytes data) { got = std::move(data); });
    self.advance(milliseconds(5));
  });
  k.run();
  EXPECT_TRUE(pulled);
  EXPECT_EQ(got, Bytes(1000, std::byte{7}));
}

// ------------------------------------------------------------ StreamFabric

struct StreamWorld {
  sim::Kernel kernel;
  atmnet::AtmNetwork net{kernel, 2};
  inet::InetCluster cluster{net, inet::atm_profile()};
  inet::TcpConnection* conn = nullptr;
  std::unique_ptr<StreamFabric> fabric;

  StreamWorld() {
    conn = &cluster.tcp_pair(0, 1);
    std::vector<std::vector<inet::StreamEndpoint*>> streams{
        {nullptr, &conn->a()}, {&conn->b(), nullptr}};
    fabric = std::make_unique<StreamFabric>(kernel, std::move(streams));
  }
};

TEST(StreamFabricTest, ControlRecordIs25BytesOnTheWire) {
  // One eager message with no payload = exactly the paper's 25 bytes of
  // MPI protocol information on the stream.
  StreamWorld w;
  ProtoMsg m;
  m.kind = MsgKind::kCredit;
  w.kernel.spawn("tx", [&](sim::Actor& self) {
    w.fabric->endpoint(0).send(self, 1, std::move(m));
  });
  w.kernel.spawn("rx", [&](sim::Actor& self) {
    self.advance(milliseconds(4));
    EXPECT_EQ(w.conn->b().available(), 25u);
    auto got = w.fabric->endpoint(1).poll(self);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->kind, MsgKind::kCredit);
  });
  w.kernel.run();
}

TEST(StreamFabricTest, RoundTripsEnvelopeAndPayload) {
  StreamWorld w;
  std::optional<ProtoMsg> got;
  w.kernel.spawn("tx", [&](sim::Actor& self) {
    w.fabric->endpoint(0).send(self, 1, sample_msg());
  });
  w.kernel.spawn("rx", [&](sim::Actor& self) {
    Endpoint& ep = w.fabric->endpoint(1);
    while (!(got = ep.poll(self))) ep.wait_activity(self);
  });
  w.kernel.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tag, 1234);
  EXPECT_EQ(got->context, 7u);
  EXPECT_EQ(got->sender_req, 99u);
  EXPECT_EQ(got->payload, Bytes(48, std::byte{0xab}));
}

TEST(StreamFabricTest, BackToBackRecordsParseCleanly) {
  StreamWorld w;
  std::vector<std::int32_t> tags;
  w.kernel.spawn("tx", [&](sim::Actor& self) {
    for (std::int32_t t = 0; t < 5; ++t) {
      ProtoMsg m = sample_msg();
      m.tag = t;
      m.seq = static_cast<std::uint64_t>(t);
      w.fabric->endpoint(0).send(self, 1, std::move(m));
    }
  });
  w.kernel.spawn("rx", [&](sim::Actor& self) {
    Endpoint& ep = w.fabric->endpoint(1);
    while (tags.size() < 5) {
      if (auto m = ep.poll(self)) tags.push_back(m->tag);
      else ep.wait_activity(self);
    }
  });
  w.kernel.run();
  EXPECT_EQ(tags, (std::vector<std::int32_t>{0, 1, 2, 3, 4}));
}

TEST(StreamFabricTest, CapsAreCreditPushMode) {
  StreamWorld w;
  EXPECT_FALSE(w.fabric->caps().hw_broadcast);
  EXPECT_FALSE(w.fabric->caps().pull_bulk);
  EXPECT_EQ(w.fabric->caps().flow, FlowControl::kCredit);
  EXPECT_EQ(w.fabric->caps().control_record_bytes, 25);
}

// -------------------------------------------------------------- LoopFabric

TEST(LoopFabricTest, DeliveryAfterConfiguredLatency) {
  sim::Kernel k;
  LoopFabric::Options opt;
  opt.latency = microseconds(33);
  LoopFabric f(k, 2, opt);
  std::int64_t at = -1;
  k.spawn("tx", [&](sim::Actor& self) { f.endpoint(0).send(self, 1, sample_msg()); });
  k.spawn("rx", [&](sim::Actor& self) {
    Endpoint& ep = f.endpoint(1);
    std::optional<ProtoMsg> m;
    while (!(m = ep.poll(self))) ep.wait_activity(self);
    at = self.now().ns;
  });
  k.run();
  EXPECT_EQ(at, 33'000);
}

TEST(LoopFabricTest, HwBroadcastReachesAllOthers) {
  sim::Kernel k;
  LoopFabric f(k, 4);
  int received = 0;
  k.spawn("root", [&](sim::Actor& self) {
    ProtoMsg m = sample_msg();
    m.kind = MsgKind::kBcast;
    f.endpoint(2).hw_broadcast(self, std::move(m));
  });
  for (int r = 0; r < 4; ++r) {
    if (r == 2) continue;
    k.spawn("rx" + std::to_string(r), [&, r](sim::Actor& self) {
      Endpoint& ep = f.endpoint(r);
      std::optional<ProtoMsg> m;
      while (!(m = ep.poll(self))) ep.wait_activity(self);
      EXPECT_EQ(m->src, 2);
      ++received;
    });
  }
  k.run();
  EXPECT_EQ(received, 3);
}

// ------------------------------------------------------------ credit window

TEST(CreditWindowTest, SplitsTheBudgetAmongSendersUpToTheCap) {
  // N = 2 and 4: the budget's share is past the cap.
  EXPECT_EQ(credit_window(2), 256 * 1024);
  EXPECT_EQ(credit_window(4), 256 * 1024);
  // N = 128 and 512: 4 MiB split among 127 and 511 senders.
  EXPECT_EQ(credit_window(128), 33026);
  EXPECT_EQ(credit_window(512), 8208);
  EXPECT_EQ(credit_window(1), kCreditCapBytes);
}

TEST(CreditWindowTest, TheThresholdGivesWayWhereTheWindowCannotCarryIt) {
  // Each real fabric's default at N = 2, 4, 128 and 512: the window is
  // the budget's share, and a threshold past the window less its control
  // record falls to that.
  const std::int64_t shm = ShmFabric::Options{}.caps.eager_threshold;
  const std::int64_t sockets = SocketFabric::Options{}.caps.eager_threshold;
  const struct {
    int n;
    std::int64_t shm_threshold, socket_threshold;
  } cases[] = {{2, shm, sockets}, {4, shm, sockets}, {128, shm, sockets},
               {512, 8208 - 25, 8208 - 25}};
  for (const auto& c : cases) {
    const ShmFabric f(c.n);
    EXPECT_EQ(f.caps().credit_bytes, credit_window(c.n)) << "N = " << c.n;
    EXPECT_EQ(f.caps().eager_threshold, c.shm_threshold) << "N = " << c.n;
    FabricCaps caps = SocketFabric::Options{}.caps;
    size_credit_window(caps, c.n);
    EXPECT_EQ(caps.credit_bytes, credit_window(c.n)) << "N = " << c.n;
    EXPECT_EQ(caps.eager_threshold, c.socket_threshold) << "N = " << c.n;
  }
  // A one-rank SocketFabric builds in-process and sizes the same way.
  EXPECT_EQ(SocketFabric(1, 0, {}).caps().credit_bytes, kCreditCapBytes);
  // A threshold of 0 means always rendezvous here, as on every fabric.
  SocketFabric::Options always_rendezvous;
  always_rendezvous.caps.eager_threshold = 0;
  EXPECT_EQ(SocketFabric(1, 0, {}, always_rendezvous).caps().eager_threshold, 0);
  // An explicit window is kept as given, and so is its threshold.
  ShmFabric::Options opt;
  opt.caps.credit_bytes = 4096;
  EXPECT_EQ(ShmFabric(2, opt).caps().credit_bytes, 4096);
  EXPECT_EQ(ShmFabric(2, opt).caps().eager_threshold, shm);
}

TEST(CreditWindowTest, NoSendersWindowsOverflowTheUnexpectedMessageCap) {
  // One eager message at the threshold from each of N-1 senders, or any
  // flood their windows admit, must fit the receiver's unexpected-message
  // cap at every N, on every real fabric's defaults.
  const std::int64_t cap = mpi::EngineConfig{}.max_unexpected_bytes;
  for (const FabricCaps& dflt : {ShmFabric::Options{}.caps, SocketFabric::Options{}.caps}) {
    for (int n = 2; n <= 1024; ++n) {
      FabricCaps caps = dflt;
      size_credit_window(caps, n);
      EXPECT_LE((n - 1) * caps.eager_threshold, cap) << "N = " << n;
      EXPECT_LE((n - 1) * caps.credit_bytes, cap) << "N = " << n;
      EXPECT_LE(caps.eager_threshold + caps.control_record_bytes, caps.credit_bytes)
          << "N = " << n;
    }
  }
}

// ------------------------------------------------------ SocketFabric frames

constexpr std::int64_t kMaxEager = 1000;

ProtoMsg wire_msg(MsgKind kind, std::size_t payload) {
  ProtoMsg m = sample_msg();
  m.kind = kind;
  m.payload = Bytes(payload, std::byte{0x3c});
  m.size = static_cast<std::uint32_t>(payload);
  return m;
}

std::string parse_error(const Bytes& rx) {
  std::deque<ProtoMsg> out;
  try {
    (void)SocketFabric::parse_frames(rx, 0, 1, kMaxEager, out);
  } catch (const FabricError& e) {
    return e.what();
  }
  return "";
}

TEST(SocketFramesTest, ValidFramesParseWhereverTheReadsSplitThem) {
  const std::vector<ProtoMsg> sent = {
      wire_msg(MsgKind::kEager, 100),     wire_msg(MsgKind::kRts, 0),
      wire_msg(MsgKind::kCts, 0),         wire_msg(MsgKind::kCredit, 0),
      wire_msg(MsgKind::kSsendAck, 0),    wire_msg(MsgKind::kRmaPut, 300),
      wire_msg(MsgKind::kRmaGet, 16),     wire_msg(MsgKind::kRmaGetReply, 2000),
      wire_msg(MsgKind::kRmaAcc, 40),     wire_msg(MsgKind::kEager, kMaxEager),
      wire_msg(MsgKind::kEager, 0)};
  Bytes stream;
  std::vector<std::size_t> ends;  // stream offset after each frame
  for (const ProtoMsg& m : sent) {
    const Bytes f = SocketFabric::encode_frame(m);
    stream.insert(stream.end(), f.begin(), f.end());
    ends.push_back(stream.size());
  }
  // Every prefix parses up to its last whole frame and waits for the rest.
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    std::deque<ProtoMsg> out;
    const SocketFabric::Parsed got =
        SocketFabric::parse_frames(Bytes(stream.begin(), stream.begin() + cut), 0, 1,
                                   kMaxEager, out);
    std::size_t whole = 0;
    while (whole < ends.size() && ends[whole] <= cut) ++whole;
    ASSERT_EQ(out.size(), whole) << "cut " << cut;
    ASSERT_EQ(got.consumed, whole == 0 ? 0 : ends[whole - 1]) << "cut " << cut;
  }
  std::deque<ProtoMsg> out;
  (void)SocketFabric::parse_frames(stream, 0, 1, kMaxEager, out);
  ASSERT_EQ(out.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(out[i].kind, sent[i].kind) << i;
    EXPECT_EQ(out[i].src, 1) << i;
    EXPECT_EQ(out[i].size, sent[i].size) << i;
    EXPECT_EQ(out[i].payload, sent[i].payload) << i;
  }
}

TEST(SocketFramesTest, HeadersNoSenderCouldWriteRaiseNamingThePeer) {
  const auto with_length = [](Bytes f, std::uint32_t len) {
    std::memcpy(f.data(), &len, sizeof len);
    return f;
  };
  const Bytes eager8 = SocketFabric::encode_frame(wire_msg(MsgKind::kEager, 8));
  const std::size_t header = eager8.size() - 8;  // length prefix + header
  // A ~4 GiB length on an 8 B eager message: raised from the header alone.
  const Bytes head_only(eager8.begin(), eager8.begin() + static_cast<std::ptrdiff_t>(header));
  std::string e = parse_error(with_length(head_only, 0xffffff00u));
  EXPECT_NE(e.find("rank 0: corrupt frame from rank 1: length 4294967040"), std::string::npos)
      << e;
  // An envelope-only kind with a payload.
  e = parse_error(with_length(SocketFabric::encode_frame(wire_msg(MsgKind::kRts, 0)),
                              static_cast<std::uint32_t>(header - 4 + 8)));
  EXPECT_NE(e.find("envelope-only"), std::string::npos) << e;
  // An eager payload the credit window could never have admitted.
  e = parse_error(SocketFabric::encode_frame(wire_msg(MsgKind::kEager, kMaxEager + 1)));
  EXPECT_NE(e.find("credit window"), std::string::npos) << e;
  // An RMA frame whose length disagrees with its size.
  e = parse_error(with_length(SocketFabric::encode_frame(wire_msg(MsgKind::kRmaPut, 64)),
                              static_cast<std::uint32_t>(header - 4 + 65)));
  EXPECT_NE(e.find("RMA"), std::string::npos) << e;
  // Kinds that never cross this wire.
  for (const MsgKind k : {MsgKind::kRdata, MsgKind::kBcast, MsgKind::kBulkSent,
                          MsgKind::kBulkDelivered, MsgKind::kBarrier, static_cast<MsgKind>(200)}) {
    e = parse_error(SocketFabric::encode_frame(wire_msg(k, 0)));
    EXPECT_NE(e.find("never sends"), std::string::npos) << static_cast<int>(k) << ": " << e;
  }
  // A length shorter than a header, raised from the four length bytes.
  e = parse_error(with_length(Bytes(4), 10));
  EXPECT_NE(e.find("shorter than a header"), std::string::npos) << e;
}

TEST(SocketFramesTest, SeededRandomStreamsEndInAnErrorNeverAWait) {
  // Random bytes at least one header long: whatever the length prefix
  // says, the header already shows no sender wrote it.
  const std::size_t header = SocketFabric::encode_frame(wire_msg(MsgKind::kRts, 0)).size();
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    Rng rng(seed);
    Bytes rx(header + rng.next_below(4096));
    for (std::byte& b : rx) b = static_cast<std::byte>(rng.next_u64());
    const std::string e = parse_error(rx);
    EXPECT_NE(e.find("corrupt frame from rank 1"), std::string::npos) << "seed " << seed;
  }
}

}  // namespace
}  // namespace lcmpi::fabric
