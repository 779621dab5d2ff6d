// StreamFabric — MPI over reliable byte streams (TCP or reliable-UDP).
//
// This is the paper's cluster implementation (§5.1): per-pair static
// connections, a fixed 25-byte control record per message (1 type byte +
// 24 bytes of credit / envelope / DMA-request information — Table 1's
// decomposition), eager payloads written right behind the envelope
// ("piggybacked"), rendezvous by CTS-then-push, and credit-based flow
// control in the engine (a window protocol cannot work because tags and
// communicators break FIFO matching order).
//
// Receive-side costs land where Table 1 measured them: the engine's poll()
// performs one charged read for the type byte, one for the control block,
// and one for any payload.
//
// Bulk plane: none — rendezvous payloads travel inline as kRdata. This
// fabric exists to reproduce the paper's measured virtual-time figures,
// whose cost model charges rendezvous payloads on the same stream as the
// control records; routing them around the model would invalidate every
// calibrated number. The bulk-plane seam (fabric.h) belongs to the
// real-execution fabrics (ShmFabric, SocketFabric).
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "src/fabric/fabric.h"
#include "src/inet/cluster.h"
#include "src/inet/stream.h"

namespace lcmpi::fabric {

/// Bytes of the fixed control block following the 1-byte record type.
inline constexpr std::int64_t kControlBytes = 24;

class StreamFabric final : public Fabric {
 public:
  struct Options {
    std::int64_t eager_threshold = 8 * 1024;
    std::int64_t credit_bytes = 32 * 1024;
    /// The paper's §5.1 choice: credit. kSingleSlot reproduces the Meiko
    /// discipline over TCP — the ablation showing why it was abandoned.
    FlowControl flow = FlowControl::kCredit;
    MpiCosts costs;
    Options() {
      // Per-message MPI software costs on the 133 MHz hosts; match = the
      // 35 us Table 1 measures.
      costs.envelope_build = microseconds(25);
      costs.match = microseconds(35);
      costs.match_per_entry = microseconds(1.0);
      costs.unexpected_copy_base = microseconds(5);
      costs.unexpected_copy_per_byte = nanoseconds(40);
      costs.bookkeeping = microseconds(8);
      costs.bcast_copy_per_byte = nanoseconds(40);
    }
  };

  /// `streams[i][j]` is rank i's endpoint of the i<->j connection
  /// (nullptr on the diagonal). Built by the runtime over TCP or RUDP.
  ///
  /// `bcast_socks` (optional, one per rank) enables the Bruck-et-al.-style
  /// extension: MPI_Bcast over the medium's link-layer broadcast (shared
  /// Ethernet). Payloads are chunked into datagrams and reassembled at
  /// every receiver; the medium must be loss-free (the bus model is,
  /// unless loss injection is enabled).
  StreamFabric(sim::Kernel& kernel,
               std::vector<std::vector<inet::StreamEndpoint*>> streams, Options opt = {},
               std::vector<inet::DatagramSocket*> bcast_socks = {});

  [[nodiscard]] int nranks() const override { return static_cast<int>(eps_.size()); }
  [[nodiscard]] Endpoint& endpoint(int rank) override;

 private:
  class Ep;
  std::vector<std::unique_ptr<Ep>> eps_;
};

class StreamFabric::Ep final : public Endpoint {
 public:
  Ep(StreamFabric& f, int rank, std::vector<inet::StreamEndpoint*> peers,
     inet::DatagramSocket* bcast_sock, std::uint16_t bcast_port);

  void send(sim::Actor& self, int dst, ProtoMsg msg) override;
  void hw_broadcast(sim::Actor& self, ProtoMsg msg) override;
  /// Drains complete records from every peer stream (charged reads).
  std::optional<ProtoMsg> poll(sim::Actor& self) override;

 private:
  void on_bcast_datagram(inet::Datagram d);

  std::vector<inet::StreamEndpoint*> peers_;  // by peer rank; self = nullptr
  int scan_from_ = 0;                         // round-robin fairness
  inet::DatagramSocket* bcast_sock_ = nullptr;
  std::uint16_t bcast_port_ = 0;

  struct PartialBcast {
    std::uint32_t context = 0;
    std::uint64_t seq = 0;
    std::uint16_t nchunks = 0;
    std::uint16_t next_chunk = 0;
    Bytes data;
  };
  std::map<int, PartialBcast> partial_;  // by source host
};

}  // namespace lcmpi::fabric
