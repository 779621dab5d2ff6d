// SocketFabric — real multi-process execution over kernel stream sockets.
//
// ShmFabric (§6d) made one rank = one OS thread inside a single address
// space; this fabric takes the next rung the paper's ATM/Ethernet port
// implies: one rank = one OS *process*, with every byte crossing the
// kernel's socket layer (AF_UNIX by default, AF_INET/127.0.0.1 on
// request). The unchanged MPI engine runs verbatim on top — eager ≤
// threshold with the envelope, CTS-then-push rendezvous, per-sender
// credit flow control — exactly the seam MPICH2's channel abstraction
// exposes between protocol and wire.
//
// Topology and bootstrap (§6h): connections are LAZY. The rank-0
// rendezvous only exchanges the listener table — every rank r>0 binds its
// own listener, dials rank 0, sends a Hello naming its listener, and
// reads back the full table; rank 0 collects the n-1 hellos and
// broadcasts. No data socket exists until a pair actually talks: the
// first send to a peer dials its listener and identifies the dialing
// rank with a short post-accept Hello, so an idle pair costs zero fds
// and zero poll work — per-rank fd count follows the communication
// graph, not N.
//
// Progress engine: one epoll(7) instance per rank holds the listener and
// every live socket, level-triggered. poll() does one epoll_wait(0)
// instead of a recv sweep over all peers; wait_activity parks in
// epoll_wait with a bounded slice. EPOLLOUT is armed (EPOLL_CTL_MOD)
// only while a sender is actually blocked on a full kernel buffer and
// disarmed as soon as the write completes — idle sockets contribute
// nothing to any wakeup.
//
// Wire format: length-prefixed records ([u32 frame length][fixed header]
// [payload]), full-width fields (no 16-bit context squeeze — this wire is
// ours, not Table 1's). All I/O is short-read/short-write/EINTR-safe.
//
// Cross-dial races: two ranks may dial each other simultaneously; the
// kernel listen backlog absorbs both. Each side keeps the connection it
// dialed as its primary (TX) link and files the accepted one as a
// secondary, receive-only link — a rank never switches TX sockets, so
// per-direction FIFO holds structurally.
//
// Failure model: each fabric sends a BYE record on its TX link before
// closing (ranks finish at different times; a goodbye is not an error).
// EOF or ECONNRESET on the peer's TX link *without* a preceding BYE means
// the peer process died — poll()/send() throw FabricError instead of
// letting a blocked receive hang forever. A peer that dies before ever
// connecting is invisible here; the launcher detects that (the rank's
// process exits) and kills/reports (src/runtime/launch_core.h).
//
// Bulk data plane: rendezvous payloads leave the framed control socket
// entirely, on a second lazily-dialed per-pair socket. The plane is fixed
// by the domain, so both ends know it without asking: on AF_UNIX the
// dialer passes a memfd-backed pair of mmap'd byte rings (SCM_RIGHTS)
// right behind its Hello and payload bytes never cross a socket again;
// on AF_INET the socket itself carries raw streaming, one 16-byte
// {cookie, size} header per transfer. Transfers pump in bounded chunks
// interleaved with control-plane progress, so a 64 MiB push never
// head-of-line-blocks an eager ping — the latency/bandwidth isolation
// the paper gets from separating its protocol and data channels.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/fabric/fabric.h"

namespace lcmpi::fabric {

class SocketFabric final : public Fabric {
 public:
  /// Which kernel transport carries the connections.
  enum class Domain : std::uint8_t { kUnix, kInet };

  struct Options {
    FabricCaps caps;
    /// Zero: host work takes real time, as on ShmFabric.
    MpiCosts costs;
    Domain domain = Domain::kUnix;
    /// Per-direction memfd ring capacity (AF_UNIX pairs).
    std::size_t bulk_ring_bytes = 4 << 20;
    /// Rendezvous/connect patience: giving up after `dial_deadline` total
    /// raises FabricError (a peer that never came up).
    std::chrono::milliseconds dial_deadline{10'000};
    Options() {
      caps.hw_broadcast = false;  // software tree broadcast
      caps.pull_bulk = false;     // push-mode rendezvous (CTS/RDATA)
      caps.flow = FlowControl::kCredit;
      caps.eager_threshold = 180;
    }
  };

  /// Where rank 0 listens for the rendezvous. `unix_dir` (kUnix) is a
  /// private directory for this world's socket files; `port` (kInet) is
  /// rank 0's rendezvous port. Rank 0's rendezvous listener stays open
  /// for the whole run — it doubles as the data-phase listener lazy
  /// dials land on.
  ///
  /// Multi-host addressing (kInet): with every field below empty the
  /// fabric stays on one box — listeners bind 127.0.0.1 and peers dial
  /// loopback at a fixed `port`. Setting any of them
  /// switches to explicit addressing: listeners bind `bind_host` (empty →
  /// INADDR_ANY), rank 0 is dialed at `root_host`, and each rank
  /// advertises `advertise_host` in its Hello — or, when that is empty,
  /// the local address `getsockname(2)` reports on its bootstrap
  /// connection to rank 0, which picks the right NIC automatically on a
  /// multi-homed host. Hostnames resolve via getaddrinfo(3) (IPv4).
  ///
  /// `rendezvous_file` replaces a pre-agreed port: rank 0 binds an
  /// ephemeral port and atomically publishes "a.b.c.d:port\n" at that
  /// path (write-to-temp + rename); other ranks poll the file until it
  /// appears. The file must be on a filesystem all ranks share.
  /// SocketWorld's AF_INET worlds use this too, with the file in the
  /// world dir and `bind_host` 127.0.0.1.
  struct Rendezvous {
    std::string unix_dir;
    std::uint16_t port = 0;
    std::string root_host;        // where rank 0 listens (dial target)
    std::string bind_host;        // local listener bind address
    std::string advertise_host;   // address peers should dial for this rank
    std::string rendezvous_file;  // rank-0-published "addr:port" path
  };

  /// Builds this rank's attachment: binds its listener and runs the
  /// table-exchange rendezvous (blocking, with retry). No peer data
  /// connection exists yet — those are dialed on first send. Call once
  /// per process; throws FabricError if the rendezvous fails.
  SocketFabric(int nranks, int rank, const Rendezvous& rdv, Options opt = {});
  ~SocketFabric() override;

  /// Attachment described entirely by environment — the contract for
  /// external launchers (lcmpirun, ssh loops, shell scripts) that exec
  /// one binary per rank with no pipes or inherited fds. Required:
  /// LCMPI_RANK, LCMPI_NRANKS, and one rendezvous of LCMPI_SOCKET_DIR
  /// (AF_UNIX; takes precedence), LCMPI_PORT, or LCMPI_RENDEZVOUS_FILE
  /// (both AF_INET). Optional for AF_INET: LCMPI_ROOT_ADDR ("host" or
  /// "host:port" — where rank 0 listens), LCMPI_BIND_ADDR, LCMPI_ADDR
  /// (this rank's advertised address). All values are parsed strictly;
  /// malformed or out-of-range input throws env::EnvError naming the
  /// variable.
  [[nodiscard]] static SocketFabric from_env(Options opt = {});

  /// The options this fabric was built with (post-from_env resolution:
  /// e.g. `domain` reflects which rendezvous the env actually selected).
  [[nodiscard]] const Options& options() const { return opt_; }

  [[nodiscard]] int nranks() const override { return nranks_; }
  [[nodiscard]] int local_rank() const { return rank_; }
  /// Only the local rank's endpoint exists in this process.
  [[nodiscard]] Endpoint& endpoint(int rank) override;

  /// Wall-clock nanoseconds since fabric construction (= endpoint now()).
  [[nodiscard]] TimePoint wall_now() const;

  struct Stats {
    std::uint64_t messages_tx = 0;   // frames written
    std::uint64_t messages_rx = 0;   // frames parsed
    std::uint64_t bytes_tx = 0;      // framed bytes written
    std::uint64_t bytes_rx = 0;      // framed bytes read
    std::uint64_t send_stalls = 0;   // EAGAIN on write (kernel buffer full)
    std::uint64_t idle_polls = 0;    // wait_activity entered epoll_wait
    std::uint64_t dial_retries = 0;  // connect attempts beyond the first
    // Scale (the lazy-connection story: all sublinear in N for sparse
    // communication graphs).
    std::uint64_t fds_open = 0;         // gauge: live fds (epoll, listener, links)
    std::uint64_t pairs_connected = 0;  // peers ever control-connected
    std::uint64_t lazy_dials = 0;       // data-phase dials we initiated
    std::uint64_t epoll_wakeups = 0;    // epoll_wait returns with >=1 event
    // Bulk data plane.
    std::uint64_t bulk_tx_transfers = 0;  // bulk_send transfers completed
    std::uint64_t bulk_rx_transfers = 0;  // inbound transfers delivered
    std::uint64_t bulk_tx_bytes = 0;      // payload bytes sent on the bulk plane
    std::uint64_t bulk_rx_bytes = 0;      // payload bytes received on the bulk plane
    std::uint64_t memfd_pairs = 0;        // bulk channels backed by a shared ring
    std::uint64_t doorbells_tx = 0;       // ring doorbell bytes written
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  class Ep;
  friend class Ep;

  /// One direction-capable socket of a control pair.
  struct Link {
    int fd = -1;
    Bytes rx;               // unparsed bytes (partial frame tail)
    bool out_armed = false;  // EPOLLOUT currently requested
  };

  /// Control-plane state for one peer. `a` is the primary link (our TX;
  /// also RX when the pair shares one socket); `b` exists only after a
  /// cross-dial race and is receive-only — the peer transmits on the
  /// socket *it* dialed. Death is judged on the peer's TX link: EOF
  /// without a BYE there (after salvaging buffered frames) is fatal.
  struct Conn {
    Link a;
    Link b;
    bool b_existed = false;   // a secondary link was ever filed
    bool connected = false;   // counted in pairs_connected
    bool bye_seen = false;    // peer announced clean shutdown
    bool dead = false;        // peer death observed (error already raised)
    [[nodiscard]] bool any_open() const { return a.fd >= 0 || b.fd >= 0; }
  };

  /// Where a peer's listener lives (from the rendezvous table).
  struct PeerAddr {
    std::uint32_t addr = 0;  // kInet: IPv4, network byte order
    std::uint16_t port = 0;  // kInet
    std::string unix_path;   // kUnix
  };

  /// Per-pair bulk channel state (second socket, optional shared ring).
  /// Full definition lives in the .cpp — the header stays free of the
  /// mmap/atomics plumbing.
  struct BulkChan;

  /// Bulk channels for one peer: `a` is the one we dialed (our TX side;
  /// also RX), `b` one the peer dialed first (RX only, from our side).
  struct BulkPair {
    std::unique_ptr<BulkChan> a;
    std::unique_ptr<BulkChan> b;
    /// Sticky TX choice: `a` if we dialed first, `b` if we adopted the
    /// peer's dial. Never switches once set, so bulk FIFO holds per pair.
    BulkChan* tx = nullptr;
  };

  /// What an epoll event tag refers to (packed into epoll_data.u64).
  enum class FdKind : std::uint32_t { kListen, kCtlA, kCtlB, kBulkA, kBulkB };

  void bootstrap(const Rendezvous& rdv);
  [[nodiscard]] int dial(const PeerAddr& to, const std::string& label,
                         std::chrono::steady_clock::time_point deadline);
  /// Ensures a control link to `peer` exists: accepts any pending inbound
  /// dial first (the peer may have beaten us), then dials its listener.
  Conn& ensure_conn(int peer);
  /// Ensures a primary bulk channel to `peer` exists (dialing it, and on
  /// AF_UNIX passing the ring's memfd, if needed).
  BulkChan& ensure_bulk(int peer);
  /// Drains the listener: accepts every pending connection, reads its
  /// identifying Hello (bounded-blocking), and files it as a control or
  /// bulk link for the dialing rank.
  void accept_pending();
  void file_control(int peer, int fd);
  void file_bulk_accept(int peer, int fd);
  /// Central progress: one epoll_wait (timeout_ms; 0 = nonblocking),
  /// dispatching every ready fd, then a tx pass over bulk channels with
  /// queued work. Returns true if any bytes moved or events fired.
  bool progress(int timeout_ms);
  void epoll_add(int fd, FdKind kind, int peer);
  void epoll_arm_out(int fd, FdKind kind, int peer, bool on);
  /// Drains one control link until EAGAIN, parsing complete frames into
  /// arrivals_. Returns true if anything new arrived. Throws FabricError
  /// on unannounced EOF/reset of the peer's TX link.
  bool pump_link(int peer, Link& l);
  void parse_frames(int peer, Link& l);
  void close_link(Link& l) noexcept;
  void send_frame(int peer, const ProtoMsg& msg);
  /// Bulk-plane progress for one channel: receive side (ring or stream,
  /// into the registered landing buffer), then transmit side
  /// (chunk-capped, primary only).
  bool pump_bulk(int peer, BulkChan* b);
  bool pump_bulk_rx(int peer, BulkChan* b);
  bool pump_bulk_tx(int peer, BulkChan* b);
  /// One tx pass over bulk channels with queued transfers; true if any
  /// bytes moved.
  bool pump_bulk_tx_pending();
  /// Marks `peer`'s primary bulk channel as having queued tx work.
  void note_bulk_tx_pending(int peer);
  /// One rx pass over ring channels whose drain hit the per-pump budget
  /// with data still readable. The stream path never needs this (the
  /// level-triggered epoll re-reports unread socket data), but ring data
  /// past the last doorbell would otherwise sit until the next unrelated
  /// wakeup.
  bool pump_bulk_rx_pending();
  void note_bulk_rx_pending(int peer, BulkChan* b);
  void bulk_queue(int peer, std::uint64_t cookie, const void* data,
                  std::size_t size);
  void bulk_eof(int peer, BulkChan* b, const char* detail);
  void begin_bulk_rx(int peer, BulkChan* b);
  void finish_bulk_rx(int peer, BulkChan* b);
  void ring_doorbell(BulkChan* b);
  void flush_bulk() noexcept;  // bounded best-effort tx drain before BYE
  void say_bye() noexcept;
  [[nodiscard]] int track_open(int fd);   // fds_open++ passthrough
  void track_close(int fd) noexcept;      // close + fds_open--
  [[nodiscard]] std::string who() const;  // "rank R" for error texts

  int nranks_;
  int rank_;
  Options opt_;
  std::chrono::steady_clock::time_point epoch_;
  int epfd_ = -1;
  int listen_fd_ = -1;
  std::string listen_path_;              // our unix socket file (to unlink)
  std::vector<PeerAddr> peers_;          // listener table, by rank
  std::vector<Conn> conns_;              // by peer rank
  std::vector<BulkPair> bulk_;           // by peer rank
  std::vector<int> bulk_tx_pending_;     // peers whose primary has queued tx
  std::vector<int> bulk_rx_pending_;     // peers with budget-capped ring rx
  /// Landing buffers registered by bulk_post, keyed (src, cookie).
  std::map<std::pair<int, std::uint64_t>, std::pair<void*, std::size_t>>
      bulk_regs_;
  std::deque<ProtoMsg> arrivals_;  // parsed, FIFO per source
  Stats stats_;
  std::unique_ptr<Ep> ep_;
};

}  // namespace lcmpi::fabric
