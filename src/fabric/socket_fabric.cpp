#include "src/fabric/socket_fabric.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <thread>
#include <utility>

#include "src/util/env.h"

namespace lcmpi::fabric {
namespace {

using Clock = std::chrono::steady_clock;

// Dial patience: per-attempt backoff doubles from the floor to the cap
// until Options::dial_deadline runs out.
constexpr std::chrono::milliseconds kBackoffFloor{1};
constexpr std::chrono::milliseconds kBackoffCap{100};

// wait_activity's blocking epoll_wait slice, entered once the spin window
// below runs out. It bounds wakeup staleness only; arrivals interrupt it
// immediately.
constexpr int kPollSliceMs = 100;

// How long wait_activity polls (progress(0), then sched_yield) before it
// parks: a ping-pong's answer is usually in flight, and a cross-CPU wakeup
// from epoll_wait costs about half of an AF_UNIX round trip. Swept on the
// unix perfbench workload (4-vCPU Xeon KVM guest; EXPERIMENTS "Where the
// socket round trip waits"): the 8 B RTT is flat from 10 us up, and
// allreduce, bcast and heat2d keep improving up to about 100 us. An idle
// rank burns at most this per kPollSliceMs park, 0.1% of a CPU; the yield
// keeps oversubscribed worlds at parity.
constexpr std::chrono::microseconds kSpinWindow{100};

// Bytes one recv(2) takes: the control plane's receive buffer, and the
// stream bulk plane's sink for truncated payload bytes.
constexpr std::size_t kRxScratchBytes = 64 * 1024;

// Max bulk payload bytes moved per pump, each way: bounds how long a huge
// transfer can hold the progress loop between control-plane polls.
constexpr std::uint64_t kBulkChunkBytes = 256 << 10;

// Frame header behind the u32 length prefix. Full-width fields: this wire
// is private to the fabric, so nothing is squeezed into Table-1 widths.
struct FrameHeader {
  std::uint8_t kind = 0;  // MsgKind, or kByeKind for the goodbye record
  std::uint8_t mode = 0;
  std::int32_t tag = 0;
  std::uint32_t context = 0;
  std::uint32_t size = 0;
  std::uint32_t credit = 0;
  std::uint64_t sender_req = 0;
  std::uint64_t bulk_key = 0;
  std::uint64_t seq = 0;
};

// Clean-shutdown sentinel; never a live MsgKind (those start at 1).
constexpr std::uint8_t kByeKind = 0;

[[noreturn]] void die(const std::string& what) { throw FabricError(what); }

std::string errno_str() { return std::strerror(errno); }

void set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  LCMPI_CHECK(flags >= 0, "fcntl(F_GETFL) failed");
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  LCMPI_CHECK(::fcntl(fd, F_SETFL, want) == 0, "fcntl(F_SETFL) failed");
}

void set_cloexec(int fd) { (void)::fcntl(fd, F_SETFD, FD_CLOEXEC); }

/// Blocking full write during a handshake (EINTR-safe).
void write_all(int fd, const void* data, std::size_t n, const char* what) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd, p + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      die(std::string(what) + ": write failed: " + errno_str());
    }
    off += static_cast<std::size_t>(w);
  }
}

/// Blocking full read during the rendezvous (EINTR-safe; EOF is fatal —
/// a peer died mid-handshake).
void read_all(int fd, void* data, std::size_t n, const char* what) {
  auto* p = static_cast<unsigned char*>(data);
  std::size_t off = 0;
  while (off < n) {
    const ssize_t r = ::recv(fd, p + off, n - off, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      die(std::string(what) + ": read failed: " + errno_str());
    }
    if (r == 0) die(std::string(what) + ": peer closed during rendezvous");
    off += static_cast<std::size_t>(r);
  }
}

/// Bounded full read for post-accept handshakes: the dialer wrote its
/// Hello immediately after connect, so this returns promptly; the
/// deadline only guards against a dialer that died mid-handshake with
/// the connection still open. Works on blocking and nonblocking fds
/// (poll-first).
void read_all_within(int fd, void* data, std::size_t n,
                     Clock::time_point deadline, const char* what) {
  auto* p = static_cast<unsigned char*>(data);
  std::size_t off = 0;
  while (off < n) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) die(std::string(what) + ": handshake timed out");
    pollfd pf{fd, POLLIN, 0};
    const int rc = ::poll(&pf, 1, static_cast<int>(left.count()));
    if (rc < 0) {
      if (errno == EINTR) continue;
      die(std::string(what) + ": poll failed: " + errno_str());
    }
    if (rc == 0) continue;
    const ssize_t r = ::recv(fd, p + off, n - off, 0);
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      die(std::string(what) + ": read failed: " + errno_str());
    }
    if (r == 0) die(std::string(what) + ": peer closed during handshake");
    off += static_cast<std::size_t>(r);
  }
}

struct Addr {
  sockaddr_storage ss{};
  socklen_t len = 0;
  int family() const { return ss.ss_family; }
};

Addr unix_addr(const std::string& path) {
  Addr a;
  auto* sun = reinterpret_cast<sockaddr_un*>(&a.ss);
  sun->sun_family = AF_UNIX;
  LCMPI_CHECK(path.size() < sizeof(sun->sun_path), "AF_UNIX path too long");
  std::memcpy(sun->sun_path, path.c_str(), path.size() + 1);
  a.len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + path.size() + 1);
  return a;
}

/// `addr_be` is an IPv4 address in network byte order (as carried in the
/// Hello table and PeerAddr) — never implied loopback: the caller decides.
Addr inet_addr_port(std::uint32_t addr_be, std::uint16_t port) {
  Addr a;
  auto* sin = reinterpret_cast<sockaddr_in*>(&a.ss);
  sin->sin_family = AF_INET;
  sin->sin_port = htons(port);
  sin->sin_addr.s_addr = addr_be;
  a.len = sizeof(sockaddr_in);
  return a;
}

std::string ipv4_str(std::uint32_t addr_be) {
  char buf[INET_ADDRSTRLEN] = {};
  in_addr in{};
  in.s_addr = addr_be;
  (void)::inet_ntop(AF_INET, &in, buf, sizeof buf);
  return buf;
}

/// Resolves a hostname or dotted quad to an IPv4 address (network byte
/// order) via getaddrinfo(3). Empty means loopback — the single-box
/// default every pre-launcher caller relied on.
std::uint32_t resolve_ipv4(const std::string& host, const char* what) {
  if (host.empty()) return htonl(INADDR_LOOPBACK);
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), nullptr, &hints, &res);
  if (rc != 0 || res == nullptr) {
    die(std::string(what) + ": cannot resolve \"" + host +
        "\": " + ::gai_strerror(rc));
  }
  const std::uint32_t addr =
      reinterpret_cast<const sockaddr_in*>(res->ai_addr)->sin_addr.s_addr;
  ::freeaddrinfo(res);
  return addr;
}

/// The local IPv4 address of a connected socket — what the routing table
/// picked to reach the peer, i.e. the right NIC to advertise on a
/// multi-homed host.
std::uint32_t local_ipv4(int fd) {
  sockaddr_in sin{};
  socklen_t len = sizeof sin;
  LCMPI_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&sin), &len) == 0,
              "getsockname failed");
  return sin.sin_addr.s_addr;
}

/// Atomically publishes rank 0's "a.b.c.d:port" at `path` (temp + rename,
/// so a reader never sees a partial file).
void publish_rendezvous_file(const std::string& path, std::uint32_t addr_be,
                             std::uint16_t port) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) die("cannot write rendezvous file " + tmp);
    out << ipv4_str(addr_be) << ":" << port << "\n";
    if (!out) die("cannot write rendezvous file " + tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0)
    die("cannot publish rendezvous file " + path + ": " + errno_str());
}

/// One read attempt on the rendezvous file; false until rank 0 has
/// published it (atomic rename: existing means complete).
bool try_read_rendezvous_file(const std::string& path, std::uint32_t* addr_be,
                              std::uint16_t* port) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  if (!std::getline(in, line)) return false;
  const auto colon = line.rfind(':');
  if (colon == std::string::npos || colon + 1 >= line.size())
    die("malformed rendezvous file " + path + ": \"" + line + "\"");
  in_addr a{};
  if (::inet_pton(AF_INET, line.substr(0, colon).c_str(), &a) != 1)
    die("malformed rendezvous file " + path + ": \"" + line + "\"");
  long p = 0;
  try {
    p = env::parse_long("rendezvous file port", line.substr(colon + 1), 1, 65535);
  } catch (const env::EnvError& e) {
    die("malformed rendezvous file " + path + ": " + e.what());
  }
  *addr_be = a.s_addr;
  *port = static_cast<std::uint16_t>(p);
  return true;
}

int make_socket(int family) {
  const int fd = ::socket(family, SOCK_STREAM, 0);
  if (fd < 0) die("socket() failed: " + errno_str());
  set_cloexec(fd);
  if (family == AF_INET) {
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  return fd;
}

int bind_listener(const Addr& a) {
  const int fd = make_socket(a.family());
  if (a.family() == AF_INET) {
    const int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&a.ss), a.len) != 0)
    die("bind() failed: " + errno_str());
  if (::listen(fd, SOMAXCONN) != 0) die("listen() failed: " + errno_str());
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in sin{};
  socklen_t len = sizeof sin;
  LCMPI_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&sin), &len) == 0,
              "getsockname failed");
  return ntohs(sin.sin_port);
}

/// Accept with a deadline (bootstrap; poll() bounds a blocking listener).
int accept_within(int listen_fd, Clock::time_point deadline, const char* what) {
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) die(std::string(what) + ": rendezvous accept timed out");
    pollfd p{listen_fd, POLLIN, 0};
    const int rc = ::poll(&p, 1, static_cast<int>(left.count()));
    if (rc < 0) {
      if (errno == EINTR) continue;
      die(std::string(what) + ": poll failed: " + errno_str());
    }
    if (rc == 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EWOULDBLOCK)
        continue;
      die(std::string(what) + ": accept failed: " + errno_str());
    }
    set_cloexec(fd);
    return fd;
  }
}

// Identifies a dialing rank to whoever accepts the connection. `intent`
// separates bootstrap rendezvous dials (which carry the dialer's own
// listener address and are closed after the table exchange) from
// data-phase lazy dials; `channel` separates the framed control socket
// (0) from the bulk data socket (1).
struct Hello {
  std::uint32_t magic = 0x4c43'4d50;  // "LCMP"
  std::int32_t rank = -1;
  std::uint32_t addr = 0;             // kInet listener IPv4, network order
  std::uint16_t port = 0;             // kInet listener
  std::uint8_t channel = 0;
  std::uint8_t intent = 0;
  char unix_path[104] = {};           // kUnix listener
};
constexpr std::uint8_t kIntentBoot = 0;
constexpr std::uint8_t kIntentData = 1;

// Each bulk transfer is one 16-byte header then `size` raw payload bytes
// — no per-chunk framing on the entire data plane.
constexpr std::size_t kBulkHdrBytes = 16;
void put_bulk_hdr(unsigned char* p, std::uint64_t cookie, std::uint64_t size) {
  std::memcpy(p, &cookie, sizeof cookie);
  std::memcpy(p + sizeof cookie, &size, sizeof size);
}
void get_bulk_hdr(const unsigned char* p, std::uint64_t* cookie, std::uint64_t* size) {
  std::memcpy(cookie, p, sizeof *cookie);
  std::memcpy(size, p + sizeof *cookie, sizeof *size);
}

// Shared-ring control block: one producer counter and one consumer
// counter per direction, each on its own cache line, both monotonic (the
// ring index is counter % capacity). Lives in the memfd mapping, so the
// atomics synchronize across processes.
struct RingCtl {
  alignas(64) std::atomic<std::uint64_t> head;  // producer: bytes written
  alignas(64) std::atomic<std::uint64_t> tail;  // consumer: bytes read
};

// One direction of the shared ring, as seen by whichever side this is.
// Producer calls writable()/write(); consumer calls readable()/read()/
// discard(). The release store on the counter publishes the memcpy to
// the other process (acquire load on the far side).
struct RingView {
  RingCtl* ctl = nullptr;
  std::byte* data = nullptr;
  std::uint64_t cap = 0;

  [[nodiscard]] std::uint64_t writable() const {
    return cap - (ctl->head.load(std::memory_order_relaxed) -
                  ctl->tail.load(std::memory_order_acquire));
  }
  void write(const void* p, std::uint64_t n) {
    const std::uint64_t head = ctl->head.load(std::memory_order_relaxed);
    const std::uint64_t at = head % cap;
    const std::uint64_t first = std::min(n, cap - at);
    std::memcpy(data + at, p, first);
    if (n > first)
      std::memcpy(data, static_cast<const std::byte*>(p) + first, n - first);
    ctl->head.store(head + n, std::memory_order_release);
  }

  [[nodiscard]] std::uint64_t readable() const {
    return ctl->head.load(std::memory_order_acquire) -
           ctl->tail.load(std::memory_order_relaxed);
  }
  void read(void* p, std::uint64_t n) {
    const std::uint64_t tail = ctl->tail.load(std::memory_order_relaxed);
    const std::uint64_t at = tail % cap;
    const std::uint64_t first = std::min(n, cap - at);
    std::memcpy(p, data + at, first);
    if (n > first)
      std::memcpy(static_cast<std::byte*>(p) + first, data, n - first);
    ctl->tail.store(tail + n, std::memory_order_release);
  }
  void discard(std::uint64_t n) {  // truncated transfer: consume, drop
    ctl->tail.store(ctl->tail.load(std::memory_order_relaxed) + n,
                    std::memory_order_release);
  }
};

/// Passes one fd over an AF_UNIX socket (blocking; handshake only).
void send_fd(int sock, int fd, const char* what) {
  msghdr msg{};
  char token = 'F';
  iovec iov{&token, 1};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  alignas(cmsghdr) char ctl[CMSG_SPACE(sizeof(int))] = {};
  msg.msg_control = ctl;
  msg.msg_controllen = sizeof ctl;
  cmsghdr* cm = CMSG_FIRSTHDR(&msg);
  cm->cmsg_level = SOL_SOCKET;
  cm->cmsg_type = SCM_RIGHTS;
  cm->cmsg_len = CMSG_LEN(sizeof(int));
  std::memcpy(CMSG_DATA(cm), &fd, sizeof(int));
  for (;;) {
    const ssize_t n = ::sendmsg(sock, &msg, MSG_NOSIGNAL);
    if (n >= 0) return;
    if (errno == EINTR) continue;
    die(std::string(what) + ": fd pass failed: " + errno_str());
  }
}

[[nodiscard]] int recv_fd(int sock, const char* what) {
  msghdr msg{};
  char token = 0;
  iovec iov{&token, 1};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  alignas(cmsghdr) char ctl[CMSG_SPACE(sizeof(int))] = {};
  msg.msg_control = ctl;
  msg.msg_controllen = sizeof ctl;
  for (;;) {
    const ssize_t n = ::recvmsg(sock, &msg, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      die(std::string(what) + ": fd receive failed: " + errno_str());
    }
    if (n == 0) die(std::string(what) + ": peer closed during fd pass");
    break;
  }
  const cmsghdr* cm = CMSG_FIRSTHDR(&msg);
  LCMPI_CHECK(cm != nullptr && cm->cmsg_level == SOL_SOCKET &&
                  cm->cmsg_type == SCM_RIGHTS &&
                  cm->cmsg_len == CMSG_LEN(sizeof(int)),
              "fd pass: no SCM_RIGHTS attached");
  int fd = -1;
  std::memcpy(&fd, CMSG_DATA(cm), sizeof(int));
  return fd;
}

}  // namespace

// ----------------------------------------------------------- bulk channel

/// Everything one bulk connection owns: the dedicated socket, the
/// optional memfd ring mapping, and both transfer state machines. A pair
/// has one channel per dial direction (usually just one; two after a
/// cross-dial race) — this rank transmits only on the pair's `tx`
/// channel and receives on any.
struct SocketFabric::BulkChan {
  int fd = -1;
  bool closed = false;
  bool dialer = false;  // we initiated this connection (own ring A)
  bool out_armed = false;   // EPOLLOUT armed (stream tx blocked)
  bool tx_listed = false;   // peer is in bulk_tx_pending_
  bool rx_listed = false;   // ring data left unconsumed by a budget cap
  void* map_base = nullptr;  // non-null: memfd rings (AF_UNIX)
  std::size_t map_len = 0;
  RingView tx_ring, rx_ring;
  [[nodiscard]] bool use_ring() const { return map_base != nullptr; }

  /// The memfd holds one {RingCtl, `ring` data bytes} half per direction.
  static std::size_t map_bytes(std::size_t ring) {
    return 2 * (sizeof(RingCtl) + ring);
  }
  /// Maps both rings. Ring A carries dialer->acceptor traffic, ring B the
  /// reverse.
  void map_rings(int mfd, std::size_t ring, const std::string& who) {
    const std::size_t len = map_bytes(ring);
    void* base = ::mmap(nullptr, len, PROT_READ | PROT_WRITE, MAP_SHARED, mfd, 0);
    if (base == MAP_FAILED) die(who + ": mmap(memfd) failed: " + errno_str());
    map_base = base;
    map_len = len;
    auto* raw = static_cast<std::byte*>(base);
    const RingView a{reinterpret_cast<RingCtl*>(raw), raw + sizeof(RingCtl), ring};
    const RingView b{reinterpret_cast<RingCtl*>(raw + sizeof(RingCtl) + ring),
                     raw + 2 * sizeof(RingCtl) + ring, ring};
    tx_ring = dialer ? a : b;
    rx_ring = dialer ? b : a;
  }

  // Transmit side: FIFO of transfers; head-of-queue progresses in
  // bounded chunks. `data` points into the engine's send buffer, valid
  // until the kBulkSent note (the MPI contract for send completion).
  struct Tx {
    std::uint64_t cookie = 0;
    const std::byte* data = nullptr;
    std::uint64_t size = 0;
    std::uint64_t off = 0;  // payload bytes handed to ring/kernel
    unsigned char hdr[kBulkHdrBytes];
    std::uint64_t hdr_off = 0;
  };
  std::deque<Tx> txq;

  // Receive side: one transfer at a time (the plane is a FIFO stream).
  unsigned char rhdr[kBulkHdrBytes];
  std::uint64_t rhdr_got = 0;
  bool in_transfer = false;
  std::uint64_t rx_cookie = 0;
  std::uint64_t rx_size = 0;
  std::uint64_t rx_got = 0;
  std::byte* rx_dst = nullptr;  // registered landing buffer
  std::uint64_t rx_cap = 0;     // bytes past this are consumed and dropped

  ~BulkChan() {
    if (map_base != nullptr) ::munmap(map_base, map_len);
    if (fd >= 0) ::close(fd);
  }
};

// -------------------------------------------------------------- endpoint

class SocketFabric::Ep final : public Endpoint {
 public:
  Ep(SocketFabric& f, int rank) : Endpoint(f, rank), owner_(f) {}

  [[nodiscard]] TimePoint now() const override { return owner_.wall_now(); }

  void send(sim::Actor&, int dst, ProtoMsg msg) override {
    msg.src = rank_;
    owner_.send_frame(dst, msg);
  }

  std::optional<ProtoMsg> poll(sim::Actor&) override {
    // One nonblocking epoll_wait serves every ready socket — accepting
    // inbound dials, parsing control frames, and moving a bounded chunk
    // of any in-flight bulk transfer (which is what keeps a 64 MiB push
    // from starving control traffic). Idle pairs cost nothing.
    if (owner_.arrivals_.empty()) (void)owner_.progress(0);
    if (owner_.arrivals_.empty()) return std::nullopt;
    ProtoMsg m = std::move(owner_.arrivals_.front());
    owner_.arrivals_.pop_front();
    return m;
  }

  void wait_activity(sim::Actor&) override {
    if (!owner_.arrivals_.empty()) return;
    // Spin before parking, as ShmFabric does: nonblocking progress passes
    // (which also move any bulk transfer that can progress) until one
    // moves something or the window runs out. The yield lets a peer that
    // shares this CPU run instead of being starved by the spin.
    const auto until = Clock::now() + kSpinWindow;
    do {
      if (owner_.progress(0)) return;
      (void)::sched_yield();
    } while (Clock::now() < until);
    owner_.stats_.idle_polls++;
    (void)owner_.progress(kPollSliceMs);
  }

  // --- bulk plane ---------------------------------------------------------

  [[nodiscard]] bool bulk_plane(int peer) const override { return peer != rank_; }

  void bulk_post(int src, std::uint64_t cookie, void* dst,
                 std::size_t capacity) override {
    owner_.bulk_regs_[{src, cookie}] = {dst, capacity};
  }

  void bulk_send(sim::Actor&, int dst, std::uint64_t cookie, const void* data,
                 std::size_t size) override {
    owner_.bulk_queue(dst, cookie, data, size);
  }

  /// Single-threaded process: nothing can be blocked in wait_activity
  /// while this runs, so there is nobody to wake.
  void wake() override {}

 private:
  SocketFabric& owner_;
};

// ---------------------------------------------------------------- fabric

SocketFabric::SocketFabric(int nranks, int rank, const Rendezvous& rdv, Options opt)
    : Fabric(opt.caps, opt.costs),
      nranks_(nranks),
      rank_(rank),
      opt_(opt),
      epoch_(Clock::now()),
      rx_scratch_(std::make_unique_for_overwrite<std::byte[]>(kRxScratchBytes)) {
  LCMPI_CHECK(nranks > 0, "SocketFabric needs at least one rank");
  LCMPI_CHECK(rank >= 0 && rank < nranks, "rank out of range");
  size_credit_window(caps_, nranks);
  peers_.resize(static_cast<std::size_t>(nranks));
  conns_.resize(static_cast<std::size_t>(nranks));
  bulk_.resize(static_cast<std::size_t>(nranks));
  ep_ = std::make_unique<Ep>(*this, rank);
  epfd_ = track_open(::epoll_create1(EPOLL_CLOEXEC));
  if (epfd_ < 0) die(who() + ": epoll_create1 failed: " + errno_str());
  try {
    bootstrap(rdv);
  } catch (...) {
    for (Conn& c : conns_) {
      if (c.a.fd >= 0) ::close(c.a.fd);
      if (c.b.fd >= 0) ::close(c.b.fd);
    }
    bulk_.clear();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (!listen_path_.empty()) (void)::unlink(listen_path_.c_str());
    ::close(epfd_);
    throw;
  }
}

SocketFabric::~SocketFabric() {
  flush_bulk();
  say_bye();
  for (Conn& c : conns_) {
    close_link(c.a);
    close_link(c.b);
  }
  bulk_.clear();  // BulkChan dtors close bulk fds and unmap rings
  if (listen_fd_ >= 0) track_close(listen_fd_);
  listen_fd_ = -1;
  if (!listen_path_.empty()) (void)::unlink(listen_path_.c_str());
  if (epfd_ >= 0) track_close(epfd_);
  epfd_ = -1;
}

SocketFabric SocketFabric::from_env(Options opt) {
  // Strict parsing throughout: a typo'd LCMPI_RANK must not silently
  // become rank 0 (two processes claiming rank 0 is a rendezvous
  // collision, diagnosed nowhere near the actual mistake). nranks first —
  // the rank range depends on it.
  const long nranks = env::require_long("LCMPI_NRANKS", 1, INT32_MAX);
  const long rank = env::require_long("LCMPI_RANK", 0, nranks - 1);
  Rendezvous rdv;
  const char* dir = std::getenv("LCMPI_SOCKET_DIR");
  const char* port = std::getenv("LCMPI_PORT");
  const char* file = std::getenv("LCMPI_RENDEZVOUS_FILE");
  const char* root = std::getenv("LCMPI_ROOT_ADDR");
  if (dir != nullptr) {
    // AF_UNIX; takes precedence over any inet variable.
    opt.domain = Domain::kUnix;
    rdv.unix_dir = dir;
    // Validate the longest socket path this world will ever build NOW,
    // with the variable named — not at the first lazy dial deep inside
    // unix_addr(), minutes into a run.
    const std::string worst =
        rdv.unix_dir + "/rank-" + std::to_string(nranks - 1) + ".sock";
    const std::size_t limit = sizeof(sockaddr_un{}.sun_path);
    if (std::max(worst.size(), rdv.unix_dir.size() + sizeof("/rendezvous.sock") - 1) >= limit) {
      throw env::EnvError("LCMPI_SOCKET_DIR=\"" + rdv.unix_dir +
                          "\" is too long: socket path \"" + worst +
                          "\" must stay under " + std::to_string(limit) +
                          " bytes (sun_path)");
    }
  } else if (port != nullptr || file != nullptr || root != nullptr) {
    opt.domain = Domain::kInet;
    if (file != nullptr) rdv.rendezvous_file = file;
    if (root != nullptr) {
      // "host" or "host:port" (IPv4 / hostname; resolved at bootstrap).
      const std::string spec = root;
      const auto colon = spec.rfind(':');
      if (colon != std::string::npos) {
        rdv.root_host = spec.substr(0, colon);
        rdv.port = env::parse_port("LCMPI_ROOT_ADDR", spec.substr(colon + 1));
      } else {
        rdv.root_host = spec;
      }
    }
    if (port != nullptr) rdv.port = env::parse_port("LCMPI_PORT", port);
    if (rdv.port == 0 && rdv.rendezvous_file.empty()) {
      throw env::EnvError(
          "LCMPI_ROOT_ADDR=\"" + rdv.root_host +
          "\" names no port and neither LCMPI_PORT nor "
          "LCMPI_RENDEZVOUS_FILE is set — peers cannot find rank 0");
    }
    if (const char* bind = std::getenv("LCMPI_BIND_ADDR")) rdv.bind_host = bind;
    if (const char* adv = std::getenv("LCMPI_ADDR")) rdv.advertise_host = adv;
  } else {
    throw env::EnvError(
        "no rendezvous configured: set LCMPI_SOCKET_DIR (AF_UNIX) or "
        "LCMPI_PORT / LCMPI_RENDEZVOUS_FILE / LCMPI_ROOT_ADDR (AF_INET)");
  }
  return SocketFabric(static_cast<int>(nranks), static_cast<int>(rank), rdv,
                      opt);
}

Endpoint& SocketFabric::endpoint(int rank) {
  LCMPI_CHECK(rank == rank_,
              "SocketFabric holds only the local rank's endpoint (one process per rank)");
  return *ep_;
}

TimePoint SocketFabric::wall_now() const {
  return TimePoint{std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - epoch_)
                       .count()};
}

std::string SocketFabric::who() const { return "rank " + std::to_string(rank_); }

int SocketFabric::track_open(int fd) {
  if (fd >= 0) stats_.fds_open++;
  return fd;
}

void SocketFabric::track_close(int fd) noexcept {
  if (fd >= 0) {
    ::close(fd);
    stats_.fds_open--;
  }
}

void SocketFabric::epoll_add(int fd, FdKind kind, int peer) {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = (static_cast<std::uint64_t>(kind) << 32) |
                static_cast<std::uint32_t>(peer);
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0)
    die(who() + ": epoll_ctl(ADD) failed: " + errno_str());
}

void SocketFabric::epoll_arm_out(int fd, FdKind kind, int peer, bool on) {
  epoll_event ev{};
  ev.events = EPOLLIN | (on ? EPOLLOUT : 0);
  ev.data.u64 = (static_cast<std::uint64_t>(kind) << 32) |
                static_cast<std::uint32_t>(peer);
  if (::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) != 0)
    die(who() + ": epoll_ctl(MOD) failed: " + errno_str());
}

// ------------------------------------------------------------- bootstrap

void SocketFabric::bootstrap(const Rendezvous& rdv) {
  if (nranks_ == 1) return;  // self-sends never touch the fabric
  const bool unix_domain = opt_.domain == Domain::kUnix;
  LCMPI_CHECK(!unix_domain || !rdv.unix_dir.empty(), "kUnix needs a socket directory");
  LCMPI_CHECK(unix_domain || rdv.port != 0 || !rdv.rendezvous_file.empty(),
              "kInet needs a rendezvous port or file");

  const auto deadline = Clock::now() + opt_.dial_deadline;
  const std::string r0_path = unix_domain ? rdv.unix_dir + "/rendezvous.sock" : "";
  const auto rank_path = [&](int r) {
    return rdv.unix_dir + "/rank-" + std::to_string(r) + ".sock";
  };

  // kInet addressing. With no explicit addressing fields the fabric keeps
  // its original single-box behavior: bind and dial 127.0.0.1. Any
  // explicit field switches listeners to bind_host/INADDR_ANY and makes
  // every rank advertise a real address in its Hello.
  const bool explicit_inet =
      !unix_domain &&
      (!rdv.root_host.empty() || !rdv.bind_host.empty() ||
       !rdv.advertise_host.empty() || !rdv.rendezvous_file.empty());
  const std::uint32_t bind_be =
      unix_domain ? 0
      : !rdv.bind_host.empty()
          ? resolve_ipv4(rdv.bind_host, "LCMPI_BIND_ADDR")
          : htonl(explicit_inet ? INADDR_ANY : INADDR_LOOPBACK);

  // The rendezvous exchanges listener addresses ONLY. Data connections
  // are dialed lazily on first send, so rank 0's rendezvous listener
  // must survive the whole run (lazy dials to rank 0 land on it), as
  // must every other rank's listener from the table.
  std::vector<Hello> hellos(static_cast<std::size_t>(nranks_));
  if (rank_ == 0) {
    listen_fd_ = track_open(bind_listener(
        unix_domain ? unix_addr(r0_path) : inet_addr_port(bind_be, rdv.port)));
    if (unix_domain) listen_path_ = r0_path;
    Hello& me = hellos[0];
    me.rank = 0;
    if (unix_domain) {
      LCMPI_CHECK(r0_path.size() < sizeof(me.unix_path), "unix path too long");
      std::memcpy(me.unix_path, r0_path.c_str(), r0_path.size() + 1);
    } else {
      // Rank 0 cannot learn its own dialable address from its (possibly
      // wildcard) listener; it comes from the launcher: LCMPI_ADDR, else
      // LCMPI_ROOT_ADDR, else loopback (same-host worlds).
      me.addr = !rdv.advertise_host.empty()
                    ? resolve_ipv4(rdv.advertise_host, "LCMPI_ADDR")
                : !rdv.root_host.empty()
                    ? resolve_ipv4(rdv.root_host, "LCMPI_ROOT_ADDR")
                    : htonl(INADDR_LOOPBACK);
      me.port = local_port(listen_fd_);
      if (!rdv.rendezvous_file.empty())
        publish_rendezvous_file(rdv.rendezvous_file, me.addr, me.port);
    }
    // Collect all n-1 bootstrap hellos, then broadcast the table and
    // close the rendezvous connections — they carried addresses, not
    // data. (No data dial can arrive before the table is out: every
    // other rank blocks reading it before its data phase starts.)
    std::vector<int> boot(static_cast<std::size_t>(nranks_), -1);
    for (int got = 0; got < nranks_ - 1; ++got) {
      const int fd = accept_within(listen_fd_, deadline, "rank 0");
      Hello h;
      read_all(fd, &h, sizeof h, "rank 0");
      LCMPI_CHECK(h.magic == Hello{}.magic, "bad rendezvous hello");
      LCMPI_CHECK(h.intent == kIntentBoot && h.channel == 0,
                  "data dial before the address table was broadcast");
      LCMPI_CHECK(h.rank > 0 && h.rank < nranks_, "rendezvous rank out of range");
      LCMPI_CHECK(boot[static_cast<std::size_t>(h.rank)] < 0,
                  "duplicate rendezvous hello");
      boot[static_cast<std::size_t>(h.rank)] = fd;
      hellos[static_cast<std::size_t>(h.rank)] = h;
    }
    for (int r = 1; r < nranks_; ++r) {
      write_all(boot[static_cast<std::size_t>(r)], hellos.data(),
                sizeof(Hello) * static_cast<std::size_t>(nranks_), "rank 0");
      ::close(boot[static_cast<std::size_t>(r)]);
    }
  } else {
    // Bind our own listener first so the table can point at it.
    Hello mine;
    mine.rank = rank_;
    if (unix_domain) {
      const std::string path = rank_path(rank_);
      (void)::unlink(path.c_str());
      listen_fd_ = track_open(bind_listener(unix_addr(path)));
      listen_path_ = path;
      LCMPI_CHECK(path.size() < sizeof(mine.unix_path), "unix path too long");
      std::memcpy(mine.unix_path, path.c_str(), path.size() + 1);
    } else {
      listen_fd_ = track_open(bind_listener(inet_addr_port(bind_be, 0)));
      mine.port = local_port(listen_fd_);
    }
    // Find rank 0: a published rendezvous file (poll until it appears —
    // rank 0 may not have bound yet), or the configured root address.
    PeerAddr r0;
    r0.port = rdv.port;
    r0.unix_path = r0_path;
    if (!unix_domain) {
      if (!rdv.rendezvous_file.empty()) {
        auto backoff = kBackoffFloor;
        while (!try_read_rendezvous_file(rdv.rendezvous_file, &r0.addr, &r0.port)) {
          if (Clock::now() >= deadline)
            die(who() + ": rendezvous file " + rdv.rendezvous_file +
                " never appeared — rank 0 never came up");
          std::this_thread::sleep_for(backoff);
          backoff = std::min(backoff * 2, kBackoffCap);
          stats_.dial_retries++;
        }
      } else {
        r0.addr = resolve_ipv4(rdv.root_host, "LCMPI_ROOT_ADDR");
      }
    }
    // Dial rank 0 (retrying — it may not have bound yet), introduce
    // ourselves, learn everyone's listener, hang up.
    const int fd = dial(r0, "rank 0 rendezvous", deadline);
    stats_.fds_open--;  // transient: closed right after the table read
    if (!unix_domain) {
      // Our dialable address: LCMPI_ADDR when configured, else whatever
      // source address the kernel routed this very connection from — on a
      // multi-homed host that is exactly the NIC rank 0 (and transitively
      // every peer on its side) can reach us on. Legacy same-box worlds
      // keep advertising loopback.
      mine.addr = !rdv.advertise_host.empty()
                      ? resolve_ipv4(rdv.advertise_host, "LCMPI_ADDR")
                  : explicit_inet ? local_ipv4(fd)
                                  : htonl(INADDR_LOOPBACK);
    }
    write_all(fd, &mine, sizeof mine, who().c_str());
    read_all(fd, hellos.data(), sizeof(Hello) * static_cast<std::size_t>(nranks_),
             who().c_str());
    ::close(fd);
  }

  for (int r = 0; r < nranks_; ++r) {
    const Hello& h = hellos[static_cast<std::size_t>(r)];
    LCMPI_CHECK(r == rank_ || h.rank == r, "rendezvous table incomplete");
    PeerAddr& p = peers_[static_cast<std::size_t>(r)];
    p.addr = h.addr;
    p.port = h.port;
    p.unix_path.assign(h.unix_path,
                       ::strnlen(h.unix_path, sizeof h.unix_path));
  }

  // Data phase: the listener joins the epoll set, nonblocking, and every
  // connection from here on is dialed on demand.
  set_nonblocking(listen_fd_, true);
  epoll_add(listen_fd_, FdKind::kListen, rank_);
}

int SocketFabric::dial(const PeerAddr& to, const std::string& label,
                       Clock::time_point deadline) {
  const bool unix_domain = opt_.domain == Domain::kUnix;
  const Addr addr =
      unix_domain ? unix_addr(to.unix_path)
                  : inet_addr_port(
                        to.addr != 0 ? to.addr : htonl(INADDR_LOOPBACK),
                        to.port);
  auto backoff = kBackoffFloor;
  bool first = true;
  for (;;) {
    const int fd = make_socket(addr.family());
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr.ss), addr.len) == 0)
      return track_open(fd);
    const int err = errno;
    ::close(fd);
    const bool retryable = err == ECONNREFUSED || err == ENOENT || err == EAGAIN ||
                           err == ETIMEDOUT || err == EINTR || err == ECONNRESET;
    if (!retryable)
      die(who() + ": connect to " + label + " failed: " + std::strerror(err));
    if (Clock::now() >= deadline)
      die(who() + ": connect to " + label + " timed out (" +
          std::strerror(err) + ") — peer never came up");
    if (!first) stats_.dial_retries++;
    first = false;
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, kBackoffCap);
  }
}

// ---------------------------------------------------- lazy connections

SocketFabric::Conn& SocketFabric::ensure_conn(int peer) {
  Conn& c = conns_[static_cast<std::size_t>(peer)];
  if (c.any_open() || c.bye_seen || c.dead) return c;
  // The peer may have dialed us already — its connection could be
  // sitting in the listen backlog. Adopt it before dialing a second
  // socket for the same pair.
  accept_pending();
  if (c.any_open()) return c;
  const std::string label = "rank " + std::to_string(peer);
  const int fd = dial(peers_[static_cast<std::size_t>(peer)], label,
                      Clock::now() + opt_.dial_deadline);
  Hello h;
  h.rank = rank_;
  h.channel = 0;
  h.intent = kIntentData;
  write_all(fd, &h, sizeof h, (who() + ": dial to " + label).c_str());
  set_nonblocking(fd, true);
  c.a.fd = fd;
  epoll_add(fd, FdKind::kCtlA, peer);
  stats_.lazy_dials++;
  if (!c.connected) {
    c.connected = true;
    stats_.pairs_connected++;
  }
  return c;
}

void SocketFabric::accept_pending() {
  if (listen_fd_ < 0) return;
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      die(who() + ": accept failed: " + errno_str());
    }
    set_cloexec(fd);
    (void)track_open(fd);
    // The dialer wrote its Hello immediately after connect; the bounded
    // read identifies which rank (and which channel) this socket is.
    Hello h;
    read_all_within(fd, &h, sizeof h, Clock::now() + opt_.dial_deadline,
                    who().c_str());
    LCMPI_CHECK(h.magic == Hello{}.magic, "bad data-phase hello");
    LCMPI_CHECK(h.intent == kIntentData, "bootstrap hello on the data phase");
    LCMPI_CHECK(h.rank >= 0 && h.rank < nranks_ && h.rank != rank_,
                "data-phase hello rank out of range");
    if (h.channel == 0)
      file_control(h.rank, fd);
    else
      file_bulk_accept(h.rank, fd);
  }
}

void SocketFabric::file_control(int peer, int fd) {
  Conn& c = conns_[static_cast<std::size_t>(peer)];
  if (c.bye_seen || c.dead) {  // stale dial from a pair already concluded
    track_close(fd);
    return;
  }
  set_nonblocking(fd, true);
  if (c.a.fd < 0 && !c.b_existed) {
    // First connection for this pair: it is the primary — full duplex,
    // and our TX if we ever send.
    c.a.fd = fd;
    epoll_add(fd, FdKind::kCtlA, peer);
  } else {
    // Cross-dial race: we already dialed (and adopted our dial as
    // primary) while the peer's dial was in flight. The accepted socket
    // becomes the secondary, receive-only link — the peer transmits on
    // the connection IT dialed, we transmit on ours, and neither ever
    // switches, so per-direction FIFO holds.
    LCMPI_CHECK(!c.b_existed && c.b.fd < 0, "third control connection for one pair");
    c.b.fd = fd;
    c.b_existed = true;
    epoll_add(fd, FdKind::kCtlB, peer);
  }
  if (!c.connected) {
    c.connected = true;
    stats_.pairs_connected++;
  }
}

// ------------------------------------------------------- progress engine

bool SocketFabric::progress(int timeout_ms) {
  bool made = false;
  std::array<epoll_event, 64> evs;
  int nev;
  do {
    nev = ::epoll_wait(epfd_, evs.data(), static_cast<int>(evs.size()), timeout_ms);
  } while (nev < 0 && errno == EINTR);
  if (nev < 0) die(who() + ": epoll_wait failed: " + errno_str());
  if (nev > 0) stats_.epoll_wakeups++;
  for (int i = 0; i < nev; ++i) {
    const std::uint64_t tag = evs[static_cast<std::size_t>(i)].data.u64;
    const auto kind = static_cast<FdKind>(tag >> 32);
    const int peer = static_cast<int>(tag & 0xffff'ffff);
    const std::uint32_t events = evs[static_cast<std::size_t>(i)].events;
    switch (kind) {
      case FdKind::kListen:
        accept_pending();
        made = true;
        break;
      case FdKind::kCtlA:
      case FdKind::kCtlB: {
        Conn& c = conns_[static_cast<std::size_t>(peer)];
        Link& l = kind == FdKind::kCtlA ? c.a : c.b;
        // Writability is activity too: a blocked send_frame armed
        // EPOLLOUT and is waiting in this very loop to retry.
        if ((events & EPOLLOUT) != 0) made = true;
        if (l.fd >= 0) made = pump_link(peer, l) || made;
        break;
      }
      case FdKind::kBulkA:
      case FdKind::kBulkB: {
        BulkPair& bp = bulk_[static_cast<std::size_t>(peer)];
        BulkChan* b = (kind == FdKind::kBulkA ? bp.a : bp.b).get();
        if ((events & EPOLLOUT) != 0) made = true;
        if (b != nullptr && !b->closed) made = pump_bulk(peer, b) || made;
        break;
      }
    }
  }
  // Keep chunked transfers flowing even when no fd fired (ring space
  // already available, fresh txq entries) and finish budget-capped ring
  // drains — control events above were handled first, which is the point
  // of the cap.
  made = pump_bulk_tx_pending() || made;
  made = pump_bulk_rx_pending() || made;
  return made;
}

// ---------------------------------------------------------- control plane

void SocketFabric::send_frame(int peer, const ProtoMsg& msg) {
  LCMPI_CHECK(peer >= 0 && peer < nranks_ && peer != rank_, "bad destination");
  // Eager sends complete locally, so a peer may finish, say goodbye and
  // close while we still owe it credit for messages we have yet to
  // consume. Such a flow-control return is dropped, whether the goodbye
  // is already parsed or the write fails on the closed socket; the
  // receive side judges a real death (EOF without a goodbye).
  const bool flow_return = is_flow_return(msg.kind);
  Conn& c = ensure_conn(peer);
  if (flow_return && (c.dead || c.bye_seen || c.a.fd < 0)) return;
  if (c.dead || c.bye_seen || c.a.fd < 0)
    die(who() + ": send to rank " + std::to_string(peer) + " after it " +
        (c.bye_seen ? "finished" : "died"));

  const Bytes frame = encode_frame(msg);
  const auto* p = reinterpret_cast<const unsigned char*>(frame.data());
  std::size_t off = 0;
  while (off < frame.size()) {
    if (c.a.fd < 0) {
      if (flow_return) return;
      die(who() + ": rank " + std::to_string(peer) + " died mid-send");
    }
    const ssize_t n = ::send(c.a.fd, p + off, frame.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Kernel buffer full: transport backpressure. Drain whatever is
      // ready (the peer may be blocked writing to us — send/send
      // deadlock otherwise, since the engine only polls between fabric
      // calls). If nothing is ready, arm EPOLLOUT and wait for real
      // writability instead of spinning on a 1 ms retry clock.
      stats_.send_stalls++;
      if (progress(0)) continue;  // inbound drained; buffer may have cleared
      if (!c.a.out_armed) {
        epoll_arm_out(c.a.fd, FdKind::kCtlA, peer, true);
        c.a.out_armed = true;
      }
      (void)progress(kPollSliceMs);
      continue;
    }
    if (flow_return) return;
    die(who() + ": rank " + std::to_string(peer) + " died mid-send (" +
        (n < 0 ? errno_str() : "connection closed") + ")");
  }
  if (c.a.out_armed && c.a.fd >= 0) {
    epoll_arm_out(c.a.fd, FdKind::kCtlA, peer, false);
    c.a.out_armed = false;
  }
  stats_.messages_tx++;
  stats_.bytes_tx += frame.size();
}

void SocketFabric::close_link(Link& l) noexcept {
  if (l.fd >= 0) {
    track_close(l.fd);  // closing also removes it from the epoll set
    l.fd = -1;
    l.out_armed = false;
  }
}

bool SocketFabric::pump_link(int peer, Link& l) {
  if (l.fd < 0) return false;
  Conn& c = conns_[static_cast<std::size_t>(peer)];
  bool any = false;
  std::byte* const buf = rx_scratch_.get();
  for (;;) {
    const ssize_t n = ::recv(l.fd, buf, kRxScratchBytes, 0);
    if (n > 0) {
      l.rx.insert(l.rx.end(), buf, buf + n);
      stats_.bytes_rx += static_cast<std::uint64_t>(n);
      any = true;
      if (static_cast<std::size_t>(n) < kRxScratchBytes) break;  // drained for now
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // EOF or hard error: classify. The verdict belongs to the peer's TX
    // link (the secondary if a cross-dial created one, else the shared
    // primary): a BYE precedes a clean close there, so EOF without one —
    // after salvaging any complete frames — is a death. EOF on our
    // TX-only link while the peer's TX link is still open stays quiet;
    // the verdict arrives on the other socket.
    const std::string detail = n < 0 ? errno_str() : "EOF without goodbye";
    close_link(l);
    if (!l.rx.empty()) parse_link(peer, l);  // salvage complete frames
    if (c.bye_seen) return any;
    Link& peer_tx = c.b_existed ? c.b : c.a;
    if (&l == &peer_tx || !c.any_open()) {
      c.dead = true;
      die(who() + ": rank " + std::to_string(peer) + " died (" + detail + ")");
    }
    return any;
  }
  if (any) parse_link(peer, l);
  return any;
}

Bytes SocketFabric::encode_frame(const ProtoMsg& msg) {
  FrameHeader h;
  h.kind = static_cast<std::uint8_t>(msg.kind);
  h.mode = msg.mode;
  h.tag = msg.tag;
  h.context = msg.context;
  h.size = msg.size;
  h.credit = msg.credit;
  h.sender_req = msg.sender_req;
  h.bulk_key = msg.bulk_key;
  h.seq = msg.seq;
  Bytes frame;
  ByteWriter w(frame);
  w.put(static_cast<std::uint32_t>(sizeof(FrameHeader) + msg.payload.size()));
  w.put(h);
  w.put_bytes(msg.payload.data(), msg.payload.size());
  return frame;
}

namespace {

/// Why no sender could have written a frame of `len` bytes with header
/// `h`, or nullopt if one could. Only what the engine sends over this
/// fabric passes: envelope-only kinds carry no payload, eager and RMA
/// frames carry exactly their `size` (win.cpp sets it to the payload's),
/// and an eager payload fits the credit window.
std::optional<std::string> bad_frame(std::uint32_t len, const FrameHeader& h,
                                     std::int64_t max_eager) {
  const std::uint64_t payload = len - sizeof(FrameHeader);
  const auto says = [&](const std::string& what) {
    return "length " + std::to_string(len) + " for " + what;
  };
  switch (h.kind) {
    case kByeKind:
    case static_cast<std::uint8_t>(MsgKind::kRts):
    case static_cast<std::uint8_t>(MsgKind::kCts):
    case static_cast<std::uint8_t>(MsgKind::kCredit):
    case static_cast<std::uint8_t>(MsgKind::kSlotFree):
    case static_cast<std::uint8_t>(MsgKind::kSsendAck):
      if (payload != 0) return says("an envelope-only frame of kind " + std::to_string(h.kind));
      return std::nullopt;
    case static_cast<std::uint8_t>(MsgKind::kEager):
      if (payload != h.size) return says("a " + std::to_string(h.size) + " B eager message");
      if (static_cast<std::int64_t>(h.size) > max_eager)
        return "a " + std::to_string(h.size) + " B eager message, more than the " +
               std::to_string(max_eager) + " B the credit window admits";
      return std::nullopt;
    case static_cast<std::uint8_t>(MsgKind::kRmaPut):
    case static_cast<std::uint8_t>(MsgKind::kRmaGet):
    case static_cast<std::uint8_t>(MsgKind::kRmaGetReply):
    case static_cast<std::uint8_t>(MsgKind::kRmaAcc):
      if (payload != h.size) return says("a " + std::to_string(h.size) + " B RMA frame");
      return std::nullopt;
    default:
      return "kind " + std::to_string(h.kind) + ", which this fabric never sends";
  }
}

}  // namespace

SocketFabric::Parsed SocketFabric::parse_frames(const Bytes& rx, int rank, int peer,
                                                std::int64_t max_eager,
                                                std::deque<ProtoMsg>& out) {
  const auto corrupt = [&](const std::string& why) {
    throw FabricError("rank " + std::to_string(rank) + ": corrupt frame from rank " +
                      std::to_string(peer) + ": " + why);
  };
  Parsed got;
  std::size_t pos = 0;
  while (rx.size() - pos >= sizeof(std::uint32_t)) {
    std::uint32_t len = 0;
    std::memcpy(&len, rx.data() + pos, sizeof len);
    if (len < sizeof(FrameHeader))
      corrupt("length " + std::to_string(len) + " is shorter than a header");
    if (rx.size() - pos - sizeof len < sizeof(FrameHeader)) break;  // partial header
    FrameHeader h;
    std::memcpy(&h, rx.data() + pos + sizeof len, sizeof h);
    if (const std::optional<std::string> why = bad_frame(len, h, max_eager)) corrupt(*why);
    if (rx.size() - pos - sizeof len < len) break;  // partial payload
    const std::size_t payload_at = pos + sizeof len + sizeof h;
    const std::size_t payload_len = len - sizeof h;
    if (h.kind == kByeKind) {
      got.bye = true;
    } else {
      ProtoMsg m;
      m.kind = static_cast<MsgKind>(h.kind);
      m.src = peer;
      m.mode = h.mode;
      m.tag = h.tag;
      m.context = h.context;
      m.size = h.size;
      m.credit = h.credit;
      m.sender_req = h.sender_req;
      m.bulk_key = h.bulk_key;
      m.seq = h.seq;
      if (payload_len > 0)
        m.payload.assign(rx.begin() + static_cast<std::ptrdiff_t>(payload_at),
                         rx.begin() + static_cast<std::ptrdiff_t>(payload_at + payload_len));
      out.push_back(std::move(m));
    }
    pos = payload_at + payload_len;
  }
  got.consumed = pos;
  return got;
}

void SocketFabric::parse_link(int peer, Link& l) {
  Conn& c = conns_[static_cast<std::size_t>(peer)];
  const std::size_t before = arrivals_.size();
  Parsed got;
  try {
    // Under credit flow control the engine refuses any eager send the
    // window cannot hold, so no honest eager frame is larger.
    const std::int64_t max_eager = caps_.flow == FlowControl::kCredit
                                       ? caps_.credit_bytes - caps_.control_record_bytes
                                       : std::numeric_limits<std::uint32_t>::max();
    got = parse_frames(l.rx, rank_, peer, max_eager, arrivals_);
  } catch (const FabricError&) {
    c.dead = true;  // the stream has lost its framing; nothing after it parses
    throw;
  }
  if (got.bye) c.bye_seen = true;
  stats_.messages_rx += arrivals_.size() - before;
  if (got.consumed > 0)
    l.rx.erase(l.rx.begin(), l.rx.begin() + static_cast<std::ptrdiff_t>(got.consumed));
}

// ------------------------------------------------------------- bulk plane

SocketFabric::BulkChan& SocketFabric::ensure_bulk(int peer) {
  BulkPair& bp = bulk_[static_cast<std::size_t>(peer)];
  if (bp.tx != nullptr) return *bp.tx;
  // The peer may have dialed a bulk channel to us already; adopt it as
  // our TX too (full duplex) instead of opening a second socket.
  accept_pending();
  if (bp.b != nullptr && !bp.b->closed) {
    bp.tx = bp.b.get();
    return *bp.tx;
  }
  LCMPI_CHECK(bp.a == nullptr, "bulk primary exists without a tx choice");

  const std::string label = "rank " + std::to_string(peer) + " (bulk)";
  const std::string context = who() + ": dial to " + label;
  const int fd = dial(peers_[static_cast<std::size_t>(peer)], label,
                      Clock::now() + opt_.dial_deadline);
  Hello h;
  h.rank = rank_;
  h.channel = 1;
  h.intent = kIntentData;
  write_all(fd, &h, sizeof h, context.c_str());

  auto b = std::make_unique<BulkChan>();
  b->fd = fd;
  b->dialer = true;
  if (opt_.domain == Domain::kUnix) {
    // The dialer's ring size governs: it creates the region, initializes
    // both control blocks, and passes the memfd right behind its Hello.
    // The SCM_RIGHTS pass is the synchronization point, so transfers may
    // start at once.
    const std::size_t ring = opt_.bulk_ring_bytes;
    LCMPI_CHECK(ring > 0, "bulk ring size must be positive");
    const int mfd = ::memfd_create("lcmpi-bulk", MFD_CLOEXEC);
    if (mfd < 0) die(who() + ": memfd_create failed: " + errno_str());
    if (::ftruncate(mfd, static_cast<off_t>(BulkChan::map_bytes(ring))) != 0)
      die(who() + ": ftruncate(memfd) failed: " + errno_str());
    b->map_rings(mfd, ring, who());
    new (b->tx_ring.ctl) RingCtl{};
    new (b->rx_ring.ctl) RingCtl{};
    send_fd(fd, mfd, context.c_str());
    ::close(mfd);  // the mapping keeps the memory alive
    stats_.memfd_pairs++;
  }
  set_nonblocking(fd, true);
  epoll_add(fd, FdKind::kBulkA, peer);
  stats_.lazy_dials++;
  bp.a = std::move(b);
  bp.tx = bp.a.get();
  return *bp.tx;
}

void SocketFabric::file_bulk_accept(int peer, int fd) {
  BulkPair& bp = bulk_[static_cast<std::size_t>(peer)];
  LCMPI_CHECK(bp.b == nullptr, "second accepted bulk channel for one pair");

  auto b = std::make_unique<BulkChan>();
  b->fd = fd;
  b->dialer = false;
  if (opt_.domain == Domain::kUnix) {
    // The dialer's memfd follows its Hello; its size gives the geometry.
    const int mfd = recv_fd(fd, who().c_str());
    struct stat st {};
    if (::fstat(mfd, &st) != 0) die(who() + ": fstat(memfd) failed: " + errno_str());
    const auto map_len = static_cast<std::size_t>(st.st_size);
    LCMPI_CHECK(map_len > BulkChan::map_bytes(0), "bulk ring memfd too small");
    b->map_rings(mfd, map_len / 2 - sizeof(RingCtl), who());
    ::close(mfd);
    stats_.memfd_pairs++;
  }
  set_nonblocking(fd, true);
  epoll_add(fd, FdKind::kBulkB, peer);
  bp.b = std::move(b);
}

void SocketFabric::bulk_queue(int peer, std::uint64_t cookie, const void* data,
                              std::size_t size) {
  BulkChan& b = ensure_bulk(peer);
  if (b.closed)
    die(who() + ": bulk send to rank " + std::to_string(peer) + " after it died");
  BulkChan::Tx t;
  t.cookie = cookie;
  t.data = static_cast<const std::byte*>(data);
  t.size = size;
  put_bulk_hdr(t.hdr, cookie, size);
  b.txq.push_back(t);
  note_bulk_tx_pending(peer);
  // Start moving bytes immediately — the common case (ring space or an
  // empty socket buffer) completes small transfers in this one call.
  (void)pump_bulk_tx(peer, &b);
}

void SocketFabric::note_bulk_tx_pending(int peer) {
  BulkChan* b = bulk_[static_cast<std::size_t>(peer)].tx;
  if (b == nullptr || b->tx_listed) return;
  b->tx_listed = true;
  bulk_tx_pending_.push_back(peer);
}

bool SocketFabric::pump_bulk(int peer, BulkChan* b) {
  if (b == nullptr || b->closed) return false;
  bool any = pump_bulk_rx(peer, b);
  if (b->closed) return any;
  any = pump_bulk_tx(peer, b) || any;
  return any;
}

bool SocketFabric::pump_bulk_tx_pending() {
  bool any = false;
  for (std::size_t i = 0; i < bulk_tx_pending_.size();) {
    const int peer = bulk_tx_pending_[i];
    BulkChan* b = bulk_[static_cast<std::size_t>(peer)].tx;
    bool done = b == nullptr || b->closed;
    if (!done) {
      any = pump_bulk_tx(peer, b) || any;
      done = b->closed || b->txq.empty();
    }
    if (done) {
      if (b != nullptr) b->tx_listed = false;
      bulk_tx_pending_[i] = bulk_tx_pending_.back();
      bulk_tx_pending_.pop_back();
    } else {
      ++i;
    }
  }
  return any;
}

void SocketFabric::note_bulk_rx_pending(int peer, BulkChan* b) {
  if (b->rx_listed) return;
  b->rx_listed = true;
  bulk_rx_pending_.push_back(peer);
}

bool SocketFabric::pump_bulk_rx_pending() {
  bool any = false;
  for (std::size_t i = 0; i < bulk_rx_pending_.size();) {
    const int peer = bulk_rx_pending_[i];
    BulkPair& bp = bulk_[static_cast<std::size_t>(peer)];
    bool keep = false;
    for (BulkChan* b : {bp.a.get(), bp.b.get()}) {
      if (b == nullptr || !b->rx_listed) continue;
      b->rx_listed = false;  // pump_bulk_rx re-lists if it caps out again
      if (!b->closed) any = pump_bulk_rx(peer, b) || any;
      keep = keep || b->rx_listed;
    }
    if (keep) {
      ++i;
    } else {
      bulk_rx_pending_[i] = bulk_rx_pending_.back();
      bulk_rx_pending_.pop_back();
    }
  }
  return any;
}

/// EOF/reset on the bulk socket. Mid-transfer (either direction) this is
/// a death; otherwise stay quiet — the control socket's BYE-or-EOF
/// classification owns the verdict for idle peers.
void SocketFabric::bulk_eof(int peer, BulkChan* b, const char* detail) {
  // Actually close: a lingering half-dead fd in the epoll set would spin
  // the progress loop on EPOLLHUP forever.
  b->closed = true;
  track_close(b->fd);
  b->fd = -1;
  b->out_armed = false;
  if (b->in_transfer || !b->txq.empty())
    die(who() + ": rank " + std::to_string(peer) + " died mid-bulk-transfer (" +
        detail + ")");
}

/// Parsed a complete 16-byte transfer header: bind the registered landing
/// buffer. The engine guarantees bulk_post ran before its CTS, and the
/// sender only writes after the CTS — so a missing registration is a
/// protocol bug, not a race.
void SocketFabric::begin_bulk_rx(int peer, BulkChan* b) {
  get_bulk_hdr(b->rhdr, &b->rx_cookie, &b->rx_size);
  b->rhdr_got = 0;
  const auto it = bulk_regs_.find({peer, b->rx_cookie});
  LCMPI_CHECK(it != bulk_regs_.end(),
              "bulk transfer with no registered landing buffer");
  b->rx_dst = static_cast<std::byte*>(it->second.first);
  b->rx_cap = it->second.second;
  bulk_regs_.erase(it);
  b->rx_got = 0;
  b->in_transfer = true;
}

void SocketFabric::finish_bulk_rx(int peer, BulkChan* b) {
  b->in_transfer = false;
  stats_.bulk_rx_transfers++;
  stats_.bulk_rx_bytes += b->rx_size;
  ProtoMsg m;
  m.kind = MsgKind::kBulkDelivered;
  m.src = peer;
  m.sender_req = b->rx_cookie;
  m.size = static_cast<std::uint32_t>(b->rx_size);
  arrivals_.push_back(std::move(m));
}

/// Rings a ring-mode peer's doorbell: one byte meaning "state changed"
/// (new data, or space freed). Best-effort — EAGAIN means the socket
/// already holds unread doorbells, which is wake-up enough.
void SocketFabric::ring_doorbell(BulkChan* b) {
  if (b->fd < 0) return;
  const char byte = 1;
  for (;;) {
    const ssize_t n = ::send(b->fd, &byte, 1, MSG_NOSIGNAL);
    if (n > 0) stats_.doorbells_tx++;
    if (n < 0 && errno == EINTR) continue;
    return;  // sent, EAGAIN, or peer gone (classified elsewhere)
  }
}

bool SocketFabric::pump_bulk_rx(int peer, BulkChan* b) {
  if (b == nullptr || b->closed) return false;
  bool any = false;
  // Fairness budget: cap the bytes one pump copies so a multi-MiB drain
  // (the ring holds up to bulk_ring_bytes) cannot hold the progress loop —
  // and any control frame behind it — for hundreds of microseconds. The
  // remainder is picked up by the level-triggered epoll (stream) or the
  // rx-pending list (ring).
  const std::uint64_t budget = kBulkChunkBytes;
  if (b->use_ring()) {
    // Drain doorbell bytes (their only content is "look at the ring"). A
    // closed socket does not void the ring: a peer may finish and exit
    // with its last transfer still in the ring, so EOF counts only once
    // the ring is empty.
    std::string closed;
    char bells[256];
    for (;;) {
      const ssize_t n = ::recv(b->fd, bells, sizeof bells, 0);
      if (n > 0) {
        if (static_cast<std::size_t>(n) < sizeof bells) break;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      closed = n < 0 ? errno_str() : "EOF on bulk socket";
      break;
    }
    // Consume what the ring holds, up to the budget.
    std::uint64_t consumed = 0;
    for (;;) {
      if (consumed >= budget) break;
      const std::uint64_t avail = b->rx_ring.readable();
      if (avail == 0) break;
      if (!b->in_transfer) {
        const std::uint64_t n =
            std::min<std::uint64_t>(avail, kBulkHdrBytes - b->rhdr_got);
        b->rx_ring.read(b->rhdr + b->rhdr_got, n);
        b->rhdr_got += n;
        consumed += n;
        any = true;
        if (b->rhdr_got == kBulkHdrBytes) begin_bulk_rx(peer, b);
        if (b->in_transfer && b->rx_size == 0) finish_bulk_rx(peer, b);
        continue;
      }
      const std::uint64_t n = std::min(
          {avail, b->rx_size - b->rx_got, budget - consumed});
      const std::uint64_t in_cap =
          b->rx_got < b->rx_cap ? std::min(n, b->rx_cap - b->rx_got) : 0;
      if (in_cap > 0) {
        b->rx_ring.read(b->rx_dst + b->rx_got, in_cap);
        b->rx_got += in_cap;
      }
      const std::uint64_t over = n - in_cap;  // truncation: consume + drop
      if (over > 0) {
        b->rx_ring.discard(over);
        b->rx_got += over;
      }
      consumed += n;
      any = true;
      if (b->rx_got == b->rx_size) finish_bulk_rx(peer, b);
    }
    if (consumed > 0) ring_doorbell(b);  // freed ring space: credit
    // Budget hit with data still in the ring: the sender may never ring
    // another doorbell (it could be done writing), so self-schedule.
    if (b->rx_ring.readable() > 0) {
      note_bulk_rx_pending(peer, b);
    } else if (!closed.empty()) {
      bulk_eof(peer, b, closed.c_str());
    }
  } else {
    std::uint64_t got = 0;
    for (;;) {
      if (got >= budget) break;  // level-triggered epoll re-reports the rest
      void* dst = nullptr;
      std::size_t want = 0;
      if (!b->in_transfer) {
        dst = b->rhdr + b->rhdr_got;
        want = kBulkHdrBytes - static_cast<std::size_t>(b->rhdr_got);
      } else if (b->rx_got < b->rx_cap) {
        dst = b->rx_dst + b->rx_got;
        want = static_cast<std::size_t>(
            std::min(b->rx_size - b->rx_got, b->rx_cap - b->rx_got));
      } else {
        // Truncation: consume and drop. pump_link never runs inside this
        // loop, so its receive buffer is free to serve as the sink.
        dst = rx_scratch_.get();
        want = static_cast<std::size_t>(std::min<std::uint64_t>(
            b->rx_size - b->rx_got, kRxScratchBytes));
      }
      want = static_cast<std::size_t>(
          std::min<std::uint64_t>(want, budget - got));
      const ssize_t n = ::recv(b->fd, dst, want, 0);
      if (n > 0) {
        any = true;
        got += static_cast<std::uint64_t>(n);
        if (!b->in_transfer) {
          b->rhdr_got += static_cast<std::uint64_t>(n);
          if (b->rhdr_got == kBulkHdrBytes) {
            begin_bulk_rx(peer, b);
            if (b->rx_size == 0) finish_bulk_rx(peer, b);
          }
        } else {
          b->rx_got += static_cast<std::uint64_t>(n);
          if (b->rx_got == b->rx_size) finish_bulk_rx(peer, b);
        }
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      bulk_eof(peer, b, n < 0 ? errno_str().c_str() : "EOF on bulk socket");
      return any;
    }
#if defined(TCP_QUICKACK)
    if (any && opt_.domain == Domain::kInet) {
      // Re-arm quickack after every drain, so the sender never waits out
      // the delayed-ACK timer (~40 ms). Removing it raised the tail a
      // little: in 10 x 20 fresh 2-rank worlds x 200 rendezvous round trips
      // on loopback (4-vCPU Xeon VM), trips over 10 ms numbered 34 with
      // it and 44 without at 64 KiB, 287 and 298 at 1 MiB. None reached
      // the ~44 ms delayed-ACK stall (worst 39 ms).
      int one = 1;
      (void)::setsockopt(b->fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
    }
#endif
  }
  return any;
}

bool SocketFabric::pump_bulk_tx(int peer, BulkChan* b) {
  if (b == nullptr || b->closed) return false;
  bool any = false;
  // The chunk budget bounds how much payload one pump moves, so control
  // frames interleave with a long transfer at chunk granularity.
  std::uint64_t budget = kBulkChunkBytes;
  bool rang = false;
  bool blocked = false;  // stream socket hit EAGAIN (arm EPOLLOUT)
  while (!b->txq.empty() && budget > 0) {
    BulkChan::Tx& t = b->txq.front();
    if (b->use_ring()) {
      if (t.hdr_off < kBulkHdrBytes) {
        const std::uint64_t n = std::min(kBulkHdrBytes - t.hdr_off,
                                         b->tx_ring.writable());
        if (n == 0) break;
        b->tx_ring.write(t.hdr + t.hdr_off, n);
        t.hdr_off += n;
        any = rang = true;
        if (t.hdr_off < kBulkHdrBytes) break;  // ring crammed full
      }
      if (t.off < t.size) {
        const std::uint64_t n =
            std::min({t.size - t.off, b->tx_ring.writable(), budget});
        if (n == 0) break;  // ring full: the peer's doorbell will wake us
        b->tx_ring.write(t.data + t.off, n);
        t.off += n;
        budget -= n;
        any = rang = true;
      }
    } else {
      if (t.hdr_off < kBulkHdrBytes) {
        const ssize_t n =
            ::send(b->fd, t.hdr + t.hdr_off,
                   static_cast<std::size_t>(kBulkHdrBytes - t.hdr_off),
                   MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          blocked = true;
          break;
        }
        if (n <= 0) {
          bulk_eof(peer, b, n < 0 ? errno_str().c_str() : "peer closed");
          return any;
        }
        t.hdr_off += static_cast<std::uint64_t>(n);
        any = true;
        if (t.hdr_off < kBulkHdrBytes) {
          blocked = true;
          break;
        }
      }
      while (t.off < t.size && budget > 0) {
        const std::size_t chunk = static_cast<std::size_t>(
            std::min<std::uint64_t>(t.size - t.off, budget));
        const ssize_t n = ::send(b->fd, t.data + t.off, chunk, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          blocked = true;
          break;
        }
        if (n <= 0) {
          bulk_eof(peer, b, n < 0 ? errno_str().c_str() : "peer closed");
          return any;
        }
        t.off += static_cast<std::uint64_t>(n);
        budget -= static_cast<std::uint64_t>(n);
        any = true;
      }
      if (blocked) break;
    }
    if (t.hdr_off == kBulkHdrBytes && t.off == t.size) {
      stats_.bulk_tx_transfers++;
      stats_.bulk_tx_bytes += t.size;
      ProtoMsg m;
      m.kind = MsgKind::kBulkSent;
      m.src = rank_;
      m.sender_req = t.cookie;
      arrivals_.push_back(std::move(m));
      b->txq.pop_front();
    } else {
      break;
    }
  }
  if (rang) ring_doorbell(b);  // data available
  // A stream sender blocked on a full kernel buffer waits for real
  // writability; everyone else keeps EPOLLOUT off (satellite: no 1 ms
  // POLLOUT retry clock anywhere on the bulk plane).
  if (b->fd >= 0 && blocked != b->out_armed) {
    const FdKind kind = bulk_[static_cast<std::size_t>(peer)].a.get() == b
                            ? FdKind::kBulkA
                            : FdKind::kBulkB;
    epoll_arm_out(b->fd, kind, peer, blocked);
    b->out_armed = blocked;
  }
  return any;
}

void SocketFabric::flush_bulk() noexcept {
  // Bounded best-effort drain of whatever the bulk plane still owes
  // (normally nothing: every engine send completed before finalize).
  try {
    const auto deadline = Clock::now() + std::chrono::seconds(2);
    for (;;) {
      bool pending = false;
      bool moved = false;
      for (int peer = 0; peer < nranks_; ++peer) {
        if (peer == rank_) continue;
        BulkChan* b = bulk_[static_cast<std::size_t>(peer)].tx;
        if (b == nullptr || b->closed || b->txq.empty()) continue;
        pending = true;
        moved = pump_bulk_tx(peer, b) || moved;
      }
      if (!pending || Clock::now() >= deadline) return;
      if (!moved) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  } catch (...) {
    // Teardown path: a dead peer here is somebody else's error to report.
  }
}

void SocketFabric::say_bye() noexcept {
  // Best-effort goodbye on each live TX link so peers can tell "finished"
  // from "died". The sockets are nonblocking; a full buffer or dead peer
  // just means no BYE.
  Bytes frame;
  ByteWriter w(frame);
  w.put(static_cast<std::uint32_t>(sizeof(FrameHeader)));
  FrameHeader bye;
  bye.kind = kByeKind;
  w.put(bye);
  for (Conn& c : conns_) {
    if (c.a.fd < 0 || c.dead) continue;
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n = ::send(c.a.fd, frame.data() + off, frame.size() - off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      break;  // EAGAIN/EPIPE/anything: give up quietly
    }
  }
}

}  // namespace lcmpi::fabric
