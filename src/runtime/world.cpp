#include "src/runtime/world.h"

#include <dirent.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

namespace lcmpi::runtime {

Duration run_ranks(sim::Kernel& kernel, fabric::Fabric& fabric,
                   const mpi::EngineConfig& cfg, const RankFn& fn) {
  const TimePoint t0 = kernel.now();
  for (int r = 0; r < fabric.nranks(); ++r) {
    kernel.spawn("rank-" + std::to_string(r), [&fabric, cfg, fn, r](sim::Actor& self) {
      mpi::Engine engine(fabric.endpoint(r), self, cfg);
      mpi::Comm world = mpi::Comm::world(engine);
      fn(world, self);
    });
  }
  kernel.run();
  return kernel.now() - t0;
}

// ----------------------------------------------------------------- Meiko

MeikoWorld::MeikoWorld(int nranks, meiko::Calib calib, mpi::EngineConfig engine_cfg)
    : engine_cfg_(engine_cfg) {
  machine_ = std::make_unique<meiko::Machine>(kernel_, nranks, calib);
  fabric_ = std::make_unique<fabric::MeikoFabric>(*machine_);
}

Duration MeikoWorld::run(const RankFn& fn) {
  return run_ranks(kernel_, *fabric_, engine_cfg_, fn);
}

MpichMeikoWorld::MpichMeikoWorld(int nranks, meiko::Calib calib) {
  machine_ = std::make_unique<meiko::Machine>(kernel_, nranks, calib);
  for (int i = 0; i < nranks; ++i)
    tports_.push_back(std::make_unique<meiko::Tport>(*machine_, i));
}

Duration MpichMeikoWorld::run(const MpichRankFn& fn) {
  const TimePoint t0 = kernel_.now();
  const int n = nranks();
  for (int r = 0; r < n; ++r) {
    kernel_.spawn("rank-" + std::to_string(r), [this, fn, r, n](sim::Actor& self) {
      mpi::MpichComm world(*tports_[static_cast<std::size_t>(r)], self, n);
      fn(world, self);
    });
  }
  kernel_.run();
  return kernel_.now() - t0;
}

// ---------------------------------------------------------------- Cluster

ClusterWorld::ClusterWorld(int nranks, Media media, Transport transport,
                           mpi::EngineConfig engine_cfg,
                           fabric::StreamFabric::Options fabric_opt,
                           bool eth_broadcast_collectives)
    : nranks_(nranks), engine_cfg_(engine_cfg) {
  LCMPI_CHECK(!eth_broadcast_collectives || media == Media::kEthernet,
              "broadcast collectives require the Ethernet medium");
  if (media == Media::kAtm) {
    net_ = std::make_unique<atmnet::AtmNetwork>(kernel_, nranks);
    cluster_ = std::make_unique<inet::InetCluster>(*net_, inet::atm_profile());
  } else {
    net_ = std::make_unique<atmnet::EthernetNetwork>(kernel_, nranks);
    cluster_ = std::make_unique<inet::InetCluster>(*net_, inet::ethernet_profile());
  }

  // Static all-pairs connections, as in the paper's clusters.
  std::vector<std::vector<inet::StreamEndpoint*>> streams(
      static_cast<std::size_t>(nranks),
      std::vector<inet::StreamEndpoint*>(static_cast<std::size_t>(nranks), nullptr));
  std::uint16_t next_port = 10000;
  for (int i = 0; i < nranks; ++i) {
    for (int j = i + 1; j < nranks; ++j) {
      if (transport == Transport::kTcp) {
        inet::TcpConnection& c = cluster_->tcp_pair(i, j);
        streams[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = &c.on_host(i);
        streams[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = &c.on_host(j);
      } else {
        inet::RudpChannel& c = cluster_->rudp_pair(i, j, next_port);
        next_port = static_cast<std::uint16_t>(next_port + 2);
        streams[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = &c.on_host(i);
        streams[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = &c.on_host(j);
      }
    }
  }
  std::vector<inet::DatagramSocket*> bcast_socks;
  if (eth_broadcast_collectives) {
    constexpr std::uint16_t kBcastPort = 9999;
    for (int i = 0; i < nranks; ++i)
      bcast_socks.push_back(&cluster_->udp_socket(i, kBcastPort));
  }
  fabric_ = std::make_unique<fabric::StreamFabric>(kernel_, std::move(streams), fabric_opt,
                                                   std::move(bcast_socks));
}

Duration ClusterWorld::run(const RankFn& fn) {
  return run_ranks(kernel_, *fabric_, engine_cfg_, fn);
}

// ------------------------------------------------------------------- Loop

LoopWorld::LoopWorld(int nranks, fabric::LoopFabric::Options opt,
                     mpi::EngineConfig engine_cfg)
    : engine_cfg_(engine_cfg) {
  fabric_ = std::make_unique<fabric::LoopFabric>(kernel_, nranks, opt);
}

Duration LoopWorld::run(const RankFn& fn) {
  return run_ranks(kernel_, *fabric_, engine_cfg_, fn);
}

// ---------------------------------------------------------------- Threads

ThreadsWorld::ThreadsWorld(int nranks, fabric::ShmFabric::Options opt,
                           mpi::EngineConfig engine_cfg)
    : engine_cfg_(engine_cfg) {
  fabric_ = std::make_unique<fabric::ShmFabric>(nranks, opt);
}

void run_detached_rank(fabric::Endpoint& ep, int rank,
                       const mpi::EngineConfig& cfg, const RankFn& fn) {
  auto actor = sim::Actor::detached("rank-" + std::to_string(rank));
  sim::Actor::BindScope bind(actor.get());
  mpi::Engine engine(ep, *actor, cfg);
  mpi::Comm world = mpi::Comm::world(engine);
  fn(world, *actor);
}

Duration ThreadsWorld::run(const RankFn& fn) {
  LCMPI_CHECK(!ran_, "a ThreadsWorld can run only once");
  ran_ = true;
  const int n = nranks();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  const TimePoint t0 = fabric_->wall_now();
  for (int r = 0; r < n; ++r) {
    threads.emplace_back([this, &fn, &errors, r] {
      try {
        run_detached_rank(fabric_->endpoint(r), r, engine_cfg_, fn);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
      fabric_->retire(r);
    });
  }
  for (std::thread& t : threads) t.join();
  const Duration elapsed = fabric_->wall_now() - t0;
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  return elapsed;
}

Duration run_threads(int nranks, const RankFn& fn, fabric::ShmFabric::Options opt,
                     mpi::EngineConfig engine_cfg) {
  ThreadsWorld world(nranks, opt, engine_cfg);
  return world.run(fn);
}

// ---------------------------------------------------------------- Sockets

namespace {

/// Child->launcher result record: [u8 status][u32 len][len bytes].
/// status 0 = ok (bytes are the rank's result), 1 = FabricError,
/// 2 = any other exception (bytes are what()).
enum : std::uint8_t { kRankOk = 0, kRankFabricError = 1, kRankFailed = 2 };

void pipe_write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, p + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return;  // launcher gone; nothing useful left to do
    }
    off += static_cast<std::size_t>(w);
  }
}

/// Reads exactly n bytes; returns false on EOF/error (child died early).
bool pipe_read_all(int fd, void* data, std::size_t n) {
  auto* p = static_cast<unsigned char*>(data);
  std::size_t off = 0;
  while (off < n) {
    const ssize_t r = ::read(fd, p + off, n - off);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;
    off += static_cast<std::size_t>(r);
  }
  return true;
}

/// Pre-binds an ephemeral loopback listener in the launcher so rank 0
/// inherits it across fork() — no port-guessing conflict window.
int bind_loopback_listener(std::uint16_t& port_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  LCMPI_CHECK(fd >= 0, "socket() failed for rendezvous listener");
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in sin{};
  sin.sin_family = AF_INET;
  sin.sin_port = 0;
  sin.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  LCMPI_CHECK(::bind(fd, reinterpret_cast<sockaddr*>(&sin), sizeof sin) == 0,
              "bind() failed for rendezvous listener");
  LCMPI_CHECK(::listen(fd, SOMAXCONN) == 0, "listen() failed for rendezvous listener");
  socklen_t len = sizeof sin;
  LCMPI_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&sin), &len) == 0,
              "getsockname() failed for rendezvous listener");
  port_out = ntohs(sin.sin_port);
  return fd;
}

Bytes str_bytes(const char* s) {
  Bytes b;
  const std::size_t n = std::strlen(s);
  b.resize(n);
  if (n > 0) std::memcpy(b.data(), s, n);
  return b;
}

}  // namespace

SocketWorld::SocketWorld(int nranks, fabric::SocketFabric::Options opt,
                         mpi::EngineConfig engine_cfg)
    : nranks_(nranks), opt_(opt), engine_cfg_(engine_cfg) {
  LCMPI_CHECK(nranks > 0, "SocketWorld needs at least one rank");
  if (opt_.domain == fabric::SocketFabric::Domain::kUnix) {
    // AF_UNIX paths are short (<104 bytes), so prefer /tmp over a possibly
    // deep TMPDIR; fall back to the working directory if /tmp is off-limits.
    const char* bases[] = {"/tmp", std::getenv("TMPDIR"), "."};
    for (const char* base : bases) {
      if (base == nullptr) continue;
      std::string tmpl = std::string(base) + "/lcmpi-sock.XXXXXX";
      if (::mkdtemp(tmpl.data()) != nullptr) {
        unix_dir_ = tmpl;
        break;
      }
    }
    LCMPI_CHECK(!unix_dir_.empty(), "could not create a socket directory");
  }
}

SocketWorld::~SocketWorld() {
  if (unix_dir_.empty()) return;
  // Failed runs can leave socket files behind; sweep then remove the dir.
  if (DIR* d = ::opendir(unix_dir_.c_str()); d != nullptr) {
    while (const dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      (void)::unlink((unix_dir_ + "/" + name).c_str());
    }
    ::closedir(d);
  }
  (void)::rmdir(unix_dir_.c_str());
}

std::vector<Bytes> SocketWorld::run_collect(const CollectRankFn& fn) {
  return run_collect_fab(
      [&fn](mpi::Comm& world, sim::Actor& self, fabric::SocketFabric&) {
        return fn(world, self);
      });
}

std::vector<Bytes> SocketWorld::run_collect_fab(const CollectFabricRankFn& fn) {
  LCMPI_CHECK(!ran_, "a SocketWorld can run only once");
  ran_ = true;
  const int n = nranks_;
  const bool unix_domain = opt_.domain == fabric::SocketFabric::Domain::kUnix;

  fabric::SocketFabric::Rendezvous rdv;
  int listen_fd = -1;
  if (unix_domain) {
    rdv.unix_dir = unix_dir_;
  } else {
    listen_fd = bind_loopback_listener(rdv.port);
  }

  // All pipes exist before the first fork so every child can close every
  // descriptor that is not its own write end — a stray copy of rank r's
  // write end in a sibling would hold off the launcher's EOF on pipe r.
  std::vector<std::array<int, 2>> pipes(static_cast<std::size_t>(n), {-1, -1});
  for (auto& p : pipes)
    LCMPI_CHECK(::pipe(p.data()) == 0, "pipe() failed");

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<pid_t> pids(static_cast<std::size_t>(n), -1);
  for (int r = 0; r < n; ++r) {
    const pid_t pid = ::fork();
    LCMPI_CHECK(pid >= 0, "fork() failed");
    if (pid > 0) {
      pids[static_cast<std::size_t>(r)] = pid;
      continue;
    }

    // ---- child: rank r. Never returns; _exit only (no parent atexit/
    // static-dtor replay, no double-flushed stdio).
    const int out_fd = pipes[static_cast<std::size_t>(r)][1];
    for (int i = 0; i < n; ++i) {
      ::close(pipes[static_cast<std::size_t>(i)][0]);
      if (i != r) ::close(pipes[static_cast<std::size_t>(i)][1]);
    }
    if (listen_fd >= 0 && r != 0) ::close(listen_fd);

    std::uint8_t status = kRankOk;
    Bytes result;
    try {
      fabric::SocketFabric::Rendezvous child_rdv = rdv;
      child_rdv.listen_fd = (!unix_domain && r == 0) ? listen_fd : -1;
      fabric::SocketFabric fab(n, r, child_rdv, opt_);
      auto actor = sim::Actor::detached("rank-" + std::to_string(r));
      sim::Actor::BindScope bind(actor.get());
      mpi::Engine engine(fab.endpoint(r), *actor, engine_cfg_);
      mpi::Comm world = mpi::Comm::world(engine);
      result = fn(world, *actor, fab);
    } catch (const fabric::FabricError& e) {
      status = kRankFabricError;
      result = str_bytes(e.what());
    } catch (const std::exception& e) {
      status = kRankFailed;
      result = str_bytes(e.what());
    } catch (...) {
      status = kRankFailed;
      result = str_bytes("unknown exception");
    }
    // The fabric is gone here (scope end above): BYE sent, sockets closed,
    // so peers cannot mistake this exit for a death even if the record
    // write below blocks on a busy launcher.
    pipe_write_all(out_fd, &status, sizeof status);
    const std::uint32_t len = static_cast<std::uint32_t>(result.size());
    pipe_write_all(out_fd, &len, sizeof len);
    pipe_write_all(out_fd, result.data(), result.size());
    ::close(out_fd);
    ::_exit(status == kRankOk ? 0 : 13);
  }

  // ---- launcher. Drop child-only descriptors, harvest records, reap.
  if (listen_fd >= 0) ::close(listen_fd);
  for (auto& p : pipes) {
    ::close(p[1]);
    p[1] = -1;
  }

  // Harvest result records with poll() over ALL pipes at once, not
  // rank-by-rank: connections are lazy, so a rank that fails before ever
  // dialing anyone is invisible to its peers' fabrics — a receiver
  // blocked on it would hang forever. The launcher is the only party that
  // always notices (an error record, or a pipe that EOFs recordless);
  // when it does, it grants the survivors a short grace to surface their
  // own errors, then SIGKILLs the stragglers and reports the ORIGINAL
  // failure — ranks the launcher reaped are casualties, not causes.
  std::vector<Bytes> results(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> statuses(static_cast<std::size_t>(n), kRankOk);
  std::vector<bool> have_record(static_cast<std::size_t>(n), false);
  std::vector<bool> launcher_killed(static_cast<std::size_t>(n), false);
  int first_failed = -1;  // lowest rank that failed on its own
  int remaining = n;
  bool grace_armed = false;
  std::chrono::steady_clock::time_point grace_deadline{};
  std::vector<pollfd> pfds;
  std::vector<int> pfd_rank;
  while (remaining > 0) {
    pfds.clear();
    pfd_rank.clear();
    for (int r = 0; r < n; ++r) {
      const int fd = pipes[static_cast<std::size_t>(r)][0];
      if (fd < 0) continue;
      pfds.push_back({fd, POLLIN, 0});
      pfd_rank.push_back(r);
    }
    int timeout = -1;
    if (grace_armed) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          grace_deadline - std::chrono::steady_clock::now());
      timeout = left.count() > 0 ? static_cast<int>(left.count()) : 0;
    }
    const int rc = ::poll(pfds.data(), pfds.size(), timeout);
    if (rc < 0) {
      LCMPI_CHECK(errno == EINTR, "poll() over result pipes failed");
      continue;
    }
    if (rc == 0) {
      // Grace expired with ranks still running: they are wedged on the
      // failed peer (or each other). Reap them; their pipes EOF below.
      for (int r = 0; r < n; ++r) {
        if (pipes[static_cast<std::size_t>(r)][0] < 0) continue;
        (void)::kill(pids[static_cast<std::size_t>(r)], SIGKILL);
        launcher_killed[static_cast<std::size_t>(r)] = true;
      }
      grace_armed = false;  // subsequent polls just wait for the EOFs
      continue;
    }
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const int r = pfd_rank[i];
      const auto ri = static_cast<std::size_t>(r);
      const int fd = pfds[i].fd;
      // The record may span the pipe's capacity; the child is actively
      // writing it, so finishing the read blockingly is bounded.
      std::uint8_t status = kRankOk;
      std::uint32_t len = 0;
      if (pipe_read_all(fd, &status, sizeof status) &&
          pipe_read_all(fd, &len, sizeof len)) {
        Bytes body(len);
        if (len == 0 || pipe_read_all(fd, body.data(), len)) {
          have_record[ri] = true;
          statuses[ri] = status;
          results[ri] = std::move(body);
        }
      }
      ::close(fd);
      pipes[ri][0] = -1;
      remaining--;
      if ((!have_record[ri] || statuses[ri] != kRankOk) && !launcher_killed[ri]) {
        if (first_failed < 0 || r < first_failed) first_failed = r;
        if (!grace_armed && remaining > 0) {
          grace_armed = true;
          grace_deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(2);
        }
      }
    }
  }

  std::vector<int> wait_status(static_cast<std::size_t>(n), 0);
  for (int r = 0; r < n; ++r) {
    pid_t got;
    do {
      got = ::waitpid(pids[static_cast<std::size_t>(r)],
                      &wait_status[static_cast<std::size_t>(r)], 0);
    } while (got < 0 && errno == EINTR);
    LCMPI_CHECK(got == pids[static_cast<std::size_t>(r)], "waitpid() failed");
  }
  elapsed_ = Duration{std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count()};

  // The lowest rank that failed on its own wins, mirroring ThreadsWorld's
  // rethrow order, with its own error. A rank the launcher killed is a
  // casualty of the grace-kill, not a cause, and a kill only ever follows
  // such a failure.
  if (first_failed >= 0) {
    const auto i = static_cast<std::size_t>(first_failed);
    const std::string who = "rank " + std::to_string(first_failed);
    if (!have_record[i]) {
      const int ws = wait_status[i];
      std::string how = WIFSIGNALED(ws)
                            ? "killed by signal " + std::to_string(WTERMSIG(ws))
                            : "exited with status " +
                                  std::to_string(WIFEXITED(ws) ? WEXITSTATUS(ws) : -1);
      throw fabric::FabricError(who + " died without reporting (" + how + ")");
    }
    const std::string what(reinterpret_cast<const char*>(results[i].data()),
                           results[i].size());
    if (statuses[i] == kRankFabricError) throw fabric::FabricError(what);
    throw std::runtime_error(who + " failed: " + what);
  }
  return results;
}

Duration SocketWorld::run(const RankFn& fn) {
  (void)run_collect([&fn](mpi::Comm& world, sim::Actor& self) {
    fn(world, self);
    return Bytes{};
  });
  return elapsed_;
}

Duration run_sockets(int nranks, const RankFn& fn, fabric::SocketFabric::Options opt,
                     mpi::EngineConfig engine_cfg) {
  SocketWorld world(nranks, opt, engine_cfg);
  return world.run(fn);
}

}  // namespace lcmpi::runtime
