#include "src/runtime/world.h"

#include <chrono>
#include <optional>
#include <string>
#include <thread>

#include "src/runtime/launch_core.h"

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

SocketWorld::SocketWorld(int nranks, fabric::SocketFabric::Options opt,
                         mpi::EngineConfig engine_cfg)
    : nranks_(nranks), opt_(opt), engine_cfg_(engine_cfg) {
  LCMPI_CHECK(nranks > 0, "SocketWorld needs at least one rank");
  dir_ = bootstrap::make_world_dir();
}

SocketWorld::~SocketWorld() { bootstrap::remove_world_dir(dir_); }

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
  // Ranks find rank 0 through the world dir, as under a local lcmpirun:
  // its socket (AF_UNIX), or the file it publishes its loopback port in
  // (AF_INET).
  fabric::SocketFabric::Rendezvous rdv;
  if (opt_.domain == fabric::SocketFabric::Domain::kUnix) {
    rdv.unix_dir = dir_;
  } else {
    rdv.rendezvous_file = dir_ + "/rendezvous";
    rdv.bind_host = "127.0.0.1";
  }

  const auto t0 = std::chrono::steady_clock::now();
  const bootstrap::LaunchResult res = bootstrap::run_world(
      n,
      [&](int r) {
        return bootstrap::run_rank_process(dir_, std::to_string(r), [&] {
          fabric::SocketFabric fab(n, r, rdv, opt_);
          Bytes out;
          run_detached_rank(fab.endpoint(r), r, engine_cfg_,
                            [&](mpi::Comm& world, sim::Actor& self) {
                              out = fn(world, self, fab);
                            });
          return out;  // the fabric is gone before the result is written
        });
      },
      dir_);
  elapsed_ = Duration{std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count()};

  if (!res.ok) {
    const bootstrap::RankResult& rr =
        res.ranks[static_cast<std::size_t>(res.first_failed)];
    const std::string who = "rank " + std::to_string(rr.rank);
    const std::optional<std::string> what = bootstrap::rank_error(rr);
    if (!what) throw fabric::FabricError(who + " " + bootstrap::describe(rr));
    if (bootstrap::lost_peer(rr)) throw fabric::FabricError(*what);
    throw std::runtime_error(who + " failed: " + *what);
  }
  std::vector<Bytes> results;
  results.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) results.push_back(bootstrap::read_rank_result(dir_, r));
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
