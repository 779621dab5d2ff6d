#include "worlds.h"

#include <algorithm>
#include <exception>

#include "src/fabric/shm_fabric.h"
#include "src/fabric/socket_fabric.h"
#include "src/runtime/world.h"

namespace perfbench {
namespace {

using lcmpi::fabric::ShmFabric;
using lcmpi::fabric::SocketFabric;

FabricCounters shm_counters(const ShmFabric::Stats& s) {
  FabricCounters c;
  c.frames = static_cast<double>(s.messages);
  c.bytes = static_cast<double>(s.bulk_bytes);
  c.idle_waits = static_cast<double>(s.idle_parks);
  c.full_parks = static_cast<double>(s.full_parks);
  c.bulk_bytes = static_cast<double>(s.bulk_bytes);
  return c;
}

FabricCounters socket_counters(const SocketFabric::Stats& s) {
  FabricCounters c;
  c.frames = static_cast<double>(s.messages_tx);
  c.bytes = static_cast<double>(s.bytes_tx + s.bulk_tx_bytes);
  c.idle_waits = static_cast<double>(s.idle_polls);
  c.epoll_wakeups = static_cast<double>(s.epoll_wakeups);
  c.send_stalls = static_cast<double>(s.send_stalls);
  c.bulk_bytes = static_cast<double>(s.bulk_tx_bytes);
  return c;
}

/// The rank body every world runs: first barrier, the program, and the
/// three timestamps the launcher turns into set-up and teardown times.
void rank_body(lcmpi::mpi::Comm& c, const RankEnv& env, const RankProgram& prog, Report& rep) {
  const std::int64_t entry = now_ns();
  c.barrier();
  const std::int64_t ready = now_ns();
  prog(c, env, rep);
  rep.counters["t.entry"] = static_cast<double>(entry);
  rep.counters["t.ready"] = static_cast<double>(ready);
  rep.counters["t.return"] = static_cast<double>(now_ns());
}

/// Fills the WorldRun timings from the rank timestamps; the timestamps are
/// launcher bookkeeping, so they leave the reports here.
void finish_timing(WorldRun& w, std::int64_t t0, std::int64_t t_done) {
  double entry = 0, ready = 0, ret = 0;
  for (Report& r : w.reports) {
    entry = std::max(entry, r.counters["t.entry"]);
    ready = std::max(ready, r.counters["t.ready"]);
    ret = std::max(ret, r.counters["t.return"]);
    r.counters.erase("t.entry");
    r.counters.erase("t.ready");
    r.counters.erase("t.return");
  }
  const double start = static_cast<double>(t0);
  w.spawn_s = (entry - start) / 1e9;
  w.setup_s = (ready - start) / 1e9;
  w.first_barrier_s = (ready - entry) / 1e9;
  w.teardown_s = (static_cast<double>(t_done) - ret) / 1e9;
}

WorldRun run_threads(int n, const lcmpi::mpi::EngineConfig& cfg, const RankProgram& prog) {
  WorldRun w;
  std::vector<Report> reps(static_cast<std::size_t>(n));
  const std::int64_t t0 = now_ns();
  try {
    lcmpi::runtime::ThreadsWorld world(n, {}, cfg);
    ShmFabric& fab = world.fabric();
    const RankEnv env{[&fab] { return shm_counters(fab.stats()); }, true};
    world.run([&](lcmpi::mpi::Comm& c, lcmpi::sim::Actor&) {
      rank_body(c, env, prog, reps[static_cast<std::size_t>(c.rank())]);
    });
  } catch (const std::exception& e) {
    w.error = e.what();
    return w;
  }
  w.ok = true;
  w.reports = std::move(reps);
  finish_timing(w, t0, now_ns());
  return w;
}

WorldRun run_sockets(int n, const lcmpi::mpi::EngineConfig& cfg, const RankProgram& prog) {
  WorldRun w;
  std::vector<Bytes> out;
  const std::int64_t t0 = now_ns();
  try {
    lcmpi::runtime::SocketWorld world(n, {}, cfg);
    out = world.run_collect_fab([&](lcmpi::mpi::Comm& c, lcmpi::sim::Actor&, SocketFabric& fab) {
      const RankEnv env{[&fab] { return socket_counters(fab.stats()); }, false};
      Report rep;
      rank_body(c, env, prog, rep);
      return rep.encode();
    });
  } catch (const std::exception& e) {
    w.error = e.what();
    return w;
  }
  const std::int64_t t_done = now_ns();
  w.ok = true;
  for (const Bytes& b : out) w.reports.push_back(Report::decode(b));
  finish_timing(w, t0, t_done);
  return w;
}

}  // namespace

WorldRun run_world(WorldKind kind, int nranks, const lcmpi::mpi::EngineConfig& cfg,
                   const RankProgram& prog) {
  if (kind == WorldKind::kShm) return run_threads(nranks, cfg, prog);
  return run_sockets(nranks, cfg, prog);
}

// ------------------------------------------------------------ Report codec

Bytes Report::encode() const {
  Bytes b;
  lcmpi::ByteWriter w(b);
  auto put_str = [&](const std::string& s) {
    w.put<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
    w.put_bytes(s.data(), s.size());
  };
  w.put<std::int64_t>(attempted);
  w.put<std::int64_t>(failed);
  w.put<std::int64_t>(spans_dropped);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(series.size()));
  for (const auto& [name, v] : series) {
    put_str(name);
    w.put<std::uint64_t>(v.size());
    w.put_bytes(v.data(), v.size() * sizeof(double));
  }
  w.put<std::uint32_t>(static_cast<std::uint32_t>(counters.size()));
  for (const auto& [name, v] : counters) {
    put_str(name);
    w.put<double>(v);
  }
  w.put<std::uint64_t>(spans.size());
  w.put_bytes(spans.data(), spans.size() * sizeof(SpanRec));
  return b;
}

Report Report::decode(const Bytes& b) {
  Report r;
  lcmpi::ByteReader rd(b);
  auto get_str = [&] {
    std::string s(rd.get<std::uint32_t>(), '\0');
    rd.get_bytes(s.data(), s.size());
    return s;
  };
  r.attempted = rd.get<std::int64_t>();
  r.failed = rd.get<std::int64_t>();
  r.spans_dropped = rd.get<std::int64_t>();
  for (std::uint32_t n = rd.get<std::uint32_t>(); n > 0; --n) {
    std::string name = get_str();
    std::vector<double> v(rd.get<std::uint64_t>());
    rd.get_bytes(v.data(), v.size() * sizeof(double));
    r.series[std::move(name)] = std::move(v);
  }
  for (std::uint32_t n = rd.get<std::uint32_t>(); n > 0; --n) {
    std::string name = get_str();
    r.counters[std::move(name)] = rd.get<double>();
  }
  r.spans.resize(rd.get<std::uint64_t>());
  rd.get_bytes(r.spans.data(), r.spans.size() * sizeof(SpanRec));
  return r;
}

}  // namespace perfbench
