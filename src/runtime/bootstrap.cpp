#include "src/runtime/bootstrap.h"

#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/runtime/launch_core.h"
#include "src/util/env.h"

namespace lcmpi::runtime::bootstrap {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what);
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> split_ws(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  for (std::string tok; in >> tok;) out.push_back(tok);
  return out;
}

/// POSIX-shell single-quoting for the ssh remote command line (ssh joins
/// its arguments with spaces and hands the string to the remote shell).
std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'')
      out += "'\\''";
    else
      out += c;
  }
  out += "'";
  return out;
}

}  // namespace

bool is_local_host(const std::string& name) {
  return name.empty() || name == "localhost" || name == "127.0.0.1" ||
         name == "::1";
}

std::vector<Host> parse_hostfile(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open hostfile " + path);
  std::vector<Host> hosts;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::vector<std::string> toks = split_ws(trim(line));
    if (toks.empty()) continue;
    Host h;
    h.name = toks[0];
    for (std::size_t i = 1; i < toks.size(); ++i) {
      const std::string& t = toks[i];
      const std::string where =
          path + ":" + std::to_string(lineno);
      if (t.rfind("slots=", 0) == 0) {
        try {
          h.slots = static_cast<int>(
              env::parse_long(where.c_str(), t.substr(6), 1, 1 << 20));
        } catch (const env::EnvError& e) {
          fail(std::string("hostfile ") + e.what());
        }
      } else {
        fail("hostfile " + where + ": unknown token \"" + t + "\"");
      }
    }
    hosts.push_back(std::move(h));
  }
  if (hosts.empty()) fail("hostfile " + path + " names no hosts");
  return hosts;
}

std::vector<Host> parse_host_list(const std::string& spec) {
  std::vector<Host> hosts;
  std::size_t start = 0;
  while (start <= spec.size()) {
    auto end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string item = trim(spec.substr(start, end - start));
    start = end + 1;
    if (item.empty()) continue;
    Host h;
    const auto colon = item.rfind(':');
    if (colon != std::string::npos) {
      h.name = item.substr(0, colon);
      try {
        h.slots = static_cast<int>(env::parse_long(
            "LCMPI_HOSTS slots", item.substr(colon + 1), 1, 1 << 20));
      } catch (const env::EnvError& e) {
        fail(e.what());
      }
    } else {
      h.name = item;
    }
    hosts.push_back(std::move(h));
  }
  if (hosts.empty()) fail("host list \"" + spec + "\" names no hosts");
  return hosts;
}

std::vector<std::string> assign_hosts(const std::vector<Host>& hosts,
                                      int nranks) {
  std::vector<std::string> out(static_cast<std::size_t>(nranks));
  if (hosts.empty()) return out;  // all local
  int rank = 0;
  while (rank < nranks) {
    for (const Host& h : hosts) {
      for (int s = 0; s < h.slots && rank < nranks; ++s)
        out[static_cast<std::size_t>(rank++)] = h.name;
      if (rank >= nranks) break;
    }
  }
  return out;
}

std::vector<RankCmd> plan(const LaunchSpec& spec) {
  if (spec.nranks < 1) fail("lcmpirun: nranks must be >= 1");
  if (spec.cmd.empty()) fail("lcmpirun: no command to run");
  const std::vector<std::string> where = assign_hosts(spec.hosts, spec.nranks);
  bool any_remote = false;
  for (const std::string& h : where) any_remote |= !is_local_host(h);

  if (any_remote && spec.domain == Domain::kUnix)
    fail("lcmpirun: AF_UNIX sockets cannot cross hosts — use --domain inet");
  if (spec.domain == Domain::kUnix) {
    if (spec.socket_dir.empty()) fail("lcmpirun: kUnix needs a socket dir");
    const std::string worst = spec.socket_dir + "/rank-" +
                              std::to_string(spec.nranks - 1) + ".sock";
    if (worst.size() >= sizeof(sockaddr_un{}.sun_path))
      fail("lcmpirun: socket dir \"" + spec.socket_dir +
           "\" makes AF_UNIX paths longer than sun_path (" + worst + ")");
  } else if (spec.port == 0 && spec.rendezvous_file.empty()) {
    fail("lcmpirun: AF_INET needs --port or --rendezvous-file");
  }
  if (any_remote && spec.rendezvous_file.empty() && spec.root_addr.empty() &&
      where[0].empty())
    fail("lcmpirun: multi-host launch needs a reachable rank-0 address "
         "(--root-addr, a hostfile naming rank 0's host, or a shared "
         "--rendezvous-file)");

  // Rank 0's dialable address: explicit --root-addr wins; otherwise the
  // host rank 0 was assigned to (multi-host), otherwise unset (loopback).
  std::string root = spec.root_addr;
  if (root.empty() && any_remote && !is_local_host(where[0]))
    root = where[0];

  const std::vector<std::string> ssh_words = split_ws(spec.ssh);
  if (any_remote && ssh_words.empty())
    fail("lcmpirun: empty ssh command with remote hosts");

  std::vector<RankCmd> out;
  out.reserve(static_cast<std::size_t>(spec.nranks));
  for (int r = 0; r < spec.nranks; ++r) {
    RankCmd rc;
    rc.rank = r;
    rc.host = where[static_cast<std::size_t>(r)];
    rc.via_ssh = !is_local_host(rc.host);
    rc.env.emplace_back("LCMPI_RANK", std::to_string(r));
    rc.env.emplace_back("LCMPI_NRANKS", std::to_string(spec.nranks));
    if (spec.domain == Domain::kUnix) {
      rc.env.emplace_back("LCMPI_SOCKET_DIR", spec.socket_dir);
    } else {
      if (spec.port != 0)
        rc.env.emplace_back("LCMPI_PORT", std::to_string(spec.port));
      if (!spec.rendezvous_file.empty())
        rc.env.emplace_back("LCMPI_RENDEZVOUS_FILE", spec.rendezvous_file);
      if (!root.empty()) rc.env.emplace_back("LCMPI_ROOT_ADDR", root);
      if (!spec.bind_addr.empty())
        rc.env.emplace_back("LCMPI_BIND_ADDR", spec.bind_addr);
    }
    if (!spec.status_dir.empty())
      rc.env.emplace_back("LCMPI_STATUS_DIR", spec.status_dir);
    for (const std::string& kv : spec.extra_env) {
      const auto eq = kv.find('=');
      if (eq == std::string::npos || eq == 0)
        fail("lcmpirun: malformed -x assignment \"" + kv + "\" (want K=V)");
      rc.env.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    }
    if (rc.via_ssh) {
      // ssh host env K=V ... cmd args — quoting survives the remote
      // shell, and ssh forwards the remote exit status as its own.
      rc.argv = ssh_words;
      rc.argv.push_back(rc.host);
      rc.argv.push_back("env");
      for (const auto& [k, v] : rc.env) rc.argv.push_back(k + "=" + shell_quote(v));
      for (const std::string& w : spec.cmd) rc.argv.push_back(shell_quote(w));
    } else {
      rc.argv = spec.cmd;
    }
    out.push_back(std::move(rc));
  }
  return out;
}

LaunchResult launch(const LaunchSpec& spec_in) {
  LaunchSpec spec = spec_in;
  // Fill the local defaults a bare "lcmpirun -n 4 ./app" needs from one
  // private world directory: the socket dir (kUnix), the rendezvous file
  // (kInet with no fixed port), and the status dir, so failures carry
  // messages.
  struct WorldDir {
    std::string path;
    ~WorldDir() { remove_world_dir(path); }
  } tmp;
  const bool need_socket_dir = spec.domain == Domain::kUnix && spec.socket_dir.empty();
  const bool need_rendezvous = spec.domain == Domain::kInet && spec.port == 0 &&
                               spec.rendezvous_file.empty();
  if (need_socket_dir || need_rendezvous || spec.status_dir.empty()) {
    tmp.path = make_world_dir();
    if (need_socket_dir) spec.socket_dir = tmp.path;
    if (need_rendezvous) spec.rendezvous_file = tmp.path + "/rendezvous";
    if (spec.status_dir.empty()) spec.status_dir = tmp.path;
  }
  const std::vector<RankCmd> cmds = plan(spec);

  // For ssh ranks the grace-kill hits the local ssh client; the remote
  // side is left to its own fabric deadline.
  LaunchResult res = run_world(
      spec.nranks,
      [&cmds](int r) {
        // Local ranks get the env directly; ssh ranks carry it inside
        // the remote command line.
        const RankCmd& rc = cmds[static_cast<std::size_t>(r)];
        if (!rc.via_ssh)
          for (const auto& [k, v] : rc.env) ::setenv(k.c_str(), v.c_str(), 1);
        std::vector<char*> argv;
        argv.reserve(rc.argv.size() + 1);
        for (const std::string& a : rc.argv)
          argv.push_back(const_cast<char*>(a.c_str()));
        argv.push_back(nullptr);
        ::execvp(argv[0], argv.data());
        std::fprintf(stderr, "lcmpirun: exec %s failed for rank %d: %s\n",
                     argv[0], r, std::strerror(errno));
        return 127;
      },
      spec.status_dir);
  for (RankResult& rr : res.ranks)
    rr.host = cmds[static_cast<std::size_t>(rr.rank)].host;
  if (!res.ok) {
    const RankResult& rr = res.ranks[static_cast<std::size_t>(res.first_failed)];
    res.error = "rank " + std::to_string(rr.rank) +
                (rr.host.empty() ? std::string() : " (" + rr.host + ")") +
                ": " + describe(rr);
  }
  return res;
}

// ------------------------------------------------------------ child side

bool env_launched() { return std::getenv("LCMPI_RANK") != nullptr; }

int rank_main_fab(const EnvRankFn& fn, fabric::SocketFabric::Options opt,
                  mpi::EngineConfig cfg) {
  const char* dir = std::getenv("LCMPI_STATUS_DIR");
  const char* rank = std::getenv("LCMPI_RANK");
  return run_rank_process(
      dir != nullptr ? dir : "", rank != nullptr ? rank : "unknown", [&] {
        fabric::SocketFabric fab = fabric::SocketFabric::from_env(opt);
        const int r = fab.local_rank();
        run_detached_rank(fab.endpoint(r), r, cfg,
                          [&](mpi::Comm& world, sim::Actor& self) { fn(world, self, fab); });
        return Bytes{};
      });
}

int rank_main(const RankFn& fn, fabric::SocketFabric::Options opt,
              mpi::EngineConfig cfg) {
  return rank_main_fab(
      [&fn](mpi::Comm& world, sim::Actor& self, fabric::SocketFabric&) {
        fn(world, self);
      },
      opt, cfg);
}

}  // namespace lcmpi::runtime::bootstrap
