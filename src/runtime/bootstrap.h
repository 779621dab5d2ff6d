// Cluster launch without fork-inherited state — the lcmpirun front end.
//
// SocketWorld forks every rank of a world on one machine and runs the
// rank closure in the child; nothing of that survives a hop to a second
// host. This library execs instead: the launcher computes, for each
// rank, a command line plus a pure `LCMPI_*` environment (the
// `SocketFabric::from_env` contract), spawns it locally or through ssh,
// and collects exit status through wait/ssh exit codes plus per-rank
// status files — no pipes, no inherited fds, no shared address space.
// The fabric's lazy dialing is untouched: the launcher only decides
// WHERE processes run and how they find rank 0 (fixed port,
// LCMPI_ROOT_ADDR, or a shared-filesystem rendezvous file).
//
// The seam is split deliberately:
//   plan()   — pure: LaunchSpec -> one RankCmd per rank (argv + env).
//              What --dry-run prints and what tests pin, ssh included,
//              without spawning anything.
//   launch() — executes a plan through the launch core SocketWorld
//              shares (launch_core.h): fork/exec (or ssh) each rank,
//              reap, grace-kill stragglers after a failure, and blame
//              the rank whose failure caused the others.
//   rank_main*() — the child side: build the fabric from env, run the
//              rank function, write `$LCMPI_STATUS_DIR/rank-R.status`.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/runtime/world.h"

namespace lcmpi::runtime::bootstrap {

/// One hostfile line: a machine and how many ranks it takes per round.
struct Host {
  std::string name;
  int slots = 1;
};

/// True for names that mean "this machine, no ssh": empty, "localhost",
/// loopback literals.
[[nodiscard]] bool is_local_host(const std::string& name);

/// Parses an mpirun-style hostfile: one host per line, optional
/// "slots=N", '#' comments. Throws std::runtime_error naming the file
/// and line on malformed input.
[[nodiscard]] std::vector<Host> parse_hostfile(const std::string& path);

/// Parses a compact host list: "a,b:4,c" ("host[:slots]", comma-split) —
/// the LCMPI_HOSTS / --hosts form.
[[nodiscard]] std::vector<Host> parse_host_list(const std::string& spec);

/// Round-robins `nranks` over the hosts' slots (all of host 0's slots,
/// then host 1's, wrapping as often as needed). Empty hosts = all local.
[[nodiscard]] std::vector<std::string> assign_hosts(
    const std::vector<Host>& hosts, int nranks);

enum class Domain : std::uint8_t { kUnix, kInet };

struct LaunchSpec {
  int nranks = 1;
  /// Empty: every rank spawns locally (and kUnix is allowed). Any
  /// non-local entry forces kInet and routes that rank through ssh.
  std::vector<Host> hosts;
  Domain domain = Domain::kUnix;
  /// kUnix rendezvous directory; empty = launch() mkdtemps one.
  std::string socket_dir;
  /// kInet: fixed rendezvous port (0 = none; needs rendezvous_file).
  std::uint16_t port = 0;
  /// kInet: rank-0-published "addr:port" file on a shared filesystem;
  /// empty with port == 0 = launch() picks a private local temp file.
  std::string rendezvous_file;
  std::string root_addr;  // LCMPI_ROOT_ADDR ("host" or "host:port")
  std::string bind_addr;  // LCMPI_BIND_ADDR
  /// Directory for per-rank status files; empty = launch() mkdtemps one
  /// (local runs) so failures carry messages, not just exit codes.
  std::string status_dir;
  /// The ssh client argv prefix for remote ranks ("ssh", or e.g.
  /// "ssh -o BatchMode=yes"; split on spaces).
  std::string ssh = "ssh";
  /// Extra "K=V" assignments shipped to every rank (app config).
  std::vector<std::string> extra_env;
  /// The application argv. For ssh ranks the path must exist on the
  /// remote host (shared filesystem or identical install).
  std::vector<std::string> cmd;
};

/// One rank's spawn recipe. For local ranks `env` is applied via
/// setenv + execvp(argv). For ssh ranks the assignments are folded into
/// the remote command ("env K=V ... cmd") and `argv` is the full ssh
/// client invocation — `env` is still filled for inspection/tests.
struct RankCmd {
  int rank = 0;
  std::string host;  // empty/localhost = local spawn
  bool via_ssh = false;
  std::vector<std::pair<std::string, std::string>> env;
  std::vector<std::string> argv;
};

/// Pure planning: validates the spec (multi-host needs kInet and an
/// addressable rendezvous; kUnix socket paths must fit sun_path) and
/// returns one RankCmd per rank. Throws std::runtime_error on a spec
/// that could not launch.
[[nodiscard]] std::vector<RankCmd> plan(const LaunchSpec& spec);

struct RankResult {
  int rank = 0;
  std::string host;
  int exit_code = 0;    // WEXITSTATUS (ssh forwards the remote status)
  int term_signal = 0;  // nonzero if the (local) process was signalled
  /// The rank's status file, trailing newline dropped: "ok", "error:
  /// ...", or empty when the rank never reported (no status dir, or it
  /// died first).
  std::string status;
  [[nodiscard]] bool ok() const {
    return exit_code == 0 && term_signal == 0 &&
           (status.empty() || status == "ok");
  }
};

struct LaunchResult {
  std::vector<RankResult> ranks;  // index = rank
  bool ok = false;
  /// The rank blamed for the failure, -1 if ok: never one the launcher
  /// killed, a lost-peer FabricError only when no rank failed any other
  /// way, the lowest rank on a tie (launch_core.h).
  int first_failed = -1;
  std::string error;              // human summary naming that rank
};

/// Executes plan(spec): spawns every rank, reaps, and — once any rank
/// fails — grants the survivors a grace period to report their own
/// errors before SIGKILLing stragglers (a dead peer leaves survivors
/// blocked in dials until their deadline; the launcher should not wait
/// that long). Defaults a bare local launch needs (socket dir,
/// rendezvous file, status dir) live in one private temp dir, removed on
/// return. Never throws for rank failures (they land in the result);
/// throws std::runtime_error only when spawning itself is impossible.
[[nodiscard]] LaunchResult launch(const LaunchSpec& spec);

// ---------------------------------------------------------- child side

/// True when this process was started by an env-bootstrap launcher
/// (LCMPI_RANK is set) — how a binary decides between "I am the
/// launcher" and "I am one rank of a world".
[[nodiscard]] bool env_launched();

/// Rank function with the live fabric exposed (stats shipping).
using EnvRankFn = std::function<void(mpi::Comm& world, sim::Actor& self,
                                     fabric::SocketFabric& fab)>;

/// The whole child side of an env-bootstrapped rank: builds
/// `SocketFabric::from_env(opt)`, runs `fn` as that rank (detached
/// actor, engine, world comm), writes `$LCMPI_STATUS_DIR/rank-R.status`
/// ("ok" or "error: what") if the variable is set, and returns the
/// process exit code (0 ok, 13 fabric/peer-death, 1 other failure) —
/// `main` should return it. Never throws.
[[nodiscard]] int rank_main_fab(const EnvRankFn& fn,
                                fabric::SocketFabric::Options opt = {},
                                mpi::EngineConfig cfg = {});

/// As rank_main_fab for rank functions that don't need the fabric.
[[nodiscard]] int rank_main(const RankFn& fn,
                            fabric::SocketFabric::Options opt = {},
                            mpi::EngineConfig cfg = {});

}  // namespace lcmpi::runtime::bootstrap
