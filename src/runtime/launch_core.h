// The one launch core behind both process launchers: lcmpirun
// (bootstrap::launch — fork+exec, or ssh, per rank) and SocketWorld
// (fork per rank, then run the rank closure in the child).
//
// run_world() forks the ranks and sleeps in poll(2) on one pidfd per
// rank until a rank exits or the grace deadline passes. The first rank
// to fail arms a 2 s grace for the survivors to report their own
// errors; whoever is still running then is SIGKILLed. Every rank ends
// through run_rank_process(), which leaves its outcome in the world's
// directory: `rank-R.status` ("ok" or "error: what", the whole message,
// written atomically) and, when the rank returned bytes, `rank-R.result`.
//
// The launcher then blames ONE rank:
//   - a rank the launcher killed is never blamed;
//   - a rank whose own failure is a FabricError (a lost peer: exit 13
//     with an error record) is blamed only when no rank failed any other
//     way — an error record, or an exit without a record that the
//     launcher did not cause;
//   - ties go to the lowest rank.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "src/runtime/bootstrap.h"
#include "src/util/bytes.h"

namespace lcmpi::runtime::bootstrap {

/// A private world directory, `/tmp/lcmpi-sock.XXXXXX` (then under
/// $TMPDIR, then "."): short, so AF_UNIX socket paths inside it fit
/// sun_path. Throws std::runtime_error if none can be made.
[[nodiscard]] std::string make_world_dir();

/// Removes a world directory and the files in it (one level: sockets,
/// status and result files, the rendezvous file). Empty: no-op.
void remove_world_dir(const std::string& dir) noexcept;

/// Runs in rank `rank`'s forked child and returns its exit code (a body
/// that execs returns only if the exec failed). Must not throw.
using RankProcessFn = std::function<int(int rank)>;

/// Forks `nranks` processes running `child`, reaps them (grace-killing
/// after the first failure), reads their status files from `dir`, and
/// blames one rank. Fills ranks[r].{rank, exit_code, term_signal,
/// status}, `ok` and `first_failed` (the blamed rank); `host` and
/// `error` are the caller's. Throws std::runtime_error, after killing and
/// reaping what it started, only if a rank cannot be started.
[[nodiscard]] LaunchResult run_world(int nranks, const RankProcessFn& child,
                                     const std::string& dir);

/// The child-side body every rank ends through. Runs `body` — which
/// builds the rank's fabric and runs it through run_detached_rank — and
/// maps its exception to the exit code: 0 ok, 13 for a FabricError (a
/// lost peer), 1 for anything else. Unless `dir` is empty it then
/// reports there: the bytes `body` returned (if any) to rank-R.result,
/// then "ok" or "error: what" to rank-R.status. Never throws.
[[nodiscard]] int run_rank_process(const std::string& dir,
                                   const std::string& rank,
                                   const std::function<Bytes()>& body);

/// The bytes rank `rank` left in `dir` (empty if it returned none).
[[nodiscard]] Bytes read_rank_result(const std::string& dir, int rank);

/// The message of the rank's own error record ("what" of "error:
/// what"), or nullopt when it left none.
[[nodiscard]] std::optional<std::string> rank_error(const RankResult& r);

/// True when the rank's own failure was a FabricError (a lost peer).
[[nodiscard]] bool lost_peer(const RankResult& r);

/// A failed rank's own report ("error: what"), or how it died without
/// one: "died without reporting (killed by signal N)" or "(exited with
/// status N)".
[[nodiscard]] std::string describe(const RankResult& r);

}  // namespace lcmpi::runtime::bootstrap
