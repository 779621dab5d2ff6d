// lcmpi_env_child — the rank binary behind the lcmpirun/bootstrap tests.
//
// NOT a gtest: this program is exec'd once per rank by `lcmpirun` (or
// bootstrap::launch) with nothing but LCMPI_* variables, exactly like a
// user application. What it does is picked by LCMPI_CHILD_MODE:
//
//   conf:<program>[,<program>...]
//       Run the named world-conformance programs in sequence (barrier
//       between them). Every rank ships its serialized RankLog to rank 0
//       over MPI; rank 0 runs the same sequence on the LoopWorld
//       reference in-process and fails (exit 1, status file naming the
//       first divergence) unless the logs are identical — the same
//       contract socket_world_test pins, with exec'd processes instead
//       of forked ones.
//   ring
//       One sendrecv ring rotation plus an all-to-rank-0 byte, then
//       assert the lazy-connection invariant that makes N=512+ feasible:
//       a non-root rank's fd count stays O(1) (its ring neighbors +
//       rank 0), never O(N).
//   boom
//       The rank named by LCMPI_BOOM_RANK (default 1) throws after the
//       rendezvous; everyone else runs the ring. Exercises the
//       launcher's exit-code/status-file failure propagation without
//       pipes.
//   giveup
//       Rank 1 throws "rank 1 gave up" at once while rank 0 blocks
//       receiving from it. Rank 0 never connects, so only the launcher
//       can release it: it grace-kills rank 0 and must blame rank 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/runtime/bootstrap.h"
#include "src/util/env.h"
#include "tests/world_conformance.h"

using namespace lcmpi;
using conformance::Program;
using conformance::RankLog;

namespace {

constexpr int kLogTag = 90'001;  // above every tag the programs use

Program named_program(const std::string& name) {
  if (name == "pingpong") return conformance::pingpong_program;
  if (name == "wildcard") return conformance::wildcard_gather_program;
  if (name == "nonblocking") return conformance::nonblocking_program;
  if (name == "ring") return conformance::sendrecv_ring_program;
  if (name == "collectives") return conformance::collectives_program;
  if (name == "credit") return conformance::credit_exhaustion_program;
  if (name == "mixed") return conformance::mixed_traffic_program;
  if (name == "coll_battery") return conformance::coll_battery_program;
  if (name == "truncation") return conformance::truncation_program;
  if (name == "rma") return conformance::rma_battery_program;
  throw std::runtime_error("unknown conformance program \"" + name + "\"");
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    auto end = s.find(sep, start);
    if (end == std::string::npos) end = s.size();
    if (end > start) out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

/// The program sequence as one composite (barriers keep the per-program
/// traffic from interleaving across programs).
Program sequence(const std::vector<std::string>& names) {
  std::vector<Program> progs;
  progs.reserve(names.size());
  for (const std::string& n : names) progs.push_back(named_program(n));
  return [progs](mpi::Comm& c, RankLog& log) {
    for (const Program& p : progs) {
      p(c, log);
      c.barrier();
    }
  };
}

std::string stream_name(const std::pair<int, int>& key) {
  return "(src " + std::to_string(key.first) + ", tag " +
         std::to_string(key.second) + ")";
}

/// First difference between the reference and a real rank's log, or ""
/// when identical. Plain comparison — gtest lives in the launcher's
/// test binary, not in the ranks.
std::string diff_logs(const RankLog& ref, const RankLog& got) {
  if (ref.streams != got.streams) {
    for (const auto& [key, seq] : ref.streams) {
      const auto it = got.streams.find(key);
      if (it == got.streams.end())
        return "stream " + stream_name(key) + " missing";
      if (it->second != seq)
        return "stream " + stream_name(key) + " differs (" +
               std::to_string(it->second.size()) + " vs " +
               std::to_string(seq.size()) + " messages)";
    }
    for (const auto& [key, seq] : got.streams)
      if (ref.streams.find(key) == ref.streams.end())
        return "unexpected stream " + stream_name(key);
  }
  if (ref.scalars != got.scalars) return "scalar sequence differs";
  return "";
}

void conf_mode(mpi::Comm& c, const std::string& spec) {
  const Program prog = sequence(split(spec, ','));
  RankLog mine;
  prog(c, mine);

  const auto byte = mpi::Datatype::byte_type();
  if (c.rank() != 0) {
    const Bytes blob = mine.serialize();
    c.send(blob.data(), static_cast<int>(blob.size()), byte, 0, kLogTag);
    return;
  }
  // Rank 0: gather every log, then hold the whole world against the
  // LoopWorld reference.
  std::vector<RankLog> real(static_cast<std::size_t>(c.size()));
  real[0] = std::move(mine);
  for (int r = 1; r < c.size(); ++r) {
    const mpi::Status st = c.probe(r, kLogTag);
    Bytes blob(static_cast<std::size_t>(st.count_bytes));
    c.recv(blob.data(), static_cast<int>(blob.size()), byte, r, kLogTag);
    real[static_cast<std::size_t>(r)] = RankLog::deserialize(blob);
  }
  const std::vector<RankLog> ref = conformance::run_on_loop(c.size(), prog);
  for (int r = 0; r < c.size(); ++r) {
    const std::string d = diff_logs(ref[static_cast<std::size_t>(r)],
                                    real[static_cast<std::size_t>(r)]);
    if (!d.empty())
      throw std::runtime_error("conformance divergence at rank " +
                               std::to_string(r) + ": " + d);
  }
}

void ring_mode(mpi::Comm& c, fabric::SocketFabric& fab) {
  const auto i32 = mpi::Datatype::int32_type();
  const int n = c.size();
  const int me = c.rank();
  std::int32_t token = me;
  std::int32_t got = -1;
  c.sendrecv(&token, 1, i32, (me + 1) % n, 7, &got, 1, i32, (me + n - 1) % n,
             7);
  if (got != (me + n - 1) % n)
    throw std::runtime_error("ring token mismatch at rank " +
                             std::to_string(me));
  // All-to-one burst at rank 0 — the host_perf scale-smoke shape.
  const auto byte = mpi::Datatype::byte_type();
  unsigned char b = static_cast<unsigned char>(me & 0xff);
  if (me != 0) {
    c.send(&b, 1, byte, 0, 8);
  } else {
    for (int r = 1; r < n; ++r) {
      const mpi::Status st = c.recv(&b, 1, byte, r, 8);
      if (st.source != r) throw std::runtime_error("burst source mismatch");
    }
  }
  c.barrier();
  // The lazy-connection invariant, asserted in-process where the fabric
  // lives: a non-root rank talks to its 2 ring neighbors, rank 0, and
  // O(log N) dissemination-barrier partners — so its live fds must stay
  // O(log N), never the O(N) a full-mesh regression would burn. The
  // budget is 16 (host_perf's kNonRootFdBudget: epoll + listener + a few
  // links) plus 2 per barrier round; at N=512 that is 34 vs ~511 for a
  // mesh.
  std::uint64_t budget = 16;
  for (int span = 1; span < n; span *= 2) budget += 2;
  if (me != 0 && fab.stats().fds_open > budget)
    throw std::runtime_error(
        "rank " + std::to_string(me) + " holds " +
        std::to_string(fab.stats().fds_open) + " fds (budget " +
        std::to_string(budget) +
        ") — lazy connections regressed toward full mesh");
}

}  // namespace

int main() {
  const char* mode_env = std::getenv("LCMPI_CHILD_MODE");
  const std::string mode = mode_env != nullptr ? mode_env : "ring";
  return runtime::bootstrap::rank_main_fab(
      [&mode](mpi::Comm& c, sim::Actor&, fabric::SocketFabric& fab) {
        if (mode.rfind("conf:", 0) == 0) {
          conf_mode(c, mode.substr(5));
        } else if (mode == "ring") {
          ring_mode(c, fab);
        } else if (mode == "boom") {
          const char* br = std::getenv("LCMPI_BOOM_RANK");
          const int boom =
              br != nullptr
                  ? static_cast<int>(env::parse_long("LCMPI_BOOM_RANK", br, 0,
                                                     c.size() - 1))
                  : 1;
          if (c.rank() == boom)
            throw std::runtime_error("boom: scripted failure");
          ring_mode(c, fab);
        } else if (mode == "giveup") {
          if (c.rank() == 1) throw std::runtime_error("rank 1 gave up");
          std::int32_t v = 0;
          if (c.rank() == 0) c.recv(&v, 1, mpi::Datatype::int32_type(), 1, 1);
        } else {
          throw std::runtime_error("unknown LCMPI_CHILD_MODE \"" + mode +
                                   "\"");
        }
      });
}
