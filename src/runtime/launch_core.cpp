#include "src/runtime/launch_core.h"

#include <dirent.h>
#include <poll.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string_view>

namespace lcmpi::runtime::bootstrap {
namespace {

using Clock = std::chrono::steady_clock;

/// How long the survivors of a first failure get to report their own.
constexpr std::chrono::seconds kGrace{2};

/// Exit code of a rank whose own failure was a fabric::FabricError.
constexpr int kExitLostPeer = 13;
/// How a status file that reports the rank's own error begins.
constexpr std::string_view kErrorRecord = "error: ";

std::string rank_file(const std::string& dir, const std::string& rank,
                      const char* ext) {
  return dir + "/rank-" + rank + ext;
}

bool write_file(const std::string& path, const void* data, std::size_t n) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  out.close();
  return static_cast<bool>(out);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// pidfd_open(2) through syscall(2): glibc 2.36's <sys/pidfd.h> lacks
/// the extern "C" a C++ caller needs.
int pidfd_open(pid_t pid) { return static_cast<int>(::syscall(SYS_pidfd_open, pid, 0)); }

std::string failed(const std::string& what) {
  return what + " failed: " + std::strerror(errno);
}

/// SIGKILLs and reaps every started rank, then gives up on the launch.
[[noreturn]] void abandon(const std::vector<pid_t>& pids, const std::string& why) {
  for (const pid_t p : pids) (void)::kill(p, SIGKILL);
  for (const pid_t p : pids) (void)::waitpid(p, nullptr, 0);
  throw std::runtime_error(why);
}

}  // namespace

std::string make_world_dir() {
  const char* bases[] = {"/tmp", std::getenv("TMPDIR"), "."};
  for (const char* base : bases) {
    if (base == nullptr) continue;
    std::string tmpl = std::string(base) + "/lcmpi-sock.XXXXXX";
    if (::mkdtemp(tmpl.data()) != nullptr) return tmpl;
  }
  throw std::runtime_error("cannot create a world directory (lcmpi-sock.XXXXXX)");
}

void remove_world_dir(const std::string& dir) noexcept {
  if (dir.empty()) return;
  if (DIR* d = ::opendir(dir.c_str()); d != nullptr) {
    while (const dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      (void)::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  (void)::rmdir(dir.c_str());
}

LaunchResult run_world(int nranks, const RankProcessFn& child,
                       const std::string& dir) {
  const auto n = static_cast<std::size_t>(nranks);
  std::vector<pid_t> pids;
  pids.reserve(n);
  for (int r = 0; r < nranks; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) abandon(pids, failed("fork() for rank " + std::to_string(r)));
    if (pid == 0) ::_exit(child(r));
    pids.push_back(pid);
  }
  // One pidfd per rank, opened after the last fork so no rank inherits
  // its siblings'. A rank that already exited is still a zombie here:
  // its pidfd opens, and polls readable at once.
  std::vector<pollfd> pfds(n);
  for (std::size_t r = 0; r < n; ++r) {
    pfds[r] = {pidfd_open(pids[r]), POLLIN, 0};
    if (pfds[r].fd < 0) {
      const std::string why = failed("pidfd_open() for rank " + std::to_string(r));
      for (std::size_t i = 0; i < r; ++i) ::close(pfds[i].fd);
      abandon(pids, why);
    }
  }

  LaunchResult res;
  res.ranks.resize(n);
  std::vector<bool> killed(n, false);
  std::optional<Clock::time_point> grace;  // armed by the first failure
  bool kill_sent = false;
  for (std::size_t remaining = n; remaining > 0;) {
    int timeout_ms = -1;
    if (grace && !kill_sent) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(*grace - Clock::now());
      timeout_ms = static_cast<int>(std::max<std::int64_t>(left.count(), 0));
    }
    const int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      const std::string why = failed("poll() over the rank pidfds");
      for (const pollfd& p : pfds)
        if (p.fd >= 0) ::close(p.fd);
      abandon(pids, why);
    }
    if (rc == 0) {
      // The grace is over and these ranks are still running: wedged on
      // the failed rank, or on each other. They are casualties.
      for (std::size_t r = 0; r < n; ++r) {
        if (pfds[r].fd < 0) continue;
        (void)::kill(pids[r], SIGKILL);
        killed[r] = true;
      }
      kill_sent = true;
      continue;
    }
    for (std::size_t r = 0; r < n; ++r) {
      if (pfds[r].fd < 0 || pfds[r].revents == 0) continue;
      int ws = 0;
      pid_t got;
      do got = ::waitpid(pids[r], &ws, 0);
      while (got < 0 && errno == EINTR);
      RankResult& rr = res.ranks[r];
      if (got < 0)
        rr.exit_code = -1;  // lost track of the child (should not happen)
      else if (WIFSIGNALED(ws))
        rr.term_signal = WTERMSIG(ws);
      else
        rr.exit_code = WIFEXITED(ws) ? WEXITSTATUS(ws) : -1;
      ::close(pfds[r].fd);
      pfds[r].fd = -1;  // poll() skips negative fds
      remaining--;
      if (!grace && (rr.exit_code != 0 || rr.term_signal != 0))
        grace = Clock::now() + kGrace;
    }
  }

  bool blamed_lost_peer = false;
  for (std::size_t r = 0; r < n; ++r) {
    RankResult& rr = res.ranks[r];
    rr.rank = static_cast<int>(r);
    rr.status = read_file(rank_file(dir, std::to_string(r), ".status"));
    if (!rr.status.empty() && rr.status.back() == '\n') rr.status.pop_back();
    if (rr.ok() || killed[r]) continue;
    if (res.first_failed < 0 || (blamed_lost_peer && !lost_peer(rr))) {
      res.first_failed = rr.rank;
      blamed_lost_peer = lost_peer(rr);
    }
  }
  res.ok = res.first_failed < 0;
  return res;
}

int run_rank_process(const std::string& dir, const std::string& rank,
                     const std::function<Bytes()>& body) {
  std::string status = "ok";
  int code = 0;
  try {
    const Bytes result = body();
    // Written in place: the launcher reads results only from ranks that
    // exited 0, i.e. after this write succeeded.
    if (!result.empty() && !dir.empty()) {
      const std::string path = rank_file(dir, rank, ".result");
      if (!write_file(path, result.data(), result.size()))
        throw std::runtime_error("cannot write " + path);
    }
  } catch (const fabric::FabricError& e) {
    code = kExitLostPeer;
    status = std::string(kErrorRecord) + e.what();
  } catch (const std::exception& e) {
    code = 1;
    status = std::string(kErrorRecord) + e.what();
  } catch (...) {
    code = 1;
    status = std::string(kErrorRecord) + "unknown exception";
  }
  // Temp + rename, so a rank killed mid-write leaves no torn record. Best
  // effort: without a status file the exit code still reports.
  status += '\n';
  if (!dir.empty()) {
    const std::string path = rank_file(dir, rank, ".status");
    const std::string tmp = path + ".tmp";
    if (write_file(tmp, status.data(), status.size()))
      (void)::rename(tmp.c_str(), path.c_str());
  }
  return code;
}

Bytes read_rank_result(const std::string& dir, int rank) {
  const std::string s = read_file(rank_file(dir, std::to_string(rank), ".result"));
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return Bytes(p, p + s.size());
}

std::optional<std::string> rank_error(const RankResult& r) {
  if (r.status.rfind(kErrorRecord, 0) != 0) return std::nullopt;
  return r.status.substr(kErrorRecord.size());
}

bool lost_peer(const RankResult& r) {
  return r.exit_code == kExitLostPeer && rank_error(r).has_value();
}

std::string describe(const RankResult& r) {
  if (!r.status.empty() && r.status != "ok") return r.status;
  return "died without reporting (" +
         (r.term_signal != 0 ? "killed by signal " + std::to_string(r.term_signal)
                             : "exited with status " + std::to_string(r.exit_code)) +
         ")";
}

}  // namespace lcmpi::runtime::bootstrap
