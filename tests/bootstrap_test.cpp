// bootstrap_test — the launcher library and the from_env contract.
//
// Three layers, matching the seams in src/runtime/bootstrap.h:
//   1. SocketFabric::from_env — the strict-parsing matrix: every
//      malformed LCMPI_* value must throw env::EnvError NAMING the
//      variable (the atoi-silent-zero bug class this PR removes), and
//      the valid single-rank worlds must actually come up.
//   2. plan() — pure spawn recipes: local env/argv, the ssh argv with
//      its quoting, and the spec validation errors. This is the
//      ssh-backend "dry run": nothing is spawned.
//   3. launch() — real exec'd worlds of lcmpi_env_child: the 4-rank
//      conformance battery over AF_UNIX and over AF_INET with a
//      file-published rendezvous, failure propagation and blame (a
//      scripted throw, a rank grace-killed as the casualty of another's
//      throw, an unexecable binary), and the N=512 same-host scale
//      smoke whose ranks assert the O(1) non-root fd invariant
//      in-process.
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/fabric/socket_fabric.h"
#include "src/runtime/bootstrap.h"
#include "src/util/env.h"

namespace lcmpi::runtime::bootstrap {
namespace {

using fabric::SocketFabric;
using FabDomain = SocketFabric::Domain;

// Every variable the bootstrap paths read. The fixture clears them all so
// tests see exactly the environment they set, and restores the originals
// afterwards (ctest may run this binary under a launcher one day).
constexpr const char* kVars[] = {
    "LCMPI_RANK",       "LCMPI_NRANKS",    "LCMPI_SOCKET_DIR",
    "LCMPI_PORT",       "LCMPI_RENDEZVOUS_FILE", "LCMPI_ROOT_ADDR",
    "LCMPI_BIND_ADDR",  "LCMPI_ADDR",      "LCMPI_STATUS_DIR",
    "LCMPI_HOSTS",      "LCMPI_CHILD_MODE", "LCMPI_BOOM_RANK",
};

class BootstrapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* v : kVars) {
      const char* cur = std::getenv(v);
      saved_.emplace_back(v, cur != nullptr
                                 ? std::optional<std::string>(cur)
                                 : std::nullopt);
      ::unsetenv(v);
    }
  }

  void TearDown() override {
    for (const auto& [k, v] : saved_) {
      if (v.has_value())
        ::setenv(k.c_str(), v->c_str(), 1);
      else
        ::unsetenv(k.c_str());
    }
    for (const std::string& d : temp_dirs_) {
      std::string cmd = "rm -rf " + d;  // test-only temp trees
      (void)std::system(cmd.c_str());
    }
  }

  static void set(const char* k, const std::string& v) {
    ::setenv(k, v.c_str(), 1);
  }

  std::string temp_dir() {
    std::string tmpl = "/tmp/lcmpi-btest.XXXXXX";
    EXPECT_NE(::mkdtemp(tmpl.data()), nullptr);
    temp_dirs_.push_back(tmpl);
    return tmpl;
  }

  /// The error text from_env dies with, or "" if it succeeded.
  static std::string from_env_error() {
    try {
      (void)SocketFabric::from_env();
    } catch (const env::EnvError& e) {
      return e.what();
    }
    return "";
  }

  static void expect_rejects(const char* var_named) {
    const std::string err = from_env_error();
    EXPECT_FALSE(err.empty()) << "from_env accepted a malformed " << var_named;
    EXPECT_NE(err.find(var_named), std::string::npos)
        << "error does not name " << var_named << ": " << err;
  }

 private:
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
  std::vector<std::string> temp_dirs_;
};

/// Directory this test binary lives in (build/tests) — where
/// lcmpi_env_child is too.
std::string self_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  buf[n] = '\0';
  const std::string p(buf);
  const auto slash = p.rfind('/');
  return slash == std::string::npos ? "." : p.substr(0, slash);
}

std::string child_path() { return self_dir() + "/lcmpi_env_child"; }

// ------------------------------------------------------------- from_env

TEST_F(BootstrapTest, FromEnvRejectsUnsetNranks) {
  set("LCMPI_RANK", "0");
  expect_rejects("LCMPI_NRANKS");
}

TEST_F(BootstrapTest, FromEnvRejectsUnsetRank) {
  set("LCMPI_NRANKS", "2");
  expect_rejects("LCMPI_RANK");
}

TEST_F(BootstrapTest, FromEnvRejectsJunkRank) {
  set("LCMPI_NRANKS", "2");
  set("LCMPI_RANK", "1x");
  const std::string err = from_env_error();
  EXPECT_NE(err.find("LCMPI_RANK"), std::string::npos) << err;
  EXPECT_NE(err.find("not an integer"), std::string::npos) << err;
}

TEST_F(BootstrapTest, FromEnvRejectsTrailingWhitespaceInNranks) {
  // atoi would happily read "4 " as 4; the strict parser must not.
  set("LCMPI_NRANKS", "4 ");
  set("LCMPI_RANK", "0");
  expect_rejects("LCMPI_NRANKS");
}

TEST_F(BootstrapTest, FromEnvRejectsNegativeRank) {
  set("LCMPI_NRANKS", "2");
  set("LCMPI_RANK", "-1");
  const std::string err = from_env_error();
  EXPECT_NE(err.find("LCMPI_RANK"), std::string::npos) << err;
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
}

TEST_F(BootstrapTest, FromEnvRejectsRankBeyondWorld) {
  set("LCMPI_NRANKS", "2");
  set("LCMPI_RANK", "2");  // valid ranks are 0..1
  expect_rejects("LCMPI_RANK");
}

TEST_F(BootstrapTest, FromEnvRejectsZeroNranks) {
  set("LCMPI_NRANKS", "0");
  set("LCMPI_RANK", "0");
  expect_rejects("LCMPI_NRANKS");
}

TEST_F(BootstrapTest, FromEnvRejectsEmptyNranks) {
  set("LCMPI_NRANKS", "");
  set("LCMPI_RANK", "0");
  expect_rejects("LCMPI_NRANKS");
}

TEST_F(BootstrapTest, FromEnvRejectsPortZero) {
  set("LCMPI_NRANKS", "1");
  set("LCMPI_RANK", "0");
  set("LCMPI_PORT", "0");
  expect_rejects("LCMPI_PORT");
}

TEST_F(BootstrapTest, FromEnvRejectsPortTooLarge) {
  set("LCMPI_NRANKS", "1");
  set("LCMPI_RANK", "0");
  set("LCMPI_PORT", "65536");
  expect_rejects("LCMPI_PORT");
}

TEST_F(BootstrapTest, FromEnvRejectsJunkPort) {
  set("LCMPI_NRANKS", "1");
  set("LCMPI_RANK", "0");
  set("LCMPI_PORT", "http");
  expect_rejects("LCMPI_PORT");
}

TEST_F(BootstrapTest, FromEnvRejectsMissingRendezvous) {
  set("LCMPI_NRANKS", "1");
  set("LCMPI_RANK", "0");
  const std::string err = from_env_error();
  // The error must teach the fix: name every way to configure one.
  EXPECT_NE(err.find("LCMPI_SOCKET_DIR"), std::string::npos) << err;
  EXPECT_NE(err.find("LCMPI_PORT"), std::string::npos) << err;
  EXPECT_NE(err.find("LCMPI_RENDEZVOUS_FILE"), std::string::npos) << err;
}

TEST_F(BootstrapTest, FromEnvRejectsOverlongSocketDir) {
  set("LCMPI_NRANKS", "2");
  set("LCMPI_RANK", "0");
  set("LCMPI_SOCKET_DIR", "/tmp/" + std::string(200, 'x'));
  const std::string err = from_env_error();
  EXPECT_NE(err.find("LCMPI_SOCKET_DIR"), std::string::npos) << err;
  EXPECT_NE(err.find("sun_path"), std::string::npos) << err;
}

TEST_F(BootstrapTest, FromEnvRejectsRootAddrWithoutAnyPort) {
  set("LCMPI_NRANKS", "2");
  set("LCMPI_RANK", "0");
  set("LCMPI_ROOT_ADDR", "node7");  // no :port, no LCMPI_PORT, no file
  expect_rejects("LCMPI_ROOT_ADDR");
}

TEST_F(BootstrapTest, FromEnvRejectsRootAddrBadPort) {
  set("LCMPI_NRANKS", "2");
  set("LCMPI_RANK", "0");
  set("LCMPI_ROOT_ADDR", "node7:99999");
  expect_rejects("LCMPI_ROOT_ADDR");
}

TEST_F(BootstrapTest, FromEnvBuildsUnixSingletonWorld) {
  set("LCMPI_NRANKS", "1");
  set("LCMPI_RANK", "0");
  set("LCMPI_SOCKET_DIR", temp_dir());
  SocketFabric fab = SocketFabric::from_env();
  EXPECT_EQ(fab.options().domain, FabDomain::kUnix);
  EXPECT_EQ(fab.nranks(), 1);
  EXPECT_EQ(fab.local_rank(), 0);
}

TEST_F(BootstrapTest, FromEnvBuildsInetSingletonViaRendezvousFile) {
  set("LCMPI_NRANKS", "1");
  set("LCMPI_RANK", "0");
  set("LCMPI_RENDEZVOUS_FILE", temp_dir() + "/rendezvous");
  SocketFabric fab = SocketFabric::from_env();
  EXPECT_EQ(fab.options().domain, FabDomain::kInet);
  EXPECT_EQ(fab.nranks(), 1);
}

TEST_F(BootstrapTest, FromEnvSocketDirTakesPrecedenceOverPort) {
  // Both configured: the AF_UNIX rendezvous wins (documented contract),
  // and the bogus-but-ignored port must not even be validated wrong.
  set("LCMPI_NRANKS", "1");
  set("LCMPI_RANK", "0");
  set("LCMPI_SOCKET_DIR", temp_dir());
  set("LCMPI_PORT", "7777");
  SocketFabric fab = SocketFabric::from_env();
  EXPECT_EQ(fab.options().domain, FabDomain::kUnix);
}

// ------------------------------------------------- hostfiles & planning

TEST_F(BootstrapTest, ParseHostfileHandlesCommentsAndSlots) {
  const std::string dir = temp_dir();
  const std::string path = dir + "/hosts";
  {
    std::ofstream out(path);
    out << "# cluster A\n"
        << "node1 slots=2\n"
        << "\n"
        << "node2   # trailing comment\n";
  }
  const std::vector<Host> hosts = parse_hostfile(path);
  ASSERT_EQ(hosts.size(), 2u);
  EXPECT_EQ(hosts[0].name, "node1");
  EXPECT_EQ(hosts[0].slots, 2);
  EXPECT_EQ(hosts[1].name, "node2");
  EXPECT_EQ(hosts[1].slots, 1);
}

TEST_F(BootstrapTest, ParseHostfileNamesFileAndLineOnJunk) {
  const std::string dir = temp_dir();
  const std::string path = dir + "/hosts";
  {
    std::ofstream out(path);
    out << "node1\nnode2 slots=banana\n";
  }
  try {
    (void)parse_hostfile(path);
    FAIL() << "malformed hostfile accepted";
  } catch (const std::runtime_error& e) {
    const std::string err = e.what();
    EXPECT_NE(err.find(path + ":2"), std::string::npos) << err;
  }
}

TEST_F(BootstrapTest, ParseHostListSplitsNamesAndSlots) {
  const std::vector<Host> hosts = parse_host_list("a, b:4 ,c");
  ASSERT_EQ(hosts.size(), 3u);
  EXPECT_EQ(hosts[0].name, "a");
  EXPECT_EQ(hosts[0].slots, 1);
  EXPECT_EQ(hosts[1].name, "b");
  EXPECT_EQ(hosts[1].slots, 4);
  EXPECT_EQ(hosts[2].name, "c");
}

TEST_F(BootstrapTest, AssignHostsRoundRobinsBySlots) {
  const std::vector<Host> hosts = {{"a", 2}, {"b", 1}};
  const std::vector<std::string> where = assign_hosts(hosts, 5);
  const std::vector<std::string> want = {"a", "a", "b", "a", "a"};
  EXPECT_EQ(where, want);
}

TEST_F(BootstrapTest, PlanLocalUnixSetsEnvAndArgv) {
  LaunchSpec spec;
  spec.nranks = 2;
  spec.domain = Domain::kUnix;
  spec.socket_dir = "/tmp/socks";
  spec.status_dir = "/tmp/status";
  spec.extra_env = {"LCMPI_CHILD_MODE=ring"};
  spec.cmd = {"./app", "--flag"};
  const std::vector<RankCmd> cmds = plan(spec);
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_FALSE(cmds[1].via_ssh);
  EXPECT_EQ(cmds[1].argv, spec.cmd);  // local spawn: argv IS the app
  const std::vector<std::pair<std::string, std::string>> want = {
      {"LCMPI_RANK", "1"},          {"LCMPI_NRANKS", "2"},
      {"LCMPI_SOCKET_DIR", "/tmp/socks"}, {"LCMPI_STATUS_DIR", "/tmp/status"},
      {"LCMPI_CHILD_MODE", "ring"},
  };
  EXPECT_EQ(cmds[1].env, want);
}

TEST_F(BootstrapTest, PlanSshRankCarriesEnvInRemoteCommand) {
  // The ssh-backend dry run: pin the exact argv a remote rank execs,
  // including the env-on-the-command-line trick and the quoting that
  // must survive the remote shell.
  LaunchSpec spec;
  spec.nranks = 2;
  spec.hosts = {{"node1", 1}, {"localhost", 1}};
  spec.domain = Domain::kInet;
  spec.port = 7777;
  spec.cmd = {"./app", "a b"};
  const std::vector<RankCmd> cmds = plan(spec);
  ASSERT_EQ(cmds.size(), 2u);

  EXPECT_TRUE(cmds[0].via_ssh);
  ASSERT_GE(cmds[0].argv.size(), 4u);
  EXPECT_EQ(cmds[0].argv[0], "ssh");
  EXPECT_EQ(cmds[0].argv[1], "node1");
  EXPECT_EQ(cmds[0].argv[2], "env");
  const std::vector<std::string>& argv = cmds[0].argv;
  auto has = [&argv](const std::string& s) {
    for (const std::string& a : argv)
      if (a == s) return true;
    return false;
  };
  EXPECT_TRUE(has("LCMPI_RANK='0'"));
  EXPECT_TRUE(has("LCMPI_NRANKS='2'"));
  EXPECT_TRUE(has("LCMPI_PORT='7777'"));
  // Rank 0 lives on node1, so every rank must dial node1 — plan() derives
  // the root address from the assignment when --root-addr is absent.
  EXPECT_TRUE(has("LCMPI_ROOT_ADDR='node1'"));
  EXPECT_EQ(argv.back(), "'a b'");  // argument with a space, quoted

  // Rank 1 is local: plain argv, env as pairs, same root address.
  EXPECT_FALSE(cmds[1].via_ssh);
  EXPECT_EQ(cmds[1].argv, spec.cmd);
  bool saw_root = false;
  for (const auto& [k, v] : cmds[1].env)
    if (k == "LCMPI_ROOT_ADDR") saw_root = v == "node1";
  EXPECT_TRUE(saw_root);
}

TEST_F(BootstrapTest, PlanRejectsUnixAcrossHosts) {
  LaunchSpec spec;
  spec.nranks = 2;
  spec.hosts = {{"node1", 1}};
  spec.domain = Domain::kUnix;
  spec.socket_dir = "/tmp/socks";
  spec.cmd = {"./app"};
  EXPECT_THROW((void)plan(spec), std::runtime_error);
}

TEST_F(BootstrapTest, PlanRejectsInetWithoutPortOrFile) {
  LaunchSpec spec;
  spec.nranks = 2;
  spec.domain = Domain::kInet;
  spec.cmd = {"./app"};
  EXPECT_THROW((void)plan(spec), std::runtime_error);
}

TEST_F(BootstrapTest, PlanRejectsMalformedExtraEnv) {
  LaunchSpec spec;
  spec.nranks = 1;
  spec.domain = Domain::kUnix;
  spec.socket_dir = "/tmp/socks";
  spec.extra_env = {"NO_EQUALS_SIGN"};
  spec.cmd = {"./app"};
  EXPECT_THROW((void)plan(spec), std::runtime_error);
}

// ------------------------------------------------- launch() integration

TEST_F(BootstrapTest, LaunchRunsConformanceBatteryOverUnix) {
  LaunchSpec spec;
  spec.nranks = 4;
  spec.domain = Domain::kUnix;
  spec.extra_env = {"LCMPI_CHILD_MODE=conf:pingpong,ring,collectives"};
  spec.cmd = {child_path()};
  const LaunchResult res = launch(spec);
  EXPECT_TRUE(res.ok) << res.error;
  ASSERT_EQ(res.ranks.size(), 4u);
  for (const RankResult& r : res.ranks) EXPECT_EQ(r.status, "ok");
}

TEST_F(BootstrapTest, LaunchRunsConformanceOverInetFileRendezvous) {
  // AF_INET with NO pre-agreed port: rank 0 binds an ephemeral port and
  // publishes "addr:port" through the rendezvous file; everyone else
  // polls it — the shared-filesystem cluster path, run same-host.
  LaunchSpec spec;
  spec.nranks = 4;
  spec.domain = Domain::kInet;
  spec.rendezvous_file = temp_dir() + "/rendezvous";
  spec.extra_env = {"LCMPI_CHILD_MODE=conf:pingpong,wildcard,nonblocking"};
  spec.cmd = {child_path()};
  const LaunchResult res = launch(spec);
  EXPECT_TRUE(res.ok) << res.error;
  // The file really was the rendezvous: rank 0 published addr:port there.
  const std::ifstream in(spec.rendezvous_file);
  EXPECT_TRUE(in.good());
}

TEST_F(BootstrapTest, LaunchPropagatesScriptedRankFailure) {
  LaunchSpec spec;
  spec.nranks = 4;
  spec.domain = Domain::kUnix;
  spec.extra_env = {"LCMPI_CHILD_MODE=boom", "LCMPI_BOOM_RANK=1"};
  spec.cmd = {child_path()};
  const LaunchResult res = launch(spec);
  EXPECT_FALSE(res.ok);
  // Rank 0 may lose its dial to rank 1 and fail with a FabricError first;
  // the blame still falls on the rank that failed on its own.
  EXPECT_EQ(res.first_failed, 1) << res.error;
  EXPECT_NE(res.error.find("boom: scripted failure"), std::string::npos)
      << res.error;
  ASSERT_EQ(res.ranks.size(), 4u);
  // The rank that threw reported its own message through the status
  // file (exit code 1 = generic failure, not FabricError's 13).
  EXPECT_EQ(res.ranks[1].exit_code, 1);
  EXPECT_NE(res.ranks[1].status.find("boom: scripted failure"),
            std::string::npos)
      << res.ranks[1].status;
}

TEST_F(BootstrapTest, LaunchBlamesTheFailedRankNotTheRankItKilled) {
  // Rank 1 throws at once while rank 0 blocks receiving from it. Lazy
  // connections leave rank 0 nothing to notice, so the launcher
  // grace-kills it: rank 0 is a casualty, rank 1 the cause — on both
  // domains.
  for (const Domain domain : {Domain::kUnix, Domain::kInet}) {
    LaunchSpec spec;
    spec.nranks = 2;
    spec.domain = domain;
    spec.extra_env = {"LCMPI_CHILD_MODE=giveup"};
    spec.cmd = {child_path()};
    const auto t0 = std::chrono::steady_clock::now();
    const LaunchResult res = launch(spec);
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30));
    EXPECT_FALSE(res.ok);
    EXPECT_EQ(res.first_failed, 1) << res.error;
    EXPECT_NE(res.error.find("rank 1 gave up"), std::string::npos) << res.error;
  }
}

TEST_F(BootstrapTest, LaunchReportsExecFailure) {
  LaunchSpec spec;
  spec.nranks = 1;
  spec.domain = Domain::kUnix;
  spec.cmd = {"/nonexistent/lcmpi-no-such-binary"};
  const LaunchResult res = launch(spec);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.first_failed, 0);
  EXPECT_EQ(res.ranks[0].exit_code, 127);
  EXPECT_NE(res.error.find("127"), std::string::npos) << res.error;
}

TEST_F(BootstrapTest, LaunchScaleSmoke512ExecProcesses) {
  // The env-bootstrap answer to socket_world's fork-based scale tests:
  // 512 exec'd processes, one sendrecv ring plus an all-to-rank-0 burst.
  // Each non-root rank asserts IN-PROCESS that its live fd count stayed
  // O(1) — at N=512 a full-mesh regression would need ~511 fds/rank and
  // the world would die on the child-side check long before any fd limit.
  LaunchSpec spec;
  spec.nranks = 512;
  spec.domain = Domain::kUnix;
  spec.extra_env = {"LCMPI_CHILD_MODE=ring"};
  spec.cmd = {child_path()};
  const LaunchResult res = launch(spec);
  EXPECT_TRUE(res.ok) << res.error;
}

}  // namespace
}  // namespace lcmpi::runtime::bootstrap
