// perfbench — wall-clock benchmark of the MPI core on the real worlds.
//
//   perfbench --workload shm|unix --seed N --seconds S --trace 0|1
//             [--corrupt TARGET] [--wedge 1]
//   perfbench --build-info
//
// A run repeats rounds until S seconds have passed (at least two rounds).
// Each round builds fresh worlds of the workload's kind: a 4-rank world
// running app_program, a 2-rank world running p2p_program, and sixteen
// 4-rank worlds that only pass their first barrier: set-up samples are
// cheap, and the median of many is what keeps setup_s steady.
// Every round of a workload does the same fixed work (programs.h: Plan), so
// counters from different commits count the same operations.
//
// --trace 0: every round untraced; the end-to-end metrics.
// --trace 1: odd rounds also record spans around each call into a layer;
//            adds the per-layer metrics, each span's self time, and the
//            tracing overhead (traced against untraced rounds of the run).
//
// --corrupt and --wedge are self-test fixtures (perfbench/tests): the first
// corrupts one checked output, the second raises the eager threshold to
// 1 MiB so a 64 KiB eager send can never fit the 16 KiB credit window and
// the run hangs — the deadline in perfbench/run.py must turn it into a
// failed run.
//
// Output: one JSON object on stdout. perfbench/run.py turns it into the
// benchmark's result line and the stamped result record.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "programs.h"
#include "worlds.h"

namespace perfbench {
namespace {

constexpr int kMinRounds = 2;
constexpr int kSetupOnlyWorlds = 16;
constexpr int kAppRanks = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Corrupt corrupt = Corrupt::kNone;
  lcmpi::mpi::EngineConfig engine;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload shm|unix --seed N "
               "--seconds S --trace 0|1 [--corrupt TARGET] [--wedge 1]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v) != 0;
      else if (flag == "--corrupt") a.corrupt = parse_corrupt(v);
      else if (flag == "--wedge") {
        if (std::stoi(v) != 0) a.engine.eager_threshold_override = 1 << 20;
      }
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload != "shm" && a.workload != "unix") usage("--workload must be shm or unix");
  return a;
}

using Series = std::map<std::string, std::vector<double>>;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// The median, estimated as the mean of the central tenth of the samples
/// once there are enough of them: timings are whole nanoseconds, and a
/// plain median of a peaked distribution can read the same on every run.
double median(std::vector<double> v) {
  if (v.size() < 20) return quantile(std::move(v), 0.5);
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() * 45 / 100;
  const std::size_t hi = v.size() * 55 / 100;
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

/// The per-layer estimate: the mean of the samples between the 1st and 99th
/// percentiles. Some spans last a few clock steps (a shm Win::put is ~40 ns)
/// and even their central tenth is one repeated value; the trimmed mean
/// keeps the digits and still drops preemption outliers.
double trimmed_mean(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 100;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

void append(std::vector<double>& to, const std::vector<double>& from, double scale = 1) {
  for (double x : from) to.push_back(x * scale);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Everything a run accumulates across its rounds.
struct Acc {
  Series e2e;         // end-to-end samples from untraced rounds
  Series e2e_traced;  // the same samples from traced rounds
  Series layer;       // per-layer samples
  std::vector<std::vector<double>> span_dur{static_cast<std::size_t>(SpanName::kCount)};
  std::vector<std::vector<double>> span_self{static_cast<std::size_t>(SpanName::kCount)};
  std::int64_t spans_dropped = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  int rounds = 0;
  std::string error;
};

std::map<std::string, double> sum_counters(const std::vector<Report>& reps) {
  std::map<std::string, double> c;
  for (const Report& r : reps)
    for (const auto& [k, v] : r.counters) c[k] += v;
  return c;
}

/// Span durations and self times (duration minus the direct children's
/// durations), plus the span-derived per-layer samples.
void add_spans(Acc& acc, const std::vector<Report>& reps, bool p2p) {
  for (std::size_t rank = 0; rank < reps.size(); ++rank) {
    const std::vector<SpanRec>& sp = reps[rank].spans;
    acc.spans_dropped += reps[rank].spans_dropped;
    std::vector<double> self(sp.size());
    for (std::size_t i = 0; i < sp.size(); ++i)
      self[i] = static_cast<double>(sp[i].end - sp[i].start);
    for (const SpanRec& s : sp)
      if (s.parent >= 0)
        self[static_cast<std::size_t>(s.parent)] -= static_cast<double>(s.end - s.start);
    for (std::size_t i = 0; i < sp.size(); ++i) {
      const double dur = static_cast<double>(sp[i].end - sp[i].start);
      const auto name = static_cast<SpanName>(sp[i].name);
      acc.span_dur[sp[i].name].push_back(dur);
      acc.span_self[sp[i].name].push_back(self[i]);
      if (p2p && rank == 0 && sp[i].arg == 8 && name == SpanName::kSend)
        acc.layer["core.send_ns"].push_back(dur);
      if (p2p && rank == 0 && sp[i].arg == 8 && name == SpanName::kRecv)
        acc.layer["core.recv_wait_ns"].push_back(dur);
      if (name == SpanName::kPut) acc.layer["core.win.put_ns"].push_back(dur);
      if (name == SpanName::kFence) acc.layer["core.win.fence_us"].push_back(dur / 1e3);
    }
  }
}

void add_setup(Acc& acc, const WorldRun& w) {
  acc.e2e["setup_s"].push_back(w.setup_s);
  acc.layer["runtime.setup_s"].push_back(w.setup_s);
  acc.layer["runtime.spawn_s"].push_back(w.spawn_s);
  acc.layer["runtime.first_barrier_s"].push_back(w.first_barrier_s);
  acc.layer["runtime.teardown_s"].push_back(w.teardown_s);
}

void add_p2p(Acc& acc, const std::vector<Report>& reps, bool traced) {
  Series& out = traced ? acc.e2e_traced : acc.e2e;
  const Series& r0 = reps[0].series;
  static const std::pair<int, const char*> kRungs[] = {
      {8, "rtt_8B_us"}, {256, "rtt_256B_us"}, {4096, "rtt_4KiB_us"}, {65536, "rtt_64KiB_us"}};
  for (const auto& [size, name] : kRungs) append(out[name], r0.at("rtt_" + std::to_string(size)));
  append(out["bw_1MiB_MBps"], r0.at("bw_1MiB"));
  append(out["burst_msg_us"], r0.at("burst_msg_us"));

  auto c = sum_counters(reps);
  Series& L = acc.layer;
  double eager = 0, rndv = 0;
  for (const auto& [size, name] : kRungs) {
    eager += c["ladder." + std::to_string(size) + ".eager"];
    rndv += c["ladder." + std::to_string(size) + ".rndv"];
  }
  L["core.eager_sends"].push_back(eager);
  L["core.rndv_sends"].push_back(rndv);
  const double mid_msgs = c["ladder.256.msgs"] + c["ladder.4096.msgs"];
  L["fabric.frames_per_msg"].push_back(
      ratio(c["ladder.256.frames"] + c["ladder.4096.frames"], mid_msgs));
  L["fabric.bytes_per_msg"].push_back(
      ratio(c["ladder.256.bytes"] + c["ladder.4096.bytes"], mid_msgs));
  L["fabric.idle_waits_per_msg"].push_back(ratio(c["ladder.8.idle_waits"], c["ladder.8.msgs"]));
  L["fabric.epoll_wakeups_per_msg"].push_back(
      ratio(c["ladder.8.epoll_wakeups"], c["ladder.8.msgs"]));
  L["fabric.full_parks"].push_back(c["stream.full_parks"] + c["burst.full_parks"]);
  L["fabric.send_stalls"].push_back(c["p2p.send_stalls"]);
  L["fabric.bulk_bytes"].push_back(c["p2p.bulk_bytes"]);
  L["core.match.scanned_per_lookup"].push_back(ratio(c["burst.scanned"], c["burst.lookups"]));
  L["core.match.hit_ratio"].push_back(ratio(c["burst.hits"], c["burst.lookups"]));
  L["core.match.unexpected_depth_max"].push_back(c["burst.unexpected_depth_max"]);
  if (traced) add_spans(acc, reps, true);
}

/// Collective batches: each rank timed the same batches in the same order,
/// so batch i's completion time is the slowest rank's, and its skew is
/// slowest minus fastest.
void add_collective(Acc& acc, Series& out, const std::vector<Report>& reps,
                    const std::string& series, const std::string& e2e_name,
                    const std::string& layer_name) {
  const std::size_t batches = reps[0].series.at(series).size();
  for (std::size_t i = 0; i < batches; ++i) {
    double lo = INFINITY, hi = 0;
    for (const Report& r : reps) {
      const double v = r.series.at(series).at(i);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      acc.layer[layer_name + "_rank_us"].push_back(v);
    }
    out[e2e_name].push_back(hi);
    acc.layer[layer_name + "_skew_us"].push_back(hi - lo);
  }
}

void add_app(Acc& acc, const std::vector<Report>& reps, bool traced) {
  Series& out = traced ? acc.e2e_traced : acc.e2e;
  const Series& r0 = reps[0].series;
  append(out["heat2d_step_us"], r0.at("heat2d_call_us"), 1.0 / Plan::kSteps);
  append(out["heat2d_rma_step_us"], r0.at("heat2d_rma_call_us"), 1.0 / Plan::kSteps);
  append(acc.layer["apps.heat2d_call_s"], r0.at("heat2d_call_us"), 1e-6);
  append(acc.layer["apps.heat2d_rma_call_s"], r0.at("heat2d_rma_call_us"), 1e-6);
  add_collective(acc, out, reps, "allreduce_rank_us", "allreduce_8B_us", "core.coll.allreduce");
  add_collective(acc, out, reps, "bcast_rank_us", "bcast_64KiB_us", "core.coll.bcast");
  auto c = sum_counters(reps);
  acc.layer["core.pool.reuse_ratio"].push_back(
      ratio(c["app.pool_reuses"], c["app.pool_acquires"]));
  if (traced) add_spans(acc, reps, false);
}

/// Runs one world and books its outcome; false if the world failed.
bool world(Acc& acc, WorldKind kind, int nranks, const Args& args, std::int64_t planned_ops,
           const RankProgram& prog, WorldRun& out) {
  out = run_world(kind, nranks, args.engine, prog);
  ++acc.attempted;  // the world itself: built, ran, torn down
  if (!out.ok) {
    // The world's checks are lost with it: all of them count as failed.
    acc.attempted += planned_ops;
    acc.failed += 1 + planned_ops;
    acc.error = out.error;
    return false;
  }
  for (const Report& r : out.reports) {
    acc.attempted += r.attempted;
    acc.failed += r.failed;
  }
  return true;
}

void run(const Args& args, Acc& acc) {
  const WorldKind kind = args.workload == "shm" ? WorldKind::kShm : WorldKind::kUnix;
  const Inputs in(args.seed);
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  for (int round = 0; round < kMinRounds || elapsed() < args.seconds; ++round) {
    const RoundCtx ctx{&in, round, args.trace && round % 2 == 1, args.corrupt};
    WorldRun w;
    if (!world(acc, kind, kAppRanks, args, Plan::app_ops(kAppRanks),
               [&](lcmpi::mpi::Comm& c, const RankEnv& env, Report& rep) {
                 app_program(c, env, rep, ctx);
               },
               w))
      return;
    add_setup(acc, w);
    add_app(acc, w.reports, ctx.traced);
    if (!world(acc, kind, 2, args, Plan::p2p_ops(),
               [&](lcmpi::mpi::Comm& c, const RankEnv& env, Report& rep) {
                 p2p_program(c, env, rep, ctx);
               },
               w))
      return;
    add_p2p(acc, w.reports, ctx.traced);
    for (int k = 0; k < kSetupOnlyWorlds; ++k) {
      if (!world(acc, kind, kAppRanks, args, 0,
                 [](lcmpi::mpi::Comm&, const RankEnv&, Report&) {}, w))
        return;
      add_setup(acc, w);
    }
    acc.rounds = round + 1;
  }
}

// ------------------------------------------------------------------ output

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jstr(const std::string& s) {
  std::string o = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      o += '\\';
      o += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      o += buf;
    } else {
      o += ch;
    }
  }
  return o + "\"";
}

/// {"name": {"value": estimate(samples), "n": samples}, ...} over every series.
std::string summarize(const Series& series, double (*estimate)(std::vector<double>)) {
  std::string o = "{";
  for (const auto& [name, v] : series)
    o += (o.size() > 1 ? ", " : "") + jstr(name) + ": {\"value\": " + jnum(estimate(v)) +
         ", \"n\": " + std::to_string(v.size()) + "}";
  return o + "}";
}

/// Every metric the run measured, by name: "e2e" from untraced rounds and,
/// in a traced run, "layer" with the spans' self times and the tracing
/// overhead. perfbench/run.py picks the ones BENCHMARK.json declares.
void print(const Args& args, Acc& acc) {
  std::string o = "{\"rounds\": " + std::to_string(acc.rounds) +
                  ", \"attempted\": " + std::to_string(acc.attempted) +
                  ", \"failed\": " + std::to_string(acc.failed) +
                  ", \"error\": " + jstr(acc.error) + ", \"e2e\": " + summarize(acc.e2e, median);
  if (args.trace) {
    const auto& rtt = acc.e2e["rtt_8B_us"];
    // Single values over the untraced 8 B samples ("e2e" rtt_8B_us has their count).
    acc.layer["rtt_8B_p90_us"] = {quantile(rtt, 0.9)};
    acc.layer["trace.overhead_pct"] = {
        (median(acc.e2e_traced["rtt_8B_us"]) / median(rtt) - 1) * 100};
    o += ", \"layer\": " + summarize(acc.layer, trimmed_mean) + ", \"overhead_pct\": {";
    bool first = true;
    for (const auto& [name, traced] : acc.e2e_traced) {
      o += (first ? "" : ", ") + jstr(name) + ": " +
           jnum((median(traced) / median(acc.e2e[name]) - 1) * 100);
      first = false;
    }
    o += "}, \"spans_dropped\": " + std::to_string(acc.spans_dropped) + ", \"spans\": [";
    first = true;
    for (std::size_t i = 0; i < acc.span_dur.size(); ++i) {
      const auto& d = acc.span_dur[i];
      if (d.empty()) continue;
      double total = 0, self_total = 0;
      for (double x : d) total += x;
      for (double x : acc.span_self[i]) self_total += x;
      o += std::string(first ? "" : ", ") + "{\"name\": " +
           jstr(span_label(static_cast<SpanName>(i))) + ", \"n\": " + std::to_string(d.size()) +
           ", \"median_ns\": " + jnum(median(d)) +
           ", \"self_median_ns\": " + jnum(median(acc.span_self[i])) +
           ", \"total_ns\": " + jnum(total) + ", \"self_total_ns\": " + jnum(self_total) + "}";
      first = false;
    }
    o += "]";
  }
  std::printf("%s}\n", o.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::string(argv[1]) == "--build-info") {
    std::printf("{\"build_type\": %s, \"cxx\": %s}\n", jstr(PERFBENCH_BUILD_TYPE).c_str(),
                jstr(__VERSION__).c_str());
    return 0;
  }
  const Args args = parse(argc, argv);
  Acc acc;
  try {
    run(args, acc);
  } catch (const std::exception& e) {
    acc.error = e.what();
    acc.failed += 1;
    acc.attempted += 1;
  }
  print(args, acc);
  return 0;
}
