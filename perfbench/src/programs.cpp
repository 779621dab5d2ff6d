#include "programs.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "src/apps/heat2d.h"
#include "src/core/win.h"

namespace perfbench {

using lcmpi::mpi::Comm;
using lcmpi::mpi::Datatype;

namespace {

constexpr std::size_t kTraceCapacity = 1 << 15;
constexpr std::size_t kPoolBytes = (2u << 20) + (64u << 10);
constexpr int kBurstPerms = 16;
constexpr double kAlpha = 0.1;

// Message tags, one per role so no phase can match another's traffic.
enum Tag : int {
  kTagPing = 1,
  kTagStreamReady = 2,
  kTagStreamData = 3,
  kTagStreamAck = 4,
  kTagBurstReady = 5,
  kTagBurstAck = 6,
  kTagBurstData = 100,  // + message index
};

std::uint64_t mix(std::uint64_t x) { return Rng(x).next(); }

std::uint64_t key(std::uint64_t round, std::uint64_t phase, std::uint64_t sample,
                  std::uint64_t msg) {
  return mix(mix(mix(round * 131 + phase) + sample) + msg);
}

/// Corrupts one output of the targeted kind, once, in the first round.
class Corrupter {
 public:
  explicit Corrupter(const RoundCtx& ctx)
      : target_(ctx.round == 0 ? ctx.corrupt : Corrupt::kNone) {}
  bool now(Corrupt which) {
    if (target_ != which) return false;
    target_ = Corrupt::kNone;
    return true;
  }

 private:
  Corrupt target_;
};

void add_fabric(Report& rep, const std::string& prefix, const FabricCounters& a,
                const FabricCounters& b) {
  rep.counters[prefix + ".frames"] += b.frames - a.frames;
  rep.counters[prefix + ".bytes"] += b.bytes - a.bytes;
  rep.counters[prefix + ".idle_waits"] += b.idle_waits - a.idle_waits;
  rep.counters[prefix + ".epoll_wakeups"] += b.epoll_wakeups - a.epoll_wakeups;
  rep.counters[prefix + ".full_parks"] += b.full_parks - a.full_parks;
  rep.counters[prefix + ".send_stalls"] += b.send_stalls - a.send_stalls;
  rep.counters[prefix + ".bulk_bytes"] += b.bulk_bytes - a.bulk_bytes;
}

/// Fabric counters for this rank's share: on a fabric whose counters cover
/// every rank only rank 0 reads them, so the launcher's sum counts once.
FabricCounters read_fabric(const RankEnv& env, int rank) {
  if (env.counters_global && rank != 0) return {};
  return env.counters();
}

void keep_spans(Report& rep, const Tracer& t) {
  rep.spans = t.records();
  rep.spans_dropped = t.dropped();
}

double us_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) / 1e3; }

// ------------------------------------------------------------------ p2p

void ladder(Comm& c, const RankEnv& env, Report& rep, const RoundCtx& ctx, Tracer* tr,
            Corrupter& corrupt) {
  const Datatype byte = Datatype::byte_type();
  const int me = c.rank();
  auto& eng = c.engine();
  Bytes buf(static_cast<std::size_t>(Plan::kLadder.back()));
  for (std::size_t si = 0; si < Plan::kLadder.size(); ++si) {
    const int size = Plan::kLadder[si];
    const auto usize = static_cast<std::size_t>(size);
    const std::string rung = "ladder." + std::to_string(size);
    std::vector<double>& rtt = rep.series["rtt_" + std::to_string(size)];
    c.barrier();
    const FabricCounters f0 = read_fabric(env, me);
    const auto eager0 = eng.eager_sends();
    const auto rndv0 = eng.rendezvous_sends();
    const int total = Plan::kLadderWarmup + Plan::kLadderIters;
    for (int i = 0; i < total; ++i) {
      if (me == 0) {
        const std::byte* p = ctx.in->pattern(key(ctx.round, si, 0, i), usize);
        const std::int64_t t0 = now_ns();
        {
          Span s(tr, SpanName::kRtt, size);
          {
            Span ss(tr, SpanName::kSend, size);
            c.send(p, size, byte, 1, kTagPing);
          }
          Span sr(tr, SpanName::kRecv, size);
          c.recv(buf.data(), size, byte, 1, kTagPing);
        }
        const double us = us_since(t0);
        if (i >= Plan::kLadderWarmup) rtt.push_back(us);
        if (corrupt.now(Corrupt::kRtt)) buf[0] ^= std::byte{1};
        rep.check(std::memcmp(buf.data(), p, usize) == 0);
      } else {
        Span s(tr, SpanName::kEcho, size);
        {
          Span sr(tr, SpanName::kRecv, size);
          c.recv(buf.data(), size, byte, 0, kTagPing);
        }
        Span ss(tr, SpanName::kSend, size);
        c.send(buf.data(), size, byte, 0, kTagPing);
      }
    }
    add_fabric(rep, rung, f0, read_fabric(env, me));
    rep.counters[rung + ".msgs"] += total;
    rep.counters[rung + ".eager"] += static_cast<double>(eng.eager_sends() - eager0);
    rep.counters[rung + ".rndv"] += static_cast<double>(eng.rendezvous_sends() - rndv0);
  }
}

void stream(Comm& c, const RankEnv& env, Report& rep, const RoundCtx& ctx, Tracer* tr,
            Corrupter& corrupt) {
  const Datatype byte = Datatype::byte_type();
  const int me = c.rank();
  constexpr auto kBytes = static_cast<std::size_t>(Plan::kStreamBytes);
  std::byte tok{0};
  c.barrier();
  const FabricCounters f0 = read_fabric(env, me);
  std::vector<Bytes> land;
  if (me == 1) land.assign(Plan::kStreamMsgs, Bytes(kBytes));
  std::vector<double>& bw = rep.series["bw_1MiB"];
  for (int s = 0; s <= Plan::kStreamSamples; ++s) {
    if (me == 0) {
      c.recv(&tok, 1, byte, 1, kTagStreamReady);
      const std::int64_t t0 = now_ns();
      {
        Span sp(tr, SpanName::kStream, Plan::kStreamBytes);
        for (int m = 0; m < Plan::kStreamMsgs; ++m) {
          Span ss(tr, SpanName::kSend, Plan::kStreamBytes);
          c.send(ctx.in->pattern(key(ctx.round, 10, s, m), kBytes), Plan::kStreamBytes, byte,
                 1, kTagStreamData);
        }
        Span sr(tr, SpanName::kRecv, 1);
        c.recv(&tok, 1, byte, 1, kTagStreamAck);
      }
      const double secs = us_since(t0) / 1e6;
      if (s > 0) bw.push_back(static_cast<double>(Plan::kStreamMsgs) * kBytes / secs / 1e6);
    } else {
      c.send(&tok, 1, byte, 0, kTagStreamReady);
      for (int m = 0; m < Plan::kStreamMsgs; ++m)
        c.recv(land[static_cast<std::size_t>(m)].data(), Plan::kStreamBytes, byte, 0,
               kTagStreamData);
      c.send(&tok, 1, byte, 0, kTagStreamAck);
      for (int m = 0; m < Plan::kStreamMsgs; ++m) {
        Bytes& got = land[static_cast<std::size_t>(m)];
        if (corrupt.now(Corrupt::kStream)) got[kBytes / 2] ^= std::byte{1};
        rep.check(std::memcmp(got.data(), ctx.in->pattern(key(ctx.round, 10, s, m), kBytes),
                              kBytes) == 0);
      }
    }
  }
  add_fabric(rep, "stream", f0, read_fabric(env, me));
}

void burst(Comm& c, const RankEnv& env, Report& rep, const RoundCtx& ctx, Tracer* tr,
           Corrupter& corrupt) {
  const Datatype byte = Datatype::byte_type();
  const int me = c.rank();
  constexpr auto kBytes = static_cast<std::size_t>(Plan::kBurstBytes);
  auto& eng = c.engine();
  std::byte tok{0};
  c.barrier();
  const FabricCounters f0 = read_fabric(env, me);
  const auto posted0 = eng.posted_match_stats();
  const auto unexp0 = eng.unexpected_match_stats();
  std::vector<Bytes> slot(Plan::kBurstMsgs, Bytes(kBytes));
  std::vector<double>& per_msg = rep.series["burst_msg_us"];
  for (int b = 0; b <= Plan::kBurstSamples; ++b) {
    if (me == 0) {
      c.recv(&tok, 1, byte, 1, kTagBurstReady);
      const std::int64_t t0 = now_ns();
      {
        Span sp(tr, SpanName::kBurst, Plan::kBurstMsgs);
        for (int j = 0; j < Plan::kBurstMsgs; ++j) {
          Span ss(tr, SpanName::kSend, Plan::kBurstBytes);
          c.send(ctx.in->pattern(key(ctx.round, 20, b, j), kBytes), Plan::kBurstBytes, byte, 1,
                 kTagBurstData + j);
        }
        Span sr(tr, SpanName::kRecv, 1);
        c.recv(&tok, 1, byte, 1, kTagBurstAck);
      }
      const double us = us_since(t0);
      if (b > 0) per_msg.push_back(us / Plan::kBurstMsgs);
    } else {
      c.send(&tok, 1, byte, 0, kTagBurstReady);
      const auto& perm = ctx.in->perms[static_cast<std::size_t>(b) % ctx.in->perms.size()];
      for (int j : perm)
        c.recv(slot[static_cast<std::size_t>(j)].data(), Plan::kBurstBytes, byte, 0,
               kTagBurstData + j);
      c.send(&tok, 1, byte, 0, kTagBurstAck);
      for (int j = 0; j < Plan::kBurstMsgs; ++j) {
        Bytes& got = slot[static_cast<std::size_t>(j)];
        if (corrupt.now(Corrupt::kBurst)) got[0] ^= std::byte{1};
        rep.check(std::memcmp(got.data(), ctx.in->pattern(key(ctx.round, 20, b, j), kBytes),
                              kBytes) == 0);
      }
    }
  }
  add_fabric(rep, "burst", f0, read_fabric(env, me));
  if (me == 1) {
    const auto posted1 = eng.posted_match_stats();
    const auto unexp1 = eng.unexpected_match_stats();
    rep.counters["burst.lookups"] = static_cast<double>(
        posted1.lookups - posted0.lookups + unexp1.lookups - unexp0.lookups);
    rep.counters["burst.hits"] =
        static_cast<double>(posted1.hits - posted0.hits + unexp1.hits - unexp0.hits);
    rep.counters["burst.scanned"] = static_cast<double>(
        posted1.entries_scanned - posted0.entries_scanned + unexp1.entries_scanned -
        unexp0.entries_scanned);
    rep.counters["burst.unexpected_depth_max"] = static_cast<double>(unexp1.max_depth);
  }
}

// ------------------------------------------------------------------ app

void heat(Comm& c, Report& rep, const RoundCtx& ctx, Tracer* tr, Corrupter& corrupt) {
  using lcmpi::apps::HaloMode;
  const std::vector<int> dims = {2, 2};
  for (int k = 0; k < 2 * Plan::kHeatCalls; ++k) {
    const bool rma = k % 2 == 1;
    const std::size_t g = static_cast<std::size_t>(k / 2 + ctx.round) % ctx.in->grids.size();
    c.barrier();
    const std::int64_t t0 = now_ns();
    std::vector<double> out;
    {
      Span s(tr, rma ? SpanName::kHeat2dRma : SpanName::kHeat2d, Plan::kGrid);
      out = lcmpi::apps::heat2d_parallel(c, dims, ctx.in->grids[g], Plan::kGrid, Plan::kSteps,
                                         kAlpha, rma ? HaloMode::kOneSided : HaloMode::kTwoSided);
    }
    rep.series[rma ? "heat2d_rma_call_us" : "heat2d_call_us"].push_back(us_since(t0));
    if (c.rank() != 0) continue;
    if (corrupt.now(rma ? Corrupt::kHeat2dRma : Corrupt::kHeat2d)) out[out.size() / 3] += 1.0;
    const std::vector<double>& ref = ctx.in->refs[g];
    rep.check(out.size() == ref.size() &&
              std::memcmp(out.data(), ref.data(), ref.size() * sizeof(double)) == 0);
  }
}

void allreduce(Comm& c, Report& rep, const RoundCtx& ctx, Tracer* tr, Corrupter& corrupt) {
  const Datatype dbl = Datatype::double_type();
  const int me = c.rank();
  std::vector<double> in(Plan::kAllreduceOps), out(Plan::kAllreduceOps);
  std::vector<double>& per_op = rep.series["allreduce_rank_us"];
  for (int b = 0; b <= Plan::kAllreduceBatches; ++b) {
    for (int k = 0; k < Plan::kAllreduceOps; ++k)
      in[static_cast<std::size_t>(k)] = ctx.in->value(ctx.round, 30 + b, k, me);
    c.barrier();
    const std::int64_t t0 = now_ns();
    for (int k = 0; k < Plan::kAllreduceOps; ++k) {
      Span s(tr, SpanName::kAllreduce, 8);
      c.allreduce(&in[static_cast<std::size_t>(k)], &out[static_cast<std::size_t>(k)], 1, dbl,
                  lcmpi::mpi::Op::kSum);
    }
    const double us = us_since(t0);
    if (b > 0) per_op.push_back(us / Plan::kAllreduceOps);
    for (int k = 0; k < Plan::kAllreduceOps; ++k) {
      double want = 0;
      for (int r = 0; r < c.size(); ++r) want += ctx.in->value(ctx.round, 30 + b, k, r);
      if (corrupt.now(Corrupt::kAllreduce)) out[static_cast<std::size_t>(k)] += 1.0;
      rep.check(out[static_cast<std::size_t>(k)] == want);
    }
  }
}

void bcast(Comm& c, Report& rep, const RoundCtx& ctx, Tracer* tr, Corrupter& corrupt) {
  const Datatype byte = Datatype::byte_type();
  const int me = c.rank();
  constexpr auto kBytes = static_cast<std::size_t>(Plan::kBcastBytes);
  std::vector<Bytes> buf(Plan::kBcastOps, Bytes(kBytes));
  std::vector<double>& per_op = rep.series["bcast_rank_us"];
  for (int b = 0; b <= Plan::kBcastBatches; ++b) {
    if (me == 0)
      for (int k = 0; k < Plan::kBcastOps; ++k)
        std::memcpy(buf[static_cast<std::size_t>(k)].data(),
                    ctx.in->pattern(key(ctx.round, 40, b, k), kBytes), kBytes);
    c.barrier();
    const std::int64_t t0 = now_ns();
    for (int k = 0; k < Plan::kBcastOps; ++k) {
      Span s(tr, SpanName::kBcast, Plan::kBcastBytes);
      c.bcast(buf[static_cast<std::size_t>(k)].data(), Plan::kBcastBytes, byte, 0);
    }
    const double us = us_since(t0);
    if (b > 0) per_op.push_back(us / Plan::kBcastOps);
    if (me == 0) continue;
    for (int k = 0; k < Plan::kBcastOps; ++k) {
      Bytes& got = buf[static_cast<std::size_t>(k)];
      if (corrupt.now(Corrupt::kBcast)) got[kBytes - 1] ^= std::byte{1};
      rep.check(std::memcmp(got.data(), ctx.in->pattern(key(ctx.round, 40, b, k), kBytes),
                            kBytes) == 0);
    }
  }
}

/// Fence/put/fence epochs over a ring: each rank puts one strip into each
/// neighbour's window — its left neighbour's "from right" strip and its
/// right neighbour's "from left" strip — and checks both of its own.
void rma(Comm& c, Report& rep, const RoundCtx& ctx, Tracer* tr, Corrupter& corrupt) {
  const Datatype dbl = Datatype::double_type();
  const int me = c.rank();
  const int n = c.size();
  const int left = (me + n - 1) % n;
  const int right = (me + 1) % n;
  constexpr int kS = Plan::kStrip;
  std::vector<double> land(2 * kS, 0.0);
  std::vector<double> to_right(kS), to_left(kS);
  lcmpi::mpi::Win win(c, land.data(), static_cast<std::int64_t>(land.size() * sizeof(double)),
                      static_cast<int>(sizeof(double)));
  for (int e = 0; e < Plan::kRmaEpochs; ++e) {
    for (int i = 0; i < kS; ++i) {
      to_right[static_cast<std::size_t>(i)] = ctx.in->value(ctx.round, 50 + e, me, i);
      to_left[static_cast<std::size_t>(i)] = ctx.in->value(ctx.round, 50 + e, me, kS + i);
    }
    {
      Span s(tr, SpanName::kEpoch, kS * 8);
      {
        Span sf(tr, SpanName::kFence);
        win.fence();
      }
      {
        Span sp(tr, SpanName::kPut, kS * 8);
        win.put(to_right.data(), kS, dbl, right, 0, kS, dbl);
      }
      {
        Span sp(tr, SpanName::kPut, kS * 8);
        win.put(to_left.data(), kS, dbl, left, kS, kS, dbl);
      }
      Span sf(tr, SpanName::kFence);
      win.fence();
    }
    if (corrupt.now(Corrupt::kRma)) land[1] += 1.0;
    bool ok = true;
    for (int i = 0; i < kS; ++i) {
      ok = ok && land[static_cast<std::size_t>(i)] == ctx.in->value(ctx.round, 50 + e, left, i);
      ok = ok && land[static_cast<std::size_t>(kS + i)] ==
                     ctx.in->value(ctx.round, 50 + e, right, kS + i);
    }
    rep.check(ok);
  }
  win.free();
}

}  // namespace

// ------------------------------------------------------------------ public

Corrupt parse_corrupt(const std::string& s) {
  static const std::pair<const char*, Corrupt> kNames[] = {
      {"none", Corrupt::kNone},         {"rtt", Corrupt::kRtt},
      {"stream", Corrupt::kStream},     {"burst", Corrupt::kBurst},
      {"heat2d", Corrupt::kHeat2d},     {"heat2d_rma", Corrupt::kHeat2dRma},
      {"allreduce", Corrupt::kAllreduce}, {"bcast", Corrupt::kBcast},
      {"rma", Corrupt::kRma}};
  for (const auto& [name, v] : kNames)
    if (s == name) return v;
  throw std::invalid_argument("unknown --corrupt target: " + s);
}

Inputs::Inputs(std::uint64_t s) : seed(s), pool(kPoolBytes) {
  Rng rng(seed);
  for (std::size_t i = 0; i < pool.size(); i += 8) {
    const std::uint64_t v = rng.next();
    std::memcpy(pool.data() + i, &v, std::min<std::size_t>(8, pool.size() - i));
  }
  for (int p = 0; p < kBurstPerms; ++p) {
    std::vector<int> perm(Plan::kBurstMsgs);
    for (int j = 0; j < Plan::kBurstMsgs; ++j) perm[static_cast<std::size_t>(j)] = j;
    for (std::size_t j = perm.size() - 1; j > 0; --j)
      std::swap(perm[j], perm[rng.below(j + 1)]);
    perms.push_back(std::move(perm));
  }
  const std::size_t cells = static_cast<std::size_t>(Plan::kGrid) * Plan::kGrid;
  for (int g = 0; g < 2; ++g) {
    std::vector<double> grid(cells);
    for (double& x : grid) x = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
    refs.push_back(lcmpi::apps::heat2d_serial(grid, Plan::kGrid, Plan::kSteps, kAlpha));
    grids.push_back(std::move(grid));
  }
}

const std::byte* Inputs::pattern(std::uint64_t k, std::size_t size) const {
  return pool.data() + mix(k ^ seed) % (pool.size() - size + 1);
}

double Inputs::value(std::uint64_t a, std::uint64_t b, std::uint64_t c, std::uint64_t d) const {
  // Below 2^40, so sums over a handful of ranks stay exact.
  return static_cast<double>(key(a ^ seed, b, c, d) >> 24);
}

void p2p_program(Comm& c, const RankEnv& env, Report& rep, const RoundCtx& ctx) {
  Tracer tracer(ctx.traced ? kTraceCapacity : 0);
  Tracer* tr = ctx.traced ? &tracer : nullptr;
  Corrupter corrupt(ctx);
  const FabricCounters f0 = read_fabric(env, c.rank());
  ladder(c, env, rep, ctx, tr, corrupt);
  stream(c, env, rep, ctx, tr, corrupt);
  burst(c, env, rep, ctx, tr, corrupt);
  add_fabric(rep, "p2p", f0, read_fabric(env, c.rank()));
  if (tr != nullptr) keep_spans(rep, tracer);
}

void app_program(Comm& c, const RankEnv& env, Report& rep, const RoundCtx& ctx) {
  Tracer tracer(ctx.traced ? kTraceCapacity : 0);
  Tracer* tr = ctx.traced ? &tracer : nullptr;
  Corrupter corrupt(ctx);
  (void)env;
  const auto pool0 = c.engine().pool().stats();
  heat(c, rep, ctx, tr, corrupt);
  allreduce(c, rep, ctx, tr, corrupt);
  bcast(c, rep, ctx, tr, corrupt);
  rma(c, rep, ctx, tr, corrupt);
  const auto pool1 = c.engine().pool().stats();
  rep.counters["app.pool_acquires"] = static_cast<double>(pool1.acquires - pool0.acquires);
  rep.counters["app.pool_reuses"] = static_cast<double>(pool1.reuses - pool0.reuses);
  if (tr != nullptr) keep_spans(rep, tracer);
}

}  // namespace perfbench
