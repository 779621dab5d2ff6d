#include "src/capi/mpi.h"

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/core/cart.h"
#include "src/core/win.h"
#include "src/runtime/bootstrap.h"

namespace {

using lcmpi::MpiError;
using lcmpi::mpi::Comm;
using lcmpi::mpi::Datatype;
using lcmpi::mpi::Mode;
using lcmpi::mpi::Op;

/// Per-rank C API state. Each rank is a sim::Actor, so the state lives in
/// the actor-local storage slot (Actor::set_local) and is found through
/// Actor::current() — the classic global-feeling API gets per-rank
/// semantics. (A plain thread_local would not: every rank's fiber shares
/// the kernel thread, so thread identity does not distinguish ranks.)
/// A window together with a stable copy of its communicator: Win holds a
/// Comm&, and the RankState::comms vector may reallocate, so each window
/// gets its own heap-pinned Comm to reference.
struct WinState {
  explicit WinState(Comm c) : comm(std::move(c)) {}
  Comm comm;
  std::unique_ptr<lcmpi::mpi::Win> win;
};

struct RankState {
  std::vector<std::optional<Comm>> comms;       // handle -> communicator
  std::vector<lcmpi::mpi::Request> requests;    // handle -> request
  std::vector<std::optional<Datatype>> types;   // derived datatypes (>= 5)
  std::map<MPI_Comm, lcmpi::mpi::CartComm> carts;  // topology attached to a comm
  std::vector<lcmpi::Bytes> bsend_buffers;      // keep-alive for attach
  std::vector<std::unique_ptr<WinState>> wins;  // handle -> one-sided window
  bool initialized = false;
};

constexpr MPI_Datatype kFirstDerived = 5;

RankState* rank_state() {
  lcmpi::sim::Actor* a = lcmpi::sim::Actor::current();
  return a == nullptr ? nullptr : static_cast<RankState*>(a->local());
}

RankState& st() {
  RankState* s = rank_state();
  LCMPI_CHECK(s != nullptr, "MPI C API used outside capi::run_on");
  return *s;
}

Comm& comm_of(MPI_Comm c) {
  RankState& s = st();
  LCMPI_CHECK(c >= 0 && static_cast<std::size_t>(c) < s.comms.size() &&
                  s.comms[static_cast<std::size_t>(c)].has_value(),
              "bad communicator handle");
  return *s.comms[static_cast<std::size_t>(c)];
}

const Datatype& type_of(MPI_Datatype dt) {
  static const Datatype kTypes[] = {
      Datatype::byte_type(), Datatype::int32_type(), Datatype::int64_type(),
      Datatype::float_type(), Datatype::double_type()};
  if (dt >= 0 && dt < kFirstDerived) return kTypes[dt];
  RankState& s = st();
  const auto i = static_cast<std::size_t>(dt - kFirstDerived);
  LCMPI_CHECK(dt >= kFirstDerived && i < s.types.size() && s.types[i].has_value(),
              "bad datatype handle");
  return *s.types[i];
}

MPI_Datatype stash_type(Datatype t) {
  RankState& s = st();
  s.types.emplace_back(std::move(t));
  return static_cast<MPI_Datatype>(s.types.size() - 1) + kFirstDerived;
}

Op op_of(MPI_Op op) {
  switch (op) {
    case MPI_SUM: return Op::kSum;
    case MPI_PROD: return Op::kProd;
    case MPI_MIN: return Op::kMin;
    case MPI_MAX: return Op::kMax;
  }
  throw lcmpi::InternalError("bad op handle");
}

int err_code(lcmpi::Err e) {
  switch (e) {
    case lcmpi::Err::kSuccess: return MPI_SUCCESS;
    case lcmpi::Err::kTruncate: return MPI_ERR_TRUNCATE;
    case lcmpi::Err::kBadArgument: return MPI_ERR_ARG;
    case lcmpi::Err::kBufferExhausted: return MPI_ERR_BUFFER;
    case lcmpi::Err::kRange: return MPI_ERR_RANGE;
    default: return MPI_ERR_OTHER;
  }
}

void fill_status(MPI_Status* out, const lcmpi::mpi::Status& in) {
  if (out == nullptr) return;
  out->MPI_SOURCE = in.source;
  out->MPI_TAG = in.tag;
  out->MPI_ERROR = err_code(in.error);
  out->count_bytes_ = in.count_bytes;
}

/// Runs `body`, translating library errors into MPI return codes.
template <typename Fn>
int guarded(Fn&& body) {
  try {
    body();
    return MPI_SUCCESS;
  } catch (const MpiError& e) {
    return err_code(e.code());
  } catch (const lcmpi::InternalError&) {
    return MPI_ERR_INTERN;
  }
}

int do_send(const void* buf, int count, MPI_Datatype dt, int dest, int tag, MPI_Comm comm,
            Mode mode) {
  return guarded([&] { comm_of(comm).send(buf, count, type_of(dt), dest, tag, mode); });
}

MPI_Request stash_request(lcmpi::mpi::Request r) {
  RankState& s = st();
  s.requests.push_back(std::move(r));
  return static_cast<MPI_Request>(s.requests.size() - 1);
}

}  // namespace

// ------------------------------------------------------------ environment

int MPI_Init(int*, char***) {
  st().initialized = true;
  return MPI_SUCCESS;
}

int MPI_Finalize() {
  // Quiesce like real MPI_Finalize: every rank synchronises.
  return guarded([&] { comm_of(MPI_COMM_WORLD).barrier(); });
}

int MPI_Initialized(int* flag) {
  RankState* s = rank_state();
  *flag = s != nullptr && s->initialized ? 1 : 0;
  return MPI_SUCCESS;
}

double MPI_Wtime() { return comm_of(MPI_COMM_WORLD).wtime(); }

// ------------------------------------------------------------ communicator

int MPI_Comm_rank(MPI_Comm comm, int* rank) {
  return guarded([&] { *rank = comm_of(comm).rank(); });
}

int MPI_Comm_size(MPI_Comm comm, int* size) {
  return guarded([&] { *size = comm_of(comm).size(); });
}

int MPI_Comm_dup(MPI_Comm comm, MPI_Comm* newcomm) {
  return guarded([&] {
    RankState& s = st();
    s.comms.emplace_back(comm_of(comm).dup());
    *newcomm = static_cast<MPI_Comm>(s.comms.size() - 1);
  });
}

int MPI_Comm_split(MPI_Comm comm, int color, int key, MPI_Comm* newcomm) {
  return guarded([&] {
    RankState& s = st();
    auto sub = comm_of(comm).split(color, key);
    if (!sub) {
      *newcomm = MPI_COMM_NULL;
      return;
    }
    s.comms.emplace_back(std::move(*sub));
    *newcomm = static_cast<MPI_Comm>(s.comms.size() - 1);
  });
}

int MPI_Comm_free(MPI_Comm* comm) {
  return guarded([&] {
    LCMPI_CHECK(*comm != MPI_COMM_WORLD, "cannot free MPI_COMM_WORLD");
    RankState& s = st();
    LCMPI_CHECK(*comm > 0 && static_cast<std::size_t>(*comm) < s.comms.size(),
                "bad communicator handle");
    s.comms[static_cast<std::size_t>(*comm)].reset();
    *comm = MPI_COMM_NULL;
  });
}

// ---------------------------------------------------------- point-to-point

int MPI_Send(const void* buf, int count, MPI_Datatype dt, int dest, int tag, MPI_Comm comm) {
  return do_send(buf, count, dt, dest, tag, comm, Mode::kStandard);
}
int MPI_Bsend(const void* buf, int count, MPI_Datatype dt, int dest, int tag, MPI_Comm comm) {
  return do_send(buf, count, dt, dest, tag, comm, Mode::kBuffered);
}
int MPI_Ssend(const void* buf, int count, MPI_Datatype dt, int dest, int tag, MPI_Comm comm) {
  return do_send(buf, count, dt, dest, tag, comm, Mode::kSynchronous);
}
int MPI_Rsend(const void* buf, int count, MPI_Datatype dt, int dest, int tag, MPI_Comm comm) {
  return do_send(buf, count, dt, dest, tag, comm, Mode::kReady);
}

int MPI_Recv(void* buf, int count, MPI_Datatype dt, int source, int tag, MPI_Comm comm,
             MPI_Status* status) {
  return guarded([&] {
    lcmpi::mpi::Status s = comm_of(comm).recv(buf, count, type_of(dt), source, tag);
    fill_status(status, s);
  });
}

int MPI_Isend(const void* buf, int count, MPI_Datatype dt, int dest, int tag, MPI_Comm comm,
              MPI_Request* request) {
  return guarded([&] {
    *request = stash_request(comm_of(comm).isend(buf, count, type_of(dt), dest, tag));
  });
}

int MPI_Irecv(void* buf, int count, MPI_Datatype dt, int source, int tag, MPI_Comm comm,
              MPI_Request* request) {
  return guarded([&] {
    *request = stash_request(comm_of(comm).irecv(buf, count, type_of(dt), source, tag));
  });
}

int MPI_Wait(MPI_Request* request, MPI_Status* status) {
  return guarded([&] {
    RankState& s = st();
    LCMPI_CHECK(*request >= 0 && static_cast<std::size_t>(*request) < s.requests.size(),
                "bad request handle");
    lcmpi::mpi::Request r = s.requests[static_cast<std::size_t>(*request)];
    comm_of(MPI_COMM_WORLD).engine().wait(r);
    fill_status(status, comm_of(MPI_COMM_WORLD).translate(r->status));
    *request = MPI_REQUEST_NULL;
  });
}

int MPI_Waitall(int count, MPI_Request* requests, MPI_Status* statuses) {
  for (int i = 0; i < count; ++i) {
    const int rc = MPI_Wait(&requests[i], statuses == nullptr ? nullptr : &statuses[i]);
    if (rc != MPI_SUCCESS) return rc;
  }
  return MPI_SUCCESS;
}

int MPI_Test(MPI_Request* request, int* flag, MPI_Status* status) {
  return guarded([&] {
    RankState& s = st();
    LCMPI_CHECK(*request >= 0 && static_cast<std::size_t>(*request) < s.requests.size(),
                "bad request handle");
    lcmpi::mpi::Request r = s.requests[static_cast<std::size_t>(*request)];
    *flag = comm_of(MPI_COMM_WORLD).engine().test(r) ? 1 : 0;
    if (*flag) {
      fill_status(status, comm_of(MPI_COMM_WORLD).translate(r->status));
      *request = MPI_REQUEST_NULL;
    }
  });
}

int MPI_Probe(int source, int tag, MPI_Comm comm, MPI_Status* status) {
  return guarded([&] { fill_status(status, comm_of(comm).probe(source, tag)); });
}

int MPI_Iprobe(int source, int tag, MPI_Comm comm, int* flag, MPI_Status* status) {
  return guarded([&] {
    auto s = comm_of(comm).iprobe(source, tag);
    *flag = s.has_value() ? 1 : 0;
    if (s) fill_status(status, *s);
  });
}

int MPI_Get_count(const MPI_Status* status, MPI_Datatype dt, int* count) {
  const std::int64_t elem = type_of(dt).size();
  if (elem == 0 || status->count_bytes_ % elem != 0) return MPI_ERR_ARG;
  *count = static_cast<int>(status->count_bytes_ / elem);
  return MPI_SUCCESS;
}

int MPI_Sendrecv(const void* sendbuf, int sendcount, MPI_Datatype sendtype, int dest,
                 int sendtag, void* recvbuf, int recvcount, MPI_Datatype recvtype,
                 int source, int recvtag, MPI_Comm comm, MPI_Status* status) {
  return guarded([&] {
    lcmpi::mpi::Status s =
        comm_of(comm).sendrecv(sendbuf, sendcount, type_of(sendtype), dest, sendtag,
                               recvbuf, recvcount, type_of(recvtype), source, recvtag);
    fill_status(status, s);
  });
}

int MPI_Buffer_attach(void* buffer, int size) {
  // We manage the buffer internally; the caller's pointer is accepted for
  // API compatibility but the engine accounts capacity itself.
  (void)buffer;
  return guarded([&] { comm_of(MPI_COMM_WORLD).engine().buffer_attach(size); });
}

int MPI_Buffer_detach(void* buffer_addr, int* size) {
  (void)buffer_addr;
  return guarded([&] {
    *size = static_cast<int>(comm_of(MPI_COMM_WORLD).engine().buffer_detach());
  });
}

// ----------------------------------------------------------- virtual topology

namespace {
lcmpi::mpi::CartComm& cart_of(MPI_Comm comm) {
  RankState& s = st();
  auto it = s.carts.find(comm);
  LCMPI_CHECK(it != s.carts.end(), "communicator has no Cartesian topology");
  return it->second;
}
}  // namespace

int MPI_Dims_create(int nnodes, int ndims, int* dims) {
  return guarded([&] {
    std::vector<int> in(dims, dims + ndims);
    auto out = lcmpi::mpi::dims_create(nnodes, ndims, std::move(in));
    for (int i = 0; i < ndims; ++i) dims[i] = out[static_cast<std::size_t>(i)];
  });
}

int MPI_Cart_create(MPI_Comm comm, int ndims, const int* dims, const int* periods,
                    int /*reorder*/, MPI_Comm* comm_cart) {
  return guarded([&] {
    std::vector<int> d(dims, dims + ndims);
    std::vector<bool> p(static_cast<std::size_t>(ndims));
    for (int i = 0; i < ndims; ++i) p[static_cast<std::size_t>(i)] = periods[i] != 0;
    auto cart = lcmpi::mpi::CartComm::create(comm_of(comm), std::move(d), std::move(p));
    if (!cart) {
      *comm_cart = MPI_COMM_NULL;
      return;
    }
    RankState& s = st();
    // Register the cart's communicator as a fresh handle, with the
    // topology object keyed beside it.
    s.comms.emplace_back(cart->comm());
    const auto handle = static_cast<MPI_Comm>(s.comms.size() - 1);
    s.carts.emplace(handle, std::move(*cart));
    *comm_cart = handle;
  });
}

int MPI_Cartdim_get(MPI_Comm comm, int* ndims) {
  return guarded([&] { *ndims = cart_of(comm).ndims(); });
}

int MPI_Cart_coords(MPI_Comm comm, int rank, int maxdims, int* coords) {
  return guarded([&] {
    auto c = cart_of(comm).coords(rank);
    LCMPI_CHECK(static_cast<int>(c.size()) <= maxdims, "coords buffer too small");
    for (std::size_t i = 0; i < c.size(); ++i) coords[i] = c[i];
  });
}

int MPI_Cart_rank(MPI_Comm comm, const int* coords, int* rank) {
  return guarded([&] {
    auto& cart = cart_of(comm);
    std::vector<int> at(coords, coords + cart.ndims());
    *rank = cart.rank_at(std::move(at));
  });
}

int MPI_Cart_shift(MPI_Comm comm, int direction, int disp, int* rank_source,
                   int* rank_dest) {
  return guarded([&] {
    auto s = cart_of(comm).shift(direction, disp);
    *rank_source = s.source;
    *rank_dest = s.dest;
  });
}

// ----------------------------------------------------------------- datatypes

int MPI_Type_contiguous(int count, MPI_Datatype oldtype, MPI_Datatype* newtype) {
  return guarded(
      [&] { *newtype = stash_type(Datatype::contiguous(count, type_of(oldtype))); });
}

int MPI_Type_vector(int count, int blocklength, int stride, MPI_Datatype oldtype,
                    MPI_Datatype* newtype) {
  return guarded([&] {
    *newtype = stash_type(Datatype::vector(count, blocklength, stride, type_of(oldtype)));
  });
}

int MPI_Type_commit(MPI_Datatype* datatype) {
  return guarded([&] { (void)type_of(*datatype); });  // validates the handle
}

int MPI_Type_free(MPI_Datatype* datatype) {
  return guarded([&] {
    LCMPI_CHECK(*datatype >= kFirstDerived, "cannot free a basic datatype");
    RankState& s = st();
    const auto i = static_cast<std::size_t>(*datatype - kFirstDerived);
    LCMPI_CHECK(i < s.types.size() && s.types[i].has_value(), "bad datatype handle");
    s.types[i].reset();
    *datatype = -1;
  });
}

int MPI_Type_size(MPI_Datatype datatype, int* size) {
  return guarded([&] { *size = static_cast<int>(type_of(datatype).size()); });
}

// ---------------------------------------------------------------- one-sided

namespace {
lcmpi::mpi::Win& win_of(MPI_Win w) {
  RankState& s = st();
  LCMPI_CHECK(w >= 0 && static_cast<std::size_t>(w) < s.wins.size() &&
                  s.wins[static_cast<std::size_t>(w)] != nullptr,
              "bad window handle");
  return *s.wins[static_cast<std::size_t>(w)]->win;
}
}  // namespace

int MPI_Win_create(void* base, MPI_Aint size, int disp_unit, MPI_Info /*info*/,
                   MPI_Comm comm, MPI_Win* win) {
  return guarded([&] {
    RankState& s = st();
    auto ws = std::make_unique<WinState>(comm_of(comm));
    ws->win = std::make_unique<lcmpi::mpi::Win>(ws->comm, base,
                                                static_cast<std::int64_t>(size), disp_unit);
    s.wins.push_back(std::move(ws));
    *win = static_cast<MPI_Win>(s.wins.size() - 1);
  });
}

int MPI_Win_free(MPI_Win* win) {
  return guarded([&] {
    win_of(*win).free();  // throws (handle stays valid) on an open epoch
    st().wins[static_cast<std::size_t>(*win)].reset();
    *win = MPI_WIN_NULL;
  });
}

int MPI_Win_fence(int /*assert_flags*/, MPI_Win win) {
  return guarded([&] { win_of(win).fence(); });
}

int MPI_Put(const void* origin_addr, int origin_count, MPI_Datatype origin_datatype,
            int target_rank, MPI_Aint target_disp, int target_count,
            MPI_Datatype target_datatype, MPI_Win win) {
  return guarded([&] {
    win_of(win).put(origin_addr, origin_count, type_of(origin_datatype), target_rank,
                    static_cast<std::int64_t>(target_disp), target_count,
                    type_of(target_datatype));
  });
}

int MPI_Get(void* origin_addr, int origin_count, MPI_Datatype origin_datatype,
            int target_rank, MPI_Aint target_disp, int target_count,
            MPI_Datatype target_datatype, MPI_Win win) {
  return guarded([&] {
    win_of(win).get(origin_addr, origin_count, type_of(origin_datatype), target_rank,
                    static_cast<std::int64_t>(target_disp), target_count,
                    type_of(target_datatype));
  });
}

int MPI_Accumulate(const void* origin_addr, int origin_count,
                   MPI_Datatype origin_datatype, int target_rank, MPI_Aint target_disp,
                   int target_count, MPI_Datatype target_datatype, MPI_Op op,
                   MPI_Win win) {
  return guarded([&] {
    win_of(win).accumulate(origin_addr, origin_count, type_of(origin_datatype),
                           target_rank, static_cast<std::int64_t>(target_disp),
                           target_count, type_of(target_datatype), op_of(op));
  });
}

// -------------------------------------------------------------- collectives

int MPI_Barrier(MPI_Comm comm) {
  return guarded([&] { comm_of(comm).barrier(); });
}

int MPI_Bcast(void* buffer, int count, MPI_Datatype dt, int root, MPI_Comm comm) {
  return guarded([&] { comm_of(comm).bcast(buffer, count, type_of(dt), root); });
}

int MPI_Reduce(const void* sendbuf, void* recvbuf, int count, MPI_Datatype dt, MPI_Op op,
               int root, MPI_Comm comm) {
  return guarded(
      [&] { comm_of(comm).reduce(sendbuf, recvbuf, count, type_of(dt), op_of(op), root); });
}

int MPI_Allreduce(const void* sendbuf, void* recvbuf, int count, MPI_Datatype dt, MPI_Op op,
                  MPI_Comm comm) {
  return guarded(
      [&] { comm_of(comm).allreduce(sendbuf, recvbuf, count, type_of(dt), op_of(op)); });
}

int MPI_Gather(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
               int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm) {
  LCMPI_CHECK(sendtype == recvtype && sendcount == recvcount,
              "heterogeneous gather shapes unsupported");
  return guarded(
      [&] { comm_of(comm).gather(sendbuf, sendcount, recvbuf, type_of(sendtype), root); });
}

int MPI_Scatter(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                int recvcount, MPI_Datatype recvtype, int root, MPI_Comm comm) {
  LCMPI_CHECK(sendtype == recvtype && sendcount == recvcount,
              "heterogeneous scatter shapes unsupported");
  return guarded(
      [&] { comm_of(comm).scatter(sendbuf, recvbuf, recvcount, type_of(recvtype), root); });
}

int MPI_Allgather(const void* sendbuf, int sendcount, MPI_Datatype sendtype, void* recvbuf,
                  int recvcount, MPI_Datatype recvtype, MPI_Comm comm) {
  LCMPI_CHECK(sendtype == recvtype && sendcount == recvcount,
              "heterogeneous allgather shapes unsupported");
  return guarded(
      [&] { comm_of(comm).allgather(sendbuf, sendcount, recvbuf, type_of(sendtype)); });
}

int MPI_Scan(const void* sendbuf, void* recvbuf, int count, MPI_Datatype dt, MPI_Op op,
             MPI_Comm comm) {
  return guarded(
      [&] { comm_of(comm).scan(sendbuf, recvbuf, count, type_of(dt), op_of(op)); });
}

// ----------------------------------------------------------------- runners

namespace lcmpi::capi {
namespace {

template <typename World>
Duration run_impl(World& world, const std::function<void()>& c_main) {
  return world.run([&c_main](mpi::Comm& comm, sim::Actor& actor) {
    RankState state;
    state.comms.emplace_back(std::move(comm));
    actor.set_local(&state);
    try {
      c_main();
    } catch (...) {
      actor.set_local(nullptr);
      throw;
    }
    actor.set_local(nullptr);
  });
}

}  // namespace

Duration run_on(runtime::MeikoWorld& world, const std::function<void()>& c_main) {
  return run_impl(world, c_main);
}
Duration run_on(runtime::ClusterWorld& world, const std::function<void()>& c_main) {
  return run_impl(world, c_main);
}
Duration run_on(runtime::LoopWorld& world, const std::function<void()>& c_main) {
  return run_impl(world, c_main);
}
Duration run_on(runtime::ThreadsWorld& world, const std::function<void()>& c_main) {
  // Real threads: RankState still routes through Actor::current(), which a
  // detached actor pins per OS thread (Actor::BindScope in ThreadsWorld).
  return run_impl(world, c_main);
}
Duration run_on(runtime::SocketWorld& world, const std::function<void()>& c_main) {
  // Real processes: the lambda below executes in the forked child, where
  // SocketWorld binds a detached actor exactly as ThreadsWorld does.
  return run_impl(world, c_main);
}

int run_env(const std::function<void()>& c_main) {
  // One process = one rank (lcmpirun): same RankState binding as
  // run_impl, but over the fabric described by the LCMPI_* environment.
  return runtime::bootstrap::rank_main(
      [&c_main](mpi::Comm& comm, sim::Actor& actor) {
        RankState state;
        state.comms.emplace_back(std::move(comm));
        actor.set_local(&state);
        try {
          c_main();
        } catch (...) {
          actor.set_local(nullptr);
          throw;
        }
        actor.set_local(nullptr);
      });
}

}  // namespace lcmpi::capi
