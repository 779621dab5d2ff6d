// Communicator — the user-facing MPI interface of the low-latency library.
//
// A Comm owns a process group (comm rank -> world rank), a pair of context
// ids (point-to-point and collective traffic are segregated, MPICH-style),
// and translates between comm ranks and the engine's world ranks. dup()
// and split() are collective and agree on fresh context ids by an
// allreduce over the parent group, so overlapping communicators can never
// collide (disjoint ones may share ids harmlessly).
//
// Collectives are implemented over point-to-point — except broadcast and
// barrier, which use the fabric's hardware broadcast and barrier when it
// has them and the communicator spans the world (the paper's Meiko
// MPI_Bcast; ShmFabric's shared counter and shared payload).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "src/core/engine.h"
#include "src/core/group.h"
#include "src/core/profile.h"

namespace lcmpi::mpi {

class Comm {
 public:
  /// The world communicator over every rank of the engine's fabric.
  static Comm world(Engine& engine);

  [[nodiscard]] int rank() const { return my_rank_; }
  [[nodiscard]] int size() const { return static_cast<int>(group_.size()); }
  [[nodiscard]] Engine& engine() const { return *eng_; }
  [[nodiscard]] std::uint32_t context() const { return ctx_pt2pt_; }
  [[nodiscard]] int world_rank(int comm_rank) const;

  // --- point-to-point --------------------------------------------------------
  void send(const void* buf, int count, const Datatype& type, int dst, int tag,
            Mode mode = Mode::kStandard);
  Status recv(void* buf, int count, const Datatype& type, int src, int tag);
  Request isend(const void* buf, int count, const Datatype& type, int dst, int tag,
                Mode mode = Mode::kStandard);
  Request irecv(void* buf, int count, const Datatype& type, int src, int tag);
  void wait(const Request& req);
  bool test(const Request& req);
  void wait_all(const std::vector<Request>& reqs);
  /// Index of the first completed request (blocks until one finishes).
  std::size_t wait_any(const std::vector<Request>& reqs);
  /// Indices of all currently completed requests, blocking until at least
  /// one completes (MPI_Waitsome).
  std::vector<std::size_t> wait_some(const std::vector<Request>& reqs);
  /// True when every request has completed (one progress pass).
  bool test_all(const std::vector<Request>& reqs);
  /// Index of some completed request, if any (one progress pass).
  std::optional<std::size_t> test_any(const std::vector<Request>& reqs);

  // --- persistent requests (MPI_Send_init / MPI_Recv_init / MPI_Start) -----
  struct PersistentOp {
    bool is_send = false;
    const void* send_buf = nullptr;
    void* recv_buf = nullptr;
    int count = 0;
    Datatype type;
    int peer = 0;  // dst or src (may be wildcards/kProcNull per direction)
    int tag = 0;
    Mode mode = Mode::kStandard;
  };
  [[nodiscard]] PersistentOp send_init(const void* buf, int count, const Datatype& type,
                                       int dst, int tag, Mode mode = Mode::kStandard) const;
  [[nodiscard]] PersistentOp recv_init(void* buf, int count, const Datatype& type, int src,
                                       int tag) const;
  /// Fires one instance of the persistent operation.
  Request start(const PersistentOp& op);
  Status sendrecv(const void* sendbuf, int sendcount, const Datatype& sendtype, int dst,
                  int sendtag, void* recvbuf, int recvcount, const Datatype& recvtype,
                  int src, int recvtag);
  /// In-place exchange (MPI_Sendrecv_replace): the buffer is sent to `dst`
  /// and overwritten with the message from `src`.
  Status sendrecv_replace(void* buf, int count, const Datatype& type, int dst, int sendtag,
                          int src, int recvtag);
  Status probe(int src, int tag);
  std::optional<Status> iprobe(int src, int tag);

  /// Converts an engine Status (world source rank) to comm ranks.
  [[nodiscard]] Status translate(Status s) const;

  // --- collectives -----------------------------------------------------------
  void barrier();
  void bcast(void* buf, int count, const Datatype& type, int root);
  void reduce(const void* sendbuf, void* recvbuf, int count, const Datatype& type, Op op,
              int root);
  void allreduce(const void* sendbuf, void* recvbuf, int count, const Datatype& type, Op op);

  /// User-defined reduction operator (MPI_Op_create): combines `in` into
  /// `inout`, elementwise over `count` elements of the datatype. Must be
  /// associative; commutativity is NOT required — every reduction
  /// algorithm folds contributions in ascending rank order
  /// (lower-rank accumulator op= higher-rank data).
  using UserOp = std::function<void(const void* in, void* inout, int count)>;
  void reduce(const void* sendbuf, void* recvbuf, int count, const Datatype& type,
              const UserOp& op, int root);
  void allreduce(const void* sendbuf, void* recvbuf, int count, const Datatype& type,
                 const UserOp& op);
  void gather(const void* sendbuf, int sendcount, void* recvbuf, const Datatype& type,
              int root);
  void scatter(const void* sendbuf, void* recvbuf, int recvcount, const Datatype& type,
               int root);
  void allgather(const void* sendbuf, int sendcount, void* recvbuf, const Datatype& type);
  void alltoall(const void* sendbuf, int count_per_peer, void* recvbuf, const Datatype& type);
  /// Inclusive prefix reduction (MPI_Scan): rank r receives op over ranks 0..r.
  void scan(const void* sendbuf, void* recvbuf, int count, const Datatype& type, Op op);
  /// Reduce then scatter equal blocks: rank r gets block r of the reduction.
  void reduce_scatter_block(const void* sendbuf, void* recvbuf, int count_per_rank,
                            const Datatype& type, Op op);
  /// Variable-count gather: rank r contributes counts[r] elements,
  /// concatenated at displacements displs[r] (elements) on the root.
  void gatherv(const void* sendbuf, int sendcount, void* recvbuf,
               const std::vector<int>& counts, const std::vector<int>& displs,
               const Datatype& type, int root);
  /// Variable-count scatter (the inverse of gatherv).
  void scatterv(const void* sendbuf, const std::vector<int>& counts,
                const std::vector<int>& displs, void* recvbuf, int recvcount,
                const Datatype& type, int root);

  // --- communicator management ------------------------------------------------
  [[nodiscard]] Comm dup();
  /// Collective split; ranks passing color < 0 receive std::nullopt.
  [[nodiscard]] std::optional<Comm> split(int color, int key);
  /// This communicator's process group.
  [[nodiscard]] Group group() const { return Group(group_); }
  /// Collective (over this comm): new communicator over `g`, which must be
  /// a subset of this group; non-members receive std::nullopt
  /// (MPI_Comm_create).
  [[nodiscard]] std::optional<Comm> create_from_group(const Group& g);

  /// Number of broadcasts completed (hardware-broadcast sequencing).
  [[nodiscard]] std::uint64_t bcast_count() const { return bcast_seq_; }

  /// Elapsed virtual time in seconds (MPI_Wtime).
  [[nodiscard]] double wtime() const { return static_cast<double>(eng_->now().ns) / 1e9; }

  /// Attaches a profiler recording per-call counts/time/bytes (the MPI
  /// profiling interface). Derived communicators inherit it.
  void set_profiler(Profiler* p) { profiler_ = p; }
  [[nodiscard]] Profiler* profiler() const { return profiler_; }

 private:
  Comm(Engine& engine, std::vector<int> group, int my_rank, std::uint32_t ctx_pt2pt);

  /// Elementwise fold shared by the built-in Op and UserOp reduction paths:
  /// inout = inout op in, over count elements.
  using CombineFn = std::function<void(const void* in, void* inout, int count)>;

  // Broadcast algorithms (software).
  void p2p_tree_bcast(void* buf, int count, const Datatype& type, int root);
  void scatter_allgather_bcast(void* buf, int count, const Datatype& type, int root);
  void ring_bcast(void* buf, int count, const Datatype& type, int root);

  // Reduction algorithms. All fold in ascending rank order, so results are
  // bit-identical across algorithms whenever the op is exactly associative.
  void reduce_impl(const void* sendbuf, void* recvbuf, int count, const Datatype& type,
                   const CombineFn& combine, int root, coll::Algo algo);
  void binomial_reduce(const void* sendbuf, void* recvbuf, int count, const Datatype& type,
                       const CombineFn& combine, int root);
  void chain_reduce(const void* sendbuf, void* recvbuf, int count, const Datatype& type,
                    const CombineFn& combine, int root);
  void rs_reduce(const void* sendbuf, void* recvbuf, int count, const Datatype& type,
                 const CombineFn& combine, int root);
  void rs_allreduce(const void* sendbuf, void* recvbuf, int count, const Datatype& type,
                    const CombineFn& combine);
  void allreduce_impl(const void* sendbuf, void* recvbuf, int count, const Datatype& type,
                      const CombineFn& combine);
  /// Block reduce-scatter: direct exchange (rank b owns block b), then an
  /// ascending fold of all contributions locally. On return `myblock`
  /// holds this rank's reduced block.
  void reduce_scatter_ascending(const void* sendbuf, const Datatype& type,
                                const std::vector<int>& starts, const std::vector<int>& lens,
                                const CombineFn& combine, std::byte* myblock);

  // Barrier algorithms (software).
  void barrier_dissemination();
  void barrier_tree();
  void barrier_ring();

  std::uint32_t agree_new_context();
  [[nodiscard]] bool spans_world() const;

  Engine* eng_;
  std::vector<int> group_;  // comm rank -> world rank
  int my_rank_;
  std::uint32_t ctx_pt2pt_;
  std::uint32_t ctx_coll_;
  std::uint64_t bcast_seq_ = 0;
  Profiler* profiler_ = nullptr;
};

/// Applies a reduction op elementwise; type must be a basic numeric type.
void reduce_op(const Datatype& type, Op op, const void* in, void* inout, int count);

}  // namespace lcmpi::mpi
