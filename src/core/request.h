// Request objects for nonblocking operations.
#pragma once

#include <cstdint>
#include <memory>

#include "src/core/datatype.h"
#include "src/core/types.h"
#include "src/util/bytes.h"

namespace lcmpi::mpi {

/// Shared state of one nonblocking operation. The engine owns progress;
/// user code holds a Request (shared_ptr) and waits/tests on it.
struct RequestState {
  enum class Kind : std::uint8_t { kSend, kRecv };
  Kind kind = Kind::kSend;
  std::uint64_t id = 0;
  bool done = false;
  Status status;  // filled for receives (and error reporting on sends)

  // --- send-side fields -------------------------------------------------------
  Mode mode = Mode::kStandard;
  int dst = -1;  // world rank
  bool launched = false;       // protocol message actually handed to fabric
  bool needs_ssend_ack = false;
  bool got_ssend_ack = false;
  bool data_out = false;       // payload has left (or been secured from) the user buffer
  Bytes send_payload;          // packed payload (eager; push-rendezvous packs lazily)
  const void* send_buf = nullptr;  // for lazy pack on CTS
  int send_count = 0;
  Datatype send_type;
  std::int32_t tag = 0;
  std::uint32_t context = 0;
  bool from_bsend_buffer = false;  // on completion, release attached-buffer bytes
  std::int64_t bsend_bytes = 0;
  bool bulk_pooled = false;  // send_payload came from the engine's BufferPool

  // --- receive-side fields ----------------------------------------------------
  void* recv_buf = nullptr;
  int recv_count = 0;
  Datatype recv_type;
  int src = kAnySource;  // world rank or wildcard
  bool matched = false;
  // Bulk-plane rendezvous state: total size announced by the RTS, and the
  // pooled staging buffer a non-contiguous receive type lands in (a
  // contiguous one lands straight in the user buffer), unpacked at
  // kBulkDelivered.
  std::uint32_t bulk_total = 0;
  Bytes bulk_staging;
};

using Request = std::shared_ptr<RequestState>;

}  // namespace lcmpi::mpi
