#include "src/core/profile.h"

namespace lcmpi::mpi {

const char* call_kind_name(CallKind k) {
  switch (k) {
    case CallKind::kSend: return "send";
    case CallKind::kRecv: return "recv";
    case CallKind::kIsend: return "isend";
    case CallKind::kIrecv: return "irecv";
    case CallKind::kWait: return "wait";
    case CallKind::kTest: return "test";
    case CallKind::kProbe: return "probe";
    case CallKind::kSendrecv: return "sendrecv";
    case CallKind::kBcast: return "bcast";
    case CallKind::kBarrier: return "barrier";
    case CallKind::kReduce: return "reduce";
    case CallKind::kAllreduce: return "allreduce";
    case CallKind::kGather: return "gather";
    case CallKind::kScatter: return "scatter";
    case CallKind::kAllgather: return "allgather";
    case CallKind::kAlltoall: return "alltoall";
    case CallKind::kScan: return "scan";
    case CallKind::kCommMgmt: return "comm-mgmt";
    case CallKind::kCount: break;
  }
  return "?";
}

Table matching_report(const MatchStats& posted, const MatchStats& unexpected) {
  Table t({"queue", "lookups", "hits", "entries_scanned", "avg_scan", "max_depth",
           "buckets", "max_bucket"});
  const auto row = [&t](const char* name, const MatchStats& s) {
    const double avg =
        s.lookups == 0 ? 0.0
                       : static_cast<double>(s.entries_scanned) / static_cast<double>(s.lookups);
    t.add_row({name, std::to_string(s.lookups), std::to_string(s.hits),
               std::to_string(s.entries_scanned), fmt(avg, 2),
               std::to_string(s.max_depth), std::to_string(s.buckets),
               std::to_string(s.max_bucket)});
  };
  row("posted", posted);
  row("unexpected", unexpected);
  return t;
}

Table actor_report(const sim::ActorStats& s) {
  Table t({"metric", "value"});
  t.add_row({"switches", std::to_string(s.switches)});
  t.add_row({"actors_spawned", std::to_string(s.actors_spawned)});
  t.add_row({"stacks_allocated", std::to_string(s.stacks_allocated)});
  t.add_row({"stack_reuses", std::to_string(s.stack_reuses)});
  t.add_row({"stack_high_water", std::to_string(s.stack_high_water)});
  t.add_row({"stack_bytes", std::to_string(s.stack_bytes)});
  return t;
}

Table fabric_report(const fabric::SocketFabric::Stats& s) {
  Table t({"metric", "value"});
  t.add_row({"messages_tx", std::to_string(s.messages_tx)});
  t.add_row({"messages_rx", std::to_string(s.messages_rx)});
  t.add_row({"bytes_tx", std::to_string(s.bytes_tx)});
  t.add_row({"bytes_rx", std::to_string(s.bytes_rx)});
  t.add_row({"send_stalls", std::to_string(s.send_stalls)});
  t.add_row({"idle_polls", std::to_string(s.idle_polls)});
  t.add_row({"dial_retries", std::to_string(s.dial_retries)});
  t.add_row({"fds_open", std::to_string(s.fds_open)});
  t.add_row({"pairs_connected", std::to_string(s.pairs_connected)});
  t.add_row({"lazy_dials", std::to_string(s.lazy_dials)});
  t.add_row({"epoll_wakeups", std::to_string(s.epoll_wakeups)});
  t.add_row({"bulk_tx_transfers", std::to_string(s.bulk_tx_transfers)});
  t.add_row({"bulk_rx_transfers", std::to_string(s.bulk_rx_transfers)});
  t.add_row({"bulk_tx_bytes", std::to_string(s.bulk_tx_bytes)});
  t.add_row({"bulk_rx_bytes", std::to_string(s.bulk_rx_bytes)});
  t.add_row({"memfd_pairs", std::to_string(s.memfd_pairs)});
  t.add_row({"doorbells_tx", std::to_string(s.doorbells_tx)});
  return t;
}

Table fabric_report(const fabric::ShmFabric::Stats& s) {
  Table t({"metric", "value"});
  t.add_row({"messages", std::to_string(s.messages)});
  t.add_row({"full_parks", std::to_string(s.full_parks)});
  t.add_row({"idle_parks", std::to_string(s.idle_parks)});
  t.add_row({"bulk_transfers", std::to_string(s.bulk_transfers)});
  t.add_row({"bulk_bytes", std::to_string(s.bulk_bytes)});
  t.add_row({"rings", std::to_string(s.rings)});
  return t;
}

Table pool_report(const BufferPool::Stats& s) {
  Table t({"metric", "value"});
  t.add_row({"acquires", std::to_string(s.acquires)});
  t.add_row({"reuses", std::to_string(s.reuses)});
  t.add_row({"releases", std::to_string(s.releases)});
  t.add_row({"discards", std::to_string(s.discards)});
  t.add_row({"bytes_allocated", std::to_string(s.bytes_allocated)});
  return t;
}

Table Profiler::report() const {
  Table t({"call", "count", "time_us", "bytes"});
  for (std::size_t k = 0; k < entries_.size(); ++k) {
    const Entry& e = entries_[k];
    if (e.calls == 0) continue;
    t.add_row({call_kind_name(static_cast<CallKind>(k)), std::to_string(e.calls),
               fmt(e.time.usec()), std::to_string(e.bytes)});
  }
  return t;
}

}  // namespace lcmpi::mpi
