#include "src/fabric/fabric.h"

namespace lcmpi::fabric {

TimePoint Endpoint::now() const { return fabric_.kernel().now(); }

std::uint64_t Endpoint::stage_bulk(sim::Actor&, Bytes, std::function<void()>) {
  throw InternalError("this fabric does not support pull-mode rendezvous");
}

void Endpoint::pull_bulk(sim::Actor&, int, std::uint64_t, std::function<void(Bytes)>) {
  throw InternalError("this fabric does not support pull-mode rendezvous");
}

void Endpoint::hw_broadcast(sim::Actor&, ProtoMsg) {
  throw InternalError("this fabric does not support hardware broadcast");
}

void Endpoint::hw_barrier_enter(sim::Actor&) {
  throw InternalError("this fabric does not support hardware barrier");
}

void Endpoint::bulk_post(int, std::uint64_t, void*, std::size_t) {
  throw InternalError("this fabric has no bulk data plane");
}

void Endpoint::bulk_send(sim::Actor&, int, std::uint64_t, const void*, std::size_t) {
  throw InternalError("this fabric has no bulk data plane");
}

void Endpoint::rma_expose(std::uint64_t, void*, std::int64_t, void*) {
  // Message-mode fabrics have nothing to register: kRma* frames carry the
  // window key and the target's engine routes them to its window layer.
}

void Endpoint::rma_retract(std::uint64_t) {}

bool Endpoint::rma_direct(int, std::uint64_t, RmaSegment*) { return false; }

std::optional<ProtoMsg> Endpoint::poll(sim::Actor&) {
  if (incoming_.empty()) return std::nullopt;
  ProtoMsg m = std::move(incoming_.front());
  incoming_.pop_front();
  return m;
}

void Endpoint::wait_activity(sim::Actor& self) { self.wait(activity_); }

void Endpoint::deliver(ProtoMsg msg) {
  incoming_.push_back(std::move(msg));
  activity_.notify_all();
}

}  // namespace lcmpi::fabric
