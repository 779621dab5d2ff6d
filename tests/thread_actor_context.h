// The thread oracle for the kernel's fiber actors.
//
// ThreadActorContext is the kernel's original actor mechanism — one
// std::thread per actor with a mutex/condvar turn-taking handoff — kept
// as a differential oracle after the switch to stackful fibers
// (src/sim/fiber.h). Which side runs is a pure function of the kernel's
// event order, so a kernel built on it must produce exactly the traces,
// virtual times and switch counts of a fiber kernel; only host time
// differs. It enters a Kernel only through the test seam
// Kernel(ActorContextMaker); make_kernel() builds either side of a
// differential test.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "src/sim/kernel.h"

namespace lcmpi::sim {

/// A dedicated OS thread per actor, with a mutex/condvar "turn" token
/// enforcing that exactly one of {kernel, actor} runs at a time; every
/// switch costs two futex round trips. The thread is started parked
/// (waiting for the first resume) and joined by the destructor — the
/// kernel guarantees the body has finished (Kernel::cancel_all_actors)
/// before any Actor is destroyed, so the join never blocks.
class ThreadActorContext final : public ActorContext {
 public:
  explicit ThreadActorContext(std::function<void()> run) : run_(std::move(run)) {
    thread_ = std::thread([this] {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return turn_ == Turn::kActor; });
      }
      run_();
      std::unique_lock<std::mutex> lock(mu_);
      turn_ = Turn::kKernel;
      cv_.notify_all();
    });
  }

  ~ThreadActorContext() override {
    if (thread_.joinable()) thread_.join();
  }

  void resume() override {
    std::unique_lock<std::mutex> lock(mu_);
    turn_ = Turn::kActor;
    cv_.notify_all();
    cv_.wait(lock, [this] { return turn_ == Turn::kKernel; });
  }

  void yield() override {
    std::unique_lock<std::mutex> lock(mu_);
    turn_ = Turn::kKernel;
    cv_.notify_all();
    cv_.wait(lock, [this] { return turn_ == Turn::kActor; });
  }

 private:
  enum class Turn : std::uint8_t { kKernel, kActor };

  std::function<void()> run_;
  std::mutex mu_;
  std::condition_variable cv_;
  Turn turn_ = Turn::kKernel;
  std::thread thread_;
};

/// The two sides of an actor differential test.
enum class ActorMechanism { kFibers, kThreads };
inline constexpr ActorMechanism kBothMechanisms[] = {ActorMechanism::kFibers,
                                                     ActorMechanism::kThreads};

inline const char* mechanism_name(ActorMechanism m) {
  return m == ActorMechanism::kFibers ? "fibers" : "threads";
}

/// A kernel whose actors run as fibers (the production kernel) or on
/// ThreadActorContext.
inline std::unique_ptr<Kernel> make_kernel(ActorMechanism m) {
  if (m == ActorMechanism::kFibers) return std::make_unique<Kernel>();
  return std::make_unique<Kernel>(
      [](std::function<void()> run) -> std::unique_ptr<ActorContext> {
        return std::make_unique<ThreadActorContext>(std::move(run));
      });
}

}  // namespace lcmpi::sim
