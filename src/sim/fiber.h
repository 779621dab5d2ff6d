// Stackful user-space fibers — how the simulation kernel runs its actors.
//
// A Fiber is a cooperative coroutine with its own call stack, switched
// entirely in user space: saving and restoring the callee-saved register
// set and the stack pointer, nothing else. One switch is a few dozen
// instructions (no syscall, no futex, no scheduler), which is what lets a
// simulated MPI call cross the kernel↔actor boundary in tens of
// nanoseconds instead of the microseconds a mutex/condvar thread handoff
// costs (that handoff survives only in the tests, as the differential
// oracle tests/thread_actor_context.h).
//
// Switch mechanics, per target:
//  * x86-64 / AArch64 (GNU toolchains): hand-rolled assembly
//    (fiber_switch_<arch>.S) saving the System V callee-saved registers
//    plus the FP control state; a new fiber's stack is pre-seeded with a
//    frame whose return address is a tiny trampoline that moves the Fiber
//    pointer into the argument register and calls the C++ entry.
//  * other POSIX targets: ucontext_t (makecontext/swapcontext) over the
//    same pooled stacks — slower (it saves the signal mask via a syscall)
//    but correct.
//
// Stacks come from a StackPool: mmap'd regions with a PROT_NONE guard
// page at the low end, so running off the end of a fiber stack faults
// loudly instead of silently corrupting a neighbouring allocation. Stacks
// are recycled across actor lifetimes (an actor that finishes returns its
// stack to the pool before the next one starts); because fresh anonymous
// pages read as zero, the pool measures each stack's high-water mark on
// release by scanning, from its lowest resident page (mincore(2)), for the
// deepest non-zero byte, then re-zeroes only
// the touched region — memory cost tracks actual use, not the configured
// size. The usable stack size is configurable (LCMPI_FIBER_STACK_KB, or
// StackPool's constructor argument).
//
// Exceptions never cross a switch: ActorCancelled and actor errors are
// thrown and caught on the fiber's own stack (Actor::run_body), so the
// unwinder never has to walk through the hand-written trampoline frame.
//
// Under AddressSanitizer the switches are annotated with
// __sanitizer_{start,finish}_switch_fiber so ASan tracks the stack
// changes instead of reporting false positives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

/// C entry point the context-switch trampoline calls on a fresh fiber
/// stack (the asm seeds a register with the Fiber*; the trampoline moves
/// it into the argument register and calls here). Never returns.
extern "C" void lcmpi_fiber_entry(void* fiber);

namespace lcmpi::sim {

/// One fiber stack: a mmap'd region with a guard page below the usable
/// range. Usable memory is zero on first use; the pool keeps it zeroed
/// between borrows so high-water scans stay meaningful.
class FiberStack {
 public:
  explicit FiberStack(std::size_t usable_bytes);
  ~FiberStack();
  FiberStack(const FiberStack&) = delete;
  FiberStack& operator=(const FiberStack&) = delete;

  /// Highest usable address (16-byte aligned); stacks grow down from here.
  [[nodiscard]] void* top() const { return base_ + usable_; }
  [[nodiscard]] std::byte* base() const { return base_; }
  [[nodiscard]] std::size_t usable() const { return usable_; }

  /// Bytes from the deepest non-zero byte to the top — the observed stack
  /// use since the region was last zeroed. Costs the depth, not the size:
  /// the word-wise scan starts at the lowest resident page (mincore(2)).
  [[nodiscard]] std::size_t touched() const;

  /// Re-zeroes the touched region so the next borrower starts clean.
  void reset(std::size_t touched_bytes);

 private:
  std::byte* map_ = nullptr;    // mmap base (the guard page)
  std::size_t map_bytes_ = 0;   // total mapped (guard + usable)
  std::byte* base_ = nullptr;   // lowest usable address
  std::size_t usable_ = 0;
};

/// Host-side counters for a pool (folded into Kernel::actor_stats).
struct StackPoolStats {
  std::uint64_t allocated = 0;   // fresh stacks mmap'd
  std::uint64_t reused = 0;      // borrows served from the free list
  std::size_t high_water = 0;    // deepest stack use observed at any release
  std::size_t stack_bytes = 0;   // configured usable bytes per stack
};

/// Free list of fiber stacks, owned by one Kernel (single-threaded by the
/// cooperative scheduling discipline, so no locking). Released stacks are
/// measured, re-zeroed, and recycled in LIFO order — the hot cache-warm
/// stack goes back out first.
class StackPool {
 public:
  /// `usable_bytes` is rounded up to whole pages; 0 picks the default
  /// (LCMPI_FIBER_STACK_KB if set, else 1 MiB; see below).
  explicit StackPool(std::size_t usable_bytes = 0);
  ~StackPool();
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;

  FiberStack* acquire();
  void release(FiberStack* stack);

  [[nodiscard]] const StackPoolStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t free_count() const { return free_.size(); }

 private:
  std::size_t usable_bytes_;
  std::vector<std::unique_ptr<FiberStack>> all_;
  std::vector<FiberStack*> free_;
  StackPoolStats stats_;
};

/// Reads LCMPI_FIBER_STACK_KB (usable KiB per fiber stack, an integer in
/// [64, 1048576]); returns the 1 MiB default when unset. A malformed or
/// out-of-range value throws env::EnvError naming the variable and value.
[[nodiscard]] std::size_t fiber_stack_bytes_from_env();

/// A stackful coroutine bound to a pooled stack. The entry function runs
/// on the fiber's stack; when it returns, the fiber is finished and
/// control lands back in the most recent switch_in() caller.
class Fiber {
 public:
  using Entry = void (*)(void*);

  /// Acquires a stack from `pool` and seeds it so the first switch_in()
  /// calls entry(arg) on it. The stack is returned to the pool by the
  /// destructor (or as soon as the fiber finishes, by switch_in).
  Fiber(StackPool& pool, Entry entry, void* arg);
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Transfers control into the fiber; returns when the fiber calls
  /// switch_out() or its entry returns. Must not be called from inside
  /// the fiber, nor after finished().
  void switch_in();

  /// Transfers control back to the switch_in() caller. Must be called
  /// from inside the fiber.
  void switch_out();

  [[nodiscard]] bool finished() const { return finished_; }

 private:
  friend void ::lcmpi_fiber_entry(void*);

  static void run_entry(Fiber* f);  // runs on the fiber stack
  void release_stack();

  StackPool& pool_;
  FiberStack* stack_ = nullptr;
  Entry entry_;
  void* arg_;
  bool finished_ = false;

  // Saved stack pointers (asm path) or ucontext_t storage (fallback);
  // opaque so this header stays libc-agnostic.
  void* fiber_sp_ = nullptr;
  void* caller_sp_ = nullptr;
  void* impl_ = nullptr;  // ucontext fallback state, if any

  // AddressSanitizer fake-stack bookkeeping (no-ops outside ASan builds).
  void* asan_caller_fake_ = nullptr;
  void* asan_fiber_fake_ = nullptr;
  const void* asan_caller_bottom_ = nullptr;
  std::size_t asan_caller_size_ = 0;
};

}  // namespace lcmpi::sim
