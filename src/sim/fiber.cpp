#include "src/sim/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <vector>

#include "src/util/env.h"
#include "src/util/status.h"

// Implementation selection. The hand-rolled assembly switch is compiled in
// by CMake (fiber_switch_<arch>.S) which also defines LCMPI_FIBER_ASM; any
// other POSIX target falls back to ucontext over the same pooled stacks.
#if !defined(LCMPI_FIBER_ASM)
#define LCMPI_FIBER_UCONTEXT 1
#include <ucontext.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#define LCMPI_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LCMPI_ASAN 1
#endif
#endif

#if defined(LCMPI_ASAN)
#include <sanitizer/common_interface_defs.h>
#endif

#if defined(LCMPI_FIBER_ASM)
extern "C" {
/// Saves the callee-saved register set (+ FP control state) on the current
/// stack, stores the resulting stack pointer into *save_sp, switches to
/// target_sp and restores. Defined in fiber_switch_<arch>.S.
void lcmpi_fiber_switch(void** save_sp, void* target_sp);
/// First "return address" of a seeded fiber stack: moves the Fiber* from
/// its seeded register into the argument register and calls
/// lcmpi_fiber_entry.
void lcmpi_fiber_trampoline();
}
#endif

namespace lcmpi::sim {
namespace {

constexpr std::size_t kDefaultStackBytes = std::size_t{1} << 20;  // 1 MiB

// ASan fake-stack annotations; no-ops outside ASan builds. The protocol
// (sanitizer/common_interface_defs.h): call start just before abandoning a
// stack, finish first thing on the stack switched to; pass nullptr as the
// save slot on a fiber's terminal switch so ASan frees its fake stack.
inline void asan_start(void** fake_save, const void* bottom, std::size_t size) {
#if defined(LCMPI_ASAN)
  __sanitizer_start_switch_fiber(fake_save, bottom, size);
#else
  (void)fake_save; (void)bottom; (void)size;
#endif
}

inline void asan_finish(void* fake, const void** bottom_old, std::size_t* size_old) {
#if defined(LCMPI_ASAN)
  __sanitizer_finish_switch_fiber(fake, bottom_old, size_old);
#else
  (void)fake; (void)bottom_old; (void)size_old;
#endif
}

}  // namespace

std::size_t fiber_stack_bytes_from_env() {
  const char* v = std::getenv("LCMPI_FIBER_STACK_KB");
  if (v == nullptr) return kDefaultStackBytes;
  return static_cast<std::size_t>(
             env::parse_long("LCMPI_FIBER_STACK_KB", v, 64, 1048576)) *
         1024;
}

// ------------------------------------------------------------- FiberStack

FiberStack::FiberStack(std::size_t usable_bytes) {
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  usable_ = (usable_bytes + page - 1) / page * page;
  map_bytes_ = usable_ + page;  // one guard page below the usable region
  void* m = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  LCMPI_CHECK(m != MAP_FAILED, "fiber stack mmap failed");
  map_ = static_cast<std::byte*>(m);
  LCMPI_CHECK(::mprotect(map_, page, PROT_NONE) == 0,
              "fiber stack guard-page mprotect failed");
  base_ = map_ + page;
}

FiberStack::~FiberStack() {
  if (map_ != nullptr) ::munmap(map_, map_bytes_);
}

std::size_t FiberStack::touched() const {
  // Fresh anonymous pages (and reset() regions) read as zero, so the
  // deepest nonzero word bounds the stack's high-water mark. A page that
  // is not resident was never written since it was mapped or dropped, so
  // the scan starts at the lowest resident page: reading the untouched
  // span below it would fault in a zero page per page for nothing.
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  std::size_t from = 0;
  std::vector<unsigned char> resident(usable_ / page);
  if (::mincore(base_, usable_, resident.data()) == 0) {
    std::size_t p = 0;
    while (p < resident.size() && (resident[p] & 1) == 0) ++p;
    from = p * page;
  }
  const auto* words = reinterpret_cast<const std::uint64_t*>(base_ + from);
  const std::size_t n = (usable_ - from) / sizeof(std::uint64_t);
  std::size_t i = 0;
  while (i < n && words[i] == 0) ++i;
  return usable_ - from - i * sizeof(std::uint64_t);
}

void FiberStack::reset(std::size_t touched_bytes) {
  if (touched_bytes == 0) return;
  if (touched_bytes > usable_) touched_bytes = usable_;
#if defined(__linux__)
  // A deeply-used stack is cheaper to hand back to the kernel wholesale:
  // MADV_DONTNEED drops the pages and the next touch reads fresh zeros.
  if (touched_bytes >= (std::size_t{512} << 10)) {
    if (::madvise(base_, usable_, MADV_DONTNEED) == 0) return;
  }
#endif
  std::memset(base_ + (usable_ - touched_bytes), 0, touched_bytes);
}

// -------------------------------------------------------------- StackPool

StackPool::StackPool(std::size_t usable_bytes)
    : usable_bytes_(usable_bytes != 0 ? usable_bytes
                                      : fiber_stack_bytes_from_env()) {
  stats_.stack_bytes = usable_bytes_;
}

StackPool::~StackPool() = default;

FiberStack* StackPool::acquire() {
  if (!free_.empty()) {
    FiberStack* s = free_.back();
    free_.pop_back();
    ++stats_.reused;
    return s;
  }
  all_.push_back(std::make_unique<FiberStack>(usable_bytes_));
  ++stats_.allocated;
  stats_.stack_bytes = all_.back()->usable();
  return all_.back().get();
}

void StackPool::release(FiberStack* stack) {
  const std::size_t hw = stack->touched();
  if (hw > stats_.high_water) stats_.high_water = hw;
  stack->reset(hw);
  free_.push_back(stack);
}

// ------------------------------------------------------------------ Fiber

#if defined(LCMPI_FIBER_UCONTEXT)
namespace {
struct UcontextState {
  ucontext_t fiber;
  ucontext_t caller;
};

void ucontext_entry(unsigned int hi, unsigned int lo) {
  const auto p = (static_cast<std::uintptr_t>(hi) << 32) |
                 static_cast<std::uintptr_t>(lo);
  lcmpi_fiber_entry(reinterpret_cast<void*>(p));
}
}  // namespace
#endif

Fiber::Fiber(StackPool& pool, Entry entry, void* arg)
    : pool_(pool), entry_(entry), arg_(arg) {
  stack_ = pool_.acquire();
#if defined(LCMPI_FIBER_ASM)
  // Seed the stack with the frame lcmpi_fiber_switch restores from, so the
  // first switch_in "returns" into the trampoline with this Fiber* in the
  // seeded register. The stack is zeroed, so only nonzero slots are set.
  auto* sp = static_cast<std::uintptr_t*>(stack_->top());
#if defined(__x86_64__)
  // Layout (top down), matching fiber_switch_x86_64.S:
  //   [ret=trampoline][rbp][rbx][r12=Fiber*][r13=entry][r14][r15][fpctrl]
  std::uint32_t mxcsr = 0x1F80;
  std::uint16_t fcw = 0x037F;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fcw));
  *--sp = reinterpret_cast<std::uintptr_t>(&lcmpi_fiber_trampoline);
  --sp;                                                    // rbp = 0
  --sp;                                                    // rbx = 0
  *--sp = reinterpret_cast<std::uintptr_t>(this);          // r12
  *--sp = reinterpret_cast<std::uintptr_t>(&lcmpi_fiber_entry);  // r13
  --sp;                                                    // r14 = 0
  --sp;                                                    // r15 = 0
  *--sp = static_cast<std::uintptr_t>(mxcsr) |
          (static_cast<std::uintptr_t>(fcw) << 32);        // fp control
#elif defined(__aarch64__)
  // Layout matching fiber_switch_aarch64.S: a 160-byte save area holding
  // x19,x20 | x21..x28 | x29,x30 | d8..d15; x19 = Fiber*, x20 = entry,
  // x30 (lr) = trampoline.
  sp -= 160 / sizeof(std::uintptr_t);
  sp[0] = reinterpret_cast<std::uintptr_t>(this);                 // x19
  sp[1] = reinterpret_cast<std::uintptr_t>(&lcmpi_fiber_entry);   // x20
  sp[11] = reinterpret_cast<std::uintptr_t>(&lcmpi_fiber_trampoline);  // x30
#else
#error "LCMPI_FIBER_ASM defined for an architecture without a seeding recipe"
#endif
  fiber_sp_ = sp;
#elif defined(LCMPI_FIBER_UCONTEXT)
  auto* st = new UcontextState();
  impl_ = st;
  LCMPI_CHECK(::getcontext(&st->fiber) == 0, "getcontext failed");
  st->fiber.uc_stack.ss_sp = stack_->base();
  st->fiber.uc_stack.ss_size = stack_->usable();
  st->fiber.uc_link = nullptr;
  const auto p = reinterpret_cast<std::uintptr_t>(this);
  ::makecontext(&st->fiber, reinterpret_cast<void (*)()>(&ucontext_entry), 2,
                static_cast<unsigned int>(p >> 32),
                static_cast<unsigned int>(p & 0xFFFFFFFFu));
#endif
}

Fiber::~Fiber() {
  // A fiber abandoned while suspended mid-body would leave frames
  // un-unwound; the kernel's cancellation protocol guarantees actors run
  // to completion (ActorCancelled) before their fiber is destroyed.
  release_stack();
#if defined(LCMPI_FIBER_UCONTEXT)
  delete static_cast<UcontextState*>(impl_);
#endif
}

void Fiber::release_stack() {
  if (stack_ != nullptr) {
    pool_.release(stack_);
    stack_ = nullptr;
  }
}

void Fiber::switch_in() {
  LCMPI_CHECK(!finished_ && stack_ != nullptr, "switch_in on a finished fiber");
  asan_start(&asan_caller_fake_, stack_->base(), stack_->usable());
#if defined(LCMPI_FIBER_ASM)
  lcmpi_fiber_switch(&caller_sp_, fiber_sp_);
#elif defined(LCMPI_FIBER_UCONTEXT)
  auto* st = static_cast<UcontextState*>(impl_);
  LCMPI_CHECK(::swapcontext(&st->caller, &st->fiber) == 0, "swapcontext failed");
#endif
  asan_finish(asan_caller_fake_, nullptr, nullptr);
  // The fiber finished: its stack is idle again, so recycle it now — a
  // later-spawned actor in the same run reuses it while it is cache-warm.
  if (finished_) release_stack();
}

void Fiber::switch_out() {
  asan_start(&asan_fiber_fake_, asan_caller_bottom_, asan_caller_size_);
#if defined(LCMPI_FIBER_ASM)
  lcmpi_fiber_switch(&fiber_sp_, caller_sp_);
#elif defined(LCMPI_FIBER_UCONTEXT)
  auto* st = static_cast<UcontextState*>(impl_);
  LCMPI_CHECK(::swapcontext(&st->fiber, &st->caller) == 0, "swapcontext failed");
#endif
  // Resumed: record where we came from so the next switch_out can hand
  // ASan the caller's (possibly different) stack bounds.
  asan_finish(asan_fiber_fake_, &asan_caller_bottom_, &asan_caller_size_);
}

void Fiber::run_entry(Fiber* f) {
  // First words executed on the fiber stack: complete the ASan handover
  // and learn the caller stack's bounds for later switch-backs.
  asan_finish(f->asan_fiber_fake_, &f->asan_caller_bottom_,
              &f->asan_caller_size_);
  f->entry_(f->arg_);
  f->finished_ = true;
  // Terminal switch: nullptr save slot tells ASan this fake stack dies.
  asan_start(nullptr, f->asan_caller_bottom_, f->asan_caller_size_);
#if defined(LCMPI_FIBER_ASM)
  lcmpi_fiber_switch(&f->fiber_sp_, f->caller_sp_);
#elif defined(LCMPI_FIBER_UCONTEXT)
  auto* st = static_cast<UcontextState*>(f->impl_);
  ::swapcontext(&st->fiber, &st->caller);
#endif
  std::abort();  // a finished fiber must never be resumed
}

}  // namespace lcmpi::sim

extern "C" void lcmpi_fiber_entry(void* fiber) {
  lcmpi::sim::Fiber::run_entry(static_cast<lcmpi::sim::Fiber*>(fiber));
}
