#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "base/error.hpp"

// The hand-written switch is invisible to ASan/TSan, which do understand
// (and intercept) swapcontext; sanitizer builds and non-x86-64 targets
// therefore keep ucontext.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SCIOTO_FIBER_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SCIOTO_FIBER_SANITIZED 1
#endif

#if defined(__x86_64__) && !defined(SCIOTO_FIBER_SANITIZED)
#define SCIOTO_FIBER_ASM 1
#endif

namespace scioto::sim {

namespace {

std::size_t page_bytes() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

std::size_t round_up(std::size_t n, std::size_t to) {
  return (n + to - 1) / to * to;
}

}  // namespace

#ifdef SCIOTO_FIBER_ASM

// scioto_fiber_switch(save, to): pushes the SysV callee-saved registers
// plus MXCSR and the x87 control word, stores the stack pointer in *save,
// loads `to` and pops the same frame from it. scioto_fiber_start is the
// return address of a fresh fiber's primed frame: it calls r13(r12) and
// marks itself the outermost frame for unwinders.
extern "C" void scioto_fiber_switch(void** save, void* to);
extern "C" void scioto_fiber_start();
asm(R"(
  .pushsection .text
  .p2align 4
  .globl scioto_fiber_switch
  .hidden scioto_fiber_switch
  .type scioto_fiber_switch, @function
scioto_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size scioto_fiber_switch, .-scioto_fiber_switch

  .p2align 4
  .globl scioto_fiber_start
  .hidden scioto_fiber_start
  .type scioto_fiber_start, @function
scioto_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size scioto_fiber_start, .-scioto_fiber_start
  .popsection
)");

struct Fiber::Context {
  void* sp = nullptr;       // fiber's saved stack pointer
  void* host_sp = nullptr;  // host's saved stack pointer
};

void Fiber::entry(Fiber* self) noexcept {
  self->fn_();
  self->finished_ = true;
  self->yield();  // a finished fiber is never resumed
  std::abort();
}

void Fiber::resume() {
  SCIOTO_CHECK(!finished_);
  if (!started_) {
    started_ = true;
    // Prime the frame scioto_fiber_switch pops: control words (inherited
    // from the host), r15..r12, rbx, rbp, then the return address. It sits
    // 16-byte aligned so scioto_fiber_start's call sees an ABI stack.
    auto top = reinterpret_cast<std::uintptr_t>(ctx_) & ~std::uintptr_t{15};
    auto* frame = reinterpret_cast<std::uint64_t*>(top) - 8;
    std::uint32_t mxcsr = 0;
    std::uint16_t fpucw = 0;
    asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpucw));
    frame[0] = mxcsr | (std::uint64_t{fpucw} << 32);
    frame[1] = 0;                                                // r15
    frame[2] = 0;                                                // r14
    frame[3] = reinterpret_cast<std::uint64_t>(&Fiber::entry);   // r13
    frame[4] = reinterpret_cast<std::uint64_t>(this);            // r12
    frame[5] = 0;                                                // rbx
    frame[6] = 0;                                                // rbp
    frame[7] = reinterpret_cast<std::uint64_t>(&scioto_fiber_start);
    ctx_->sp = frame;
  }
  scioto_fiber_switch(&ctx_->host_sp, ctx_->sp);
}

void Fiber::yield() { scioto_fiber_switch(&ctx_->sp, ctx_->host_sp); }

#else

struct Fiber::Context {
  ucontext_t fiber;
  ucontext_t host;
};

void Fiber::entry(Fiber* self) noexcept {
  self->fn_();
  self->finished_ = true;
  // Returning from the makecontext entry point follows uc_link back to the
  // host context.
}

void Fiber::resume() {
  SCIOTO_CHECK(!finished_);
  if (!started_) {
    started_ = true;
    SCIOTO_CHECK(getcontext(&ctx_->fiber) == 0);
    auto* base = static_cast<char*>(map_) + page_bytes();
    ctx_->fiber.uc_stack.ss_sp = base;
    ctx_->fiber.uc_stack.ss_size = static_cast<std::size_t>(
        reinterpret_cast<char*>(ctx_) - base);
    ctx_->fiber.uc_link = &ctx_->host;
    // makecontext passes int arguments only: split the pointer in two.
    void (*trampoline)(unsigned, unsigned) = [](unsigned hi, unsigned lo) {
      Fiber::entry(reinterpret_cast<Fiber*>(
          (static_cast<std::uintptr_t>(hi) << 32) |
          static_cast<std::uintptr_t>(lo)));
    };
    auto p = reinterpret_cast<std::uintptr_t>(this);
    makecontext(&ctx_->fiber, reinterpret_cast<void (*)()>(trampoline), 2,
                static_cast<unsigned>(p >> 32),
                static_cast<unsigned>(p & 0xFFFFFFFFu));
  }
  SCIOTO_CHECK(swapcontext(&ctx_->host, &ctx_->fiber) == 0);
}

void Fiber::yield() {
  SCIOTO_CHECK(swapcontext(&ctx_->fiber, &ctx_->host) == 0);
}

#endif

// One mapping per fiber, low to high: a PROT_NONE guard page, the stack
// (growing down), and the Context at the very top. MAP_NORESERVE leaves
// every page uncommitted until the fiber first touches it.
Fiber::Fiber(std::function<void()> fn, std::size_t stack_bytes)
    : fn_(std::move(fn)) {
  SCIOTO_REQUIRE(stack_bytes >= 16 * 1024,
                 "fiber stack too small: " << stack_bytes);
  const std::size_t page = page_bytes();
  map_bytes_ = page + round_up(stack_bytes + sizeof(Context), page);
  map_ = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
              MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
  SCIOTO_REQUIRE(map_ != MAP_FAILED,
                 "cannot map a fiber stack of " << map_bytes_ << " bytes");
  SCIOTO_CHECK(mprotect(map_, page, PROT_NONE) == 0);
  auto top = reinterpret_cast<std::uintptr_t>(map_) + map_bytes_;
  ctx_ = new (reinterpret_cast<void*>(
      (top - sizeof(Context)) & ~std::uintptr_t{alignof(Context) - 1}))
      Context();
}

Fiber::~Fiber() {
  // A fiber destroyed mid-flight simply abandons its stack; the engine
  // guarantees fibers are either finished or never started at teardown.
  munmap(map_, map_bytes_);
}

}  // namespace scioto::sim
