// Stackful cooperative fibers.
//
// The virtual-time engine runs every simulated process ("rank") as a fiber
// inside a single OS thread: execution is therefore deterministic, and up
// to ~1024 ranks cost only their stacks. On x86-64 a fiber switch is a few
// instructions of inline assembly that save the callee-saved registers and
// the floating-point control words, with no system call. Sanitizer builds
// and other targets switch with POSIX ucontext instead, which the
// sanitizers understand. Either way each stack is a lazily committed
// mapping with a guard page below it, so an overflow faults at once.
#pragma once

#include <cstddef>
#include <functional>

namespace scioto::sim {

/// A single fiber: a function plus a private stack, cooperatively switched
/// against a host (scheduler) context.
class Fiber {
 public:
  /// `fn` runs when the fiber is first resumed. `stack_bytes` is the fiber
  /// stack size; UTS and the apps use explicit work stacks, so 256 KiB is
  /// ample by default.
  Fiber(std::function<void()> fn, std::size_t stack_bytes);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switch from the host context into this fiber. Returns when the fiber
  /// yields or finishes.
  void resume();

  /// Called from inside the fiber: switch back to the host context.
  void yield();

  /// True once fn has returned.
  bool finished() const { return finished_; }

 private:
  struct Context;  // saved switch state; defined per switch in fiber.cpp

  static void entry(Fiber* self) noexcept;

  std::function<void()> fn_;
  void* map_ = nullptr;  // guard page + stack, one mapping
  std::size_t map_bytes_ = 0;
  Context* ctx_ = nullptr;  // lives at the top of the mapping
  bool started_ = false;
  bool finished_ = false;
};

}  // namespace scioto::sim
