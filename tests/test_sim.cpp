// Tests for the virtual-time engine: fibers, min-clock scheduling,
// determinism, locks with queueing-delay handoff, barriers, eventcounts,
// and RMA target occupancy.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cfenv>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <vector>

#include "base/error.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/machine.hpp"

namespace scioto::sim {
namespace {

Engine::Config cfg(int n) {
  Engine::Config c;
  c.nranks = n;
  c.machine = test_machine();
  return c;
}

TEST(Fiber, RunsAndFinishes) {
  int calls = 0;
  Fiber f([&] { ++calls; }, 64 * 1024);
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(calls, 1);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  std::vector<int> order;
  Fiber* self = nullptr;
  Fiber f(
      [&] {
        order.push_back(1);
        self->yield();
        order.push_back(3);
      },
      64 * 1024);
  self = &f;
  f.resume();
  order.push_back(2);
  f.resume();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(f.finished());
}

struct Killed {
  int rank;
};

// Yields at the bottom of a `depth`-deep call chain, then throws through
// every frame of it (as fault::RankKilled unwinds a rank's SPMD body).
void dive_and_throw(Fiber* self, int rank, int depth) {
  volatile char frame[128];
  frame[0] = static_cast<char>(depth);
  if (depth == 0) {
    self->yield();
    throw Killed{rank};
  }
  dive_and_throw(self, rank, depth - 1);
  frame[1] = frame[0];
}

TEST(Fiber, ExceptionUnwindsInsideFiberAcrossYields) {
  std::vector<int> caught;
  Fiber* fibers[2] = {nullptr, nullptr};
  auto body = [&](int rank) {
    for (int round = 0; round < 3; ++round) {
      try {
        fibers[rank]->yield();
        dive_and_throw(fibers[rank], rank, 8 + rank);
      } catch (const Killed& k) {
        caught.push_back(k.rank);
      }
      fibers[rank]->yield();
    }
  };
  Fiber a([&] { body(0); }, 64 * 1024);
  Fiber b([&] { body(1); }, 64 * 1024);
  fibers[0] = &a;
  fibers[1] = &b;
  int host_caught = 0;
  while (!a.finished() || !b.finished()) {
    if (!a.finished()) a.resume();
    // The host unwinds its own exceptions while both fibers sit suspended
    // inside try blocks.
    try {
      throw Killed{-1};
    } catch (const Killed&) {
      ++host_caught;
    }
    if (!b.finished()) b.resume();
  }
  EXPECT_EQ(caught, (std::vector<int>{0, 1, 0, 1, 0, 1}));
  EXPECT_GT(host_caught, 0);
}

TEST(Fiber, RoundingModeStaysWithItsFiber) {
  const int host_mode = std::fegetround();
  ASSERT_EQ(host_mode, FE_TONEAREST);
  volatile double one = 1.0, ten = 10.0;
  const double nearest = one / ten;
  Fiber* self = nullptr;
  double in_fiber = 0.0;
  int mode_seen_later = -1;
  Fiber changer(
      [&] {
        std::fesetround(FE_TOWARDZERO);
        in_fiber = one / ten;
        self->yield();
        mode_seen_later = std::fegetround();
        in_fiber = one / ten;
      },
      64 * 1024);
  self = &changer;
  int other_mode = -1;
  double in_other = 0.0;
  Fiber other(
      [&] {
        other_mode = std::fegetround();
        in_other = one / ten;
      },
      64 * 1024);

  changer.resume();
  EXPECT_LT(in_fiber, nearest);  // 1/10 rounds up to nearest, down to zero
  EXPECT_EQ(std::fegetround(), host_mode);
  EXPECT_EQ(one / ten, nearest);
  other.resume();
  EXPECT_EQ(other_mode, FE_TONEAREST);
  EXPECT_EQ(in_other, nearest);
  changer.resume();
  EXPECT_EQ(mode_seen_later, FE_TOWARDZERO);
  EXPECT_LT(in_fiber, nearest);
  EXPECT_TRUE(changer.finished());
  EXPECT_EQ(std::fegetround(), host_mode);
  EXPECT_EQ(one / ten, nearest);
}

/// Resident set size of this process, from /proc/self/statm.
std::size_t rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

TEST(Fiber, StacksAreCommittedLazily) {
  // 1024 engine-default 256 KiB stacks would pin 256 MiB if committed up
  // front; each fiber here touches ~4 KiB of its stack. The bound is a
  // quarter of the full commit, loose enough for sanitizer shadow memory.
  constexpr int kFibers = 1024;
  constexpr std::size_t kStack = 256 * 1024;
  constexpr std::size_t kBound = kFibers * kStack / 4;
  const std::size_t before = rss_bytes();
  std::vector<std::unique_ptr<Fiber>> fibers;
  fibers.reserve(kFibers);
  long sum = 0;
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<Fiber>(
        [&, i] {
          volatile char touched[4096];
          for (std::size_t k = 0; k < sizeof(touched); k += 64) {
            touched[k] = static_cast<char>(i);
          }
          fibers[static_cast<std::size_t>(i)]->yield();
          sum += touched[0];
        },
        kStack));
  }
  for (auto& f : fibers) f->resume();  // every stack is live at once here
  const std::size_t grown = rss_bytes() - std::min(before, rss_bytes());
  for (auto& f : fibers) f->resume();
  EXPECT_LT(grown, kBound) << "RSS grew " << grown / 1024 << " KiB";
  long want = 0;
  for (int i = 0; i < kFibers; ++i) want += static_cast<char>(i);
  EXPECT_EQ(sum, want);
}

int recurse_forever(int depth) {
  volatile char frame[256];
  frame[0] = static_cast<char>(depth);
  if (depth < 0) return 0;  // never: keeps the recursion from being elided
  return recurse_forever(depth + 1) + frame[0];
}

constexpr std::size_t kOverflowStack = 64 * 1024;
std::uintptr_t g_overflow_start = 0;  // first frame of the overflowing fiber

// SIGSEGV handler (on an alternate stack): the fault must land within one
// guard page below the fiber's own stack, not in whatever is mapped next.
void report_overflow(int, siginfo_t* info, void*) {
  const auto addr = reinterpret_cast<std::uintptr_t>(info->si_addr);
  const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const char* msg = g_overflow_start - addr <= kOverflowStack + 2 * page
                        ? "overflow faulted on the guard page\n"
                        : "overflow ran past the fiber's stack\n";
  (void)!write(2, msg, std::strlen(msg));
  _exit(1);
}

TEST(FiberDeathTest, StackOverflowFaultsOnGuardPage) {
  EXPECT_DEATH(
      {
        static char alt_stack[64 * 1024];
        stack_t ss{};
        ss.ss_sp = alt_stack;
        ss.ss_size = sizeof(alt_stack);
        sigaltstack(&ss, nullptr);
        struct sigaction sa {};
        sa.sa_sigaction = report_overflow;
        sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
        sigaction(SIGSEGV, &sa, nullptr);
        Fiber f(
            [] {
              g_overflow_start =
                  reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
              (void)recurse_forever(0);
            },
            kOverflowStack);
        // Mapped next, so it usually sits directly below f's guard page: a
        // missing guard would let f's overflow run on into this stack.
        Fiber below([] {}, kOverflowStack);
        f.resume();
      },
      "overflow faulted on the guard page");
}

TEST(Engine, ClocksAdvanceIndependently) {
  std::vector<TimeNs> final_clock(3);
  Engine e(cfg(3), [&](Rank r) {
    Engine* eng = current_engine();
    eng->charge((r + 1) * 1000);
    final_clock[static_cast<std::size_t>(r)] = eng->now();
  });
  e.run();
  EXPECT_EQ(final_clock[0], 1000);
  EXPECT_EQ(final_clock[1], 2000);
  EXPECT_EQ(final_clock[2], 3000);
  EXPECT_EQ(e.max_clock(), 3000);
}

TEST(Engine, MinClockSchedulingOrder) {
  // Each rank stamps a shared log at sync points; the interleaving must be
  // in virtual-time order.
  std::vector<std::pair<TimeNs, Rank>> log;
  Engine e(cfg(4), [&](Rank r) {
    Engine* eng = current_engine();
    for (int i = 0; i < 5; ++i) {
      eng->charge(100 + 37 * r);
      eng->sync();
      log.emplace_back(eng->now(), r);
    }
  });
  e.run();
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_LE(log[i - 1].first, log[i].first)
        << "out-of-order execution at step " << i;
  }
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    std::vector<std::pair<TimeNs, Rank>> log;
    Engine e(cfg(5), [&](Rank r) {
      Engine* eng = current_engine();
      for (int i = 0; i < 20; ++i) {
        eng->charge(50 + (r * 13 + i * 7) % 90);
        eng->sync();
        log.emplace_back(eng->now(), r);
      }
    });
    e.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, CpuScaleAppliesToCharges) {
  Engine::Config c = cfg(2);
  c.machine.cpu_scale = [](Rank r, int) { return r == 0 ? 1.0 : 2.0; };
  std::vector<TimeNs> t(2);
  Engine e(c, [&](Rank r) {
    Engine* eng = current_engine();
    eng->charge(1000);
    t[static_cast<std::size_t>(r)] = eng->now();
  });
  e.run();
  EXPECT_EQ(t[0], 1000);
  EXPECT_EQ(t[1], 2000);
}

TEST(Engine, LockHandoffModelsQueueingDelay) {
  // Rank 0 grabs the lock at t=0 and holds it until t=1000; rank 1
  // requests it at t=10 and must observe clock >= 1000 when granted.
  std::vector<TimeNs> granted(2);
  int lock_id = -1;
  Engine e(cfg(2), [&](Rank r) {
    Engine* eng = current_engine();
    if (r == 0) {
      lock_id = eng->lock_create();
      eng->lock_acquire(lock_id);
      eng->charge(1000);
      eng->sync();
      eng->lock_release(lock_id);
    } else {
      eng->charge(10);  // let rank 0 create + acquire first (t0 < t1 start)
      eng->sync();
      eng->lock_acquire(lock_id);
      granted[1] = eng->now();
      eng->lock_release(lock_id);
    }
  });
  e.run();
  EXPECT_GE(granted[1], 1000);
}

TEST(Engine, TryLockFailsWhenHeld) {
  bool second_got = true;
  int lock_id = -1;
  Engine e(cfg(2), [&](Rank r) {
    Engine* eng = current_engine();
    if (r == 0) {
      lock_id = eng->lock_create();
      eng->lock_acquire(lock_id);
      eng->charge(5000);
      eng->sync();
      eng->lock_release(lock_id);
    } else {
      eng->charge(100);
      second_got = eng->lock_try(lock_id);
    }
  });
  e.run();
  EXPECT_FALSE(second_got);
}

TEST(Engine, BarrierReleasesAtMaxArrivalPlusCost) {
  std::vector<TimeNs> after(4);
  Engine e(cfg(4), [&](Rank r) {
    Engine* eng = current_engine();
    eng->charge(100 * (r + 1));  // arrivals at 100..400
    eng->barrier(500);
    after[static_cast<std::size_t>(r)] = eng->now();
  });
  e.run();
  for (TimeNs t : after) {
    EXPECT_EQ(t, 900);  // max arrival 400 + cost 500
  }
}

TEST(Engine, RepeatedBarriers) {
  int rounds = 0;
  Engine e(cfg(3), [&](Rank r) {
    Engine* eng = current_engine();
    for (int i = 0; i < 10; ++i) {
      eng->charge(10 * (r + 1));
      eng->barrier(100);
      if (r == 0) ++rounds;
    }
  });
  e.run();
  EXPECT_EQ(rounds, 10);
}

TEST(Engine, EventcountWakesBlockedRank) {
  TimeNs woke_at = 0;
  Engine e(cfg(2), [&](Rank r) {
    Engine* eng = current_engine();
    if (r == 0) {
      eng->idle_wait();
      woke_at = eng->now();
    } else {
      eng->charge(700);
      eng->notify(0, eng->now() + 50);
    }
  });
  e.run();
  EXPECT_EQ(woke_at, 750);
}

TEST(Engine, EventcountPendingConsumedWithoutBlocking) {
  bool done = false;
  Engine e(cfg(2), [&](Rank r) {
    Engine* eng = current_engine();
    if (r == 1) {
      eng->notify(0, 0);
    } else {
      eng->charge(500);  // notify lands before we wait
      eng->sync();
      eng->idle_wait();  // must not deadlock
      done = true;
    }
  });
  e.run();
  EXPECT_TRUE(done);
}

TEST(Engine, RmaOccupySerializesPerTarget) {
  // Two ranks fire RMAs at target rank 0 at the same virtual time; the
  // second to be serviced must queue behind the first.
  std::vector<TimeNs> done(3);
  Engine e(cfg(3), [&](Rank r) {
    Engine* eng = current_engine();
    if (r == 0) return;
    eng->sync();
    done[static_cast<std::size_t>(r)] =
        eng->rma_occupy(/*target=*/0, /*arrival_offset=*/100,
                        /*service=*/1000);
  });
  e.run();
  TimeNs first = std::min(done[1], done[2]);
  TimeNs second = std::max(done[1], done[2]);
  EXPECT_EQ(first, 1100);
  EXPECT_EQ(second, 2100);
}

TEST(Engine, SyncQuantumBoundsRunAhead) {
  // With a tiny quantum, charge() must yield frequently: interleavings of
  // two equal-speed ranks stay within one quantum of each other.
  Engine::Config c = cfg(2);
  c.machine.sync_quantum = 100;
  TimeNs max_skew = 0;
  Engine e(c, [&](Rank r) {
    Engine* eng = current_engine();
    for (int i = 0; i < 50; ++i) {
      eng->charge(30);
      TimeNs other = eng->now(1 - r);
      max_skew = std::max(max_skew, eng->now() - other);
    }
  });
  e.run();
  // A rank can be ahead at most ~quantum + one charge.
  EXPECT_LE(max_skew, 200);
}

TEST(Engine, DeadlockDetectionAborts) {
  EXPECT_DEATH(
      {
        Engine e(cfg(2), [&](Rank) { current_engine()->idle_wait(); });
        e.run();
      },
      "deadlock");
}

TEST(Machine, PresetsResolveByName) {
  EXPECT_EQ(machine_by_name("cluster").name, "cluster2008");
  EXPECT_EQ(machine_by_name("xt4").name, "cray-xt4");
  EXPECT_EQ(machine_by_name("test").name, "test");
  EXPECT_THROW(machine_by_name("nonesuch"), ::scioto::Error);
}

TEST(Machine, HeterogeneousClusterIsHalfAndHalf) {
  MachineModel m = machine_by_name("cluster");
  EXPECT_DOUBLE_EQ(m.cpu_scale(0, 64), 1.0);
  EXPECT_DOUBLE_EQ(m.cpu_scale(31, 64), 1.0);
  // Xeon nodes are 0.4753us / 0.3158us = 1.505x slower per UTS node (§6.3).
  EXPECT_NEAR(m.cpu_scale(32, 64), 1.505, 1e-9);
  EXPECT_NEAR(m.cpu_scale(63, 64), 1.505, 1e-9);
}

TEST(Machine, TransferTimeUsesBandwidth) {
  MachineModel m;
  m.bytes_per_ns = 2.0;
  EXPECT_EQ(m.transfer_time(2000), 1000);
}

}  // namespace
}  // namespace scioto::sim
