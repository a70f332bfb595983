// Tests for the split task queue: LIFO local semantics, release/reacquire
// split-pointer moves, steal correctness (no task lost or duplicated),
// affinity ordering, capacity handling, and the no-split ablation -- on
// both backends.
#include <gtest/gtest.h>

#include <cstring>
#include <mutex>
#include <set>
#include <vector>

#include "scioto/queue.hpp"
#include "scioto/task.hpp"
#include "test_util.hpp"

namespace scioto {
namespace {

using pgas::BackendKind;
using pgas::Runtime;

constexpr std::size_t kSlot = 32;

SplitQueue::Config qcfg(std::uint64_t cap = 1024, int chunk = 4,
                        QueueMode mode = QueueMode::Split) {
  SplitQueue::Config c;
  c.slot_bytes = kSlot;
  c.capacity = cap;
  c.chunk = chunk;
  c.mode = mode;
  c.release_threshold = 2 * static_cast<std::uint64_t>(chunk);
  return c;
}

void make_slot(std::byte* buf, std::uint64_t id) {
  std::memset(buf, 0, kSlot);
  std::memcpy(buf, &id, sizeof(id));
}

std::uint64_t slot_id(const std::byte* buf) {
  std::uint64_t id;
  std::memcpy(&id, buf, sizeof(id));
  return id;
}

class QueueBackends : public ::testing::TestWithParam<BackendKind> {};

TEST_P(QueueBackends, LocalPushPopIsLifo) {
  testing::run(1, GetParam(), [&](Runtime& rt) {
    SplitQueue q(rt, qcfg());
    std::byte buf[kSlot];
    for (std::uint64_t i = 0; i < 10; ++i) {
      make_slot(buf, i);
      ASSERT_TRUE(q.push_local(buf, kAffinityHigh));
    }
    EXPECT_EQ(q.size(), 10u);
    for (std::uint64_t i = 10; i-- > 0;) {
      ASSERT_TRUE(q.pop_local(buf));
      EXPECT_EQ(slot_id(buf), i);
    }
    EXPECT_FALSE(q.pop_local(buf));
    EXPECT_TRUE(q.empty());
    q.destroy();
  });
}

TEST_P(QueueBackends, ReleaseMovesOldestTasksToShared) {
  testing::run(1, GetParam(), [&](Runtime& rt) {
    SplitQueue q(rt, qcfg(1024, /*chunk=*/4));
    std::byte buf[kSlot];
    // Push 10; release threshold is 8, so release_maybe moves half.
    for (std::uint64_t i = 0; i < 10; ++i) {
      make_slot(buf, i);
      ASSERT_TRUE(q.push_local(buf, kAffinityHigh));
    }
    EXPECT_EQ(q.shared_size(), 0u);
    std::uint64_t released = q.release_maybe();
    EXPECT_EQ(released, 5u);
    EXPECT_EQ(q.shared_size(), 5u);
    EXPECT_EQ(q.private_size(), 5u);
    // Private pops still get the newest tasks.
    ASSERT_TRUE(q.pop_local(buf));
    EXPECT_EQ(slot_id(buf), 9u);
    q.destroy();
  });
}

TEST_P(QueueBackends, ReacquirePullsSharedBack) {
  testing::run(1, GetParam(), [&](Runtime& rt) {
    SplitQueue q(rt, qcfg());
    std::byte buf[kSlot];
    for (std::uint64_t i = 0; i < 12; ++i) {
      make_slot(buf, i);
      ASSERT_TRUE(q.push_local(buf, kAffinityHigh));
    }
    q.release_maybe();
    // Drain the private portion.
    while (q.pop_local(buf)) {
    }
    EXPECT_EQ(q.private_size(), 0u);
    EXPECT_GT(q.shared_size(), 0u);
    std::uint64_t got = q.reacquire();
    EXPECT_GT(got, 0u);
    EXPECT_EQ(q.private_size(), got);
    ASSERT_TRUE(q.pop_local(buf));
    q.destroy();
  });
}

TEST_P(QueueBackends, LowAffinityEntersStealEnd) {
  testing::run(2, GetParam(), [&](Runtime& rt) {
    SplitQueue q(rt, qcfg(1024, /*chunk=*/1));
    std::byte buf[kSlot];
    if (rt.me() == 0) {
      make_slot(buf, 111);  // low affinity: should be stolen first
      ASSERT_TRUE(q.push_local(buf, kAffinityLow));
      make_slot(buf, 222);  // high affinity
      ASSERT_TRUE(q.push_local(buf, kAffinityHigh));
      // Low-affinity task is immediately in the shared portion.
      EXPECT_GE(q.shared_size(), 1u);
    }
    rt.barrier();
    if (rt.me() == 1) {
      std::byte out[kSlot];
      int n = q.steal_from(0, out);
      ASSERT_EQ(n, 1);
      EXPECT_EQ(slot_id(out), 111u);  // the low-affinity one migrated
    }
    rt.barrier();
    if (rt.me() == 0) {
      ASSERT_TRUE(q.pop_local(buf));
      EXPECT_EQ(slot_id(buf), 222u);  // high-affinity stayed home
    }
    rt.barrier();
    q.destroy();
  });
}

TEST_P(QueueBackends, StealTakesChunkFromOldestEnd) {
  testing::run(2, GetParam(), [&](Runtime& rt) {
    SplitQueue q(rt, qcfg(1024, /*chunk=*/3));
    std::byte buf[kSlot];
    if (rt.me() == 0) {
      for (std::uint64_t i = 0; i < 10; ++i) {
        make_slot(buf, i);
        ASSERT_TRUE(q.push_local(buf, kAffinityHigh));
      }
      q.release_maybe();  // expose oldest half for stealing
    }
    rt.barrier();
    if (rt.me() == 1) {
      std::byte out[3 * kSlot];
      int n = q.steal_from(0, out);
      ASSERT_EQ(n, 3);
      // Oldest tasks (0,1,2) move, in order.
      for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(slot_id(out + i * kSlot), static_cast<std::uint64_t>(i));
      }
      EXPECT_EQ(q.peek_shared(0), 2u);  // 5 shared - 3 stolen
    }
    rt.barrier();
    q.destroy();
  });
}

TEST_P(QueueBackends, StealFromEmptyReturnsZero) {
  testing::run(2, GetParam(), [&](Runtime& rt) {
    SplitQueue q(rt, qcfg());
    rt.barrier();
    if (rt.me() == 1) {
      std::byte out[4 * kSlot];
      EXPECT_EQ(q.peek_shared(0), 0u);
      EXPECT_EQ(q.steal_from(0, out), 0);
    }
    rt.barrier();
    q.destroy();
  });
}

TEST_P(QueueBackends, RemoteAddLandsAtStealEnd) {
  testing::run(2, GetParam(), [&](Runtime& rt) {
    SplitQueue q(rt, qcfg(1024, /*chunk=*/2));
    std::byte buf[kSlot];
    if (rt.me() == 1) {
      make_slot(buf, 999);
      ASSERT_TRUE(q.add_remote(0, buf));
    }
    rt.barrier();
    if (rt.me() == 0) {
      // Remote adds are visible in the shared portion (stealable) and
      // reachable locally via reacquire.
      EXPECT_EQ(q.shared_size(), 1u);
      EXPECT_EQ(q.reacquire(), 1u);
      ASSERT_TRUE(q.pop_local(buf));
      EXPECT_EQ(slot_id(buf), 999u);
    }
    rt.barrier();
    q.destroy();
  });
}

TEST_P(QueueBackends, CapacityEnforced) {
  testing::run(1, GetParam(), [&](Runtime& rt) {
    SplitQueue q(rt, qcfg(/*cap=*/8));
    std::byte buf[kSlot];
    for (std::uint64_t i = 0; i < 8; ++i) {
      make_slot(buf, i);
      ASSERT_TRUE(q.push_local(buf, kAffinityHigh));
    }
    EXPECT_FALSE(q.push_local(buf, kAffinityHigh));
    // Draining one slot re-enables pushing.
    ASSERT_TRUE(q.pop_local(buf));
    EXPECT_TRUE(q.push_local(buf, kAffinityHigh));
    q.destroy();
  });
}

TEST_P(QueueBackends, WrapAroundPreservesContents) {
  testing::run(1, GetParam(), [&](Runtime& rt) {
    SplitQueue q(rt, qcfg(/*cap=*/16));
    std::byte buf[kSlot];
    std::uint64_t next_id = 0;
    // Cycle push/pop far past the capacity to force index wrap.
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 10; ++i) {
        make_slot(buf, next_id++);
        ASSERT_TRUE(q.push_local(buf, kAffinityHigh));
      }
      for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(q.pop_local(buf));
        EXPECT_EQ(slot_id(buf), next_id - 1 - static_cast<std::uint64_t>(i));
      }
    }
    EXPECT_TRUE(q.empty());
    q.destroy();
  });
}

TEST_P(QueueBackends, ResetEmptiesAllQueues) {
  testing::run(3, GetParam(), [&](Runtime& rt) {
    SplitQueue q(rt, qcfg());
    std::byte buf[kSlot];
    make_slot(buf, static_cast<std::uint64_t>(rt.me()));
    ASSERT_TRUE(q.push_local(buf, kAffinityHigh));
    q.reset_collective();
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.pop_local(buf));
    q.destroy();
  });
}

TEST_P(QueueBackends, NoSplitModeStillMovesTasks) {
  testing::run(2, GetParam(), [&](Runtime& rt) {
    SplitQueue q(rt, qcfg(1024, /*chunk=*/2, QueueMode::NoSplit));
    std::byte buf[kSlot];
    if (rt.me() == 0) {
      for (std::uint64_t i = 0; i < 6; ++i) {
        make_slot(buf, i);
        ASSERT_TRUE(q.push_local(buf, kAffinityHigh));
      }
      // Without split queues every task is immediately stealable.
      EXPECT_EQ(q.peek_shared(0), 6u);
    }
    rt.barrier();
    if (rt.me() == 1) {
      std::byte out[2 * kSlot];
      EXPECT_EQ(q.steal_from(0, out), 2);
      EXPECT_EQ(slot_id(out), 0u);
      EXPECT_EQ(slot_id(out + kSlot), 1u);
    }
    rt.barrier();
    if (rt.me() == 0) {
      ASSERT_TRUE(q.pop_local(buf));
      EXPECT_EQ(slot_id(buf), 5u);  // LIFO from the other end
    }
    rt.barrier();
    q.destroy();
  });
}

// Property test: under concurrent producer/thief traffic, every task is
// transferred exactly once -- nothing lost, nothing duplicated -- in every
// queue mode.
class QueueStealProperty
    : public ::testing::TestWithParam<
          std::tuple<BackendKind, int, int, QueueMode>> {};

TEST_P(QueueStealProperty, NoLossNoDuplication) {
  auto [kind, nranks, chunk, mode] = GetParam();
  constexpr std::uint64_t kTasks = 400;
  std::mutex m;
  std::set<std::uint64_t> executed;
  std::uint64_t duplicates = 0;

  testing::run(nranks, kind, [&, chunk = chunk, mode = mode](Runtime& rt) {
    auto c = qcfg(4096, chunk, mode);
    SplitQueue q(rt, c);
    std::byte buf[kSlot];
    if (rt.me() == 0) {
      for (std::uint64_t i = 0; i < kTasks; ++i) {
        make_slot(buf, i);
        ASSERT_TRUE(q.push_local(buf, kAffinityHigh));
        q.release_maybe();
      }
    }
    rt.barrier();
    // Everyone (including rank 0) consumes: rank 0 pops/reacquires, others
    // steal chunks until the global count is reached.
    auto consume = [&](const std::byte* slot_buf) {
      std::lock_guard<std::mutex> g(m);
      if (!executed.insert(slot_id(slot_buf)).second) {
        ++duplicates;
      }
    };
    int idle_spins = 0;
    while (true) {
      bool progressed = false;
      if (rt.me() == 0) {
        if (q.pop_local(buf)) {
          consume(buf);
          progressed = true;
        } else if (q.reacquire() > 0) {
          progressed = true;
        }
      } else {
        std::vector<std::byte> out(static_cast<std::size_t>(chunk) * kSlot);
        int n = q.steal_from(0, out.data());
        for (int i = 0; i < n; ++i) {
          consume(out.data() + static_cast<std::size_t>(i) * kSlot);
        }
        progressed = n > 0;
      }
      if (progressed) {
        idle_spins = 0;
        continue;
      }
      {
        std::lock_guard<std::mutex> g(m);
        if (executed.size() >= kTasks) break;
      }
      rt.relax();
      // Rank 0 may have drained its private portion while tasks remain
      // shared; keep spinning -- bounded by the global count check.
      if (++idle_spins > 2000000) {
        FAIL() << "no progress: likely lost tasks";
        break;
      }
    }
    rt.barrier();
    q.destroy();
  });

  EXPECT_EQ(duplicates, 0u);
  EXPECT_EQ(executed.size(), kTasks);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QueueStealProperty,
    ::testing::Combine(::testing::Values(BackendKind::Sim,
                                         BackendKind::Threads),
                       ::testing::Values(2, 4, 7),
                       ::testing::Values(1, 5, 16),
                       ::testing::Values(QueueMode::Split, QueueMode::NoSplit,
                                         QueueMode::Aborting,
                                         QueueMode::LockFree)),
    [](const auto& info) {
      std::string mode;
      switch (std::get<3>(info.param)) {
        case QueueMode::Split: mode = "split"; break;
        case QueueMode::NoSplit: mode = "nosplit"; break;
        case QueueMode::Aborting: mode = "aborting"; break;
        case QueueMode::LockFree: mode = "lockfree"; break;
      }
      return scioto::testing::backend_name(std::get<0>(info.param)) + "_p" +
             std::to_string(std::get<1>(info.param)) + "_c" +
             std::to_string(std::get<2>(info.param)) + "_" + mode;
    });

INSTANTIATE_TEST_SUITE_P(AllBackends, QueueBackends,
                         ::testing::Values(BackendKind::Sim,
                                           BackendKind::Threads),
                         [](const auto& info) {
                           return scioto::testing::backend_name(info.param);
                         });

}  // namespace
}  // namespace scioto
