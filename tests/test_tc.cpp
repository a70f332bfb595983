// End-to-end tests of the TaskCollection: seeding, dynamic spawning, work
// stealing, common local objects, statistics, reset/reuse, affinity
// placement, load-balancing toggle, the C API shim, and the DAG
// dependency extension.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "dag/dag.hpp"
#include "scioto/scioto_c.h"
#include "scioto/task_collection.hpp"
#include "test_util.hpp"

namespace scioto {
namespace {

using pgas::BackendKind;
using pgas::Runtime;

class TcBackends : public ::testing::TestWithParam<BackendKind> {};

TcConfig small_cfg() {
  TcConfig cfg;
  cfg.max_task_body = 64;
  cfg.chunk_size = 4;
  cfg.max_tasks_per_rank = 4096;
  return cfg;
}

TEST_P(TcBackends, SeededTasksAllExecuteExactlyOnce) {
  constexpr int kPerRank = 50;
  std::mutex m;
  std::set<std::int64_t> seen;
  testing::run(4, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    struct Body {
      std::int64_t id;
    };
    TaskHandle h = tc.register_callback([&](TaskContext& ctx) {
      std::lock_guard<std::mutex> g(m);
      ASSERT_TRUE(seen.insert(ctx.body_as<Body>().id).second)
          << "task executed twice";
    });
    Task t = tc.task_create(sizeof(Body), h);
    for (int i = 0; i < kPerRank; ++i) {
      t.body_as<Body>().id = rt.me() * kPerRank + i;
      tc.add_local(t);
      t.reuse();
    }
    tc.process();
    tc.destroy();
  });
  EXPECT_EQ(seen.size(), 4u * kPerRank);
}

TEST_P(TcBackends, DynamicSpawningTree) {
  // Each seed task spawns a binary tree of depth D: total = 2^(D+1) - 1
  // tasks per seed.
  // Deep enough that the LIFO frontier (~depth tasks) exceeds the release
  // threshold, so work actually reaches the shared portion for thieves.
  constexpr int kDepth = 10;
  std::atomic<std::int64_t> executed{0};
  testing::run(4, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    struct Body {
      int depth;
    };
    TaskHandle h = tc.register_callback([&](TaskContext& ctx) {
      executed.fetch_add(1);
      int d = ctx.body_as<Body>().depth;
      if (d > 0) {
        Task child = ctx.tc.task_create(sizeof(Body), ctx.header.callback);
        child.body_as<Body>().depth = d - 1;
        ctx.tc.add_local(child);
        ctx.tc.add_local(child);
      }
    });
    if (rt.me() == 0) {
      Task t = tc.task_create(sizeof(Body), h);
      t.body_as<Body>().depth = kDepth;
      tc.add_local(t);
    }
    tc.process();
    // Work must have actually migrated off rank 0.
    TcStats total = tc.stats_global();
    EXPECT_EQ(total.tasks_executed, (1u << (kDepth + 1)) - 1);
    // Under the deterministic sim backend the thieves always get a share;
    // under real threads on a loaded host rank 0 may finish first.
    if (rt.nprocs() > 1 && rt.simulated()) {
      EXPECT_GT(total.tasks_stolen, 0u);
    }
    tc.destroy();
  });
  EXPECT_EQ(executed.load(), (1 << (kDepth + 1)) - 1);
}

TEST_P(TcBackends, RemoteAddExecutesOnTargetableRank) {
  std::vector<std::atomic<int>> ran(3);
  testing::run(3, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    TaskHandle h = tc.register_callback([&](TaskContext& ctx) {
      ran[static_cast<std::size_t>(ctx.executing_rank)].fetch_add(1);
    });
    // With load balancing off, a task added to rank 2 must run on rank 2.
    tc.set_load_balancing(false);
    if (rt.me() == 0) {
      Task t = tc.task_create(0, h);
      tc.add(2, kAffinityHigh, t);
    }
    tc.process();
    tc.destroy();
  });
  EXPECT_EQ(ran[0].load(), 0);
  EXPECT_EQ(ran[1].load(), 0);
  EXPECT_EQ(ran[2].load(), 1);
}

TEST_P(TcBackends, CommonLocalObjectsAccumulatePerRank) {
  constexpr int kTasks = 60;
  std::atomic<std::int64_t> grand_total{0};
  testing::run(4, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    std::int64_t my_counter = 0;  // this rank's CLO instance
    CloHandle clo = tc.register_clo(&my_counter);
    struct Body {
      std::int64_t weight;
    };
    TaskHandle h = tc.register_callback([clo](TaskContext& ctx) {
      // Wherever this task runs, it bumps *that* rank's counter.
      ctx.tc.clo<std::int64_t>(clo) += ctx.body_as<Body>().weight;
    });
    if (rt.me() == 0) {
      Task t = tc.task_create(sizeof(Body), h);
      for (int i = 0; i < kTasks; ++i) {
        t.body_as<Body>().weight = i + 1;
        tc.add_local(t);
      }
    }
    tc.process();
    grand_total.fetch_add(my_counter);
    tc.destroy();
  });
  EXPECT_EQ(grand_total.load(), kTasks * (kTasks + 1) / 2);
}

TEST_P(TcBackends, ResetAllowsReprocessing) {
  std::atomic<int> count{0};
  testing::run(2, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    TaskHandle h =
        tc.register_callback([&](TaskContext&) { count.fetch_add(1); });
    for (int phase = 0; phase < 3; ++phase) {
      if (rt.me() == 0) {
        Task t = tc.task_create(0, h);
        for (int i = 0; i < 10; ++i) {
          tc.add_local(t);
        }
      }
      tc.process();
      tc.reset();
    }
    tc.destroy();
  });
  EXPECT_EQ(count.load(), 30);
}

TEST_P(TcBackends, MultipleCollectionsPhaseParallelism) {
  // Tasks processed in collection A spawn tasks into collection B, which
  // is processed afterwards (paper §3.1 "phase-based task parallelism").
  std::atomic<int> phase_a{0}, phase_b{0};
  testing::run(3, GetParam(), [&](Runtime& rt) {
    TaskCollection a(rt, small_cfg());
    TaskCollection b(rt, small_cfg());
    TaskHandle hb =
        b.register_callback([&](TaskContext&) { phase_b.fetch_add(1); });
    TaskHandle ha = a.register_callback([&](TaskContext& ctx) {
      phase_a.fetch_add(1);
      Task t = b.task_create(0, hb);
      b.add(ctx.executing_rank, kAffinityHigh, t);
    });
    if (rt.me() == 0) {
      Task t = a.task_create(0, ha);
      for (int i = 0; i < 12; ++i) {
        a.add_local(t);
      }
    }
    a.process();
    b.process();
    b.destroy();
    a.destroy();
  });
  EXPECT_EQ(phase_a.load(), 12);
  EXPECT_EQ(phase_b.load(), 12);
}

TEST_P(TcBackends, StatsAreConsistent) {
  testing::run(4, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    TaskHandle h = tc.register_callback([](TaskContext& ctx) {
      ctx.tc.runtime().charge(us(10));
    });
    if (rt.me() == 0) {
      Task t = tc.task_create(0, h);
      for (int i = 0; i < 100; ++i) {
        tc.add_local(t);
      }
    }
    tc.process();
    TcStats g = tc.stats_global();
    EXPECT_EQ(g.tasks_executed, 100u);
    EXPECT_EQ(g.tasks_spawned_local, 100u);
    EXPECT_EQ(g.tasks_stolen, g.tasks_stolen);  // folded without crashing
    EXPECT_GE(g.steal_attempts, g.steals);
    EXPECT_GE(g.time_total, g.time_working);
    // working and searching are disjoint sub-intervals of the phase.
    EXPECT_GE(g.time_total, g.time_working + g.time_searching);
    tc.destroy();
  });
}

TEST_P(TcBackends, OversizedTaskRejected) {
  testing::run(1, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    TaskHandle h = tc.register_callback([](TaskContext&) {});
    EXPECT_THROW(tc.task_create(1 << 20, h), Error);
    tc.destroy();
  });
}

TEST_P(TcBackends, QueueFullThrows) {
  testing::run(1, GetParam(), [&](Runtime& rt) {
    TcConfig cfg = small_cfg();
    cfg.max_tasks_per_rank = 8;
    TaskCollection tc(rt, cfg);
    TaskHandle h = tc.register_callback([](TaskContext&) {});
    Task t = tc.task_create(0, h);
    for (int i = 0; i < 8; ++i) {
      tc.add_local(t);
    }
    EXPECT_THROW(tc.add_local(t), Error);
    tc.process();  // drain so destroy is clean
    tc.destroy();
  });
}

TEST_P(TcBackends, PaperStyleCApi) {
  static std::atomic<int> c_executed{0};
  static std::atomic<long> c_sum{0};
  c_executed = 0;
  c_sum = 0;
  struct CBody {
    long value;
  };
  testing::run(3, GetParam(), [&](Runtime& rt) {
    capi::RuntimeBinding bind(rt);
    tc_t tc = tc_create(sizeof(CBody), 4, 1024);
    task_handle_t h = tc_register_callback(tc, [](tc_t, task_t* task) {
      c_executed.fetch_add(1);
      c_sum.fetch_add(static_cast<CBody*>(tc_task_body(task))->value);
    });
    EXPECT_EQ(tc_nprocs(), 3);
    task_t* task = tc_task_create(sizeof(CBody), h);
    if (tc_mype() == 0) {
      for (long i = 1; i <= 20; ++i) {
        static_cast<CBody*>(tc_task_body(task))->value = i;
        tc_add(tc, static_cast<int>(i % 3), TC_AFFINITY_HIGH, task);
        tc_task_reuse(task);
      }
    }
    tc_process(tc);
    tc_task_destroy(task);
    tc_destroy(tc);
  });
  EXPECT_EQ(c_executed.load(), 20);
  EXPECT_EQ(c_sum.load(), 20L * 21 / 2);
}

TEST_P(TcBackends, CApiStatsGet) {
  testing::run(3, GetParam(), [&](Runtime& rt) {
    capi::RuntimeBinding bind(rt);
    tc_t tc = tc_create(16, 4, 1024);
    task_handle_t h = tc_register_callback(tc, [](tc_t, task_t*) {});
    task_t* task = tc_task_create(0, h);
    if (tc_mype() == 0) {
      for (int i = 0; i < 30; ++i) {
        tc_add(tc, i % 3, TC_AFFINITY_HIGH, task);
        tc_task_reuse(task);
      }
    }
    tc_process(tc);
    scioto_stats_t cs;
    tc_stats_get(tc, &cs);  // collective
    EXPECT_EQ(cs.tasks_executed, 30u);
    EXPECT_EQ(cs.tasks_spawned_local + cs.tasks_spawned_remote, 30u);
    EXPECT_GE(cs.steal_attempts, cs.steals);
    EXPECT_GE(cs.time_total_ns, cs.time_working_ns + cs.time_searching_ns);
    EXPECT_GT(cs.time_total_ns, 0);
    // Collective and repeatable: a second snapshot reads the same state.
    scioto_stats_t cs2;
    tc_stats_get(tc, &cs2);
    EXPECT_EQ(cs.tasks_executed, cs2.tasks_executed);
    EXPECT_EQ(cs.steals, cs2.steals);
    EXPECT_EQ(cs.time_total_ns, cs2.time_total_ns);
    tc_task_destroy(task);
    tc_destroy(tc);
  });
}

TEST_P(TcBackends, RandomRemoteSpawnStress) {
  // Property: under a randomized mixture of local spawning, remote adds
  // (which exercise the dirty-marking rules), and affinity levels, every
  // task executes exactly once and termination is always detected.
  constexpr int kSeeds = 40;
  std::atomic<std::int64_t> executed{0};
  std::atomic<std::int64_t> spawned{kSeeds};
  testing::run(5, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    struct Body {
      std::uint64_t rng_state;
      std::int32_t depth;
    };
    TaskHandle h = tc.register_callback([&](TaskContext& ctx) {
      executed.fetch_add(1);
      Body b = ctx.body_as<Body>();
      if (b.depth <= 0) return;
      Xoshiro256 rng(b.rng_state);
      int children = static_cast<int>(rng.next_below(3));  // 0..2
      for (int c = 0; c < children; ++c) {
        Task t = ctx.tc.task_create(sizeof(Body), ctx.header.callback);
        t.body_as<Body>() = {rng.next(), b.depth - 1};
        Rank where = static_cast<Rank>(
            rng.next_below(static_cast<std::uint64_t>(
                ctx.tc.runtime().nprocs())));
        int affinity = rng.bernoulli(0.5) ? kAffinityHigh : kAffinityLow;
        ctx.tc.add(where, affinity, t);
        spawned.fetch_add(1);
      }
    });
    Task t = tc.task_create(sizeof(Body), h);
    for (int i = 0; i < kSeeds / rt.nprocs(); ++i) {
      t.body_as<Body>() = {derive_seed(99, rt.me(), i), 9};
      tc.add_local(t);
    }
    tc.process();
    tc.destroy();
  });
  EXPECT_EQ(executed.load(), spawned.load());
}

TEST(TcMulticore, NodeBiasedStealingStaysCorrect) {
  // 16 ranks as two 8-core nodes; heavy bias toward same-node victims must
  // not lose tasks, and most successful steals should be intra-node.
  constexpr int kDepth = 11;
  std::atomic<std::int64_t> executed{0};
  pgas::Config pc = testing::make_cfg(16, BackendKind::Sim);
  pc.machine = sim::multicore_cluster(8);
  pgas::run_spmd(pc, [&](Runtime& rt) {
    TcConfig cfg = small_cfg();
    cfg.node_steal_bias = 0.8;
    TaskCollection tc(rt, cfg);
    struct Body {
      int depth;
    };
    TaskHandle h = tc.register_callback([&](TaskContext& ctx) {
      executed.fetch_add(1);
      int d = ctx.body_as<Body>().depth;
      if (d > 0) {
        Task child = ctx.tc.task_create(sizeof(Body), ctx.header.callback);
        child.body_as<Body>().depth = d - 1;
        ctx.tc.add_local(child);
        ctx.tc.add_local(child);
      }
    });
    if (rt.me() == 0) {
      Task t = tc.task_create(sizeof(Body), h);
      t.body_as<Body>().depth = kDepth;
      tc.add_local(t);
    }
    tc.process();
    TcStats g = tc.stats_global();
    EXPECT_EQ(g.tasks_executed, (1u << (kDepth + 1)) - 1);
    EXPECT_GT(g.steals, 0u);
    EXPECT_GE(g.steals, g.steals_same_node);
    // With 0.8 bias on 8-core nodes, intra-node steals dominate.
    EXPECT_GT(g.steals_same_node * 2, g.steals);
    tc.destroy();
  });
  EXPECT_EQ(executed.load(), (1 << (kDepth + 1)) - 1);
}

TEST(TcMulticore, IntraNodeRmaIsCheaper) {
  pgas::Config pc = testing::make_cfg(4, BackendKind::Sim);
  pc.machine = sim::multicore_cluster(2);  // ranks {0,1} and {2,3}
  pgas::run_spmd(pc, [&](Runtime& rt) {
    EXPECT_TRUE(rt.machine().same_node(0, 1));
    EXPECT_FALSE(rt.machine().same_node(1, 2));
    pgas::SegId seg = rt.seg_alloc(64);
    rt.barrier();
    if (rt.me() == 0) {
      std::int64_t v = 1;
      TimeNs t0 = rt.now();
      rt.put(seg, 1, 0, &v, sizeof(v));  // same node
      TimeNs intra = rt.now() - t0;
      t0 = rt.now();
      rt.put(seg, 2, 0, &v, sizeof(v));  // across nodes
      TimeNs inter = rt.now() - t0;
      EXPECT_LT(intra * 4, inter);
    }
    rt.barrier();
    rt.seg_free(seg);
  });
}

// ---- DAG dependency extension (§8) ----

TEST_P(TcBackends, DagChainExecutesInOrder) {
  std::vector<int> order;
  std::mutex m;
  testing::run(3, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    dag::DagScheduler dag(tc);
    constexpr int kLen = 12;
    std::vector<dag::NodeId> ids;
    for (int i = 0; i < kLen; ++i) {
      ids.push_back(dag.add_node(i % rt.nprocs(), [&, i](dag::NodeCtx&) {
        std::lock_guard<std::mutex> g(m);
        order.push_back(i);
      }));
      if (i > 0) {
        dag.add_edge(ids[static_cast<std::size_t>(i) - 1],
                     ids[static_cast<std::size_t>(i)]);
      }
    }
    dag.execute();
    tc.destroy();
  });
  ASSERT_EQ(order.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST_P(TcBackends, DagDiamondJoinWaitsForBothBranches) {
  std::atomic<int> stage{0};
  std::atomic<bool> violated{false};
  testing::run(4, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    dag::DagScheduler dag(tc);
    auto a = dag.add_node(0, [&](dag::NodeCtx&) { stage.fetch_add(1); });
    auto b = dag.add_node(1, [&](dag::NodeCtx&) {
      if (stage.load() < 1) violated = true;
      stage.fetch_add(1);
    });
    auto c = dag.add_node(2, [&](dag::NodeCtx&) {
      if (stage.load() < 1) violated = true;
      stage.fetch_add(1);
    });
    auto d = dag.add_node(3, [&](dag::NodeCtx&) {
      if (stage.load() < 3) violated = true;  // both branches must be done
      stage.fetch_add(1);
    });
    dag.add_edge(a, b);
    dag.add_edge(a, c);
    dag.add_edge(b, d);
    dag.add_edge(c, d);
    dag.execute();
    tc.destroy();
  });
  EXPECT_EQ(stage.load(), 4);
  EXPECT_FALSE(violated.load());
}

TEST_P(TcBackends, DagWideFanOutAllExecute) {
  std::atomic<int> leaves{0};
  testing::run(4, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    dag::DagScheduler dag(tc);
    auto root = dag.add_node(0, [](dag::NodeCtx&) {});
    auto join = dag.add_node(0, [](dag::NodeCtx&) {});
    for (int i = 0; i < 64; ++i) {
      auto leaf = dag.add_node(i % rt.nprocs(),
                               [&](dag::NodeCtx&) { leaves.fetch_add(1); });
      dag.add_edge(root, leaf);
      dag.add_edge(leaf, join);
    }
    dag.execute();
    tc.destroy();
  });
  EXPECT_EQ(leaves.load(), 64);
}

TEST_P(TcBackends, DagCycleDetected) {
  testing::run(2, GetParam(), [&](Runtime& rt) {
    TaskCollection tc(rt, small_cfg());
    dag::DagScheduler dag(tc);
    auto a = dag.add_node(0, [](dag::NodeCtx&) {});
    auto b = dag.add_node(1, [](dag::NodeCtx&) {});
    dag.add_edge(a, b);
    dag.add_edge(b, a);
    EXPECT_THROW(dag.execute(), Error);
    tc.destroy();
  });
}

// SCIOTO_QUEUE selects a split queue's steal protocol at construction,
// overriding TcConfig; any other value fails the constructor with the
// accepted list. "wait-free" names a protocol that was folded into
// lockfree.
TEST(TcQueueEnv, SelectsStealProtocolOrRejectsAtConstruction) {
  struct EnvGuard {
    ~EnvGuard() { unsetenv("SCIOTO_QUEUE"); }
  } guard;
  testing::run_sim(1, [&](Runtime& rt) {
    for (const char* bad : {"bogus", "wait-free"}) {
      ASSERT_EQ(setenv("SCIOTO_QUEUE", bad, 1), 0);
      try {
        TaskCollection tc(rt, small_cfg());
        ADD_FAILURE() << "SCIOTO_QUEUE=" << bad << " was accepted";
        tc.destroy();
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "expected locked|aborting|lockfree"),
                  std::string::npos)
            << e.what();
      }
    }

    ASSERT_EQ(setenv("SCIOTO_QUEUE", "locked", 1), 0);
    {
      TcConfig cfg = small_cfg();
      cfg.queue_mode = QueueMode::Aborting;
      TaskCollection tc(rt, cfg);
      EXPECT_EQ(tc.queue_mode(), QueueMode::Split);
      tc.destroy();
    }
    ASSERT_EQ(setenv("SCIOTO_QUEUE", "aborting", 1), 0);
    {
      TaskCollection tc(rt, small_cfg());
      EXPECT_EQ(tc.queue_mode(), QueueMode::Aborting);
      tc.destroy();
    }

    // The C API reports the effective protocol by name.
    capi::RuntimeBinding bind(rt);
    for (const char* mode : {"aborting", "lockfree"}) {
      ASSERT_EQ(setenv("SCIOTO_QUEUE", mode, 1), 0);
      tc_t tc = tc_create(16, 4, 1024);
      EXPECT_STREQ(tc_queue_mode(tc), mode);
      tc_destroy(tc);
    }
  });
}

// The variable picks the protocol of a *split* queue: an explicit NoSplit
// (Figure 7's No-Split column) keeps its fully locked queue under every
// value, and still rejects an unknown one.
TEST(TcQueueEnv, LeavesExplicitNoSplitAlone) {
  struct EnvGuard {
    ~EnvGuard() { unsetenv("SCIOTO_QUEUE"); }
  } guard;
  testing::run_sim(1, [&](Runtime& rt) {
    TcConfig cfg = small_cfg();
    cfg.queue_mode = QueueMode::NoSplit;
    for (const char* mode : {"locked", "aborting", "lockfree"}) {
      ASSERT_EQ(setenv("SCIOTO_QUEUE", mode, 1), 0);
      TaskCollection tc(rt, cfg);
      EXPECT_EQ(tc.queue_mode(), QueueMode::NoSplit)
          << "SCIOTO_QUEUE=" << mode;
      tc.destroy();
    }
    ASSERT_EQ(setenv("SCIOTO_QUEUE", "bogus", 1), 0);
    EXPECT_THROW(TaskCollection(rt, cfg), Error);
  });
}

INSTANTIATE_TEST_SUITE_P(AllBackends, TcBackends,
                         ::testing::Values(BackendKind::Sim,
                                           BackendKind::Threads),
                         [](const auto& info) {
                           return scioto::testing::backend_name(info.param);
                         });

}  // namespace
}  // namespace scioto
