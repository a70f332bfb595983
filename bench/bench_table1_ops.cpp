// Table 1 reproduction: microbenchmark timings for core task-collection
// operations (paper §6.1).
//
// "Results ... were collected using a task body size of 1kB and a chunk
// size of 10." We time the same four operations on the split queue, under
// the simulated cluster and Cray XT4 machine models, and print them next
// to the paper's measurements:
//
//              Operation     Cluster     Cray XT4
//              Local Insert  0.4952 us   0.9330 us
//              Remote Insert 18.0819 us  27.018 us
//              Local Get     0.3613 us   0.6913 us
//              Remote Steal  29.0080 us  32.384 us
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <vector>

#include "base/options.hpp"
#include "base/table.hpp"
#include "metrics/metrics.hpp"
#include "pgas/runtime.hpp"
#include "scioto/queue.hpp"
#include "scioto/task.hpp"

using namespace scioto;

namespace {

struct OpTimes {
  double local_insert_us = 0;
  double remote_insert_us = 0;
  double local_get_us = 0;
  double remote_steal_us = 0;
};

/// Full op-latency distributions from the live metrics histograms (the
/// mean-only Table 1 numbers hide the tail the telemetry plane exposes).
struct OpHists {
  metrics::HistSnap push;   // rank 0's local pushes
  metrics::HistSnap pop;    // rank 0's local pops
  metrics::HistSnap steal;  // rank 1's remote steals
  bool valid = false;
};

OpTimes measure(const sim::MachineModel& machine, int iters,
                OpHists* hists) {
  OpTimes out;
  pgas::Config cfg;
  cfg.nranks = 2;
  cfg.backend = pgas::BackendKind::Sim;
  cfg.machine = machine;
  // Bench-owned metrics session: run_spmd sees an already-active session
  // and leaves it alone, so we can scrape the histograms after the run.
  if (hists != nullptr) {
    metrics::start(cfg.nranks);
  }

  pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
    SplitQueue::Config qc;
    qc.slot_bytes = align_up(sizeof(TaskHeader) + 1024, 8);  // 1 kB body
    qc.capacity = static_cast<std::uint64_t>(iters) * 16;
    qc.chunk = 10;
    SplitQueue q(rt, qc);
    std::vector<std::byte> task(qc.slot_bytes, std::byte{7});
    std::vector<std::byte> steal_buf(qc.slot_bytes * 10);

    // --- Local insert / local get (rank 0, lock-free path) ---
    if (rt.me() == 0) {
      TimeNs t0 = rt.now();
      for (int i = 0; i < iters; ++i) {
        SCIOTO_CHECK(q.push_local(task.data(), kAffinityHigh));
      }
      out.local_insert_us = to_us(rt.now() - t0) / iters;
      t0 = rt.now();
      for (int i = 0; i < iters; ++i) {
        SCIOTO_CHECK(q.pop_local(task.data()));
      }
      out.local_get_us = to_us(rt.now() - t0) / iters;
    }
    rt.barrier();

    // --- Remote insert (rank 1 adds into rank 0's patch) ---
    if (rt.me() == 1) {
      TimeNs t0 = rt.now();
      for (int i = 0; i < iters; ++i) {
        SCIOTO_CHECK(q.add_remote(0, task.data()));
      }
      out.remote_insert_us = to_us(rt.now() - t0) / iters;
    }
    rt.barrier();
    q.reset_collective();

    // --- Remote steal (rank 1 steals 10-task chunks from rank 0) ---
    if (rt.me() == 0) {
      for (int i = 0; i < iters * 10; ++i) {
        SCIOTO_CHECK(q.push_local(task.data(), kAffinityHigh));
      }
      // Expose everything for stealing.
      while (q.release_maybe() > 0) {
      }
      // release_maybe stops once the shared side looks full; force the
      // rest across for a pure steal measurement.
      while (q.private_size() > 0) {
        if (q.release_maybe() == 0) break;
      }
    }
    rt.barrier();
    if (rt.me() == 1) {
      TimeNs t0 = rt.now();
      int got = 0;
      int steals = 0;
      while (got < iters * 10) {
        int n = q.steal_from(0, steal_buf.data());
        if (n == 0) break;
        got += n;
        ++steals;
      }
      if (steals > 0) {
        out.remote_steal_us = to_us(rt.now() - t0) / steals;
      }
    }
    rt.barrier();
    q.destroy();
  });
  if (hists != nullptr) {
    metrics::Snapshot s0, s1;
    if (metrics::scrape(0, &s0) && metrics::scrape(1, &s1)) {
      hists->push = s0.hist(metrics::Hist::PushNs);
      hists->pop = s0.hist(metrics::Hist::PopNs);
      hists->steal = s1.hist(metrics::Hist::StealNs);
      hists->valid = true;
    }
    metrics::stop();
  }
  return out;
}

/// Steal/release latency per steal protocol (SCIOTO_QUEUE modes), in the
/// regime the lockfree mode exists for: the fig7 high-rank-count TAIL,
/// where many thieves poll one victim whose shared window is thin and
/// refilled in trickles (fine-grained 64-byte descriptors, chunk 2).
///
/// Steal row: seven thieves poll the victim while it trickles 8-task
/// batches. In locked mode every probe -- including the empty ones that
/// dominate the tail -- is a lock round trip serialized through
/// Engine::lock_acquire's waiter queue, so a successful steal inherits
/// the whole field's probe convoy in its lock wait. In lockfree mode an
/// empty probe is one 16-byte get and failed CAS claims retry with an
/// overlapped get pair, so probes overlap and only real claims contend.
/// Timing covers the steal_from calls themselves (plus, in aborting
/// mode, the busy-probes that precede a success, which are that
/// protocol's retry cost); idle time between trickles is production
/// schedule, identical across modes, and excluded.
///
/// Release row: the owner's half of the split machinery under the same
/// contention -- the owner drains its private side (charging a per-task
/// execution cost) and reacquires from the shared side while thieves
/// strip it. Locked-mode reacquires must take the owner's own lock and
/// queue behind remote thief holds; lockfree reacquires publish a
/// validated split when the window is deep and self-steal through a
/// LOCAL CAS when it is thin. release_maybe itself is an unlocked local
/// split-raise in every split-based mode and adds nothing to either side.
///
/// The converse regime is Table 1's bulk steal (1 kB bodies, chunk 10,
/// deep window): there the chunk's wire time dominates, a failed CAS
/// re-pays copies the locked protocol never wastes, and the idealized
/// handoff lock wins -- which is why the mode is opt-in, not the default.
struct ModeTimes {
  double steal_us = 0;
  double release_us = 0;
};

ModeTimes measure_mode(const sim::MachineModel& machine, QueueMode mode,
                       int steal_iters) {
  ModeTimes out;
  pgas::Config cfg;
  cfg.nranks = 8;  // one victim, seven thieves: the fig7 tail shape
  cfg.backend = pgas::BackendKind::Sim;
  cfg.machine = machine;
  // Plain shared flags are safe here: the sim backend runs all ranks as
  // fibers of one thread.
  std::atomic<bool> feeding{true};
  std::atomic<bool> draining{true};
  pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
    SplitQueue::Config qc;
    qc.slot_bytes = align_up(sizeof(TaskHeader) + 48, 8);  // 64 B descriptor
    qc.chunk = 2;
    qc.capacity = 1u << 16;
    qc.mode = mode;
    SplitQueue q(rt, qc);
    std::vector<std::byte> task(qc.slot_bytes, std::byte{7});
    std::vector<std::byte> steal_buf(qc.slot_bytes * qc.chunk);

    // --- Steal row: trickle-fed tail contention.
    const int rounds = std::max(16, steal_iters / 2);
    constexpr int kBatch = 8;
    constexpr TimeNs kTrickleNs = 60'000;  // next batch ~60 us later
    TimeNs spent = 0;
    std::uint64_t steals = 0;
    if (rt.me() == 0) {
      for (int r = 0; r < rounds; ++r) {
        for (int i = 0; i < kBatch; ++i) {
          SCIOTO_CHECK(q.push_local(task.data(), kAffinityLow));
        }
        rt.charge(kTrickleNs);  // produce the next batch off-queue
      }
      feeding.store(false, std::memory_order_release);
    } else {
      TimeNs busy_spent = 0;  // aborting: probe cost of the next success
      for (;;) {
        TimeNs t0 = rt.now();
        int n = q.steal_from(0, steal_buf.data());
        TimeNs dt = rt.now() - t0;
        if (n > 0) {
          spent += dt + busy_spent;
          busy_spent = 0;
          ++steals;
          continue;
        }
        if (n == SplitQueue::kStealBusy) {
          busy_spent += dt;
          continue;
        }
        busy_spent = 0;  // empty: no work, not protocol cost
        if (!feeding.load(std::memory_order_acquire) &&
            q.peek_shared(0) == 0) {
          break;
        }
      }
    }
    rt.barrier();
    std::uint64_t all_steals = rt.allreduce_sum(steals);
    std::uint64_t all_ns = rt.allreduce_sum(static_cast<std::uint64_t>(spent));
    if (rt.me() == 0 && all_steals > 0) {
      out.steal_us = to_us(static_cast<TimeNs>(all_ns)) /
                     static_cast<double>(all_steals);
    }
    q.reset_collective();

    // --- Release row: owner split-ops while thieves strip the window.
    constexpr TimeNs kExecNs = 2'000;  // owner per-task execution cost
    const std::uint64_t seed = 2048;
    if (rt.me() == 0) {
      for (std::uint64_t i = 0; i < seed; ++i) {
        SCIOTO_CHECK(q.push_local(task.data(), kAffinityLow));
      }
    }
    rt.barrier();
    if (rt.me() == 0) {
      TimeNs owner_spent = 0;
      std::uint64_t owner_ops = 0;
      for (;;) {
        while (q.pop_local(task.data())) {
          rt.charge(kExecNs);
        }
        if (q.shared_size() == 0) {
          break;
        }
        TimeNs t0 = rt.now();
        (void)q.release_maybe();
        (void)q.reacquire();
        owner_spent += rt.now() - t0;
        ++owner_ops;
      }
      draining.store(false, std::memory_order_release);
      if (owner_ops > 0) {
        out.release_us = to_us(owner_spent) / static_cast<double>(owner_ops);
      }
    } else {
      for (;;) {
        int n = q.steal_from(0, steal_buf.data());
        if (n > 0 || n == SplitQueue::kStealBusy) {
          continue;
        }
        if (!draining.load(std::memory_order_acquire) &&
            q.peek_shared(0) == 0) {
          break;
        }
      }
    }
    rt.barrier();
    q.destroy();
  });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts("bench_table1_ops",
               "Table 1: core task collection operation costs");
  opts.add_int("iters", 500, "operations per measurement");
  opts.add_string("json", "", "also write results as JSON to this file");
  opts.add_string("metrics-json", "",
                  "write op-latency percentiles from the live metrics "
                  "histograms to this file");
  opts.add_string("mode-json", "",
                  "write per-queue-mode contended steal/release latency "
                  "(locked | aborting | lockfree) to this file");
  if (!opts.parse(argc, argv)) return 0;
  int iters = static_cast<int>(opts.get_int("iters"));
  const std::string metrics_json = opts.get_string("metrics-json");
  const bool want_hists = !metrics_json.empty();

  OpHists cluster_h, xt4_h;
  OpTimes cluster = measure(sim::cluster2008_uniform(), iters,
                            want_hists ? &cluster_h : nullptr);
  OpTimes xt4 =
      measure(sim::cray_xt4(), iters, want_hists ? &xt4_h : nullptr);

  Table t({"Task Collection Operation", "Cluster(us)", "Paper-Cluster",
           "XT4(us)", "Paper-XT4"});
  t.add_row({"Local Insert", Table::fmt(cluster.local_insert_us, 4), "0.4952",
             Table::fmt(xt4.local_insert_us, 4), "0.9330"});
  t.add_row({"Remote Insert", Table::fmt(cluster.remote_insert_us, 3),
             "18.082", Table::fmt(xt4.remote_insert_us, 3), "27.018"});
  t.add_row({"Local Get", Table::fmt(cluster.local_get_us, 4), "0.3613",
             Table::fmt(xt4.local_get_us, 4), "0.6913"});
  t.add_row({"Remote Steal", Table::fmt(cluster.remote_steal_us, 3),
             "29.008", Table::fmt(xt4.remote_steal_us, 3), "32.384"});
  t.print("Table 1: microbenchmark timings for core Scioto operations "
          "(task body 1 kB, chunk 10)");

  const std::string json = opts.get_string("json");
  if (!json.empty()) {
    std::FILE* f = std::fopen(json.c_str(), "w");
    SCIOTO_CHECK_MSG(f != nullptr, "cannot open " << json);
    auto emit = [&](const char* name, const OpTimes& o, const char* sep) {
      std::fprintf(f,
                   "  \"%s\": {\"local_insert_us\": %.4f, "
                   "\"remote_insert_us\": %.4f, \"local_get_us\": %.4f, "
                   "\"remote_steal_us\": %.4f}%s\n",
                   name, o.local_insert_us, o.remote_insert_us,
                   o.local_get_us, o.remote_steal_us, sep);
    };
    std::fprintf(f, "{\n  \"bench\": \"table1_ops\", \"iters\": %d,\n",
                 iters);
    emit("cluster", cluster, ",");
    emit("cray_xt4", xt4, "");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("json: wrote %s\n", json.c_str());
  }

  // --- Per-queue-mode contended steal/release comparison ---
  const int mode_iters = std::max(20, iters / 5);
  ModeTimes locked =
      measure_mode(sim::cluster2008_uniform(), QueueMode::Split, mode_iters);
  ModeTimes aborting = measure_mode(sim::cluster2008_uniform(),
                                    QueueMode::Aborting, mode_iters);
  ModeTimes lockfree = measure_mode(sim::cluster2008_uniform(),
                                    QueueMode::LockFree, mode_iters);

  Table mt({"Queue Mode", "Steal(us, 7 thieves)", "Release(us)"});
  mt.add_row({"locked", Table::fmt(locked.steal_us, 3),
              Table::fmt(locked.release_us, 4)});
  mt.add_row({"aborting", Table::fmt(aborting.steal_us, 3),
              Table::fmt(aborting.release_us, 4)});
  mt.add_row({"lockfree", Table::fmt(lockfree.steal_us, 3),
              Table::fmt(lockfree.release_us, 4)});
  mt.print("Steal protocol comparison, trickle-fed tail contention "
           "(cluster model, 64 B descriptors, chunk 2)");

  const std::string mode_json = opts.get_string("mode-json");
  if (!mode_json.empty()) {
    std::FILE* f = std::fopen(mode_json.c_str(), "w");
    SCIOTO_CHECK_MSG(f != nullptr, "cannot open " << mode_json);
    auto emit_mode = [&](const char* name, const ModeTimes& m,
                         const char* sep) {
      std::fprintf(f,
                   "  \"%s\": {\"steal_us\": %.4f, \"release_us\": %.4f}%s\n",
                   name, m.steal_us, m.release_us, sep);
    };
    std::fprintf(f,
                 "{\n  \"bench\": \"queue_mode\", \"iters\": %d, "
                 "\"thieves\": 7,\n",
                 mode_iters);
    emit_mode("locked", locked, ",");
    emit_mode("aborting", aborting, ",");
    emit_mode("lockfree", lockfree, "");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("mode-json: wrote %s\n", mode_json.c_str());
  }

  if (want_hists && cluster_h.valid && xt4_h.valid) {
    std::FILE* f = std::fopen(metrics_json.c_str(), "w");
    SCIOTO_CHECK_MSG(f != nullptr, "cannot open " << metrics_json);
    auto hist = [&](const char* name, const metrics::HistSnap& h,
                    const char* sep) {
      std::fprintf(
          f,
          "    \"%s\": {\"count\": %llu, \"mean_ns\": %.1f, "
          "\"p50_ns\": %llu, \"p95_ns\": %llu, \"p99_ns\": %llu, "
          "\"max_ns\": %llu}%s\n",
          name, static_cast<unsigned long long>(h.count), h.mean(),
          static_cast<unsigned long long>(h.percentile(50)),
          static_cast<unsigned long long>(h.percentile(95)),
          static_cast<unsigned long long>(h.percentile(99)),
          static_cast<unsigned long long>(h.max), sep);
    };
    auto model = [&](const char* name, const OpHists& o, const char* sep) {
      std::fprintf(f, "  \"%s\": {\n", name);
      hist("push_ns", o.push, ",");
      hist("pop_ns", o.pop, ",");
      hist("steal_ns", o.steal, "");
      std::fprintf(f, "  }%s\n", sep);
    };
    std::fprintf(f, "{\n  \"bench\": \"metrics_ops\", \"iters\": %d,\n",
                 iters);
    model("cluster", cluster_h, ",");
    model("cray_xt4", xt4_h, "");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("metrics-json: wrote %s\n", metrics_json.c_str());
  }
  return 0;
}
