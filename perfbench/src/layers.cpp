#include "layers.hpp"

#include <cstring>
#include <functional>
#include <vector>

#include "apps/cholesky/cholesky.hpp"
#include "apps/uts/uts.hpp"
#include "base/linalg.hpp"
#include "base/sha1.hpp"
#include "ga/global_array.hpp"
#include "pgas/runtime.hpp"
#include "scioto/queue.hpp"
#include "scioto/task.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"

namespace perfbench {

namespace {

using namespace scioto;

constexpr int kSamples = 11;

volatile std::uint8_t g_sink;  // keeps loop results observable

/// Per-op host nanoseconds of `op`, `ops` calls per sample.
Summary host_ns(int ops, const std::function<void()>& op) {
  for (int i = 0; i < ops; ++i) op();  // warm caches and lazy set-up
  std::vector<double> xs;
  for (int s = 0; s < kSamples; ++s) {
    const std::int64_t t0 = wall_ns();
    for (int i = 0; i < ops; ++i) op();
    xs.push_back(static_cast<double>(wall_ns() - t0) / ops);
  }
  return summarize(std::move(xs));
}

/// Same loop inside a rank, also reading the runtime's clock: under the
/// sim backend that clock is virtual, so `virt` is the modelled cost.
struct OpCost {
  Summary host;
  Summary virt;
};
OpCost rank_ns(pgas::Runtime& rt, int ops, const std::function<void()>& op) {
  for (int i = 0; i < ops; ++i) op();
  std::vector<double> h, v;
  for (int s = 0; s < kSamples; ++s) {
    const std::int64_t h0 = wall_ns();
    const TimeNs v0 = rt.now();
    for (int i = 0; i < ops; ++i) op();
    h.push_back(static_cast<double>(wall_ns() - h0) / ops);
    v.push_back(static_cast<double>(rt.now() - v0) / ops);
  }
  return {summarize(std::move(h)), summarize(std::move(v))};
}

void sha1_loop(std::vector<LayerStat>& out) {
  apps::UtsNode node = apps::uts_root(apps::uts_bench());
  out.push_back({"base.sha1_24b_ns", "ns", host_ns(20000, [&] {
                   // Chained input: each digest feeds the next call.
                   const Sha1::Digest d = Sha1::hash(&node, sizeof(node));
                   std::memcpy(node.state.data(), d.data(), d.size());
                 })});
  g_sink = node.state[0];
}

void tile_loops(int b, std::vector<LayerStat>& out) {
  const auto bb = static_cast<std::size_t>(b) * static_cast<std::size_t>(b);
  std::vector<double> spd(bb), l(bb), x(bb), y(bb), work(bb);
  for (int i = 0; i < b; ++i) {
    for (int j = 0; j < b; ++j) {
      const auto k = static_cast<std::size_t>(i * b + j);
      spd[k] = apps::cholesky_spd_entry(i, j, b);
      x[k] = 1.0 / (1.0 + i + 2.0 * j);
      y[k] = 1.0 / (2.0 + 2.0 * i + j);
    }
  }
  l = spd;
  potrf_tile(l.data(), b);
  // Every call starts from the same inputs (the copy is part of the
  // figure), so repeated in-place updates cannot drift into denormals.
  out.push_back({"base.potrf_tile_ns", "ns", host_ns(40, [&] {
                   work = spd;
                   potrf_tile(work.data(), b);
                 })});
  out.push_back({"base.trsm_tile_ns", "ns", host_ns(40, [&] {
                   work = x;
                   trsm_tile(work.data(), l.data(), b);
                 })});
  out.push_back({"base.syrk_tile_ns", "ns", host_ns(40, [&] {
                   work = spd;
                   syrk_tile(work.data(), x.data(), b);
                 })});
  out.push_back({"base.gemm_tile_ns", "ns", host_ns(40, [&] {
                   work = spd;
                   gemm_tile(work.data(), x.data(), y.data(), b);
                 })});
}

void uts_seq_loop(std::vector<LayerStat>& out) {
  const apps::UtsParams tree = apps::uts_bench();
  std::vector<double> xs;
  for (int s = 0; s < 3; ++s) {
    const std::int64_t t0 = wall_ns();
    const apps::UtsCounts c = apps::uts_sequential(tree);
    xs.push_back(static_cast<double>(c.nodes) * 1e3 /
                 static_cast<double>(wall_ns() - t0));
  }
  out.push_back({"apps.uts.seq_mnodes_s", "M/s", summarize(std::move(xs))});
}

void sim_switch_loop(std::vector<LayerStat>& out) {
  constexpr int kRanks = 128;
  constexpr int kSyncs = 2000;
  std::vector<double> xs;
  for (int s = 0; s < 7; ++s) {
    sim::Engine::Config cfg;
    cfg.nranks = kRanks;
    cfg.machine = sim::cluster2008();
    cfg.stack_bytes = 64 * 1024;
    std::int64_t t0 = 0;
    sim::Engine eng(cfg, [&](Rank r) {
      if (r == 0) t0 = wall_ns();
      sim::Engine& e = *sim::current_engine();
      for (int i = 0; i < kSyncs; ++i) {
        e.charge(1);
        e.sync();
      }
    });
    eng.run();
    xs.push_back(static_cast<double>(wall_ns() - t0) / (kRanks * kSyncs));
  }
  out.push_back({"sim.switch_ns", "ns", summarize(std::move(xs))});
}

/// pgas, ga and queue ops on a 2-rank fleet of the given backend. Under
/// sim the modelled virtual cost per op is reported too.
void fleet_loops(pgas::BackendKind kind, int tile,
                 std::vector<LayerStat>& out) {
  const bool sim = kind == pgas::BackendKind::Sim;
  const int small = sim ? 2000 : 20000;
  const int big = sim ? 200 : 1000;
  std::vector<std::pair<std::string, OpCost>> rows;

  pgas::Config cfg;
  cfg.nranks = 2;
  cfg.backend = kind;
  cfg.machine = sim::cluster2008();
  pgas::run_spmd(cfg, [&](pgas::Runtime& rt) {
    const pgas::SegId seg = rt.seg_alloc(4096);
    const pgas::LockSet locks = rt.lockset_create();
    ga::GlobalArray arr(rt, 2 * tile, tile, "perfbench");
    SplitQueue::Config qc;
    qc.slot_bytes = align_up(sizeof(TaskHeader) + sizeof(apps::UtsNode), 8);
    qc.capacity = 1 << 12;
    qc.chunk = 10;
    SplitQueue q_local(rt, qc);
    SplitQueue::Config rc = qc;
    rc.release_threshold = 0;  // always eligible to release
    SplitQueue q_rr(rt, rc);
    SplitQueue q_steal(rt, qc);
    std::vector<std::byte> task(qc.slot_bytes, std::byte{3});
    std::vector<std::byte> stolen(qc.slot_bytes * 10);
    std::vector<double> tbuf(static_cast<std::size_t>(tile) * tile, 1e-3);
    char word[64] = {};
    rt.barrier();

    if (rt.me() == 0) {
      // Rank 0 drives ops against rank 1's memory; rank 1 waits.
      rows.push_back({"pgas.get", rank_ns(rt, small, [&] {
                        rt.get(seg, 1, 0, word, sizeof word);
                      })});
      rows.push_back({"pgas.put", rank_ns(rt, small, [&] {
                        rt.put(seg, 1, 64, word, sizeof word);
                      })});
      rows.push_back({"pgas.fetch_add", rank_ns(rt, small, [&] {
                        rt.fetch_add(seg, 1, 128, 1);
                      })});
      std::int64_t expect = 0;
      rows.push_back({"pgas.cas", rank_ns(rt, small, [&] {
                        expect = rt.compare_swap(seg, 1, 192, expect,
                                                 expect + 1) + 1;
                      })});
      rows.push_back({"pgas.lock", rank_ns(rt, small, [&] {
                        rt.lock(locks, 1);
                        rt.unlock(locks, 1);
                      })});
      rows.push_back({"ga.get_tile", rank_ns(rt, big, [&] {
                        arr.get(tile, 2 * tile, 0, tile, tbuf.data(), tile);
                      })});
      rows.push_back({"ga.acc_tile", rank_ns(rt, big, [&] {
                        arr.acc(tile, 2 * tile, 0, tile, tbuf.data(), tile,
                                1.0);
                      })});
      rows.push_back({"scioto.queue.push_pop", rank_ns(rt, small, [&] {
                        q_local.push_local(task.data(), kAffinityHigh);
                        q_local.pop_local(task.data());
                      })});
      for (int i = 0; i < 64; ++i) q_rr.push_local(task.data(), kAffinityHigh);
      rows.push_back({"scioto.queue.release_reacquire",
                      rank_ns(rt, small, [&] {
                        q_rr.release_maybe();
                        q_rr.reacquire();
                      })});
    }
    rt.barrier();
    if (rt.me() == 1) {
      // Rank 1 fills rank 0's queue by remote adds, then steals the
      // chunk back: each phase is timed on its own.
      std::vector<double> add_h, add_v, steal_h, steal_v;
      for (int s = -1; s < kSamples; ++s) {
        std::int64_t ah = 0, sh = 0;
        TimeNs av = 0, sv = 0;
        const int rounds = small / 10;
        for (int i = 0; i < rounds; ++i) {
          std::int64_t h0 = wall_ns();
          TimeNs v0 = rt.now();
          for (int k = 0; k < 10; ++k) q_steal.add_remote(0, task.data());
          std::int64_t h1 = wall_ns();
          TimeNs v1 = rt.now();
          const int got = q_steal.steal_from(0, stolen.data());
          SCIOTO_REQUIRE(got == 10, "steal loop took " << got << " tasks");
          sh += wall_ns() - h1;
          sv += rt.now() - v1;
          ah += h1 - h0;
          av += v1 - v0;
        }
        if (s < 0) continue;  // warm-up pass
        add_h.push_back(static_cast<double>(ah) / (rounds * 10));
        add_v.push_back(static_cast<double>(av) / (rounds * 10));
        steal_h.push_back(static_cast<double>(sh) / rounds);
        steal_v.push_back(static_cast<double>(sv) / rounds);
      }
      rows.push_back({"scioto.queue.remote_add",
                      {summarize(add_h), summarize(add_v)}});
      rows.push_back({"scioto.queue.steal",
                      {summarize(steal_h), summarize(steal_v)}});
    }
    rt.barrier();
    q_steal.destroy();
    q_rr.destroy();
    q_local.destroy();
    arr.destroy();
    rt.seg_free(seg);
  });

  for (auto& [name, cost] : rows) {
    if (sim) {
      out.push_back({name + "_vns", "ns", cost.virt});
      out.push_back({name + "_sim_host_ns", "ns", cost.host});
    } else {
      out.push_back({name + "_ns", "ns", cost.host});
    }
  }
}

}  // namespace

std::vector<LayerStat> measure_layers(int tile) {
  std::vector<LayerStat> out;
  sha1_loop(out);
  tile_loops(tile, out);
  uts_seq_loop(out);
  sim_switch_loop(out);
  fleet_loops(pgas::BackendKind::Threads, tile, out);
  fleet_loops(pgas::BackendKind::Sim, tile, out);
  return out;
}

}  // namespace perfbench
