#include "apps/uts/uts_drivers.hpp"

#include <cstring>
#include <vector>

#include "detect/membership.hpp"
#include "elastic/elastic.hpp"
#include "fault/fault.hpp"

namespace scioto::apps {

namespace {

/// Shared node-processing kernel: charges the per-node cost, updates the
/// per-rank counts, and walks a chain of first-children inline, handing
/// every other child to `emit`. The inline continuation mirrors what a
/// depth-first UTS worker does with its explicit stack: only siblings
/// enter the queue, trimming queue traffic without hiding work from
/// thieves (each emit goes through the normal add path, which releases
/// work to the shared portion).
template <class EmitFn>
void process_chain(UtsNode node, const UtsParams& tree, TimeNs node_cost,
                   pgas::Runtime& rt, UtsCounts& counts, EmitFn&& emit) {
  for (;;) {
    rt.charge(node_cost);
    ++counts.nodes;
    counts.max_depth = std::max<std::int64_t>(counts.max_depth, node.depth);
    int nc = uts_num_children(node, tree);
    if (nc == 0) {
      ++counts.leaves;
      return;
    }
    for (int i = 1; i < nc; ++i) {
      emit(uts_child(node, i));
    }
    node = uts_child(node, 0);
  }
}

/// The task collection every Scioto UTS driver runs on.
TcConfig tc_config(const UtsRunConfig& cfg) {
  TcConfig tcc;
  tcc.max_task_body = sizeof(UtsNode);
  tcc.chunk_size = cfg.chunk;
  tcc.max_tasks_per_rank = cfg.max_tasks;
  tcc.queue_mode = cfg.queue_mode;
  tcc.color_optimization = cfg.color_optimization;
  tcc.adaptive_steal = cfg.adaptive_steal;
  return tcc;
}

}  // namespace

UtsResult uts_run_scioto(pgas::Runtime& rt, const UtsParams& tree,
                         const UtsRunConfig& cfg) {
  TaskCollection tc(rt, tc_config(cfg));

  UtsCounts local;
  CloHandle counts_clo = tc.register_clo(&local);
  TaskHandle h = tc.register_callback([&, counts_clo](TaskContext& ctx) {
    UtsCounts& counts = ctx.tc.clo<UtsCounts>(counts_clo);
    process_chain(ctx.body_as<UtsNode>(), tree, cfg.node_cost,
                  ctx.tc.runtime(), counts, [&](const UtsNode& child) {
                    Task t = ctx.tc.task_create(sizeof(UtsNode),
                                                ctx.header.callback);
                    t.body_as<UtsNode>() = child;
                    ctx.tc.add_local(t);
                  });
  });

  // A restore run (SCIOTO_CKPT_RESTORE) resumes the checkpointed
  // traversal: the pending subtree roots come from the snapshot, so
  // seeding the tree root again would count every node twice.
  if (rt.me() == 0 && elastic::restore_path().empty()) {
    Task t = tc.task_create(sizeof(UtsNode), h);
    t.body_as<UtsNode>() = uts_root(tree);
    tc.add_local(t);
  }

  rt.barrier();
  TimeNs t0 = rt.now();
  tc.process();
  TimeNs elapsed = rt.allreduce_max(rt.now() - t0);

  UtsResult res;
  res.counts.nodes = rt.allreduce_sum(local.nodes);
  res.counts.leaves = rt.allreduce_sum(local.leaves);
  res.counts.max_depth = rt.allreduce_max(local.max_depth);
  res.elapsed = elapsed;
  res.mnodes_per_sec =
      static_cast<double>(res.counts.nodes) / (to_sec(elapsed) * 1e6);
  TcStats g = tc.stats_global();
  res.stats = g;
  res.steals = g.steals;
  res.tasks_stolen = g.tasks_stolen;
  tc.destroy();
  return res;
}

UtsResult uts_run_scioto_ft(pgas::Runtime& rt, const UtsParams& tree,
                            const UtsRunConfig& cfg) {
  TaskCollection tc(rt, tc_config(cfg));

  // Durable per-rank counts: owner-local stores into our own shared patch
  // cost nothing, and the patch outlives us if we are fail-stopped.
  pgas::SegId counts_seg = rt.seg_alloc(sizeof(UtsCounts));
  auto* durable =
      reinterpret_cast<UtsCounts*>(rt.seg_ptr(counts_seg, rt.me()));
  *durable = UtsCounts{};

  // Same checkpoint blob wiring as the elastic driver: snapshot this
  // rank's durable counts (the quiesce leader also folds dead/parked
  // ranks' patches), and on restore accumulate blobs into the receiving
  // patch. Without this a checkpoint written by this driver would carry
  // the pending descriptors but lose the nodes already executed.
  tc.set_ckpt_hooks(
      [&rt, durable, counts_seg]() {
        UtsCounts sum = *durable;
        std::vector<Rank> alive = detect::alive_ranks();
        if (!alive.empty() && alive.front() == rt.me()) {
          for (Rank r = 0; r < rt.nprocs(); ++r) {
            if (detect::alive(r)) continue;
            UtsCounts c;
            if (rt.get_with_retry(counts_seg, r, 0, &c, sizeof(c)) !=
                pgas::OpStatus::Dropped) {
              sum += c;
            }
          }
        }
        std::vector<std::byte> blob(sizeof(UtsCounts));
        std::memcpy(blob.data(), &sum, sizeof(sum));
        return blob;
      },
      [durable](Rank, const std::vector<std::byte>& blob) {
        if (blob.size() != sizeof(UtsCounts)) return;
        UtsCounts c;
        std::memcpy(&c, blob.data(), sizeof(c));
        *durable += c;
      });

  CloHandle counts_clo = tc.register_clo(durable);
  TaskHandle h = tc.register_callback([&, counts_clo](TaskContext& ctx) {
    UtsCounts& counts = ctx.tc.clo<UtsCounts>(counts_clo);
    process_chain(ctx.body_as<UtsNode>(), tree, cfg.node_cost,
                  ctx.tc.runtime(), counts, [&](const UtsNode& child) {
                    Task t = ctx.tc.task_create(sizeof(UtsNode),
                                                ctx.header.callback);
                    t.body_as<UtsNode>() = child;
                    ctx.tc.add_local(t);
                  });
  });

  // Same restore gate as the elastic driver: a snapshot carries the
  // pending subtree roots, so a restore run must not re-seed the root.
  if (rt.me() == 0 && elastic::restore_path().empty()) {
    Task t = tc.task_create(sizeof(UtsNode), h);
    t.body_as<UtsNode>() = uts_root(tree);
    tc.add_local(t);
  }

  rt.barrier();
  TimeNs t0 = rt.now();
  // Killed ranks throw fault::RankKilled through here; everything below
  // runs on survivors only (collectives skip the dead).
  tc.process();
  TimeNs elapsed = rt.allreduce_max(rt.now() - t0);
  rt.barrier();

  UtsResult res;
  // Survivors sum every rank's patch, dead or alive: completed work is
  // never re-executed (exactly-once), so this total -- not an allreduce
  // over survivors -- is what must match the sequential count.
  for (Rank r = 0; r < rt.nprocs(); ++r) {
    UtsCounts c;
    // Retrying read: a drop rule that outlives the computation must not
    // silently zero a dead rank's durable counts out of the total.
    pgas::OpStatus st = rt.get_with_retry(counts_seg, r, 0, &c, sizeof(c));
    SCIOTO_CHECK_MSG(st != pgas::OpStatus::Dropped,
                     "durable-count read from rank " << r
                                                     << " dropped past retry");
    res.counts.nodes += c.nodes;
    res.counts.leaves += c.leaves;
    res.counts.max_depth =
        std::max<std::int64_t>(res.counts.max_depth, c.max_depth);
  }
  res.elapsed = elapsed;
  res.mnodes_per_sec =
      static_cast<double>(res.counts.nodes) / (to_sec(elapsed) * 1e6);
  TcStats g = tc.stats_global();
  res.stats = g;
  res.steals = g.steals;
  res.tasks_stolen = g.tasks_stolen;
  res.survivors = fault::alive_count();
  rt.seg_free(counts_seg);
  tc.destroy();
  return res;
}

UtsResult uts_run_scioto_elastic(pgas::Runtime& rt, const UtsParams& tree,
                                 const UtsRunConfig& cfg) {
  TaskCollection tc(rt, tc_config(cfg));

  pgas::SegId counts_seg = rt.seg_alloc(sizeof(UtsCounts));
  auto* durable =
      reinterpret_cast<UtsCounts*>(rt.seg_ptr(counts_seg, rt.me()));
  *durable = UtsCounts{};

  // Checkpoint blob = this rank's durable counts. Ranks that write no
  // part file -- dead (their queued work was adopted by wards before the
  // quiesce) and parked (never admitted) -- still hold executed-node
  // counts in their patches, which stay readable; the quiesce leader
  // folds those into its own blob so no completed work escapes the
  // snapshot. On restore, blobs accumulate into the receiving rank's
  // patch, where the end-of-run sum picks them up like any other counts.
  tc.set_ckpt_hooks(
      [&rt, durable, counts_seg]() {
        UtsCounts sum = *durable;
        std::vector<Rank> alive = detect::alive_ranks();
        if (!alive.empty() && alive.front() == rt.me()) {
          for (Rank r = 0; r < rt.nprocs(); ++r) {
            if (detect::alive(r)) continue;
            UtsCounts c;
            if (rt.get_with_retry(counts_seg, r, 0, &c, sizeof(c)) !=
                pgas::OpStatus::Dropped) {
              sum += c;
            }
          }
        }
        std::vector<std::byte> blob(sizeof(UtsCounts));
        std::memcpy(blob.data(), &sum, sizeof(sum));
        return blob;
      },
      [durable](Rank, const std::vector<std::byte>& blob) {
        if (blob.size() != sizeof(UtsCounts)) return;
        UtsCounts c;
        std::memcpy(&c, blob.data(), sizeof(c));
        *durable += c;
      });

  CloHandle counts_clo = tc.register_clo(durable);
  TaskHandle h = tc.register_callback([&, counts_clo](TaskContext& ctx) {
    UtsCounts& counts = ctx.tc.clo<UtsCounts>(counts_clo);
    process_chain(ctx.body_as<UtsNode>(), tree, cfg.node_cost,
                  ctx.tc.runtime(), counts, [&](const UtsNode& child) {
                    Task t = ctx.tc.task_create(sizeof(UtsNode),
                                                ctx.header.callback);
                    t.body_as<UtsNode>() = child;
                    ctx.tc.add_local(t);
                  });
  });

  // A restore run resumes the checkpointed traversal: the pending subtree
  // roots come from the snapshot, so seeding the tree root again would
  // count every node twice.
  if (rt.me() == 0 && elastic::restore_path().empty()) {
    Task t = tc.task_create(sizeof(UtsNode), h);
    t.body_as<UtsNode>() = uts_root(tree);
    tc.add_local(t);
  }

  rt.barrier();
  TimeNs t0 = rt.now();
  tc.process();
  TimeNs elapsed = rt.allreduce_max(rt.now() - t0);
  rt.barrier();

  UtsResult res;
  for (Rank r = 0; r < rt.nprocs(); ++r) {
    UtsCounts c;
    pgas::OpStatus st = rt.get_with_retry(counts_seg, r, 0, &c, sizeof(c));
    SCIOTO_CHECK_MSG(st != pgas::OpStatus::Dropped,
                     "durable-count read from rank " << r
                                                     << " dropped past retry");
    res.counts += c;
  }
  res.elapsed = elapsed;
  res.mnodes_per_sec =
      static_cast<double>(res.counts.nodes) / (to_sec(elapsed) * 1e6);
  TcStats g = tc.stats_global();
  res.stats = g;
  res.steals = g.steals;
  res.tasks_stolen = g.tasks_stolen;
  res.survivors = detect::alive_count();
  rt.seg_free(counts_seg);
  tc.destroy();
  return res;
}

UtsResult uts_run_mpi_ws(pgas::Runtime& rt, const UtsParams& tree,
                         const UtsRunConfig& cfg) {
  baselines::MpiWorkStealing::Config wcfg;
  wcfg.task_bytes = sizeof(UtsNode);
  wcfg.chunk = cfg.chunk;
  wcfg.poll_interval = cfg.poll_interval;
  baselines::MpiWorkStealing ws(rt, wcfg);

  UtsCounts local;
  if (rt.me() == 0) {
    UtsNode root = uts_root(tree);
    ws.spawn(&root);
  }

  rt.barrier();
  TimeNs t0 = rt.now();
  auto stats = ws.process([&](const void* rec) {
    UtsNode node;
    std::memcpy(&node, rec, sizeof(node));
    process_chain(node, tree, cfg.node_cost, rt, local,
                  [&](const UtsNode& child) { ws.spawn(&child); });
  });
  TimeNs elapsed = rt.allreduce_max(rt.now() - t0);

  UtsResult res;
  res.counts.nodes = rt.allreduce_sum(local.nodes);
  res.counts.leaves = rt.allreduce_sum(local.leaves);
  res.counts.max_depth = rt.allreduce_max(local.max_depth);
  res.elapsed = elapsed;
  res.mnodes_per_sec =
      static_cast<double>(res.counts.nodes) / (to_sec(elapsed) * 1e6);
  res.steals = static_cast<std::uint64_t>(stats.steals_successful);
  res.tasks_stolen = static_cast<std::uint64_t>(stats.tasks_received);
  res.polls = static_cast<std::uint64_t>(stats.polls);
  return res;
}

}  // namespace scioto::apps
