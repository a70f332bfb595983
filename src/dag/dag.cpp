#include "dag/dag.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "fault/fault.hpp"
#include "obs/obs.hpp"

namespace scioto::dag {

namespace {

/// Fixed prefix of a dynamic node's descriptor in the home-rank arena.
struct DynHeader {
  KindId kind = -1;
  GroupId group = kNoGroup;
  std::int32_t depth = 0;
  std::int32_t body_len = 0;
  std::int32_t nsucc = 0;
  std::int32_t pad = 0;
};
static_assert(sizeof(DynHeader) == 24);

/// A dynamic node's descriptor is [DynHeader][max_dynamic_succ successor
/// ids][args]; this is where the args start.
std::size_t desc_args_offset(const DagConfig& cfg) {
  return sizeof(DynHeader) +
         static_cast<std::size_t>(cfg.max_dynamic_succ) * sizeof(NodeId);
}

/// Nonzero lock-word token identifying the holder (ids are unique, so
/// id + 1 never collides and 0 stays the released state).
std::int64_t lock_token(NodeId id) { return id + 1; }

}  // namespace

// ---- NodeCtx -------------------------------------------------------------

NodeId NodeCtx::spawn(KindId kind, Rank home, const void* args,
                      std::int32_t len, std::int64_t extra_deps,
                      GroupId group) {
  return dag_.spawn_child(kind, home, args, len, extra_deps, group, depth_);
}

void NodeCtx::child_edge(NodeId pred, NodeId succ) {
  dag_.stage_child_edge(pred, succ);
}

// ---- Build ---------------------------------------------------------------

DagScheduler::DagScheduler(TaskCollection& tc, DagConfig cfg)
    : tc_(tc), rt_(tc.runtime()), cfg_(cfg) {
  SCIOTO_REQUIRE(cfg_.max_dynamic_per_rank >= 1 &&
                     cfg_.max_dynamic_per_rank <= (std::int64_t{1} << 32),
                 "max_dynamic_per_rank out of range");
  SCIOTO_REQUIRE(cfg_.max_dynamic_body >= 0 && cfg_.max_dynamic_succ >= 0,
                 "negative dynamic-node limits");
  SCIOTO_REQUIRE(static_cast<std::int32_t>(sizeof(DagBody)) <=
                     tc_.config().max_task_body,
                 "DagScheduler needs max_task_body >= " << sizeof(DagBody));
  dispatch_handle_ =
      tc_.register_callback([this](TaskContext& ctx) { run_node(ctx); });
  const std::size_t n = static_cast<std::size_t>(rt_.nprocs());
  slots_per_rank_.assign(n, 0);
  vslots_per_rank_.assign(n, 0);
  desc_stride_ = align_up(desc_args_offset(cfg_) +
                              static_cast<std::size_t>(cfg_.max_dynamic_body),
                          alignof(std::int64_t));
  dyn_buf_.resize(desc_stride_);
}

NodeId DagScheduler::add_node(Rank home, NodeFn fn, GroupId group) {
  SCIOTO_REQUIRE(!executed_, "DagScheduler::add_node after execute()");
  SCIOTO_REQUIRE(home >= 0 && home < rt_.nprocs(),
                 "invalid home rank " << home);
  SCIOTO_REQUIRE(group == kNoGroup || (group >= 0 && group < ngroups_),
                 "add_node with unknown conflict group " << group);
  SCIOTO_REQUIRE(nodes_.size() < kMaxStatic,
                 "add_node: more than " << kMaxStatic << " static nodes");
  Node n;
  n.home = home;
  n.group = group;
  n.home_slot = static_cast<std::int32_t>(
      slots_per_rank_[static_cast<std::size_t>(home)]++);
  nodes_.push_back(n);
  fns_.push_back(std::move(fn));
  return static_cast<NodeId>(nodes_.size() - 1);
}

void DagScheduler::add_edge(NodeId pred, NodeId succ) {
  SCIOTO_REQUIRE(!executed_, "DagScheduler::add_edge after execute()");
  SCIOTO_REQUIRE(!is_dyn(pred) && !is_dyn(succ),
                 "add_edge on dynamic ids (use spawn deps / child_edge / "
                 "satisfy for streaming-built nodes)");
  SCIOTO_REQUIRE(pred >= 0 && static_cast<std::size_t>(pred) < nodes_.size(),
                 "add_edge: pred id " << pred << " out of range [0, "
                                      << nodes_.size() << ")");
  SCIOTO_REQUIRE(succ >= 0 && static_cast<std::size_t>(succ) < nodes_.size(),
                 "add_edge: succ id " << succ << " out of range [0, "
                                      << nodes_.size() << ")");
  SCIOTO_REQUIRE(pred != succ, "add_edge: self-dependency on node " << pred);
  SCIOTO_REQUIRE(edges_.size() < kMaxStatic,
                 "add_edge: more than " << kMaxStatic << " edges");
  nodes_[static_cast<std::size_t>(succ)].deps++;
  edges_.push_back({static_cast<std::int32_t>(pred),
                    static_cast<std::int32_t>(succ), -1, kNoRank});
}

void DagScheduler::add_edge(NodeId pred, NodeId succ, const DataDep& data) {
  SCIOTO_REQUIRE(data.seg >= 0 && data.len > 0 && data.owner >= 0 &&
                     data.owner < rt_.nprocs(),
                 "add_edge: malformed DataDep (seg=" << data.seg << ", owner="
                     << data.owner << ", len=" << data.len << ")");
  add_edge(pred, succ);  // the version edge is also a control edge
  EdgeRec& e = edges_.back();
  const Rank home = nodes_[static_cast<std::size_t>(succ)].home;
  e.vslot = static_cast<std::int32_t>(
      vslots_per_rank_[static_cast<std::size_t>(home)]++);
  e.owner = data.owner;
}

GroupId DagScheduler::conflict_group() {
  SCIOTO_REQUIRE(!executed_, "conflict_group after execute()");
  return ngroups_++;
}

void DagScheduler::set_group(NodeId id, GroupId group) {
  SCIOTO_REQUIRE(!executed_, "set_group after execute()");
  SCIOTO_REQUIRE(!is_dyn(id) && id >= 0 &&
                     static_cast<std::size_t>(id) < nodes_.size(),
                 "set_group: invalid node id " << id);
  SCIOTO_REQUIRE(group == kNoGroup || (group >= 0 && group < ngroups_),
                 "set_group: unknown conflict group " << group);
  nodes_[static_cast<std::size_t>(id)].group = group;
}

KindId DagScheduler::register_kind(NodeFn fn) {
  SCIOTO_REQUIRE(!executed_, "register_kind after execute()");
  kinds_.push_back(std::move(fn));
  return static_cast<KindId>(kinds_.size() - 1);
}

// ---- Graph storage and cycle detection ---------------------------------

void DagScheduler::build_csr() {
  // One stable counting sort of the edge list by pred (all edges) and by
  // succ (versioned edges only). Stability keeps every row in add_edge
  // order, and the release, fence, bump and gate loops walk rows in
  // order, so the engine's one-sided ops follow add_edge order -- the
  // order the virtual-time outputs are pinned to.
  const std::size_t n = nodes_.size();
  out_off_.assign(n + 1, 0);
  vin_off_.assign(n + 1, 0);
  for (const EdgeRec& e : edges_) {
    ++out_off_[static_cast<std::size_t>(e.pred) + 1];
    if (e.vslot >= 0) ++vin_off_[static_cast<std::size_t>(e.succ) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    out_off_[i + 1] += out_off_[i];
    vin_off_[i + 1] += vin_off_[i];
  }
  out_.resize(edges_.size());
  vin_slot_.resize(static_cast<std::size_t>(vin_off_[n]));
  // Scatter with off[u]++ as the cursor: afterwards off[u] holds row u's
  // end, i.e. row u+1's start, so one shift right restores the offsets.
  for (const EdgeRec& e : edges_) {
    const auto p = static_cast<std::size_t>(e.pred);
    out_[static_cast<std::size_t>(out_off_[p]++)] = {e.succ, e.vslot, e.owner};
    if (e.vslot >= 0) {
      const auto v = static_cast<std::size_t>(e.succ);
      vin_slot_[static_cast<std::size_t>(vin_off_[v]++)] = e.vslot;
    }
  }
  std::copy_backward(out_off_.begin(), out_off_.end() - 1, out_off_.end());
  std::copy_backward(vin_off_.begin(), vin_off_.end() - 1, vin_off_.end());
  out_off_[0] = 0;
  vin_off_[0] = 0;
}

void DagScheduler::check_acyclic_and_depths() {
  const std::size_t n = nodes_.size();
  std::vector<std::int64_t> indeg(n);
  for (std::size_t i = 0; i < n; ++i) {
    indeg[i] = nodes_[i].deps;
  }
  // Kahn's algorithm doubles as the critical-path depth computation the
  // trace/metrics plane reports.
  std::vector<std::int32_t> order;
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) {
      order.push_back(static_cast<std::int32_t>(i));
    }
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    const auto u = static_cast<std::size_t>(order[head]);
    const std::int32_t du = nodes_[u].depth + 1;
    for (std::int32_t e = out_off_[u]; e < out_off_[u + 1]; ++e) {
      const std::int32_t s = out_[static_cast<std::size_t>(e)].succ;
      Node& v = nodes_[static_cast<std::size_t>(s)];
      v.depth = std::max(v.depth, du);
      if (--indeg[static_cast<std::size_t>(s)] == 0) {
        order.push_back(s);
      }
    }
  }
  if (order.size() == n) {
    return;
  }
  // Some nodes never topologically sorted: walk predecessors within the
  // unsorted remainder (every unsorted node has one) until a node repeats,
  // then report the enclosed cycle in forward edge order. The walk takes
  // each node's first unsorted predecessor in id order.
  std::vector<std::int32_t> first_pred(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) continue;
    for (std::int32_t e = out_off_[i]; e < out_off_[i + 1]; ++e) {
      const auto s =
          static_cast<std::size_t>(out_[static_cast<std::size_t>(e)].succ);
      if (indeg[s] > 0 && first_pred[s] < 0) {
        first_pred[s] = static_cast<std::int32_t>(i);
      }
    }
  }
  NodeId cur = -1;
  for (std::size_t i = 0; i < n; ++i) {
    if (indeg[i] > 0) {
      cur = static_cast<NodeId>(i);
      break;
    }
  }
  std::vector<NodeId> walk;
  std::vector<std::int64_t> pos(n, -1);
  while (pos[static_cast<std::size_t>(cur)] < 0) {
    pos[static_cast<std::size_t>(cur)] =
        static_cast<std::int64_t>(walk.size());
    walk.push_back(cur);
    cur = first_pred[static_cast<std::size_t>(cur)];
    SCIOTO_CHECK(cur >= 0);
  }
  // walk[pos[cur]..] is the cycle in reverse (predecessor) order.
  std::ostringstream msg;
  msg << "DagScheduler: dependency cycle: ";
  const auto start = static_cast<std::size_t>(
      pos[static_cast<std::size_t>(cur)]);
  for (std::size_t i = walk.size(); i-- > start;) {
    msg << walk[i] << " -> ";
  }
  msg << walk.back();
  throw Error(msg.str());
}

// ---- Execution -----------------------------------------------------------

void DagScheduler::execute() {
  SCIOTO_REQUIRE(!executed_, "DagScheduler::execute called twice");
  // Cycle check first: it is local and replicated, so every rank throws
  // identically before any collective is entered. The edge list is kept
  // until it passes, so a rejected graph can still be amended.
  build_csr();
  check_acyclic_and_depths();
  executed_ = true;
  std::vector<EdgeRec>().swap(edges_);

  // The replicated build must agree across ranks.
  struct BuildSig {
    std::int64_t v[4];
  } sig{{static_cast<std::int64_t>(nodes_.size()),
         static_cast<std::int64_t>(out_.size()),
         static_cast<std::int64_t>(ngroups_),
         static_cast<std::int64_t>(kinds_.size())}};
  BuildSig total = rt_.allreduce(sig, [](BuildSig a, const BuildSig& b) {
    for (int i = 0; i < 4; ++i) a.v[i] += b.v[i];
    return a;
  });
  for (int i = 0; i < 4; ++i) {
    SCIOTO_REQUIRE(total.v[i] == sig.v[i] * rt_.nprocs(),
                   "DagScheduler build diverged across ranks");
  }

  // Control-segment layout: identical on every rank (maxima over ranks).
  const int n = rt_.nprocs();
  std::int64_t max_slots = 1;
  std::int64_t max_vslots = 1;
  for (int r = 0; r < n; ++r) {
    max_slots = std::max(max_slots, slots_per_rank_[static_cast<std::size_t>(r)]);
    max_vslots =
        std::max(max_vslots, vslots_per_rank_[static_cast<std::size_t>(r)]);
  }
  const std::int64_t lock_slots =
      std::max<std::int64_t>((ngroups_ + n - 1) / n, 1);
  ctr_base_ = sizeof(std::int64_t);  // word 0: dynamic-arena cursor
  v_base_ = ctr_base_ + static_cast<std::size_t>(max_slots) * 8;
  lock_base_ = v_base_ + static_cast<std::size_t>(max_vslots) * 8;
  // Dynamic nodes need a kind, so without one the arena has no slots.
  dyn_cap_ = kinds_.empty() ? 0 : cfg_.max_dynamic_per_rank;
  dyn_ctr_base_ = lock_base_ + static_cast<std::size_t>(lock_slots) * 8;
  desc_base_ = dyn_ctr_base_ + static_cast<std::size_t>(dyn_cap_) * 8;
  const std::size_t bytes =
      desc_base_ + static_cast<std::size_t>(dyn_cap_) * desc_stride_;
  seg_ = rt_.seg_alloc(bytes);  // zeroed: cursor, versions, locks, arena
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& nd = nodes_[i];
    if (nd.home == rt_.me()) {
      auto* p = reinterpret_cast<std::int64_t*>(
          rt_.seg_ptr(seg_, rt_.me()) +
          static_ctr_offset(static_cast<NodeId>(i)));
      *p = nd.deps;
    }
  }
  rt_.barrier();

  // Deferred-node hooks: parked nodes are retried from the idle loop and
  // keep this rank's termination vote black while they wait.
  tc_.set_idle_hook([this] { return retry_parked(); });
  tc_.set_pending_hook([this] { return !parked_.empty(); });
  running_ = true;

  // Seed the roots at their home ranks.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& nd = nodes_[i];
    if (nd.home == rt_.me() && nd.deps == 0) {
      fire(static_cast<NodeId>(i), nd.home, nd.depth);
    }
  }

  tc_.process();

  running_ = false;
  tc_.set_idle_hook(nullptr);
  tc_.set_pending_hook(nullptr);
  SCIOTO_CHECK_MSG(parked_.empty(), "DagScheduler terminated with "
                                        << parked_.size()
                                        << " node(s) still parked");

  // Post-run backstop (static Kahn cannot see dynamically added edges):
  // any counter still positive names a node that never became ready.
  std::ostringstream stuck_ids;
  std::int64_t stuck_local = 0;
  const std::byte* patch = rt_.seg_ptr(seg_, rt_.me());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].home != rt_.me()) continue;
    auto v = *reinterpret_cast<const std::int64_t*>(
        patch + static_ctr_offset(static_cast<NodeId>(i)));
    if (v > 0) {
      if (stuck_local < 8) stuck_ids << " " << i;
      ++stuck_local;
    }
  }
  const auto spawned_here =
      *reinterpret_cast<const std::int64_t*>(patch);  // cursor word
  for (std::int64_t i = 0; i < spawned_here; ++i) {
    auto v = *reinterpret_cast<const std::int64_t*>(
        patch + dyn_ctr_base_ + static_cast<std::size_t>(i) * 8);
    if (v > 0) {
      if (stuck_local < 8) stuck_ids << " " << dyn_node_id(rt_.me(), i);
      ++stuck_local;
    }
  }
  std::int64_t stuck = rt_.allreduce_sum(stuck_local);
  rt_.seg_free(seg_);
  SCIOTO_REQUIRE(stuck == 0,
                 "DagScheduler: " << stuck
                     << " node(s) never became ready (unsatisfied extra_deps "
                        "or a cycle through dynamic edges); local ids:"
                     << stuck_ids.str());
}

void DagScheduler::satisfy(NodeId id, std::int64_t n) {
  SCIOTO_REQUIRE(running_, "satisfy outside execute()");
  SCIOTO_REQUIRE(n >= 1, "satisfy with n < 1");
  SCIOTO_REQUIRE(id >= 0, "satisfy: invalid node id " << id);
  if (is_dyn(id)) {
    SCIOTO_REQUIRE(dyn_home(id) < rt_.nprocs() && dyn_idx(id) < dyn_cap_,
                   "satisfy: dynamic node id "
                       << id << " names no arena slot (" << dyn_cap_
                       << " per rank; the arena exists only when a kind is "
                          "registered)");
  } else {
    SCIOTO_REQUIRE(static_cast<std::size_t>(id) < nodes_.size(),
                   "satisfy: invalid node id " << id);
  }
  stats_.satisfies++;
  decrement(id, n);
}

// ---- Dispatch ------------------------------------------------------------

void DagScheduler::run_node(TaskContext& tctx) {
  const NodeId id = tctx.body_as<DagBody>().node;
  const Rank me = rt_.me();
  GroupId group = kNoGroup;
  std::int32_t depth = 0;
  const NodeFn* fn = nullptr;
  const void* args = nullptr;
  std::int32_t args_len = 0;
  const std::byte* dyn_succ = nullptr;  // inside dyn_buf_
  std::int32_t ndyn_succ = 0;

  if (!is_dyn(id)) {
    const auto u = static_cast<std::size_t>(id);
    const Node& nd = nodes_[u];
    group = nd.group;
    depth = nd.depth;
    // Version gate (the RAW check): every versioned in-edge's bump must
    // have landed. The ready-decrement is a cheap control message that can
    // overtake the producer's bulk payload; this gate is what makes the
    // overtake harmless.
    for (std::int32_t e = vin_off_[u]; e < vin_off_[u + 1]; ++e) {
      std::uint64_t v = 0;
      pgas::OpStatus st = rt_.get_u64_with_retry(
          seg_, nd.home, version_offset(vin_slot_[static_cast<std::size_t>(e)]),
          &v);
      if (st == pgas::OpStatus::Dropped || v == 0) {
        defer(id, group, /*version_wait=*/true);
        return;
      }
    }
    fn = &fns_[u];
  } else {
    // Dynamic node: fetch its descriptor from the home-rank arena.
    const Rank home = dyn_home(id);
    const std::int64_t idx = dyn_idx(id);
    rt_.get(seg_, home,
            desc_base_ + static_cast<std::size_t>(idx) * desc_stride_,
            dyn_buf_.data(), desc_stride_);
    const auto* h = reinterpret_cast<const DynHeader*>(dyn_buf_.data());
    SCIOTO_CHECK_MSG(h->kind >= 0 &&
                         static_cast<std::size_t>(h->kind) < kinds_.size(),
                     "dynamic node " << id << " has corrupt kind " << h->kind);
    group = h->group;
    depth = h->depth;
    args_len = h->body_len;
    // dyn_buf_ stays intact until the successors are released below:
    // nodes do not nest, and nothing else on this rank fetches into it.
    dyn_succ = dyn_buf_.data() + sizeof(DynHeader);
    ndyn_succ = h->nsucc;
    args = dyn_buf_.data() + desc_args_offset(cfg_);
    fn = &kinds_[static_cast<std::size_t>(h->kind)];
  }

  // Conflict gate: one CAS on the group's lock word. Busy means a group
  // peer is running somewhere -- defer, do not spin on a remote lock.
  if (group != kNoGroup) {
    std::int64_t prev = rt_.compare_swap(seg_, lock_home(group),
                                         lock_offset(group), 0,
                                         lock_token(id));
    if (prev != 0) {
      defer(id, group, /*version_wait=*/false);
      return;
    }
  }

  obs::emit(me, trace::Ev::NodeRun, id32(id), group, depth);
  stats_.nodes_run++;
  if (static_cast<std::uint64_t>(depth) > stats_.max_depth) {
    stats_.max_depth = static_cast<std::uint64_t>(depth);
    obs::gauge(me, metrics::Gauge::DagDepthMax, stats_.max_depth);
  }

  SCIOTO_CHECK(!in_node_);
  in_node_ = true;
  clear_staged();
  NodeCtx nctx(*this, id, depth, args, args_len);
  (*fn)(nctx);
  in_node_ = false;

  // Release the conflict lock before firing successors, so a same-group
  // successor fired below can acquire immediately.
  if (group != kNoGroup) {
    std::int64_t prev =
        rt_.swap(seg_, lock_home(group), lock_offset(group), 0);
    SCIOTO_CHECK_MSG(prev == lock_token(id),
                     "conflict lock of group " << group
                         << " corrupted while node " << id << " held it");
  }

  // Completion protocol, in order: (1) publish this invocation's dynamic
  // children, (2) release all successors via one-sided decrements -- the
  // parent hold makes children fireable only now, (3) bump data versions
  // LAST. (3) after (2) deliberately models the network race where the
  // control decrement overtakes the payload: the consumer's version gate,
  // not delivery order, provides the RAW safety.
  publish_and_release_children();
  if (!is_dyn(id)) {
    release_successors(static_cast<std::size_t>(id));
  } else {
    for (std::int32_t i = 0; i < ndyn_succ; ++i) {
      NodeId s;
      std::memcpy(&s, dyn_succ + static_cast<std::size_t>(i) * sizeof(NodeId),
                  sizeof(NodeId));
      decrement(s, 1);
    }
  }

  // Opportunistic parked retry: a completion is the likeliest gate-opening
  // event on this rank, so check before going back through the idle loop.
  retry_parked();
}

void DagScheduler::decrement(NodeId succ, std::int64_t delta) {
  Rank home;
  std::size_t off;
  std::int32_t depth = -1;
  if (!is_dyn(succ)) {
    const Node& nd = nodes_[static_cast<std::size_t>(succ)];
    home = nd.home;
    off = static_ctr_offset(succ);
    depth = nd.depth;
  } else {
    home = dyn_home(succ);
    off = dyn_ctr_base_ + static_cast<std::size_t>(dyn_idx(succ)) * 8;
  }
  std::int64_t prev = rt_.fetch_add(seg_, home, off, -delta);
  SCIOTO_CHECK_MSG(prev >= delta,
                   "dependency counter underflow on node " << succ);
  if (prev == delta) {
    fire(succ, home, depth);
  }
}

void DagScheduler::fire(NodeId id, Rank home, std::int32_t depth) {
  const Rank me = rt_.me();
  obs::emit(me, trace::Ev::NodeReady, id32(id), home, depth);
  stats_.nodes_fired++;
  if (home != me) {
    stats_.remote_fires++;
  }
  // Home-rank affinity: the node lands at the head of its home's queue
  // (dead homes are redirected locally by the collection itself).
  enqueue(id, home, kAffinityHigh);
}

void DagScheduler::enqueue(NodeId id, Rank where, int affinity) {
  // The dispatch descriptor, byte for byte what task_create(sizeof(DagBody),
  // dispatch_handle_) builds, but on the stack.
  struct Descriptor {
    TaskHeader header;
    DagBody body;
  };
  static_assert(sizeof(Descriptor) == sizeof(TaskHeader) + sizeof(DagBody));
  Descriptor d;
  d.header.callback = dispatch_handle_;
  d.header.body_bytes = sizeof(DagBody);
  d.body.node = id;
  tc_.add_raw(where, affinity, reinterpret_cast<const std::byte*>(&d),
              sizeof(d));
}

void DagScheduler::defer(NodeId id, GroupId group, bool version_wait) {
  const Rank me = rt_.me();
  obs::emit(me, trace::Ev::ConflictRetry, id32(id), version_wait ? 1 : 0,
            group);
  if (version_wait) {
    stats_.version_waits++;
  } else {
    stats_.conflict_retries++;
  }
  if (fault::active()) {
    // Parked memory is rank-local and dies with the rank. Under a fault
    // session deferred nodes go back through the queue instead -- queue
    // contents survive a kill via the adoption path, so composition with
    // the detector/lease machinery is preserved.
    enqueue(id, me, kAffinityLow);
    return;
  }
  parked_.push_back({id, group});
  obs::gauge(me, metrics::Gauge::DagParked, parked_.size());
}

bool DagScheduler::gates_look_open(const ParkEntry& e) {
  // Advisory one-sided reads; the dispatch re-checks authoritatively (the
  // CAS can still lose a race and re-defer, which is harmless).
  if (!is_dyn(e.id)) {
    const auto u = static_cast<std::size_t>(e.id);
    const Rank home = nodes_[u].home;
    for (std::int32_t i = vin_off_[u]; i < vin_off_[u + 1]; ++i) {
      std::uint64_t v = 0;
      rt_.get_u64_with_retry(
          seg_, home, version_offset(vin_slot_[static_cast<std::size_t>(i)]),
          &v);
      if (v == 0) {
        return false;
      }
    }
  }
  if (e.group != kNoGroup) {
    std::uint64_t w = 0;
    rt_.get_u64_with_retry(seg_, lock_home(e.group), lock_offset(e.group),
                           &w);
    if (w != 0) {
      return false;
    }
  }
  return true;
}

std::uint64_t DagScheduler::retry_parked() {
  if (parked_.empty()) {
    return 0;
  }
  // One order-preserving compaction pass: entries are checked and
  // re-injected front to back, the ones still blocked slide down.
  std::uint64_t injected = 0;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < parked_.size(); ++i) {
    const ParkEntry e = parked_[i];
    if (gates_look_open(e)) {
      enqueue(e.id, rt_.me(), kAffinityHigh);
      ++injected;
    } else {
      parked_[kept++] = e;
    }
  }
  parked_.resize(kept);
  if (injected > 0) {
    obs::gauge(rt_.me(), metrics::Gauge::DagParked, parked_.size());
  }
  return injected;
}

// ---- Streaming build -----------------------------------------------------

NodeId DagScheduler::spawn_child(KindId kind, Rank home, const void* args,
                                 std::int32_t len, std::int64_t extra_deps,
                                 GroupId group, std::int32_t parent_depth) {
  SCIOTO_CHECK_MSG(in_node_, "spawn outside a node callback");
  SCIOTO_REQUIRE(kind >= 0 && static_cast<std::size_t>(kind) < kinds_.size(),
                 "spawn: unknown kind " << kind
                     << " (register_kind is replicated, like callbacks)");
  SCIOTO_REQUIRE(home >= 0 && home < rt_.nprocs(),
                 "spawn: invalid home rank " << home);
  SCIOTO_REQUIRE(len >= 0 && len <= cfg_.max_dynamic_body,
                 "spawn: args length " << len << " exceeds max_dynamic_body "
                                       << cfg_.max_dynamic_body);
  SCIOTO_REQUIRE(extra_deps >= 0, "spawn: negative extra_deps");
  SCIOTO_REQUIRE(group == kNoGroup || (group >= 0 && group < ngroups_),
                 "spawn: unknown conflict group " << group);
  // Reserve an arena slot on the child's home with a one-sided cursor
  // bump; the id is usable immediately, the descriptor publishes when this
  // callback completes.
  std::int64_t idx = rt_.fetch_add(seg_, home, 0, 1);
  SCIOTO_REQUIRE(idx < dyn_cap_,
                 "dynamic-node arena on rank "
                     << home << " is full (max_dynamic_per_rank="
                     << cfg_.max_dynamic_per_rank << ")");
  // Build the descriptor in place; resize zeroes the new bytes.
  staged_desc_.resize(staged_desc_.size() + desc_stride_);
  std::byte* d = staged_desc(staged_.size());
  DynHeader h;
  h.kind = kind;
  h.group = group;
  h.depth = parent_depth + 1;
  h.body_len = len;
  std::memcpy(d, &h, sizeof(h));
  if (len > 0) {
    std::memcpy(d + desc_args_offset(cfg_), args,
                static_cast<std::size_t>(len));
  }
  const NodeId id = dyn_node_id(home, idx);
  staged_.push_back({id, home, 1 + extra_deps});  // +1: the parent hold
  stats_.dyn_spawned++;
  return id;
}

void DagScheduler::stage_child_edge(NodeId pred, NodeId succ) {
  SCIOTO_CHECK_MSG(in_node_, "child_edge outside a node callback");
  SCIOTO_REQUIRE(pred != succ, "child_edge: self-dependency on " << pred);
  std::size_t p = staged_.size();
  std::size_t s = staged_.size();
  for (std::size_t i = 0; i < staged_.size(); ++i) {
    if (staged_[i].id == pred) p = i;
    if (staged_[i].id == succ) s = i;
  }
  SCIOTO_REQUIRE(p < staged_.size() && s < staged_.size(),
                 "child_edge: both ends must be children spawned by this "
                 "callback (pred=" << pred << ", succ=" << succ << ")");
  std::byte* d = staged_desc(p);
  DynHeader h;
  std::memcpy(&h, d, sizeof(h));
  SCIOTO_REQUIRE(h.nsucc < cfg_.max_dynamic_succ,
                 "child_edge: node " << pred << " exceeds max_dynamic_succ "
                                     << cfg_.max_dynamic_succ);
  std::memcpy(d + sizeof(h) + static_cast<std::size_t>(h.nsucc) *
                                  sizeof(NodeId),
              &succ, sizeof(NodeId));
  h.nsucc++;
  std::memcpy(d, &h, sizeof(h));
  staged_[s].deps++;
}

void DagScheduler::publish_and_release_children() {
  if (staged_.empty()) {
    return;
  }
  for (std::size_t i = 0; i < staged_.size(); ++i) {
    const StagedChild& c = staged_[i];
    const auto idx = static_cast<std::size_t>(dyn_idx(c.id));
    rt_.put(seg_, c.home, desc_base_ + idx * desc_stride_, staged_desc(i),
            desc_stride_);
    // Plain put of the counter is safe: the only writer until the release
    // fetch_add below is this thread, and that RMW publishes both words to
    // every later decrementer.
    rt_.put(seg_, c.home, dyn_ctr_base_ + idx * 8, &c.deps,
            sizeof(std::int64_t));
  }
  // Release the parent holds only after every sibling is published, so a
  // child firing now may already name its siblings as successors.
  for (const StagedChild& c : staged_) {
    decrement(c.id, 1);
  }
  clear_staged();
}

// ---- Release and data versioning ---------------------------------------

void DagScheduler::release_successors(std::size_t u) {
  const OutEdge* first = out_.data() + out_off_[u];
  const OutEdge* last = out_.data() + out_off_[u + 1];
  bool versioned = false;
  for (const OutEdge* e = first; e != last; ++e) {
    decrement(e->succ, 1);
    versioned |= e->vslot >= 0;
  }
  if (versioned) {
    bump_versions(first, last);
  }
}

void DagScheduler::bump_versions(const OutEdge* first, const OutEdge* last) {
  // Flush the payload before announcing it: one fence per distinct data
  // owner covers all versioned edges naming it.
  for (const OutEdge* e = first; e != last; ++e) {
    if (e->vslot < 0) continue;
    bool seen = false;
    for (const OutEdge* p = first; p != e; ++p) {
      if (p->vslot >= 0 && p->owner == e->owner) {
        seen = true;
        break;
      }
    }
    if (!seen) {
      rt_.fence(e->owner);
    }
  }
  for (const OutEdge* e = first; e != last; ++e) {
    if (e->vslot < 0) continue;
    const Rank home = nodes_[static_cast<std::size_t>(e->succ)].home;
    rt_.put_word_reliable(seg_, home, version_offset(e->vslot), 1,
                          sizeof(std::uint64_t));
  }
}

// ---- Statistics ----------------------------------------------------------

DagStats DagScheduler::stats_global() {
  struct Packed {
    std::uint64_t v[8];
  } p{{stats_.nodes_run, stats_.nodes_fired, stats_.remote_fires,
       stats_.conflict_retries, stats_.version_waits, stats_.dyn_spawned,
       stats_.satisfies, stats_.max_depth}};
  Packed sum = rt_.allreduce(p, [](Packed a, const Packed& b) {
    for (int i = 0; i < 7; ++i) a.v[i] += b.v[i];
    a.v[7] = std::max(a.v[7], b.v[7]);
    return a;
  });
  DagStats g;
  g.nodes_run = sum.v[0];
  g.nodes_fired = sum.v[1];
  g.remote_fires = sum.v[2];
  g.conflict_retries = sum.v[3];
  g.version_waits = sum.v[4];
  g.dyn_spawned = sum.v[5];
  g.satisfies = sum.v[6];
  g.max_depth = sum.v[7];
  return g;
}

}  // namespace scioto::dag
