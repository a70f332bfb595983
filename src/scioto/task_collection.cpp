#include "scioto/task_collection.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>
#include <type_traits>

#include "base/log.hpp"
#include "base/sha1.hpp"
#include "control/control.hpp"
#include "elastic/elastic.hpp"
#include "metrics/monitor.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"
#include "trace/lineage.hpp"

namespace scioto {

namespace {

// The elastic control patch (src/elastic): one cache line per rank
// carrying the join and checkpoint protocol words. Cross-rank access goes
// through the runtime's failure-aware word ops; local access through
// atomic_ref, like the termination mailboxes.
struct alignas(64) ElasticCtl {
  std::uint64_t join_req = 0;     // parked rank requests admission
  std::uint64_t join_knock = 0;   // doorbell bitmask: joiners OR their rank
                                  // bit in; bit 63 = "rank >= 63, sweep"
  std::uint64_t quiesce_gen = 0;  // arrived-at ckpt generation (kPhaseOver
                                  // once this rank left the phase)
  std::uint64_t ckpt_done = 0;    // completed ckpt generation (the leader's
                                  // word doubles as the manifest gate)
  std::uint64_t ckpt_ndesc = 0;   // descriptors in this rank's last part
};

/// Doorbell bit for rank r: ranks that fit the word carry their identity
/// in the knock itself; every higher rank shares the overflow bit and is
/// found by a remote sweep of the parked tail.
constexpr std::uint64_t knock_bit(Rank r) {
  return r < 63 ? std::uint64_t{1} << r : std::uint64_t{1} << 63;
}

/// Sentinel arrival value: "this rank left the phase and will never have
/// work again" -- quiesce waits and parked ranks both key off it.
constexpr std::uint64_t kPhaseOver = ~std::uint64_t{0};

template <class T>
std::atomic_ref<T> aref(T& word) {
  return std::atomic_ref<T>(word);
}

ElasticCtl* ectl(pgas::Runtime& rt, pgas::SegId seg, Rank r) {
  return reinterpret_cast<ElasticCtl*>(rt.seg_ptr(seg, r));
}

std::string ckpt_part_path(const std::string& base, Rank r) {
  return base + ".r" + std::to_string(r);
}

constexpr char kCkptMagic[8] = {'S', 'C', 'K', 'P', 'T', '1', '\n', '\0'};

/// Cap on the exponential steal backoff, in termination-detection polls
/// between steal rounds.
constexpr int kStealBackoffMaxPolls = 64;

/// Whole-rank stall rules (stall:rank=,for=): the rank goes dark for the
/// whole duration -- no heartbeats, no queue ops -- which is how the
/// false-suspicion tests push a live rank past the detector's confirm
/// timeout.
void fault_stall(pgas::Runtime& rt) {
  TimeNs stall = fault::rank_stall_time(rt.me());
  if (stall > 0) {
    TimeNs t0 = rt.now();
    rt.charge(stall);  // sim backend: virtual time advances
    TimeNs advanced = rt.now() - t0;
    if (advanced < stall) {
      // Threads backend: charge is a no-op, so stall in wall-clock.
      std::this_thread::sleep_for(std::chrono::nanoseconds(stall - advanced));
    }
  }
}

/// Victim selection for one rank's steal rounds: the paper's uniform
/// random choice (§5.1), refined in a fixed order by the §8 node bias,
/// the control plane's hot victim set and the fault/elastic alive pool.
/// A refinement draws from the RNG only when it is armed, so default runs
/// consume the stream exactly as the uniform rule alone would -- the
/// order of draws is part of every sim replay.
struct VictimPolicy {
  Rank me;
  int n;
  int cores;
  double node_bias;
  // Fault or elastic session: sample live ranks only. Stealing from the
  // dead is the ward's job (drain_dead), and parked ranks have no work.
  bool pool;
  const std::vector<Rank>& alive_others;
  const control::KnobSet& knobs;
  Xoshiro256& rng;

  /// Next victim, or kNoRank when there is nobody to steal from. `avoid`
  /// deterministically shifts a repeat pick to the next candidate (no
  /// extra RNG draws); busy-abort retargeting passes the bounced victim.
  Rank pick(Rank avoid) {
    Rank v = same_node();
    if (v == kNoRank && knobs.get(control::Knob::VictimSetSize) > 0) {
      v = hot_set(avoid);
    }
    if (v != kNoRank) {
      return v;
    }
    return pool ? from_alive_pool(avoid) : uniform(avoid);
  }

  /// §8 multicore enhancement: optionally prefer a victim sharing our
  /// node, whose queue we can raid through shared memory.
  Rank same_node() {
    if (!(node_bias > 0 && cores > 1 && rng.bernoulli(node_bias))) {
      return kNoRank;
    }
    Rank node_base = (me / cores) * cores;
    int node_sz = std::min(cores, n - node_base);
    if (node_sz <= 1) {
      return kNoRank;
    }
    Rank v = node_base + static_cast<Rank>(rng.next_below(
                             static_cast<std::uint64_t>(node_sz - 1)));
    if (v >= me) {
      ++v;
    }
    return pool && !detect::alive(v) ? kNoRank : v;  // dead: resample
  }

  /// Restricted victim set (control plane): with the victim_set knob at
  /// k > 0, aim at the k deepest ranks from the monitor digest (the
  /// controller sets this under sustained imbalance -- blind uniform
  /// choice finds one deep rank among n with probability 1/(n-1), and
  /// every miss inflates the steal backoff). Without a digest (knob set
  /// via the C API, no control session) fall back to the next k ranks in
  /// ring order. A dead pick falls through to the alive pool.
  Rank hot_set(Rank avoid) {
    const int vset = static_cast<int>(knobs.get(control::Knob::VictimSetSize));
    Rank hotpool[control::kMaxHotVictims];
    int npool = 0;
    Rank hot[control::kMaxHotVictims];
    int nhot = control::hot_victims(hot);
    for (int i = 0; i < nhot && npool < vset; ++i) {
      if (hot[i] == me) continue;
      if (pool && !detect::alive(hot[i])) continue;
      hotpool[npool++] = hot[i];
    }
    if (npool > 0) {
      std::uint64_t off = rng.next_below(static_cast<std::uint64_t>(npool));
      Rank cand = hotpool[off];
      if (cand == avoid && npool > 1) {
        cand = hotpool[(off + 1) % static_cast<std::uint64_t>(npool)];
      }
      return cand;
    }
    std::uint64_t off = rng.next_below(static_cast<std::uint64_t>(vset));
    Rank cand = static_cast<Rank>((me + 1 + static_cast<Rank>(off)) % n);
    if (cand == avoid && vset > 1) {
      cand = static_cast<Rank>(
          (me + 1 + static_cast<Rank>((off + 1) % vset)) % n);
    }
    return !pool || detect::alive(cand) ? cand : kNoRank;
  }

  Rank from_alive_pool(Rank avoid) {
    if (alive_others.empty()) {
      return kNoRank;  // sole survivor: nothing left to steal from
    }
    std::size_t idx = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(alive_others.size())));
    if (alive_others[idx] == avoid && alive_others.size() > 1) {
      idx = (idx + 1) % alive_others.size();
    }
    return alive_others[idx];
  }

  /// The paper's rule: uniform over the other ranks.
  Rank uniform(Rank avoid) {
    Rank v = static_cast<Rank>(
        rng.next_below(static_cast<std::uint64_t>(n - 1)));
    if (v >= me) {
      ++v;
    }
    if (v == avoid && n > 2) {
      do {
        v = (v + 1) % n;
      } while (v == me);
    }
    return v;
  }
};

}  // namespace

Table tc_stats_table(const TcStats& s) {
  Table t({"metric", "value"});
  auto add_u64 = [&](const char* name, std::uint64_t v) {
    t.add_row({name, Table::fmt(static_cast<std::int64_t>(v))});
  };
  auto add_ms = [&](const char* name, TimeNs v) {
    t.add_row({name, Table::fmt(static_cast<double>(v) / 1e6, 3)});
  };
  auto add_pct = [&](const char* name, double num, double den) {
    t.add_row({name, Table::fmt(den > 0 ? 100.0 * num / den : 0.0, 1)});
  };
  add_u64("tasks_executed", s.tasks_executed);
  add_u64("tasks_spawned_local", s.tasks_spawned_local);
  add_u64("tasks_spawned_remote", s.tasks_spawned_remote);
  add_u64("steals", s.steals);
  add_u64("steals_same_node", s.steals_same_node);
  add_u64("steal_attempts", s.steal_attempts);
  add_u64("tasks_stolen", s.tasks_stolen);
  add_u64("releases", s.releases);
  add_u64("reacquires", s.reacquires);
  add_u64("td_waves_voted", s.td_waves_voted);
  add_u64("td_black_votes", s.td_black_votes);
  add_u64("td_marks_sent", s.td_marks_sent);
  add_u64("td_marks_skipped", s.td_marks_skipped);
  if (s.tasks_recovered != 0 || s.steals_aborted != 0 || s.op_retries != 0 ||
      s.td_resplices != 0) {
    add_u64("tasks_recovered", s.tasks_recovered);
    add_u64("steals_aborted", s.steals_aborted);
    add_u64("op_retries", s.op_retries);
    add_u64("td_resplices", s.td_resplices);
  }
  // Steal-protocol rows appear only when an aborting or lockfree run
  // left a trace in them, so default-config tables are unchanged.
  if (s.steals_lock_busy != 0 || s.steal_retargets != 0 ||
      s.reacquires_fast != 0) {
    add_u64("steals_lock_busy", s.steals_lock_busy);
    add_u64("steal_retargets", s.steal_retargets);
    add_u64("owner_lock_acqs", s.owner_lock_acqs);
    add_u64("reacquires_fast", s.reacquires_fast);
    t.add_row({"mean_steal_chunk",
               Table::fmt(s.steals > 0
                              ? static_cast<double>(s.tasks_stolen) /
                                    static_cast<double>(s.steals)
                              : 0.0,
                          2)});
  }
  add_ms("time_total_ms", s.time_total);
  add_ms("time_working_ms", s.time_working);
  add_ms("time_searching_ms", s.time_searching);
  add_pct("steal_success_pct", static_cast<double>(s.steals),
          static_cast<double>(s.steal_attempts));
  add_pct("working_pct", static_cast<double>(s.time_working),
          static_cast<double>(s.time_total));
  add_pct("searching_pct", static_cast<double>(s.time_searching),
          static_cast<double>(s.time_total));
  return t;
}

TaskCollection::TaskCollection(pgas::Runtime& rt, TcConfig cfg)
    : rt_(rt),
      cfg_(cfg),
      clos_(rt),
      rng_(derive_seed(rt.seed(), rt.me(), /*stream=*/0xA11)) {
  SCIOTO_REQUIRE(cfg_.max_task_body >= 0, "negative max_task_body");
  SCIOTO_REQUIRE(cfg_.chunk_size >= 1, "chunk_size must be >= 1");
  SCIOTO_REQUIRE(cfg_.max_tasks_per_rank >= 2, "max_tasks_per_rank too small");
  // SCIOTO_QUEUE=locked|aborting|lockfree selects a split queue's steal
  // protocol at construction time (collectively uniform: every rank reads
  // the same environment), so existing programs can A/B the protocols
  // without a rebuild. A NoSplit queue has no split to steal from and
  // keeps its mode: Figure 7's No-Split column stays the locked queue.
  if (const char* qm = std::getenv("SCIOTO_QUEUE"); qm && *qm != '\0') {
    QueueMode m = QueueMode::Split;
    SCIOTO_REQUIRE(queue_mode_from_env(qm, &m),
                   "SCIOTO_QUEUE: unknown mode '"
                       << qm << "' (expected locked|aborting|lockfree)");
    if (cfg_.queue_mode != QueueMode::NoSplit) {
      cfg_.queue_mode = m;
    }
  }
  if (cfg_.chunk_max == 0) {
    cfg_.chunk_max = cfg_.chunk_size;
    if (control::active()) {
      // Give the controller headroom to raise the steal chunk. active()
      // reads collectively uniform session state, so every rank widens
      // identically (the bound shapes the collectively allocated patch).
      cfg_.chunk_max = std::max(cfg_.chunk_size, 64);
    }
  }
  SCIOTO_REQUIRE(cfg_.chunk_max >= cfg_.chunk_size,
                 "chunk_max " << cfg_.chunk_max << " below chunk_size "
                              << cfg_.chunk_size);

  SplitQueue::Config qc;
  qc.slot_bytes = align_up(
      sizeof(TaskHeader) + static_cast<std::size_t>(cfg_.max_task_body), 8);
  if (trace::lineage::active()) {
    // Collectively uniform (active() is process-global session state, set
    // before the SPMD region): every rank appends the same 24-byte
    // lineage trailer after the padded body. Lineage-off runs keep the
    // exact pre-lineage slot layout -- and therefore identical PGAS
    // transfer sizes and virtual-time charges.
    lineage_off_ = qc.slot_bytes;
    qc.slot_bytes += sizeof(trace::lineage::LineageRec);
    qc.lineage_off = lineage_off_;
  }
  qc.capacity = static_cast<std::uint64_t>(cfg_.max_tasks_per_rank);
  qc.chunk = cfg_.chunk_size;
  qc.chunk_max = cfg_.chunk_max;
  qc.mode = cfg_.queue_mode;
  qc.release_threshold =
      cfg_.release_threshold != 0
          ? cfg_.release_threshold
          : 2 * static_cast<std::uint64_t>(cfg_.chunk_size);
  qc.adaptive_chunk = cfg_.adaptive_steal;
  // The queue seeds its live KnobSet from these values; from here on the
  // queue and the steal path read through it, so set_knob (and the
  // controller) retune a running collection.
  queue_ = std::make_unique<SplitQueue>(rt_, qc);
  if (control::active()) {
    control::attach(rt_.me(), &queue_->knobs());
  }

  TerminationDetector::Config tdc;
  tdc.color_optimization = cfg_.color_optimization;
  td_ = std::make_unique<TerminationDetector>(rt_, tdc);

  if (detect::active()) {
    // Collective: every rank allocates its heartbeat patch together.
    hb_ = std::make_unique<detect::HeartbeatProbe>(rt_);
  }
  if (elastic::active()) {
    // Collective: the elastic control patch (join requests, quiesce
    // arrivals, checkpoint progress). Rank 0's placement-init is ordered
    // before first use by the constructor's trailing barrier.
    eseg_ = rt_.seg_alloc(sizeof(ElasticCtl));
    if (rt_.me() == 0) {
      for (Rank r = 0; r < rt_.nprocs(); ++r) {
        new (rt_.seg_ptr(eseg_, r)) ElasticCtl();
      }
    }
  }

  // TaskCollection objects are constructed per rank (ARMCI style), so
  // every buffer below is this rank's alone.
  scratch_.resize(qc.slot_bytes);
  steal_buf_.resize(qc.slot_bytes * static_cast<std::size_t>(cfg_.chunk_max));
  exec_buf_.resize(qc.slot_bytes);
  rt_.barrier();
}

void TaskCollection::destroy() {
  SCIOTO_REQUIRE(live_, "destroy of dead task collection");
  if (control::active()) {
    control::detach(rt_.me());
  }
  queue_->destroy();
  td_->destroy();
  if (hb_) {
    hb_->destroy();
  }
  if (eseg_ >= 0) {
    rt_.seg_free(eseg_);
    eseg_ = -1;
  }
  live_ = false;
}

TaskHandle TaskCollection::register_callback(TaskFn fn) {
  rt_.barrier();
  TaskHandle h =
      registry_.append(std::move(fn));
  rt_.barrier();
  return h;
}

CloHandle TaskCollection::register_clo(void* local_instance) {
  return clos_.register_object(local_instance);
}

std::int64_t TaskCollection::set_knob(control::Knob k, std::int64_t v) {
  control::KnobSet& ks = queue_->knobs();
  const bool changed = ks.set(k, v);
  if (changed && control::active()) {
    control::republish(rt_.me());
  }
  return ks.get(k);
}

Task TaskCollection::task_create(std::int32_t body_bytes,
                                 TaskHandle handle) const {
  SCIOTO_REQUIRE(
      body_bytes <= cfg_.max_task_body,
      "task body " << body_bytes << " exceeds max_task_body "
                   << cfg_.max_task_body << " given at tc_create time");
  return Task(body_bytes, handle);
}

void TaskCollection::add_raw(Rank where, int affinity,
                             const std::byte* descriptor, std::size_t size) {
  SCIOTO_REQUIRE(where >= 0 && where < rt_.nprocs(),
                 "add to invalid rank " << where);
  SCIOTO_REQUIRE(size >= sizeof(TaskHeader) && size <= slot_bytes(),
                 "task descriptor size " << size
                     << " outside [header, slot] bounds");
  const Rank me = rt_.me();
  // Pad the descriptor into a slot-sized scratch buffer (copy-in).
  std::vector<std::byte>& scratch = scratch_;
  std::memcpy(scratch.data(), descriptor, size);
  // Stamp creator and affinity into the stored header.
  auto* hdr = reinterpret_cast<TaskHeader*>(scratch.data());
  hdr->created_by = me;
  hdr->affinity = affinity;
  if (lineage_off_ != 0) {
    // Birth of the causal record: fresh id, parent = whatever task is
    // executing on this rank right now (0 for root seeds). The spawner
    // records the edge; the executor's ExecSpan closes it.
    trace::lineage::LineageRec rec;
    rec.id = trace::lineage::next_id(me);
    rec.parent = trace::lineage::current(me);
    std::memcpy(scratch.data() + lineage_off_, &rec, sizeof(rec));
    obs::emit(me, trace::Ev::SpawnEdge,
              static_cast<std::uint32_t>(rec.parent >> 32),
              static_cast<std::uint32_t>(rec.parent),
              static_cast<std::int64_t>(rec.id));
  }

  bool ok;
  // A task aimed at a dead rank lands locally instead of in dead memory
  // its ward would only have to drain back out.
  if (where == me ||
      ((fault::active() || detect::active()) && !detect::alive(where))) {
    ok = queue_->push_local(scratch.data(), affinity);
    if (ok) {
      my_stats().tasks_spawned_local++;
      queue_->release_maybe();
    }
  } else {
    ok = queue_->add_remote(where, scratch.data());
    if (ok) {
      my_stats().tasks_spawned_remote++;
      obs::count(me, metrics::Ctr::RemoteSpawns);
      // A remote add moves work: termination detection must know (§5.2).
      td_->note_lb_op(where);
    }
  }
  if (ok) {
    obs::count(me, metrics::Ctr::TasksSpawned);
  }
  SCIOTO_REQUIRE(ok, "task collection patch on rank "
                         << where << " is full (max_tasks_per_rank="
                         << cfg_.max_tasks_per_rank << ")");
}

void TaskCollection::execute(std::byte* descriptor) {
  auto* hdr = reinterpret_cast<TaskHeader*>(descriptor);
  const TaskFn& fn =
      registry_.lookup(hdr->callback);
  const Rank me = rt_.me();
  TaskContext ctx{*this, *hdr, descriptor + sizeof(TaskHeader), me};
  // The task's one armed check. Under sim the span reads the same virtual
  // clock the process() loop uses for time_working, so the trace-derived
  // working time reconciles with TcStats exactly; its closing read feeds
  // both TaskEnd's duration and the TaskExecNs histogram.
  const obs::Span span;
  span.emit(me, trace::Ev::TaskBegin, hdr->callback, hdr->affinity);
  // Read the trailer, announce the span (after TaskBegin, so the flow
  // arrow's finish binds inside the task slice), and make this task the
  // current parent for any spawns the callback performs. Saved/restored
  // rather than cleared: the DAG engine's completion hooks can fire
  // further node tasks from inside execute.
  trace::lineage::LineageRec lrec;
  std::uint64_t lineage_prev = 0;
  const bool lineage_on = lineage_off_ != 0;
  if (lineage_on) {
    std::memcpy(&lrec, descriptor + lineage_off_, sizeof(lrec));
    span.emit(me, trace::Ev::ExecSpan, lrec.hops, hdr->callback,
              static_cast<std::int64_t>(lrec.id));
    lineage_prev = trace::lineage::current(me);
    trace::lineage::set_current(me, lrec.id);
  }
  fn(ctx);
  if (lineage_on) {
    trace::lineage::set_current(me, lineage_prev);
  }
  span.end(me, trace::Ev::TaskEnd, hdr->callback);
  my_stats().tasks_executed++;
}

void TaskCollection::refresh_membership() {
  // Membership through the detector's view (oracle fallback when
  // disarmed): ward assignments and the victim pool re-form on every
  // epoch bump -- deaths, rejoins of falsely-suspected ranks, and elastic
  // admissions alike. Parked (NotJoined) ranks are neither victims nor
  // wards: their queues are empty and must never be frozen by drain_dead.
  std::uint64_t e = detect::epoch();
  if (e == epoch_seen_) {
    return;
  }
  epoch_seen_ = e;
  wards_.clear();
  alive_others_.clear();
  const int n = rt_.nprocs();
  for (Rank r = 0; r < n; ++r) {
    if (detect::alive(r)) {
      if (r != rt_.me()) {
        alive_others_.push_back(r);
      }
    } else if (detect::joined(r) && detect::successor(r) == rt_.me()) {
      wards_.push_back(r);
    }
  }
}

void TaskCollection::fence_abort_and_rejoin() {
  // Acknowledging the fence takes our own queue lock, so this blocks
  // until any in-flight adoption finishes; the fence word then reads the
  // (epoch, adopter) lease that evicted us. fence_ack also performs the
  // detect::rejoin() under that same lock -- clearing the fence and
  // rejoining must be one critical section, or a ward that passed its
  // alive() re-check could install a fence between them that nobody ever
  // clears. Nothing is drained twice: our lock-free push/pop CASes failed
  // from the moment the adopter froze priv_tail (bounced pushes sit in
  // the overflow stash, rank-local memory the adopter never scoops), and
  // the adopter's under-lock alive() re-check blocks any adoption
  // attempted after the rejoin.
  std::uint64_t fence = queue_->fence_ack();
  Rank adopter =
      fence != 0 ? static_cast<Rank>((fence & 0xffff) - 1) : kNoRank;
  detect::note_fence_abort();
  obs::emit(rt_.me(), trace::Ev::FenceAbort,
            adopter == kNoRank ? -1 : adopter,
            static_cast<std::int64_t>(fence >> 16));
  if (hb_) {
    hb_->reset_observations();
  }
  // Re-entering with (possibly) stashed work: the next vote must be black
  // so no in-flight wave concludes all-white over it.
  td_->mark_self_black();
}

// Per-phase state of the process() loop. Cross-phase state (stats,
// buffers, RNG) stays in the collection.
struct TaskCollection::Phase {
  pgas::Runtime& rt;
  TcStats& st;
  std::byte* exec_buf;
  std::byte* steal_buf;
  VictimPolicy victims;
  bool ft;          // fault session active
  bool elastic_on;  // elastic session with a control patch
  std::uint64_t pump_iter = 0;
  bool pump_now = false;  // set by idle iterations; see pump()
  TimeNs idle_begin = 0;
  // Searching time accumulated since the last Search trace event; one
  // coalesced event is emitted per idle spell (at the transition back to
  // work or at termination) instead of one per poll iteration.
  TimeNs search_accum = 0;
  // Steal backoff state: after each empty-handed steal round, double the
  // number of cheap TD polls before the next round (capped).
  int failed_steal_rounds = 0;
  int polls_until_steal = 0;
  std::uint64_t idle_iterations = 0;  // watchdog for diagnostics

  /// Adds the idle spell since idle_begin to the searching time.
  void note_search() {
    TimeNs spell = rt.now() - idle_begin;
    st.time_searching += spell;
    search_accum += spell;
  }
  /// Emits the coalesced Search event for the spell so far.
  void emit_search() {
    if (obs::on()) {
      obs::emit(rt.me(), trace::Ev::Search, 0, 0, search_accum);
    }
    search_accum = 0;
  }
};

void TaskCollection::process() {
  // One barrier separates everyone's local detector rearm from the first
  // token traffic; the exit is collective by construction (the root's
  // termination broadcast releases every rank), so no closing barrier is
  // needed -- this keeps tc_process within a small factor of one barrier
  // for an empty phase (Figure 4).
  td_->reset_local();
  rt_.barrier();
  const bool ft = fault::active();
  const bool elastic_on = elastic::active() && eseg_ >= 0;
  // Elastic admissions move the membership epoch without a fault session,
  // so the ward/victim-pool refresh watches it whenever either is live.
  Phase ph{rt_,
           my_stats(),
           exec_buf_.data(),
           steal_buf_.data(),
           {rt_.me(), rt_.nprocs(), rt_.machine().cores_per_node,
            cfg_.node_steal_bias, ft || elastic_on, alive_others_,
            queue_->knobs(), rng_},
           ft,
           elastic_on};
  const TimeNs t_begin = rt_.now();
  obs::emit(rt_.me(), trace::Ev::PhaseBegin);
  bool parked_out = false;  // phase ended while this rank was still parked
  if (elastic_on && !restore_done_) {
    restore_done_ = true;
    const std::string rpath = elastic::restore_path();
    if (!rpath.empty()) {
      // Collective: both branches are uniform (session config + a
      // per-instance flag that starts false on every rank).
      restore_from(rpath);
      rt_.barrier();  // everyone's share is queued before stealing starts
    }
  }
  if (elastic_on && !detect::joined(rt_.me())) {
    if (parked_wait(ph.st)) {
      td_->arm_join_white();  // first vote white; see termination.hpp
    } else {
      parked_out = true;
    }
  }

  // The paper's scheduler loop: run local work, reclaim the shared
  // portion, and once idle recover or steal work, else poll termination.
  if (!parked_out) for (;;) {
    const Pumped pumped = pump(ph);
    if (pumped == Pumped::Restart) continue;
    if (pumped == Pumped::Leave) break;
    if (drain(ph)) continue;
    if (queue_->reacquire() > 0) continue;
    ph.idle_begin = rt_.now();
    if (recover_or_inject(ph)) continue;
    if (steal(ph)) continue;  // searching time charged before it ran
    if (termination_poll(ph)) break;
  }

  if (eseg_ >= 0) {
    // Phase-over sentinel: quiesce waits and parked ranks read this as
    // "this rank will never arrive at a rendezvous, and there is no work
    // left to save". Cleared only in reset(), behind its collective
    // barriers, so nobody is still polling it when it goes back to zero.
    aref(ectl(rt_, eseg_, rt_.me())->quiesce_gen)
        .store(kPhaseOver, std::memory_order_release);
  }
  const TimeNs phase_dur = rt_.now() - t_begin;
  ph.st.time_total += phase_dur;
  obs::emit(rt_.me(), trace::Ev::PhaseEnd, 0, 0, phase_dur);
  fold_counters(ph.st);
}

TaskCollection::Pumped TaskCollection::pump(Phase& ph) {
  // Telemetry pump: under the sim backend the monitor samples in virtual
  // time from here (the designated sampler scrapes; everyone else returns
  // after one comparison). Charge-free, so metrics-on traces stay
  // identical to metrics-off. No-op under threads (wall thread).
  if (metrics::active()) {
    metrics::monitor_poll(rt_.me(), rt_.now());
  }
  // Control pump: when a controller is armed, run a decision epoch at
  // period boundaries.
  // Charge-free and virtual-time driven, so controller-off runs trace
  // byte-identically.
  if (control::active() && control::poll_due(rt_.me(), rt_.now())) {
    control::poll_epoch(rt_.me(), rt_.now(), queue_->shared_size());
  }
  // Safepoint: injected fail-stop kills fire only here and at the
  // post-steal safepoint in steal() -- never while holding a lock.
  if (ph.ft) {
    fault::poll_safepoint(rt_.me());
    fault_stall(rt_);
  }
  if (hb_) {
    hb_->poll();
    if (!detect::alive(rt_.me())) {
      // We were falsely confirmed dead: a ward owns (or is about to
      // adopt) our queue under a lease fence. Acknowledge the fence,
      // rejoin in a fresh membership epoch, and go around -- draining
      // nothing twice (see fence_abort_and_rejoin).
      fence_abort_and_rejoin();
      return Pumped::Restart;
    }
  }
  // Elastic pump: cadence-gated so the common path costs one branch, and
  // run while busy too -- a fleet cannot quiesce if only its idle ranks
  // look for the rendezvous. Idle iterations force the pump (pump_now):
  // they end in relax(), and on a wall-clock backend that yield stretches
  // under thread starvation, so the 64-iteration gate could sit on a rung
  // doorbell longer than the rest of the phase lasts. pump_iter stays
  // monotonic either way -- it doubles as the poll count threads-backend
  // ckpt after= rules count.
  if (ph.elastic_on && ((ph.pump_iter++ & 63u) == 0 || ph.pump_now)) {
    ph.pump_now = false;
    if (elastic_pump(ph)) {
      return Pumped::Leave;  // restart story: snapshot durable
    }
  }
  return Pumped::Go;
}

bool TaskCollection::elastic_pump(Phase& ph) {
  elastic_admit_scan();
  std::uint64_t target = elastic::ckpt_target_gen(
      sim::current_virtual_time(),
      static_cast<int>(std::min<std::uint64_t>(ph.pump_iter, 1u << 30)));
  return target > ckpt_gen_done_ &&
         quiesce_and_checkpoint(target, ph.st) && elastic::halt_after_ckpt();
}

bool TaskCollection::drain(Phase& ph) {
  // Head of the queue = highest affinity.
  if (!queue_->pop_local(ph.exec_buf)) {
    return false;
  }
  if (ph.search_accum > 0) {
    ph.emit_search();
  }
  run_task(ph, ph.exec_buf);
  ph.failed_steal_rounds = 0;
  ph.polls_until_steal = 0;
  return true;
}

void TaskCollection::run_task(Phase& ph, std::byte* descriptor) {
  TimeNs t0 = rt_.now();
  execute(descriptor);
  ph.st.time_working += rt_.now() - t0;
  queue_->release_maybe();
}

bool TaskCollection::recover_or_inject(Phase& ph) {
  if (ph.victims.pool) {
    refresh_membership();
  }
  // Fault recovery first: adopt work stranded by dead ranks before trying
  // to steal from live ones. Then the scheduler extension: parked
  // dataflow nodes whose gates opened are re-injected by the DAG engine's
  // idle hook.
  std::uint64_t found = 0;
  if (ph.ft) {
    found = queue_->recover_open_txns();
    for (Rank d : wards_) {
      std::uint64_t adopted = queue_->drain_dead(d);
      found += adopted;
      if (adopted > 0 && control::active()) {
        // Adopted work inherits the victim's last published knobs: the
        // dead rank's tuning reflected the workload the tasks came from.
        control::inherit(rt_.me(), d);
      }
    }
    found += queue_->flush_overflow();
  }
  if (found == 0 && idle_hook_) {
    found = idle_hook_();
  }
  if (found == 0) {
    return false;
  }
  // Work re-materialized locally without a steal: our next vote must
  // still be black, or the wave in flight could conclude all-white while
  // these tasks wait to run.
  td_->mark_self_black();
  ph.note_search();
  return true;
}

bool TaskCollection::steal(Phase& ph) {
  if (!load_balancing_ || rt_.nprocs() < 2 || ph.polls_until_steal > 0) {
    --ph.polls_until_steal;
    return false;
  }
  Rank victim = ph.victims.pick(kNoRank);
  int got = victim == kNoRank ? 0 : steal_retargeting(ph, victim);
  if (got > 0 && ph.ft) {
    // This is the window the victim-side transaction log protects: the
    // chunk is copied out but not yet requeued. A kill here loses only our
    // private copy -- the victim (or its ward) replays the chunk from the
    // log.
    fault::poll_safepoint(rt_.me());
    if (hb_ && !detect::alive(rt_.me())) {
      // Falsely confirmed dead mid-steal: the victim's ward may be
      // replaying our open transaction right now. The txn record
      // arbitrates -- winning the 1->0 reclaim keeps the chunk ours (the
      // ward's 1->2 claim can no longer succeed, and our later
      // commit_steal finds the record already closed); losing means the
      // ward replayed it and our copy must be discarded, or the chunk
      // would run twice.
      bool ours = queue_->reclaim_txn(victim);
      fence_abort_and_rejoin();
      if (!ours) {
        got = 0;
      }
    }
  }
  if (got > 0) {
    take_stolen(ph, victim, got);
    ph.failed_steal_rounds = 0;
    ph.polls_until_steal = 0;
    return true;
  }
  // Exponential backoff on consecutive failed rounds: an idle rank doubles
  // the number of cheap termination-detection polls between (expensive,
  // one-sided) steal attempts. This is what lets the token wave propagate
  // at poll speed once the system drains (Figure 4's ~2x-barrier
  // detection cost).
  ++ph.failed_steal_rounds;
  ph.polls_until_steal = std::min(1 << std::min(ph.failed_steal_rounds, 16),
                                  kStealBackoffMaxPolls);
  return false;
}

int TaskCollection::steal_retargeting(Phase& ph, Rank& victim) {
  for (int retarget = 0;;) {
    if (queue_->peek_shared(victim) == 0) {
      return 0;
    }
    int got = queue_->steal_from(victim, ph.steal_buf);
    if (got != SplitQueue::kStealBusy) {
      return got;
    }
    // Aborted on a held lock: back off briefly (seeded + capped, so sim
    // replays stay bit-deterministic) and aim at a different victim
    // instead of convoying behind the current one, within the live
    // retarget budget.
    if (retarget >= static_cast<int>(
                        queue_->knobs().get(control::Knob::RetargetBudget))) {
      return 0;
    }
    ++retarget;
    ph.st.steal_retargets++;
    TimeNs b =
        std::min<TimeNs>(ns(200) << std::min(retarget - 1, 4), ns(3200));
    b = b / 2 + static_cast<TimeNs>(ph.victims.rng.next_below(
                    static_cast<std::uint64_t>(b / 2) + 1));
    rt_.charge(b);
    Rank next = ph.victims.pick(victim);
    obs::emit(rt_.me(), trace::Ev::StealRetarget, victim,
              next == kNoRank ? victim : next, b);
    if (next == kNoRank) {
      return 0;
    }
    victim = next;
  }
}

void TaskCollection::take_stolen(Phase& ph, Rank victim, int got) {
  if (rt_.machine().cores_per_node > 1 &&
      rt_.machine().same_node(rt_.me(), victim)) {
    ph.st.steals_same_node++;
  }
  td_->note_lb_op(victim);
  // The search ends with the successful steal: charge it now, before the
  // stolen task runs, so execution time lands only in time_working
  // (working and searching partition the phase).
  ph.note_search();
  ph.emit_search();
  // Fault mode requeues the whole chunk, then closes the transaction. No
  // safepoint separates the requeue from the commit, so the chunk is
  // either fully on our queue (committed) or fully replayable from the
  // victim's log -- never both, never neither: completion is exactly-once.
  // Otherwise requeue all but the first stolen task and execute that one
  // directly from the steal buffer. This guarantees progress per
  // successful steal: requeued tasks are instantly stealable again (always
  // so under no-split queues), and without it two mutually stealing ranks
  // can bounce a task chunk forever -- a genuine livelock, not a
  // performance nicety.
  for (int i = ph.ft ? 0 : 1; i < got; ++i) {
    bool ok = queue_->push_local(
        ph.steal_buf + static_cast<std::size_t>(i) * slot_bytes(),
        kAffinityHigh);
    SCIOTO_CHECK_MSG(ok, "local queue overflow requeueing steal");
  }
  if (ph.ft) {
    queue_->commit_steal(victim);
  } else {
    run_task(ph, ph.steal_buf);
  }
}

bool TaskCollection::termination_poll(Phase& ph) {
  // Empty-handed: this iteration ends in the idle tail, so force the
  // elastic pump on the next pass (rationale in pump()).
  ph.pump_now = ph.elastic_on;
  if (ph.ft && queue_->overflow_pending()) {
    // Recovered tasks parked in the overflow stash are live work the queue
    // cannot see; keep our vote black until they drain.
    td_->mark_self_black();
  }
  if (pending_hook_ && pending_hook_()) {
    // Rank-local deferred work (parked dataflow nodes): in no queue, so
    // termination detection cannot see it -- vote black until it runs.
    td_->mark_self_black();
  }
  if (td_->step() == TerminationDetector::Status::Terminated) {
    ph.note_search();
    if (ph.search_accum > 0) {
      ph.emit_search();
    }
    return true;
  }
  rt_.relax();
  ph.note_search();
  if (++ph.idle_iterations % 1000000 == 0) {
    SCIOTO_WARN("rank " << rt_.me() << " idle for " << ph.idle_iterations
                        << " iterations: queue=" << queue_->size()
                        << " (priv=" << queue_->private_size()
                        << " shared=" << queue_->shared_size()
                        << ") executed=" << ph.st.tasks_executed
                        << " steals=" << queue_->counters().steals_in);
  }
  return false;
}

void TaskCollection::fold_counters(TcStats& st) {
  const SplitQueue::Counters& qc = queue_->counters();
  st.steals = qc.steals_in;
  st.steal_attempts = qc.steal_attempts;
  st.tasks_stolen = qc.tasks_stolen_in;
  st.releases = qc.releases;
  st.reacquires = qc.reacquires;
  const TerminationDetector::Counters& tc = td_->counters();
  st.td_waves_voted = tc.waves_voted;
  st.td_black_votes = tc.black_votes;
  st.td_marks_sent = tc.dirty_marks_sent;
  st.td_marks_skipped = tc.dirty_marks_skipped;
  st.tasks_recovered = qc.tasks_recovered;
  st.steals_aborted = qc.steals_aborted;
  st.op_retries = qc.commit_retries + tc.token_retries;
  st.td_resplices = tc.resplices;
  st.steals_lock_busy = qc.steals_lock_busy;
  st.owner_lock_acqs = qc.owner_lock_acqs;
  st.reacquires_fast = qc.reacquires_fast;
}

void TaskCollection::reset() {
  queue_->reset_collective();
  td_->reset();
  if (eseg_ >= 0) {
    // Re-zeroed only here, after the collective barriers above: every
    // rank has left the previous phase, so nobody is still polling the
    // phase-over sentinel these words carried.
    ElasticCtl* ec = ectl(rt_, eseg_, rt_.me());
    aref(ec->join_req).store(0, std::memory_order_relaxed);
    aref(ec->join_knock).store(0, std::memory_order_relaxed);
    aref(ec->quiesce_gen).store(0, std::memory_order_relaxed);
    aref(ec->ckpt_done).store(0, std::memory_order_relaxed);
    aref(ec->ckpt_ndesc).store(0, std::memory_order_relaxed);
  }
  stats_ = TcStats{};
  epoch_seen_ = ~std::uint64_t{0};
  rt_.barrier();
}

bool TaskCollection::parked_wait(TcStats& st) {
  // Parked (NotJoined) ranks sit out the phase: no tree seat, never a
  // steal victim, never adopted. They spin here publishing heartbeats,
  // waiting for either their join rule to fire (publish the request, then
  // wait for the admitter's epoch bump) or the phase to end without them.
  const Rank me = rt_.me();
  ElasticCtl* my = ectl(rt_, eseg_, me);
  const TimeNs t0 = rt_.now();
  bool requested = false;
  int polls = 0;
  bool admitted = false;
  for (;;) {
    if (metrics::active()) {
      metrics::monitor_poll(me, rt_.now());
    }
    if (hb_) {
      hb_->poll();
    }
    ++polls;
    bool knock = false;
    if (!requested &&
        elastic::join_due(me, sim::current_virtual_time(), polls)) {
      aref(my->join_req).store(1, std::memory_order_release);
      requested = true;
      knock = true;
      obs::emit(me, trace::Ev::JoinRequest, me);
    }
    if (requested && (knock || (polls & 7) == 0)) {
      // Ring the admitter's doorbell: OR our rank bit into its knock word
      // (and keep ringing -- the admitter can change across deaths, and a
      // bit ORed after the admitter's exchange lands in its next scan).
      // Pushing the signal keeps the admitter's scan one local exchange;
      // the remote RMWs charge only this parked rank, whose virtual time
      // is worthless anyway. The cadence is tight because parked polls
      // can be very slow under thread starvation -- a rare ring risks
      // outliving a short phase.
      std::vector<Rank> alive = detect::alive_ranks();
      if (!alive.empty()) {
        const Rank adm = alive.front();
        const std::uint64_t bit = knock_bit(me);
        for (int tries = 0; tries < 4; ++tries) {
          std::uint64_t w = 0;
          if (rt_.get_u64_with_retry(eseg_, adm,
                                     offsetof(ElasticCtl, join_knock),
                                     &w) == pgas::OpStatus::Dropped) {
            break;  // next ring retries
          }
          if ((w & bit) != 0 ||
              rt_.compare_swap(eseg_, adm, offsetof(ElasticCtl, join_knock),
                               static_cast<std::int64_t>(w),
                               static_cast<std::int64_t>(w | bit)) ==
                  static_cast<std::int64_t>(w)) {
            break;
          }
        }
      }
    }
    if (detect::joined(me)) {
      admitted = true;
      break;
    }
    if ((polls & 7) == 0) {
      // The phase can end while we are parked: adopt the termination
      // decision from the current tree root, or observe the phase-over
      // sentinel in its elastic word (which also covers halt_after_ckpt,
      // where no termination is ever decided).
      if (td_->poll_term_remote()) {
        break;
      }
      std::vector<Rank> alive = detect::alive_ranks();
      if (!alive.empty()) {
        std::uint64_t w = 0;
        if (rt_.get_u64_with_retry(eseg_, alive.front(),
                                   offsetof(ElasticCtl, quiesce_gen),
                                   &w) != pgas::OpStatus::Dropped &&
            w == kPhaseOver) {
          break;
        }
      }
    }
    rt_.charge(rt_.machine().poll);
    rt_.relax();
  }
  st.time_searching += rt_.now() - t0;
  return admitted;
}

void TaskCollection::elastic_admit_scan() {
  const Rank me = rt_.me();
  const int n = rt_.nprocs();
  bool any_parked = false;
  for (Rank r = 0; r < n; ++r) {
    if (!detect::joined(r)) {
      any_parked = true;
      break;
    }
  }
  if (!any_parked) {
    return;
  }
  // Joiners ring the doorbell of the rank they currently believe is the
  // admitter (the lowest joined-alive rank -- the same deterministic
  // choice detect::successor rests on), pushing their rank bit into its
  // knock word: they are parked, so the remote RMWs charge time nobody is
  // using. Any joined rank that finds its own word rung handles the
  // admission -- join_ranks is atomic, so this stays correct even when a
  // wall-clock view briefly disagrees about who the admitter is (a false
  // suspicion on the threads backend): wherever the knock landed, it is
  // honored. The steady-state cost for workers is one local load; the
  // knock itself names the batch, so there is nothing to sweep remotely
  // and nothing to race -- a bit ORed after the exchange below is simply
  // picked up by the next scan.
  ElasticCtl* my = ectl(rt_, eseg_, me);
  if (aref(my->join_knock).load(std::memory_order_acquire) == 0) {
    return;
  }
  const std::uint64_t mask =
      aref(my->join_knock).exchange(0, std::memory_order_acq_rel);
  std::vector<Rank> batch;
  for (Rank r = 0; r < n && r < 63; ++r) {
    if ((mask & knock_bit(r)) != 0 && !detect::joined(r)) {
      batch.push_back(r);
    }
  }
  if ((mask & (std::uint64_t{1} << 63)) != 0) {
    // Overflow bit: some rank past the word's reach knocked; find it the
    // slow way (remote sweep of the high parked tail).
    for (Rank r = 63; r < n; ++r) {
      if (detect::joined(r)) {
        continue;
      }
      std::uint64_t req = 0;
      if (rt_.get_u64_with_retry(eseg_, r, offsetof(ElasticCtl, join_req),
                                 &req) != pgas::OpStatus::Dropped &&
          req != 0) {
        batch.push_back(r);
      }
    }
  }
  if (batch.empty()) {
    return;
  }
  // One epoch bump admits the whole batch; every rank (joiners included)
  // resplices its termination tree and ward table on its next TD step,
  // and the joiners leave parked_wait the moment joined() flips.
  std::uint64_t e = detect::join_ranks(batch);
  for (Rank r : batch) {
    obs::emit(me, trace::Ev::JoinAdmit, r, me, static_cast<std::int64_t>(e));
  }
}

bool TaskCollection::quiesce_and_checkpoint(std::uint64_t gen, TcStats& st) {
  const Rank me = rt_.me();
  const int n = rt_.nprocs();
  const TimeNs t0 = rt_.now();
  // 1. Drain the recovery paths so everything this rank is responsible
  // for sits in its own queue before serialization: replayed steal
  // transactions, adopted dead queues, overflow-stashed tasks.
  if (fault::active()) {
    refresh_membership();
    std::uint64_t rec = queue_->recover_open_txns();
    for (Rank d : wards_) {
      rec += queue_->drain_dead(d);
    }
    rec += queue_->flush_overflow();
    if (rec > 0) {
      td_->mark_self_black();
    }
  }
  ElasticCtl* my = ectl(rt_, eseg_, me);
  // 2. Publish arrival. In-flight steals need no explicit draining: a
  // steal's copy -> requeue -> commit runs inside one work-loop iteration
  // with no interior safepoint or pump, so a rank standing at this
  // rendezvous has no open thief-side transaction -- and by the time ALL
  // participants stand here, every stolen chunk is committed exactly once
  // (the TSan leg of test_elastic exercises this argument).
  aref(my->quiesce_gen).store(gen, std::memory_order_release);
  // 3. Wait for every joined-alive rank to arrive. The participant set is
  // recomputed each spin: a death mid-quiesce drops that rank from the
  // set (its stranded queue is adopted on the next idle pass, so a
  // snapshot racing a death may omit that work -- restore from the next
  // generation). A phase-over sentinel or a termination decision in our
  // own mailbox aborts the snapshot: an all-white wave certifies there is
  // globally no work left to save.
  bool aborted = false;
  int participants = 1;
  for (;;) {
    participants = 1;
    bool all_in = true;
    for (Rank r = 0; r < n; ++r) {
      if (r == me || !detect::joined(r) || !detect::alive(r)) {
        continue;
      }
      std::uint64_t w = 0;
      if (rt_.get_u64_with_retry(eseg_, r, offsetof(ElasticCtl, quiesce_gen),
                                 &w) == pgas::OpStatus::Dropped) {
        all_in = false;
        continue;
      }
      if (w == kPhaseOver) {
        aborted = true;
        break;
      }
      if (w < gen) {
        all_in = false;
      } else {
        ++participants;
      }
    }
    if (aborted || all_in) {
      break;
    }
    if (td_->term_seen_local()) {
      aborted = true;
      break;
    }
    if (hb_) {
      hb_->poll();  // deaths keep being confirmed; the wait cannot hang
    }
    rt_.charge(rt_.machine().poll);
    rt_.relax();
  }
  ckpt_gen_done_ = gen;
  if (aborted) {
    st.time_searching += rt_.now() - t0;
    return false;
  }
  obs::emit(me, trace::Ev::Quiesce, static_cast<std::int64_t>(gen),
            participants, rt_.now() - t0);
  // 4. Serialize: the queue's descriptor span plus the application blob,
  // SHA1-framed so restore rejects torn or truncated part files.
  const std::string base = elastic::ckpt_path();
  SCIOTO_REQUIRE(!base.empty(),
                 "elastic: checkpoint due but no ckpt_path configured");
  std::vector<std::byte> descs;
  std::uint64_t ndesc = queue_->snapshot_local(descs);
  std::vector<std::byte> blob;
  if (ckpt_writer_) {
    blob = ckpt_writer_();
  }
  const std::string pp = ckpt_part_path(base, me);
  {
    std::ofstream f(pp, std::ios::binary | std::ios::trunc);
    SCIOTO_REQUIRE(f.good(), "elastic: cannot write part file " << pp);
    Sha1 sha;
    auto put = [&](const void* p, std::size_t nb) {
      f.write(reinterpret_cast<const char*>(p),
              static_cast<std::streamsize>(nb));
      sha.update(p, nb);
    };
    put(kCkptMagic, sizeof(kCkptMagic));
    const std::uint64_t hdr[6] = {static_cast<std::uint64_t>(me),
                                  static_cast<std::uint64_t>(n),
                                  gen,
                                  ndesc,
                                  static_cast<std::uint64_t>(slot_bytes()),
                                  static_cast<std::uint64_t>(blob.size())};
    put(hdr, sizeof(hdr));
    if (!descs.empty()) {
      put(descs.data(), descs.size());
    }
    if (!blob.empty()) {
      put(blob.data(), blob.size());
    }
    Sha1::Digest d = sha.finish();
    f.write(reinterpret_cast<const char*>(d.data()),
            static_cast<std::streamsize>(d.size()));
    f.close();
    SCIOTO_REQUIRE(f.good(), "elastic: short write on part file " << pp);
  }
  aref(my->ckpt_ndesc).store(ndesc, std::memory_order_release);
  // 5. The leader (lowest joined-alive rank) writes the manifest once
  // every part is durable, and publishes its own done word only after --
  // everyone else resumes on the leader's word, so generation g+1 can
  // never overlap generation g's files.
  std::vector<Rank> alive = detect::alive_ranks();
  const Rank leader = alive.empty() ? me : alive.front();
  if (leader != me) {
    aref(my->ckpt_done).store(gen, std::memory_order_release);
    for (;;) {
      if (!detect::alive(leader)) {
        break;  // leader died mid-manifest: this generation stays
                // incomplete on disk; the next one retries cleanly
      }
      std::uint64_t w = 0;
      if (rt_.get_u64_with_retry(eseg_, leader,
                                 offsetof(ElasticCtl, ckpt_done),
                                 &w) != pgas::OpStatus::Dropped &&
          w >= gen) {
        break;
      }
      if (hb_) {
        hb_->poll();
      }
      rt_.charge(rt_.machine().poll);
      rt_.relax();
    }
  } else {
    std::vector<std::pair<Rank, std::uint64_t>> parts;
    for (;;) {
      bool all_done = true;
      parts.clear();
      parts.emplace_back(me, ndesc);
      for (Rank r = 0; r < n; ++r) {
        if (r == me || !detect::joined(r) || !detect::alive(r)) {
          continue;
        }
        std::uint64_t w = 0;
        if (rt_.get_u64_with_retry(eseg_, r, offsetof(ElasticCtl, ckpt_done),
                                   &w) == pgas::OpStatus::Dropped ||
            w < gen) {
          all_done = false;
          break;
        }
        std::uint64_t nd = 0;
        rt_.get_u64_with_retry(eseg_, r, offsetof(ElasticCtl, ckpt_ndesc),
                               &nd);
        parts.emplace_back(r, nd);
      }
      if (all_done) {
        break;
      }
      if (hb_) {
        hb_->poll();
      }
      rt_.charge(rt_.machine().poll);
      rt_.relax();
    }
    std::sort(parts.begin(), parts.end());
    std::ofstream mf(base, std::ios::trunc);
    SCIOTO_REQUIRE(mf.good(), "elastic: cannot write manifest " << base);
    mf << "scioto-ckpt v1\n";
    mf << "gen " << gen << "\n";
    mf << "nranks " << n << "\n";
    mf << "slot_bytes " << slot_bytes() << "\n";
    for (const auto& pr : parts) {
      mf << "part " << pr.first << " " << pr.second << "\n";
    }
    mf.close();
    SCIOTO_REQUIRE(mf.good(), "elastic: short write on manifest " << base);
    aref(my->ckpt_done).store(gen, std::memory_order_release);
    elastic::note_checkpoint();
  }
  obs::emit(me, trace::Ev::Checkpoint, static_cast<std::int64_t>(gen),
            static_cast<std::int64_t>(ndesc),
            static_cast<std::int64_t>(descs.size() + blob.size()));
  st.time_searching += rt_.now() - t0;
  return true;
}

void TaskCollection::restore_from(const std::string& path) {
  const Rank me = rt_.me();
  const int n = rt_.nprocs();
  std::ifstream mf(path);
  SCIOTO_REQUIRE(mf.good(), "elastic: cannot open ckpt manifest " << path);
  std::string word;
  std::string version;
  mf >> word >> version;
  SCIOTO_REQUIRE(word == "scioto-ckpt" && version == "v1",
                 "elastic: bad manifest header in " << path);
  std::uint64_t gen = 0;
  std::uint64_t src_n = 0;
  std::uint64_t src_slot = 0;
  std::vector<std::pair<Rank, std::uint64_t>> parts;
  while (mf >> word) {
    if (word == "gen") {
      mf >> gen;
    } else if (word == "nranks") {
      mf >> src_n;
    } else if (word == "slot_bytes") {
      mf >> src_slot;
    } else if (word == "part") {
      std::int64_t r = 0;
      std::uint64_t nd = 0;
      mf >> r >> nd;
      parts.emplace_back(static_cast<Rank>(r), nd);
    } else {
      SCIOTO_REQUIRE(false,
                     "elastic: unknown manifest key '" << word << "' in "
                                                       << path);
    }
  }
  SCIOTO_REQUIRE(src_slot == slot_bytes(),
                 "elastic: ckpt slot_bytes "
                     << src_slot << " does not match this collection's "
                     << slot_bytes()
                     << " (task_sz must agree across save/restore)");
  // Deal descriptors round-robin over the *joined* ranks of this fleet:
  // a snapshot taken on one fleet size restores onto another, and parked
  // ranks receive nothing.
  std::vector<Rank> targets;
  for (Rank r = 0; r < n; ++r) {
    if (detect::joined(r)) {
      targets.push_back(r);
    }
  }
  SCIOTO_REQUIRE(!targets.empty(), "elastic: no joined ranks to restore onto");
  std::uint64_t g = 0;  // global descriptor index across parts
  std::uint64_t restored = 0;
  std::uint64_t bytes = 0;
  std::vector<char> buf;
  for (std::size_t pi = 0; pi < parts.size(); ++pi) {
    const Rank src = parts[pi].first;
    const std::uint64_t nd = parts[pi].second;
    const std::string pp = ckpt_part_path(path, src);
    std::ifstream pf(pp, std::ios::binary);
    SCIOTO_REQUIRE(pf.good(), "elastic: cannot open part file " << pp);
    pf.seekg(0, std::ios::end);
    const std::streamoff sz = pf.tellg();
    pf.seekg(0);
    SCIOTO_REQUIRE(
        sz >= static_cast<std::streamoff>(sizeof(kCkptMagic) +
                                          6 * sizeof(std::uint64_t) +
                                          Sha1::kDigestBytes),
        "elastic: truncated part file " << pp);
    buf.resize(static_cast<std::size_t>(sz));
    pf.read(buf.data(), sz);
    SCIOTO_REQUIRE(pf.good(), "elastic: short read on part file " << pp);
    const std::size_t body = buf.size() - Sha1::kDigestBytes;
    Sha1::Digest d = Sha1::hash(buf.data(), body);
    SCIOTO_REQUIRE(
        std::memcmp(d.data(), buf.data() + body, Sha1::kDigestBytes) == 0,
        "elastic: SHA1 mismatch on part file " << pp);
    SCIOTO_REQUIRE(
        std::memcmp(buf.data(), kCkptMagic, sizeof(kCkptMagic)) == 0,
        "elastic: bad magic in part file " << pp);
    std::uint64_t hdr[6];
    std::memcpy(hdr, buf.data() + sizeof(kCkptMagic), sizeof(hdr));
    SCIOTO_REQUIRE(hdr[0] == static_cast<std::uint64_t>(src) &&
                       hdr[2] == gen && hdr[3] == nd && hdr[4] == src_slot,
                   "elastic: part file " << pp
                                         << " does not match the manifest");
    const std::size_t desc_off = sizeof(kCkptMagic) + sizeof(hdr);
    const std::uint64_t blob_bytes = hdr[5];
    SCIOTO_REQUIRE(desc_off + nd * src_slot + blob_bytes +
                           Sha1::kDigestBytes ==
                       buf.size(),
                   "elastic: part file " << pp << " has inconsistent sizes");
    for (std::uint64_t j = 0; j < nd; ++j, ++g) {
      if (targets[g % targets.size()] != me) {
        continue;
      }
      const std::byte* desc = reinterpret_cast<const std::byte*>(
          buf.data() + desc_off + j * src_slot);
      if (lineage_off_ != 0 && src != me) {
        // The redeal moved this descriptor off the rank that saved it: a
        // migration like any steal, stamped the same way so the analyzer
        // can follow the chain across the checkpoint boundary. (The
        // manifest's slot_bytes check above already rejects mixing
        // lineage-on and lineage-off fleets across a save/restore.)
        std::vector<std::byte>& scratch = scratch_;
        std::memcpy(scratch.data(), desc, slot_bytes());
        trace::lineage::LineageRec rec;
        std::memcpy(&rec, scratch.data() + lineage_off_, sizeof(rec));
        rec.hops += 1;
        std::memcpy(scratch.data() + lineage_off_, &rec, sizeof(rec));
        obs::emit(me, trace::Ev::MigrateEdge, src, rec.hops,
                  static_cast<std::int64_t>(rec.id));
        desc = scratch.data();
      }
      bool ok = queue_->push_local(desc, kAffinityHigh);
      SCIOTO_REQUIRE(ok, "elastic: local queue overflow during restore");
      ++restored;
      bytes += src_slot;
    }
    if (blob_bytes > 0 &&
        targets[static_cast<std::uint64_t>(pi) % targets.size()] == me &&
        ckpt_reader_) {
      const auto* bp = reinterpret_cast<const std::byte*>(
          buf.data() + desc_off + nd * src_slot);
      ckpt_reader_(src, std::vector<std::byte>(bp, bp + blob_bytes));
      bytes += blob_bytes;
    }
  }
  if (restored > 0) {
    // Restored work re-materialized without a steal: the first vote must
    // be black, or a wave could conclude all-white over it.
    td_->mark_self_black();
    queue_->release_maybe();
  }
  obs::emit(me, trace::Ev::Restore, static_cast<std::int64_t>(parts.size()),
            static_cast<std::int64_t>(restored),
            static_cast<std::int64_t>(bytes));
  if (me == 0) {
    elastic::note_restore();
  }
}

TcStats TaskCollection::stats_global() {
  // Element-wise allreduce of the counter block, one 8-byte word per field
  // (a TimeNs sums the same as its two's-complement word).
  static_assert(std::has_unique_object_representations_v<TcStats>);
  static_assert(sizeof(TcStats) == kTcStatsWords * 8);
  using Words = std::array<std::uint64_t, kTcStatsWords>;
  const Words local = std::bit_cast<Words>(stats_local());
  rt_.barrier();
  const Words sum = rt_.allreduce(local, [](Words a, const Words& b) {
    for (std::size_t i = 0; i < kTcStatsWords; ++i) a[i] += b[i];
    return a;
  });
  return std::bit_cast<TcStats>(sum);
}

}  // namespace scioto
