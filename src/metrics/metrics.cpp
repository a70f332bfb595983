#include "metrics/metrics.hpp"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <vector>

#include "base/error.hpp"

namespace scioto::metrics {

const char* ctr_name(Ctr c) {
  switch (c) {
    case Ctr::TasksExecuted:    return "tasks_executed";
    case Ctr::TasksSpawned:     return "tasks_spawned";
    case Ctr::RemoteSpawns:     return "remote_spawns";
    case Ctr::QPushes:          return "q_pushes";
    case Ctr::QPops:            return "q_pops";
    case Ctr::QReleases:        return "q_releases";
    case Ctr::QReleasedTasks:   return "q_released_tasks";
    case Ctr::QReacquires:      return "q_reacquires";
    case Ctr::QReacquiredTasks: return "q_reacquired_tasks";
    case Ctr::StealAttempts:    return "steal_attempts";
    case Ctr::Steals:           return "steals";
    case Ctr::StealFails:       return "steal_fails";
    case Ctr::TasksStolen:      return "tasks_stolen";
    case Ctr::TdVotes:          return "td_votes";
    case Ctr::TdBlackVotes:     return "td_black_votes";
    case Ctr::TdWaves:          return "td_waves";
    case Ctr::Probes:           return "probes";
    case Ctr::Heartbeats:       return "heartbeats";
    case Ctr::Suspects:         return "suspects";
    case Ctr::Refutes:          return "refutes";
    case Ctr::Confirms:         return "confirms";
    case Ctr::OpRetries:        return "op_retries";
    case Ctr::TasksRecovered:   return "tasks_recovered";
    case Ctr::PgasGets:         return "pgas_gets";
    case Ctr::PgasPuts:         return "pgas_puts";
    case Ctr::PgasAccs:         return "pgas_accs";
    case Ctr::PgasRmws:         return "pgas_rmws";
    case Ctr::PgasGetBytes:     return "pgas_get_bytes";
    case Ctr::PgasPutBytes:     return "pgas_put_bytes";
    case Ctr::DagNodesRun:      return "dag_nodes_run";
    case Ctr::DagNodesFired:    return "dag_nodes_fired";
    case Ctr::DagConflictRetries: return "dag_conflict_retries";
    case Ctr::DagVersionWaits:  return "dag_version_waits";
    case Ctr::DagRemoteFires:   return "dag_remote_fires";
    case Ctr::StealLockBusy:    return "steal_lock_busy";
    case Ctr::CtlEpochs:        return "ctl_epochs";
    case Ctr::CtlDecisions:     return "ctl_decisions";
    case Ctr::CtlInherits:      return "ctl_inherits";
    case Ctr::kCount:           break;
  }
  return "?";
}

const char* gauge_name(Gauge g) {
  switch (g) {
    case Gauge::QueueDepth:   return "queue_depth";
    case Gauge::QueueShared:  return "queue_shared";
    case Gauge::QueueSplit:   return "queue_split";
    case Gauge::AliveView:    return "alive_view";
    case Gauge::SuspectsView: return "suspects_view";
    case Gauge::DagParked:    return "dag_parked";
    case Gauge::DagDepthMax:  return "dag_depth_max";
    case Gauge::CtlChunk:     return "ctl_chunk";
    case Gauge::CtlStealHalf: return "ctl_steal_half";
    case Gauge::CtlRelease:   return "ctl_release";
    case Gauge::CtlRetarget:  return "ctl_retarget";
    case Gauge::CtlVictimSet: return "ctl_victim_set";
    case Gauge::kCount:       break;
  }
  return "?";
}

const char* hist_name(Hist h) {
  switch (h) {
    case Hist::TaskExecNs:  return "task_exec_ns";
    case Hist::SearchNs:    return "search_ns";
    case Hist::PushNs:      return "push_ns";
    case Hist::PopNs:       return "pop_ns";
    case Hist::StealNs:     return "steal_ns";
    case Hist::WaveNs:      return "wave_ns";
    case Hist::ProbeRttNs:  return "probe_rtt_ns";
    case Hist::DagNodeDepth: return "dag_node_depth";
    case Hist::kCount:      break;
  }
  return "?";
}

namespace {

// Patches are padded to a cache-line multiple so ranks never false-share.
constexpr std::size_t kPatchStride =
    (static_cast<std::size_t>(kPatchWords) * 8 + 63) / 64 * 64 / 8;

struct Session {
  std::vector<std::uint64_t> words;  // nranks * kPatchStride, zeroed
  int nranks = 0;
};

Session g_session;

std::mutex g_cfg_mu;
Config g_cfg;

inline std::uint64_t* patch(Rank r) {
  return g_session.words.data() + static_cast<std::size_t>(r) * kPatchStride;
}

inline bool in_session(Rank r) {
  return active() && r >= 0 && r < g_session.nranks;
}

// Seqlock write side. Each rank is the sole writer of its own patch, so
// the sequence word needs no RMW: load, bump to odd, store the payload
// with relaxed atomics, bump back to even with release ordering.
inline void wr_begin(std::uint64_t* p) {
  std::atomic_ref<std::uint64_t> seq(p[0]);
  seq.store(seq.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
}

inline void wr_end(std::uint64_t* p) {
  std::atomic_ref<std::uint64_t> seq(p[0]);
  seq.store(seq.load(std::memory_order_relaxed) + 1,
            std::memory_order_release);
}

inline void slot_store(std::uint64_t* p, std::size_t i, std::uint64_t v) {
  std::atomic_ref<std::uint64_t>(p[i]).store(v, std::memory_order_relaxed);
}

inline std::uint64_t slot_load(const std::uint64_t* p, std::size_t i) {
  return std::atomic_ref<const std::uint64_t>(p[i]).load(
      std::memory_order_relaxed);
}

constexpr std::size_t kCtrBase = 1;
constexpr std::size_t kGaugeBase = kCtrBase + kNumCtrs;
constexpr std::size_t kHistBase = kGaugeBase + kNumGauges;

inline std::size_t hist_word(Hist h, int field) {
  return kHistBase +
         static_cast<std::size_t>(static_cast<int>(h)) * kHistWords +
         static_cast<std::size_t>(field);
}

}  // namespace

void start(int nranks) {
  SCIOTO_REQUIRE(!active(), "metrics session already active");
  SCIOTO_REQUIRE(nranks >= 1, "metrics session needs >= 1 rank");
  g_session.words.assign(static_cast<std::size_t>(nranks) * kPatchStride, 0);
  g_session.nranks = nranks;
  obs::arm(obs::kMetrics);
}

void stop() {
  obs::disarm(obs::kMetrics);
  g_session.words.clear();
  g_session.words.shrink_to_fit();
  g_session.nranks = 0;
}

int session_nranks() { return active() ? g_session.nranks : 0; }

void counter_add(Rank r, Ctr c, std::uint64_t delta) {
  if (!in_session(r)) return;
  std::uint64_t* p = patch(r);
  std::size_t i = kCtrBase + static_cast<std::size_t>(static_cast<int>(c));
  wr_begin(p);
  slot_store(p, i, slot_load(p, i) + delta);
  wr_end(p);
}

void gauge_set(Rank r, Gauge g, std::uint64_t v) {
  if (!in_session(r)) return;
  std::uint64_t* p = patch(r);
  wr_begin(p);
  slot_store(p, kGaugeBase + static_cast<std::size_t>(static_cast<int>(g)),
             v);
  wr_end(p);
}

void hist_record(Rank r, Hist h, std::uint64_t v) {
  if (!in_session(r)) return;
  std::uint64_t* p = patch(r);
  int b = stats::log2_bucket(v, kHistBuckets);
  std::size_t cnt = hist_word(h, 0);
  std::size_t sum = hist_word(h, 1);
  std::size_t mx = hist_word(h, 2);
  std::size_t bkt = hist_word(h, 3 + b);
  wr_begin(p);
  slot_store(p, cnt, slot_load(p, cnt) + 1);
  slot_store(p, sum, slot_load(p, sum) + v);
  if (v > slot_load(p, mx)) slot_store(p, mx, v);
  slot_store(p, bkt, slot_load(p, bkt) + 1);
  wr_end(p);
}

std::uint64_t own_ctr(Rank r, Ctr c) {
  if (!in_session(r)) return 0;
  return slot_load(patch(r),
                   kCtrBase + static_cast<std::size_t>(static_cast<int>(c)));
}

std::uint64_t own_gauge(Rank r, Gauge g) {
  if (!in_session(r)) return 0;
  return slot_load(patch(r),
                   kGaugeBase + static_cast<std::size_t>(static_cast<int>(g)));
}

bool scrape(Rank r, Snapshot* out, int max_retries) {
  if (!in_session(r)) return false;
  const std::uint64_t* p = patch(r);
  std::atomic_ref<const std::uint64_t> seq(p[0]);
  std::uint64_t copy[kPatchWords];
  for (int attempt = 0; attempt < max_retries; ++attempt) {
    std::uint64_t s1 = seq.load(std::memory_order_acquire);
    if (s1 & 1) continue;  // owner mid-update
    for (std::size_t i = 1; i < kPatchWords; ++i) {
      copy[i] = slot_load(p, i);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    std::uint64_t s2 = seq.load(std::memory_order_relaxed);
    if (s1 != s2) continue;  // torn: the owner wrote underneath us
    out->seq = s1;
    std::memcpy(out->counters, &copy[kCtrBase], sizeof(out->counters));
    std::memcpy(out->gauges, &copy[kGaugeBase], sizeof(out->gauges));
    for (int h = 0; h < kNumHists; ++h) {
      HistSnap& hs = out->hists[h];
      const std::uint64_t* w = &copy[hist_word(static_cast<Hist>(h), 0)];
      hs.count = w[0];
      hs.sum = w[1];
      hs.max = w[2];
      std::memcpy(hs.buckets, &w[3], sizeof(hs.buckets));
    }
    return true;
  }
  return false;
}

bool read_metric(const Snapshot& snap, const std::string& name,
                 std::uint64_t* out) {
  for (int c = 0; c < kNumCtrs; ++c) {
    if (name == ctr_name(static_cast<Ctr>(c))) {
      *out = snap.counters[c];
      return true;
    }
  }
  for (int g = 0; g < kNumGauges; ++g) {
    if (name == gauge_name(static_cast<Gauge>(g))) {
      *out = snap.gauges[g];
      return true;
    }
  }
  for (int h = 0; h < kNumHists; ++h) {
    std::string base = hist_name(static_cast<Hist>(h));
    if (name.rfind(base, 0) != 0 || name.size() <= base.size()) continue;
    const HistSnap& hs = snap.hists[h];
    std::string suffix = name.substr(base.size());
    if (suffix == "_count") { *out = hs.count; return true; }
    if (suffix == "_sum")   { *out = hs.sum; return true; }
    if (suffix == "_max")   { *out = hs.max; return true; }
    if (suffix == "_mean")  { *out = static_cast<std::uint64_t>(hs.mean());
                              return true; }
    if (suffix == "_p50")   { *out = hs.percentile(50); return true; }
    if (suffix == "_p95")   { *out = hs.percentile(95); return true; }
    if (suffix == "_p99")   { *out = hs.percentile(99); return true; }
  }
  return false;
}

std::string prometheus_text() {
  if (!active()) return {};
  int n = session_nranks();
  std::vector<Snapshot> snaps(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    scrape(r, &snaps[static_cast<std::size_t>(r)]);
  }
  std::string out;
  out.reserve(1 << 16);
  char line[256];
  auto emit = [&](const char* fmt, auto... args) {
    std::snprintf(line, sizeof(line), fmt, args...);
    out += line;
  };
  for (int c = 0; c < kNumCtrs; ++c) {
    const char* nm = ctr_name(static_cast<Ctr>(c));
    emit("# TYPE scioto_%s counter\n", nm);
    for (int r = 0; r < n; ++r) {
      emit("scioto_%s{rank=\"%d\"} %" PRIu64 "\n", nm, r,
           snaps[static_cast<std::size_t>(r)].counters[c]);
    }
  }
  for (int g = 0; g < kNumGauges; ++g) {
    const char* nm = gauge_name(static_cast<Gauge>(g));
    emit("# TYPE scioto_%s gauge\n", nm);
    for (int r = 0; r < n; ++r) {
      emit("scioto_%s{rank=\"%d\"} %" PRIu64 "\n", nm, r,
           snaps[static_cast<std::size_t>(r)].gauges[g]);
    }
  }
  for (int h = 0; h < kNumHists; ++h) {
    const char* nm = hist_name(static_cast<Hist>(h));
    emit("# TYPE scioto_%s summary\n", nm);
    for (int r = 0; r < n; ++r) {
      const HistSnap& hs = snaps[static_cast<std::size_t>(r)].hists[h];
      emit("scioto_%s{rank=\"%d\",quantile=\"0.5\"} %" PRIu64 "\n", nm, r,
           hs.percentile(50));
      emit("scioto_%s{rank=\"%d\",quantile=\"0.95\"} %" PRIu64 "\n", nm, r,
           hs.percentile(95));
      emit("scioto_%s{rank=\"%d\",quantile=\"0.99\"} %" PRIu64 "\n", nm, r,
           hs.percentile(99));
      emit("scioto_%s_count{rank=\"%d\"} %" PRIu64 "\n", nm, r, hs.count);
      emit("scioto_%s_sum{rank=\"%d\"} %" PRIu64 "\n", nm, r, hs.sum);
      emit("scioto_%s_max{rank=\"%d\"} %" PRIu64 "\n", nm, r, hs.max);
    }
  }
  return out;
}

Config config() {
  std::lock_guard<std::mutex> lk(g_cfg_mu);
  return g_cfg;
}

void set_config(const Config& cfg) {
  std::lock_guard<std::mutex> lk(g_cfg_mu);
  g_cfg = cfg;
}

}  // namespace scioto::metrics
