// Global-view telemetry plane: per-rank live metrics scrapeable with
// one-sided reads.
//
// The paper's architecture (§5) keeps every process's queue state in
// one-sided-accessible shared memory; this subsystem extends that idea to
// observability. Each rank owns a fixed-schema patch of a metrics segment
// holding monotonic counters, gauges, and log2-bucketed latency histograms.
// The owner updates its patch with plain relaxed stores -- no locks, no
// CAS, no cooperation with readers -- and any rank (or the out-of-band
// monitor in metrics/monitor.hpp) can scrape a consistent snapshot of any
// patch with the same one-sided gets thieves already use:
//
//   owner (writer)                       scraper (reader)
//   seq <- seq+1   (odd: in flux)        s1 <- seq; retry while odd
//   ...relaxed stores into the patch     copy the whole patch (relaxed)
//   seq <- seq+1   (even: settled)       s2 <- seq; retry unless s1 == s2
//
// The per-rank seqlock word makes snapshots tear-free without ever making
// the owner wait: a reader that loses the race simply retries. Every slot
// is a 64-bit word accessed through std::atomic_ref, so the protocol is
// data-race-free under TSan on the threads backend; under the sim backend
// ranks are cooperatively scheduled fibers and the seqlock is trivially
// quiescent at every scrape.
//
// Gating: nothing is recorded until metrics::start(nranks); armed by the
// SCIOTO_METRICS env var / C-API knob in pgas::run_spmd, or directly by
// benches. The session flag is the kMetrics bit of the one armed word
// (obs/armed.hpp). Runtime code does not call the recording functions
// below itself: each occurrence goes through one obs:: probe (obs/obs.hpp)
// whose event->metric table turns the recorded event into counter and
// histogram updates, and metric-only occurrences (gauges, retries,
// heartbeats) use obs::count/gauge/sample under the same word. A disarmed
// probe is one relaxed load and one predicted-false branch, and
// metrics-off runs stay byte-identical to baseline (locked in by
// tests/test_metrics.cpp).
//
// Determinism: recording never reads a clock by itself -- durations are
// handed in by obs::Span, which takes timestamps only when armed, and the
// monitor samples in virtual time under sim -- so metrics-on sim runs are
// bit-deterministic.
#pragma once

#include <cstdint>
#include <string>

#include "base/stats.hpp"
#include "base/types.hpp"
#include "obs/armed.hpp"

namespace scioto::metrics {

// ---- Fixed metric schema ----
//
// The schema is compile-time fixed so every rank's patch has the same
// layout and a scraper needs no coordination to interpret remote bytes.
// Extend by appending (the names table and kCount asserts keep the
// exposition and the C API in sync).

enum class Ctr : int {
  TasksExecuted,    // tasks run to completion by this rank
  TasksSpawned,     // tasks this rank added (local + remote targets)
  RemoteSpawns,     // subset of TasksSpawned landing in another rank's queue
  QPushes,          // local queue pushes
  QPops,            // local queue pops
  QReleases,        // release operations (private -> shared)
  QReleasedTasks,   // tasks moved private -> shared
  QReacquires,      // reacquire operations (shared -> private)
  QReacquiredTasks, // tasks moved shared -> private
  StealAttempts,    // steal_from calls on a victim
  Steals,           // attempts that transferred >= 1 task
  StealFails,       // empty-handed / aborted attempts
  TasksStolen,      // tasks received by stealing
  TdVotes,          // termination-detector votes passed up
  TdBlackVotes,     // votes carrying a black token
  TdWaves,          // waves started (root only)
  Probes,           // detector probes issued
  Heartbeats,       // heartbeat publishes
  Suspects,         // alive -> suspect transitions observed
  Refutes,          // suspect -> alive refutations observed
  Confirms,         // suspect -> confirmed-dead transitions observed
  OpRetries,        // one-sided op retries after an injected drop
  TasksRecovered,   // tasks adopted from a dead rank's queue
  PgasGets,         // one-sided get operations (remote targets)
  PgasPuts,         // one-sided put operations (remote targets)
  PgasAccs,         // one-sided accumulate operations (remote targets)
  PgasRmws,         // one-sided fetch-add/swap operations (remote targets)
  PgasGetBytes,     // bytes moved by gets
  PgasPutBytes,     // bytes moved by puts
  // DAG scheduler (src/dag); all zero when no DagScheduler runs.
  DagNodesRun,      // dag nodes executed to completion by this rank
  DagNodesFired,    // nodes this rank made ready (fleet fired - fleet run
                    // = globally ready/running dag nodes)
  DagConflictRetries, // dispatches bounced off a held conflict-group lock
  DagVersionWaits,  // dispatches deferred on an unbumped data version
  DagRemoteFires,   // subset of DagNodesFired homed on another rank
  // Steal-path contention + the adaptive control plane (src/control).
  StealLockBusy,    // aborting-steal attempts bounced off a held lock
  CtlEpochs,        // controller epochs this rank evaluated
  CtlDecisions,     // knob changes this rank applied
  CtlInherits,      // knob rows inherited from dead ranks at adoption
  kCount
};

enum class Gauge : int {
  QueueDepth,    // private + shared tasks currently queued
  QueueShared,   // tasks in the shared (stealable) portion
  QueueSplit,    // split position: tasks ever moved past the split point
  AliveView,     // ranks this rank's membership view believes alive
  SuspectsView,  // peers this rank currently suspects
  DagParked,     // dag nodes parked on this rank awaiting a gate (conflict
                 // lock or data version) -- the deferred ready-set
  DagDepthMax,   // deepest dag node this rank has executed so far
  // Live knob values (src/control); mirror the owning rank's KnobSet.
  CtlChunk,      // live steal-chunk knob
  CtlStealHalf,  // live steal-half on/off knob
  CtlRelease,    // live release-threshold knob
  CtlRetarget,   // live retarget-budget knob
  CtlVictimSet,  // live restricted-victim-set knob (0 = unrestricted)
  kCount
};

enum class Hist : int {
  TaskExecNs,   // task execution time
  SearchNs,     // idle/steal-search spell length
  PushNs,       // local push latency
  PopNs,        // local pop latency
  StealNs,      // successful steal latency (attempt -> tasks landed)
  WaveNs,       // termination wave latency (root only)
  ProbeRttNs,   // detector probe round-trip time
  DagNodeDepth, // critical-path depth of each executed dag node
  kCount
};

inline constexpr int kNumCtrs = static_cast<int>(Ctr::kCount);
inline constexpr int kNumGauges = static_cast<int>(Gauge::kCount);
inline constexpr int kNumHists = static_cast<int>(Hist::kCount);
inline constexpr int kHistBuckets = stats::kLog2Buckets;

/// Snake-case metric names used by the Prometheus exposition, the JSONL
/// monitor stream, and scioto_metrics_read().
const char* ctr_name(Ctr c);
const char* gauge_name(Gauge g);
const char* hist_name(Hist h);

// ---- Patch layout (in 64-bit words) ----
//
//   [0]                seqlock word
//   [1 .. 1+NC)        counters
//   [.. +NG)           gauges
//   per histogram:     count, sum, max, buckets[kHistBuckets]

inline constexpr int kHistWords = 3 + kHistBuckets;
inline constexpr int kPatchWords =
    1 + kNumCtrs + kNumGauges + kNumHists * kHistWords;

// ---- Session ----

/// True between start() and stop(): the kMetrics bit of the armed word.
inline bool active() { return (obs::armed() & obs::kMetrics) != 0; }

/// Allocates the per-rank metric patches (zeroed) and begins recording.
void start(int nranks);

/// Ends the session and releases the patches.
void stop();

/// Ranks in the active session (0 when inactive).
int session_nranks();

// ---- Owner-side recording (call only for your own rank; obs:: probes
// call these) ----

void counter_add(Rank r, Ctr c, std::uint64_t delta = 1);
void gauge_set(Rank r, Gauge g, std::uint64_t v);
void hist_record(Rank r, Hist h, std::uint64_t v);

// ---- Owner fast path (the per-rank controller's poll) ----
//
// A rank reading its *own* patch cannot race itself (it is the patch's
// sole writer), so it may skip the seqlock protocol entirely: one
// relaxed load per word, no retry loop, no whole-patch copy. This is
// what makes a per-rank controller poll cost nanoseconds where a
// one-sided scrape costs a full-patch validated copy.

/// Direct relaxed load of one of rank r's own counters. Call only from
/// rank r's execution context. Returns 0 when no session is active.
std::uint64_t own_ctr(Rank r, Ctr c);

/// Same fast path for gauges.
std::uint64_t own_gauge(Rank r, Gauge g);

// ---- Snapshots ----

struct HistSnap {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::uint64_t buckets[kHistBuckets] = {};

  double mean() const { return count ? double(sum) / double(count) : 0.0; }
  /// Nearest-rank percentile (bucket ceiling); see base/stats.hpp.
  std::uint64_t percentile(double p) const {
    return stats::hist_percentile(buckets, kHistBuckets, p);
  }
};

struct Snapshot {
  std::uint64_t seq = 0;  // seqlock value the copy validated against
  std::uint64_t counters[kNumCtrs] = {};
  std::uint64_t gauges[kNumGauges] = {};
  HistSnap hists[kNumHists];

  std::uint64_t ctr(Ctr c) const {
    return counters[static_cast<int>(c)];
  }
  std::uint64_t gauge(Gauge g) const {
    return gauges[static_cast<int>(g)];
  }
  const HistSnap& hist(Hist h) const {
    return hists[static_cast<int>(h)];
  }
};

/// Seqlock-validated copy of rank r's patch. Retries while the owner is
/// mid-update; returns false only if `max_retries` consecutive attempts
/// raced (out) or no session is active.
bool scrape(Rank r, Snapshot* out, int max_retries = 1 << 20);

/// Reads one metric out of a snapshot by name: any counter or gauge name,
/// or a histogram name suffixed with _count, _sum, _max, _mean, _p50,
/// _p95, or _p99 (e.g. "steal_ns_p99"). Returns false for unknown names.
bool read_metric(const Snapshot& snap, const std::string& name,
                 std::uint64_t* out);

/// Prometheus-style text exposition of every rank's current metrics
/// (scrapes each patch; empty string when no session is active).
std::string prometheus_text();

// ---- Staged configuration (C API knob; env vars override in run_spmd) ----

struct Config {
  bool enabled = false;          // arm a session inside pgas::run_spmd
  TimeNs period = 100'000;       // monitor sampling period (ns)
  std::string out_path;          // JSONL time-series (empty: keep in memory)
  std::string prom_path;         // Prometheus dump at finalize (empty: none)
};

Config config();
void set_config(const Config& cfg);

}  // namespace scioto::metrics
