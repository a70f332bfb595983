// Event tracing: per-rank, fixed-capacity, allocation-free-in-steady-state
// ring buffers recording typed runtime events in virtual (sim backend) or
// real (threads backend) time.
//
// The aggregate counters in TcStats say *how many* steals, releases, and
// votes a run performed; this subsystem records *when* each one happened,
// which is the instrument behind every timing-shape claim the reproduction
// makes (split-queue steal throughput, termination-wave cost, load balance
// of irregular tasks). On top of the raw stream sit a Chrome trace-event
// JSON exporter (trace/export.hpp) and post-run analytics
// (trace/analysis.hpp): who-stole-from-whom, queue occupancy, and a
// per-rank working/searching/idle breakdown that reconciles with TcStats.
//
// Usage: nothing is recorded until trace::start(nranks, cap) is called.
// Benches expose this as --trace=FILE; pgas::run_spmd also honours the
// SCIOTO_TRACE_OUT environment variable so any binary can be traced
// without code changes (capacity via SCIOTO_TRACE_CAP, events per rank).
// The session flag is the only off-switch: active() is an inline relaxed
// load, so a disarmed probe costs one predicted-false branch and no call.
//
// Recording an event is one branch, one clock read, and one 32-byte store
// into the recording rank's own ring -- no locks, no allocation. When a
// ring wraps, the oldest events are overwritten and counted as dropped
// (the exporter reports the drop count rather than silently truncating).
//
// Determinism: under the sim backend, events are stamped with the fiber's
// virtual clock, so two runs with the same seed produce byte-identical
// exported traces (locked in by tests/test_trace.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "base/types.hpp"

namespace scioto::trace {

namespace detail {
// The session flag behind active(), inline so every probe site reads it
// without a call. Only start()/stop() store it (release order).
inline std::atomic<bool> g_active{false};
}  // namespace detail

/// Typed event kinds. The payload fields a/b/c are per-kind (documented
/// inline); `dur`-style payloads are durations in nanoseconds carried in c.
enum class Ev : std::uint8_t {
  TaskBegin,     // a=callback handle, b=affinity
  TaskEnd,       // a=callback handle, c=execution duration (ns)
  Push,          // a=affinity, c=local queue size after the push
  Pop,           // c=local queue size after the pop
  Release,       // a=tasks released to the shared portion, c=queue size
  Reacquire,     // a=tasks reacquired from the shared portion, c=queue size
  StealAttempt,  // a=victim rank
  StealOk,       // a=victim rank, b=tasks stolen
  StealFail,     // a=victim rank (empty-handed attempt)
  RemoteAdd,     // a=target rank (one task pushed into target's patch)
  TokenSend,     // a=target rank, b=field (0=down,1=up,2=term,3=dirty)
  Vote,          // a=wave number, b=1 if the token passed up was black
  WaveStart,     // a=wave number (root only)
  Terminate,     // a=deciding wave number
  PgasPut,       // a=target rank, c=bytes
  PgasGet,       // a=target rank, c=bytes
  PgasAcc,       // a=target rank, c=bytes
  PgasRmw,       // a=target rank (fetch-add / swap)
  Barrier,       // (entry into a barrier)
  Search,        // c=accumulated idle/steal/TD-poll time just ended (ns)
  PhaseBegin,    // (tc_process entry)
  PhaseEnd,      // c=phase duration on this rank (ns)
  FaultInjected,  // a=fault type (fault::FaultType), b=target rank, c=param
  StealAborted,   // a=victim rank, b=reason (0=truncated-to-zero)
  TaskRecovered,  // a=source (dead) rank, b=tasks recovered, c=duration (ns)
  TreeRespliced,  // a=epoch, b=alive rank count after the resplice
  StealBusy,      // a=victim rank (aborting steal: lock held, no transfer)
  StealRetarget,  // a=busy victim, b=new victim, c=backoff charged (ns)
  ReacquireFast,  // a=tasks reacquired via LockFree's validated split publish
  Suspect,        // a=suspected rank, c=silence observed so far (ns)
  Refute,         // a=formerly-suspected rank (its heartbeat advanced)
  ConfirmDead,    // a=confirmed-dead rank, c=silence at confirmation (ns)
  FenceAbort,     // a=fence adopter rank, b=fence epoch (owner woke up,
                  //   observed an adoption fence, aborted its work loop)
  // DAG scheduler events (src/dag). Appended so DAG-off traces stay
  // byte-identical to pre-dag baselines.
  NodeReady,      // a=node id (low 32 bits), b=home rank, c=depth (-1 if
                  //   unknown, e.g. dynamic nodes fired by a non-creator)
  NodeRun,        // a=node id (low 32 bits), b=conflict group, c=depth
  ConflictRetry,  // a=node id (low 32 bits), b=reason (0=group lock busy,
                  //   1=version wait), c=conflict group (-1 for version)
  // Adaptive control plane (src/control). Appended so controller-off
  // traces stay byte-identical to pre-control baselines.
  KnobChange,     // a=knob (control::Knob), b=applied value,
                  //   c=reason (control::Reason)
  // Elastic membership (src/elastic). Appended so elastic-off traces stay
  // byte-identical to pre-elastic baselines.
  JoinRequest,    // a=requesting (parked) rank
  JoinAdmit,      // a=admitted rank, b=admitting rank, c=new epoch
  Quiesce,        // a=checkpoint generation, b=joined-alive participant
                  //   count, c=wait duration (ns)
  Checkpoint,     // a=checkpoint generation, b=descriptors snapshotted on
                  //   this rank, c=snapshot bytes (part payload)
  Restore,        // a=source (saved) rank count, b=descriptors restored on
                  //   this rank, c=restored bytes
  // Causal task lineage (trace/lineage.hpp). Appended so lineage-off
  // traces stay byte-identical to pre-lineage baselines. Task ids ride in
  // c (they fit int64: 23 origin bits + 40 sequence bits).
  SpawnEdge,      // a=parent id high 32 bits, b=parent id low 32 bits,
                  //   c=spawned task id (recorded by the spawning rank)
  MigrateEdge,    // a=victim (the rank the task sat on), b=hop count
                  //   after this migration, c=task id (recorded by the
                  //   thief / redeal target)
  ExecSpan,       // a=hop count at execution, b=callback handle,
                  //   c=task id (recorded by the executing rank; the
                  //   span's duration is the paired TaskEnd's)
};

/// Human-readable kind name (used by the exporter and analyses).
const char* ev_name(Ev kind);

/// One recorded event: 32 bytes, trivially copyable.
struct Event {
  TimeNs t = 0;         // virtual (sim) or wall (threads) nanoseconds
  std::int64_t c = 0;   // kind-specific payload (bytes, duration, size)
  std::int32_t a = 0;   // kind-specific payload (rank, handle, count)
  std::int32_t b = 0;   // kind-specific payload
  std::int32_t rank = kNoRank;  // recording rank
  Ev kind = Ev::TaskBegin;
  /// Explicit zeroed tail (the struct would otherwise end in 3 padding
  /// bytes), so field-equal events are byte-equal wherever they land.
  std::uint8_t pad[3] = {};
};
static_assert(sizeof(Event) == 32);

/// Fixed-capacity event ring owned by one rank. Steady-state recording is
/// allocation-free: the buffer is sized once at construction and wraps,
/// overwriting (and counting) the oldest events.
class Sink {
 public:
  explicit Sink(std::size_t capacity);

  void record(const Event& e) {
    buf_[static_cast<std::size_t>(count_ % capacity_)] = e;
    ++count_;
  }

  std::size_t capacity() const { return static_cast<std::size_t>(capacity_); }
  /// Events currently held (<= capacity).
  std::size_t size() const;
  /// Events overwritten because the ring wrapped.
  std::uint64_t dropped() const;
  /// Copies the held events out in recording order (oldest first).
  std::vector<Event> snapshot() const;
  void clear();

 private:
  std::uint64_t capacity_;
  std::uint64_t count_ = 0;
  std::vector<Event> buf_;
};

// ---- Process-global trace session ----
//
// One session serves one SPMD run: start() before the ranks begin, stop()
// after they finish. Each rank records into its own Sink, so concurrent
// recording under the threads backend is contention-free.

/// True between start() and stop(). One relaxed atomic load; the
/// SCIOTO_TRACE_EVENT macro checks this before paying for a clock read.
inline bool active() {
  return detail::g_active.load(std::memory_order_relaxed);
}

/// Allocates per-rank rings and begins recording. `capacity_per_rank` of 0
/// selects the default (SCIOTO_TRACE_CAP env var, else 1<<15 events).
void start(int nranks, std::size_t capacity_per_rank = 0);

/// Ends the session and releases the rings.
void stop();

/// Records one event stamped with the current rank-local TraceClock time.
/// Ignored when no session is active or `rank` is kNoRank.
void record(Rank rank, Ev kind, std::int32_t a = 0, std::int32_t b = 0,
            std::int64_t c = 0);

/// The TraceClock: the executing fiber's virtual clock under the sim
/// backend, a steady wall clock (ns since session start) otherwise.
TimeNs clock_now();

/// Number of ranks in the active session (0 when inactive).
int session_nranks();

/// Snapshot of one rank's events, oldest first (empty when inactive).
std::vector<Event> events(Rank rank);

/// All ranks' events merged into one stream ordered by (time, rank,
/// per-rank sequence).
std::vector<Event> all_events();

/// Total events overwritten across all rings in this session.
std::uint64_t total_dropped();

/// Events overwritten in one rank's ring (0 when inactive or out of
/// range). The fleet monitor scrapes this into its rollup so a live run
/// surfaces event loss instead of only the exporter noticing post-run.
std::uint64_t dropped(Rank rank);

/// Default per-rank ring capacity: SCIOTO_TRACE_CAP env var, else 1<<15.
std::size_t default_capacity();

}  // namespace scioto::trace

// Instrumentation macro: one predicted-false branch when no session is
// active; the payload arguments are evaluated only inside an armed session.
#define SCIOTO_TRACE_EVENT(rank, kind, a, b, c)                            \
  do {                                                                     \
    if (::scioto::trace::active()) {                                       \
      ::scioto::trace::record((rank), (kind),                              \
                              static_cast<std::int32_t>(a),                \
                              static_cast<std::int32_t>(b),                \
                              static_cast<std::int64_t>(c));               \
    }                                                                      \
  } while (0)
