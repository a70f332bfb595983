#include "elastic/elastic.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <vector>

#include "base/error.hpp"
#include "detect/membership.hpp"
#include "fault/fault.hpp"

namespace scioto::elastic {

namespace {

struct JoinRule {
  Rank rank = kNoRank;
  TimeNs at = 0;   // sim trigger
  int after = 0;   // threads trigger (parked polls)
};

struct CkptRule {
  TimeNs at = 0;
  int after = 0;
};

struct Session {
  int nranks = 0;
  bool own_view = false;  // we armed the detect view; stop() disarms it
  std::vector<JoinRule> joins;
  std::vector<CkptRule> ckpts;
  std::atomic<std::uint64_t> requests{0};  // C-API checkpoint requests
  std::chrono::steady_clock::time_point t0;  // threads-backend period base
  Stats stats;
  std::mutex mu;  // guards stats
};

using detail::g_active;
Session g_session;

Config g_config;  // staged knob; read/written outside any armed session

}  // namespace

Config config() { return g_config; }

void set_config(const Config& c) {
  SCIOTO_REQUIRE(c.ckpt_period >= 0, "elastic: ckpt_period must be >= 0");
  SCIOTO_REQUIRE(c.ckpt_period == 0 || !c.ckpt_path.empty(),
                 "elastic: ckpt_period needs ckpt_path");
  g_config = c;
}

bool enabled() { return g_config.enabled; }

void start(int nranks) {
  SCIOTO_REQUIRE(!active(), "elastic: session already armed");
  SCIOTO_REQUIRE(nranks > 0, "elastic: nranks must be positive");
  g_session.nranks = nranks;
  g_session.joins.clear();
  g_session.ckpts.clear();
  g_session.requests.store(0, std::memory_order_relaxed);
  g_session.t0 = std::chrono::steady_clock::now();
  g_session.stats = Stats{};

  for (const fault::FaultEvent& ev :
       fault::events_of(fault::FaultType::Join)) {
    g_session.joins.push_back(JoinRule{ev.rank, ev.at, ev.after});
  }
  for (const fault::FaultEvent& ev :
       fault::events_of(fault::FaultType::Ckpt)) {
    g_session.ckpts.push_back(CkptRule{ev.at, ev.after});
  }

  // Joiners must be a contiguous tail: membership parks by count, and the
  // tail shape keeps rank 0 -- the usual root-task owner and collective
  // leader -- always joined.
  int initial_joined = nranks;
  if (!g_session.joins.empty()) {
    std::vector<bool> has(static_cast<std::size_t>(nranks), false);
    Rank lo = nranks;
    for (const JoinRule& j : g_session.joins) {
      SCIOTO_REQUIRE(j.rank >= 0 && j.rank < nranks,
                     "elastic: join rank " << j.rank << " out of range");
      SCIOTO_REQUIRE(!has[static_cast<std::size_t>(j.rank)],
                     "elastic: duplicate join rule for rank " << j.rank);
      has[static_cast<std::size_t>(j.rank)] = true;
      lo = std::min(lo, j.rank);
    }
    for (Rank r = lo; r < nranks; ++r) {
      SCIOTO_REQUIRE(has[static_cast<std::size_t>(r)],
                     "elastic: join ranks must form a contiguous tail "
                     "[j, nranks); rank "
                         << r << " has no join rule but " << lo << " does");
    }
    SCIOTO_REQUIRE(lo >= 1,
                   "elastic: rank 0 cannot be a joiner (it must anchor "
                   "the initial fleet)");
    initial_joined = lo;
  }

  // The membership view carries the joined/parked distinction, so it must
  // be armed for any elastic run -- even one without the heartbeat
  // detector enabled (probing is harmless for parked ranks: they are not
  // alive, so nobody probes them). If the caller armed the view already we
  // cannot retrofit parked ranks into it; require arming elastic first.
  if (initial_joined < nranks) {
    SCIOTO_REQUIRE(!detect::active(),
                   "elastic: arm elastic before the detector view (the "
                   "parked tail is set at detect::start)");
  }
  g_session.own_view = !detect::active();
  if (g_session.own_view) {
    detect::start(nranks, initial_joined);
  }

  g_active.store(true, std::memory_order_release);
}

void stop() {
  g_active.store(false, std::memory_order_release);
  if (g_session.own_view) {
    detect::stop();
    g_session.own_view = false;
  }
  g_session.joins.clear();
  g_session.ckpts.clear();
  g_session.nranks = 0;
}

int session_nranks() { return active() ? g_session.nranks : 0; }

bool join_scheduled(Rank r) {
  if (!active()) return false;
  for (const JoinRule& j : g_session.joins) {
    if (j.rank == r) return true;
  }
  return false;
}

bool join_due(Rank r, TimeNs now, int polls) {
  if (!active()) return false;
  for (const JoinRule& j : g_session.joins) {
    if (j.rank != r) continue;
    return now >= 0 ? now >= j.at : polls > j.after;
  }
  return false;
}

std::uint64_t ckpt_target_gen(TimeNs now, int polls) {
  if (!active()) return 0;
  std::uint64_t target = g_session.requests.load(std::memory_order_acquire);
  for (const CkptRule& c : g_session.ckpts) {
    if (now >= 0 ? now >= c.at : polls > c.after) ++target;
  }
  TimeNs period = g_config.ckpt_period;
  if (period > 0) {
    if (now > 0) {
      target += static_cast<std::uint64_t>(now / period);
    } else if (now < 0) {
      // Threads backend: no virtual clock, so the cadence runs on wall
      // time since the session was armed. Each rank evaluates its own
      // clock; the predicate stays monotone, so the fleet converges on
      // the same generation even if ranks see the boundary moments
      // apart.
      TimeNs elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - g_session.t0)
                           .count();
      target += static_cast<std::uint64_t>(elapsed / period);
    }
  }
  return target;
}

void request_ckpt() {
  g_session.requests.fetch_add(1, std::memory_order_acq_rel);
}

std::string ckpt_path() { return g_config.ckpt_path; }

bool halt_after_ckpt() { return g_config.halt_after_ckpt; }

std::string restore_path() { return g_config.restore_path; }

void note_checkpoint() {
  if (!active()) return;
  std::lock_guard<std::mutex> g(g_session.mu);
  ++g_session.stats.checkpoints;
}

void note_restore() {
  if (!active()) return;
  std::lock_guard<std::mutex> g(g_session.mu);
  ++g_session.stats.restores;
}

Stats stats() {
  std::lock_guard<std::mutex> g(g_session.mu);
  return g_session.stats;
}

}  // namespace scioto::elastic
