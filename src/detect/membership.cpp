#include "detect/membership.hpp"

#include <memory>
#include <mutex>

#include "base/error.hpp"
#include "fault/fault.hpp"

namespace scioto::detect {

namespace {

// One state word per rank. Suspicion is a per-prober judgement (kept in
// each rank's HeartbeatProbe), but death and rejoin are global facts every
// rank must agree on, so only those live here.
enum class Liveness : std::uint8_t { Alive = 0, Dead = 1, NotJoined = 2 };

struct View {
  int nranks = 0;
  std::vector<std::unique_ptr<std::atomic<std::uint8_t>>> state;
  std::vector<std::unique_ptr<std::atomic<int>>> suspect_count;
  std::atomic<std::uint64_t> epoch{0};
  Stats stats;
  std::mutex mu;  // guards stats and rejoin/confirm transitions
};

View g_view;
using detail::g_active;

Config g_config;  // staged knob; read/written outside any armed session

}  // namespace

Config config() { return g_config; }

void set_config(const Config& c) {
  SCIOTO_REQUIRE(c.hb_period > 0, "detect: hb_period must be positive");
  SCIOTO_REQUIRE(c.probe_period > 0, "detect: probe_period must be positive");
  SCIOTO_REQUIRE(c.suspect_after > c.hb_period,
                 "detect: suspect_after must exceed hb_period");
  SCIOTO_REQUIRE(c.confirm_after > c.suspect_after,
                 "detect: confirm_after must exceed suspect_after");
  SCIOTO_REQUIRE(c.fanout >= 1, "detect: fanout must be >= 1");
  g_config = c;
}

bool enabled() { return g_config.enabled; }

void start(int nranks, int initial_joined) {
  SCIOTO_REQUIRE(!active(), "detect: session already armed");
  SCIOTO_REQUIRE(nranks > 0, "detect: nranks must be positive");
  if (initial_joined < 0) initial_joined = nranks;
  SCIOTO_REQUIRE(initial_joined >= 1 && initial_joined <= nranks,
                 "detect: initial_joined " << initial_joined
                                           << " out of [1, " << nranks << "]");
  g_view.nranks = nranks;
  g_view.state.clear();
  g_view.suspect_count.clear();
  for (int r = 0; r < nranks; ++r) {
    g_view.state.push_back(std::make_unique<std::atomic<std::uint8_t>>(
        static_cast<std::uint8_t>(r < initial_joined ? Liveness::Alive
                                                     : Liveness::NotJoined)));
    g_view.suspect_count.push_back(std::make_unique<std::atomic<int>>(0));
  }
  // Seed from the fault epoch so a mixed run (oracle kills + detector
  // confirms) still presents one monotone counter to resplice logic. An
  // elastic start (parked ranks present) bumps once past the seed so the
  // joined subset resplices away from the full static tree immediately.
  std::uint64_t seed = fault::active() ? fault::epoch() : 0;
  if (initial_joined < nranks) seed += 1;
  g_view.epoch.store(seed, std::memory_order_relaxed);
  g_view.stats = Stats{};
  g_active.store(true, std::memory_order_release);
}

void stop() {
  g_active.store(false, std::memory_order_release);
  g_view.state.clear();
  g_view.suspect_count.clear();
  g_view.nranks = 0;
}

std::uint64_t epoch() {
  if (!active()) return fault::epoch();
  return g_view.epoch.load(std::memory_order_acquire);
}

bool alive(Rank r) {
  if (!active()) return fault::alive(r);
  if (r < 0 || r >= g_view.nranks) return false;
  return g_view.state[static_cast<std::size_t>(r)]->load(
             std::memory_order_acquire) ==
         static_cast<std::uint8_t>(Liveness::Alive);
}

int alive_count() {
  if (!active()) return fault::alive_count();
  int n = 0;
  for (Rank r = 0; r < g_view.nranks; ++r) n += alive(r) ? 1 : 0;
  return n;
}

std::vector<Rank> alive_ranks() {
  if (!active()) return fault::alive_ranks();
  std::vector<Rank> out;
  out.reserve(static_cast<std::size_t>(g_view.nranks));
  for (Rank r = 0; r < g_view.nranks; ++r) {
    if (alive(r)) out.push_back(r);
  }
  return out;
}

Rank successor(Rank r) {
  if (!active()) return fault::successor(r);
  if (g_view.nranks == 0) return kNoRank;
  for (int i = 1; i <= g_view.nranks; ++i) {
    Rank c = static_cast<Rank>((r + i) % g_view.nranks);
    if (alive(c)) return c;
  }
  return kNoRank;
}

bool confirm_dead(Rank r, Rank by) {
  (void)by;
  if (!active() || r < 0 || r >= g_view.nranks) return false;
  std::uint8_t prev = g_view.state[static_cast<std::size_t>(r)]->exchange(
      static_cast<std::uint8_t>(Liveness::Dead), std::memory_order_acq_rel);
  if (prev != static_cast<std::uint8_t>(Liveness::Alive)) return false;
  std::lock_guard<std::mutex> g(g_view.mu);
  ++g_view.stats.confirms;
  g_view.epoch.fetch_add(1, std::memory_order_acq_rel);
  return true;
}

std::uint64_t rejoin(Rank r) {
  SCIOTO_REQUIRE(active(), "detect: rejoin outside an armed session");
  SCIOTO_REQUIRE(r >= 0 && r < g_view.nranks,
                 "detect: rejoin rank " << r << " out of range");
  g_view.state[static_cast<std::size_t>(r)]->store(
      static_cast<std::uint8_t>(Liveness::Alive), std::memory_order_release);
  std::lock_guard<std::mutex> g(g_view.mu);
  ++g_view.stats.rejoins;
  return g_view.epoch.fetch_add(1, std::memory_order_acq_rel) + 1;
}

bool joined(Rank r) {
  if (!active() || r < 0 || r >= g_view.nranks) return true;
  return g_view.state[static_cast<std::size_t>(r)]->load(
             std::memory_order_acquire) !=
         static_cast<std::uint8_t>(Liveness::NotJoined);
}

std::uint64_t join_ranks(const std::vector<Rank>& rs) {
  SCIOTO_REQUIRE(active(), "detect: join_ranks outside an armed session");
  std::lock_guard<std::mutex> g(g_view.mu);
  std::uint64_t admitted = 0;
  for (Rank r : rs) {
    if (r < 0 || r >= g_view.nranks) continue;
    std::uint8_t expect = static_cast<std::uint8_t>(Liveness::NotJoined);
    if (g_view.state[static_cast<std::size_t>(r)]->compare_exchange_strong(
            expect, static_cast<std::uint8_t>(Liveness::Alive),
            std::memory_order_acq_rel)) {
      ++admitted;
    }
  }
  if (admitted == 0) {
    return g_view.epoch.load(std::memory_order_acquire);
  }
  g_view.stats.joins += admitted;
  g_view.stats.grows += 1;
  // One bump per batch: every rank observes the new epoch and resplices
  // its termination tree / ward table over the grown membership exactly
  // once, however many ranks the batch admitted.
  return g_view.epoch.fetch_add(1, std::memory_order_acq_rel) + 1;
}

void note_detect_latency(TimeNs latency) {
  if (!active() || latency < 0) return;
  std::lock_guard<std::mutex> g(g_view.mu);
  std::uint64_t l = static_cast<std::uint64_t>(latency);
  if (l > g_view.stats.max_detect_latency) g_view.stats.max_detect_latency = l;
}

void note_fence_abort() {
  if (!active()) return;
  std::lock_guard<std::mutex> g(g_view.mu);
  ++g_view.stats.fence_aborts;
}

void note_suspect(Rank r, bool suspected) {
  if (!active() || r < 0 || r >= g_view.nranks) return;
  std::atomic<int>& n = *g_view.suspect_count[static_cast<std::size_t>(r)];
  if (suspected) {
    n.fetch_add(1, std::memory_order_acq_rel);
  } else {
    // A refute can race a concurrent confirm clearing the same suspicion;
    // clamp at zero rather than going negative.
    int cur = n.load(std::memory_order_acquire);
    while (cur > 0 &&
           !n.compare_exchange_weak(cur, cur - 1,
                                    std::memory_order_acq_rel)) {
    }
  }
}

bool suspected(Rank r) {
  if (!active() || r < 0 || r >= g_view.nranks) return false;
  return g_view.suspect_count[static_cast<std::size_t>(r)]->load(
             std::memory_order_acquire) > 0;
}

Stats stats() {
  std::lock_guard<std::mutex> g(g_view.mu);
  return g_view.stats;
}

void add_heartbeats(std::uint64_t n) {
  if (!active()) return;
  std::lock_guard<std::mutex> g(g_view.mu);
  g_view.stats.heartbeats += n;
}

void add_probes(std::uint64_t n) {
  if (!active()) return;
  std::lock_guard<std::mutex> g(g_view.mu);
  g_view.stats.probes += n;
}

void add_suspects(std::uint64_t n) {
  if (!active()) return;
  std::lock_guard<std::mutex> g(g_view.mu);
  g_view.stats.suspects += n;
}

void add_refutes(std::uint64_t n) {
  if (!active()) return;
  std::lock_guard<std::mutex> g(g_view.mu);
  g_view.stats.refutes += n;
}

}  // namespace scioto::detect
