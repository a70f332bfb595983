#include "trace/lineage.hpp"

#include <vector>

#include "base/error.hpp"

namespace scioto::trace::lineage {

namespace {

// Per-rank mutable state, cacheline-padded: under the threads backend
// every rank is a thread and touches only its own slot (next_id from its
// spawn path, current from its execute path), so plain loads/stores are
// race-free -- the same ownership discipline as the metrics patches.
struct alignas(64) PerRank {
  std::uint64_t next_seq = 0;
  std::uint64_t current = 0;
};

struct Session {
  std::vector<PerRank> ranks;
};

Session g_session;
Config g_staged;

}  // namespace

Config config() { return g_staged; }

void set_config(const Config& cfg) { g_staged = cfg; }

void start(int nranks) {
  SCIOTO_REQUIRE(!active(), "lineage session already active");
  SCIOTO_REQUIRE(nranks >= 1, "lineage session needs >= 1 rank");
  g_session.ranks.assign(static_cast<std::size_t>(nranks), PerRank{});
  obs::arm(obs::kLineage);
}

void stop() {
  obs::disarm(obs::kLineage);
  g_session.ranks.clear();
}

int session_nranks() {
  return active() ? static_cast<int>(g_session.ranks.size()) : 0;
}

std::uint64_t next_id(Rank r) {
  SCIOTO_CHECK_MSG(r >= 0 && r < static_cast<Rank>(g_session.ranks.size()),
                   "lineage next_id from rank outside the session");
  return make_id(r, g_session.ranks[static_cast<std::size_t>(r)].next_seq++);
}

std::uint64_t current(Rank r) {
  if (!active() || r < 0 || r >= static_cast<Rank>(g_session.ranks.size())) {
    return 0;
  }
  return g_session.ranks[static_cast<std::size_t>(r)].current;
}

void set_current(Rank r, std::uint64_t id) {
  if (!active() || r < 0 || r >= static_cast<Rank>(g_session.ranks.size())) {
    return;
  }
  g_session.ranks[static_cast<std::size_t>(r)].current = id;
}

std::size_t rec_bytes() { return active() ? sizeof(LineageRec) : 0; }

}  // namespace scioto::trace::lineage
