#include "control/control.hpp"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>

#include "base/error.hpp"
#include "detect/membership.hpp"
#include "metrics/metrics.hpp"
#include "metrics/monitor.hpp"
#include "trace/trace.hpp"

namespace scioto::control {

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::Off: return "off";
    case Mode::Local: return "local";
  }
  return "?";
}

bool mode_from_name(const std::string& s, Mode* out) {
  if (s == "off" || s.empty()) { *out = Mode::Off; return true; }
  if (s == "local") { *out = Mode::Local; return true; }
  return false;
}

const char* reason_name(int r) {
  switch (r) {
    case kReasonStealFail: return "steal_fail";
    case kReasonHighCov: return "high_cov";
    case kReasonCalm: return "calm";
    case kReasonBusy: return "busy";
    case kReasonInherit: return "inherit";
  }
  return "?";
}

// ---- Rules ----

bool Rules::parse(const std::string& spec, Rules* out, std::string* err) {
  Rules r = *out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    std::string kv = spec.substr(pos, end - pos);
    pos = end + 1;
    if (kv.empty()) continue;
    std::size_t eq = kv.find('=');
    if (eq == std::string::npos) {
      if (err) *err = "expected key=value, got '" + kv + "'";
      return false;
    }
    std::string key = kv.substr(0, eq);
    std::string val = kv.substr(eq + 1);
    char* rest = nullptr;
    double d = std::strtod(val.c_str(), &rest);
    if (rest == val.c_str() || *rest != '\0') {
      if (err) *err = "bad numeric value '" + val + "' for key '" + key + "'";
      return false;
    }
    if (key == "succ_lo") r.succ_lo = d;
    else if (key == "succ_hi") r.succ_hi = d;
    else if (key == "cov_hi") r.cov_hi = d;
    else if (key == "cov_lo") r.cov_lo = d;
    else if (key == "dwell") r.dwell = static_cast<int>(d);
    else if (key == "chunk_step") r.chunk_step = static_cast<int>(d);
    else if (key == "min_attempts")
      r.min_attempts = static_cast<std::uint64_t>(d);
    else if (key == "chunk_burst")
      r.chunk_burst = static_cast<std::int64_t>(d);
    else if (key == "release_min")
      r.release_min = static_cast<std::int64_t>(d);
    else if (key == "hot_set") r.hot_set = static_cast<int>(d);
    else {
      if (err) *err = "unknown rule key '" + key + "'";
      return false;
    }
  }
  if (r.dwell < 1) {
    if (err) *err = "dwell must be >= 1";
    return false;
  }
  if (r.chunk_step < 1) {
    if (err) *err = "chunk_step must be >= 1";
    return false;
  }
  *out = r;
  return true;
}

std::string Rules::to_string() const {
  std::ostringstream os;
  os << "succ_lo=" << succ_lo << ";succ_hi=" << succ_hi
     << ";cov_hi=" << cov_hi << ";cov_lo=" << cov_lo << ";dwell=" << dwell
     << ";chunk_step=" << chunk_step << ";min_attempts=" << min_attempts
     << ";release_min=" << release_min << ";chunk_burst=" << chunk_burst
     << ";hot_set=" << hot_set;
  return os.str();
}

// ---- Rule engine ----

RuleEngine::RuleEngine(const Rules& rules,
                       const std::int64_t baseline[kNumKnobs], int nprocs)
    : rules_(rules), nprocs_(nprocs) {
  std::memcpy(base_, baseline, sizeof(base_));
}

void RuleEngine::propose(Knob k, std::int64_t v, int reason,
                         const std::int64_t cur[kNumKnobs],
                         std::vector<Decision>* out) {
  int i = static_cast<int>(k);
  if (dwell_left_[i] > 0) return;  // frozen by a recent change
  if (cur[i] == v) return;         // already there
  out->push_back(Decision{k, v, reason});
  dwell_left_[i] = rules_.dwell;
}

void RuleEngine::step(const Signals& s, const std::int64_t cur[kNumKnobs],
                      std::vector<Decision>* out) {
  for (int k = 0; k < kNumKnobs; ++k) {
    if (dwell_left_[k] > 0) --dwell_left_[k];
  }
  bool sig_ok = s.attempts >= rules_.min_attempts;
  double succ = sig_ok ? double(s.steals) / double(s.attempts) : 0.0;
  lo_succ_streak_ =
      (sig_ok && succ < rules_.succ_lo) ? lo_succ_streak_ + 1 : 0;
  hi_cov_streak_ =
      (s.have_cov && s.cov >= rules_.cov_hi) ? hi_cov_streak_ + 1 : 0;
  bool calm = s.have_cov && s.cov <= rules_.cov_lo &&
              (!sig_ok || succ >= rules_.succ_hi);
  calm_streak_ = calm ? calm_streak_ + 1 : 0;
  busy_streak_ =
      (sig_ok && s.busy * 4 >= s.attempts) ? busy_streak_ + 1 : 0;

  const int d = rules_.dwell;
  const std::int64_t chunk = cur[static_cast<int>(Knob::StealChunk)];
  const std::int64_t rel = cur[static_cast<int>(Knob::ReleaseThreshold)];
  const std::int64_t ret = cur[static_cast<int>(Knob::RetargetBudget)];
  const std::int64_t chunk0 = base_[static_cast<int>(Knob::StealChunk)];
  const std::int64_t rel0 = base_[static_cast<int>(Knob::ReleaseThreshold)];
  const std::int64_t ret0 = base_[static_cast<int>(Knob::RetargetBudget)];

  if (hi_cov_streak_ >= d) {
    // Fleet imbalanced: spill work to thieves as fast as possible.
    // Steal-half drains the hot rank geometrically, and with steal-half
    // governing the width the chunk is only a *cap* on
    // min(ceil(depth/2), cap): opening it wide cannot overshoot a shallow
    // victim, while each steal from the deep one moves as much work as
    // one fixed one-sided latency can amortize. The owner's KnobSet
    // clamps the proposal at chunk_max.
    propose(Knob::StealHalf, 1, kReasonHighCov, cur, out);
    if (rules_.chunk_burst > chunk) {
      propose(Knob::StealChunk, rules_.chunk_burst, kReasonHighCov, cur,
              out);
    }
    if (s.shared_depth >= 8 * static_cast<std::uint64_t>(rel)) {
      // Only the rank that IS the imbalance (its own shared queue dwarfs
      // its release threshold) spills private work sooner; cutting the
      // threshold fleet-wide makes shallow ranks churn publish/reacquire.
      propose(Knob::ReleaseThreshold, std::max(rules_.release_min, rel / 2),
              kReasonHighCov, cur, out);
    }
    if (rules_.hot_set > 0) {
      // Blind victim choice finds one deep rank among n with probability
      // 1/(n-1), and every miss doubles the thief's steal backoff -- so
      // steer everyone at the digest's deepest queues while the imbalance
      // lasts.
      propose(Knob::VictimSetSize, rules_.hot_set, kReasonHighCov, cur,
              out);
    }
  } else if (lo_succ_streak_ >= d) {
    // Probes mostly come back empty-handed: amortize each successful
    // steal harder (additive chunk increase) and take half when a deep
    // victim does turn up.
    propose(Knob::StealChunk, chunk + rules_.chunk_step, kReasonStealFail,
            cur, out);
    propose(Knob::StealHalf, 1, kReasonStealFail, cur, out);
  }
  if (busy_streak_ >= d) {
    // Aborting steals keep bouncing off held locks: spend one more
    // retarget hop before backing off.
    propose(Knob::RetargetBudget, ret + 1, kReasonBusy, cur, out);
  }
  if (calm_streak_ >= 2 * d) {
    // Balanced fleet with healthy steals: unwind the burst response in
    // reverse order -- walk the opened cap back toward baseline first,
    // only then restore the steal-half mode the config started with --
    // relax thief pressure, and let victim choice go back to uniform
    // (a calm fleet has no hot rank worth converging on).
    if (chunk > chunk0) {
      propose(Knob::StealChunk, std::max(chunk0, chunk - rules_.chunk_step),
              kReasonCalm, cur, out);
    } else if (cur[static_cast<int>(Knob::StealHalf)] !=
               base_[static_cast<int>(Knob::StealHalf)]) {
      propose(Knob::StealHalf, base_[static_cast<int>(Knob::StealHalf)],
              kReasonCalm, cur, out);
    }
    if (rel < rel0) {
      propose(Knob::ReleaseThreshold, std::min(rel0, rel * 2), kReasonCalm,
              cur, out);
    }
    if (ret > ret0) {
      propose(Knob::RetargetBudget, ret - 1, kReasonCalm, cur, out);
    }
    propose(Knob::VictimSetSize, 0, kReasonCalm, cur, out);
  }
}

// ---- Session ----

namespace {

struct alignas(64) RankRow {
  // Published knobs: owner writes, anyone reads. A version of 0 means
  // the rank never attached; rows outlive their owner so adoption can
  // still read a dead rank's last published values.
  std::atomic<std::int64_t> pub[kNumKnobs] = {};
  std::atomic<std::uint64_t> pub_version{0};
  // Owner-only state, including the rank's rule-engine state.
  KnobSet* knobs = nullptr;
  TimeNs next_epoch = 0;
  bool primed = false;
  std::uint64_t prev_attempts = 0, prev_steals = 0, prev_busy = 0;
  RuleEngine engine;
};

struct CtlSession {
  Config cfg;
  int nranks = 0;
  std::unique_ptr<RankRow[]> rows;
  // Fleet digest the monitor hook publishes for the controllers:
  // the latest CoV (as raw double bits), a sample count, and the deepest
  // alive ranks packed 16 bits each (0xFFFF = empty slot) for the
  // restricted-victim-set steal path.
  std::atomic<std::uint64_t> digest_cov_bits{0};
  std::atomic<std::uint64_t> digest_samples{0};
  std::atomic<std::uint64_t> digest_hot{~std::uint64_t{0}};
  std::mutex log_mu;
  std::vector<DecisionRecord> log;
  std::atomic<std::uint64_t> st_epochs{0};
  std::atomic<std::uint64_t> st_decisions{0};
  std::atomic<std::uint64_t> st_inherits{0};
};

using detail::g_active;
CtlSession g_ctl;

std::mutex g_cfg_mu;
Config g_cfg;

inline bool in_session(Rank r) {
  return g_active.load(std::memory_order_relaxed) && r >= 0 &&
         r < g_ctl.nranks;
}

/// Owner-side: copy the live KnobSet into the published row.
void publish_row(RankRow& row) {
  for (int k = 0; k < kNumKnobs; ++k) {
    row.pub[k].store(row.knobs->get(static_cast<Knob>(k)),
                     std::memory_order_relaxed);
  }
  row.pub_version.store(row.pub_version.load(std::memory_order_relaxed) + 1,
                        std::memory_order_release);
}

/// Owner-side: push one decision through the KnobSet; on change, trace
/// it, mirror it into the ctl_* gauges, publish, and log.
bool apply_owner(Rank r, RankRow& row, const Decision& d, TimeNs t) {
  if (!row.knobs->set(d.knob, d.value)) return false;
  std::int64_t applied = row.knobs->get(d.knob);
  publish_row(row);
  SCIOTO_TRACE_EVENT(r, trace::Ev::KnobChange, static_cast<int>(d.knob),
                     applied, d.reason);
  SCIOTO_METRIC_CTR(r, metrics::Ctr::CtlDecisions, 1);
  SCIOTO_METRIC_GAUGE(r, metrics::Gauge::CtlChunk,
                      row.knobs->get(Knob::StealChunk));
  SCIOTO_METRIC_GAUGE(r, metrics::Gauge::CtlStealHalf,
                      row.knobs->get(Knob::StealHalf));
  SCIOTO_METRIC_GAUGE(r, metrics::Gauge::CtlRelease,
                      row.knobs->get(Knob::ReleaseThreshold));
  SCIOTO_METRIC_GAUGE(r, metrics::Gauge::CtlRetarget,
                      row.knobs->get(Knob::RetargetBudget));
  SCIOTO_METRIC_GAUGE(r, metrics::Gauge::CtlVictimSet,
                      row.knobs->get(Knob::VictimSetSize));
  g_ctl.st_decisions.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(g_ctl.log_mu);
  g_ctl.log.push_back(DecisionRecord{t, r, d.knob, applied, d.reason});
  return true;
}

double digest_cov(bool* have) {
  std::uint64_t n = g_ctl.digest_samples.load(std::memory_order_acquire);
  if (n == 0) {
    *have = false;
    return 0.0;
  }
  *have = true;
  std::uint64_t bits = g_ctl.digest_cov_bits.load(std::memory_order_relaxed);
  double cov;
  std::memcpy(&cov, &bits, sizeof(cov));
  return cov;
}

/// The monitor sample hook: publishes the fleet digest (CoV and the
/// deepest alive ranks). Runs in the sampler's context (the designated
/// rank's fiber under sim, the monitor thread under threads), serialized
/// by the monitor's sample lock.
void digest_tick(const metrics::FleetSample& s) {
  if (!g_active.load(std::memory_order_acquire)) return;
  std::uint64_t bits;
  double cov = s.cov;
  std::memcpy(&bits, &cov, sizeof(bits));
  g_ctl.digest_cov_bits.store(bits, std::memory_order_relaxed);
  // Deepest alive ranks, descending, packed 16 bits apiece: what the
  // restricted-victim-set steal path aims thieves at. A stable insertion
  // sort over at most kMaxHotVictims keeps the hook O(nranks).
  Rank hot[kMaxHotVictims];
  std::uint64_t hot_depth[kMaxHotVictims];
  int nhot = 0;
  for (const metrics::RankSample& rs : s.ranks) {
    if (rs.state == metrics::RankState::Dead) continue;
    std::uint64_t d = rs.shared;
    if (d == 0) continue;
    int i = nhot < kMaxHotVictims ? nhot : kMaxHotVictims - 1;
    if (i == kMaxHotVictims - 1 && nhot == kMaxHotVictims &&
        d <= hot_depth[i]) {
      continue;
    }
    while (i > 0 && hot_depth[i - 1] < d) {
      hot[i] = hot[i - 1];
      hot_depth[i] = hot_depth[i - 1];
      --i;
    }
    hot[i] = rs.r;
    hot_depth[i] = d;
    if (nhot < kMaxHotVictims) ++nhot;
  }
  std::uint64_t packed = 0;
  for (int i = 0; i < kMaxHotVictims; ++i) {
    std::uint64_t v =
        i < nhot ? static_cast<std::uint64_t>(hot[i]) & 0xFFFF : 0xFFFF;
    packed |= v << (16 * i);
  }
  g_ctl.digest_hot.store(packed, std::memory_order_relaxed);
  g_ctl.digest_samples.fetch_add(1, std::memory_order_release);
}

}  // namespace

Mode mode() { return active() ? g_ctl.cfg.mode : Mode::Off; }

TimeNs period() { return active() ? g_ctl.cfg.period : 0; }

void start(int nranks, const Config& cfg) {
  SCIOTO_REQUIRE(!active(), "control session already active");
  SCIOTO_REQUIRE(nranks >= 1, "control session needs >= 1 rank");
  SCIOTO_REQUIRE(cfg.mode != Mode::Off,
                 "control::start needs mode local");
  SCIOTO_REQUIRE(metrics::active(),
                 "control needs an active metrics session (the controller "
                 "reads the metric patches)");
  g_ctl.cfg = cfg;
  if (g_ctl.cfg.period <= 0) g_ctl.cfg.period = 100'000;
  g_ctl.nranks = nranks;
  g_ctl.rows = std::make_unique<RankRow[]>(static_cast<std::size_t>(nranks));
  g_ctl.digest_cov_bits.store(0, std::memory_order_relaxed);
  g_ctl.digest_samples.store(0, std::memory_order_relaxed);
  g_ctl.digest_hot.store(~std::uint64_t{0}, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(g_ctl.log_mu);
    g_ctl.log.clear();
  }
  g_ctl.st_epochs.store(0, std::memory_order_relaxed);
  g_ctl.st_decisions.store(0, std::memory_order_relaxed);
  g_ctl.st_inherits.store(0, std::memory_order_relaxed);
  g_active.store(true, std::memory_order_release);
  metrics::monitor_set_sample_hook(
      [](const metrics::FleetSample& s) { digest_tick(s); });
  metrics::monitor_set_knobs_text([](Rank r) { return knobs_text(r); });
}

void stop() {
  if (!active()) return;
  metrics::monitor_set_sample_hook(nullptr);
  metrics::monitor_set_knobs_text(nullptr);
  g_active.store(false, std::memory_order_release);
  // Rows and the decision log survive until the next start so post-run
  // inspection (decisions(), stats()) keeps working.
}

void attach(Rank r, KnobSet* knobs) {
  if (!in_session(r) || knobs == nullptr) return;
  RankRow& row = g_ctl.rows[r];
  row.knobs = knobs;
  row.next_epoch = 0;
  row.primed = false;  // re-prime over the new KnobSet
  publish_row(row);
}

void detach(Rank r) {
  if (!in_session(r)) return;
  // Keep the published row: a ward adopting this rank's queue after a
  // kill still inherits the last published knobs.
  g_ctl.rows[r].knobs = nullptr;
}

bool poll_due(Rank r, TimeNs now) {
  if (!in_session(r)) return false;
  RankRow& row = g_ctl.rows[r];
  return row.knobs != nullptr && now >= row.next_epoch;
}

void poll_epoch(Rank r, TimeNs now, std::uint64_t shared_depth) {
  // A fenced/suspected rank never retunes itself; it will either die (its
  // row freezing for the ward) or rejoin and resume at the next epoch.
  if (!poll_due(r, now) || (detect::active() && !detect::alive(r))) return;
  RankRow& row = g_ctl.rows[r];
  row.next_epoch = now + g_ctl.cfg.period;
  std::uint64_t att = metrics::own_ctr(r, metrics::Ctr::StealAttempts);
  std::uint64_t st = metrics::own_ctr(r, metrics::Ctr::Steals);
  std::uint64_t busy = metrics::own_ctr(r, metrics::Ctr::StealLockBusy);
  std::int64_t cur[kNumKnobs];
  for (int k = 0; k < kNumKnobs; ++k) {
    cur[k] = row.knobs->get(static_cast<Knob>(k));
  }
  if (!row.primed) {
    row.primed = true;
    row.engine = RuleEngine(g_ctl.cfg.rules, cur, g_ctl.nranks);
    row.prev_attempts = att;
    row.prev_steals = st;
    row.prev_busy = busy;
    return;
  }
  Signals sig;
  sig.attempts = att - row.prev_attempts;
  sig.steals = st - row.prev_steals;
  sig.busy = busy - row.prev_busy;
  sig.shared_depth = shared_depth;
  sig.cov = digest_cov(&sig.have_cov);
  row.prev_attempts = att;
  row.prev_steals = st;
  row.prev_busy = busy;
  g_ctl.st_epochs.fetch_add(1, std::memory_order_relaxed);
  SCIOTO_METRIC_CTR(r, metrics::Ctr::CtlEpochs, 1);
  std::vector<Decision> ds;
  row.engine.step(sig, cur, &ds);
  for (const Decision& d : ds) apply_owner(r, row, d, now);
}

void inherit(Rank me, Rank dead) {
  if (!in_session(me) || dead < 0 || dead >= g_ctl.nranks) return;
  RankRow& row = g_ctl.rows[me];
  if (row.knobs == nullptr) return;
  RankRow& drow = g_ctl.rows[dead];
  if (drow.pub_version.load(std::memory_order_acquire) == 0) return;
  TimeNs t = trace::active() ? trace::clock_now() : 0;
  bool any = false;
  for (int k = 0; k < kNumKnobs; ++k) {
    Decision d{static_cast<Knob>(k),
               drow.pub[k].load(std::memory_order_relaxed), kReasonInherit};
    any = apply_owner(me, row, d, t) || any;
  }
  if (any) {
    g_ctl.st_inherits.fetch_add(1, std::memory_order_relaxed);
    SCIOTO_METRIC_CTR(me, metrics::Ctr::CtlInherits, 1);
  }
}

void republish(Rank r) {
  if (!in_session(r)) return;
  RankRow& row = g_ctl.rows[r];
  if (row.knobs == nullptr) return;
  publish_row(row);
}

bool published(Rank r, std::int64_t out[kNumKnobs]) {
  if (!in_session(r)) return false;
  RankRow& row = g_ctl.rows[r];
  if (row.pub_version.load(std::memory_order_acquire) == 0) return false;
  for (int k = 0; k < kNumKnobs; ++k) {
    out[k] = row.pub[k].load(std::memory_order_relaxed);
  }
  return true;
}

int hot_victims(Rank out[kMaxHotVictims]) {
  if (!g_active.load(std::memory_order_relaxed)) return 0;
  std::uint64_t packed = g_ctl.digest_hot.load(std::memory_order_relaxed);
  int n = 0;
  for (int i = 0; i < kMaxHotVictims; ++i) {
    std::uint64_t v = (packed >> (16 * i)) & 0xFFFF;
    if (v == 0xFFFF) break;
    out[n++] = static_cast<Rank>(v);
  }
  return n;
}

std::string knobs_text(Rank r) {
  std::int64_t v[kNumKnobs];
  if (!published(r, v)) return {};
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "ck=%" PRId64 " half=%" PRId64 " rel=%" PRId64 " rt=%" PRId64
                " vs=%" PRId64,
                v[static_cast<int>(Knob::StealChunk)],
                v[static_cast<int>(Knob::StealHalf)],
                v[static_cast<int>(Knob::ReleaseThreshold)],
                v[static_cast<int>(Knob::RetargetBudget)],
                v[static_cast<int>(Knob::VictimSetSize)]);
  return buf;
}

std::vector<DecisionRecord> decisions() {
  std::lock_guard<std::mutex> lk(g_ctl.log_mu);
  return g_ctl.log;
}

std::string decisions_jsonl() {
  std::vector<DecisionRecord> ds = decisions();
  std::ostringstream os;
  for (const DecisionRecord& d : ds) {
    os << "{\"t\":" << d.t << ",\"rank\":" << d.rank << ",\"knob\":\""
       << knob_name(d.knob) << "\",\"value\":" << d.value << ",\"reason\":\""
       << reason_name(d.reason) << "\"}\n";
  }
  return os.str();
}

Stats stats() {
  Stats s;
  s.epochs = g_ctl.st_epochs.load(std::memory_order_relaxed);
  s.decisions = g_ctl.st_decisions.load(std::memory_order_relaxed);
  s.inherits = g_ctl.st_inherits.load(std::memory_order_relaxed);
  return s;
}

Config config() {
  std::lock_guard<std::mutex> lk(g_cfg_mu);
  return g_cfg;
}

void set_config(const Config& cfg) {
  std::lock_guard<std::mutex> lk(g_cfg_mu);
  g_cfg = cfg;
}

}  // namespace scioto::control
