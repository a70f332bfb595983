// Wave-based termination detection (paper §5.2, §5.3).
//
// A binary spanning tree is mapped onto the ranks (children of i are 2i+1,
// 2i+2). The root launches a token wave down the tree; when the wave
// reflects off the leaves, each idle process combines its own color with
// its children's and passes the result up. Tokens start white; a process
// colors its token black if it performed a load-balancing operation since
// its last vote or if a thief marked it dirty. A black token reaching the
// root triggers a re-vote; an all-white wave means every process was idle
// with no work in flight, so the root broadcasts termination down the tree.
//
// All token movement uses one-sided 8-byte puts into per-rank mailboxes,
// polled by idle processes -- there is no two-sided communication, matching
// the paper's ARMCI-based implementation. In the average case a detection
// takes 2 log2(p) one-way messages (down + up), which is why Figure 4
// shows roughly twice the cost of a barrier.
//
// Token-coloring optimization (§5.3): after a successful steal the thief
// pt must normally mark its victim pv dirty so pv re-votes. The mark can
// be skipped when (a) pt has not yet voted in the current wave -- pt's own
// (black, because self-dirty) vote already forces a re-vote -- or (b) pv
// is a descendant of pt in the tree (pv votes before pt: if pt has voted,
// pv's vote is already folded into pt's subtree token and the mark could
// not change this wave's outcome).
//
// Fault tolerance (fault::active() runs only): every rank death bumps the
// fault epoch, and each rank re-splices the spanning tree over the alive
// ranks on its next step() -- the rank at alive-position p parents
// position (p-1)/2, so a dead root is replaced too. Tokens carry the
// epoch in their top bits; a token minted in an older epoch is ignored,
// and every rank forces its first post-resplice vote black, so no wave
// that straddles a death can ever conclude all-white (termination is
// never declared early). Termination broadcasts are accepted regardless
// of epoch -- an all-white wave certifies there is globally no work, a
// fact later deaths cannot un-make -- and, post-resplice, ranks also
// periodically poll their (new) parent's term flag, so a decision routed
// through the old tree still reaches everyone. Token puts retry dropped
// sends with jittered exponential backoff.
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/obs.hpp"
#include "pgas/runtime.hpp"

namespace scioto {

class TerminationDetector {
 public:
  enum class Status { Working, Terminated };

  struct Config {
    /// Enable the §5.3 votes-before optimization.
    bool color_optimization = true;
  };

  struct Counters {
    std::uint64_t waves_voted = 0;
    std::uint64_t black_votes = 0;
    std::uint64_t dirty_marks_sent = 0;
    std::uint64_t dirty_marks_skipped = 0;
    std::uint64_t waves_started = 0;   // root only
    std::uint64_t resplices = 0;       // tree reconfigurations observed
    std::uint64_t token_retries = 0;   // dropped token sends retried
  };

  /// Collective: allocates the token mailboxes.
  TerminationDetector(pgas::Runtime& rt, Config cfg);
  explicit TerminationDetector(pgas::Runtime& rt);

  /// Collective: releases shared space.
  void destroy();

  /// Collective: rearms the detector for a new task-parallel phase.
  void reset();

  /// Local-only rearm: zeroes this rank's mailboxes and protocol state.
  /// The caller must provide a barrier between everyone's reset_local()
  /// and the first token traffic (TaskCollection::process does).
  void reset_local();

  /// Advances the protocol. Call ONLY while this rank is idle (no local
  /// tasks, no steal in progress); returns Terminated once the root's
  /// all-white wave has been broadcast.
  Status step();

  /// Records that this rank moved work (stole tasks from, or pushed a
  /// task to, `other`): colors our own next token black and marks `other`
  /// dirty unless the coloring optimization proves it unnecessary.
  void note_lb_op(Rank other);

  /// Colors this rank's next vote black without marking anyone dirty
  /// (used when work appears locally through fault recovery).
  void mark_self_black();

  // ---- Elastic membership (src/elastic) ----

  /// Parked-rank poll: a rank with no seat in the tree receives no
  /// termination broadcast, so it reads the current tree root's term flag
  /// one-sidedly (through the retrying failure-aware read). Returns true
  /// once termination is decided and latches local terminated state so a
  /// later step() agrees.
  bool poll_term_remote();

  /// Local-only: true once a termination decision has landed in this
  /// rank's mailbox (or was adopted). The elastic quiesce wait uses this
  /// to abort a checkpoint racing the end of the phase -- an all-white
  /// wave certifies there is globally no work left to save.
  bool term_seen_local();

  /// Joiner-only, call once right after admission: the next resplice
  /// casts a white vote instead of the forced-black first vote. Safe
  /// because a joiner enters with no work and no LB history -- the
  /// admission epoch bump already forces every incumbent's next vote
  /// black, which protects any wave that straddles the join. Without
  /// this, an idle joiner would black out one extra full wave per join.
  void arm_join_white();

  const Counters& counters() const {
    return counters_[static_cast<std::size_t>(rt_.me())];
  }
  Counters counters_sum() const;

 private:
  // Mailbox words are plain integers accessed exclusively through
  // std::atomic_ref (locally) and the runtime's word ops (remotely:
  // put_word_reliable / get_u64_with_retry), so every cross-rank token
  // movement flows through the failure-aware retrying PGAS layer.
  struct alignas(64) TdCtl {
    /// Latest wave number announced by the parent.
    std::uint64_t down_wave = 0;
    /// Child reports: (wave << 1) | black_bit, one slot per child.
    std::uint64_t up[2] = {0, 0};
    /// Nonzero once termination is decided (value = deciding wave).
    std::uint64_t term_wave = 0;
    /// Set one-sided by thieves / remote adders.
    std::uint32_t dirty = 0;
  };

  // Tokens are (epoch << kEpochShift) | wave; with no fault session the
  // epoch stays 0 and the encoding is the identity, so the fault-free
  // protocol (and its traces) are bit-identical to the plain design.
  static constexpr int kEpochShift = 48;
  static constexpr std::uint64_t kWaveMask = (1ull << kEpochShift) - 1;
  static std::uint64_t tag(std::uint64_t epoch, std::uint64_t wave) {
    return (epoch << kEpochShift) | wave;
  }

  struct LocalState {
    std::uint64_t wave_seen = 0;   // latest down-wave observed/forwarded
    std::uint64_t voted_wave = 0;  // latest wave we passed a token up for
    bool self_black = false;       // LB op performed since last vote
    bool join_white = false;       // next resplice votes white (joiner)
    bool term_forwarded = false;
    bool terminated = false;
    // Spanning-tree neighbours; static heap positions until a fault epoch
    // forces a resplice over the alive ranks.
    std::uint64_t epoch_seen = 0;
    std::uint64_t steps = 0;       // poll counter (term-adoption cadence)
    obs::Span wave;                // root: the open wave, from its launch
    Rank parent = kNoRank;
    int up_slot = 0;               // which of parent's up[] slots is ours
    Rank kids[2] = {kNoRank, kNoRank};
    std::vector<Rank> alive;       // alive list backing the respliced tree
  };

  TdCtl& ctl(Rank r);
  Counters& my_counters() {
    return counters_[static_cast<std::size_t>(rt_.me())];
  }
  /// Heap-order descendant test over positions 0..n-1.
  static bool pos_is_descendant(int v, int anc);
  /// True if `v` is a strict descendant of `anc` in the current tree.
  bool is_descendant(const LocalState& st, Rank v, Rank anc) const;
  /// Recomputes this rank's tree neighbours when the fault epoch moved;
  /// resets wave state and forces the next vote black.
  void maybe_resplice(LocalState& st);
  /// One-sided put of the token word at `offset` in the target's TdCtl
  /// (width 4 for dirty, 8 otherwise). `what` names the field for the
  /// trace stream (0=down, 1=up, 2=term, 3=dirty). Delegates to
  /// Runtime::put_word_reliable: under fault injection, dropped sends are
  /// retried unboundedly with jittered exponential backoff (token
  /// delivery is protocol-critical: a lost wave token stalls detection).
  void put_token(Rank target, std::size_t offset, std::uint64_t value,
                 std::size_t width, int what);

  pgas::Runtime& rt_;
  Config cfg_;
  pgas::SegId seg_ = -1;
  std::vector<LocalState> state_;
  std::vector<Counters> counters_;
};

}  // namespace scioto
