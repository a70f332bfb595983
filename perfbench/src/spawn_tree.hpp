// The spawn-threads workload's input: an implicit, seeded, binomial-shaped
// tree of near-empty tasks. The root spawns `root_fanout` children in one
// burst, so all work starts on one rank and the others must steal it;
// below the root each node has `m` children with probability `q` and none
// otherwise. With m*q just under 1 most subtrees die within a few levels
// while a few grow into long bursts, and the many independent subtrees
// keep the total close to root_fanout / (1 - m*q) for every seed. Child
// descriptors come from a cheap 64-bit mix of the parent's state, not
// SHA-1, so the scheduler -- task create/add, push/pop, release/reacquire,
// steals, termination -- is most of the cost.
#pragma once

#include <cstdint>

namespace perfbench {

struct SpawnParams {
  std::uint64_t seed = 1;
  int root_fanout = 65536;
  int m = 4;
  double q = 0.2475;
};

struct SpawnNode {
  std::uint64_t state = 0;
  std::int32_t depth = 0;
  std::int32_t pad = 0;
};
static_assert(sizeof(SpawnNode) == 16);

SpawnNode spawn_root(const SpawnParams& p);
int spawn_num_children(const SpawnNode& n, const SpawnParams& p);
SpawnNode spawn_child(const SpawnNode& parent, int i);

/// Sequential walk of the whole tree: its node count is the reference
/// every parallel traversal of the same parameters must reproduce.
std::uint64_t spawn_count(const SpawnParams& p);

}  // namespace perfbench
