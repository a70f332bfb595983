#include "spawn_tree.hpp"

#include <cmath>
#include <vector>

namespace perfbench {

namespace {

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

SpawnNode spawn_root(const SpawnParams& p) {
  SpawnNode n;
  n.state = mix64(p.seed);
  return n;
}

int spawn_num_children(const SpawnNode& n, const SpawnParams& p) {
  if (n.depth == 0) return p.root_fanout;
  const double threshold = std::ldexp(p.q, 64);
  return static_cast<double>(mix64(n.state ^ 0x5bd1e995ull)) < threshold
             ? p.m
             : 0;
}

SpawnNode spawn_child(const SpawnNode& parent, int i) {
  SpawnNode c;
  c.state = mix64(parent.state + static_cast<std::uint64_t>(i + 1) *
                                     0xD6E8FEB86659FD93ull);
  c.depth = parent.depth + 1;
  return c;
}

std::uint64_t spawn_count(const SpawnParams& p) {
  std::vector<SpawnNode> stack{spawn_root(p)};
  std::uint64_t count = 0;
  while (!stack.empty()) {
    const SpawnNode n = stack.back();
    stack.pop_back();
    ++count;
    const int nc = spawn_num_children(n, p);
    for (int i = 0; i < nc; ++i) stack.push_back(spawn_child(n, i));
  }
  return count;
}

}  // namespace perfbench
