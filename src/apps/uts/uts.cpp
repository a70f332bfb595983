#include "apps/uts/uts.hpp"

#include <cmath>
#include <sstream>
#include <vector>

#include "base/error.hpp"

namespace scioto::apps {

UtsNode uts_root(const UtsParams& p) {
  // The canonical UTS root state is derived by hashing the seed.
  UtsNode root;
  std::uint32_t seed_be = static_cast<std::uint32_t>(p.seed);
  std::uint8_t bytes[4] = {
      static_cast<std::uint8_t>(seed_be >> 24),
      static_cast<std::uint8_t>(seed_be >> 16),
      static_cast<std::uint8_t>(seed_be >> 8),
      static_cast<std::uint8_t>(seed_be),
  };
  Sha1::Digest d = Sha1::hash(bytes, sizeof(bytes));
  std::copy(d.begin(), d.end(), root.state.begin());
  root.depth = 0;
  return root;
}

std::uint32_t uts_rand(const UtsNode& node) {
  // Last four digest bytes, big-endian, masked to 31 bits (UTS rng_rand).
  const auto& s = node.state;
  std::uint32_t v = (std::uint32_t(s[16]) << 24) |
                    (std::uint32_t(s[17]) << 16) |
                    (std::uint32_t(s[18]) << 8) | std::uint32_t(s[19]);
  return v & 0x7FFFFFFFu;
}

int uts_num_children(const UtsNode& node, const UtsParams& p) {
  const double u =
      (static_cast<double>(uts_rand(node)) + 1.0) / 2147483649.0;  // (0,1]
  switch (p.tree) {
    case UtsTree::Geometric: {
      if (node.depth >= p.gen_mx) {
        return 0;
      }
      // Expected branching factor from the shape function; degree is then
      // sampled ~ Geometric(mean b).
      const double d = static_cast<double>(node.depth);
      const double m = static_cast<double>(p.gen_mx);
      double b = 0.0;
      switch (p.shape) {
        case GeoShape::Linear:
          b = p.b0 * (1.0 - d / m);
          break;
        case GeoShape::Expdec:
          b = p.b0 * std::pow(d + 1.0, -std::log(p.b0) / std::log(m));
          break;
        case GeoShape::Cyclic:
          b = p.b0 * std::pow(std::sin(3.141592653589793 * (d + 1.0) / m),
                              2.0);
          break;
        case GeoShape::Fixed:
          b = p.b0;
          break;
      }
      if (b <= 0.0) {
        return 0;
      }
      double succ = 1.0 / (1.0 + b);  // P(stop); mean (1-succ)/succ = b
      int k = static_cast<int>(std::floor(std::log(u) /
                                          std::log(1.0 - succ)));
      return k < 0 ? 0 : k;
    }
    case UtsTree::Binomial: {
      if (node.depth == 0) {
        return static_cast<int>(p.b0);
      }
      return u <= p.q ? p.m : 0;
    }
  }
  return 0;
}

UtsNode uts_child(const UtsNode& parent, int i) {
  // Message = parent state || big-endian child index (24 bytes, one block).
  std::uint8_t msg[Sha1::kDigestBytes + 4];
  std::copy(parent.state.begin(), parent.state.end(), msg);
  msg[20] = static_cast<std::uint8_t>(i >> 24);
  msg[21] = static_cast<std::uint8_t>(i >> 16);
  msg[22] = static_cast<std::uint8_t>(i >> 8);
  msg[23] = static_cast<std::uint8_t>(i);
  Sha1::Digest d = Sha1::hash(msg, sizeof(msg));
  UtsNode child;
  std::copy(d.begin(), d.end(), child.state.begin());
  child.depth = parent.depth + 1;
  return child;
}

UtsCounts uts_sequential(const UtsParams& p) {
  UtsCounts counts;
  std::vector<UtsNode> stack;
  stack.push_back(uts_root(p));
  while (!stack.empty()) {
    UtsNode node = stack.back();
    stack.pop_back();
    ++counts.nodes;
    counts.max_depth = std::max<std::int64_t>(counts.max_depth, node.depth);
    int nc = uts_num_children(node, p);
    if (nc == 0) {
      ++counts.leaves;
      continue;
    }
    for (int i = 0; i < nc; ++i) {
      stack.push_back(uts_child(node, i));
    }
  }
  return counts;
}

namespace {
const char* shape_name(GeoShape s) {
  switch (s) {
    case GeoShape::Linear: return "linear";
    case GeoShape::Expdec: return "expdec";
    case GeoShape::Cyclic: return "cyclic";
    case GeoShape::Fixed: return "fixed";
  }
  return "?";
}
}  // namespace

std::string uts_describe(const UtsParams& p) {
  std::ostringstream oss;
  if (p.tree == UtsTree::Geometric) {
    oss << "GEO-" << shape_name(p.shape) << "(seed=" << p.seed
        << ", b0=" << p.b0 << ", d=" << p.gen_mx << ")";
  } else {
    oss << "BIN(seed=" << p.seed << ", b0=" << p.b0 << ", q=" << p.q
        << ", m=" << p.m << ")";
  }
  return oss.str();
}

UtsParams uts_tiny() {
  UtsParams p;
  p.tree = UtsTree::Geometric;
  p.seed = 19;
  p.b0 = 4.0;
  p.gen_mx = 6;
  return p;
}

UtsParams uts_small() {
  UtsParams p;
  p.tree = UtsTree::Geometric;
  p.seed = 19;
  p.b0 = 4.0;
  p.gen_mx = 11;  // ~19k nodes
  return p;
}

UtsParams uts_bench() {
  UtsParams p;
  p.tree = UtsTree::Geometric;
  p.seed = 19;
  p.b0 = 6.0;
  p.gen_mx = 11;  // ~408k nodes, depth 11: sized for the simulated
                  // cluster (the paper's runs used multi-million-node
                  // trees on real hardware)
  return p;
}

UtsParams uts_binomial_small() {
  UtsParams p;
  p.tree = UtsTree::Binomial;
  p.seed = 42;
  p.b0 = 64;       // root fan-out
  p.q = 0.120;     // subcritical: mq = 0.96
  p.m = 8;
  return p;
}

}  // namespace scioto::apps
