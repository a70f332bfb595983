// Unit tests for src/base: SHA-1 vectors, RNG statistics and determinism,
// option parsing, table rendering, accumulators.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include "base/error.hpp"
#include "base/options.hpp"
#include "base/rng.hpp"
#include "base/sha1.hpp"
#include "base/sha1_detail.hpp"
#include "base/stats.hpp"
#include "base/table.hpp"
#include "base/types.hpp"

namespace scioto {
namespace {

// ---- SHA-1 (RFC 3174 / FIPS 180-1 test vectors) ----

TEST(Sha1, EmptyMessage) {
  EXPECT_EQ(Sha1::hex(Sha1::hash("", 0)),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(Sha1::hex(Sha1::hash("abc", 3)),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  const char* msg = "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(Sha1::hex(Sha1::hash(msg, 56)),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionA) {
  Sha1 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.update(chunk.data(), chunk.size());
  }
  EXPECT_EQ(Sha1::hex(h.finish()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  std::string msg(301, 'x');
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<char>('a' + (i * 7) % 26);
  }
  Sha1 h;
  // Uneven chunking across the 64-byte block boundary.
  h.update(msg.data(), 63);
  h.update(msg.data() + 63, 1);
  h.update(msg.data() + 64, 130);
  h.update(msg.data() + 194, msg.size() - 194);
  EXPECT_EQ(Sha1::hex(h.finish()),
            Sha1::hex(Sha1::hash(msg.data(), msg.size())));
}

TEST(Sha1, ResetReusesHasher) {
  Sha1 h;
  h.update("abc", 3);
  (void)h.finish();
  h.reset();
  h.update("abc", 3);
  EXPECT_EQ(Sha1::hex(h.finish()),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, FinishLeavesHasherReset) {
  const std::string empty = "da39a3ee5e6b4b0d3255bfef95601890afd80709";
  Sha1 h;
  EXPECT_EQ(Sha1::hex(h.finish()), empty);
  EXPECT_EQ(Sha1::hex(h.finish()), empty);
  h.update("xyz", 3);
  (void)h.finish();
  h.update("abc", 3);  // no reset() in between
  EXPECT_EQ(Sha1::hex(h.finish()),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, Rfc3174FourthVector) {
  std::string chunk;
  for (int i = 0; i < 8; ++i) chunk += "01234567";
  Sha1 h;
  for (int i = 0; i < 10; ++i) {
    h.update(chunk.data(), chunk.size());
  }
  EXPECT_EQ(Sha1::hex(h.finish()),
            "dea356a2cddd90c7a7ecedc5ebb563934f460452");
}

/// Textbook SHA-1 (FIPS 180-1 §7, explicit padded message, 80-word
/// schedule): an independent reference for the tests below.
Sha1::Digest reference_sha1(const std::vector<std::uint8_t>& msg) {
  std::vector<std::uint8_t> m = msg;
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  m.push_back(0x80);
  while (m.size() % 64 != 56) m.push_back(0);
  for (int i = 7; i >= 0; --i) {
    m.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  auto rotl = [](std::uint32_t x, int n) {
    return (x << n) | (x >> (32 - n));
  };
  std::uint32_t h[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u,
                        0xC3D2E1F0u};
  for (std::size_t off = 0; off < m.size(); off += 64) {
    std::uint32_t w[80];
    for (int t = 0; t < 16; ++t) {
      w[t] = 0;
      for (int k = 0; k < 4; ++k) w[t] = (w[t] << 8) | m[off + 4 * t + k];
    }
    for (int t = 16; t < 80; ++t) {
      w[t] = rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1);
    }
    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
    for (int t = 0; t < 80; ++t) {
      std::uint32_t f, k;
      if (t < 20) {
        f = (b & c) | (~b & d), k = 0x5A827999u;
      } else if (t < 40) {
        f = b ^ c ^ d, k = 0x6ED9EBA1u;
      } else if (t < 60) {
        f = (b & c) | (b & d) | (c & d), k = 0x8F1BBCDCu;
      } else {
        f = b ^ c ^ d, k = 0xCA62C1D6u;
      }
      const std::uint32_t tmp = rotl(a, 5) + f + e + k + w[t];
      e = d, d = c, c = rotl(b, 30), b = a, a = tmp;
    }
    h[0] += a, h[1] += b, h[2] += c, h[3] += d, h[4] += e;
  }
  Sha1::Digest out;
  for (int i = 0; i < 20; ++i) {
    out[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(h[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> m(n);
  for (std::size_t i = 0; i < n; ++i) {
    m[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  return m;
}

TEST(Sha1, PaddingEdgesMatchKnownDigests) {
  // Digests of pattern(n) from an external SHA-1 (Python hashlib). Lengths
  // 55/56 straddle the one-block padding limit, 63/64 the block boundary.
  const std::pair<std::size_t, const char*> cases[] = {
      {54, "d55036939dd1f1b82217b436fd60b32b5d015ab1"},
      {55, "749bbefb28edc4638b28b2b9a9e03ab9a4032b90"},
      {56, "a5b6e9c29d201c774753ff8e7fb64931656f5e63"},
      {57, "eb0737bed5451790722b2df351829ce117e3d9dd"},
      {63, "d1a454409359fc372b4d22b3cea6488d6ba1be00"},
      {64, "39a0d8b645ad85f1f976731ed112ac9455e28b78"},
      {65, "d0c96e18890114a14716e9686528d2e3fdba8d9e"},
      {119, "562ecf8a430f8e1056e3619bae33628e9a1d0a4e"},
      {120, "353f6d2bf0e91aa91b74a2e0b3f297510f7d825f"},
      {128, "0060f2a7e34b6e4d459f560197ef93243732a400"},
  };
  for (const auto& [n, hex] : cases) {
    const auto m = pattern(n);
    EXPECT_EQ(Sha1::hex(Sha1::hash(m.data(), n)), hex) << "n=" << n;
    EXPECT_EQ(Sha1::hex(reference_sha1(m)), hex) << "n=" << n;
    Sha1 h;
    for (std::uint8_t byte : m) h.update(&byte, 1);
    EXPECT_EQ(Sha1::hex(h.finish()), hex) << "n=" << n;
  }
}

TEST(Sha1, EveryLengthAndSplitMatchesReference) {
  for (std::size_t n = 0; n <= 200; ++n) {
    const auto m = pattern(n);
    const Sha1::Digest want = reference_sha1(m);
    ASSERT_EQ(Sha1::hash(m.data(), n), want) << "one-shot n=" << n;
    Sha1 h;
    for (std::size_t split = 0; split <= n; ++split) {
      h.update(m.data(), split);
      h.update(m.data() + split, n - split);
      ASSERT_EQ(h.finish(), want) << "n=" << n << " split=" << split;
    }
  }
}

TEST(Sha1, ShaNiCompressionMatchesPortable) {
  if (!detail::sha1_shani_supported()) {
    GTEST_SKIP() << "CPU lacks the SHA extensions; only the portable "
                    "compression runs on this host";
  }
  Xoshiro256 rng(2008);
  std::uint8_t block[64];
  for (int iter = 0; iter < 20000; ++iter) {
    std::uint32_t a[5], b[5];
    for (int i = 0; i < 5; ++i) {
      a[i] = b[i] = static_cast<std::uint32_t>(rng.next());
    }
    for (int i = 0; i < 64; i += 8) {
      const std::uint64_t r = rng.next();
      std::memcpy(block + i, &r, 8);
    }
    detail::sha1_compress_portable(a, block);
    detail::sha1_compress_shani(b, block);
    ASSERT_EQ(std::memcmp(a, b, sizeof(a)), 0) << "block " << iter;
  }
}

// ---- RNG ----

TEST(Rng, Deterministic) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, SeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRangeAndCoversAll) {
  Xoshiro256 r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    std::uint64_t v = r.next_below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 r(99);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = r.uniform();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Xoshiro256 r(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto v = r.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DeriveSeedIndependentStreams) {
  EXPECT_NE(derive_seed(42, 0, 0), derive_seed(42, 1, 0));
  EXPECT_NE(derive_seed(42, 0, 0), derive_seed(42, 0, 1));
  EXPECT_EQ(derive_seed(42, 3, 2), derive_seed(42, 3, 2));
}

// ---- Options ----

TEST(Options, ParsesTypes) {
  Options o("prog", "test");
  o.add_int("n", 4, "count");
  o.add_double("x", 1.5, "factor");
  o.add_string("name", "abc", "label");
  o.add_flag("fast", false, "go fast");
  const char* argv[] = {"prog", "--n", "9", "--x=2.5", "--fast", "pos1"};
  ASSERT_TRUE(o.parse(6, const_cast<char**>(argv)));
  EXPECT_EQ(o.get_int("n"), 9);
  EXPECT_DOUBLE_EQ(o.get_double("x"), 2.5);
  EXPECT_EQ(o.get_string("name"), "abc");
  EXPECT_TRUE(o.get_flag("fast"));
  ASSERT_EQ(o.positional().size(), 1u);
  EXPECT_EQ(o.positional()[0], "pos1");
}

TEST(Options, NoFlagNegation) {
  Options o("prog", "test");
  o.add_flag("dlb", true, "dynamic load balancing");
  const char* argv[] = {"prog", "--no-dlb"};
  ASSERT_TRUE(o.parse(2, const_cast<char**>(argv)));
  EXPECT_FALSE(o.get_flag("dlb"));
}

TEST(Options, UnknownOptionThrows) {
  Options o("prog", "test");
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_THROW(o.parse(3, const_cast<char**>(argv)), Error);
}

TEST(Options, BadValueThrows) {
  Options o("prog", "test");
  o.add_int("n", 1, "count");
  const char* argv[] = {"prog", "--n", "xyz"};
  EXPECT_THROW(o.parse(3, const_cast<char**>(argv)), Error);
}

TEST(Options, HelpReturnsFalse) {
  Options o("prog", "test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(o.parse(2, const_cast<char**>(argv)));
}

// ---- Table ----

TEST(Table, RendersAlignedWithCsvMirror) {
  Table t({"Procs", "Time(us)"});
  t.add_row({"1", "3.5"});
  t.add_row({"64", "29.008"});
  std::string s = t.render("Demo");
  EXPECT_NE(s.find("== Demo =="), std::string::npos);
  EXPECT_NE(s.find("# csv: Procs,Time(us)"), std::string::npos);
  EXPECT_NE(s.find("# csv: 64,29.008"), std::string::npos);
}

TEST(Table, RowArityChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt(std::int64_t{42}), "42");
}

// ---- Accumulator ----

TEST(Stats, WelfordBasics) {
  Accumulator a;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    a.add(v);
  }
  EXPECT_EQ(a.count(), 8);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_NEAR(a.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_DOUBLE_EQ(a.sum(), 40.0);
}

TEST(Stats, MergeMatchesSequential) {
  Accumulator all, left, right;
  for (int i = 0; i < 100; ++i) {
    double v = i * 0.37 - 3;
    all.add(v);
    (i % 2 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(Stats, EmptyAccumulatorSafe) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
}

// ---- Types helpers ----

TEST(Types, TimeConversions) {
  EXPECT_EQ(us(1.0), 1000);
  EXPECT_EQ(ms(1.0), 1000000);
  EXPECT_DOUBLE_EQ(to_us(1500), 1.5);
  EXPECT_EQ(align_up(13, 8), 16u);
  EXPECT_EQ(align_up(16, 8), 16u);
  EXPECT_EQ(ceil_div(10, 3), 4u);
}

}  // namespace
}  // namespace scioto
