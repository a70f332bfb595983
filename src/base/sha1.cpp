#include "base/sha1.hpp"

#include <algorithm>
#include <cstring>

#include "base/sha1_detail.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define SCIOTO_SHA1_X86 1
#endif

namespace scioto {

namespace detail {

namespace {

inline std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
         (std::uint32_t(p[2]) << 8) | std::uint32_t(p[3]);
}

}  // namespace

void sha1_compress_portable(std::uint32_t* state, const std::uint8_t* block) {
  // The 80-word schedule is kept as a 16-word ring: W[i] for i >= 16 is
  // rotl1(W[i-3] ^ W[i-8] ^ W[i-14] ^ W[i-16]), all indices mod 16.
  std::uint32_t w[16];
  for (int i = 0; i < 16; ++i) {
    w[i] = load_be32(block + 4 * i);
  }
  auto word = [&w](int i) {
    if (i >= 16) {
      w[i & 15] = rotl(w[(i + 13) & 15] ^ w[(i + 8) & 15] ^ w[(i + 2) & 15] ^
                           w[i & 15],
                       1);
    }
    return w[i & 15];
  };

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                e = state[4];
  auto step = [&](std::uint32_t f, std::uint32_t k, std::uint32_t wi) {
    const std::uint32_t t = rotl(a, 5) + f + e + k + wi;
    e = d;
    d = c;
    c = rotl(b, 30);
    b = a;
    a = t;
  };
  for (int i = 0; i < 20; ++i) step(d ^ (b & (c ^ d)), 0x5A827999u, word(i));
  for (int i = 20; i < 40; ++i) step(b ^ c ^ d, 0x6ED9EBA1u, word(i));
  for (int i = 40; i < 60; ++i) {
    step((b & c) | (d & (b | c)), 0x8F1BBCDCu, word(i));
  }
  for (int i = 60; i < 80; ++i) step(b ^ c ^ d, 0xCA62C1D6u, word(i));

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
}

#ifdef SCIOTO_SHA1_X86

bool sha1_shani_supported() {
  static const bool supported = [] {
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
    const bool ssse3 = (c & (1u << 9)) != 0;
    const bool sse41 = (c & (1u << 19)) != 0;
    if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
    return ssse3 && sse41 && (b & (1u << 29)) != 0;
  }();
  return supported;
}

// Four rounds per sha1rnds4. The state vector holds A..D with A in the top
// lane; sha1nexte derives the next group's E (rotl30 of the A four rounds
// back) and adds it to the group's message words. Group g >= 4 schedules
// its words as msg2(msg1(M[g-4], M[g-3]) ^ M[g-2], M[g-1]).
__attribute__((target("sha,sse4.1"))) void sha1_compress_shani(
    std::uint32_t* state, const std::uint8_t* block) {
  const __m128i bswap =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0x1B);
  const __m128i abcd_in = abcd;
  const __m128i e_in = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  const auto* words = reinterpret_cast<const __m128i*>(block);
  __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128(words), bswap);
  __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128(words + 1), bswap);
  __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128(words + 2), bswap);
  __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128(words + 3), bswap);
  __m128i prev = abcd;
  __m128i e = _mm_add_epi32(e_in, m0);
  abcd = _mm_sha1rnds4_epu32(abcd, e, 0);

#define SCIOTO_SHA1_GROUP(f, m)          \
  e = _mm_sha1nexte_epu32(prev, m);      \
  prev = abcd;                           \
  abcd = _mm_sha1rnds4_epu32(abcd, e, f)
#define SCIOTO_SHA1_SCHED(m4, m3, m2, m1) \
  m4 = _mm_sha1msg2_epu32(                \
      _mm_xor_si128(_mm_sha1msg1_epu32(m4, m3), m2), m1)

  SCIOTO_SHA1_GROUP(0, m1);
  SCIOTO_SHA1_GROUP(0, m2);
  SCIOTO_SHA1_GROUP(0, m3);
  SCIOTO_SHA1_SCHED(m0, m1, m2, m3);
  SCIOTO_SHA1_GROUP(0, m0);  // rounds 16-19
  SCIOTO_SHA1_SCHED(m1, m2, m3, m0);
  SCIOTO_SHA1_GROUP(1, m1);
  SCIOTO_SHA1_SCHED(m2, m3, m0, m1);
  SCIOTO_SHA1_GROUP(1, m2);
  SCIOTO_SHA1_SCHED(m3, m0, m1, m2);
  SCIOTO_SHA1_GROUP(1, m3);
  SCIOTO_SHA1_SCHED(m0, m1, m2, m3);
  SCIOTO_SHA1_GROUP(1, m0);
  SCIOTO_SHA1_SCHED(m1, m2, m3, m0);
  SCIOTO_SHA1_GROUP(1, m1);  // rounds 36-39
  SCIOTO_SHA1_SCHED(m2, m3, m0, m1);
  SCIOTO_SHA1_GROUP(2, m2);
  SCIOTO_SHA1_SCHED(m3, m0, m1, m2);
  SCIOTO_SHA1_GROUP(2, m3);
  SCIOTO_SHA1_SCHED(m0, m1, m2, m3);
  SCIOTO_SHA1_GROUP(2, m0);
  SCIOTO_SHA1_SCHED(m1, m2, m3, m0);
  SCIOTO_SHA1_GROUP(2, m1);
  SCIOTO_SHA1_SCHED(m2, m3, m0, m1);
  SCIOTO_SHA1_GROUP(2, m2);  // rounds 56-59
  SCIOTO_SHA1_SCHED(m3, m0, m1, m2);
  SCIOTO_SHA1_GROUP(3, m3);
  SCIOTO_SHA1_SCHED(m0, m1, m2, m3);
  SCIOTO_SHA1_GROUP(3, m0);
  SCIOTO_SHA1_SCHED(m1, m2, m3, m0);
  SCIOTO_SHA1_GROUP(3, m1);
  SCIOTO_SHA1_SCHED(m2, m3, m0, m1);
  SCIOTO_SHA1_GROUP(3, m2);
  SCIOTO_SHA1_SCHED(m3, m0, m1, m2);
  SCIOTO_SHA1_GROUP(3, m3);  // rounds 76-79
#undef SCIOTO_SHA1_SCHED
#undef SCIOTO_SHA1_GROUP

  e = _mm_sha1nexte_epu32(prev, e_in);
  abcd = _mm_shuffle_epi32(_mm_add_epi32(abcd, abcd_in), 0x1B);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abcd);
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e, 3));
}

#else

bool sha1_shani_supported() { return false; }

void sha1_compress_shani(std::uint32_t* state, const std::uint8_t* block) {
  sha1_compress_portable(state, block);
}

#endif

}  // namespace detail

namespace {

constexpr std::array<std::uint32_t, 5> kInit = {
    0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};

// Constant-initialized to the portable path, so a digest taken during
// another translation unit's static initialization is still correct; the
// dynamic initializer below upgrades it once if the CPU has SHA-NI.
detail::Sha1Compress g_compress = &detail::sha1_compress_portable;
[[maybe_unused]] const bool g_dispatched = [] {
  if (detail::sha1_shani_supported()) {
    g_compress = &detail::sha1_compress_shani;
  }
  return true;
}();

void store_be64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
  }
}

Sha1::Digest to_digest(const std::uint32_t* state) {
  Sha1::Digest d;
  for (int i = 0; i < 5; ++i) {
    d[i * 4] = static_cast<std::uint8_t>(state[i] >> 24);
    d[i * 4 + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    d[i * 4 + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    d[i * 4 + 3] = static_cast<std::uint8_t>(state[i]);
  }
  return d;
}

}  // namespace

void Sha1::reset() {
  state_ = kInit;
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha1::update(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_bytes_ += len;

  if (buffered_ > 0) {
    std::size_t take = std::min(len, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, p, take);
    buffered_ += take;
    p += take;
    len -= take;
    if (buffered_ == buffer_.size()) {
      g_compress(state_.data(), buffer_.data());
      buffered_ = 0;
    }
  }
  while (len >= 64) {
    g_compress(state_.data(), p);
    p += 64;
    len -= 64;
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), p, len);
    buffered_ = len;
  }
}

Sha1::Digest Sha1::finish() {
  // Pad in place: 0x80, zeros up to byte 56 (spilling into a second block
  // when fewer than 9 bytes are free), then the 64-bit big-endian bit length.
  const std::uint64_t bit_len = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffered_),
              buffer_.end(), std::uint8_t{0});
    g_compress(state_.data(), buffer_.data());
    buffered_ = 0;
  }
  std::fill(buffer_.begin() + static_cast<std::ptrdiff_t>(buffered_),
            buffer_.begin() + 56, std::uint8_t{0});
  store_be64(buffer_.data() + 56, bit_len);
  g_compress(state_.data(), buffer_.data());

  const Digest d = to_digest(state_.data());
  reset();
  return d;
}

Sha1::Digest Sha1::hash(const void* data, std::size_t len) {
  if (len > 55) {
    Sha1 h;
    h.update(data, len);
    return h.finish();
  }
  // Fused path: the message, its padding and its length fit one block.
  std::uint8_t block[64] = {};
  if (len > 0) {
    std::memcpy(block, data, len);
  }
  block[len] = 0x80;
  store_be64(block + 56, static_cast<std::uint64_t>(len) * 8);
  std::array<std::uint32_t, 5> state = kInit;
  g_compress(state.data(), block);
  return to_digest(state.data());
}

std::string Sha1::hex(const Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string s;
  s.reserve(kDigestBytes * 2);
  for (std::uint8_t b : d) {
    s.push_back(kHex[b >> 4]);
    s.push_back(kHex[b & 0xF]);
  }
  return s;
}

}  // namespace scioto
