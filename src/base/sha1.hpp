// SHA-1 message digest (RFC 3174), implemented from scratch.
//
// Used by the UTS benchmark as a splittable deterministic RNG: each tree
// node is described by a 20-byte digest, and child i's state is
// SHA1(parent_state || i). The block compression runs on the x86 SHA
// extensions when the CPU has them (detected once at start-up) and on a
// portable rendition of FIPS 180-1 otherwise; both produce the same bits.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace scioto {

/// Incremental SHA-1 hasher.
///
/// Usage:
///   Sha1 h;
///   h.update(buf, len);
///   Sha1::Digest d = h.finish();
class Sha1 {
 public:
  static constexpr std::size_t kDigestBytes = 20;
  using Digest = std::array<std::uint8_t, kDigestBytes>;

  Sha1() { reset(); }

  /// Re-initialize to the empty-message state.
  void reset();

  /// Absorb `len` bytes.
  void update(const void* data, std::size_t len);

  /// Finalize and return the digest. The hasher is left reset, ready to
  /// absorb a new message.
  Digest finish();

  /// One-shot digest. Messages of at most 55 bytes (one padded block, e.g.
  /// UTS's 24-byte child derivation) take a fused single-compression path.
  static Digest hash(const void* data, std::size_t len);

  /// Lowercase hex rendering of a digest (for tests and debugging).
  static std::string hex(const Digest& d);

 private:
  std::array<std::uint32_t, 5> state_{};
  std::uint64_t total_bytes_ = 0;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
};

}  // namespace scioto
