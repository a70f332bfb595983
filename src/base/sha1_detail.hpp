// Internal: the SHA-1 block compression functions behind Sha1.
//
// Sha1 picks one of these once, at start-up, from CPUID; there is no way to
// choose at run time. They are exposed only so tests can check that the
// two paths agree bit for bit.
#pragma once

#include <cstdint>

namespace scioto::detail {

/// Absorbs one 64-byte block into the five-word state (FIPS 180-1 §7).
using Sha1Compress = void (*)(std::uint32_t* state, const std::uint8_t* block);

/// Portable scalar compression; runs everywhere.
void sha1_compress_portable(std::uint32_t* state, const std::uint8_t* block);

/// True when this CPU has the x86 SHA extensions (CPUID leaf 7 EBX bit 29)
/// plus the SSSE3/SSE4.1 shuffles the SHA-NI path uses.
bool sha1_shani_supported();

/// SHA-NI compression. Call only when sha1_shani_supported(); on other
/// architectures this is the portable function.
void sha1_compress_shani(std::uint32_t* state, const std::uint8_t* block);

}  // namespace scioto::detail
