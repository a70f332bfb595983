// The armed word: one bit per observability session. Trace, metrics and
// lineage test their bit in active(), and every obs:: probe (obs/obs.hpp)
// reads the word with one relaxed load. Only the sessions' start()/stop()
// write it (release order), outside the SPMD region. Dependency-free, so
// trace, the lowest plane, includes it.
#pragma once

#include <atomic>
#include <cstdint>

namespace scioto::obs {

inline constexpr std::uint32_t kTrace = 1u << 0;
inline constexpr std::uint32_t kMetrics = 1u << 1;
inline constexpr std::uint32_t kLineage = 1u << 2;

inline std::atomic<std::uint32_t> g_armed{0};

inline std::uint32_t armed() {
  return g_armed.load(std::memory_order_relaxed);
}
inline void arm(std::uint32_t bit) {
  g_armed.fetch_or(bit, std::memory_order_release);
}
inline void disarm(std::uint32_t bit) {
  g_armed.fetch_and(~bit, std::memory_order_release);
}

}  // namespace scioto::obs
