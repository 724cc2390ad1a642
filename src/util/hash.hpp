// Word-at-a-time hash mixers shared by fingerprints and signature chains.
//
// Doubles are hashed by bit pattern, not rounded value, so two inputs hash
// equal exactly when they are bit-identical. The constants are frozen:
// committed goldens, pins and fleet chains depend on every bit.
#pragma once

#include <bit>
#include <cstdint>

namespace rwc::util {

/// Murmur3-finalizer-style mixer: min-cost solver fingerprints,
/// replay/serve signature chains, epoch checksums and the fleet chain.
inline std::uint64_t mix64(std::uint64_t hash, std::uint64_t value) {
  value *= 0xff51afd7ed558ccdULL;
  value ^= value >> 33;
  hash = (hash ^ value) * 0x2545f4914f6cdd1dULL;
  return hash ^ (hash >> 29);
}

inline std::uint64_t mix_double(std::uint64_t hash, double value) {
  return mix64(hash, std::bit_cast<std::uint64_t>(value));
}

/// Boost-style combine with a murmur finalizer: dataplane state hashes and
/// the xcheck / dataplane-sweep chains.
inline std::uint64_t hash_combine(std::uint64_t hash, std::uint64_t value) {
  hash ^= value + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2);
  hash *= 0xff51afd7ed558ccdULL;
  hash ^= hash >> 33;
  return hash;
}

inline std::uint64_t hash_combine(std::uint64_t hash, double value) {
  return hash_combine(hash, std::bit_cast<std::uint64_t>(value));
}

}  // namespace rwc::util
