// 64-bit hashing primitives used throughout the classifier and caches.
//
// The classifier needs (a) a strong mixer so tuple-space hash tables behave
// uniformly under adversarial-looking inputs (sequential IPs, ports), and
// (b) *incremental* hashing: staged lookup (paper §5.3) computes the hash of
// stage k by extending the hash of stage k-1 rather than re-hashing from
// scratch ("hashes could be computed incrementally from one stage to the
// next").
//
// Flow-word hashing (the EMC key, every subtable probe) uses *lanes*: each
// word is mixed on its own by one keyed 64x64->128 multiply (hash_lane),
// and the lanes are summed into an accumulator. No lane depends on another,
// so a key's multiplies issue in parallel instead of forming one dependent
// chain. The accumulator is not a hash: every stored or probed value goes
// through hash_finish (one hash_mix64) once. Incrementality lives in the
// accumulator — stage k's accumulator is stage k-1's plus stage k's lanes.
//
// hash_add64/hash_words chain words serially; they serve hashes outside the
// datapath's per-packet probes (mask identity, conntrack keys, MAC table).
#pragma once

#include <cstddef>
#include <cstdint>

namespace ovs {

// SplitMix64 finalizer: a full-avalanche bijective mixer.
constexpr uint64_t hash_mix64(uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Extends running hash `basis` with one 64-bit word.
constexpr uint64_t hash_add64(uint64_t basis, uint64_t word) noexcept {
  return hash_mix64(basis ^ (word * 0xff51afd7ed558ccdULL));
}

// Hashes `n` words starting at `words`, extending `basis`. This is the
// incremental primitive: hash_words(w, 0, k2, b) ==
// hash_words(w + k1, 0, k2 - k1, hash_words(w, 0, k1, b)).
constexpr uint64_t hash_words(const uint64_t* words, size_t n,
                              uint64_t basis = 0) noexcept {
  uint64_t h = basis;
  for (size_t i = 0; i < n; ++i) h = hash_add64(h, words[i]);
  return h;
}

// One lane: `word` keyed by `lane_key` (distinct per word position, so equal
// values in different positions do not cancel), multiplied to 128 bits and
// folded so high input bits reach the low output bits and vice versa.
constexpr uint64_t hash_lane(uint64_t word, uint64_t lane_key) noexcept {
  const unsigned __int128 p =
      static_cast<unsigned __int128>(word ^ lane_key) * 0x9fb21c651e98df25ULL;
  return static_cast<uint64_t>(p) ^ static_cast<uint64_t>(p >> 64);
}

// Turns a lane accumulator into the hash that tables store and probe.
constexpr uint64_t hash_finish(uint64_t acc) noexcept {
  return hash_mix64(acc);
}

// Byte-string hash for identifiers and tests (FNV-1a then mixed).
constexpr uint64_t hash_bytes(const void* data, size_t n,
                              uint64_t basis = 0) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ULL ^ basis;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return hash_mix64(h);
}

}  // namespace ovs
