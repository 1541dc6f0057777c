// Miniflow-style sparse hashing over mask-active flow words, shared by every
// structure that keys a hash table by a masked FlowKey: classifier subtables
// and the NIC offload table's mask groups. Real flow masks touch 2-5 of the
// 15 key words, so each consumer precomputes which words carry mask bits
// once per mask and then hashes/compares only those.
//
// The schema stores (word index, mask word) pairs in ascending word order,
// with per-stage offsets so the classifier's staged lookup (§5.3) can hash
// stage k incrementally on top of stage k-1. Hashing is lane-parallel
// (util/hash.h): each active word contributes one independent lane to a
// summed accumulator, and a probe finishes the accumulator once. Stage k's
// accumulator is stage k-1's plus stage k's lanes, so summing hash_stage
// over every stage and finishing gives exactly full_hash.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "packet/flow_key.h"
#include "util/hash.h"

namespace ovs {

// Canonical hash of a whole mask, used by every mask -> subtable index.
inline uint64_t flow_mask_hash(const FlowMask& mask) noexcept {
  return hash_words(mask.w.data(), kFlowWords);
}

class MiniflowSchema {
 public:
  MiniflowSchema() { stage_off_.fill(0); }

  explicit MiniflowSchema(const FlowMask& mask) {
    stage_off_.fill(0);
    for (size_t s = 0, w = 0; s < kNumStages; ++s) {
      stage_off_[s] = static_cast<uint8_t>(words_.size());
      for (; w < kStageEnd[s]; ++w) {
        if (mask.w[w] == 0) continue;
        words_.push_back(static_cast<uint8_t>(w));
        mask_w_.push_back(mask.w[w]);
      }
    }
    stage_off_[kNumStages] = static_cast<uint8_t>(words_.size());
  }

  // Accumulator of stage `stage`'s masked words added onto `acc` (the
  // accumulator of the preceding stages). Empty stages return `acc`
  // unchanged. Probe or store hash_finish(acc), never `acc` itself.
  uint64_t hash_stage(const FlowWords& src, size_t stage,
                      uint64_t acc) const noexcept {
    for (size_t i = stage_off_[stage]; i < stage_off_[stage + 1]; ++i)
      acc += lane(i, src);
    return acc;
  }

  // Finished hash over every masked word; equals hash_finish of hash_stage
  // summed over all stages.
  uint64_t full_hash(const FlowWords& src) const noexcept {
    uint64_t acc = 0;
    for (size_t i = 0; i < words_.size(); ++i) acc += lane(i, src);
    return hash_finish(acc);
  }

  // Does `pkt` match `stored` under this mask? `stored` must be pre-masked
  // (Match::normalize guarantees it for rule keys), so only active words
  // need comparing.
  bool masked_equal(const FlowKey& pkt, const FlowKey& stored) const noexcept {
    for (size_t i = 0; i < words_.size(); ++i)
      if ((pkt.w[words_[i]] & mask_w_[i]) != stored.w[words_[i]]) return false;
    return true;
  }

 private:
  // Lane of active word `i` (the i-th entry of the flat array) for `src`.
  uint64_t lane(size_t i, const FlowWords& src) const noexcept {
    return flow_word_lane(words_[i], src.w[words_[i]] & mask_w_[i]);
  }

  std::vector<uint8_t> words_;    // ascending indices of mask-active words
  std::vector<uint64_t> mask_w_;  // parallel mask words
  std::array<uint8_t, kNumStages + 1> stage_off_;
};

}  // namespace ovs
