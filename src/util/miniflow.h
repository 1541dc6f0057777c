// Miniflow-style sparse hashing over mask-active flow words, shared by every
// structure that keys a hash table by a masked FlowKey: classifier subtables
// (all engines), the sharded datapath's megaflow tuples, and the EMC
// tuple-index hints. Real flow masks touch 2-5 of the 15 key words, so each
// consumer precomputes which words carry mask bits once per mask and then
// hashes/compares only those.
//
// The schema stores (word index, mask word) pairs in ascending word order,
// with per-stage offsets so the classifier's staged lookup (§5.3) can hash
// stage k incrementally on top of stage k-1 — iterating the flat array from
// the start to a stage boundary is exactly the chained per-stage hash.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "packet/flow_key.h"
#include "util/hash.h"

namespace ovs {

// Canonical hash of a whole mask, used by every engine's mask -> subtable
// index.
inline uint64_t flow_mask_hash(const FlowMask& mask) noexcept {
  return hash_words(mask.w.data(), kFlowWords);
}

// Is every bit of `a` also set in `b`? Distinct masks with a ⊆ b are the
// subsumption edges the chained-tuple engine orders subtables by.
inline bool flow_mask_subset(const FlowMask& a, const FlowMask& b) noexcept {
  for (size_t w = 0; w < kFlowWords; ++w)
    if ((a.w[w] & ~b.w[w]) != 0) return false;
  return true;
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

  // Hash of stage `stage`'s masked words, chained onto `basis` (the hash of
  // the preceding stages). Empty stages return `basis` unchanged.
  uint64_t hash_stage(const FlowWords& src, size_t stage,
                      uint64_t basis) const noexcept {
    uint64_t h = basis;
    for (size_t i = stage_off_[stage]; i < stage_off_[stage + 1]; ++i)
      h = hash_add64(h, src.w[words_[i]] & mask_w_[i]);
    return h;
  }

  // Hash over every masked word; equals chaining hash_stage over all stages.
  uint64_t full_hash(const FlowWords& src) const noexcept {
    uint64_t h = 0;
    for (size_t i = 0; i < words_.size(); ++i)
      h = hash_add64(h, src.w[words_[i]] & mask_w_[i]);
    return h;
  }

  // Does `pkt` match `stored` under this mask? `stored` must be pre-masked
  // (Match::normalize guarantees it for rule keys), so only active words
  // need comparing.
  bool masked_equal(const FlowKey& pkt, const FlowKey& stored) const noexcept {
    for (size_t i = 0; i < words_.size(); ++i)
      if ((pkt.w[words_[i]] & mask_w_[i]) != stored.w[words_[i]]) return false;
    return true;
  }

  // Flat (word index, mask word) access for structure-of-arrays batch
  // hashing: callers iterate [0, n_words()) with the key loop innermost, so
  // one mask word is applied to a whole batch at a time.
  uint8_t word(size_t i) const noexcept { return words_[i]; }
  uint64_t mask_word(size_t i) const noexcept { return mask_w_[i]; }
  size_t n_words() const noexcept { return words_.size(); }

 private:
  std::vector<uint8_t> words_;    // ascending indices of mask-active words
  std::vector<uint64_t> mask_w_;  // parallel mask words
  std::array<uint8_t, kNumStages + 1> stage_off_;
};

}  // namespace ovs
