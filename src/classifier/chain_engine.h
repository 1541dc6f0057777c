// TupleChain-style chained-tuple engine (kChainedTuple).
//
// Subtables whose masks are totally ordered by subsumption (M0 ⊂ M1 ⊂ … ⊂
// Mk) are linked into a *chain*, coarsest mask first. Each chain level
// carries a *guide set*: the level-mask hashes of every rule at that level
// or deeper in the chain. Because Mi ⊆ Mj for j ≥ i, a packet that matches
// a level-j rule must agree with that rule on all Mi bits, so its level-i
// hash is in level i's guide. Contrapositive: a guide miss at level i
// proves no rule at level i or deeper matches, and the whole chain suffix
// is cut after one probe — having consulted exactly the Mi bits, which is
// what the megaflow wildcards accumulate for the cut.
//
// A lookup therefore walks chains instead of masks: with M masks grouped
// into C chains (C ≪ M for prefix-structured tables), the per-packet probe
// count drops from O(M) to O(C + matching-chain depth). Each level also
// tracks suffix_pri_max (max rule priority at this level or deeper) so
// tuple priority sorting (§5.2) cuts within a chain, not just between them.
//
// Updates stay O(1) hash work per level above the rule's own, but chain
// membership is greedy first-fit at subtable creation: heavily adversarial
// mask-churn can fragment chains (the RVH line of work addresses exactly
// this; see bench_classifier_scale's churn phase for the measured cost).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "classifier/cls_backend.h"
#include "util/flat_hash.h"

namespace ovs {

class ChainedTupleEngine final : public ClassifierBackend {
 public:
  explicit ChainedTupleEngine(const ClassifierConfig& cfg);
  ~ChainedTupleEngine() override;

  void insert(Rule* rule) override;
  void remove(Rule* rule) noexcept override;
  Rule* find_exact(const Match& match, int32_t priority) const noexcept
      override;
  const Rule* lookup(const FlowKey& pkt, FlowWildcards* wc,
                     uint32_t* n_searched) const noexcept override;
  void lookup_batch(const FlowKey* keys, size_t n, const Rule** out,
                    FlowWildcards* wcs) const noexcept override;

  size_t rule_count() const noexcept override { return n_rules_; }
  size_t mask_count() const noexcept override { return subs_.size(); }

  ClassifierStats stats() const noexcept override;
  void reset_stats() const noexcept override;

  void for_each_rule(const std::function<void(Rule*)>& f) const override;

  // Chain-shape introspection for tests and the scale benchmark.
  size_t chain_count() const noexcept { return chains_.size(); }
  size_t max_chain_length() const noexcept;

  // A lookup pays at most one guide probe per non-matching chain and walks
  // the matching chain to its depth.
  size_t max_probe_depth() const noexcept override {
    return chains_.empty() ? 0 : chains_.size() + max_chain_length() - 1;
  }

  // SoA batch slice width (see batch_block).
  static constexpr size_t kBatchBlock = 16;

 private:
  struct Sub;
  struct Chain;

  // One <= kBatchBlock slice of the SoA batch pipeline.
  void batch_block(const FlowKey* keys, size_t m, const Rule** out,
                   FlowWildcards* wcs) const noexcept;

  Sub* find_sub(const FlowMask& mask) const noexcept;
  Sub* get_sub(const FlowMask& mask);
  void drop_sub(Sub* s) noexcept;
  // Recomputes suffix_pri_max along `c` and marks the chain order dirty if
  // the chain's headline priority moved.
  void refresh_chain(Chain* c) noexcept;
  void sort_chains_if_dirty() noexcept;

  struct AtomicStats {
    std::atomic<uint64_t> lookups{0};
    std::atomic<uint64_t> tuples_searched{0};
    std::atomic<uint64_t> tuples_skipped{0};
    std::atomic<uint64_t> guide_probes{0};
  };

  ClassifierConfig cfg_;
  std::vector<std::unique_ptr<Sub>> subs_;     // owned subtables
  std::vector<std::unique_ptr<Chain>> chains_; // owned chains
  std::vector<Chain*> sorted_;                 // by chain pri_max desc
  bool sort_dirty_ = false;
  HashBuckets<Sub*> by_mask_;
  size_t n_rules_ = 0;

  mutable AtomicStats stats_;
};

}  // namespace ovs
