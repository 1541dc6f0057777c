// Staged tuple-space-search engine — the paper's classifier (§5) and the
// reference ClassifierConfig::engine (kStagedTss): one hash table per mask,
// walked stage by stage with tuple priority sorting, prefix tries and
// metadata partitions in front.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "classifier/cls_backend.h"
#include "classifier/rule_links.h"
#include "packet/flow_key.h"
#include "util/flat_hash.h"
#include "util/miniflow.h"
#include "util/prefix_trie.h"

namespace ovs {

// One hash table per unique mask ("subtable").
class Tuple {
 public:
  explicit Tuple(const FlowMask& mask);

  const FlowMask& mask() const noexcept { return mask_; }
  int32_t pri_max() const noexcept { return pri_max_; }
  size_t size() const noexcept { return n_rules_; }
  bool empty() const noexcept { return n_rules_ == 0; }

  // Prefix length of each trie field in this mask; -1 if non-prefix, 0 if
  // the field is not matched.
  int trie_plen(size_t trie_idx) const noexcept { return trie_plen_[trie_idx]; }

  // Number of stages this tuple uses (1 + index of last non-empty stage).
  size_t n_stages() const noexcept { return n_stages_; }

 private:
  friend class StagedTssEngine;

  void insert(Rule* rule);
  void remove(Rule* rule) noexcept;

  uint64_t hash_stage(const FlowWords& src, size_t stage,
                      uint64_t basis) const noexcept {
    return schema_.hash_stage(src, stage, basis);
  }
  uint64_t full_hash(const FlowWords& src) const noexcept {
    return schema_.full_hash(src);
  }

  // Staged lookup. On return *stage_searched is the index of the last stage
  // consulted (== n_stages_-1 when the final rule table was probed).
  const Rule* lookup(const FlowKey& pkt, bool staged,
                     size_t* stage_searched) const noexcept;

  // Metadata partition support.
  bool partitions_metadata() const noexcept { return partitions_metadata_; }
  bool partition_contains(uint64_t metadata) const noexcept {
    return metadata_values_.contains(hash_mix64(metadata));
  }

  void recompute_pri_max() noexcept;

  FlowMask mask_;
  MiniflowSchema schema_;
  size_t n_stages_ = 1;
  bool partitions_metadata_ = false;

  // Final table: masked key hash -> chain of rules (descending priority).
  HashBuckets<Rule*> rules_;
  size_t n_rules_ = 0;

  // Intermediate stage membership sets (stages [0, n_stages_-1)).
  std::array<HashCounter, kNumStages - 1> stage_sets_;

  // Metadata values present among rules (only if partitions_metadata_).
  HashCounter metadata_values_;

  // Rule count per priority, for pri_max maintenance.
  std::map<int32_t, uint32_t> prio_counts_;
  int32_t pri_max_ = 0;

  std::array<int, kNumTrieFields> trie_plen_{};
};

class StagedTssEngine final : public ClassifierBackend {
 public:
  explicit StagedTssEngine(const ClassifierConfig& cfg);
  ~StagedTssEngine() override;

  void insert(Rule* rule) override;
  void remove(Rule* rule) noexcept override;
  Rule* find_exact(const Match& match, int32_t priority) const noexcept
      override;
  const Rule* lookup(const FlowKey& pkt, FlowWildcards* wc,
                     uint32_t* n_searched) const noexcept override;

  size_t rule_count() const noexcept override { return n_rules_; }
  size_t mask_count() const noexcept override { return tuples_.size(); }

  ClassifierStats stats() const noexcept override;
  void reset_stats() const noexcept override;

  void for_each_rule(const std::function<void(Rule*)>& f) const override;

 private:
  struct TrieCtx;  // per-lookup lazily computed trie results

  Tuple* find_tuple(const FlowMask& mask) const noexcept;
  Tuple* get_tuple(const FlowMask& mask);

  // Is the trie of field `f` in use under this config (ports and addresses
  // are switched separately)? Disabled tries are neither kept nor read.
  bool trie_enabled(FieldId f) const noexcept;

  // Trie bookkeeping on rule insert/remove, for enabled tries only.
  void trie_update(const Rule& rule, bool add);

  // Returns true if `tuple` can be skipped for `pkt` per the tries; updates
  // wildcards with the prefix bits that justified the skip.
  bool check_tries(const Tuple& tuple, const FlowKey& pkt, TrieCtx& ctx,
                   FlowWildcards* wc) const noexcept;

  // Re-sorts `sorted_` by pri_max. Called from the mutators (insert/remove)
  // so that lookup never writes anything but its atomic counters.
  void sort_tuples_if_dirty() noexcept;

  struct AtomicStats {
    std::atomic<uint64_t> lookups{0};
    std::atomic<uint64_t> tuples_searched{0};
    std::atomic<uint64_t> tuples_skipped{0};
    std::atomic<uint64_t> stage_terminations{0};
  };

  const ClassifierConfig cfg_;  // fixed: trie upkeep depends on it
  std::vector<std::unique_ptr<Tuple>> tuples_;       // owned
  std::vector<Tuple*> sorted_;                       // by pri_max desc
  bool sort_dirty_ = false;
  HashBuckets<Tuple*> tuples_by_mask_;
  size_t n_rules_ = 0;

  std::array<PrefixTrie, kNumTrieFields> tries_;
  std::array<size_t, kNumTrieFields> trie_icmp_rules_{};  // bug-mode poison

  mutable AtomicStats stats_;
};

}  // namespace ovs
