// Staged tuple-space-search engine — the paper's classifier (§5): one hash
// table per mask, walked stage by stage with tuple priority sorting, prefix
// tries and metadata partitions in front. Classifier (classifier.h) runs one
// of these, or one per tenant plus a shared one under tenant partitioning.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "classifier/rule.h"
#include "packet/flow_key.h"
#include "util/flat_hash.h"
#include "util/miniflow.h"
#include "util/prefix_trie.h"

namespace ovs {

struct ClassifierConfig {
  bool priority_sorting = true;
  bool staged_lookup = true;
  bool prefix_tracking = true;       // IPv4/IPv6 address tries
  bool port_prefix_tracking = true;  // L4 port tries (§5.4 last paragraph)
  bool partitioning = true;          // metadata partitions (§5.5)
  // Megaflow-cache mode: entries are disjoint and priority-free, so a lookup
  // "can terminate as soon as it finds any match" (§4.2).
  bool first_match_only = false;
  // Injects the §7.1 outlier bug: any rule matching ICMP type/code poisons
  // the L4 port tries, forcing full port unwildcarding. Off by default.
  bool icmp_port_trie_bug = false;

  // Per-tenant hard partitioning (DESIGN.md §14): rules whose match is
  // exact on metadata are segregated into one engine per metadata value;
  // rules without an exact metadata match share a common engine. A lookup
  // probes only the shared engine plus the packet's own tenant engine, so
  // one tenant's subtable explosion cannot lengthen another tenant's probe
  // sequence. Semantics-preserving: a rule exact on metadata != the
  // packet's metadata can never match, and the partition routing is
  // recorded by marking metadata exact in the wildcards (the same soundness
  // argument as §5.5 metadata partitions). Off by default (bit-for-bit one
  // flat engine). Read by Classifier only.
  bool tenant_partition = false;

  static ClassifierConfig all_disabled() {
    return ClassifierConfig{false, false, false, false, false, false, false};
  }
};

// Fields that have a prefix trie.
inline constexpr std::array<FieldId, 6> kTrieFields = {
    FieldId::kNwSrc,   FieldId::kNwDst, FieldId::kIpv6Src,
    FieldId::kIpv6Dst, FieldId::kTpSrc, FieldId::kTpDst};
inline constexpr size_t kNumTrieFields = kTrieFields.size();

// What one lookup did, counted by the caller's own struct: a lookup
// writes nothing shared, so concurrent readers never contend on counters.
struct LookupCounts {
  uint32_t searched = 0;            // subtables whose hash tables were probed
  uint32_t skipped = 0;             // skipped via tries/partitions
  uint32_t stage_terminations = 0;  // staged-lookup early misses

  void operator+=(const LookupCounts& o) noexcept {
    searched += o.searched;
    skipped += o.skipped;
    stage_terminations += o.stage_terminations;
  }
};

class StagedTssEngine;

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
  // Empties the hash tables of a tuple whose last rule went, keeping their
  // storage: a refill with the same mask then allocates nothing.
  void reset_tables() noexcept;

  // The final table's same-masked-key discipline: rules with identical
  // masked keys hang off one bucket in descending priority order, so a
  // lookup's single hash probe lands on the highest-priority candidate.
  // Equal priorities append after existing rules.
  void chain_insert(Rule* rule);
  void chain_remove(Rule* rule) noexcept;

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

  const StagedTssEngine* engine_ = nullptr;  // the engine that made it
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

  // Rule count per priority, for pri_max maintenance. An emptied tuple
  // keeps the node of its last priority (count 0), so a refill at that
  // priority — every megaflow is priority 0 — allocates nothing.
  std::map<int32_t, uint32_t> prio_counts_;
  int32_t pri_max_ = 0;

  std::array<int, kNumTrieFields> trie_plen_{};
};

class StagedTssEngine {
 public:
  explicit StagedTssEngine(const ClassifierConfig& cfg);
  ~StagedTssEngine();

  StagedTssEngine(const StagedTssEngine&) = delete;
  StagedTssEngine& operator=(const StagedTssEngine&) = delete;

  void insert(Rule* rule);
  void remove(Rule* rule) noexcept;
  Rule* find_exact(const Match& match, int32_t priority) const noexcept;
  // Is `rule` in this engine? O(1).
  bool holds(const Rule& rule) const noexcept {
    return rule.sub_ != nullptr && rule.sub_->engine_ == this;
  }
  // `counts`, when given, receives this call's counts.
  const Rule* lookup(const FlowKey& pkt, FlowWildcards* wc,
                     LookupCounts* counts) const noexcept;

  size_t rule_count() const noexcept { return n_rules_; }
  size_t mask_count() const noexcept { return tuples_.size(); }

  void for_each_rule(const std::function<void(Rule*)>& f) const;

 private:
  struct TrieCtx;  // per-lookup lazily computed trie results

  // Live or spare tuple with this mask.
  Tuple* find_tuple(const FlowMask& mask) const noexcept;
  // The live tuple for `mask`: an existing one, a spare brought back, or a
  // new one.
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

  // The lookup, compiled with and without the trie step: an engine with
  // every trie off (the kernel classifier) builds no trie context.
  template <bool kTries>
  const Rule* lookup_impl(const FlowKey& pkt, FlowWildcards* wc,
                          LookupCounts* counts) const noexcept;

  // Re-sorts `sorted_` by pri_max. Called from the mutators (insert/remove)
  // so that lookup writes nothing.
  void sort_tuples_if_dirty() noexcept;

  const ClassifierConfig cfg_;  // fixed: trie upkeep depends on it
  const bool any_trie_;         // some trie is enabled under cfg_
  std::vector<std::unique_ptr<Tuple>> tuples_;       // owned, live
  std::vector<Tuple*> sorted_;                       // by pri_max desc
  // Emptied tuples, oldest first, still indexed by mask in tuples_by_mask_
  // but out of tuples_ and sorted_ (so mask_count() and the probe order
  // ignore them). When a mask flaps — its last megaflow idles out and the
  // next install brings it back — the install reuses the tuple's storage
  // instead of rebuilding it. Bounded; the oldest spare is freed first.
  std::vector<std::unique_ptr<Tuple>> spare_;
  static constexpr size_t kMaxSpareTuples = 16;
  bool sort_dirty_ = false;
  HashBuckets<Tuple*> tuples_by_mask_;
  size_t n_rules_ = 0;

  std::array<PrefixTrie, kNumTrieFields> tries_;
  std::array<size_t, kNumTrieFields> trie_icmp_rules_{};  // bug-mode poison
};

}  // namespace ovs
