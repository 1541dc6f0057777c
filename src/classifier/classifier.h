// Packet classifier facade over pluggable lookup engines.
//
// The paper's primary contribution (§3.2, §5) is the staged tuple-space-
// search classifier with caching-aware megaflow generation. This header now
// fronts that algorithm with a backend seam (mirroring datapath/dp_backend.h)
// so alternative lookup engines can be raced against it under identical
// call sites, differential fuzzing, and benchmarks:
//
//   * kStagedTss     — the paper's TSS with all four optimizations (tuple
//     priority sorting §5.2, staged lookup §5.3, prefix tracking §5.4,
//     metadata partitioning §5.5). The reference engine.
//   * kChainedTuple  — TupleChain-style: subtables totally ordered by
//     mask subsumption form chains; a per-level guide set over full-masked
//     rule hashes lets a lookup stop a whole chain on one miss instead of
//     probing every mask (see chain_engine.h for the soundness argument);
//     it also carries a structure-of-arrays lookup_batch path.
//
// All engines implement the same caching-aware contract: when a lookup is
// given a FlowWildcards accumulator, every key bit the decision depended on
// is OR-ed into it, so megaflows generated from any engine are sound.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "classifier/rule.h"
#include "packet/flow_key.h"

namespace ovs {

class ClassifierBackend;

enum class ClassifierEngine : uint8_t {
  kStagedTss = 0,   // paper baseline (§5)
  kChainedTuple,    // mask-subsumption chains with guide sets
};

const char* classifier_engine_name(ClassifierEngine engine) noexcept;

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

  // Lookup engine behind the seam. Defaults to the paper baseline; the
  // trailing position keeps the historical brace-init below (and every
  // aggregate-init call site) valid.
  ClassifierEngine engine = ClassifierEngine::kStagedTss;

  // Per-tenant hard partitioning (DESIGN.md §14): rules whose match is
  // exact on metadata are segregated into one inner engine per metadata
  // value; rules without an exact metadata match share a common inner
  // engine. A lookup probes only the shared engine plus the packet's own
  // tenant engine, so one tenant's subtable explosion cannot lengthen
  // another tenant's probe sequence. Semantics-preserving: a rule exact on
  // metadata != the packet's metadata can never match, and the partition
  // routing is recorded by marking metadata exact in the wildcards (the
  // same soundness argument as §5.5 metadata partitions). Off by default
  // (bit-for-bit the flat engine).
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

// Cumulative lookup statistics (reset with reset_stats). Returned by value:
// the engine-internal counters are atomics shared by concurrent readers.
struct ClassifierStats {
  uint64_t lookups = 0;
  uint64_t tuples_searched = 0;      // subtables whose hash tables were probed
  uint64_t tuples_skipped = 0;       // skipped via tries/partitions/chains
  uint64_t stage_terminations = 0;   // staged-lookup early misses
  uint64_t guide_probes = 0;         // kChainedTuple: chain guide-set probes
};

class Classifier {
 public:
  explicit Classifier(ClassifierConfig cfg = {});
  ~Classifier();

  Classifier(const Classifier&) = delete;
  Classifier& operator=(const Classifier&) = delete;

  const ClassifierConfig& config() const noexcept { return cfg_; }

  // Inserts a rule. The rule must outlive its membership and must not be a
  // duplicate of an existing (match, priority) pair (see find_exact).
  void insert(Rule* rule);

  // Removes a rule previously inserted. O(1) plus index maintenance.
  void remove(Rule* rule) noexcept;

  // Finds the rule with identical match and priority, if any.
  Rule* find_exact(const Match& match, int32_t priority) const noexcept;

  // Returns the highest-priority matching rule (or the first match found in
  // first_match_only mode), or nullptr. If `wc` is non-null, all consulted
  // key bits are OR-ed into it — the caching-aware classification algorithm.
  // If `n_searched` is non-null it receives the number of subtables whose
  // hash tables were probed by THIS call (a thread-safe alternative to
  // diffing the cumulative stats).
  //
  // The lookup path is const and data-race-free: it mutates nothing but the
  // atomic statistics counters, so any number of reader threads may call it
  // concurrently as long as no thread is mutating the classifier (RCU-style
  // single-writer publication; see datapath/mt_datapath.h).
  const Rule* lookup(const FlowKey& pkt, FlowWildcards* wc = nullptr,
                     uint32_t* n_searched = nullptr) const noexcept;

  // Classifies `n` keys in one call: out[i] receives what lookup(keys[i])
  // would return, and (if `wcs` is non-null) wcs[i] accumulates exactly the
  // bits a scalar lookup would have consulted for keys[i]. Engines without a
  // native batch path fall back to a scalar loop; kChainedTuple runs its
  // structure-of-arrays probe pipeline. Same thread-safety as lookup().
  void lookup_batch(const FlowKey* keys, size_t n, const Rule** out,
                    FlowWildcards* wcs = nullptr) const noexcept;

  size_t rule_count() const noexcept;
  size_t tuple_count() const noexcept;  // distinct masks ("subtables")
  size_t n_subtables() const noexcept;  // per-mask hash tables maintained
  // Structural bound on subtables a single lookup may probe (see
  // cls_backend.h); the tuple-explosion detector and bench read this.
  size_t max_probe_depth() const noexcept;

  using Stats = ClassifierStats;
  Stats stats() const noexcept;
  void reset_stats() const noexcept;

  // Visits every rule (dump order is unspecified).
  void for_each_rule(const std::function<void(Rule*)>& f) const;

  ClassifierBackend& backend() noexcept { return *backend_; }
  const ClassifierBackend& backend() const noexcept { return *backend_; }

 private:
  ClassifierConfig cfg_;
  std::unique_ptr<ClassifierBackend> backend_;
};

}  // namespace ovs
