// The packet classifier: the paper's staged tuple-space search (§3.2, §5)
// with caching-aware megaflow generation. All four optimizations — tuple
// priority sorting §5.2, staged lookup §5.3, prefix tracking §5.4, metadata
// partitioning §5.5 — live in the engine (staged_tss.h). When a lookup is
// given a FlowWildcards accumulator, every key bit the decision depended on
// is OR-ed into it, so the megaflows generated from it are sound.
//
// With ClassifierConfig::tenant_partition (DESIGN.md §14), the structural
// defense against tuple-space explosion attacks (Csikor et al.), rules whose
// match is exact on metadata — the logical-pipeline tenant tag (§5.5) — go
// to one engine per metadata value; everything else (no metadata match, or
// a partial-bits one) lives in a shared engine that every lookup consults.
// A lookup therefore probes exactly two engines: shared + the packet's own
// tenant. An adversarial tenant inflating its subtable count makes ITS OWN
// lookups slower, but cannot add a single probe to any other tenant's
// sequence. The partition skip is sound for the §5.5 reason: a rule exact on
// metadata != the packet's can never match, and the routing consulted the
// full metadata word, so metadata is marked exact in the wildcards.
// Megaflows generated under partitioning are consequently tenant-specific,
// which also keeps the KERNEL cache's masks from being shared across
// tenants. With partitioning off the shared engine holds every rule.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "classifier/rule.h"
#include "classifier/staged_tss.h"
#include "packet/flow_key.h"

namespace ovs {

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
  // concurrently as long as no thread is mutating the classifier.
  const Rule* lookup(const FlowKey& pkt, FlowWildcards* wc = nullptr,
                     uint32_t* n_searched = nullptr) const noexcept;

  size_t rule_count() const noexcept;
  size_t tuple_count() const noexcept;  // distinct masks ("subtables"),
                                        // summed across partitions
  // Structural bound on subtables a single lookup may probe: every subtable
  // when flat, shared + the worst tenant when partitioned. The tuple-
  // explosion detector and bench read this.
  size_t max_probe_depth() const noexcept;

  // Partition shape (tenant_partition only; 0 tenants when flat, and then
  // shared_subtables() == tuple_count()).
  size_t tenant_count() const noexcept { return tenants_.size(); }
  size_t tenant_subtables(uint64_t tenant) const noexcept;
  size_t shared_subtables() const noexcept { return shared_.mask_count(); }

  using Stats = ClassifierStats;
  Stats stats() const noexcept;
  void reset_stats() const noexcept;

  // Visits every rule (dump order is unspecified).
  void for_each_rule(const std::function<void(Rule*)>& f) const;

 private:
  // The engine an exact-metadata rule lives in under partitioning, or
  // nullptr if its tenant has none. Deterministic from the match alone, so
  // remove() re-derives the partition without extra per-rule state.
  const StagedTssEngine* tenant_engine(const Match& match) const noexcept;
  bool is_tenant_rule(const Match& match) const noexcept {
    return cfg_.tenant_partition && match.mask.is_exact(FieldId::kMetadata);
  }
  const Rule* lookup_partitioned(const FlowKey& pkt, FlowWildcards* wc,
                                 uint32_t* n_searched) const noexcept;

  ClassifierConfig cfg_;
  StagedTssEngine shared_;
  // Ordered so for_each_rule and stats aggregation are deterministic.
  std::map<uint64_t, std::unique_ptr<StagedTssEngine>> tenants_;
  // Under partitioning each engine counts its own probes; whole lookups are
  // counted here so stats().lookups is not doubled by the two-engine probe.
  mutable std::atomic<uint64_t> partitioned_lookups_{0};
};

}  // namespace ovs
