// Per-tenant partition wrapper (ClassifierConfig::tenant_partition,
// DESIGN.md §14): the structural defense against tuple-space explosion
// attacks (Csikor et al.). Rules whose match is exact on metadata — the
// logical-pipeline tenant tag (§5.5) — are segregated into one inner
// engine per metadata value; everything else (no metadata match, or a
// partial-bits one) lives in a shared inner engine that every lookup must
// still consult.
//
// A lookup therefore probes exactly two engines: shared + the packet's own
// tenant. An adversarial tenant inflating its subtable count makes ITS OWN
// lookups slower, but cannot add a single probe to any other tenant's
// sequence — the per-lookup budget is n_subtables(shared) + the victim's
// own subtables, independent of the attacker.
//
// Soundness of the partition skip mirrors §5.5: a rule exact on metadata
// != the packet's metadata can never match, and the routing decision
// consulted the full metadata word, so metadata is marked exact in the
// wildcards. Megaflows generated through the wrapper are consequently
// tenant-specific, which is also what keeps the KERNEL cache's masks from
// being shared across tenants.
//
// The wrapper composes with any inner engine: the factory builds inner
// backends from the same config with tenant_partition cleared, so the
// staged and chained engines both honor the partition semantics.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>

#include "classifier/cls_backend.h"

namespace ovs {

class TenantPartitionEngine final : public ClassifierBackend {
 public:
  explicit TenantPartitionEngine(const ClassifierConfig& cfg);
  ~TenantPartitionEngine() override;

  void insert(Rule* rule) override;
  void remove(Rule* rule) noexcept override;
  Rule* find_exact(const Match& match, int32_t priority) const noexcept
      override;
  const Rule* lookup(const FlowKey& pkt, FlowWildcards* wc,
                     uint32_t* n_searched) const noexcept override;

  size_t rule_count() const noexcept override;
  size_t mask_count() const noexcept override;
  size_t n_subtables() const noexcept override;
  size_t max_probe_depth() const noexcept override;

  ClassifierStats stats() const noexcept override;
  void reset_stats() const noexcept override;

  void for_each_rule(const std::function<void(Rule*)>& f) const override;

  // Partition-shape introspection for tests and the explosion bench.
  size_t tenant_count() const noexcept { return tenants_.size(); }
  size_t tenant_subtables(uint64_t tenant) const noexcept;
  size_t shared_subtables() const noexcept { return shared_->n_subtables(); }

 private:
  // Routing predicate: exact-metadata rules belong to their tenant's
  // engine; everything else is shared. Deterministic from the match alone,
  // so remove() re-derives the partition without extra per-rule state.
  const ClassifierBackend* route(const Match& match) const noexcept;
  ClassifierBackend* route(const Match& match) noexcept;

  ClassifierConfig inner_cfg_;  // cfg with tenant_partition cleared
  std::unique_ptr<ClassifierBackend> shared_;
  // Ordered so for_each_rule and stats aggregation are deterministic.
  std::map<uint64_t, std::unique_ptr<ClassifierBackend>> tenants_;

  // The inner engines count their own probes; the wrapper only counts
  // whole lookups so stats().lookups is not doubled by the two-engine
  // probe.
  mutable std::atomic<uint64_t> lookups_{0};
};

}  // namespace ovs
