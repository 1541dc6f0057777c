#include "classifier/classifier.h"

#include <algorithm>
#include <cassert>

namespace ovs {

Classifier::Classifier(ClassifierConfig cfg) : cfg_(cfg), shared_(cfg) {}

Classifier::~Classifier() = default;

const StagedTssEngine* Classifier::tenant_engine(
    const Match& match) const noexcept {
  auto it = tenants_.find(match.key.get(FieldId::kMetadata));
  return it == tenants_.end() ? nullptr : it->second.get();
}

void Classifier::insert(Rule* rule) {
  assert(!rule->in_classifier());
  assert(find_exact(rule->match(), rule->priority()) == nullptr);
  if (!is_tenant_rule(rule->match())) {
    shared_.insert(rule);
    return;
  }
  auto& slot = tenants_[rule->match().key.get(FieldId::kMetadata)];
  if (!slot) slot = std::make_unique<StagedTssEngine>(cfg_);
  slot->insert(rule);
}

void Classifier::remove(Rule* rule) noexcept {
  assert(rule->in_classifier());
  if (!is_tenant_rule(rule->match())) {
    shared_.remove(rule);
    return;
  }
  auto it = tenants_.find(rule->match().key.get(FieldId::kMetadata));
  assert(it != tenants_.end());
  it->second->remove(rule);
  // Drop emptied tenant engines so tuple_count()/max_probe_depth() track
  // the live partition shape, as emptied subtables are destroyed.
  if (it->second->rule_count() == 0) tenants_.erase(it);
}

Rule* Classifier::find_exact(const Match& match,
                             int32_t priority) const noexcept {
  if (!is_tenant_rule(match)) return shared_.find_exact(match, priority);
  const StagedTssEngine* eng = tenant_engine(match);
  return eng == nullptr ? nullptr : eng->find_exact(match, priority);
}

const Rule* Classifier::lookup(const FlowKey& pkt, FlowWildcards* wc,
                               uint32_t* n_searched) const noexcept {
  if (!cfg_.tenant_partition) return shared_.lookup(pkt, wc, n_searched);
  return lookup_partitioned(pkt, wc, n_searched);
}

const Rule* Classifier::lookup_partitioned(const FlowKey& pkt,
                                           FlowWildcards* wc,
                                           uint32_t* n_searched) const noexcept {
  partitioned_lookups_.fetch_add(1, std::memory_order_relaxed);
  // The partition routing consults the packet's full metadata word, so the
  // megaflow must pin it (§5.5 soundness argument).
  if (wc != nullptr) wc->set_exact(FieldId::kMetadata);

  uint32_t searched = 0;
  uint32_t probe = 0;
  const Rule* best = shared_.lookup(pkt, wc, &probe);
  searched += probe;
  if (best == nullptr || !cfg_.first_match_only) {
    auto it = tenants_.find(pkt.get(FieldId::kMetadata));
    if (it != tenants_.end()) {
      probe = 0;
      const Rule* r = it->second->lookup(pkt, wc, &probe);
      searched += probe;
      if (r != nullptr && (best == nullptr || r->priority() > best->priority()))
        best = r;
    }
  }
  if (n_searched != nullptr) *n_searched = searched;
  return best;
}

size_t Classifier::rule_count() const noexcept {
  size_t n = shared_.rule_count();
  for (const auto& [id, eng] : tenants_) n += eng->rule_count();
  return n;
}

size_t Classifier::tuple_count() const noexcept {
  size_t n = shared_.mask_count();
  for (const auto& [id, eng] : tenants_) n += eng->mask_count();
  return n;
}

size_t Classifier::max_probe_depth() const noexcept {
  size_t worst_tenant = 0;
  for (const auto& [id, eng] : tenants_)
    worst_tenant = std::max(worst_tenant, eng->mask_count());
  return shared_.mask_count() + worst_tenant;
}

size_t Classifier::tenant_subtables(uint64_t tenant) const noexcept {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second->mask_count();
}

Classifier::Stats Classifier::stats() const noexcept {
  Stats sum = shared_.stats();
  if (!cfg_.tenant_partition) return sum;
  for (const auto& [id, eng] : tenants_) {
    const Stats s = eng->stats();
    sum.tuples_searched += s.tuples_searched;
    sum.tuples_skipped += s.tuples_skipped;
    sum.stage_terminations += s.stage_terminations;
  }
  // The two-engine probe would double-count lookups; report whole lookups.
  sum.lookups = partitioned_lookups_.load(std::memory_order_relaxed);
  return sum;
}

void Classifier::reset_stats() const noexcept {
  shared_.reset_stats();
  for (const auto& [id, eng] : tenants_) eng->reset_stats();
  partitioned_lookups_.store(0, std::memory_order_relaxed);
}

void Classifier::for_each_rule(const std::function<void(Rule*)>& f) const {
  shared_.for_each_rule(f);
  for (const auto& [id, eng] : tenants_) eng->for_each_rule(f);
}

}  // namespace ovs
