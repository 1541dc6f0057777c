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

bool Classifier::holds(const Rule& rule) const noexcept {
  if (shared_.holds(rule)) return true;
  if (!is_tenant_rule(rule.match())) return false;
  const StagedTssEngine* eng = tenant_engine(rule.match());
  return eng != nullptr && eng->holds(rule);
}

const Rule* Classifier::lookup(const FlowKey& pkt, FlowWildcards* wc,
                               LookupCounts* counts) const noexcept {
  if (!cfg_.tenant_partition) return shared_.lookup(pkt, wc, counts);
  return lookup_partitioned(pkt, wc, counts);
}

const Rule* Classifier::lookup_partitioned(const FlowKey& pkt,
                                           FlowWildcards* wc,
                                           LookupCounts* counts) const noexcept {
  // The partition routing consults the packet's full metadata word, so the
  // megaflow must pin it (§5.5 soundness argument).
  if (wc != nullptr) wc->set_exact(FieldId::kMetadata);

  LookupCounts sum, probe;
  const Rule* best = shared_.lookup(pkt, wc, &probe);
  sum += probe;
  if (best == nullptr || !cfg_.first_match_only) {
    auto it = tenants_.find(pkt.get(FieldId::kMetadata));
    if (it != tenants_.end()) {
      const Rule* r = it->second->lookup(pkt, wc, &probe);
      sum += probe;
      if (r != nullptr && (best == nullptr || r->priority() > best->priority()))
        best = r;
    }
  }
  if (counts != nullptr) *counts = sum;
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

void Classifier::for_each_rule(const std::function<void(Rule*)>& f) const {
  shared_.for_each_rule(f);
  for (const auto& [id, eng] : tenants_) eng->for_each_rule(f);
}

}  // namespace ovs
