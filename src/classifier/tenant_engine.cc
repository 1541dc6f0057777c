#include "classifier/tenant_engine.h"

#include <algorithm>
#include <cassert>

namespace ovs {

namespace {

bool is_tenant_rule(const Match& match) noexcept {
  return match.mask.is_exact(FieldId::kMetadata);
}

uint64_t tenant_of(const Match& match) noexcept {
  return match.key.get(FieldId::kMetadata);
}

}  // namespace

TenantPartitionEngine::TenantPartitionEngine(const ClassifierConfig& cfg)
    : inner_cfg_(cfg) {
  inner_cfg_.tenant_partition = false;
  shared_ = make_classifier_backend(inner_cfg_);
}

TenantPartitionEngine::~TenantPartitionEngine() = default;

const ClassifierBackend* TenantPartitionEngine::route(
    const Match& match) const noexcept {
  if (!is_tenant_rule(match)) return shared_.get();
  auto it = tenants_.find(tenant_of(match));
  return it == tenants_.end() ? nullptr : it->second.get();
}

ClassifierBackend* TenantPartitionEngine::route(const Match& match) noexcept {
  return const_cast<ClassifierBackend*>(
      static_cast<const TenantPartitionEngine*>(this)->route(match));
}

void TenantPartitionEngine::insert(Rule* rule) {
  if (!is_tenant_rule(rule->match())) {
    shared_->insert(rule);
    return;
  }
  auto& slot = tenants_[tenant_of(rule->match())];
  if (!slot) slot = make_classifier_backend(inner_cfg_);
  slot->insert(rule);
}

void TenantPartitionEngine::remove(Rule* rule) noexcept {
  if (!is_tenant_rule(rule->match())) {
    shared_->remove(rule);
    return;
  }
  auto it = tenants_.find(tenant_of(rule->match()));
  assert(it != tenants_.end());
  it->second->remove(rule);
  // Drop emptied tenant engines so n_subtables()/max_probe_depth() track the
  // live partition shape, mirroring subtable destruction in the flat engines.
  if (it->second->rule_count() == 0) tenants_.erase(it);
}

Rule* TenantPartitionEngine::find_exact(const Match& match,
                                        int32_t priority) const noexcept {
  const ClassifierBackend* be = route(match);
  return be == nullptr ? nullptr : be->find_exact(match, priority);
}

const Rule* TenantPartitionEngine::lookup(const FlowKey& pkt,
                                          FlowWildcards* wc,
                                          uint32_t* n_searched) const noexcept {
  lookups_.fetch_add(1, std::memory_order_relaxed);
  // The partition routing consults the packet's full metadata word, so the
  // megaflow must pin it (§5.5 soundness argument).
  if (wc != nullptr) wc->set_exact(FieldId::kMetadata);

  uint32_t searched = 0;
  uint32_t probe = 0;
  const Rule* best = shared_->lookup(pkt, wc, &probe);
  searched += probe;
  if (best == nullptr || !inner_cfg_.first_match_only) {
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

size_t TenantPartitionEngine::rule_count() const noexcept {
  size_t n = shared_->rule_count();
  for (const auto& [id, be] : tenants_) n += be->rule_count();
  return n;
}

size_t TenantPartitionEngine::mask_count() const noexcept {
  size_t n = shared_->mask_count();
  for (const auto& [id, be] : tenants_) n += be->mask_count();
  return n;
}

size_t TenantPartitionEngine::n_subtables() const noexcept {
  size_t n = shared_->n_subtables();
  for (const auto& [id, be] : tenants_) n += be->n_subtables();
  return n;
}

size_t TenantPartitionEngine::max_probe_depth() const noexcept {
  size_t worst_tenant = 0;
  for (const auto& [id, be] : tenants_)
    worst_tenant = std::max(worst_tenant, be->max_probe_depth());
  return shared_->max_probe_depth() + worst_tenant;
}

size_t TenantPartitionEngine::tenant_subtables(uint64_t tenant) const noexcept {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second->n_subtables();
}

ClassifierStats TenantPartitionEngine::stats() const noexcept {
  ClassifierStats sum;
  auto add = [&sum](const ClassifierStats& s) {
    sum.tuples_searched += s.tuples_searched;
    sum.tuples_skipped += s.tuples_skipped;
    sum.stage_terminations += s.stage_terminations;
    sum.guide_probes += s.guide_probes;
  };
  add(shared_->stats());
  for (const auto& [id, be] : tenants_) add(be->stats());
  // The two-engine probe would double-count lookups; report whole lookups.
  sum.lookups = lookups_.load(std::memory_order_relaxed);
  return sum;
}

void TenantPartitionEngine::reset_stats() const noexcept {
  shared_->reset_stats();
  for (const auto& [id, be] : tenants_) be->reset_stats();
  lookups_.store(0, std::memory_order_relaxed);
}

void TenantPartitionEngine::for_each_rule(
    const std::function<void(Rule*)>& f) const {
  shared_->for_each_rule(f);
  for (const auto& [id, be] : tenants_) be->for_each_rule(f);
}

}  // namespace ovs
