#include "classifier/classifier.h"

#include <cassert>

#include "classifier/cls_backend.h"

namespace ovs {

const char* classifier_engine_name(ClassifierEngine engine) noexcept {
  switch (engine) {
    case ClassifierEngine::kStagedTss:
      return "staged";
    case ClassifierEngine::kChainedTuple:
      return "chained";
  }
  return "unknown";
}

Classifier::Classifier(ClassifierConfig cfg)
    : cfg_(cfg), backend_(make_classifier_backend(cfg)) {}

Classifier::~Classifier() = default;

void Classifier::insert(Rule* rule) {
  assert(!rule->in_classifier());
  assert(find_exact(rule->match(), rule->priority()) == nullptr);
  backend_->insert(rule);
}

void Classifier::remove(Rule* rule) noexcept {
  assert(rule->in_classifier());
  backend_->remove(rule);
}

Rule* Classifier::find_exact(const Match& match,
                             int32_t priority) const noexcept {
  return backend_->find_exact(match, priority);
}

const Rule* Classifier::lookup(const FlowKey& pkt, FlowWildcards* wc,
                               uint32_t* n_searched) const noexcept {
  return backend_->lookup(pkt, wc, n_searched);
}

void Classifier::lookup_batch(const FlowKey* keys, size_t n, const Rule** out,
                              FlowWildcards* wcs) const noexcept {
  backend_->lookup_batch(keys, n, out, wcs);
}

size_t Classifier::rule_count() const noexcept {
  return backend_->rule_count();
}

size_t Classifier::tuple_count() const noexcept {
  return backend_->mask_count();
}

size_t Classifier::n_subtables() const noexcept {
  return backend_->n_subtables();
}

size_t Classifier::max_probe_depth() const noexcept {
  return backend_->max_probe_depth();
}

Classifier::Stats Classifier::stats() const noexcept {
  return backend_->stats();
}

void Classifier::reset_stats() const noexcept { backend_->reset_stats(); }

void Classifier::for_each_rule(const std::function<void(Rule*)>& f) const {
  backend_->for_each_rule(f);
}

}  // namespace ovs
