#include "classifier/staged_tss.h"

#include <algorithm>
#include <cassert>

namespace ovs {

namespace {

bool is_port_trie_field(FieldId f) noexcept {
  return f == FieldId::kTpSrc || f == FieldId::kTpDst;
}

PrefixBits trie_value(const FlowKey& pkt, FieldId f) noexcept {
  switch (f) {
    case FieldId::kNwSrc:
    case FieldId::kNwDst:
      return PrefixBits::from_u32(static_cast<uint32_t>(pkt.get(f)));
    case FieldId::kIpv6Src:
      return PrefixBits::from_u128(pkt.w[10], pkt.w[11]);
    case FieldId::kIpv6Dst:
      return PrefixBits::from_u128(pkt.w[12], pkt.w[13]);
    case FieldId::kTpSrc:
    case FieldId::kTpDst:
      return PrefixBits::from_u16(static_cast<uint16_t>(pkt.get(f)));
    default:
      return {};
  }
}

PrefixBits trie_prefix(const Rule& rule, FieldId f, unsigned len) noexcept {
  switch (f) {
    case FieldId::kNwSrc:
    case FieldId::kNwDst:
      return PrefixBits::from_u32(
          static_cast<uint32_t>(rule.match().key.get(f)), len);
    case FieldId::kIpv6Src:
      return PrefixBits::from_u128(rule.match().key.w[10],
                                   rule.match().key.w[11], len);
    case FieldId::kIpv6Dst:
      return PrefixBits::from_u128(rule.match().key.w[12],
                                   rule.match().key.w[13], len);
    case FieldId::kTpSrc:
    case FieldId::kTpDst:
      return PrefixBits::from_u16(
          static_cast<uint16_t>(rule.match().key.get(f)), len);
    default:
      return {};
  }
}

// Is this rule an ICMP rule matching the shared tp_src/tp_dst fields? Such
// rules triggered the production bug of §7.1 (see ClassifierConfig).
bool is_icmp_port_rule(const Rule& rule) noexcept {
  return rule.match().mask.is_exact(FieldId::kNwProto) &&
         (rule.match().key.nw_proto() == ipproto::kIcmp ||
          rule.match().key.nw_proto() == ipproto::kIcmpv6);
}

}  // namespace

// --- Tuple ------------------------------------------------------------------

Tuple::Tuple(const FlowMask& mask) : mask_(mask), schema_(mask) {
  n_stages_ = mask.last_stage() + 1;
  partitions_metadata_ = mask.is_exact(FieldId::kMetadata);
  for (size_t i = 0; i < kNumTrieFields; ++i)
    trie_plen_[i] = mask.prefix_len(kTrieFields[i]);
}

void Tuple::insert(Rule* rule) {
  assert(rule->match().mask == mask_);
  rule->key_hash_ = full_hash(rule->match().key);

  // Intermediate stage sets.
  uint64_t acc = 0;
  for (size_t s = 0; s + 1 < n_stages_; ++s) {
    acc = hash_stage(rule->match().key, s, acc);
    stage_sets_[s].add(hash_finish(acc));
  }

  if (partitions_metadata_)
    metadata_values_.add(hash_mix64(rule->match().key.metadata()));

  chain_insert(rule);

  // A refilled tuple may still hold its last priority's zero-count node.
  if (n_rules_ == 0 && !prio_counts_.empty() &&
      prio_counts_.begin()->first != rule->priority())
    prio_counts_.clear();
  ++n_rules_;
  ++prio_counts_[rule->priority()];
  recompute_pri_max();
  rule->sub_ = this;
}

void Tuple::remove(Rule* rule) noexcept {
  assert(rule->sub_ == this);
  chain_remove(rule);
  rule->sub_ = nullptr;

  uint64_t acc = 0;
  for (size_t s = 0; s + 1 < n_stages_; ++s) {
    acc = hash_stage(rule->match().key, s, acc);
    stage_sets_[s].remove(hash_finish(acc));
  }
  if (partitions_metadata_)
    metadata_values_.remove(hash_mix64(rule->match().key.metadata()));

  --n_rules_;
  auto it = prio_counts_.find(rule->priority());
  if (--it->second == 0 && n_rules_ != 0) prio_counts_.erase(it);
  recompute_pri_max();
}

void Tuple::reset_tables() noexcept {
  rules_.reset();
  for (HashCounter& set : stage_sets_) set.reset();
  metadata_values_.reset();
}

void Tuple::chain_insert(Rule* rule) {
  Rule** head = rules_.find(rule->key_hash_, [&](Rule* r) {
    return r->match().key == rule->match().key;
  });
  if (head == nullptr) {
    rules_.insert(rule->key_hash_, rule);
    return;
  }
  if (rule->priority() > (*head)->priority()) {
    rule->next_same_key_ = *head;
    *head = rule;
    return;
  }
  Rule* prev = *head;
  while (prev->next_same_key_ != nullptr &&
         prev->next_same_key_->priority() >= rule->priority())
    prev = prev->next_same_key_;
  rule->next_same_key_ = prev->next_same_key_;
  prev->next_same_key_ = rule;
}

void Tuple::chain_remove(Rule* rule) noexcept {
  Rule** head = rules_.find(rule->key_hash_, [&](Rule* r) {
    return r->match().key == rule->match().key;
  });
  assert(head != nullptr);
  if (*head == rule) {
    if (rule->next_same_key_ != nullptr) {
      *head = rule->next_same_key_;
    } else {
      rules_.erase(rule->key_hash_, [&](Rule* r) { return r == rule; });
    }
  } else {
    Rule* prev = *head;
    while (prev->next_same_key_ != rule) {
      prev = prev->next_same_key_;
      assert(prev != nullptr);
    }
    prev->next_same_key_ = rule->next_same_key_;
  }
  rule->next_same_key_ = nullptr;
}

void Tuple::recompute_pri_max() noexcept {
  pri_max_ = prio_counts_.empty() ? 0 : prio_counts_.rbegin()->first;
}

const Rule* Tuple::lookup(const FlowKey& pkt, bool staged,
                          size_t* stage_searched) const noexcept {
  uint64_t h;
  if (staged) {
    uint64_t acc = schema_.hash_stage(pkt, 0, 0);
    for (size_t s = 0; s + 1 < n_stages_; ++s) {
      if (!stage_sets_[s].contains(hash_finish(acc))) {
        *stage_searched = s;
        return nullptr;
      }
      acc = schema_.hash_stage(pkt, s + 1, acc);
    }
    // acc now covers stages [0, n_stages_-1]; later stages are empty for
    // this mask, so its finished value equals the full hash.
    h = hash_finish(acc);
  } else {
    h = schema_.full_hash(pkt);
  }
  *stage_searched = n_stages_ - 1;
  Rule* const* head = rules_.find(
      h, [&](Rule* r) { return schema_.masked_equal(pkt, r->match().key); });
  return head != nullptr ? *head : nullptr;
}

// --- StagedTssEngine --------------------------------------------------------

struct StagedTssEngine::TrieCtx {
  std::array<bool, kNumTrieFields> computed{};
  std::array<PrefixTrie::LookupResult, kNumTrieFields> res;
};

StagedTssEngine::StagedTssEngine(const ClassifierConfig& cfg) : cfg_(cfg) {}

StagedTssEngine::~StagedTssEngine() = default;

Tuple* StagedTssEngine::find_tuple(const FlowMask& mask) const noexcept {
  Tuple* const* t =
      tuples_by_mask_.find(flow_mask_hash(mask), [&](const Tuple* tp) {
        return tp->mask() == mask;
      });
  return t != nullptr ? *t : nullptr;
}

Tuple* StagedTssEngine::get_tuple(const FlowMask& mask) {
  if (Tuple* t = find_tuple(mask)) {
    if (!t->empty()) return t;
    // A spare (live tuples are never empty): back into service, at the end
    // of the probe order like a new tuple.
    auto it = std::find_if(spare_.begin(), spare_.end(),
                           [&](const auto& up) { return up.get() == t; });
    tuples_.push_back(std::move(*it));
    spare_.erase(it);
    sorted_.push_back(t);
    sort_dirty_ = true;
    return t;
  }
  auto owned = std::make_unique<Tuple>(mask);
  Tuple* t = owned.get();
  tuples_.push_back(std::move(owned));
  sorted_.push_back(t);
  tuples_by_mask_.insert(flow_mask_hash(mask), t);
  sort_dirty_ = true;
  return t;
}

void StagedTssEngine::sort_tuples_if_dirty() noexcept {
  if (!sort_dirty_) return;
  // Insertion sort by descending pri_max: stable, so the same order
  // std::stable_sort gives, but it allocates no buffer. Each mutation moves
  // at most one tuple, so the list is nearly sorted and this is linear.
  for (size_t i = 1; i < sorted_.size(); ++i) {
    Tuple* t = sorted_[i];
    size_t j = i;
    for (; j > 0 && sorted_[j - 1]->pri_max() < t->pri_max(); --j)
      sorted_[j] = sorted_[j - 1];
    sorted_[j] = t;
  }
  sort_dirty_ = false;
}

void StagedTssEngine::trie_update(const Rule& rule, bool add) {
  for (size_t i = 0; i < kNumTrieFields; ++i) {
    // check_tries never reads a disabled field's trie (and the config is
    // fixed at construction), so don't maintain it: the kernel classifier
    // runs with every trie off and would otherwise pay trie upkeep on each
    // megaflow install and removal.
    if (!trie_enabled(kTrieFields[i])) continue;
    const int plen = rule.match().mask.prefix_len(kTrieFields[i]);
    if (plen <= 0) continue;
    const PrefixBits p =
        trie_prefix(rule, kTrieFields[i], static_cast<unsigned>(plen));
    if (add) {
      tries_[i].insert(p);
      if (is_port_trie_field(kTrieFields[i]) && is_icmp_port_rule(rule))
        ++trie_icmp_rules_[i];
    } else {
      tries_[i].remove(p);
      if (is_port_trie_field(kTrieFields[i]) && is_icmp_port_rule(rule))
        --trie_icmp_rules_[i];
    }
  }
}

void StagedTssEngine::insert(Rule* rule) {
  Tuple* t = get_tuple(rule->match().mask);
  const int32_t old_pri_max = t->pri_max();
  t->insert(rule);
  if (t->pri_max() != old_pri_max || t->size() == 1) sort_dirty_ = true;
  trie_update(*rule, /*add=*/true);
  ++n_rules_;
  sort_tuples_if_dirty();
}

void StagedTssEngine::remove(Rule* rule) noexcept {
  Tuple* t = rule->sub_;
  const int32_t old_pri_max = t->pri_max();
  t->remove(rule);
  trie_update(*rule, /*add=*/false);
  --n_rules_;
  if (t->empty()) {
    sorted_.erase(std::find(sorted_.begin(), sorted_.end(), t));
    auto it = std::find_if(tuples_.begin(), tuples_.end(),
                           [&](const auto& up) { return up.get() == t; });
    t->reset_tables();
    spare_.push_back(std::move(*it));
    tuples_.erase(it);
    if (spare_.size() > kMaxSpareTuples) {
      const Tuple* oldest = spare_.front().get();
      tuples_by_mask_.erase(flow_mask_hash(oldest->mask()),
                            [&](const Tuple* tp) { return tp == oldest; });
      spare_.erase(spare_.begin());
    }
  } else if (t->pri_max() != old_pri_max) {
    sort_dirty_ = true;
  }
  sort_tuples_if_dirty();
}

Rule* StagedTssEngine::find_exact(const Match& match,
                                  int32_t priority) const noexcept {
  Match m = match;
  m.normalize();
  Tuple* t = find_tuple(m.mask);
  if (t == nullptr) return nullptr;
  const uint64_t h = t->full_hash(m.key);
  Rule* const* head =
      t->rules_.find(h, [&](Rule* r) { return r->match().key == m.key; });
  if (head == nullptr) return nullptr;
  for (Rule* r = *head; r != nullptr; r = r->next_same_key_)
    if (r->priority() == priority) return r;
  return nullptr;
}

bool StagedTssEngine::trie_enabled(FieldId f) const noexcept {
  return is_port_trie_field(f) ? cfg_.port_prefix_tracking
                               : cfg_.prefix_tracking;
}

bool StagedTssEngine::check_tries(const Tuple& tuple, const FlowKey& pkt,
                                  TrieCtx& ctx,
                                  FlowWildcards* wc) const noexcept {
  for (size_t i = 0; i < kNumTrieFields; ++i) {
    const FieldId f = kTrieFields[i];
    if (!trie_enabled(f)) continue;
    const bool port = is_port_trie_field(f);
    const int plen = tuple.trie_plen(i);
    if (plen <= 0) continue;  // field unmatched, or a non-prefix mask
    // §7.1 outlier bug injection: ICMP rules poison the port tries.
    if (cfg_.icmp_port_trie_bug && port && trie_icmp_rules_[i] > 0) continue;
    if (!ctx.computed[i]) {
      ctx.res[i] = tries_[i].lookup(trie_value(pkt, f));
      ctx.computed[i] = true;
    }
    const PrefixTrie::LookupResult& res = ctx.res[i];
    if (!res.plens.test(static_cast<size_t>(plen))) {
      // No rule anywhere in the classifier has a /plen prefix containing
      // this packet's field value, so this tuple cannot match. The skip
      // decision examined only min(nbits, plen) leading bits.
      if (wc != nullptr)
        wc->set_prefix(f, std::min(res.nbits, static_cast<unsigned>(plen)));
      return true;
    }
  }
  return false;
}

const Rule* StagedTssEngine::lookup(const FlowKey& pkt, FlowWildcards* wc,
                                    uint32_t* n_searched) const noexcept {
  // Per-call counters, flushed once into the shared atomics at the end so
  // concurrent readers pay one relaxed RMW per counter instead of one per
  // tuple.
  uint32_t searched = 0, skipped = 0, stage_terms = 0;
  TrieCtx ctx;
  const Rule* best = nullptr;
  for (Tuple* t : sorted_) {
    if (best != nullptr && cfg_.priority_sorting &&
        best->priority() >= t->pri_max())
      break;
    if (cfg_.partitioning && t->partitions_metadata() &&
        !t->partition_contains(pkt.metadata())) {
      // The skip decision consulted (all of) the metadata field.
      if (wc != nullptr) wc->set_exact(FieldId::kMetadata);
      ++skipped;
      continue;
    }
    if (check_tries(*t, pkt, ctx, wc)) {
      ++skipped;
      continue;
    }
    size_t stage_searched = 0;
    const Rule* r = t->lookup(pkt, cfg_.staged_lookup, &stage_searched);
    ++searched;
    if (wc != nullptr) {
      if (stage_searched + 1 < t->n_stages()) {
        // Early stage miss: only the fields of stages [0, stage_searched]
        // were consulted (paper §5.3).
        for (size_t i = 0; i < kStageEnd[stage_searched]; ++i)
          wc->w[i] |= t->mask().w[i];
      } else {
        wc->unite(t->mask());
      }
    }
    if (stage_searched + 1 < t->n_stages()) ++stage_terms;
    if (r != nullptr && (best == nullptr || r->priority() > best->priority())) {
      best = r;
      if (cfg_.first_match_only) break;
    }
  }
  stats_.lookups.fetch_add(1, std::memory_order_relaxed);
  if (searched != 0)
    stats_.tuples_searched.fetch_add(searched, std::memory_order_relaxed);
  if (skipped != 0)
    stats_.tuples_skipped.fetch_add(skipped, std::memory_order_relaxed);
  if (stage_terms != 0)
    stats_.stage_terminations.fetch_add(stage_terms,
                                        std::memory_order_relaxed);
  if (n_searched != nullptr) *n_searched = searched;
  return best;
}

ClassifierStats StagedTssEngine::stats() const noexcept {
  ClassifierStats s;
  s.lookups = stats_.lookups.load(std::memory_order_relaxed);
  s.tuples_searched = stats_.tuples_searched.load(std::memory_order_relaxed);
  s.tuples_skipped = stats_.tuples_skipped.load(std::memory_order_relaxed);
  s.stage_terminations =
      stats_.stage_terminations.load(std::memory_order_relaxed);
  return s;
}

void StagedTssEngine::reset_stats() const noexcept {
  stats_.lookups.store(0, std::memory_order_relaxed);
  stats_.tuples_searched.store(0, std::memory_order_relaxed);
  stats_.tuples_skipped.store(0, std::memory_order_relaxed);
  stats_.stage_terminations.store(0, std::memory_order_relaxed);
}

void StagedTssEngine::for_each_rule(
    const std::function<void(Rule*)>& f) const {
  for (const auto& t : tuples_)
    t->rules_.for_each([&](Rule* head) {
      for (Rule* r = head; r != nullptr; r = r->next_same_key_) f(r);
    });
}

}  // namespace ovs
