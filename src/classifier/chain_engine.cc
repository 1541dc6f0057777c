#include "classifier/chain_engine.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <map>

#include "classifier/rule_links.h"
#include "util/miniflow.h"

namespace ovs {

struct ChainedTupleEngine::Sub {
  explicit Sub(const FlowMask& m) : mask(m), schema(m) {}

  FlowMask mask;
  MiniflowSchema schema;

  // Final table: masked key hash -> chain of rules (descending priority).
  HashBuckets<Rule*> rules;
  size_t n_rules = 0;
  std::map<int32_t, uint32_t> prio_counts;
  int32_t pri_max = 0;

  // Guide set: this level's mask-hash of every rule at this level or deeper
  // in the owning chain.
  HashCounter guide;
  int32_t suffix_pri_max = 0;  // max priority at this level or deeper

  Chain* chain = nullptr;
  size_t level = 0;  // index within chain->levels
};

struct ChainedTupleEngine::Chain {
  std::vector<Sub*> levels;  // coarsest mask first (ascending subsumption)

  int32_t pri_max() const noexcept {
    return levels.empty() ? 0 : levels.front()->suffix_pri_max;
  }
};

ChainedTupleEngine::ChainedTupleEngine(const ClassifierConfig& cfg)
    : cfg_(cfg) {}

ChainedTupleEngine::~ChainedTupleEngine() = default;

ChainedTupleEngine::Sub* ChainedTupleEngine::find_sub(
    const FlowMask& mask) const noexcept {
  Sub* const* s = by_mask_.find(flow_mask_hash(mask), [&](const Sub* sp) {
    return sp->mask == mask;
  });
  return s != nullptr ? *s : nullptr;
}

ChainedTupleEngine::Sub* ChainedTupleEngine::get_sub(const FlowMask& mask) {
  if (Sub* s = find_sub(mask)) return s;
  auto owned = std::make_unique<Sub>(mask);
  Sub* s = owned.get();
  subs_.push_back(std::move(owned));
  by_mask_.insert(flow_mask_hash(mask), s);

  // Greedy first-fit chain placement: the new mask joins the first chain it
  // is comparable with at every level; the insert position keeps the chain
  // sorted coarsest-first. Masks are distinct, so subset means proper
  // subset and the order is strict.
  Chain* home = nullptr;
  size_t pos = 0;
  for (const auto& cp : chains_) {
    Chain* c = cp.get();
    bool ok = true;
    size_t p = c->levels.size();
    for (size_t i = 0; i < c->levels.size(); ++i) {
      const FlowMask& lm = c->levels[i]->mask;
      if (flow_mask_subset(lm, mask)) continue;  // level coarser: go deeper
      if (flow_mask_subset(mask, lm)) {
        // New mask is coarser than this and (transitively) every deeper
        // level: insert here.
        p = i;
        break;
      }
      ok = false;
      break;
    }
    if (ok) {
      home = c;
      pos = p;
      break;
    }
  }
  if (home == nullptr) {
    chains_.push_back(std::make_unique<Chain>());
    home = chains_.back().get();
    sorted_.push_back(home);
    pos = 0;
  }
  home->levels.insert(home->levels.begin() + static_cast<long>(pos), s);
  s->chain = home;
  for (size_t i = 0; i < home->levels.size(); ++i) home->levels[i]->level = i;

  // Seed the new level's guide with every rule already deeper in the chain.
  for (size_t i = pos + 1; i < home->levels.size(); ++i) {
    home->levels[i]->rules.for_each([&](Rule* head) {
      for (Rule* r = head; r != nullptr; r = RuleLinks::next(*r))
        s->guide.add(s->schema.full_hash(r->match().key));
    });
  }
  sort_dirty_ = true;
  return s;
}

void ChainedTupleEngine::drop_sub(Sub* s) noexcept {
  Chain* c = s->chain;
  c->levels.erase(c->levels.begin() + static_cast<long>(s->level));
  for (size_t i = 0; i < c->levels.size(); ++i) c->levels[i]->level = i;
  by_mask_.erase(flow_mask_hash(s->mask),
                 [&](const Sub* sp) { return sp == s; });
  if (c->levels.empty()) {
    sorted_.erase(std::find(sorted_.begin(), sorted_.end(), c));
    auto cit = std::find_if(chains_.begin(), chains_.end(),
                            [&](const auto& up) { return up.get() == c; });
    chains_.erase(cit);
  } else {
    refresh_chain(c);
  }
  auto sit = std::find_if(subs_.begin(), subs_.end(),
                          [&](const auto& up) { return up.get() == s; });
  subs_.erase(sit);
  sort_dirty_ = true;
}

void ChainedTupleEngine::refresh_chain(Chain* c) noexcept {
  const int32_t old = c->pri_max();
  int32_t run = 0;
  for (auto it = c->levels.rbegin(); it != c->levels.rend(); ++it) {
    run = std::max(run, (*it)->pri_max);
    (*it)->suffix_pri_max = run;
  }
  if (c->pri_max() != old) sort_dirty_ = true;
}

void ChainedTupleEngine::sort_chains_if_dirty() noexcept {
  if (!sort_dirty_) return;
  std::stable_sort(sorted_.begin(), sorted_.end(),
                   [](const Chain* a, const Chain* b) {
                     return a->pri_max() > b->pri_max();
                   });
  sort_dirty_ = false;
}

void ChainedTupleEngine::insert(Rule* rule) {
  Sub* s = get_sub(rule->match().mask);
  RuleLinks::key_hash(*rule) = s->schema.full_hash(rule->match().key);
  RuleLinks::chain_insert(s->rules, rule);
  RuleLinks::sub(*rule) = s;
  ++s->n_rules;
  ++n_rules_;
  ++s->prio_counts[rule->priority()];
  s->pri_max = s->prio_counts.rbegin()->first;

  // The rule's hash joins the guide of its own level and every coarser one.
  Chain* c = s->chain;
  for (size_t i = 0; i <= s->level; ++i) {
    Sub* g = c->levels[i];
    g->guide.add(g->schema.full_hash(rule->match().key));
  }
  refresh_chain(c);
  sort_chains_if_dirty();
}

void ChainedTupleEngine::remove(Rule* rule) noexcept {
  Sub* s = static_cast<Sub*>(RuleLinks::sub(*rule));
  Chain* c = s->chain;
  for (size_t i = 0; i <= s->level; ++i) {
    Sub* g = c->levels[i];
    g->guide.remove(g->schema.full_hash(rule->match().key));
  }
  RuleLinks::chain_remove(s->rules, rule);
  RuleLinks::sub(*rule) = nullptr;
  --s->n_rules;
  --n_rules_;
  auto it = s->prio_counts.find(rule->priority());
  if (--it->second == 0) s->prio_counts.erase(it);
  s->pri_max = s->prio_counts.empty() ? 0 : s->prio_counts.rbegin()->first;

  if (s->n_rules == 0) {
    drop_sub(s);
  } else {
    refresh_chain(c);
  }
  sort_chains_if_dirty();
}

Rule* ChainedTupleEngine::find_exact(const Match& match,
                                     int32_t priority) const noexcept {
  Match m = match;
  m.normalize();
  Sub* s = find_sub(m.mask);
  if (s == nullptr) return nullptr;
  const uint64_t h = s->schema.full_hash(m.key);
  Rule* const* head =
      s->rules.find(h, [&](Rule* r) { return r->match().key == m.key; });
  if (head == nullptr) return nullptr;
  for (Rule* r = *head; r != nullptr; r = RuleLinks::next(*r))
    if (r->priority() == priority) return r;
  return nullptr;
}

const Rule* ChainedTupleEngine::lookup(const FlowKey& pkt, FlowWildcards* wc,
                                       uint32_t* n_searched) const noexcept {
  uint32_t searched = 0, skipped = 0, guide_probes = 0;
  const Rule* best = nullptr;
  for (const Chain* c : sorted_) {
    if (best != nullptr && cfg_.priority_sorting &&
        best->priority() >= c->pri_max())
      break;
    for (const Sub* s : c->levels) {
      // Within a chain the suffix priority bound tightens level by level.
      if (best != nullptr && cfg_.priority_sorting &&
          best->priority() >= s->suffix_pri_max)
        break;
      const uint64_t h = s->schema.full_hash(pkt);
      ++guide_probes;
      if (wc != nullptr) wc->unite(s->mask);
      if (!s->guide.contains(h)) {
        // No rule at this level or deeper agrees with the packet on this
        // level's mask bits: cut the whole chain suffix. The decision
        // consulted exactly this level's mask (united above).
        ++skipped;
        break;
      }
      ++searched;
      Rule* const* head = s->rules.find(h, [&](Rule* r) {
        return s->schema.masked_equal(pkt, r->match().key);
      });
      if (head != nullptr &&
          (best == nullptr || (*head)->priority() > best->priority())) {
        best = *head;
        if (cfg_.first_match_only) goto out;
      }
    }
  }
out:
  stats_.lookups.fetch_add(1, std::memory_order_relaxed);
  if (searched != 0)
    stats_.tuples_searched.fetch_add(searched, std::memory_order_relaxed);
  if (skipped != 0)
    stats_.tuples_skipped.fetch_add(skipped, std::memory_order_relaxed);
  if (guide_probes != 0)
    stats_.guide_probes.fetch_add(guide_probes, std::memory_order_relaxed);
  if (n_searched != nullptr) *n_searched = searched;
  return best;
}

void ChainedTupleEngine::lookup_batch(const FlowKey* keys, size_t n,
                                      const Rule** out,
                                      FlowWildcards* wcs) const noexcept {
  for (size_t base = 0; base < n; base += kBatchBlock) {
    const size_t m = std::min(kBatchBlock, n - base);
    batch_block(keys + base, m, out + base,
                wcs != nullptr ? wcs + base : nullptr);
  }
}

// Structure-of-arrays batch classification over one block of keys. Chains
// are walked in the same priority order as the scalar lookup, but each
// level processes the whole block per probe round: level hashes are built
// word-at-a-time (mask word outer, keys inner), then the guide slots for
// every surviving key are prefetched before any membership test, then the
// rule-table slots likewise before any final probe — so the n independent
// cache misses of a round overlap instead of serializing. Every per-key
// decision (priority suffix cut, guide cut, wildcard accumulation,
// first-match exit) replicates the scalar lookup exactly, so out[i]/wcs[i]
// are byte-identical to n scalar calls.
void ChainedTupleEngine::batch_block(const FlowKey* keys, size_t m,
                                     const Rule** out,
                                     FlowWildcards* wcs) const noexcept {
  uint32_t searched = 0, skipped = 0, guide_probes = 0;
  std::array<const Rule*, kBatchBlock> best{};
  std::array<bool, kBatchBlock> done{};
  std::array<uint8_t, kBatchBlock> live;
  std::array<uint64_t, kBatchBlock> gh;
  size_t n_done = 0;

  for (const Chain* c : sorted_) {
    if (n_done == m) break;
    // Keys still walking this chain. The scalar chain-level cut
    // (best->priority() >= c->pri_max()) is identical to the level-0
    // suffix cut because pri_max() IS the front level's suffix_pri_max,
    // so the per-level round below subsumes it.
    size_t n_live = 0;
    for (size_t i = 0; i < m; ++i)
      if (!done[i]) live[n_live++] = static_cast<uint8_t>(i);

    for (const Sub* s : c->levels) {
      if (n_live == 0) break;
      const MiniflowSchema& sch = s->schema;

      // Round 0: per-key priority cut against this level's suffix bound —
      // a cut key leaves the chain but stays eligible for later chains.
      size_t keep = 0;
      for (size_t j = 0; j < n_live; ++j) {
        const size_t i = live[j];
        if (best[i] != nullptr && cfg_.priority_sorting &&
            best[i]->priority() >= s->suffix_pri_max)
          continue;
        live[keep++] = static_cast<uint8_t>(i);
      }
      n_live = keep;
      if (n_live == 0) break;

      // Round 1: SoA level hashes (MiniflowSchema::full_hash_batch), then
      // guide prefetch + membership for the block. The wildcard union and
      // the guide-probe tally happen for every probed key, hit or miss,
      // exactly as in the scalar walk.
      sch.full_hash_batch(keys, live.data(), n_live, gh.data());
      for (size_t j = 0; j < n_live; ++j) s->guide.prefetch(gh[j]);
      keep = 0;
      for (size_t j = 0; j < n_live; ++j) {
        const size_t i = live[j];
        ++guide_probes;
        if (wcs != nullptr) wcs[i].unite(s->mask);
        if (!s->guide.contains(gh[j])) {
          ++skipped;  // chain suffix cut for this key
          continue;
        }
        live[keep] = static_cast<uint8_t>(i);
        gh[keep] = gh[j];
        ++keep;
      }
      n_live = keep;
      if (n_live == 0) break;

      // Round 2: rule-table probes, prefetched for the whole block.
      for (size_t j = 0; j < n_live; ++j) s->rules.prefetch(gh[j]);
      keep = 0;
      for (size_t j = 0; j < n_live; ++j) {
        const size_t i = live[j];
        ++searched;
        Rule* const* head = s->rules.find(gh[j], [&](Rule* r) {
          return sch.masked_equal(keys[i], r->match().key);
        });
        if (head != nullptr &&
            (best[i] == nullptr ||
             (*head)->priority() > best[i]->priority())) {
          best[i] = *head;
          if (cfg_.first_match_only) {
            done[i] = true;
            ++n_done;
            continue;  // out of this chain AND every later one
          }
        }
        live[keep] = static_cast<uint8_t>(i);
        gh[keep] = gh[j];
        ++keep;
      }
      n_live = keep;
    }
  }

  for (size_t i = 0; i < m; ++i) out[i] = best[i];

  stats_.lookups.fetch_add(m, std::memory_order_relaxed);
  if (searched != 0)
    stats_.tuples_searched.fetch_add(searched, std::memory_order_relaxed);
  if (skipped != 0)
    stats_.tuples_skipped.fetch_add(skipped, std::memory_order_relaxed);
  if (guide_probes != 0)
    stats_.guide_probes.fetch_add(guide_probes, std::memory_order_relaxed);
}

ClassifierStats ChainedTupleEngine::stats() const noexcept {
  ClassifierStats s;
  s.lookups = stats_.lookups.load(std::memory_order_relaxed);
  s.tuples_searched = stats_.tuples_searched.load(std::memory_order_relaxed);
  s.tuples_skipped = stats_.tuples_skipped.load(std::memory_order_relaxed);
  s.guide_probes = stats_.guide_probes.load(std::memory_order_relaxed);
  return s;
}

void ChainedTupleEngine::reset_stats() const noexcept {
  stats_.lookups.store(0, std::memory_order_relaxed);
  stats_.tuples_searched.store(0, std::memory_order_relaxed);
  stats_.tuples_skipped.store(0, std::memory_order_relaxed);
  stats_.guide_probes.store(0, std::memory_order_relaxed);
}

void ChainedTupleEngine::for_each_rule(
    const std::function<void(Rule*)>& f) const {
  for (const auto& s : subs_)
    s->rules.for_each([&](Rule* head) {
      for (Rule* r = head; r != nullptr; r = RuleLinks::next(*r)) f(r);
    });
}

size_t ChainedTupleEngine::max_chain_length() const noexcept {
  size_t best = 0;
  for (const auto& c : chains_) best = std::max(best, c->levels.size());
  return best;
}

}  // namespace ovs
