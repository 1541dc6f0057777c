#include "datapath/offload_table.h"

namespace ovs {

namespace {

char kOrphanOwner;  // the owner of every kOrphanSlot-corrupted slot

}  // namespace

const OffloadTable::Entry* OffloadTable::probe(
    const FlowKey& pkt) const noexcept {
  for (const MaskGroup& g : groups_) {
    const uint64_t h = g.schema.full_hash(pkt);
    auto [it, end] = g.slots.equal_range(h);
    for (; it != end; ++it)
      if (g.schema.masked_equal(pkt, it->second->key)) return it->second.get();
  }
  return nullptr;
}

bool OffloadTable::install(const Match& match, const DpActions& actions,
                           void* owner, void* replica, uint64_t now_ns) {
  if (n_entries_ >= capacity_ || by_owner_.count(owner) != 0) return false;
  MaskGroup* group = nullptr;
  for (MaskGroup& g : groups_)
    if (g.mask == match.mask) {
      group = &g;
      break;
    }
  if (group == nullptr) {
    groups_.push_back({match.mask, MiniflowSchema(match.mask), {}});
    group = &groups_.back();
  }
  auto e = std::make_unique<Entry>();
  e->mask = match.mask;
  e->key = match.key;
  e->actions = actions;
  e->owner = owner;
  e->replica = replica;
  e->installed_ns = now_ns;
  by_owner_.emplace(owner, e.get());
  group->slots.emplace(group->schema.full_hash(match.key), std::move(e));
  ++n_entries_;
  return true;
}

bool OffloadTable::evict(const void* owner) {
  auto it = by_owner_.find(owner);
  if (it == by_owner_.end()) return false;
  const Entry* target = it->second;
  by_owner_.erase(it);
  for (size_t gi = 0; gi < groups_.size(); ++gi) {
    MaskGroup& g = groups_[gi];
    if (!(g.mask == target->mask)) continue;
    const uint64_t h = g.schema.full_hash(target->key);
    auto [sit, send] = g.slots.equal_range(h);
    for (; sit != send; ++sit) {
      if (sit->second.get() != target) continue;
      g.slots.erase(sit);
      --n_entries_;
      if (g.slots.empty()) groups_.erase(groups_.begin() + gi);
      return true;
    }
  }
  return false;  // unreachable while by_owner_ stays coherent
}

bool OffloadTable::sync_actions(const void* owner, const DpActions& actions) {
  auto it = by_owner_.find(owner);
  if (it == by_owner_.end()) return false;
  it->second->actions = actions;
  return true;
}

void OffloadTable::clear() {
  groups_.clear();
  by_owner_.clear();
  n_entries_ = 0;
}

void OffloadTable::for_each(
    const std::function<void(const Entry&)>& f) const {
  for (const MaskGroup& g : groups_)
    for (const auto& [h, e] : g.slots) f(*e);
}

bool OffloadTable::corrupt(size_t idx, Corruption kind) {
  if (n_entries_ == 0) return false;
  idx %= n_entries_;
  Entry* victim = nullptr;
  size_t i = 0;
  for (MaskGroup& g : groups_) {
    for (auto& [h, e] : g.slots) {
      if (i++ == idx) {
        victim = e.get();
        break;
      }
    }
    if (victim != nullptr) break;
  }
  switch (kind) {
    case Corruption::kStaleActions:
      victim->actions = DpActions{}.output(0xDEAD);
      break;
    case Corruption::kOrphanSlot:
      by_owner_.erase(victim->owner);
      victim->owner = &kOrphanOwner;  // no megaflow, live or parked
      by_owner_.emplace(victim->owner, victim);
      break;
    case Corruption::kInflateHits:
      victim->hits.fetch_add(uint64_t{1} << 40, std::memory_order_relaxed);
      break;
  }
  return true;
}

}  // namespace ovs
