#include "ofproto/conntrack.h"

#include <algorithm>

namespace ovs {

// Endpoint (addr, port) pairs sorted so both directions map to one key.
ConnTracker::ConnRef ConnTracker::ref(const FlowKey& k,
                                      uint16_t zone) noexcept {
  const uint64_t a_addr = k.nw_src().value(), b_addr = k.nw_dst().value();
  const uint32_t a_port = k.tp_src(), b_port = k.tp_dst();
  ConnRef r;
  r.key.proto = k.nw_proto();
  r.key.zone = zone;
  r.lo_dir = a_addr < b_addr || (a_addr == b_addr && a_port <= b_port);
  if (r.lo_dir) {
    r.key.lo_addr = a_addr;
    r.key.hi_addr = b_addr;
    r.key.lo_port = a_port;
    r.key.hi_port = b_port;
  } else {
    r.key.lo_addr = b_addr;
    r.key.hi_addr = a_addr;
    r.key.lo_port = b_port;
    r.key.hi_port = a_port;
  }
  r.hash = r.key.hash();
  return r;
}

uint8_t ConnTracker::lookup(const ConnRef& r) const noexcept {
  auto it = table_.find(r);
  if (it == table_.end()) return ct_state::kNew;
  const Entry& e = it->second;
  uint8_t s = ct_state::kEstablished;
  if (e.symmetric)
    s |= ct_state::kSymmetric;
  else if (r.lo_dir != e.orig_is_lo)
    s |= ct_state::kReply;
  return s;
}

std::optional<ConnTracker::NatRewrite> ConnTracker::nat_lookup(
    const ConnRef& r) const noexcept {
  auto it = table_.find(r);
  if (it == table_.end() || !it->second.has_nat) return std::nullopt;
  const Entry& e = it->second;
  // Symmetric connections have no reply direction; their binding applies as
  // if every packet were forward.
  const bool fwd = e.symmetric || r.lo_dir == e.orig_is_lo;
  if (e.nat_on_reply ? fwd : !fwd) return std::nullopt;
  return e.nat;
}

void ConnTracker::note_changed(uint64_t hash) {
  if (changed_overflow_) return;
  if (changed_.size() == kMaxChangedKeys) {
    changed_overflow_ = true;
    changed_.clear();
    return;
  }
  changed_.push_back(dep_of(hash));
}

const std::vector<uint32_t>* ConnTracker::seal_changed() {
  if (changed_overflow_) return nullptr;
  std::sort(changed_.begin(), changed_.end());
  changed_.erase(std::unique(changed_.begin(), changed_.end()),
                 changed_.end());
  return &changed_;
}

ConnTracker::Entry& ConnTracker::insert(const ConnKey& ck, uint64_t now_ns) {
  make_room(ck.zone);
  std::list<ConnKey>& lru = zones_[ck.zone];
  if (spare_lru_.empty()) {
    lru.push_back(ck);
  } else {
    lru.splice(lru.end(), spare_lru_, spare_lru_.begin());
    lru.back() = ck;
  }
  Entry* e;
  if (spare_nodes_.empty()) {
    e = &table_[ck];
  } else {
    Table::node_type node = std::move(spare_nodes_.back());
    spare_nodes_.pop_back();
    node.key() = ck;
    node.mapped() = Entry{};
    e = &table_.insert(std::move(node)).position->second;
  }
  e->last_seen_ns = now_ns;
  e->lru = std::prev(lru.end());
  return *e;
}

void ConnTracker::make_room(uint16_t zone) {
  if (cfg_.max_per_zone > 0) {
    auto zit = zones_.find(zone);
    while (zit != zones_.end() && zit->second.size() >= cfg_.max_per_zone)
      evict_lru_of_zone(zone, /*zone_cap=*/true);
  }
  while (cfg_.max_entries > 0 && table_.size() >= cfg_.max_entries) {
    uint16_t victim_zone = zone;
    if (cfg_.fair_eviction) {
      // Evict from the largest zone: a churning attacker zone pays for its
      // own churn instead of flushing quiet zones' state.
      size_t largest = 0;
      for (const auto& [z, lru] : zones_) {
        if (lru.size() > largest) {
          largest = lru.size();
          victim_zone = z;
        }
      }
    } else {
      // Globally least-recent entry across all zone fronts (the unfair
      // policy the bench ablates).
      uint64_t oldest = UINT64_MAX;
      for (const auto& [z, lru] : zones_) {
        if (lru.empty()) continue;
        const uint64_t t = table_.at(lru.front()).last_seen_ns;
        if (t < oldest) {
          oldest = t;
          victim_zone = z;
        }
      }
    }
    evict_lru_of_zone(victim_zone, /*zone_cap=*/false);
  }
}

void ConnTracker::evict_lru_of_zone(uint16_t zone, bool zone_cap) {
  auto zit = zones_.find(zone);
  if (zit == zones_.end() || zit->second.empty()) return;
  const size_t n = remove_conn(zit->second.front());
  if (zone_cap)
    stats_.evicted_zone_cap += n;
  else
    stats_.evicted_global_cap += n;
}

size_t ConnTracker::remove_conn(const ConnKey& ck) {
  auto it = table_.find(ck);
  if (it == table_.end()) return 0;
  const bool has_pair = it->second.has_pair;
  const ConnKey pair = it->second.pair;
  // Before the unlink: ck may be the LRU list node it recycles.
  note_changed(ck.hash());
  recycle(it);
  size_t n = 1;
  if (has_pair) {
    auto pit = table_.find(pair);
    if (pit != table_.end()) {
      recycle(pit);
      note_changed(pair.hash());
      ++n;
    }
  }
  return n;
}

void ConnTracker::recycle(Table::iterator it) {
  spare_lru_.splice(spare_lru_.end(), zones_[it->first.zone],
                    it->second.lru);
  spare_nodes_.push_back(table_.extract(it));
}

bool ConnTracker::commit(const FlowKey& key, uint16_t zone,
                         uint64_t now_ns) {
  const ConnRef r = ref(key, zone);
  const ConnKey& ck = r.key;
  auto it = table_.find(r);
  if (it != table_.end()) {
    // Idempotent refresh: timestamp and LRU position only; the table's
    // answer to every lookup is unchanged, so generation stays put.
    Entry& e = it->second;
    e.last_seen_ns = now_ns;
    std::list<ConnKey>& lru = zones_[ck.zone];
    lru.splice(lru.end(), lru, e.lru);
    if (e.has_pair) {
      auto pit = table_.find(e.pair);
      if (pit != table_.end()) {
        pit->second.last_seen_ns = now_ns;
        std::list<ConnKey>& plru = zones_[e.pair.zone];
        plru.splice(plru.end(), plru, pit->second.lru);
      }
    }
    ++stats_.refreshed;
    return false;
  }
  Entry& e = insert(ck, now_ns);
  e.orig_is_lo = r.lo_dir;
  e.symmetric = ck.lo_addr == ck.hi_addr && ck.lo_port == ck.hi_port;
  note_changed(r.hash);
  ++stats_.committed;
  ++generation_;
  return true;
}

bool ConnTracker::commit_nat(const FlowKey& key, const CtNatSpec& nat,
                             uint16_t zone, uint64_t now_ns) {
  const ConnKey ck = ref(key, zone).key;
  if (table_.find(ck) != table_.end()) {
    // Existing connection: refresh only. Bindings are immutable once
    // committed (rebinding mid-connection would break replies in flight).
    return commit(key, zone, now_ns);
  }
  // The post-NAT tuple, as the rewritten forward packet would carry it.
  FlowKey rewritten = key;
  if (nat.src) {
    rewritten.set_nw_src(Ipv4(nat.addr));
    rewritten.set_tp_src(nat.port);
  } else {
    rewritten.set_nw_dst(Ipv4(nat.addr));
    rewritten.set_tp_dst(nat.port);
  }
  const ConnRef rr = ref(rewritten, zone);
  const ConnKey& rk = rr.key;
  if (rk == ck) {
    // No-op rewrite: a plain commit tracks it fine.
    return commit(key, zone, now_ns);
  }

  const bool fresh = commit(key, zone, now_ns);
  if (!fresh) return false;
  Entry& prim = table_.at(ck);
  prim.has_nat = true;
  prim.nat_on_reply = false;
  prim.nat = NatRewrite{nat.src, nat.addr, nat.port};
  ++stats_.nat_bindings;

  if (table_.find(rk) != table_.end()) {
    // Post-NAT tuple collides with an existing connection: first one wins;
    // the forward rewrite stands but replies will not un-NAT. Deterministic
    // on both the switch and the oracle, which is what the harness needs.
    return true;
  }
  // Reverse entry: keyed on the post-NAT tuple, carrying the inverse
  // rewrite for reply-direction packets.
  Entry& rev = insert(rk, now_ns);
  note_changed(rr.hash);
  rev.orig_is_lo = rr.lo_dir;
  rev.symmetric = rk.lo_addr == rk.hi_addr && rk.lo_port == rk.hi_port;
  rev.has_nat = true;
  rev.nat_on_reply = true;
  rev.nat = nat.src
                ? NatRewrite{/*to_src=*/false, key.nw_src().value(),
                             key.tp_src()}
                : NatRewrite{/*to_src=*/true, key.nw_dst().value(),
                             key.tp_dst()};
  rev.has_pair = true;
  rev.pair = ck;
  // insert() may have evicted the primary to make room (tiny caps); only
  // link the pair when it survived.
  auto pit = table_.find(ck);
  if (pit != table_.end()) {
    pit->second.has_pair = true;
    pit->second.pair = rk;
  }
  return true;
}

bool ConnTracker::remove(const FlowKey& key, uint16_t zone) {
  const size_t n = remove_conn(ref(key, zone).key);
  if (n == 0) return false;
  stats_.removed += n;
  ++generation_;
  return true;
}

size_t ConnTracker::expire_idle(uint64_t now_ns) {
  if (cfg_.idle_timeout_ns == 0) return 0;
  size_t n = 0;
  for (auto& [zone, lru] : zones_) {
    while (!lru.empty()) {
      const Entry& e = table_.at(lru.front());
      if (e.last_seen_ns + cfg_.idle_timeout_ns > now_ns) break;
      n += remove_conn(lru.front());
    }
  }
  if (n > 0) {
    stats_.expired_idle += n;
    ++generation_;
  }
  return n;
}

bool ConnTracker::has_expirable(uint64_t now_ns) const noexcept {
  if (cfg_.idle_timeout_ns == 0) return false;
  for (const auto& [zone, lru] : zones_) {
    if (lru.empty()) continue;
    const Entry& e = table_.at(lru.front());
    if (e.last_seen_ns + cfg_.idle_timeout_ns <= now_ns) return true;
  }
  return false;
}

void ConnTracker::flush() {
  spare_nodes_.clear();
  spare_lru_.clear();
  if (table_.empty()) return;
  table_.clear();
  zones_.clear();
  changed_overflow_ = true;
  changed_.clear();
  ++generation_;
}

size_t ConnTracker::zone_size(uint16_t zone) const noexcept {
  auto it = zones_.find(zone);
  return it == zones_.end() ? 0 : it->second.size();
}

}  // namespace ovs
