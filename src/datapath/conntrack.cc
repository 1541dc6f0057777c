#include "datapath/conntrack.h"

#include <algorithm>

namespace ovs {

namespace {

// The post-NAT tuple, as the rewritten forward packet would carry it.
FlowKey rewritten(const FlowKey& key, const CtNatSpec& nat) {
  FlowKey out = key;
  if (nat.src) {
    out.set_nw_src(Ipv4(nat.addr));
    out.set_tp_src(nat.port);
  } else {
    out.set_nw_dst(Ipv4(nat.addr));
    out.set_tp_dst(nat.port);
  }
  return out;
}

bool wants_binding(const CtAction& ct) {
  return ct.commit &&
         (ct.nat == CtAction::Nat::kSrc || ct.nat == CtAction::Nat::kDst);
}

CtNatSpec spec_of(const CtAction& ct) {
  CtNatSpec spec;
  spec.src = ct.nat == CtAction::Nat::kSrc;
  spec.addr = ct.nat_addr;
  spec.port = ct.nat_port;
  return spec;
}

}  // namespace

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

uint8_t ConnTracker::state_of(Table::const_iterator it,
                              const ConnRef& r) const {
  if (it == table_.end()) return ct_state::kNew;
  const Entry& e = it->second;
  uint8_t s = ct_state::kEstablished;
  if (e.symmetric)
    s |= ct_state::kSymmetric;
  else if (r.lo_dir != e.orig_is_lo)
    s |= ct_state::kReply;
  return s;
}

std::optional<ConnTracker::NatRewrite> ConnTracker::nat_of(
    Table::const_iterator it, const ConnRef& r) const {
  if (it == table_.end() || !it->second.has_nat) return std::nullopt;
  const Entry& e = it->second;
  // Symmetric connections have no reply direction; their binding applies as
  // if every packet were forward.
  const bool fwd = e.symmetric || r.lo_dir == e.orig_is_lo;
  if (e.nat_on_reply ? fwd : !fwd) return std::nullopt;
  return e.nat;
}

uint8_t ConnTracker::lookup(const FlowKey& key, uint16_t zone) const {
  const ConnRef r = ref(key, zone);
  std::lock_guard<std::mutex> lk(mu_);
  return state_of(table_.find(r), r);
}

std::optional<ConnTracker::NatRewrite> ConnTracker::nat_lookup(
    const FlowKey& key, uint16_t zone) const {
  const ConnRef r = ref(key, zone);
  std::lock_guard<std::mutex> lk(mu_);
  return nat_of(table_.find(r), r);
}

ConnTracker::Verdict ConnTracker::preview(const FlowKey& key,
                                          const CtAction& ct) const {
  const ConnRef r = ref(key, ct.zone);
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = table_.find(r);
  Verdict v;
  v.state = state_of(it, r);
  if (ct.nat == CtAction::Nat::kNone) return v;
  std::optional<NatRewrite> rw = nat_of(it, r);
  const bool rst = key.nw_proto() == ipproto::kTcp &&
                   (key.tcp_flags() & tcpflags::kRst) != 0;
  if (it == table_.end() && wants_binding(ct) && !rst) {
    // The binding this packet's own commit creates, unless the rewrite is
    // a no-op (commit_nat then degrades to a plain commit).
    const CtNatSpec spec = spec_of(ct);
    if (!(ref(rewritten(key, spec), ct.zone).key == r.key))
      rw = NatRewrite{spec.src, spec.addr, spec.port};
  }
  if (rw) {
    v.has_nat = true;
    v.nat = *rw;
  }
  return v;
}

ConnTracker::Verdict ConnTracker::execute(const FlowKey& key,
                                          const CtAction& ct,
                                          uint64_t now_ns) {
  const ConnRef r = ref(key, ct.zone);
  std::lock_guard<std::mutex> lk(mu_);
  auto it = table_.find(r);
  Verdict v;
  v.state = state_of(it, r);
  auto apply_nat = [&] {
    if (ct.nat == CtAction::Nat::kNone) return;
    if (std::optional<NatRewrite> rw = nat_of(it, r)) {
      v.has_nat = true;
      v.nat = *rw;
    }
  };
  if (!ct.commit) {
    apply_nat();
    return v;
  }
  const uint16_t flags =
      key.nw_proto() == ipproto::kTcp ? key.tcp_flags() : uint16_t{0};
  if (it == table_.end()) {
    if ((flags & tcpflags::kRst) != 0) return v;  // a RST opens nothing
    if (wants_binding(ct))
      commit_nat_locked(key, r, spec_of(ct), now_ns);
    else
      commit_locked(r, now_ns);
    it = table_.find(r);
    if (it == table_.end()) return v;  // evicted by its own NAT pair
  } else {
    // A packet of a live connection keeps the binding it had, teardown or
    // not: it still belongs to the connection it closes.
    apply_nat();
    const uint8_t fins = primary_of(it).fins;
    if ((flags & tcpflags::kRst) != 0 ||
        (fins == (kFinOrig | kFinReply) && (flags & tcpflags::kFin) == 0)) {
      const ConnKey ck = it->first;
      remove_locked(ck);
      return v;
    }
    refresh(it->second, now_ns);
    ++stats_.refreshed;
  }
  if (v.state == ct_state::kNew) apply_nat();
  if ((flags & tcpflags::kFin) != 0) {
    // The direction the packet's state names: a reply to a NAT address
    // reaches the reverse entry and reads kReply there too.
    primary_of(it).fins |= (v.state & ct_state::kSymmetric) != 0
                               ? (kFinOrig | kFinReply)
                           : (v.state & ct_state::kReply) != 0 ? kFinReply
                                                               : kFinOrig;
  }
  return v;
}

ConnTracker::Entry& ConnTracker::primary_of(Table::iterator it) {
  Entry& e = it->second;
  if (e.nat_on_reply && e.has_pair) {
    auto pit = table_.find(e.pair);
    if (pit != table_.end()) return pit->second;
  }
  return e;
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
  recycle(it);
  size_t n = 1;
  if (has_pair) {
    auto pit = table_.find(pair);
    if (pit != table_.end()) {
      recycle(pit);
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

void ConnTracker::refresh(Entry& e, uint64_t now_ns) {
  // Timestamp and LRU position only; the table's answer to every lookup is
  // unchanged, so generation stays put.
  e.last_seen_ns = now_ns;
  std::list<ConnKey>& lru = zones_[e.lru->zone];
  lru.splice(lru.end(), lru, e.lru);
  if (e.has_pair) {
    auto pit = table_.find(e.pair);
    if (pit != table_.end()) {
      pit->second.last_seen_ns = now_ns;
      std::list<ConnKey>& plru = zones_[e.pair.zone];
      plru.splice(plru.end(), plru, pit->second.lru);
    }
  }
}

bool ConnTracker::commit_locked(const ConnRef& r, uint64_t now_ns) {
  const ConnKey& ck = r.key;
  auto it = table_.find(r);
  if (it != table_.end()) {
    refresh(it->second, now_ns);
    ++stats_.refreshed;
    return false;
  }
  Entry& e = insert(ck, now_ns);
  e.orig_is_lo = r.lo_dir;
  e.symmetric = ck.lo_addr == ck.hi_addr && ck.lo_port == ck.hi_port;
  ++stats_.committed;
  ++generation_;
  return true;
}

bool ConnTracker::commit(const FlowKey& key, uint16_t zone,
                         uint64_t now_ns) {
  const ConnRef r = ref(key, zone);
  std::lock_guard<std::mutex> lk(mu_);
  return commit_locked(r, now_ns);
}

bool ConnTracker::commit_nat_locked(const FlowKey& key, const ConnRef& r,
                                    const CtNatSpec& nat, uint64_t now_ns) {
  const ConnKey& ck = r.key;
  // Existing connection: refresh only. Bindings are immutable once
  // committed (rebinding mid-connection would break replies in flight).
  if (table_.find(ck) != table_.end()) return commit_locked(r, now_ns);
  const ConnRef rr = ref(rewritten(key, nat), ck.zone);
  const ConnKey& rk = rr.key;
  // No-op rewrite: a plain commit tracks it fine.
  if (rk == ck) return commit_locked(r, now_ns);

  commit_locked(r, now_ns);
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

bool ConnTracker::commit_nat(const FlowKey& key, const CtNatSpec& nat,
                             uint16_t zone, uint64_t now_ns) {
  const ConnRef r = ref(key, zone);
  std::lock_guard<std::mutex> lk(mu_);
  return commit_nat_locked(key, r, nat, now_ns);
}

bool ConnTracker::remove_locked(const ConnKey& ck) {
  const size_t n = remove_conn(ck);
  if (n == 0) return false;
  stats_.removed += n;
  ++generation_;
  return true;
}

bool ConnTracker::remove(const FlowKey& key, uint16_t zone) {
  const ConnKey ck = ref(key, zone).key;
  std::lock_guard<std::mutex> lk(mu_);
  return remove_locked(ck);
}

size_t ConnTracker::expire_idle(uint64_t now_ns) {
  if (cfg_.idle_timeout_ns == 0) return 0;
  std::lock_guard<std::mutex> lk(mu_);
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

bool ConnTracker::has_expirable(uint64_t now_ns) const {
  if (cfg_.idle_timeout_ns == 0) return false;
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [zone, lru] : zones_) {
    if (lru.empty()) continue;
    const Entry& e = table_.at(lru.front());
    if (e.last_seen_ns + cfg_.idle_timeout_ns <= now_ns) return true;
  }
  return false;
}

void ConnTracker::flush() {
  std::lock_guard<std::mutex> lk(mu_);
  spare_nodes_.clear();
  spare_lru_.clear();
  if (table_.empty()) return;
  table_.clear();
  zones_.clear();
  ++generation_;
}

size_t ConnTracker::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return table_.size();
}

size_t ConnTracker::zone_size(uint16_t zone) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = zones_.find(zone);
  return it == zones_.end() ? 0 : it->second.size();
}

uint64_t ConnTracker::generation() const {
  std::lock_guard<std::mutex> lk(mu_);
  return generation_;
}

ConnTracker::Stats ConnTracker::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace ovs
