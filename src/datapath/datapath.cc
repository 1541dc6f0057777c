#include "datapath/datapath.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <unordered_set>

#include "util/fault.h"

namespace ovs {

namespace {

ClassifierConfig kernel_classifier_config() {
  // The kernel classifier is deliberately simple (§4.2): no priorities (it
  // "can terminate as soon as it finds any match"), no staged lookup, no
  // tries, no partitions — just a list of per-mask hash tables.
  ClassifierConfig cfg = ClassifierConfig::all_disabled();
  cfg.first_match_only = true;
  return cfg;
}

}  // namespace

void Datapath::Stats::operator+=(const Stats& o) noexcept {
  packets += o.packets;
  offload_hits += o.offload_hits;
  microflow_hits += o.microflow_hits;
  megaflow_hits += o.megaflow_hits;
  misses += o.misses;
  upcall_drops += o.upcall_drops;
  stale_microflow_hits += o.stale_microflow_hits;
  tuples_searched += o.tuples_searched;
  emc_inserts += o.emc_inserts;
  emc_insert_skips += o.emc_insert_skips;
  install_fail_full += o.install_fail_full;
  install_fail_transient += o.install_fail_transient;
  upcall_dup_enqueues += o.upcall_dup_enqueues;
  upcalls_delayed += o.upcalls_delayed;
  entries_corrupted += o.entries_corrupted;
  entries_expired += o.entries_expired;
  recirculations += o.recirculations;
  recirc_misses += o.recirc_misses;
  recirc_depth_drops += o.recirc_depth_drops;
  recirc_upcall_drops += o.recirc_upcall_drops;
}

Datapath::Shard::Shard(const DatapathConfig& cfg, uint64_t seed)
    : first(kernel_classifier_config()),
      post_ct(kernel_classifier_config()),
      micro(cfg.microflow_sets * cfg.microflow_ways),
      rng(seed),
      emc_insert_inv_prob(cfg.emc_insert_inv_prob) {
  if (cfg.offload_slots > 0)
    off = std::make_unique<OffloadTable>(cfg.offload_slots);
}

Datapath::Datapath(DatapathConfig cfg, size_t workers)
    : cfg_(cfg), ct_(cfg.conntrack) {
  if (cfg_.emc_insert_inv_prob == 0) cfg_.emc_insert_inv_prob = 1;
  const size_t n = std::max<size_t>(workers, 1);
  shards_.reserve(n);
  // Shard 0 keeps the configured seed; the others get independent streams.
  for (size_t w = 0; w < n; ++w)
    shards_.push_back(std::make_unique<Shard>(
        cfg_, cfg_.seed + 0x9E3779B97F4A7C15ULL * w));
}

Datapath::~Datapath() = default;

// --- Fast path ---------------------------------------------------------------

MegaflowEntry* Datapath::microflow_lookup(Shard& s, const FlowKey& key,
                                          uint64_t hash) const noexcept {
  const size_t set = (hash >> 32) & (cfg_.microflow_sets - 1);
  for (size_t w = 0; w < cfg_.microflow_ways; ++w) {
    MicroSlot& slot = s.micro[set * cfg_.microflow_ways + w];
    if (slot.entry == nullptr || slot.hash != hash) continue;
    MegaflowEntry* e = slot.entry;
    // "A stale microflow cache entry is detected and corrected the first
    // time a packet matches it" (§6): validate against the megaflow.
    if (e->dead() || !e->match().matches(key)) {
      slot.entry = nullptr;
      ++s.stats.stale_microflow_hits;
      return nullptr;
    }
    return e;
  }
  return nullptr;
}

void Datapath::microflow_insert(Shard& s, uint64_t hash,
                                MegaflowEntry* entry) const noexcept {
  // Probabilistic insertion (§7.3's churn mitigation, OVS
  // emc-insert-inv-prob): under microflow churn most EMC entries are used
  // exactly once, so inserting 1-in-N keeps the hot working set resident
  // instead of letting one-shot flows evict it.
  if (s.emc_insert_inv_prob > 1 &&
      s.rng.uniform(s.emc_insert_inv_prob) != 0) {
    ++s.stats.emc_insert_skips;
    return;
  }
  ++s.stats.emc_inserts;
  const size_t set = (hash >> 32) & (cfg_.microflow_sets - 1);
  // Prefer an empty or same-hash way; otherwise pseudo-random replacement
  // ("we use a pseudo-random replacement policy, for simplicity", §6).
  for (size_t w = 0; w < cfg_.microflow_ways; ++w) {
    MicroSlot& slot = s.micro[set * cfg_.microflow_ways + w];
    if (slot.entry == nullptr || slot.hash == hash) {
      slot = {hash, entry};
      return;
    }
  }
  const size_t w = s.rng.uniform(cfg_.microflow_ways);
  s.micro[set * cfg_.microflow_ways + w] = {hash, entry};
}

void Datapath::deliver_upcall(Packet&& pkt, Stats& stats) {
  if (!sink_ || !sink_(std::move(pkt))) ++stats.upcall_drops;
}

void Datapath::flush_upcalls(Shard& s) {
  std::lock_guard<std::mutex> lk(upcall_mu_);
  for (RecircUpcall& u : s.recirc_missed) {
    if (recirc_upcalls_.size() < kMaxRecircUpcalls)
      recirc_upcalls_.push_back(std::move(u));
    else
      ++s.stats.recirc_upcall_drops;
  }
  s.recirc_missed.clear();
  for (Packet& p : s.missed) {
    if (fault_ != nullptr) {
      if (fault_->should_fire(FaultPoint::kUpcallDrop)) {
        ++s.stats.upcall_drops;
        continue;
      }
      if (fault_->should_fire(FaultPoint::kUpcallDelay)) {
        ++s.stats.upcalls_delayed;
        delayed_.push_back(std::move(p));
        continue;
      }
      if (fault_->should_fire(FaultPoint::kUpcallDuplicate)) {
        ++s.stats.upcall_dup_enqueues;
        deliver_upcall(Packet(p), s.stats);
      }
    }
    deliver_upcall(std::move(p), s.stats);
  }
  s.missed.clear();
}

void Datapath::flush_delayed_upcalls() {
  std::lock_guard<std::mutex> lk(upcall_mu_);
  std::vector<Packet> parked;
  parked.swap(delayed_);
  for (Packet& p : parked) deliver_upcall(std::move(p), ctl_stats_);
}

size_t Datapath::delayed_upcall_count() const {
  std::lock_guard<std::mutex> lk(upcall_mu_);
  return delayed_.size();
}

void Datapath::set_upcall_sink(UpcallSink sink) {
  std::lock_guard<std::mutex> lk(upcall_mu_);
  sink_ = std::move(sink);
}

void Datapath::take_recirc_upcalls(std::vector<RecircUpcall>* out) {
  out->clear();
  std::lock_guard<std::mutex> lk(upcall_mu_);
  out->swap(recirc_upcalls_);
}

// --- Recirculation -----------------------------------------------------------

bool Datapath::run_stages(Shard& s, const Packet& pkt, FlowKey& key,
                          const DpActions* acts, unsigned& depth,
                          uint64_t now_ns, DpActions& fate) {
  while (true) {
    fate.append_stage(*acts);
    if (!acts->recirculates()) break;
    if (depth == kMaxRecircDepth) {
      ++s.stats.recirc_depth_drops;
      break;
    }
    acts->apply_set_fields(key);
    const CtAction& ct = acts->ct();
    const ConnTracker::Verdict v = ct_.execute(key, ct, now_ns);
    if (ct_observer_) ct_observer_(pkt, key, ct, v, now_ns);
    apply_ct_verdict(v, key, fate);
    if (!cfg_.ct_state_on_recirc) key.set_ct_state(0);
    key.set_recirc_id(acts->recirc_id());
    ++depth;
    ++s.stats.recirculations;
    // Straight to the classifier: a recirculated key carries its
    // connection's state and flags, so its microflows rarely repeat and
    // the EMC would only churn (DESIGN.md §15).
    LookupCounts n;
    const Rule* r = s.mega(key.recirc_id()).lookup(key, nullptr, &n);
    s.stats.tuples_searched += n.searched;
    if (r == nullptr) return false;
    auto* e = const_cast<MegaflowEntry*>(static_cast<const MegaflowEntry*>(r));
    e->bump(1, pkt.size_bytes, now_ns);
    acts = &e->actions();
  }
  fate.normalize();
  return true;
}

const DpActions* Datapath::recirculate(Shard& s, const Packet& pkt,
                                       const MegaflowEntry& e,
                                       uint64_t now_ns, DpActions& fate) {
  fate.list.clear();
  FlowKey key = pkt.key;
  unsigned depth = 0;
  if (run_stages(s, pkt, key, &e.actions(), depth, now_ns, fate))
    return &fate;
  ++s.stats.recirc_misses;
  s.recirc_missed.push_back(RecircUpcall{pkt, key, fate, depth});
  return nullptr;
}

bool Datapath::continue_fate(const Packet& pkt, FlowKey& key,
                             const DpActions& stage, unsigned& depth,
                             uint64_t now_ns, DpActions& fate) {
  Shard& s = *shards_[0];
  std::lock_guard<std::mutex> lk(s.mu);
  if (run_stages(s, pkt, key, &stage, depth, now_ns, fate)) return true;
  ++s.stats.recirc_misses;
  return false;
}

size_t Datapath::next_worker() noexcept {
  const size_t w = rr_;
  rr_ = rr_ + 1 == shards_.size() ? 0 : rr_ + 1;
  return w;
}

Datapath::RxResult Datapath::receive(size_t worker, const Packet& pkt,
                                     uint64_t now_ns) {
  assert(worker < shards_.size());
  Shard& s = *shards_[worker];
  std::lock_guard<std::mutex> lk(s.mu);
  const RxResult res = receive_locked(s, pkt, now_ns);
  if (!s.missed.empty() || !s.recirc_missed.empty()) flush_upcalls(s);
  return res;
}

Datapath::RxResult Datapath::receive_locked(Shard& s, const Packet& pkt,
                                            uint64_t now_ns) {
  ++s.stats.packets;

  // NIC offload tier, consulted before any software cache (§13). A hit
  // forwards from the slot's action *snapshot* — exactly what programmed
  // hardware would do — and still credits the owning megaflow's statistics
  // so idle expiry and the placement EWMA see the traffic.
  if (s.off != nullptr) {
    if (const OffloadTable::Entry* oe = s.off->probe(pkt.key)) {
      oe->hits.fetch_add(1, std::memory_order_relaxed);
      oe->bytes.fetch_add(pkt.size_bytes, std::memory_order_relaxed);
      static_cast<MegaflowEntry*>(oe->replica)
          ->bump(1, pkt.size_bytes, now_ns);
      ++s.stats.offload_hits;
      return {Path::kOffloadHit, &oe->actions, 0};
    }
  }

  // A hit's actions, or, for a recirculating entry, the packet's composed
  // fate (null when a recirculated lookup missed).
  auto fate_of = [&](MegaflowEntry* e) -> const DpActions* {
    if (!e->recirc_) return &e->actions();
    if (s.fates.empty()) s.fates.resize(1);
    return recirculate(s, pkt, *e, now_ns, s.fates[0]);
  };
  const uint64_t hash = pkt.key.hash();
  if (cfg_.microflow_enabled) {
    if (MegaflowEntry* e = microflow_lookup(s, pkt.key, hash)) {
      e->bump(1, pkt.size_bytes, now_ns);
      ++s.stats.microflow_hits;
      // The hinted megaflow's hash table counts as the single table probed.
      s.stats.tuples_searched += 1;
      const DpActions* a = fate_of(e);
      return {a != nullptr ? Path::kMicroflowHit : Path::kMiss, a, 1};
    }
  }

  LookupCounts n;
  const Rule* r = s.mega(pkt.key.recirc_id()).lookup(pkt.key, nullptr, &n);
  const uint32_t searched = n.searched;
  s.stats.tuples_searched += searched;
  if (r != nullptr) {
    auto* e = const_cast<MegaflowEntry*>(static_cast<const MegaflowEntry*>(r));
    e->bump(1, pkt.size_bytes, now_ns);
    ++s.stats.megaflow_hits;
    if (cfg_.microflow_enabled) microflow_insert(s, hash, e);
    const DpActions* a = fate_of(e);
    return {a != nullptr ? Path::kMegaflowHit : Path::kMiss, a, searched};
  }

  ++s.stats.misses;
  s.missed.push_back(pkt);
  return {Path::kMiss, nullptr, searched};
}

// One chunk (n <= kMaxBatch) of the batched fast path, O(n). The dance, in
// order:
//
//   1. hash every flow key once;
//   2. group packets by microflow (same hash + same key) through a small
//      open-addressed table of leader indices on the stack — only the first
//      packet of each group (the "leader") probes the caches;
//   3. leaders walk offload -> EMC -> megaflow -> miss exactly like
//      receive();
//   4. followers inherit their leader's outcome: a hit leader makes every
//      follower a microflow hit (sequentially, the leader's EMC insert would
//      have been hit by each follower), a missing leader makes each follower
//      its own upcall (nothing was installed in between);
//   5. followers of a hit add their packet and byte counts to their
//      leader's; each such leader then bumps its megaflow once, and an
//      offload-hit leader credits its NIC slot once. A burst has one
//      timestamp, so totals and last-used equal receive()'s.
void Datapath::process_chunk(Shard& s, const Packet* pkts, size_t n,
                             uint64_t now_ns, RxResult* results, size_t base,
                             size_t total, BatchSummary& summary) {
  uint64_t hashes[kMaxBatch];
  uint16_t leader[kMaxBatch];         // index of the packet's group leader
  MegaflowEntry* entry[kMaxBatch];    // leader slots: matched megaflow
  const OffloadTable::Entry* offl[kMaxBatch];  // leader slots: NIC slot hit
  uint32_t grp_pkts[kMaxBatch];       // leader slots: the group's packets
  uint64_t grp_bytes[kMaxBatch];      // leader slots: the group's bytes
  bool recirc = false;                // some leader hit a recirculating entry

  s.stats.packets += n;
  summary.packets += static_cast<uint32_t>(n);

  for (size_t i = 0; i < n; ++i) hashes[i] = pkts[i].key.hash();

  // Microflow grouping: linear probing in a table of leader indices at
  // most half full (the next power of two >= 2n slots).
  constexpr uint16_t kFree = UINT16_MAX;
  uint16_t slots[2 * kMaxBatch];
  const size_t mask = std::bit_ceil(2 * n) - 1;
  std::fill_n(slots, mask + 1, kFree);
  for (size_t i = 0; i < n; ++i) {
    size_t h = hashes[i] & mask;
    while (slots[h] != kFree) {
      const size_t j = slots[h];
      if (hashes[j] == hashes[i] && pkts[j].key == pkts[i].key) break;
      h = (h + 1) & mask;
    }
    if (slots[h] == kFree) slots[h] = static_cast<uint16_t>(i);
    leader[i] = slots[h];
  }

  // Leaders probe the caches; followers resolve against their leader (whose
  // index is always smaller, so a single in-order pass suffices).
  for (size_t i = 0; i < n; ++i) {
    if (leader[i] != i) {
      const size_t l = leader[i];
      const RxResult& lr = results[l];
      if (entry[l] == nullptr) {
        ++s.stats.misses;
        ++summary.misses;
        s.missed.push_back(pkts[i]);
        results[i] = {Path::kMiss, nullptr, 0};
        continue;
      }
      ++grp_pkts[l];
      grp_bytes[l] += pkts[i].size_bytes;
      if (lr.path == Path::kOffloadHit) {
        // Hardware would have matched this packet the same way; no software
        // cache is consulted.
        ++s.stats.offload_hits;
        ++summary.offload_hits;
        results[i] = {Path::kOffloadHit, lr.actions, 0};
      } else if (cfg_.microflow_enabled) {
        // Sequentially this packet would have hit the EMC entry the leader
        // installed (or re-used); no table is physically probed.
        ++s.stats.microflow_hits;
        results[i] = {Path::kMicroflowHit, lr.actions, 0};
      } else {
        // No EMC: sequentially this would have been its own (identical)
        // classifier search. Dedup skips the probe but keeps the class.
        ++s.stats.megaflow_hits;
        results[i] = {Path::kMegaflowHit, lr.actions, 0};
      }
      continue;
    }

    entry[i] = nullptr;
    offl[i] = nullptr;
    grp_pkts[i] = 1;
    grp_bytes[i] = pkts[i].size_bytes;
    if (s.off != nullptr) {
      ++summary.offload_probes;
      if (const OffloadTable::Entry* oe = s.off->probe(pkts[i].key)) {
        ++s.stats.offload_hits;
        ++summary.offload_hits;
        // The owning megaflow's stats and the slot's own counters are
        // credited with the group's totals below.
        offl[i] = oe;
        entry[i] = static_cast<MegaflowEntry*>(oe->replica);
        results[i] = {Path::kOffloadHit, &oe->actions, 0};
        continue;
      }
    }
    if (cfg_.microflow_enabled) {
      ++summary.emc_probes;
      if (MegaflowEntry* e = microflow_lookup(s, pkts[i].key, hashes[i])) {
        ++s.stats.microflow_hits;
        s.stats.tuples_searched += 1;
        summary.tuples_searched += 1;
        entry[i] = e;
        recirc |= e->recirc_;
        results[i] = {Path::kMicroflowHit, &e->actions(), 1};
        continue;
      }
    }

    LookupCounts cnt;
    const Rule* r =
        s.mega(pkts[i].key.recirc_id()).lookup(pkts[i].key, nullptr, &cnt);
    const uint32_t searched = cnt.searched;
    ++summary.megaflow_lookups;
    s.stats.tuples_searched += searched;
    summary.tuples_searched += searched;
    if (r != nullptr) {
      auto* e =
          const_cast<MegaflowEntry*>(static_cast<const MegaflowEntry*>(r));
      ++s.stats.megaflow_hits;
      if (cfg_.microflow_enabled) microflow_insert(s, hashes[i], e);
      entry[i] = e;
      recirc |= e->recirc_;
      results[i] = {Path::kMegaflowHit, &e->actions(), searched};
    } else {
      ++s.stats.misses;
      ++summary.misses;
      s.missed.push_back(pkts[i]);
      results[i] = {Path::kMiss, nullptr, searched};
    }
  }

  // Group statistics: one update per leader that matched.
  for (size_t i = 0; i < n; ++i) {
    if (leader[i] != i || entry[i] == nullptr) continue;
    entry[i]->bump(grp_pkts[i], grp_bytes[i], now_ns);
    if (const OffloadTable::Entry* oe = offl[i]) {
      oe->hits.fetch_add(grp_pkts[i], std::memory_order_relaxed);
      oe->bytes.fetch_add(grp_bytes[i], std::memory_order_relaxed);
    }
  }

  // Packets of recirculating megaflows (never offloaded) run their ct and
  // recirculated lookups one by one, in arrival order: each packet's ct
  // sees its predecessors' commits.
  // Their composed fates live in the shard, indexed like the whole burst;
  // the buffer grows, before any fate of the burst is handed out, the first
  // time a burst needs it.
  if (!recirc) return;
  if (s.fates.size() < total) s.fates.resize(total);
  for (size_t i = 0; i < n; ++i) {
    const MegaflowEntry* e = entry[leader[i]];
    if (e == nullptr || !e->recirc_) continue;
    results[i].actions =
        recirculate(s, pkts[i], *e, now_ns, s.fates[base + i]);
    if (results[i].actions == nullptr) {
      results[i].path = Path::kMiss;
      ++summary.misses;
    }
  }
}

void Datapath::process_batch(size_t worker, std::span<const Packet> pkts,
                             uint64_t now_ns, RxResult* results,
                             BatchSummary* summary) {
  assert(worker < shards_.size());
  Shard& s = *shards_[worker];
  std::lock_guard<std::mutex> lk(s.mu);
  BatchSummary local;
  for (size_t off = 0; off < pkts.size(); off += kMaxBatch) {
    const size_t n = std::min(kMaxBatch, pkts.size() - off);
    process_chunk(s, pkts.data() + off, n, now_ns, results + off, off,
                  pkts.size(), local);
  }
  if (!s.missed.empty() || !s.recirc_missed.empty()) flush_upcalls(s);
  if (summary != nullptr) *summary += local;
  if (callback_)
    callback_(worker, std::span<const RxResult>(results, pkts.size()));
}

void Datapath::process_batch(std::span<const Packet> pkts, uint64_t now_ns,
                             RxResult* results, BatchSummary* summary) {
  process_batch(next_worker(), pkts, now_ns, results, summary);
}

// --- Control path ------------------------------------------------------------

Datapath::FlowRef Datapath::install(const Match& match, DpActions&& actions,
                                    uint64_t now_ns,
                                    const FlowKey* full_key) {
  if (!match.mask.is_exact(FieldId::kRecircId)) {
    // The classifier split below relies on every megaflow naming its stage.
    Match pinned = match;
    pinned.mask.set_exact(FieldId::kRecircId);
    pinned.normalize();
    return install(pinned, std::move(actions), now_ns, full_key);
  }
  const uint32_t recirc_id = match.key.recirc_id();
  if (Rule* existing = shards_[0]->mega(recirc_id).find_exact(match, 0))
    return static_cast<MegaflowEntry*>(existing);
  if (fault_ != nullptr) {
    if (fault_->should_fire(FaultPoint::kInstallTableFull)) {
      ++ctl_stats_.install_fail_full;
      return nullptr;
    }
    if (fault_->should_fire(FaultPoint::kInstallTransient)) {
      ++ctl_stats_.install_fail_transient;
      return nullptr;
    }
  }
  if (cfg_.max_flows != 0 && flow_count() >= cfg_.max_flows) {
    ++ctl_stats_.install_fail_full;
    return nullptr;
  }
  // The replicas copy shard 0's actions; shard 0 takes the caller's list.
  MegaflowEntry* flow = nullptr;
  for (size_t w = 0; w < shards_.size(); ++w) {
    Shard& s = *shards_[w];
    auto owned =
        w == 0 ? std::make_unique<MegaflowEntry>(match, std::move(actions))
               : std::make_unique<MegaflowEntry>(match, flow->actions());
    MegaflowEntry* e = owned.get();
    e->full_key_ = full_key != nullptr ? *full_key : match.key;
    e->created_ns_ = now_ns;
    e->used_ns_.store(now_ns, std::memory_order_relaxed);
    e->index_ = s.entries.size();
    if (w == 0) flow = e;
    std::lock_guard<std::mutex> lk(s.mu);
    s.mega(recirc_id).insert(e);
    s.entries.push_back(std::move(owned));
  }
  return flow;
}

void Datapath::remove(FlowRef flow) {
  assert(!flow->dead());
  const size_t i = flow->index_;
  for (const auto& sp : shards_) {
    Shard& s = *sp;
    assert(i < s.entries.size());
    MegaflowEntry* e = s.entries[i].get();
    std::lock_guard<std::mutex> lk(s.mu);
    // Shadow coherence (§13): a megaflow may not die while its NIC copy
    // keeps forwarding. Evicting here covers every deletion path —
    // revalidator idle/stale deletes, hard eviction, quarantine — in the
    // same step.
    if (s.off != nullptr) s.off->evict(flow);
    s.holder(*e).remove(e);
    e->dead_ = true;
    s.graveyard.push_back(std::move(s.entries[i]));
    if (i + 1 != s.entries.size()) {
      s.entries[i] = std::move(s.entries.back());
      s.entries[i]->index_ = i;
    }
    s.entries.pop_back();
  }
}

void Datapath::update_actions(FlowRef flow, DpActions actions) {
  // Shard 0 last, so it can take the list itself.
  for (size_t w = shards_.size(); w-- > 0;) {
    Shard& s = *shards_[w];
    MegaflowEntry* e = replica(w, flow);
    std::lock_guard<std::mutex> lk(s.mu);
    if (w == 0) {
      e->set_actions(std::move(actions));
    } else {
      e->set_actions(actions);
    }
    // Reprogram the NIC copy in the same step (revalidator repair, §13);
    // a flow that now recirculates leaves the NIC, which runs no ct.
    if (s.off != nullptr) {
      if (e->recirc_)
        s.off->evict(flow);
      else
        s.off->sync_actions(flow, e->actions());
    }
  }
}

void Datapath::credit_packet(FlowRef flow, const Packet& pkt,
                             uint64_t now_ns) {
  std::lock_guard<std::mutex> lk(shards_[0]->mu);
  flow->bump(1, pkt.size_bytes, std::max(now_ns, flow->used_ns()));
}

void Datapath::purge_dead() {
  for (const auto& sp : shards_) {
    Shard& s = *sp;
    if (s.graveyard.empty()) continue;
    // Grace period: clear any microflow slots that still point at dead
    // entries, then free them.
    std::lock_guard<std::mutex> lk(s.mu);
    for (MicroSlot& slot : s.micro)
      if (slot.entry != nullptr && slot.entry->dead()) slot.entry = nullptr;
    s.graveyard.clear();
  }
}

std::vector<Datapath::FlowRef> Datapath::dump() const {
  const Shard& s = *shards_[0];
  std::vector<FlowRef> out;
  out.reserve(s.entries.size());
  for (const auto& e : s.entries) out.push_back(e.get());
  return out;
}

uint64_t Datapath::flow_packets(FlowRef f) const noexcept {
  uint64_t n = f->packets();
  for (size_t w = 1; w < shards_.size(); ++w) n += replica(w, f)->packets();
  return n;
}

uint64_t Datapath::flow_bytes(FlowRef f) const noexcept {
  uint64_t n = f->bytes();
  for (size_t w = 1; w < shards_.size(); ++w) n += replica(w, f)->bytes();
  return n;
}

uint64_t Datapath::flow_used_ns(FlowRef f) const noexcept {
  uint64_t t = f->used_ns();
  for (size_t w = 1; w < shards_.size(); ++w)
    t = std::max(t, replica(w, f)->used_ns());
  return t;
}

void Datapath::corrupt_entry(size_t idx) {
  const size_t n = flow_count();
  if (n == 0) return;
  for (const auto& sp : shards_) {
    // A recognizably bogus action list: forward to a port that exists
    // nowhere. The flow misbehaves until a revalidator pass re-translates
    // it.
    std::lock_guard<std::mutex> lk(sp->mu);
    sp->entries[idx % n]->set_actions(DpActions().output(0xDEAD));
  }
  ++ctl_stats_.entries_corrupted;
}

void Datapath::expire_entry(size_t idx) {
  const size_t n = flow_count();
  if (n == 0) return;
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> lk(sp->mu);
    sp->entries[idx % n]->used_ns_.store(0, std::memory_order_relaxed);
  }
  ++ctl_stats_.entries_expired;
}

void Datapath::corrupt_filing(size_t idx, FilingCorruption kind) {
  const size_t n = flow_count();
  if (n == 0) return;
  for (const auto& sp : shards_) {
    Shard& s = *sp;
    std::lock_guard<std::mutex> lk(s.mu);
    MegaflowEntry* e = s.entries[idx % n].get();
    Classifier& from = s.holder(*e);
    from.remove(e);
    if (kind == FilingCorruption::kUnpinned) {
      e->mutable_match().mask.clear_field(FieldId::kRecircId);
      e->mutable_match().normalize();
      from.insert(e);
    } else {
      (&from == &s.first ? s.post_ct : s.first).insert(e);
    }
  }
}

void Datapath::set_emc_insert_inv_prob(uint32_t inv) {
  cfg_.emc_insert_inv_prob = inv == 0 ? 1 : inv;
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> lk(sp->mu);
    sp->emc_insert_inv_prob = cfg_.emc_insert_inv_prob;
  }
}

// --- Offload tier ------------------------------------------------------------

bool Datapath::offload_install(FlowRef flow, uint64_t now_ns) {
  // The NIC runs no conntrack: recirculating flows stay in software.
  if (!offload_enabled() || flow->recirc_) return false;
  bool ok = false;
  for (size_t w = 0; w < shards_.size(); ++w) {
    Shard& s = *shards_[w];
    MegaflowEntry* e = replica(w, flow);
    std::lock_guard<std::mutex> lk(s.mu);
    // Lockstep tables: every copy accepts or refuses alike.
    ok = s.off->install(e->match(), e->actions(), flow, e, now_ns);
  }
  return ok;
}

bool Datapath::offload_evict(FlowRef flow) {
  if (!offload_enabled()) return false;
  bool ok = false;
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> lk(sp->mu);
    ok = sp->off->evict(flow);
  }
  return ok;
}

bool Datapath::offload_corrupt(size_t idx, OffloadTable::Corruption kind) {
  if (!offload_enabled()) return false;
  bool ok = false;
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> lk(sp->mu);
    ok = sp->off->corrupt(idx, kind);
  }
  return ok;
}

std::vector<Datapath::OffloadSlot> Datapath::offload_dump() const {
  std::vector<OffloadSlot> out;
  if (!offload_enabled()) return out;
  out.reserve(offload()->size());
  offload()->for_each([&](const OffloadTable::Entry& e) {
    uint64_t hits = 0, bytes = 0;
    for (const auto& sp : shards_) {
      const OffloadTable::Entry* copy = sp->off->find(e.owner);
      hits += copy->hits.load(std::memory_order_relaxed);
      bytes += copy->bytes.load(std::memory_order_relaxed);
    }
    out.push_back({static_cast<FlowRef>(e.owner), &e.mask, &e.key,
                   &e.actions, hits, bytes});
  });
  return out;
}

// --- Counters and checks -----------------------------------------------------

Datapath::Stats Datapath::stats() const {
  Stats out = ctl_stats_;
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> lk(sp->mu);
    out += sp->stats;
  }
  return out;
}

void Datapath::reset_stats() {
  ctl_stats_ = Stats{};
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> lk(sp->mu);
    sp->stats = Stats{};
  }
}

size_t Datapath::emc_dangling_hints() const {
  size_t dangling = 0;
  for (const auto& sp : shards_) {
    const Shard& s = *sp;
    std::lock_guard<std::mutex> lk(sp->mu);
    std::unordered_set<const MegaflowEntry*> known;
    known.reserve(s.entries.size() + s.graveyard.size());
    for (const auto& e : s.entries) known.insert(e.get());
    for (const auto& e : s.graveyard) known.insert(e.get());
    for (const MicroSlot& slot : s.micro)
      if (slot.entry != nullptr && known.count(slot.entry) == 0) ++dangling;
  }
  return dangling;
}

bool Datapath::flow_filed_by_recirc_id(FlowRef f) const {
  for (size_t w = 0; w < shards_.size(); ++w) {
    Shard& s = *shards_[w];
    std::lock_guard<std::mutex> lk(s.mu);
    const MegaflowEntry* e = replica(w, f);
    if (!s.mega(e->match().key.recirc_id()).holds(*e)) return false;
  }
  return true;
}

}  // namespace ovs
