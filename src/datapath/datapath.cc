#include "datapath/datapath.h"

#include <algorithm>
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

Datapath::Datapath(DatapathConfig cfg)
    : cfg_(cfg),
      mega_(kernel_classifier_config()),
      micro_(cfg.microflow_sets * cfg.microflow_ways),
      rng_(cfg.seed) {
  if (cfg_.offload_slots > 0)
    off_ = std::make_unique<OffloadTable>(cfg_.offload_slots);
}

Datapath::~Datapath() = default;

MegaflowEntry* Datapath::microflow_lookup(const FlowKey& key,
                                          uint64_t hash) noexcept {
  const size_t set = (hash >> 32) & (cfg_.microflow_sets - 1);
  for (size_t w = 0; w < cfg_.microflow_ways; ++w) {
    MicroSlot& slot = micro_[set * cfg_.microflow_ways + w];
    if (slot.entry == nullptr || slot.hash != hash) continue;
    MegaflowEntry* e = slot.entry;
    // "A stale microflow cache entry is detected and corrected the first
    // time a packet matches it" (§6): validate against the megaflow.
    if (e->dead() || !e->match().matches(key)) {
      slot.entry = nullptr;
      ++stats_.stale_microflow_hits;
      return nullptr;
    }
    return e;
  }
  return nullptr;
}

void Datapath::microflow_insert(uint64_t hash, MegaflowEntry* entry) noexcept {
  // Probabilistic insertion (§7.3's churn mitigation, OVS
  // emc-insert-inv-prob): under microflow churn most EMC entries are used
  // exactly once, so inserting 1-in-N keeps the hot working set resident
  // instead of letting one-shot flows evict it.
  if (cfg_.emc_insert_inv_prob > 1 &&
      rng_.uniform(cfg_.emc_insert_inv_prob) != 0) {
    ++stats_.emc_insert_skips;
    return;
  }
  ++stats_.emc_inserts;
  const size_t set = (hash >> 32) & (cfg_.microflow_sets - 1);
  // Prefer an empty or same-hash way; otherwise pseudo-random replacement
  // ("we use a pseudo-random replacement policy, for simplicity", §6).
  for (size_t w = 0; w < cfg_.microflow_ways; ++w) {
    MicroSlot& slot = micro_[set * cfg_.microflow_ways + w];
    if (slot.entry == nullptr || slot.hash == hash) {
      slot = {hash, entry};
      return;
    }
  }
  const size_t w = rng_.uniform(cfg_.microflow_ways);
  micro_[set * cfg_.microflow_ways + w] = {hash, entry};
}

void Datapath::deliver_upcall(Packet&& pkt) {
  if (!sink_ || !sink_(std::move(pkt))) ++stats_.upcall_drops;
}

void Datapath::enqueue_upcall(const Packet& pkt) {
  if (fault_ != nullptr) {
    if (fault_->should_fire(FaultPoint::kUpcallDrop)) {
      ++stats_.upcall_drops;
      return;
    }
    if (fault_->should_fire(FaultPoint::kUpcallDelay)) {
      ++stats_.upcalls_delayed;
      delayed_.push_back(pkt);
      return;
    }
    if (fault_->should_fire(FaultPoint::kUpcallDuplicate)) {
      ++stats_.upcall_dup_enqueues;
      deliver_upcall(Packet(pkt));
    }
  }
  deliver_upcall(Packet(pkt));
}

void Datapath::flush_delayed_upcalls() {
  std::vector<Packet> parked;
  parked.swap(delayed_);
  for (Packet& p : parked) deliver_upcall(std::move(p));
}

Datapath::RxResult Datapath::receive(const Packet& pkt, uint64_t now_ns) {
  ++stats_.packets;
  RxResult res;

  // NIC offload tier, consulted before any software cache (§13). A hit
  // forwards from the slot's action *snapshot* — exactly what programmed
  // hardware would do — and still credits the owning megaflow's statistics
  // so idle expiry and the placement EWMA see the traffic.
  if (off_ != nullptr) {
    if (const OffloadTable::Entry* oe = off_->probe(pkt.key)) {
      oe->counters->hits.fetch_add(1, std::memory_order_relaxed);
      oe->counters->bytes.fetch_add(pkt.size_bytes,
                                    std::memory_order_relaxed);
      MegaflowEntry* e = as(static_cast<FlowRef>(oe->owner));
      e->packets_ += 1;
      e->bytes_ += pkt.size_bytes;
      e->used_ns_ = now_ns;
      ++stats_.offload_hits;
      return {Path::kOffloadHit, &oe->actions, 0};
    }
  }

  const uint64_t hash = pkt.key.hash();
  if (cfg_.microflow_enabled) {
    if (MegaflowEntry* e = microflow_lookup(pkt.key, hash)) {
      e->packets_ += 1;
      e->bytes_ += pkt.size_bytes;
      e->used_ns_ = now_ns;
      ++stats_.microflow_hits;
      // The hinted megaflow's hash table counts as the single table probed.
      stats_.tuples_searched += 1;
      res = {Path::kMicroflowHit, &e->actions(), 1};
      return res;
    }
  }

  uint32_t searched = 0;
  const Rule* r = mega_.lookup(pkt.key, nullptr, &searched);
  stats_.tuples_searched += searched;
  if (r != nullptr) {
    auto* e = const_cast<MegaflowEntry*>(static_cast<const MegaflowEntry*>(r));
    e->packets_ += 1;
    e->bytes_ += pkt.size_bytes;
    e->used_ns_ = now_ns;
    ++stats_.megaflow_hits;
    if (cfg_.microflow_enabled) microflow_insert(hash, e);
    res = {Path::kMegaflowHit, &e->actions(), searched};
    return res;
  }

  ++stats_.misses;
  enqueue_upcall(pkt);
  res = {Path::kMiss, nullptr, searched};
  return res;
}

// One chunk (n <= kMaxBatch) of the batched fast path. The dance, in order:
//
//   1. hash every flow key once;
//   2. group packets by microflow (same hash + same key) — only the first
//      packet of each group (the "leader") probes the caches;
//   3. leaders walk EMC -> megaflow -> miss exactly like receive();
//   4. followers inherit their leader's outcome: a hit leader makes every
//      follower a microflow hit (sequentially, the leader's EMC insert would
//      have been hit by each follower), a missing leader makes each follower
//      its own upcall (nothing was installed in between);
//   5. per-megaflow statistics are bumped once per matched entry with the
//      group's packet/byte totals.
void Datapath::process_chunk(const Packet* pkts, size_t n, uint64_t now_ns,
                             RxResult* results, BatchSummary& summary) {
  uint64_t hashes[kMaxBatch];
  uint16_t leader[kMaxBatch];         // index of the packet's group leader
  MegaflowEntry* entry[kMaxBatch];    // leader slots: matched megaflow
  const OffloadTable::Entry* offl[kMaxBatch];  // leader slots: NIC slot hit
  uint16_t leaders[kMaxBatch];        // indices of unique microflow leaders
  size_t n_leaders = 0;

  stats_.packets += n;
  summary.packets += static_cast<uint32_t>(n);

  for (size_t i = 0; i < n; ++i) hashes[i] = pkts[i].key.hash();

  // Microflow grouping. Bursts are small (<= 256) and the leader list is
  // typically much smaller, so a linear scan with a hash prefilter beats a
  // hash table here.
  for (size_t i = 0; i < n; ++i) {
    leader[i] = static_cast<uint16_t>(i);
    for (size_t l = 0; l < n_leaders; ++l) {
      const size_t j = leaders[l];
      if (hashes[j] == hashes[i] && pkts[j].key == pkts[i].key) {
        leader[i] = static_cast<uint16_t>(j);
        break;
      }
    }
    if (leader[i] == i) leaders[n_leaders++] = static_cast<uint16_t>(i);
  }

  // Leaders probe the caches; followers resolve against their leader (whose
  // index is always smaller, so a single in-order pass suffices).
  for (size_t i = 0; i < n; ++i) {
    if (leader[i] != i) {
      const RxResult& lr = results[leader[i]];
      if (lr.path == Path::kOffloadHit) {
        // Hardware would have matched this packet the same way; no software
        // cache is consulted.
        ++stats_.offload_hits;
        ++summary.offload_hits;
        results[i] = {Path::kOffloadHit, lr.actions, 0};
        continue;
      }
      if (entry[leader[i]] != nullptr) {
        if (cfg_.microflow_enabled) {
          // Sequentially this packet would have hit the EMC entry the
          // leader installed (or re-used); no table is physically probed.
          ++stats_.microflow_hits;
          results[i] = {Path::kMicroflowHit, lr.actions, 0};
        } else {
          // No EMC: sequentially this would have been its own (identical)
          // classifier search. Dedup skips the probe but keeps the class.
          ++stats_.megaflow_hits;
          results[i] = {Path::kMegaflowHit, lr.actions, 0};
        }
      } else {
        ++stats_.misses;
        ++summary.misses;
        enqueue_upcall(pkts[i]);
        results[i] = {Path::kMiss, nullptr, 0};
      }
      continue;
    }

    entry[i] = nullptr;
    offl[i] = nullptr;
    if (off_ != nullptr) {
      ++summary.offload_probes;
      if (const OffloadTable::Entry* oe = off_->probe(pkts[i].key)) {
        ++stats_.offload_hits;
        ++summary.offload_hits;
        // The owning megaflow's stats are bumped in the group pass below,
        // via entry[]; the slot's own counters are credited there too.
        offl[i] = oe;
        entry[i] = as(static_cast<FlowRef>(oe->owner));
        results[i] = {Path::kOffloadHit, &oe->actions, 0};
        continue;
      }
    }
    if (cfg_.microflow_enabled) {
      ++summary.emc_probes;
      if (MegaflowEntry* e = microflow_lookup(pkts[i].key, hashes[i])) {
        ++stats_.microflow_hits;
        stats_.tuples_searched += 1;
        summary.tuples_searched += 1;
        entry[i] = e;
        results[i] = {Path::kMicroflowHit, &e->actions(), 1};
        continue;
      }
    }

    uint32_t searched = 0;
    const Rule* r = mega_.lookup(pkts[i].key, nullptr, &searched);
    ++summary.megaflow_lookups;
    stats_.tuples_searched += searched;
    summary.tuples_searched += searched;
    if (r != nullptr) {
      auto* e =
          const_cast<MegaflowEntry*>(static_cast<const MegaflowEntry*>(r));
      ++stats_.megaflow_hits;
      if (cfg_.microflow_enabled) microflow_insert(hashes[i], e);
      entry[i] = e;
      results[i] = {Path::kMegaflowHit, &e->actions(), searched};
    } else {
      ++stats_.misses;
      ++summary.misses;
      enqueue_upcall(pkts[i]);
      results[i] = {Path::kMiss, nullptr, searched};
    }
  }

  // Group statistics: one packets/bytes/used update per matched megaflow.
  // Distinct microflows may share a megaflow, so accumulate over leaders
  // first (the leader list is small; quadratic dedup over it is cheap).
  for (size_t l = 0; l < n_leaders; ++l) {
    MegaflowEntry* e = entry[leaders[l]];
    if (e == nullptr) continue;
    bool first = true;
    for (size_t m = 0; m < l; ++m) {
      if (entry[leaders[m]] == e) {
        first = false;
        break;
      }
    }
    if (!first) continue;
    ++summary.groups;
    uint64_t pkt_count = 0, byte_count = 0;
    for (size_t i = 0; i < n; ++i) {
      if (entry[leader[i]] == e) {
        ++pkt_count;
        byte_count += pkts[i].size_bytes;
      }
    }
    e->packets_ += pkt_count;
    e->bytes_ += byte_count;
    e->used_ns_ = now_ns;  // matches receive(): last write wins
    // An offload-absorbed group also credits its NIC slot's counters (one
    // slot per megaflow, so the group's first leader identifies it).
    if (const OffloadTable::Entry* oe = offl[leaders[l]]) {
      oe->counters->hits.fetch_add(pkt_count, std::memory_order_relaxed);
      oe->counters->bytes.fetch_add(byte_count, std::memory_order_relaxed);
    }
  }
}

void Datapath::process_batch(std::span<const Packet> pkts, uint64_t now_ns,
                             RxResult* results, BatchSummary* summary) {
  BatchSummary local;
  for (size_t off = 0; off < pkts.size(); off += kMaxBatch) {
    const size_t n = std::min(kMaxBatch, pkts.size() - off);
    process_chunk(pkts.data() + off, n, now_ns, results + off, local);
  }
  if (summary != nullptr) *summary += local;
}

MegaflowEntry* Datapath::install(const Match& match, DpActions&& actions,
                                 uint64_t now_ns, const FlowKey* full_key) {
  if (Rule* existing = mega_.find_exact(match, 0))
    return static_cast<MegaflowEntry*>(existing);
  if (fault_ != nullptr) {
    if (fault_->should_fire(FaultPoint::kInstallTableFull)) {
      ++stats_.install_fail_full;
      return nullptr;
    }
    if (fault_->should_fire(FaultPoint::kInstallTransient)) {
      ++stats_.install_fail_transient;
      return nullptr;
    }
  }
  if (cfg_.max_flows != 0 && flow_count() >= cfg_.max_flows) {
    ++stats_.install_fail_full;
    return nullptr;
  }
  auto owned = std::make_unique<MegaflowEntry>(match, std::move(actions));
  MegaflowEntry* e = owned.get();
  e->full_key_ = full_key != nullptr ? *full_key : match.key;
  e->created_ns_ = now_ns;
  e->used_ns_ = now_ns;
  e->index_ = entries_.size();
  mega_.insert(e);
  entries_.push_back(std::move(owned));
  return e;
}

void Datapath::remove(FlowRef flow) {
  MegaflowEntry* entry = as(flow);
  assert(!entry->dead());
  // Shadow coherence (§13): a megaflow may not die while its NIC copy keeps
  // forwarding. Evicting here covers every deletion path — revalidator
  // idle/stale deletes, hard eviction, quarantine — in the same step.
  if (off_ != nullptr) off_->evict(flow);
  mega_.remove(entry);
  entry->dead_ = true;
  const size_t i = entry->index_;
  assert(i < entries_.size() && entries_[i].get() == entry);
  graveyard_.push_back(std::move(entries_[i]));
  if (i + 1 != entries_.size()) {
    entries_[i] = std::move(entries_.back());
    entries_[i]->index_ = i;
  }
  entries_.pop_back();
}

void Datapath::update_actions(FlowRef flow, DpActions actions) {
  MegaflowEntry* entry = as(flow);
  entry->set_actions(std::move(actions));
  // Reprogram the NIC copy in the same step (revalidator repair, §13).
  if (off_ != nullptr) off_->sync_actions(flow, entry->actions());
}

bool Datapath::offload_install(FlowRef flow, uint64_t now_ns) {
  return off_ != nullptr &&
         off_->install(as(flow)->match(), as(flow)->actions(), flow, now_ns);
}

bool Datapath::offload_evict(FlowRef flow) {
  return off_ != nullptr && off_->evict(flow);
}

void Datapath::purge_dead() {
  if (graveyard_.empty()) return;
  // Grace period: clear any microflow slots that still point at dead
  // entries, then free them.
  for (MicroSlot& slot : micro_)
    if (slot.entry != nullptr && slot.entry->dead()) slot.entry = nullptr;
  graveyard_.clear();
}

size_t Datapath::emc_dangling_hints() const {
  std::unordered_set<const MegaflowEntry*> known;
  known.reserve(entries_.size() + graveyard_.size());
  for (const auto& e : entries_) known.insert(e.get());
  for (const auto& e : graveyard_) known.insert(e.get());
  size_t dangling = 0;
  for (const MicroSlot& slot : micro_)
    if (slot.entry != nullptr && known.count(slot.entry) == 0) ++dangling;
  return dangling;
}

std::vector<DpBackend::FlowRef> Datapath::dump() const {
  std::vector<FlowRef> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.get());
  return out;
}

void Datapath::corrupt_entry(size_t idx) {
  if (entries_.empty()) return;
  MegaflowEntry* e = entries_[idx % entries_.size()].get();
  // A recognizably bogus action list: forward to a port that exists
  // nowhere. The flow misbehaves until a revalidator pass re-translates it.
  DpActions bogus;
  bogus.output(0xDEAD);
  e->set_actions(std::move(bogus));
  ++stats_.entries_corrupted;
}

void Datapath::expire_entry(size_t idx) {
  if (entries_.empty()) return;
  MegaflowEntry* e = entries_[idx % entries_.size()].get();
  e->used_ns_ = 0;
  ++stats_.entries_expired;
}

}  // namespace ovs
