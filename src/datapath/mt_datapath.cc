#include "datapath/mt_datapath.h"

#include <algorithm>
#include <cassert>
#include <thread>

#include "util/fault.h"

namespace ovs {

namespace {

// CuckooMap64 reserves key 0 as the empty marker.
uint64_t table_key(uint64_t hash) noexcept { return hash | 1; }

}  // namespace

// --- MtTuple -----------------------------------------------------------------

ShardedDatapath::MtTuple::MtTuple(const FlowMask& m, size_t capacity)
    : mask(m), schema_(m), table(capacity) {}

const MtMegaflow* ShardedDatapath::MtTuple::find(
    const FlowKey& pkt) const noexcept {
  uint64_t v = 0;
  if (!table.find(table_key(hash_key(pkt)), &v)) return nullptr;
  // Walk the (short) same-hash chain; entries are skipped once dead so a
  // reader never resolves to a flow the control thread already removed.
  for (auto* e = reinterpret_cast<const MtMegaflow*>(v); e != nullptr;
       e = e->hash_next_.load(std::memory_order_acquire)) {
    if (!e->dead() && masked_equal(pkt, e->match().key)) return e;
  }
  return nullptr;
}

// --- Construction ------------------------------------------------------------

ShardedDatapath::ShardedDatapath(ShardedDatapathConfig cfg)
    : cfg_(cfg), dir_(cfg.max_tuples) {
  assert(cfg_.n_workers >= 1);
  emc_insert_inv_prob_.store(
      cfg_.emc_insert_inv_prob == 0 ? 1 : cfg_.emc_insert_inv_prob,
      std::memory_order_relaxed);
  slots_.reserve(cfg_.n_workers);
  for (size_t i = 0; i < cfg_.n_workers; ++i) {
    auto s = std::make_unique<WorkerSlot>();
    if (cfg_.emc_enabled)
      s->emc = std::make_unique<ConcurrentEmc>(cfg_.emc_capacity_per_shard);
    // Sub-seed per shard so worker streams stay independent.
    s->rng = Rng(cfg_.seed + 0x9E3779B97F4A7C15ULL * (i + 1));
    slots_.push_back(std::move(s));
  }
  if (cfg_.offload_slots > 0) {
    off_ = std::make_unique<OffloadTable>(cfg_.offload_slots);
    // Publish an (empty) view right away: a non-null view is what tells
    // workers the tier exists, so probe accounting matches the
    // single-threaded backend even before the first slot is earned.
    off_current_ = off_->clone();
    off_view_.store(off_current_.get(), std::memory_order_release);
  }
}

ShardedDatapath::~ShardedDatapath() = default;

// --- Worker fast path --------------------------------------------------------

const MtMegaflow* ShardedDatapath::classify(const FlowKey& key, uint32_t skip,
                                            uint32_t* searched) const noexcept {
  const uint32_t n = n_tuples_.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < n; ++i) {
    if (i == skip) continue;
    const MtTuple* t = dir_[i].load(std::memory_order_acquire);
    if (t == nullptr || t->n_rules.load(std::memory_order_acquire) == 0)
      continue;
    ++*searched;
    if (const MtMegaflow* e = t->find(key)) return e;
  }
  return nullptr;
}

void ShardedDatapath::process_chunk(WorkerSlot& slot, const Packet* pkts,
                                    size_t n, uint64_t now_ns,
                                    RxResult* results, BatchSummary& sum,
                                    std::vector<Packet>& missed) {
  uint64_t hashes[kMaxBatch];
  uint16_t leader[kMaxBatch];
  const MtMegaflow* entry[kMaxBatch];  // leader slots: matched megaflow
  const OffloadTable::Entry* offl[kMaxBatch];  // leader slots: offload slot
  uint16_t leaders[kMaxBatch];
  size_t n_leaders = 0;

  // Local tallies, flushed to the shared atomics once per chunk.
  uint64_t off_hits = 0;
  uint64_t micro_hits = 0, mega_hits = 0, misses = 0, stale = 0, searched = 0;
  uint64_t emc_ins = 0, emc_skips = 0;

  // One acquire load per chunk: the whole chunk probes a single consistent
  // published view (clones retired by the control thread outlive the epoch).
  const OffloadTable* off = off_view_.load(std::memory_order_acquire);

  sum.packets += static_cast<uint32_t>(n);

  for (size_t i = 0; i < n; ++i) hashes[i] = pkts[i].key.hash();

  // Intra-burst microflow dedup (same scheme as Datapath::process_chunk).
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

  const uint32_t n_tuples = n_tuples_.load(std::memory_order_acquire);
  for (size_t i = 0; i < n; ++i) {
    if (leader[i] != i) {
      const RxResult& lr = results[leader[i]];
      if (lr.path == Path::kOffloadHit) {
        // Same microflow as an offloaded leader: the NIC forwards it too.
        ++off_hits;
        ++sum.offload_hits;
        results[i] = {Path::kOffloadHit, lr.actions, 0};
        continue;
      }
      if (entry[leader[i]] != nullptr) {
        if (slot.emc != nullptr) {
          ++micro_hits;
          results[i] = {Path::kMicroflowHit, lr.actions, 0};
        } else {
          ++mega_hits;
          results[i] = {Path::kMegaflowHit, lr.actions, 0};
        }
      } else {
        ++misses;
        ++sum.misses;
        missed.push_back(pkts[i]);
        results[i] = {Path::kMiss, nullptr, 0};
      }
      continue;
    }

    entry[i] = nullptr;
    offl[i] = nullptr;
    // NIC offload tier: probed before the EMC, the way hardware sees the
    // packet before the CPU does. A hit forwards from the slot's own action
    // snapshot; the owning megaflow is still credited (entry[i]) so idle
    // expiry and the revalidator's hit-rate EWMA see offloaded traffic.
    if (off != nullptr) {
      ++sum.offload_probes;
      if (const OffloadTable::Entry* oe = off->probe(pkts[i].key)) {
        ++off_hits;
        ++sum.offload_hits;
        offl[i] = oe;
        entry[i] = as(static_cast<FlowRef>(oe->owner));
        results[i] = {Path::kOffloadHit, &oe->actions, 0};
        continue;
      }
    }
    uint32_t skip = UINT32_MAX;  // tuple already probed via the EMC hint
    uint32_t probed = 0;
    if (slot.emc != nullptr) {
      ++sum.emc_probes;
      if (const std::optional<uint64_t> hint = slot.emc->lookup(hashes[i]);
          hint.has_value() && *hint < n_tuples) {
        const uint32_t idx = static_cast<uint32_t>(*hint);
        const MtTuple* t = dir_[idx].load(std::memory_order_acquire);
        ++probed;
        if (const MtMegaflow* e = (t != nullptr) ? t->find(pkts[i].key)
                                                 : nullptr) {
          ++micro_hits;
          searched += probed;
          sum.tuples_searched += probed;
          entry[i] = e;
          results[i] = {Path::kMicroflowHit, e->actions(), probed};
          continue;
        }
        // The hinted table no longer holds this microflow's megaflow:
        // "a stale microflow cache entry is detected and corrected the
        // first time a packet matches it" (§6).
        ++stale;
        slot.emc->invalidate(hashes[i]);
        skip = idx;
      }
    }

    const MtMegaflow* e = classify(pkts[i].key, skip, &probed);
    ++sum.megaflow_lookups;
    searched += probed;
    sum.tuples_searched += probed;
    if (e != nullptr) {
      ++mega_hits;
      if (slot.emc != nullptr) {
        // Probabilistic insertion (§7.3's churn mitigation): under microflow
        // churn most shard entries are used exactly once, so inserting
        // 1-in-N keeps the hot working set resident.
        const uint32_t inv =
            emc_insert_inv_prob_.load(std::memory_order_relaxed);
        if (inv > 1 && slot.rng.uniform(inv) != 0) {
          ++emc_skips;
        } else {
          ++emc_ins;
          slot.emc->install(hashes[i], e->tuple_idx_);
        }
      }
      entry[i] = e;
      results[i] = {Path::kMegaflowHit, e->actions(), probed};
    } else {
      ++misses;
      ++sum.misses;
      missed.push_back(pkts[i]);
      results[i] = {Path::kMiss, nullptr, probed};
    }
  }

  // One statistics bump per matched megaflow.
  for (size_t l = 0; l < n_leaders; ++l) {
    const MtMegaflow* e = entry[leaders[l]];
    if (e == nullptr) continue;
    bool first = true;
    for (size_t m = 0; m < l; ++m) {
      if (entry[leaders[m]] == e) {
        first = false;
        break;
      }
    }
    if (!first) continue;
    ++sum.groups;
    uint64_t pkt_count = 0, byte_count = 0;
    for (size_t i = 0; i < n; ++i) {
      if (entry[leader[i]] == e) {
        ++pkt_count;
        byte_count += pkts[i].size_bytes;
      }
    }
    const_cast<MtMegaflow*>(e)->bump(pkt_count, byte_count, now_ns);
    if (const OffloadTable::Entry* oe = offl[leaders[l]]) {
      oe->counters->hits.fetch_add(pkt_count, std::memory_order_relaxed);
      oe->counters->bytes.fetch_add(byte_count, std::memory_order_relaxed);
    }
  }

  slot.packets.fetch_add(n, std::memory_order_relaxed);
  slot.offload_hits.fetch_add(off_hits, std::memory_order_relaxed);
  slot.microflow_hits.fetch_add(micro_hits, std::memory_order_relaxed);
  slot.megaflow_hits.fetch_add(mega_hits, std::memory_order_relaxed);
  slot.misses.fetch_add(misses, std::memory_order_relaxed);
  slot.stale_hints.fetch_add(stale, std::memory_order_relaxed);
  slot.tuples_searched.fetch_add(searched, std::memory_order_relaxed);
  slot.emc_inserts.fetch_add(emc_ins, std::memory_order_relaxed);
  slot.emc_insert_skips.fetch_add(emc_skips, std::memory_order_relaxed);
}

void ShardedDatapath::deliver_locked(Packet&& pkt, uint64_t* drops) {
  if (!sink_ || !sink_(std::move(pkt))) ++*drops;
}

void ShardedDatapath::flush_upcalls(std::vector<Packet>& missed) {
  uint64_t drops = 0, delayed = 0, dups = 0;
  FaultInjector* fault = fault_;
  {
    std::lock_guard<std::mutex> lk(upcall_mu_);
    for (Packet& p : missed) {
      if (fault != nullptr) {
        if (fault->should_fire(FaultPoint::kUpcallDrop)) {
          ++drops;
          continue;
        }
        if (fault->should_fire(FaultPoint::kUpcallDelay)) {
          delayed_.push_back(std::move(p));
          ++delayed;
          continue;
        }
        if (fault->should_fire(FaultPoint::kUpcallDuplicate)) {
          deliver_locked(Packet(p), &drops);  // copy: original follows
          ++dups;
        }
      }
      deliver_locked(std::move(p), &drops);
    }
  }
  if (drops != 0) upcall_drops_.fetch_add(drops, std::memory_order_relaxed);
  if (delayed != 0)
    upcalls_delayed_.fetch_add(delayed, std::memory_order_relaxed);
  if (dups != 0)
    upcall_dup_enqueues_.fetch_add(dups, std::memory_order_relaxed);
  missed.clear();
}

void ShardedDatapath::flush_delayed_upcalls() {
  uint64_t drops = 0;
  {
    std::lock_guard<std::mutex> lk(upcall_mu_);
    while (!delayed_.empty()) {
      deliver_locked(std::move(delayed_.front()), &drops);
      delayed_.pop_front();
    }
  }
  if (drops != 0) upcall_drops_.fetch_add(drops, std::memory_order_relaxed);
}

size_t ShardedDatapath::delayed_upcall_count() const {
  std::lock_guard<std::mutex> lk(upcall_mu_);
  return delayed_.size();
}

void ShardedDatapath::process_batch(size_t worker, std::span<const Packet> pkts,
                                    uint64_t now_ns, RxResult* results,
                                    BatchSummary* summary) {
  assert(worker < slots_.size());
  WorkerSlot& slot = *slots_[worker];

  // Enter the read-side critical section: epoch odd. The RMW orders every
  // subsequent table load after the flip, so the control thread can free
  // nothing this batch can still see once it observes us quiescent.
  slot.epoch.fetch_add(1, std::memory_order_acq_rel);
  BatchSummary local;
  for (size_t off = 0; off < pkts.size(); off += kMaxBatch) {
    const size_t n = std::min(kMaxBatch, pkts.size() - off);
    process_chunk(slot, pkts.data() + off, n, now_ns, results + off, local,
                  slot.missed);
  }
  if (!slot.missed.empty()) flush_upcalls(slot.missed);
  if (summary != nullptr) *summary += local;
  // Still inside the epoch: the callback reads the results' actions
  // pointers, which purge_dead() on the control thread may free as soon as
  // it observes this worker quiescent.
  if (callback_)
    callback_(worker, std::span<const RxResult>(results, pkts.size()));
  // Leave: epoch even again (release: all our reads happen-before the
  // control thread seeing us quiescent).
  slot.epoch.fetch_add(1, std::memory_order_release);
}

DpBackend::RxResult ShardedDatapath::receive(const Packet& pkt,
                                             uint64_t now_ns) {
  RxResult res;
  process_batch(std::span<const Packet>(&pkt, 1), now_ns, &res);
  return res;
}

void ShardedDatapath::process_batch(std::span<const Packet> pkts,
                                    uint64_t now_ns, RxResult* results,
                                    BatchSummary* summary) {
  const size_t worker = rr_;
  rr_ = (rr_ + 1) % cfg_.n_workers;
  process_batch(worker, pkts, now_ns, results, summary);
}

// --- Control path ------------------------------------------------------------

ShardedDatapath::MtTuple* ShardedDatapath::writer_find_tuple(
    const FlowMask& mask, bool create) {
  const uint32_t n = n_tuples_.load(std::memory_order_relaxed);
  for (uint32_t i = 0; i < n; ++i) {
    MtTuple* t = dir_[i].load(std::memory_order_relaxed);
    if (t->mask == mask) return t;
  }
  if (!create || n >= cfg_.max_tuples) return nullptr;
  auto owned = std::make_unique<MtTuple>(mask, cfg_.tuple_capacity);
  owned->dir_idx = n;
  MtTuple* t = owned.get();
  tuples_.push_back(std::move(owned));
  // Publish the tuple, then the count (release pairs with readers' acquire
  // of n_tuples_: a visible index always dereferences to a built tuple).
  dir_[n].store(t, std::memory_order_release);
  n_tuples_.store(n + 1, std::memory_order_release);
  return t;
}

MtMegaflow* ShardedDatapath::install(const Match& match, DpActions&& actions,
                                     uint64_t now_ns,
                                     const FlowKey* full_key) {
  Match m = match;
  m.normalize();
  if (fault_ != nullptr) {
    if (fault_->should_fire(FaultPoint::kInstallTableFull)) {
      install_fail_full_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    if (fault_->should_fire(FaultPoint::kInstallTransient)) {
      install_fail_transient_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
  }
  MtTuple* t = writer_find_tuple(m.mask, /*create=*/true);
  if (t == nullptr) return nullptr;  // tuple directory full

  const uint64_t key = table_key(t->hash_key(m.key));
  MtMegaflow* head = nullptr;
  uint64_t v = 0;
  if (t->table.find(key, &v)) head = reinterpret_cast<MtMegaflow*>(v);
  for (MtMegaflow* e = head; e != nullptr;
       e = e->hash_next_.load(std::memory_order_relaxed)) {
    if (!e->dead() && t->masked_equal(m.key, e->match().key)) return e;
  }

  // After the duplicate check, like Datapath: a re-install of an existing
  // flow at the cap returns the existing entry rather than failing.
  if (cfg_.max_flows != 0 && flow_count() >= cfg_.max_flows) {
    install_fail_full_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }

  auto owned = std::unique_ptr<MtMegaflow>(new MtMegaflow(m));
  MtMegaflow* e = owned.get();
  e->full_key_ = full_key != nullptr ? *full_key : m.key;
  e->actions_.store(new DpActions(std::move(actions)),
                    std::memory_order_relaxed);
  e->created_ns_ = now_ns;
  e->used_ns_.store(now_ns, std::memory_order_relaxed);
  e->hash_ = key;
  e->tuple_idx_ = t->dir_idx;
  e->hash_next_.store(head, std::memory_order_relaxed);
  e->index_ = entries_.size();
  entries_.push_back(std::move(owned));

  // Single release-ordered publication point: the cuckoo insert. A reader
  // that sees the new head sees a fully built entry (seqlock release/acquire
  // pairing inside CuckooMap64).
  t->table.insert(key, reinterpret_cast<uint64_t>(e));
  t->n_rules.fetch_add(1, std::memory_order_release);
  n_flows_.fetch_add(1, std::memory_order_relaxed);
  return e;
}

void ShardedDatapath::remove(FlowRef flow) {
  MtMegaflow* entry = as(flow);
  assert(!entry->dead());
  // The megaflow's offload slot dies with it — same pass, master first;
  // workers keep forwarding from the old view until the republish that
  // purge_dead() performs before it frees this entry.
  if (off_ != nullptr && off_->evict(flow)) off_dirty_ = true;
  // Dead first: readers that still reach the entry (via a chain they are
  // mid-walk on, or a retired cuckoo snapshot) skip it from here on.
  entry->dead_.store(true, std::memory_order_release);

  MtTuple* t = dir_[entry->tuple_idx_].load(std::memory_order_relaxed);
  uint64_t v = 0;
  if (t->table.find(entry->hash_, &v)) {
    auto* head = reinterpret_cast<MtMegaflow*>(v);
    MtMegaflow* next = entry->hash_next_.load(std::memory_order_relaxed);
    if (head == entry) {
      if (next != nullptr) {
        t->table.insert(entry->hash_, reinterpret_cast<uint64_t>(next));
      } else {
        t->table.erase(entry->hash_);
      }
    } else {
      for (MtMegaflow* p = head; p != nullptr;
           p = p->hash_next_.load(std::memory_order_relaxed)) {
        if (p->hash_next_.load(std::memory_order_relaxed) == entry) {
          // entry->hash_next_ is never cleared, so a reader paused on the
          // unlinked entry still walks out to the chain's live tail.
          p->hash_next_.store(next, std::memory_order_release);
          break;
        }
      }
    }
  }
  t->n_rules.fetch_sub(1, std::memory_order_release);
  n_flows_.fetch_sub(1, std::memory_order_relaxed);

  const size_t i = entry->index_;
  assert(i < entries_.size() && entries_[i].get() == entry);
  graveyard_.push_back(std::move(entries_[i]));
  if (i + 1 != entries_.size()) {
    entries_[i] = std::move(entries_.back());
    entries_[i]->index_ = i;
  }
  entries_.pop_back();
}

void ShardedDatapath::update_actions(FlowRef flow, DpActions actions) {
  MtMegaflow* entry = as(flow);
  const auto* fresh = new DpActions(std::move(actions));
  const DpActions* old =
      entry->actions_.exchange(fresh, std::memory_order_acq_rel);
  // A worker mid-batch may still be executing `old`; retire it until the
  // next grace period.
  retired_actions_.emplace_back(old);
  // Reprogram the slot's snapshot (revalidator repair reaches hardware in
  // the same pass it reaches the megaflow).
  if (off_ != nullptr && off_->sync_actions(flow, *entry->actions()))
    off_dirty_ = true;
}

void ShardedDatapath::corrupt_entry(size_t idx) {
  if (entries_.empty()) return;
  MtMegaflow* e = entries_[idx % entries_.size()].get();
  // A recognizably bogus action list: forward to a port that exists
  // nowhere. Published via the RCU swap, so mid-batch readers stay safe;
  // the flow misbehaves until a revalidator pass re-translates it.
  DpActions bogus;
  bogus.output(0xDEAD);
  update_actions(e, std::move(bogus));
  entries_corrupted_.fetch_add(1, std::memory_order_relaxed);
}

void ShardedDatapath::expire_entry(size_t idx) {
  if (entries_.empty()) return;
  MtMegaflow* e = entries_[idx % entries_.size()].get();
  e->used_ns_.store(0, std::memory_order_relaxed);
  entries_expired_.fetch_add(1, std::memory_order_relaxed);
}

void ShardedDatapath::synchronize() {
  for (const auto& sp : slots_) {
    const uint64_t e0 = sp->epoch.load(std::memory_order_acquire);
    if ((e0 & 1) == 0) continue;  // quiescent right now
    while (sp->epoch.load(std::memory_order_acquire) == e0)
      std::this_thread::yield();
  }
}

void ShardedDatapath::purge_dead() {
  // Republish the offload view BEFORE waiting out the grace period: once
  // synchronize() returns, no worker can still probe a view that names an
  // entry this call is about to free.
  if (off_dirty_) publish_offload();
  if (graveyard_.empty() && retired_actions_.empty() &&
      retired_off_.empty()) {
    // Still reclaim cuckoo arrays retired by growth.
    bool any = false;
    for (const auto& t : tuples_)
      if (t->table.retired_tables() != 0) any = true;
    if (!any) return;
  }
  synchronize();
  graveyard_.clear();
  retired_actions_.clear();
  retired_off_.clear();
  for (const auto& t : tuples_) t->table.free_retired();
}

void ShardedDatapath::publish_offload() {
  retired_off_.push_back(std::move(off_current_));
  off_current_ = off_->clone();
  off_view_.store(off_current_.get(), std::memory_order_release);
  off_dirty_ = false;
}

bool ShardedDatapath::offload_install(FlowRef flow, uint64_t now_ns) {
  const MtMegaflow* e = as(flow);
  if (off_ == nullptr ||
      !off_->install(e->match(), *e->actions(), flow, now_ns))
    return false;
  off_dirty_ = true;
  return true;
}

bool ShardedDatapath::offload_evict(FlowRef flow) {
  if (off_ == nullptr || !off_->evict(flow)) return false;
  off_dirty_ = true;
  return true;
}

void ShardedDatapath::offload_commit() {
  if (off_ != nullptr && off_dirty_) publish_offload();
}

bool ShardedDatapath::offload_corrupt(size_t idx,
                                      OffloadTable::Corruption kind) {
  if (off_ == nullptr || !off_->corrupt(idx, kind)) return false;
  off_dirty_ = true;
  return true;
}

std::vector<DpBackend::FlowRef> ShardedDatapath::dump() const {
  std::vector<FlowRef> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.get());
  return out;
}

size_t ShardedDatapath::mask_count() const noexcept {
  const uint32_t n = n_tuples_.load(std::memory_order_acquire);
  size_t live = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const MtTuple* t = dir_[i].load(std::memory_order_acquire);
    if (t != nullptr && t->n_rules.load(std::memory_order_relaxed) != 0)
      ++live;
  }
  return live;
}

DpBackend::Stats ShardedDatapath::stats() const {
  Stats s;
  for (const auto& sp : slots_) {
    s.packets += sp->packets.load(std::memory_order_relaxed);
    s.offload_hits += sp->offload_hits.load(std::memory_order_relaxed);
    s.microflow_hits += sp->microflow_hits.load(std::memory_order_relaxed);
    s.megaflow_hits += sp->megaflow_hits.load(std::memory_order_relaxed);
    s.misses += sp->misses.load(std::memory_order_relaxed);
    s.stale_microflow_hits += sp->stale_hints.load(std::memory_order_relaxed);
    s.tuples_searched += sp->tuples_searched.load(std::memory_order_relaxed);
    s.emc_inserts += sp->emc_inserts.load(std::memory_order_relaxed);
    s.emc_insert_skips +=
        sp->emc_insert_skips.load(std::memory_order_relaxed);
  }
  s.upcall_drops = upcall_drops_.load(std::memory_order_relaxed);
  s.install_fail_full = install_fail_full_.load(std::memory_order_relaxed);
  s.install_fail_transient =
      install_fail_transient_.load(std::memory_order_relaxed);
  s.upcalls_delayed = upcalls_delayed_.load(std::memory_order_relaxed);
  s.upcall_dup_enqueues =
      upcall_dup_enqueues_.load(std::memory_order_relaxed);
  s.entries_corrupted = entries_corrupted_.load(std::memory_order_relaxed);
  s.entries_expired = entries_expired_.load(std::memory_order_relaxed);
  return s;
}

size_t ShardedDatapath::emc_dangling_hints() const {
  const uint32_t n = n_tuples_.load(std::memory_order_acquire);
  size_t dangling = 0;
  for (const auto& sp : slots_) {
    if (sp->emc == nullptr) continue;
    sp->emc->for_each_hint([&](uint64_t, uint64_t v) {
      if (v >= n) ++dangling;
    });
  }
  return dangling;
}

}  // namespace ovs
