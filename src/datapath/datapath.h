// The simulated kernel datapath (paper §3.1, §4).
//
// Packet path:
//   1. microflow cache — exact-match table mapping the packet's full-key
//      hash to its megaflow entry ("a hint to the first hash table to
//      search"); pseudo-random replacement; stale entries are "detected and
//      corrected the first time a packet matches" (§6);
//   2. megaflow cache — a single priority-less tuple-space classifier that
//      terminates on the first match (§4.2); entries are installed by
//      userspace and are disjoint;
//   3. miss — the packet is handed to userspace as an *upcall* (§3.1).
//
// Entry deletion is deferred RCU-style: removed entries park in a graveyard
// until purge_dead() (the simulated grace period) sweeps microflow slots and
// frees them, mirroring OVS's use of RCU for nonblocking readers (§4.1).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "classifier/classifier.h"
#include "datapath/dp_actions.h"
#include "datapath/dp_backend.h"
#include "datapath/dp_shared.h"
#include "datapath/offload_table.h"
#include "packet/packet.h"
#include "util/rng.h"

namespace ovs {

class FaultInjector;
struct EntryLayoutProbe;  // entry_layout_test.cc

// An installed datapath flow: a priority-less classifier rule carrying
// actions and statistics.
class MegaflowEntry : public Rule, public DpFlow {
 public:
  MegaflowEntry(Match match, DpActions actions)
      : Rule(match, /*priority=*/0), actions_(std::move(actions)) {}

  const DpActions& actions() const noexcept { return actions_; }
  void set_actions(DpActions a) noexcept { actions_ = std::move(a); }

  // Full-fidelity key of the packet that created this flow (the udpif key in
  // real OVS). match().key is pre-masked, so re-translating it is lossy:
  // fields the stale mask wildcards read as zero and the classifier can
  // reproduce the stale mask from its own artifact. Revalidation and restart
  // reconciliation must translate this key instead.
  const FlowKey& full_key() const noexcept { return full_key_; }

  uint64_t packets() const noexcept { return packets_; }
  uint64_t bytes() const noexcept { return bytes_; }
  uint64_t used_ns() const noexcept { return used_ns_; }
  uint64_t created_ns() const noexcept { return created_ns_; }
  bool dead() const noexcept { return dead_; }

  // Userspace record (tags, attribution, offload placement); the datapath
  // itself never reads it.
  FlowRecord& record() noexcept { return record_; }
  const FlowRecord& record() const noexcept { return record_; }

 private:
  friend class Datapath;
  friend struct EntryLayoutProbe;

  uint64_t created_ns_ = 0;
  // A hit reads the match (in Rule), the inline action list and dead_, and
  // bumps the counters: they sit together right after the match.
  DpActions actions_;
  size_t index_ = 0;  // position in Datapath::entries_ (swap-remove)
  uint64_t packets_ = 0;
  uint64_t bytes_ = 0;
  uint64_t used_ns_ = 0;     // last hit time
  bool dead_ = false;
  // Cold tail: nothing on the fast path reads these.
  FlowKey full_key_;  // set at install; immutable afterwards
  FlowRecord record_;
};

struct DatapathConfig {
  bool microflow_enabled = true;      // first-level exact-match cache (§4.2)
  size_t microflow_ways = dpdefault::kEmcWays;  // associativity
  size_t microflow_sets = dpdefault::kEmcSets;  // slots = ways * sets
  // Kernel flow-table hard cap: install() fails (returns nullptr) at this
  // many live flows. 0 = unbounded; the dynamic flow limit (§6) is enforced
  // by userspace eviction, this models the kernel's own ENOSPC.
  size_t max_flows = 0;
  // Probabilistic EMC insertion (the §7.3-style mitigation for microflow
  // churn, OVS's emc-insert-inv-prob): insert a missed microflow into the
  // EMC with probability 1/N. 1 = always insert.
  uint32_t emc_insert_inv_prob = dpdefault::kEmcInsertInvProb;
  // Simulated NIC offload table capacity (DESIGN.md §13). 0 disables the
  // tier entirely: no table is allocated and the packet path is bit-for-bit
  // the two-level EMC -> megaflow hierarchy.
  size_t offload_slots = 0;
  uint64_t seed = dpdefault::kDpSeed;  // pseudo-random replacement (§6)
};

class Datapath final : public DpBackend {
 public:
  explicit Datapath(DatapathConfig cfg = {});
  ~Datapath() override;

  Datapath(const Datapath&) = delete;
  Datapath& operator=(const Datapath&) = delete;

  // Processes one received packet at (virtual) time now_ns. The sequential
  // reference the batched path is checked against.
  RxResult receive(const Packet& pkt, uint64_t now_ns) override;

  // --- Batched fast path (PMD-style, §4.1) --------------------------------

  // Processes a burst of packets sharing one (virtual) timestamp. Per-packet
  // outcomes land in results[0..pkts.size()). Compared to calling receive()
  // per packet this computes each flow-key hash once, probes the EMC once
  // per unique microflow in the burst, searches the megaflow classifier
  // once per unique microflow that missed the EMC, bumps megaflow statistics
  // once per matched megaflow, and hands all misses to the upcall sink in
  // arrival order. Per-packet actions, upcalls, and flow statistics are
  // identical to the sequential path (asserted by batch_equivalence_test);
  // only the cumulative tuples_searched counter differs because deduplicated
  // packets never physically probe a table.
  void process_batch(std::span<const Packet> pkts, uint64_t now_ns,
                     RxResult* results,
                     BatchSummary* summary = nullptr) override;

  // --- Userspace-facing flow table API (the netlink equivalent) -----------

  // Installs a flow. Duplicate masked keys are rejected (returns the
  // existing entry and does not install) because userspace keeps megaflows
  // disjoint (§4.2). Returns nullptr when the install *fails*: the table is
  // at cfg.max_flows, or an injected table-full/transient fault fired —
  // callers must treat the miss as unresolved (retry or drop).
  // full_key, when given, is the unmasked key of the packet that triggered
  // the install; it is stored on the entry for full-fidelity revalidation.
  // Defaults to match.key (already masked) for callers that install
  // synthetic flows directly. `actions` is moved from only when a new entry
  // is created; a duplicate or a failure leaves it untouched. The const&
  // overload installs a copy.
  MegaflowEntry* install(const Match& match, DpActions&& actions,
                         uint64_t now_ns,
                         const FlowKey* full_key = nullptr) override;
  MegaflowEntry* install(const Match& match, const DpActions& actions,
                         uint64_t now_ns,
                         const FlowKey* full_key = nullptr) {
    return install(match, DpActions(actions), now_ns, full_key);
  }

  // Removes a flow; the entry stays valid until purge_dead().
  void remove(FlowRef flow) override;

  // Updates an entry's actions in place (revalidation, §6).
  void update_actions(FlowRef flow, DpActions actions) override;

  void credit_packet(FlowRef flow, const Packet& pkt,
                     uint64_t now_ns) override {
    MegaflowEntry* e = as(flow);
    e->packets_ += 1;
    e->bytes_ += pkt.size_bytes;
    if (now_ns > e->used_ns_) e->used_ns_ = now_ns;
  }

  // Frees removed entries after sweeping stale microflow pointers. Call at
  // batch boundaries (the simulated RCU grace period).
  void purge_dead() override;

  // Snapshot of all live entries, for revalidation and stats polling.
  std::vector<FlowRef> dump() const override;

  size_t flow_count() const noexcept override { return mega_.rule_count(); }
  size_t mask_count() const noexcept override { return mega_.tuple_count(); }

  const Match& flow_match(FlowRef f) const override { return as(f)->match(); }
  const FlowKey& flow_full_key(FlowRef f) const override {
    return as(f)->full_key();
  }
  const DpActions& flow_actions(FlowRef f) const override {
    return as(f)->actions();
  }
  uint64_t flow_packets(FlowRef f) const override { return as(f)->packets(); }
  uint64_t flow_bytes(FlowRef f) const override { return as(f)->bytes(); }
  uint64_t flow_used_ns(FlowRef f) const override { return as(f)->used_ns(); }
  FlowRecord& flow_record(FlowRef f) override { return as(f)->record(); }
  const FlowRecord& flow_record(FlowRef f) const override {
    return as(f)->record();
  }

  void set_upcall_sink(UpcallSink sink) override { sink_ = std::move(sink); }

  // --- Fault-injection surface ---------------------------------------------

  void set_fault_injector(FaultInjector* f) noexcept override { fault_ = f; }

  void flush_delayed_upcalls() override;
  size_t delayed_upcall_count() const noexcept override {
    return delayed_.size();
  }

  void corrupt_entry(size_t idx) override;
  void expire_entry(size_t idx) override;

  void set_emc_insert_inv_prob(uint32_t inv) noexcept override {
    cfg_.emc_insert_inv_prob = inv == 0 ? 1 : inv;
  }
  bool microflow_enabled() const noexcept override {
    return cfg_.microflow_enabled;
  }

  // --- Simulated NIC offload tier (DESIGN.md §13) --------------------------
  //
  // Null when cfg.offload_slots == 0. Placement policy (which megaflows earn
  // a slot) lives in vswitchd; the datapath's own responsibility is shadow
  // coherence: remove() evicts the owner's slot and update_actions()
  // rewrites its action snapshot, so any revalidation/reconciliation pass
  // that touches a megaflow repairs its offloaded copy in the same step.
  const OffloadTable* offload() const noexcept override { return off_.get(); }
  bool offload_install(FlowRef flow, uint64_t now_ns) override;
  bool offload_evict(FlowRef flow) override;
  void offload_commit() override {}  // the fast path reads the master
  bool offload_corrupt(size_t idx, OffloadTable::Corruption kind) override {
    return off_ != nullptr && off_->corrupt(idx, kind);
  }

  Stats stats() const noexcept override { return stats_; }
  void reset_stats() noexcept { stats_ = Stats{}; }

  // Invariant-checker hook (datapath/dp_check.h): EMC hints that no longer
  // resolve to a live or parked (graveyard) megaflow. Hints to dead entries
  // awaiting purge are legal — §6 corrects them on first use — but a pointer
  // outside entries_ + graveyard_ would be dereferenced blind on the fast
  // path, so any such hint is a coherence violation.
  size_t emc_dangling_hints() const override;

  size_t n_workers() const noexcept override { return 1; }

  const DatapathConfig& config() const noexcept { return cfg_; }

 private:
  struct MicroSlot {
    uint64_t hash = 0;
    MegaflowEntry* entry = nullptr;
  };

  static MegaflowEntry* as(FlowRef f) noexcept {
    return static_cast<MegaflowEntry*>(f);
  }
  MegaflowEntry* microflow_lookup(const FlowKey& key, uint64_t hash) noexcept;
  void microflow_insert(uint64_t hash, MegaflowEntry* entry) noexcept;
  void process_chunk(const Packet* pkts, size_t n, uint64_t now_ns,
                     RxResult* results, BatchSummary& summary);
  void enqueue_upcall(const Packet& pkt);
  void deliver_upcall(Packet&& pkt);

  DatapathConfig cfg_;
  Classifier mega_;  // first_match_only, no priorities — the kernel TSS
  std::vector<std::unique_ptr<MegaflowEntry>> entries_;
  std::vector<std::unique_ptr<MegaflowEntry>> graveyard_;
  std::vector<MicroSlot> micro_;                // the EMC
  std::unique_ptr<OffloadTable> off_;           // cfg.offload_slots > 0
  std::vector<Packet> delayed_;                 // delay-fault parking lot
  UpcallSink sink_;
  FaultInjector* fault_ = nullptr;
  Rng rng_;
  Stats stats_;
};

}  // namespace ovs
