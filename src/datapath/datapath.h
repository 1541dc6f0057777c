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
//   3. miss — the packet is queued as an *upcall* to userspace (§3.1).
//
// Entry deletion is deferred RCU-style: removed entries park in a graveyard
// until purge_dead() (the simulated grace period) sweeps microflow slots and
// frees them, mirroring OVS's use of RCU for nonblocking readers (§4.1).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "classifier/classifier.h"
#include "datapath/concurrent_emc.h"
#include "datapath/dp_actions.h"
#include "datapath/dp_shared.h"
#include "datapath/offload_table.h"
#include "packet/packet.h"
#include "util/rng.h"

namespace ovs {

class FaultInjector;

// An installed datapath flow: a priority-less classifier rule carrying
// actions and statistics.
class MegaflowEntry : public Rule {
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

  // Cold, and first on purpose: the hot fields after it keep the offsets
  // the fast-path benchmarks were measured with.
  uint64_t created_ns_ = 0;
  DpActions actions_;
  FlowKey full_key_;  // set at install; immutable afterwards
  size_t index_ = 0;  // position in Datapath::entries_ (swap-remove)
  uint64_t packets_ = 0;
  uint64_t bytes_ = 0;
  uint64_t used_ns_ = 0;     // last hit time
  bool dead_ = false;
  FlowRecord record_;  // cold tail: nothing on the fast path reads it
};

struct DatapathConfig {
  bool microflow_enabled = true;      // first-level exact-match cache (§4.2)
  // Use the lock-free ConcurrentEmc (cuckoo-backed, FIFO eviction) as the
  // microflow cache instead of the inline set-associative table. Same
  // single-threaded semantics, different replacement policy; this is the
  // cache the multi-worker datapath shards per thread (§4.1).
  bool use_concurrent_emc = false;
  size_t microflow_ways = dpdefault::kEmcWays;  // associativity
  size_t microflow_sets = dpdefault::kEmcSets;  // slots = ways * sets
  size_t max_upcall_queue = dpdefault::kMaxUpcallQueue;  // miss queue
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

class Datapath {
 public:
  explicit Datapath(DatapathConfig cfg = {});
  ~Datapath();

  Datapath(const Datapath&) = delete;
  Datapath& operator=(const Datapath&) = delete;

  enum class Path : uint8_t {
    kOffloadHit,  // NIC offload slot (DESIGN.md §13); never reaches the CPU
    kMicroflowHit,
    kMegaflowHit,
    kMiss,
  };

  struct RxResult {
    Path path = Path::kMiss;
    const DpActions* actions = nullptr;  // null on miss
    uint32_t tuples_searched = 0;        // megaflow hash tables probed
  };

  // Processes one received packet at (virtual) time now_ns. On a miss the
  // packet is queued for userspace (or dropped if the queue is full).
  RxResult receive(const Packet& pkt, uint64_t now_ns);

  // --- Batched fast path (PMD-style, §4.1) --------------------------------

  static constexpr size_t kDefaultBatch = 32;
  static constexpr size_t kMaxBatch = 256;  // internal chunking granularity

  // Aggregate description of what one burst actually cost, for callers that
  // model CPU cycles (sim/cost_model.h): probes are counted after
  // deduplication, so emc_probes <= packets and megaflow_lookups counts
  // only the burst's unique microflows that missed the EMC.
  struct BatchSummary {
    uint32_t packets = 0;
    uint32_t offload_probes = 0;    // NIC table probes after dedup
    uint32_t offload_hits = 0;      // packets absorbed by the NIC tier
    uint32_t emc_probes = 0;        // EMC probes after intra-burst dedup
    uint32_t megaflow_lookups = 0;  // classifier searches (dedup leaders)
    uint32_t tuples_searched = 0;   // megaflow hash tables probed
    uint32_t groups = 0;            // distinct megaflows matched
    uint32_t misses = 0;            // packets upcalled (or dropped)

    void operator+=(const BatchSummary& o) noexcept {
      packets += o.packets;
      offload_probes += o.offload_probes;
      offload_hits += o.offload_hits;
      emc_probes += o.emc_probes;
      megaflow_lookups += o.megaflow_lookups;
      tuples_searched += o.tuples_searched;
      groups += o.groups;
      misses += o.misses;
    }
  };

  // Processes a burst of packets sharing one (virtual) timestamp. Per-packet
  // outcomes land in results[0..pkts.size()). Compared to calling receive()
  // per packet this computes each flow-key hash once, probes the EMC once
  // per unique microflow in the burst, searches the megaflow classifier
  // once per unique microflow that missed the EMC, bumps megaflow statistics
  // once per matched megaflow, and appends all misses to the upcall queue in
  // arrival order. Per-packet actions, upcalls, and flow statistics are
  // identical to the sequential path (asserted by batch_equivalence_test);
  // only the cumulative tuples_searched counter differs because deduplicated
  // packets never physically probe a table.
  void process_batch(std::span<const Packet> pkts, uint64_t now_ns,
                     RxResult* results, BatchSummary* summary = nullptr);

  // --- Userspace-facing flow table API (the netlink equivalent) -----------

  // Installs a flow. Duplicate masked keys are rejected (returns the
  // existing entry and does not install) because userspace keeps megaflows
  // disjoint (§4.2). Returns nullptr when the install *fails*: the table is
  // at cfg.max_flows, or an injected table-full/transient fault fired —
  // callers must treat the miss as unresolved (retry or drop).
  // full_key, when given, is the unmasked key of the packet that triggered
  // the install; it is stored on the entry for full-fidelity revalidation.
  // Defaults to match.key (already masked) for callers that install
  // synthetic flows directly.
  MegaflowEntry* install(const Match& match, DpActions actions,
                         uint64_t now_ns,
                         const FlowKey* full_key = nullptr);

  // Removes a flow; the entry stays valid until purge_dead().
  void remove(MegaflowEntry* entry);

  // Updates an entry's actions in place (revalidation, §6).
  void update_actions(MegaflowEntry* entry, DpActions actions);

  // Credits a packet that userspace forwarded on the flow's behalf (the
  // miss packet executed during flow setup) to the entry's statistics.
  void credit_packet(MegaflowEntry* entry, const Packet& pkt,
                     uint64_t now_ns) noexcept {
    entry->packets_ += 1;
    entry->bytes_ += pkt.size_bytes;
    if (now_ns > entry->used_ns_) entry->used_ns_ = now_ns;
  }

  // Frees removed entries after sweeping stale microflow pointers. Call at
  // batch boundaries (the simulated RCU grace period).
  void purge_dead();

  // Snapshot of all live entries, for revalidation and stats polling.
  std::vector<MegaflowEntry*> dump() const;

  size_t flow_count() const noexcept { return mega_.rule_count(); }
  size_t mask_count() const noexcept { return mega_.tuple_count(); }

  // Drains up to max_batch queued upcalls, then releases any fault-delayed
  // upcalls into the queue (they arrive one round late).
  std::vector<Packet> take_upcalls(size_t max_batch);
  size_t upcall_queue_depth() const noexcept { return upcalls_.size(); }

  // Miss-path sink: when set, upcalls are handed to the sink instead of the
  // internal queue (the vswitchd bounded fair-queue path). A sink returning
  // false refuses the upcall; the refusal is counted as a drop here.
  using UpcallSink = std::function<bool(Packet&&)>;
  void set_upcall_sink(UpcallSink sink) { sink_ = std::move(sink); }

  // --- Fault-injection surface ---------------------------------------------

  // Non-owning; nullptr disables injection. Consulted at upcall enqueue
  // (drop / delay / duplicate) and at install (table-full / transient).
  void set_fault_injector(FaultInjector* f) noexcept { fault_ = f; }

  // Releases upcalls parked by the delay fault (to the sink/queue, where
  // they may still be refused). Returns the number released.
  size_t flush_delayed_upcalls();
  size_t delayed_upcall_count() const noexcept { return delayed_.size(); }

  // Scrambles the idx-th live entry's actions (modulo flow_count). The
  // revalidator repairs it on its next full pass — the convergence property
  // the fault-injection tests assert.
  void corrupt_entry(size_t idx);
  // Zeroes the idx-th live entry's last-used time so idle expiry reaps it.
  void expire_entry(size_t idx);

  // Runtime policy knob (graceful degradation under EMC thrash).
  void set_emc_insert_inv_prob(uint32_t inv) noexcept {
    cfg_.emc_insert_inv_prob = inv == 0 ? 1 : inv;
  }

  // --- Simulated NIC offload tier (DESIGN.md §13) --------------------------
  //
  // Null when cfg.offload_slots == 0. Placement policy (which megaflows earn
  // a slot) lives in vswitchd; the datapath's own responsibility is shadow
  // coherence: remove() evicts the owner's slot and update_actions()
  // rewrites its action snapshot, so any revalidation/reconciliation pass
  // that touches a megaflow repairs its offloaded copy in the same step.
  const OffloadTable* offload() const noexcept { return off_.get(); }
  // Programs a slot with a copy of e's match and actions. False when the
  // tier is off, the table is full, or e already holds a slot.
  bool offload_install(MegaflowEntry* e, uint64_t now_ns);
  bool offload_evict(MegaflowEntry* e);
  bool offload_corrupt(size_t idx, OffloadTable::Corruption kind) {
    return off_ != nullptr && off_->corrupt(idx, kind);
  }

  struct Stats {
    uint64_t packets = 0;
    uint64_t offload_hits = 0;      // absorbed by the NIC tier (§13)
    uint64_t microflow_hits = 0;
    uint64_t megaflow_hits = 0;
    uint64_t misses = 0;
    uint64_t upcall_drops = 0;          // queue overflow, sink refusal, fault
    uint64_t stale_microflow_hits = 0;  // corrected on first use (§6)
    uint64_t tuples_searched = 0;       // total megaflow tables probed
    uint64_t emc_inserts = 0;           // microflow entries installed
    uint64_t emc_insert_skips = 0;      // skipped by probabilistic insertion
    uint64_t install_fail_full = 0;     // install rejected: table full
    uint64_t install_fail_transient = 0;  // install rejected: transient fault
    uint64_t upcall_dup_enqueues = 0;   // extra deliveries (duplicate fault)
    uint64_t upcalls_delayed = 0;       // parked by the delay fault
    uint64_t entries_corrupted = 0;
    uint64_t entries_expired = 0;
  };
  const Stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = Stats{}; }

  // Invariant-checker hook (datapath/dp_check.h): EMC hints that no longer
  // resolve to a live or parked (graveyard) megaflow. Hints to dead entries
  // awaiting purge are legal — §6 corrects them on first use — but a pointer
  // outside entries_ + graveyard_ would be dereferenced blind on the fast
  // path, so any such hint is a coherence violation.
  size_t emc_dangling_hints() const;

  const DatapathConfig& config() const noexcept { return cfg_; }
  void set_microflow_enabled(bool on) noexcept {
    cfg_.microflow_enabled = on;
  }

 private:
  struct MicroSlot {
    uint64_t hash = 0;
    MegaflowEntry* entry = nullptr;
  };

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
  std::vector<MicroSlot> micro_;                // inline EMC
  std::unique_ptr<ConcurrentEmc> cemc_;         // cfg.use_concurrent_emc
  std::unique_ptr<OffloadTable> off_;           // cfg.offload_slots > 0
  std::deque<Packet> upcalls_;
  std::vector<Packet> delayed_;                 // delay-fault parking lot
  UpcallSink sink_;
  FaultInjector* fault_ = nullptr;
  Rng rng_;
  Stats stats_;
};

}  // namespace ovs
