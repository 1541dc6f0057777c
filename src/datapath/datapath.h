// The simulated kernel datapath (paper §3.1, §4), run by N forwarding
// workers the way OVS-DPDK runs its PMD threads.
//
// Packet path:
//   0. NIC offload tier (DESIGN.md §13), when configured;
//   1. microflow cache — exact-match table mapping the packet's full-key
//      hash to its megaflow entry ("a hint to the first hash table to
//      search"); pseudo-random replacement; stale entries are "detected and
//      corrected the first time a packet matches" (§6);
//   2. megaflow cache — a single priority-less tuple-space classifier that
//      terminates on the first match (§4.2); entries are installed by
//      userspace and are disjoint;
//   3. miss — the packet is handed to userspace as an *upcall* (§3.1).
//
// Recirculation (DESIGN.md §15). A megaflow whose actions end in ct does
// not finish the packet: the datapath applies the actions' rewrites, runs
// the shared connection tracker, stamps ct_state and recirc_id and looks
// the packet up again in the megaflow classifier (not the EMC), up to
// kMaxRecircDepth times. The packet's fate is the stages composed;
// RxResult::actions points at it. A recirculated lookup that misses
// becomes a recirculation upcall carrying the fate so far. A hit on a
// megaflow without ct pays one flag test for all of this.
//
// Workers. The datapath is N *shards*, one per worker, each a single-writer
// copy of the whole cache: its own megaflow classifier and entries, EMC,
// offload-table copy, RNG, counters and miss buffer, behind one mutex.
//   * Fast path: process_batch(worker, ...) holds its shard's mutex for one
//     burst, the batch callback included; nothing on the per-packet path
//     touches another worker's state, and no worker ever waits on another.
//     receive() and process_batch() without a worker id rotate bursts
//     across the shards (one rx-queue poll per call); with one shard they
//     always use shard 0.
//   * Control path (one thread): install, remove, update_actions, the
//     offload calls, corrupt/expire and purge_dead apply the same operation
//     to every shard, one shard lock at a time. Every shard therefore holds
//     a replica of every megaflow, at the same position of its `entries`
//     (the shards see the same operations in the same order), and each EMC
//     hints only into its own shard. A control operation waits for the
//     burst each worker is in the middle of; §4.1's tables are nonblocking
//     for readers instead (DESIGN.md §4).
//
// A flow handle (`FlowRef`) is shard 0's entry. Its per-flow counters sum
// the replicas (flow_packets, flow_bytes) or take their maximum
// (flow_used_ns). Entry counters are single-writer relaxed atomics, so
// revalidator plan threads may read them while workers stream; everything
// else a plan thread reads (match, full key, actions, record) only the
// control thread writes.
//
// Entry deletion is deferred: removed entries park in each shard's graveyard
// until purge_dead() (the simulated grace period) sweeps the EMC slots that
// still point at them, then frees them.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "classifier/classifier.h"
#include "datapath/conntrack.h"
#include "datapath/dp_actions.h"
#include "datapath/dp_shared.h"
#include "datapath/offload_table.h"
#include "packet/packet.h"
#include "util/rng.h"

namespace ovs {

class FaultInjector;
struct EntryLayoutProbe;  // entry_layout_test.cc

// An installed datapath flow: a priority-less classifier rule carrying
// actions and statistics. One replica per shard.
class MegaflowEntry : public Rule {
 public:
  MegaflowEntry(Match match, DpActions actions)
      : Rule(match, /*priority=*/0), actions_(std::move(actions)) {
    recirc_ = actions_.recirculates();
  }

  const DpActions& actions() const noexcept { return actions_; }
  void set_actions(DpActions a) noexcept {
    actions_ = std::move(a);
    recirc_ = actions_.recirculates();
  }

  // Full-fidelity key of the packet that created this flow (the udpif key in
  // real OVS). match().key is pre-masked, so re-translating it is lossy:
  // fields the stale mask wildcards read as zero and the classifier can
  // reproduce the stale mask from its own artifact. Revalidation and restart
  // reconciliation must translate this key instead.
  const FlowKey& full_key() const noexcept { return full_key_; }

  // This replica's own counters; Datapath::flow_packets() and friends
  // aggregate over the replicas.
  uint64_t packets() const noexcept {
    return packets_.load(std::memory_order_relaxed);
  }
  uint64_t bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }
  uint64_t used_ns() const noexcept {
    return used_ns_.load(std::memory_order_relaxed);
  }
  uint64_t created_ns() const noexcept { return created_ns_; }
  bool dead() const noexcept { return dead_; }

  // Userspace record (tags, attribution, offload placement); the datapath
  // itself never reads it. Only the handle's (shard 0's) record is used.
  FlowRecord& record() noexcept { return record_; }
  const FlowRecord& record() const noexcept { return record_; }

 private:
  friend class Datapath;
  friend struct EntryLayoutProbe;

  // Single writer (the owning shard, under its lock): a plain
  // read-modify-write, published with relaxed stores.
  void bump(uint64_t pkts, uint64_t byts, uint64_t now_ns) noexcept {
    packets_.store(packets() + pkts, std::memory_order_relaxed);
    bytes_.store(bytes() + byts, std::memory_order_relaxed);
    used_ns_.store(now_ns, std::memory_order_relaxed);
  }

  uint64_t created_ns_ = 0;
  // A hit reads the match (in Rule), the inline action list and dead_, and
  // bumps the counters: they sit together right after the match.
  DpActions actions_;
  size_t index_ = 0;  // position in its shard's entries (swap-remove)
  std::atomic<uint64_t> packets_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> used_ns_{0};  // last hit time
  bool dead_ = false;
  bool recirc_ = false;  // actions_.recirculates(): the one per-hit test
  // Cold tail: nothing on the fast path reads these.
  FlowKey full_key_;  // set at install; immutable afterwards
  FlowRecord record_;
};

struct DatapathConfig {
  bool microflow_enabled = true;      // first-level exact-match cache (§4.2)
  // EMC geometry per worker shard: slots = ways * sets; sets is a power
  // of two.
  size_t microflow_ways = 2;  // associativity
  size_t microflow_sets = 4096;
  // Kernel flow-table hard cap: install() fails (returns nullptr) at this
  // many live flows. 0 = unbounded; the dynamic flow limit (§6) is enforced
  // by userspace eviction, this models the kernel's own ENOSPC.
  size_t max_flows = 0;
  // Probabilistic EMC insertion (the §7.3-style mitigation for microflow
  // churn, OVS's emc-insert-inv-prob): insert a missed microflow into the
  // EMC with probability 1/N. 1 = always insert.
  uint32_t emc_insert_inv_prob = 1;
  // Simulated NIC offload table capacity (DESIGN.md §13). 0 disables the
  // tier entirely: no table is allocated and the packet path is bit-for-bit
  // the two-level EMC -> megaflow hierarchy.
  size_t offload_slots = 0;
  uint64_t seed = 0xDA7A;  // pseudo-random replacement (§6)
  ConnTrackerConfig conntrack;  // the tracker ct runs (DESIGN.md §15)
  // false is DELIBERATELY UNSOUND: recirculated packets carry ct_state 0,
  // not the verdict's. The differential fuzzer's ablation gate.
  bool ct_state_on_recirc = true;
};

// A recirculated lookup that missed, for the upcall handler.
struct RecircUpcall {
  Packet pkt;      // as received: the composed fate applies to it
  FlowKey key;     // the recirculated key (recirc_id, ct_state, rewrites)
  DpActions fate;  // the stages before this one, composed
  unsigned depth = 0;  // recirculations taken, this one included
};

class Datapath {
 public:
  // A flow handle: shard 0's replica.
  using FlowRef = MegaflowEntry*;

  // workers <= 1 runs one shard.
  explicit Datapath(DatapathConfig cfg = {}, size_t workers = 1);
  ~Datapath();

  Datapath(const Datapath&) = delete;
  Datapath& operator=(const Datapath&) = delete;

  size_t n_workers() const noexcept { return shards_.size(); }

  // --- Fast path -----------------------------------------------------------

  enum class Path : uint8_t {
    kOffloadHit,  // NIC offload slot (DESIGN.md §13); never reaches the CPU
    kMicroflowHit,
    kMegaflowHit,
    kMiss,
  };

  struct RxResult {
    // The first lookup's tier; kMiss too when a recirculated lookup missed.
    Path path = Path::kMiss;
    // Null on miss. A recirculated packet's composed fate lives in its
    // shard until the shard's next burst.
    const DpActions* actions = nullptr;
    uint32_t tuples_searched = 0;        // megaflow hash tables probed
  };

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
    uint32_t misses = 0;  // packets upcalled (or dropped), recirculated too

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

  // Processes one received packet at (virtual) time now_ns on worker
  // `worker`'s shard: the sequential reference the batched path is checked
  // against. A miss is handed to the upcall sink.
  RxResult receive(size_t worker, const Packet& pkt, uint64_t now_ns);
  // The same on the next shard in rotation.
  RxResult receive(const Packet& pkt, uint64_t now_ns) {
    return receive(next_worker(), pkt, now_ns);
  }

  // Processes a burst of packets sharing one (virtual) timestamp on worker
  // `worker`'s shard; per-packet outcomes land in results[0..pkts.size()).
  // Compared to calling receive() per packet this computes each flow-key
  // hash once, probes the EMC once per unique microflow in the burst,
  // searches the megaflow classifier once per unique microflow that missed
  // the EMC, bumps megaflow statistics once per matched megaflow, and hands
  // all misses to the upcall sink in arrival order at the end of the burst.
  // Per-packet actions, upcalls, and flow statistics are identical to the
  // sequential path (asserted by batch_equivalence_test); only the
  // cumulative tuples_searched counter differs because deduplicated packets
  // never physically probe a table. Safe to call concurrently for distinct
  // workers. RxResult::actions points into the shard, where the next
  // update_actions or purge_dead may rewrite or free it: a worker that runs
  // beside a control thread reads it in the batch callback.
  void process_batch(size_t worker, std::span<const Packet> pkts,
                     uint64_t now_ns, RxResult* results,
                     BatchSummary* summary = nullptr);
  // The same on the next shard in rotation: the entry point for a caller
  // that owns no workers (the Switch's control thread).
  void process_batch(std::span<const Packet> pkts, uint64_t now_ns,
                     RxResult* results, BatchSummary* summary = nullptr);

  // Runs at the end of each burst on the worker's thread, still holding its
  // shard's lock, so it may read the results' actions while the control
  // thread removes and retires flows.
  using BatchCallback =
      std::function<void(size_t worker, std::span<const RxResult>)>;
  void set_batch_callback(BatchCallback cb) { callback_ = std::move(cb); }

  // --- Userspace-facing flow table API (the netlink equivalent) -----------

  // Installs a flow in every shard. Duplicate masked keys are rejected
  // (returns the existing entry and does not install) because userspace
  // keeps megaflows disjoint (§4.2). Returns nullptr when the install
  // *fails*: the table is at cfg.max_flows, or an injected
  // table-full/transient fault fired — callers must treat the miss as
  // unresolved (retry or drop). Callers tell a fresh install from a
  // duplicate by watching flow_count().
  // full_key, when given, is the unmasked key of the packet that triggered
  // the install; it is stored on the entry for full-fidelity revalidation.
  // Defaults to match.key (already masked) for callers that install
  // synthetic flows directly. `actions` is moved from only when a new entry
  // is created; a duplicate or a failure leaves it untouched. The const&
  // overload installs a copy.
  FlowRef install(const Match& match, DpActions&& actions, uint64_t now_ns,
                  const FlowKey* full_key = nullptr);
  FlowRef install(const Match& match, const DpActions& actions,
                  uint64_t now_ns, const FlowKey* full_key = nullptr) {
    return install(match, DpActions(actions), now_ns, full_key);
  }

  // Removes a flow; its entries stay valid until purge_dead().
  void remove(FlowRef flow);

  // Updates a flow's actions in place (revalidation, §6).
  void update_actions(FlowRef flow, DpActions actions);

  // Credits a packet that userspace forwarded on the flow's behalf (the
  // miss packet executed during flow setup) to the flow's statistics.
  void credit_packet(FlowRef flow, const Packet& pkt, uint64_t now_ns);

  // Frees removed entries after sweeping stale microflow pointers. Call at
  // batch boundaries (the simulated grace period).
  void purge_dead();

  // Snapshot of all live flows, for revalidation and stats polling.
  std::vector<FlowRef> dump() const;

  size_t flow_count() const noexcept { return shards_[0]->mega.rule_count(); }
  size_t mask_count() const noexcept {
    return shards_[0]->mega.tuple_count();
  }

  // --- Per-flow accessors --------------------------------------------------

  const Match& flow_match(FlowRef f) const noexcept { return f->match(); }
  // Full-fidelity install-time key (the udpif key): what revalidation and
  // restart reconciliation must re-translate. flow_match(f).key is
  // pre-masked, and translating a masked key can reproduce the entry's own
  // stale mask, keeping over-broad flows alive forever.
  const FlowKey& flow_full_key(FlowRef f) const noexcept {
    return f->full_key();
  }
  // Valid until the flow's next update_actions / purge_dead.
  const DpActions& flow_actions(FlowRef f) const noexcept {
    return f->actions();
  }
  uint64_t flow_packets(FlowRef f) const noexcept;
  uint64_t flow_bytes(FlowRef f) const noexcept;
  uint64_t flow_used_ns(FlowRef f) const noexcept;
  // The flow's userspace record (dp_shared.h), born zeroed at install and
  // freed with the entry. Only the control thread writes it.
  FlowRecord& flow_record(FlowRef f) noexcept { return f->record(); }
  const FlowRecord& flow_record(FlowRef f) const noexcept {
    return f->record();
  }

  // --- Upcalls -------------------------------------------------------------

  // The miss path: each missed packet is handed to the sink (the vswitchd
  // bounded fair-queue path). A sink returning false refuses the upcall; a
  // refusal, or a miss while no sink is set, counts as an upcall drop. The
  // sink runs under the datapath's upcall lock, so concurrent workers'
  // deliveries are serialized and it need not be thread-safe, but it must
  // not call back into this datapath.
  using UpcallSink = std::function<bool(Packet&&)>;
  void set_upcall_sink(UpcallSink sink);

  // Recirculation upcalls bypass the sink: they queue here, up to
  // kMaxRecircUpcalls (then recirc_upcall_drops), and the handler takes
  // them all into `*out` (cleared first; its storage is reused).
  static constexpr size_t kMaxRecircUpcalls = 4096;
  void take_recirc_upcalls(std::vector<RecircUpcall>* out);

  // The upcall handler's side of a recirculating packet: appends `stage`
  // (translated for `key`, the packet's key after `depth` recirculations)
  // to `fate` and runs the stages after it on worker 0's shard. True once
  // `fate` is complete; false on a miss, with `key` and `depth` the
  // recirculated packet's, to translate and pass back in.
  bool continue_fate(const Packet& pkt, FlowKey& key, const DpActions& stage,
                     unsigned& depth, uint64_t now_ns, DpActions& fate);

  // --- Connection tracking (DESIGN.md §15) ---------------------------------

  // The tracker every worker's ct action runs; internally locked.
  ConnTracker& conntrack() noexcept { return ct_; }
  const ConnTracker& conntrack() const noexcept { return ct_; }

  // Called after every ct the datapath runs (the packet as received, its
  // key as the ct saw it, the action, the verdict), on the worker's
  // thread: for checkers that mirror the tracker.
  using CtObserver =
      std::function<void(const Packet&, const FlowKey&, const CtAction&,
                         const ConnTracker::Verdict&, uint64_t now_ns)>;
  void set_ct_observer(CtObserver fn) { ct_observer_ = std::move(fn); }

  // --- Fault-injection surface ---------------------------------------------

  // Non-owning; nullptr disables injection. Consulted once per missed
  // packet at upcall delivery (drop / delay / duplicate) and once per
  // install (table-full / transient). FaultInjector is internally
  // synchronized, so concurrent workers may consult it.
  void set_fault_injector(FaultInjector* f) noexcept { fault_ = f; }

  // Hands upcalls parked by the delay fault to the sink (which may still
  // refuse them).
  void flush_delayed_upcalls();
  size_t delayed_upcall_count() const;

  // Scrambles the idx-th live flow's actions (modulo flow_count). The
  // revalidator repairs it on its next full pass — the convergence property
  // the fault-injection tests assert.
  void corrupt_entry(size_t idx);
  // Zeroes the idx-th live flow's last-used time so idle expiry reaps it.
  void expire_entry(size_t idx);

  // Runtime policy knob (graceful degradation under EMC thrash); every
  // shard picks it up on its next insertion attempt.
  void set_emc_insert_inv_prob(uint32_t inv);
  bool microflow_enabled() const noexcept { return cfg_.microflow_enabled; }

  // --- Simulated NIC offload tier (DESIGN.md §13) --------------------------
  //
  // Each shard holds its own copy of the table, programmed in lockstep.
  // Placement policy (which megaflows earn a slot) lives in vswitchd; the
  // datapath's own responsibility is shadow coherence: remove() evicts the
  // owner's slot and update_actions() rewrites its action snapshot, so any
  // revalidation/reconciliation pass that touches a megaflow repairs its
  // offloaded copy in the same step.

  // Shard 0's copy, or nullptr when the tier is off. Slot owners are the
  // flows' FlowRefs.
  const OffloadTable* offload() const noexcept {
    return shards_[0]->off.get();
  }
  bool offload_enabled() const noexcept { return offload() != nullptr; }
  size_t offload_size() const noexcept {
    return offload_enabled() ? offload()->size() : 0;
  }
  size_t offload_capacity() const noexcept {
    return offload_enabled() ? offload()->capacity() : 0;
  }
  bool offload_contains(FlowRef flow) const {
    return offload_enabled() && offload()->contains(flow);
  }

  // One dumped slot. Pointers reach into shard 0's table and stay valid
  // until the next offload mutation (control thread only); hits and bytes
  // sum the shards' copies.
  struct OffloadSlot {
    FlowRef owner;  // compare by address only: a corrupt slot's may dangle
    const FlowMask* mask;
    const FlowKey* key;
    const DpActions* actions;  // the slot's snapshot, not the owner's
    uint64_t hits;
    uint64_t bytes;
  };
  std::vector<OffloadSlot> offload_dump() const;

  // Programs a slot with a copy of the flow's match and actions. False when
  // the tier is off, the table is full, the flow already holds a slot, or
  // it recirculates.
  bool offload_install(FlowRef flow, uint64_t now_ns);
  // `flow` may be a slot owner the invariant checker found dangling; it is
  // compared by address only.
  bool offload_evict(FlowRef flow);
  // Test-only slot desynchronization for the invariant checker.
  bool offload_corrupt(size_t idx, OffloadTable::Corruption kind);

  // --- Counters ------------------------------------------------------------

  struct Stats {
    uint64_t packets = 0;
    uint64_t offload_hits = 0;      // absorbed by the NIC tier (§13)
    uint64_t microflow_hits = 0;
    uint64_t megaflow_hits = 0;
    uint64_t misses = 0;
    uint64_t upcall_drops = 0;          // no sink, sink refusal, fault
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
    uint64_t recirculations = 0;       // ct actions run (DESIGN.md §15)
    uint64_t recirc_misses = 0;        // recirculated lookups that missed
    uint64_t recirc_depth_drops = 0;   // dropped at kMaxRecircDepth
    uint64_t recirc_upcall_drops = 0;  // refused at kMaxRecircUpcalls

    void operator+=(const Stats& o) noexcept;
  };
  // Cumulative counters, summed over the shards.
  Stats stats() const;
  void reset_stats();

  // Invariant-checker hook (datapath/dp_check.h), over every shard: EMC
  // hints that no longer resolve to a live or parked (graveyard) megaflow
  // of the hint's own shard. Hints to dead entries awaiting purge are legal
  // — §6 corrects them on first use — but a pointer outside the shard's
  // entries + graveyard would be dereferenced blind on the fast path, so
  // any such hint is a coherence violation.
  size_t emc_dangling_hints() const;

  // cfg.emc_insert_inv_prob tracks set_emc_insert_inv_prob().
  const DatapathConfig& config() const noexcept { return cfg_; }

 private:
  struct MicroSlot {
    uint64_t hash = 0;
    MegaflowEntry* entry = nullptr;
  };

  // One worker's single-writer copy of the cache. Cache-line aligned so
  // one worker's lock and counters never share a line with another's.
  struct alignas(64) Shard {
    Shard(const DatapathConfig& cfg, uint64_t seed);

    std::mutex mu;  // held for a burst, or for one control operation
    Classifier mega;  // first_match_only, no priorities — the kernel TSS
    std::vector<std::unique_ptr<MegaflowEntry>> entries;
    std::vector<std::unique_ptr<MegaflowEntry>> graveyard;
    std::vector<MicroSlot> micro;      // the EMC
    std::unique_ptr<OffloadTable> off;  // cfg.offload_slots > 0
    std::vector<Packet> missed;  // a burst's misses, on their way to the sink
    // Recirculated packets' composed fates (indexed like the burst, sized
    // on the first recirculation) and missed lookups, on their way out.
    std::vector<DpActions> fates;
    std::vector<RecircUpcall> recirc_missed;
    Rng rng;
    uint32_t emc_insert_inv_prob;
    Stats stats;  // the fast path's counters
  };

  // The flow's replica in shard w (the same position in every shard).
  MegaflowEntry* replica(size_t w, FlowRef f) const noexcept {
    return shards_[w]->entries[f->index_].get();
  }
  MegaflowEntry* microflow_lookup(Shard& s, const FlowKey& key,
                                  uint64_t hash) const noexcept;
  void microflow_insert(Shard& s, uint64_t hash,
                        MegaflowEntry* entry) const noexcept;
  RxResult receive_locked(Shard& s, const Packet& pkt, uint64_t now_ns);
  // Packets [base, base + n) of a `total`-packet burst.
  void process_chunk(Shard& s, const Packet* pkts, size_t n, uint64_t now_ns,
                     RxResult* results, size_t base, size_t total,
                     BatchSummary& summary);
  // Runs `acts` (the stage at `depth` recirculations of `pkt`, whose key
  // is `key`) and every stage after it; see continue_fate.
  bool run_stages(Shard& s, const Packet& pkt, FlowKey& key,
                  const DpActions* acts, unsigned& depth, uint64_t now_ns,
                  DpActions& fate);
  // A hit on recirculating entry `e`: the packet's composed fate, or null
  // when a recirculated lookup missed (the upcall is queued).
  const DpActions* recirculate(Shard& s, const Packet& pkt,
                               const MegaflowEntry& e, uint64_t now_ns,
                               DpActions& fate);
  // Hands the shard's missed packets to the sink, under the upcall lock.
  void flush_upcalls(Shard& s);
  // Requires upcall_mu_.
  void deliver_upcall(Packet&& pkt, Stats& stats);
  size_t next_worker() noexcept;

  DatapathConfig cfg_;
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t rr_ = 0;  // next shard for bursts without a worker id
  BatchCallback callback_;
  Stats ctl_stats_;  // the control path's counters (control thread only)

  mutable std::mutex upcall_mu_;
  std::vector<Packet> delayed_;  // delay-fault parking lot (upcall_mu_)
  UpcallSink sink_;              // upcall_mu_
  std::vector<RecircUpcall> recirc_upcalls_;  // upcall_mu_
  FaultInjector* fault_ = nullptr;

  ConnTracker ct_;
  CtObserver ct_observer_;
};

}  // namespace ovs
