// The datapath interface: what `vswitchd::Switch` (install paths, upcall
// sink, fault injection, degradation knobs, revalidation, counters) is
// written against, once, for either datapath. Two classes implement it
// directly: the single-threaded `Datapath` (datapath.h) and the multi-worker
// `ShardedDatapath` (mt_datapath.h). make_dp_backend() picks one.
//
// Flows are referred to by a `FlowRef`, a pointer to the empty `DpFlow` tag
// base both entry types derive from (dp_shared.h), with accessor methods
// instead of a common entry layout — the two entry types deliberately differ
// (plain fields vs. worker-shared atomics) and the control plane only ever
// reads a handful of fields per flow.
//
// Threading contract: every method here is control-plane (one thread at a
// time) EXCEPT the fast path (receive / process_batch), which on the sharded
// datapath may also be driven concurrently by worker threads calling
// ShardedDatapath::process_batch(worker, ...). The per-flow read accessors
// (flow_actions / flow_packets / ... / flow_used_ns) are additionally safe
// to call from revalidator plan threads while workers stream, because on the
// sharded datapath they read RCU-published pointers and atomics; the single
// datapath simply must not be planned against concurrently with mutation,
// which the serial control thread guarantees by construction. flow_record()
// is userspace state no worker touches: only the control thread writes it,
// and plan threads read its `tags` while no write can happen (the apply
// phase starts after the plan joins).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "datapath/dp_actions.h"
#include "datapath/dp_shared.h"
#include "datapath/offload_table.h"
#include "packet/match.h"
#include "packet/packet.h"

namespace ovs {

class FaultInjector;
struct DatapathConfig;

class DpBackend {
 public:
  // A flow handle: the MegaflowEntry or MtMegaflow underneath.
  using FlowRef = DpFlow*;

  virtual ~DpBackend() = default;

  // --- Fast path -----------------------------------------------------------

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

  // Processes one received packet at (virtual) time now_ns. A miss is handed
  // to the upcall sink.
  virtual RxResult receive(const Packet& pkt, uint64_t now_ns) = 0;
  // Processes a burst sharing one (virtual) timestamp; per-packet outcomes
  // land in results[0..pkts.size()). Observably identical to receive() per
  // packet except for the cumulative tuples_searched counter (deduplicated
  // packets never physically probe a table; batch_equivalence_test).
  virtual void process_batch(std::span<const Packet> pkts, uint64_t now_ns,
                             RxResult* results,
                             BatchSummary* summary = nullptr) = 0;

  // --- Control path --------------------------------------------------------

  // nullptr on failure (table full / transient fault); an existing entry on
  // a duplicate masked key. Callers distinguish a fresh install from a dup
  // by watching flow_count().
  // full_key, when given, is the unmasked key of the packet that triggered
  // the install; defaults to match.key (masked) for synthetic installs.
  // `actions` is moved from only when a new flow is created (the slow path
  // moves a translation's actions in and, on a duplicate or a failure,
  // still forwards with them); the const& overload installs a copy.
  virtual FlowRef install(const Match& match, DpActions&& actions,
                          uint64_t now_ns,
                          const FlowKey* full_key = nullptr) = 0;
  FlowRef install(const Match& match, const DpActions& actions,
                  uint64_t now_ns, const FlowKey* full_key = nullptr) {
    return install(match, DpActions(actions), now_ns, full_key);
  }
  virtual void remove(FlowRef flow) = 0;
  virtual void update_actions(FlowRef flow, DpActions actions) = 0;
  // Credits a packet that userspace forwarded on the flow's behalf (the
  // miss packet executed during flow setup) to the flow's statistics.
  virtual void credit_packet(FlowRef flow, const Packet& pkt,
                             uint64_t now_ns) = 0;
  // The grace period: frees removed flows (and whatever else the datapath
  // retires) once no reader can still reach them.
  virtual void purge_dead() = 0;
  virtual std::vector<FlowRef> dump() const = 0;
  virtual size_t flow_count() const = 0;
  virtual size_t mask_count() const = 0;

  // --- Per-flow accessors --------------------------------------------------

  virtual const Match& flow_match(FlowRef flow) const = 0;
  // Full-fidelity install-time key (the udpif key): what revalidation and
  // restart reconciliation must re-translate. flow_match(f).key is
  // pre-masked, and translating a masked key can reproduce the entry's own
  // stale mask, keeping over-broad flows alive forever.
  virtual const FlowKey& flow_full_key(FlowRef flow) const = 0;
  // The returned reference is valid until the flow's next update_actions /
  // purge_dead (sharded: RCU — also safe against concurrent swaps, readers
  // keep the list they loaded until the next grace period).
  virtual const DpActions& flow_actions(FlowRef flow) const = 0;
  virtual uint64_t flow_packets(FlowRef flow) const = 0;
  virtual uint64_t flow_bytes(FlowRef flow) const = 0;
  virtual uint64_t flow_used_ns(FlowRef flow) const = 0;
  // The flow's userspace record (dp_shared.h), born zeroed at install and
  // freed with the entry.
  virtual FlowRecord& flow_record(FlowRef flow) = 0;
  virtual const FlowRecord& flow_record(FlowRef flow) const = 0;

  // --- Simulated NIC offload tier (DESIGN.md §13) --------------------------
  //
  // The control plane earns/revokes slots here; the datapath keeps the slot
  // coherent with its owner on remove()/update_actions() automatically.
  // offload_commit() makes pending control-plane slot changes visible to the
  // fast path (a republish on the sharded datapath; a no-op on the single
  // one, whose fast path reads the master directly). purge_dead() commits
  // too, so the revalidator's end-of-pass purge doubles as the publish.

  // The authoritative (master) table, or nullptr when the tier is off.
  // Slot owners are the flows' FlowRefs.
  virtual const OffloadTable* offload() const noexcept = 0;

  // One dumped slot. Pointers reach into the master table and stay valid
  // until the next offload mutation (control thread only).
  struct OffloadSlot {
    FlowRef owner;
    const FlowMask* mask;
    const FlowKey* key;
    const DpActions* actions;  // the slot's snapshot, not the owner's
    uint64_t hits;
    uint64_t bytes;
  };

  bool offload_enabled() const noexcept { return offload() != nullptr; }
  size_t offload_size() const noexcept {
    return offload() != nullptr ? offload()->size() : 0;
  }
  size_t offload_capacity() const noexcept {
    return offload() != nullptr ? offload()->capacity() : 0;
  }
  bool offload_contains(FlowRef flow) const {
    return offload() != nullptr && offload()->contains(flow);
  }
  std::vector<OffloadSlot> offload_dump() const;

  // Programs a slot with a copy of the flow's match and actions. False when
  // the tier is off, the table is full, or the flow already holds a slot.
  virtual bool offload_install(FlowRef flow, uint64_t now_ns) = 0;
  virtual bool offload_evict(FlowRef flow) = 0;
  virtual void offload_commit() = 0;
  // Test-only slot desynchronization for the invariant checker.
  virtual bool offload_corrupt(size_t idx, OffloadTable::Corruption kind) = 0;

  // --- Upcalls -------------------------------------------------------------

  // The miss path: each missed packet is handed to the sink (the vswitchd
  // bounded fair-queue path). A sink returning false refuses the upcall; a
  // refusal, or a miss while no sink is set, counts as an upcall drop.
  using UpcallSink = std::function<bool(Packet&&)>;
  virtual void set_upcall_sink(UpcallSink sink) = 0;
  // Hands upcalls parked by the delay fault to the sink (which may still
  // refuse them).
  virtual void flush_delayed_upcalls() = 0;
  virtual size_t delayed_upcall_count() const = 0;

  // --- Faults and policy knobs --------------------------------------------

  // Non-owning; nullptr disables injection. Consulted at upcall delivery
  // (drop / delay / duplicate) and at install (table-full / transient).
  virtual void set_fault_injector(FaultInjector* f) = 0;
  // Scrambles the idx-th live entry's actions (modulo flow_count). The
  // revalidator repairs it on its next full pass — the convergence property
  // the fault-injection tests assert.
  virtual void corrupt_entry(size_t idx) = 0;
  // Zeroes the idx-th live entry's last-used time so idle expiry reaps it.
  virtual void expire_entry(size_t idx) = 0;
  // Runtime policy knob (graceful degradation under EMC thrash).
  virtual void set_emc_insert_inv_prob(uint32_t inv) = 0;
  virtual bool microflow_enabled() const = 0;

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
  };
  // Cumulative counters (the sharded datapath sums its per-worker tallies).
  virtual Stats stats() const = 0;

  // EMC -> megaflow coherence probe for the invariant checker
  // (datapath/dp_check.h): hints that cannot safely resolve — a pointer
  // outside the live + graveyard entry sets (single) or a tuple index
  // outside the directory (sharded). Control thread, workers quiescent.
  virtual size_t emc_dangling_hints() const = 0;

  virtual size_t n_workers() const = 0;
};

// Datapath factory: workers <= 1 builds the single-threaded `Datapath`;
// workers >= 2 builds a `ShardedDatapath` configured to match `cfg` (same
// EMC capacity per shard, insertion probability, cap, offload slots and
// seed).
std::unique_ptr<DpBackend> make_dp_backend(const DatapathConfig& cfg,
                                           size_t workers);

}  // namespace ovs
