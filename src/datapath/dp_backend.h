// The datapath seam: one interface over the single-threaded `Datapath` and
// the multi-worker `ShardedDatapath`, so `vswitchd::Switch` (install paths,
// upcall sink, fault injection, degradation knobs, revalidation, counters)
// is written once and runs against either backend.
//
// Flows are referred to by an opaque `FlowRef` (the backend's entry pointer
// type-erased), with accessor methods instead of a common entry base class —
// the two entry types have deliberately different memory layouts (plain
// fields vs. worker-shared atomics) and the control plane only ever reads a
// handful of fields per flow.
//
// Threading contract, inherited from the backends: every method here is
// control-plane (one thread at a time) EXCEPT the fast path
// (receive / process_batch), which on the sharded backend may also be driven
// concurrently by its worker pool around the seam. The per-flow read
// accessors (flow_actions / flow_packets / ... / flow_used_ns) are
// additionally safe to call from revalidator plan threads while workers
// stream, because on the sharded backend they read RCU-published pointers
// and atomics; the single backend simply must not be planned against
// concurrently with mutation, which the serial control thread guarantees by
// construction. flow_record() is userspace state no worker touches: only
// the control thread writes it, and plan threads read its `tags` while no
// write can happen (the apply phase starts after the plan joins).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "datapath/datapath.h"
#include "datapath/mt_datapath.h"

namespace ovs {

class DpBackend {
 public:
  // Opaque flow handle: MegaflowEntry* or MtMegaflow* underneath.
  using FlowRef = void*;

  virtual ~DpBackend() = default;

  // --- Fast path -----------------------------------------------------------

  virtual Datapath::RxResult receive(const Packet& pkt, uint64_t now_ns) = 0;
  virtual void process_batch(std::span<const Packet> pkts, uint64_t now_ns,
                             Datapath::RxResult* results,
                             Datapath::BatchSummary* summary) = 0;

  // --- Control path --------------------------------------------------------

  // nullptr on failure (table full / transient fault); an existing entry on
  // a duplicate masked key. Callers distinguish a fresh install from a dup
  // by watching flow_count().
  // full_key, when given, is the unmasked key of the packet that triggered
  // the install; defaults to match.key (masked) for synthetic installs.
  virtual FlowRef install(const Match& match, DpActions actions,
                          uint64_t now_ns,
                          const FlowKey* full_key = nullptr) = 0;
  virtual void remove(FlowRef flow) = 0;
  virtual void update_actions(FlowRef flow, DpActions actions) = 0;
  virtual void credit_packet(FlowRef flow, const Packet& pkt,
                             uint64_t now_ns) = 0;
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
  // The control plane earns/revokes slots here; the backend keeps the slot
  // coherent with its owner on remove()/update_actions() automatically.
  // offload_commit() makes pending control-plane slot changes visible to the
  // fast path (a republish on the sharded backend; a no-op on the single
  // one, whose fast path reads the master directly). purge_dead() commits
  // too, so the revalidator's end-of-pass purge doubles as the publish.

  // One dumped slot. Pointers reach into the backend's master table and stay
  // valid until the next offload mutation (control thread only).
  struct OffloadSlot {
    FlowRef owner;
    const FlowMask* mask;
    const FlowKey* key;
    const DpActions* actions;  // the slot's snapshot, not the owner's
    uint64_t hits;
    uint64_t bytes;
  };

  virtual bool offload_enabled() const = 0;
  virtual size_t offload_size() const = 0;
  virtual size_t offload_capacity() const = 0;
  virtual bool offload_contains(FlowRef flow) const = 0;
  virtual bool offload_install(FlowRef flow, uint64_t now_ns) = 0;
  virtual bool offload_evict(FlowRef flow) = 0;
  virtual void offload_commit() = 0;
  virtual std::vector<OffloadSlot> offload_dump() const = 0;
  // Test-only slot desynchronization for the invariant checker.
  virtual bool offload_corrupt(size_t idx, OffloadTable::Corruption kind) = 0;

  // --- Upcalls -------------------------------------------------------------

  virtual std::vector<Packet> take_upcalls(size_t max_batch) = 0;
  virtual size_t upcall_queue_depth() const = 0;
  virtual void set_upcall_sink(Datapath::UpcallSink sink) = 0;
  virtual size_t flush_delayed_upcalls() = 0;
  virtual size_t delayed_upcall_count() const = 0;

  // --- Faults and policy knobs --------------------------------------------

  virtual void set_fault_injector(FaultInjector* f) = 0;
  virtual void corrupt_entry(size_t idx) = 0;
  virtual void expire_entry(size_t idx) = 0;
  virtual void set_emc_insert_inv_prob(uint32_t inv) = 0;
  virtual bool microflow_enabled() const = 0;

  // Uniform statistics shape (the sharded backend maps its per-worker
  // tallies into the same struct; stale_hints land in stale_microflow_hits).
  virtual Datapath::Stats stats() const = 0;

  // EMC -> megaflow coherence probe for the invariant checker
  // (datapath/dp_check.h): hints that cannot safely resolve — a pointer
  // outside the live + graveyard entry sets (single) or a tuple index
  // outside the directory (sharded). Control thread, workers quiescent.
  virtual size_t emc_dangling_hints() const = 0;

  virtual size_t n_workers() const = 0;

  // Downcasts for backend-specific drivers (benches, stress tests, legacy
  // Switch::datapath()). nullptr when this is the other backend.
  virtual Datapath* single() noexcept { return nullptr; }
  virtual ShardedDatapath* sharded() noexcept { return nullptr; }
};

// `Datapath` behind the seam.
class SingleDpBackend final : public DpBackend {
 public:
  explicit SingleDpBackend(const DatapathConfig& cfg) : dp_(cfg) {}

  Datapath::RxResult receive(const Packet& pkt, uint64_t now_ns) override {
    return dp_.receive(pkt, now_ns);
  }
  void process_batch(std::span<const Packet> pkts, uint64_t now_ns,
                     Datapath::RxResult* results,
                     Datapath::BatchSummary* summary) override {
    dp_.process_batch(pkts, now_ns, results, summary);
  }

  FlowRef install(const Match& match, DpActions actions, uint64_t now_ns,
                  const FlowKey* full_key = nullptr) override {
    return dp_.install(match, std::move(actions), now_ns, full_key);
  }
  void remove(FlowRef flow) override { dp_.remove(as(flow)); }
  void update_actions(FlowRef flow, DpActions actions) override {
    dp_.update_actions(as(flow), std::move(actions));
  }
  void credit_packet(FlowRef flow, const Packet& pkt,
                     uint64_t now_ns) override {
    dp_.credit_packet(as(flow), pkt, now_ns);
  }
  void purge_dead() override { dp_.purge_dead(); }
  std::vector<FlowRef> dump() const override;
  size_t flow_count() const override { return dp_.flow_count(); }
  size_t mask_count() const override { return dp_.mask_count(); }

  bool offload_enabled() const override { return dp_.offload() != nullptr; }
  size_t offload_size() const override {
    return dp_.offload() != nullptr ? dp_.offload()->size() : 0;
  }
  size_t offload_capacity() const override {
    return dp_.offload() != nullptr ? dp_.offload()->capacity() : 0;
  }
  bool offload_contains(FlowRef flow) const override {
    return dp_.offload() != nullptr && dp_.offload()->contains(flow);
  }
  bool offload_install(FlowRef flow, uint64_t now_ns) override {
    return dp_.offload_install(as(flow), now_ns);
  }
  bool offload_evict(FlowRef flow) override {
    return dp_.offload_evict(as(flow));
  }
  void offload_commit() override {}  // fast path reads the master directly
  std::vector<OffloadSlot> offload_dump() const override;
  bool offload_corrupt(size_t idx, OffloadTable::Corruption kind) override {
    return dp_.offload_corrupt(idx, kind);
  }

  const Match& flow_match(FlowRef flow) const override {
    return as(flow)->match();
  }
  const FlowKey& flow_full_key(FlowRef flow) const override {
    return as(flow)->full_key();
  }
  const DpActions& flow_actions(FlowRef flow) const override {
    return as(flow)->actions();
  }
  uint64_t flow_packets(FlowRef flow) const override {
    return as(flow)->packets();
  }
  uint64_t flow_bytes(FlowRef flow) const override {
    return as(flow)->bytes();
  }
  uint64_t flow_used_ns(FlowRef flow) const override {
    return as(flow)->used_ns();
  }
  FlowRecord& flow_record(FlowRef flow) override { return as(flow)->record(); }
  const FlowRecord& flow_record(FlowRef flow) const override {
    return as(flow)->record();
  }

  std::vector<Packet> take_upcalls(size_t max_batch) override {
    return dp_.take_upcalls(max_batch);
  }
  size_t upcall_queue_depth() const override {
    return dp_.upcall_queue_depth();
  }
  void set_upcall_sink(Datapath::UpcallSink sink) override {
    dp_.set_upcall_sink(std::move(sink));
  }
  size_t flush_delayed_upcalls() override {
    return dp_.flush_delayed_upcalls();
  }
  size_t delayed_upcall_count() const override {
    return dp_.delayed_upcall_count();
  }

  void set_fault_injector(FaultInjector* f) override {
    dp_.set_fault_injector(f);
  }
  void corrupt_entry(size_t idx) override { dp_.corrupt_entry(idx); }
  void expire_entry(size_t idx) override { dp_.expire_entry(idx); }
  void set_emc_insert_inv_prob(uint32_t inv) override {
    dp_.set_emc_insert_inv_prob(inv);
  }
  bool microflow_enabled() const override {
    return dp_.config().microflow_enabled;
  }

  Datapath::Stats stats() const override { return dp_.stats(); }
  size_t emc_dangling_hints() const override {
    return dp_.emc_dangling_hints();
  }
  size_t n_workers() const override { return 1; }
  Datapath* single() noexcept override { return &dp_; }

 private:
  static MegaflowEntry* as(FlowRef f) noexcept {
    return static_cast<MegaflowEntry*>(f);
  }
  Datapath dp_;
};

// `ShardedDatapath` behind the seam. The seam itself stays single-threaded
// (it is driven by the control thread); bursts are spread round-robin across
// the worker slots so every per-worker EMC shard participates, modeling N rx
// queues polled by N PMDs. The built-in worker pool can additionally stream
// around the seam (benches, stress tests) via sharded().
class MtDpBackend final : public DpBackend {
 public:
  explicit MtDpBackend(const ShardedDatapathConfig& cfg) : dp_(cfg) {}

  Datapath::RxResult receive(const Packet& pkt, uint64_t now_ns) override;
  void process_batch(std::span<const Packet> pkts, uint64_t now_ns,
                     Datapath::RxResult* results,
                     Datapath::BatchSummary* summary) override;

  FlowRef install(const Match& match, DpActions actions, uint64_t now_ns,
                  const FlowKey* full_key = nullptr) override {
    return dp_.install(match, std::move(actions), now_ns, full_key);
  }
  void remove(FlowRef flow) override { dp_.remove(as(flow)); }
  void update_actions(FlowRef flow, DpActions actions) override {
    dp_.update_actions(as(flow), std::move(actions));
  }
  void credit_packet(FlowRef flow, const Packet& pkt,
                     uint64_t now_ns) override {
    dp_.credit_packet(as(flow), pkt, now_ns);
  }
  void purge_dead() override { dp_.purge_dead(); }
  std::vector<FlowRef> dump() const override;
  size_t flow_count() const override { return dp_.flow_count(); }
  size_t mask_count() const override { return dp_.mask_count(); }

  bool offload_enabled() const override { return dp_.offload() != nullptr; }
  size_t offload_size() const override {
    return dp_.offload() != nullptr ? dp_.offload()->size() : 0;
  }
  size_t offload_capacity() const override {
    return dp_.offload() != nullptr ? dp_.offload()->capacity() : 0;
  }
  bool offload_contains(FlowRef flow) const override {
    return dp_.offload() != nullptr && dp_.offload()->contains(flow);
  }
  bool offload_install(FlowRef flow, uint64_t now_ns) override {
    return dp_.offload_install(as(flow), now_ns);
  }
  bool offload_evict(FlowRef flow) override {
    return dp_.offload_evict(as(flow));
  }
  void offload_commit() override { dp_.offload_commit(); }
  std::vector<OffloadSlot> offload_dump() const override;
  bool offload_corrupt(size_t idx, OffloadTable::Corruption kind) override {
    return dp_.offload_corrupt(idx, kind);
  }

  const Match& flow_match(FlowRef flow) const override {
    return as(flow)->match();
  }
  const FlowKey& flow_full_key(FlowRef flow) const override {
    return as(flow)->full_key();
  }
  const DpActions& flow_actions(FlowRef flow) const override {
    return *as(flow)->actions();
  }
  uint64_t flow_packets(FlowRef flow) const override {
    return as(flow)->packets();
  }
  uint64_t flow_bytes(FlowRef flow) const override {
    return as(flow)->bytes();
  }
  uint64_t flow_used_ns(FlowRef flow) const override {
    return as(flow)->used_ns();
  }
  FlowRecord& flow_record(FlowRef flow) override { return as(flow)->record(); }
  const FlowRecord& flow_record(FlowRef flow) const override {
    return as(flow)->record();
  }

  std::vector<Packet> take_upcalls(size_t max_batch) override {
    return dp_.take_upcalls(max_batch);
  }
  size_t upcall_queue_depth() const override {
    return dp_.upcall_queue_depth();
  }
  void set_upcall_sink(Datapath::UpcallSink sink) override {
    dp_.set_upcall_sink(std::move(sink));
  }
  size_t flush_delayed_upcalls() override {
    return dp_.flush_delayed_upcalls();
  }
  size_t delayed_upcall_count() const override {
    return dp_.delayed_upcall_count();
  }

  void set_fault_injector(FaultInjector* f) override {
    dp_.set_fault_injector(f);
  }
  void corrupt_entry(size_t idx) override { dp_.corrupt_entry(idx); }
  void expire_entry(size_t idx) override { dp_.expire_entry(idx); }
  void set_emc_insert_inv_prob(uint32_t inv) override {
    dp_.set_emc_insert_inv_prob(inv);
  }
  bool microflow_enabled() const override { return dp_.config().emc_enabled; }

  Datapath::Stats stats() const override;
  size_t emc_dangling_hints() const override {
    return dp_.emc_dangling_hints();
  }
  size_t n_workers() const override { return dp_.config().n_workers; }
  ShardedDatapath* sharded() noexcept override { return &dp_; }

 private:
  static MtMegaflow* as(FlowRef f) noexcept {
    return static_cast<MtMegaflow*>(f);
  }
  ShardedDatapath dp_;
  size_t rr_ = 0;  // next worker slot for seam-driven bursts
};

// Backend factory: workers <= 1 keeps the single-threaded kernel datapath;
// workers >= 2 builds a sharded one configured to match `cfg` (same EMC
// capacity per shard, upcall bound, insertion probability, cap, and seed).
std::unique_ptr<DpBackend> make_dp_backend(const DatapathConfig& cfg,
                                           size_t workers);

}  // namespace ovs
