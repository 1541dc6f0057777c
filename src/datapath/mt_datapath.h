// Multi-worker (PMD-style) datapath: N forwarding workers over one shared
// megaflow table (paper §4.1: "nonblocking multiple-reader, single-writer
// flow tables" + RCU).
//
// Threading model, mirroring OVS userspace/DPDK forwarding:
//
//   * N *workers* — threads the caller owns, run to completion — call
//     process_batch(worker, ...) concurrently, each passing its own worker
//     id. A worker owns one ConcurrentEmc shard (its microflow cache), so EMC
//     installs stay single-writer per shard. Through the DpBackend interface
//     (receive / process_batch without a worker id) the control thread
//     itself drives the workers' slots, bursts rotating round-robin.
//   * One *control* thread (the upcall handler / revalidator) calls
//     install / remove / update_actions / purge_dead / dump. Publication is
//     RCU-style: entries become visible with a single release-ordered hash
//     table insert; removal marks the entry dead, unlinks it, and parks it
//     in a graveyard until synchronize() observes every worker outside its
//     read-side critical section (QSBR via per-worker epoch counters that
//     are odd while a batch is in flight).
//
// The shared megaflow table is a priority-less tuple space (§4.2): a fixed
// directory of per-mask tuples, each an optimistic-concurrent cuckoo map
// from masked-key hash to a chain of entries. The EMC hint is the *index of
// the tuple to search first* ("a hint to the first hash table to search",
// §6) — never a pointer, so a stale hint can misdirect but never dangle.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "datapath/concurrent_emc.h"
#include "datapath/dp_backend.h"
#include "datapath/dp_shared.h"
#include "datapath/offload_table.h"
#include "packet/match.h"
#include "packet/packet.h"
#include "util/cuckoo.h"
#include "util/miniflow.h"
#include "util/rng.h"

namespace ovs {

class FaultInjector;
class ShardedDatapath;
struct EntryLayoutProbe;  // entry_layout_test.cc

// A megaflow entry in the concurrent table. Match is immutable after
// construction; actions are swapped atomically (RCU: the old list is
// retired, not freed); statistics are relaxed atomics bumped by workers.
class MtMegaflow : public DpFlow {
 public:
  const Match& match() const noexcept { return match_; }
  // Full-fidelity key of the packet that created this flow (the udpif key
  // in real OVS); written before publication, immutable afterwards.
  // match().key is pre-masked and lossy to re-translate.
  const FlowKey& full_key() const noexcept { return full_key_; }
  const DpActions* actions() const noexcept {
    return actions_.load(std::memory_order_acquire);
  }
  bool dead() const noexcept { return dead_.load(std::memory_order_acquire); }

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

  // Userspace record (tags, attribution, offload placement): written by the
  // control thread only, never touched by workers.
  FlowRecord& record() noexcept { return record_; }
  const FlowRecord& record() const noexcept { return record_; }

  ~MtMegaflow() { delete actions_.load(std::memory_order_relaxed); }

 private:
  friend class ShardedDatapath;
  friend struct EntryLayoutProbe;

  explicit MtMegaflow(Match m) : match_(std::move(m)) {}

  void bump(uint64_t pkts, uint64_t byts, uint64_t now_ns) noexcept {
    packets_.fetch_add(pkts, std::memory_order_relaxed);
    bytes_.fetch_add(byts, std::memory_order_relaxed);
    // Monotone max: concurrent workers may carry different virtual clocks.
    uint64_t cur = used_ns_.load(std::memory_order_relaxed);
    while (cur < now_ns && !used_ns_.compare_exchange_weak(
                               cur, now_ns, std::memory_order_relaxed)) {
    }
  }

  // Cold, and first on purpose: the hot fields after it keep the offsets
  // the fast-path benchmarks were measured with.
  uint64_t created_ns_ = 0;
  const Match match_;
  FlowKey full_key_;  // set by the writer before the publication point
  std::atomic<const DpActions*> actions_{nullptr};
  std::atomic<MtMegaflow*> hash_next_{nullptr};  // same-tuple hash collision
  std::atomic<uint64_t> packets_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> used_ns_{0};
  std::atomic<bool> dead_{false};
  uint64_t hash_ = 0;       // full masked-key hash (writer bookkeeping)
  uint32_t tuple_idx_ = 0;  // directory slot of the owning tuple
  size_t index_ = 0;        // position in entries_ (swap-remove)
  FlowRecord record_;       // cold tail: nothing on the fast path reads it
};

struct ShardedDatapathConfig {
  size_t n_workers = 4;
  bool emc_enabled = true;           // per-worker microflow shards (§4.2)
  size_t emc_capacity_per_shard = dpdefault::kEmcCapacity;
  size_t max_tuples = 1024;          // tuple directory capacity (masks)
  size_t tuple_capacity = 4096;      // initial cuckoo size per tuple
  // Flow-table hard cap, like DatapathConfig::max_flows. 0 = unbounded.
  size_t max_flows = 0;
  // Probabilistic EMC insertion (§7.3, OVS emc-insert-inv-prob): each shard
  // inserts a missed microflow with probability 1/N. 1 = always insert.
  uint32_t emc_insert_inv_prob = dpdefault::kEmcInsertInvProb;
  // Simulated NIC offload table capacity (DESIGN.md §13). 0 disables the
  // tier entirely: no table is allocated and workers never probe.
  size_t offload_slots = 0;
  uint64_t seed = dpdefault::kDpSeed;  // per-shard insertion RNG seeds
};

class ShardedDatapath final : public DpBackend {
 public:
  explicit ShardedDatapath(ShardedDatapathConfig cfg = {});
  ~ShardedDatapath() override;

  ShardedDatapath(const ShardedDatapath&) = delete;
  ShardedDatapath& operator=(const ShardedDatapath&) = delete;

  // --- Worker fast path (thread `worker`, lock-free except upcall append) --
  //
  // Same burst semantics as Datapath::process_batch: one hash per key,
  // one EMC probe per unique microflow, one classifier search per unique
  // microflow that missed the EMC, one statistics bump per matched megaflow.
  // The whole call, the batch callback included, is one read-side critical
  // section; RxResult::actions pointers stay valid until the control
  // thread's next purge_dead().
  void process_batch(size_t worker, std::span<const Packet> pkts,
                     uint64_t now_ns, RxResult* results,
                     BatchSummary* summary = nullptr);

  // Runs after each process_batch(worker, ...) on the worker's thread,
  // inside its read-side critical section, so it may read the results'
  // actions while the control thread removes and retires flows.
  using BatchCallback =
      std::function<void(size_t worker, std::span<const RxResult>)>;
  void set_batch_callback(BatchCallback cb) { callback_ = std::move(cb); }

  // The DpBackend fast path, for a caller that owns no workers (the
  // Switch's control thread): one burst = one rx-queue poll, so each call
  // goes to one worker slot and successive calls rotate, and every
  // per-worker EMC shard sees the intra-burst dedup a real PMD would.
  RxResult receive(const Packet& pkt, uint64_t now_ns) override;
  void process_batch(std::span<const Packet> pkts, uint64_t now_ns,
                     RxResult* results,
                     BatchSummary* summary = nullptr) override;

  // --- Control path (one thread) -------------------------------------------

  // Installs a flow; returns the existing entry on a duplicate masked key
  // (userspace keeps megaflows disjoint, §4.2) and nullptr if the tuple
  // directory is full.
  // full_key, when given, is the unmasked key of the packet that triggered
  // the install (stored for full-fidelity revalidation); defaults to the
  // already-masked match.key for direct/synthetic installs. `actions` is
  // moved from only when a new entry is created; the const& overload
  // installs a copy.
  MtMegaflow* install(const Match& match, DpActions&& actions,
                      uint64_t now_ns,
                      const FlowKey* full_key = nullptr) override;
  MtMegaflow* install(const Match& match, const DpActions& actions,
                      uint64_t now_ns, const FlowKey* full_key = nullptr) {
    return install(match, DpActions(actions), now_ns, full_key);
  }

  // Marks dead, unlinks, and parks the entry; freed by purge_dead().
  void remove(FlowRef flow) override;

  // RCU actions swap: readers mid-batch keep executing the old list, which
  // is retired until the next grace period.
  void update_actions(FlowRef flow, DpActions actions) override;

  void credit_packet(FlowRef flow, const Packet& pkt,
                     uint64_t now_ns) override {
    as(flow)->bump(1, pkt.size_bytes, now_ns);
  }

  // QSBR grace period: returns once every worker observed outside a batch
  // (epoch even or advanced past the snapshot).
  void synchronize();

  // synchronize(), then free dead entries, retired action lists, and
  // retired cuckoo slot arrays.
  void purge_dead() override;

  std::vector<FlowRef> dump() const override;  // control thread only

  size_t flow_count() const noexcept override {
    return n_flows_.load(std::memory_order_relaxed);
  }
  size_t mask_count() const noexcept override;  // tuples with live rules

  const Match& flow_match(FlowRef f) const override { return as(f)->match(); }
  const FlowKey& flow_full_key(FlowRef f) const override {
    return as(f)->full_key();
  }
  const DpActions& flow_actions(FlowRef f) const override {
    return *as(f)->actions();
  }
  uint64_t flow_packets(FlowRef f) const override { return as(f)->packets(); }
  uint64_t flow_bytes(FlowRef f) const override { return as(f)->bytes(); }
  uint64_t flow_used_ns(FlowRef f) const override { return as(f)->used_ns(); }
  FlowRecord& flow_record(FlowRef f) override { return as(f)->record(); }
  const FlowRecord& flow_record(FlowRef f) const override {
    return as(f)->record();
  }

  // The sink is invoked under the upcall lock — concurrent worker flushes
  // are serialized through it, so the sink itself need not be thread-safe,
  // but it must not call back into this datapath's upcall API. Set it
  // before workers start streaming.
  void set_upcall_sink(UpcallSink sink) override {
    std::lock_guard<std::mutex> lk(upcall_mu_);
    sink_ = std::move(sink);
  }

  // FaultInjector is internally synchronized, so worker flushes may consult
  // it concurrently.
  void set_fault_injector(FaultInjector* f) noexcept override { fault_ = f; }

  // The scrambled actions go through the RCU swap, so readers mid-batch
  // stay safe.
  void corrupt_entry(size_t idx) override;
  void expire_entry(size_t idx) override;

  // Workers pick the new probability up on their next insertion attempt.
  void set_emc_insert_inv_prob(uint32_t inv) noexcept override {
    emc_insert_inv_prob_.store(inv == 0 ? 1 : inv, std::memory_order_relaxed);
  }
  bool microflow_enabled() const noexcept override { return cfg_.emc_enabled; }

  // --- Simulated NIC offload tier (control thread; DESIGN.md §13) ----------
  //
  // The control thread owns a *master* OffloadTable and publishes immutable
  // clones to workers through an atomic pointer (the same RCU discipline as
  // actions): remove()/update_actions() repair the master in the same call
  // that touches the megaflow, then the next purge_dead() — or an explicit
  // offload_commit() — republishes. Workers mid-batch may briefly forward
  // from a retired view; the view is only freed after a grace period, and
  // per-slot counters are shared across clones so no hit is lost.

  // The master table; the view workers currently probe may lag it by one
  // commit.
  const OffloadTable* offload() const noexcept override { return off_.get(); }
  bool offload_install(FlowRef flow, uint64_t now_ns) override;
  bool offload_evict(FlowRef flow) override;
  // Publishes the master to workers if it changed since the last publish.
  void offload_commit() override;
  bool offload_corrupt(size_t idx, OffloadTable::Corruption kind) override;

  void flush_delayed_upcalls() override;
  size_t delayed_upcall_count() const override;

  Stats stats() const override;  // aggregated over workers; any thread

  // The EMC hints are tuple indexes; the directory is append-only, so by
  // construction none falls outside it — the checker enforces exactly that
  // construction. Call with workers quiescent (shards are single-writer).
  size_t emc_dangling_hints() const override;

  size_t n_workers() const noexcept override { return cfg_.n_workers; }

  const ShardedDatapathConfig& config() const noexcept { return cfg_; }

 private:
  static MtMegaflow* as(FlowRef f) noexcept {
    return static_cast<MtMegaflow*>(f);
  }

  // One hash table per mask. The directory only ever appends (empty tuples
  // are reused for a matching new mask, never deleted), so a tuple index is
  // forever safe to dereference — the property the EMC hint relies on.
  struct MtTuple {
    explicit MtTuple(const FlowMask& mask, size_t capacity);

    uint64_t hash_key(const FlowWords& key) const noexcept {
      return schema_.full_hash(key);
    }
    bool masked_equal(const FlowKey& pkt, const FlowKey& stored)
        const noexcept {
      return schema_.masked_equal(pkt, stored);
    }

    // Reader-side search of this tuple's hash table.
    const MtMegaflow* find(const FlowKey& pkt) const noexcept;

    FlowMask mask;
    MiniflowSchema schema_;
    CuckooMap64 table;                  // masked hash -> MtMegaflow chain
    std::atomic<size_t> n_rules{0};
    uint32_t dir_idx = 0;               // this tuple's directory slot
  };

  struct alignas(64) WorkerSlot {
    // Odd while the worker is inside process_batch (its read-side critical
    // section); even when quiescent.
    std::atomic<uint64_t> epoch{0};
    std::unique_ptr<ConcurrentEmc> emc;
    Rng rng{0};  // probabilistic EMC insertion; owner worker only
    // Owner-written relaxed counters, aggregated by stats().
    std::atomic<uint64_t> packets{0};
    std::atomic<uint64_t> offload_hits{0};
    std::atomic<uint64_t> microflow_hits{0};
    std::atomic<uint64_t> megaflow_hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> stale_hints{0};
    std::atomic<uint64_t> tuples_searched{0};
    std::atomic<uint64_t> emc_inserts{0};
    std::atomic<uint64_t> emc_insert_skips{0};
    // The batch's misses on their way to the sink; owner worker only, kept
    // across batches so a miss burst reuses its storage.
    std::vector<Packet> missed;
  };

  // Full tuple-space search (first match wins; §4.2). `skip` is a tuple
  // already probed via the EMC hint. Counts probed tuples into *searched.
  const MtMegaflow* classify(const FlowKey& key, uint32_t skip,
                             uint32_t* searched) const noexcept;

  void process_chunk(WorkerSlot& slot, const Packet* pkts, size_t n,
                     uint64_t now_ns, RxResult* results, BatchSummary& sum,
                     std::vector<Packet>& missed);
  void flush_upcalls(std::vector<Packet>& missed);
  // Hands one upcall to the sink. Requires upcall_mu_.
  void deliver_locked(Packet&& pkt, uint64_t* drops);

  MtTuple* writer_find_tuple(const FlowMask& mask, bool create);
  // Clones the master, swings off_view_, retires the old clone (freed by
  // purge_dead after the next grace period). Control thread only.
  void publish_offload();

  ShardedDatapathConfig cfg_;

  // Tuple directory: append-only array of atomic pointers + atomic count.
  std::vector<std::atomic<MtTuple*>> dir_;
  std::atomic<uint32_t> n_tuples_{0};
  std::vector<std::unique_ptr<MtTuple>> tuples_;  // ownership (control)

  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  size_t rr_ = 0;  // next worker slot for DpBackend-driven bursts
  BatchCallback callback_;

  // Control-side bookkeeping.
  std::vector<std::unique_ptr<MtMegaflow>> entries_;
  std::vector<std::unique_ptr<MtMegaflow>> graveyard_;
  std::vector<std::unique_ptr<const DpActions>> retired_actions_;
  std::atomic<size_t> n_flows_{0};

  // Offload tier: master (control thread), the published clone workers
  // probe, and clones retired but not yet past a grace period.
  std::unique_ptr<OffloadTable> off_;               // master
  std::unique_ptr<const OffloadTable> off_current_; // published clone
  std::atomic<const OffloadTable*> off_view_{nullptr};
  std::vector<std::unique_ptr<const OffloadTable>> retired_off_;
  bool off_dirty_ = false;

  // Upcall delivery (one lock per burst flush): the sink is invoked under
  // it, serializing concurrent worker flushes.
  mutable std::mutex upcall_mu_;
  std::deque<Packet> delayed_;  // delay-fault parking lot (under upcall_mu_)
  UpcallSink sink_;             // under upcall_mu_
  std::atomic<uint64_t> upcall_drops_{0};
  std::atomic<uint64_t> install_fail_full_{0};
  std::atomic<uint64_t> install_fail_transient_{0};
  std::atomic<uint64_t> upcalls_delayed_{0};
  std::atomic<uint64_t> upcall_dup_enqueues_{0};
  std::atomic<uint64_t> entries_corrupted_{0};
  std::atomic<uint64_t> entries_expired_{0};
  std::atomic<uint32_t> emc_insert_inv_prob_{1};
  FaultInjector* fault_ = nullptr;
};

}  // namespace ovs
