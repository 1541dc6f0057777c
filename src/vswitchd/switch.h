// The top-level switch: the public API a downstream user programs against.
//
// A Switch owns a userspace pipeline (OpenFlow tables, MAC learning,
// recirculation ids), a simulated kernel datapath (megaflow + microflow
// caches, conntrack), and
// the daemon machinery connecting them:
//
//   * upcall handling — datapath misses are translated through the pipeline
//     and the resulting megaflow is installed (§3.1, §4.2); a packet whose
//     megaflow runs conntrack recirculates in the datapath, and its
//     recirculated misses are served in the same call (DESIGN.md §15);
//   * revalidation — installed flows are periodically dumped, re-translated
//     and compared; idle flows are evicted; the flow limit is enforced and
//     dynamically adjusted so revalidation stays under a deadline (§6);
//   * CPU accounting — every operation charges virtual cycles split into
//     kernel/user pools (see sim/cost_model.h).
//
// Typical driving loop (see examples/quickstart.cc):
//
//   Switch sw(cfg);
//   sw.add_port(1); sw.add_port(2);
//   sw.table(0).add_flow(MatchBuilder().in_port(1), 10,
//                        OfActions().output(2));
//   sw.inject(pkt, clock.now());
//   sw.handle_upcalls(clock.now());
//   ... every second: sw.run_maintenance(clock.now());
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "datapath/datapath.h"
#include "datapath/dp_check.h"
#include "ofproto/pipeline.h"
#include "sim/clock.h"
#include "sim/cost_model.h"
#include "vswitchd/revalidator.h"
#include "vswitchd/upcall_queue.h"

namespace ovs {

enum class RevalidationMode : uint8_t {
  kFull,     // re-examine every datapath flow (OVS >= 2.0, §6)
  kTags,     // Bloom-filter tags: only flows whose tags changed (historical;
             // skipped flows get no statistics push)
  kTwoTier,  // §4.3: tag/generation fast path decides per flow whether the
             // full re-translation is needed; skipped flows still push
             // statistics (attribution survives MAC-only changes)
};

// Crash/restart lifecycle (DESIGN.md §9). The kernel datapath survives a
// userspace crash and keeps forwarding its cached megaflows; the daemon's
// own state (tables, queues, flow records, degradation) dies.
//
//   kServing ──crash()──▶ kCrashed ──restart()──▶ kReconciling ──▶ kServing
//
// While not serving, the upcall sink refuses misses (the netlink socket has
// no listener; counted as drops) and maintenance rounds drive restart()
// instead of revalidation. Flow installation re-enables only after the
// reconciliation pass and the post-reconciliation invariant gate complete.
enum class LifecycleState : uint8_t { kServing, kCrashed, kReconciling };

// Graceful-degradation policies: how the slow path sheds load instead of
// collapsing when it is pushed past its envelope (§6, §7.3). Three
// independent pressure valves:
//
//   * revalidator deadline overruns -> multiplicative backoff of the dynamic
//     flow limit (limit_backoff per overrun), additive recovery
//     (limit_recovery per clean pass) — AIMD on cache size, so a switch
//     that cannot revalidate its table in time carries a smaller table
//     rather than an ever-staler one;
//   * sustained EMC thrash (insert attempts far outrunning microflow hits,
//     the tuple-churn signature) -> probabilistic EMC insertion
//     (emc-insert-inv-prob, the §7.3-style mitigation), restored with
//     hysteresis once the churn subsides;
//   * flow-install failures (kernel ENOSPC / transient) -> bounded retry
//     with exponential backoff instead of silently losing the setup.
struct DegradationConfig {
  bool enabled = true;

  // Dynamic-flow-limit AIMD (multiplier applied to the §6 deadline-derived
  // limit; never drops the limit below limit_floor flows).
  double limit_backoff = 0.5;    // scale *= this per deadline overrun
  double limit_recovery = 0.1;   // scale += this per on-time pass (cap 1.0)
  size_t limit_floor = 512;

  // EMC thrash detection, evaluated once per maintenance interval.
  double emc_thrash_ratio = 4.0;   // engage: inserts > ratio * hits
  uint64_t emc_min_inserts = 512;  // minimum signal before judging
  uint32_t emc_degraded_inv_prob = 32;  // insert prob 1/N while degraded

  // Install-failure retry.
  size_t max_install_retries = 3;
  uint64_t retry_backoff_ns = 10 * kMillisecond;  // doubles per attempt
  size_t max_retry_queue = 1024;

  // Tuple-space explosion detection (DESIGN.md §14), evaluated once per
  // maintenance interval. Two triggers, each 0 = off (the default keeps the
  // pre-detector switch bit-for-bit):
  //   * the kernel datapath's megaflow mask count crossing
  //     mask_explosion_subtables — the direct signature of an attacker
  //     minting pairwise-incomparable masks;
  //   * an EWMA of megaflow tables probed per packet crossing
  //     mask_probe_ewma_threshold — the cost signature, which also fires
  //     when masks stay under the count trigger but lookups degrade.
  // Engaging bumps counters().mask_explosion_engaged and applies one
  // multiplicative flow-limit backoff per interval the signal persists
  // (shedding cached flows sheds their masks); additive recovery is
  // suppressed while engaged. Disengage at half the thresholds, the same
  // hysteresis shape as the EMC thrash detector.
  size_t mask_explosion_subtables = 0;
  double mask_probe_ewma_threshold = 0.0;
  double mask_probe_ewma_alpha = 0.3;  // EWMA smoothing per interval
};

class FaultInjector;

struct SwitchConfig {
  size_t n_tables = 8;
  ClassifierConfig classifier;  // userspace tables (Table 1 toggles these)
  DatapathConfig datapath;

  // Datapath forwarding workers: the datapath runs this many worker
  // shards (0 or 1 = one), each a single-writer copy of the megaflow cache
  // with its own EMC (§4.1; datapath/datapath.h). Bursts the switch injects
  // rotate across them.
  size_t datapath_workers = 0;

  // Revalidator plan-phase threads (§4.3: "dividing flows among revalidator
  // threads"). 1 = the historical serial pass; the apply phase is always
  // serial on the control thread.
  size_t revalidator_threads = 1;

  // Simulated NIC hardware-offload tier (DESIGN.md §13). offload_slots > 0
  // enables a fixed-capacity offload table probed before the EMC; megaflows
  // *earn* slots by measured hit rate: the revalidator keeps a per-flow EWMA
  // of packets seen per dump interval and programs the top flows, with
  // hysteresis so a challenger only displaces the coldest incumbent when
  // clearly hotter. 0 disables the tier (bit-for-bit the pre-offload
  // switch). Mirrored into datapath.offload_slots at construction.
  size_t offload_slots = 0;
  // EWMA smoothing for per-dump packet deltas (1.0 = last interval only).
  double offload_ewma_alpha = 0.5;
  // A challenger must beat the coldest offloaded flow's EWMA by this factor
  // to take its slot (churn hysteresis; 1.0 = plain rank order).
  double offload_challenge_factor = 2.0;
  // Flows below this EWMA never earn a slot, and offloaded flows that decay
  // below it are evicted even when no challenger wants the slot.
  double offload_min_ewma = 1.0;

  // false reproduces Table 1's "megaflows disabled" row: userspace installs
  // exact-match (microflow) entries only.
  bool megaflows_enabled = true;

  // Upcall batching (§4.1: "batching flow setups ... improved flow setup
  // performance about 24%"). When false every upcall pays its own
  // kernel/user crossing.
  bool batching = true;
  size_t upcall_batch = 64;

  // Receive-side burst size (PMD-style batching). 1 = per-packet receive
  // (the historical path); >1 makes the fleet/experiment drivers gather
  // packets into bursts of this size and charge the batched cost model.
  size_t rx_batch = 1;

  // Rule-admission mask cap (DESIGN.md §14): tenant-attributed rules (match
  // exact on metadata, the logical-pipeline tenant tag) may hold at most
  // this many distinct masks per tenant. An add that would mint a new mask
  // past the cap is rejected before any rule state is constructed
  // (counters().rules_rejected_mask_cap); adds reusing an already-installed
  // mask are always admitted, so lowering the cap at runtime grandfathers
  // existing rules instead of evicting them. Rules without an exact
  // metadata match are uncapped. 0 disables admission control.
  size_t max_masks_per_tenant = 0;

  // Cache invalidation parameters (§6).
  size_t flow_limit = 200000;
  bool dynamic_flow_limit = true;     // keep revalidation under the deadline
  uint64_t idle_timeout_ns = 10 * kSecond;
  uint64_t overflow_idle_timeout_ns = 100 * kMillisecond;
  uint64_t max_revalidation_ns = 1 * kSecond;
  // kTwoTier by default: bench_tag_alias measured a 0 false-skip rate
  // (< 1e-4 gate) under large-L2 MAC churn — the tag fast path is
  // conservative, so skips are always sound; aliasing only costs extra
  // re-translations (§6, EXPERIMENTS.md).
  RevalidationMode reval_mode = RevalidationMode::kTwoTier;

  // Bounded per-port fair upcall queueing (vswitchd/upcall_queue.h) and
  // overload-degradation policies.
  UpcallQueueConfig upcall_queue;
  DegradationConfig degradation;

  // Non-owning; when set, faults are injected at the switch's upcall,
  // install, entry, and revalidator decision points (util/fault.h).
  FaultInjector* fault = nullptr;

  CostModel cost;
};

class Switch {
 public:
  explicit Switch(SwitchConfig cfg = {});

  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  // --- Configuration surface ---------------------------------------------

  void add_port(uint32_t port);
  void remove_port(uint32_t port);

  Pipeline& pipeline() noexcept { return pipeline_; }
  FlowTable& table(size_t i) { return pipeline_.table(i); }
  // Revalidator plan-thread count is safe to change between maintenance
  // passes (benches sweep it on one Switch instead of rebuilding state).
  void set_revalidator_threads(size_t n) noexcept {
    cfg_.revalidator_threads = n;
  }
  // The admission cap is safe to change at runtime: already-installed rules
  // are grandfathered (never evicted); only new mask creation is re-judged
  // against the new cap.
  void set_max_masks_per_tenant(size_t n) noexcept {
    cfg_.max_masks_per_tenant = n;
  }
  // Next revalidation re-translates every flow, tags notwithstanding (the
  // ovs-appctl "revalidator purge" analogue; also set by entry-fault
  // injection, whose corruption bypasses the generation counters).
  void force_full_revalidation() noexcept { reval_force_full_ = true; }
  // The datapath (datapath_workers shards): stats, flows, offload and
  // upcall introspection.
  Datapath& backend() noexcept { return dp_; }
  const Datapath& backend() const noexcept { return dp_; }
  const SwitchConfig& config() const noexcept { return cfg_; }

  // ovs-ofctl-style text interface (see ofproto/flow_parser.h). Returns an
  // empty string on success, otherwise the parse error.
  std::string add_flow(const std::string& text, uint64_t now_ns = 0);
  // Programmatic add used by benches and the fleet sim; runs the same
  // admission control as the text interface (direct table(i).add_flow calls
  // bypass it, like a management plane writing OVSDB behind the daemon).
  std::string add_flow(size_t table, const Match& match, int32_t priority,
                       OfActions actions, uint64_t now_ns = 0);
  // Loose-match deletion ("tcp, nw_dst=9.1.1.0/24"; empty = everything;
  // include table=N to restrict). On success returns "" and stores the
  // number deleted in *n_deleted if non-null.
  std::string del_flows(const std::string& text = "",
                        size_t* n_deleted = nullptr);
  // All flows across all tables in add_flow syntax, sorted.
  std::vector<std::string> dump_flows() const;

  // Controller-driven conntrack writes (DESIGN.md §15): the ovs-ctl
  // "ct-commit"/"ct-delete" analogues, on the datapath's tracker. No
  // megaflow depends on a connection, so no write needs revalidation.
  bool ct_commit(const FlowKey& key, uint16_t zone, uint64_t now_ns) {
    return dp_.conntrack().commit(key, zone, now_ns);
  }
  bool ct_commit_nat(const FlowKey& key, const CtNatSpec& nat, uint16_t zone,
                     uint64_t now_ns) {
    return dp_.conntrack().commit_nat(key, nat, zone, now_ns);
  }
  bool ct_remove(const FlowKey& key, uint16_t zone) {
    return dp_.conntrack().remove(key, zone);
  }
  const ConnTracker& conntrack() const noexcept { return dp_.conntrack(); }

  // Invoked for every packet transmitted on a port.
  using OutputFn = std::function<void(uint32_t port, const Packet&)>;
  void set_output_handler(OutputFn fn) { output_ = std::move(fn); }

  // Invoked for every packet the pipeline sends to the controller (the
  // `controller` action): the control-plane agent (vswitchd/ctrl_agent.h)
  // turns these into packet-in messages. Fires in addition to the
  // to_controller counter, on both the scalar and batched action paths.
  using ControllerFn = std::function<void(const Packet&)>;
  void set_controller_hook(ControllerFn fn) {
    controller_hook_ = std::move(fn);
  }

  // Deterministic trace hook: fires exactly once per packet at the moment
  // its forwarding fate is decided — on a cache hit with the cached entry's
  // actions, or when its upcall is handled with the freshly translated
  // actions (path == kMiss). A recirculated packet's actions are its
  // composed fate (every stage, ct's NAT rewrite included), reported once
  // the last stage is decided. Refused upcalls (queue full, daemon down) and
  // fault-dropped upcalls produce no trace. The differential fuzz harness
  // (src/testing/) diffs these per-packet traces against its oracle.
  using TraceFn = std::function<void(const Packet&, const DpActions&,
                                     Datapath::Path)>;
  void set_trace_hook(TraceFn fn) { trace_ = std::move(fn); }

  // --- Packet path ---------------------------------------------------------

  // Processes one received packet. Cache hits execute immediately; misses
  // queue an upcall (drive with handle_upcalls).
  Datapath::Path inject(const Packet& pkt, uint64_t now_ns);

  // Processes a burst sharing one timestamp through the batched datapath
  // fast path: one flow-key hash per packet, deduplicated cache probes,
  // grouped action execution, and the amortized burst cost model
  // (cost.batch_fixed + per_packet_batched instead of per_packet). Returns
  // the number of packets that missed (queued as upcalls).
  size_t inject_batch(std::span<const Packet> pkts, uint64_t now_ns);

  // Processes queued upcalls: retries due failed installs, then every
  // recirculation upcall, then up to max_upcalls misses from the fair queue
  // (translate, install, forward), then releases fault-delayed upcalls for
  // the next round. A recirculation an upcall starts finishes inside the
  // call, its misses served as upcalls too. Returns the number of fresh
  // upcalls handled (retries not included).
  // max_upcalls models the handler's per-invocation service budget — under
  // overload the queue backlogs and the fair dequeue decides who is served.
  size_t handle_upcalls(uint64_t now_ns, size_t max_upcalls = SIZE_MAX);

  // Periodic maintenance: revalidation, idle eviction, flow-limit
  // enforcement, MAC aging. Call roughly once per second of virtual time.
  // While crashed/reconciling this drives restart() instead; a
  // kUserspaceCrash fault consulted here can kill the daemon mid-run.
  void run_maintenance(uint64_t now_ns);

  // --- Crash / restart lifecycle (DESIGN.md §9) ---------------------------

  // Simulated daemon death. Snapshots the durable config (ports + OpenFlow
  // rules — the OVSDB role, §3.3), counts queued upcalls as dropped and
  // pending retries as abandoned so the slow-path ledgers stay balanced,
  // and discards all other userspace state. The datapath is
  // untouched: it keeps forwarding from its surviving megaflow cache.
  // No-op unless currently serving.
  void crash();

  // Daemon restart: rebuilds the pipeline from the crash-time snapshot,
  // then reconciles the surviving datapath cache — dump, re-translate every
  // flow against the rebuilt tables (forced-full Revalidator pass), adopt
  // still-valid entries, repair or delete stale ones in dump order — and
  // finally runs the invariant gate (self_check) before re-enabling
  // installs. Returns true once serving; false when an injected
  // kReconcileStall postponed completion (call again next round).
  bool restart(uint64_t now_ns);

  LifecycleState lifecycle() const noexcept { return state_; }

  // Megaflow invariant checker (datapath/dp_check.h) with quarantine:
  // violating entries are deleted (their records die with them) and
  // counters().flows_quarantined bumped. Runs from tests, from the fleet
  // sim's periodic background self-check, and as the post-reconciliation
  // gate inside restart().
  DpCheckReport self_check();

  // --- Introspection -------------------------------------------------------

  struct Counters {
    uint64_t flow_setups = 0;       // megaflows installed
    uint64_t setup_dups = 0;        // upcall raced an already-installed flow
    uint64_t to_controller = 0;
    uint64_t xlate_errors = 0;
    uint64_t reval_runs = 0;
    uint64_t reval_flows_examined = 0;
    uint64_t reval_deleted_idle = 0;
    uint64_t reval_deleted_stale = 0;
    uint64_t reval_updated_actions = 0;
    uint64_t reval_skipped_by_tags = 0;
    uint64_t evicted_flow_limit = 0;
    // NIC offload tier (DESIGN.md §13): slots programmed / invalidated by
    // the placement policy (datapath-internal evictions on megaflow removal
    // are not counted here), plus restart-reconciliation verdicts.
    uint64_t offload_installs = 0;
    uint64_t offload_evicts = 0;
    uint64_t offload_adopted = 0;   // restart: slot kept (owner survived)
    uint64_t offload_flushed = 0;   // restart: slot invalidated
    uint64_t tx_packets = 0;
    uint64_t tx_bytes = 0;
    // Overload / robustness accounting. Invariant (degradation on):
    //   upcalls_handled + upcalls_retried ==
    //       flow_setups + setup_dups + install_fails
    // (every processed attempt installs, hits a dup, or fails), and
    //   install_fails == upcalls_retried + retry_queue_depth()
    //                    + retry_abandoned
    // (every failure is either retried, still pending, or given up).
    uint64_t upcalls_handled = 0;   // fresh misses processed (not retries)
    uint64_t upcalls_dropped = 0;   // refused by the bounded fair queue
    uint64_t upcalls_retried = 0;   // retry attempts executed
    uint64_t retry_abandoned = 0;   // gave up: max attempts or queue full
    uint64_t install_fails = 0;     // dp install() returned failure
    uint64_t flow_limit_backoffs = 0;  // multiplicative limit reductions
    uint64_t reval_overruns = 0;    // pass blew max_revalidation_ns
    uint64_t reval_stalls = 0;      // injected stall skipped a pass
    uint64_t emc_degrade_engaged = 0;  // thrash detector activations
    // Tuple-space explosion defenses (DESIGN.md §14). Admission ledger:
    //   flow_adds_attempted == flow_adds_admitted + rules_rejected_mask_cap
    // (every parsed, in-range add is either admitted or rejected by the
    // mask cap; rejection happens before the rule is constructed, so a
    // rejected add leaves flow_count/tuple_count untouched).
    uint64_t flow_adds_attempted = 0;
    uint64_t flow_adds_admitted = 0;
    uint64_t rules_rejected_mask_cap = 0;
    uint64_t mask_explosion_engaged = 0;  // detector activations
    // Stateful pipeline (DESIGN.md §15).
    uint64_t ct_expired_idle = 0;      // conntrack idle-timeout expirations
    // Crash/restart lifecycle (DESIGN.md §9). Reconciliation verdicts:
    // adopted + repaired + reval_deleted_{idle,stale} deltas partition the
    // dump; quarantined counts post-check deletions. The upcall/install
    // equalities above additionally hold ACROSS a crash because crash()
    // folds its losses into upcalls_dropped / retry_abandoned.
    uint64_t userspace_crashes = 0;   // crash() transitions taken
    uint64_t flows_adopted = 0;       // reconcile: still-valid, kept as-is
    uint64_t flows_repaired = 0;      // reconcile: actions updated in place
    uint64_t flows_quarantined = 0;   // invariant checker deletions
    uint64_t reconcile_stalls = 0;    // injected kReconcileStall rounds
    uint64_t reconcile_blackout_cycles = 0;  // user cycles crash -> serving
  };
  const Counters& counters() const noexcept { return counters_; }

  struct PortStats {
    uint64_t tx_packets = 0;
    uint64_t tx_bytes = 0;
  };
  PortStats port_stats(uint32_t port) const {
    auto it = port_stats_.find(port);
    return it == port_stats_.end() ? PortStats{} : it->second;
  }

  CpuAccounting& cpu() noexcept { return cpu_; }
  const CpuAccounting& cpu() const noexcept { return cpu_; }

  // Plan-phase statistics of the most recent revalidation pass (examined /
  // re-translated / tag-skipped counts, modeled work and makespan cycles).
  const RevalPassStats& last_reval_pass() const noexcept {
    return last_pass_;
  }

  // Current (possibly dynamically reduced) datapath flow limit.
  size_t effective_flow_limit() const noexcept { return effective_limit_; }
  // AIMD multiplier on the dynamic flow limit (1.0 = no backoff active).
  double flow_limit_scale() const noexcept { return limit_scale_; }
  // True while the EMC thrash detector holds probabilistic insertion on.
  bool emc_degraded() const noexcept { return emc_degraded_.on; }
  // True while the tuple-explosion detector holds the AIMD backoff engaged
  // (recovery suspended; one backoff per interval the signal persists).
  bool mask_explosion_active() const noexcept { return mask_explosion_.on; }
  // Userspace classifier shape (DESIGN.md §14): subtables maintained summed
  // across tables, and the per-lookup probe bound of the worst table.
  size_t cls_subtables() const noexcept;
  size_t cls_max_probe_depth() const noexcept;

  size_t upcall_queue_depth() const noexcept { return queue_.depth(); }
  size_t retry_queue_depth() const noexcept { return retry_q_.size(); }
  // Installed flows carrying captured attribution (their FlowRecord holds
  // a translation's rule list); crash() clears every record, reconciliation
  // re-captures one per adopted flow.
  size_t attribution_count() const;
  const FairUpcallQueue& upcall_queue() const noexcept { return queue_; }

  // Slow-path service received per ingress port (the fairness metric).
  struct PortUpcallStats {
    uint64_t handled = 0;   // upcalls processed from this port
    uint64_t installs = 0;  // flow setups credited to this port
  };
  PortUpcallStats port_upcall_stats(uint32_t port) const {
    auto it = port_upcall_stats_.find(port);
    return it == port_upcall_stats_.end() ? PortUpcallStats{} : it->second;
  }

 private:
  enum class InstallResult : uint8_t { kInstalled, kDup, kFailed };

  // The engage/hysteresis state machine shared by the two overload
  // detectors (EMC thrash, tuple explosion). Once per
  // maintenance interval each detector reduces its own signal to `hot` (at
  // its engage threshold) and `cool` (below half of it) and acts on the
  // step; an engaged valve that is neither hot nor cool holds (kIdle).
  struct Valve {
    enum class Step : uint8_t { kIdle, kEngage, kPersist, kRelease };
    bool on = false;

    Step step(bool hot, bool cool) noexcept {
      if (!on) {
        on = hot;
        return hot ? Step::kEngage : Step::kIdle;
      }
      if (cool) {
        on = false;
        return Step::kRelease;
      }
      return hot ? Step::kPersist : Step::kIdle;
    }
  };

  void execute_actions(const DpActions& actions, const Packet& pkt);
  void execute_actions_batch(std::span<const Packet> pkts,
                             const Datapath::RxResult* rx);
  // Installs xr's megaflow. A fresh flow takes xr's actions and
  // attribution by move, so `*forward` then points at the flow's actions;
  // on a duplicate or a failure xr keeps them and `*forward` points there.
  InstallResult install_from_xlate(XlateResult& xr, const Packet& pkt,
                                   uint64_t now_ns,
                                   const DpActions** forward = nullptr);
  // Translates and installs the stage of `pkt` an upcall brought up (`key`,
  // its key at that stage) and counts the upcall; returns the stage's
  // actions (the new flow's, or the translation's).
  const DpActions* serve_stage(const Packet& pkt, const FlowKey& key,
                               uint64_t now_ns);
  // Serves one upcall: `key` at `depth` recirculations of `pkt`, with
  // `fate` its earlier stages composed. Every further recirculation runs
  // and every miss it meets is served before this returns; then the
  // packet is traced and forwarded with its whole fate.
  void serve_upcall(const Packet& pkt, FlowKey key, unsigned depth,
                    DpActions& fate, uint64_t now_ns);
  // Counts the pending recirculation upcalls as dropped (nobody serves
  // them across a crash).
  void drop_recirc_upcalls();
  // Frees the frozen states no live flow of `flows` names.
  void retain_named_recirc_ids(const std::vector<Datapath::FlowRef>& flows);
  void schedule_retry(const Packet& pkt, uint64_t now_ns, uint32_t attempts);
  size_t process_retries(uint64_t now_ns);
  void maybe_inject_entry_faults();
  void apply_limit_backoff();
  void update_emc_policy();
  // Admission control (DESIGN.md §14): charges the add to the ledger and
  // answers whether it may proceed; refresh rebuilds the per-tenant mask
  // fingerprints when a table mutation invalidated them.
  bool admit_flow(const Match& match);
  void refresh_tenant_masks();
  // Tuple-explosion detector, evaluated per maintenance interval.
  void update_cls_policy();
  void revalidate(uint64_t now_ns);
  // Offload placement (DESIGN.md §13): folds this dump interval's per-flow
  // packet deltas into the EWMAs, then programs/evicts slots. Runs inside
  // revalidate() after the apply phase and inside restart() reconciliation.
  void offload_placement(const std::vector<Datapath::FlowRef>& flows,
                         uint64_t now_ns);
  // Restart reconciliation for the offload table: slots whose owner
  // survived the ladder are adopted (their hit totals seed the EWMA so hot
  // hardware flows keep their slots); the rest are flushed.
  void offload_reconcile();

  // Per-megaflow attribution for OpenFlow flow statistics (§6) lives in
  // the flow's FlowRecord: captured at install, refreshed whenever the
  // entry is (re-)translated, and gone with the entry. push_flow_stats
  // credits the rules with the traffic since the last push.
  void push_flow_stats(Datapath::FlowRef f, uint64_t now_ns);
  // Stores a fresh translation's tags and (when it changed) rule list in
  // the record.
  void refresh_attribution(Datapath::FlowRef f, const RevalDecision& d);
  // Reconciliation variant: seeds the pushed counters at the flow's current
  // datapath totals, so traffic forwarded before/through the blackout is
  // not re-credited to the rebuilt OpenFlow rules (their stats restart
  // from zero; only post-adoption deltas flow).
  void adopt_attribution(Datapath::FlowRef f, const RevalDecision& d);

  struct RetryEntry {
    Packet pkt;
    uint64_t not_before = 0;  // earliest retry time (exponential backoff)
    uint32_t attempts = 0;    // retry attempts already executed
  };

  SwitchConfig cfg_;
  Pipeline pipeline_;
  Datapath dp_;
  OutputFn output_;
  ControllerFn controller_hook_;
  TraceFn trace_;
  Counters counters_;
  std::unordered_map<uint32_t, PortStats> port_stats_;
  CpuAccounting cpu_;
  std::vector<Datapath::RxResult> results_;  // inject_batch scratch
  // execute_actions_batch scratch: one entry per distinct non-rewriting
  // action list in the burst, with its tx totals.
  struct TxGroup {
    const DpActions* actions;
    uint64_t pkts;
    uint64_t bytes;
  };
  std::vector<TxGroup> tx_groups_;
  // Slow-path scratch, reused so steady-state upcalls and revalidation
  // passes allocate nothing (DESIGN.md §16): the upcall batch, the
  // translation scratch of upcalls and retries, and the revalidation plan
  // with its per-partition translation scratch.
  std::vector<Packet> upcall_batch_;
  std::vector<RecircUpcall> recirc_batch_;
  DpActions fate_;  // a queued upcall's composed fate
  std::vector<uint32_t> live_recirc_ids_;
  XlateScratch xlate_;
  RevalPlan reval_plan_;
  RevalPassStats last_pass_;
  size_t effective_limit_;
  uint64_t pipeline_gen_at_last_reval_ = 0;
  // Per-source generations at the last pass: the kTwoTier tag fast path is
  // only sound for MAC-driven staleness (tags track MAC bindings, nothing
  // tracks rules or ports), so it engages only while the tables and ports
  // generations are unchanged.
  uint64_t tables_gen_at_last_reval_ = 0;
  uint64_t ports_gen_at_last_reval_ = 0;

  // Crash/restart lifecycle (DESIGN.md §9).
  LifecycleState state_ = LifecycleState::kServing;
  std::vector<uint32_t> saved_ports_;      // durable config snapshot
  std::vector<std::string> saved_flows_;   // (taken at crash time)

  FairUpcallQueue queue_;
  std::deque<RetryEntry> retry_q_;
  std::unordered_map<uint32_t, PortUpcallStats> port_upcall_stats_;
  FaultInjector* fault_ = nullptr;  // == cfg_.fault
  double limit_scale_ = 1.0;        // AIMD multiplier on the flow limit
  // Entry faults bypass the pipeline generation, so the next revalidation
  // must re-translate everything to repair them.
  bool reval_force_full_ = false;
  Valve emc_degraded_;
  uint64_t emc_attempts_seen_ = 0;  // insert attempts at last policy check
  uint64_t emc_hits_seen_ = 0;      // microflow hits at last policy check

  // Tuple-explosion detector state (DESIGN.md §14).
  Valve mask_explosion_;
  double probe_ewma_ = 0.0;         // smoothed megaflow probes per packet
  uint64_t dp_tuples_seen_ = 0;     // tuples_searched at last policy check
  uint64_t dp_packets_seen_ = 0;    // packets at last policy check
  // Per-tenant distinct-mask fingerprints backing the admission cap,
  // rebuilt lazily whenever the tables generation moved (deletes and
  // expiry free cap; the rebuild costs one table scan per mutation burst).
  std::unordered_map<uint64_t, std::unordered_set<uint64_t>> tenant_masks_;
  uint64_t tenant_masks_gen_ = 0;
  bool tenant_masks_valid_ = false;
};

}  // namespace ovs
