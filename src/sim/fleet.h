// Fleet simulator: reproduces the production study of §7.1 (24 hours of
// statistics from >1,000 hypervisors in a multi-tenant data center).
//
// Substitution (see DESIGN.md): we cannot observe Rackspace's fleet, so each
// simulated hypervisor runs the real Switch with an NVP-style pipeline and a
// tenant workload whose load parameters are drawn from heavy-tailed
// (log-normal) distributions. Each 10-minute measurement interval is
// compressed to a short contiguous window of representative traffic; rates
// are reported per second of simulated traffic, so the figures' axes mean
// the same thing as the paper's.
//
// A small fraction of hypervisors are "outliers": their classifier carries
// the ICMP/port-trie bug of §7.1 and their tenants all have L4 + ICMP ACLs,
// reproducing the upper-right corner of Figure 7.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace ovs {

struct FleetConfig {
  size_t n_hypervisors = 200;
  size_t n_intervals = 12;            // measurement intervals per hypervisor
  double sim_seconds_per_interval = 1.0;
  uint64_t seed = 42;

  // Heavy-tailed per-hypervisor load (log-normal parameters).
  // Receive burst size per hypervisor switch. 1 = per-packet injection;
  // >1 gathers traffic into bursts and drives Switch::inject_batch (the
  // PMD-style fast path with the amortized cost model).
  size_t rx_batch = 1;

  double pps_log_mean = 7.6;      // exp(7.6) ~ 2000 pps median
  double pps_log_sigma = 1.6;     // 99th pct ~ 80 kpps (Figure 6)
  double conns_log_mean = 4.8;    // exp(4.8) ~ 120 active connections
  double conns_log_sigma = 1.3;   // 99th pct of max flows ~ few thousand
  double interval_sigma = 0.5;    // per-interval load wobble
  double churn_per_second = 0.35; // fraction of connections replaced / s
  // Per-tenant connection popularity skew (SkewSampler exponent; 0 =
  // uniform). The historical fleet default is a mild Zipf.
  double zipf_s = 1.02;

  // Outliers (§7.1: six hypervisors with the prefix-tracking ICMP bug).
  double outlier_fraction = 0.008;
  double outlier_pps_factor = 10.0;
  double outlier_conns_factor = 30.0;
  double outlier_churn = 0.8;

  // Connection-churn storms: a fraction of hypervisors host a tenant that
  // goes adversarial for a window of intervals (a port scan / SYN flood —
  // every packet a fresh connection, no reuse). Exercises the bounded
  // upcall queue and the degradation policies under fleet-realistic load;
  // `degradation` toggles those policies for ablation.
  double storm_fraction = 0.0;       // hypervisors stormed (0 = off)
  size_t storm_first_interval = 0;   // storm window [first, last], inclusive
  size_t storm_last_interval = 0;
  double storm_pps_factor = 8.0;     // offered-load multiplier while stormed
  double storm_churn = 3.0;          // connection replacement rate while stormed
  bool degradation = true;           // Switch degradation policies on/off

  // Tuple-space explosion attacks (DESIGN.md §14, workload/explosion.h): a
  // fraction of hypervisors host a tenant that installs a budget of
  // pairwise-incomparable-mask rules at the window start (through admission
  // control) and aims high-entropy traffic at them, exploding the kernel
  // mask list that every other tenant's packets must probe. Attacked
  // hypervisors are drawn immediately below the storm band, keeping all
  // five populations (outliers, storms, explosions, faults, crashes)
  // disjoint. The defense knobs below apply fleet-wide; all zero/false
  // keeps every hypervisor bit-for-bit the pre-explosion switch.
  double explosion_fraction = 0.0;      // hypervisors attacked (0 = off)
  size_t explosion_first_interval = 0;  // attack window [first, last]
  size_t explosion_last_interval = 0;
  size_t explosion_rules = 512;         // attacker rule budget
  double explosion_pps_fraction = 0.5;  // attacker share of offered pps
  size_t explosion_mask_cap = 0;        // SwitchConfig::max_masks_per_tenant
  bool explosion_partition = false;     // ClassifierConfig::tenant_partition
  size_t explosion_detect_subtables = 0;  // detector mask-count trigger
  double explosion_detect_probe_ewma = 0.0;  // detector probe-EWMA trigger

  // Multi-worker hypervisors: each Switch's datapath runs this many worker
  // shards (0/1 = one) and this many revalidator plan threads (§4.3).
  size_t datapath_workers = 0;
  size_t revalidator_threads = 1;

  // Simulated NIC offload tier (DESIGN.md §13): per-hypervisor offload
  // table capacity; 0 leaves the tier off (bit-for-bit legacy behavior).
  size_t offload_slots = 0;

  // Bounded conntrack (DESIGN.md §15), applied fleet-wide like the other
  // defenses: connection-table caps, idle expiry, and the ct-pressure
  // degradation trigger. The NVP pipeline's stateful ACL tenants exercise
  // the table on every hypervisor. All-zero defaults reproduce the
  // unbounded no-expiry tracker bit-for-bit.
  size_t ct_max_entries = 0;
  size_t ct_max_per_zone = 0;
  uint64_t ct_idle_timeout_ns = 0;
  bool ct_fair_eviction = true;
  double ct_pressure_ratio = 0.0;

  // Per-hypervisor fault schedules, correlated at rack granularity: every
  // hypervisor in a faulted rack sees the same install-failure / upcall-drop
  // window (a ToR reboot or kernel regression rolling through one rack).
  // Faulted racks are drawn from the middle of the rack range so they stay
  // disjoint from outliers (bottom of the id range) and storms (top).
  size_t rack_size = 16;             // hypervisors per rack (id / rack_size)
  double fault_rack_fraction = 0.0;  // fraction of racks faulted (0 = off)
  size_t fault_first_interval = 0;   // fault window [first, last], inclusive
  size_t fault_last_interval = 0;
  double fault_install_fail_prob = 0.0;  // transient install failure prob
  double fault_upcall_drop_prob = 0.0;   // lost-upcall prob while faulted
  uint64_t fault_seed = 7;

  // Crash schedules (DESIGN.md §9), also rack-correlated: every hypervisor
  // in a crashed rack loses its vswitchd at `crash_interval` (a bad daemon
  // rollout hitting one rack at a time) and reconciles on the next
  // maintenance tick while the datapath keeps serving its cache. Crashed
  // racks sit immediately left of the faulted band so all four populations
  // (outliers, storms, faults, crashes) stay disjoint.
  double crash_rack_fraction = 0.0;  // fraction of racks crashed (0 = off)
  size_t crash_interval = 0;         // interval whose maintenance tick crashes
  double crash_stall_prob = 0.0;     // kReconcileStall prob during recovery
  // Run the megaflow invariant self-check at every interval boundary and
  // quarantine violators (periodic background self-check; the
  // post-reconciliation gate inside Switch::restart() runs regardless).
  bool self_check = false;

  // Distributed control plane (DESIGN.md §12). When enabled the fleet runs
  // interval-lockstep: every hypervisor's switch gets a control-plane agent
  // connected over the lossy in-memory wire to one active controller plus
  // standbys, with gossip discovery driving failover. A baseline policy is
  // fanned out (and certified by barriers) before interval 0; optional
  // events below exercise convergence under rack-correlated wire faults and
  // a controller crash. The legacy per-hypervisor mode is bit-for-bit
  // unchanged when this is off. Control-plane virtual time is its own
  // clock, decoupled from the per-hypervisor traffic clocks (documented
  // substitution: we interleave per interval, not per packet).
  bool control_plane = false;
  size_t standby_controllers = 1;
  uint64_t ctrl_seed = 99;
  // Wire fault probabilities armed on faulted racks' links during the fault
  // window [fault_first_interval, fault_last_interval] (rack-correlated,
  // like the install/upcall faults above).
  double ctrl_msg_drop_prob = 0.0;
  double ctrl_msg_delay_prob = 0.0;
  double ctrl_msg_dup_prob = 0.0;
  double ctrl_conn_reset_prob = 0.0;
  // Interval at whose start the active controller fans out a fleet-wide
  // policy change (SIZE_MAX = never).
  size_t policy_change_interval = SIZE_MAX;
  // Interval at whose start the active controller is killed (SIZE_MAX =
  // never). If it dies holding an un-replicated policy epoch, the
  // management layer re-issues the change through the standby that takes
  // over, and agents roll back the partial epoch during resync.
  size_t controller_crash_interval = SIZE_MAX;

  // Userspace housekeeping charged per simulated second (stats polling once
  // per second, §6, plus fixed daemon overhead).
  double daemon_fixed_cycles_per_sec = 2.5e7;
  double stats_poll_cycles_per_flow = 1500;
  // End-to-end userspace CPU per flow setup (handler wakeup, batching
  // inefficiency at low rates, revalidator churn). Calibrated to Figure 7's
  // observed slope (~5% of a core at ~100 misses/s, >100% near 10k).
  double flow_setup_user_cycles = 4e5;
};

struct FleetInterval {
  size_t hypervisor = 0;
  size_t interval = 0;
  bool outlier = false;
  bool stormy = false;       // adversarial churn active this interval
  bool exploded = false;     // tuple-explosion attack active this interval
  bool faulted = false;      // rack fault schedule active this interval
  bool crashed = false;      // userspace crash/reconcile touched this interval
  double offered_pps = 0;
  double hit_rate = 0;       // (offload + EMC + megaflow hits) / packets
  double hit_pps = 0;
  double miss_pps = 0;       // flow setups entering userspace per second
  double drop_pps = 0;       // upcalls refused by the bounded queue / s
  double user_cpu_pct = 0;   // ovs-vswitchd equivalent, % of one core
  double kernel_cpu_pct = 0;
  uint64_t flows = 0;        // datapath flow count at interval end
  uint64_t dp_masks = 0;     // kernel mask-list length at interval end
  uint64_t rules_rejected = 0;       // cumulative mask-cap rejections
  uint64_t flow_limit_backoffs = 0;  // cumulative AIMD reductions
  uint64_t install_fails = 0;        // failed cache installs this interval
  uint64_t quarantined = 0;          // flows removed by self-check (cumulative)
};

struct FleetHypervisor {
  bool outlier = false;
  double flows_min = 0;
  double flows_mean = 0;
  double flows_max = 0;
};

// Control-plane outcome of a fleet run (all zero when control_plane=false).
struct FleetControlStats {
  uint64_t policy_pushes = 0;
  uint64_t policy_repushes = 0;  // re-issued after dying with a master
  bool final_converged = false;  // last pushed epoch certified fleet-wide
  uint64_t convergence_ns = 0;   // virtual ns from last (re)push to converged
  uint64_t controller_crashes = 0;
  uint64_t takeovers = 0;        // final master's fencing generation - 1
  uint64_t flow_mods_applied = 0;
  uint64_t dups_ignored = 0;     // idempotent redeliveries fenced by xid
  uint64_t stale_gen_fenced = 0;
  uint64_t rules_pruned = 0;     // partial-epoch rollbacks at sync barriers
  uint64_t syncs_completed = 0;
  uint64_t standalone_entries = 0;
  uint64_t retransmits = 0;      // both directions, all channels
  uint64_t conn_resets = 0;
  uint64_t wire_dropped = 0;
  uint64_t wire_delayed = 0;
  uint64_t wire_duplicated = 0;
  uint64_t gossip_rounds = 0;
  uint64_t gossip_messages = 0;
};

struct FleetResults {
  std::vector<FleetInterval> intervals;
  std::vector<FleetHypervisor> hypervisors;
  FleetControlStats control;
};

FleetResults run_fleet(const FleetConfig& cfg);

}  // namespace ovs
