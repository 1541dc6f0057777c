#include "sim/fleet.h"

#include <algorithm>
#include <cmath>

#include "ctrl/control_plane.h"
#include "sim/clock.h"
#include "util/fault.h"
#include "util/stats.h"
#include "vswitchd/switch.h"
#include "workload/explosion.h"
#include "workload/skew.h"
#include "workload/table_gen.h"

namespace ovs {

namespace {

struct Connection {
  size_t src_vm = 0;
  size_t dst_vm = 0;
  uint16_t sport = 0;
  uint16_t dport = 0;
  uint8_t proto = ipproto::kTcp;
};

class HypervisorSim {
 public:
  HypervisorSim(const FleetConfig& fleet, Rng& master, bool outlier,
                bool stormy, bool exploded, bool faulted, bool crashed)
      : fleet_(fleet), rng_(master.next()), outlier_(outlier),
        stormy_(stormy), exploded_(exploded), faulted_(faulted),
        crashed_(crashed) {
    SwitchConfig cfg;
    cfg.classifier.icmp_port_trie_bug = outlier;
    cfg.rx_batch = fleet.rx_batch;
    cfg.degradation.enabled = fleet.degradation;
    cfg.datapath_workers = fleet.datapath_workers;
    cfg.revalidator_threads = fleet.revalidator_threads;
    cfg.offload_slots = fleet.offload_slots;
    ConnTrackerConfig& ct = cfg.datapath.conntrack;
    ct.max_entries = fleet.ct_max_entries;
    ct.max_per_zone = fleet.ct_max_per_zone;
    ct.idle_timeout_ns = fleet.ct_idle_timeout_ns;
    ct.fair_eviction = fleet.ct_fair_eviction;
    // Tuple-explosion defenses (DESIGN.md §14) apply fleet-wide — a defense
    // an operator deploys everywhere, not just where the attack lands. The
    // zero/false defaults leave the config untouched.
    cfg.classifier.tenant_partition = fleet.explosion_partition;
    cfg.max_masks_per_tenant = fleet.explosion_mask_cap;
    cfg.degradation.mask_explosion_subtables = fleet.explosion_detect_subtables;
    cfg.degradation.mask_probe_ewma_threshold =
        fleet.explosion_detect_probe_ewma;
    if (faulted_ || crashed_) {
      // The injector starts disarmed; run_interval arms it only inside the
      // rack's fault window. Seeded per hypervisor so fault *timing* varies
      // within the rack while the schedule itself is rack-correlated.
      fault_ = std::make_unique<FaultInjector>(fleet.fault_seed ^
                                               rng_.next());
      cfg.fault = fault_.get();
    }
    sw_ = std::make_unique<Switch>(cfg);

    NvpConfig nvp;
    nvp.n_tenants = 4;
    nvp.vms_per_tenant = 4;
    nvp.acl_tenant_fraction = outlier ? 1.0 : 0.5;
    nvp.stateful_acl_tenants = true;
    nvp.seed = rng_.next();
    topo_ = install_nvp_pipeline(*sw_, nvp);
    if (outlier_) {
      // The §7.1 outlier recipe: ICMP-matching ACL flows that poison the
      // port tries when the bug is present.
      for (uint64_t t = 1; t <= nvp.n_tenants; ++t)
        sw_->table(2).add_flow(
            MatchBuilder().metadata(t).icmp().icmp_type(3).icmp_code(4), 30,
            OfActions::drop());
    }

    double pps = rng_.lognormal(fleet.pps_log_mean, fleet.pps_log_sigma);
    double conns =
        rng_.lognormal(fleet.conns_log_mean, fleet.conns_log_sigma);
    if (outlier_) {
      pps *= fleet.outlier_pps_factor;
      conns *= fleet.outlier_conns_factor;
    }
    base_pps_ = std::clamp(pps, 50.0, 120000.0);
    n_conns_ = static_cast<size_t>(std::clamp(conns, 4.0, 40000.0));
    churn_ = outlier_ ? fleet.outlier_churn : fleet.churn_per_second;

    conns_.reserve(n_conns_);
    for (size_t i = 0; i < n_conns_; ++i) conns_.push_back(new_connection());
    skew_ = std::make_unique<SkewSampler>(n_conns_, fleet.zipf_s);
  }

  FleetInterval run_interval(size_t hv, size_t idx) {
    const bool storm_on = stormy_ && idx >= fleet_.storm_first_interval &&
                          idx <= fleet_.storm_last_interval;
    const bool explosion_on = exploded_ &&
                              idx >= fleet_.explosion_first_interval &&
                              idx <= fleet_.explosion_last_interval;
    if (explosion_on && attack_rules_.empty()) {
      // Window start: the attacker tenant submits its whole rule budget
      // through the admission-controlled path; whatever the cap rejects
      // never exists. Rules land in the per-tenant ACL stage (table 2).
      arng_ = Rng(rng_.next());
      ExplosionConfig ec;
      ec.tenant = 1;
      ec.n_rules = fleet_.explosion_rules;
      ec.seed = arng_.next();
      attack_rules_ = make_explosion_rules(ec);
      for (const Match& m : attack_rules_)
        (void)sw_->add_flow(/*table=*/2, m, ec.priority, OfActions::drop());
      attack_vms_ = topo_.tenant_vms(1);
    }
    const bool fault_on = faulted_ && idx >= fleet_.fault_first_interval &&
                          idx <= fleet_.fault_last_interval;
    if (fault_ != nullptr) {
      fault_->disarm_all();  // re-arm below from this interval's schedules
      if (fault_on) {
        fault_->set_probability(FaultPoint::kInstallTransient,
                                fleet_.fault_install_fail_prob);
        fault_->set_probability(FaultPoint::kUpcallDrop,
                                fleet_.fault_upcall_drop_prob);
      }
      if (crashed_ && idx == fleet_.crash_interval) {
        // One crash exactly: window anchored at the occurrence count this
        // interval starts with, so the first maintenance tick takes it and
        // later ticks (and later intervals) see a spent window.
        const uint64_t occ = fault_->occurrences(FaultPoint::kUserspaceCrash);
        fault_->arm_window(FaultPoint::kUserspaceCrash, occ, occ + 1);
      }
      if (crashed_ && idx >= fleet_.crash_interval)
        fault_->set_probability(FaultPoint::kReconcileStall,
                                fleet_.crash_stall_prob);
    }
    const double mult = rng_.lognormal(0, fleet_.interval_sigma);
    double pps = std::clamp(base_pps_ * mult, 20.0, 150000.0);
    if (storm_on) pps = std::min(pps * fleet_.storm_pps_factor, 150000.0);
    const double seconds = fleet_.sim_seconds_per_interval;
    const double churn_rate = storm_on ? fleet_.storm_churn : churn_;

    const auto dp0 = sw_->backend().stats();
    const uint64_t crashes0 = sw_->counters().userspace_crashes;
    const uint64_t blackout0 = sw_->counters().reconcile_blackout_cycles;
    const uint64_t dropped0 = sw_->counters().upcalls_dropped;
    const uint64_t fails0 = sw_->counters().install_fails;
    const double user0 = sw_->cpu().user_cycles;
    const double kern0 = sw_->cpu().kernel_cycles;

    auto next_packet = [&]() {
      return explosion_on && rng_.chance(fleet_.explosion_pps_fraction)
                 ? attack_packet()
                 : pick_packet();
    };
    const auto whole_seconds = static_cast<size_t>(std::ceil(seconds));
    for (size_t s = 0; s < whole_seconds; ++s) {
      const double frac =
          std::min(1.0, seconds - static_cast<double>(s));
      churn_connections(frac * churn_rate);
      const auto npkts = static_cast<size_t>(pps * frac);
      const uint64_t step_ns = static_cast<uint64_t>(
          1e9 * frac / std::max<size_t>(npkts, 1));
      if (fleet_.rx_batch > 1) {
        // PMD-style: gather traffic into bursts and run the batched fast
        // path; upcalls are handled at burst boundaries.
        std::vector<Packet> burst;
        burst.reserve(fleet_.rx_batch);
        for (size_t i = 0; i < npkts; ++i) {
          burst.push_back(next_packet());
          clock_.advance(step_ns);
          if (burst.size() == fleet_.rx_batch) {
            sw_->inject_batch(burst, clock_.now());
            burst.clear();
            sw_->handle_upcalls(clock_.now());
          }
        }
        if (!burst.empty()) sw_->inject_batch(burst, clock_.now());
      } else {
        for (size_t i = 0; i < npkts; ++i) {
          sw_->inject(next_packet(), clock_.now());
          clock_.advance(step_ns);
          if ((i & 63) == 63) sw_->handle_upcalls(clock_.now());
        }
      }
      sw_->handle_upcalls(clock_.now());
      sw_->run_maintenance(clock_.now());
      // Housekeeping: stats polling over the flow table + daemon overhead.
      sw_->cpu().user_cycles +=
          frac * (fleet_.daemon_fixed_cycles_per_sec +
                  fleet_.stats_poll_cycles_per_flow *
                      static_cast<double>(sw_->backend().flow_count()));
      flow_samples_.add(static_cast<double>(sw_->backend().flow_count()));
    }

    // Periodic background invariant self-check (DESIGN.md §9): sweep the
    // datapath at the interval boundary and quarantine any violators.
    if (fleet_.self_check) sw_->self_check();

    const auto dp1 = sw_->backend().stats();
    // Charge the end-to-end userspace cost of the interval's flow setups
    // (see FleetConfig::flow_setup_user_cycles) before reading CPU deltas.
    sw_->cpu().user_cycles += fleet_.flow_setup_user_cycles *
                              static_cast<double>(dp1.misses - dp0.misses);
    const uint64_t pkts = dp1.packets - dp0.packets;
    const uint64_t hits = (dp1.offload_hits - dp0.offload_hits) +
                          (dp1.microflow_hits - dp0.microflow_hits) +
                          (dp1.megaflow_hits - dp0.megaflow_hits);
    const uint64_t misses = dp1.misses - dp0.misses;

    FleetInterval out;
    out.hypervisor = hv;
    out.interval = idx;
    out.outlier = outlier_;
    out.stormy = storm_on;
    out.exploded = explosion_on;
    out.faulted = fault_on;
    // An interval is "crashed" if the daemon died in it, reconciliation
    // charged blackout in it, or it ends still not serving.
    out.crashed = sw_->counters().userspace_crashes != crashes0 ||
                  sw_->counters().reconcile_blackout_cycles != blackout0 ||
                  sw_->lifecycle() != LifecycleState::kServing;
    out.quarantined = sw_->counters().flows_quarantined;
    out.offered_pps = pps;
    out.install_fails = sw_->counters().install_fails - fails0;
    out.drop_pps =
        static_cast<double>(sw_->counters().upcalls_dropped - dropped0) /
        seconds;
    out.flow_limit_backoffs = sw_->counters().flow_limit_backoffs;
    out.hit_rate = pkts == 0 ? 1.0
                             : static_cast<double>(hits) /
                                   static_cast<double>(pkts);
    out.hit_pps = static_cast<double>(hits) / seconds;
    out.miss_pps = static_cast<double>(misses) / seconds;
    const CostModel& m = sw_->config().cost;
    out.user_cpu_pct =
        100.0 * m.seconds(sw_->cpu().user_cycles - user0) / seconds;
    out.kernel_cpu_pct =
        100.0 * m.seconds(sw_->cpu().kernel_cycles - kern0) / seconds;
    out.flows = sw_->backend().flow_count();
    out.dp_masks = sw_->backend().mask_count();
    out.rules_rejected = sw_->counters().rules_rejected_mask_cap;
    return out;
  }

  Switch& sw() { return *sw_; }

  FleetHypervisor summary() const {
    FleetHypervisor h;
    h.outlier = outlier_;
    h.flows_min = flow_samples_.min();
    h.flows_mean = flow_samples_.mean();
    h.flows_max = flow_samples_.max();
    return h;
  }

 private:
  Connection new_connection() {
    Connection c;
    c.src_vm = rng_.uniform(topo_.vms.size());
    // Destination within the same tenant.
    const uint64_t tenant = topo_.vms[c.src_vm].tenant;
    for (int tries = 0; tries < 16; ++tries) {
      c.dst_vm = rng_.uniform(topo_.vms.size());
      if (c.dst_vm != c.src_vm && topo_.vms[c.dst_vm].tenant == tenant)
        break;
    }
    if (topo_.vms[c.dst_vm].tenant != tenant || c.dst_vm == c.src_vm)
      c.dst_vm = c.src_vm;  // degenerate but harmless
    c.sport = static_cast<uint16_t>(rng_.range(32768, 60999));
    static constexpr uint16_t kServices[] = {80, 443, 22, 3306, 8080, 53};
    c.dport = kServices[rng_.uniform(6)];
    c.proto = rng_.chance(0.96) ? ipproto::kTcp : ipproto::kUdp;
    return c;
  }

  // `rate` is the fraction of the connection table replaced (may exceed 1
  // during a storm: every connection replaced more than once).
  void churn_connections(double rate) {
    const auto n = static_cast<size_t>(
        rate * static_cast<double>(conns_.size()));
    for (size_t i = 0; i < n; ++i)
      conns_[rng_.uniform(conns_.size())] = new_connection();
  }

  // One attacker packet: legitimately NVP-addressed within tenant 1 (so the
  // logical pipeline carries it to the ACL stage holding the attack rules),
  // then stamped with a random attack rule's targeting — fresh megaflow
  // with the rule's fine mask on nearly every packet.
  Packet attack_packet() {
    const NvpVm& a = *attack_vms_[arng_.uniform(attack_vms_.size())];
    const NvpVm& b = *attack_vms_[arng_.uniform(attack_vms_.size())];
    Packet p = nvp_packet(a, b, 0, 0);
    return explosion_stamp(attack_rules_[arng_.uniform(attack_rules_.size())],
                           p, arng_);
  }

  Packet pick_packet() {
    const Connection& c = conns_[skew_->sample(rng_)];
    const NvpVm& a = topo_.vms[c.src_vm];
    const NvpVm& b = topo_.vms[c.dst_vm];
    const bool fwd = rng_.chance(0.55);
    Packet p = fwd ? nvp_packet(a, b, c.sport, c.dport, c.proto)
                   : nvp_packet(b, a, c.dport, c.sport, c.proto);
    return p;
  }

  const FleetConfig& fleet_;
  Rng rng_;
  bool outlier_;
  bool stormy_ = false;
  bool exploded_ = false;  // hosts the attacking tenant
  bool faulted_ = false;
  bool crashed_ = false;  // on this hypervisor's rack crash schedule
  std::unique_ptr<FaultInjector> fault_;  // created only for faulted racks
  std::unique_ptr<Switch> sw_;
  NvpTopology topo_;
  std::unique_ptr<SkewSampler> skew_;
  std::vector<Connection> conns_;
  size_t n_conns_ = 0;
  double base_pps_ = 0;
  double churn_ = 0;
  VirtualClock clock_;
  Distribution flow_samples_;
  // Tuple-explosion attack state, populated at the window start.
  std::vector<Match> attack_rules_;
  std::vector<const NvpVm*> attack_vms_;
  Rng arng_{0};
};

}  // namespace

FleetResults run_fleet(const FleetConfig& cfg) {
  FleetResults results;
  Rng master(cfg.seed);
  // Deterministic outlier count (at least one when the fraction is
  // non-zero), so the Figure 7 upper-right corner is always populated.
  const size_t n_outliers =
      cfg.outlier_fraction <= 0
          ? 0
          : std::max<size_t>(
                1, static_cast<size_t>(cfg.outlier_fraction *
                                       static_cast<double>(
                                           cfg.n_hypervisors)));
  const size_t n_stormy =
      cfg.storm_fraction <= 0
          ? 0
          : std::max<size_t>(
                1, static_cast<size_t>(cfg.storm_fraction *
                                       static_cast<double>(
                                           cfg.n_hypervisors)));
  // Exploded hypervisors sit immediately below the storm band (disjoint
  // from storms at the very top and outliers at the very bottom).
  const size_t n_exploded =
      cfg.explosion_fraction <= 0
          ? 0
          : std::max<size_t>(
                1, static_cast<size_t>(cfg.explosion_fraction *
                                       static_cast<double>(
                                           cfg.n_hypervisors)));
  // Faulted racks come from the middle of the rack range, keeping them
  // disjoint from outliers (bottom of the id range) and storms (top).
  const size_t rack_size = std::max<size_t>(1, cfg.rack_size);
  const size_t n_racks = (cfg.n_hypervisors + rack_size - 1) / rack_size;
  const size_t n_fault_racks =
      cfg.fault_rack_fraction <= 0
          ? 0
          : std::max<size_t>(
                1, static_cast<size_t>(cfg.fault_rack_fraction *
                                       static_cast<double>(n_racks)));
  const size_t first_fault_rack = (n_racks - std::min(n_fault_racks,
                                                      n_racks)) / 2;
  // Crashed racks sit immediately left of the faulted band (disjoint from
  // it, and from outliers/storms at the id-range extremes in any fleet
  // large enough to hold all four populations).
  const size_t n_crash_racks =
      cfg.crash_rack_fraction <= 0
          ? 0
          : std::max<size_t>(
                1, static_cast<size_t>(cfg.crash_rack_fraction *
                                       static_cast<double>(n_racks)));
  const size_t first_crash_rack =
      first_fault_rack >= n_crash_racks ? first_fault_rack - n_crash_racks
                                        : 0;
  std::vector<bool> hv_faulted(cfg.n_hypervisors, false);

  if (!cfg.control_plane) {
    for (size_t hv = 0; hv < cfg.n_hypervisors; ++hv) {
      const bool outlier = hv < n_outliers;
      // Stormed hypervisors are drawn from the top of the id range so the
      // outlier and storm populations stay disjoint in small fleets.
      const bool stormy = hv >= cfg.n_hypervisors - n_stormy;
      const bool exploded = !stormy &&
                            hv >= cfg.n_hypervisors - n_stormy - n_exploded;
      const size_t rack = hv / rack_size;
      const bool faulted = rack >= first_fault_rack &&
                           rack < first_fault_rack + n_fault_racks;
      const bool crashed = rack >= first_crash_rack &&
                           rack < first_crash_rack + n_crash_racks;
      HypervisorSim sim(cfg, master, outlier, stormy, exploded, faulted,
                        crashed);
      for (size_t i = 0; i < cfg.n_intervals; ++i)
        results.intervals.push_back(sim.run_interval(hv, i));
      results.hypervisors.push_back(sim.summary());
    }
    return results;
  }

  // Control-plane mode (DESIGN.md §12): all hypervisors live at once and
  // the intervals run in lockstep, interleaved with the control plane's own
  // virtual time. Sims are constructed in the same order as the legacy loop
  // so every per-hypervisor Rng seed (drawn from `master`) is identical.
  std::vector<std::unique_ptr<HypervisorSim>> sims;
  sims.reserve(cfg.n_hypervisors);
  for (size_t hv = 0; hv < cfg.n_hypervisors; ++hv) {
    const bool outlier = hv < n_outliers;
    const bool stormy = hv >= cfg.n_hypervisors - n_stormy;
    const bool exploded = !stormy &&
                          hv >= cfg.n_hypervisors - n_stormy - n_exploded;
    const size_t rack = hv / rack_size;
    const bool faulted = rack >= first_fault_rack &&
                         rack < first_fault_rack + n_fault_racks;
    const bool crashed = rack >= first_crash_rack &&
                         rack < first_crash_rack + n_crash_racks;
    hv_faulted[hv] = faulted;
    sims.push_back(std::make_unique<HypervisorSim>(
        cfg, master, outlier, stormy, exploded, faulted, crashed));
  }

  std::vector<Switch*> switches;
  switches.reserve(sims.size());
  for (auto& s : sims) switches.push_back(&s->sw());

  // Rack-correlated wire injectors: one per faulted hypervisor, armed only
  // inside the fault window below. Each doubles as the agent's conn-reset
  // stream and the transport's per-link stream.
  std::vector<std::unique_ptr<FaultInjector>> wire_faults(cfg.n_hypervisors);
  ControlPlaneConfig cpc;
  cpc.seed = cfg.ctrl_seed;
  cpc.n_controllers = 1 + cfg.standby_controllers;
  cpc.agent_faults.assign(cfg.n_hypervisors, nullptr);
  for (size_t hv = 0; hv < cfg.n_hypervisors; ++hv) {
    if (!hv_faulted[hv]) continue;
    wire_faults[hv] =
        std::make_unique<FaultInjector>(cfg.fault_seed * 0x51ED + hv);
    wire_faults[hv]->disarm_all();
    cpc.agent_faults[hv] = wire_faults[hv].get();
  }

  ControlPlane cp(switches, cpc);
  cp.start(0);

  FleetControlStats& cs = results.control;

  // Baseline policy: a fleet-wide ACL rule (a port the tenant workload
  // never uses, so forwarding outcomes are identical to legacy mode), so
  // hellos, resyncs and prunes all have real content from interval 0.
  const std::vector<FlowModPayload> baseline = {
      {FlowModPayload::Op::kAdd,
       "table=2, priority=6, tcp, tp_dst=4444, actions=drop"}};
  const std::vector<FlowModPayload> change = {
      {FlowModPayload::Op::kDelete, "table=2, tcp, tp_dst=4444"},
      {FlowModPayload::Op::kAdd,
       "table=2, priority=6, tcp, tp_dst=4445, actions=drop"}};

  uint64_t epoch = cp.push_policy(baseline);
  ++cs.policy_pushes;
  uint64_t push_time = cp.now();
  (void)cp.run_until_converged(epoch, cp.now() + 30 * kSecond);

  std::vector<FlowModPayload> pending = baseline;
  const auto interval_ns = static_cast<uint64_t>(
      cfg.sim_seconds_per_interval * static_cast<double>(kSecond));

  results.intervals.resize(cfg.n_hypervisors * cfg.n_intervals);
  for (size_t i = 0; i < cfg.n_intervals; ++i) {
    const bool fault_on = i >= cfg.fault_first_interval &&
                          i <= cfg.fault_last_interval;
    for (size_t hv = 0; hv < cfg.n_hypervisors; ++hv) {
      if (wire_faults[hv] == nullptr) continue;
      wire_faults[hv]->disarm_all();
      if (!fault_on) continue;
      wire_faults[hv]->set_probability(FaultPoint::kCtrlMsgDrop,
                                       cfg.ctrl_msg_drop_prob);
      wire_faults[hv]->set_probability(FaultPoint::kCtrlMsgDelay,
                                       cfg.ctrl_msg_delay_prob);
      wire_faults[hv]->set_probability(FaultPoint::kCtrlMsgDuplicate,
                                       cfg.ctrl_msg_dup_prob);
      wire_faults[hv]->set_probability(FaultPoint::kCtrlConnReset,
                                       cfg.ctrl_conn_reset_prob);
    }
    if (i == cfg.policy_change_interval) {
      const uint64_t e = cp.push_policy(change);
      if (e != 0) {
        epoch = e;
        pending = change;
        push_time = cp.now();
        ++cs.policy_pushes;
      }
    }
    // Kill AFTER a same-interval push: the juicy case is a master dying
    // mid-fan-out, holding an epoch it never replicated.
    if (i == cfg.controller_crash_interval) {
      cp.kill_active();
      ++cs.controller_crashes;
    }
    cp.run_until(cp.now() + interval_ns);
    for (size_t hv = 0; hv < cfg.n_hypervisors; ++hv)
      results.intervals[hv * cfg.n_intervals + i] =
          sims[hv]->run_interval(hv, i);
  }

  // Drain: let failover finish, then re-issue the change if it died with
  // the old master (the management layer retries intent until certified).
  cp.run_until(cp.now() + 2 * kSecond);
  Controller* act = cp.active_controller();
  if (act != nullptr && act->policy_epoch() < epoch) {
    epoch = cp.push_policy(pending);
    push_time = cp.now();
    ++cs.policy_repushes;
  }
  const uint64_t done = cp.run_until_converged(epoch, cp.now() + 30 * kSecond);
  cs.final_converged = done != UINT64_MAX;
  if (cs.final_converged && done > push_time)
    cs.convergence_ns = done - push_time;

  for (size_t hv = 0; hv < cfg.n_hypervisors; ++hv)
    results.hypervisors.push_back(sims[hv]->summary());

  const CtrlAgent::Stats as = cp.agent_stat_totals();
  cs.flow_mods_applied = as.flow_mods_applied;
  cs.dups_ignored = as.dups_ignored;
  cs.stale_gen_fenced = as.stale_gen_fenced;
  cs.rules_pruned = as.rules_pruned;
  cs.syncs_completed = as.syncs_completed;
  cs.standalone_entries = as.standalone_entries;
  CtrlChannel::Stats ch = cp.agent_channel_totals();
  for (size_t j = 0; j < cp.n_controllers(); ++j) {
    const CtrlChannel::Stats cc = cp.controller(j).channel_totals();
    ch.retransmits += cc.retransmits;
    ch.resets += cc.resets;
  }
  cs.retransmits = ch.retransmits;
  cs.conn_resets = ch.resets + ch.peer_resets;
  cs.wire_dropped = cp.net().stats().dropped;
  cs.wire_delayed = cp.net().stats().delayed;
  cs.wire_duplicated = cp.net().stats().duplicated;
  cs.gossip_rounds = cp.discovery().round();
  cs.gossip_messages = cp.discovery().gossip_sent();
  act = cp.active_controller();
  if (act != nullptr && act->role_generation() > 0)
    cs.takeovers = act->role_generation() - 1;
  return results;
}

}  // namespace ovs
