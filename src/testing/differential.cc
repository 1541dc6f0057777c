#include "testing/differential.h"

#include <algorithm>
#include <deque>
#include <fstream>
#include <span>
#include <sstream>
#include <unordered_map>

#include "util/fault.h"

namespace ovs::fuzz {

SwitchConfig DiffConfig::to_switch_config() const {
  SwitchConfig c;
  c.datapath_workers = datapath_workers;
  c.rx_batch = rx_batch;
  c.reval_mode = reval_mode;
  c.revalidator_threads = revalidator_threads;
  c.classifier.tenant_partition = tenant_partition;
  c.offload_slots = offload_slots;
  // Bounded conntrack, tiny on purpose: the generated pool holds 24
  // connections against 16 global / 12 per-zone slots and an 8s idle
  // timeout, so every replay exercises LRU eviction, zone caps and expiry —
  // the state transitions the oracle must mirror exactly.
  c.datapath.conntrack.max_entries = 16;
  c.datapath.conntrack.max_per_zone = 12;
  c.datapath.conntrack.idle_timeout_ns = 8 * kSecond;
  c.datapath.ct_state_on_recirc = ct_state_on_recirc;
  return c;
}

std::vector<DiffConfig> standard_configs() {
  std::vector<DiffConfig> out;
  for (size_t workers : {size_t{0}, size_t{4}}) {
    for (size_t rx : {size_t{1}, size_t{8}}) {
      for (RevalidationMode m :
           {RevalidationMode::kFull, RevalidationMode::kTwoTier}) {
        DiffConfig c;
        c.name = std::string(workers == 0 ? "single" : "sharded") +
                 (rx == 1 ? "/per-pkt" : "/batched") +
                 (m == RevalidationMode::kFull ? "/full" : "/two-tier");
        c.datapath_workers = workers;
        c.rx_batch = rx;
        c.reval_mode = m;
        out.push_back(std::move(c));
      }
    }
  }
  // Offload-on points, one per worker count: a small table (16 slots) keeps
  // placement churning (install/evict/challenge) even in short scenarios,
  // which is where a stale or dangling slot would show up as a trace or
  // probe divergence against the cache-free oracle.
  for (size_t workers : {size_t{0}, size_t{4}}) {
    DiffConfig c;
    c.name = std::string(workers == 0 ? "single" : "sharded") +
             "/batched/two-tier/offload";
    c.datapath_workers = workers;
    c.rx_batch = 8;
    c.offload_slots = 16;
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<DiffConfig> engine_configs() {
  // The tenant-partitioned classifier (DESIGN.md §14): partitioning must be
  // semantics-preserving against the flat oracle.
  DiffConfig c;
  c.name = "partitioned";
  c.tenant_partition = true;
  return {c};
}

DiffConfig tags_ablation_config() {
  DiffConfig c;
  c.name = "single/per-pkt/TAGS-ABLATION";
  c.reval_mode = RevalidationMode::kTags;
  return c;
}

DiffConfig ct_ablation_config() {
  DiffConfig c;
  c.name = "single/per-pkt/CT-ABLATION";
  c.ct_state_on_recirc = false;
  return c;
}

std::string Divergence::to_string() const {
  return "[" + config + "] " + kind + " @event " +
         std::to_string(event_index) + ": " + detail;
}

namespace {

// Packet <-> trace correlation ids ride in Packet::size_bytes (the only
// per-packet field the action path carries through unchanged). Scenario
// packets use kEventIdBase + event_index; end-of-run probes use
// kProbeIdBase + probe_index. The bases keep both ranges disjoint and
// recognizable.
constexpr uint32_t kEventIdBase = 64;
constexpr uint32_t kProbeIdBase = 1u << 20;

std::string join(const std::vector<std::string>& v) {
  std::string s;
  for (const std::string& x : v) {
    if (!s.empty()) s += " | ";
    s += x;
  }
  return s.empty() ? "<none>" : s;
}

}  // namespace

std::optional<Divergence> DifferentialRunner::run(const Scenario& sc,
                                                  const DiffConfig& cfg) {
  FaultInjector fi(sc.seed ^ 0xD1FF);
  SwitchConfig swc = cfg.to_switch_config();
  swc.fault = &fi;
  Switch sw(swc);
  // The oracle runs the identical bounded ConnTracker configuration, so
  // mirroring the switch's ct actions reproduces eviction and expiry
  // exactly.
  // The oracle's classifier is always flat, so a partitioned replay checks
  // the partitioning end to end against unpartitioned tables.
  ClassifierConfig oracle_cls = swc.classifier;
  oracle_cls.tenant_partition = false;
  OracleSwitch oracle(swc.n_tables, oracle_cls, swc.datapath.conntrack);
  ReplayClock clock(opts_.quanta);

  // id -> every action trace the switch emitted for that packet.
  std::unordered_map<uint32_t, std::vector<std::string>> traces;
  sw.set_trace_hook(
      [&traces](const Packet& p, const DpActions& a, Datapath::Path) {
        traces[p.size_bytes].push_back(a.to_string());
      });

  struct Pending {
    uint32_t id;
    size_t event_index;
    bool lossy;  // in the shadow of a fault window or crash: unchecked
    // Oracle epochs at inject time, or, for a packet that reached ct, when
    // its first ct ran.
    std::vector<std::string> acceptable;
  };
  std::deque<Pending> pending;  // stable: `in_flight` points into it
  std::vector<Packet> burst;
  std::vector<size_t> burst_events;
  std::vector<FuzzEvent> deferred;  // mutations arriving while not serving
  bool lossy_now = false;
  std::optional<Divergence> div;

  const size_t burst_max = std::max<size_t>(1, swc.rx_batch);
  auto serving = [&] { return sw.lifecycle() == LifecycleState::kServing; };
  auto fail = [&](std::string kind, std::string detail, size_t idx) {
    if (!div)
      div = Divergence{cfg.name, std::move(kind), std::move(detail), idx};
  };

  // Conntrack mirror. Every ct action the switch's datapath runs is run on
  // the oracle's tracker too, in the switch's order and at its timestamp,
  // and must reach the same verdict. A packet's fate depends on the table
  // as its ct found it, so the first ct of each of its traversals (its
  // first-stage ct, recirc_id 0) re-evaluates its acceptable set right
  // before the mirror applies the action: the first replaces the
  // inject-time set, and a duplicated upcall's second traversal, which
  // meets the table the first one left, adds to it.
  struct InFlight {
    FlowKey key;  // as injected
    size_t event_index;
    std::vector<std::string>* acceptable;
    bool ct_seen = false;
  };
  std::unordered_map<uint32_t, InFlight> in_flight;
  auto acceptable_now = [&](const FlowKey& key, uint64_t now) {
    std::vector<std::string> out;
    for (DpActions& a : oracle.acceptable(key, now))
      out.push_back(a.to_string());
    return out;
  };
  sw.backend().set_ct_observer([&](const Packet& p, const FlowKey& key,
                                   const CtAction& ct,
                                   const ConnTracker::Verdict& v,
                                   uint64_t now) {
    size_t idx = sc.events.size();
    auto it = in_flight.find(p.size_bytes);
    if (it != in_flight.end()) idx = it->second.event_index;
    if (it != in_flight.end() && key.recirc_id() == 0) {
      std::vector<std::string> fates = acceptable_now(it->second.key, now);
      std::vector<std::string>& acc = *it->second.acceptable;
      if (!it->second.ct_seen) acc.clear();
      it->second.ct_seen = true;
      acc.insert(acc.end(), fates.begin(), fates.end());
    }
    const ConnTracker::Verdict mine = oracle.ct_execute(key, ct, now);
    if (!(mine == v))
      fail("conntrack",
           "ct on " + key.to_string() + " gave state " +
               std::to_string(v.state) + ", the oracle's tracker " +
               std::to_string(mine.state),
           idx);
  });

  auto drain = [&] {
    if (!serving()) return;
    for (size_t i = 0; i < opts_.drain_rounds; ++i)
      sw.handle_upcalls(clock.now());
  };

  auto flush = [&] {
    if (burst.empty()) return;
    const uint64_t now = clock.step_event();
    for (size_t i = 0; i < burst.size(); ++i) {
      Pending& p = pending.emplace_back();
      p.id = burst[i].size_bytes;
      p.event_index = burst_events[i];
      p.lossy = lossy_now || !serving();
      p.acceptable = acceptable_now(burst[i].key, now);
      in_flight[p.id] = {burst[i].key, p.event_index, &p.acceptable};
    }
    if (swc.rx_batch > 1) {
      sw.inject_batch(std::span<const Packet>(burst.data(), burst.size()),
                      now);
    } else {
      for (const Packet& pk : burst) sw.inject(pk, now);
    }
    drain();
    burst.clear();
    burst_events.clear();
  };

  // Mutations apply to switch and oracle in lockstep; parse outcomes must
  // agree (same parser underneath, so a mismatch is a harness bug worth
  // flagging loudly rather than ignoring).
  auto apply_mutation = [&](const FuzzEvent& ev, size_t idx) {
    std::string se, oe;
    switch (ev.kind) {
      case FuzzEvent::Kind::kAddFlow:
        se = sw.add_flow(ev.text, clock.now());
        oe = oracle.add_flow(ev.text);
        break;
      case FuzzEvent::Kind::kDelFlows:
        se = sw.del_flows(ev.text);
        oe = oracle.del_flows(ev.text);
        break;
      case FuzzEvent::Kind::kAddPort:
        sw.add_port(ev.port);
        oracle.add_port(ev.port);
        break;
      case FuzzEvent::Kind::kRemovePort:
        sw.remove_port(ev.port);
        oracle.remove_port(ev.port);
        break;
      case FuzzEvent::Kind::kCtCommit: {
        // Same timestamp on both sides, so LRU/expiry order matches.
        const uint64_t now = clock.now();
        if (ev.ct_nat) {
          CtNatSpec nat;
          nat.src = ev.ct_nat_src;
          nat.addr = ev.ct_nat_addr;
          nat.port = ev.ct_nat_port;
          sw.ct_commit_nat(ev.pkt.key, nat, ev.ct_zone, now);
          oracle.ct_commit_nat(ev.pkt.key, nat, ev.ct_zone, now);
        } else {
          sw.ct_commit(ev.pkt.key, ev.ct_zone, now);
          oracle.ct_commit(ev.pkt.key, ev.ct_zone, now);
        }
        break;
      }
      case FuzzEvent::Kind::kCtRemove:
        sw.ct_remove(ev.pkt.key, ev.ct_zone);
        oracle.ct_remove(ev.pkt.key, ev.ct_zone);
        break;
      default:
        break;
    }
    if (se != oe)
      fail("mutation",
           "switch='" + se + "' oracle='" + oe + "' for: " + ev.text, idx);
  };

  // One maintenance tick. Collapses the oracle's epoch set when the switch
  // proves no stale cache entry can survive: a completed restart (forced
  // full reconcile) or a revalidation pass that ran without an injected
  // stall. Returns true for the latter kind of clean pass.
  auto tick = [&](size_t idx) {
    const uint64_t now = clock.step_tick();
    const bool was_serving = serving();
    const Switch::Counters before = sw.counters();
    sw.run_maintenance(now);
    const Switch::Counters& after = sw.counters();
    // Mirror the switch's conntrack maintenance exactly: idle expiry runs
    // only on a round that entered AND left serving (a fault-injected
    // kUserspaceCrash returns before expire_idle). The connection table is
    // datapath state and survives a crash on both sides.
    if (was_serving && serving()) oracle.ct_tick(now);
    bool clean = false;
    if (serving()) {
      if (!was_serving) {
        oracle.collapse();
        for (const FuzzEvent& ev : deferred) apply_mutation(ev, idx);
        deferred.clear();
      } else if (after.reval_runs > before.reval_runs &&
                 after.reval_stalls == before.reval_stalls) {
        oracle.collapse();
        clean = true;
      }
    }
    drain();
    return clean;
  };

  // --- Replay --------------------------------------------------------------
  for (size_t i = 0; i < sc.events.size() && !div; ++i) {
    const FuzzEvent& ev = sc.events[i];
    switch (ev.kind) {
      case FuzzEvent::Kind::kPacket: {
        Packet p = ev.pkt;
        p.size_bytes = kEventIdBase + static_cast<uint32_t>(i);
        burst.push_back(p);
        burst_events.push_back(i);
        if (burst.size() >= burst_max) flush();
        break;
      }
      case FuzzEvent::Kind::kAddFlow:
      case FuzzEvent::Kind::kDelFlows:
      case FuzzEvent::Kind::kAddPort:
      case FuzzEvent::Kind::kRemovePort:
      case FuzzEvent::Kind::kCtCommit:
      case FuzzEvent::Kind::kCtRemove:
        flush();
        // While crashed/reconciling the daemon's tables are about to be
        // rebuilt from the crash-time snapshot; mutations land once it is
        // serving again (the controller retries against a dead daemon).
        if (serving())
          apply_mutation(ev, i);
        else
          deferred.push_back(ev);
        break;
      case FuzzEvent::Kind::kRevalTick:
        flush();
        tick(i);
        break;
      case FuzzEvent::Kind::kAdvanceTime:
        flush();
        clock.advance(ev.dt_ns);
        break;
      case FuzzEvent::Kind::kFaultWindow: {
        flush();
        lossy_now = true;
        const uint64_t occ = fi.occurrences(ev.fault);
        fi.arm_window(ev.fault, occ, occ + ev.fault_count);
        break;
      }
      case FuzzEvent::Kind::kCrash:
        flush();
        lossy_now = true;
        sw.crash();
        break;
    }
  }
  flush();

  // --- Convergence ---------------------------------------------------------
  // Tick maintenance until the switch is serving with a clean revalidation
  // pass, all deferred mutations landed, the oracle is down to one epoch,
  // and every slow-path queue is empty.
  bool converged = false;
  for (size_t t = 0; t < opts_.max_converge_ticks && !div; ++t) {
    const bool clean = tick(sc.events.size());
    if (clean && deferred.empty() && oracle.epoch_count() == 1 &&
        sw.retry_queue_depth() == 0 && sw.upcall_queue_depth() == 0) {
      converged = true;
      break;
    }
  }
  if (!div && !converged)
    fail("converge",
         "not converged after " + std::to_string(opts_.max_converge_ticks) +
             " ticks: lifecycle=" +
             std::to_string(static_cast<int>(sw.lifecycle())) +
             " epochs=" + std::to_string(oracle.epoch_count()) +
             " retry_q=" + std::to_string(sw.retry_queue_depth()) +
             " upcall_q=" + std::to_string(sw.upcall_queue_depth()),
         sc.events.size());

  // --- End-of-run probes ---------------------------------------------------
  // Every distinct flow key the scenario carried, against the converged
  // switch: this is where lazily-surviving stale cache entries (the kTags
  // ablation's failure mode) have nowhere left to hide.
  if (!div) {
    std::vector<FlowKey> keys;
    for (const FuzzEvent& ev : sc.events) {
      if (ev.kind != FuzzEvent::Kind::kPacket) continue;
      bool dup = false;
      for (const FlowKey& k : keys)
        if (static_cast<const FlowWords&>(k) ==
            static_cast<const FlowWords&>(ev.pkt.key)) {
          dup = true;
          break;
        }
      if (!dup) keys.push_back(ev.pkt.key);
    }
    // Fault windows can outlive the scenario (an armed occurrence range not
    // yet consumed), so probes are exactly-once only without them; crashes
    // fully converge and stay strict.
    const bool strict = !sc.has_fault_windows();
    for (size_t i = 0; i < keys.size() && !div; ++i) {
      Packet probe;
      probe.key = keys[i];
      probe.size_bytes = kProbeIdBase + static_cast<uint32_t>(i);
      const uint64_t now = clock.step_event();
      std::vector<std::string> expects = {
          oracle.current(probe.key, now).to_string()};
      in_flight[probe.size_bytes] = {probe.key, sc.events.size(), &expects};
      sw.inject(probe, now);
      drain();
      in_flight.erase(probe.size_bytes);
      const std::vector<std::string>& recs = traces[probe.size_bytes];
      if (strict && recs.size() != 1) {
        fail("probe",
             "probe " + std::to_string(i) + " produced " +
                 std::to_string(recs.size()) + " traces (want 1), expect=" +
                 join(expects),
             sc.events.size());
      } else {
        for (const std::string& got : recs)
          if (std::find(expects.begin(), expects.end(), got) ==
              expects.end()) {
            fail("probe",
                 "probe " + std::to_string(i) + " got '" + got +
                     "' expected '" + join(expects) + "'",
                 sc.events.size());
            break;
          }
      }
    }
  }

  // --- Per-packet trace audit ----------------------------------------------
  if (!div) {
    for (const Pending& p : pending) {
      auto it = traces.find(p.id);
      const size_t n = it == traces.end() ? 0 : it->second.size();
      if (p.lossy) continue;  // drops/dups/redelivery all legal here
      if (n != 1) {
        fail("trace",
             "packet produced " + std::to_string(n) +
                 " traces (want exactly 1); acceptable: " +
                 join(p.acceptable),
             p.event_index);
        break;
      }
      const std::string& got = it->second[0];
      if (std::find(p.acceptable.begin(), p.acceptable.end(), got) ==
          p.acceptable.end()) {
        fail("trace",
             "got '" + got + "', acceptable: " + join(p.acceptable),
             p.event_index);
        break;
      }
    }
  }

  // Orphan traces: ids we never issued. Cannot happen unless the id plumb
  // itself breaks — checked so a harness bug fails loudly.
  if (!div) {
    for (const auto& [id, recs] : traces) {
      const bool known =
          (id >= kProbeIdBase) ||
          (id >= kEventIdBase && id < kEventIdBase + sc.events.size());
      if (!known) {
        fail("orphan",
             "trace for unknown id " + std::to_string(id) + ": " +
                 join(recs),
             0);
        break;
      }
    }
  }

  // --- Ledgers + megaflow invariants ---------------------------------------
  if (!div) {
    const Switch::Counters& c = sw.counters();
    if (c.upcalls_handled + c.upcalls_retried !=
        c.flow_setups + c.setup_dups + c.install_fails)
      fail("ledger",
           "handled+retried != setups+dups+fails: " +
               std::to_string(c.upcalls_handled) + "+" +
               std::to_string(c.upcalls_retried) + " vs " +
               std::to_string(c.flow_setups) + "+" +
               std::to_string(c.setup_dups) + "+" +
               std::to_string(c.install_fails),
           sc.events.size());
    else if (c.install_fails != c.upcalls_retried + sw.retry_queue_depth() +
                                    c.retry_abandoned)
      fail("ledger",
           "fails != retried+pending+abandoned: " +
               std::to_string(c.install_fails) + " vs " +
               std::to_string(c.upcalls_retried) + "+" +
               std::to_string(sw.retry_queue_depth()) + "+" +
               std::to_string(c.retry_abandoned),
           sc.events.size());
  }
  if (!div) {
    DpCheckReport rep = sw.self_check();
    if (!rep.ok())
      fail("self_check",
           "megaflow invariant violations: " +
               std::to_string(rep.violations()) +
               (rep.details.empty() ? std::string()
                                    : " (" + rep.details.front() + ")"),
           sc.events.size());
  }
  return div;
}

std::vector<Divergence> DifferentialRunner::run_all(
    const Scenario& sc, const std::vector<DiffConfig>& cfgs) {
  std::vector<Divergence> out;
  for (const DiffConfig& cfg : cfgs)
    if (std::optional<Divergence> d = run(sc, cfg)) out.push_back(*d);
  return out;
}

Scenario DifferentialRunner::shrink(const Scenario& sc,
                                    const DiffConfig& cfg) {
  if (!run(sc, cfg)) return sc;  // nothing to minimize
  std::vector<FuzzEvent> events = sc.events;
  size_t chunk = std::max<size_t>(1, events.size() / 2);
  // ddmin by chunk removal: every FuzzEvent is a total operation, so any
  // subsequence is a valid scenario and plain removal is sound.
  while (true) {
    bool removed = false;
    size_t start = 0;
    while (start < events.size()) {
      const size_t len = std::min(chunk, events.size() - start);
      std::vector<FuzzEvent> cand;
      cand.reserve(events.size() - len);
      cand.insert(cand.end(), events.begin(),
                  events.begin() + static_cast<ptrdiff_t>(start));
      cand.insert(cand.end(),
                  events.begin() + static_cast<ptrdiff_t>(start + len),
                  events.end());
      Scenario trial{sc.seed, cand};
      if (run(trial, cfg)) {
        events = std::move(cand);  // still diverges: keep the cut,
        removed = true;            // retry the same position
      } else {
        start += len;
      }
    }
    if (chunk == 1) {
      if (!removed) break;  // a full single-event pass removed nothing
    } else {
      chunk = std::max<size_t>(1, chunk / 2);
    }
  }
  return Scenario{sc.seed, std::move(events)};
}

bool save_scenario(const std::string& path, const Scenario& sc,
                   const std::string& header_comment) {
  std::ofstream out(path);
  if (!out) return false;
  std::istringstream hdr(header_comment);
  std::string line;
  while (std::getline(hdr, line)) out << "# " << line << "\n";
  out << sc.serialize();
  return static_cast<bool>(out);
}

bool load_scenario(const std::string& path, Scenario* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  return Scenario::deserialize(ss.str(), out);
}

}  // namespace ovs::fuzz
