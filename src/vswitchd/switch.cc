#include "vswitchd/switch.h"

#include <algorithm>
#include <unordered_set>

#include "ofproto/flow_parser.h"
#include "util/fault.h"
#include "util/hash.h"

namespace ovs {

namespace {

// The switch-level offload knob and the datapath-level one are kept equal:
// setting either enables the tier, and config() tells one story.
SwitchConfig merge_offload(SwitchConfig cfg) {
  if (cfg.offload_slots > 0)
    cfg.datapath.offload_slots = cfg.offload_slots;
  else
    cfg.offload_slots = cfg.datapath.offload_slots;
  return cfg;
}

ConnTrackerConfig ct_config(const SwitchConfig& cfg) {
  ConnTrackerConfig c;
  c.max_entries = cfg.ct_max_entries;
  c.max_per_zone = cfg.ct_max_per_zone;
  c.idle_timeout_ns = cfg.ct_idle_timeout_ns;
  c.fair_eviction = cfg.ct_fair_eviction;
  return c;
}

}  // namespace

Switch::Switch(SwitchConfig cfg)
    : cfg_(merge_offload(std::move(cfg))),
      pipeline_(cfg_.n_tables, cfg_.classifier, ct_config(cfg_)),
      dp_(cfg_.datapath, cfg_.datapath_workers),
      effective_limit_(cfg_.flow_limit),
      queue_(cfg_.upcall_queue),
      fault_(cfg_.fault) {
  // Misses land in the bounded per-port fair queue at enqueue time; a
  // refusal here is counted by the datapath as an upcall drop (preserving
  // its misses == delivered + dropped conservation) and by the switch as
  // an upcalls_dropped (the queue's per-port counters say why). The sink
  // runs under the datapath's upcall lock, so concurrent worker flushes are
  // serialized before touching the queue.
  dp_.set_upcall_sink([this](Packet&& pkt) {
    // A crashed/reconciling daemon has no upcall listener: the kernel keeps
    // forwarding cached flows, but misses are refused until serving resumes
    // (the blackout a restart causes for NEW flows, DESIGN.md §9).
    if (state_ != LifecycleState::kServing) {
      ++counters_.upcalls_dropped;
      return false;
    }
    if (queue_.enqueue(std::move(pkt))) return true;
    ++counters_.upcalls_dropped;
    return false;
  });
  dp_.set_fault_injector(fault_);
}

void Switch::add_port(uint32_t port) { pipeline_.add_port(port); }
void Switch::remove_port(uint32_t port) { pipeline_.remove_port(port); }

std::string Switch::add_flow(const std::string& text, uint64_t now_ns) {
  FlowParseResult res = parse_flow(text);
  if (!res.ok) return res.error;
  if (res.flow.table >= pipeline_.n_tables())
    return "table " + std::to_string(res.flow.table) + " out of range";
  if (!admit_flow(res.flow.match))
    return "rejected: per-tenant mask cap reached";
  pipeline_.table(res.flow.table)
      .add_flow(res.flow.match, res.flow.priority, res.flow.actions,
                res.flow.cookie, res.flow.timeouts, now_ns);
  // The add we just admitted is the only mutation since the fingerprint
  // check, and admit_flow already recorded any new mask, so the cache stays
  // valid at the new generation.
  if (tenant_masks_valid_) tenant_masks_gen_ = pipeline_.tables_generation();
  return "";
}

std::string Switch::add_flow(size_t table, const Match& match,
                             int32_t priority, OfActions actions,
                             uint64_t now_ns) {
  if (table >= pipeline_.n_tables())
    return "table " + std::to_string(table) + " out of range";
  if (!admit_flow(match)) return "rejected: per-tenant mask cap reached";
  pipeline_.table(table).add_flow(match, priority, std::move(actions),
                                  /*cookie=*/0, /*timeouts=*/{}, now_ns);
  if (tenant_masks_valid_) tenant_masks_gen_ = pipeline_.tables_generation();
  return "";
}

void Switch::refresh_tenant_masks() {
  const uint64_t gen = pipeline_.tables_generation();
  if (tenant_masks_valid_ && gen == tenant_masks_gen_) return;
  tenant_masks_.clear();
  for (size_t t = 0; t < pipeline_.n_tables(); ++t) {
    pipeline_.table(t).for_each([this](const OfRule* r) {
      const Match& m = r->match();
      if (!m.mask.is_exact(FieldId::kMetadata)) return;
      tenant_masks_[m.key.get(FieldId::kMetadata)].insert(
          hash_words(m.mask.w.data(), kFlowWords));
    });
  }
  tenant_masks_gen_ = gen;
  tenant_masks_valid_ = true;
}

bool Switch::admit_flow(const Match& match) {
  ++counters_.flow_adds_attempted;
  // Only tenant-attributed rules (exact metadata match) are capped: the cap
  // defends tenants from each other, and rules without a tenant tag are the
  // operator's own (install_nvp_pipeline's ingress stage, say).
  if (cfg_.max_masks_per_tenant == 0 ||
      !match.mask.is_exact(FieldId::kMetadata)) {
    ++counters_.flow_adds_admitted;
    return true;
  }
  refresh_tenant_masks();
  const uint64_t tenant = match.key.get(FieldId::kMetadata);
  const uint64_t fp = hash_words(match.mask.w.data(), kFlowWords);
  auto& masks = tenant_masks_[tenant];
  // Reusing an installed mask is always admitted — that is what makes a
  // runtime cap reduction grandfather existing rules instead of wedging
  // every subsequent add from that tenant.
  if (masks.find(fp) == masks.end() &&
      masks.size() >= cfg_.max_masks_per_tenant) {
    ++counters_.rules_rejected_mask_cap;
    return false;
  }
  masks.insert(fp);
  ++counters_.flow_adds_admitted;
  return true;
}

std::string Switch::del_flows(const std::string& text, size_t* n_deleted) {
  const std::string spec =
      text.empty() ? "actions=drop" : text + ", actions=drop";
  FlowParseResult res = parse_flow(spec);
  if (!res.ok) return res.error;
  size_t n = 0;
  if (res.flow.has_table) {
    if (res.flow.table >= pipeline_.n_tables())
      return "table " + std::to_string(res.flow.table) + " out of range";
    n = pipeline_.table(res.flow.table).delete_where(res.flow.match);
  } else {
    for (size_t t = 0; t < pipeline_.n_tables(); ++t)
      n += pipeline_.table(t).delete_where(res.flow.match);
  }
  if (n_deleted != nullptr) *n_deleted = n;
  return "";
}

std::vector<std::string> Switch::dump_flows() const {
  std::vector<std::string> out;
  for (size_t t = 0; t < pipeline_.n_tables(); ++t) {
    pipeline_.table(t).for_each([&](const OfRule* r) {
      out.push_back(
          format_flow(t, r->priority(), r->match(), r->actions()));
    });
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Switch::execute_actions(const DpActions& actions, const Packet& pkt) {
  Packet out = pkt;
  for (const DpAction& a : actions.list) {
    if (const auto* o = std::get_if<OutputAction>(&a)) {
      ++counters_.tx_packets;
      counters_.tx_bytes += out.size_bytes;
      PortStats& ps = port_stats_[o->port];
      ++ps.tx_packets;
      ps.tx_bytes += out.size_bytes;
      if (output_) output_(o->port, out);
    } else if (const auto* sf = std::get_if<SetFieldAction>(&a)) {
      out.key.set(sf->field, sf->value);
    } else if (const auto* t = std::get_if<TunnelAction>(&a)) {
      out.key.set_tun_id(t->tun_id);
      ++counters_.tx_packets;
      counters_.tx_bytes += out.size_bytes;
      PortStats& ps = port_stats_[t->port];
      ++ps.tx_packets;
      ps.tx_bytes += out.size_bytes;
      if (output_) output_(t->port, out);
    } else if (std::get_if<UserspaceAction>(&a)) {
      ++counters_.to_controller;
      if (controller_hook_) controller_hook_(out);
    }
  }
}

// Grouped execution for a burst: packets sharing an action list (i.e. a
// megaflow) bump the tx counters once per group; the per-packet work that
// remains is the output callback and any header-rewriting action list,
// which must see each packet individually.
void Switch::execute_actions_batch(std::span<const Packet> pkts,
                                   const Datapath::RxResult* rx) {
  auto rewrites = [](const DpActions& a) {
    for (const DpAction& act : a.list)
      if (!std::holds_alternative<OutputAction>(act) &&
          !std::holds_alternative<UserspaceAction>(act))
        return true;
    return false;
  };

  // Bursts match a handful of megaflows; linear scan beats a hash map.
  std::vector<TxGroup>& groups = tx_groups_;
  groups.clear();

  for (size_t i = 0; i < pkts.size(); ++i) {
    const DpActions* a = rx[i].actions;
    if (a == nullptr) continue;
    if (rewrites(*a)) {
      // Set-field/tunnel lists mutate a per-packet copy; no grouping.
      execute_actions(*a, pkts[i]);
      continue;
    }
    TxGroup* g = nullptr;
    for (TxGroup& cand : groups) {
      if (cand.actions == a) {
        g = &cand;
        break;
      }
    }
    if (g == nullptr) {
      groups.push_back({a, 0, 0});
      g = &groups.back();
    }
    ++g->pkts;
    g->bytes += pkts[i].size_bytes;
    if (output_) {
      for (const DpAction& act : a->list)
        if (const auto* o = std::get_if<OutputAction>(&act))
          output_(o->port, pkts[i]);
    }
    if (controller_hook_) {
      for (const DpAction& act : a->list)
        if (std::holds_alternative<UserspaceAction>(act))
          controller_hook_(pkts[i]);
    }
  }

  for (const TxGroup& g : groups) {
    for (const DpAction& act : g.actions->list) {
      if (const auto* o = std::get_if<OutputAction>(&act)) {
        counters_.tx_packets += g.pkts;
        counters_.tx_bytes += g.bytes;
        PortStats& ps = port_stats_[o->port];
        ps.tx_packets += g.pkts;
        ps.tx_bytes += g.bytes;
      } else if (std::get_if<UserspaceAction>(&act)) {
        counters_.to_controller += g.pkts;
      }
    }
  }
}

size_t Switch::inject_batch(std::span<const Packet> pkts, uint64_t now_ns) {
  if (pkts.empty()) return 0;
  results_.resize(pkts.size());
  Datapath::BatchSummary sum;
  dp_.process_batch(pkts, now_ns, results_.data(), &sum);

  // Burst cost model: fixed dispatch overhead plus a reduced per-packet
  // cost; cache work is charged per *deduplicated* probe, which is where
  // batching actually saves kernel cycles.
  const CostModel& m = cfg_.cost;
  cpu_.kernel_cycles += m.batch_fixed +
                        m.per_packet_batched * sum.packets +
                        m.offload_probe * sum.offload_probes +
                        m.microflow_probe * sum.emc_probes +
                        m.per_tuple * sum.tuples_searched +
                        m.miss_kernel * sum.misses;

  if (trace_) {
    for (size_t i = 0; i < pkts.size(); ++i)
      if (results_[i].actions != nullptr)
        trace_(pkts[i], *results_[i].actions, results_[i].path);
  }
  execute_actions_batch(pkts, results_.data());
  return sum.misses;
}

Datapath::Path Switch::inject(const Packet& pkt, uint64_t now_ns) {
  const Datapath::RxResult rx = dp_.receive(pkt, now_ns);

  // Kernel-side cycle accounting. An offload hit never reaches the CPU
  // cache hierarchy: it pays the per-packet descriptor cost and the slot
  // probe, nothing else. The CPU paths additionally pay the (cheap) slot
  // probe whenever the tier is enabled — the NIC looked and missed.
  const CostModel& m = cfg_.cost;
  double cycles = m.per_packet;
  if (dp_.offload_enabled()) cycles += m.offload_probe;
  switch (rx.path) {
    case Datapath::Path::kOffloadHit:
      break;
    case Datapath::Path::kMicroflowHit:
      if (dp_.microflow_enabled()) cycles += m.microflow_probe;
      break;
    case Datapath::Path::kMegaflowHit:
      if (dp_.microflow_enabled()) cycles += m.microflow_probe;
      cycles += m.per_tuple * rx.tuples_searched;
      break;
    case Datapath::Path::kMiss:
      if (dp_.microflow_enabled()) cycles += m.microflow_probe;
      cycles += m.per_tuple * rx.tuples_searched + m.miss_kernel;
      break;
  }
  cpu_.kernel_cycles += cycles;

  if (rx.actions != nullptr) {
    if (trace_) trace_(pkt, *rx.actions, rx.path);
    execute_actions(*rx.actions, pkt);
  }
  return rx.path;
}

Switch::InstallResult Switch::install_from_xlate(XlateResult& xr,
                                                 const Packet& pkt,
                                                 uint64_t now_ns,
                                                 const DpActions** forward) {
  if (forward != nullptr) *forward = &xr.actions;
  Match match;
  if (cfg_.megaflows_enabled) {
    match = xr.megaflow;
  } else {
    // "Megaflows disabled" mode (§7.2, Table 1): cache exact-match
    // microflow entries, one per transport connection.
    for (size_t i = 0; i < kFlowWords; ++i) match.mask.w[i] = ~uint64_t{0};
    match.key = pkt.key;
  }
  const size_t before = dp_.flow_count();
  Datapath::FlowRef e =
      dp_.install(match, std::move(xr.actions), now_ns, &pkt.key);
  if (e == nullptr) {
    // Kernel refused the flow (table full, transient fault). The miss
    // packet was still forwarded by userspace; only the cache entry is
    // missing, so subsequent packets keep upcalling until a retry lands.
    ++counters_.install_fails;
    cpu_.user_cycles += cfg_.cost.install_fail;
    return InstallResult::kFailed;
  }
  InstallResult res;
  if (dp_.flow_count() > before) {
    ++counters_.flow_setups;
    // The new flow took the actions; the record takes the rest of the
    // same translation.
    FlowRecord& rec = dp_.flow_record(e);
    rec.tags = xr.tags;
    rec.ct_key = xr.ct_key;
    rec.ct_lookups = xr.ct_lookups;
    rec.rules = std::move(xr.matched_rules);
    rec.captured_gen = pipeline_.tables_generation();
    rec.captured = true;
    if (forward != nullptr) *forward = &dp_.flow_actions(e);
    res = InstallResult::kInstalled;
  } else {
    // A duplicate leaves the whole record — tags, attribution, ct
    // dependency — to the translation whose actions the entry carries.
    // This translation's tags need not match that one's: the masked key is
    // the same, but MAC learning or a conntrack change in between can steer
    // the same key down another path, so overwriting them could let the tag
    // fast path skip a flow whose actions depend on state the overwritten
    // tags no longer name.
    ++counters_.setup_dups;
    res = InstallResult::kDup;
  }
  // The miss packet is forwarded by userspace on the flow's behalf; it
  // counts toward the flow's statistics like any other packet.
  dp_.credit_packet(e, pkt, now_ns);
  return res;
}

void Switch::schedule_retry(const Packet& pkt, uint64_t now_ns,
                            uint32_t attempts) {
  const DegradationConfig& d = cfg_.degradation;
  if (!d.enabled) return;  // ablation: a failed install is simply lost
  if (attempts >= d.max_install_retries ||
      retry_q_.size() >= d.max_retry_queue) {
    ++counters_.retry_abandoned;
    return;
  }
  retry_q_.push_back(
      {pkt, now_ns + (d.retry_backoff_ns << attempts), attempts});
}

size_t Switch::process_retries(uint64_t now_ns) {
  if (retry_q_.empty()) return 0;
  const CostModel& m = cfg_.cost;
  size_t executed = 0;
  std::deque<RetryEntry> pending;
  while (!retry_q_.empty()) {
    RetryEntry r = std::move(retry_q_.front());
    retry_q_.pop_front();
    if (r.not_before > now_ns) {
      pending.push_back(std::move(r));
      continue;
    }
    ++counters_.upcalls_retried;
    ++executed;
    // side_effects=false: MAC learning etc. already ran when the upcall
    // was first handled; this pass only re-attempts the cache install.
    XlateResult& xr = pipeline_.translate(r.pkt.key, now_ns, xlate_,
                                          /*side_effects=*/false);
    cpu_.user_cycles +=
        m.upcall_requeue + m.per_table_lookup * xr.table_lookups;
    const InstallResult res = install_from_xlate(xr, r.pkt, now_ns);
    if (res == InstallResult::kInstalled) {
      ++port_upcall_stats_[r.pkt.key.in_port()].installs;
    } else if (res == InstallResult::kFailed) {
      schedule_retry(r.pkt, now_ns, r.attempts + 1);
    }
  }
  retry_q_ = std::move(pending);
  return executed;
}

void Switch::maybe_inject_entry_faults() {
  if (fault_ == nullptr) return;
  if (fault_->should_fire(FaultPoint::kEntryCorrupt) &&
      dp_.flow_count() > 0) {
    dp_.corrupt_entry(fault_->pick(dp_.flow_count()));
    // Corruption bypasses the pipeline generation: force the next
    // revalidation to re-translate everything so it repairs the entry.
    reval_force_full_ = true;
  }
  if (fault_->should_fire(FaultPoint::kEntryExpire) &&
      dp_.flow_count() > 0) {
    dp_.expire_entry(fault_->pick(dp_.flow_count()));
  }
}

size_t Switch::handle_upcalls(uint64_t now_ns, size_t max_upcalls) {
  // A dead daemon handles nothing; whatever the kernel tried to deliver
  // since the crash was already refused at the sink.
  if (state_ != LifecycleState::kServing) return 0;
  const CostModel& m = cfg_.cost;
  process_retries(now_ns);
  size_t handled = 0;
  while (handled < max_upcalls) {
    const size_t batch_size = std::min(
        cfg_.batching ? cfg_.upcall_batch : size_t{1}, max_upcalls - handled);
    std::vector<Packet>& batch = upcall_batch_;
    if (queue_.take(batch_size, &batch) == 0) break;
    // One kernel/user crossing per batch; batching amortizes it (§4.1).
    cpu_.user_cycles += m.upcall_syscall;
    // Each packet's translation, side effects, install and forwarding run
    // in arrival order, through the one reused translation scratch.
    // Installing between translations is invisible to them: installs touch
    // only the datapath.
    for (const Packet& pkt : batch) {
      XlateResult& xr = pipeline_.translate(pkt.key, now_ns, xlate_);
      cpu_.user_cycles +=
          m.upcall_fixed + m.per_table_lookup * xr.table_lookups;
      if (xr.error) ++counters_.xlate_errors;
      const DpActions* actions = nullptr;
      const InstallResult res = install_from_xlate(xr, pkt, now_ns, &actions);
      PortUpcallStats& ps = port_upcall_stats_[pkt.key.in_port()];
      ++ps.handled;
      if (res == InstallResult::kInstalled) ++ps.installs;
      if (res == InstallResult::kFailed) schedule_retry(pkt, now_ns, 0);
      // The queued packet itself is now forwarded, with this translation's
      // actions (held by the new flow when it installed).
      if (trace_) trace_(pkt, *actions, Datapath::Path::kMiss);
      execute_actions(*actions, pkt);
      ++handled;
      ++counters_.upcalls_handled;
    }
  }
  maybe_inject_entry_faults();
  // Delay-faulted upcalls surface into the fair queue now; they are
  // serviced on the next invocation (observably one round late).
  dp_.flush_delayed_upcalls();
  return handled;
}

void Switch::apply_limit_backoff() {
  limit_scale_ = std::max(limit_scale_ * cfg_.degradation.limit_backoff,
                          1.0 / 65536.0);
  ++counters_.flow_limit_backoffs;
}

void Switch::revalidate(uint64_t now_ns) {
  const CostModel& m = cfg_.cost;

  if (fault_ != nullptr &&
      fault_->should_fire(FaultPoint::kRevalidatorStall)) {
    // The pass blocks past its deadline without examining anything: charge
    // the wasted wall time and let the AIMD limit see a synthetic overrun
    // (a stalled revalidator must not be rewarded with a bigger table).
    cpu_.user_cycles +=
        2.0 * (static_cast<double>(cfg_.max_revalidation_ns) / 1e9) *
        (m.ghz * 1e9);
    ++counters_.reval_stalls;
    if (cfg_.degradation.enabled) apply_limit_backoff();
    return;
  }

  ++counters_.reval_runs;
  const size_t n_threads = std::max<size_t>(1, cfg_.revalidator_threads);

  // Dynamic flow limit (§6): "the actual maximum is dynamically adjusted to
  // ensure that total revalidation time stays under 1 second". N plan
  // threads cover N times the flows within the same deadline (§4.3). The
  // AIMD scale (degradation policy) shrinks it further after overruns.
  if (cfg_.dynamic_flow_limit) {
    const double reval_capacity =
        (static_cast<double>(cfg_.max_revalidation_ns) / 1e9) *
        (m.ghz * 1e9) / m.reval_per_flow *
        static_cast<double>(n_threads);
    effective_limit_ = std::min(cfg_.flow_limit,
                                static_cast<size_t>(reval_capacity));
  } else {
    effective_limit_ = cfg_.flow_limit;
  }
  if (cfg_.degradation.enabled && limit_scale_ < 1.0) {
    // Scale down, but never below limit_floor (or below the unscaled limit
    // itself when that is already under the floor).
    const size_t floor =
        std::min(effective_limit_, cfg_.degradation.limit_floor);
    effective_limit_ = std::max(
        floor, static_cast<size_t>(static_cast<double>(effective_limit_) *
                                   limit_scale_));
  }

  const bool over_limit = dp_.flow_count() > effective_limit_;
  // Above the maximum size, drop the idle time to force the table to
  // shrink (§6).
  const uint64_t idle_ns =
      over_limit ? cfg_.overflow_idle_timeout_ns : cfg_.idle_timeout_ns;

  const uint64_t gen = pipeline_.generation();
  const uint64_t tables_gen = pipeline_.tables_generation();
  const uint64_t ports_gen = pipeline_.ports_generation();
  // ct_state feeds classification, so conntrack mutations are a dirtiness
  // source of their own. Gated by ct_reval_dirty: the ablation the
  // differential fuzzer must catch serves stale ct_state megaflows here.
  ConnTracker& ct = pipeline_.conntrack();
  const uint64_t ct_gen = ct.generation();
  const bool ct_dirty =
      cfg_.ct_reval_dirty && ct_gen != ct_gen_at_last_reval_;
  const bool maybe_stale =
      gen != pipeline_gen_at_last_reval_ || ct_dirty || reval_force_full_;
  const uint64_t changed_tags = pipeline_.mac_learning().take_changed_tags();

  // Plan phase: partition the dump across revalidator threads; each
  // re-translates read-only (side_effects=false) and records a verdict.
  Revalidator::Config rc;
  rc.n_threads = n_threads;
  rc.idle_ns = idle_ns;
  rc.maybe_stale = maybe_stale;
  // kTags (historical): tags gate re-translation even when a full pass was
  // forced — its documented weakness — and conntrack never gates it. kTwoTier
  // drops the fast path when a full pass is forced (entry corruption
  // bypasses the generation counters), so faulted entries are always
  // repaired; and because tags track only MAC bindings, it also drops it
  // whenever the tables or ports generation moved — a rule or port change
  // can invalidate flows whose tags never change, so only MAC- and
  // conntrack-driven staleness may take the tier-1 skip (the soundness
  // condition behind making kTwoTier the default). Conntrack staleness is
  // per flow: a flow skips only if no connection its translation looked up
  // is in the tracker's changed set. An overflowed set names no
  // connections, so it drops the fast path for the pass.
  const bool two_tier = cfg_.reval_mode == RevalidationMode::kTwoTier;
  if (two_tier && ct_dirty) rc.ct_changed = ct.seal_changed();
  rc.use_tags =
      cfg_.reval_mode == RevalidationMode::kTags ||
      (two_tier && !reval_force_full_ &&
       tables_gen == tables_gen_at_last_reval_ &&
       ports_gen == ports_gen_at_last_reval_ &&
       !(ct_dirty && rc.ct_changed == nullptr));
  rc.changed_tags = changed_tags;
  rc.reval_per_flow = m.reval_per_flow;
  rc.per_table_lookup = m.per_table_lookup;

  std::vector<Datapath::FlowRef> flows = dp_.dump();
  last_pass_ = Revalidator::plan(dp_, pipeline_, flows, now_ns, rc,
                                 &reval_plan_);
  counters_.reval_flows_examined += last_pass_.examined;
  counters_.reval_skipped_by_tags += last_pass_.skipped_by_tags;
  counters_.reval_ct_changed += last_pass_.ct_changed;
  counters_.ct_changed_keys += last_pass_.ct_changed_keys;

  // Work vs latency: every partition's cycles are CPU work; the deadline
  // below compares against the modeled pass latency (slowest partition
  // plus per-thread fan-out/join overhead, charged only when threads > 1).
  const double sync_cycles =
      last_pass_.threads_used > 1
          ? m.reval_thread_sync * static_cast<double>(last_pass_.threads_used)
          : 0.0;
  cpu_.user_cycles += last_pass_.total_cycles + sync_cycles;

  // Apply phase (serial, dump order): all mutations happen here, on the
  // control thread, so the outcome is independent of the thread count.
  for (size_t i = 0; i < flows.size(); ++i) {
    Datapath::FlowRef f = flows[i];
    const RevalDecision& d = reval_plan_.decisions[i];
    switch (d.kind) {
      case RevalDecision::Kind::kDeleteIdle:
        push_flow_stats(f, now_ns);  // final stats (validated internally)
        dp_.remove(f);
        ++counters_.reval_deleted_idle;
        break;
      case RevalDecision::Kind::kSkipClean:
        push_flow_stats(f, now_ns);
        break;
      case RevalDecision::Kind::kSkipTags:
        // kTags (historical, §6): no stats push — the attribution pointers
        // were not revalidated and the full generation has moved. kTwoTier:
        // attribution is keyed on the tables generation, which a MAC-only
        // change leaves alone, so skipped flows still feed statistics.
        if (cfg_.reval_mode == RevalidationMode::kTwoTier)
          push_flow_stats(f, now_ns);
        break;
      case RevalDecision::Kind::kKeepFresh:
        // Refresh the attribution (rule pointers may have been replaced)
        // and push pending stats against the CURRENT rules.
        refresh_attribution(f, d);
        push_flow_stats(f, now_ns);
        break;
      case RevalDecision::Kind::kUpdateActions:
        dp_.update_actions(f, std::move(reval_plan_.update(d).actions));
        refresh_attribution(f, d);
        push_flow_stats(f, now_ns);
        ++counters_.reval_updated_actions;
        break;
      case RevalDecision::Kind::kDeleteStale:
        // Final stats against the rules the flow was attributed to (they
        // carried its traffic since the last pass); refused internally when
        // a table change may have freed them.
        push_flow_stats(f, now_ns);
        dp_.remove(f);  // shape changed: let traffic re-establish it
        ++counters_.reval_deleted_stale;
        break;
    }
  }
  pipeline_gen_at_last_reval_ = gen;
  tables_gen_at_last_reval_ = tables_gen;
  ports_gen_at_last_reval_ = ports_gen;
  ct_gen_at_last_reval_ = ct_gen;
  ct.clear_changed();
  reval_force_full_ = false;

  // Hard eviction if still above the limit: oldest-used first, like
  // userspace "must be able to delete flows ... as quickly as it can
  // install new flows" (§6).
  if (dp_.flow_count() > effective_limit_) {
    std::vector<Datapath::FlowRef> live = dp_.dump();
    std::sort(live.begin(), live.end(),
              [this](Datapath::FlowRef a, Datapath::FlowRef b) {
                return dp_.flow_used_ns(a) < dp_.flow_used_ns(b);
              });
    size_t excess = dp_.flow_count() - effective_limit_;
    for (size_t i = 0; i < excess; ++i) {
      dp_.remove(live[i]);
      ++counters_.evicted_flow_limit;
    }
  }

  // Offload placement rides the same dump cadence as revalidation: the
  // EWMAs fold in this interval's measured per-flow traffic, then slots are
  // earned/revoked. Runs on the post-eviction survivor set.
  if (dp_.offload_enabled()) offload_placement(dp_.dump(), now_ns);

  dp_.purge_dead();  // grace period

  // Deadline check: AIMD the flow limit. A pass that blew the deadline
  // halves the table it will tolerate next time; a clean pass wins a
  // fraction of the headroom back (§6's "dynamically adjusted", made
  // explicit as multiplicative-decrease / additive-increase). The latency
  // compared is the plan makespan plus thread sync — with one thread this
  // equals the seed's serial user-cycle delta exactly.
  if (cfg_.degradation.enabled) {
    const double pass_ns =
        m.seconds(last_pass_.makespan_cycles + sync_cycles) * 1e9;
    if (pass_ns > static_cast<double>(cfg_.max_revalidation_ns)) {
      ++counters_.reval_overruns;
      apply_limit_backoff();
    } else if (!mask_explosion_.on && !ct_pressure_.on) {
      // Additive recovery pauses while the tuple-explosion or conntrack
      // pressure detector is engaged: a clean pass under attack only means
      // the shrunken table fits the deadline, not that growing it back is
      // safe.
      limit_scale_ =
          std::min(1.0, limit_scale_ + cfg_.degradation.limit_recovery);
    }
  }
}

void Switch::offload_placement(const std::vector<Datapath::FlowRef>& flows,
                               uint64_t now_ns) {
  if (!dp_.offload_enabled()) return;
  const CostModel& m = cfg_.cost;
  const double alpha = cfg_.offload_ewma_alpha;

  // Fold this dump interval's per-flow packet deltas into the EWMAs. A
  // flow first seen this pass scores its lifetime count (it has exactly one
  // interval of history: its record was born with last_packets == 0).
  for (Datapath::FlowRef f : flows) {
    FlowRecord& rec = dp_.flow_record(f);
    const uint64_t pkts = dp_.flow_packets(f);
    const double delta = static_cast<double>(pkts - rec.last_packets);
    rec.ewma = rec.seen ? alpha * delta + (1.0 - alpha) * rec.ewma : delta;
    rec.last_packets = pkts;
    rec.seen = true;
    rec.offloaded = dp_.offload_contains(f);
  }

  struct Ranked {
    Datapath::FlowRef f;
    double ewma;
  };
  std::vector<Ranked> incumbents, challengers;

  // Rank in dump order (deterministic): with EWMA ties — common in a long
  // Zipf tail — the stable sorts below keep identical runs placing alike.
  //
  // Decayed-cold incumbents lose their slot even with no challenger: a slot
  // earning fewer than offload_min_ewma packets per interval is dead NIC
  // capacity.
  for (Datapath::FlowRef f : flows) {
    FlowRecord& rec = dp_.flow_record(f);
    if (rec.offloaded && rec.ewma < cfg_.offload_min_ewma) {
      if (dp_.offload_evict(f)) {
        rec.offloaded = false;
        ++counters_.offload_evicts;
        cpu_.user_cycles += m.offload_evict;
      }
    }
  }
  for (Datapath::FlowRef f : flows) {
    const FlowRecord& rec = dp_.flow_record(f);
    if (rec.offloaded)
      incumbents.push_back({f, rec.ewma});
    else if (rec.ewma >= cfg_.offload_min_ewma)
      challengers.push_back({f, rec.ewma});
  }
  std::stable_sort(
      challengers.begin(), challengers.end(),
      [](const Ranked& a, const Ranked& b) { return a.ewma > b.ewma; });

  // Free slots go to the hottest challengers outright.
  size_t ci = 0;
  while (ci < challengers.size() &&
         dp_.offload_size() < dp_.offload_capacity()) {
    if (dp_.offload_install(challengers[ci].f, now_ns)) {
      dp_.flow_record(challengers[ci].f).offloaded = true;
      ++counters_.offload_installs;
      cpu_.user_cycles += m.offload_install;
    }
    ++ci;
  }
  if (ci >= challengers.size()) return;

  // Hysteresis (churn damping): a remaining challenger takes the coldest
  // incumbent's slot only when clearly hotter — beating its EWMA by
  // offload_challenge_factor — so two flows trading rank near the boundary
  // do not thrash install/evict every pass.
  std::stable_sort(
      incumbents.begin(), incumbents.end(),
      [](const Ranked& a, const Ranked& b) { return a.ewma < b.ewma; });
  size_t ii = 0;
  while (ci < challengers.size() && ii < incumbents.size()) {
    if (challengers[ci].ewma <=
        incumbents[ii].ewma * cfg_.offload_challenge_factor)
      break;  // sorted: no later pair can succeed either
    if (dp_.offload_evict(incumbents[ii].f)) {
      dp_.flow_record(incumbents[ii].f).offloaded = false;
      ++counters_.offload_evicts;
      cpu_.user_cycles += m.offload_evict;
    }
    if (dp_.offload_install(challengers[ci].f, now_ns)) {
      dp_.flow_record(challengers[ci].f).offloaded = true;
      ++counters_.offload_installs;
      cpu_.user_cycles += m.offload_install;
    }
    ++ci;
    ++ii;
  }
}

void Switch::offload_reconcile() {
  if (!dp_.offload_enabled()) return;
  const CostModel& m = cfg_.cost;
  // Adopt-or-flush (DESIGN.md §13): the restarted daemon walks the NIC
  // state it did not program. A slot is adopted when its owner survived the
  // reconciliation ladder AND its snapshot matches the owner's (repaired)
  // actions — which the datapath's coherence hooks guarantee for every
  // surviving owner, so a flush here means the coherence machinery failed
  // or the hardware state was tampered with. Adopted slots seed the
  // placement EWMA with their lifetime hit counts, so hot hardware flows
  // are not displaced by the first post-restart pass.
  std::unordered_set<Datapath::FlowRef> live;
  for (Datapath::FlowRef f : dp_.dump()) live.insert(f);
  for (const Datapath::OffloadSlot& s : dp_.offload_dump()) {
    const bool coherent = live.count(s.owner) != 0 &&
                          *s.actions == dp_.flow_actions(s.owner);
    if (coherent) {
      FlowRecord& rec = dp_.flow_record(s.owner);
      rec.offloaded = true;
      rec.last_packets = dp_.flow_packets(s.owner);
      rec.ewma = std::max(rec.ewma, static_cast<double>(s.hits));
      rec.seen = true;
      ++counters_.offload_adopted;
    } else {
      dp_.offload_evict(s.owner);
      cpu_.user_cycles += m.offload_evict;
      ++counters_.offload_flushed;
    }
  }
}

void Switch::update_emc_policy() {
  const DegradationConfig& d = cfg_.degradation;
  if (!d.enabled) return;
  const Datapath::Stats s = dp_.stats();
  const uint64_t attempts_now = s.emc_inserts + s.emc_insert_skips;
  const uint64_t attempts = attempts_now - emc_attempts_seen_;
  const uint64_t hits = s.microflow_hits - emc_hits_seen_;
  emc_attempts_seen_ = attempts_now;
  emc_hits_seen_ = s.microflow_hits;
  // Thrash signature (§7.3): the EMC is being rewritten far faster than it
  // is producing hits — every insert evicts something still useful (or
  // never useful, under a never-repeating adversary). Ratio with +1 so a
  // zero-hit interval is well-defined. Engaging needs emc_min_inserts of
  // signal; disengaging happens at half the engage threshold regardless of
  // volume (hysteresis: churn subsiding, not churn pausing, re-enables
  // normal insertion — and a quiet interval counts as subsided).
  const double ratio =
      static_cast<double>(attempts) / static_cast<double>(hits + 1);
  const bool hot = attempts >= d.emc_min_inserts && ratio > d.emc_thrash_ratio;
  const Valve::Step step =
      emc_degraded_.step(hot, ratio < d.emc_thrash_ratio / 2);
  if (step == Valve::Step::kEngage) {
    dp_.set_emc_insert_inv_prob(d.emc_degraded_inv_prob);
    ++counters_.emc_degrade_engaged;
  } else if (step == Valve::Step::kRelease) {
    dp_.set_emc_insert_inv_prob(cfg_.datapath.emc_insert_inv_prob);
  }
}

void Switch::update_cls_policy() {
  const DegradationConfig& d = cfg_.degradation;
  if (!d.enabled) return;
  if (d.mask_explosion_subtables == 0 && d.mask_probe_ewma_threshold <= 0.0)
    return;
  // Per-packet probe cost over the interval, smoothed. The kernel datapath
  // is where attacker-minted masks accumulate (megaflows inherit them), so
  // its counters are the detector's input — the userspace classifier shape
  // is visible via cls_subtables() but is bounded by admission/partitioning
  // upstream.
  const Datapath::Stats s = dp_.stats();
  const uint64_t dpkts = s.packets - dp_packets_seen_;
  const uint64_t dtuples = s.tuples_searched - dp_tuples_seen_;
  dp_packets_seen_ = s.packets;
  dp_tuples_seen_ = s.tuples_searched;
  if (dpkts > 0) {
    const double probe =
        static_cast<double>(dtuples) / static_cast<double>(dpkts);
    probe_ewma_ = d.mask_probe_ewma_alpha * probe +
                  (1.0 - d.mask_probe_ewma_alpha) * probe_ewma_;
  }
  const size_t masks = dp_.mask_count();
  const bool count_hot = d.mask_explosion_subtables > 0 &&
                         masks >= d.mask_explosion_subtables;
  const bool probe_hot = d.mask_probe_ewma_threshold > 0.0 &&
                         probe_ewma_ > d.mask_probe_ewma_threshold;
  const bool count_cool = d.mask_explosion_subtables == 0 ||
                          masks < d.mask_explosion_subtables / 2;
  const bool probe_cool = d.mask_probe_ewma_threshold <= 0.0 ||
                          probe_ewma_ < d.mask_probe_ewma_threshold / 2;
  // Release needs both signals at half their engage thresholds — the attack
  // subsiding — before revalidate()'s additive recovery resumes. While
  // either stays hot, keep ratcheting the table down until eviction sheds
  // enough attacker masks to cool the probes.
  const Valve::Step step =
      mask_explosion_.step(count_hot || probe_hot, count_cool && probe_cool);
  if (step == Valve::Step::kEngage) ++counters_.mask_explosion_engaged;
  if (step == Valve::Step::kEngage || step == Valve::Step::kPersist)
    apply_limit_backoff();
}

void Switch::update_ct_policy() {
  const DegradationConfig& d = cfg_.degradation;
  if (!d.enabled || d.ct_pressure_ratio <= 0.0 || cfg_.ct_max_entries == 0)
    return;
  const double occupancy =
      static_cast<double>(pipeline_.conntrack().size()) /
      static_cast<double>(cfg_.ct_max_entries);
  // Release at half the engage ratio — the churn subsiding, not one
  // eviction. While pressure persists, keep ratcheting the megaflow table
  // down (per-connection megaflows are the product of ct churn).
  const Valve::Step step = ct_pressure_.step(
      occupancy >= d.ct_pressure_ratio, occupancy < d.ct_pressure_ratio / 2);
  if (step == Valve::Step::kEngage) ++counters_.ct_pressure_engaged;
  if (step == Valve::Step::kEngage || step == Valve::Step::kPersist)
    apply_limit_backoff();
}

size_t Switch::cls_subtables() const noexcept {
  size_t n = 0;
  for (size_t t = 0; t < pipeline_.n_tables(); ++t)
    n += pipeline_.table(t).classifier().tuple_count();
  return n;
}

size_t Switch::cls_max_probe_depth() const noexcept {
  size_t n = 0;
  for (size_t t = 0; t < pipeline_.n_tables(); ++t)
    n = std::max(n, pipeline_.table(t).classifier().max_probe_depth());
  return n;
}

size_t Switch::attribution_count() const {
  size_t n = 0;
  for (Datapath::FlowRef f : dp_.dump()) n += dp_.flow_record(f).captured;
  return n;
}

void Switch::refresh_attribution(Datapath::FlowRef f,
                                 const RevalDecision& d) {
  FlowRecord& rec = dp_.flow_record(f);
  rec.tags = d.tags;
  rec.ct_key = d.ct_key;
  rec.ct_lookups = d.ct_lookups;
  if (d.new_rules) rec.rules = std::move(reval_plan_.update(d).rules);
  rec.captured_gen = pipeline_.tables_generation();
  rec.captured = true;
}

void Switch::adopt_attribution(Datapath::FlowRef f, const RevalDecision& d) {
  refresh_attribution(f, d);
  // The rebuilt rules' statistics start from zero; pre-adoption traffic
  // belongs to the previous daemon incarnation and must not be replayed.
  FlowRecord& rec = dp_.flow_record(f);
  rec.pushed_packets = dp_.flow_packets(f);
  rec.pushed_bytes = dp_.flow_bytes(f);
}

void Switch::crash() {
  if (state_ != LifecycleState::kServing) return;
  // Durable config snapshot (the OVSDB role, §3.3): ports and OpenFlow
  // rules survive the daemon. Everything else is process state.
  saved_flows_ = dump_flows();
  saved_ports_ = pipeline_.ports();
  // Fold in-flight slow-path work into the loss counters so the
  // upcall/install ledgers still balance across the crash: queued upcalls
  // were never handled (they are drops), pending retries are abandoned.
  counters_.retry_abandoned += retry_q_.size();
  retry_q_.clear();
  while (true) {
    const std::vector<Packet> lost = queue_.take(256);
    if (lost.empty()) break;
    counters_.upcalls_dropped += lost.size();
  }
  // Tear down userspace: fresh pipeline (tables rebuilt from config on
  // restart), blank flow records, degradation detectors back to defaults. The
  // EMC insertion knob is kernel state the dead daemon had set — a restart
  // restores the configured policy, like a fresh daemon would. Conntrack
  // lives in the pipeline and dies with it (userspace state, unlike the
  // real kernel module): established connections re-enter as kNew after
  // restart, and reconciliation repairs megaflows stamped with the stale
  // ct_state.
  pipeline_ = Pipeline(cfg_.n_tables, cfg_.classifier, ct_config(cfg_));
  // Each surviving flow's record (tags, attribution, placement memory) is
  // process state; the entries and the offload table are kernel and NIC
  // state and survive, still forwarding, until restart() adopts or
  // flushes them.
  for (Datapath::FlowRef f : dp_.dump()) dp_.flow_record(f) = FlowRecord{};
  limit_scale_ = 1.0;
  effective_limit_ = cfg_.flow_limit;
  emc_degraded_ = Valve{};
  dp_.set_emc_insert_inv_prob(cfg_.datapath.emc_insert_inv_prob);
  const Datapath::Stats s = dp_.stats();
  emc_attempts_seen_ = s.emc_inserts + s.emc_insert_skips;
  emc_hits_seen_ = s.microflow_hits;
  mask_explosion_ = Valve{};
  probe_ewma_ = 0.0;
  dp_tuples_seen_ = s.tuples_searched;
  dp_packets_seen_ = s.packets;
  ct_pressure_ = Valve{};
  tenant_masks_.clear();
  tenant_masks_valid_ = false;
  tenant_masks_gen_ = 0;
  reval_force_full_ = false;
  pipeline_gen_at_last_reval_ = 0;
  tables_gen_at_last_reval_ = 0;
  ports_gen_at_last_reval_ = 0;
  ct_gen_at_last_reval_ = 0;
  last_pass_ = RevalPassStats{};
  ++counters_.userspace_crashes;
  state_ = LifecycleState::kCrashed;
}

bool Switch::restart(uint64_t now_ns) {
  if (state_ == LifecycleState::kServing) return true;
  const CostModel& m = cfg_.cost;
  double blackout_cycles = 0;

  if (state_ == LifecycleState::kCrashed) {
    // Daemon re-exec: OpenFlow state rebuilt from the durable snapshot.
    blackout_cycles += m.restart_fixed;
    for (uint32_t p : saved_ports_) pipeline_.add_port(p);
    for (const std::string& f : saved_flows_) add_flow(f, now_ns);
    state_ = LifecycleState::kReconciling;
  }

  if (fault_ != nullptr && fault_->should_fire(FaultPoint::kReconcileStall)) {
    // Reconciliation blocked for a round (datapath dump timed out, say):
    // the blackout extends, the surviving cache keeps forwarding, and the
    // next maintenance round tries again.
    cpu_.user_cycles +=
        2.0 * (static_cast<double>(cfg_.max_revalidation_ns) / 1e9) *
        (m.ghz * 1e9);
    counters_.reconcile_blackout_cycles += static_cast<uint64_t>(
        2.0 * (static_cast<double>(cfg_.max_revalidation_ns) / 1e9) *
        (m.ghz * 1e9));
    ++counters_.reconcile_stalls;
    return false;
  }

  // Reconciliation pass (§9): forced-full plan over the surviving cache —
  // the crash-time tags died with the daemon, so every flow re-translates
  // against the rebuilt tables. Plan parallelizes across revalidator
  // threads; the apply below is serial in dump order, which is what makes
  // the outcome independent of the thread count and the worker count.
  force_full_revalidation();
  Revalidator::Config rc;
  rc.n_threads = std::max<size_t>(1, cfg_.revalidator_threads);
  rc.idle_ns = cfg_.idle_timeout_ns;
  rc.maybe_stale = true;
  rc.use_tags = false;
  rc.changed_tags = 0;
  rc.reval_per_flow = m.reval_per_flow;
  rc.per_table_lookup = m.per_table_lookup;

  const std::vector<Datapath::FlowRef> flows = dp_.dump();
  last_pass_ = Revalidator::plan(dp_, pipeline_, flows, now_ns, rc,
                                 &reval_plan_);
  counters_.reval_flows_examined += last_pass_.examined;
  const double sync_cycles =
      last_pass_.threads_used > 1
          ? m.reval_thread_sync * static_cast<double>(last_pass_.threads_used)
          : 0.0;
  blackout_cycles += last_pass_.total_cycles + sync_cycles;

  for (size_t i = 0; i < flows.size(); ++i) {
    Datapath::FlowRef f = flows[i];
    const RevalDecision& d = reval_plan_.decisions[i];
    switch (d.kind) {
      case RevalDecision::Kind::kDeleteIdle:
        // Sat idle through the blackout; no attribution exists yet.
        dp_.remove(f);
        ++counters_.reval_deleted_idle;
        break;
      case RevalDecision::Kind::kSkipClean:
      case RevalDecision::Kind::kSkipTags:
        break;  // unreachable: maybe_stale && !use_tags
      case RevalDecision::Kind::kKeepFresh:
        adopt_attribution(f, d);
        ++counters_.flows_adopted;
        break;
      case RevalDecision::Kind::kUpdateActions:
        dp_.update_actions(f, std::move(reval_plan_.update(d).actions));
        adopt_attribution(f, d);
        ++counters_.flows_repaired;
        break;
      case RevalDecision::Kind::kDeleteStale:
        dp_.remove(f);
        ++counters_.reval_deleted_stale;
        break;
    }
  }
  dp_.purge_dead();

  // Adopt-or-flush the surviving offload table through the same ladder
  // (DESIGN.md §13) before the invariant gate judges it.
  offload_reconcile();

  // Post-reconciliation gate: only a cache that passes the megaflow
  // invariants may serve installs again; anything still violating after
  // the full re-translation is quarantined rather than left to misdeliver.
  // (self_check charges its own cpu cycles; fold them into the blackout
  // tally without charging twice.)
  const DpCheckReport gate = self_check();
  counters_.reconcile_blackout_cycles += static_cast<uint64_t>(
      m.dp_check_per_flow * static_cast<double>(gate.flows_checked));

  pipeline_gen_at_last_reval_ = pipeline_.generation();
  tables_gen_at_last_reval_ = pipeline_.tables_generation();
  ports_gen_at_last_reval_ = pipeline_.ports_generation();
  ct_gen_at_last_reval_ = pipeline_.conntrack().generation();
  pipeline_.conntrack().clear_changed();
  reval_force_full_ = false;
  cpu_.user_cycles += blackout_cycles;
  counters_.reconcile_blackout_cycles +=
      static_cast<uint64_t>(blackout_cycles);
  state_ = LifecycleState::kServing;
  return true;
}

DpCheckReport Switch::self_check() {
  DpCheckReport rep = run_dp_check(dp_);
  cpu_.user_cycles +=
      cfg_.cost.dp_check_per_flow * static_cast<double>(rep.flows_checked);
  // Incoherent offload slots are flushed (the megaflow path serves the
  // traffic correctly); quarantined flows below drop their slots through
  // the datapath's remove() hook.
  for (Datapath::FlowRef o : rep.offload_flush) {
    if (dp_.offload_evict(o)) {
      ++counters_.offload_evicts;
      cpu_.user_cycles += cfg_.cost.offload_evict;
    }
  }
  // No final statistics push: a quarantined entry broke the megaflow
  // invariants (misdelivering, overlapping, or corrupted), so the traffic
  // it counted cannot be trusted to belong to its attributed rules.
  for (Datapath::FlowRef f : rep.quarantine) {
    dp_.remove(f);
    ++counters_.flows_quarantined;
  }
  if (!rep.quarantine.empty()) dp_.purge_dead();
  return rep;
}

void Switch::push_flow_stats(Datapath::FlowRef f, uint64_t now_ns) {
  FlowRecord& rec = dp_.flow_record(f);
  // Rule pointers are only safe while no flow-table change happened since
  // capture. Keying on the TABLES generation (not the full pipeline
  // generation) lets MAC-learning churn — which cannot invalidate OfRule
  // pointers — leave statistics flowing; this is what makes the kTwoTier
  // skip path able to push stats for flows it never re-translated.
  if (!rec.captured || rec.captured_gen != pipeline_.tables_generation())
    return;
  const uint64_t dp_pkts = dp_.flow_packets(f);
  const uint64_t dp_bytes = dp_.flow_bytes(f);
  if (dp_pkts == rec.pushed_packets) return;
  const uint64_t dpkts = dp_pkts - rec.pushed_packets;
  const uint64_t dbytes = dp_bytes - rec.pushed_bytes;
  for (const OfRule* r : rec.rules) r->add_stats(dpkts, dbytes, now_ns);
  rec.pushed_packets = dp_pkts;
  rec.pushed_bytes = dp_bytes;
}

void Switch::run_maintenance(uint64_t now_ns) {
  // A downed daemon's only maintenance is coming back up; the blackout for
  // new flows lasts until a restart round completes (an injected
  // kReconcileStall can stretch it across several).
  if (state_ != LifecycleState::kServing) {
    restart(now_ns);
    return;
  }
  // The daemon can die between any two maintenance rounds; the datapath
  // keeps forwarding from its surviving cache until restart() reconciles.
  if (fault_ != nullptr && fault_->should_fire(FaultPoint::kUserspaceCrash)) {
    crash();
    return;
  }
  pipeline_.mac_learning().expire(now_ns);
  // Conntrack idle expiry before revalidation: expiring entries bumps the
  // ct generation, so megaflows stamped with the dead connections' ct_state
  // are repaired in the same pass instead of serving stale state for a
  // round (DESIGN.md §15).
  counters_.ct_expired_idle += pipeline_.conntrack().expire_idle(now_ns);
  update_emc_policy();
  update_cls_policy();
  update_ct_policy();
  revalidate(now_ns);
  // OpenFlow idle/hard flow expiry uses the statistics refreshed above
  // (§6); expirations bump the pipeline generation, so the next
  // revalidation round converges the cache.
  pipeline_.expire_flows(now_ns);
}

}  // namespace ovs
