#include "vswitchd/revalidator.h"

#include <algorithm>
#include <thread>

namespace ovs {

namespace {

// Did a connection this flow's translation looked up change? One lookup
// depends on its own key only; several depend on any ct change.
bool ct_stale(const FlowRecord& rec, const std::vector<uint32_t>& changed) {
  if (rec.ct_lookups == 0) return false;
  return rec.ct_lookups > 1 ||
         std::binary_search(changed.begin(), changed.end(), rec.ct_key);
}

// One partition of the plan phase. Read-only against the datapath and the
// pipeline (translate with side_effects=false), so partitions are
// embarrassingly parallel; each writes decisions only at its own indices
// and updates only into its own scratch.
void plan_range(Datapath& be, Pipeline& pl,
                const std::vector<Datapath::FlowRef>& flows, size_t lo,
                size_t hi, uint64_t now_ns, const Revalidator::Config& cfg,
                std::vector<RevalDecision>& decisions, RevalPartition& part,
                uint8_t part_id) {
  RevalPassStats& ps = part.stats;
  ps = RevalPassStats{};
  part.updates.clear();
  for (size_t i = lo; i < hi; ++i) {
    Datapath::FlowRef f = flows[i];
    RevalDecision& d = decisions[i];
    ++ps.examined;
    ps.total_cycles += cfg.reval_per_flow;
    if (now_ns - be.flow_used_ns(f) > cfg.idle_ns) {
      d.kind = RevalDecision::Kind::kDeleteIdle;
      continue;
    }
    if (!cfg.maybe_stale) {
      d.kind = RevalDecision::Kind::kSkipClean;
      continue;
    }
    const FlowRecord& rec = be.flow_record(f);
    const bool conn_changed =
        cfg.ct_changed != nullptr && ct_stale(rec, *cfg.ct_changed);
    ps.ct_changed += conn_changed;
    if (cfg.use_tags && !conn_changed && (rec.tags & cfg.changed_tags) == 0) {
      // Tier 1 (§4.3): untouched tags and an unchanged connection mean this
      // flow's translation inputs cannot have changed — modulo Bloom false
      // positives and dep-key collisions, which only cost an unnecessary
      // re-translation, never a missed repair.
      d.kind = RevalDecision::Kind::kSkipTags;
      ++ps.skipped_by_tags;
      continue;
    }
    // Tier 2: full re-translation through the current tables. Translate
    // the full-fidelity install-time key, not flow_match(f).key: the
    // latter is pre-masked, and a masked key can re-derive the entry's own
    // stale mask (fields the mask wildcards read as zero, steering the
    // classifier's prefix cuts the same wrong way), turning a stale
    // over-broad flow into a kKeepFresh fixed point that overlaps fresher
    // disjoint entries.
    const XlateResult& xr = pl.translate(be.flow_full_key(f), now_ns,
                                         part.xlate, /*side_effects=*/false);
    ps.total_cycles += cfg.per_table_lookup * xr.table_lookups;
    ++ps.retranslated;
    // The installed mask must match every field the fresh translation
    // consulted; an entry broader than that (extra wildcards, in OVS
    // terms) swallows packets the current tables would treat differently
    // — even when the actions for this witness key still agree. E.g. a
    // drop megaflow installed against an empty table matches everything
    // on its port; once a rule exists, re-translating its witness packet
    // still yields drop, but the fresh mask now pins the fields that
    // prove the miss.
    const FlowMask& inst_mask = be.flow_match(f).mask;
    bool covers = true;
    for (size_t w = 0; w < kFlowWords; ++w) {
      if ((xr.megaflow.mask.w[w] & ~inst_mask.w[w]) != 0) {
        covers = false;
        break;
      }
    }
    if (covers && xr.actions == be.flow_actions(f)) {
      d.kind = RevalDecision::Kind::kKeepFresh;
    } else if (xr.megaflow.mask == inst_mask) {
      d.kind = RevalDecision::Kind::kUpdateActions;
    } else {
      d.kind = RevalDecision::Kind::kDeleteStale;
      continue;
    }
    d.ct_lookups = xr.ct_lookups;
    d.ct_key = xr.ct_key;
    d.tags = xr.tags;
    // Compared in place: the attribution travels only when it changed (a
    // record that never captured one holds no rules).
    d.new_rules = xr.matched_rules != rec.rules;
    const bool new_actions = d.kind == RevalDecision::Kind::kUpdateActions;
    if (d.new_rules || new_actions) {
      d.part = part_id;
      d.update = static_cast<uint32_t>(part.updates.size());
      RevalUpdate& u = part.updates.emplace_back();
      if (d.new_rules) u.rules = xr.matched_rules;
      if (new_actions) u.actions = xr.actions;
    }
  }
}

}  // namespace

RevalPassStats Revalidator::plan(Datapath& be, Pipeline& pl,
                                 const std::vector<Datapath::FlowRef>& flows,
                                 uint64_t now_ns, const Config& cfg,
                                 RevalPlan* out) {
  std::vector<RevalDecision>& decisions = out->decisions;
  decisions.assign(flows.size(), RevalDecision{});

  // Decisions name their partition in 8 bits.
  const size_t want = std::clamp<size_t>(cfg.n_threads, 1, 255);
  // Spawning a thread for a handful of flows costs more than it saves.
  const size_t n_threads =
      flows.empty() ? 1 : std::min(want, (flows.size() + 63) / 64);

  std::vector<RevalPartition>& parts = out->parts_;
  if (parts.size() < n_threads) parts.resize(n_threads);
  const size_t chunk = (flows.size() + n_threads - 1) / n_threads;
  auto run = [&](size_t t) {
    const size_t lo = std::min(flows.size(), t * chunk);
    const size_t hi = std::min(flows.size(), lo + chunk);
    plan_range(be, pl, flows, lo, hi, now_ns, cfg, decisions, parts[t],
               static_cast<uint8_t>(t));
  };
  if (n_threads == 1) {
    run(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(n_threads - 1);
    for (size_t t = 1; t < n_threads; ++t) pool.emplace_back(run, t);
    run(0);
    for (std::thread& th : pool) th.join();
  }

  RevalPassStats stats;
  stats.threads_used = n_threads;
  if (cfg.ct_changed != nullptr)
    stats.ct_changed_keys = cfg.ct_changed->size();
  for (size_t t = 0; t < n_threads; ++t) {
    const RevalPassStats& ps = parts[t].stats;
    stats.examined += ps.examined;
    stats.retranslated += ps.retranslated;
    stats.skipped_by_tags += ps.skipped_by_tags;
    stats.ct_changed += ps.ct_changed;
    stats.total_cycles += ps.total_cycles;
    stats.makespan_cycles = std::max(stats.makespan_cycles, ps.total_cycles);
  }
  return stats;
}

}  // namespace ovs
