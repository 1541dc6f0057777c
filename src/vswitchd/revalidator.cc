#include "vswitchd/revalidator.h"

#include <algorithm>
#include <thread>

namespace ovs {

namespace {

struct PartStats {
  uint64_t examined = 0;
  uint64_t retranslated = 0;
  uint64_t skipped_by_tags = 0;
  uint64_t ct_changed = 0;
  double cycles = 0;
};

// Did a connection this flow's translation looked up change? One lookup
// depends on its own key only; several depend on any ct change.
bool ct_stale(const FlowRecord& rec, const std::vector<uint32_t>& changed) {
  if (rec.ct_lookups == 0) return false;
  return rec.ct_lookups > 1 ||
         std::binary_search(changed.begin(), changed.end(), rec.ct_key);
}

// One partition of the plan phase. Read-only against the backend and the
// pipeline (translate with side_effects=false), so partitions are
// embarrassingly parallel; each writes decisions only at its own indices.
PartStats plan_range(DpBackend& be, Pipeline& pl,
                     const std::vector<DpBackend::FlowRef>& flows, size_t lo,
                     size_t hi, uint64_t now_ns,
                     const Revalidator::Config& cfg,
                     std::vector<RevalDecision>& decisions) {
  PartStats ps;
  for (size_t i = lo; i < hi; ++i) {
    DpBackend::FlowRef f = flows[i];
    RevalDecision& d = decisions[i];
    ++ps.examined;
    ps.cycles += cfg.reval_per_flow;
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
    XlateResult xr =
        pl.translate(be.flow_full_key(f), now_ns, /*side_effects=*/false);
    ps.cycles += cfg.per_table_lookup * xr.table_lookups;
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
      d.actions = std::move(xr.actions);
    } else {
      d.kind = RevalDecision::Kind::kDeleteStale;
      continue;
    }
    d.ct_lookups = xr.ct_lookups;
    d.ct_key = xr.ct_key;
    d.tags = xr.tags;
    d.matched_rules = std::move(xr.matched_rules);
  }
  return ps;
}

}  // namespace

RevalPassStats Revalidator::plan(DpBackend& be, Pipeline& pl,
                                 const std::vector<DpBackend::FlowRef>& flows,
                                 uint64_t now_ns, const Config& cfg,
                                 std::vector<RevalDecision>* decisions) {
  decisions->assign(flows.size(), RevalDecision{});

  const size_t want = std::max<size_t>(1, cfg.n_threads);
  // Spawning a thread for a handful of flows costs more than it saves.
  const size_t n_threads =
      flows.empty() ? 1 : std::min(want, (flows.size() + 63) / 64);

  std::vector<PartStats> parts(n_threads);
  if (n_threads == 1) {
    parts[0] = plan_range(be, pl, flows, 0, flows.size(), now_ns, cfg,
                          *decisions);
  } else {
    const size_t chunk = (flows.size() + n_threads - 1) / n_threads;
    std::vector<std::thread> pool;
    pool.reserve(n_threads - 1);
    for (size_t t = 1; t < n_threads; ++t) {
      const size_t lo = std::min(flows.size(), t * chunk);
      const size_t hi = std::min(flows.size(), lo + chunk);
      if (lo == hi) continue;
      pool.emplace_back([&, t, lo, hi] {
        parts[t] =
            plan_range(be, pl, flows, lo, hi, now_ns, cfg, *decisions);
      });
    }
    parts[0] = plan_range(be, pl, flows, 0, std::min(flows.size(), chunk),
                          now_ns, cfg, *decisions);
    for (std::thread& th : pool) th.join();
  }

  RevalPassStats out;
  out.threads_used = n_threads;
  if (cfg.ct_changed != nullptr) out.ct_changed_keys = cfg.ct_changed->size();
  for (const PartStats& ps : parts) {
    out.examined += ps.examined;
    out.retranslated += ps.retranslated;
    out.skipped_by_tags += ps.skipped_by_tags;
    out.ct_changed += ps.ct_changed;
    out.total_cycles += ps.cycles;
    out.makespan_cycles = std::max(out.makespan_cycles, ps.cycles);
  }
  return out;
}

}  // namespace ovs
