#include "datapath/dp_check.h"

#include <algorithm>
#include <array>
#include <unordered_map>

#include "packet/flow_key.h"

namespace ovs {

namespace {

using Words = std::array<uint64_t, kFlowWords>;

struct WordsHash {
  size_t operator()(const Words& w) const noexcept {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint64_t v : w) {
      h ^= v;
      h *= 0x100000001b3ULL;
    }
    return static_cast<size_t>(h);
  }
};

Words key_words(const FlowWords& k) {
  Words out;
  for (size_t i = 0; i < kFlowWords; ++i) out[i] = k.w[i];
  return out;
}

Words masked_words(const FlowWords& k, const Words& mask) {
  Words out;
  for (size_t i = 0; i < kFlowWords; ++i) out[i] = k.w[i] & mask[i];
  return out;
}

Words common_mask(const Words& a, const Words& b) {
  Words out;
  for (size_t i = 0; i < kFlowWords; ++i) out[i] = a[i] & b[i];
  return out;
}

void note(DpCheckReport& r, const DpCheckConfig& cfg, std::string detail) {
  if (r.details.size() < cfg.max_details) r.details.push_back(std::move(detail));
}

}  // namespace

DpCheckReport run_dp_check(const Datapath& be, const DpCheckConfig& cfg) {
  DpCheckReport report;
  const std::vector<Datapath::FlowRef> flows = be.dump();
  report.flows_checked = flows.size();

  std::vector<size_t> doomed;  // dump indices to quarantine

  if (cfg.check_disjointness && flows.size() > 1) {
    // Group entries by mask. Within one mask, pre-masked keys either collide
    // exactly (a duplicate the install path should have rejected) or differ
    // in a masked word and are disjoint — so same-mask needs only a key
    // map, and true region intersection can only happen across masks.
    struct Group {
      Words mask;
      std::vector<size_t> idx;  // dump indices, ascending
    };
    std::unordered_map<Words, size_t, WordsHash> group_of;
    std::vector<Group> groups;
    for (size_t i = 0; i < flows.size(); ++i) {
      const Match& m = be.flow_match(flows[i]);
      const Words mw = key_words(m.mask);
      auto [it, fresh] = group_of.try_emplace(mw, groups.size());
      if (fresh) groups.push_back({mw, {}});
      groups[it->second].idx.push_back(i);
    }

    for (const Group& g : groups) {
      if (g.idx.size() < 2) continue;
      std::unordered_map<Words, size_t, WordsHash> seen;
      for (size_t i : g.idx) {
        const Words kw = key_words(be.flow_match(flows[i]).key);
        auto [it, fresh] = seen.try_emplace(kw, i);
        if (!fresh) {
          ++report.duplicate_keys;
          doomed.push_back(i);
          note(report, cfg,
               "duplicate masked key: " + be.flow_match(flows[i]).to_string());
        }
      }
    }

    // Cross-mask: for each mask pair, project group A's keys onto the
    // common mask and probe group B through the same projection. A hit is
    // a packet region both entries claim.
    for (size_t a = 0; a < groups.size(); ++a) {
      for (size_t b = a + 1; b < groups.size(); ++b) {
        ++report.mask_pairs_checked;
        const Words inter = common_mask(groups[a].mask, groups[b].mask);
        std::unordered_map<Words, size_t, WordsHash> proj;
        proj.reserve(groups[a].idx.size());
        for (size_t i : groups[a].idx)
          proj.emplace(masked_words(be.flow_match(flows[i]).key, inter), i);
        for (size_t j : groups[b].idx) {
          const auto it =
              proj.find(masked_words(be.flow_match(flows[j]).key, inter));
          if (it == proj.end()) continue;
          const size_t i = it->second;
          const bool same_actions =
              be.flow_actions(flows[i]) == be.flow_actions(flows[j]);
          if (same_actions) {
            ++report.benign_overlaps;
            if (!cfg.quarantine_benign_overlaps) continue;
          } else {
            ++report.overlap_violations;
            note(report, cfg,
                 "overlap: " + be.flow_match(flows[i]).to_string() + " vs " +
                     be.flow_match(flows[j]).to_string());
          }
          doomed.push_back(std::max(i, j));
        }
      }
    }
  }

  if (cfg.check_emc) {
    report.emc_dangling_hints = be.emc_dangling_hints();
    if (report.emc_dangling_hints > 0)
      note(report, cfg,
           "emc: " + std::to_string(report.emc_dangling_hints) +
               " dangling hint(s)");
  }

  if (cfg.check_offload && be.offload_enabled()) {
    // Shadow coherence (DESIGN.md §13): the offload table holds COPIES, so
    // each slot is checked against its owner — live owner, identical action
    // snapshot, and hits <= owner packets (every slot hit also bumps the
    // owner, so a slot claiming more traffic than its owner ever saw has a
    // corrupted counter). Repair is always the same: flush the slot.
    std::unordered_map<const void*, size_t> live;
    live.reserve(flows.size());
    for (size_t i = 0; i < flows.size(); ++i) live.emplace(flows[i], i);
    for (const Datapath::OffloadSlot& s : be.offload_dump()) {
      ++report.offload_checked;
      const auto it = live.find(s.owner);
      if (it == live.end()) {
        ++report.offload_dangling;
        report.offload_flush.push_back(s.owner);
        note(report, cfg, "offload: slot owner not among live flows");
        continue;
      }
      if (!(*s.actions == be.flow_actions(flows[it->second]))) {
        ++report.offload_stale_actions;
        report.offload_flush.push_back(s.owner);
        note(report, cfg,
             "offload: stale action snapshot for " +
                 be.flow_match(flows[it->second]).to_string());
        continue;
      }
      if (s.hits > be.flow_packets(flows[it->second])) {
        ++report.offload_stat_violations;
        report.offload_flush.push_back(s.owner);
        note(report, cfg,
             "offload: slot hits=" + std::to_string(s.hits) +
                 " > owner packets=" +
                 std::to_string(be.flow_packets(flows[it->second])));
      }
    }
  }

  if (cfg.check_stats) {
    const Datapath::Stats s = be.stats();
    if (s.packets !=
        s.offload_hits + s.microflow_hits + s.megaflow_hits + s.misses) {
      ++report.stats_violations;
      note(report, cfg,
           "stats: packets=" + std::to_string(s.packets) +
               " != offload=" + std::to_string(s.offload_hits) +
               " + emc=" + std::to_string(s.microflow_hits) +
               " + mega=" + std::to_string(s.megaflow_hits) +
               " + miss=" + std::to_string(s.misses));
    }
  }

  // Dedup (an entry can offend against several peers) and keep dump order,
  // so quarantine application is deterministic.
  std::sort(doomed.begin(), doomed.end());
  doomed.erase(std::unique(doomed.begin(), doomed.end()), doomed.end());
  report.quarantine.reserve(doomed.size());
  for (size_t i : doomed) report.quarantine.push_back(flows[i]);
  return report;
}

size_t quarantine_flows(Datapath& be, const DpCheckReport& report) {
  for (Datapath::FlowRef o : report.offload_flush) be.offload_evict(o);
  for (Datapath::FlowRef f : report.quarantine) be.remove(f);
  if (!report.quarantine.empty()) be.purge_dead();
  return report.quarantine.size();
}

}  // namespace ovs
