// Megaflow invariant self-check (paper §4.2, §6).
//
// The kernel classifier is priority-less and terminates on the first match,
// which is only correct because "userspace installs disjoint megaflows": no
// packet may match two installed entries with different actions. Nothing in
// the datapath enforces that at runtime — a buggy translation, a corrupted
// entry, or a reconciliation mistake would silently misdeliver on whichever
// tuple happens to be probed first. This pass makes the invariant checkable:
//
//   * pairwise disjointness — no two live entries' match regions intersect.
//     Two pre-masked entries (k1,m1), (k2,m2) overlap iff
//     ((k1 ^ k2) & (m1 & m2)) == 0 across all key words (a packet equal to
//     k1|k2 outside the common mask matches both). Overlaps with identical
//     action lists cannot misdeliver and are tallied separately as benign;
//   * EMC -> megaflow coherence — every microflow hint must still resolve
//     safely (a dead-but-unpurged target is legal, §6 corrects it on first
//     use; a dangling one is not), via DpBackend::emc_dangling_hints();
//   * stats conservation — packets == microflow_hits + megaflow_hits +
//     misses; a broken ledger means a path was double- or un-counted.
//
// Runnable from tests, as a periodic background self-check in the fleet sim,
// and as the post-reconciliation gate in Switch::restart(). Offending
// entries are listed for quarantine (delete + count) rather than left to
// misdeliver; quarantine_flows() applies the list for raw-backend callers,
// Switch::self_check() applies it with its own counters and costs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "datapath/dp_backend.h"

namespace ovs {

struct DpCheckConfig {
  bool check_disjointness = true;
  bool check_emc = true;
  bool check_stats = true;
  // Offload shadow coherence (DESIGN.md §13): every offload slot's owner
  // must be a live dumped flow, the slot's action snapshot must equal the
  // owner's current actions, and the slot cannot claim more hits than its
  // owner has packets (every offload hit also bumps the owner). No-op when
  // the tier is disabled.
  bool check_offload = true;
  // Benign overlaps (identical actions) forward correctly either way; only
  // quarantine them when a caller wants the strict invariant restored.
  bool quarantine_benign_overlaps = false;
  size_t max_details = 8;  // human-readable violation descriptions kept
};

struct DpCheckReport {
  uint64_t flows_checked = 0;
  uint64_t mask_pairs_checked = 0;

  uint64_t overlap_violations = 0;  // intersecting entries, different actions
  uint64_t benign_overlaps = 0;     // intersecting entries, same actions
  uint64_t duplicate_keys = 0;      // same mask, same masked key
  uint64_t emc_dangling_hints = 0;
  uint64_t stats_violations = 0;

  // Offload shadow coherence (slots examined and the three violation
  // classes, mirroring OffloadTable::Corruption).
  uint64_t offload_checked = 0;
  uint64_t offload_stale_actions = 0;  // snapshot != owner's actions
  uint64_t offload_dangling = 0;       // owner not among live flows
  uint64_t offload_stat_violations = 0;  // slot hits > owner packets

  // Entries to delete, in dump order: the later entry of each offending
  // pair (the earlier one is what first-match semantics already serve) and
  // every duplicate beyond the first.
  std::vector<DpBackend::FlowRef> quarantine;
  // Offload slots to invalidate (listed by owner ref — possibly dangling,
  // compared by address only): the repair for every offload violation is
  // evicting the slot, letting traffic fall back to the megaflow path.
  std::vector<DpBackend::FlowRef> offload_flush;
  std::vector<std::string> details;  // capped at cfg.max_details

  uint64_t violations() const noexcept {
    return overlap_violations + duplicate_keys + emc_dangling_hints +
           stats_violations + offload_stale_actions + offload_dangling +
           offload_stat_violations;
  }
  bool ok() const noexcept { return violations() == 0; }
};

// Control-plane pass over a quiescent backend (same threading contract as
// dump/revalidation: no concurrent mutation, workers outside batches).
DpCheckReport run_dp_check(const DpBackend& be, const DpCheckConfig& cfg = {});

// Deletes every entry in report.quarantine. Returns the number removed.
// Each entry's FlowRecord dies with it.
size_t quarantine_flows(DpBackend& be, const DpCheckReport& report);

}  // namespace ovs
