// Multi-threaded revalidation (§4.3, §6): "dividing flows among revalidator
// threads" keeps a full pass over the datapath flow table under its ~1 s
// deadline as the table grows.
//
// The pass is split into a *parallel plan* phase and a *serial apply* phase:
//
//   * plan — the dumped flow list is partitioned contiguously across N
//     threads; each thread re-translates its flows with side_effects=false
//     (translation is read-only against the pipeline: classifier lookups,
//     MAC lookups, conntrack lookups) and records a per-flow verdict plus
//     the parts of the fresh translation apply installs — tags, matched
//     rules and, for an action update, the new actions. The fresh megaflow
//     match is only compared during plan, never kept, so a decision stays
//     small however many flows a pass dumps. A two-tier fast path consults
//     the pipeline generation counters, the per-flow Bloom tags and the
//     per-flow conntrack dependency (checked against the tracker's sealed
//     changed set, DESIGN.md §15) first, skipping the full re-translation
//     for flows whose inputs cannot have changed.
//   * apply — the control thread walks the verdicts in dump order and
//     performs every mutation: batched deletes, RCU action swaps
//     (update_actions), tags and attribution written into each flow's
//     FlowRecord, statistics pushes. Keeping all writes on one thread
//     preserves the backends' single-writer contract and makes the pass
//     outcome independent of the thread count. Plan threads read only the
//     record's tags and ct dependency, and the changed set.
//
// Cycle accounting separates *work* (total_cycles, summed over partitions —
// what the CPU pools are charged) from *latency* (makespan_cycles, the max
// over partitions — what the §6 deadline is compared against).
#pragma once

#include <cstdint>
#include <vector>

#include "datapath/dp_backend.h"
#include "ofproto/pipeline.h"

namespace ovs {

// One flow's planned outcome, indexed like the dumped flow list.
struct RevalDecision {
  enum class Kind : uint8_t {
    kDeleteIdle,     // past the idle timeout: evict
    kSkipClean,      // nothing in the pipeline changed since the last pass
    kSkipTags,       // tag fast path: this flow's inputs did not change
    kKeepFresh,      // re-translated; actions unchanged
    kUpdateActions,  // re-translated; same shape, new actions
    kDeleteStale,    // re-translated; megaflow shape changed: evict
  };
  Kind kind = Kind::kSkipClean;
  // From the fresh translation, for kKeepFresh / kUpdateActions only.
  uint8_t ct_lookups = 0;                    // conntrack dependency to store
  uint32_t ct_key = 0;
  uint64_t tags = 0;                         // Bloom tags to store
  std::vector<const OfRule*> matched_rules;  // new attribution list
  DpActions actions;                         // kUpdateActions only
};
// The ct fields sit in the padding after `kind`.
static_assert(sizeof(RevalDecision) == 64);

struct RevalPassStats {
  uint64_t examined = 0;
  uint64_t retranslated = 0;     // flows that paid a full re-translation
  uint64_t skipped_by_tags = 0;  // flows the tag fast path short-circuited
  // Live flows whose conntrack dependency is in the changed set (or that
  // made several ct lookups while conntrack changed), and the set's size.
  // Both 0 when conntrack did not change or the set overflowed.
  uint64_t ct_changed = 0;
  uint64_t ct_changed_keys = 0;
  double total_cycles = 0;       // CPU work, summed over partitions
  double makespan_cycles = 0;    // modeled pass latency: max over partitions
  size_t threads_used = 1;
};

class Revalidator {
 public:
  struct Config {
    size_t n_threads = 1;
    uint64_t idle_ns = 0;
    // Pipeline generation moved since the last pass (or a full pass was
    // forced): flows may be stale. When false every live flow is kSkipClean.
    bool maybe_stale = true;
    // Tier-1 fast path: consult per-flow Bloom tags against changed_tags
    // before paying for a re-translation.
    bool use_tags = false;
    uint64_t changed_tags = 0;
    // Conntrack changed since the last pass: the sorted, deduplicated
    // ConnTracker changed set. A flow takes the fast path only when its
    // recorded ct dependency is not in it. Null when conntrack did not
    // change (or is ignored).
    const std::vector<uint32_t>* ct_changed = nullptr;
    // Cost model (sim/cost_model.h): cycles per examined flow and per
    // classifier lookup during re-translation.
    double reval_per_flow = 0;
    double per_table_lookup = 0;
  };

  // Plans one pass over `flows` (a backend dump). Thread-safe against
  // concurrent fast-path traffic on the sharded backend; the caller must
  // not mutate the backend or the pipeline until plan() returns. Decisions
  // land at the flow's dump index, so the serial apply is deterministic
  // regardless of n_threads.
  static RevalPassStats plan(DpBackend& be, Pipeline& pl,
                             const std::vector<DpBackend::FlowRef>& flows,
                             uint64_t now_ns, const Config& cfg,
                             std::vector<RevalDecision>* decisions);
};

}  // namespace ovs
