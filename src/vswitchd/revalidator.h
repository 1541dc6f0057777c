// Multi-threaded revalidation (§4.3, §6): "dividing flows among revalidator
// threads" keeps a full pass over the datapath flow table under its ~1 s
// deadline as the table grows.
//
// The pass is split into a *parallel plan* phase and a *serial apply* phase:
//
//   * plan — the dumped flow list is partitioned contiguously across N
//     threads; each thread re-translates its flows with side_effects=false
//     (translation is read-only against the pipeline: classifier lookups,
//     MAC lookups, conntrack lookups) through its own reused scratch and
//     records a per-flow verdict. The fresh actions and matched rules are
//     compared against the installed ones in place; only a flow whose
//     actions or attribution changed gets an update (in the partition's
//     scratch) that apply moves into it. The fresh megaflow match is only
//     compared, never kept, so a decision stays three words however many
//     flows a pass dumps. A two-tier fast path consults
//     the pipeline generation counters, the per-flow Bloom tags and the
//     per-flow conntrack dependency (checked against the tracker's sealed
//     changed set, DESIGN.md §15) first, skipping the full re-translation
//     for flows whose inputs cannot have changed.
//   * apply — the control thread walks the verdicts in dump order and
//     performs every mutation: batched deletes, action updates
//     (update_actions), tags and attribution written into each flow's
//     FlowRecord, statistics pushes. Keeping all writes on one thread
//     preserves the datapath's single-writer contract and makes the pass
//     outcome independent of the thread count. Plan threads read only the
//     record's tags, attribution and ct dependency, and the changed set.
//
// Cycle accounting separates *work* (total_cycles, summed over partitions —
// what the CPU pools are charged) from *latency* (makespan_cycles, the max
// over partitions — what the §6 deadline is compared against).
#pragma once

#include <cstdint>
#include <vector>

#include "datapath/datapath.h"
#include "ofproto/pipeline.h"

namespace ovs {

// One flow's planned outcome, indexed like the dumped flow list. Owns no
// heap memory: a decision only names the new attribution list or action
// list it applies (RevalUpdate, in its partition's scratch), and only when
// the fresh translation's differs from what the flow already has.
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
  uint8_t ct_lookups = 0;  // conntrack dependency to store
  // The fresh attribution differs from the record's: the update holds it.
  bool new_rules = false;
  uint8_t part = 0;        // partition whose updates hold this flow's update
  uint32_t ct_key = 0;
  uint64_t tags = 0;       // Bloom tags to store
  // Index into the partition's updates; meaningful for kUpdateActions (the
  // new actions) and whenever new_rules is set.
  uint32_t update = 0;
};
// Three words, so a pass's decisions stay small however many flows it dumps.
static_assert(sizeof(RevalDecision) == 24);

// What a decision applies beyond its scalars: the fresh attribution list
// (new_rules) and, for kUpdateActions, the fresh actions. Apply moves them
// into the flow.
struct RevalUpdate {
  RuleRefs rules;
  DpActions actions;
};

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

// One plan partition's scratch, reused from pass to pass: its translation
// scratch and the updates its decisions name. Partitions translate
// concurrently, so each owns its own (DESIGN.md §16).
struct RevalPartition {
  XlateScratch xlate;
  std::vector<RevalUpdate> updates;
  RevalPassStats stats;
};

// A pass's plan: one decision per dumped flow plus the partitions'
// scratch. Kept by the caller across passes, so a steady-state pass
// allocates nothing per flow.
class RevalPlan {
 public:
  std::vector<RevalDecision> decisions;

  // The update a decision names (kUpdateActions, or new_rules set).
  RevalUpdate& update(const RevalDecision& d) {
    return parts_[d.part].updates[d.update];
  }

 private:
  friend class Revalidator;
  std::vector<RevalPartition> parts_;
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

  // Plans one pass over `flows` (a datapath dump). Thread-safe against
  // concurrent fast-path traffic from datapath workers; the caller must
  // not mutate the datapath or the pipeline until plan() returns. Decisions
  // land at the flow's dump index, so the serial apply is deterministic
  // regardless of n_threads. `out` is reused: its previous decisions and
  // updates are discarded, its buffers kept.
  static RevalPassStats plan(Datapath& be, Pipeline& pl,
                             const std::vector<Datapath::FlowRef>& flows,
                             uint64_t now_ns, const Config& cfg,
                             RevalPlan* out);
};

}  // namespace ovs
