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
//     the pipeline generation counters and the per-flow Bloom tags first,
//     skipping the full re-translation for flows whose inputs cannot have
//     changed.
//   * apply — the control thread walks the verdicts in dump order and
//     performs every mutation: batched deletes, RCU action swaps
//     (update_actions), attribution refresh, statistics pushes. Keeping all
//     writes on one thread preserves the backends' single-writer contract
//     and makes the pass outcome independent of the thread count.
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
  uint64_t tags = 0;                         // Bloom tags to store
  std::vector<const OfRule*> matched_rules;  // new attribution list
  DpActions actions;                         // kUpdateActions only
};

struct RevalPassStats {
  uint64_t examined = 0;
  uint64_t retranslated = 0;     // flows that paid a full re-translation
  uint64_t skipped_by_tags = 0;  // flows the tag fast path short-circuited
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
