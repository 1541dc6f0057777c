// Differential runner: replay a Scenario against the real Switch under a
// given configuration and diff its observable behaviour against the
// OracleSwitch model, plus a delta-debugging shrinker that minimizes a
// diverging scenario to a near-minimal reproducer.
//
// What is checked, per replay:
//
//   1. Per-packet action traces (Switch trace hook). Every packet injected
//      while no fault window or crash is in effect must produce EXACTLY ONE
//      trace whose action list matches some oracle epoch alive when the
//      packet entered (stale-but-not-yet-revalidated megaflows are legal,
//      so the acceptable answer is a set, not a point — see
//      oracle_switch.h). Packets in the shadow of a fault window or crash
//      are intentionally unchecked: drops, duplicates, and late
//      redeliveries are all legal there, and the converged end state below
//      is what must still be right.
//   2. Convergence. After the scenario the runner ticks maintenance until
//      the switch is serving, revalidation passes clean, and all queues
//      drain; failure to converge within a bounded number of ticks is
//      itself a divergence.
//   3. End-of-run probes. Every distinct flow key the scenario injected is
//      probed once more against the fully converged switch and must match
//      the oracle's current tables — exactly-once when the scenario armed
//      no fault windows, every-trace-matches otherwise.
//   4. Ledger invariants (the Switch::Counters upcall/install equalities)
//      and the megaflow invariant checker (Switch::self_check).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sim/clock.h"
#include "testing/oracle_switch.h"
#include "testing/scenario.h"
#include "vswitchd/switch.h"

namespace ovs::fuzz {

// One point in the configuration lattice the harness sweeps: every replay
// semantics the switch supports must agree with the one oracle.
struct DiffConfig {
  std::string name;
  size_t datapath_workers = 0;  // datapath worker shards (0 or 1 = one)
  size_t rx_batch = 1;          // 1 = per-packet inject, >1 = inject_batch
  RevalidationMode reval_mode = RevalidationMode::kTwoTier;
  size_t revalidator_threads = 1;
  // NIC offload tier capacity (DESIGN.md §13); 0 = off. The oracle is
  // cache-free, so offload-on replays check that slot placement, eviction,
  // and crash/restart reconciliation never change which actions a packet
  // receives — only which tier served them.
  size_t offload_slots = 0;
  // Per-tenant classifier partitioning (DESIGN.md §14). The oracle never
  // partitions, so partition-on replays check that segregating exact-
  // metadata rules is semantics-preserving end to end (it must be: a rule
  // exact on metadata != the packet's can never match).
  bool tenant_partition = false;
  // Conntrack-generation revalidation dirtiness (DESIGN.md §15). true for
  // every sound config; false is the deliberately-unsound ablation where
  // megaflows stamped with stale ct_state survive revalidation forever.
  bool ct_reval_dirty = true;

  SwitchConfig to_switch_config() const;
};

// The 10 sound configurations: {one, four datapath workers} x {per-packet,
// batched} x {kFull, kTwoTier}, plus one offload-on point per worker count.
std::vector<DiffConfig> standard_configs();

// The classifier-configuration points beyond the standard lattice: the
// tenant-partitioned classifier ("partitioned").
std::vector<DiffConfig> engine_configs();

// The deliberately unsound configuration: historical kTags revalidation,
// whose Bloom tags track only MAC learning and therefore skip repairing
// flows invalidated by table changes. The harness must detect this.
DiffConfig tags_ablation_config();

// The second unsound ablation (DESIGN.md §15): conntrack generation ignored
// as a revalidation dirtiness source, so megaflows stamped with a stale
// ct_state keep forwarding with it after the connection table changed
// underneath them. The harness must detect this one too.
DiffConfig ct_ablation_config();

struct Divergence {
  std::string config;  // DiffConfig::name
  std::string kind;    // "trace" | "probe" | "orphan" | "converge" |
                       // "ledger" | "self_check" | "mutation"
  std::string detail;  // human-readable description
  size_t event_index = 0;  // scenario event it anchors to (0 if global)

  std::string to_string() const;
};

struct RunnerOptions {
  ReplayClock::Quanta quanta;
  size_t max_converge_ticks = 32;
  size_t drain_rounds = 2;  // handle_upcalls calls per drain (2nd serves
                            // fault-delayed upcalls)
};

class DifferentialRunner {
 public:
  explicit DifferentialRunner(RunnerOptions opts = {}) : opts_(opts) {}

  // Replays `sc` against a Switch built from `cfg`; returns the first
  // divergence, or nullopt when the replay matches the oracle.
  std::optional<Divergence> run(const Scenario& sc, const DiffConfig& cfg);

  // Replays against every config; returns all divergences found.
  std::vector<Divergence> run_all(const Scenario& sc,
                                  const std::vector<DiffConfig>& cfgs);

  // Delta-debugging (ddmin-style) minimization: repeatedly removes event
  // chunks while the scenario still diverges under `cfg`. Every FuzzEvent
  // is a total operation (any subsequence is a valid scenario), so plain
  // chunk removal is sound. Returns the minimized scenario.
  Scenario shrink(const Scenario& sc, const DiffConfig& cfg);

 private:
  RunnerOptions opts_;
};

// Reproducer corpus I/O: serialized Scenario plus '#'-comment header lines
// describing the divergence. Returns false on I/O or parse failure.
bool save_scenario(const std::string& path, const Scenario& sc,
                   const std::string& header_comment);
bool load_scenario(const std::string& path, Scenario* out);

}  // namespace ovs::fuzz
