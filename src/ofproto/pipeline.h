// The userspace OpenFlow pipeline and its translation ("xlate") step.
//
// Translation is the megaflow generator (§4.2): it runs a packet through the
// flow tables (following resubmits, register writes, NORMAL processing,
// connection tracking), collects the flattened datapath actions, and tracks
// every key bit the decision consulted. The resulting (mask, masked key,
// actions) triple is exactly what userspace installs into the datapath.
//
// Field rewrites are handled the way OVS does: once an action sets a field,
// later reads of that field observe the written value and therefore must
// NOT unwildcard the original packet bits — the translation suppresses
// wildcard contributions on rewritten bits.
//
// Simplifications vs. real OVS (documented substitutions):
//   * `ct` recirculation is folded into translation: the connection state is
//     stamped during xlate and the consulted 5-tuple becomes part of the
//     megaflow, so ct-using pipelines produce per-connection megaflows.
//     Because ct_state feeds classification, megaflows DEPEND on conntrack
//     state. Each translation records the connection its ct lookup
//     consulted (XlateResult::ct_key), and the tracker records the
//     connections that changed (ConnTracker's changed set), so the next
//     revalidation pass re-translates exactly the flows whose connection
//     was committed, torn down, evicted or expired (ct_reval_dirty).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "datapath/dp_actions.h"
#include "datapath/dp_shared.h"
#include "ofproto/conntrack.h"
#include "ofproto/flow_table.h"
#include "ofproto/mac_learning.h"
#include "packet/packet.h"

namespace ovs {

struct XlateResult {
  Match megaflow;          // generated cache entry match
  DpActions actions;       // flattened datapath actions
  bool to_controller = false;
  bool error = false;      // resubmit depth exceeded
  // Conntrack dependency (DESIGN.md §15): how many ct lookups the
  // translation made, and (ct_key) the ConnRef::dep() key of the last one.
  // One lookup makes the result depend on that connection alone; more make
  // it depend on any ct change.
  uint8_t ct_lookups = 0;
  uint32_t table_lookups = 0;  // classifier lookups performed (§3.2: ~15
                               // for network-virtualization pipelines)
  uint32_t ct_key = 0;
  uint64_t tags = 0;       // Bloom tags of consulted soft state (§6 ablation)
  // Every OpenFlow rule the packet matched, in order: the attribution list
  // for per-flow statistics (§6). Pointers are valid until the next flow
  // table modification (which bumps Pipeline::generation()).
  RuleRefs matched_rules;
};

// Translation scratch, owned by the caller and reused from one translation
// to the next (DESIGN.md §16): the result every translation writes into,
// whose action and attribution lists keep their storage. Translating
// through it allocates nothing once it has seen its deepest translation
// (and nothing at all within the lists' inline depth). Each concurrent
// translator owns its own — the Switch one for upcalls and retries, each
// revalidator plan partition one — and none lives in the Pipeline, whose
// read-only translations run on several threads at once.
struct XlateScratch {
  // Every field is reset by each translation.
  XlateResult result;
};

class Pipeline {
 public:
  static constexpr size_t kMaxTables = 16;
  static constexpr int kMaxResubmitDepth = 64;

  explicit Pipeline(size_t n_tables = 8, ClassifierConfig cls_cfg = {},
                    ConnTrackerConfig ct_cfg = {});

  FlowTable& table(size_t i) { return *tables_[i]; }
  const FlowTable& table(size_t i) const { return *tables_[i]; }
  size_t n_tables() const noexcept { return tables_.size(); }

  MacLearning& mac_learning() noexcept { return mac_; }
  const MacLearning& mac_learning() const noexcept { return mac_; }
  ConnTracker& conntrack() noexcept { return ct_; }
  const ConnTracker& conntrack() const noexcept { return ct_; }

  void add_port(uint32_t port);
  void remove_port(uint32_t port);
  const std::vector<uint32_t>& ports() const noexcept { return ports_; }

  // Translates a packet through the pipeline starting at table 0, into
  // scratch.result, which it returns. Non-const: NORMAL learns MACs;
  // ct(commit) commits connections. Pass side_effects=false for
  // revalidation re-translations, which must observe but not mutate soft
  // state (§6).
  XlateResult& translate(const FlowKey& pkt, uint64_t now_ns,
                         XlateScratch& scratch, bool side_effects = true);
  // The same, into a fresh result (tests and tools; allocates only what a
  // fresh result needs).
  XlateResult translate(const FlowKey& pkt, uint64_t now_ns,
                        bool side_effects = true);

  // Side-effect-free single-packet evaluation: what would this pipeline do
  // with `pkt` right now? Exactly translate(pkt, now_ns, side_effects=false)
  // — classifier, MAC and conntrack lookups only, no learning and no
  // commits — packaged as a const entry point so model-based oracles (the
  // differential fuzz harness's OracleSwitch, src/testing/) can evaluate
  // against a pipeline they hold by const reference.
  XlateResult evaluate(const FlowKey& pkt, uint64_t now_ns) const;

  // Total flows across all tables.
  size_t flow_count() const noexcept;

  // Expires OpenFlow rules past their idle/hard timeouts in every table.
  size_t expire_flows(uint64_t now_ns);

  // Changes whenever translation results may change: flow table mods, MAC
  // learning changes, port changes. Conntrack mutations are deliberately
  // excluded here and tracked via conntrack().generation() instead — the
  // Switch layer combines the two, which is what lets the differential
  // harness ablate ct-driven revalidation independently (ct_reval_dirty).
  uint64_t generation() const noexcept;

  // Changes only on flow-table modifications — the events that can delete
  // OfRule objects. XlateResult::matched_rules pointers are exactly as
  // durable as this counter: attribution held across MAC moves stays valid,
  // which is what lets the two-tier revalidator keep pushing statistics for
  // flows its tag fast path never re-translates.
  uint64_t tables_generation() const noexcept;

  // Changes on add_port / remove_port only.
  uint64_t ports_generation() const noexcept { return port_generation_; }

 private:
  struct XlateCtx;
  void translate_into(const FlowKey& pkt, uint64_t now_ns, bool side_effects,
                      XlateResult& res);
  void xlate_table(XlateCtx& ctx, size_t table_id, int depth);
  void do_normal(XlateCtx& ctx);
  void do_ct(XlateCtx& ctx, const OfCt& ct, int depth);

  std::vector<std::unique_ptr<FlowTable>> tables_;
  MacLearning mac_;
  ConnTracker ct_;
  std::vector<uint32_t> ports_;
  uint64_t port_generation_ = 0;
};

}  // namespace ovs
