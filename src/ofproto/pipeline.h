// The userspace OpenFlow pipeline and its translation ("xlate") step.
//
// Translation is the megaflow generator (§4.2): it runs a packet through the
// flow tables (following resubmits, register writes, NORMAL processing, up
// to a connection-tracking action), collects the flattened datapath
// actions, and tracks every key bit the decision consulted. The resulting
// (mask, masked key, actions) triple is exactly what userspace installs
// into the datapath.
//
// Field rewrites are handled the way OVS does: once an action sets a field,
// later reads of that field observe the written value and therefore must
// NOT unwildcard the original packet bits — the translation suppresses
// wildcard contributions on rewritten bits.
//
// Connection tracking runs in the datapath, as in OVS (DESIGN.md §15).
// Translation stops at a `ct` action: it emits ct(zone, commit, nat) plus
// recirc(id) (one CtAction), where `id` names the frozen state translation
// resumes from (ofproto/recirc.h). The datapath runs the tracker per
// packet, stamps ct_state and recirc_id and looks the packet up again; a
// miss translates from the frozen state. Every megaflow matches recirc_id exactly, so a
// pre-ct flow never captures a recirculated packet. Neither stage reads the
// connection table, so megaflows are a function of the flow tables and MAC
// learning alone (§6), and a stateful megaflow covers every connection its
// mask allows, not one.
//
// Simplifications vs. real OVS (documented substitutions):
//   * ct ends the whole translation: actions after it, in its rule and in
//     the rules that resubmitted to it, are dropped instead of being frozen
//     into the recirculation;
//   * the frozen state is the table to resume in; registers and metadata
//     need no freezing because the datapath key carries them.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "datapath/conntrack.h"
#include "datapath/dp_actions.h"
#include "datapath/dp_shared.h"
#include "ofproto/flow_table.h"
#include "ofproto/mac_learning.h"
#include "ofproto/recirc.h"
#include "packet/packet.h"

namespace ovs {

struct XlateResult {
  Match megaflow;          // generated cache entry match
  DpActions actions;       // flattened datapath actions
  bool to_controller = false;
  // Resubmit depth exceeded, or the packet's recirc_id names no frozen
  // state: a drop flow.
  bool error = false;
  // Translation stopped at a ct action: `actions` ends in it, and the
  // recirculated packet resumes from `frozen`. Its recirc id is 0 when a
  // translation without side effects found no id naming the state.
  bool froze = false;
  FrozenState frozen;
  uint32_t table_lookups = 0;  // classifier lookups performed (§3.2: ~15
                               // for network-virtualization pipelines)
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

  explicit Pipeline(size_t n_tables = 8, ClassifierConfig cls_cfg = {});

  FlowTable& table(size_t i) { return *tables_[i]; }
  const FlowTable& table(size_t i) const { return *tables_[i]; }
  size_t n_tables() const noexcept { return tables_.size(); }

  MacLearning& mac_learning() noexcept { return mac_; }
  const MacLearning& mac_learning() const noexcept { return mac_; }
  // The connection table evaluate() previews ct actions against (the
  // datapath's; non-owning). Without one it previews an empty table.
  void set_conntrack(const ConnTracker* ct) noexcept { ct_ = ct; }

  RecircTable& recirc() noexcept { return recirc_; }
  const RecircTable& recirc() const noexcept { return recirc_; }
  // Names a translation's frozen state when it has no id yet (retries,
  // which translate without side effects): interns it and patches the
  // closing ct action.
  void name_frozen(XlateResult& xr);
  // Interns the frozen state of every ct action in the tables, so
  // translations without side effects find them all (restart
  // reconciliation, whose table starts empty).
  void name_ct_frozen_states();

  void add_port(uint32_t port);
  void remove_port(uint32_t port);
  const std::vector<uint32_t>& ports() const noexcept { return ports_; }

  // Translates a packet through the pipeline into scratch.result, which it
  // returns: from table 0, or, for a recirculated packet (recirc_id != 0),
  // from the frozen state its id names. Non-const: NORMAL learns MACs; a
  // ct action interns its frozen state. Pass side_effects=false for
  // revalidation re-translations, which must observe but not mutate soft
  // state (§6); they look frozen states up instead of interning them.
  XlateResult& translate(const FlowKey& pkt, uint64_t now_ns,
                         XlateScratch& scratch, bool side_effects = true);
  // The same, into a fresh result (tests and tools; allocates only what a
  // fresh result needs).
  XlateResult translate(const FlowKey& pkt, uint64_t now_ns,
                        bool side_effects = true);

  // Side-effect-free single-packet evaluation: what would this pipeline do
  // with `pkt` right now? The packet's whole flattened fate: each stage's
  // translation (side_effects=false), and at each ct the tracker's verdict
  // (NAT rewrite as set-fields, ct_state stamped), composed up to
  // kMaxRecircDepth recirculations exactly as the datapath composes them.
  // Each ct of the chain sees the commits of the ones before it
  // (ConnTracker::ChainPreview), as the datapath's do. No learning, no
  // commits to the tracker, no ids. A const entry point so
  // model-based oracles (the differential fuzz harness's OracleSwitch,
  // src/testing/) can evaluate against a pipeline they hold by const
  // reference. `megaflow` is the first stage's.
  XlateResult evaluate(const FlowKey& pkt, uint64_t now_ns) const;

  // Total flows across all tables.
  size_t flow_count() const noexcept;

  // Expires OpenFlow rules past their idle/hard timeouts in every table.
  size_t expire_flows(uint64_t now_ns);

  // Changes whenever translation results may change: flow table mods, MAC
  // learning changes, port changes. Conntrack never changes a translation.
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
  // From table 0, or from `resume` (default: the frozen state the packet's
  // recirc_id names).
  void translate_into(const FlowKey& pkt, uint64_t now_ns, bool side_effects,
                      XlateResult& res, const FrozenState* resume = nullptr);
  void xlate_table(XlateCtx& ctx, size_t table_id, int depth);
  void do_normal(XlateCtx& ctx);
  void do_ct(XlateCtx& ctx, const OfCt& ct);

  std::vector<std::unique_ptr<FlowTable>> tables_;
  MacLearning mac_;
  const ConnTracker* ct_ = nullptr;
  RecircTable recirc_;
  std::vector<uint32_t> ports_;
  uint64_t port_generation_ = 0;
};

}  // namespace ovs
