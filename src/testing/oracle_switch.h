// The model: a naive reference switch for differential testing.
//
// The real Switch is a tower of caches — EMC, megaflow cache, batching,
// upcall queues, revalidation, crash/restart reconciliation — all of which
// exist so the common case never runs the full pipeline. The OracleSwitch
// is the semantics those caches must preserve: it evaluates EVERY packet
// through a full ofproto::Pipeline translation (Pipeline::evaluate, the
// side-effect-free entry point), with no caches, no batching, and no
// revalidator, so its answer is by construction the ground truth.
//
// Epochs. Cached forwarding is not instant-update: after a flow-table
// mutation, installed megaflows legitimately keep forwarding with the old
// actions until a revalidation pass repairs them (§6 — invalidation is
// lazy, batched). So at any moment a packet's correct fate is not one
// action list but a SET: the result under any table state still "live" in
// some cache entry. The oracle models this by keeping one Pipeline per
// live epoch — a new epoch per mutation batch — and collapses to the
// newest epoch when the runner observes a clean revalidation pass (which
// proves no stale entry survives). Divergence means: the real switch
// produced a trace matching NO live epoch.
//
// Conntrack (DESIGN.md §15). ct_state is stamped into the flow key before
// classification, so megaflows depend on connection-table state exactly as
// they depend on the flow tables — and conntrack mutations (commit, remove,
// idle expiry, crash-flush) are epoch events like flow mods: a megaflow
// stamped with the pre-mutation ct_state legitimately serves until the next
// revalidation pass. Each epoch's pipeline replays the ct mutation log
// through the same ConnTracker implementation the switch runs (same caps,
// same LRU, same timestamps), so eviction/expiry order is bit-identical on
// both sides.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "datapath/dp_actions.h"
#include "ofproto/pipeline.h"
#include "packet/packet.h"

namespace ovs::fuzz {

class OracleSwitch {
 public:
  explicit OracleSwitch(size_t n_tables = 8, ClassifierConfig cls_cfg = {},
                        ConnTrackerConfig ct_cfg = {});

  // Durable-config mutations, mirroring Switch::add_port / remove_port /
  // add_flow / del_flows semantics exactly (same parser, same loose-match
  // delete expansion). Flow mutations open a new epoch; port mutations
  // apply to every live epoch (megaflow actions cache output ports, so a
  // stale entry can still forward to a removed port — the packet fate set
  // under the OLD tables does not change when ports churn, because
  // translation consults the port list only for NORMAL floods, which
  // generated scenarios never use). Returns "" or a parse error.
  std::string add_flow(const std::string& text);
  std::string del_flows(const std::string& text);
  void add_port(uint32_t port);
  void remove_port(uint32_t port);

  // Conntrack mutations, applied in lockstep with the same call on the real
  // switch (Switch::ct_commit / ct_commit_nat / ct_remove). Each opens a
  // new epoch, like a flow mod. No-op writes (removing an unknown
  // connection, ticking past nothing expirable) are skipped entirely so the
  // epoch set does not grow on non-events.
  void ct_commit(const FlowKey& key, uint16_t zone, uint64_t now_ns);
  void ct_commit_nat(const FlowKey& key, const CtNatSpec& nat, uint16_t zone,
                     uint64_t now_ns);
  void ct_remove(const FlowKey& key, uint16_t zone);
  // Mirrors the switch's run_maintenance-time ConnTracker::expire_idle: call
  // with every maintenance timestamp BEFORE the switch's pass, so the
  // post-expiry table is a live epoch when the pass's clean revalidation
  // collapses to it.
  void ct_tick(uint64_t now_ns);
  // Mirrors crash(): conntrack is userspace state and dies with the daemon.
  void ct_flush();

  // Newest epoch's connection table (test introspection).
  const ConnTracker& conntrack() const noexcept {
    return epochs_.back().pipe->conntrack();
  }

  // Drops every epoch but the newest. Call when the real switch completes
  // a clean revalidation pass or a restart reconciliation: both prove all
  // cached entries agree with the current tables.
  void collapse();

  size_t epoch_count() const noexcept { return epochs_.size(); }

  // Ground-truth action list under the NEWEST tables.
  DpActions current(const FlowKey& pkt, uint64_t now_ns) const;

  // The acceptable set: the packet's normalized action list under every
  // live epoch, deduplicated (oldest epoch first).
  std::vector<DpActions> acceptable(const FlowKey& pkt,
                                    uint64_t now_ns) const;

 private:
  struct Mutation {
    enum class Kind : uint8_t {
      kAddFlow,
      kDelFlows,
      kCtCommit,
      kCtRemove,
      kCtTick,
      kCtFlush,
    } kind;
    std::string text;       // kAddFlow / kDelFlows
    FlowKey key;            // kCtCommit / kCtRemove
    uint16_t zone = 0;      // kCtCommit / kCtRemove
    uint64_t t = 0;         // kCtCommit (commit time) / kCtTick (expiry time)
    bool has_nat = false;   // kCtCommit
    CtNatSpec nat;          // kCtCommit, when has_nat
  };

  void push_mutation(Mutation m);

  // Builds a fresh Pipeline by replaying mutations [0, n) of the log.
  std::unique_ptr<Pipeline> build_epoch(size_t n_mutations) const;

  size_t n_tables_;
  ClassifierConfig cls_cfg_;
  ConnTrackerConfig ct_cfg_;
  std::vector<uint32_t> ports_;
  std::vector<Mutation> log_;
  struct Epoch {
    size_t log_len;  // mutations applied to this epoch's pipeline
    std::unique_ptr<Pipeline> pipe;
  };
  std::vector<Epoch> epochs_;  // oldest first; back() is current
};

}  // namespace ovs::fuzz
