// Simulated NIC hardware-offload flow table (DESIGN.md §13): a small,
// fixed-capacity exact/TCAM-like match table consulted before the EMC.
//
// Each slot holds a *copy* of a megaflow — mask, pre-masked key, and an
// actions snapshot — the way a real NIC holds a programmed rule: the
// hardware forwards from its own copy, so a policy change leaves the slot
// stale until the control plane reprograms or invalidates it. Keeping the
// copy explicit (rather than a bit on the megaflow) is what lets the
// dp_check shadow-coherence invariant, the revalidator repair path, and the
// restart adopt-or-flush sweep all have something real to verify.
//
// The table itself is a passive single-threaded structure; placement policy
// (which megaflows earn a slot) lives in vswitchd (Switch::revalidate), and
// each datapath worker shard keeps its own copy, programmed in lockstep.
// Lookup cost is modeled as one flat CostModel::offload_probe regardless of
// the mask-group walk below — the walk simulates a TCAM's parallel match,
// it does not price it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "datapath/dp_actions.h"
#include "packet/match.h"
#include "util/miniflow.h"

namespace ovs {

class OffloadTable {
 public:
  struct Entry {
    FlowMask mask;
    FlowKey key;        // pre-masked, like Match::key
    DpActions actions;  // snapshot of the owner's actions at install/sync
    // The owning megaflow's flow handle, by which the control plane names
    // the slot in every copy of the table.
    void* owner = nullptr;
    // The megaflow entry a hit on this copy credits: the owner's replica in
    // the worker shard that holds this copy.
    void* replica = nullptr;
    // Bumped by the holding shard's worker only; relaxed atomics so the
    // control thread can read them while workers stream.
    mutable std::atomic<uint64_t> hits{0};
    mutable std::atomic<uint64_t> bytes{0};
    uint64_t installed_ns = 0;
  };

  explicit OffloadTable(size_t capacity) : capacity_(capacity) {}

  // First (and, megaflows being disjoint, only) matching slot; nullptr on
  // miss. Does not touch counters — the caller credits the hit.
  const Entry* probe(const FlowKey& pkt) const noexcept;

  // Programs a slot. Fails (returns false) when the table is full or the
  // owner already holds a slot.
  bool install(const Match& match, const DpActions& actions, void* owner,
               void* replica, uint64_t now_ns);
  // Invalidates the owner's slot; false when it holds none.
  bool evict(const void* owner);
  // Rewrites the owner's action snapshot in place (revalidator repair).
  bool sync_actions(const void* owner, const DpActions& actions);

  bool contains(const void* owner) const {
    return by_owner_.count(owner) != 0;
  }
  const Entry* find(const void* owner) const {
    auto it = by_owner_.find(owner);
    return it == by_owner_.end() ? nullptr : it->second;
  }

  void clear();
  size_t size() const noexcept { return n_entries_; }
  size_t capacity() const noexcept { return capacity_; }

  void for_each(const std::function<void(const Entry&)>& f) const;

  // Test-only corruption, mirroring Datapath::corrupt_entry: desynchronizes
  // the idx-th slot (modulo size) so the invariant checker has something to
  // catch. kStaleActions scrambles the action snapshot, kOrphanSlot points
  // the owner at a nonexistent flow (one sentinel shared by every table, so
  // copies corrupted in lockstep still name the slot alike), kInflateHits
  // makes the slot claim more traffic than its owner ever saw.
  enum class Corruption : uint8_t { kStaleActions, kOrphanSlot, kInflateHits };
  bool corrupt(size_t idx, Corruption kind);

 private:
  // One group per distinct mask, the kernel-TSS idiom: hash the packet's
  // mask-active words, then confirm with a masked compare.
  struct MaskGroup {
    FlowMask mask;
    MiniflowSchema schema;
    std::unordered_multimap<uint64_t, std::unique_ptr<Entry>> slots;
  };

  size_t capacity_;
  size_t n_entries_ = 0;
  std::vector<MaskGroup> groups_;
  std::unordered_map<const void*, Entry*> by_owner_;
};

}  // namespace ovs
