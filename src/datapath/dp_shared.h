// Definitions shared by both datapath backends (the single-threaded
// `Datapath` and the multi-worker `ShardedDatapath`): the per-flow userspace
// record both entry types embed, and the default configuration constants.
// Before this header each backend carried its own copy of these constants;
// keeping one definition means the two backends stay configured identically
// by default — which the backend-equivalence property tests rely on — and a
// tuning change cannot silently apply to one backend only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ovs {

class OfRule;

// Userspace state of one datapath flow (the udpif key's bookkeeping in real
// OVS), embedded in the flow's entry so it is born zeroed with the flow and
// dies with it. The datapath never reads it: vswitchd writes it on the
// control thread; revalidator plan threads read `tags` only.
struct FlowRecord {
  // Bloom tags of the soft state this flow's actions depend on (the
  // historical tag-based invalidation scheme of §6, and the kTwoTier fast
  // path).
  uint64_t tags = 0;

  // Attribution for OpenFlow flow statistics (§6): which rules this flow's
  // traffic counts against, and how much has already been pushed to them.
  // A flow that was never (re-)translated has no attribution (`captured`
  // false) and pushes nothing.
  std::vector<const OfRule*> rules;
  uint64_t pushed_packets = 0;
  uint64_t pushed_bytes = 0;
  // Pipeline *tables* generation when `rules` was captured; the pointers
  // are only dereferenced while it is unchanged (OfRule objects can only be
  // deleted by a table modification, which bumps it — MAC moves and port
  // changes leave the pointers intact).
  uint64_t captured_gen = 0;

  // Offload placement state (DESIGN.md §13), once a dump has seen the flow.
  double ewma = 0.0;          // smoothed packets per dump interval
  uint64_t last_packets = 0;  // flow packets at the previous dump

  bool captured = false;   // `rules` holds a translation's attribution
  bool seen = false;       // placement has scored this flow at least once
  bool offloaded = false;  // mirror of the backend's offload_contains()
};

}  // namespace ovs

namespace ovs::dpdefault {

// Miss queue to userspace (upcalls beyond this are dropped, ENOBUFS-style).
inline constexpr size_t kMaxUpcallQueue = 4096;

// Exact-match (microflow) cache capacity. The single-threaded datapath
// arranges this as ways * sets; the sharded datapath gives each worker a
// ConcurrentEmc shard of the same total size.
inline constexpr size_t kEmcWays = 2;
inline constexpr size_t kEmcSets = 4096;
inline constexpr size_t kEmcCapacity = kEmcWays * kEmcSets;

// Probabilistic EMC insertion (§7.3, OVS emc-insert-inv-prob): insert a
// missed microflow with probability 1/N. 1 = always insert; the EMC-thrash
// degradation policy raises it at runtime on both backends.
inline constexpr uint32_t kEmcInsertInvProb = 1;

// Seed for pseudo-random EMC replacement / probabilistic insertion (§6).
inline constexpr uint64_t kDpSeed = 0xDA7A;

}  // namespace ovs::dpdefault
