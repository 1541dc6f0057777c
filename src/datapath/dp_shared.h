// Datapath definitions that the translation layer uses without the
// datapath itself: the per-flow userspace record each megaflow entry
// embeds, and the rule attribution list it keeps.
#pragma once

#include <cstdint>

#include "util/inline_vec.h"

namespace ovs {

class OfRule;

// The OpenFlow rules a translation matched, in order (one per table it
// visited): a translation's attribution list and the copy a flow's record
// keeps. The NVP pipelines match four, so four live inline.
using RuleRefs = InlineVec<const OfRule*, 4>;

// Userspace state of one datapath flow (the udpif key's bookkeeping in real
// OVS), embedded in the flow's entry so it is born zeroed with the flow and
// dies with it. The datapath never reads it: vswitchd writes it on the
// control thread; revalidator plan threads read `tags` and `rules` only.
struct FlowRecord {
  // Bloom tags of the soft state this flow's actions depend on (the
  // historical tag-based invalidation scheme of §6, and the kTwoTier fast
  // path).
  uint64_t tags = 0;

  // Attribution for OpenFlow flow statistics (§6): which rules this flow's
  // traffic counts against, and how much has already been pushed to them.
  // A flow that was never (re-)translated has no attribution (`captured`
  // false, `rules` empty) and pushes nothing. Inline up to four rules, so
  // the record needs no heap block of its own on the NVP pipelines.
  RuleRefs rules;
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
  bool offloaded = false;  // mirror of the datapath's offload_contains()
};
// Every megaflow entry embeds a record: 96 bytes, 40 of them the inline
// attribution list, with no heap chunk beside it for the common depth.
static_assert(sizeof(FlowRecord) == 96);

}  // namespace ovs
