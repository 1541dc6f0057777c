// One OpenFlow flow table: a classifier of OfRule entries with OpenFlow
// add/modify/delete semantics (§3.3).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "classifier/classifier.h"
#include "ofproto/actions.h"

namespace ovs {

// OpenFlow-style flow expiry configuration (0 = no timeout).
struct FlowTimeouts {
  uint64_t idle_ns = 0;
  uint64_t hard_ns = 0;
};

class OfRule : public Rule {
 public:
  OfRule(Match match, int32_t priority, OfActions actions, uint64_t cookie,
         FlowTimeouts timeouts = {}, uint64_t created_ns = 0)
      : Rule(match, priority),
        actions_(std::move(actions)),
        cookie_(cookie),
        timeouts_(timeouts),
        created_ns_(created_ns),
        used_ns_(created_ns) {}

  const OfActions& actions() const noexcept { return actions_; }
  uint64_t cookie() const noexcept { return cookie_; }
  const FlowTimeouts& timeouts() const noexcept { return timeouts_; }
  uint64_t created_ns() const noexcept { return created_ns_; }

  // Per-flow statistics (§6): updated periodically by the daemon from
  // datapath flow stats, so they lag real traffic by up to a poll period
  // ("OpenFlow statistics are themselves only periodically updated").
  uint64_t packets() const noexcept { return packets_; }
  uint64_t bytes() const noexcept { return bytes_; }
  uint64_t used_ns() const noexcept { return used_ns_; }

  void add_stats(uint64_t packets, uint64_t bytes,
                 uint64_t now_ns) const noexcept {
    packets_ += packets;
    bytes_ += bytes;
    if (packets > 0 && now_ns > used_ns_) used_ns_ = now_ns;
  }

 private:
  friend class FlowTable;
  OfActions actions_;
  uint64_t cookie_;
  FlowTimeouts timeouts_;
  uint64_t created_ns_ = 0;
  mutable uint64_t packets_ = 0;
  mutable uint64_t bytes_ = 0;
  mutable uint64_t used_ns_ = 0;
};

class FlowTable {
 public:
  enum class MissBehavior : uint8_t { kDrop, kController };

  explicit FlowTable(ClassifierConfig cfg = {}) : cls_(cfg) {}

  // Adds a flow; an existing flow with the same match and priority is
  // replaced (OpenFlow semantics). Returns the rule.
  const OfRule* add_flow(const Match& match, int32_t priority,
                         OfActions actions, uint64_t cookie = 0,
                         FlowTimeouts timeouts = {}, uint64_t now_ns = 0);

  // Removes flows past their idle/hard timeouts. Returns how many expired.
  size_t expire_flows(uint64_t now_ns);

  // Deletes the flow exactly matching (match, priority). Returns success.
  bool delete_flow(const Match& match, int32_t priority);

  // Deletes all flows with the given cookie; returns how many.
  size_t delete_by_cookie(uint64_t cookie);

  // Loose-match deletion (ovs-ofctl del-flows semantics): removes every
  // flow whose match includes all of the filter's criteria with the same
  // values. An empty filter deletes everything.
  size_t delete_where(const Match& filter);

  void clear();

  const OfRule* lookup(const FlowKey& pkt,
                       FlowWildcards* wc = nullptr) const noexcept {
    return static_cast<const OfRule*>(cls_.lookup(pkt, wc));
  }

  // Batched lookup: out[i] (and wcs[i], if given) receive exactly what
  // lookup(keys[i], &wcs[i]) would produce, through the classifier engine's
  // batch path. Results are the classifier's Rule pointers (every rule in
  // a flow table is an OfRule; casting an OfRule** to Rule** would be UB),
  // so the caller downcasts each one — for free — and no temporary array
  // is needed.
  void lookup_batch(const FlowKey* keys, size_t n, const Rule** out,
                    FlowWildcards* wcs = nullptr) const {
    cls_.lookup_batch(keys, n, out, wcs);
  }

  size_t flow_count() const noexcept { return cls_.rule_count(); }
  size_t tuple_count() const noexcept { return cls_.tuple_count(); }

  // Bumped on every modification; revalidators use it to detect staleness.
  uint64_t generation() const noexcept { return generation_; }

  MissBehavior miss_behavior() const noexcept { return miss_; }
  void set_miss_behavior(MissBehavior m) noexcept { miss_ = m; }

  const Classifier& classifier() const noexcept { return cls_; }

  template <typename F>
  void for_each(F&& f) const {
    cls_.for_each_rule(
        [&](const Rule* r) { f(static_cast<const OfRule*>(r)); });
  }

 private:
  void remove_rule(OfRule* r);

  Classifier cls_;
  std::vector<std::unique_ptr<OfRule>> rules_;
  uint64_t generation_ = 0;
  MissBehavior miss_ = MissBehavior::kDrop;
};

}  // namespace ovs
