// A classifier rule. Callers embed Rule as a base of their own entry types
// (an OpenFlow flow, a megaflow cache entry) and retain ownership; the
// classifier only links rules in and out of its subtables, mirroring how OVS
// embeds `cls_rule` inside larger structs.
#pragma once

#include <cstdint>

#include "packet/match.h"

namespace ovs {

class Tuple;

class Rule {
 public:
  Rule(Match match, int32_t priority)
      : match_(match), priority_(priority) {
    match_.normalize();
  }
  virtual ~Rule() = default;

  Rule(const Rule&) = delete;
  Rule& operator=(const Rule&) = delete;

  const Match& match() const noexcept { return match_; }
  int32_t priority() const noexcept { return priority_; }

  bool in_classifier() const noexcept { return sub_ != nullptr; }

 private:
  friend class Tuple;
  friend class StagedTssEngine;

  Match match_;
  int32_t priority_;

  // Classifier-internal state (staged_tss.h).
  Rule* next_same_key_ = nullptr;  // same masked key, lower priority
  Tuple* sub_ = nullptr;           // owning subtable
  uint64_t key_hash_ = 0;  // hash of masked key over all words
};

}  // namespace ovs
