// Bounded connection tracker (paper §8.1: "an ongoing effort to provide a
// new OpenFlow action that invokes a kernel module that provides ...
// connection state (new, established, related)").
//
// Connections are keyed by the bidirectional 5-tuple plus a zone; the CT
// action stamps ct_state into the flow key so subsequent tables can match on
// it, exactly like the OVS `ct` action feeding `ct_state` matches. Beyond
// the minimal lookup/commit tracker this adds the production-shaped pieces
// (DESIGN.md §15):
//
//   * bounded capacity with per-zone limits and LRU eviction — a stateful
//     table is a resource-exhaustion surface exactly like the megaflow mask
//     list (§14), so it gets the same bounded-memory treatment;
//   * idle expiry driven by virtual time, with the determinism contract
//     that lookups NEVER refresh last-seen — only commits do — so the
//     table's contents are a pure function of the commit/remove/expire
//     event sequence (what lets the differential oracle mirror it);
//   * SNAT/DNAT bindings: a committed NAT connection stores the forward
//     rewrite and stamps a reverse-direction entry keyed on the post-NAT
//     tuple carrying the inverse rewrite, so replies un-NAT statelessly.
//
// Self-connections (src==dst addr AND port): the two directions of such a
// tuple are literally the same packet, so "reply" is undecidable from the
// wire. They are marked kSymmetric instead of ever setting kReply — the
// deterministic resolution of the old canonical-order ambiguity.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "packet/flow_key.h"
#include "util/hash.h"

namespace ovs {

namespace ct_state {
inline constexpr uint8_t kNew = 0x01;
inline constexpr uint8_t kEstablished = 0x02;
inline constexpr uint8_t kReply = 0x04;
// Fully symmetric 5-tuple (self-connection): direction undecidable, so the
// reply bit is never set and this bit is stamped instead.
inline constexpr uint8_t kSymmetric = 0x08;
}  // namespace ct_state

namespace tcpflags {
inline constexpr uint16_t kFin = 0x01;
inline constexpr uint16_t kRst = 0x04;
}  // namespace tcpflags

// NAT binding requested at commit time: rewrite the source (SNAT) or the
// destination (DNAT) of forward-direction packets to (addr, port).
struct CtNatSpec {
  bool src = true;  // true = SNAT, false = DNAT
  uint32_t addr = 0;
  uint16_t port = 0;
  bool operator==(const CtNatSpec&) const noexcept = default;
};

struct ConnTrackerConfig {
  size_t max_entries = 0;        // 0 = unbounded
  size_t max_per_zone = 0;       // 0 = no per-zone cap
  uint64_t idle_timeout_ns = 0;  // 0 = entries never idle out
  // Global-cap eviction policy: true evicts the LRU entry of the LARGEST
  // zone (an attacker zone churning connections cannot displace a quiet
  // victim zone's state); false evicts the globally least-recent entry
  // (the bench ablation showing why fairness matters).
  bool fair_eviction = true;
};

class ConnTracker {
 public:
  // A connection's identity: both directions of a 5-tuple in one zone map
  // to one key (endpoints in canonical order).
  struct ConnKey {
    uint64_t lo_addr = 0, hi_addr = 0;  // normalized endpoint order
    uint32_t lo_port = 0, hi_port = 0;
    uint8_t proto = 0;
    uint16_t zone = 0;

    bool operator==(const ConnKey&) const noexcept = default;
    // Lane-parallel (util/hash.h): the four words mix independently.
    uint64_t hash() const noexcept {
      return hash_finish(
          flow_word_lane(0, lo_addr) + flow_word_lane(1, hi_addr) +
          flow_word_lane(2, (uint64_t{lo_port} << 32) | hi_port) +
          flow_word_lane(3, (uint64_t{zone} << 8) | proto));
    }
  };

  // One ct action's view of the packet, built and hashed once: lookup,
  // nat_lookup and the translation's revalidation dependency all reuse it.
  struct ConnRef {
    ConnKey key;
    uint64_t hash = 0;    // key.hash()
    bool lo_dir = true;   // (src, sport) is the canonically-low endpoint
    // The 32-bit key a megaflow records and the changed set holds (one
    // function for both, so a collision only costs a re-translation).
    uint32_t dep() const noexcept { return dep_of(hash); }
  };
  static ConnRef ref(const FlowKey& key, uint16_t zone) noexcept;

  ConnTracker() = default;
  explicit ConnTracker(const ConnTrackerConfig& cfg) : cfg_(cfg) {}
  // Not copyable: each Entry::lru is an iterator into this tracker's own
  // zones_ lists, so a memberwise copy would point into the original.
  // Moves keep the list nodes, and with them every iterator.
  ConnTracker(const ConnTracker&) = delete;
  ConnTracker& operator=(const ConnTracker&) = delete;
  ConnTracker(ConnTracker&&) = default;
  ConnTracker& operator=(ConnTracker&&) = default;

  // Connection state of the packet's 5-tuple (direction-normalized). Const
  // and time-free by design: state transitions happen only via commit /
  // remove / expire_idle, so two trackers fed the same mutation sequence
  // answer identically regardless of when lookups happened in between.
  uint8_t lookup(const ConnRef& r) const noexcept;
  uint8_t lookup(const FlowKey& key, uint16_t zone = 0) const noexcept {
    return lookup(ref(key, zone));
  }

  // The NAT rewrite this packet should receive, if its connection carries a
  // binding applying in the packet's direction: forward packets get the
  // committed rewrite, replies (via the reverse entry) the inverse.
  struct NatRewrite {
    bool to_src = false;  // rewrite source (else destination)
    uint32_t addr = 0;
    uint16_t port = 0;
  };
  std::optional<NatRewrite> nat_lookup(const ConnRef& r) const noexcept;
  std::optional<NatRewrite> nat_lookup(const FlowKey& key,
                                       uint16_t zone = 0) const noexcept {
    return nat_lookup(ref(key, zone));
  }

  // Commits the connection (the `ct(commit)` action or an explicit
  // controller write). Inserting a NEW connection bumps generation() and
  // may evict (zone cap first, then global cap); re-committing an existing
  // one only refreshes last-seen — idempotent, generation unchanged.
  // Returns true when a new entry was created.
  bool commit(const FlowKey& key, uint16_t zone = 0, uint64_t now_ns = 0);

  // Commit with a NAT binding: stores the forward rewrite on the primary
  // entry and stamps a reverse-direction entry keyed on the post-NAT tuple
  // with the inverse rewrite. If the post-NAT tuple collides with an
  // existing distinct connection the reverse entry is skipped (first wins,
  // deterministically). Re-commits refresh timestamps but never replace an
  // existing binding.
  bool commit_nat(const FlowKey& key, const CtNatSpec& nat,
                  uint16_t zone = 0, uint64_t now_ns = 0);

  // Tears down the connection (FIN/RST or controller delete), including its
  // paired NAT reverse entry.
  bool remove(const FlowKey& key, uint16_t zone = 0);

  // Removes every entry idle past the timeout as of now_ns; returns the
  // number removed. No-op (0) when idle_timeout_ns is 0.
  size_t expire_idle(uint64_t now_ns);
  // Would expire_idle(now_ns) remove anything?
  bool has_expirable(uint64_t now_ns) const noexcept;

  // Drops everything (userspace restart: conntrack is process state).
  // Overflows the changed set.
  void flush();

  // Changed set (DESIGN.md §15): the dep() keys whose lookup answer may
  // have changed since clear_changed() — every entry a commit created and
  // every entry removed (teardown, NAT-pair cascade, eviction, expiry).
  // Append-only and bounded: past kMaxChangedKeys appends, or on flush(),
  // it is marked overflowed and stops recording, and revalidation falls
  // back to a full pass.
  static constexpr size_t kMaxChangedKeys = size_t{64} * 1024;
  // Sorts and deduplicates the set for binary search and returns it; null
  // when overflowed. Plan threads read the result; nothing may mutate the
  // tracker until they are done.
  const std::vector<uint32_t>* seal_changed();
  bool changed_overflowed() const noexcept { return changed_overflow_; }
  // Keys recorded since the last clear (duplicates count until sealed).
  size_t changed_size() const noexcept { return changed_.size(); }
  void clear_changed() noexcept {
    changed_.clear();
    changed_overflow_ = false;
  }

  size_t size() const noexcept { return table_.size(); }
  size_t zone_size(uint16_t zone) const noexcept;
  uint64_t generation() const noexcept { return generation_; }
  const ConnTrackerConfig& config() const noexcept { return cfg_; }

  struct Stats {
    uint64_t committed = 0;          // new entries created
    uint64_t refreshed = 0;          // idempotent re-commits
    uint64_t removed = 0;            // explicit teardowns
    uint64_t expired_idle = 0;       // idle-timeout expirations
    uint64_t evicted_zone_cap = 0;   // LRU evictions at the per-zone cap
    uint64_t evicted_global_cap = 0; // LRU evictions at the global cap
    uint64_t nat_bindings = 0;       // NAT bindings created
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  // Transparent hashing: find(ConnRef) reuses the ref's precomputed hash.
  struct ConnKeyHash {
    using is_transparent = void;
    size_t operator()(const ConnKey& k) const noexcept {
      return static_cast<size_t>(k.hash());
    }
    size_t operator()(const ConnRef& r) const noexcept {
      return static_cast<size_t>(r.hash);
    }
  };
  struct ConnKeyEq {
    using is_transparent = void;
    bool operator()(const ConnKey& a, const ConnKey& b) const noexcept {
      return a == b;
    }
    bool operator()(const ConnRef& a, const ConnKey& b) const noexcept {
      return a.key == b;
    }
    bool operator()(const ConnKey& a, const ConnRef& b) const noexcept {
      return a == b.key;
    }
  };

  struct Entry {
    bool orig_is_lo = true;   // direction the committing packet traveled
    bool symmetric = false;   // self-connection: direction undecidable
    uint64_t last_seen_ns = 0;
    bool has_nat = false;
    bool nat_on_reply = false;  // rewrite applies to reply-direction packets
    NatRewrite nat;
    bool has_pair = false;      // NAT primary <-> reverse entry linkage
    ConnKey pair;
    std::list<ConnKey>::iterator lru;  // position in the zone's LRU list
  };
  using Table = std::unordered_map<ConnKey, Entry, ConnKeyHash, ConnKeyEq>;

  static uint32_t dep_of(uint64_t hash) noexcept {
    return static_cast<uint32_t>(hash >> 32);
  }
  void note_changed(uint64_t hash);
  // Inserts a fresh entry after making room; returns it (never fails).
  Entry& insert(const ConnKey& ck, uint64_t now_ns);
  // Removes the connection under ck plus its NAT pair; returns entries
  // removed (0, 1 or 2).
  size_t remove_conn(const ConnKey& ck);
  // Unlinks one entry and keeps its nodes for reuse.
  void recycle(Table::iterator it);
  void make_room(uint16_t zone);
  void evict_lru_of_zone(uint16_t zone, bool zone_cap);

  ConnTrackerConfig cfg_;
  Table table_;
  // Per-zone LRU order (front = least recently committed). std::map keyed
  // by zone id keeps the largest-zone scan deterministic.
  std::map<uint16_t, std::list<ConnKey>> zones_;
  // Nodes of removed connections, reused by the next inserts, so steady
  // connection churn (a commit per new connection on the upcall path)
  // allocates nothing. Never more than the table's peak size; flush()
  // frees them.
  std::vector<Table::node_type> spare_nodes_;
  std::list<ConnKey> spare_lru_;
  uint64_t generation_ = 0;
  Stats stats_;
  std::vector<uint32_t> changed_;
  bool changed_overflow_ = false;
};

}  // namespace ovs
