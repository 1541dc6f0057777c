// Bounded connection tracker: the datapath's conntrack (paper §8.1: "an
// ongoing effort to provide a new OpenFlow action that invokes a kernel
// module that provides ... connection state (new, established, related)").
//
// The datapath owns one tracker, shared by its worker shards, and runs it
// on every packet whose megaflow ends in ct (execute(), DESIGN.md §15).
// Connections are keyed by the bidirectional 5-tuple plus a zone. Beyond
// the minimal lookup/commit tracker this adds the production-shaped
// pieces:
//
//   * bounded capacity with per-zone limits and LRU eviction — a stateful
//     table is a resource-exhaustion surface exactly like the megaflow mask
//     list (§14), so it gets the same bounded-memory treatment;
//   * idle expiry driven by virtual time, with the determinism contract
//     that lookups NEVER refresh last-seen — only commits do — so the
//     table's contents are a pure function of the execute/commit/remove/
//     expire event sequence (what lets the differential oracle mirror it);
//   * TCP teardown after nf_conntrack's FIN_WAIT/CLOSE_WAIT: a connection
//     stays until both sides have sent FIN and the last FIN is acknowledged
//     (the first packet without FIN after both), or until a RST;
//   * SNAT/DNAT bindings: a committed NAT connection stores the forward
//     rewrite and stamps a reverse-direction entry keyed on the post-NAT
//     tuple carrying the inverse rewrite, so replies un-NAT statelessly.
//
// Self-connections (src==dst addr AND port): the two directions of such a
// tuple are literally the same packet, so "reply" is undecidable from the
// wire. They are marked kSymmetric instead of ever setting kReply — the
// deterministic resolution of the old canonical-order ambiguity.
//
// Thread safety: every public member takes the one mutex guarding it.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "datapath/dp_actions.h"
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

  // A packet's view of its connection, built and hashed once.
  struct ConnRef {
    ConnKey key;
    uint64_t hash = 0;    // key.hash()
    bool lo_dir = true;   // (src, sport) is the canonically-low endpoint
  };
  static ConnRef ref(const FlowKey& key, uint16_t zone) noexcept;

  ConnTracker() = default;
  explicit ConnTracker(const ConnTrackerConfig& cfg) : cfg_(cfg) {}
  // Not copyable or movable: it holds its lock, and Entry::lru iterators.
  ConnTracker(const ConnTracker&) = delete;
  ConnTracker& operator=(const ConnTracker&) = delete;

  // The NAT rewrite a packet receives: forward packets of a binding's
  // connection get the committed rewrite, replies (via the reverse entry)
  // the inverse.
  struct NatRewrite {
    bool to_src = false;  // rewrite source (else destination)
    uint32_t addr = 0;
    uint16_t port = 0;
    bool operator==(const NatRewrite&) const noexcept = default;
  };

  // What one ct action made of a packet: the ct_state to stamp and the NAT
  // rewrite, if the action asked for NAT and a binding applies in the
  // packet's direction. A packet sees its connection's state before its
  // own commit and its NAT binding after it.
  struct Verdict {
    uint8_t state = 0;
    bool has_nat = false;
    NatRewrite nat;
    bool operator==(const Verdict&) const noexcept = default;
  };

  // The ct action on one packet: lookup, then — when ct.commit — teardown
  // (RST, or the final ACK after both FINs), FIN bookkeeping or commit
  // (commit_nat for ct.nat kSrc/kDst), then the NAT rewrite.
  Verdict execute(const FlowKey& key, const CtAction& ct, uint64_t now_ns);
  // The verdict execute() would return, without executing it.
  Verdict preview(const FlowKey& key, const CtAction& ct) const;

  // Connection state of the packet's 5-tuple (direction-normalized). Const
  // and time-free by design: state transitions happen only via execute /
  // commit / remove / expire_idle, so two trackers fed the same mutation
  // sequence answer identically regardless of when lookups happened in
  // between.
  uint8_t lookup(const FlowKey& key, uint16_t zone = 0) const;
  std::optional<NatRewrite> nat_lookup(const FlowKey& key,
                                       uint16_t zone = 0) const;

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

  // Tears down the connection (a controller delete), including its paired
  // NAT reverse entry.
  bool remove(const FlowKey& key, uint16_t zone = 0);

  // Removes every entry idle past the timeout as of now_ns; returns the
  // number removed. No-op (0) when idle_timeout_ns is 0.
  size_t expire_idle(uint64_t now_ns);
  // Would expire_idle(now_ns) remove anything?
  bool has_expirable(uint64_t now_ns) const;

  // Drops everything.
  void flush();

  size_t size() const;
  size_t zone_size(uint16_t zone) const;
  // Bumped by every change to a lookup's answer.
  uint64_t generation() const;
  const ConnTrackerConfig& config() const noexcept { return cfg_; }

  struct Stats {
    uint64_t committed = 0;          // new entries created
    uint64_t refreshed = 0;          // idempotent re-commits
    uint64_t removed = 0;            // teardowns (RST/FIN or explicit)
    uint64_t expired_idle = 0;       // idle-timeout expirations
    uint64_t evicted_zone_cap = 0;   // LRU evictions at the per-zone cap
    uint64_t evicted_global_cap = 0; // LRU evictions at the global cap
    uint64_t nat_bindings = 0;       // NAT bindings created
  };
  Stats stats() const;

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
    // TCP FINs seen (kFinOrig | kFinReply), kept on a NAT connection's
    // primary entry.
    uint8_t fins = 0;
    uint64_t last_seen_ns = 0;
    bool has_nat = false;
    bool nat_on_reply = false;  // rewrite applies to reply-direction packets
    NatRewrite nat;
    bool has_pair = false;      // NAT primary <-> reverse entry linkage
    ConnKey pair;
    std::list<ConnKey>::iterator lru;  // position in the zone's LRU list
  };
  using Table = std::unordered_map<ConnKey, Entry, ConnKeyHash, ConnKeyEq>;

  static constexpr uint8_t kFinOrig = 1, kFinReply = 2;

  // The unlocked bodies of the public members; mu_ held.
  uint8_t state_of(Table::const_iterator it, const ConnRef& r) const;
  std::optional<NatRewrite> nat_of(Table::const_iterator it,
                                   const ConnRef& r) const;
  bool commit_locked(const ConnRef& r, uint64_t now_ns);
  bool commit_nat_locked(const FlowKey& key, const ConnRef& r,
                         const CtNatSpec& nat, uint64_t now_ns);
  void refresh(Entry& e, uint64_t now_ns);
  // The entry that carries a connection's FIN bookkeeping: the primary of
  // a NAT pair, else the entry itself.
  Entry& primary_of(Table::iterator it);
  bool remove_locked(const ConnKey& ck);
  // Inserts a fresh entry after making room; returns it (never fails).
  Entry& insert(const ConnKey& ck, uint64_t now_ns);
  // Removes the connection under ck plus its NAT pair; returns entries
  // removed (0, 1 or 2).
  size_t remove_conn(const ConnKey& ck);
  // Unlinks one entry and keeps its nodes for reuse.
  void recycle(Table::iterator it);
  void make_room(uint16_t zone);
  void evict_lru_of_zone(uint16_t zone, bool zone_cap);

  mutable std::mutex mu_;
  ConnTrackerConfig cfg_;
  Table table_;
  // Per-zone LRU order (front = least recently committed). std::map keyed
  // by zone id keeps the largest-zone scan deterministic.
  std::map<uint16_t, std::list<ConnKey>> zones_;
  // Nodes of removed connections, reused by the next inserts, so steady
  // connection churn (a commit per new connection) allocates nothing.
  // Never more than the table's peak size; flush() frees them.
  std::vector<Table::node_type> spare_nodes_;
  std::list<ConnKey> spare_lru_;
  uint64_t generation_ = 0;
  Stats stats_;
};

// What a ct action does to the packet it recirculates: the verdict's NAT
// rewrite is applied to `key` and appended to `fate` as set-fields (the
// rewrite is part of the packet's fate), and its ct_state is stamped into
// `key` (datapath metadata: the fate never sets it, so no output carries it).
inline void apply_ct_verdict(const ConnTracker::Verdict& v, FlowKey& key,
                             DpActions& fate) {
  if (v.has_nat) {
    const FieldId addr_f = v.nat.to_src ? FieldId::kNwSrc : FieldId::kNwDst;
    const FieldId port_f = v.nat.to_src ? FieldId::kTpSrc : FieldId::kTpDst;
    key.set(addr_f, v.nat.addr);
    key.set(port_f, v.nat.port);
    fate.set_field(addr_f, v.nat.addr);
    fate.set_field(port_f, v.nat.port);
  }
  key.set_ct_state(v.state);
}

}  // namespace ovs
