// The flow key: every packet header field the classifier can match.
//
// Layout. All fields live in a fixed array of 64-bit words grouped into the
// four lookup *stages* of paper §5.3, "in decreasing order of traffic
// granularity": metadata, L2, L3, L4. Staged lookup hashes word ranges
// incrementally, so the grouping below is the load-bearing part of the
// design:
//
//   stage 0, metadata  w0  tun_id
//                      w1  metadata (logical-pipeline register, §5.5)
//                      w2  in_port | reg0
//                      w3  reg1 | reg2
//                      w4  reg3 | ct_state
//   stage 1, L2        w5  eth_dst
//                      w6  eth_src
//                      w7  eth_type | vlan_tci
//   stage 2, L3        w8  nw_src | nw_dst
//                      w9  nw_proto | nw_ttl | nw_tos | nw_frag | arp_op
//                      w10-w11  ipv6_src
//                      w12-w13  ipv6_dst
//   stage 3, L4        w14 tp_src | tp_dst | tcp_flags
//
// A FlowMask uses the identical layout; bit i of mask word w means "bit i of
// key word w must match". Masks are fully bitwise (CIDR prefixes on
// addresses and ports, arbitrary bits elsewhere), as in OVS.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "packet/addr.h"
#include "util/hash.h"

namespace ovs {

// Lookup stages (paper §5.3). Each stage's fields are a superset of the
// previous stage's when hashing: stage k hashes words [0, kStageEnd[k]).
enum class Stage : uint8_t { kMetadata = 0, kL2 = 1, kL3 = 2, kL4 = 3 };
inline constexpr size_t kNumStages = 4;

inline constexpr size_t kFlowWords = 15;
// Word index one past the end of each stage.
inline constexpr std::array<size_t, kNumStages> kStageEnd = {5, 8, 14, 15};

constexpr Stage stage_of_word(size_t word) noexcept {
  if (word < kStageEnd[0]) return Stage::kMetadata;
  if (word < kStageEnd[1]) return Stage::kL2;
  if (word < kStageEnd[2]) return Stage::kL3;
  return Stage::kL4;
}

// Every matchable field. kFieldTable (below) maps these to word/shift/width.
enum class FieldId : uint8_t {
  kTunId,
  kMetadata,
  kInPort,
  kReg0,
  kReg1,
  kReg2,
  kReg3,
  kCtState,
  kEthDst,
  kEthSrc,
  kEthType,
  kVlanTci,
  kNwSrc,
  kNwDst,
  kNwProto,
  kNwTtl,
  kNwTos,
  kNwFrag,
  kArpOp,
  kIpv6Src,  // spans 2 words
  kIpv6Dst,  // spans 2 words
  kTpSrc,
  kTpDst,
  kTcpFlags,
};
inline constexpr size_t kNumFields = 24;

struct FieldInfo {
  const char* name;
  uint8_t word;    // first word index
  uint8_t shift;   // bit offset of LSB within word (single-word fields)
  uint8_t width;   // width in bits (128 for ipv6, spanning 2 words)
};

inline constexpr std::array<FieldInfo, kNumFields> kFieldTable = {{
    {"tun_id", 0, 0, 64},    {"metadata", 1, 0, 64}, {"in_port", 2, 32, 32},
    {"reg0", 2, 0, 32},      {"reg1", 3, 32, 32},    {"reg2", 3, 0, 32},
    {"reg3", 4, 32, 32},     {"ct_state", 4, 24, 8}, {"eth_dst", 5, 0, 48},
    {"eth_src", 6, 0, 48},   {"eth_type", 7, 48, 16},{"vlan_tci", 7, 32, 16},
    {"nw_src", 8, 32, 32},   {"nw_dst", 8, 0, 32},   {"nw_proto", 9, 56, 8},
    {"nw_ttl", 9, 48, 8},    {"nw_tos", 9, 40, 8},   {"nw_frag", 9, 32, 8},
    {"arp_op", 9, 16, 16},   {"ipv6_src", 10, 0, 128},
    {"ipv6_dst", 12, 0, 128},{"tp_src", 14, 48, 16}, {"tp_dst", 14, 32, 16},
    {"tcp_flags", 14, 16, 16},
}};

constexpr const FieldInfo& field_info(FieldId f) noexcept {
  return kFieldTable[static_cast<size_t>(f)];
}

// Lane keys for hashing flow words (hash_lane in util/hash.h), one per word
// position, so the same value in two positions lands on different lanes.
inline constexpr std::array<uint64_t, kFlowWords> kWordLaneKey = [] {
  std::array<uint64_t, kFlowWords> k{};
  for (size_t i = 0; i < kFlowWords; ++i) k[i] = hash_mix64(i);
  return k;
}();

// Lane of flow word `i` with (already masked) value `word`.
constexpr uint64_t flow_word_lane(size_t i, uint64_t word) noexcept {
  return hash_lane(word, kWordLaneKey[i]);
}

// Generic word-array container shared by FlowKey and FlowMask.
struct FlowWords {
  std::array<uint64_t, kFlowWords> w{};

  constexpr bool operator==(const FlowWords&) const noexcept = default;

  // Generic single-word field access (not for ipv6; see typed accessors).
  constexpr uint64_t get(FieldId f) const noexcept {
    const FieldInfo& fi = field_info(f);
    if (fi.width == 64) return w[fi.word];
    const uint64_t mask = (uint64_t{1} << fi.width) - 1;
    return (w[fi.word] >> fi.shift) & mask;
  }
  constexpr void set(FieldId f, uint64_t v) noexcept {
    const FieldInfo& fi = field_info(f);
    if (fi.width == 64) {
      w[fi.word] = v;
      return;
    }
    const uint64_t mask = (uint64_t{1} << fi.width) - 1;
    w[fi.word] = (w[fi.word] & ~(mask << fi.shift)) | ((v & mask) << fi.shift);
  }

  constexpr bool is_zero() const noexcept {
    for (uint64_t x : w)
      if (x != 0) return false;
    return true;
  }
};

// A concrete packet header tuple.
struct FlowKey : FlowWords {
  // Typed accessors keep call sites readable; they all compile down to
  // shifts and masks on the word array.
  constexpr uint64_t tun_id() const noexcept { return get(FieldId::kTunId); }
  constexpr void set_tun_id(uint64_t v) noexcept { set(FieldId::kTunId, v); }
  constexpr uint64_t metadata() const noexcept { return get(FieldId::kMetadata); }
  constexpr void set_metadata(uint64_t v) noexcept { set(FieldId::kMetadata, v); }
  constexpr uint32_t in_port() const noexcept {
    return static_cast<uint32_t>(get(FieldId::kInPort));
  }
  constexpr void set_in_port(uint32_t v) noexcept { set(FieldId::kInPort, v); }
  constexpr uint32_t reg(unsigned i) const noexcept {
    return static_cast<uint32_t>(
        get(static_cast<FieldId>(static_cast<unsigned>(FieldId::kReg0) + i)));
  }
  constexpr void set_reg(unsigned i, uint32_t v) noexcept {
    set(static_cast<FieldId>(static_cast<unsigned>(FieldId::kReg0) + i), v);
  }
  constexpr uint8_t ct_state() const noexcept {
    return static_cast<uint8_t>(get(FieldId::kCtState));
  }
  constexpr void set_ct_state(uint8_t v) noexcept { set(FieldId::kCtState, v); }

  constexpr EthAddr eth_dst() const noexcept {
    return EthAddr(get(FieldId::kEthDst));
  }
  constexpr void set_eth_dst(EthAddr a) noexcept {
    set(FieldId::kEthDst, a.bits());
  }
  constexpr EthAddr eth_src() const noexcept {
    return EthAddr(get(FieldId::kEthSrc));
  }
  constexpr void set_eth_src(EthAddr a) noexcept {
    set(FieldId::kEthSrc, a.bits());
  }
  constexpr uint16_t eth_type() const noexcept {
    return static_cast<uint16_t>(get(FieldId::kEthType));
  }
  constexpr void set_eth_type(uint16_t v) noexcept { set(FieldId::kEthType, v); }
  constexpr uint16_t vlan_tci() const noexcept {
    return static_cast<uint16_t>(get(FieldId::kVlanTci));
  }
  constexpr void set_vlan_tci(uint16_t v) noexcept { set(FieldId::kVlanTci, v); }

  constexpr Ipv4 nw_src() const noexcept {
    return Ipv4(static_cast<uint32_t>(get(FieldId::kNwSrc)));
  }
  constexpr void set_nw_src(Ipv4 a) noexcept { set(FieldId::kNwSrc, a.value()); }
  constexpr Ipv4 nw_dst() const noexcept {
    return Ipv4(static_cast<uint32_t>(get(FieldId::kNwDst)));
  }
  constexpr void set_nw_dst(Ipv4 a) noexcept { set(FieldId::kNwDst, a.value()); }
  constexpr uint8_t nw_proto() const noexcept {
    return static_cast<uint8_t>(get(FieldId::kNwProto));
  }
  constexpr void set_nw_proto(uint8_t v) noexcept { set(FieldId::kNwProto, v); }
  constexpr uint8_t nw_ttl() const noexcept {
    return static_cast<uint8_t>(get(FieldId::kNwTtl));
  }
  constexpr void set_nw_ttl(uint8_t v) noexcept { set(FieldId::kNwTtl, v); }
  constexpr uint8_t nw_tos() const noexcept {
    return static_cast<uint8_t>(get(FieldId::kNwTos));
  }
  constexpr void set_nw_tos(uint8_t v) noexcept { set(FieldId::kNwTos, v); }
  constexpr uint16_t arp_op() const noexcept {
    return static_cast<uint16_t>(get(FieldId::kArpOp));
  }
  constexpr void set_arp_op(uint16_t v) noexcept { set(FieldId::kArpOp, v); }

  constexpr Ipv6 ipv6_src() const noexcept { return Ipv6(w[10], w[11]); }
  constexpr void set_ipv6_src(Ipv6 a) noexcept {
    w[10] = a.hi();
    w[11] = a.lo();
  }
  constexpr Ipv6 ipv6_dst() const noexcept { return Ipv6(w[12], w[13]); }
  constexpr void set_ipv6_dst(Ipv6 a) noexcept {
    w[12] = a.hi();
    w[13] = a.lo();
  }

  constexpr uint16_t tp_src() const noexcept {
    return static_cast<uint16_t>(get(FieldId::kTpSrc));
  }
  constexpr void set_tp_src(uint16_t v) noexcept { set(FieldId::kTpSrc, v); }
  constexpr uint16_t tp_dst() const noexcept {
    return static_cast<uint16_t>(get(FieldId::kTpDst));
  }
  constexpr void set_tp_dst(uint16_t v) noexcept { set(FieldId::kTpDst, v); }
  constexpr uint16_t tcp_flags() const noexcept {
    return static_cast<uint16_t>(get(FieldId::kTcpFlags));
  }
  constexpr void set_tcp_flags(uint16_t v) noexcept {
    set(FieldId::kTcpFlags, v);
  }

  // Full-key hash (the microflow cache key): every word's lane, summed and
  // finished once.
  uint64_t hash() const noexcept {
    uint64_t acc = 0;
    for (size_t i = 0; i < kFlowWords; ++i) acc += flow_word_lane(i, w[i]);
    return hash_finish(acc);
  }

  std::string to_string() const;
};

// Which bits of a FlowKey must match. Also used as the "consulted bits"
// accumulator during megaflow generation (FlowWildcards below).
struct FlowMask : FlowWords {
  // Marks a whole field as exact-match.
  constexpr void set_exact(FieldId f) noexcept {
    const FieldInfo& fi = field_info(f);
    if (fi.width == 128) {
      w[fi.word] = ~uint64_t{0};
      w[fi.word + 1] = ~uint64_t{0};
      return;
    }
    if (fi.width == 64) {
      w[fi.word] = ~uint64_t{0};
      return;
    }
    const uint64_t mask = (uint64_t{1} << fi.width) - 1;
    w[fi.word] |= mask << fi.shift;
  }

  // Marks the leading `len` bits of a field as matched (CIDR-style). Works
  // for any field; most useful for nw_src/nw_dst/ipv6_*/tp_*.
  constexpr void set_prefix(FieldId f, unsigned len) noexcept {
    const FieldInfo& fi = field_info(f);
    if (fi.width == 128) {
      if (len >= 64) {
        w[fi.word] = ~uint64_t{0};
        const unsigned rest = len - 64;
        if (rest > 0)
          w[fi.word + 1] |= ~uint64_t{0} << (64 - rest);
      } else if (len > 0) {
        w[fi.word] |= ~uint64_t{0} << (64 - len);
      }
      return;
    }
    if (len == 0) return;
    const uint64_t field_bits =
        len >= fi.width ? ((fi.width == 64) ? ~uint64_t{0}
                                            : ((uint64_t{1} << fi.width) - 1))
                        : (((uint64_t{1} << len) - 1) << (fi.width - len));
    w[fi.word] |= field_bits << fi.shift;
  }

  // Restricts a field's mask to at most its leading `len` bits; used by
  // prefix tracking to widen megaflows (paper §5.4).
  constexpr void clamp_prefix(FieldId f, unsigned len) noexcept {
    const FieldInfo& fi = field_info(f);
    FlowMask keep;
    keep.set_prefix(f, len);
    if (fi.width == 128) {
      w[fi.word] &= keep.w[fi.word];
      w[fi.word + 1] &= keep.w[fi.word + 1];
      return;
    }
    const uint64_t field_mask =
        (fi.width == 64 ? ~uint64_t{0} : ((uint64_t{1} << fi.width) - 1))
        << fi.shift;
    w[fi.word] = (w[fi.word] & ~field_mask) |
                 (w[fi.word] & keep.w[fi.word] & field_mask);
  }

  // Prefix length of a field's mask, or -1 if the mask is not a prefix.
  int prefix_len(FieldId f) const noexcept;

  // True if the field is matched at all (any bit set).
  constexpr bool has_field(FieldId f) const noexcept {
    const FieldInfo& fi = field_info(f);
    if (fi.width == 128)
      return w[fi.word] != 0 || w[fi.word + 1] != 0;
    const uint64_t mask =
        (fi.width == 64 ? ~uint64_t{0} : ((uint64_t{1} << fi.width) - 1))
        << fi.shift;
    return (w[fi.word] & mask) != 0;
  }

  // True if the field is matched exactly (all bits set).
  constexpr bool is_exact(FieldId f) const noexcept {
    const FieldInfo& fi = field_info(f);
    if (fi.width == 128)
      return w[fi.word] == ~uint64_t{0} && w[fi.word + 1] == ~uint64_t{0};
    const uint64_t mask =
        (fi.width == 64 ? ~uint64_t{0} : ((uint64_t{1} << fi.width) - 1))
        << fi.shift;
    return (w[fi.word] & mask) == mask;
  }

  constexpr void unite(const FlowMask& o) noexcept {
    for (size_t i = 0; i < kFlowWords; ++i) w[i] |= o.w[i];
  }

  // Removes all of a field's bits from the mask.
  constexpr void clear_field(FieldId f) noexcept {
    FlowMask m;
    m.set_exact(f);
    for (size_t i = 0; i < kFlowWords; ++i) w[i] &= ~m.w[i];
  }

  // Last stage that has any mask bit, as [0, kNumStages). A fully empty mask
  // reports stage 0 (a catch-all tuple still occupies one hash table).
  constexpr size_t last_stage() const noexcept {
    for (size_t s = kNumStages; s-- > 1;) {
      for (size_t i = kStageEnd[s - 1]; i < kStageEnd[s]; ++i)
        if (w[i] != 0) return s;
    }
    return 0;
  }

  std::string to_string() const;
};

// --- Masked operations (the heart of tuple space search) -------------------

// True iff `pkt` masked by `mask` equals `value` (which must be pre-masked).
inline bool masked_equal(const FlowKey& pkt, const FlowWords& value,
                         const FlowMask& mask) noexcept {
  uint64_t diff = 0;
  for (size_t i = 0; i < kFlowWords; ++i)
    diff |= (pkt.w[i] & mask.w[i]) ^ value.w[i];
  return diff == 0;
}

// Lane accumulator of `pkt & mask` over words [from, to) (finish it with
// hash_finish). Incremental: pass the accumulator of [0, from) as `acc` to
// extend (staged lookup, §5.3). Words the mask zeroes add no lane, so the
// finished value over [0, kFlowWords) equals MiniflowSchema(mask).full_hash.
inline uint64_t hash_masked_range(const FlowKey& pkt, const FlowMask& mask,
                                  size_t from, size_t to,
                                  uint64_t acc) noexcept {
  for (size_t i = from; i < to; ++i)
    if (mask.w[i] != 0) acc += flow_word_lane(i, pkt.w[i] & mask.w[i]);
  return acc;
}

// Applies a mask to a key in place (used to canonicalize rule keys).
inline void apply_mask(FlowKey& key, const FlowMask& mask) noexcept {
  for (size_t i = 0; i < kFlowWords; ++i) key.w[i] &= mask.w[i];
}

// During translation, tracks which key bits were consulted; becomes the
// generated megaflow's mask (paper §4.2).
using FlowWildcards = FlowMask;

}  // namespace ovs
