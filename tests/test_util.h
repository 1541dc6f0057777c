// Shared helpers for the test suites: an owning rule wrapper and naive
// linear reference classifier, random rule/packet generators, and the
// packet/trace builders the switch-level equivalence and recovery suites
// replay. Keep these header-only and deterministic: equivalence tests
// replay the same traces across worker counts and configurations, so a
// helper that drifts between suites silently weakens the comparison.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "classifier/classifier.h"
#include "packet/match.h"
#include "util/rng.h"
#include "vswitchd/switch.h"

namespace ovs::testutil {

// Switch-level TCP packet: a full 5-tuple with the ethernet source keyed by
// the ingress port (so MAC learning sees distinct hosts per port).
inline Packet tcp_pkt(uint32_t in_port, Ipv4 src, Ipv4 dst, uint16_t sport,
                      uint16_t dport) {
  Packet p;
  p.key.set_in_port(in_port);
  p.key.set_eth_src(EthAddr(0, 0, 0, 0, 0, static_cast<uint8_t>(in_port)));
  p.key.set_eth_dst(EthAddr(0, 0, 0, 0, 0, 0x99));
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(ipproto::kTcp);
  p.key.set_nw_src(src);
  p.key.set_nw_dst(dst);
  p.key.set_tp_src(sport);
  p.key.set_tp_dst(dport);
  p.size_bytes = 100;
  return p;
}

// Datapath-level TCP packet: no port/ethernet addressing — raw cache-layer
// tests key entirely off the L3/L4 fields. The size varies with sport so
// byte counters catch misattributed packets, not just miscounted ones.
inline Packet dp_tcp_pkt(Ipv4 dst, uint16_t sport, uint16_t dport) {
  Packet p;
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(ipproto::kTcp);
  p.key.set_nw_src(Ipv4(2, 2, 2, 2));
  p.key.set_nw_dst(dst);
  p.key.set_tp_src(sport);
  p.key.set_tp_dst(dport);
  p.size_bytes = 60 + sport % 1400;
  return p;
}

// An upcall sink that keeps every upcall a datapath hands it, in arrival
// order, and refuses any beyond `cap` (a full queue; the datapath counts
// each refusal as an upcall drop). Detaches itself when it goes out of
// scope, so it must not outlive the datapath.
class UpcallCollector {
 public:
  std::vector<Packet> pkts;

  explicit UpcallCollector(Datapath& dp, size_t cap = SIZE_MAX) : dp_(dp) {
    dp_.set_upcall_sink([this, cap](Packet&& p) {
      if (pkts.size() >= cap) return false;
      pkts.push_back(std::move(p));
      return true;
    });
  }
  ~UpcallCollector() { dp_.set_upcall_sink(nullptr); }
  UpcallCollector(const UpcallCollector&) = delete;
  UpcallCollector& operator=(const UpcallCollector&) = delete;

 private:
  Datapath& dp_;
};

// Canonical rendering of the installed megaflow set, sorted so two caches
// compare equal regardless of dump order (which depends on the install and
// removal interleaving).
inline std::vector<std::string> canonical_flows(const Switch& sw) {
  std::vector<std::string> out;
  const Datapath& be = sw.backend();
  for (Datapath::FlowRef f : be.dump())
    out.push_back(be.flow_match(f).to_string() + " -> " +
                  be.flow_actions(f).to_string());
  std::sort(out.begin(), out.end());
  return out;
}

// A rule that is its own payload; `id` identifies it in test assertions.
struct TestRule : Rule {
  TestRule(Match m, int32_t priority, int id_in = 0)
      : Rule(m, priority), id(id_in) {}
  int id;
};

// Owns rules and keeps a classifier and a linear oracle in sync.
class RuleSet {
 public:
  explicit RuleSet(ClassifierConfig cfg = {}) : cls_(cfg) {}

  TestRule* add(const Match& m, int32_t priority, int id = 0) {
    auto r = std::make_unique<TestRule>(m, priority, id);
    TestRule* raw = r.get();
    cls_.insert(raw);
    rules_.push_back(std::move(r));
    return raw;
  }

  void remove(TestRule* r) {
    cls_.remove(r);
    for (auto it = rules_.begin(); it != rules_.end(); ++it) {
      if (it->get() == r) {
        rules_.erase(it);
        return;
      }
    }
  }

  // Linear scan oracle: highest priority wins; ties broken by lowest id so
  // the oracle is deterministic (tests use unique priorities when the tie
  // rule matters).
  const TestRule* naive_lookup(const FlowKey& pkt) const {
    const TestRule* best = nullptr;
    for (const auto& r : rules_) {
      if (!r->in_classifier()) continue;
      if (!r->match().matches(pkt)) continue;
      if (best == nullptr || r->priority() > best->priority() ||
          (r->priority() == best->priority() && r->id < best->id))
        best = r.get();
    }
    return best;
  }

  Classifier& classifier() { return cls_; }
  const std::vector<std::unique_ptr<TestRule>>& rules() const {
    return rules_;
  }

 private:
  Classifier cls_;
  std::vector<std::unique_ptr<TestRule>> rules_;
};

// Random match generator over a small value alphabet so that packets
// actually hit rules. Masks are drawn from a fixed set of shapes so that
// tuples are shared between rules, like real OpenFlow tables.
inline Match random_match(Rng& rng) {
  MatchBuilder b;
  switch (rng.uniform(12)) {
    case 0:
      b.eth_type_arp();
      break;
    case 1:
      b.eth_src(EthAddr(rng.range(1, 4)));
      break;
    case 2:
      b.eth_dst(EthAddr(rng.range(1, 4))).eth_type_ipv4();
      break;
    case 3:
      b.ip().nw_dst_prefix(Ipv4(static_cast<uint32_t>(rng.next())),
                           static_cast<unsigned>(rng.range(8, 32)));
      break;
    case 4:
      b.ip().nw_src_prefix(Ipv4(10, 0, static_cast<uint8_t>(rng.uniform(4)),
                                static_cast<uint8_t>(rng.uniform(4))),
                           static_cast<unsigned>(rng.range(16, 32)));
      break;
    case 5:
      b.tcp().tp_dst(static_cast<uint16_t>(rng.range(1, 5)));
      break;
    case 6:
      b.udp().tp_src(static_cast<uint16_t>(rng.range(1, 5)));
      break;
    case 7:
      b.in_port(static_cast<uint32_t>(rng.range(1, 4)));
      break;
    case 8:
      b.metadata(rng.range(1, 3)).ip();
      break;
    case 9:
      b.eth_type_ipv6().ipv6_dst_prefix(
          Ipv6(0x2001'0db8'0000'0000ULL | rng.uniform(4), rng.uniform(4)),
          static_cast<unsigned>(rng.range(16, 128)));
      break;
    case 10:
      b.eth_type_ipv6()
          .nw_proto(ipproto::kTcp)
          .tp_dst(static_cast<uint16_t>(rng.range(1, 5)));
      break;
    default:
      b.tcp()
          .nw_dst(Ipv4(10, 0, static_cast<uint8_t>(rng.uniform(4)),
                       static_cast<uint8_t>(rng.uniform(4))))
          .tp_dst(static_cast<uint16_t>(rng.range(1, 5)));
      break;
  }
  return b.build();
}

// Random packet over the same small alphabet.
inline FlowKey random_packet(Rng& rng) {
  FlowKey k;
  k.set_in_port(static_cast<uint32_t>(rng.range(1, 4)));
  k.set_metadata(rng.uniform(4));
  k.set_eth_src(EthAddr(rng.range(1, 5)));
  k.set_eth_dst(EthAddr(rng.range(1, 5)));
  switch (rng.uniform(5)) {
    case 0:
      k.set_eth_type(ethertype::kArp);
      k.set_arp_op(static_cast<uint16_t>(rng.range(1, 2)));
      break;
    case 1:
      k.set_eth_type(ethertype::kIpv4);
      k.set_nw_proto(ipproto::kTcp);
      break;
    case 2:
      k.set_eth_type(ethertype::kIpv4);
      k.set_nw_proto(ipproto::kUdp);
      break;
    case 3:
      k.set_eth_type(ethertype::kIpv6);
      k.set_nw_proto(ipproto::kTcp);
      k.set_ipv6_src(Ipv6(0x2001'0db8'0000'0000ULL | rng.uniform(4),
                          rng.uniform(4)));
      k.set_ipv6_dst(Ipv6(0x2001'0db8'0000'0000ULL | rng.uniform(4),
                          rng.uniform(4)));
      break;
    default:
      k.set_eth_type(ethertype::kIpv4);
      k.set_nw_proto(ipproto::kIcmp);
      break;
  }
  if (k.eth_type() == ethertype::kIpv6) {
    k.set_tp_src(static_cast<uint16_t>(rng.range(1, 6)));
    k.set_tp_dst(static_cast<uint16_t>(rng.range(1, 6)));
  }
  if (k.eth_type() == ethertype::kIpv4) {
    k.set_nw_src(Ipv4(10, 0, static_cast<uint8_t>(rng.uniform(4)),
                      static_cast<uint8_t>(rng.uniform(4))));
    k.set_nw_dst(rng.chance(0.5)
                     ? Ipv4(10, 0, static_cast<uint8_t>(rng.uniform(4)),
                            static_cast<uint8_t>(rng.uniform(4)))
                     : Ipv4(static_cast<uint32_t>(rng.next())));
    if (k.nw_proto() == ipproto::kTcp || k.nw_proto() == ipproto::kUdp) {
      k.set_tp_src(static_cast<uint16_t>(rng.range(1, 6)));
      k.set_tp_dst(static_cast<uint16_t>(rng.range(1, 6)));
    } else {
      k.set_tp_src(static_cast<uint16_t>(rng.uniform(4)));  // icmp type
      k.set_tp_dst(static_cast<uint16_t>(rng.uniform(2)));  // icmp code
    }
  }
  return k;
}

}  // namespace ovs::testutil
