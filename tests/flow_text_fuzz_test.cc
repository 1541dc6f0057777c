// Fuzzing of the flow text interface (ofproto/flow_parser.h). Restart
// rebuilds the flow tables from format_flow() text through parse_flow(), so
// the parser meets whatever text an operator, a controller or a damaged
// configuration hands it. Two generators feed it: token soups drawn from
// the grammar's own keywords with edge-case values, and byte-level
// mutations of valid flows. For every input, parse_flow must return (no
// crash, no exception, nothing the sanitizers flag), and every text it
// accepts must round-trip: parse_flow(format_flow(f)) gives back f's table,
// priority, match and actions, and formatting that again gives the same
// text.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ofproto/flow_parser.h"
#include "util/rng.h"

namespace ovs {
namespace {

const std::vector<std::string> kNumbers = {
    "0",     "1",      "2",          "7",          "15",
    "16",    "31",     "32",         "33",         "64",
    "127",   "128",    "129",        "255",        "256",
    "4095",  "4096",   "65535",      "65536",      "0x800",
    "0x86dd", "0xffff", "0xffffffff", "4294967296", "18446744073709551615",
    "18446744073709551616", "-1", "+3", " 5", "0x", "", "abc", "1e3", "08"};

// The valid entries of the lists below come first.
const std::vector<std::string> kIpv4 = {
    "0.0.0.0", "10.0.0.1", "9.1.1.0", "255.255.255.255", "256.1.1.1",
    "1.2.3",   "1.2.3.4.5", "a.b.c.d", "192.0.2.9"};

const std::vector<std::string> kIpv6 = {
    "::", "2001:db8:0:0:0:0:0:1", "fe80:0:0:0:0:0:0:ffff", "2001:db8::1",
    "1:2:3:4:5:6:7:8:9", "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff",
    "12345:0:0:0:0:0:0:0"};

const std::vector<std::string> kMacs = {
    "00:00:00:00:00:00", "02:00:00:00:00:01", "ff:ff:ff:ff:ff:ff",
    "1:2:3:4:5:6",       "100:0:0:0:0:0",     "00:11:22:33:44"};

const std::vector<std::string> kFieldNames = {
    "in_port", "metadata", "tun_id",  "reg0",     "reg1",    "reg2",
    "reg3",    "ct_state", "recirc_id", "eth_src", "eth_dst", "dl_src",
    "dl_dst",  "eth_type", "dl_type", "vlan_tci", "nw_src",  "nw_dst",
    "ipv6_src", "ipv6_dst", "nw_proto", "nw_ttl", "nw_tos",  "nw_frag",
    "arp_op",  "tp_src",   "tp_dst",  "tcp_flags", "bogus"};

const std::vector<std::string> kKeywords = {"ip",  "ipv6", "tcp", "udp",
                                            "icmp", "arp", "tcp6", "any"};

class TextGen {
 public:
  explicit TextGen(uint64_t seed) : rng_(seed) {}

  size_t pick(size_t n) { return static_cast<size_t>(rng_.uniform(n)); }
  bool coin(unsigned one_in) { return rng_.uniform(one_in) == 0; }
  const std::string& from(const std::vector<std::string>& v) {
    return v[pick(v.size())];
  }

  // Mostly small valid values, so that many soups parse; otherwise an
  // edge case.
  std::string number() {
    if (coin(8)) return coin(4) ? std::to_string(rng_.next()) : from(kNumbers);
    return std::to_string(rng_.uniform(coin(2) ? 4 : 256));
  }
  std::string prefix(const std::string& value) {
    return coin(2) ? value : value + "/" + number();
  }
  // Mostly the valid ones (listed first, `n_valid` of them).
  const std::string& mostly(const std::vector<std::string>& v,
                            size_t n_valid) {
    return coin(8) ? from(v) : v[pick(n_valid)];
  }

  std::string match_token() {
    switch (pick(12)) {
      case 0:
        return from(kKeywords);
      case 1:
        return "nw_" + std::string(coin(2) ? "src" : "dst") + "=" +
               prefix(mostly(kIpv4, 5));
      case 2:
        return "ipv6_" + std::string(coin(2) ? "src" : "dst") + "=" +
               prefix(mostly(kIpv6, 3));
      case 3:
        return "tp_" + std::string(coin(2) ? "src" : "dst") + "=" +
               prefix(number());
      case 4:
        return std::string(coin(2) ? "dl_src" : "eth_dst") + "=" +
               mostly(kMacs, 4);
      case 5:
        return "table=" + number();
      case 6:
        return "priority=" + number();
      case 7:
        return std::string(coin(2) ? "cookie" : "idle_timeout") + "=" +
               number();
      case 8:
        return std::string(coin(2) ? "icmp_type" : "icmp_code") + "=" +
               number();
      default:
        return mostly(kFieldNames, 27) + "=" + number();
    }
  }

  std::string field_value() {
    switch (pick(3)) {
      case 0:
        return mostly(kIpv4, 5);
      case 1:
        return mostly(kMacs, 4);
      default:
        return number();
    }
  }

  std::string ct_action() {
    std::string s = coin(4) ? "ct(" : "ct(table=" + number() + ",";
    const size_t parts = pick(4);
    for (size_t i = 0; i < parts; ++i) {
      if (i > 0) s += ",";
      switch (pick(6)) {
        case 0:
          s += "commit";
          break;
        case 1:
          s += "zone=" + number();
          break;
        case 2:
          s += "nat";
          break;
        case 3:
          s += std::string("nat(") + (coin(2) ? "src=" : "dst=") +
               mostly(kIpv4, 5) + ":" + number() + ")";
          break;
        default:
          s += "table=" + number();
          break;
      }
    }
    return s + ")";
  }

  std::string action_token() {
    switch (pick(12)) {
      case 0:
        return "output:" + number();
      case 1:
        return "drop";
      case 2:
        return coin(2) ? "normal" : "NORMAL";
      case 3:
        return coin(2) ? "controller" : "controller:" + number();
      case 4:
        return coin(2) ? "resubmit(," + number() + ")" : "resubmit:" + number();
      case 5:
      case 6:
        return std::string(coin(2) ? "set_field:" : "load:") + field_value() +
               "->" + mostly(kFieldNames, 28);
      case 7:
        return coin(2) ? "mod_vlan_vid:" + number() : "strip_vlan";
      case 8:
        return "tunnel(" + number() + "," + number() + ")";
      default:
        return ct_action();
    }
  }

  std::string separator() {
    static const std::vector<std::string> kSeps = {", ", ",", " , ", ",,",
                                                   " "};
    return coin(16) ? from(kSeps) : ", ";
  }

  // A flow-shaped token soup: match tokens, then (usually) actions=.
  std::string soup() {
    std::string s;
    const size_t n_match = pick(6);
    for (size_t i = 0; i < n_match; ++i) s += match_token() + separator();
    if (!coin(16)) {
      s += "actions=";
      const size_t n_act = 1 + pick(4);
      for (size_t i = 0; i < n_act; ++i) {
        if (i > 0) s += separator();
        s += action_token();
      }
    }
    return s;
  }

  std::string random_bytes() {
    std::string s(pick(80), '\0');
    for (char& c : s) c = static_cast<char>(rng_.uniform(256));
    return coin(2) ? s : s + "actions=" + s;
  }

  // Byte-level damage to a valid text: flips, deletions, insertions of
  // grammar characters, duplicated slices and truncation.
  std::string mutate(std::string s) {
    static const std::string kChars = "(),=:/->x0123456789abcdef. \t";
    const size_t edits = 1 + pick(2);
    for (size_t e = 0; e < edits && !s.empty(); ++e) {
      const size_t at = pick(s.size());
      switch (pick(5)) {
        case 0:
          s[at] = static_cast<char>(rng_.uniform(256));
          break;
        case 1:
          s.erase(at, 1 + pick(3));
          break;
        case 2:
          s.insert(at, 1, kChars[pick(kChars.size())]);
          break;
        case 3:
          s.insert(at, s.substr(pick(s.size()), pick(12)));
          break;
        default:
          s.resize(at);
          break;
      }
    }
    return s;
  }

 private:
  Rng rng_;
};

// Parses `text`; if it is accepted, checks the round trip. Returns whether
// the text was accepted.
bool check_text(const std::string& text) {
  const FlowParseResult first = parse_flow(text);
  if (!first.ok) {
    EXPECT_FALSE(first.error.empty()) << "rejected without a reason: " << text;
    return false;
  }
  const ParsedFlow& f = first.flow;
  const std::string formatted =
      format_flow(f.table, f.priority, f.match, f.actions);
  const FlowParseResult back = parse_flow(formatted);
  EXPECT_TRUE(back.ok) << "input:     " << text << "\nformatted: " << formatted
                       << "\nerror:     " << back.error;
  if (!back.ok) return true;
  EXPECT_EQ(back.flow.table, f.table) << text;
  EXPECT_EQ(back.flow.priority, f.priority) << text;
  EXPECT_EQ(back.flow.match, f.match)
      << "input:     " << text << "\nformatted: " << formatted << "\nwant "
      << f.match.to_string() << "\ngot  " << back.flow.match.to_string();
  EXPECT_EQ(back.flow.actions, f.actions)
      << "input:     " << text << "\nformatted: " << formatted << "\nwant "
      << f.actions.to_string() << "\ngot  " << back.flow.actions.to_string();
  EXPECT_EQ(format_flow(back.flow.table, back.flow.priority, back.flow.match,
                        back.flow.actions),
            formatted)
      << text;
  return true;
}

TEST(FlowTextFuzz, TokenSoupsRoundTripWhenAccepted) {
  TextGen gen(0xF10A7E47);
  size_t accepted = 0;
  constexpr size_t kInputs = 20000;
  for (size_t i = 0; i < kInputs && !HasFailure(); ++i)
    accepted += check_text(gen.soup()) ? 1 : 0;
  // Both outcomes are exercised: the soup is neither all noise nor all
  // valid.
  EXPECT_GT(accepted, kInputs / 10);
  EXPECT_LT(accepted, kInputs - kInputs / 10);
}

TEST(FlowTextFuzz, RandomBytesAreRejectedCleanly) {
  TextGen gen(0xB17E5);
  for (size_t i = 0; i < 5000 && !HasFailure(); ++i)
    check_text(gen.random_bytes());
}

TEST(FlowTextFuzz, MutatedFlowsRoundTripWhenAccepted) {
  // Seeds: texts the soup generator produced and the parser accepted,
  // in their canonical (formatted) form, plus a few written by hand.
  TextGen gen(0x5EED);
  std::vector<std::string> seeds = {
      "table=0, priority=100, tcp, nw_dst=9.1.1.0/24, tp_dst=80, "
      "actions=set_field:5->reg0, resubmit(,1), output:2",
      "table=1, priority=30, in_port=1, ct_state=1, "
      "actions=ct(commit,zone=3,nat(src=192.0.2.9:5000),table=2)",
      "priority=5, ipv6, ipv6_src=2001:db8:0:0:0:0:0:1/64, "
      "actions=tunnel(4,99), controller",
      "table=2, arp, arp_op=1, dl_src=02:00:00:00:00:01, actions=normal"};
  while (seeds.size() < 200) {
    const FlowParseResult r = parse_flow(gen.soup());
    if (r.ok)
      seeds.push_back(format_flow(r.flow.table, r.flow.priority,
                                  r.flow.match, r.flow.actions));
  }
  size_t accepted = 0;
  constexpr size_t kInputs = 20000;
  for (size_t i = 0; i < kInputs && !HasFailure(); ++i)
    accepted += check_text(gen.mutate(gen.from(seeds))) ? 1 : 0;
  EXPECT_GT(accepted, kInputs / 50);
}

}  // namespace
}  // namespace ovs
