#include "ofproto/flow_parser.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <optional>
#include <sstream>
#include <vector>

#include "ofproto/pipeline.h"

namespace ovs {

namespace {

std::string trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

// Splits on commas that are not inside parentheses.
std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  int depth = 0;
  std::string cur;
  for (char c : s) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(trim(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!trim(cur).empty()) out.push_back(trim(cur));
  return out;
}

std::optional<uint64_t> parse_u64(const std::string& s) {
  // std::stoull takes a minus sign and wraps the value around.
  if (s.empty() || s.find('-') != std::string::npos) return std::nullopt;
  try {
    size_t pos = 0;
    const uint64_t v = std::stoull(s, &pos, 0);  // accepts 0x.. too
    if (pos != s.size()) return std::nullopt;
    return v;
  } catch (...) {
    return std::nullopt;
  }
}

std::optional<Ipv4> parse_ipv4(const std::string& s) {
  unsigned a, b, c, d;
  char tail;
  if (std::sscanf(s.c_str(), "%u.%u.%u.%u%c", &a, &b, &c, &d, &tail) != 4)
    return std::nullopt;
  if (a > 255 || b > 255 || c > 255 || d > 255) return std::nullopt;
  return Ipv4(static_cast<uint8_t>(a), static_cast<uint8_t>(b),
              static_cast<uint8_t>(c), static_cast<uint8_t>(d));
}

std::optional<EthAddr> parse_mac(const std::string& s) {
  unsigned b[6];
  char tail;
  if (std::sscanf(s.c_str(), "%x:%x:%x:%x:%x:%x%c", &b[0], &b[1], &b[2],
                  &b[3], &b[4], &b[5], &tail) != 6)
    return std::nullopt;
  for (unsigned v : b)
    if (v > 255) return std::nullopt;
  return EthAddr(static_cast<uint8_t>(b[0]), static_cast<uint8_t>(b[1]),
                 static_cast<uint8_t>(b[2]), static_cast<uint8_t>(b[3]),
                 static_cast<uint8_t>(b[4]), static_cast<uint8_t>(b[5]));
}

// Parses an IPv6 address restricted to the full 8-group form or "::".
std::optional<Ipv6> parse_ipv6(const std::string& s) {
  if (s == "::") return Ipv6(0, 0);
  unsigned g[8];
  char tail;
  if (std::sscanf(s.c_str(), "%x:%x:%x:%x:%x:%x:%x:%x%c", &g[0], &g[1],
                  &g[2], &g[3], &g[4], &g[5], &g[6], &g[7], &tail) != 8)
    return std::nullopt;
  for (unsigned v : g)
    if (v > 0xffff) return std::nullopt;
  uint64_t hi = 0, lo = 0;
  for (int i = 0; i < 4; ++i) hi = (hi << 16) | g[i];
  for (int i = 4; i < 8; ++i) lo = (lo << 16) | g[i];
  return Ipv6(hi, lo);
}

// value[/len] for prefix-capable fields.
bool split_prefix(const std::string& s, std::string* value, unsigned* len,
                  unsigned max_len) {
  const size_t slash = s.find('/');
  if (slash == std::string::npos) {
    *value = s;
    *len = max_len;
    return true;
  }
  *value = s.substr(0, slash);
  auto l = parse_u64(s.substr(slash + 1));
  if (!l || *l > max_len) return false;
  *len = static_cast<unsigned>(*l);
  return true;
}

std::optional<FieldId> field_by_name(const std::string& name) {
  for (size_t i = 0; i < kNumFields; ++i)
    if (name == kFieldTable[i].name) return static_cast<FieldId>(i);
  // ovs-ofctl aliases.
  if (name == "dl_src") return FieldId::kEthSrc;
  if (name == "dl_dst") return FieldId::kEthDst;
  if (name == "dl_type") return FieldId::kEthType;
  return std::nullopt;
}

// Parses one match token into the builder. Returns an error or "".
std::string apply_match_token(MatchBuilder& b, const std::string& token) {
  // Bare protocol keywords.
  if (token == "ip") {
    b.ip();
    return "";
  }
  if (token == "ipv6") {
    b.eth_type_ipv6();
    return "";
  }
  if (token == "tcp") {
    b.tcp();
    return "";
  }
  if (token == "udp") {
    b.udp();
    return "";
  }
  if (token == "icmp") {
    b.icmp();
    return "";
  }
  if (token == "arp") {
    b.arp();
    return "";
  }

  const size_t eq = token.find('=');
  if (eq == std::string::npos) return "unknown match token '" + token + "'";
  const std::string key = trim(token.substr(0, eq));
  const std::string val = trim(token.substr(eq + 1));

  auto num = [&](uint64_t max) -> std::optional<uint64_t> {
    auto v = parse_u64(val);
    if (!v || *v > max) return std::nullopt;
    return v;
  };

  if (key == "in_port") {
    auto v = num(~uint32_t{0});
    if (!v) return "bad in_port '" + val + "'";
    b.in_port(static_cast<uint32_t>(*v));
  } else if (key == "metadata") {
    auto v = parse_u64(val);
    if (!v) return "bad metadata '" + val + "'";
    b.metadata(*v);
  } else if (key == "tun_id") {
    auto v = parse_u64(val);
    if (!v) return "bad tun_id '" + val + "'";
    b.tun_id(*v);
  } else if (key.rfind("reg", 0) == 0 && key.size() == 4 &&
             key[3] >= '0' && key[3] <= '3') {
    auto v = num(~uint32_t{0});
    if (!v) return "bad " + key + " '" + val + "'";
    b.reg(static_cast<unsigned>(key[3] - '0'), static_cast<uint32_t>(*v));
  } else if (key == "ct_state") {
    auto v = num(255);
    if (!v) return "bad ct_state '" + val + "'";
    b.ct_state(static_cast<uint8_t>(*v));
  } else if (key == "dl_src" || key == "eth_src") {
    auto m = parse_mac(val);
    if (!m) return "bad mac '" + val + "'";
    b.eth_src(*m);
  } else if (key == "dl_dst" || key == "eth_dst") {
    auto m = parse_mac(val);
    if (!m) return "bad mac '" + val + "'";
    b.eth_dst(*m);
  } else if (key == "dl_type" || key == "eth_type") {
    auto v = num(0xffff);
    if (!v) return "bad dl_type '" + val + "'";
    b.eth_type(static_cast<uint16_t>(*v));
  } else if (key == "vlan_tci" || key == "vlan") {
    auto v = num(0xffff);
    if (!v) return "bad vlan '" + val + "'";
    b.vlan_tci(static_cast<uint16_t>(*v));
  } else if (key == "nw_src" || key == "nw_dst") {
    std::string addr_s;
    unsigned len = 32;
    if (!split_prefix(val, &addr_s, &len, 32))
      return "bad prefix '" + val + "'";
    auto a = parse_ipv4(addr_s);
    if (!a) return "bad ip '" + addr_s + "'";
    if (key == "nw_src")
      b.nw_src_prefix(*a, len);
    else
      b.nw_dst_prefix(*a, len);
  } else if (key == "ipv6_src" || key == "ipv6_dst") {
    std::string addr_s;
    unsigned len = 128;
    if (!split_prefix(val, &addr_s, &len, 128))
      return "bad prefix '" + val + "'";
    auto a = parse_ipv6(addr_s);
    if (!a) return "bad ipv6 '" + addr_s + "'";
    if (key == "ipv6_src")
      b.ipv6_src_prefix(*a, len);
    else
      b.ipv6_dst_prefix(*a, len);
  } else if (key == "nw_proto") {
    auto v = num(255);
    if (!v) return "bad nw_proto '" + val + "'";
    b.nw_proto(static_cast<uint8_t>(*v));
  } else if (key == "nw_ttl") {
    auto v = num(255);
    if (!v) return "bad nw_ttl '" + val + "'";
    b.nw_ttl(static_cast<uint8_t>(*v));
  } else if (key == "nw_tos") {
    auto v = num(255);
    if (!v) return "bad nw_tos '" + val + "'";
    b.nw_tos(static_cast<uint8_t>(*v));
  } else if (key == "arp_op") {
    auto v = num(0xffff);
    if (!v) return "bad arp_op '" + val + "'";
    b.arp_op(static_cast<uint16_t>(*v));
  } else if (key == "tp_src" || key == "tp_dst") {
    std::string port_s;
    unsigned len = 16;
    if (!split_prefix(val, &port_s, &len, 16))
      return "bad prefix '" + val + "'";
    auto v = parse_u64(port_s);
    if (!v || *v > 0xffff) return "bad port '" + port_s + "'";
    if (key == "tp_src")
      b.tp_src_prefix(static_cast<uint16_t>(*v), len);
    else
      b.tp_dst_prefix(static_cast<uint16_t>(*v), len);
  } else if (key == "tcp_flags") {
    auto v = num(0xffff);
    if (!v) return "bad tcp_flags '" + val + "'";
    b.tcp_flags(static_cast<uint16_t>(*v));
  } else if (key == "icmp_type") {
    auto v = num(255);
    if (!v) return "bad icmp_type '" + val + "'";
    b.icmp_type(static_cast<uint8_t>(*v));
  } else if (key == "icmp_code") {
    auto v = num(255);
    if (!v) return "bad icmp_code '" + val + "'";
    b.icmp_code(static_cast<uint8_t>(*v));
  } else {
    return "unknown match key '" + key + "'";
  }
  return "";
}

// Parses a set_field / load value by field type.
std::optional<uint64_t> parse_field_value(FieldId f, const std::string& s) {
  if (f == FieldId::kEthSrc || f == FieldId::kEthDst) {
    if (auto m = parse_mac(s)) return m->bits();
  }
  if (f == FieldId::kNwSrc || f == FieldId::kNwDst) {
    if (auto a = parse_ipv4(s)) return a->value();
  }
  return parse_u64(s);
}

std::string apply_action(OfActions& actions, const std::string& token) {
  if (token == "drop") {
    actions.list.push_back(OfDrop{});
    return "";
  }
  if (token == "normal" || token == "NORMAL") {
    actions.normal();
    return "";
  }
  if (token == "controller" || token.rfind("controller:", 0) == 0) {
    uint32_t reason = 0;
    if (token.size() > 11) {
      auto v = parse_u64(token.substr(11));
      if (!v || *v > ~uint32_t{0}) return "bad controller reason";
      reason = static_cast<uint32_t>(*v);
    }
    actions.controller(reason);
    return "";
  }
  if (token.rfind("output:", 0) == 0) {
    auto v = parse_u64(token.substr(7));
    if (!v) return "bad output port '" + token + "'";
    actions.output(static_cast<uint32_t>(*v));
    return "";
  }
  if (token.rfind("resubmit", 0) == 0) {
    // resubmit:T or resubmit(,T)
    std::string arg;
    if (token.rfind("resubmit:", 0) == 0) {
      arg = token.substr(9);
    } else if (token.rfind("resubmit(,", 0) == 0 && token.back() == ')') {
      arg = token.substr(10, token.size() - 11);
    } else {
      return "bad resubmit '" + token + "'";
    }
    auto v = parse_u64(arg);
    if (!v || *v >= Pipeline::kMaxTables)
      return "bad resubmit table '" + arg + "'";
    actions.resubmit(static_cast<uint8_t>(*v));
    return "";
  }
  if (token.rfind("set_field:", 0) == 0 || token.rfind("load:", 0) == 0) {
    const size_t colon = token.find(':');
    const std::string rest = token.substr(colon + 1);
    const size_t arrow = rest.find("->");
    if (arrow == std::string::npos)
      return "set_field needs 'value->field': '" + token + "'";
    const std::string val_s = trim(rest.substr(0, arrow));
    const std::string field_s = trim(rest.substr(arrow + 2));
    auto field = field_by_name(field_s);
    if (!field) return "unknown field '" + field_s + "'";
    if (*field == FieldId::kIpv6Src || *field == FieldId::kIpv6Dst)
      return "set_field on ipv6 addresses is not supported";
    auto value = parse_field_value(*field, val_s);
    const unsigned width = field_info(*field).width;
    if (!value || (width < 64 && (*value >> width) != 0))
      return "bad value '" + val_s + "'";
    actions.set_field(*field, *value);
    return "";
  }
  if (token.rfind("mod_vlan_vid:", 0) == 0) {
    auto v = parse_u64(token.substr(13));
    if (!v || *v > 0x0fff) return "bad vlan vid '" + token + "'";
    actions.push_vlan(static_cast<uint16_t>(*v));
    return "";
  }
  if (token == "strip_vlan") {
    actions.pop_vlan();
    return "";
  }
  if (token.rfind("tunnel(", 0) == 0 && token.back() == ')') {
    const std::string args = token.substr(7, token.size() - 8);
    const size_t comma = args.find(',');
    if (comma == std::string::npos) return "tunnel needs (port,id)";
    auto port = parse_u64(trim(args.substr(0, comma)));
    auto id = parse_u64(trim(args.substr(comma + 1)));
    if (!port || !id) return "bad tunnel args '" + args + "'";
    actions.tunnel(static_cast<uint32_t>(*port), *id);
    return "";
  }
  if (token.rfind("ct(", 0) == 0 && token.back() == ')') {
    const std::string args = token.substr(3, token.size() - 4);
    OfCt ct;
    bool have_table = false;
    for (const std::string& part : split_commas(args)) {
      if (part == "commit") {
        ct.commit = true;
      } else if (part.rfind("table=", 0) == 0) {
        auto v = parse_u64(part.substr(6));
        if (!v || *v >= Pipeline::kMaxTables)
          return "bad ct table '" + part + "'";
        ct.next_table = static_cast<uint8_t>(*v);
        have_table = true;
      } else if (part.rfind("zone=", 0) == 0) {
        auto v = parse_u64(part.substr(5));
        if (!v || *v > 65535) return "bad ct zone '" + part + "'";
        ct.zone = static_cast<uint16_t>(*v);
      } else if (part.rfind("nat", 0) == 0 && ct.nat != OfCt::Nat::kNone) {
        return "ct takes one nat '" + part + "'";
      } else if (part == "nat") {
        ct.nat = OfCt::Nat::kApply;
      } else if (part.rfind("nat(", 0) == 0 && part.back() == ')') {
        // nat(src=A.B.C.D:PORT) or nat(dst=A.B.C.D:PORT)
        const std::string spec = part.substr(4, part.size() - 5);
        if (spec.rfind("src=", 0) == 0)
          ct.nat = OfCt::Nat::kSrc;
        else if (spec.rfind("dst=", 0) == 0)
          ct.nat = OfCt::Nat::kDst;
        else
          return "bad ct nat spec '" + part + "'";
        const std::string ap = spec.substr(4);
        const size_t colon = ap.rfind(':');
        if (colon == std::string::npos)
          return "ct nat needs addr:port '" + part + "'";
        auto addr = parse_ipv4(ap.substr(0, colon));
        auto port = parse_u64(ap.substr(colon + 1));
        if (!addr || !port || *port > 65535)
          return "bad ct nat addr:port '" + part + "'";
        ct.nat_addr = addr->value();
        ct.nat_port = static_cast<uint16_t>(*port);
      } else {
        return "unknown ct arg '" + part + "'";
      }
    }
    if (!have_table) return "ct needs table=N";
    actions.list.push_back(ct);
    return "";
  }
  return "unknown action '" + token + "'";
}

}  // namespace

FlowParseResult parse_flow(const std::string& text) {
  FlowParseResult res;

  const size_t actions_pos = text.find("actions=");
  if (actions_pos == std::string::npos) {
    res.error = "missing actions=";
    return res;
  }
  std::string match_part = text.substr(0, actions_pos);
  // Strip a trailing comma separating the match from actions.
  const size_t last_comma = match_part.find_last_of(',');
  if (last_comma != std::string::npos &&
      trim(match_part.substr(last_comma + 1)).empty())
    match_part = match_part.substr(0, last_comma);
  const std::string actions_part = text.substr(actions_pos + 8);

  MatchBuilder builder;
  for (const std::string& token : split_commas(match_part)) {
    if (token.empty()) continue;
    if (token.rfind("table=", 0) == 0) {
      auto v = parse_u64(token.substr(6));
      if (!v || *v >= Pipeline::kMaxTables) {
        res.error = "bad table '" + token + "'";
        return res;
      }
      res.flow.table = static_cast<size_t>(*v);
      res.flow.has_table = true;
      continue;
    }
    if (token.rfind("priority=", 0) == 0) {
      auto v = parse_u64(token.substr(9));
      if (!v || *v > 65535) {
        res.error = "bad priority '" + token + "'";
        return res;
      }
      res.flow.priority = static_cast<int32_t>(*v);
      continue;
    }
    if (token.rfind("cookie=", 0) == 0) {
      auto v = parse_u64(token.substr(7));
      if (!v) {
        res.error = "bad cookie '" + token + "'";
        return res;
      }
      res.flow.cookie = *v;
      continue;
    }
    if (token.rfind("idle_timeout=", 0) == 0 ||
        token.rfind("hard_timeout=", 0) == 0) {
      const bool idle = token[0] == 'i';
      auto v = parse_u64(token.substr(13));
      if (!v || *v > 1000000) {
        res.error = "bad timeout '" + token + "'";
        return res;
      }
      (idle ? res.flow.timeouts.idle_ns : res.flow.timeouts.hard_ns) =
          *v * 1000000000ULL;
      continue;
    }
    const std::string err = apply_match_token(builder, token);
    if (!err.empty()) {
      res.error = err;
      return res;
    }
  }
  res.flow.match = builder.build();

  for (const std::string& token : split_commas(actions_part)) {
    const std::string err = apply_action(res.flow.actions, token);
    if (!err.empty()) {
      res.error = err;
      return res;
    }
  }
  // format_flow writes an empty list as "drop", which parses to a drop
  // action: only the explicit form round-trips.
  if (res.flow.actions.list.empty()) {
    res.error = "actions= lists no action (drop for none)";
    return res;
  }
  res.ok = true;
  return res;
}

std::string format_match(const Match& match) {
  std::ostringstream os;
  bool first = true;
  auto emit = [&](const std::string& s) {
    if (!first) os << ", ";
    first = false;
    os << s;
  };

  const FlowMask& m = match.mask;
  const FlowKey& k = match.key;

  // Protocol keywords when the corresponding fields are exact.
  bool et_done = false, proto_done = false;
  if (m.is_exact(FieldId::kEthType)) {
    if (k.eth_type() == ethertype::kArp) {
      emit("arp");
      et_done = true;
    } else if (k.eth_type() == ethertype::kIpv4 &&
               m.is_exact(FieldId::kNwProto)) {
      if (k.nw_proto() == ipproto::kTcp) {
        emit("tcp");
        et_done = proto_done = true;
      } else if (k.nw_proto() == ipproto::kUdp) {
        emit("udp");
        et_done = proto_done = true;
      } else if (k.nw_proto() == ipproto::kIcmp) {
        emit("icmp");
        et_done = proto_done = true;
      }
    }
    if (!et_done && k.eth_type() == ethertype::kIpv4) {
      emit("ip");
      et_done = true;
    } else if (!et_done && k.eth_type() == ethertype::kIpv6) {
      emit("ipv6");
      et_done = true;
    }
  }

  const bool is_icmp = m.is_exact(FieldId::kNwProto) &&
                       (k.nw_proto() == ipproto::kIcmp ||
                        k.nw_proto() == ipproto::kIcmpv6);

  for (size_t i = 0; i < kNumFields; ++i) {
    const auto f = static_cast<FieldId>(i);
    if (!m.has_field(f)) continue;
    if (f == FieldId::kEthType && et_done) continue;
    if (f == FieldId::kNwProto && proto_done) continue;
    const FieldInfo& fi = field_info(f);
    const int plen = m.prefix_len(f);
    std::ostringstream v;
    switch (f) {
      case FieldId::kEthSrc:
        v << "dl_src=" << k.eth_src().to_string();
        break;
      case FieldId::kEthDst:
        v << "dl_dst=" << k.eth_dst().to_string();
        break;
      case FieldId::kNwSrc:
      case FieldId::kNwDst:
        v << fi.name << "="
          << Ipv4(static_cast<uint32_t>(k.get(f))).to_string();
        if (plen >= 0 && plen < 32) v << "/" << plen;
        break;
      case FieldId::kIpv6Src:
        v << "ipv6_src=" << k.ipv6_src().to_string();
        if (plen >= 0 && plen < 128) v << "/" << plen;
        break;
      case FieldId::kIpv6Dst:
        v << "ipv6_dst=" << k.ipv6_dst().to_string();
        if (plen >= 0 && plen < 128) v << "/" << plen;
        break;
      // icmp_type/icmp_code name the exact match only; a prefix keeps the
      // port syntax.
      case FieldId::kTpSrc:
        v << (is_icmp && plen == 16 ? "icmp_type" : "tp_src") << "="
          << k.get(f);
        if (plen >= 0 && plen < 16) v << "/" << plen;
        break;
      case FieldId::kTpDst:
        v << (is_icmp && plen == 16 ? "icmp_code" : "tp_dst") << "="
          << k.get(f);
        if (plen >= 0 && plen < 16) v << "/" << plen;
        break;
      case FieldId::kEthType: {
        char buf[10];
        std::snprintf(buf, sizeof buf, "0x%04x",
                      static_cast<unsigned>(k.eth_type()));
        v << "dl_type=" << buf;
        break;
      }
      default:
        v << fi.name << "=" << k.get(f);
        break;
    }
    emit(v.str());
  }
  if (first) return "(any)";
  return os.str();
}

std::string format_actions(const OfActions& actions) {
  if (actions.list.empty()) return "drop";
  std::ostringstream os;
  bool first = true;
  auto emit = [&](const std::string& s) {
    if (!first) os << ", ";
    first = false;
    os << s;
  };
  for (const OfAction& a : actions.list) {
    if (const auto* o = std::get_if<OfOutput>(&a))
      emit("output:" + std::to_string(o->port));
    else if (std::get_if<OfDrop>(&a))
      emit("drop");
    else if (const auto* r = std::get_if<OfResubmit>(&a))
      emit("resubmit(," + std::to_string(r->table) + ")");
    else if (const auto* sf = std::get_if<OfSetField>(&a)) {
      std::string v;
      if (sf->field == FieldId::kEthSrc || sf->field == FieldId::kEthDst)
        v = EthAddr(sf->value).to_string();
      else if (sf->field == FieldId::kNwSrc || sf->field == FieldId::kNwDst)
        v = Ipv4(static_cast<uint32_t>(sf->value)).to_string();
      else
        v = std::to_string(sf->value);
      emit("set_field:" + v + "->" + field_info(sf->field).name);
    } else if (const auto* t = std::get_if<OfTunnel>(&a)) {
      emit("tunnel(" + std::to_string(t->port) + "," +
           std::to_string(t->tun_id) + ")");
    } else if (const auto* c = std::get_if<OfController>(&a)) {
      emit(c->reason == 0 ? "controller"
                          : "controller:" + std::to_string(c->reason));
    } else if (std::get_if<OfNormal>(&a)) {
      emit("normal");
    } else if (const auto* ct = std::get_if<OfCt>(&a)) {
      std::string s = "ct(";
      if (ct->commit) s += "commit,";
      if (ct->zone != 0) s += "zone=" + std::to_string(ct->zone) + ",";
      if (ct->nat == OfCt::Nat::kApply) {
        s += "nat,";
      } else if (ct->nat != OfCt::Nat::kNone) {
        s += std::string("nat(") +
             (ct->nat == OfCt::Nat::kSrc ? "src=" : "dst=") +
             Ipv4(ct->nat_addr).to_string() + ":" +
             std::to_string(ct->nat_port) + "),";
      }
      emit(s + "table=" + std::to_string(ct->next_table) + ")");
    }
  }
  return os.str();
}

std::string format_flow(size_t table, int32_t priority, const Match& match,
                        const OfActions& actions) {
  std::string s = "table=" + std::to_string(table) +
                  ", priority=" + std::to_string(priority);
  if (!match.mask.is_zero()) s += ", " + format_match(match);
  return s + ", actions=" + format_actions(actions);
}

}  // namespace ovs
