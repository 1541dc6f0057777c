#include "testing/scenario.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <sstream>

#include "datapath/conntrack.h"
#include "sim/clock.h"
#include "util/rng.h"

namespace ovs::fuzz {

namespace {

bool parse_fault_point(const std::string& name, FaultPoint* out) {
  for (size_t i = 0; i < kNumFaultPoints; ++i) {
    const auto p = static_cast<FaultPoint>(i);
    if (name == fault_point_name(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

}  // namespace

std::string FuzzEvent::to_line() const {
  char buf[64];
  switch (kind) {
    case Kind::kPacket: {
      std::string s = "packet ";
      std::snprintf(buf, sizeof(buf), "%" PRIu32, pkt.size_bytes);
      s += buf;
      for (uint64_t w : pkt.key.w) {
        std::snprintf(buf, sizeof(buf), " %" PRIx64, w);
        s += buf;
      }
      return s;
    }
    case Kind::kAddFlow:
      return "add_flow " + text;
    case Kind::kDelFlows:
      return "del_flows " + text;
    case Kind::kAddPort:
      std::snprintf(buf, sizeof(buf), "add_port %" PRIu32, port);
      return buf;
    case Kind::kRemovePort:
      std::snprintf(buf, sizeof(buf), "remove_port %" PRIu32, port);
      return buf;
    case Kind::kRevalTick:
      return "reval_tick";
    case Kind::kAdvanceTime:
      std::snprintf(buf, sizeof(buf), "advance %" PRIu64, dt_ns);
      return buf;
    case Kind::kFaultWindow: {
      std::string s = "fault ";
      s += fault_point_name(fault);
      std::snprintf(buf, sizeof(buf), " %" PRIu32, fault_count);
      s += buf;
      return s;
    }
    case Kind::kCrash:
      return "crash";
    case Kind::kCtCommit:
    case Kind::kCtRemove: {
      std::string s =
          kind == Kind::kCtCommit ? "ct_commit " : "ct_remove ";
      std::snprintf(buf, sizeof(buf), "%" PRIu16, ct_zone);
      s += buf;
      for (uint64_t w : pkt.key.w) {
        std::snprintf(buf, sizeof(buf), " %" PRIx64, w);
        s += buf;
      }
      if (kind == Kind::kCtCommit && ct_nat) {
        std::snprintf(buf, sizeof(buf), " nat %s %" PRIu32 " %" PRIu16,
                      ct_nat_src ? "src" : "dst", ct_nat_addr, ct_nat_port);
        s += buf;
      }
      return s;
    }
  }
  return "";
}

bool FuzzEvent::from_line(const std::string& line, FuzzEvent* out) {
  std::istringstream in(line);
  std::string word;
  if (!(in >> word)) return false;
  FuzzEvent ev;
  if (word == "packet") {
    ev.kind = Kind::kPacket;
    if (!(in >> ev.pkt.size_bytes)) return false;
    for (size_t i = 0; i < kFlowWords; ++i)
      if (!(in >> std::hex >> ev.pkt.key.w[i])) return false;
  } else if (word == "add_flow" || word == "del_flows") {
    ev.kind = word == "add_flow" ? Kind::kAddFlow : Kind::kDelFlows;
    std::getline(in, ev.text);
    // Trim the single separating space; a del_flows spec may be empty
    // ("delete everything").
    if (!ev.text.empty() && ev.text.front() == ' ') ev.text.erase(0, 1);
    if (ev.kind == Kind::kAddFlow && ev.text.empty()) return false;
  } else if (word == "add_port" || word == "remove_port") {
    ev.kind = word == "add_port" ? Kind::kAddPort : Kind::kRemovePort;
    if (!(in >> ev.port)) return false;
  } else if (word == "reval_tick") {
    ev.kind = Kind::kRevalTick;
  } else if (word == "advance") {
    ev.kind = Kind::kAdvanceTime;
    if (!(in >> ev.dt_ns)) return false;
  } else if (word == "fault") {
    ev.kind = Kind::kFaultWindow;
    std::string name;
    if (!(in >> name >> ev.fault_count)) return false;
    if (!parse_fault_point(name, &ev.fault)) return false;
  } else if (word == "crash") {
    ev.kind = Kind::kCrash;
  } else if (word == "ct_commit" || word == "ct_remove") {
    ev.kind = word == "ct_commit" ? Kind::kCtCommit : Kind::kCtRemove;
    if (!(in >> ev.ct_zone)) return false;
    for (size_t i = 0; i < kFlowWords; ++i)
      if (!(in >> std::hex >> ev.pkt.key.w[i])) return false;
    in >> std::dec;
    std::string tail;
    if (in >> tail) {
      if (ev.kind != Kind::kCtCommit || tail != "nat") return false;
      std::string dir;
      uint32_t port;
      if (!(in >> dir >> ev.ct_nat_addr >> port)) return false;
      if (dir != "src" && dir != "dst") return false;
      if (port > 65535) return false;
      ev.ct_nat = true;
      ev.ct_nat_src = dir == "src";
      ev.ct_nat_port = static_cast<uint16_t>(port);
    }
  } else {
    return false;
  }
  *out = std::move(ev);
  return true;
}

bool Scenario::has_faults() const {
  for (const FuzzEvent& ev : events)
    if (ev.kind == FuzzEvent::Kind::kFaultWindow ||
        ev.kind == FuzzEvent::Kind::kCrash)
      return true;
  return false;
}

bool Scenario::has_fault_windows() const {
  for (const FuzzEvent& ev : events)
    if (ev.kind == FuzzEvent::Kind::kFaultWindow) return true;
  return false;
}

bool Scenario::has_crashes() const {
  for (const FuzzEvent& ev : events)
    if (ev.kind == FuzzEvent::Kind::kCrash) return true;
  return false;
}

size_t Scenario::packet_count() const {
  size_t n = 0;
  for (const FuzzEvent& ev : events)
    if (ev.kind == FuzzEvent::Kind::kPacket) ++n;
  return n;
}

std::string Scenario::serialize() const {
  std::string out = "seed " + std::to_string(seed) + "\n";
  for (const FuzzEvent& ev : events) {
    out += ev.to_line();
    out += '\n';
  }
  return out;
}

bool Scenario::deserialize(const std::string& text, Scenario* out) {
  Scenario sc;
  std::istringstream in(text);
  std::string line;
  bool saw_seed = false;
  while (std::getline(in, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' '))
      line.pop_back();
    if (line.empty() || line.front() == '#') continue;
    if (!saw_seed && line.rfind("seed ", 0) == 0) {
      sc.seed = std::strtoull(line.c_str() + 5, nullptr, 10);
      saw_seed = true;
      continue;
    }
    FuzzEvent ev;
    if (!FuzzEvent::from_line(line, &ev)) return false;
    sc.events.push_back(std::move(ev));
  }
  *out = std::move(sc);
  return true;
}

namespace {

// Stateful service ports: 7070/9090 run through lookup-only ct, 6060
// through lookup-only ct with NAT application, 9090 in its own zone. The
// committing templates take over 7070 and 6060 once added.
constexpr uint16_t kCtPort = 7070;
constexpr uint16_t kCtZonePort = 9090;
constexpr uint16_t kCtNatPort = 6060;

// The rule-template family. All templates avoid NORMAL (see header
// comment), yet together they exercise priorities, CIDR prefixes (megaflow
// widening), resubmit, set-field, tunnels, controller sends, drops, and
// committing conntrack: ct(commit) and ct(commit,nat) rules shadow the
// prologue's lookup-only ct on two service ports, so forward packets commit
// their connections (and pick up the bindings ct_commit events made) from
// then on. Lookup-only ct rules are part of the fixed prologue (below).
std::string make_rule(Rng& rng, uint32_t n_ports, int* reroute_priority) {
  char buf[160];
  const auto port = [&] { return 1 + rng.uniform(n_ports); };
  switch (rng.uniform(10)) {
    case 0:  // /16 prefix route
      std::snprintf(buf, sizeof(buf),
                    "priority=10, ip, nw_dst=10.%" PRIu64
                    ".0.0/16, actions=output:%" PRIu64,
                    rng.uniform(8), port());
      return buf;
    case 1:  // exact-service route
      std::snprintf(buf, sizeof(buf),
                    "priority=20, tcp, tp_dst=443, actions=output:%" PRIu64,
                    port());
      return buf;
    case 2:  // DNS to a tunnel
      return "priority=24, udp, tp_dst=53, actions=tunnel(9,77)";
    case 3:  // SSH to the controller
      return "priority=28, tcp, tp_dst=22, actions=controller";
    case 4: {  // /24 override that resubmits into table 1
      const uint64_t a = rng.uniform(8), b = rng.uniform(4);
      std::snprintf(buf, sizeof(buf),
                    "priority=14, ip, nw_dst=10.%" PRIu64 ".%" PRIu64
                    ".0/24, actions=resubmit(,1)",
                    a, b);
      return buf;
    }
    case 5:  // table-1 default the resubmits land on
      std::snprintf(buf, sizeof(buf),
                    "table=1, priority=5, ip, actions=output:%" PRIu64,
                    port());
      return buf;
    case 6:  // blocklisted source range
      return "priority=8, ip, nw_src=11.0.0.0/8, actions=drop";
    case 8:  // committing ct on the plain stateful service
      std::snprintf(buf, sizeof(buf),
                    "priority=36, tcp, tp_dst=%u, actions=ct(commit,table=2)",
                    kCtPort);
      return buf;
    case 9:  // committing ct that applies NAT bindings
      std::snprintf(buf, sizeof(buf),
                    "priority=36, tcp, tp_dst=%u, "
                    "actions=ct(commit,nat,table=2)",
                    kCtNatPort);
      return buf;
    default: {  // reroute: shadow earlier service routes at higher priority,
                // optionally remarking TOS on the way out
      const int prio = (*reroute_priority)++;
      if (rng.chance(0.5)) {
        std::snprintf(buf, sizeof(buf),
                      "priority=%d, tcp, tp_dst=8080, "
                      "actions=set_field:7->nw_tos, output:%" PRIu64,
                      prio, port());
      } else {
        std::snprintf(buf, sizeof(buf),
                      "priority=%d, tcp, tp_dst=443, actions=output:%" PRIu64,
                      prio, port());
      }
      return buf;
    }
  }
}

// Loose-match delete specs; never table-wide so scenarios keep forwarding.
std::string make_delete(Rng& rng) {
  char buf[96];
  switch (rng.uniform(3)) {
    case 0:
      std::snprintf(buf, sizeof(buf), "ip, nw_dst=10.%" PRIu64 ".0.0/16",
                    rng.uniform(8));
      return buf;
    case 1:
      return "tcp, tp_dst=443";
    default:
      return "udp, tp_dst=53";
  }
}


uint16_t zone_for(uint16_t dport) { return dport == kCtZonePort ? 1 : 0; }

// The NAT binding a ct_commit event requests for pool connection `conn`:
// unique per connection so post-NAT tuples never collide.
CtNatSpec nat_for(uint64_t conn) {
  CtNatSpec nat;
  nat.src = true;
  nat.addr = (192u << 24) | (0u << 16) | (2u << 8) |
             static_cast<uint32_t>(conn & 0xff);
  nat.port = static_cast<uint16_t>(40000 + conn);
  return nat;
}

// The forward-direction 5-tuple of pool connection `conn`: a pure function
// of the connection id, so packet events and ct events rebuild the exact
// same tuple independently.
FlowKey conn_tuple(uint64_t conn, const GeneratorConfig& cfg) {
  Rng crng(0xC0FFEE ^ (conn * 0x9E3779B97F4A7C15ULL));
  FlowKey k;
  const uint32_t in_port =
      1 + static_cast<uint32_t>(crng.uniform(cfg.n_ports));
  k.set_in_port(in_port);
  k.set_eth_src(EthAddr(in_port));
  k.set_eth_dst(EthAddr(0x99));
  k.set_eth_type(ethertype::kIpv4);
  // ~1/8 of connections come from the blocklisted 11/8 range.
  if (crng.chance(0.125)) {
    k.set_nw_src(Ipv4((11u << 24) |
                      static_cast<uint32_t>(crng.uniform(1u << 16))));
  } else {
    k.set_nw_src(Ipv4((192u << 24) | (168u << 16) |
                      static_cast<uint32_t>(crng.uniform(1u << 16))));
  }
  k.set_nw_dst(Ipv4((10u << 24) |
                    (static_cast<uint32_t>(crng.uniform(8)) << 16) |
                    (static_cast<uint32_t>(crng.uniform(4)) << 8) | 5));
  static constexpr uint16_t kDports[] = {80,   443,  53,        22,
                                         8080, kCtPort, kCtZonePort,
                                         kCtNatPort};
  k.set_tp_dst(kDports[crng.uniform(std::size(kDports))]);
  const bool udp = k.tp_dst() == 53;
  k.set_nw_proto(udp ? ipproto::kUdp : ipproto::kTcp);
  k.set_tp_src(static_cast<uint16_t>(1024 + crng.uniform(64)));
  k.set_nw_ttl(64);
  return k;
}

Packet make_packet(Rng& rng, const GeneratorConfig& cfg) {
  // Draw from a bounded connection pool so scenarios revisit flows (cache
  // hits) instead of being all-miss traffic.
  const uint64_t conn = rng.uniform(cfg.n_conns);
  Packet p;
  p.key = conn_tuple(conn, cfg);
  // Direction mix: mostly forward, some replies (which flip the ct_state
  // the stateful tables see), and for NAT connections some replies sent to
  // the NAT address (exercising the reverse entry's un-NAT rewrite).
  const double dir = rng.uniform_double();
  if (dir >= 0.70) {
    const FlowKey fwd = p.key;
    if (dir >= 0.90 && fwd.tp_dst() == kCtNatPort) {
      const CtNatSpec nat = nat_for(conn);
      p.key.set_nw_src(fwd.nw_dst());
      p.key.set_tp_src(fwd.tp_dst());
      p.key.set_nw_dst(Ipv4(nat.addr));
      p.key.set_tp_dst(nat.port);
    } else {
      p.key.set_nw_src(fwd.nw_dst());
      p.key.set_nw_dst(fwd.nw_src());
      p.key.set_tp_src(fwd.tp_dst());
      p.key.set_tp_dst(fwd.tp_src());
    }
    // A reply enters on a different port than the forward path (still
    // within the base range so it stays valid under port churn).
    p.key.set_in_port(1 + static_cast<uint32_t>((conn + 1) % cfg.n_ports));
    p.key.set_eth_src(EthAddr(p.key.in_port()));
  }
  // Some TCP segments close their connection, so committing ct tears
  // connections down (half-close, RST) on both sides of the harness.
  if (p.key.nw_proto() == ipproto::kTcp) {
    const double close = rng.uniform_double();
    if (close < 0.04)
      p.key.set_tcp_flags(tcpflags::kRst);
    else if (close < 0.16)
      p.key.set_tcp_flags(tcpflags::kFin | 0x010);
  }
  // size_bytes is the runner's packet<->trace correlation id; the caller
  // overwrites it per event.
  p.size_bytes = 64;
  return p;
}

}  // namespace

Scenario generate_scenario(uint64_t seed, const GeneratorConfig& cfg) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5EED);
  Scenario sc;
  sc.seed = seed;

  // Prologue: ports and a base rule set, as replayable events so the
  // shrinker can drop unused ones.
  for (uint32_t p = 1; p <= cfg.n_ports; ++p) {
    FuzzEvent ev;
    ev.kind = FuzzEvent::Kind::kAddPort;
    ev.port = p;
    sc.events.push_back(std::move(ev));
  }
  int reroute_priority = 40;
  const size_t n_base_rules = 5 + rng.uniform(3);
  for (size_t i = 0; i < n_base_rules; ++i) {
    FuzzEvent ev;
    ev.kind = FuzzEvent::Kind::kAddFlow;
    ev.text = make_rule(rng, static_cast<uint32_t>(cfg.n_ports),
                        &reroute_priority);
    sc.events.push_back(std::move(ev));
  }
  // Stateful prologue: lookup-only ct entry rules for both directions of
  // the ct service ports, and a table-2 ct_state dispatch. Output ports are
  // seeded per scenario; the rules themselves are fixed so every scenario
  // exercises the conntrack seam (the shrinker drops whichever the
  // reproducer doesn't need).
  {
    char buf[128];
    std::vector<std::string> ct_rules;
    const auto out_port = [&] { return 1 + rng.uniform(cfg.n_ports); };
    std::snprintf(buf, sizeof(buf),
                  "priority=35, tcp, tp_dst=%u, actions=ct(table=2)", kCtPort);
    ct_rules.push_back(buf);
    std::snprintf(buf, sizeof(buf),
                  "priority=35, tcp, tp_src=%u, actions=ct(table=2)", kCtPort);
    ct_rules.push_back(buf);
    std::snprintf(buf, sizeof(buf),
                  "priority=35, tcp, tp_dst=%u, actions=ct(nat,table=2)",
                  kCtNatPort);
    ct_rules.push_back(buf);
    std::snprintf(buf, sizeof(buf),
                  "priority=35, tcp, tp_src=%u, actions=ct(nat,table=2)",
                  kCtNatPort);
    ct_rules.push_back(buf);
    std::snprintf(buf, sizeof(buf),
                  "priority=35, tcp, tp_dst=%u, actions=ct(zone=1,table=2)",
                  kCtZonePort);
    ct_rules.push_back(buf);
    std::snprintf(buf, sizeof(buf),
                  "priority=35, tcp, tp_src=%u, actions=ct(zone=1,table=2)",
                  kCtZonePort);
    ct_rules.push_back(buf);
    // ct_state dispatch: new / established-forward / established-reply
    // routes plus a default (symmetric never occurs in pool traffic).
    for (unsigned st : {1u, 2u, 6u}) {
      std::snprintf(buf, sizeof(buf),
                    "table=2, priority=30, ct_state=%u, actions=output:%" PRIu64,
                    st, out_port());
      ct_rules.push_back(buf);
    }
    std::snprintf(buf, sizeof(buf),
                  "table=2, priority=1, actions=output:%" PRIu64, out_port());
    ct_rules.push_back(buf);
    for (std::string& r : ct_rules) {
      FuzzEvent ev;
      ev.kind = FuzzEvent::Kind::kAddFlow;
      ev.text = std::move(r);
      sc.events.push_back(std::move(ev));
    }
  }

  const GeneratorWeights& w = cfg.weights;
  const double total = w.packet + w.add_flow + w.del_flows + w.port_churn +
                       w.reval_tick + w.advance + w.fault + w.crash +
                       w.ct_commit + w.ct_remove;
  bool crashed_once = false;
  for (size_t i = 0; i < cfg.n_events; ++i) {
    double r = rng.uniform_double() * total;
    FuzzEvent ev;
    if ((r -= w.packet) < 0) {
      ev.kind = FuzzEvent::Kind::kPacket;
      ev.pkt = make_packet(rng, cfg);
    } else if ((r -= w.add_flow) < 0) {
      ev.kind = FuzzEvent::Kind::kAddFlow;
      ev.text = make_rule(rng, static_cast<uint32_t>(cfg.n_ports),
                          &reroute_priority);
    } else if ((r -= w.del_flows) < 0) {
      ev.kind = FuzzEvent::Kind::kDelFlows;
      ev.text = make_delete(rng);
    } else if ((r -= w.port_churn) < 0) {
      // Churn only ports above the base range so pool traffic keeps valid
      // ingress ports.
      ev.kind = rng.chance(0.5) ? FuzzEvent::Kind::kAddPort
                                : FuzzEvent::Kind::kRemovePort;
      ev.port = static_cast<uint32_t>(cfg.n_ports) + 1 +
                static_cast<uint32_t>(rng.uniform(3));
    } else if ((r -= w.reval_tick) < 0) {
      ev.kind = FuzzEvent::Kind::kRevalTick;
    } else if ((r -= w.advance) < 0) {
      ev.kind = FuzzEvent::Kind::kAdvanceTime;
      ev.dt_ns = kMillisecond + rng.uniform(500) * kMillisecond;
    } else if ((r -= w.fault) < 0) {
      ev.kind = FuzzEvent::Kind::kFaultWindow;
      // Only slow-path faults whose effects the oracle's acceptable-set
      // semantics cover; kEntryCorrupt/kEntryExpire mutate installed state
      // in ways no per-config oracle can predict and are left to the
      // dedicated fault-injection tests.
      static constexpr FaultPoint kArmable[] = {
          FaultPoint::kUpcallDrop,        FaultPoint::kUpcallDelay,
          FaultPoint::kUpcallDuplicate,   FaultPoint::kInstallTableFull,
          FaultPoint::kInstallTransient,  FaultPoint::kRevalidatorStall,
          FaultPoint::kReconcileStall,
      };
      ev.fault = kArmable[rng.uniform(std::size(kArmable))];
      ev.fault_count = 1 + static_cast<uint32_t>(rng.uniform(4));
    } else if ((r -= w.crash) < 0) {
      // At most one crash per scenario keeps replays fast (each crash costs
      // a full restart/reconcile round) without losing coverage.
      if (crashed_once) {
        ev.kind = FuzzEvent::Kind::kRevalTick;
      } else {
        ev.kind = FuzzEvent::Kind::kCrash;
        crashed_once = true;
      }
    } else if ((r -= w.ct_commit) < 0) {
      // Connection churn: commit a pool connection (with its NAT binding on
      // the NAT service port). Committing already-committed connections is
      // the refresh path; with the harness's small ct caps the churn drives
      // LRU eviction on both sides.
      const uint64_t conn = rng.uniform(cfg.n_conns);
      ev.kind = FuzzEvent::Kind::kCtCommit;
      ev.pkt.key = conn_tuple(conn, cfg);
      ev.ct_zone = zone_for(ev.pkt.key.tp_dst());
      if (ev.pkt.key.tp_dst() == kCtNatPort) {
        const CtNatSpec nat = nat_for(conn);
        ev.ct_nat = true;
        ev.ct_nat_src = nat.src;
        ev.ct_nat_addr = nat.addr;
        ev.ct_nat_port = nat.port;
      }
    } else {
      const uint64_t conn = rng.uniform(cfg.n_conns);
      ev.kind = FuzzEvent::Kind::kCtRemove;
      ev.pkt.key = conn_tuple(conn, cfg);
      ev.ct_zone = zone_for(ev.pkt.key.tp_dst());
    }
    sc.events.push_back(std::move(ev));
  }
  // Always end with a tick so in-flight upcalls get a serving window.
  FuzzEvent final_tick;
  final_tick.kind = FuzzEvent::Kind::kRevalTick;
  sc.events.push_back(std::move(final_tick));
  return sc;
}

}  // namespace ovs::fuzz
