// vswitch-cli: an ovs-ofctl-style interactive shell around a Switch.
//
// Run: build/examples/example_vswitch_cli          (interactive / piped)
//      build/examples/example_vswitch_cli --demo   (scripted demo)
//
// Commands:
//   add-port <n>
//   add-flow <flow>        e.g. add-flow table=0, priority=10, tcp, actions=output:2
//   del-flows              clear all tables
//   dump-flows             print OpenFlow tables
//   dump-megaflows         print the datapath cache
//   inject <in_port> <proto> <src_ip> <dst_ip> <sport> <dport>
//   tick                   advance 1s of virtual time + run maintenance
//   stats
//   help | quit
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "ofproto/flow_parser.h"
#include "sim/clock.h"
#include "vswitchd/config.h"
#include "vswitchd/switch.h"

using namespace ovs;

namespace {

struct Cli {
  Switch sw;
  VirtualClock clock;

  void help() {
    std::printf(
        "commands: add-port N | add-flow FLOW | del-flows [MATCH] |\n"
        "          dump-flows | dump-megaflows | save | load LINE.. |\n"
        "          inject PORT PROTO SRC DST SPORT DPORT |\n"
        "          tick | stats | help | quit\n");
  }

  bool handle(const std::string& line) {
    std::istringstream is(line);
    std::string cmd;
    is >> cmd;
    if (cmd.empty() || cmd[0] == '#') return true;
    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "help") {
      help();
    } else if (cmd == "add-port") {
      uint32_t p = 0;
      if (is >> p) {
        sw.add_port(p);
        std::printf("ok\n");
      } else {
        std::printf("usage: add-port N\n");
      }
    } else if (cmd == "add-flow") {
      std::string rest;
      std::getline(is, rest);
      const std::string err = sw.add_flow(rest);
      std::printf("%s\n", err.empty() ? "ok" : err.c_str());
    } else if (cmd == "del-flows") {
      std::string rest;
      std::getline(is, rest);
      size_t n = 0;
      const std::string err = sw.del_flows(rest, &n);
      if (err.empty())
        std::printf("deleted %zu flow(s)\n", n);
      else
        std::printf("%s\n", err.c_str());
    } else if (cmd == "save") {
      std::printf("%s", save_switch_config(sw).c_str());
    } else if (cmd == "dump-flows") {
      for (const std::string& f : sw.dump_flows())
        std::printf("  %s\n", f.c_str());
    } else if (cmd == "dump-megaflows") {
      for (Datapath::FlowRef f : sw.backend().dump())
        std::printf("  mask{%s} key{%s} packets=%llu actions=%s\n",
                    sw.backend().flow_match(f).mask.to_string().c_str(),
                    sw.backend().flow_match(f).key.to_string().c_str(),
                    (unsigned long long)sw.backend().flow_packets(f),
                    sw.backend().flow_actions(f).to_string().c_str());
    } else if (cmd == "inject") {
      uint32_t port = 0;
      std::string proto, src, dst;
      uint16_t sport = 0, dport = 0;
      if (!(is >> port >> proto >> src >> dst >> sport >> dport)) {
        std::printf("usage: inject PORT tcp|udp|icmp SRC DST SPORT DPORT\n");
        return true;
      }
      // Reuse the flow parser's address handling via a synthetic match.
      FlowParseResult pr = parse_flow(proto + ", nw_src=" + src +
                                      ", nw_dst=" + dst + ", actions=drop");
      if (!pr.ok) {
        std::printf("%s\n", pr.error.c_str());
        return true;
      }
      Packet p;
      p.key = pr.flow.match.key;
      p.key.set_in_port(port);
      p.key.set_tp_src(sport);
      p.key.set_tp_dst(dport);
      auto path = sw.inject(p, clock.now());
      sw.handle_upcalls(clock.now());
      const char* names[] = {"offload hit", "microflow hit", "megaflow hit",
                             "miss -> flow setup"};
      std::printf("%s\n", names[static_cast<int>(path)]);
    } else if (cmd == "tick") {
      clock.advance(kSecond);
      sw.run_maintenance(clock.now());
      std::printf("t=%llus\n", (unsigned long long)(clock.now() / kSecond));
    } else if (cmd == "stats") {
      const auto& s = sw.backend().stats();
      std::printf("packets=%llu emc_hits=%llu megaflow_hits=%llu "
                  "misses=%llu flows=%zu masks=%zu setups=%llu\n",
                  (unsigned long long)s.packets,
                  (unsigned long long)s.microflow_hits,
                  (unsigned long long)s.megaflow_hits,
                  (unsigned long long)s.misses, sw.backend().flow_count(),
                  sw.backend().mask_count(),
                  (unsigned long long)sw.counters().flow_setups);
    } else {
      std::printf("unknown command '%s' (try help)\n", cmd.c_str());
    }
    return true;
  }
};

const char* kDemoScript[] = {
    "add-port 1",
    "add-port 2",
    "add-flow table=0, priority=10, tcp, nw_dst=9.1.1.0/24, actions=output:2",
    "add-flow table=0, priority=20, tcp, tp_dst=25, actions=drop",
    "dump-flows",
    "inject 1 tcp 10.0.0.1 9.1.1.7 40000 80",
    "inject 1 tcp 10.0.0.1 9.1.1.7 40000 80",
    "inject 1 tcp 10.0.0.2 9.1.1.9 41000 443",
    "inject 1 tcp 10.0.0.3 9.1.1.9 42000 25",
    "dump-megaflows",
    "stats",
    "tick",
    "del-flows tcp, tp_dst=25",
    "dump-flows",
    "save",
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  const bool demo = argc > 1 && std::string(argv[1]) == "--demo";
  if (demo) {
    for (const char* line : kDemoScript) {
      std::printf("vswitch> %s\n", line);
      cli.handle(line);
    }
    return 0;
  }
  cli.help();
  std::string line;
  while (std::printf("vswitch> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    if (!cli.handle(line)) break;
  }
  return 0;
}
