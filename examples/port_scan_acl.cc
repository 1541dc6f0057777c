// The port-scan scenario that motivates caching-aware classification
// (§5.1, §5.3): a port scan sweeps thousands of destination ports. If even
// one flow in the table matches on TCP ports, a naive cache needs one
// megaflow per scanned port; staged lookup and port prefix tracking keep
// the megaflows wide so the scan stays in the kernel cache.
//
// Run: build/examples/example_port_scan_acl
#include <cstdio>

#include "sim/clock.h"
#include "vswitchd/switch.h"
#include "workload/workloads.h"

using namespace ovs;

namespace {

struct ScanOutcome {
  size_t megaflows;
  uint64_t misses;
  double hit_rate;
};

ScanOutcome run_scan(const ClassifierConfig& cls, bool acl_applies_to_target) {
  SwitchConfig cfg;
  cfg.classifier = cls;
  Switch sw(cfg);
  sw.add_port(1);
  sw.add_port(2);

  // Logical datapath 1 has an L4 ACL (block SMTP); logical datapath 2 has
  // none. The scanned host lives on datapath 1 or 2 per the flag.
  sw.table(0).add_flow(MatchBuilder().metadata(1).tcp().tp_dst(25), 100,
                       OfActions::drop());
  sw.table(0).add_flow(MatchBuilder().metadata(1).ip(), 10,
                       OfActions().output(2));
  sw.table(0).add_flow(MatchBuilder().metadata(2).ip(), 10,
                       OfActions().output(2));

  PortScanWorkload::Config scan_cfg;
  PortScanWorkload scan(scan_cfg);
  VirtualClock clock;
  const size_t kProbes = 5000;
  for (size_t i = 0; i < kProbes; ++i) {
    Packet p = scan.next();
    p.key.set_metadata(acl_applies_to_target ? 1 : 2);
    sw.inject(p, clock.now());
    sw.handle_upcalls(clock.now());
    clock.advance(kMicrosecond);
  }
  const auto& s = sw.backend().stats();
  return {sw.backend().flow_count(), s.misses,
          static_cast<double>(s.microflow_hits + s.megaflow_hits) /
              static_cast<double>(s.packets)};
}

void report(const char* label, const ScanOutcome& o) {
  std::printf("%-46s %9zu %8llu %8.1f%%\n", label, o.megaflows,
              (unsigned long long)o.misses, 100 * o.hit_rate);
}

}  // namespace

int main() {
  std::printf("5000-port TCP scan against a host behind an OVS pipeline "
              "with an SMTP ACL\n\n");
  std::printf("%-46s %9s %8s %9s\n", "configuration", "megaflows", "misses",
              "hit rate");

  // Naive caching: every probe creates (and misses into) its own megaflow.
  report("no caching-aware optimizations, ACL datapath",
         run_scan(ClassifierConfig::all_disabled(), true));

  // Port prefix tracking keeps the ports wildcarded except near port 25.
  {
    ClassifierConfig c = ClassifierConfig::all_disabled();
    c.staged_lookup = true;
    c.port_prefix_tracking = true;
    report("staged lookup + port prefix tracking, ACL dp",
           run_scan(c, true));
  }

  // A datapath WITHOUT L4 ACLs must be entirely unaffected: staged lookup
  // stops at the metadata/L3 stages of the ACL tuple (§5.3).
  {
    ClassifierConfig c = ClassifierConfig::all_disabled();
    c.staged_lookup = true;
    report("staged lookup only, scan on the ACL-free dp",
           run_scan(c, false));
  }

  // Everything on (the shipped configuration).
  report("all optimizations, ACL datapath", run_scan({}, true));
  report("all optimizations, ACL-free datapath", run_scan({}, false));

  std::printf(
      "\nreading: without the optimizations the scan is one flow setup per\n"
      "probe (the §5.1 pathology); with them the whole scan collapses into\n"
      "a handful of megaflows and stays in the kernel cache.\n");
  return 0;
}
