// OpenFlow table generators: the §7.2 microbenchmark table, an NVP-style
// network-virtualization pipeline (§3.2: "flow tables installed by the
// VMware network virtualization controller use a minimum of about 15 table
// lookups per packet"), and random classifier tables for raw lookup
// benchmarks.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "classifier/classifier.h"
#include "util/rng.h"
#include "vswitchd/switch.h"

namespace ovs {

// Installs the 4-flow table of §7.2 into table 0:
//   arp | ip dst 11.1/16 | tcp dst 9.1.1.1 ports 10,10 | ip dst 9.1.1/24
// Actions forward toward `out_port`.
void install_paper_microbench_table(Switch& sw, uint32_t out_port = 2);

// --- NVP-style logical-datapath pipeline ------------------------------------

struct NvpConfig {
  size_t n_tenants = 4;
  size_t vms_per_tenant = 4;
  // Fraction of tenants whose logical datapath carries L4 ACLs (§5.3's
  // staged-lookup scenario: megaflows for other tenants must not match L4).
  double acl_tenant_fraction = 0.5;
  size_t acls_per_tenant = 4;
  // If set, ACL tenants additionally run their IP traffic through
  // connection tracking (§8.1 stateful firewalling). This gives those
  // logical datapaths per-connection megaflows, which is what drives flow
  // counts and flow-setup rates on real NVP hypervisors.
  bool stateful_acl_tenants = false;
  uint32_t first_vm_port = 1;
  uint32_t tunnel_port = 1000;
  uint64_t seed = 17;
};

struct NvpVm {
  uint32_t port = 0;       // switch port
  uint64_t tenant = 0;     // logical datapath id (metadata value)
  EthAddr mac;
  Ipv4 ip;
};

struct NvpTopology {
  std::vector<NvpVm> vms;
  std::vector<uint16_t> blocked_ports;  // per-ACL blocked TCP dst ports
  size_t n_acl_tenants = 0;

  const NvpVm* vm_by_port(uint32_t port) const {
    for (const NvpVm& v : vms)
      if (v.port == port) return &v;
    return nullptr;
  }
  std::vector<const NvpVm*> tenant_vms(uint64_t tenant) const {
    std::vector<const NvpVm*> out;
    for (const NvpVm& v : vms)
      if (v.tenant == tenant) out.push_back(&v);
    return out;
  }
};

// Builds a 4-stage pipeline:
//   table 0: ingress classification (in_port / tun_id -> metadata), resubmit
//   table 1: per-tenant L2 lookup (metadata + eth_dst -> reg1 = dest), resubmit
//   table 2: per-tenant ACLs (L4 port drops for ACL tenants), resubmit
//   table 3: egress (reg1 -> output or tunnel)
// Requires sw to have >= 4 tables. Adds the VM ports and the tunnel port.
NvpTopology install_nvp_pipeline(Switch& sw, const NvpConfig& cfg);

// A packet between two VMs of the same tenant.
Packet nvp_packet(const NvpVm& src, const NvpVm& dst, uint16_t sport,
                  uint16_t dport, uint8_t proto = ipproto::kTcp);

// --- Random classifier tables ------------------------------------------------

// A self-owned rule for benchmark tables.
struct OwnedRule : Rule {
  using Rule::Rule;
};

// Generates `n_flows` random rules spread over `n_tuples` random mask shapes
// and inserts them into `cls`. Returned vector owns the rules (keep it alive
// as long as the classifier).
std::vector<std::unique_ptr<OwnedRule>> build_random_classifier(
    Classifier& cls, size_t n_flows, size_t n_tuples, Rng& rng);

// A random packet that hits the random classifier's value universe.
FlowKey random_classifier_packet(Rng& rng);

}  // namespace ovs
