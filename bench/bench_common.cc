#include "bench_common.h"

#include <algorithm>
#include <cstdlib>

#include "sim/clock.h"
#include "workload/table_gen.h"

namespace ovs::benchutil {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace

BenchReport::BenchReport(std::string bench_name)
    : name_(std::move(bench_name)) {}

BenchReport::~BenchReport() { write(); }

void BenchReport::add(const std::string& metric, double value,
                      const std::map<std::string, std::string>& params,
                      uint64_t repeats) {
  rows_.push_back(Row{metric, value, repeats, params});
}

void BenchReport::write() {
  if (written_) return;
  written_ = true;
  std::string dir = ".";
  if (const char* env = std::getenv("BENCH_OUT")) dir = env;
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "BenchReport: cannot open %s for writing\n",
                 path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"name\": \"%s\",\n  \"rows\": [\n",
               json_escape(name_).c_str());
  for (size_t i = 0; i < rows_.size(); ++i) {
    const Row& r = rows_[i];
    std::fprintf(f,
                 "    {\"metric\": \"%s\", \"value\": %.17g, "
                 "\"repeats\": %llu, \"params\": {",
                 json_escape(r.metric).c_str(), r.value,
                 static_cast<unsigned long long>(r.repeats));
    size_t j = 0;
    for (const auto& [k, v] : r.params)
      std::fprintf(f, "%s\"%s\": \"%s\"", j++ ? ", " : "",
                   json_escape(k).c_str(), json_escape(v).c_str());
    std::fprintf(f, "}}%s\n", i + 1 < rows_.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    const size_t eq = arg.find('=');
    if (eq == std::string::npos)
      kv_[arg.substr(2)] = "1";
    else
      kv_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
}

uint64_t Flags::u64(const std::string& name, uint64_t def) const {
  auto it = kv_.find(name);
  return it == kv_.end() ? def : std::stoull(it->second);
}

double Flags::f64(const std::string& name, double def) const {
  auto it = kv_.find(name);
  return it == kv_.end() ? def : std::stod(it->second);
}

bool Flags::boolean(const std::string& name, bool def) const {
  auto it = kv_.find(name);
  if (it == kv_.end()) return def;
  return it->second != "0" && it->second != "false";
}

std::string Flags::str(const std::string& name,
                       const std::string& def) const {
  auto it = kv_.find(name);
  return it == kv_.end() ? def : it->second;
}

double model_tps(double user_cycles_per_txn, double kernel_cycles_per_txn,
                 double misses_per_txn, const CostModel& cost,
                 const CrrModel& model) {
  const double core_cps = cost.ghz * 1e9;
  const double cap_user =
      user_cycles_per_txn > 0
          ? model.user_cores * core_cps / user_cycles_per_txn
          : 1e12;
  const double cap_kernel =
      kernel_cycles_per_txn > 0
          ? model.kernel_cores * core_cps / kernel_cycles_per_txn
          : 1e12;
  const double latency =
      model.app_floor_s + misses_per_txn * model.upcall_rt_s;
  const double cap_app = model.sessions / latency;
  return 1.0 / (1.0 / cap_user + 1.0 / cap_kernel + 1.0 / cap_app);
}

CrrResult run_crr_experiment(const SwitchConfig& cfg, size_t warmup,
                             size_t txns, const CrrModel& model) {
  Switch sw(cfg);
  sw.add_port(1);
  sw.add_port(2);
  install_paper_microbench_table(sw, 2);

  TcpCrrWorkload crr(TcpCrrWorkload::Config{});
  VirtualClock clock;

  double tps_est = 50000;  // refined as cycle costs are observed
  uint64_t next_maintenance = kSecond;
  uint64_t measured_start_misses = 0;
  double measured_start_user = 0, measured_start_kernel = 0;
  uint64_t measured_start_packets = 0, measured_start_tuples = 0;

  // Background chatter present on any real segment: periodic ARP refreshes
  // and ICMP pings. They diversify the megaflow mask population the way the
  // paper's testbed traffic did, without perturbing the CRR rates.
  auto inject_background = [&]() {
    Packet arp;
    arp.key.set_in_port(1);
    arp.key.set_eth_src(EthAddr(0x02, 0, 0, 0, 0, 1));
    arp.key.set_eth_dst(kEthBroadcast);
    arp.key.set_eth_type(ethertype::kArp);
    arp.key.set_arp_op(1);
    arp.key.set_nw_src(Ipv4(10, 1, 0, 1));
    arp.key.set_nw_dst(Ipv4(9, 1, 1, 2));
    sw.inject(arp, clock.now());
    sw.handle_upcalls(clock.now());
    Packet ping;
    ping.key.set_in_port(2);
    ping.key.set_eth_src(EthAddr(0x02, 0, 0, 0, 0, 2));
    ping.key.set_eth_dst(EthAddr(0x02, 0, 0, 0, 0, 1));
    ping.key.set_eth_type(ethertype::kIpv4);
    ping.key.set_nw_proto(ipproto::kIcmp);
    ping.key.set_nw_src(Ipv4(9, 1, 1, 2));
    ping.key.set_nw_dst(Ipv4(10, 1, 0, 1));
    ping.key.set_tp_src(8);
    sw.inject(ping, clock.now());
    sw.handle_upcalls(clock.now());
  };

  const size_t total = warmup + txns;
  // With cfg.rx_batch > 1, `burst` of the 400 parallel CRR sessions are
  // interleaved onto the wire: packet k of each in-flight transaction rides
  // in one receive burst through Switch::inject_batch. Each session is still
  // a serial request-response loop (packet k+1 never precedes packet k, and
  // upcalls drain between bursts), so flow-setup semantics are unchanged.
  const size_t burst = std::max<size_t>(1, cfg.rx_batch);
  std::vector<std::vector<Packet>> group;
  std::vector<Packet> wire;
  size_t next_background = 0;
  size_t t = 0;
  while (t < total) {
    if (t >= next_background) {
      inject_background();
      next_background += 256;
    }
    if (t == warmup || (t < warmup && t + burst > warmup)) {
      measured_start_misses = sw.backend().stats().misses;
      measured_start_user = sw.cpu().user_cycles;
      measured_start_kernel = sw.cpu().kernel_cycles;
      measured_start_packets = sw.backend().stats().packets;
      measured_start_tuples = sw.backend().stats().tuples_searched;
    }
    const size_t b = std::min(burst, total - t);
    if (b == 1) {
      // Netperf CRR is a serial request-response loop: each packet is only
      // sent once the previous one was delivered, so a pending flow setup
      // completes before the next packet of the same connection arrives.
      for (const Packet& pkt : crr.next_transaction()) {
        sw.inject(pkt, clock.now());
        sw.handle_upcalls(clock.now());
      }
    } else {
      group.clear();
      size_t maxlen = 0;
      for (size_t j = 0; j < b; ++j) {
        group.push_back(crr.next_transaction());
        maxlen = std::max(maxlen, group.back().size());
      }
      for (size_t k = 0; k < maxlen; ++k) {
        wire.clear();
        for (const auto& txn : group)
          if (k < txn.size()) wire.push_back(txn[k]);
        sw.inject_batch(wire, clock.now());
        sw.handle_upcalls(clock.now());
      }
    }

    // Advance virtual time at the currently-estimated transaction rate so
    // idle timeouts and revalidation behave as they would at that rate.
    clock.advance(static_cast<uint64_t>(
        static_cast<double>(b) * 1e9 / tps_est));
    while (clock.now() >= next_maintenance) {
      sw.run_maintenance(clock.now());
      next_maintenance += kSecond;
    }
    const size_t t2 = t + b;
    if (t2 > warmup && t2 / 1024 != t / 1024) {
      const double txns_done = static_cast<double>(t2 - warmup);
      const double user_cpt =
          (sw.cpu().user_cycles - measured_start_user) / txns_done;
      const double kern_cpt =
          (sw.cpu().kernel_cycles - measured_start_kernel) / txns_done;
      const double mpt =
          static_cast<double>(sw.backend().stats().misses -
                              measured_start_misses) /
          txns_done;
      tps_est = model_tps(user_cpt, kern_cpt, mpt, cfg.cost, model);
    }
    t = t2;
  }

  const double txns_done = static_cast<double>(txns);
  const double user_cpt =
      (sw.cpu().user_cycles - measured_start_user) / txns_done;
  const double kern_cpt =
      (sw.cpu().kernel_cycles - measured_start_kernel) / txns_done;
  const double misses_per_txn =
      static_cast<double>(sw.backend().stats().misses -
                          measured_start_misses) /
      txns_done;

  CrrResult r;
  const double tps = model_tps(user_cpt, kern_cpt, misses_per_txn,
                               cfg.cost, model);
  r.ktps = tps / 1000.0;
  r.misses_per_txn = misses_per_txn;
  // Steady-state flow count: every flow setup lives for the idle timeout.
  const double idle_s =
      static_cast<double>(cfg.idle_timeout_ns) / 1e9;
  const double extrapolated = misses_per_txn * tps * idle_s;
  r.flows = std::min(static_cast<double>(cfg.flow_limit),
                     std::max(extrapolated,
                              static_cast<double>(sw.backend().flow_count())));
  r.masks = static_cast<double>(sw.backend().mask_count());
  r.tuples_per_pkt =
      static_cast<double>(sw.backend().stats().tuples_searched -
                          measured_start_tuples) /
      static_cast<double>(sw.backend().stats().packets -
                          measured_start_packets);
  // CPU% of one core at the modeled rate.
  const double core_cps = cfg.cost.ghz * 1e9;
  r.user_cpu_pct = 100.0 * user_cpt * tps / core_cps;
  r.kernel_cpu_pct = 100.0 * kern_cpt * tps / core_cps;
  return r;
}

void print_rule(char c, int width) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

}  // namespace ovs::benchutil
