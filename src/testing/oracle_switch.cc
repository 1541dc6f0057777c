#include "testing/oracle_switch.h"

#include <algorithm>

#include "ofproto/flow_parser.h"

namespace ovs::fuzz {

OracleSwitch::OracleSwitch(size_t n_tables, ClassifierConfig cls_cfg,
                           ConnTrackerConfig ct_cfg)
    : n_tables_(n_tables), cls_cfg_(cls_cfg), ct_(ct_cfg) {
  epochs_.push_back({0, build_epoch(0)});
}

std::unique_ptr<Pipeline> OracleSwitch::build_epoch(
    size_t n_mutations) const {
  auto pipe = std::make_unique<Pipeline>(n_tables_, cls_cfg_);
  pipe->set_conntrack(&ct_);
  for (uint32_t p : ports_) pipe->add_port(p);
  for (size_t i = 0; i < n_mutations; ++i) {
    const Mutation& m = log_[i];
    switch (m.kind) {
      case Mutation::Kind::kAddFlow: {
        // Logged mutations parsed successfully once; replay cannot fail.
        FlowParseResult res = parse_flow(m.text);
        pipe->table(res.flow.table)
            .add_flow(res.flow.match, res.flow.priority, res.flow.actions,
                      res.flow.cookie, res.flow.timeouts, /*now_ns=*/0);
        break;
      }
      case Mutation::Kind::kDelFlows: {
        const std::string spec =
            m.text.empty() ? "actions=drop" : m.text + ", actions=drop";
        FlowParseResult res = parse_flow(spec);
        if (res.flow.has_table) {
          pipe->table(res.flow.table).delete_where(res.flow.match);
        } else {
          for (size_t t = 0; t < n_tables_; ++t)
            pipe->table(t).delete_where(res.flow.match);
        }
        break;
      }
    }
  }
  return pipe;
}

std::string OracleSwitch::add_flow(const std::string& text) {
  FlowParseResult res = parse_flow(text);
  if (!res.ok) return res.error;
  if (res.flow.table >= n_tables_)
    return "table " + std::to_string(res.flow.table) + " out of range";
  Mutation m;
  m.kind = Mutation::Kind::kAddFlow;
  m.text = text;
  push_mutation(std::move(m));
  return "";
}

std::string OracleSwitch::del_flows(const std::string& text) {
  const std::string spec =
      text.empty() ? "actions=drop" : text + ", actions=drop";
  FlowParseResult res = parse_flow(spec);
  if (!res.ok) return res.error;
  if (res.flow.has_table && res.flow.table >= n_tables_)
    return "table " + std::to_string(res.flow.table) + " out of range";
  Mutation m;
  m.kind = Mutation::Kind::kDelFlows;
  m.text = text;
  push_mutation(std::move(m));
  return "";
}

void OracleSwitch::push_mutation(Mutation m) {
  log_.push_back(std::move(m));
  epochs_.push_back({log_.size(), build_epoch(log_.size())});
}

void OracleSwitch::add_port(uint32_t port) {
  if (std::find(ports_.begin(), ports_.end(), port) == ports_.end())
    ports_.push_back(port);
  for (Epoch& e : epochs_) e.pipe->add_port(port);
}

void OracleSwitch::remove_port(uint32_t port) {
  ports_.erase(std::remove(ports_.begin(), ports_.end(), port),
               ports_.end());
  for (Epoch& e : epochs_) e.pipe->remove_port(port);
}

void OracleSwitch::collapse() {
  if (epochs_.size() <= 1) return;
  epochs_.erase(epochs_.begin(), epochs_.end() - 1);
}

DpActions OracleSwitch::current(const FlowKey& pkt, uint64_t now_ns) const {
  return epochs_.back().pipe->evaluate(pkt, now_ns).actions;
}

std::vector<DpActions> OracleSwitch::acceptable(const FlowKey& pkt,
                                                uint64_t now_ns) const {
  std::vector<DpActions> out;
  for (const Epoch& e : epochs_) {
    DpActions a = e.pipe->evaluate(pkt, now_ns).actions;
    bool dup = false;
    for (const DpActions& seen : out)
      if (seen.to_string() == a.to_string()) {
        dup = true;
        break;
      }
    if (!dup) out.push_back(std::move(a));
  }
  return out;
}

}  // namespace ovs::fuzz
