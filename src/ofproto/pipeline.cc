#include "ofproto/pipeline.h"

#include <algorithm>
#include <cassert>

namespace ovs {

Pipeline::Pipeline(size_t n_tables, ClassifierConfig cls_cfg) {
  assert(n_tables >= 1 && n_tables <= kMaxTables);
  tables_.reserve(n_tables);
  for (size_t i = 0; i < n_tables; ++i)
    tables_.push_back(std::make_unique<FlowTable>(cls_cfg));
}

void Pipeline::add_port(uint32_t port) {
  if (std::find(ports_.begin(), ports_.end(), port) != ports_.end()) return;
  ports_.push_back(port);
  ++port_generation_;
}

void Pipeline::remove_port(uint32_t port) {
  auto it = std::find(ports_.begin(), ports_.end(), port);
  if (it == ports_.end()) return;
  ports_.erase(it);
  ++port_generation_;
}

size_t Pipeline::flow_count() const noexcept {
  size_t n = 0;
  for (const auto& t : tables_) n += t->flow_count();
  return n;
}

size_t Pipeline::expire_flows(uint64_t now_ns) {
  size_t n = 0;
  for (const auto& t : tables_) n += t->expire_flows(now_ns);
  return n;
}

uint64_t Pipeline::generation() const noexcept {
  return port_generation_ + mac_.generation() + tables_generation();
}

uint64_t Pipeline::tables_generation() const noexcept {
  uint64_t g = 0;
  for (const auto& t : tables_) g += t->generation();
  return g;
}

// Per-translation state. The outputs (actions, attribution, flags) are
// written straight into the caller's result, so a reused result's buffers
// carry over and nothing is copied out at the end.
struct Pipeline::XlateCtx {
  FlowKey key;              // current (possibly rewritten) headers
  const FlowKey* original;  // the packet as received
  FlowWildcards wc;         // consulted ORIGINAL packet bits
  FlowMask modified;        // bits overwritten by set-field actions
  XlateResult& res;
  DpActions& out;           // res.actions
  uint64_t now_ns = 0;
  bool side_effects = true;

  XlateCtx(const FlowKey& pkt, uint64_t now, bool effects, XlateResult& r)
      : key(pkt), original(&pkt), res(r), out(r.actions), now_ns(now),
        side_effects(effects) {}

  // Merge a lookup's consulted bits, suppressing rewritten ones: reads of a
  // rewritten field observed the written value, not packet bits.
  void absorb(const FlowWildcards& consulted) noexcept {
    for (size_t i = 0; i < kFlowWords; ++i)
      wc.w[i] |= consulted.w[i] & ~modified.w[i];
  }

  // Marks `bits` (LSB-aligned within single-word field `f`) as consulted:
  // a decision that reads only some bits of a field leaves the rest
  // wildcarded, so the megaflow covers every value of them.
  void consult_bits(FieldId f, uint64_t bits) noexcept {
    const FieldInfo& fi = field_info(f);
    assert(fi.width <= 64);
    if (fi.width < 64) bits &= (uint64_t{1} << fi.width) - 1;
    FlowWildcards tmp;
    tmp.w[fi.word] = bits << fi.shift;
    absorb(tmp);
  }

  void consult_field(FieldId f) noexcept { consult_bits(f, ~uint64_t{0}); }

  void set_field(FieldId f, uint64_t v) noexcept {
    key.set(f, v);
    modified.set_exact(f);
  }
};

void Pipeline::do_normal(XlateCtx& ctx) {
  // Traditional L2 learning switch (§3.3's hard-coded pipelines; our NORMAL
  // action). Learning keys on the whole of in_port, vlan and eth_src; the
  // destination lookup on the whole of eth_dst, but only for unicast: a
  // multicast destination floods on its group bit alone.
  ctx.consult_field(FieldId::kInPort);
  ctx.consult_field(FieldId::kVlanTci);
  ctx.consult_field(FieldId::kEthSrc);
  ctx.consult_bits(FieldId::kEthDst, EthAddr::kGroupBit);

  const uint16_t vlan = ctx.key.vlan_tci();
  if (ctx.side_effects)
    mac_.learn(ctx.key.eth_src(), vlan, ctx.key.in_port(), ctx.now_ns);
  ctx.res.tags |= MacLearning::tag(ctx.key.eth_src(), vlan);

  if (!ctx.key.eth_dst().is_multicast()) {
    ctx.consult_field(FieldId::kEthDst);
    ctx.res.tags |= MacLearning::tag(ctx.key.eth_dst(), vlan);
    if (auto port = mac_.lookup(ctx.key.eth_dst(), vlan, ctx.now_ns)) {
      if (*port != ctx.key.in_port()) ctx.out.output(*port);
      return;
    }
  }
  // Unknown or multicast destination: flood.
  for (uint32_t p : ports_)
    if (p != ctx.key.in_port()) ctx.out.output(p);
}

void Pipeline::do_ct(XlateCtx& ctx, const OfCt& ct) {
  // The datapath runs the tracker; translation freezes where to resume and
  // stops. Nothing about the connection is consulted: a ct's packets share
  // the megaflow their other fields earn.
  ctx.res.froze = true;
  ctx.res.frozen = FrozenState{ct.next_table};
  const uint32_t id = ctx.side_effects ? recirc_.intern(ctx.res.frozen)
                                       : recirc_.find(ctx.res.frozen);
  ctx.out.list.push_back(
      CtAction{ct.zone, ct.commit, ct.nat, ct.nat_addr, ct.nat_port, id});
}

void Pipeline::name_frozen(XlateResult& xr) {
  if (!xr.froze || xr.actions.recirc_id() != 0) return;
  CtAction ct = xr.actions.ct();
  ct.recirc_id = recirc_.intern(xr.frozen);
  xr.actions.list.back() = ct;
}

void Pipeline::name_ct_frozen_states() {
  for (const auto& t : tables_)
    t->for_each([this](const OfRule* r) {
      for (const OfAction& a : r->actions().list)
        if (const auto* ct = std::get_if<OfCt>(&a))
          recirc_.intern(FrozenState{ct->next_table});
    });
}

void Pipeline::xlate_table(XlateCtx& ctx, size_t table_id, int depth) {
  if (depth > kMaxResubmitDepth || table_id >= tables_.size()) {
    ctx.res.error = true;
    return;
  }
  FlowTable& table = *tables_[table_id];
  FlowWildcards consulted;
  const OfRule* rule = table.lookup(ctx.key, &consulted);
  ctx.absorb(consulted);
  ++ctx.res.table_lookups;

  if (rule == nullptr) {
    if (table.miss_behavior() == FlowTable::MissBehavior::kController) {
      ctx.out.userspace(/*reason=*/table_id);
      ctx.res.to_controller = true;
    }
    return;  // table miss: drop (default)
  }
  ctx.res.matched_rules.push_back(rule);

  for (const OfAction& act : rule->actions().list) {
    if (ctx.res.error || ctx.res.froze) return;  // froze: stopped at ct
    if (const auto* o = std::get_if<OfOutput>(&act)) {
      if (o->port != ctx.original->in_port()) ctx.out.output(o->port);
    } else if (std::get_if<OfDrop>(&act)) {
      return;  // terminate this action list
    } else if (const auto* rs = std::get_if<OfResubmit>(&act)) {
      xlate_table(ctx, rs->table, depth + 1);
    } else if (const auto* sf = std::get_if<OfSetField>(&act)) {
      ctx.set_field(sf->field, sf->value);
      ctx.out.set_field(sf->field, sf->value);
    } else if (const auto* t = std::get_if<OfTunnel>(&act)) {
      ctx.out.tunnel(t->port, t->tun_id);
    } else if (const auto* c = std::get_if<OfController>(&act)) {
      ctx.out.userspace(c->reason);
      ctx.res.to_controller = true;
    } else if (std::get_if<OfNormal>(&act)) {
      do_normal(ctx);
    } else if (const auto* ct = std::get_if<OfCt>(&act)) {
      do_ct(ctx, *ct);
      return;  // translation stops at ct (see the header)
    }
  }
}

namespace {

// Trims wildcards to the fields that exist for this packet type, as OVS
// does: once the megaflow pins eth_type (and nw_proto), header fields that
// cannot occur in such packets are dropped from the mask. This is what
// keeps the datapath's mask population small — an ARP megaflow need not
// (and must not, for hit-rate) match TCP ports. Sound because the retained
// exact eth_type/nw_proto matches imply which fields exist.
void trim_wildcards_to_packet(const FlowKey& pkt, FlowWildcards& wc) {
  if (!wc.is_exact(FieldId::kEthType)) return;
  const uint16_t et = pkt.eth_type();
  const bool is_v4 = et == ethertype::kIpv4;
  const bool is_v6 = et == ethertype::kIpv6;
  const bool is_arp = et == ethertype::kArp;
  if (!is_v4) {
    wc.clear_field(FieldId::kNwSrc);
    wc.clear_field(FieldId::kNwDst);
  }
  if (!is_v6) {
    wc.clear_field(FieldId::kIpv6Src);
    wc.clear_field(FieldId::kIpv6Dst);
  }
  if (!is_arp) {
    wc.clear_field(FieldId::kArpOp);
  } else {
    // ARP reuses nw_src/nw_dst for SPA/TPA; everything else is absent.
    wc.clear_field(FieldId::kNwProto);
    wc.clear_field(FieldId::kNwTtl);
    wc.clear_field(FieldId::kNwTos);
    wc.clear_field(FieldId::kNwFrag);
  }
  if (!is_v4 && !is_v6) {
    wc.clear_field(FieldId::kNwProto);
    wc.clear_field(FieldId::kNwTtl);
    wc.clear_field(FieldId::kNwTos);
    wc.clear_field(FieldId::kNwFrag);
    wc.clear_field(FieldId::kTpSrc);
    wc.clear_field(FieldId::kTpDst);
    wc.clear_field(FieldId::kTcpFlags);
    return;
  }
  if (!wc.is_exact(FieldId::kNwProto)) return;
  const uint8_t proto = pkt.nw_proto();
  const bool has_ports = proto == ipproto::kTcp || proto == ipproto::kUdp ||
                         proto == ipproto::kSctp ||
                         proto == ipproto::kIcmp ||
                         proto == ipproto::kIcmpv6;
  if (!has_ports) {
    wc.clear_field(FieldId::kTpSrc);
    wc.clear_field(FieldId::kTpDst);
  }
  if (proto != ipproto::kTcp) wc.clear_field(FieldId::kTcpFlags);
}

}  // namespace

XlateResult& Pipeline::translate(const FlowKey& pkt, uint64_t now_ns,
                                 XlateScratch& scratch, bool side_effects) {
  translate_into(pkt, now_ns, side_effects, scratch.result);
  return scratch.result;
}

XlateResult Pipeline::translate(const FlowKey& pkt, uint64_t now_ns,
                                bool side_effects) {
  XlateResult res;
  translate_into(pkt, now_ns, side_effects, res);
  return res;
}

void Pipeline::translate_into(const FlowKey& pkt, uint64_t now_ns,
                              bool side_effects, XlateResult& res,
                              const FrozenState* resume) {
  // Every per-translation output starts over; the buffers keep their
  // storage.
  res.actions.list.clear();
  res.matched_rules.clear();
  res.to_controller = false;
  res.error = false;
  res.froze = false;
  res.frozen = FrozenState{};
  res.table_lookups = 0;
  res.tags = 0;
  XlateCtx ctx(pkt, now_ns, side_effects, res);
  // Datapath flows always match on the ingress port (as in OVS): output
  // actions suppress hairpinning back out of in_port, so the forwarding
  // decision inherently depends on it. They always match recirc_id too, so
  // a stage's flow never captures another stage's packets.
  ctx.consult_field(FieldId::kInPort);
  ctx.consult_field(FieldId::kRecircId);
  if (resume == nullptr && pkt.recirc_id() != 0)
    resume = recirc_.state(pkt.recirc_id());
  if (resume != nullptr) {
    xlate_table(ctx, resume->table, /*depth=*/0);
  } else if (pkt.recirc_id() == 0) {
    xlate_table(ctx, /*table_id=*/0, /*depth=*/0);
  } else {
    res.error = true;  // an id that names nothing (freed, or pre-restart)
  }

  trim_wildcards_to_packet(pkt, ctx.wc);
  res.megaflow.mask = ctx.wc;
  res.megaflow.key = pkt;
  res.megaflow.normalize();
  if (res.error) {
    // Depth exceeded or unknown recirc id: fail safe with a drop flow (the
    // consulted bits fully determine either, so the megaflow is still
    // sound).
    res.actions.list.clear();
    res.froze = false;
  } else {
    res.actions.normalize();
  }
}

XlateResult Pipeline::evaluate(const FlowKey& pkt, uint64_t now_ns) const {
  // With side_effects=false translation is read-only (the revalidator's
  // parallel plan phase depends on exactly this), so the cast never lets a
  // mutation through.
  auto* self = const_cast<Pipeline*>(this);
  XlateResult stage = self->translate(pkt, now_ns, /*side_effects=*/false);
  if (!stage.froze) return stage;
  // Compose the fate stage by stage, as the datapath does: each stage's
  // actions without its ct, the ct's NAT rewrite, then the stage the
  // recirculated packet resumes in.
  XlateResult out;
  out.megaflow = stage.megaflow;
  FlowKey key = pkt;
  ConnTracker::ChainPreview chain(ct_);
  for (unsigned depth = 0;; ++depth) {
    out.actions.append_stage(stage.actions);
    out.table_lookups += stage.table_lookups;
    out.tags |= stage.tags;
    out.to_controller |= stage.to_controller;
    out.error |= stage.error;
    for (const OfRule* r : stage.matched_rules) out.matched_rules.push_back(r);
    if (!stage.froze || depth == kMaxRecircDepth) break;
    stage.actions.apply_set_fields(key);
    const CtAction& ct = stage.actions.ct();
    apply_ct_verdict(chain.next(key, ct, now_ns), key, out.actions);
    const FrozenState resume = stage.frozen;
    self->translate_into(key, now_ns, /*side_effects=*/false, stage, &resume);
  }
  out.actions.normalize();
  return out;
}

}  // namespace ovs
