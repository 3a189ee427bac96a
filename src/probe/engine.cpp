#include "probe/engine.h"

#include <algorithm>
#include <cmath>

namespace skh::probe {
namespace {

constexpr double kHostStackUs = 2.0;  ///< per-end software/NIC processing
constexpr double kJitterSigma = 0.06;  ///< log-normal RTT jitter
/// RTT penalty while the RNIC offload is invalidated (Fig. 18: 16us ->
/// 120us).
constexpr double kSlowPathExtraUs = 104.0;
/// Loop guard for the chain walk.
constexpr std::size_t kMaxOverlaySteps = 32;
static_assert(kMaxOverlaySteps <= overlay::OverlayNetwork::kMaxWalkSteps);

}  // namespace

ProbeEngine::ProbeEngine(const topo::Topology& topo,
                         const overlay::OverlayNetwork& overlay,
                         const sim::FaultInjector& faults, RngStream rng,
                         EngineConfig cfg)
    : topo_(topo), overlay_(overlay), faults_(faults), rng_(std::move(rng)),
      cfg_(cfg) {}

void ProbeEngine::attach_obs(obs::Context* ctx) {
  obs_ = ctx;
  if (ctx == nullptr) {
    m_issued_ = {};
    m_delivered_ = {};
    m_drop_overlay_ = {};
    m_drop_unreachable_ = {};
    m_drop_loss_ = {};
    m_paths_used_ = {};
    m_rtt_us_ = {};
    return;
  }
  auto& r = ctx->registry;
  m_issued_ = r.bind_counter(r.counter_id("probe.issued"));
  m_delivered_ = r.bind_counter(r.counter_id("probe.delivered"));
  m_drop_overlay_ = r.bind_counter(r.counter_id("probe.dropped.overlay"));
  m_drop_unreachable_ =
      r.bind_counter(r.counter_id("probe.dropped.unreachable"));
  m_drop_loss_ = r.bind_counter(r.counter_id("probe.dropped.loss"));
  m_paths_used_ = r.bind_counter(r.counter_id("probe.paths_used"));
  static constexpr double kRttBoundsUs[] = {10.0,  20.0,  50.0, 100.0,
                                            200.0, 500.0, 1000.0};
  m_rtt_us_ = r.bind_histogram(r.histogram_id("probe.rtt_us", kRttBoundsUs));
}

void ProbeEngine::collect_live_faults(SimTime t) {
  live_.clear();
  // Room for every injected fault: a fault going live allocates nothing.
  live_.reserve(faults_.faults().size());
  for (const sim::Fault& f : faults_.faults()) {
    if (f.degrading_at(t) && sim::issue_info(f.type).probe_visible) {
      live_.push_back(&f);
    }
  }
}

void ProbeEngine::accumulate(sim::ComponentRef ref, PathDegradation& d) const {
  for (const sim::Fault* f : live_) {
    if (!(f->target == ref)) continue;
    if (f->effect.unreachable) d.unreachable = true;
    d.extra_latency_us += f->effect.extra_latency_us;
    d.delivery_probability *= 1.0 - f->effect.loss_probability;
  }
}

ProbeEngine::PathDegradation ProbeEngine::degradation(
    Endpoint src, Endpoint dst, const topo::Path& path) const {
  PathDegradation d;
  if (!live_.empty()) {
    const HostId src_host = topo_.host_of(src.rnic);
    const HostId dst_host = topo_.host_of(dst.rnic);
    for (LinkId l : path.links) {
      accumulate({sim::ComponentKind::kPhysicalLink, l.value()}, d);
    }
    for (SwitchId s : path.switches) {
      accumulate({sim::ComponentKind::kPhysicalSwitch, s.value()}, d);
    }
    for (RnicId r : {src.rnic, dst.rnic}) {
      accumulate({sim::ComponentKind::kRnic, r.value()}, d);
    }
    for (HostId h : {src_host, dst_host}) {
      accumulate({sim::ComponentKind::kHost, h.value()}, d);
      accumulate({sim::ComponentKind::kVSwitch, h.value()}, d);
    }
    for (ContainerId c : {src.container, dst.container}) {
      accumulate({sim::ComponentKind::kContainer, c.value()}, d);
    }
  }
  // RNIC offload desynchronized from OVS: packets take the software slow
  // path on that side (Figure 18).
  for (RnicId r : {src.rnic, dst.rnic}) {
    if (overlay_.offload_desynced(r)) {
      d.extra_latency_us += kSlowPathExtraUs;
      d.delivery_probability *= 1.0 - 0.0008;  // the "<0.1% loss" of Fig. 18
    }
  }
  // All extra-latency figures are RTT-level penalties applied once per
  // degraded component (the probe crosses each faulty component on both
  // directions, and the published symptom numbers are RTT observations).
  return d;
}

double ProbeEngine::baseline_rtt_us(Endpoint src, Endpoint dst) const {
  const auto path = topo_.route(src.rnic, dst.rnic);
  return 2.0 * (path.one_way_latency_us + kHostStackUs);
}

bool ProbeEngine::member_faulted(RnicId src, RnicId dst,
                                 std::uint32_t path_id) {
  if (live_.empty()) return false;
  topo_.route_via(src, dst, path_id, path_);
  const auto hit = [&](sim::ComponentRef ref) {
    return std::any_of(live_.begin(), live_.end(),
                       [&](const sim::Fault* f) { return f->target == ref; });
  };
  for (LinkId l : path_.links) {
    if (hit({sim::ComponentKind::kPhysicalLink, l.value()})) return true;
  }
  for (SwitchId s : path_.switches) {
    if (hit({sim::ComponentKind::kPhysicalSwitch, s.value()})) return true;
  }
  return false;
}

std::uint32_t ProbeEngine::select_path(RnicId src, RnicId dst,
                                       std::uint32_t n, FlowState* flow) {
  switch (cfg_.routing_mode) {
    case topo::RoutingMode::kStaticEcmp:
      return topo_.static_path_id(src, dst);
    case topo::RoutingMode::kSpray: {
      if (n <= 1) return 0;
      const std::uint32_t ways =
          std::min(std::max<std::uint32_t>(cfg_.spray_ways, 1), n);
      // Per-packet member choice: the production ECMP hash re-salted by a
      // per-flow packet counter. Deterministic, and spread evenly over an
      // evenly-subsampled `ways` of the n members.
      const std::uint32_t pkt = flow->spray_packets++;
      const std::uint32_t member = static_cast<std::uint32_t>(
          topo::ecmp_hash(src.value(), dst.value(), 0x53505259u + pkt) %
          ways);
      return member * n / ways;
    }
    case topo::RoutingMode::kAdaptive: {
      if (n <= 1) return 0;
      std::uint32_t& cur = flow->adaptive_member;
      // Re-hash on a fault signal: walk to the next clean member. When every
      // member is degraded the flow stays put (moving cannot help).
      if (member_faulted(src, dst, cur)) {
        for (std::uint32_t step = 1; step < n; ++step) {
          const std::uint32_t cand = (cur + step) % n;
          if (!member_faulted(src, dst, cand)) {
            cur = cand;
            break;
          }
        }
      }
      return cur;
    }
  }
  return 0;
}

void ProbeEngine::note_path_used(FlowState& flow, std::uint32_t path_id) {
  // "probe.paths_used" counts distinct (flow, member) combinations — 1x the
  // flow count under static routing, up to spray_ways-x under spray.
  const std::uint64_t bit = 1ull << (path_id & 63u);
  if ((flow.paths_seen & bit) == 0) {
    flow.paths_seen |= bit;
    m_paths_used_.inc();
  }
}

ProbeResult ProbeEngine::probe(Endpoint src, Endpoint dst, SimTime t) {
  ProbeResult res;
  res.pair = EndpointPair{src, dst};
  res.sent_at = t;
  collect_live_faults(t);
  // Spray and adaptive routing keep per-flow state for multi-member pairs,
  // and an attached registry the flow's paths-seen mask; static ECMP with
  // no registry looks nothing up.
  const std::uint32_t n =
      cfg_.routing_mode == topo::RoutingMode::kStaticEcmp
          ? 1
          : topo_.num_paths(src.rnic, dst.rnic);
  FlowState* flow = nullptr;
  if (n > 1 || obs_ != nullptr) {
    const auto [it, fresh] = flows_.try_emplace(
        (static_cast<std::uint64_t>(src.rnic.value()) << 32) |
        dst.rnic.value());
    if (fresh) {
      it->second.adaptive_member = topo_.static_path_id(src.rnic, dst.rnic);
    }
    flow = &it->second;
  }
  res.path_id = select_path(src.rnic, dst.rnic, n, flow);
  m_issued_.inc();
  if (obs_ != nullptr) note_path_used(*flow, res.path_id);

  if (!overlay_.walk(src, dst, kMaxOverlaySteps).reachable) {
    m_drop_overlay_.inc();  // dropped in the overlay
    if (obs_ != nullptr) {
      obs_->tracer.instant("probe", "drop.overlay", t, src.container.value(),
                           dst.container.value());
    }
    return res;
  }

  topo_.route_via(src.rnic, dst.rnic, res.path_id, path_);
  const PathDegradation d = degradation(src, dst, path_);
  if (d.unreachable) {
    m_drop_unreachable_.inc();
    if (obs_ != nullptr) {
      obs_->tracer.instant("probe", "drop.unreachable", t,
                           src.container.value(), dst.container.value());
    }
    return res;
  }
  if (!rng_.bernoulli(d.delivery_probability)) {
    m_drop_loss_.inc();
    if (obs_ != nullptr) {
      obs_->tracer.instant("probe", "drop.loss", t, src.container.value(),
                           dst.container.value(), d.delivery_probability);
    }
    return res;
  }

  // All equal-cost members share the same hop counts, so the healthy
  // baseline is mode-independent; only the degradation differs per member.
  const double base =
      2.0 * (path_.one_way_latency_us + kHostStackUs) +
      d.extra_latency_us;
  res.rtt_us = base * std::exp(rng_.normal(0.0, kJitterSigma));
  res.delivered = true;
  m_delivered_.inc();
  m_rtt_us_.observe(res.rtt_us);
  if (obs_ != nullptr && obs_->tracer.enabled()) {
    // Probe flight rendered as a span from send to ack, sized by the RTT.
    obs_->tracer.span("probe", "rtt", t, t + SimTime::micros(res.rtt_us),
                      src.container.value(), dst.container.value(),
                      res.rtt_us);
  }
  return res;
}

}  // namespace skh::probe
