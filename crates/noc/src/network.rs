//! Cycle-based link-contention network model.
//!
//! The model approximates wormhole switching at message granularity: the
//! head flit advances hop by hop, paying the router pipeline delay and
//! waiting for a free slot on the output link; each link is then held for
//! the message's full flit count. The tail flit arrives `flits - 1` cycles
//! after the head.
//!
//! Links are reserved with *interval schedules* rather than a single
//! "free-at" scalar: callers may present messages slightly out of global
//! time order (the simulator advances cores one iteration at a time), and
//! an early message must be able to slip into a gap before a reservation
//! made for a later one — otherwise queueing feedback compounds into
//! unbounded false congestion.
//!
//! This captures the two effects the paper's mapping exploits:
//! *distance* (every hop costs `router_delay + 1` cycles) and *contention*
//! (links serialize flit trains, so long routes through busy areas queue).

use crate::error::RouteError;
use crate::faults::FaultState;
use crate::packet::MessageKind;
use crate::routing::{route_faulty, route_faulty_torus, route_xy, route_xy_torus, Link};
use crate::stats::NetworkStats;
use crate::topology::{Mesh, NodeId};
use std::collections::VecDeque;

/// Physical topology of the interconnect (the paper's §3.9 notes the
/// approach generalizes beyond 2D meshes; the torus is the natural first
/// extension — same routers, plus wraparound links).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TopologyKind {
    /// 2D mesh (paper default).
    #[default]
    Mesh,
    /// 2D torus: rows and columns wrap around.
    Torus,
}

/// Static parameters of the on-chip network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocConfig {
    /// Pipeline delay of each router in cycles (Table 4: 3 cycles).
    pub router_delay: u64,
    /// Cycles for a flit to traverse one link. The default of 4 models a
    /// 64-bit data path (a 32-byte flit needs four beats), which loads the
    /// mesh to the moderate-congestion regime the paper's evaluation
    /// operates in.
    pub link_traversal: u64,
    /// When true the network is *ideal*: every message is delivered in zero
    /// cycles. Used for the Figure 2 potential study.
    pub ideal: bool,
    /// Mesh or torus links.
    pub topology: TopologyKind,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig { router_delay: 3, link_traversal: 4, ideal: false, topology: TopologyKind::Mesh }
    }
}

impl NocConfig {
    /// An ideal (zero-latency) network, as used in Figure 2.
    pub fn ideal() -> Self {
        NocConfig { ideal: true, ..NocConfig::default() }
    }
}

/// How far behind the newest reservation an incoming message may be and
/// still find its slot exactly; intervals that ended earlier than this
/// window below the latest `ready` seen are pruned. The simulator's
/// scheduling skew is bounded by one iteration's memory latency (a few
/// thousand cycles), so 64k cycles is generous, and pruning keeps each
/// link's schedule short.
const PRUNE_WINDOW: u64 = 1 << 16;

/// Disjoint, sorted busy intervals `[start, end)` of one directed link.
#[derive(Debug, Clone, Default)]
struct LinkSched {
    intervals: VecDeque<(u64, u64)>,
}

impl LinkSched {
    /// Reserves the earliest `dur`-cycle slot starting at or after `ready`.
    /// Returns the slot's start time.
    fn reserve(&mut self, ready: u64, dur: u64) -> u64 {
        // Prune reservations that ended long before `ready`.
        let horizon = ready.saturating_sub(PRUNE_WINDOW);
        while let Some(&(_, e)) = self.intervals.front() {
            if e < horizon {
                self.intervals.pop_front();
            } else {
                break;
            }
        }

        // Binary search for the first interval that ends after `ready`;
        // everything before it is irrelevant.
        let mut lo = 0usize;
        let mut hi = self.intervals.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.intervals[mid].1 <= ready {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }

        let mut start = ready;
        let mut idx = self.intervals.len();
        for i in lo..self.intervals.len() {
            let (s, e) = self.intervals[i];
            if e <= start {
                continue;
            }
            if s >= start + dur {
                // Gap before interval i fits the train.
                idx = i;
                break;
            }
            // Overlaps: try right after this interval.
            start = e;
            // idx stays "after i" unless a later gap fits.
            idx = i + 1;
        }
        // Insert and coalesce with neighbors touching the new interval.
        let end = start + dur;
        self.intervals.insert(idx, (start, end));
        // Coalesce backwards.
        while idx > 0 && self.intervals[idx - 1].1 >= self.intervals[idx].0 {
            let (s0, e0) = self.intervals[idx - 1];
            let (s1, e1) = self.intervals[idx];
            self.intervals[idx - 1] = (s0.min(s1), e0.max(e1));
            self.intervals.remove(idx);
            idx -= 1;
        }
        // Coalesce forwards.
        while idx + 1 < self.intervals.len() && self.intervals[idx].1 >= self.intervals[idx + 1].0 {
            let (s0, e0) = self.intervals[idx];
            let (s1, e1) = self.intervals[idx + 1];
            self.intervals[idx] = (s0.min(s1), e0.max(e1));
            self.intervals.remove(idx + 1);
        }
        start
    }
}

/// The on-chip network: per-link reservation schedules plus statistics.
#[derive(Debug, Clone)]
pub struct Network {
    cfg: NocConfig,
    mesh: Mesh,
    links: Vec<LinkSched>,
    /// Cumulative cycles each link has spent carrying flits.
    link_busy: Vec<u64>,
    stats: NetworkStats,
    /// Active fault state; `None` routes on the intact machine.
    faults: Option<FaultState>,
}

impl Network {
    /// Creates a network over `mesh` with configuration `cfg`.
    pub fn new(cfg: NocConfig, mesh: Mesh) -> Self {
        Network {
            cfg,
            mesh,
            links: vec![LinkSched::default(); Link::slot_count(mesh)],
            link_busy: vec![0; Link::slot_count(mesh)],
            stats: NetworkStats::default(),
            faults: None,
        }
    }

    /// Installs (or clears) the fault state messages must route around.
    ///
    /// # Panics
    ///
    /// Panics if the state describes a different mesh.
    pub fn set_faults(&mut self, faults: Option<FaultState>) {
        if let Some(f) = &faults {
            assert_eq!(f.mesh(), self.mesh, "fault state describes a different mesh");
        }
        self.faults = faults;
    }

    /// The active fault state, if any.
    pub fn faults(&self) -> Option<&FaultState> {
        self.faults.as_ref()
    }

    /// The mesh this network spans.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// The network configuration.
    pub fn config(&self) -> NocConfig {
        self.cfg
    }

    /// Sends a message of `kind` from `src` to `dst`, injected at cycle
    /// `now`. Returns the cycle at which the tail flit is delivered at
    /// `dst`. Updates link occupancy and statistics.
    ///
    /// A message to the local node (`src == dst`) bypasses the network and
    /// is delivered at `now`.
    ///
    /// # Panics
    ///
    /// Panics if an active fault state leaves `dst` unreachable from `src`
    /// — callers running under faults must pre-validate connectivity (see
    /// [`FaultState::check_connected`]) or use [`Self::try_send`].
    pub fn send(&mut self, now: u64, src: NodeId, dst: NodeId, kind: MessageKind) -> u64 {
        self.try_send(now, src, dst, kind)
            .unwrap_or_else(|e| panic!("unvalidated fault state: {e}"))
    }

    /// Fallible variant of [`Self::send`]: returns
    /// [`RouteError::Unreachable`] instead of delivering to a wrong node
    /// (or panicking) when the active fault state disconnects the pair.
    pub fn try_send(
        &mut self,
        now: u64,
        src: NodeId,
        dst: NodeId,
        kind: MessageKind,
    ) -> Result<u64, RouteError> {
        if let Some(f) = &self.faults {
            if !f.router_alive(src) || !f.router_alive(dst) {
                return Err(RouteError::Unreachable { from: src, to: dst });
            }
        }
        if self.cfg.ideal || src == dst {
            // Local or ideal: deliver instantly, still count the message so
            // traffic volumes remain comparable across modes.
            self.stats.messages += 1;
            self.stats.total_flits += kind.flits() as u64;
            return Ok(now);
        }

        let flits = kind.flits() as u64;
        let dur = flits * self.cfg.link_traversal;
        let route = match (&self.faults, self.cfg.topology) {
            (None, TopologyKind::Mesh) => route_xy(self.mesh, src, dst),
            (None, TopologyKind::Torus) => route_xy_torus(self.mesh, src, dst),
            (Some(f), TopologyKind::Mesh) => route_faulty(self.mesh, src, dst, f)?,
            (Some(f), TopologyKind::Torus) => route_faulty_torus(self.mesh, src, dst, f)?,
        };
        let hops = route.len() as u64;

        let mut head = now;
        let mut queue_cycles = 0;
        for link in &route {
            // Router pipeline at the upstream node.
            let ready = head + self.cfg.router_delay;
            let depart = self.links[link.index()].reserve(ready, dur);
            queue_cycles += depart - ready;
            self.link_busy[link.index()] += dur;
            head = depart + self.cfg.link_traversal;
        }
        // Tail flit trails the head by (flits - 1) link cycles.
        let arrival = head + (flits - 1) * self.cfg.link_traversal;

        let latency = arrival - now;
        self.stats.messages += 1;
        self.stats.total_latency += latency;
        self.stats.total_hops += hops;
        self.stats.total_queue_cycles += queue_cycles;
        self.stats.total_flits += flits;
        self.stats.max_latency = self.stats.max_latency.max(latency);
        Ok(arrival)
    }

    /// The latency this message would experience on an empty network
    /// (no contention). Does not modify state.
    pub fn zero_load_latency(&self, src: NodeId, dst: NodeId, kind: MessageKind) -> u64 {
        if self.cfg.ideal || src == dst {
            return 0;
        }
        let hops = match self.cfg.topology {
            TopologyKind::Mesh => self.mesh.distance(src, dst) as u64,
            TopologyKind::Torus => self.mesh.torus_distance(src, dst) as u64,
        };
        let flits = kind.flits() as u64;
        hops * (self.cfg.router_delay + self.cfg.link_traversal) + (flits - 1) * self.cfg.link_traversal
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Clears statistics but keeps link occupancy (e.g. after warm-up).
    pub fn clear_stats(&mut self) {
        self.stats = NetworkStats::default();
    }

    /// Releases all links (e.g. between independent simulation phases).
    pub fn reset_contention(&mut self) {
        self.links.iter_mut().for_each(|l| l.intervals.clear());
    }

    /// Cumulative busy cycles per directed-link slot (indexed by
    /// [`Link::index`]); the raw data behind heatmaps and congestion
    /// diagnostics.
    pub fn link_busy(&self) -> &[u64] {
        &self.link_busy
    }

    /// The cumulative busy cycles of the most-loaded link and the mean over
    /// all links that carried any traffic — a congestion diagnostic.
    pub fn link_utilization(&self) -> (u64, f64) {
        let max = self.link_busy.iter().copied().max().unwrap_or(0);
        let used: Vec<u64> = self.link_busy.iter().copied().filter(|&b| b > 0).collect();
        let mean = if used.is_empty() {
            0.0
        } else {
            used.iter().sum::<u64>() as f64 / used.len() as f64
        };
        (max, mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net6() -> Network {
        Network::new(NocConfig::default(), Mesh::try_new(6, 6).unwrap())
    }

    #[test]
    fn zero_load_latency_formula() {
        let net = net6();
        let m = net.mesh();
        // 1 hop, single-flit request: router(3) + link(4) = 7.
        assert_eq!(net.zero_load_latency(m.node_at(0, 0), m.node_at(1, 0), MessageKind::LlcRequest), 7);
        // 10 hops, 3-flit response: 10*(3+4) + 2*4 = 78.
        assert_eq!(
            net.zero_load_latency(m.node_at(0, 0), m.node_at(5, 5), MessageKind::llc_response64()),
            78
        );
    }

    #[test]
    fn uncontended_send_matches_zero_load() {
        let mut net = net6();
        let m = net.mesh();
        for (sx, sy, dx, dy) in [(0, 0, 5, 5), (2, 3, 2, 4), (5, 0, 0, 5)] {
            net.reset_contention();
            let src = m.node_at(sx, sy);
            let dst = m.node_at(dx, dy);
            let zl = net.zero_load_latency(src, dst, MessageKind::mem_response64());
            let arrival = net.send(1000, src, dst, MessageKind::mem_response64());
            assert_eq!(arrival - 1000, zl);
        }
    }

    #[test]
    fn local_delivery_is_free() {
        let mut net = net6();
        let n = net.mesh().node_at(3, 3);
        assert_eq!(net.send(42, n, n, MessageKind::llc_response64()), 42);
        assert_eq!(net.stats().total_latency, 0);
    }

    #[test]
    fn ideal_network_is_zero_latency() {
        let mut net = Network::new(NocConfig::ideal(), Mesh::try_new(6, 6).unwrap());
        let m = net.mesh();
        let t = net.send(7, m.node_at(0, 0), m.node_at(5, 5), MessageKind::mem_response64());
        assert_eq!(t, 7);
        assert_eq!(net.stats().messages, 1);
        assert_eq!(net.stats().avg_latency(), 0.0);
    }

    #[test]
    fn contention_delays_second_message() {
        let mut net = net6();
        let m = net.mesh();
        let src = m.node_at(0, 0);
        let dst = m.node_at(3, 0);
        // Two simultaneous 3-flit messages sharing the same route: the
        // second must queue behind the first's flit train on every link.
        let a = net.send(0, src, dst, MessageKind::llc_response64());
        let b = net.send(0, src, dst, MessageKind::llc_response64());
        assert!(b > a, "second message should be delayed ({a} vs {b})");
        assert!(net.stats().total_queue_cycles > 0);
    }

    #[test]
    fn earlier_message_fills_gap_before_later_reservation() {
        let mut net = net6();
        let m = net.mesh();
        let src = m.node_at(0, 0);
        let dst = m.node_at(3, 0);
        // Reserve far in the future first, then send an earlier message:
        // it must NOT queue behind the future train.
        net.send(10_000, src, dst, MessageKind::llc_response64());
        let early = net.send(0, src, dst, MessageKind::llc_response64());
        assert_eq!(early, net.zero_load_latency(src, dst, MessageKind::llc_response64()));
    }

    #[test]
    fn disjoint_routes_do_not_interfere() {
        let mut net = net6();
        let m = net.mesh();
        let a = net.send(0, m.node_at(0, 0), m.node_at(3, 0), MessageKind::llc_response64());
        // Different row: entirely disjoint links under X-Y routing.
        let b = net.send(0, m.node_at(0, 5), m.node_at(3, 5), MessageKind::llc_response64());
        assert_eq!(a, b);
        assert_eq!(net.stats().total_queue_cycles, 0);
    }

    #[test]
    fn later_message_finds_links_free_again() {
        let mut net = net6();
        let m = net.mesh();
        let src = m.node_at(0, 0);
        let dst = m.node_at(5, 0);
        let first = net.send(0, src, dst, MessageKind::llc_response64());
        // Inject long after the first train has fully drained.
        let start = first + 100;
        let second = net.send(start, src, dst, MessageKind::llc_response64());
        assert_eq!(second - start, first);
    }

    #[test]
    fn stats_track_hops_and_flits() {
        let mut net = net6();
        let m = net.mesh();
        net.send(0, m.node_at(0, 0), m.node_at(2, 2), MessageKind::LlcRequest);
        assert_eq!(net.stats().messages, 1);
        assert_eq!(net.stats().total_hops, 4);
        assert_eq!(net.stats().total_flits, 1);
    }

    #[test]
    fn clear_stats_preserves_contention() {
        let mut net = net6();
        let m = net.mesh();
        net.send(0, m.node_at(0, 0), m.node_at(5, 0), MessageKind::llc_response64());
        net.clear_stats();
        assert_eq!(net.stats().messages, 0);
        // Links still busy: immediate re-send queues.
        net.send(0, m.node_at(0, 0), m.node_at(5, 0), MessageKind::llc_response64());
        assert!(net.stats().total_queue_cycles > 0);
    }

    #[test]
    fn sustained_load_below_capacity_stays_bounded() {
        // Open-loop uniform traffic at ~15% bisection utilization must not
        // diverge: the latency of late waves stays within a small factor of
        // zero-load latency.
        let mut net = net6();
        let mut t = 0u64;
        let mut last_wave_avg = 0.0;
        for iter in 0..2000u64 {
            let mut lat = 0u64;
            let mut n = 0u64;
            for c in 0..18u64 {
                let src = ((c * 13 + iter) % 36) as u16;
                let dst = ((iter * 7 + c * 5) % 36) as u16;
                if src == dst {
                    continue;
                }
                let t0 = t + (c % 5);
                let t1 = net.send(t0, NodeId(src), NodeId(dst), MessageKind::LlcRequest);
                let t2 = net.send(t1 + 8, NodeId(dst), NodeId(src), MessageKind::llc_response64());
                lat += t2 - t0;
                n += 1;
            }
            last_wave_avg = lat as f64 / n as f64;
            t += 80;
        }
        assert!(
            last_wave_avg < 200.0,
            "sustained sub-capacity load diverged: final wave avg {last_wave_avg}"
        );
    }

    #[test]
    fn torus_shortens_far_routes() {
        let mesh = Mesh::try_new(6, 6).unwrap();
        let mut mesh_net = Network::new(NocConfig::default(), mesh);
        let mut torus_net =
            Network::new(NocConfig { topology: TopologyKind::Torus, ..NocConfig::default() }, mesh);
        let src = mesh.node_at(0, 0);
        let dst = mesh.node_at(5, 5);
        let k = MessageKind::llc_response64();
        assert!(torus_net.zero_load_latency(src, dst, k) < mesh_net.zero_load_latency(src, dst, k));
        let tm = mesh_net.send(0, src, dst, k);
        let tt = torus_net.send(0, src, dst, k);
        assert!(tt < tm, "torus {tt} should beat mesh {tm}");
        assert_eq!(torus_net.stats().total_hops, 2);
    }

    #[test]
    fn faulted_send_detours_and_costs_more() {
        use crate::faults::FaultPlan;
        use crate::routing::Direction;
        let mut net = net6();
        let m = net.mesh();
        let src = m.node_at(0, 0);
        let dst = m.node_at(3, 0);
        let clean = net.send(0, src, dst, MessageKind::LlcRequest);
        net.reset_contention();
        let cut = Link { from: m.node_at(1, 0), dir: Direction::East };
        net.set_faults(Some(FaultPlan::new(m, 4).dead_link(cut).state_at(0)));
        let faulted = net.try_send(0, src, dst, MessageKind::LlcRequest).unwrap();
        assert!(faulted > clean, "detour must cost extra hops ({faulted} vs {clean})");
        net.set_faults(None);
        net.reset_contention();
        assert_eq!(net.send(0, src, dst, MessageKind::LlcRequest), clean);
    }

    #[test]
    fn try_send_reports_unreachable() {
        use crate::faults::FaultPlan;
        let mut net = net6();
        let m = net.mesh();
        let dead = m.node_at(2, 2);
        net.set_faults(Some(FaultPlan::new(m, 4).dead_router(dead).state_at(0)));
        let err = net.try_send(0, m.node_at(0, 0), dead, MessageKind::LlcRequest).unwrap_err();
        assert_eq!(err, crate::RouteError::Unreachable { from: m.node_at(0, 0), to: dead });
        // Messages between alive nodes still flow.
        assert!(net.try_send(0, m.node_at(0, 0), m.node_at(5, 5), MessageKind::LlcRequest).is_ok());
    }

    #[test]
    fn interval_reserve_fills_gaps_and_coalesces() {
        let mut l = LinkSched::default();
        assert_eq!(l.reserve(100, 5), 100); // [100,105)
        assert_eq!(l.reserve(100, 5), 105); // queued: [105,110) coalesced
        assert_eq!(l.intervals.len(), 1);
        assert_eq!(l.reserve(0, 5), 0); // gap before: [0,5)
        assert_eq!(l.intervals.len(), 2);
        // Fill a middle gap exactly.
        assert_eq!(l.reserve(5, 95), 5);
        assert_eq!(l.intervals.len(), 1);
        assert_eq!(l.intervals[0], (0, 110));
    }

    #[test]
    fn interval_reserve_skips_too_small_gaps() {
        let mut l = LinkSched::default();
        l.reserve(0, 10); // [0,10)
        l.reserve(15, 10); // [15,25)
        // 5-cycle gap at [10,15) cannot fit 6 cycles; next free is 25.
        assert_eq!(l.reserve(10, 6), 25);
    }
}
