//! The multi-hop fabric: `QosSwitch` nodes joined by disciplined links,
//! driven as one [`CycleModel`] and watched as one [`Monitored`] run.
//!
//! Each cycle the fabric (in this fixed, engine-independent order):
//!
//! 1. applies due [`NetFaultPlan`] steps and recomputes routes after
//!    any topology change (emitting `reroute` events for every changed
//!    first hop),
//! 2. injects flow packets at their source switches,
//! 3. steps the switch of every node that is awake (below),
//! 4. routes each stepped node's deliveries — terminal packets retire
//!    with end-to-end latency accounting, transit packets enqueue on
//!    their next link (`hop_enqueue`),
//! 5. ticks every link: backoff-ready retransmissions rejoin the
//!    upstream queue, arrivals land in the bounded egress queue (the
//!    discipline decides overflow), one packet launches per free wire
//!    slot (credit-gated for [`LinkDiscipline::Credit`]), and the
//!    egress head is offered to the downstream switch (a refusal is
//!    plain backpressure).
//!
//! **Guarantee survival**: a reserved flow keeps its class as long as
//! every hop still holds its reservation. The first *loud* loss on a
//! flow — a `link_down`, `no_route`, or `retries_exhausted` drop —
//! revokes the flow at its source via [`QosSwitch::readmit_output`]
//! (capacity 0), so the trace carries explicit `guarantee_revoked` /
//! `readmitted` events before any packet silently vanishes; later
//! packets demote to best-effort at injection. Queue-full losses on a
//! lossy link are congestion, not revocation. Where the topology
//! offers an alternate path the route recomputation rides it
//! (`reroute` events, delivery survives demoted); where it does not,
//! injection stops until the fault heals.
//!
//! **Nodes sleep**: a node whose switch is quiescent after a cycle
//! ([`QosSwitch::is_quiescent`]) is not stepped again until something
//! touches it — a packet offered by a source or a link, a revocation, a
//! node fault, the measurement boundary. The toucher first brings it up
//! to date with one [`EventModel::skip_idle`] over the cycles it slept
//! through: up to the cycle before this one when the touch comes before
//! the step phase (the node then steps with the others), through this
//! cycle when it comes after. Its flight-recorder ring never falls
//! behind either: a sleeper's alarm is the stamp of its next
//! decay-epoch event, and the cycle that reaches it catches the node up
//! through that stamp. Every observable is what stepping every node
//! every cycle produces, which `Fabric::step_dense` still does for the
//! differential tests.

use std::collections::{BTreeMap, VecDeque};

use ssq_arbiter::CounterPolicy;
use ssq_core::{
    BackoffPolicy, ConfigError, Policy, QosSwitch, RetryDecision, RetryTimer, SwitchConfig,
};
use ssq_sim::{CycleModel, EventModel, Monitored};
use ssq_trace::{Event, EventKind};
use ssq_types::rng::Xoshiro256StarStar;
use ssq_types::{
    Cycle, FlowId, Geometry, InputId, OutputId, PacketId, PacketSpec, Rate, TrafficClass,
};

use crate::fault::{NetFaultKind, NetFaultPlan};
use crate::link::{LinkDiscipline, LinkQueue, LinkSpec};
use crate::topology::{compute_routes, Routes, Topology};

/// Fabric-assigned packet ids start here, far above any single-switch
/// injector sequence, so hop events never collide with node-local ids.
pub const NET_PACKET_BASE: u64 = 1 << 32;

/// Sentinel link id in `drop` events that could not be pinned to a
/// link (a packet stranded at a node with no outgoing edge).
pub const NO_LINK: u32 = u32::MAX;

/// Loud drop reasons — losses that must be preceded (or accompanied)
/// by an explicit revocation, never absorbed silently.
pub const LOUD_DROP_REASONS: &[&str] = &["link_down", "no_route", "retries_exhausted"];

/// Whether a drop reason is loud (fault-attributable) as opposed to
/// plain congestion (`queue_full`).
#[must_use]
pub fn is_loud_reason(reason: &str) -> bool {
    LOUD_DROP_REASONS.contains(&reason)
}

/// Narrows a node/link/port index to the `u32` the trace wire format
/// carries. Fabric indices are bounded by the topology (tens of nodes,
/// never billions), so the cast is lossless; every narrowing in the
/// crate funnels through here, exactly as in the core switch.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "fabric indices are bounded by the topology, far below u32::MAX"
)]
fn wire(index: usize) -> u32 {
    debug_assert!(u32::try_from(index).is_ok(), "index {index} overflows u32");
    index as u32
}

/// One end-to-end flow across the fabric.
///
/// Port conventions: `src_port` is an injection input (4–7) at the
/// source node, `dest_port` a terminal output (4–7) at the destination
/// node; transit hops use ports 0–3 per the topology's link table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpec {
    /// Source node.
    pub src: usize,
    /// Injection input port at the source node (4–7).
    pub src_port: usize,
    /// Destination node.
    pub dest: usize,
    /// Terminal output port at the destination node (4–7).
    pub dest_port: usize,
    /// Traffic class; GB and GL flows get per-hop reservations
    /// installed along their healthy-topology route.
    pub class: TrafficClass,
    /// Reserved fraction of each hop's output channel (GB/GL only).
    pub rate: f64,
    /// Packet length in flits.
    pub len_flits: u64,
    /// Injection period: one packet every `period` cycles.
    pub period: u64,
}

impl FlowSpec {
    /// A GB flow from `src` to `dest`: port 4 at both ends, rate 0.25,
    /// 8-flit packets every 32 cycles. Tune with the builder methods.
    #[must_use]
    pub fn new(src: usize, dest: usize, class: TrafficClass) -> Self {
        FlowSpec {
            src,
            src_port: 4,
            dest,
            dest_port: 4,
            class,
            rate: 0.25,
            len_flits: 8,
            period: 32,
        }
    }

    /// Sets the injection/terminal ports (both must be 4–7).
    #[must_use]
    pub fn ports(mut self, src_port: usize, dest_port: usize) -> Self {
        self.src_port = src_port;
        self.dest_port = dest_port;
        self
    }

    /// Sets the reserved per-hop rate.
    #[must_use]
    pub fn rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }

    /// Sets the packet length in flits.
    #[must_use]
    pub fn len_flits(mut self, flits: u64) -> Self {
        self.len_flits = flits;
        self
    }

    /// Sets the injection period in cycles.
    #[must_use]
    pub fn every(mut self, period: u64) -> Self {
        self.period = period;
        self
    }
}

/// Per-flow end-to-end accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Packets minted at the source.
    pub injected_packets: u64,
    /// Packets that reached their terminal output.
    pub delivered_packets: u64,
    /// Flits that reached their terminal output.
    pub delivered_flits: u64,
    /// Sum of end-to-end latencies (cycles) over delivered packets.
    pub latency_sum: u64,
    /// Worst observed end-to-end latency.
    pub latency_max: u64,
    /// Packets lost anywhere along the path (all reasons).
    pub lost_packets: u64,
}

impl FlowStats {
    /// Mean end-to-end latency over delivered packets (0 when none).
    #[must_use]
    pub fn latency_mean(&self) -> f64 {
        if self.delivered_packets == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.delivered_packets as f64
        }
    }
}

/// Whole-fabric event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricCounters {
    /// Packets minted at sources.
    pub injected_packets: u64,
    /// Packets retired at their terminal output.
    pub delivered_packets: u64,
    /// Flits retired at their terminal output.
    pub delivered_flits: u64,
    /// Packets lost at any hop (all reasons).
    pub dropped_packets: u64,
    /// NACK retransmission attempts consumed.
    pub retransmits: u64,
    /// First-hop changes emitted as `reroute` events.
    pub reroutes: u64,
    /// Flows loudly revoked after a fault-attributable loss.
    pub revocations: u64,
    /// Packets demoted to best-effort at a hop with no reservation.
    pub demoted_packets: u64,
    /// Cycles an injection was refused by a full source buffer.
    pub source_blocked: u64,
}

/// Exact counts of what a run's cycles were spent on: the work the
/// stepping is proportional to, next to the work dense stepping would
/// have done (`node_steps + node_cycles_slept` and `link_ticks`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricWork {
    /// Switch cycles executed: one per awake node per fabric cycle.
    pub node_steps: u64,
    /// Node-cycles a switch slept through, batched into its next wake
    /// (or its next decay-epoch alarm).
    pub node_cycles_slept: u64,
    /// Times a sleeping node was touched and caught up.
    pub wakes: u64,
    /// Link ticks: one per link per fabric cycle.
    pub link_ticks: u64,
    /// Link ticks that found nothing queued, in flight or backing off.
    pub link_ticks_idle: u64,
}

/// Whether a node takes part in the step phase.
#[derive(Debug, Clone, Copy)]
enum Doze {
    Awake,
    /// Quiescent, and its clocks stand where the step of cycle
    /// `from - 1` left them. `alarm` is the stamp of the next
    /// decay-epoch event its ring is owed (`u64::MAX`: none).
    Asleep {
        from: u64,
        alarm: u64,
    },
}

impl Doze {
    /// The state of a quiescent `node` that sleeps from cycle `from` on.
    fn asleep(node: &QosSwitch, from: Cycle) -> Self {
        Doze::Asleep {
            from: from.value(),
            alarm: node.next_traced_decay(from).map_or(u64::MAX, Cycle::value),
        }
    }
}

/// Brings a quiescent `node` that last ticked at cycle `from - 1` to
/// where stepping it through cycle `to - 1` would have.
fn catch_up(node: &mut QosSwitch, from: u64, to: Cycle) {
    if from < to.value() {
        let reached = node.skip_idle(Cycle::new(from), to);
        assert_eq!(reached, to, "a sleeping node was not quiescent");
    }
}

#[derive(Debug, Clone, Copy)]
struct PacketMeta {
    flow: usize,
    injected: u64,
}

#[derive(Debug, Clone)]
struct FlowState {
    spec: FlowSpec,
    /// First-hop output port on the healthy topology (None when
    /// source == destination) — where revocation strikes.
    home_port: Option<usize>,
    pending: Option<PacketSpec>,
    revoked: bool,
    stats: FlowStats,
}

#[derive(Debug)]
struct LinkState {
    spec: LinkSpec,
    up: bool,
    /// Upstream channel FIFO: deliveries from the source switch wait
    /// here for a wire slot (credit-gated for the Credit discipline).
    tx: VecDeque<PacketSpec>,
    wire_free_at: u64,
    /// Packets on the wire: `(arrival_cycle, packet)`, arrival-ordered.
    in_flight: VecDeque<(u64, PacketSpec)>,
    egress: LinkQueue,
    paused: bool,
    /// NACK retransmissions waiting out their backoff, sorted by the
    /// cycle they become ready.
    backoff: Vec<(u64, PacketSpec)>,
    /// Per-packet retry budgets (NACK discipline only).
    retries: BTreeMap<u64, RetryTimer>,
}

impl LinkState {
    fn new(spec: LinkSpec) -> Self {
        LinkState {
            spec,
            up: true,
            tx: VecDeque::new(),
            wire_free_at: 0,
            in_flight: VecDeque::new(),
            egress: LinkQueue::new(spec.queue_depth),
            paused: false,
            backoff: Vec::new(),
            retries: BTreeMap::new(),
        }
    }
}

/// A running multi-hop fabric (see the module docs for the per-cycle
/// contract).
#[derive(Debug)]
pub struct Fabric {
    topology: Topology,
    nodes: Vec<QosSwitch>,
    /// Per node, whether the step phase visits it.
    doze: Vec<Doze>,
    /// The first cycle a node woken now has yet to live: this cycle
    /// until the step phase has run, the next one after it.
    frontier: Cycle,
    /// The buffer each stepped node's delivery log is swapped against.
    delivered: Vec<(Cycle, PacketSpec)>,
    work: FabricWork,
    node_up: Vec<bool>,
    links: Vec<LinkState>,
    flows: Vec<FlowState>,
    routes: Routes,
    /// `(node, output_port)` → outgoing link index; static.
    port_link: BTreeMap<(usize, usize), usize>,
    plan: NetFaultPlan,
    cursor: usize,
    meta: BTreeMap<u64, PacketMeta>,
    next_seq: u64,
    events: Vec<Event>,
    counters: FabricCounters,
    loss: BTreeMap<(usize, String), u64>,
    rng: Xoshiro256StarStar,
}

impl Fabric {
    /// Builds the fabric: one radix-8 SSVC switch per node, per-hop
    /// GB/GL reservations installed along each flow's healthy-topology
    /// route (rates summed where flows share a transit hop), delivery
    /// logs and flight-recorder rings armed on every node.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`ConfigError`] when a node's switch
    /// cannot be built or a reservation does not fit its output.
    ///
    /// # Panics
    ///
    /// Panics on malformed flow specs: out-of-range nodes, ports
    /// outside 4–7, rates outside `[0, 1]`, or a flow with no route in
    /// the healthy topology.
    pub fn new(topology: Topology, flows: &[FlowSpec], seed: u64) -> Result<Self, ConfigError> {
        let n = topology.nodes;
        for f in flows {
            assert!(f.src < n && f.dest < n, "flow endpoints outside topology");
            assert!(
                (4..8).contains(&f.src_port) && (4..8).contains(&f.dest_port),
                "injection/terminal ports must be 4-7 (0-3 are transit)"
            );
        }
        let all_links = vec![true; topology.links.len()];
        let all_nodes = vec![true; n];
        let routes = compute_routes(&topology, &all_links, &all_nodes);

        let mut port_link = BTreeMap::new();
        for (l, link) in topology.links.iter().enumerate() {
            let clash = port_link.insert((link.src, link.src_port), l);
            assert!(clash.is_none(), "two links share an output port");
        }

        // Aggregate per-hop reservations: flows sharing a transit hop
        // share one (input, output) pair at that switch, so their rates
        // sum into a single reservation.
        let mut gb: BTreeMap<(usize, usize, usize), (f64, u64)> = BTreeMap::new();
        let mut gl: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        let mut flow_states = Vec::with_capacity(flows.len());
        for spec in flows {
            let path = static_path(&topology, &routes, spec)
                .expect("flow has no route in the healthy topology");
            let home_port = if spec.src == spec.dest {
                None
            } else {
                Some(path[0].2)
            };
            for &(node, in_port, out_port) in &path {
                match spec.class {
                    TrafficClass::GuaranteedBandwidth => {
                        let e = gb.entry((node, in_port, out_port)).or_insert((0.0, 1));
                        e.0 += spec.rate;
                        e.1 = e.1.max(spec.len_flits);
                    }
                    TrafficClass::GuaranteedLatency => {
                        *gl.entry((node, out_port)).or_insert(0.0) += spec.rate;
                    }
                    TrafficClass::BestEffort => {}
                }
            }
            flow_states.push(FlowState {
                spec: *spec,
                home_port,
                pending: None,
                revoked: false,
                stats: FlowStats::default(),
            });
        }

        let mut nodes = Vec::with_capacity(n);
        for node in 0..n {
            let mut config = SwitchConfig::builder(Geometry::new(8, 128).expect("valid geometry"))
                .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
                .gb_buffer_flits(16)
                // Deep enough for whole packets: a revoked flow demotes
                // to best-effort, and a BE buffer smaller than one
                // packet would refuse it forever.
                .be_buffer_flits(64)
                .gl_buffer_flits(64)
                .sig_bits(3)
                .build()?;
            let mut carries_gl = false;
            for (&(nd, i, o), &(rate, len)) in &gb {
                if nd == node {
                    config.reservations_mut().reserve_gb(
                        InputId::new(i),
                        OutputId::new(o),
                        Rate::new(rate).expect("flow rates must lie in [0, 1]"),
                        len,
                    )?;
                }
            }
            for (&(nd, o), &rate) in &gl {
                if nd == node {
                    config.reservations_mut().reserve_gl(
                        OutputId::new(o),
                        Rate::new(rate).expect("flow rates must lie in [0, 1]"),
                    )?;
                    carries_gl = true;
                }
            }
            let mut switch = QosSwitch::new(config)?;
            switch.tracer_mut().attach_ring(1 << 15);
            switch.set_delivery_log(true);
            if carries_gl {
                // Generous: the revocation machinery, not a watchdog
                // trip, must be what retires a faulted GL flow.
                switch.set_gl_wait_bound(Some(5_000));
            }
            nodes.push(switch);
        }

        let links = topology.links.iter().map(|&l| LinkState::new(l)).collect();
        Ok(Fabric {
            doze: vec![Doze::Awake; n],
            frontier: Cycle::ZERO,
            delivered: Vec::new(),
            work: FabricWork::default(),
            node_up: vec![true; n],
            links,
            flows: flow_states,
            routes,
            port_link,
            plan: NetFaultPlan::new(),
            cursor: 0,
            meta: BTreeMap::new(),
            next_seq: 0,
            events: Vec::new(),
            counters: FabricCounters::default(),
            loss: BTreeMap::new(),
            rng: Xoshiro256StarStar::seed_from_u64(seed),
            topology,
            nodes,
        })
    }

    /// Arms a topology-fault schedule.
    #[must_use]
    pub fn with_plan(mut self, plan: NetFaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// The topology this fabric was built over.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The flow specs, in declaration order.
    #[must_use]
    pub fn flow_specs(&self) -> Vec<FlowSpec> {
        self.flows.iter().map(|f| f.spec).collect()
    }

    /// Whole-fabric counters.
    #[must_use]
    pub fn counters(&self) -> FabricCounters {
        self.counters
    }

    /// What the cycles so far were spent on (whole run, exact).
    #[must_use]
    pub fn work(&self) -> FabricWork {
        self.work
    }

    /// End-to-end stats for flow `idx` (declaration order).
    #[must_use]
    pub fn flow_stats(&self, idx: usize) -> FlowStats {
        self.flows[idx].stats
    }

    /// Per-flow loss ledger keyed by `(flow index, drop reason)`.
    #[must_use]
    pub fn loss(&self) -> &BTreeMap<(usize, String), u64> {
        &self.loss
    }

    /// Packets injected but not yet delivered or dropped — in a switch,
    /// on a wire, or waiting out a retransmission backoff.
    #[must_use]
    pub fn in_flight_packets(&self) -> usize {
        self.meta.len()
    }

    /// Fabric-level hop events (`hop_enqueue`, `credit_pause`/`resume`,
    /// `drop`, `nack_retransmit`, `reroute`), in emission order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Node `idx`'s switch (read-only). While the node sleeps its
    /// clocks (`now_hint`, decay subcounters, policers) stand where its
    /// last step left them; its queues, counters and ring are current.
    #[must_use]
    pub fn node(&self, idx: usize) -> &QosSwitch {
        &self.nodes[idx]
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Drains each node's flight-recorder ring into per-node event
    /// vectors (call once, after the run).
    #[must_use]
    pub fn node_events(&self) -> Vec<Vec<Event>> {
        self.nodes
            .iter()
            .map(|n| {
                n.tracer()
                    .ring()
                    .map(ssq_trace::RingSink::events)
                    .unwrap_or_default()
            })
            .collect()
    }

    /// The current first-hop routing table.
    #[must_use]
    pub fn routes(&self) -> &Routes {
        &self.routes
    }

    /// Touches node `n`: if it sleeps, brings it to the frontier and
    /// returns it to the step phase.
    fn wake(&mut self, n: usize) {
        if let Some(Doze::Asleep { from, .. }) = self.doze.get(n).copied() {
            catch_up(
                self.nodes.get_mut(n).expect("in range"),
                from,
                self.frontier,
            );
            *self.doze.get_mut(n).expect("in range") = Doze::Awake;
            self.work.wakes += 1;
        }
    }

    fn apply_due_faults(&mut self, now: Cycle) {
        let mut topo_changed = false;
        while let Some(step) = self.plan.steps().get(self.cursor) {
            if step.at > now.value() {
                break;
            }
            let kind = step.kind.clone();
            self.cursor += 1;
            match kind {
                NetFaultKind::KillLink { link } => {
                    if self.links.get(link).is_some_and(|l| l.up) {
                        self.links.get_mut(link).expect("checked").up = false;
                        topo_changed = true;
                        self.flush_dead_wire(link, now);
                    }
                }
                NetFaultKind::RestoreLink { link } => {
                    if let Some(l) = self.links.get_mut(link) {
                        if !l.up {
                            l.up = true;
                            l.wire_free_at = now.value();
                            topo_changed = true;
                        }
                    }
                }
                NetFaultKind::PartitionNode { node } => {
                    if self.node_up.get(node).copied().unwrap_or(false) {
                        self.node_up[node] = false;
                        topo_changed = true;
                        for l in 0..self.links.len() {
                            let s = self.links.get(l).expect("in range").spec;
                            if s.src == node || s.dst == node {
                                self.flush_dead_wire(l, now);
                            }
                        }
                    }
                }
                NetFaultKind::HealNode { node } => {
                    if let Some(up) = self.node_up.get_mut(node) {
                        if !*up {
                            *up = true;
                            topo_changed = true;
                        }
                    }
                }
                NetFaultKind::NodeFault { node, kind } => {
                    self.wake(node);
                    if let Some(switch) = self.nodes.get_mut(node) {
                        kind.apply(switch, now);
                    }
                }
            }
        }
        if topo_changed {
            self.recompute_routes(now);
        }
    }

    fn recompute_routes(&mut self, now: Cycle) {
        let link_up: Vec<bool> = self.links.iter().map(|l| l.up).collect();
        let new = compute_routes(&self.topology, &link_up, &self.node_up);
        for node in 0..self.topology.nodes {
            for dest in 0..self.topology.nodes {
                let old_l = self
                    .routes
                    .get(node)
                    .and_then(|r| r.get(dest).copied().flatten());
                let new_l = new.get(node).and_then(|r| r.get(dest).copied().flatten());
                if let (Some(o), Some(nl)) = (old_l, new_l) {
                    if o != nl {
                        let via = self.topology.links.get(nl).expect("route in range").dst;
                        self.events.push(Event {
                            cycle: now.value(),
                            kind: EventKind::Reroute {
                                node: wire(node),
                                dest: wire(dest),
                                via: wire(via),
                            },
                        });
                        self.counters.reroutes += 1;
                    }
                }
            }
        }
        self.routes = new;
    }

    /// Packets still flying when a wire dies are lost with it: loud
    /// `link_down` drops for credit/lossy links, retransmission (until
    /// the budget runs out) for NACK links.
    fn flush_dead_wire(&mut self, l: usize, now: Cycle) {
        let Some(link) = self.links.get_mut(l) else {
            return;
        };
        let discipline = link.spec.discipline;
        let flying: Vec<PacketSpec> = link.in_flight.drain(..).map(|(_, p)| p).collect();
        for pkt in flying {
            match discipline {
                LinkDiscipline::Nack(p) => self.nack_or_drop(l, pkt, &p, now),
                _ => self.drop_packet(wire(l), pkt, "link_down", now),
            }
        }
    }

    /// Records a lost packet: loss ledger, counters, the `drop` trace
    /// event, and — on the first loud loss of a still-guaranteed flow —
    /// the loud revocation at the flow's source.
    fn drop_packet(&mut self, link: u32, pkt: PacketSpec, reason: &str, now: Cycle) {
        let raw = pkt.id().raw();
        let meta = self.meta.remove(&raw);
        let (input, output) = match meta {
            Some(m) => {
                let f = self.flows.get_mut(m.flow).expect("meta flow in range");
                f.stats.lost_packets += 1;
                *self.loss.entry((m.flow, reason.to_string())).or_insert(0) += 1;
                (wire(f.spec.src), wire(f.spec.dest))
            }
            None => (
                wire(pkt.flow().input().index()),
                wire(pkt.flow().output().index()),
            ),
        };
        self.counters.dropped_packets += 1;
        self.events.push(Event {
            cycle: now.value(),
            kind: EventKind::Drop {
                link,
                input,
                output,
                class: pkt.class(),
                packet: raw,
                reason: reason.to_string(),
            },
        });
        if is_loud_reason(reason) {
            if let Some(m) = meta {
                self.revoke_flow(m.flow, now);
            }
        }
    }

    /// Loudly revokes a flow after its first fault-attributable loss:
    /// re-admission at the source's first-hop output with zero capacity
    /// evicts every reservation there, emitting `guarantee_revoked` and
    /// `readmitted` events; later packets demote to best-effort.
    fn revoke_flow(&mut self, flow: usize, now: Cycle) {
        let f = self.flows.get_mut(flow).expect("flow in range");
        if f.revoked {
            return;
        }
        f.revoked = true;
        let src = f.spec.src;
        let gl_lost = f.spec.class == TrafficClass::GuaranteedLatency;
        let home = f.home_port;
        self.counters.revocations += 1;
        if let Some(port) = home {
            self.wake(src);
            let _ = self
                .nodes
                .get_mut(src)
                .expect("src in range")
                .readmit_output(OutputId::new(port), 0.0, gl_lost, now);
        }
    }

    /// The class a packet actually travels in at `node`: a GB packet
    /// without a GB reservation on its (input, output) pair — or a GL
    /// packet on an output with no GL allocation — demotes to
    /// best-effort, exactly as the single-switch injector path demotes
    /// unreserved guaranteed traffic.
    fn effective_class(
        &mut self,
        node: usize,
        class: TrafficClass,
        in_port: usize,
        out_port: usize,
    ) -> TrafficClass {
        let Some(n) = self.nodes.get(node) else {
            return class;
        };
        let res = n.config().reservations();
        let demote = match class {
            TrafficClass::GuaranteedBandwidth => res
                .gb(InputId::new(in_port), OutputId::new(out_port))
                .is_none(),
            TrafficClass::GuaranteedLatency => res.gl(OutputId::new(out_port)).is_zero(),
            TrafficClass::BestEffort => false,
        };
        if demote {
            self.counters.demoted_packets = self.counters.demoted_packets.saturating_add(1);
            TrafficClass::BestEffort
        } else {
            class
        }
    }

    fn inject(&mut self, now: Cycle) {
        for f in 0..self.flows.len() {
            let Some(flow) = self.flows.get(f) else {
                continue;
            };
            let spec = flow.spec;
            // Retry a previously refused offer before minting another.
            if let Some(pkt) = flow.pending {
                self.wake(spec.src);
                let accepted = self
                    .nodes
                    .get_mut(spec.src)
                    .is_some_and(|n| n.offer_packet(pkt, now));
                if accepted {
                    if let Some(state) = self.flows.get_mut(f) {
                        state.pending = None;
                    }
                } else {
                    self.counters.source_blocked = self.counters.source_blocked.saturating_add(1);
                    continue;
                }
            }
            // checked_rem folds the period-0 guard into the beat test: a
            // zero period never injects.
            let on_beat = now.value().checked_rem(spec.period).is_some_and(|r| r == 0);
            if !on_beat {
                continue;
            }
            if !self.node_up.get(spec.src).copied().unwrap_or(false)
                || !self.node_up.get(spec.dest).copied().unwrap_or(false)
            {
                continue;
            }
            let out_port = if spec.src == spec.dest {
                spec.dest_port
            } else {
                let first_hop = self
                    .routes
                    .get(spec.src)
                    .and_then(|row| row.get(spec.dest))
                    .copied()
                    .flatten();
                match first_hop.and_then(|l| self.topology.links.get(l)) {
                    Some(link) => link.src_port,
                    // Unroutable: stop minting until the topology heals
                    // (losses already in flight speak for themselves).
                    None => continue,
                }
            };
            let raw = NET_PACKET_BASE.wrapping_add(self.next_seq);
            self.next_seq = self.next_seq.wrapping_add(1);
            let class = self.effective_class(spec.src, spec.class, spec.src_port, out_port);
            let pkt = PacketSpec::new(
                PacketId::new(raw),
                FlowId::new(InputId::new(spec.src_port), OutputId::new(out_port)),
                class,
                spec.len_flits,
                now,
            );
            self.meta.insert(
                raw,
                PacketMeta {
                    flow: f,
                    injected: now.value(),
                },
            );
            self.counters.injected_packets = self.counters.injected_packets.saturating_add(1);
            if let Some(state) = self.flows.get_mut(f) {
                state.stats.injected_packets = state.stats.injected_packets.saturating_add(1);
            }
            self.wake(spec.src);
            let accepted = self
                .nodes
                .get_mut(spec.src)
                .is_some_and(|n| n.offer_packet(pkt, now));
            if !accepted {
                if let Some(state) = self.flows.get_mut(f) {
                    state.pending = Some(pkt);
                }
                self.counters.source_blocked = self.counters.source_blocked.saturating_add(1);
            }
        }
    }

    /// Routes what the nodes stepped this cycle delivered; a node that
    /// slept through it delivered nothing.
    fn route_deliveries(&mut self, now: Cycle) {
        let mut delivered = std::mem::take(&mut self.delivered);
        for n in 0..self.nodes.len() {
            if !matches!(self.doze.get(n), Some(Doze::Awake)) {
                continue;
            }
            self.nodes
                .get_mut(n)
                .expect("in range")
                .swap_deliveries(&mut delivered);
            for (_at, pkt) in delivered.drain(..) {
                let raw = pkt.id().raw();
                let Some(meta) = self.meta.get(&raw).copied() else {
                    continue; // not a fabric packet
                };
                let flow = self.flows.get(meta.flow).expect("in range").spec;
                if n == flow.dest && pkt.flow().output().index() == flow.dest_port {
                    self.meta.remove(&raw);
                    let latency = now.value().saturating_sub(meta.injected);
                    let stats = &mut self.flows.get_mut(meta.flow).expect("in range").stats;
                    stats.delivered_packets += 1;
                    stats.delivered_flits += pkt.len_flits();
                    stats.latency_sum += latency;
                    stats.latency_max = stats.latency_max.max(latency);
                    self.counters.delivered_packets += 1;
                    self.counters.delivered_flits += pkt.len_flits();
                    continue;
                }
                match self
                    .port_link
                    .get(&(n, pkt.flow().output().index()))
                    .copied()
                {
                    Some(l) => {
                        self.links.get_mut(l).expect("in range").tx.push_back(pkt);
                        self.events.push(Event {
                            cycle: now.value(),
                            kind: EventKind::HopEnqueue {
                                node: wire(n),
                                link: wire(l),
                                packet: raw,
                                len_flits: pkt.len_flits(),
                            },
                        });
                    }
                    // A packet on a port with no outgoing link: stranded.
                    None => self.drop_packet(NO_LINK, pkt, "no_route", now),
                }
            }
        }
        self.delivered = delivered;
    }

    fn nack_or_drop(&mut self, l: usize, pkt: PacketSpec, policy: &BackoffPolicy, now: Cycle) {
        let raw = pkt.id().raw();
        let mut timer = self
            .links
            .get(l)
            .expect("in range")
            .retries
            .get(&raw)
            .copied()
            .unwrap_or_default();
        match timer.decide(policy, now.value(), &mut self.rng) {
            RetryDecision::Retry { until } => {
                self.links
                    .get_mut(l)
                    .expect("in range")
                    .retries
                    .insert(raw, timer);
                self.counters.retransmits += 1;
                self.events.push(Event {
                    cycle: now.value(),
                    kind: EventKind::NackRetransmit {
                        link: wire(l),
                        packet: raw,
                        attempt: timer.attempts(),
                        delay: until.saturating_sub(now.value()),
                    },
                });
                self.queue_retransmit(l, until.max(now.value().saturating_add(1)), pkt);
            }
            RetryDecision::Hold { until } => {
                self.links
                    .get_mut(l)
                    .expect("in range")
                    .retries
                    .insert(raw, timer);
                self.queue_retransmit(l, until.max(now.value().saturating_add(1)), pkt);
            }
            RetryDecision::Exhausted => {
                self.links
                    .get_mut(l)
                    .expect("in range")
                    .retries
                    .remove(&raw);
                self.drop_packet(wire(l), pkt, "retries_exhausted", now);
            }
        }
    }

    fn queue_retransmit(&mut self, l: usize, ready: u64, pkt: PacketSpec) {
        let backoff = &mut self.links.get_mut(l).expect("in range").backoff;
        let pos = backoff.partition_point(|&(r, _)| r <= ready);
        backoff.insert(pos, (ready, pkt));
    }

    fn tick_link(&mut self, l: usize, now: Cycle) {
        let link = self.links.get(l).expect("in range");
        if link.tx.is_empty()
            && link.in_flight.is_empty()
            && link.egress.is_empty()
            && link.backoff.is_empty()
            && !link.paused
        {
            // Nothing queued, on the wire or backing off, and no pause
            // to lift: every branch below is a no-op, dead link or live.
            self.work.link_ticks_idle += 1;
            return;
        }
        let spec = link.spec;
        let t = now.value();
        let policy = match spec.discipline {
            LinkDiscipline::Nack(p) => Some(p),
            _ => None,
        };
        // Backoff-ready retransmissions rejoin the upstream queue.
        loop {
            let link = self.links.get_mut(l).expect("in range");
            match link.backoff.first() {
                Some(&(ready, _)) if ready <= t => {
                    let (_, pkt) = link.backoff.remove(0);
                    link.tx.push_back(pkt);
                }
                _ => break,
            }
        }
        let dead = {
            let link = self.links.get(l).expect("in range");
            !link.up || !self.node_up[spec.src] || !self.node_up[spec.dst]
        };
        if dead {
            // Everything the upstream switch emits while the wire is
            // dead is flushed per discipline: loudly for credit/lossy,
            // into the retransmission budget for NACK.
            while let Some(pkt) = self.links.get_mut(l).expect("in range").tx.pop_front() {
                match policy {
                    Some(p) => self.nack_or_drop(l, pkt, &p, now),
                    None => self.drop_packet(wire(l), pkt, "link_down", now),
                }
            }
            return;
        }
        // Arrivals land in the bounded egress queue.
        loop {
            let link = self.links.get_mut(l).expect("in range");
            let Some(&(arrives, _)) = link.in_flight.front() else {
                break;
            };
            if arrives > t {
                break;
            }
            let (arrives, pkt) = link.in_flight.pop_front().expect("checked");
            if link.egress.push(pkt) {
                link.retries.remove(&pkt.id().raw());
            } else {
                match spec.discipline {
                    LinkDiscipline::Credit => {
                        // Launches are credit-gated, so a full egress
                        // cannot normally happen; hold the packet on
                        // the wire rather than invent a loss.
                        link.in_flight.push_front((arrives, pkt));
                        break;
                    }
                    LinkDiscipline::Lossy => self.drop_packet(wire(l), pkt, "queue_full", now),
                    LinkDiscipline::Nack(p) => self.nack_or_drop(l, pkt, &p, now),
                }
            }
        }
        // Launch one packet per free wire slot.
        {
            let link = self.links.get_mut(l).expect("in range");
            if link.wire_free_at <= t {
                let credit_ok = !matches!(spec.discipline, LinkDiscipline::Credit)
                    || link.egress.len() + link.in_flight.len() < spec.queue_depth;
                if credit_ok {
                    if let Some(pkt) = link.tx.pop_front() {
                        let ser = spec.serialize_cycles(pkt.len_flits());
                        link.wire_free_at = t.saturating_add(ser);
                        link.in_flight
                            .push_back((t.saturating_add(ser).saturating_add(spec.latency), pkt));
                    }
                }
            }
        }
        // Credit pause/resume bookkeeping.
        if matches!(spec.discipline, LinkDiscipline::Credit) {
            let link = self.links.get(l).expect("in range");
            let occupancy = (link.egress.len() + link.in_flight.len()) as u64;
            let full = occupancy >= spec.queue_depth as u64;
            let paused = link.paused;
            let has_backlog = !link.tx.is_empty();
            if full && !paused && has_backlog {
                self.links.get_mut(l).expect("in range").paused = true;
                self.events.push(Event {
                    cycle: t,
                    kind: EventKind::CreditPause {
                        link: wire(l),
                        occupancy,
                    },
                });
            } else if !full && paused {
                self.links.get_mut(l).expect("in range").paused = false;
                self.events.push(Event {
                    cycle: t,
                    kind: EventKind::CreditResume {
                        link: wire(l),
                        occupancy,
                    },
                });
            }
        }
        // Offer the egress head downstream. A temporarily unroutable
        // next hop holds the head for every discipline (a transient
        // topology gap, not congestion). A refusal — the downstream
        // switch's input buffer is full — is where the disciplines
        // diverge: credit links hold the head (backpressure), lossy
        // links shed it as congestion, NACK links send it back through
        // the retransmission budget.
        let head = self.links.get(l).expect("in range").egress.front().copied();
        if let Some(pkt) = head {
            let raw = pkt.id().raw();
            let Some(meta) = self.meta.get(&raw).copied() else {
                let _ = self.links.get_mut(l).expect("in range").egress.pop();
                return;
            };
            let flow = self.flows.get(meta.flow).expect("in range").spec;
            let dst = spec.dst;
            let out_port = if dst == flow.dest {
                flow.dest_port
            } else {
                match self.routes[dst][flow.dest] {
                    Some(nl) => self.topology.links[nl].src_port,
                    None => return, // hold until a route (re)appears
                }
            };
            let class = self.effective_class(dst, pkt.class(), spec.dst_port, out_port);
            let hop = PacketSpec::new(
                pkt.id(),
                FlowId::new(InputId::new(spec.dst_port), OutputId::new(out_port)),
                class,
                pkt.len_flits(),
                pkt.created(),
            );
            self.wake(dst);
            if self
                .nodes
                .get_mut(dst)
                .expect("in range")
                .offer_packet(hop, now)
            {
                let _ = self.links.get_mut(l).expect("in range").egress.pop();
            } else {
                match spec.discipline {
                    LinkDiscipline::Credit => {}
                    LinkDiscipline::Lossy => {
                        let _ = self.links.get_mut(l).expect("in range").egress.pop();
                        self.drop_packet(wire(l), pkt, "queue_full", now);
                    }
                    LinkDiscipline::Nack(p) => {
                        let _ = self.links.get_mut(l).expect("in range").egress.pop();
                        self.nack_or_drop(l, pkt, &p, now);
                    }
                }
            }
        }
    }
}

/// Walks a flow's route on the healthy topology, returning each hop as
/// `(node, input_port, output_port)` — source and destination included.
fn static_path(
    topology: &Topology,
    routes: &Routes,
    flow: &FlowSpec,
) -> Option<Vec<(usize, usize, usize)>> {
    let mut hops = Vec::new();
    let mut node = flow.src;
    let mut in_port = flow.src_port;
    let mut guard = 0;
    while node != flow.dest {
        let l = routes[node][flow.dest]?;
        let link = &topology.links[l];
        hops.push((node, in_port, link.src_port));
        node = link.dst;
        in_port = link.dst_port;
        guard += 1;
        if guard > topology.nodes {
            return None;
        }
    }
    hops.push((node, in_port, flow.dest_port));
    Some(hops)
}

impl Fabric {
    /// One fabric cycle. With `lazy` unset no node is ever put to
    /// sleep, so the step phase visits all of them.
    fn run_cycle(&mut self, now: Cycle, lazy: bool) {
        self.frontier = now;
        self.apply_due_faults(now);
        self.inject(now);
        let mut stepped = 0;
        for (node, doze) in self.nodes.iter_mut().zip(&mut self.doze) {
            match *doze {
                Doze::Awake => {
                    node.step(now);
                    stepped += 1;
                }
                // The ring is owed the decay epoch dense stepping traces
                // this cycle: sleep on from the next one.
                Doze::Asleep { from, alarm } if alarm <= now.value() => {
                    catch_up(node, from, now.next());
                    *doze = Doze::asleep(node, now.next());
                }
                Doze::Asleep { .. } => {}
            }
        }
        self.work.node_steps += stepped;
        self.work.node_cycles_slept += self.nodes.len() as u64 - stepped;
        self.frontier = now.next();
        self.route_deliveries(now);
        for l in 0..self.links.len() {
            self.tick_link(l, now);
        }
        self.work.link_ticks += self.links.len() as u64;
        if lazy {
            for (node, doze) in self.nodes.iter().zip(&mut self.doze) {
                if matches!(doze, Doze::Awake) && node.is_quiescent() {
                    *doze = Doze::asleep(node, now.next());
                }
            }
        }
    }

    /// [`CycleModel::step`] with every node stepped every cycle — the
    /// oracle the sleeping fabric is differentially tested against.
    /// Never mixed with `step` on one fabric.
    #[doc(hidden)]
    pub fn step_dense(&mut self, now: Cycle) {
        self.run_cycle(now, false);
    }
}

/// A fabric stepped densely, so the stock runners can drive the oracle
/// through the same schedules as the fabric under test.
#[doc(hidden)]
#[derive(Debug)]
pub struct DenseFabric<'a>(pub &'a mut Fabric);

impl CycleModel for DenseFabric<'_> {
    fn step(&mut self, now: Cycle) {
        self.0.step_dense(now);
    }

    fn begin_measurement(&mut self, now: Cycle) {
        self.0.begin_measurement(now);
    }
}

impl Monitored for DenseFabric<'_> {
    fn progress(&self) -> Option<u64> {
        self.0.progress()
    }

    fn violation(&self) -> Option<String> {
        self.0.violation()
    }
}

impl CycleModel for Fabric {
    fn step(&mut self, now: Cycle) {
        self.run_cycle(now, true);
    }

    /// Opens every node's statistics window, on clocks that are
    /// current: sleepers are woken and step with the rest at `now`.
    fn begin_measurement(&mut self, now: Cycle) {
        self.frontier = now;
        for n in 0..self.nodes.len() {
            self.wake(n);
        }
        for node in &mut self.nodes {
            node.begin_measurement(now);
        }
    }
}

impl Monitored for Fabric {
    /// Progress counts every form of forward motion — per-node
    /// deliveries, end-to-end retirements, drops, and retransmission
    /// attempts — reported only while fabric packets are outstanding,
    /// so an idle fabric never reads as stalled while a wedged one
    /// (e.g. credit-paused against a dead link with no revocation)
    /// trips the watchdog.
    fn progress(&self) -> Option<u64> {
        if self.meta.is_empty() {
            return None;
        }
        let node_flits: u64 = self
            .nodes
            .iter()
            .map(|n| n.counters().delivered_flits)
            .sum();
        Some(
            node_flits
                + self.counters.delivered_flits
                + self.counters.dropped_packets
                + self.counters.retransmits,
        )
    }

    /// The first node-level invariant violation (e.g. a GL wait above
    /// the armed Eq. 1 bound), tagged with its node.
    fn violation(&self) -> Option<String> {
        for (i, node) in self.nodes.iter().enumerate() {
            if let Some(v) = node.violation() {
                return Some(format!("node{i}: {v}"));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssq_sim::{MonitorOutcome, Runner, Schedule};
    use ssq_types::Cycles;

    fn run(fabric: &mut Fabric, warmup: u64, measure: u64) -> MonitorOutcome {
        Runner::new(Schedule::new(Cycles::new(warmup), Cycles::new(measure))).run_monitored(
            fabric,
            Cycles::new(2_000),
            |_, _| {},
        )
    }

    #[test]
    fn chain_delivers_end_to_end_with_latency_accounting() {
        let topo = Topology::chain(3, LinkDiscipline::Credit);
        let flows = [FlowSpec::new(0, 3, TrafficClass::GuaranteedBandwidth)
            .rate(0.4)
            .every(20)];
        let mut fabric = Fabric::new(topo, &flows, 1).expect("valid fabric");
        let outcome = run(&mut fabric, 200, 2_000);
        assert!(
            matches!(outcome, MonitorOutcome::Completed(_)),
            "{outcome:?}"
        );
        let stats = fabric.flow_stats(0);
        assert!(stats.delivered_packets > 50, "stats: {stats:?}");
        assert_eq!(stats.lost_packets, 0, "credit chain must be lossless");
        // 3 links + 4 switch traversals: latency is well above the
        // wire floor and bounded by the run length.
        assert!(stats.latency_max >= 6, "stats: {stats:?}");
        assert!(fabric.counters().revocations == 0);
        assert!(
            fabric
                .events()
                .iter()
                .any(|e| matches!(e.kind, EventKind::HopEnqueue { .. })),
            "transit hops must leave hop_enqueue events"
        );
    }

    #[test]
    fn reservations_are_installed_along_the_whole_path() {
        let topo = Topology::chain(2, LinkDiscipline::Credit);
        let flows = [FlowSpec::new(0, 2, TrafficClass::GuaranteedBandwidth)
            .rate(0.3)
            .every(26)];
        let fabric = Fabric::new(topo, &flows, 1).expect("valid fabric");
        // node0: injection port 4 -> transit out 0.
        assert!(fabric
            .node(0)
            .config()
            .reservations()
            .gb(InputId::new(4), OutputId::new(0))
            .is_some());
        // node1: transit in 0 -> transit out 0.
        assert!(fabric
            .node(1)
            .config()
            .reservations()
            .gb(InputId::new(0), OutputId::new(0))
            .is_some());
        // node2: transit in 0 -> terminal out 4.
        assert!(fabric
            .node(2)
            .config()
            .reservations()
            .gb(InputId::new(0), OutputId::new(4))
            .is_some());
    }

    #[test]
    fn shared_transit_hops_aggregate_their_rates() {
        let topo = Topology::chain(2, LinkDiscipline::Credit);
        let flows = [
            FlowSpec::new(0, 2, TrafficClass::GuaranteedBandwidth)
                .ports(4, 4)
                .rate(0.3),
            FlowSpec::new(0, 2, TrafficClass::GuaranteedBandwidth)
                .ports(5, 5)
                .rate(0.2),
        ];
        let fabric = Fabric::new(topo, &flows, 1).expect("valid fabric");
        let shared = fabric
            .node(1)
            .config()
            .reservations()
            .gb(InputId::new(0), OutputId::new(0))
            .expect("shared transit reservation");
        assert!((shared.rate().value() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn killed_chain_link_revokes_loudly_and_heals() {
        let topo = Topology::chain(3, LinkDiscipline::Credit);
        let flows = [FlowSpec::new(0, 3, TrafficClass::GuaranteedBandwidth)
            .rate(0.4)
            .every(20)];
        let plan = NetFaultPlan::new()
            .schedule(600, NetFaultKind::KillLink { link: 1 })
            .schedule(1_500, NetFaultKind::RestoreLink { link: 1 });
        let mut fabric = Fabric::new(topo, &flows, 1)
            .expect("valid fabric")
            .with_plan(plan);
        let _ = run(&mut fabric, 200, 3_000);
        assert!(fabric.counters().revocations >= 1, "no loud revocation");
        let loud: u64 = fabric
            .loss()
            .iter()
            .filter(|((_, r), _)| is_loud_reason(r))
            .map(|(_, &c)| c)
            .sum();
        assert!(loud >= 1, "dead wire must shed loudly: {:?}", fabric.loss());
        // The revocation shows up in the source node's own trace.
        let revoked = fabric.node_events()[0]
            .iter()
            .any(|e| matches!(e.kind, EventKind::GuaranteeRevoked { .. }));
        assert!(revoked, "source trace carries no guarantee_revoked");
        // Delivery resumes (demoted) after the heal.
        assert!(fabric.flow_stats(0).delivered_packets > 0);
    }

    #[test]
    fn fat_tree_reroutes_around_a_killed_uplink() {
        let topo = Topology::fat_tree(LinkDiscipline::Credit);
        let flows = [FlowSpec::new(0, 3, TrafficClass::GuaranteedBandwidth)
            .rate(0.3)
            .every(26)];
        let plan = NetFaultPlan::new().schedule(600, NetFaultKind::KillLink { link: 0 });
        let mut fabric = Fabric::new(topo, &flows, 1)
            .expect("valid fabric")
            .with_plan(plan);
        let outcome = run(&mut fabric, 200, 3_000);
        assert!(
            matches!(outcome, MonitorOutcome::Completed(_)),
            "{outcome:?}"
        );
        assert!(fabric.counters().reroutes >= 1, "no reroute recorded");
        assert!(
            fabric.events().iter().any(|e| matches!(
                e.kind,
                EventKind::Reroute {
                    node: 0,
                    dest: 3,
                    via: 2
                }
            )),
            "leaf 0 must reroute to spine 2"
        );
        // Traffic keeps flowing on the alternate path.
        let stats = fabric.flow_stats(0);
        assert!(stats.delivered_packets > 50, "stats: {stats:?}");
    }

    #[test]
    fn nack_links_absorb_a_short_blip_without_revocation() {
        let policy = BackoffPolicy::exponential(8, 4, 2, 256);
        let topo = Topology::chain(3, LinkDiscipline::Nack(policy));
        let flows = [FlowSpec::new(0, 3, TrafficClass::GuaranteedBandwidth)
            .rate(0.4)
            .every(20)];
        let plan = NetFaultPlan::new()
            .schedule(600, NetFaultKind::KillLink { link: 1 })
            .schedule(660, NetFaultKind::RestoreLink { link: 1 });
        let mut fabric = Fabric::new(topo, &flows, 3)
            .expect("valid fabric")
            .with_plan(plan);
        let outcome = run(&mut fabric, 200, 3_000);
        assert!(
            matches!(outcome, MonitorOutcome::Completed(_)),
            "{outcome:?}"
        );
        assert!(fabric.counters().retransmits >= 1, "blip must retransmit");
        assert_eq!(fabric.counters().revocations, 0, "blip must be absorbed");
        assert_eq!(fabric.flow_stats(0).lost_packets, 0, "{:?}", fabric.loss());
    }

    #[test]
    fn lossy_overflow_is_congestion_not_revocation() {
        // A 2:1 funnel: two sources each inject 0.8 flits/cycle toward
        // the same transit node, whose single outgoing channel drains
        // at most 1 flit/cycle. The transit input buffers fill, the
        // lossy ingress links shed the excess as `queue_full`.
        let topo = Topology {
            nodes: 4,
            links: vec![
                LinkSpec::new(0, 0, 2, 0)
                    .discipline(LinkDiscipline::Lossy)
                    .queue_depth(2),
                LinkSpec::new(1, 0, 2, 1)
                    .discipline(LinkDiscipline::Lossy)
                    .queue_depth(2),
                LinkSpec::new(2, 0, 3, 0).discipline(LinkDiscipline::Lossy),
            ],
        };
        let flows = [
            FlowSpec::new(0, 3, TrafficClass::GuaranteedBandwidth)
                .ports(4, 4)
                .rate(0.45)
                .every(10),
            FlowSpec::new(1, 3, TrafficClass::GuaranteedBandwidth)
                .ports(5, 5)
                .rate(0.45)
                .every(10),
        ];
        let mut fabric = Fabric::new(topo, &flows, 5).expect("valid fabric");
        let _ = run(&mut fabric, 200, 3_000);
        let congestion: u64 = fabric
            .loss()
            .iter()
            .filter(|((_, r), _)| r == "queue_full")
            .map(|(_, &c)| c)
            .sum();
        assert!(
            congestion > 0,
            "expected queue_full losses: {:?}",
            fabric.loss()
        );
        assert_eq!(
            fabric.counters().revocations,
            0,
            "congestion loss must not revoke guarantees"
        );
    }

    #[test]
    fn runs_replay_identically_from_their_seed() {
        let build = || {
            let policy = BackoffPolicy::exponential(5, 4, 2, 64).with_jitter(3, 17);
            let topo = Topology::fat_tree(LinkDiscipline::Nack(policy));
            let flows = [FlowSpec::new(0, 3, TrafficClass::GuaranteedBandwidth)
                .rate(0.3)
                .every(26)];
            let plan = NetFaultPlan::link_flaps(9, 0, 500, 100, 3_000);
            Fabric::new(topo, &flows, 9)
                .expect("valid fabric")
                .with_plan(plan)
        };
        let mut a = build();
        let mut b = build();
        let oa = run(&mut a, 200, 3_000);
        let ob = run(&mut b, 200, 3_000);
        assert_eq!(format!("{oa:?}"), format!("{ob:?}"));
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.events(), b.events());
        assert_eq!(a.node_events(), b.node_events());
        assert_eq!(a.loss(), b.loss());
    }

    #[test]
    fn a_sleeper_s_ring_is_current_without_a_flush() {
        // Node 2 is on no path: asleep before the warm-up boundary
        // (which falls after the first decay epoch), across it, and when
        // the run ends, 64 cycles after the third epoch.
        let build = || {
            let topo = Topology::chain(2, LinkDiscipline::Credit);
            let flows = [FlowSpec::new(0, 1, TrafficClass::GuaranteedBandwidth).every(50)];
            Fabric::new(topo, &flows, 1).expect("valid fabric")
        };
        let schedule = Schedule::new(Cycles::new(600), Cycles::new(1_000));
        let (mut lazy, mut dense) = (build(), build());
        assert_eq!(Runner::new(schedule).run(&mut lazy), Cycle::new(1_600));
        Runner::new(schedule).run(&mut DenseFabric(&mut dense));
        assert!(
            matches!(lazy.doze[2], Doze::Asleep { .. }),
            "node 2 is awake"
        );

        let (rings, oracle) = (lazy.node_events(), dense.node_events());
        assert_eq!(rings, oracle);
        let stamps: Vec<u64> = rings[2].iter().map(|e| e.cycle).collect();
        let epochs = [511, 1_023, 1_535].map(|at| [at; 8]).concat();
        assert_eq!(stamps, epochs, "one decay event per output per epoch");
        assert_eq!(lazy.counters(), dense.counters());
        assert_eq!(lazy.flow_stats(0), dense.flow_stats(0));
    }

    #[test]
    fn a_mostly_idle_mesh_steps_in_proportion_to_its_work() {
        let topo = Topology::mesh(4, 4, LinkDiscipline::Credit);
        let flows = [
            FlowSpec::new(0, 3, TrafficClass::GuaranteedBandwidth).every(40),
            FlowSpec::new(12, 15, TrafficClass::BestEffort).every(64),
        ];
        let mut fabric = Fabric::new(topo, &flows, 1).expect("valid fabric");
        let links = fabric.links.len() as u64;
        let _ = run(&mut fabric, 200, 2_000);
        let work = fabric.work();
        assert_eq!(work.node_steps + work.node_cycles_slept, 2_200 * 16);
        assert_eq!(work.link_ticks, 2_200 * links);
        // Half the nodes carry nothing; the rest idle between packets.
        assert!(work.node_steps > 2_200, "{work:?}");
        assert!(work.node_cycles_slept > 2_200 * 8, "{work:?}");
        assert!(work.wakes > 100, "{work:?}");
        assert!(
            work.link_ticks_idle > work.link_ticks / 2 && work.link_ticks_idle < work.link_ticks,
            "{work:?}"
        );
        assert!(fabric.counters().delivered_packets > 50);
    }

    #[test]
    fn partitioned_destination_stops_minting_instead_of_leaking() {
        let topo = Topology::chain(2, LinkDiscipline::Credit);
        let flows = [FlowSpec::new(0, 2, TrafficClass::GuaranteedBandwidth)
            .rate(0.3)
            .every(26)];
        let plan = NetFaultPlan::new().schedule(600, NetFaultKind::PartitionNode { node: 2 });
        let mut fabric = Fabric::new(topo, &flows, 1)
            .expect("valid fabric")
            .with_plan(plan);
        let _ = run(&mut fabric, 200, 3_000);
        let injected = fabric.counters().injected_packets;
        let accounted = fabric.counters().delivered_packets
            + fabric.counters().dropped_packets
            + fabric.meta.len() as u64;
        assert_eq!(injected, accounted, "every packet must be accounted for");
    }
}
