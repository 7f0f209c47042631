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
//!    upstream queue, arrivals land in the bounded egress queue, one
//!    packet launches per free wire slot (credit-gated for
//!    [`LinkDiscipline::Credit`](crate::LinkDiscipline::Credit)), and the egress head is offered to the
//!    downstream switch.
//!
//! **One loss rule.** A packet a link cannot move — on a dead wire, into
//! a full egress queue, or refused by the downstream switch — goes to
//! `Fabric::shed`, the one place a [`LinkDiscipline`](crate::LinkDiscipline) decides a loss:
//! NACK links send it through the retransmission budget, credit links
//! hold it when the queue is full, and every other case drops it with
//! its typed [`DropReason`].
//!
//! **Guarantee survival**: a reserved flow keeps its class as long as
//! every hop still holds its reservation. The first *loud* loss on a
//! flow ([`DropReason::is_loud`]: `link_down`, `no_route` or
//! `retries_exhausted`) revokes the flow at its source via
//! [`QosSwitch::readmit_output`] (capacity 0), so the trace carries
//! explicit `guarantee_revoked` / `readmitted` events before any packet
//! silently vanishes; later packets demote to best-effort at injection.
//! Queue-full losses on a lossy link are congestion, not revocation.
//! Where the topology offers an alternate path the route recomputation
//! rides it (`reroute` events, delivery survives demoted); where it does
//! not, injection stops until the fault heals.
//!
//! **Nodes sleep**: a node whose switch is quiescent after a cycle
//! ([`QosSwitch::is_quiescent`]) is not stepped again until something
//! touches it — a packet offered by a source or a link, a revocation, a
//! node fault, the measurement boundary. The toucher first brings it up
//! to date with one [`CycleModel::skip_idle`] over the cycles it slept
//! through: up to the cycle before this one when the touch comes before
//! the step phase (the node then steps with the others), through this
//! cycle when it comes after. Its flight-recorder ring never falls
//! behind either: a sleeper's alarm is the stamp of its next
//! decay-epoch event, and the cycle that reaches it catches the node up
//! through that stamp. Every observable is what stepping every node
//! every cycle produces, which `Fabric::step_dense` still does for the
//! differential tests.
//!
//! The module splits along those seams: this file holds the types, the
//! constructor, the cycle and the sleeping; `route` the flows, their
//! injection and the routing of deliveries; `links` the link state and
//! the link phase; `faults` the fault steps, drops and revocation.

use std::collections::BTreeMap;
use std::fmt;

use ssq_arbiter::CounterPolicy;
use ssq_core::{ConfigError, Policy, QosSwitch, SwitchConfig};
use ssq_sim::{CycleModel, Monitored};
use ssq_trace::{DropReason, Event};
use ssq_types::rng::Xoshiro256StarStar;
use ssq_types::{Cycle, Geometry, InputId, OutputId, PacketSpec, Rate, TrafficClass};

use crate::fault::NetFaultPlan;
use crate::topology::{compute_routes, route_links, Routes, Topology};

mod faults;
mod links;
mod route;
#[cfg(test)]
mod tests;

use links::LinkState;
use route::next_port;
pub use route::{FlowSpec, FlowStats};

/// Fabric-assigned packet ids start here, far above any single-switch
/// injector sequence, so hop events never collide with node-local ids.
pub const NET_PACKET_BASE: u64 = 1 << 32;

/// Sentinel link id in `drop` events that could not be pinned to a
/// link (a packet stranded at a node with no outgoing edge).
pub const NO_LINK: u32 = u32::MAX;

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

/// Why [`Fabric::new`] refused to build a fabric.
#[derive(Debug, Clone, PartialEq)]
pub enum FabricError {
    /// A flow cannot run on the topology.
    Flow {
        /// The flow's position in the slice given to [`Fabric::new`].
        index: usize,
        /// What is wrong with it.
        problem: String,
    },
    /// A node's switch cannot be built, or the reservations routed onto
    /// one of its outputs do not fit it.
    Config(ConfigError),
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::Flow { index, problem } => write!(f, "flow {index}: {problem}"),
            FabricError::Config(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for FabricError {}

impl From<ConfigError> for FabricError {
    fn from(e: ConfigError) -> Self {
        FabricError::Config(e)
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
    /// Packets a switch accepted in a lower class than they arrived in:
    /// demoted to best-effort at a hop with no reservation.
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
    /// Bit `l % 64` of word `l / 64` ⇔ link `l` may have work: set where
    /// a link gains some (a delivery joins `tx`, a retransmission its
    /// backoff), cleared by a tick that leaves it (or finds it) idle.
    /// Every other link's tick would be a no-op.
    active_links: Vec<u64>,
    flows: Vec<FlowState>,
    routes: Routes,
    /// `(node, output_port)` → outgoing link index; static.
    port_link: BTreeMap<(usize, usize), usize>,
    plan: NetFaultPlan,
    cursor: usize,
    /// Packet id → owning flow, for every packet injected and not yet
    /// delivered or dropped.
    flow_of: BTreeMap<u64, usize>,
    next_seq: u64,
    events: Vec<Event>,
    counters: FabricCounters,
    loss: BTreeMap<(usize, DropReason), u64>,
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
    /// [`FabricError::Flow`] for a malformed flow: endpoints outside the
    /// topology, ports outside 4–7, a reserved rate outside `[0, 1]`, a
    /// packet length outside `1..=MAX_PACKET_FLITS`, or no route in the
    /// healthy topology. [`FabricError::Config`] when a node's switch
    /// cannot be built or the reservations on an output do not fit it.
    pub fn new(topology: Topology, flows: &[FlowSpec], seed: u64) -> Result<Self, FabricError> {
        let n = topology.nodes;
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
        for (index, spec) in flows.iter().enumerate() {
            let refuse = |problem| FabricError::Flow { index, problem };
            if let Some(problem) = spec.problem(n) {
                return Err(refuse(problem));
            }
            let path = route_links(&topology, &routes, spec.src, spec.dest).ok_or_else(|| {
                refuse(format!(
                    "no route from node {} to node {} in the healthy topology",
                    spec.src, spec.dest
                ))
            })?;
            // Each hop's (node, input port); its output port is the
            // packet's next port there.
            let entries = path.iter().map(|&l| {
                let link = &topology.links[l];
                (link.dst, link.dst_port)
            });
            for (node, in_port) in std::iter::once((spec.src, spec.src_port)).chain(entries) {
                let out_port =
                    next_port(&topology, &routes, node, spec).expect("a routed flow has a port");
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
                home_port: path.first().map(|&l| topology.links[l].src_port),
                pending: None,
                revoked: false,
                stats: FlowStats::default(),
            });
        }
        // Each flow's rate lies in [0, 1]; a sum over several that does
        // not over-allocates the output it shares.
        let summed = |o: usize, rate: f64| {
            Rate::new(rate).map_err(|_| ConfigError::Oversubscribed {
                output: OutputId::new(o),
                allocated: rate,
            })
        };

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
                        summed(o, rate)?,
                        len,
                    )?;
                }
            }
            for (&(nd, o), &rate) in &gl {
                if nd == node {
                    config
                        .reservations_mut()
                        .reserve_gl(OutputId::new(o), summed(o, rate)?)?;
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

        let links: Vec<LinkState> = topology.links.iter().map(|&l| LinkState::new(l)).collect();
        Ok(Fabric {
            active_links: vec![0; links.len().div_ceil(64)],
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
            flow_of: BTreeMap::new(),
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
    pub fn loss(&self) -> &BTreeMap<(usize, DropReason), u64> {
        &self.loss
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

    /// A copy of each node's flight-recorder ring, decoded into per-node
    /// event vectors (oldest first). The rings stay as they are, so every
    /// call decodes and copies them all again.
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
        self.tick_links(now);
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
        if self.flow_of.is_empty() {
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
