//! Flows and where their packets go: injection at the source, the next
//! port at every node, the class a packet travels in there, and the
//! routing of what the switches delivered.

use ssq_trace::{DropReason, Event, EventKind, TraceSink};
use ssq_types::{
    Cycle, FlowId, InputId, OutputId, PacketId, PacketSpec, TrafficClass, MAX_PACKET_FLITS,
};

use super::{wire, Doze, Fabric, NET_PACKET_BASE, NO_LINK};
use crate::topology::{Routes, Topology};

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

    /// Sets the injection period in cycles; [`Fabric::new`] refuses 0.
    #[must_use]
    pub fn every(mut self, period: u64) -> Self {
        self.period = period;
        self
    }

    /// What keeps this flow off a `nodes`-node fabric, routes aside.
    pub(super) fn problem(&self, nodes: usize) -> Option<String> {
        let ports = 4..8;
        if self.src >= nodes || self.dest >= nodes {
            Some(format!(
                "endpoints {} -> {} outside a {nodes}-node topology",
                self.src, self.dest
            ))
        } else if !ports.contains(&self.src_port) || !ports.contains(&self.dest_port) {
            Some(format!(
                "ports {} -> {} outside 4-7 (0-3 are transit)",
                self.src_port, self.dest_port
            ))
        } else if self.class != TrafficClass::BestEffort && !(0.0..=1.0).contains(&self.rate) {
            Some(format!("reserved rate {} outside [0, 1]", self.rate))
        } else if !(1..=MAX_PACKET_FLITS).contains(&self.len_flits) {
            Some(format!(
                "packet length {} flits outside 1..={MAX_PACKET_FLITS}",
                self.len_flits
            ))
        } else if self.period == 0 {
            Some("injection period 0: the flow would never inject".to_owned())
        } else {
            None
        }
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

/// The output port a packet of `flow` leaves `node` by: the flow's
/// terminal port at its destination, else the port of the node's route
/// toward it (`None` while the destination is unreachable).
pub(super) fn next_port(
    topology: &Topology,
    routes: &Routes,
    node: usize,
    flow: &FlowSpec,
) -> Option<usize> {
    if node == flow.dest {
        Some(flow.dest_port)
    } else {
        let l = routes.get(node)?.get(flow.dest).copied().flatten()?;
        Some(topology.links.get(l)?.src_port)
    }
}

impl Fabric {
    /// The class a packet actually travels in at `node`: a GB packet
    /// without a GB reservation on its (input, output) pair — or a GL
    /// packet on an output with no GL allocation — demotes to
    /// best-effort, exactly as the single-switch injector path demotes
    /// unreserved guaranteed traffic.
    pub(super) fn effective_class(
        &self,
        node: usize,
        class: TrafficClass,
        in_port: usize,
        out_port: usize,
    ) -> TrafficClass {
        let res = self.nodes[node].config().reservations();
        let demote = match class {
            TrafficClass::GuaranteedBandwidth => res
                .gb(InputId::new(in_port), OutputId::new(out_port))
                .is_none(),
            TrafficClass::GuaranteedLatency => res.gl(OutputId::new(out_port)).is_zero(),
            TrafficClass::BestEffort => false,
        };
        if demote {
            TrafficClass::BestEffort
        } else {
            class
        }
    }

    /// Offers `hop` to node `n`'s switch, waking it first. A packet the
    /// switch accepts below the class it arrived in (`class`) is counted
    /// demoted: once per packet and hop, however often it was offered.
    pub(super) fn offer(
        &mut self,
        n: usize,
        hop: PacketSpec,
        class: TrafficClass,
        now: Cycle,
    ) -> bool {
        self.wake(n);
        let accepted = self.nodes[n].offer_packet(hop, now);
        if accepted && hop.class() != class {
            self.counters.demoted_packets = self.counters.demoted_packets.saturating_add(1);
        }
        accepted
    }

    pub(super) fn inject(&mut self, now: Cycle) {
        for f in 0..self.flows.len() {
            let flow = &self.flows[f];
            let spec = flow.spec;
            // Retry a previously refused offer before minting another.
            if let Some(pkt) = flow.pending {
                if self.offer(spec.src, pkt, spec.class, now) {
                    self.flows[f].pending = None;
                } else {
                    self.counters.source_blocked = self.counters.source_blocked.saturating_add(1);
                    continue;
                }
            }
            let on_beat = now.value().is_multiple_of(spec.period);
            if !on_beat || !self.node_up[spec.src] || !self.node_up[spec.dest] {
                continue;
            }
            // Unroutable: stop minting until the topology heals (losses
            // already in flight speak for themselves).
            let Some(out_port) = next_port(&self.topology, &self.routes, spec.src, &spec) else {
                continue;
            };
            let raw = NET_PACKET_BASE.wrapping_add(self.next_seq);
            self.next_seq = self.next_seq.wrapping_add(1);
            let pkt = PacketSpec::new(
                PacketId::new(raw),
                FlowId::new(InputId::new(spec.src_port), OutputId::new(out_port)),
                self.effective_class(spec.src, spec.class, spec.src_port, out_port),
                spec.len_flits,
                now,
            );
            self.flow_of.insert(raw, f);
            self.counters.injected_packets = self.counters.injected_packets.saturating_add(1);
            let stats = &mut self.flows[f].stats;
            stats.injected_packets = stats.injected_packets.saturating_add(1);
            if !self.offer(spec.src, pkt, spec.class, now) {
                self.flows[f].pending = Some(pkt);
                self.counters.source_blocked = self.counters.source_blocked.saturating_add(1);
            }
        }
    }

    /// Routes what the nodes stepped this cycle delivered; a node that
    /// slept through it delivered nothing.
    pub(super) fn route_deliveries(&mut self, now: Cycle) {
        let mut delivered = std::mem::take(&mut self.delivered);
        for n in 0..self.nodes.len() {
            if !matches!(self.doze[n], Doze::Awake) {
                continue;
            }
            self.nodes[n].swap_deliveries(&mut delivered);
            for (_at, pkt) in delivered.drain(..) {
                let raw = pkt.id().raw();
                let Some(&f) = self.flow_of.get(&raw) else {
                    continue; // not a fabric packet
                };
                let flow = self.flows[f].spec;
                if n == flow.dest && pkt.flow().output().index() == flow.dest_port {
                    self.flow_of.remove(&raw);
                    let latency = now.value().saturating_sub(pkt.created().value());
                    let stats = &mut self.flows[f].stats;
                    stats.delivered_packets += 1;
                    stats.delivered_flits += pkt.len_flits();
                    stats.latency_sum += latency;
                    stats.latency_max = stats.latency_max.max(latency);
                    self.counters.delivered_packets += 1;
                    self.counters.delivered_flits += pkt.len_flits();
                    continue;
                }
                match self.port_link.get(&(n, pkt.flow().output().index())) {
                    Some(&l) => {
                        self.links[l].tx.push_back(pkt);
                        self.activate(l);
                        self.events.record(&Event {
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
                    None => self.drop_packet(NO_LINK, pkt, DropReason::NoRoute, now),
                }
            }
        }
        self.delivered = delivered;
    }
}
