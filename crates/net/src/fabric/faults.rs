//! Faults and what they cost: due fault steps, route recomputation and
//! its `reroute` events, the drops a dead wire or a stranded packet
//! makes, and the loud revocation a flow's first fault-attributable loss
//! triggers at its source.

use ssq_trace::{DropReason, Event, EventKind, TraceSink};
use ssq_types::{Cycle, OutputId, PacketSpec, TrafficClass};

use super::{wire, Fabric};
use crate::fault::NetFaultKind;
use crate::topology::compute_routes;

impl Fabric {
    pub(super) fn apply_due_faults(&mut self, now: Cycle) {
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
                        self.links[link].up = false;
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
                            let s = self.links[l].spec;
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
        for (node, (old_row, new_row)) in self.routes.iter().zip(&new).enumerate() {
            for (dest, pair) in old_row.iter().zip(new_row).enumerate() {
                if let (Some(o), Some(nl)) = pair {
                    if o != nl {
                        self.events.record(&Event {
                            cycle: now.value(),
                            kind: EventKind::Reroute {
                                node: wire(node),
                                dest: wire(dest),
                                via: wire(self.topology.links[*nl].dst),
                            },
                        });
                        self.counters.reroutes += 1;
                    }
                }
            }
        }
        self.routes = new;
    }

    /// Packets still flying when a wire dies are lost with it.
    fn flush_dead_wire(&mut self, l: usize, now: Cycle) {
        let flying: Vec<PacketSpec> = self.links[l].in_flight.drain(..).map(|(_, p)| p).collect();
        for pkt in flying {
            let held = self.shed(l, pkt, DropReason::LinkDown, now);
            debug_assert!(held.is_none(), "only a full queue holds a packet");
        }
    }

    /// Records a lost packet: loss ledger, counters, the `drop` trace
    /// event, and — on the first loud loss of a still-guaranteed flow —
    /// the loud revocation at the flow's source.
    pub(super) fn drop_packet(
        &mut self,
        link: u32,
        pkt: PacketSpec,
        reason: DropReason,
        now: Cycle,
    ) {
        let raw = pkt.id().raw();
        let flow = self.flow_of.remove(&raw);
        let (input, output) = match flow {
            Some(f) => {
                let state = &mut self.flows[f];
                state.stats.lost_packets += 1;
                *self.loss.entry((f, reason)).or_insert(0) += 1;
                (wire(state.spec.src), wire(state.spec.dest))
            }
            None => (
                wire(pkt.flow().input().index()),
                wire(pkt.flow().output().index()),
            ),
        };
        self.counters.dropped_packets += 1;
        self.events.record(&Event {
            cycle: now.value(),
            kind: EventKind::Drop {
                link,
                input,
                output,
                class: pkt.class(),
                packet: raw,
                reason,
            },
        });
        if let Some(f) = flow.filter(|_| reason.is_loud()) {
            self.revoke_flow(f, now);
        }
    }

    /// Loudly revokes a flow after its first fault-attributable loss:
    /// re-admission at the source's first-hop output with zero capacity
    /// evicts every reservation there, emitting `guarantee_revoked` and
    /// `readmitted` events; later packets demote to best-effort.
    fn revoke_flow(&mut self, flow: usize, now: Cycle) {
        let f = &mut self.flows[flow];
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
            let _ = self.nodes[src].readmit_output(OutputId::new(port), 0.0, gl_lost, now);
        }
    }
}
