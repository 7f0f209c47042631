//! The link state and the link phase: retransmissions rejoining the
//! upstream queue, arrivals, launches, credit pauses, the offer of the
//! egress head downstream, and the one rule — [`Fabric::shed`] — by
//! which a link's discipline decides what a packet it cannot move
//! becomes.

use std::collections::{BTreeMap, VecDeque};

use crate::backoff::{BackoffPolicy, RetryDecision, RetryTimer};
use ssq_trace::{DropReason, Event, EventKind};
use ssq_types::{Cycle, FlowId, InputId, OutputId, PacketSpec};

use super::route::next_port;
use super::{wire, Fabric};
use crate::link::{LinkDiscipline, LinkSpec};

#[derive(Debug)]
pub(super) struct LinkState {
    pub(super) spec: LinkSpec,
    pub(super) up: bool,
    /// Upstream channel FIFO: deliveries from the source switch wait
    /// here for a wire slot (credit-gated for the Credit discipline).
    pub(super) tx: VecDeque<PacketSpec>,
    pub(super) wire_free_at: u64,
    /// Packets on the wire: `(arrival_cycle, packet)`, arrival-ordered.
    pub(super) in_flight: VecDeque<(u64, PacketSpec)>,
    /// The downstream queue, at most `spec.queue_depth` packets.
    egress: VecDeque<PacketSpec>,
    paused: bool,
    /// NACK retransmissions waiting out their backoff, sorted by the
    /// cycle they become ready.
    backoff: Vec<(u64, PacketSpec)>,
    /// Per-packet retry budgets (NACK discipline only).
    retries: BTreeMap<u64, RetryTimer>,
}

impl LinkState {
    pub(super) fn new(spec: LinkSpec) -> Self {
        LinkState {
            spec,
            up: true,
            tx: VecDeque::new(),
            wire_free_at: 0,
            in_flight: VecDeque::new(),
            egress: VecDeque::new(),
            paused: false,
            backoff: Vec::new(),
            retries: BTreeMap::new(),
        }
    }

    /// Nothing queued, on the wire or backing off, and no pause to lift:
    /// a tick would change nothing, dead link or live.
    fn is_idle(&self) -> bool {
        self.tx.is_empty()
            && self.in_flight.is_empty()
            && self.egress.is_empty()
            && self.backoff.is_empty()
            && !self.paused
    }

    /// Packets holding a credit: queued downstream or on the wire.
    fn occupancy(&self) -> usize {
        self.egress.len() + self.in_flight.len()
    }
}

impl Fabric {
    /// What link `l`'s discipline makes of a packet it cannot move, lost
    /// for `cause`: NACK links send it through the retransmission budget,
    /// a credit link holds it on a full queue (it comes back, for the
    /// caller to put back where it was), and every other case drops it.
    pub(super) fn shed(
        &mut self,
        l: usize,
        pkt: PacketSpec,
        cause: DropReason,
        now: Cycle,
    ) -> Option<PacketSpec> {
        match (self.links[l].spec.discipline, cause) {
            (LinkDiscipline::Nack(policy), _) => self.nack_or_drop(l, pkt, &policy, now),
            (LinkDiscipline::Credit, DropReason::QueueFull) => return Some(pkt),
            _ => self.drop_packet(wire(l), pkt, cause, now),
        }
        None
    }

    fn nack_or_drop(&mut self, l: usize, pkt: PacketSpec, policy: &BackoffPolicy, now: Cycle) {
        let raw = pkt.id().raw();
        let retries = &mut self.links[l].retries;
        let mut timer = retries.get(&raw).copied().unwrap_or_default();
        let ready = match timer.decide(policy, now.value(), &mut self.rng) {
            RetryDecision::Retry { until } => {
                retries.insert(raw, timer);
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
                until
            }
            RetryDecision::Hold { until } => {
                retries.insert(raw, timer);
                until
            }
            RetryDecision::Exhausted => {
                retries.remove(&raw);
                self.drop_packet(wire(l), pkt, DropReason::RetriesExhausted, now);
                return;
            }
        };
        let ready = ready.max(now.value().saturating_add(1));
        let backoff = &mut self.links[l].backoff;
        let pos = backoff.partition_point(|&(r, _)| r <= ready);
        backoff.insert(pos, (ready, pkt));
        self.activate(l);
    }

    /// Puts link `l` in the link phase's visit set.
    pub(super) fn activate(&mut self, l: usize) {
        *self.active_links.get_mut(l / 64).expect("in range") |= 1 << (l % 64);
    }

    /// The link phase: ticks the links that may have work, in ascending
    /// order, re-reading each word after every tick as dense ticking
    /// would see a link a tick activated further on. Every other link is
    /// empty and unpaused, so its tick is counted idle and skipped.
    pub(super) fn tick_links(&mut self, now: Cycle) {
        let mut visited = 0;
        for w in 0..self.active_links.len() {
            // Bits at and below the link ticked last.
            let mut passed = 0u64;
            loop {
                let due = self.active_links.get(w).expect("in range") & !passed;
                if due == 0 {
                    break;
                }
                let b = due.trailing_zeros();
                passed = (2u64 << b).wrapping_sub(1);
                visited += 1;
                let l = w * 64 + b as usize;
                self.tick_link(l, now);
                if self.links.get(l).expect("in range").is_idle() {
                    *self.active_links.get_mut(w).expect("in range") &= !(1 << b);
                }
            }
        }
        let links = self.links.len() as u64;
        self.work.link_ticks += links;
        self.work.link_ticks_idle += links - visited;
    }

    fn tick_link(&mut self, l: usize, now: Cycle) {
        let link = &mut self.links[l];
        if link.is_idle() {
            // Every branch below is a no-op (a link activated, then
            // emptied by a dead wire's flush before its tick).
            self.work.link_ticks_idle += 1;
            return;
        }
        let spec = link.spec;
        let t = now.value();
        // Backoff-ready retransmissions rejoin the upstream queue.
        while link.backoff.first().is_some_and(|&(ready, _)| ready <= t) {
            let (_, pkt) = link.backoff.remove(0);
            link.tx.push_back(pkt);
        }
        if !link.up || !self.node_up[spec.src] || !self.node_up[spec.dst] {
            // Everything the upstream switch emits while the wire is
            // dead is lost with it.
            while let Some(pkt) = self.links[l].tx.pop_front() {
                let held = self.shed(l, pkt, DropReason::LinkDown, now);
                debug_assert!(held.is_none(), "only a full queue holds a packet");
            }
            return;
        }
        // Arrivals land in the bounded egress queue.
        while let Some(&(arrives, pkt)) = self.links[l].in_flight.front().filter(|a| a.0 <= t) {
            let link = &mut self.links[l];
            let _ = link.in_flight.pop_front();
            if link.egress.len() < spec.queue_depth {
                link.egress.push_back(pkt);
                link.retries.remove(&pkt.id().raw());
            } else if let Some(held) = self.shed(l, pkt, DropReason::QueueFull, now) {
                // Launches are credit-gated, so a full egress cannot
                // normally happen; hold the packet on the wire rather
                // than invent a loss.
                self.links[l].in_flight.push_front((arrives, held));
                break;
            }
        }
        // Launch one packet per free wire slot.
        let link = &mut self.links[l];
        let credit_ok = !matches!(spec.discipline, LinkDiscipline::Credit)
            || link.occupancy() < spec.queue_depth;
        if link.wire_free_at <= t && credit_ok {
            if let Some(pkt) = link.tx.pop_front() {
                let ser = spec.serialize_cycles(pkt.len_flits());
                link.wire_free_at = t.saturating_add(ser);
                link.in_flight
                    .push_back((t.saturating_add(ser).saturating_add(spec.latency), pkt));
            }
        }
        // Credit pause/resume bookkeeping.
        if matches!(spec.discipline, LinkDiscipline::Credit) {
            let occupancy = link.occupancy() as u64;
            let full = occupancy >= spec.queue_depth as u64;
            let kind = if full && !link.paused && !link.tx.is_empty() {
                Some(EventKind::CreditPause {
                    link: wire(l),
                    occupancy,
                })
            } else if !full && link.paused {
                Some(EventKind::CreditResume {
                    link: wire(l),
                    occupancy,
                })
            } else {
                None
            };
            if let Some(kind) = kind {
                link.paused = full;
                self.events.push(Event { cycle: t, kind });
            }
        }
        self.offer_egress_head(l, now);
    }

    /// Offers link `l`'s egress head to the downstream switch. A
    /// temporarily unroutable next hop holds the head (a transient
    /// topology gap, not congestion); a refusal — the downstream input
    /// buffer is full — is a loss for [`Fabric::shed`] to rule on.
    fn offer_egress_head(&mut self, l: usize, now: Cycle) {
        let spec = self.links[l].spec;
        let Some(&pkt) = self.links[l].egress.front() else {
            return;
        };
        let Some(&f) = self.flow_of.get(&pkt.id().raw()) else {
            let _ = self.links[l].egress.pop_front();
            return;
        };
        let flow = self.flows[f].spec;
        let Some(out_port) = next_port(&self.topology, &self.routes, spec.dst, &flow) else {
            return; // hold until a route (re)appears
        };
        let hop = PacketSpec::new(
            pkt.id(),
            FlowId::new(InputId::new(spec.dst_port), OutputId::new(out_port)),
            self.effective_class(spec.dst, pkt.class(), spec.dst_port, out_port),
            pkt.len_flits(),
            pkt.created(),
        );
        let _ = self.links[l].egress.pop_front();
        if !self.offer(spec.dst, hop, pkt.class(), now) {
            if let Some(held) = self.shed(l, pkt, DropReason::QueueFull, now) {
                self.links[l].egress.push_front(held);
            }
        }
    }
}
