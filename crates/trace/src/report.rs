//! Post-hoc summarization of a JSONL trace: the engine behind the
//! `ssq trace-report` subcommand.
//!
//! Answers the questions end-of-run stats tables cannot: per-flow
//! grant-latency percentiles, who was inhibited how often, how many
//! decay epochs each output's real-time clock completed, and what was
//! rejected at admission.

use std::collections::BTreeMap;

use ssq_stats::Table;
use ssq_types::TrafficClass;

use crate::event::{DropReason, Event, EventKind};

/// Accumulated per-flow grant statistics.
#[derive(Debug, Clone, Default)]
pub struct FlowGrants {
    /// Grant waiting times (cycles from injection to channel grant),
    /// sorted on demand.
    waits: Vec<u64>,
    /// Packets that chained onto a held channel without re-arbitration.
    pub chained: u64,
    /// [`TraceSummary::events`] as of this flow's latest grant; 0 before
    /// its first.
    last_grant: u64,
}

impl FlowGrants {
    /// Number of grants observed.
    #[must_use]
    pub fn grants(&self) -> u64 {
        self.waits.len() as u64
    }

    /// Exact percentile of the observed waits (`p` in `[0, 1]`).
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<u64> {
        rank(&self.sorted_waits(), p)
    }

    /// The observed waits, ascending.
    fn sorted_waits(&self) -> Vec<u64> {
        let mut sorted = self.waits.clone();
        sorted.sort_unstable();
        sorted
    }

    /// Largest observed wait.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        self.waits.iter().copied().max()
    }
}

/// The wait at rank `p` (in `[0, 1]`) of `sorted`: the nearest rank to
/// `p` of the way from the first to the last.
fn rank(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&p) {
        return None;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted.get(idx.min(sorted.len() - 1)).copied()
}

/// Everything `trace-report` prints, aggregated in one pass.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Total events consumed.
    pub events: u64,
    /// Grant statistics keyed by `(input, output, class)`.
    pub flows: BTreeMap<(u32, u32, TrafficClass), FlowGrants>,
    /// Inhibit counts keyed by `(input, output)`.
    pub inhibits: BTreeMap<(u32, u32), u64>,
    /// Highest decay epoch seen per output.
    pub decay_epochs: BTreeMap<u32, u64>,
    /// `auxVC` saturation events per `(input, output)`.
    pub saturations: BTreeMap<(u32, u32), u64>,
    /// Cycles with a policed GL backlog, per output.
    pub gl_policed_cycles: BTreeMap<u32, u64>,
    /// Admission rejections keyed by `(input, output, reason label)`.
    pub rejects: BTreeMap<(u32, u32, &'static str), u64>,
    /// Fault injections (`false`) and heals (`true`) keyed by site label.
    pub faults: BTreeMap<(&'static str, bool), u64>,
    /// Runtime detections keyed by invariant code.
    pub detections: BTreeMap<&'static str, u64>,
    /// Degradation transitions keyed by `(output, mode label)`.
    pub degradations: BTreeMap<(u32, &'static str), u64>,
    /// `GuaranteeRevoked` events keyed by `(input, output)`.
    pub revocations: BTreeMap<(u32, u32), u64>,
    /// Re-admission decisions keyed by action label.
    pub readmissions: BTreeMap<&'static str, u64>,
    /// Hop enqueues per fabric link (multi-hop runs only).
    pub hop_enqueues: BTreeMap<u32, u64>,
    /// Credit/PFC pause events per fabric link.
    pub credit_pauses: BTreeMap<u32, u64>,
    /// Per-flow hop losses keyed by `(input, output, reason)`.
    pub hop_drops: BTreeMap<(u32, u32, DropReason), u64>,
    /// NACK retransmissions per fabric link.
    pub retransmits: BTreeMap<u32, u64>,
    /// Reroute decisions keyed by `(node, dest)`.
    pub reroutes: BTreeMap<(u32, u32), u64>,
    /// First and last event cycles.
    pub span: Option<(u64, u64)>,
}

impl TraceSummary {
    /// Consumes a stream of events.
    pub fn ingest(&mut self, event: &Event) {
        self.events += 1;
        self.span = Some(match self.span {
            None => (event.cycle, event.cycle),
            Some((lo, hi)) => (lo.min(event.cycle), hi.max(event.cycle)),
        });
        match &event.kind {
            EventKind::Grant {
                output,
                input,
                class,
                waited,
                ..
            } => {
                let flow = self.flows.entry((*input, *output, *class)).or_default();
                flow.waits.push(*waited);
                flow.last_grant = self.events;
            }
            EventKind::Chained { output, input, .. } => {
                // Class is not on the chained event: charge the class of
                // the latest grant on the pair, whose packet holds the
                // channel; BE when the trace shows no grant before it.
                let class = TrafficClass::ALL
                    .into_iter()
                    .filter_map(|c| {
                        let g = self.flows.get(&(*input, *output, c))?;
                        (g.last_grant > 0).then_some((g.last_grant, c))
                    })
                    .max()
                    .map_or(TrafficClass::BestEffort, |(_, c)| c);
                self.flows
                    .entry((*input, *output, class))
                    .or_default()
                    .chained += 1;
            }
            EventKind::Inhibit { output, input, .. } => {
                *self.inhibits.entry((*input, *output)).or_default() += 1;
            }
            EventKind::AuxVc {
                output,
                input,
                saturated,
                ..
            } => {
                if *saturated {
                    *self.saturations.entry((*input, *output)).or_default() += 1;
                }
            }
            EventKind::Decay { output, epoch } => {
                let e = self.decay_epochs.entry(*output).or_default();
                *e = (*e).max(*epoch);
            }
            EventKind::GlPoliced { output, .. } => {
                *self.gl_policed_cycles.entry(*output).or_default() += 1;
            }
            EventKind::Reject {
                input,
                output,
                reason,
                ..
            } => {
                *self
                    .rejects
                    .entry((*input, *output, reason.label()))
                    .or_default() += 1;
            }
            EventKind::Fault { site, healed, .. } => {
                *self.faults.entry((site.label(), *healed)).or_default() += 1;
            }
            EventKind::Detected { code, .. } => {
                *self.detections.entry(code.code()).or_default() += 1;
            }
            EventKind::Degraded { output, mode } => {
                *self
                    .degradations
                    .entry((*output, mode.label()))
                    .or_default() += 1;
            }
            EventKind::GuaranteeRevoked { output, input, .. } => {
                *self.revocations.entry((*input, *output)).or_default() += 1;
            }
            EventKind::Readmitted { action, .. } => {
                *self.readmissions.entry(action.label()).or_default() += 1;
            }
            EventKind::HopEnqueue { link, .. } => {
                *self.hop_enqueues.entry(*link).or_default() += 1;
            }
            EventKind::CreditPause { link, .. } => {
                *self.credit_pauses.entry(*link).or_default() += 1;
            }
            EventKind::Drop {
                input,
                output,
                reason,
                ..
            } => {
                *self
                    .hop_drops
                    .entry((*input, *output, *reason))
                    .or_default() += 1;
            }
            EventKind::NackRetransmit { link, .. } => {
                *self.retransmits.entry(*link).or_default() += 1;
            }
            EventKind::Reroute { node, dest, .. } => {
                *self.reroutes.entry((*node, *dest)).or_default() += 1;
            }
            EventKind::Decision { .. } | EventKind::CreditResume { .. } => {}
        }
    }

    /// Builds a summary from an iterator of events.
    pub fn from_events<I: IntoIterator<Item = Event>>(events: I) -> Self {
        let mut s = TraceSummary::default();
        for ev in events {
            s.ingest(&ev);
        }
        s
    }

    /// Per-flow grant-latency percentile table (the headline of
    /// `trace-report`).
    #[must_use]
    pub fn grant_table(&self) -> Table {
        let mut t = Table::with_columns(&[
            "flow", "class", "grants", "chained", "p50", "p90", "p99", "max",
        ]);
        t.numeric();
        let cell = |v: Option<u64>| v.map_or_else(|| String::from("-"), |v| v.to_string());
        for ((input, output, class), g) in &self.flows {
            let sorted = g.sorted_waits();
            let pct = |p: f64| cell(rank(&sorted, p));
            t.row(vec![
                format!("in{input}->out{output}"),
                class.label().to_string(),
                g.grants().to_string(),
                g.chained.to_string(),
                pct(0.50),
                pct(0.90),
                pct(0.99),
                cell(sorted.last().copied()),
            ]);
        }
        t
    }

    /// Inhibit / saturation counts per (input, output) pair.
    #[must_use]
    pub fn contention_table(&self) -> Table {
        let mut t = Table::with_columns(&["pair", "inhibits", "auxvc_saturations"]);
        t.numeric();
        let mut pairs: Vec<(u32, u32)> = self
            .inhibits
            .keys()
            .chain(self.saturations.keys())
            .copied()
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        for (input, output) in pairs {
            t.row(vec![
                format!("in{input}->out{output}"),
                self.inhibits
                    .get(&(input, output))
                    .copied()
                    .unwrap_or(0)
                    .to_string(),
                self.saturations
                    .get(&(input, output))
                    .copied()
                    .unwrap_or(0)
                    .to_string(),
            ]);
        }
        t
    }

    /// Decay epochs and GL policing per output.
    #[must_use]
    pub fn output_table(&self) -> Table {
        let mut t = Table::with_columns(&["output", "decay_epochs", "gl_policed_cycles"]);
        t.numeric();
        let mut outputs: Vec<u32> = self
            .decay_epochs
            .keys()
            .chain(self.gl_policed_cycles.keys())
            .copied()
            .collect();
        outputs.sort_unstable();
        outputs.dedup();
        for o in outputs {
            t.row(vec![
                format!("out{o}"),
                self.decay_epochs.get(&o).copied().unwrap_or(0).to_string(),
                self.gl_policed_cycles
                    .get(&o)
                    .copied()
                    .unwrap_or(0)
                    .to_string(),
            ]);
        }
        t
    }

    /// Fault-campaign activity: injections/heals, detections,
    /// degradations, revocations, and re-admission decisions, flattened
    /// into one `what / detail / count` table. Empty when the run had no
    /// fault events, so healthy-run reports are unchanged.
    #[must_use]
    pub fn fault_table(&self) -> Table {
        let mut t = Table::with_columns(&["what", "detail", "count"]);
        t.numeric();
        for ((site, healed), n) in &self.faults {
            let what = if *healed { "heal" } else { "inject" };
            t.row(vec![what.to_string(), site.to_string(), n.to_string()]);
        }
        for (code, n) in &self.detections {
            t.row(vec![
                "detected".to_string(),
                code.to_string(),
                n.to_string(),
            ]);
        }
        for ((output, mode), n) in &self.degradations {
            t.row(vec![
                "degraded".to_string(),
                format!("out{output} {mode}"),
                n.to_string(),
            ]);
        }
        for ((input, output), n) in &self.revocations {
            t.row(vec![
                "revoked".to_string(),
                format!("in{input}->out{output}"),
                n.to_string(),
            ]);
        }
        for (action, n) in &self.readmissions {
            t.row(vec![
                "readmit".to_string(),
                action.to_string(),
                n.to_string(),
            ]);
        }
        t
    }

    /// Whether the trace contained any fault-family events at all.
    #[must_use]
    pub fn has_fault_activity(&self) -> bool {
        !(self.faults.is_empty()
            && self.detections.is_empty()
            && self.degradations.is_empty()
            && self.revocations.is_empty()
            && self.readmissions.is_empty())
    }

    /// Multi-hop fabric activity: hop enqueues, credit pauses, per-flow
    /// hop losses, NACK retransmissions, and reroutes, flattened into
    /// one `what / detail / count` table. Empty for single-switch runs,
    /// so their reports are unchanged.
    #[must_use]
    pub fn fabric_table(&self) -> Table {
        let mut t = Table::with_columns(&["what", "detail", "count"]);
        t.numeric();
        for (link, n) in &self.hop_enqueues {
            t.row(vec![
                "hop_enqueue".to_string(),
                format!("link{link}"),
                n.to_string(),
            ]);
        }
        for (link, n) in &self.credit_pauses {
            t.row(vec![
                "credit_pause".to_string(),
                format!("link{link}"),
                n.to_string(),
            ]);
        }
        for ((input, output, reason), n) in &self.hop_drops {
            t.row(vec![
                "drop".to_string(),
                format!("in{input}->out{output} {}", reason.label()),
                n.to_string(),
            ]);
        }
        for (link, n) in &self.retransmits {
            t.row(vec![
                "nack_retransmit".to_string(),
                format!("link{link}"),
                n.to_string(),
            ]);
        }
        for ((node, dest), n) in &self.reroutes {
            t.row(vec![
                "reroute".to_string(),
                format!("node{node}->dest{dest}"),
                n.to_string(),
            ]);
        }
        t
    }

    /// Whether the trace contained any hop-level fabric events at all.
    #[must_use]
    pub fn has_fabric_activity(&self) -> bool {
        !(self.hop_enqueues.is_empty()
            && self.credit_pauses.is_empty()
            && self.hop_drops.is_empty()
            && self.retransmits.is_empty()
            && self.reroutes.is_empty())
    }

    /// Admission rejections.
    #[must_use]
    pub fn reject_table(&self) -> Table {
        let mut t = Table::with_columns(&["pair", "reason", "count"]);
        t.numeric();
        for ((input, output, reason), n) in &self.rejects {
            t.row(vec![
                format!("in{input}->out{output}"),
                (*reason).to_string(),
                n.to_string(),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DegradeMode, FaultSite, ReadmitAction, RejectReason};
    use ssq_types::invariant::Invariant;

    fn grant(cycle: u64, input: u32, waited: u64) -> Event {
        Event {
            cycle,
            kind: EventKind::Grant {
                output: 0,
                input,
                class: TrafficClass::GuaranteedBandwidth,
                len_flits: 8,
                waited,
            },
        }
    }

    #[test]
    fn percentiles_per_flow() {
        let events: Vec<Event> = (0..100).map(|i| grant(i, 0, i)).collect();
        let s = TraceSummary::from_events(events);
        let g = &s.flows[&(0, 0, TrafficClass::GuaranteedBandwidth)];
        assert_eq!(g.grants(), 100);
        assert_eq!(g.percentile(0.5), Some(50));
        assert_eq!(g.percentile(0.99), Some(98));
        assert_eq!(g.max(), Some(99));
        assert_eq!(s.span, Some((0, 99)));
    }

    #[test]
    fn tables_cover_all_sections() {
        let mut events = vec![
            grant(1, 0, 2),
            Event {
                cycle: 2,
                kind: EventKind::Inhibit {
                    output: 0,
                    input: 1,
                    msb: 5,
                    winner_msb: 2,
                },
            },
            Event {
                cycle: 3,
                kind: EventKind::Decay {
                    output: 0,
                    epoch: 4,
                },
            },
            Event {
                cycle: 4,
                kind: EventKind::AuxVc {
                    output: 0,
                    input: 0,
                    aux: 4095,
                    saturated: true,
                },
            },
            Event {
                cycle: 5,
                kind: EventKind::GlPoliced {
                    output: 0,
                    backlog: 1,
                },
            },
            Event {
                cycle: 6,
                kind: EventKind::Reject {
                    input: 2,
                    output: 0,
                    class: TrafficClass::BestEffort,
                    reason: RejectReason::StagingOverflow,
                },
            },
        ];
        events.push(Event {
            cycle: 7,
            kind: EventKind::Chained {
                output: 0,
                input: 0,
                len_flits: 8,
            },
        });
        let s = TraceSummary::from_events(events);
        assert!(s.grant_table().to_text().contains("in0->out0"));
        assert!(s.contention_table().to_text().contains("in1->out0"));
        assert!(s.output_table().to_text().contains("out0"));
        assert!(s.reject_table().to_text().contains("staging_overflow"));
        assert_eq!(
            s.flows[&(0, 0, TrafficClass::GuaranteedBandwidth)].chained,
            1
        );
        assert_eq!(s.decay_epochs[&0], 4);
        assert!(!s.has_fault_activity());
    }

    /// A `chained` event extends the channel its pair's latest grant
    /// took, so it counts on that grant's class; before any grant of
    /// the pair (a dump that starts mid-chain) it lands on BE, and that
    /// BE row takes nothing once a grant has been seen.
    #[test]
    fn chained_counts_on_the_class_holding_the_channel() {
        let lines = [
            r#"{"cycle":1,"kind":"chained","output":2,"input":3,"len_flits":8}"#,
            r#"{"cycle":2,"kind":"grant","output":2,"input":3,"class":"GL","len_flits":8,"waited":4}"#,
            r#"{"cycle":3,"kind":"grant","output":2,"input":3,"class":"GB","len_flits":8,"waited":4}"#,
            r#"{"cycle":4,"kind":"chained","output":2,"input":3,"len_flits":8}"#,
            r#"{"cycle":5,"kind":"grant","output":2,"input":3,"class":"GL","len_flits":1,"waited":0}"#,
            r#"{"cycle":6,"kind":"chained","output":2,"input":3,"len_flits":1}"#,
            r#"{"cycle":7,"kind":"chained","output":2,"input":3,"len_flits":1}"#,
        ];
        let s = TraceSummary::from_events(
            lines
                .iter()
                .map(|l| Event::from_jsonl(l).expect("valid line")),
        );
        let chained = |class| s.flows[&(3, 2, class)].chained;
        assert_eq!(chained(TrafficClass::BestEffort), 1);
        assert_eq!(chained(TrafficClass::GuaranteedBandwidth), 1);
        assert_eq!(chained(TrafficClass::GuaranteedLatency), 2);
        assert_eq!(
            s.grant_table().to_csv(),
            "flow,class,grants,chained,p50,p90,p99,max\n\
             in3->out2,BE,0,1,-,-,-,-\n\
             in3->out2,GB,1,1,4,4,4,4\n\
             in3->out2,GL,2,2,4,4,4,4\n"
        );
    }

    #[test]
    fn fault_family_is_aggregated() {
        let events = vec![
            Event {
                cycle: 1,
                kind: EventKind::Fault {
                    site: FaultSite::BitlineStuck,
                    output: 0,
                    input: 2,
                    healed: false,
                },
            },
            Event {
                cycle: 2,
                kind: EventKind::Detected {
                    output: 0,
                    code: Invariant::SingleGrant,
                    detail: 3,
                },
            },
            Event {
                cycle: 3,
                kind: EventKind::Degraded {
                    output: 0,
                    mode: DegradeMode::LrgFallback,
                },
            },
            Event {
                cycle: 4,
                kind: EventKind::GuaranteeRevoked {
                    output: 0,
                    input: 1,
                    class: TrafficClass::GuaranteedLatency,
                    bound: 96,
                    forfeited: false,
                },
            },
            Event {
                cycle: 5,
                kind: EventKind::Readmitted {
                    output: 0,
                    input: 1,
                    class: TrafficClass::GuaranteedLatency,
                    action: ReadmitAction::Demote,
                },
            },
            Event {
                cycle: 6,
                kind: EventKind::Fault {
                    site: FaultSite::BitlineStuck,
                    output: 0,
                    input: 2,
                    healed: true,
                },
            },
        ];
        let s = TraceSummary::from_events(events);
        assert!(s.has_fault_activity());
        assert_eq!(s.faults[&("bitline_stuck", false)], 1);
        assert_eq!(s.faults[&("bitline_stuck", true)], 1);
        assert_eq!(s.detections["SSQV001"], 1);
        assert_eq!(s.degradations[&(0, "lrg_fallback")], 1);
        assert_eq!(s.revocations[&(1, 0)], 1);
        assert_eq!(s.readmissions["demote"], 1);
        let text = s.fault_table().to_text();
        assert!(text.contains("inject"), "{text}");
        assert!(text.contains("heal"), "{text}");
        assert!(text.contains("revoked"), "{text}");
    }

    #[test]
    fn fabric_family_is_aggregated() {
        let events = vec![
            Event {
                cycle: 1,
                kind: EventKind::HopEnqueue {
                    node: 1,
                    link: 0,
                    packet: 9,
                    len_flits: 8,
                },
            },
            Event {
                cycle: 2,
                kind: EventKind::CreditPause {
                    link: 0,
                    occupancy: 32,
                },
            },
            Event {
                cycle: 3,
                kind: EventKind::CreditResume {
                    link: 0,
                    occupancy: 16,
                },
            },
            Event {
                cycle: 4,
                kind: EventKind::Drop {
                    link: 1,
                    input: 2,
                    output: 0,
                    class: TrafficClass::GuaranteedBandwidth,
                    packet: 10,
                    reason: DropReason::QueueFull,
                },
            },
            Event {
                cycle: 5,
                kind: EventKind::NackRetransmit {
                    link: 1,
                    packet: 10,
                    attempt: 1,
                    delay: 4,
                },
            },
            Event {
                cycle: 6,
                kind: EventKind::Reroute {
                    node: 1,
                    dest: 3,
                    via: 2,
                },
            },
        ];
        let s = TraceSummary::from_events(events);
        assert!(s.has_fabric_activity());
        assert!(!s.has_fault_activity());
        assert_eq!(s.hop_enqueues[&0], 1);
        assert_eq!(s.credit_pauses[&0], 1);
        assert_eq!(s.hop_drops[&(2, 0, DropReason::QueueFull)], 1);
        assert_eq!(s.retransmits[&1], 1);
        assert_eq!(s.reroutes[&(1, 3)], 1);
        let text = s.fabric_table().to_text();
        assert!(text.contains("credit_pause"), "{text}");
        assert!(text.contains("queue_full"), "{text}");
        assert!(text.contains("node1->dest3"), "{text}");
    }
}
