//! The end-to-end oracle: per-hop and whole-path verdicts.
//!
//! Extends the single-switch two-outcome oracle
//! ([`ssq_faults::judge`]) to a fabric run. Each node's flight-recorder
//! ring is judged on its own (per-hop verdicts), and the whole path is
//! judged once more with the fabric-level hop events folded in: a loud
//! fabric event — a fault-attributable `drop` or a `reroute` — counts
//! as a degradation exactly like a node's `degraded` transition, so a
//! run that loses packets to a dead wire is [`Verdict::Revoked`], not
//! silent. `queue_full` drops (congestion on a lossy link),
//! retransmissions, and credit pauses are the fabric doing its job and
//! stay quiet.
//!
//! A tripped run with no loud record anywhere is a
//! [`Verdict::SilentViolation`]; [`PathVerdict::first_violation`]
//! pins the earliest loud (or, for a silent trip, the tripping) site
//! and cycle, so a campaign report can name the hop that spoke first.

use ssq_faults::{judge, Verdict};
use ssq_sim::MonitorOutcome;
use ssq_trace::{EventKind, RingSink};
use ssq_types::Cycle;

use crate::fabric::NO_LINK;

/// The end-to-end oracle's ruling on one fabric run.
#[derive(Debug, Clone, PartialEq)]
pub struct PathVerdict {
    /// The whole-path ruling (node events + loud fabric events).
    pub overall: Verdict,
    /// One single-switch verdict per node, from its own ring only.
    pub per_node: Vec<Verdict>,
    /// The earliest loud site and cycle — `("node2", 1510)`,
    /// `("link1", 1502)`, or `("path", at)` for a silent trip.
    pub first_violation: Option<(String, u64)>,
}

impl PathVerdict {
    /// Whether the run satisfied the two-outcome contract end to end.
    #[must_use]
    pub fn is_acceptable(&self) -> bool {
        self.overall.is_acceptable()
    }
}

/// Loud fabric-event accounting: `(degradations, first_loud)` where a
/// loud event is a fault-attributable drop or a reroute.
fn fabric_loudness(events: &RingSink) -> (usize, Option<(String, u64)>) {
    let mut degradations = 0;
    let mut first: Option<(String, u64)> = None;
    for e in events.iter() {
        let site = match &e.kind {
            EventKind::Drop { link, reason, .. } if reason.is_loud() => {
                if *link == NO_LINK {
                    "path".to_string()
                } else {
                    format!("link{link}")
                }
            }
            EventKind::Reroute { node, .. } => format!("node{node}"),
            _ => continue,
        };
        degradations += 1;
        if first.is_none() {
            first = Some((site, e.cycle));
        }
    }
    (degradations, first)
}

/// Judges a fabric run: per-hop verdicts from each node's own trace,
/// and a whole-path verdict that also hears the fabric's hop events.
///
/// `node_rings[i]` is node `i`'s flight-recorder ring and `hop_log` the
/// fabric's hop events, both read in place
/// ([`crate::Fabric::node_events`] and [`crate::Fabric::events`]): each
/// ring is decoded once, one event at a time, and nothing is copied.
/// The verdict hears only what the rings still hold. A node ring that
/// has wrapped has evicted its oldest events, and a loud event among
/// those goes unheard; the hop log never evicts.
#[must_use]
pub fn judge_path(
    outcome: &MonitorOutcome,
    node_rings: &[&RingSink],
    hop_log: &RingSink,
) -> PathVerdict {
    // Per-hop verdicts judge each ring in isolation against a
    // completed outcome: a hop is "loud" or "quiet" on its own record;
    // trip attribution belongs to the whole path. The same pass notes
    // each ring's first loud event.
    let completed = MonitorOutcome::Completed(Cycle::ZERO);
    let mut node_first: Option<(String, u64)> = None;
    let mut per_node = Vec::with_capacity(node_rings.len());
    for (i, ring) in node_rings.iter().enumerate() {
        let mut first = None;
        let events = ring.iter().inspect(|e| {
            if first.is_none() && e.kind.is_loud() {
                first = Some(e.cycle);
            }
        });
        per_node.push(judge(&completed, events));
        if let Some(at) = first.filter(|&at| node_first.as_ref().is_none_or(|n| at < n.1)) {
            node_first = Some((format!("node{i}"), at));
        }
    }

    let mut revocations = 0;
    let mut degradations = 0;
    let mut detections = 0;
    for v in &per_node {
        if let Verdict::Revoked {
            revocations: r,
            degradations: d,
            detections: t,
        } = v
        {
            revocations += r;
            degradations += d;
            detections += t;
        }
    }
    let (fabric_degradations, fabric_first) = fabric_loudness(hop_log);
    degradations += fabric_degradations;

    // Earliest loud site across nodes and fabric.
    let first_loud = match (node_first, fabric_first) {
        (Some(n), Some(f)) => Some(if n.1 <= f.1 { n } else { f }),
        (a, b) => a.or(b),
    };

    let loud = revocations > 0 || degradations > 0;
    let (overall, first_violation) = match outcome {
        MonitorOutcome::Tripped { at, reason } if !loud => (
            Verdict::SilentViolation {
                reason: reason.clone(),
            },
            Some(("path".to_string(), at.value())),
        ),
        _ if loud => (
            Verdict::Revoked {
                revocations,
                degradations,
                detections,
            },
            first_loud,
        ),
        _ => (Verdict::BoundsPreserved, None),
    };
    PathVerdict {
        overall,
        per_node,
        first_violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssq_trace::{DegradeMode, DropReason, Event, TraceSink};
    use ssq_types::invariant::Invariant;
    use ssq_types::TrafficClass;

    fn ev(cycle: u64, kind: EventKind) -> Event {
        Event { cycle, kind }
    }

    /// An unbounded ring holding `events`, as a fabric's hop log does.
    fn ring(events: &[Event]) -> RingSink {
        let mut ring = RingSink::new(usize::MAX);
        for e in events {
            ring.record(e);
        }
        ring
    }

    fn quiet() -> RingSink {
        ring(&[])
    }

    fn loud_drop(cycle: u64, link: u32) -> Event {
        ev(
            cycle,
            EventKind::Drop {
                link,
                input: 0,
                output: 3,
                class: TrafficClass::GuaranteedBandwidth,
                packet: 1,
                reason: DropReason::LinkDown,
            },
        )
    }

    fn completed() -> MonitorOutcome {
        MonitorOutcome::Completed(Cycle::new(100))
    }

    fn tripped(at: u64) -> MonitorOutcome {
        MonitorOutcome::Tripped {
            at: Cycle::new(at),
            reason: "stall".to_string(),
        }
    }

    #[test]
    fn quiet_run_preserves_bounds_on_every_hop() {
        let (a, b, c) = (quiet(), quiet(), quiet());
        let v = judge_path(&completed(), &[&a, &b, &c], &quiet());
        assert_eq!(v.overall, Verdict::BoundsPreserved);
        assert!(v.per_node.iter().all(|n| *n == Verdict::BoundsPreserved));
        assert_eq!(v.first_violation, None);
        assert!(v.is_acceptable());
    }

    #[test]
    fn loud_fabric_drop_makes_the_path_revoked_with_its_hop() {
        let (a, b) = (quiet(), quiet());
        let v = judge_path(&completed(), &[&a, &b], &ring(&[loud_drop(1_502, 1)]));
        assert!(matches!(
            v.overall,
            Verdict::Revoked {
                degradations: 1,
                ..
            }
        ));
        // The hop itself was quiet — only the path verdict hears links.
        assert_eq!(v.per_node[0], Verdict::BoundsPreserved);
        assert_eq!(v.first_violation, Some(("link1".to_string(), 1_502)));
    }

    #[test]
    fn queue_full_and_retransmits_stay_quiet() {
        let fabric = ring(&[
            ev(
                10,
                EventKind::Drop {
                    link: 0,
                    input: 0,
                    output: 1,
                    class: TrafficClass::BestEffort,
                    packet: 7,
                    reason: DropReason::QueueFull,
                },
            ),
            ev(
                11,
                EventKind::NackRetransmit {
                    link: 0,
                    packet: 8,
                    attempt: 1,
                    delay: 4,
                },
            ),
            ev(
                12,
                EventKind::CreditPause {
                    link: 0,
                    occupancy: 8,
                },
            ),
        ]);
        let v = judge_path(&completed(), &[&quiet()], &fabric);
        assert_eq!(v.overall, Verdict::BoundsPreserved);
    }

    #[test]
    fn tripped_with_no_loud_record_is_a_silent_violation() {
        let (a, b) = (quiet(), quiet());
        let v = judge_path(&tripped(2_000), &[&a, &b], &quiet());
        assert!(matches!(v.overall, Verdict::SilentViolation { .. }));
        assert_eq!(v.first_violation, Some(("path".to_string(), 2_000)));
        assert!(!v.is_acceptable());
    }

    #[test]
    fn tripped_with_a_revocation_on_record_is_loud() {
        let node0 = ring(&[ev(
            1_500,
            EventKind::GuaranteeRevoked {
                output: 0,
                input: 4,
                class: TrafficClass::GuaranteedBandwidth,
                bound: 0,
                forfeited: true,
            },
        )]);
        let v = judge_path(&tripped(3_000), &[&node0, &quiet()], &quiet());
        assert!(matches!(v.overall, Verdict::Revoked { revocations: 1, .. }));
        assert_eq!(
            v.per_node[0],
            Verdict::Revoked {
                revocations: 1,
                degradations: 0,
                detections: 0
            }
        );
        assert_eq!(v.first_violation, Some(("node0".to_string(), 1_500)));
    }

    #[test]
    fn earliest_loud_site_wins_between_node_and_fabric() {
        // A retry degradation rides its pairing detection (the judge's
        // composition rule flags an unpaired one as double-counting).
        let node1 = ring(&[
            ev(
                1_490,
                EventKind::Detected {
                    output: 0,
                    code: Invariant::Thermometer,
                    detail: 1,
                },
            ),
            ev(
                1_490,
                EventKind::Degraded {
                    output: 0,
                    mode: DegradeMode::Retry,
                },
            ),
        ]);
        let v = judge_path(
            &completed(),
            &[&quiet(), &node1],
            &ring(&[loud_drop(1_502, 0)]),
        );
        assert_eq!(v.first_violation, Some(("node1".to_string(), 1_490)));
        assert!(matches!(
            v.overall,
            Verdict::Revoked {
                degradations: 2,
                ..
            }
        ));
    }

    #[test]
    fn reroutes_are_loud_degradations() {
        let fabric = ring(&[ev(
            900,
            EventKind::Reroute {
                node: 0,
                dest: 3,
                via: 2,
            },
        )]);
        let v = judge_path(&completed(), &[&quiet()], &fabric);
        assert!(matches!(
            v.overall,
            Verdict::Revoked {
                degradations: 1,
                ..
            }
        ));
        assert_eq!(v.first_violation, Some(("node0".to_string(), 900)));
    }

    /// A node ring that has wrapped is judged on exactly what it still
    /// holds: a revocation evicted from it goes unheard, and the first
    /// loud site is the earliest retained one.
    #[test]
    fn a_wrapped_ring_is_judged_on_its_retained_events() {
        let revoked = |cycle| {
            ev(
                cycle,
                EventKind::GuaranteeRevoked {
                    output: 0,
                    input: 4,
                    class: TrafficClass::GuaranteedBandwidth,
                    bound: 0,
                    forfeited: true,
                },
            )
        };
        let decay = |cycle| {
            ev(
                cycle,
                EventKind::Decay {
                    output: 0,
                    epoch: cycle,
                },
            )
        };
        let mut node0 = RingSink::new(300);
        let stream: Vec<Event> = std::iter::once(revoked(10))
            .chain((11..600).map(decay))
            .chain([revoked(700), revoked(701)])
            .collect();
        for e in &stream {
            node0.record(e);
        }
        assert!(
            node0.total_recorded() > node0.len() as u64,
            "the ring wrapped"
        );
        let retained = &stream[stream.len() - node0.len()..];
        let v = judge_path(&completed(), &[&node0], &quiet());
        assert_eq!(v.per_node[0], ssq_faults::judge(&completed(), retained));
        assert_eq!(
            v.overall,
            Verdict::Revoked {
                revocations: 2,
                degradations: 0,
                detections: 0
            }
        );
        assert_eq!(v.first_violation, Some(("node0".to_string(), 700)));
    }
}
