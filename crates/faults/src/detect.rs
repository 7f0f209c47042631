//! The two-outcome oracle and auxiliary fault instruments.
//!
//! The success contract of a fault campaign (ISSUE 4): under every
//! single-fault scenario the switch either **preserves its bounds** or
//! emits a **structured revocation** — never a silent violation.
//! [`judge`] turns a monitored run's outcome plus its trace into that
//! three-way [`Verdict`]; the campaign driver asserts the third arm is
//! never reached.

use std::borrow::Borrow;
use std::io::{self, Write};

use ssq_sim::MonitorOutcome;
use ssq_trace::{DegradeMode, Event, EventKind};

/// The oracle's ruling on one fault scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The run completed and no guarantee was degraded or revoked: the
    /// declared tolerance absorbed the fault.
    BoundsPreserved,
    /// Guarantees were loudly renegotiated: every degradation carries a
    /// `degraded`/`guarantee_revoked`/`readmitted` trace event.
    Revoked {
        /// `guarantee_revoked` events observed.
        revocations: usize,
        /// `degraded` mode transitions observed.
        degradations: usize,
        /// `detected` classifications observed.
        detections: usize,
    },
    /// The watchdog tripped (stall or Eq. 1 violation) with **no**
    /// revocation on record — the failure mode the whole subsystem
    /// exists to rule out.
    SilentViolation {
        /// The watchdog's trip reason.
        reason: String,
    },
}

impl Verdict {
    /// Whether the scenario satisfied the two-outcome contract.
    #[must_use]
    pub fn is_acceptable(&self) -> bool {
        !matches!(self, Verdict::SilentViolation { .. })
    }
}

/// Applies the two-outcome oracle to a finished run.
///
/// A `Tripped` outcome is acceptable only when the trace already
/// recorded a revocation or degradation for it; a completed run is
/// [`Verdict::BoundsPreserved`] exactly when no guarantee machinery
/// fired. `events` is read once, in order: a slice or `Vec` of events,
/// or a ring's [`ssq_trace::RingSink::iter`] decoding as it goes.
#[must_use]
pub fn judge(outcome: &MonitorOutcome, events: impl IntoIterator<Item: Borrow<Event>>) -> Verdict {
    let mut revocations = 0;
    let mut degradations = 0;
    let mut detections = 0;
    let mut retry_degradations = 0;
    for e in events {
        let e = e.borrow();
        match &e.kind {
            EventKind::GuaranteeRevoked { .. } => revocations += 1,
            kind if kind.is_loud() => degradations += 1,
            EventKind::Detected { .. } => detections += 1,
            _ => {}
        }
        if let EventKind::Degraded {
            mode: DegradeMode::Retry,
            ..
        } = e.kind
        {
            retry_degradations += 1;
        }
    }
    // Composition check: a transient retry is consumed once per
    // detection (switch `detected_degrade` pairs them 1:1), so under
    // overlapping faults the per-fault budgets must add up, never
    // double-count. More retry transitions than detections means two
    // fault paths burned the budget for one classified event — an
    // accounting corruption the campaign must not wave through.
    if retry_degradations > detections {
        return Verdict::SilentViolation {
            reason: format!(
                "retry budget double-counted: {retry_degradations} retry \
                 degradations for {detections} detections"
            ),
        };
    }
    let loud = revocations > 0 || degradations > 0;
    match outcome {
        MonitorOutcome::Tripped { reason, .. } if !loud => Verdict::SilentViolation {
            reason: reason.clone(),
        },
        _ if loud => Verdict::Revoked {
            revocations,
            degradations,
            detections,
        },
        _ => Verdict::BoundsPreserved,
    }
}

/// A writer that fails after a byte budget — the `sink` fault model.
///
/// Attach it as a JSONL trace sink and the sink's sticky
/// [`ssq_trace::JsonlSink::io_error`] records the first failure while
/// the switch itself keeps running: a fault in *observability* must
/// never take down the *data path*.
#[derive(Debug)]
pub struct FailingWriter {
    budget: usize,
    written: usize,
}

impl FailingWriter {
    /// A writer that accepts `budget` bytes, then errors forever.
    #[must_use]
    pub fn new(budget: usize) -> Self {
        FailingWriter { budget, written: 0 }
    }

    /// Bytes accepted before the injected failure.
    #[must_use]
    pub fn written(&self) -> usize {
        self.written
    }
}

impl Write for FailingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.written + buf.len() > self.budget {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "injected sink fault: write budget exhausted",
            ));
        }
        self.written += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssq_trace::ReadmitAction;
    use ssq_types::invariant::Invariant;
    use ssq_types::{Cycle, TrafficClass};

    fn ev(kind: EventKind) -> Event {
        Event { cycle: 7, kind }
    }

    fn completed() -> MonitorOutcome {
        MonitorOutcome::Completed(Cycle::new(100))
    }

    fn tripped() -> MonitorOutcome {
        MonitorOutcome::Tripped {
            at: Cycle::new(50),
            reason: "GL wait above Eq. 1 bound".into(),
        }
    }

    #[test]
    fn clean_run_preserves_bounds() {
        assert_eq!(judge(&completed(), &[]), Verdict::BoundsPreserved);
    }

    #[test]
    fn loud_degradation_is_revoked_not_silent() {
        let events = vec![
            ev(EventKind::Detected {
                output: 0,
                code: Invariant::AuxWidth,
                detail: 9,
            }),
            ev(EventKind::Degraded {
                output: 0,
                mode: DegradeMode::LrgFallback,
            }),
            ev(EventKind::GuaranteeRevoked {
                output: 0,
                input: 1,
                class: TrafficClass::GuaranteedBandwidth,
                bound: 0,
                forfeited: true,
            }),
        ];
        assert_eq!(
            judge(&tripped(), &events),
            Verdict::Revoked {
                revocations: 1,
                degradations: 1,
                detections: 1,
            }
        );
    }

    #[test]
    fn tripped_without_revocation_is_the_forbidden_outcome() {
        let verdict = judge(&tripped(), &[]);
        assert!(!verdict.is_acceptable());
        assert!(matches!(verdict, Verdict::SilentViolation { .. }));
    }

    #[test]
    fn keep_readmissions_are_not_degradations() {
        let events = vec![ev(EventKind::Readmitted {
            output: 0,
            input: 2,
            class: TrafficClass::GuaranteedBandwidth,
            action: ReadmitAction::Keep,
        })];
        assert_eq!(judge(&completed(), &events), Verdict::BoundsPreserved);
    }

    #[test]
    fn unpaired_retry_degradations_flag_budget_double_counting() {
        // One detection, two retry consumptions: some second fault path
        // burned the shared budget without classifying its own event.
        let events = vec![
            ev(EventKind::Detected {
                output: 0,
                code: Invariant::AuxWidth,
                detail: 9,
            }),
            ev(EventKind::Degraded {
                output: 0,
                mode: DegradeMode::Retry,
            }),
            ev(EventKind::Degraded {
                output: 0,
                mode: DegradeMode::Retry,
            }),
        ];
        let verdict = judge(&completed(), &events);
        assert!(
            matches!(&verdict, Verdict::SilentViolation { reason } if reason.contains("double-counted")),
            "got {verdict:?}"
        );
        // The paired case composes cleanly.
        let paired = vec![
            ev(EventKind::Detected {
                output: 0,
                code: Invariant::AuxWidth,
                detail: 9,
            }),
            ev(EventKind::Degraded {
                output: 0,
                mode: DegradeMode::Retry,
            }),
        ];
        assert!(judge(&completed(), &paired).is_acceptable());
    }

    #[test]
    fn failing_writer_fails_past_its_budget() {
        let mut w = FailingWriter::new(8);
        assert!(w.write(b"12345678").is_ok());
        assert!(w.write(b"9").is_err());
        assert_eq!(w.written(), 8);
    }
}
