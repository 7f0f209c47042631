//! `ssq-check` — static admission, latency-bound, and counter-overflow
//! analysis for swizzle-qos configurations.
//!
//! The analyzer answers, before a single simulated cycle runs, the
//! questions the paper answers analytically:
//!
//! - **Admission** ([`admission`]): do the GB + GL reservations fit each
//!   output channel (SSQ001), and is best-effort traffic left any
//!   headroom (SSQ002)?
//! - **Guaranteed latency** ([`gl`]): are the promised latency
//!   constraints achievable under the Eq. 1 worst-case wait (SSQ003),
//!   are declared bursts within the Eq. 2/3 budgets (SSQ004), and can
//!   the GL buffer hold a packet at all (SSQ010)?
//! - **Counter overflow** ([`overflow`]): is each flow's `Vtick`
//!   representable in the `auxVC` width (SSQ005), does a win jump more
//!   than one thermometer lane (SSQ007), and does the *halve* policy
//!   destroy the resolution separating distinct reservations (SSQ006)?
//! - **Lane budget** ([`lanes`]): does the swizzle geometry route enough
//!   lanes for the thermometer code (SSQ008) and a dedicated GL lane
//!   (SSQ009)?
//! - **Tracing config** ([`trace`]): will the observability settings a
//!   run was launched with actually record anything (SSQ011)?
//! - **Fault tolerance** ([`faults`]): can the declared spare lanes and
//!   retry budget preserve the Eq. 1 bound after a single fault
//!   (SSQ012)?
//!
//! Findings come back as a [`Report`] of [`Diagnostic`]s with stable
//! `SSQ0xx` codes (see [`codes`]) and three severities; error-severity
//! findings cause the simulation runner to refuse the configuration.
//!
//! # Examples
//!
//! ```
//! use ssq_check::{admission::{analyze_admission, AdmissionInput}, codes};
//! use ssq_types::{InputId, OutputId, Rate};
//!
//! let input = AdmissionInput {
//!     gb: vec![
//!         (InputId::new(0), OutputId::new(0), Rate::new(0.7).unwrap()),
//!         (InputId::new(1), OutputId::new(0), Rate::new(0.6).unwrap()),
//!     ],
//!     gl: vec![],
//! };
//! let report = analyze_admission(&input);
//! assert!(report.has_errors());
//! assert_eq!(report.diagnostics()[0].code(), codes::OVERSUBSCRIBED);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod admission;
pub mod diag;
pub mod faults;
pub mod gl;
pub mod lanes;
pub mod overflow;
pub mod trace;

pub use diag::{codes, Diagnostic, Report, Severity};

/// A component that can be statically analyzed before running.
///
/// Implemented by `ssq_core::QosSwitch` (and usable by any cycle model);
/// the simulation runner calls [`Preflight::preflight`] and refuses to
/// start when the report [`Report::has_errors`].
pub trait Preflight {
    /// Runs every applicable static check and returns the findings.
    fn preflight(&self) -> Report;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AlwaysBroken;
    impl Preflight for AlwaysBroken {
        fn preflight(&self) -> Report {
            std::iter::once(Diagnostic::new(
                codes::OVERSUBSCRIBED,
                Severity::Error,
                "output 0",
                "synthetic",
            ))
            .collect()
        }
    }

    #[test]
    fn preflight_is_object_safe_and_collectable() {
        let model: &dyn Preflight = &AlwaysBroken;
        assert!(model.preflight().has_errors());
    }
}
