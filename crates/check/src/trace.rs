//! Tracing-configuration sanity: [`codes::TRACE_CONFIG`] (SSQ011)
//! warnings for observability settings that silently do nothing.
//!
//! None of these findings block a run — a mis-set trace flag cannot
//! violate a QoS guarantee — but every one of them means a user asked
//! for data they will not get, which is exactly the kind of surprise a
//! preflight exists to catch.

use crate::diag::{codes, Diagnostic, Report, Severity};

/// The observability settings a run was launched with, as seen by the
/// CLI (or any other harness) before the simulation starts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSettings {
    /// Event tracing requested (`--trace`).
    pub tracing: bool,
    /// Explicit JSONL output path (`--trace-out`), if any.
    pub trace_out: Option<String>,
    /// Metrics snapshot interval in cycles (`--metrics-interval`);
    /// 0 disables sampling.
    pub metrics_interval: u64,
    /// Flight recorder armed (`--flight-recorder`).
    pub flight_recorder: bool,
    /// Flight-recorder ring capacity in events.
    pub flight_capacity: usize,
    /// Total simulated cycles (warm-up + measurement).
    pub total_cycles: u64,
}

/// Checks an observability configuration for settings that cannot
/// produce the data they promise. Every finding is a
/// [`codes::TRACE_CONFIG`] warning.
pub fn analyze_trace_settings(settings: &TraceSettings) -> Report {
    let mut report = Report::new();
    let mut warn = |subject: &str, message: String| {
        report.push(Diagnostic::new(
            codes::TRACE_CONFIG,
            Severity::Warning,
            subject,
            message,
        ));
    };

    if settings.trace_out.is_some() && !settings.tracing {
        warn(
            "trace-out",
            "a trace output path is set but tracing is off; no events will be \
             written (add --trace)"
                .to_string(),
        );
    }
    if settings.metrics_interval > 0
        && settings.total_cycles > 0
        && settings.metrics_interval > settings.total_cycles
    {
        warn(
            "metrics-interval",
            format!(
                "the snapshot interval ({} cycles) exceeds the whole run ({} cycles); \
                 the time series will be empty",
                settings.metrics_interval, settings.total_cycles
            ),
        );
    }
    if settings.flight_recorder && settings.flight_capacity == 0 {
        warn(
            "flight-recorder",
            "the flight recorder is armed with a zero-event ring; a trip would \
             dump an empty history"
                .to_string(),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> TraceSettings {
        TraceSettings {
            tracing: true,
            trace_out: Some("results/trace.jsonl".to_string()),
            metrics_interval: 1_000,
            flight_recorder: true,
            flight_capacity: 4_096,
            total_cycles: 50_000,
        }
    }

    #[test]
    fn consistent_settings_are_clean() {
        assert!(analyze_trace_settings(&base()).is_empty());
    }

    #[test]
    fn trace_out_without_tracing_warns() {
        let report = analyze_trace_settings(&TraceSettings {
            tracing: false,
            ..base()
        });
        assert_eq!(report.diagnostics().len(), 1);
        let d = &report.diagnostics()[0];
        assert_eq!(d.code(), codes::TRACE_CONFIG);
        assert_eq!(d.severity(), Severity::Warning);
        assert_eq!(d.subject(), "trace-out");
    }

    #[test]
    fn interval_longer_than_the_run_warns() {
        let report = analyze_trace_settings(&TraceSettings {
            metrics_interval: 100_000,
            ..base()
        });
        assert_eq!(report.diagnostics().len(), 1);
        assert_eq!(report.diagnostics()[0].subject(), "metrics-interval");
    }

    #[test]
    fn zero_capacity_flight_recorder_warns() {
        let report = analyze_trace_settings(&TraceSettings {
            flight_capacity: 0,
            ..base()
        });
        assert_eq!(report.diagnostics().len(), 1);
        assert_eq!(report.diagnostics()[0].subject(), "flight-recorder");
    }

    #[test]
    fn disabled_observability_is_not_inconsistent() {
        // Everything off is a valid (default) configuration.
        assert!(analyze_trace_settings(&TraceSettings::default()).is_empty());
    }

    #[test]
    fn warnings_never_block_a_run() {
        let report = analyze_trace_settings(&TraceSettings {
            tracing: false,
            flight_capacity: 0,
            metrics_interval: 100_000,
            ..base()
        });
        assert_eq!(report.diagnostics().len(), 3);
        assert!(!report.has_errors());
    }
}
