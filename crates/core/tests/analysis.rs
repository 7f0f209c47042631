//! Cross-checks between the static analyzer (`ssq-check`) and the
//! runtime it makes predictions about:
//!
//! - a feasible reservation table passes `SwitchConfig::analyze`, an
//!   over-subscribed one is rejected;
//! - `Runner::run_checked` refuses to simulate a real [`QosSwitch`]
//!   whose configuration carries an error-severity finding.

use ssq_check::codes;
use ssq_core::{QosSwitch, SwitchConfig};
use ssq_sim::{Runner, Schedule};
use ssq_types::{Cycles, Geometry, InputId, OutputId, Rate};

fn rate(v: f64) -> Rate {
    Rate::new(v).expect("valid rate")
}

fn paper_config() -> SwitchConfig {
    SwitchConfig::builder(Geometry::new(8, 128).expect("valid geometry"))
        .build()
        .expect("valid config")
}

#[test]
fn feasible_table_passes_oversubscribed_table_fails() {
    let mut config = paper_config();
    config
        .reservations_mut()
        .reserve_gb(InputId::new(0), OutputId::new(0), rate(0.4), 8)
        .expect("fits");
    config
        .reservations_mut()
        .reserve_gb(InputId::new(1), OutputId::new(0), rate(0.4), 8)
        .expect("fits");
    assert!(!config.analyze().has_errors());

    // Push the same output past unity through the unchecked entry point
    // (an externally-sourced table): the analyzer must reject it.
    config
        .reservations_mut()
        .reserve_gb_unchecked(InputId::new(2), OutputId::new(0), rate(0.4), 8);
    let report = config.analyze();
    assert!(report.has_errors());
    assert_eq!(report.with_code(codes::OVERSUBSCRIBED).count(), 1);
}

#[test]
fn run_checked_refuses_a_switch_with_an_unrepresentable_vtick() {
    // A 0.01% reservation is admissible (passes validate()), but its
    // Vtick overflows the 12-bit auxVC counter — an SSQ005 error the
    // runner must refuse to simulate.
    let mut config = paper_config();
    config
        .reservations_mut()
        .reserve_gb(InputId::new(0), OutputId::new(0), rate(0.0001), 8)
        .expect("tiny reservation is admissible");
    let mut switch = QosSwitch::new(config).expect("config passes validate()");

    let runner = Runner::new(Schedule::new(Cycles::new(10), Cycles::new(10)));
    let report = runner
        .run_checked(&mut switch)
        .expect_err("SSQ005 must refuse the run");
    assert!(report.has_errors());
    assert_eq!(report.with_code(codes::VTICK_UNREPRESENTABLE).count(), 1);
    assert_eq!(
        switch.counters().offered_packets,
        0,
        "not a cycle may be simulated under a refused configuration"
    );
}

#[test]
fn run_checked_runs_a_clean_switch() {
    let mut switch = QosSwitch::new(paper_config()).expect("valid switch");
    let runner = Runner::new(Schedule::new(Cycles::new(5), Cycles::new(5)));
    let (end, report) = runner
        .run_checked(&mut switch)
        .expect("clean config must run");
    assert_eq!(end.value(), 10);
    assert!(!report.has_errors());
}
