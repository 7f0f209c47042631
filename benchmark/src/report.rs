//! The metric catalogue and everything that prints it: the driver's
//! one-line result, the human table, the results document, and
//! `--compare`.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use swizzle_qos::prof::json::Json;

use crate::stats::Summary;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the simulator sees; measured with tracing off, every
/// timed repetition its own child process.
pub const END_TO_END: [MetricDef; 6] = [
    m("setup_s", "s"),
    m("seq_cycles_per_s", "1/s"),
    m("bitpar_cycles_per_s", "1/s"),
    m("peak_rss_mb", "MB"),
    m("delivered_flits", "count"),
    m("gb_adherence_min", "ratio"),
];

/// Single layers, measured from outside in the traced pass. A metric
/// that does not apply to a workload reads 0 there.
pub const PER_LAYER: [MetricDef; 48] = [
    m("core.prepare_ns_per_cycle", "ns"),
    m("core.decide_ns_per_cycle", "ns"),
    m("core.commit_ns_per_cycle", "ns"),
    m("core.step_ns_per_cycle", "ns"),
    m("core.step_fast_ns_per_cycle", "ns"),
    m("core.skip_idle_ns_per_call", "ns"),
    m("core.skip_idle_calls", "count"),
    m("core.skip_idle_taken", "count"),
    m("core.cycles_skipped", "count"),
    m("core.skip_taken_ratio", "ratio"),
    m("core.plan_cost_per_cycle", "count"),
    m("core.allocs_per_cycle", "count"),
    m("core.fast_allocs_per_cycle", "count"),
    m("core.alloc_bytes_per_cycle", "B"),
    m("core.build_s", "s"),
    m("check.preflight_s", "s"),
    m("arbiter.ssvc_peek_ns", "ns"),
    m("arbiter.lrg_peek_mask_ns", "ns"),
    m("traffic.replay_parse_s", "s"),
    m("traffic.replay_injectors_s", "s"),
    m("traffic.replay_events", "count"),
    m("trace.events_per_cycle", "count"),
    m("trace.bytes_per_event", "B"),
    m("trace.bytes", "B"),
    m("trace.jsonl_ns_per_event", "ns"),
    m("trace.write_ns_per_event", "ns"),
    m("trace.ring_ns_per_event", "ns"),
    m("trace.parse_ns_per_event", "ns"),
    m("trace.ingest_ns_per_event", "ns"),
    m("net.build_s", "s"),
    m("net.step_ns_per_cycle", "ns"),
    m("net.step_ns_per_node_cycle", "ns"),
    m("net.hop_events_per_cycle", "count"),
    m("net.allocs_per_cycle", "count"),
    m("net.source_blocked", "count"),
    m("net.dropped_packets", "count"),
    m("net.demoted_packets", "count"),
    m("net.routes_us", "us"),
    m("net.judge_s", "s"),
    m("net.smoke_s", "s"),
    m("faults.smoke_s", "s"),
    m("sim.par2_cycles_per_s", "1/s"),
    m("sim.gl_wait_over_bound_max", "ratio"),
    m("sim.delivered_flits", "count"),
    m("cli.fixed_s", "s"),
    m("cli.spawn_s", "s"),
    m("cli.trace_report_s", "s"),
    m("bench.span_overhead_ratio", "ratio"),
];

/// One pass over one workload: its metrics and its output checks.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    values: BTreeMap<&'static str, Summary>,
    /// Child runs and in-process runs whose output was checked.
    pub attempted: u64,
    /// Names of the checks that failed (also printed to stderr as they
    /// happen).
    pub failures: Vec<String>,
}

impl PassResult {
    /// Records a timed metric with its repetitions.
    pub fn set(&mut self, name: &'static str, summary: Summary) {
        self.values.insert(name, summary);
    }

    /// Records a counted metric.
    pub fn set_exact(&mut self, name: &'static str, value: f64) {
        self.set(name, Summary::exact(value));
    }

    /// Counts one checked run; `problem` names what was wrong with it.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            eprintln!("qosbench: FAILED: {problem}");
            self.failures.push(problem);
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// The metrics of `defs`, in catalogue order. An end-to-end metric
    /// that was never set is a bug; a per-layer one reads 0 (it does
    /// not apply to this workload).
    pub fn metrics(&self, defs: &[MetricDef]) -> Vec<(MetricDef, Summary)> {
        defs.iter()
            .map(|def| {
                let summary = self
                    .values
                    .get(def.name)
                    .cloned()
                    .unwrap_or_else(|| Summary::exact(0.0));
                (*def, summary)
            })
            .collect()
    }

    /// The single JSON object the driver reads from the last line of
    /// standard output.
    pub fn driver_line(&self, defs: &[MetricDef]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed()
        );
        for (i, (def, summary)) in self.metrics(defs).iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                number(summary.median),
                def.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// This pass as a fragment of the results document.
    fn to_json(&self, defs: &[MetricDef]) -> String {
        let mut out = String::from("{");
        for (i, (def, s)) in self.metrics(defs).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let samples: Vec<String> = s.samples.iter().map(|&x| number(x)).collect();
            let _ = write!(
                out,
                "\n      \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"q1\": {}, \"q3\": {}, \"n\": {}, \"samples\": [{}]}}",
                def.name,
                number(s.median),
                def.unit,
                number(s.q1),
                number(s.q3),
                s.samples.len(),
                samples.join(", ")
            );
        }
        out.push_str("\n    }");
        out
    }

    /// Human-readable rows: name, value, unit, and for timed metrics
    /// the quartiles and repetition count.
    pub fn render(&self, defs: &[MetricDef], out: &mut String) {
        for (def, s) in self.metrics(defs) {
            let _ = write!(
                out,
                "  {:<34} {:>16} {:<6}",
                def.name,
                human(s.median),
                def.unit
            );
            if s.samples.len() > 1 {
                let _ = write!(
                    out,
                    " q1 {} q3 {} n {} spread {:.1}%",
                    human(s.q1),
                    human(s.q3),
                    s.samples.len(),
                    s.spread() * 100.0
                );
            }
            out.push('\n');
        }
    }
}

/// A finite float with all its digits, as JSON.
fn number(x: f64) -> String {
    assert!(x.is_finite(), "metric value {x} is not a number");
    format!("{x}")
}

/// A float for the table: integers plain, the rest to six significant
/// digits.
fn human(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{x:.0}")
    } else if x.abs() >= 1000.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.6}")
    }
}

/// Both passes of one workload.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    pub untraced: PassResult,
    pub traced: PassResult,
}

/// The results document `run.sh` writes to `out/results-seed<N>.json`.
pub fn results_json(seed: u64, seconds: u64, workloads: &[(&str, WorkloadResult)]) -> String {
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = format!(
        "{{\n\"schema\": 1,\n\"seed\": {seed},\n\"seconds\": {seconds},\n\"available_parallelism\": {threads},\n\"workloads\": {{"
    );
    for (i, (name, w)) in workloads.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n  \"{name}\": {{\n    \"attempted\": {},\n    \"failed\": {},\n    \"end_to_end\": {},\n    \"per_layer\": {}\n  }}",
            w.untraced.attempted + w.traced.attempted,
            w.untraced.failed() + w.traced.failed(),
            w.untraced.to_json(&END_TO_END),
            w.traced.to_json(&PER_LAYER)
        );
    }
    out.push_str("\n}\n}\n");
    out
}

/// Direction and regression bound of one end-to-end metric, from
/// `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// Reads the `end_to_end` table of a `BENCHMARK.json` document.
pub fn bounds_from(doc: &Json) -> Result<Vec<Bound>, String> {
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|entry| {
            let field = |key: &str| {
                entry
                    .get(key)
                    .ok_or(format!("end_to_end entry lacks {key}"))
            };
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not text")?
                    .to_owned(),
                higher_is_better: match field("better")?.as_str() {
                    Some("higher") => true,
                    Some("lower") => false,
                    _ => return Err("better must be higher or lower".to_owned()),
                },
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

fn samples_of(metric: &Json) -> Vec<f64> {
    metric
        .get("samples")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Compares two results documents, `base` then `change`: per workload
/// and end-to-end metric both medians, the ratio, the bound, and a
/// verdict. `worse` means the change's median is worse than the base's
/// by more than the bound. `unresolved` means either side's own spread
/// (interquartile range over median of its repetitions) exceeds the
/// bound, so the medians cannot be told apart — unless every repetition
/// of the change reads better than every repetition of the base.
/// Returns the table and whether any row is `worse`.
pub fn compare(base: &Json, change: &Json, bounds: &[Bound]) -> Result<(String, bool), String> {
    let workloads = |doc: &Json| match doc.get("workloads") {
        Some(Json::Obj(fields)) => Ok(fields.clone()),
        _ => Err("results document has no workloads object".to_owned()),
    };
    let change_workloads = workloads(change)?;
    let mut out = format!(
        "{:<14} {:<20} {:>14} {:>14} {:>18} {:>6}  verdict\n",
        "workload", "metric", "base", "change", "change/base", "bound"
    );
    let mut any_worse = false;
    for (name, base_w) in workloads(base)? {
        let Some((_, change_w)) = change_workloads.iter().find(|(n, _)| *n == name) else {
            return Err(format!(
                "workload {name} is missing from the second document"
            ));
        };
        for b in bounds {
            let pick = |w: &Json| {
                w.get("end_to_end")
                    .and_then(|e| e.get(&b.name))
                    .cloned()
                    .ok_or(format!("{name}: metric {} is missing", b.name))
            };
            let (bm, cm) = (pick(&base_w)?, pick(change_w)?);
            let value = |m: &Json| {
                m.get("value")
                    .and_then(Json::as_f64)
                    .ok_or(format!("{name}: {} has no value", b.name))
            };
            let (bv, cv) = (value(&bm)?, value(&cm)?);
            let ratio = if bv == 0.0 { f64::NAN } else { cv / bv };
            // Positive = the change is worse, as a share of the base.
            let loss = if b.higher_is_better {
                1.0 - ratio
            } else {
                ratio - 1.0
            };
            let (bs, cs) = (samples_of(&bm), samples_of(&cm));
            let spread = |s: &[f64]| {
                if s.len() < 2 {
                    0.0
                } else {
                    Summary::of(s).spread()
                }
            };
            let noisy = spread(&bs) > b.bound || spread(&cs) > b.bound;
            let dominates = !bs.is_empty()
                && !cs.is_empty()
                && cs.iter().all(|&c| {
                    bs.iter().all(|&base| {
                        if b.higher_is_better {
                            c > base
                        } else {
                            c < base
                        }
                    })
                });
            let verdict = if noisy && !dominates {
                "unresolved"
            } else if loss > b.bound {
                any_worse = true;
                "worse"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "{:<14} {:<20} {:>14} {:>14} {:>9.4} of {:>5} {:>5.0}%  {verdict}",
                name,
                b.name,
                human(bv),
                human(cv),
                ratio,
                "base",
                b.bound * 100.0
            );
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_pass(defs: &[MetricDef], scale: f64) -> PassResult {
        let mut pass = PassResult::default();
        for (i, def) in defs.iter().enumerate() {
            let v = (i + 1) as f64 * scale;
            pass.set(def.name, Summary::of(&[v * 0.99, v, v * 1.01]));
        }
        pass.check(None);
        pass
    }

    fn benchmark_json() -> Json {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|e| {
                let text = |k: &str| e.get(k).and_then(Json::as_str).expect(k).to_owned();
                (text("name"), text("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = benchmark_json();
        let own = |defs: &[MetricDef]| -> Vec<(String, String)> {
            defs.iter()
                .map(|d| (d.name.to_owned(), d.unit.to_owned()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect();
        assert_eq!(workloads, crate::gen::WORKLOADS);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn emitted_documents_parse_back_with_every_metric() {
        let result = WorkloadResult {
            untraced: full_pass(&END_TO_END, 1.0),
            traced: full_pass(&PER_LAYER, 1.0),
        };
        let line = Json::parse(&result.untraced.driver_line(&END_TO_END)).expect("driver line");
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(1));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
        for def in END_TO_END {
            let metric = line
                .get("metrics")
                .and_then(|m| m.get(def.name))
                .expect(def.name);
            assert_eq!(metric.get("unit").and_then(Json::as_str), Some(def.unit));
            assert!(metric.get("value").and_then(Json::as_f64).is_some());
        }
        let doc = Json::parse(&results_json(1, 24, &[("dense-r64", result)])).expect("results");
        let w = doc
            .get("workloads")
            .and_then(|w| w.get("dense-r64"))
            .expect("workload");
        let bench = benchmark_json();
        for (name, _) in names(&bench, "end_to_end") {
            assert!(
                w.get("end_to_end").and_then(|e| e.get(&name)).is_some(),
                "{name}"
            );
        }
        for (name, _) in names(&bench, "per_layer") {
            assert!(
                w.get("per_layer").and_then(|e| e.get(&name)).is_some(),
                "{name}"
            );
        }
    }

    #[test]
    fn unset_per_layer_metrics_read_zero_and_failures_are_counted() {
        let mut pass = PassResult::default();
        pass.check(None);
        pass.check(Some("report differs".to_owned()));
        let line = Json::parse(&pass.driver_line(&PER_LAYER)).expect("driver line");
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(2));
        assert_eq!(line.get("failed").and_then(Json::as_u64), Some(1));
        let zero = line
            .get("metrics")
            .and_then(|m| m.get("net.smoke_s"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(zero, Some(0.0));
    }

    #[test]
    fn compare_flags_worse_and_unresolved() {
        let bounds = bounds_from(&benchmark_json()).expect("bounds");
        assert!(bounds
            .iter()
            .any(|b| b.name == "setup_s" && !b.higher_is_better));
        let doc = |scale: f64, noise: f64| {
            let mut pass = PassResult::default();
            for (i, def) in END_TO_END.iter().enumerate() {
                let v = (i + 1) as f64 * scale;
                pass.set(
                    def.name,
                    Summary::of(&[v * (1.0 - noise), v, v * (1.0 + noise)]),
                );
            }
            let result = WorkloadResult {
                untraced: pass,
                traced: PassResult::default(),
            };
            Json::parse(&results_json(1, 24, &[("dense-r64", result)])).expect("results")
        };
        let (table, worse) = compare(&doc(1.0, 0.001), &doc(1.0, 0.001), &bounds).expect("compare");
        assert!(!worse, "{table}");
        assert!(!table.contains("unresolved"), "{table}");
        // Everything 40 % larger: the lower-is-better metrics are worse.
        let (table, worse) = compare(&doc(1.0, 0.001), &doc(1.4, 0.001), &bounds).expect("compare");
        assert!(worse, "{table}");
        let setup = table.lines().find(|l| l.contains("setup_s")).expect("row");
        assert!(setup.ends_with("worse"), "{setup}");
        let seq = table
            .lines()
            .find(|l| l.contains("seq_cycles_per_s"))
            .expect("row");
        assert!(seq.ends_with("ok"), "{seq}");
        // Spread wider than every bound: nothing can be told apart.
        let (table, worse) = compare(&doc(1.0, 0.6), &doc(1.05, 0.6), &bounds).expect("compare");
        assert!(!worse, "{table}");
        assert!(
            table.lines().skip(1).all(|l| l.ends_with("unresolved")),
            "{table}"
        );
    }
}
