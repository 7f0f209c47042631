//! The four workloads, sized for this benchmark, and how their reports
//! are read.
//!
//! Cycle counts are fixed (never scaled by `--seconds`), so simulated
//! statistics repeat exactly for a seed; `--seconds` only decides how
//! many timed repetitions fit. Each timed child runs for about a second
//! or more on the reference 2-core box.

use std::path::PathBuf;

use crate::gen::{Engine, FabricSpec, SimSpec, GL_FLITS, PACKET_FLITS};

/// Where the programs under test and the scratch space are.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The release `ssq` binary.
    pub ssq: PathBuf,
    /// The release `fabric-run` binary of this package.
    pub fabric_run: PathBuf,
    /// `benchmark/out`: spans and results documents land here.
    pub out: PathBuf,
    /// A per-process directory under `out` for generated inputs and the
    /// files the program writes; removed when the benchmark ends.
    pub tmp: PathBuf,
}

impl Ctx {
    /// A scratch path as the text an argv carries.
    pub fn tmp_path(&self, file: &str) -> String {
        self.tmp.join(file).to_string_lossy().into_owned()
    }
}

/// A single-switch workload: the run `bitpar` is timed on and the
/// (possibly shorter) run `seq` is timed on.
#[derive(Debug, Clone)]
pub struct SimWorkload {
    pub name: &'static str,
    /// What `--engine bitpar` runs.
    pub full: SimSpec,
    /// What `--engine seq` runs: `full` itself, or its head where dense
    /// stepping of the whole run would take too long.
    pub seq: SimSpec,
    /// Whether the run writes a JSONL trace and a metrics series, and is
    /// followed by `ssq trace-report`.
    pub traced: bool,
    /// Whether the traced pass also times the sharded `par` engine on
    /// two threads (informational; `par` is no end-to-end path here).
    pub par_trial: bool,
}

/// The observability flags of the traced workload, per engine so the
/// two slots never share a file.
fn trace_flags(ctx: &Ctx, engine: Engine) -> Vec<String> {
    vec![
        "--trace".into(),
        "--trace-out".into(),
        trace_path(ctx, engine),
        "--metrics-interval".into(),
        "1000".into(),
        "--metrics-out".into(),
        ctx.tmp_path(&format!("metrics-{}.csv", engine.flag())),
    ]
}

pub fn trace_path(ctx: &Ctx, engine: Engine) -> String {
    ctx.tmp_path(&format!("trace-{}.jsonl", engine.flag()))
}

/// Replay file names: the full run's, and the `seq` head's when it is a
/// different file.
const REPLAY_FULL: &str = "replay-full.txt";
const REPLAY_SEQ: &str = "replay-seq.txt";

impl SimWorkload {
    /// Whether `seq` and `bitpar` run different cycle counts.
    pub fn split(&self) -> bool {
        self.seq.cycles != self.full.cycles
    }

    pub fn spec_of(&self, engine: Engine) -> &SimSpec {
        match engine {
            Engine::Seq => &self.seq,
            Engine::Bitpar => &self.full,
        }
    }

    pub fn replay_path(&self, ctx: &Ctx, engine: Engine) -> Option<String> {
        self.full.replay.as_ref()?;
        Some(ctx.tmp_path(if engine == Engine::Seq && self.split() {
            REPLAY_SEQ
        } else {
            REPLAY_FULL
        }))
    }

    /// Writes the generated input files.
    pub fn write_inputs(&self, ctx: &Ctx) -> std::io::Result<()> {
        if let Some(text) = &self.full.replay {
            std::fs::write(ctx.tmp.join(REPLAY_FULL), text)?;
        }
        if let (true, Some(text)) = (self.split(), &self.seq.replay) {
            std::fs::write(ctx.tmp.join(REPLAY_SEQ), text)?;
        }
        Ok(())
    }

    /// `ssq simulate` arguments for `engine` over `window` (warm-up,
    /// measured cycles) of that engine's spec, with the workload's own
    /// trace flags.
    pub fn argv(&self, ctx: &Ctx, engine: Engine, window: (u64, u64)) -> Vec<String> {
        let extra = if self.traced {
            trace_flags(ctx, engine)
        } else {
            Vec::new()
        };
        self.spec_of(engine).argv(
            engine,
            window,
            self.replay_path(ctx, engine).as_deref(),
            &extra,
        )
    }
}

/// `ssq trace-report` arguments for the trace at `path`.
pub fn trace_report_argv(path: &str) -> Vec<String> {
    vec![
        "trace-report".into(),
        "--in".into(),
        path.into(),
        "--csv".into(),
    ]
}

pub const FABRIC_SPEC: &str = "fabric.txt";

/// `fabric-run` arguments for a spec written under `file`.
pub fn write_fabric_spec(ctx: &Ctx, spec: &FabricSpec, file: &str) -> std::io::Result<Vec<String>> {
    std::fs::write(ctx.tmp.join(file), spec.to_text())?;
    Ok(vec![ctx.tmp_path(file)])
}

pub enum Workload {
    Sim(Box<SimWorkload>),
    Fabric(FabricSpec),
}

/// Builds workload `name` from `seed`; `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let sim = |name, full: SimSpec, seq_cycles: u64, traced| {
        let seq = full.head(seq_cycles);
        Workload::Sim(Box::new(SimWorkload {
            name,
            full,
            seq,
            traced,
            par_trial: name == "dense-r64",
        }))
    };
    Some(match name {
        "dense-r64" => sim(
            "dense-r64",
            SimSpec::dense(seed, 64, 5_000, 130_000),
            130_000,
            false,
        ),
        // `bitpar` skips nine cycles in ten and covers the whole run in
        // about a second; dense stepping gets the first 150 000 cycles.
        "sparse-r64" => sim(
            "sparse-r64",
            SimSpec::sparse(seed, 64, 5_000, 3_000_000),
            150_000,
            false,
        ),
        "traced-r16" => sim(
            "traced-r16",
            SimSpec::dense(seed, 16, 5_000, 150_000),
            150_000,
            true,
        ),
        "fabric-mesh16" => Workload::Fabric(FabricSpec::mesh16(seed, 1_000, 200_000)),
        _ => return None,
    })
}

/// What a report says about the run that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportFacts {
    pub delivered_flits: u64,
    /// Min over reserved GB flows of delivered rate / min(reserved,
    /// offered) rate; the paper's section 4.2 claim is >= 0.98.
    pub gb_adherence_min: f64,
}

/// The paper's GB adherence floor.
pub const GB_ADHERENCE_FLOOR: f64 = 0.98;

/// Reads an `ssq simulate --csv` report
/// (`flow,class,packets,throughput,…`, flows named `In3->Out7`).
pub fn read_sim_report(spec: &SimSpec, csv: &[u8]) -> Result<ReportFacts, String> {
    let text = std::str::from_utf8(csv).map_err(|_| "report is not UTF-8")?;
    let mut lines = text.lines();
    if !lines
        .next()
        .is_some_and(|h| h.starts_with("flow,class,packets,"))
    {
        return Err("report lacks the flow,class,packets header".into());
    }
    let mut delivered_flits = 0;
    // (input, output) -> GB flits delivered.
    let mut gb = std::collections::BTreeMap::new();
    for line in lines {
        let cols: Vec<&str> = line.split(',').collect();
        let bad = || format!("unreadable report row {line:?}");
        let [flow, class, packets, ..] = cols[..] else {
            return Err(bad());
        };
        let packets: u64 = packets.parse().map_err(|_| bad())?;
        let (input, output) = flow
            .strip_prefix("In")
            .and_then(|f| f.split_once("->Out"))
            .and_then(|(i, o)| Some((i.parse::<usize>().ok()?, o.parse::<usize>().ok()?)))
            .ok_or_else(bad)?;
        let flits = packets
            * if class == "GL" {
                GL_FLITS
            } else {
                PACKET_FLITS
            };
        delivered_flits += flits;
        if class == "GB" {
            gb.insert((input, output), flits);
        }
    }
    let gb_adherence_min = spec
        .reserves
        .iter()
        .map(|&(i, o, pct)| {
            let rate = gb.get(&(i, o)).copied().unwrap_or(0) as f64 / spec.cycles as f64;
            rate / (f64::from(pct) / 100.0).min(spec.gb_offered)
        })
        .fold(f64::INFINITY, f64::min);
    Ok(ReportFacts {
        delivered_flits,
        gb_adherence_min,
    })
}

/// Reads a `fabric-run` report
/// (`flow,class,injected,delivered_packets,delivered_flits,…`).
pub fn read_fabric_report(spec: &FabricSpec, report: &[u8]) -> Result<ReportFacts, String> {
    let text = std::str::from_utf8(report).map_err(|_| "report is not UTF-8")?;
    let total = (spec.warmup + spec.cycles) as f64;
    let mut delivered_flits = 0;
    let mut gb_adherence_min = f64::INFINITY;
    let mut rows = text
        .lines()
        .skip(1)
        .take_while(|l| !l.starts_with("counters,"));
    for flow in &spec.flows {
        let row = rows.next().ok_or("report has fewer flow rows than flows")?;
        let flits: u64 = row
            .split(',')
            .nth(4)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("unreadable report row {row:?}"))?;
        delivered_flits += flits;
        if flow.class == swizzle_qos::types::TrafficClass::GuaranteedBandwidth {
            // Offered load equals the reserved rate (period = len / rate).
            gb_adherence_min = gb_adherence_min.min(flits as f64 / total / flow.rate);
        }
    }
    if !text.lines().any(|l| l == "verdict,acceptable") {
        return Err("fabric verdict is not acceptable".into());
    }
    Ok(ReportFacts {
        delivered_flits,
        gb_adherence_min,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_report_yields_flits_and_adherence() {
        let mut spec = SimSpec::dense(1, 16, 100, 1_000);
        spec.reserves = vec![(0, 3, 40), (1, 2, 40)];
        spec.gb_offered = 0.42;
        let csv = b"flow,class,packets,throughput (flits/cycle),mean latency,max latency\n\
                    In0->Out3,GB,50,0.4000,1.0,2\n\
                    In1->Out2,GB,45,0.3600,1.0,2\n\
                    In1->Out5,BE,10,0.0800,1.0,2\n\
                    In9->Out0,GL,7,0.0070,1.0,2\n";
        let facts = read_sim_report(&spec, csv).expect("readable");
        assert_eq!(facts.delivered_flits, 50 * 8 + 45 * 8 + 10 * 8 + 7);
        assert!((facts.gb_adherence_min - 0.9).abs() < 1e-12);
        // A reserved flow that delivered nothing has adherence 0.
        spec.reserves.push((2, 1, 40));
        assert_eq!(
            read_sim_report(&spec, csv)
                .expect("readable")
                .gb_adherence_min,
            0.0
        );
        assert!(read_sim_report(&spec, b"error: nope\n").is_err());
    }

    #[test]
    fn every_named_workload_builds_and_unknown_names_do_not() {
        for name in crate::gen::WORKLOADS {
            assert!(build(name, 3).is_some(), "{name}");
        }
        assert!(build("dense-r65", 3).is_none());
        let Some(Workload::Sim(sparse)) = build("sparse-r64", 3) else {
            panic!("sparse-r64 is a single-switch workload");
        };
        assert!(sparse.split());
        assert!(
            sparse.seq.replay.as_ref().unwrap().len() < sparse.full.replay.as_ref().unwrap().len()
        );
    }
}
