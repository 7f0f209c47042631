//! The untraced pass: end-to-end metrics.
//!
//! The real programs are spawned as a user would spawn them, one child
//! at a time — a closed loop with one client. The two timed slots of a
//! workload alternate round-robin until `--seconds` is spent, so slow
//! drift of the host hits both alike; every metric is the median of its
//! slot's repetitions.

use std::time::Instant;

use crate::child::{self, ChildRun};
use crate::gen::{Engine, FabricSpec};
use crate::report::PassResult;
use crate::stats::Summary;
use crate::workload::{
    read_fabric_report, read_sim_report, trace_path, trace_report_argv, write_fabric_spec, Ctx,
    ReportFacts, SimWorkload, Workload, FABRIC_SPEC, GB_ADHERENCE_FLOOR,
};

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Fewest timed rounds, however short `--seconds` is.
const MIN_ROUNDS: usize = 5;

/// One command of a slot: a program and its arguments.
struct Step {
    program: std::path::PathBuf,
    args: Vec<String>,
}

/// One of a workload's two timed user journeys: the commands a
/// repetition runs back to back, and the simulated cycles they cover.
struct Slot {
    metric: &'static str,
    label: &'static str,
    steps: Vec<Step>,
    cycles: u64,
}

/// What one repetition of a slot produced.
struct Rep {
    wall_s: f64,
    success: bool,
    /// Standard output of each step.
    outputs: Vec<Vec<u8>>,
    peak_rss_kb: u64,
}

fn run_steps(steps: &[Step]) -> std::io::Result<Rep> {
    let mut rep = Rep {
        wall_s: 0.0,
        success: true,
        outputs: Vec::new(),
        peak_rss_kb: 0,
    };
    for step in steps {
        let ChildRun {
            wall_s,
            success,
            stdout,
            peak_rss_kb,
        } = child::run(&step.program, &step.args)?;
        rep.wall_s += wall_s;
        rep.success &= success;
        rep.outputs.push(stdout);
        rep.peak_rss_kb = rep.peak_rss_kb.max(peak_rss_kb);
    }
    Ok(rep)
}

impl SimWorkload {
    fn slot(&self, ctx: &Ctx, engine: Engine) -> Slot {
        let spec = self.spec_of(engine);
        let mut steps = vec![Step {
            program: ctx.ssq.clone(),
            args: self.argv(ctx, engine, spec.window()),
        }];
        if self.traced {
            steps.push(Step {
                program: ctx.ssq.clone(),
                args: trace_report_argv(&trace_path(ctx, engine)),
            });
        }
        let (metric, label) = match engine {
            Engine::Seq => ("seq_cycles_per_s", "seq"),
            Engine::Bitpar => ("bitpar_cycles_per_s", "bitpar"),
        };
        Slot {
            metric,
            label,
            steps,
            cycles: spec.warmup + spec.cycles,
        }
    }
}

/// Runs the untraced pass of `workload` for about `seconds` seconds.
pub fn run(
    name: &str,
    seed: u64,
    seconds: u64,
    ctx: &Ctx,
) -> Result<PassResult, Box<dyn std::error::Error>> {
    let mut pass = PassResult::default();

    // Set-up, several times over: generate every input from the seed,
    // write it, and run the program up to its first measured cycle
    // (parse, build, preflight, replay parsing, warm-up).
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let workload = crate::workload::build(name, seed).ok_or("unknown workload")?;
        let first_cycle = match &workload {
            Workload::Sim(w) => {
                w.write_inputs(ctx)?;
                Step {
                    program: ctx.ssq.clone(),
                    args: w.argv(ctx, Engine::Bitpar, (w.full.warmup, 1)),
                }
            }
            Workload::Fabric(spec) => Step {
                program: ctx.fabric_run.clone(),
                args: write_fabric_spec(
                    ctx,
                    &FabricSpec {
                        cycles: 1,
                        ..spec.clone()
                    },
                    "fabric-setup.txt",
                )?,
            },
        };
        let rep = run_steps(std::slice::from_ref(&first_cycle))?;
        setup_s.push(start.elapsed().as_secs_f64());
        pass.check((!rep.success).then(|| format!("{name}: set-up run exited nonzero")));
        built = Some(workload);
    }
    pass.set("setup_s", Summary::of(&setup_s));
    let workload = built.expect("SETUPS > 0");

    let slots: [Slot; 2] = match &workload {
        Workload::Sim(w) => [w.slot(ctx, Engine::Seq), w.slot(ctx, Engine::Bitpar)],
        // A fabric has one engine. Both slots run the same child, so the
        // two metrics are independent measurements of one thing: an A/A
        // pair whose disagreement is the noise of this run.
        Workload::Fabric(spec) => {
            let args = write_fabric_spec(ctx, spec, FABRIC_SPEC)?;
            let slot = |metric, label| Slot {
                metric,
                label,
                steps: vec![Step {
                    program: ctx.fabric_run.clone(),
                    args: args.clone(),
                }],
                cycles: spec.warmup + spec.cycles,
            };
            [
                slot("seq_cycles_per_s", "fabric/a"),
                slot("bitpar_cycles_per_s", "fabric/b"),
            ]
        }
    };

    // Timed rounds.
    let budget = std::time::Duration::from_secs(seconds);
    let start = Instant::now();
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut firsts: [Option<Vec<Vec<u8>>>; 2] = [None, None];
    let mut peak_rss_kb = 0;
    let mut rounds = 0;
    loop {
        for (i, slot) in slots.iter().enumerate() {
            let rep = run_steps(&slot.steps)?;
            peak_rss_kb = peak_rss_kb.max(rep.peak_rss_kb);
            let problem = if !rep.success {
                Some("exited nonzero")
            } else if firsts[i]
                .as_ref()
                .is_some_and(|first| *first != rep.outputs)
            {
                Some("printed a different report than its first repetition")
            } else {
                None
            };
            pass.check(
                problem.map(|p| format!("{name}: {} repetition {} {p}", slot.label, rounds + 1)),
            );
            walls[i].push(rep.wall_s);
            firsts[i].get_or_insert(rep.outputs);
        }
        rounds += 1;
        // Stop when another round of the same length would overrun.
        let per_round = start.elapsed() / rounds as u32;
        if rounds >= MIN_ROUNDS && start.elapsed() + per_round > budget {
            break;
        }
    }
    for (slot, walls) in slots.iter().zip(&walls) {
        let cycles = slot.cycles as f64;
        pass.set(slot.metric, Summary::of(walls).map(|s| cycles / s));
    }
    let [seq_out, full_out] = firsts.map(|f| f.expect("at least one round ran"));

    // Output checks beyond repetition stability.
    let facts: Result<ReportFacts, String> = match &workload {
        Workload::Sim(w) => {
            // seq and bitpar must print byte-identical reports for the
            // same run. Where they are timed on different lengths, one
            // extra bitpar run covers seq's.
            let reference = if w.split() {
                let args = w.seq.argv(
                    Engine::Bitpar,
                    w.seq.window(),
                    w.replay_path(ctx, Engine::Seq).as_deref(),
                    &[],
                );
                let extra = child::run(&ctx.ssq, &args)?;
                peak_rss_kb = peak_rss_kb.max(extra.peak_rss_kb);
                pass.check(
                    (!extra.success)
                        .then(|| format!("{name}: bitpar cross-check run exited nonzero")),
                );
                vec![extra.stdout]
            } else {
                full_out.clone()
            };
            pass.check(
                (seq_out != reference).then(|| format!("{name}: seq and bitpar reports differ")),
            );
            if w.traced {
                // Tracing is observational: the same argv without the
                // trace flags must print the same report.
                let args = w.full.argv(Engine::Bitpar, w.full.window(), None, &[]);
                let plain = child::run(&ctx.ssq, &args)?;
                pass.check(
                    (!plain.success || plain.stdout != full_out[0])
                        .then(|| format!("{name}: traced and untraced reports differ")),
                );
                let same_trace = std::fs::read(trace_path(ctx, Engine::Seq))?
                    == std::fs::read(trace_path(ctx, Engine::Bitpar))?;
                pass.check((!same_trace).then(|| format!("{name}: seq and bitpar traces differ")));
            }
            let seq_facts = read_sim_report(&w.seq, &seq_out[0]);
            read_sim_report(&w.full, &full_out[0]).and_then(|full| {
                Ok(ReportFacts {
                    gb_adherence_min: full.gb_adherence_min.min(seq_facts?.gb_adherence_min),
                    ..full
                })
            })
        }
        Workload::Fabric(spec) => {
            pass.check(
                (seq_out != full_out)
                    .then(|| format!("{name}: two runs from one seed report differently")),
            );
            read_fabric_report(spec, &full_out[0])
        }
    };
    let facts = facts.map_err(|e| format!("{name}: {e}"))?;
    pass.check((facts.gb_adherence_min < GB_ADHERENCE_FLOOR).then(|| {
        format!(
            "{name}: gb_adherence_min {} is below {GB_ADHERENCE_FLOOR}",
            facts.gb_adherence_min
        )
    }));
    pass.set_exact("delivered_flits", facts.delivered_flits as f64);
    pass.set_exact("gb_adherence_min", facts.gb_adherence_min);
    pass.set_exact("peak_rss_mb", peak_rss_kb as f64 / 1024.0);
    Ok(pass)
}
