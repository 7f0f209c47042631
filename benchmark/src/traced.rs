//! The traced pass: per-layer metrics, measured from outside.
//!
//! The configurations the untraced pass handed to `ssq` are rebuilt here
//! in-process through the public library API, and every call into a
//! layer's public function sits inside a span recorded by this file —
//! the program under test is not instrumented. A pass is only worth
//! reading if it ran the same program: its delivered-flit counts are
//! checked against one more run of the real CLI on the same inputs.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use swizzle_qos::arbiter::{CounterPolicy, Lrg, SsvcArbiter, SsvcConfig};
use swizzle_qos::core::{Policy, Preflight, QosSwitch, SwitchConfig};
use swizzle_qos::net::{compute_routes, judge_path, Fabric};
use swizzle_qos::sim::{
    CycleModel, EventModel, MonitorOutcome, ParRunner, Runner, Schedule, ShardedModel,
};
use swizzle_qos::trace::{Event, EventKind, TraceSummary, Tracer};
use swizzle_qos::traffic::{FixedDest, Injector, Periodic, TraceFile};
use swizzle_qos::types::{Cycle, Cycles, FlowId, Geometry, InputId, OutputId, Rate, TrafficClass};

use crate::alloc::counted;
use crate::child;
use crate::gen::{Engine, FabricSpec, SimSpec};
use crate::report::PassResult;
use crate::span::{Recorder, SAMPLE_EVERY};
use crate::stats::Summary;
use crate::workload::{
    read_fabric_report, read_sim_report, trace_report_argv, write_fabric_spec, Ctx, SimWorkload,
    Workload, FABRIC_SPEC, GB_ADHERENCE_FLOOR,
};

/// Repetitions of the small spawn-cost probes.
const PROBES: usize = 5;

/// Calls per arbiter micro-measurement.
const ARBITER_CALLS: u64 = 20_000;

/// Events pushed through a flight-recorder ring to time it.
const RING_EVENTS: u64 = 200_000;

type Fallible<T> = Result<T, Box<dyn std::error::Error>>;

/// Simulated facts read off a finished switch.
struct SimFacts {
    delivered_flits: u64,
    gb_adherence_min: f64,
    /// Max observed GL wait over its Eq. 1 bound, worst output.
    gl_wait_over_bound: f64,
}

fn sim_facts(spec: &SimSpec, switch: &QosSwitch) -> SimFacts {
    let gb_adherence_min = spec
        .reserves
        .iter()
        .map(|&(i, o, pct)| {
            let flow = FlowId::new(InputId::new(i), OutputId::new(o));
            let rate = switch.gb_metrics().flow(flow).flits() as f64 / spec.cycles as f64;
            rate / (f64::from(pct) / 100.0).min(spec.gb_offered)
        })
        .fold(f64::INFINITY, f64::min);
    let gl_wait_over_bound = spec
        .gl_reserves
        .iter()
        .filter_map(|&(o, _)| {
            let worst = switch.gl_wait_histogram(OutputId::new(o)).max()?;
            Some(worst as f64 / spec.gl_bound(o) as f64)
        })
        .fold(0.0, f64::max);
    SimFacts {
        delivered_flits: switch.counters().delivered_flits,
        gb_adherence_min,
        gl_wait_over_bound,
    }
}

fn schedule(spec: &SimSpec) -> Schedule {
    Schedule::new(Cycles::new(spec.warmup), Cycles::new(spec.cycles))
}

/// Steps `model` through `window` (warm-up, measured cycles) with
/// `per_cycle`, keeping full spans for one cycle in [`SAMPLE_EVERY`].
/// Returns the cycle after the last one.
fn dense_loop<M: CycleModel>(
    rec: &mut Recorder,
    window: (u64, u64),
    model: &mut M,
    mut per_cycle: impl FnMut(&mut Recorder, &mut M, Cycle),
) -> Cycle {
    let mut now = Cycle::ZERO;
    for c in 0..window.0 + window.1 {
        if c == window.0 {
            model.begin_measurement(now);
        }
        rec.keep_full(c.is_multiple_of(SAMPLE_EVERY));
        per_cycle(rec, model, now);
        now = now.next();
    }
    rec.keep_full(true);
    now
}

/// The dense engine split into its phases through `ShardedModel`: one
/// prepare, one decide over every output, one commit, each its own span.
/// Deciding every output before committing any is the sharded engine's
/// order; a plan an earlier grant made stale is re-decided inside the
/// commit span. Returns the summed `plan_cost`.
fn run_seq_phases(rec: &mut Recorder, window: (u64, u64), switch: &mut QosSwitch) -> u64 {
    let prepare = rec.register("core.shard_prepare");
    let decide = rec.register("core.shard_decide*");
    let commit = rec.register("core.shard_merge");
    let shards = switch.shard_count();
    let mut plan_cost = 0;
    rec.once("run.seq_phases", |rec| {
        dense_loop(rec, window, switch, |rec, sw, now| {
            rec.span(prepare, || sw.shard_prepare(now));
            rec.enter(decide);
            let plans: Vec<_> = (0..shards).map(|o| sw.shard_decide(o, now)).collect();
            rec.exit();
            plan_cost += plans.iter().map(QosSwitch::plan_cost).sum::<u64>();
            rec.span(commit, || sw.shard_merge(now, plans));
        });
    });
    plan_cost
}

/// The dense engine as users run it: one span per `CycleModel::step`.
fn run_seq_step(
    rec: &mut Recorder,
    label: &'static str,
    window: (u64, u64),
    switch: &mut QosSwitch,
) {
    let step = rec.register("core.step");
    rec.once(label, |rec| {
        dense_loop(rec, window, switch, |rec, sw, now| {
            rec.span(step, || sw.step(now));
        });
    });
}

/// Idle-skip bookkeeping of one `bitpar` run.
#[derive(Default)]
struct SkipStats {
    calls: u64,
    taken: u64,
    cycles_skipped: u64,
}

/// The `bitpar` engine, with `BitparRunner::run`'s loop spelled out so
/// `skip_idle` and `step_fast` each get their span.
fn run_bitpar(rec: &mut Recorder, spec: &SimSpec, switch: &mut QosSwitch) -> SkipStats {
    let skip = rec.register("core.skip_idle");
    let fast = rec.register("core.step_fast");
    let mut stats = SkipStats::default();
    rec.once("run.bitpar", |rec| {
        let warm_end = Cycle::new(spec.warmup);
        let end = Cycle::new(spec.warmup + spec.cycles);
        let mut now = Cycle::ZERO;
        for phase_end in [warm_end, end] {
            while now < phase_end {
                rec.keep_full(stats.calls.is_multiple_of(SAMPLE_EVERY));
                rec.enter(skip);
                let next = switch.skip_idle(now, phase_end);
                rec.exit();
                stats.calls += 1;
                if next > now {
                    stats.taken += 1;
                    stats.cycles_skipped += next.value() - now.value();
                    now = next;
                    continue;
                }
                rec.span(fast, || switch.step_fast(now));
                now = now.next();
            }
            if phase_end == warm_end {
                switch.begin_measurement(now);
            }
        }
        rec.keep_full(true);
    });
    stats
}

/// A writer that counts what passes through it.
struct CountingWriter<W> {
    inner: W,
    bytes: Arc<AtomicU64>,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        // A statistic read after the run, on this thread.
        self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Sets `metric` to the wall time of `program args…` over [`PROBES`]
/// runs.
fn probe(
    pass: &mut PassResult,
    metric: &'static str,
    program: &std::path::Path,
    args: &[String],
) -> Fallible<()> {
    let mut walls = Vec::with_capacity(PROBES);
    for _ in 0..PROBES {
        let run = child::run(program, args)?;
        pass.check((!run.success).then(|| format!("{metric}: probe run exited nonzero")));
        walls.push(run.wall_s);
    }
    pass.set(metric, Summary::of(&walls));
    Ok(())
}

/// `SsvcArbiter::peek` and `Lrg::peek_mask` over `radix` candidates.
fn arbiter_micro(rec: &mut Recorder, config: &SwitchConfig, pass: &mut PassResult) {
    let radix = config.geometry().radix();
    let ssvc_config = SsvcConfig::new(
        config.counter_bits(),
        config.sig_bits(),
        CounterPolicy::SubtractRealClock,
    );
    let vtick = SsvcArbiter::slot_vtick(0.4, crate::gen::PACKET_FLITS + 1);
    let mut ssvc = SsvcArbiter::new(ssvc_config, &vec![vtick; radix]);
    let mut lrg = Lrg::new(radix);
    for i in 0..radix {
        // Spread the flows over the thermometer lanes and stir the LRG
        // order, so neither peek degenerates to its first candidate.
        ssvc.set_aux_vc(i, (i as u64 * 37) % (4 * vtick));
        lrg.grant((i * 7) % radix);
    }
    let candidates: Vec<usize> = (0..radix).collect();
    let mask = if radix == 64 {
        u64::MAX
    } else {
        (1u64 << radix) - 1
    };
    rec.once("arbiter.SsvcArbiter::peek*", |_| {
        for _ in 0..ARBITER_CALLS {
            std::hint::black_box(ssvc.peek(std::hint::black_box(&candidates)));
        }
    });
    rec.once("arbiter.Lrg::peek_mask*", |_| {
        for _ in 0..ARBITER_CALLS {
            std::hint::black_box(lrg.peek_mask(std::hint::black_box(mask)));
        }
    });
    let per_call = |name: &str| rec.acc(name).total_ns as f64 / ARBITER_CALLS as f64;
    pass.set_exact(
        "arbiter.ssvc_peek_ns",
        per_call("arbiter.SsvcArbiter::peek*"),
    );
    pass.set_exact(
        "arbiter.lrg_peek_mask_ns",
        per_call("arbiter.Lrg::peek_mask*"),
    );
}

/// Checks one in-process run's facts; `cli` is what the real program
/// delivered on the same inputs.
fn check_facts(pass: &mut PassResult, what: &str, facts: &SimFacts, cli: u64) {
    let problem = if facts.delivered_flits != cli {
        Some(format!(
            "delivered {} flits in-process, the CLI delivered {cli}",
            facts.delivered_flits
        ))
    } else if facts.gb_adherence_min < GB_ADHERENCE_FLOOR {
        Some(format!("gb_adherence_min {}", facts.gb_adherence_min))
    } else if facts.gl_wait_over_bound > 1.0 {
        Some(format!(
            "GL wait is {} of its Eq. 1 bound",
            facts.gl_wait_over_bound
        ))
    } else {
        None
    };
    pass.check(problem.map(|p| format!("{what}: {p}")));
}

fn run_sim(w: &SimWorkload, ctx: &Ctx, rec: &mut Recorder, pass: &mut PassResult) -> Fallible<()> {
    w.write_inputs(ctx)?;
    let total = |spec: &SimSpec| (spec.warmup + spec.cycles) as f64;

    // What the real program delivers on these inputs (tracing off: it is
    // observational, and the untraced pass checks that it is).
    let cli_flits = |spec: &SimSpec, engine: Engine| -> Fallible<u64> {
        let args = spec.argv(
            Engine::Bitpar,
            spec.window(),
            w.replay_path(ctx, engine).as_deref(),
            &[],
        );
        let run = child::run(&ctx.ssq, &args)?;
        if !run.success {
            return Err(format!("{}: reference CLI run exited nonzero", w.name).into());
        }
        Ok(read_sim_report(spec, &run.stdout)?.delivered_flits)
    };
    let cli_full = cli_flits(&w.full, Engine::Bitpar)?;
    let cli_seq = if w.split() {
        cli_flits(&w.seq, Engine::Seq)?
    } else {
        cli_full
    };

    // Construction, piece by piece, on the full run's inputs.
    let mut replay_injectors = Vec::new();
    if let Some(text) = &w.full.replay {
        let file: TraceFile = rec.once("traffic.TraceFile::from_str", |_| text.parse())?;
        pass.set_exact("traffic.replay_events", file.len() as f64);
        replay_injectors = rec.once("traffic.TraceFile::into_injectors", |_| {
            file.into_injectors()
        })?;
        pass.set_exact(
            "traffic.replay_parse_s",
            rec.acc("traffic.TraceFile::from_str").total_s(),
        );
        pass.set_exact(
            "traffic.replay_injectors_s",
            rec.acc("traffic.TraceFile::into_injectors").total_s(),
        );
    }
    let config = w.full.config()?;
    let mut switch = rec.once("core.QosSwitch::new", |_| -> Fallible<QosSwitch> {
        let mut switch = QosSwitch::new(w.full.config()?)?;
        for injector in replay_injectors.into_iter().chain(w.full.flow_injectors()) {
            switch.add_injector(injector);
        }
        Ok(switch)
    })?;
    let preflight = rec.once("check.preflight", |_| switch.preflight());
    pass.check(
        preflight
            .has_errors()
            .then(|| format!("{}: preflight found errors", w.name)),
    );
    pass.set_exact("core.build_s", rec.acc("core.QosSwitch::new").total_s());
    pass.set_exact("check.preflight_s", rec.acc("check.preflight").total_s());

    // bitpar, on the switch just built.
    let (skips, fast_allocs) = counted(|| run_bitpar(rec, &w.full, &mut switch));
    let full_facts = sim_facts(&w.full, &switch);
    check_facts(pass, &format!("{} bitpar", w.name), &full_facts, cli_full);
    drop(switch);
    let fast = rec.acc("core.step_fast");
    let skip = rec.acc("core.skip_idle");
    pass.set_exact("core.step_fast_ns_per_cycle", fast.mean_ns());
    pass.set_exact("core.skip_idle_ns_per_call", skip.mean_ns());
    pass.set_exact("core.skip_idle_calls", skips.calls as f64);
    pass.set_exact("core.cycles_skipped", skips.cycles_skipped as f64);
    pass.set_exact("core.skip_idle_taken", skips.taken as f64);
    pass.set_exact(
        "core.skip_taken_ratio",
        skips.cycles_skipped as f64 / total(&w.full),
    );
    pass.set_exact(
        "core.fast_allocs_per_cycle",
        fast_allocs.allocs as f64 / total(&w.full),
    );
    pass.set_exact("sim.delivered_flits", full_facts.delivered_flits as f64);
    pass.set_exact("sim.gl_wait_over_bound_max", full_facts.gl_wait_over_bound);

    // seq, three ways: by phase, by whole step, and with no spans at all
    // (the plain loop carries the allocation counts and is the base of
    // the span-overhead ratio).
    let cycles = total(&w.seq);
    let fresh = |pass: &mut PassResult, what: &str, run: &mut dyn FnMut(&mut QosSwitch)| {
        // One switch at a time: a radix-64 switch holds some 150 MB of
        // per-flow statistics.
        let mut switch = w.seq.build();
        run(&mut switch);
        check_facts(
            pass,
            &format!("{} {what}", w.name),
            &sim_facts(&w.seq, &switch),
            cli_seq,
        );
    };
    let mut plan_cost = 0;
    fresh(pass, "seq by phase", &mut |sw| {
        plan_cost = run_seq_phases(rec, w.seq.window(), sw)
    });
    pass.set_exact(
        "core.prepare_ns_per_cycle",
        rec.acc("core.shard_prepare").mean_ns(),
    );
    pass.set_exact(
        "core.decide_ns_per_cycle",
        rec.acc("core.shard_decide*").mean_ns(),
    );
    pass.set_exact(
        "core.commit_ns_per_cycle",
        rec.acc("core.shard_merge").mean_ns(),
    );
    pass.set_exact("core.plan_cost_per_cycle", plan_cost as f64 / cycles);

    fresh(pass, "seq by step", &mut |sw| {
        run_seq_step(rec, "run.seq_step", w.seq.window(), sw)
    });
    let step_off = rec.acc("core.step");
    pass.set_exact("core.step_ns_per_cycle", step_off.mean_ns());

    let mut allocs = Default::default();
    fresh(pass, "seq plain", &mut |sw| {
        ((), allocs) = counted(|| {
            rec.once("sim.Runner::run", |_| Runner::new(schedule(&w.seq)).run(sw));
        });
    });
    pass.set_exact("core.allocs_per_cycle", allocs.allocs as f64 / cycles);
    pass.set_exact("core.alloc_bytes_per_cycle", allocs.bytes as f64 / cycles);
    pass.set_exact(
        "bench.span_overhead_ratio",
        rec.acc("run.seq_step").total_ns as f64 / rec.acc("sim.Runner::run").total_ns as f64,
    );

    if w.par_trial {
        fresh(pass, "par", &mut |sw| {
            rec.once("sim.ParRunner::run", |_| {
                ParRunner::new(schedule(&w.seq), 2).run(sw)
            });
        });
        pass.set_exact(
            "sim.par2_cycles_per_s",
            cycles / rec.acc("sim.ParRunner::run").total_s(),
        );
    }

    arbiter_micro(rec, &config, pass);

    if w.traced {
        trace_layer(w, ctx, rec, pass, step_off.total_ns, cli_seq)?;
    }

    probe(
        pass,
        "cli.fixed_s",
        &ctx.ssq,
        &w.argv(ctx, Engine::Bitpar, (0, 1)),
    )?;
    probe(pass, "cli.spawn_s", &ctx.ssq, &["help".into()])
}

/// The trace layer, write side and read side: `step` with a JSONL sink
/// to nowhere and to a real file against `step` with tracing off
/// (`step_off_ns`), then `Event::from_jsonl` and `TraceSummary` over the
/// file, then the real `ssq trace-report` on it.
fn trace_layer(
    w: &SimWorkload,
    ctx: &Ctx,
    rec: &mut Recorder,
    pass: &mut PassResult,
    step_off_ns: u64,
    cli_flits: u64,
) -> Fallible<()> {
    let cycles = (w.seq.warmup + w.seq.cycles) as f64;
    let bytes = Arc::new(AtomicU64::new(0));
    let mut switch = w.seq.build();
    rec.once("trace.Tracer::attach_jsonl", |_| {
        switch.tracer_mut().attach_jsonl(Box::new(CountingWriter {
            inner: std::io::sink(),
            bytes: Arc::clone(&bytes),
        }));
    });
    let before = rec.acc("core.step").total_ns;
    run_seq_step(rec, "run.seq_step_jsonl_sink", w.seq.window(), &mut switch);
    let step_sink_ns = rec.acc("core.step").total_ns - before;
    switch.tracer_mut().flush();
    check_facts(
        pass,
        &format!("{} traced to a sink", w.name),
        &sim_facts(&w.seq, &switch),
        cli_flits,
    );
    let events = switch.tracer().jsonl().map_or(0, |j| j.lines_written()) as f64;
    let bytes = bytes.load(Ordering::Relaxed) as f64;
    pass.set_exact("trace.events_per_cycle", events / cycles);
    pass.set_exact("trace.bytes_per_event", bytes / events);
    pass.set_exact("trace.bytes", bytes);
    pass.set_exact(
        "trace.jsonl_ns_per_event",
        (step_sink_ns as f64 - step_off_ns as f64) / events,
    );

    let path = ctx.tmp_path("trace-inprocess.jsonl");
    let mut switch = w.seq.build();
    let file = std::fs::File::create(&path)?;
    switch
        .tracer_mut()
        .attach_jsonl(Box::new(std::io::BufWriter::new(file)));
    let before = rec.acc("core.step").total_ns;
    run_seq_step(rec, "run.seq_step_jsonl_file", w.seq.window(), &mut switch);
    let step_file_ns = rec.acc("core.step").total_ns - before;
    switch.tracer_mut().flush();
    let io_error = switch.tracer().jsonl().and_then(|j| j.io_error()).is_some();
    pass.check(io_error.then(|| format!("{}: writing the in-process trace failed", w.name)));
    drop(switch);
    pass.set_exact(
        "trace.write_ns_per_event",
        (step_file_ns as f64 - step_sink_ns as f64) / events,
    );

    // Read side, as `ssq trace-report` does it.
    let text = std::fs::read_to_string(&path)?;
    let parse = rec.register("trace.Event::from_jsonl");
    let parsed: Result<Vec<Event>, _> = rec.once("run.trace_parse", |rec| {
        text.lines()
            .enumerate()
            .map(|(n, line)| {
                rec.keep_full((n as u64).is_multiple_of(SAMPLE_EVERY));
                rec.span(parse, || Event::from_jsonl(line))
            })
            .collect()
    });
    rec.keep_full(true);
    let parsed = parsed.map_err(|e| format!("{}: in-process trace does not parse: {e}", w.name))?;
    pass.check(
        (parsed.len() as f64 != events).then(|| format!("{}: trace line count changed", w.name)),
    );
    let summary = rec.once("trace.TraceSummary::from_events", |_| {
        TraceSummary::from_events(parsed)
    });
    pass.set_exact(
        "trace.parse_ns_per_event",
        rec.acc("trace.Event::from_jsonl").mean_ns(),
    );
    pass.set_exact(
        "trace.ingest_ns_per_event",
        rec.acc("trace.TraceSummary::from_events").total_ns as f64 / events,
    );

    let mut walls = Vec::new();
    for _ in 0..3 {
        let run = child::run(&ctx.ssq, &trace_report_argv(&path))?;
        let same = run.success && run.stdout == summary.grant_table().to_csv().as_bytes();
        pass.check(
            (!same).then(|| format!("{}: ssq trace-report disagrees with TraceSummary", w.name)),
        );
        walls.push(run.wall_s);
    }
    pass.set("cli.trace_report_s", Summary::of(&walls));
    Ok(())
}

/// A stand-alone twin of one fabric node — `Fabric` keeps its switches
/// private — configured as `Fabric::new` configures them and fed the
/// periodic load of a transit node: two through flows and two local
/// ones, ring and delivery log armed.
fn node_twin() -> Fallible<QosSwitch> {
    let mut config = SwitchConfig::builder(Geometry::new(8, 128)?)
        .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
        .gb_buffer_flits(16)
        .be_buffer_flits(64)
        .gl_buffer_flits(64)
        .sig_bits(3)
        .build()?;
    // (input, output, class, period): transit east and south, local in
    // and out.
    let flows = [
        (1, 0, TrafficClass::GuaranteedBandwidth, 40),
        (3, 2, TrafficClass::GuaranteedBandwidth, 80),
        (4, 0, TrafficClass::GuaranteedBandwidth, 80),
        (5, 2, TrafficClass::BestEffort, 160),
    ];
    for &(i, o, class, period) in &flows {
        if class == TrafficClass::GuaranteedBandwidth {
            config.reservations_mut().reserve_gb(
                InputId::new(i),
                OutputId::new(o),
                Rate::new(crate::gen::PACKET_FLITS as f64 / period as f64)?,
                crate::gen::PACKET_FLITS,
            )?;
        }
    }
    let mut switch = QosSwitch::new(config)?;
    switch.set_delivery_log(true);
    switch.tracer_mut().attach_ring(1 << 15);
    for (n, &(i, o, class, period)) in flows.iter().enumerate() {
        switch.add_injector(
            Injector::new(
                Box::new(Periodic::new(
                    period,
                    n as u64 * 3,
                    crate::gen::PACKET_FLITS,
                )),
                Box::new(FixedDest::new(OutputId::new(o))),
                class,
            )
            .for_input(InputId::new(i)),
        );
    }
    Ok(switch)
}

fn run_fabric(
    spec: &FabricSpec,
    ctx: &Ctx,
    rec: &mut Recorder,
    pass: &mut PassResult,
) -> Fallible<()> {
    let name = "fabric-mesh16";
    let window = (spec.warmup, spec.cycles);
    let cycles = (spec.warmup + spec.cycles) as f64;

    // The real child on the same inputs.
    let args = write_fabric_spec(ctx, spec, FABRIC_SPEC)?;
    let reference = child::run(&ctx.fabric_run, &args)?;
    if !reference.success {
        return Err(format!("{name}: reference fabric-run exited nonzero").into());
    }
    let cli = read_fabric_report(spec, &reference.stdout)?;

    let topology = spec.topology();
    let up = (vec![true; topology.links.len()], vec![true; topology.nodes]);
    let routes = rec.register("net.compute_routes");
    for _ in 0..100 {
        rec.span(routes, || {
            std::hint::black_box(compute_routes(&topology, &up.0, &up.1))
        });
    }
    pass.set_exact(
        "net.routes_us",
        rec.acc("net.compute_routes").mean_ns() / 1e3,
    );

    let mut fabric = rec.once("net.Fabric::new", |_| {
        Fabric::new(spec.topology(), &spec.flows, spec.seed)
    })?;
    pass.set_exact("net.build_s", rec.acc("net.Fabric::new").total_s());

    let step = rec.register("net.Fabric::step");
    let (end, allocs) = counted(|| {
        rec.once("run.fabric", |rec| {
            dense_loop(rec, window, &mut fabric, |rec, f, now| {
                rec.span(step, || f.step(now));
            })
        })
    });
    let spanned = rec.acc("net.Fabric::step");
    pass.set_exact("net.step_ns_per_cycle", spanned.mean_ns());
    pass.set_exact(
        "net.step_ns_per_node_cycle",
        spanned.mean_ns() / fabric.node_count() as f64,
    );
    pass.set_exact("net.allocs_per_cycle", allocs.allocs as f64 / cycles);
    pass.set_exact(
        "net.hop_events_per_cycle",
        fabric.events().len() as f64 / cycles,
    );
    let counters = fabric.counters();
    pass.set_exact("net.source_blocked", counters.source_blocked as f64);
    pass.set_exact("net.dropped_packets", counters.dropped_packets as f64);
    pass.set_exact("net.demoted_packets", counters.demoted_packets as f64);
    pass.set_exact("sim.delivered_flits", counters.delivered_flits as f64);

    let verdict = rec.once("net.judge_path", |_| {
        judge_path(
            &MonitorOutcome::Completed(end),
            &fabric.node_events(),
            fabric.events(),
        )
    });
    pass.set_exact("net.judge_s", rec.acc("net.judge_path").total_s());
    let gl_ratio = spec
        .flows
        .iter()
        .enumerate()
        .filter(|(_, f)| f.class == TrafficClass::GuaranteedLatency)
        .map(|(i, f)| fabric.flow_stats(i).latency_max as f64 / spec.gl_path_budget(f) as f64)
        .fold(0.0, f64::max);
    pass.set_exact("sim.gl_wait_over_bound_max", gl_ratio);
    let problem = if !verdict.is_acceptable() {
        Some(format!("path verdict {:?}", verdict.overall))
    } else if counters.delivered_flits != cli.delivered_flits {
        Some(format!(
            "delivered {} flits in-process, fabric-run delivered {}",
            counters.delivered_flits, cli.delivered_flits
        ))
    } else if cli.gb_adherence_min < GB_ADHERENCE_FLOOR {
        Some(format!("gb_adherence_min {}", cli.gb_adherence_min))
    } else if gl_ratio > 1.0 {
        Some(format!(
            "GL latency is {gl_ratio} of its summed per-hop Eq. 1 budget"
        ))
    } else {
        None
    };
    pass.check(problem.map(|p| format!("{name}: {p}")));

    // The same fabric again with no spans: the base of the overhead
    // ratio, and the second of two runs that must agree.
    let mut again = Fabric::new(spec.topology(), &spec.flows, spec.seed)?;
    let schedule = Schedule::new(Cycles::new(spec.warmup), Cycles::new(spec.cycles));
    rec.once("sim.Runner::run", |_| Runner::new(schedule).run(&mut again));
    pass.check(
        (again.counters() != counters)
            .then(|| format!("{name}: two runs from one seed count differently")),
    );
    pass.set_exact(
        "bench.span_overhead_ratio",
        rec.acc("run.fabric").total_ns as f64 / rec.acc("sim.Runner::run").total_ns as f64,
    );

    // One node, stand-alone: what `step` costs there with the ring and
    // delivery log every fabric node carries.
    let mut twin = node_twin()?;
    run_seq_step(rec, "run.node_twin", window, &mut twin);
    let recorded = twin.tracer().ring().map_or(0, |r| r.total_recorded());
    pass.check((recorded == 0).then(|| format!("{name}: the node twin's ring stayed empty")));
    pass.set_exact("core.step_ns_per_cycle", rec.acc("core.step").mean_ns());

    // The ring itself, per event: a node emits too few events per cycle
    // for a with-and-without difference of `step` to rise above noise.
    let mut tracer = Tracer::new();
    rec.once("trace.Tracer::attach_ring", |_| tracer.attach_ring(1 << 15));
    rec.once("trace.Tracer::emit*", |_| {
        for cycle in 0..RING_EVENTS {
            tracer.emit(|| Event {
                cycle,
                kind: EventKind::Grant {
                    output: 0,
                    input: (cycle % 8) as u32,
                    class: TrafficClass::GuaranteedBandwidth,
                    len_flits: crate::gen::PACKET_FLITS,
                    waited: cycle % 5,
                },
            });
        }
    });
    pass.set_exact(
        "trace.ring_ns_per_event",
        rec.acc("trace.Tracer::emit*").total_ns as f64 / RING_EVENTS as f64,
    );

    // The chaos catalogs: cost of a campaign, and its verdicts.
    let smoke = rec.once("net.run_net_smoke", |_| {
        swizzle_qos::net::run_net_smoke(spec.seed)
    });
    for s in &smoke {
        pass.check(
            (!s.verdict.is_acceptable())
                .then(|| format!("net smoke {}: {:?}", s.name, s.verdict.overall)),
        );
    }
    pass.set_exact("net.smoke_s", rec.acc("net.run_net_smoke").total_s());
    let smoke = rec.once("faults.run_smoke", |_| {
        swizzle_qos::faults::run_smoke(spec.seed)
    });
    for s in &smoke {
        pass.check(
            (!s.verdict.is_acceptable())
                .then(|| format!("fault smoke {}: {:?}", s.name, s.verdict)),
        );
    }
    pass.set_exact("faults.smoke_s", rec.acc("faults.run_smoke").total_s());

    let fixed = write_fabric_spec(
        ctx,
        &FabricSpec {
            warmup: 0,
            cycles: 1,
            ..spec.clone()
        },
        "fabric-fixed.txt",
    )?;
    probe(pass, "cli.fixed_s", &ctx.fabric_run, &fixed)?;
    probe(pass, "cli.spawn_s", &ctx.ssq, &["help".into()])
}

/// Runs the traced pass of workload `name` and returns its metrics and
/// the spans behind them.
pub fn run(name: &str, seed: u64, ctx: &Ctx) -> Fallible<(PassResult, Recorder)> {
    let workload = crate::workload::build(name, seed).ok_or("unknown workload")?;
    let mut pass = PassResult::default();
    let mut rec = Recorder::new();
    let started = Instant::now();
    rec.once("traced_pass", |rec| match &workload {
        Workload::Sim(w) => run_sim(w, ctx, rec, &mut pass),
        Workload::Fabric(spec) => run_fabric(spec, ctx, rec, &mut pass),
    })?;
    eprintln!(
        "qosbench: traced pass of {name} took {:.1} s",
        started.elapsed().as_secs_f64()
    );
    Ok((pass, rec))
}
