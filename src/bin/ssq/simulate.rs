//! `ssq simulate`: build a switch from the options, run it through one
//! schedule, report.

use std::error::Error;

use swizzle_qos::check::trace::{analyze_trace_settings, TraceSettings};
use swizzle_qos::core::vcd::SwitchVcdRecorder;
use swizzle_qos::core::{Preflight, QosSwitch, SwitchConfig};
use swizzle_qos::sim::{MonitorOutcome, ParRunner, Runner, Schedule};
use swizzle_qos::stats::Table;
use swizzle_qos::trace::{flight, MetricsRegistry, RingSink};
use swizzle_qos::traffic::{Bernoulli, FixedDest, Injector, Saturating, TraceEvent, TraceFile};
use swizzle_qos::types::{Cycle, Cycles, FlowId, Geometry, InputId, OutputId, Rate};

use crate::opts::{err, parse_flow, parse_policy, parse_reserve, port_in_range, Opts};

/// The metrics the CLI samples from the switch on each
/// `--metrics-interval` boundary.
struct MetricsProbe {
    registry: MetricsRegistry,
    gauges: [swizzle_qos::trace::GaugeId; 5],
}

impl MetricsProbe {
    fn new(interval: u64) -> Self {
        let mut registry = MetricsRegistry::new(interval);
        let gauges = [
            registry.register_gauge("delivered_packets"),
            registry.register_gauge("delivered_flits"),
            registry.register_gauge("dropped_packets"),
            registry.register_gauge("chained_packets"),
            registry.register_gauge("gl_policed_cycles"),
        ];
        MetricsProbe { registry, gauges }
    }

    fn observe(&mut self, switch: &QosSwitch, now: Cycle) {
        if !self.registry.due(now.value()) {
            return;
        }
        let c = switch.counters();
        let values = [
            c.delivered_packets,
            c.delivered_flits,
            c.dropped_packets,
            c.chained_packets,
            c.gl_policed_cycles,
        ];
        for (&id, &v) in self.gauges.iter().zip(&values) {
            self.registry.set_gauge(id, v as f64);
        }
        self.registry.snapshot(now.value());
    }
}

/// Creates the parent directory of `path` (if any) so output files can
/// land in not-yet-existing directories like `results/`.
fn ensure_parent(path: &str) -> Result<(), Box<dyn Error>> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| err(format!("creating {}: {e}", dir.display())))?;
        }
    }
    Ok(())
}

/// `--engine`: which runner drives the schedule.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Engine {
    Seq,
    /// The sharded engine on this many threads.
    Par(usize),
    Bitpar,
}

/// What watches the run, cycle by cycle.
enum Mode<F> {
    /// Nobody: the only mode in which `bitpar` may skip idle cycles.
    Plain,
    /// `--vcd` / `--metrics-interval` probes.
    Probed(F),
    /// The probes plus the stall/violation watchdog with this window.
    Monitored(Cycles, F),
}

/// The one call into the cycle loop (`ssq_sim`'s `drive`).
fn run_schedule<F: FnMut(&QosSwitch, Cycle)>(
    engine: Engine,
    schedule: Schedule,
    switch: &mut QosSwitch,
    mode: Mode<F>,
) -> MonitorOutcome {
    use MonitorOutcome::Completed;
    let seq = Runner::new(schedule);
    let par = |threads| ParRunner::new(schedule, threads);
    match (engine, mode) {
        (Engine::Seq, Mode::Plain) => Completed(seq.run(switch)),
        (Engine::Bitpar, Mode::Plain) => Completed(seq.run_skipping(switch)),
        (Engine::Par(t), Mode::Plain) => Completed(par(t).run(switch)),
        (Engine::Par(t), Mode::Probed(f)) => Completed(par(t).run_observed(switch, f)),
        (_, Mode::Probed(f)) => Completed(seq.run_observed(switch, f)),
        (Engine::Par(t), Mode::Monitored(w, f)) => par(t).run_monitored(switch, w, f),
        (_, Mode::Monitored(w, f)) => seq.run_monitored(switch, w, f),
    }
}

#[allow(clippy::too_many_lines)]
pub(crate) fn simulate(args: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = Opts::parse(
        args,
        &[
            "chaining",
            "gl-policing",
            "csv",
            "fabric-check",
            "trace",
            "flight-recorder",
            "prof",
        ],
    )?;
    let radix = opts.num("radix", 8)? as usize;
    let width = opts.num("width", 128)? as usize;
    let cycles = opts.num("cycles", 50_000)?;
    if cycles == 0 {
        return Err(err("--cycles: the measured phase needs at least one cycle"));
    }
    let warmup = opts.num("warmup", 5_000)?;
    let policy = parse_policy(opts.get("policy").unwrap_or("ssvc-subtract"))?;
    let threads = match opts.num("threads", 0)? as usize {
        0 => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        n => n,
    };
    let engine = match opts.get("engine").unwrap_or("seq") {
        "seq" => Engine::Seq,
        "par" => Engine::Par(threads),
        "bitpar" => Engine::Bitpar,
        other => {
            return Err(err(format!(
                "--engine: expected seq, par, or bitpar, got {other:?}"
            )))
        }
    };

    // Observability settings, preflighted for consistency (SSQ011).
    let tracing = opts.flag("trace");
    let trace_out = opts.get("trace-out").unwrap_or("results/trace.jsonl");
    let metrics_interval = opts.num("metrics-interval", 0)?;
    let metrics_out = opts.get("metrics-out").unwrap_or("results/metrics.csv");
    let flight = opts.flag("flight-recorder");
    let flight_capacity = opts.num("flight-capacity", 4_096)? as usize;
    let stall_window = opts.num("stall-window", 10_000)?;
    let gl_bound = match opts.get("gl-bound") {
        None => None,
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| err(format!("--gl-bound: invalid number {v:?}")))?,
        ),
    };
    let profiling = opts.flag("prof");
    if profiling && matches!(engine, Engine::Par(_)) {
        return Err(err(
            "--prof: the cycle-phase profiler covers --engine seq and bitpar; the par \
             engine has no profiler (qosbench's sim.par2_cycles_per_s measures it)",
        ));
    }
    let trace_diag = analyze_trace_settings(&TraceSettings {
        tracing,
        trace_out: opts.get("trace-out").map(str::to_owned),
        metrics_interval,
        flight_recorder: flight,
        flight_capacity,
        total_cycles: warmup + cycles,
    });
    if !trace_diag.is_empty() && !opts.flag("csv") {
        print!("{trace_diag}");
    }

    let geometry = Geometry::new(radix, width)?;
    let mut config = SwitchConfig::builder(geometry)
        .policy(policy)
        .gb_buffer_flits(16)
        .be_buffer_flits(16)
        .packet_chaining(opts.flag("chaining"))
        .gl_policing(opts.flag("gl-policing"))
        .fabric_checked(opts.flag("fabric-check"))
        .build()?;
    for spec in opts.get_all("reserve") {
        let (input, output, rate, len) = parse_reserve(spec)?;
        config.reservations_mut().reserve_gb(
            InputId::new(port_in_range("reserve", spec, "input", input, radix)?),
            OutputId::new(port_in_range("reserve", spec, "output", output, radix)?),
            Rate::new(rate)?,
            len,
        )?;
    }
    for spec in opts.get_all("gl-reserve") {
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() != 2 {
            return Err(err(format!("--gl-reserve {spec:?}: expected OUT:PCT")));
        }
        let output: usize = parts[0].parse().map_err(|_| err("bad output index"))?;
        let output = port_in_range("gl-reserve", spec, "output", output, radix)?;
        let pct: f64 = parts[1].parse().map_err(|_| err("bad percentage"))?;
        config
            .reservations_mut()
            .reserve_gl(OutputId::new(output), Rate::new(pct / 100.0)?)?;
    }

    if !opts.flag("csv") {
        println!("config: {config}");
    }
    let mut switch = QosSwitch::new(config)?;
    if opts.get("capture").is_some() {
        switch.set_delivery_log(true);
    }
    if let Some(path) = opts.get("replay") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| err(format!("reading trace {path:?}: {e}")))?;
        let trace = text
            .parse::<TraceFile>()
            .map_err(|e| err(format!("{path}:{}: {}", e.line(), e.message())))?;
        for injector in trace.into_injectors()? {
            switch.add_injector(injector);
        }
    }
    if tracing {
        ensure_parent(trace_out)?;
        let file = std::fs::File::create(trace_out)
            .map_err(|e| err(format!("creating {trace_out:?}: {e}")))?;
        switch
            .tracer_mut()
            .attach_jsonl(Box::new(std::io::BufWriter::new(file)));
    }
    if flight {
        switch.tracer_mut().attach_ring(flight_capacity.max(1));
    }
    switch.set_gl_wait_bound(gl_bound);
    let mut probe = (metrics_interval > 0).then(|| MetricsProbe::new(metrics_interval));
    for (n, spec) in opts.get_all("flow").enumerate() {
        let (input, output, class, rate, len) = parse_flow(spec)?;
        let input = port_in_range("flow", spec, "input", input, radix)?;
        let output = port_in_range("flow", spec, "output", output, radix)?;
        let source: Box<dyn swizzle_qos::traffic::TrafficSource + Send + Sync> = match rate {
            None => Box::new(Saturating::new(len)),
            Some(r) => Box::new(Bernoulli::new(r, len, 0x55_u64 + n as u64)),
        };
        switch.add_injector(
            Injector::new(
                source,
                Box::new(FixedDest::new(OutputId::new(output))),
                class,
            )
            .for_input(InputId::new(input)),
        );
    }

    // Preflight: refuse to simulate a configuration whose guarantees
    // cannot hold; surface warnings either way.
    let report = switch.preflight();
    if !report.is_empty() && !opts.flag("csv") {
        print!("{report}");
    }
    if report.has_errors() {
        return Err(err("static analysis found errors; configuration refused"));
    }

    let mut vcd = match opts.get("vcd") {
        Some(path) => {
            let file =
                std::fs::File::create(path).map_err(|e| err(format!("creating {path:?}: {e}")))?;
            Some(SwitchVcdRecorder::new(
                std::io::BufWriter::new(file),
                &switch,
            )?)
        }
        None => None,
    };

    // One schedule, one runner, one call.
    let schedule = Schedule::new(Cycles::new(warmup), Cycles::new(cycles));
    let monitored = flight || gl_bound.is_some();
    if profiling {
        // Armed before the run: `begin_measurement` zeroes the phase
        // totals with every other statistic, so warm-up never shows.
        switch.prof_arm(1);
    }
    // A plain run's probes sample the measured phase; a monitored run's
    // record from cycle 0, so a trip during warm-up still has its
    // series in the post-mortem.
    let probes_from = if monitored {
        Cycle::ZERO
    } else {
        Cycle::ZERO + schedule.warmup()
    };
    let probed = vcd.is_some() || probe.is_some();
    let mut vcd_error: Option<std::io::Error> = None;
    let observe = |sw: &QosSwitch, at: Cycle| {
        if at < probes_from {
            return;
        }
        if let Some(rec) = &mut vcd {
            if let Err(e) = rec.sample(sw, at) {
                vcd_error.get_or_insert(e);
            }
        }
        if let Some(p) = &mut probe {
            p.observe(sw, at);
        }
    };
    let mode = if monitored {
        // The watchdog trips on a stall, a violated GL bound, or (via
        // the unwind hook below) a debug assertion, and the flight
        // recorder dumps its history to results/.
        Mode::Monitored(Cycles::new(stall_window.max(1)), observe)
    } else if probed {
        Mode::Probed(observe)
    } else {
        Mode::Plain
    };
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_schedule(engine, schedule, &mut switch, mode)
    }));
    let dump = |switch: &mut QosSwitch,
                probe: &Option<MetricsProbe>,
                name: &str,
                reason: &str,
                at: u64| {
        switch.tracer_mut().flush();
        let events = switch
            .tracer()
            .ring()
            .map(RingSink::events)
            .unwrap_or_default();
        flight::write_post_mortem(
            std::path::Path::new("results"),
            name,
            at,
            reason,
            at,
            &events,
            probe.as_ref().map(|p| &p.registry),
        )
    };
    let outcome = match caught {
        Ok(outcome) => outcome,
        Err(panic) => {
            if monitored {
                let at = switch.now_hint().value();
                match dump(
                    &mut switch,
                    &probe,
                    "panic",
                    "panic during simulation (failed debug assertion?)",
                    at,
                ) {
                    Ok(path) => eprintln!("flight recorder dumped to {}", path.display()),
                    Err(e) => eprintln!("flight recorder dump failed: {e}"),
                }
            }
            std::panic::resume_unwind(panic);
        }
    };
    if let Some(e) = vcd_error {
        return Err(err(format!("writing vcd: {e}")));
    }
    let now = match outcome {
        MonitorOutcome::Completed(at) => at,
        MonitorOutcome::Tripped { at, reason } => {
            let path = dump(&mut switch, &probe, "trip", &reason, at.value())
                .map_err(|e| err(format!("writing post-mortem: {e}")))?;
            return Err(err(format!(
                "run tripped at {at}: {reason}\npost-mortem written to {}",
                path.display()
            )));
        }
    };
    if let Some(rec) = &mut vcd {
        rec.flush()?;
    }
    switch.tracer_mut().flush();
    if let Some(e) = switch.tracer().jsonl().and_then(|j| j.io_error()) {
        return Err(err(format!("writing trace {trace_out:?}: {e}")));
    }
    if tracing && !opts.flag("csv") {
        println!("event trace written to {trace_out}");
    }
    if let Some(p) = &probe {
        ensure_parent(metrics_out)?;
        let table = p.registry.to_table();
        let rendered = if metrics_out.ends_with(".json") {
            table.to_json()
        } else {
            table.to_csv()
        };
        std::fs::write(metrics_out, rendered)
            .map_err(|e| err(format!("writing metrics {metrics_out:?}: {e}")))?;
        if !opts.flag("csv") {
            println!(
                "metrics time series ({} samples) written to {metrics_out}",
                p.registry.samples()
            );
        }
    }
    if let Some(path) = opts.get("capture") {
        let events: Vec<TraceEvent> = switch
            .drain_deliveries()
            .into_iter()
            .map(|(_, spec)| TraceEvent {
                cycle: spec.created().value(),
                input: spec.flow().input(),
                output: spec.flow().output(),
                class: spec.class(),
                len_flits: spec.len_flits(),
            })
            .collect();
        let trace = TraceFile::from_events(events);
        std::fs::write(path, trace.to_string())
            .map_err(|e| err(format!("writing capture {path:?}: {e}")))?;
        println!("captured {} delivered packets to {path}", trace.len());
    }

    // Report.
    let mut table = Table::with_columns(&[
        "flow",
        "class",
        "packets",
        "throughput (flits/cycle)",
        "mean latency",
        "max latency",
    ]);
    table.numeric();
    for i in 0..radix {
        for o in 0..radix {
            let flow = FlowId::new(InputId::new(i), OutputId::new(o));
            for (label, metrics) in [
                ("BE", switch.be_metrics()),
                ("GB", switch.gb_metrics()),
                ("GL", switch.gl_metrics()),
            ] {
                let m = metrics.flow(flow);
                if m.packets() == 0 {
                    continue;
                }
                table.row(vec![
                    flow.to_string(),
                    label.to_owned(),
                    m.packets().to_string(),
                    format!("{:.4}", m.throughput(now)),
                    format!("{:.1}", m.mean_latency()),
                    m.max_latency().unwrap_or(0).to_string(),
                ]);
            }
        }
    }
    if opts.flag("csv") {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_text());
        let c = switch.counters();
        println!(
            "\noffered {} / accepted {} / delivered {} packets; dropped {}, demoted {}, chained {}",
            c.offered_packets,
            c.accepted_packets,
            c.delivered_packets,
            c.dropped_packets,
            c.demoted_packets,
            c.chained_packets,
        );
    }
    if profiling && !opts.flag("csv") {
        println!("\ncycle-phase profile (prepare/decide/commit):");
        print!("{}", switch.prof_report().render_text());
        let work = switch.injection_work();
        println!(
            "injection work (exact, measured window): {} source polls, {} staging probes, \
             {} arrival-block refills",
            work.polls, work.probes, work.refills
        );
        let visited = switch.outputs_visited();
        println!(
            "output work (exact, measured window): {visited} outputs visited, {:.2} of {radix} per cycle",
            visited as f64 / cycles as f64
        );
    }
    Ok(())
}
