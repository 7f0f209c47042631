//! `ssq` — command-line front end to the swizzle-qos simulator.
//!
//! ```text
//! ssq simulate --radix 8 --policy ssvc-subtract \
//!     --reserve 0:0:40 --reserve 1:0:20 \
//!     --flow 0:0:GB:sat --flow 1:0:GB:sat --cycles 50000
//! ssq gl-bound --l-max 8 --l-min 1 --n-gl 4 --buffer 4
//! ssq gl-burst --l-max 8 --constraints 150,300,600
//! ssq storage --radix 64 --width 512
//! ssq frequency
//! ```
//!
//! Run `ssq help` (or any subcommand with `--help`) for the full option
//! list.

use std::error::Error;
use std::fmt;
use std::io::BufRead;
use std::process::ExitCode;

use swizzle_qos::arbiter::CounterPolicy;
use swizzle_qos::check::trace::{analyze_trace_settings, TraceSettings};
use swizzle_qos::core::gl::{burst_budgets, latency_bound, GlScenario};
use swizzle_qos::core::vcd::SwitchVcdRecorder;
use swizzle_qos::core::{Policy, Preflight, QosSwitch, SwitchConfig};
use swizzle_qos::physical::{DelayModel, StorageModel, TABLE2_RADICES, TABLE2_WIDTHS};
use swizzle_qos::sim::{
    with_engine, BitparRunner, CycleModel, EventModel, MonitorOutcome, ParRunner, Runner, Schedule,
};
use swizzle_qos::stats::Table;
use swizzle_qos::trace::{flight, Event, MetricsRegistry, RingSink, TraceSummary};
use swizzle_qos::traffic::{Bernoulli, FixedDest, Injector, Saturating, TraceEvent, TraceFile};
use swizzle_qos::types::{Cycle, Cycles, FlowId, Geometry, InputId, OutputId, Rate, TrafficClass};

/// CLI-level error with a user-facing message.
#[derive(Debug)]
struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for CliError {}

fn err(message: impl Into<String>) -> Box<dyn Error> {
    Box::new(CliError(message.into()))
}

const USAGE: &str = "\
ssq — quality-of-service for a high-radix switch (DAC 2014 reproduction)

USAGE:
  ssq simulate [OPTIONS]     run a switch simulation and print per-flow results
                             (a leading --option implies `simulate`)
  ssq trace-report [OPTIONS] summarize a JSONL event trace (grant latency
                             percentiles, inhibits, decay epochs, rejects)
  ssq verify [--deep]        model-check the arbitration pipeline: enumerate
                             every reachable state of a small switch and
                             check the V1-V6 invariant catalog (SSQV00x);
                             --deep adds the bounded 4x4 battery
  ssq faults [OPTIONS]       run the single-fault chaos-campaign catalog and
                             judge every scenario against the two-outcome
                             contract: bounds preserved, or a structured
                             revocation — never a silent violation
  ssq net [OPTIONS]          run the multi-hop chaos catalog: fabrics of QoS
                             switches under topology faults (dead links,
                             MTBF flaps, node partitions), judged end to
                             end by the per-hop/whole-path oracle
  ssq perf-report [OPTIONS]  render the cross-PR perf trajectory from the
                             recorded results/BENCH_<n>.json documents
  ssq gl-bound [OPTIONS]     evaluate the Eq. 1 worst-case GL waiting bound
  ssq gl-burst [OPTIONS]     evaluate the Eqs. 2-3 burst budgets
  ssq storage  [OPTIONS]     print the Table 1 storage model
  ssq frequency              print the Table 2 frequency model
  ssq help                   show this message

SIMULATE OPTIONS:
  --radix N               switch radix (default 8)
  --width BITS            output channel width in bits (default 128)
  --policy NAME           lrg | ssvc-subtract | ssvc-halve | ssvc-reset |
                          vc | gsf | wrr | dwrr | wfq | four-level
                          (default ssvc-subtract)
  --cycles N              measured cycles (default 50000)
  --warmup N              warm-up cycles (default 5000)
  --engine NAME           execution engine: seq (default); par, the
                          sharded parallel engine; or bitpar, the
                          word-wide engine with idle skipping — both
                          bit-identical to seq
  --threads N             worker threads for --engine par (default: the
                          machine's available parallelism)
  --reserve IN:OUT:PCT[:LEN]   GB reservation, PCT of the output's bandwidth
                               for IN's packets of LEN flits (LEN default 8)
  --gl-reserve OUT:PCT    GL class reservation at OUT
  --flow IN:OUT:CLASS:RATE[:LEN]  traffic: CLASS in {BE,GB,GL}; RATE is
                               flits/cycle or 'sat' for saturating
  --replay FILE           replay a traffic trace instead of --flow traffic
  --chaining              enable packet chaining
  --gl-policing           enable the GL usage policer
  --fabric-check          verify every SSVC/GL arbitration against the
                          bit-level inhibit fabric (panics on divergence)
  --vcd FILE              dump a waveform of the run
  --capture FILE          write delivered packets as a replayable trace
  --csv                   emit the report as CSV

OBSERVABILITY OPTIONS (simulate):
  --trace                 emit one JSONL event per arbitration decision,
                          grant, inhibit, auxVC update, decay epoch, GL
                          dispatch, and admission rejection
  --trace-out FILE        JSONL destination (default results/trace.jsonl)
  --metrics-interval N    snapshot switch metrics every N cycles into a
                          time series (0 = off)
  --metrics-out FILE      time-series destination (default
                          results/metrics.csv; .json extension switches
                          the format)
  --flight-recorder       keep the last --flight-capacity events in a
                          ring and dump them (with metrics) to results/
                          on a stall, a violated GL bound, or a panic
  --flight-capacity N     flight-recorder ring size (default 4096)
  --stall-window N        cycles of pending-but-stuck work before the
                          watchdog trips (default 10000)
  --gl-bound N            arm the GL wait watchdog at N cycles (Eq. 1)
  --prof                  time every measured cycle's phases and print the
                          prepare/decide/commit (seq, bitpar: the cycles
                          idle skipping still executes) or gather/decide/
                          merge (par) breakdown; needs a build with
                          `--features prof`, and is incompatible with the
                          monitored modes (--flight-recorder, --gl-bound)

PERF-REPORT OPTIONS:
  --results DIR           directory holding BENCH_<n>.json (default results)
  --csv                   emit the trajectory table as CSV

TRACE-REPORT OPTIONS:
  --in FILE               JSONL trace to summarize (default
                          results/trace.jsonl)
  --csv                   emit the grant-latency table as CSV

FAULTS OPTIONS:
  --smoke                 run the whole catalog (the default; this is the
                          fault smoke tier scripts/check.sh invokes)
  --scenario NAME         run one catalog scenario by name
  --seed N                campaign seed; MTBF-mode schedules replay
                          bit-identically from it (default 7)
  --trace-dir DIR         write each scenario's event trace to
                          DIR/<scenario>.jsonl
  --csv                   emit the verdict table as CSV

NET OPTIONS:
  --smoke                 run the whole catalog, each scenario twice from
                          the same seed as a determinism differential
                          (the default; scripts/check.sh invokes this)
  --scenario NAME         run one catalog scenario by name
  --seed N                campaign seed; MTBF schedules and NACK jitter
                          replay bit-identically from it (default 7)
  --trace-dir DIR         write each scenario's fabric hop events to
                          DIR/<scenario>.jsonl and each node's ring to
                          DIR/<scenario>.node<i>.jsonl
  --csv                   emit the verdict table as CSV

GL-BOUND OPTIONS:
  --l-max N --l-min N --n-gl N --buffer N   (defaults 8, 1, 1, 4)

GL-BURST OPTIONS:
  --l-max N --constraints L1,L2,...   latency constraints, tightest first

STORAGE OPTIONS:
  --radix N --width BITS --flit-bytes N --buffer-flits N
  (defaults: the paper's 64 / 512 / 64 / 4)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `ssq help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), Box<dyn Error>> {
    match args.first().map(String::as_str) {
        Some("simulate") => simulate(&args[1..]),
        Some("trace-report") => trace_report(&args[1..]),
        Some("perf-report") => perf_report(&args[1..]),
        // A leading option means `simulate` was implied:
        // `ssq --trace --flow 0:0:GB:sat` just works.
        Some(leading) if leading.starts_with("--") && leading != "--help" => simulate(args),
        Some("verify") => verify(&args[1..]),
        Some("faults") => faults_cmd(&args[1..]),
        Some("net") => net_cmd(&args[1..]),
        Some("gl-bound") => gl_bound(&args[1..]),
        Some("gl-burst") => gl_burst(&args[1..]),
        Some("storage") => storage(&args[1..]),
        Some("frequency") => {
            frequency();
            Ok(())
        }
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(err(format!("unknown subcommand {other:?}"))),
    }
}

/// A parsed option stream: `--key value` pairs plus boolean flags.
struct Opts {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Opts {
    fn parse(args: &[String], flag_names: &[&str]) -> Result<Self, Box<dyn Error>> {
        let mut pairs = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(err(format!("unexpected argument {arg:?}")));
            };
            if key == "help" {
                return Err(err("help requested"));
            }
            if flag_names.contains(&key) {
                flags.push(key.to_owned());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| err(format!("--{key} needs a value")))?;
            pairs.push((key.to_owned(), value.clone()));
        }
        Ok(Opts { pairs, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_all<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.pairs
            .iter()
            .filter(move |(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num(&self, key: &str, default: u64) -> Result<u64, Box<dyn Error>> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("--{key}: invalid number {v:?}"))),
        }
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

fn parse_policy(name: &str) -> Result<Policy, Box<dyn Error>> {
    Ok(match name {
        "lrg" => Policy::LrgOnly,
        "ssvc-subtract" => Policy::Ssvc(CounterPolicy::SubtractRealClock),
        "ssvc-halve" => Policy::Ssvc(CounterPolicy::Halve),
        "ssvc-reset" => Policy::Ssvc(CounterPolicy::Reset),
        "vc" => Policy::ExactVirtualClock,
        "gsf" => Policy::Gsf,
        "wrr" => Policy::Wrr,
        "dwrr" => Policy::Dwrr,
        "wfq" => Policy::Wfq,
        "four-level" => Policy::FourLevel,
        other => return Err(err(format!("unknown policy {other:?}"))),
    })
}

fn parse_class(name: &str) -> Result<TrafficClass, Box<dyn Error>> {
    Ok(match name {
        "BE" | "be" => TrafficClass::BestEffort,
        "GB" | "gb" => TrafficClass::GuaranteedBandwidth,
        "GL" | "gl" => TrafficClass::GuaranteedLatency,
        other => return Err(err(format!("unknown class {other:?}"))),
    })
}

/// `IN:OUT:PCT[:LEN]`
fn parse_reserve(spec: &str) -> Result<(usize, usize, f64, u64), Box<dyn Error>> {
    let parts: Vec<&str> = spec.split(':').collect();
    if !(3..=4).contains(&parts.len()) {
        return Err(err(format!(
            "--reserve {spec:?}: expected IN:OUT:PCT[:LEN]"
        )));
    }
    let input: usize = parts[0].parse().map_err(|_| err("bad input index"))?;
    let output: usize = parts[1].parse().map_err(|_| err("bad output index"))?;
    let pct: f64 = parts[2].parse().map_err(|_| err("bad percentage"))?;
    let len: u64 = parts
        .get(3)
        .map_or(Ok(8), |s| s.parse().map_err(|_| err("bad packet length")))?;
    Ok((input, output, pct / 100.0, len))
}

/// Parsed `--flow` spec: input, output, class, rate (None = saturating),
/// and packet length.
type FlowSpec = (usize, usize, TrafficClass, Option<f64>, u64);

/// `IN:OUT:CLASS:RATE[:LEN]`
fn parse_flow(spec: &str) -> Result<FlowSpec, Box<dyn Error>> {
    let parts: Vec<&str> = spec.split(':').collect();
    if !(4..=5).contains(&parts.len()) {
        return Err(err(format!(
            "--flow {spec:?}: expected IN:OUT:CLASS:RATE[:LEN]"
        )));
    }
    let input: usize = parts[0].parse().map_err(|_| err("bad input index"))?;
    let output: usize = parts[1].parse().map_err(|_| err("bad output index"))?;
    let class = parse_class(parts[2])?;
    let rate = if parts[3] == "sat" {
        None
    } else {
        Some(parts[3].parse().map_err(|_| err("bad rate"))?)
    };
    let len: u64 = parts
        .get(4)
        .map_or(Ok(8), |s| s.parse().map_err(|_| err("bad packet length")))?;
    Ok((input, output, class, rate, len))
}

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

#[allow(clippy::too_many_lines)]
fn simulate(args: &[String]) -> Result<(), Box<dyn Error>> {
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
    let warmup = opts.num("warmup", 5_000)?;
    let policy = parse_policy(opts.get("policy").unwrap_or("ssvc-subtract"))?;
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum EngineChoice {
        Seq,
        Par,
        Bitpar,
    }
    let engine = match opts.get("engine").unwrap_or("seq") {
        "seq" => EngineChoice::Seq,
        "par" => EngineChoice::Par,
        "bitpar" => EngineChoice::Bitpar,
        other => {
            return Err(err(format!(
                "--engine: expected seq, par, or bitpar, got {other:?}"
            )))
        }
    };
    let parallel = engine == EngineChoice::Par;
    let threads = match opts.num("threads", 0)? as usize {
        0 => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        n => n,
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
    if profiling && (flight || gl_bound.is_some()) {
        return Err(err(
            "--prof times the plain measurement loop; drop --flight-recorder/--gl-bound \
             (the monitored runner arms its own schedule, so the phase \
             breakdown would mix warm-up into the accumulators)",
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
            InputId::new(input),
            OutputId::new(output),
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

    // Run, optionally with a VCD probe (which requires the manual loop).
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
    let now;
    // The parallel engine's stage profile must be read out before the
    // engine (and its workers) wind down at the end of `with_engine`.
    let mut par_prof: Option<swizzle_qos::prof::ProfReport> = None;
    if flight || gl_bound.is_some() {
        // Monitored run: the watchdog trips on a stall, a violated GL
        // bound, or (via the unwind hook below) a debug assertion, and
        // the flight recorder dumps its history to results/.
        let mut vcd_error: Option<std::io::Error> = None;
        let schedule = Schedule::new(Cycles::new(warmup), Cycles::new(cycles));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let observe = |sw: &QosSwitch, at: Cycle| {
                if let Some(rec) = &mut vcd {
                    if let Err(e) = rec.sample(sw, at) {
                        vcd_error.get_or_insert(e);
                    }
                }
                if let Some(p) = &mut probe {
                    p.observe(sw, at);
                }
            };
            match engine {
                EngineChoice::Par => ParRunner::new(schedule, threads).run_monitored(
                    &mut switch,
                    Cycles::new(stall_window.max(1)),
                    observe,
                ),
                // Monitored bitpar runs are dense (the watchdog is
                // defined per executed cycle) but keep the fast path.
                EngineChoice::Bitpar => BitparRunner::new(schedule).run_monitored(
                    &mut switch,
                    Cycles::new(stall_window.max(1)),
                    observe,
                ),
                EngineChoice::Seq => Runner::new(schedule).run_monitored(
                    &mut switch,
                    Cycles::new(stall_window.max(1)),
                    observe,
                ),
            }
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
                std::panic::resume_unwind(panic);
            }
        };
        if let Some(e) = vcd_error {
            return Err(err(format!("writing vcd: {e}")));
        }
        match outcome {
            MonitorOutcome::Completed(at) => now = at,
            MonitorOutcome::Tripped { at, reason } => {
                let path = dump(&mut switch, &probe, "trip", &reason, at.value())
                    .map_err(|e| err(format!("writing post-mortem: {e}")))?;
                return Err(err(format!(
                    "run tripped at cycle {at}: {reason}\npost-mortem written to {}",
                    path.display()
                )));
            }
        }
    } else if parallel {
        // The same manual loop, on the sharded engine: workers persist
        // across cycles and park while the probes observe the model.
        let mut vcd_error: Option<std::io::Error> = None;
        let (end, _load) = with_engine(threads, &mut switch, |engine| {
            let mut at = Cycle::ZERO;
            for _ in 0..warmup {
                engine.step(at);
                at = at.next();
            }
            engine.with_model(|m| m.begin_measurement(at));
            if profiling {
                // Arm at the measurement boundary so warm-up never
                // lands in the stage accumulators.
                engine.prof_arm(1);
            }
            for _ in 0..cycles {
                engine.step(at);
                engine.with_model(|m| {
                    if let Some(rec) = &mut vcd {
                        if let Err(e) = rec.sample(m, at) {
                            vcd_error.get_or_insert(e);
                        }
                    }
                    if let Some(p) = &mut probe {
                        p.observe(m, at);
                    }
                });
                at = at.next();
            }
            par_prof = engine.prof_report();
            at
        });
        if let Some(e) = vcd_error {
            return Err(err(format!("writing vcd: {e}")));
        }
        now = end;
    } else if engine == EngineChoice::Bitpar {
        if vcd.is_some() || probe.is_some() {
            // Probes sample per executed cycle, so idle skipping would
            // change what they record; keep the word-wide fast path but
            // step densely.
            let mut at = Cycle::ZERO;
            for _ in 0..warmup {
                switch.step_fast(at);
                at = at.next();
            }
            switch.begin_measurement(at);
            if profiling {
                switch.prof_arm(1);
            }
            for _ in 0..cycles {
                switch.step_fast(at);
                if let Some(rec) = &mut vcd {
                    rec.sample(&switch, at)?;
                }
                if let Some(p) = &mut probe {
                    p.observe(&switch, at);
                }
                at = at.next();
            }
            now = at;
        } else if profiling {
            // `BitparRunner::run`'s loop, spelled out so the profiler
            // arms at the measurement boundary; skipped cycles execute
            // no phase, so the breakdown covers the stepped ones.
            let warm_end = Cycle::ZERO + Cycles::new(warmup);
            let mut at = Cycle::ZERO;
            for phase_end in [warm_end, warm_end + Cycles::new(cycles)] {
                while at < phase_end {
                    let next = switch.skip_idle(at, phase_end);
                    if next > at {
                        at = next;
                    } else {
                        switch.step_fast(at);
                        at = at.next();
                    }
                }
                if phase_end == warm_end {
                    switch.begin_measurement(at);
                    switch.prof_arm(1);
                }
            }
            now = at;
        } else {
            let schedule = Schedule::new(Cycles::new(warmup), Cycles::new(cycles));
            now = BitparRunner::new(schedule).run(&mut switch);
        }
    } else {
        let mut at = Cycle::ZERO;
        for _ in 0..warmup {
            switch.step(at);
            at = at.next();
        }
        switch.begin_measurement(at);
        if profiling {
            // Arm at the measurement boundary so warm-up never lands in
            // the phase accumulators.
            switch.prof_arm(1);
        }
        for _ in 0..cycles {
            switch.step(at);
            if let Some(rec) = &mut vcd {
                rec.sample(&switch, at)?;
            }
            if let Some(p) = &mut probe {
                p.observe(&switch, at);
            }
            at = at.next();
        }
        now = at;
    }
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
        let report = if parallel {
            par_prof
        } else {
            switch.prof_report()
        };
        match report {
            Some(r) => {
                if parallel {
                    println!("\nengine stage profile (gather/decide/merge):");
                } else {
                    println!("\ncycle-phase profile (prepare/decide/commit):");
                }
                print!("{}", r.render_text());
            }
            None => println!(
                "\n--prof: this build compiled the profiler hooks out; rebuild \
                 with `cargo run --features prof --bin ssq -- ...` to get the \
                 phase breakdown"
            ),
        }
    }
    Ok(())
}

fn trace_report(args: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = Opts::parse(args, &["csv"])?;
    let path = opts.get("in").unwrap_or("results/trace.jsonl");
    let file =
        std::fs::File::open(path).map_err(|e| err(format!("reading trace {path:?}: {e}")))?;
    // Streamed: one reused line buffer feeds the summary, so memory is
    // the summary's, not the trace's.
    let mut reader = std::io::BufReader::with_capacity(1 << 16, file);
    let mut summary = TraceSummary::default();
    let mut line = String::new();
    let mut n = 0u64;
    loop {
        line.clear();
        n += 1;
        // A line that is not UTF-8 (a binary blob) is an `InvalidData` error.
        let read = reader.read_line(&mut line);
        if read.map_err(|e| err(format!("{path}:{n}: {e}")))? == 0 {
            break;
        }
        if line.trim().is_empty() {
            continue;
        }
        summary.ingest(&Event::from_jsonl(&line).map_err(|e| err(format!("{path}:{n}: {e}")))?);
    }
    if opts.flag("csv") {
        print!("{}", summary.grant_table().to_csv());
        return Ok(());
    }
    match summary.span {
        Some((lo, hi)) => println!("{} events over cycles {lo}..={hi} ({path})", summary.events),
        None => {
            println!("empty trace ({path})");
            return Ok(());
        }
    }
    println!("\nper-flow grant latency (cycles):");
    print!("{}", summary.grant_table().to_text());
    if !summary.inhibits.is_empty() {
        println!("\ninhibits and auxVC saturations:");
        print!("{}", summary.contention_table().to_text());
    }
    if !summary.decay_epochs.is_empty() || !summary.gl_policed_cycles.is_empty() {
        println!("\nper-output decay epochs / policed cycles:");
        print!("{}", summary.output_table().to_text());
    }
    if !summary.rejects.is_empty() {
        println!("\nadmission rejections:");
        print!("{}", summary.reject_table().to_text());
    }
    Ok(())
}

/// `ssq perf-report [--results DIR] [--csv]`: parse every recorded
/// `BENCH_<n>.json` under the results directory and render the cross-PR
/// perf trajectory (throughput, decide fraction) as one table.
fn perf_report(args: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = Opts::parse(args, &["csv"])?;
    let dir = opts.get("results").unwrap_or("results");
    let found = swizzle_qos::prof::find_benches(std::path::Path::new(dir));
    if found.is_empty() {
        return Err(err(format!(
            "no BENCH_<n>.json documents under {dir:?}; record one with \
             `cargo run --release -p xtask -- bench --json`"
        )));
    }
    let mut docs = Vec::new();
    for (_, path) in &found {
        let text = std::fs::read_to_string(path)
            .map_err(|e| err(format!("reading {}: {e}", path.display())))?;
        docs.push(
            swizzle_qos::prof::BenchDoc::parse(&text)
                .map_err(|e| err(format!("{}: {e}", path.display())))?,
        );
    }
    let table = swizzle_qos::prof::trajectory_table(&docs);
    if opts.flag("csv") {
        print!("{}", table.to_csv());
        return Ok(());
    }
    println!(
        "perf trajectory: {} document(s), PR {} to {} ({dir}/BENCH_<n>.json)",
        docs.len(),
        found.first().map_or(0, |(n, _)| *n),
        found.last().map_or(0, |(n, _)| *n),
    );
    print!("{}", table.to_text());
    println!(
        "\nphases are wall-clock per measured cycle; amdahl rows in the \
         documents are labelled projections, not measurements"
    );
    Ok(())
}

/// `ssq verify [--deep]`: run the bounded exhaustive model checker over
/// the fast-tier (and optionally deep-tier) scenario batteries. Exits
/// with an error — printing the minimal counterexample as replayable
/// ssq-trace JSONL — on the first invariant violation.
fn verify(args: &[String]) -> Result<(), Box<dyn Error>> {
    let mut deep = false;
    for arg in args {
        match arg.as_str() {
            "--deep" => deep = true,
            other => return Err(err(format!("unknown verify flag {other:?}"))),
        }
    }

    let mut batteries = vec![("fast", swizzle_qos::verify::tier::fast_scenarios())];
    if deep {
        batteries.push(("deep", swizzle_qos::verify::tier::deep_scenarios()));
    }
    for (tier, scenarios) in batteries {
        let started = std::time::Instant::now();
        let count = scenarios.len();
        let (mut states, mut transitions) = (0usize, 0u64);
        for scenario in scenarios {
            let outcome = swizzle_qos::verify::verify_scenario(&scenario);
            states += outcome.states;
            transitions += outcome.transitions;
            println!(
                "verify[{tier}] {:<28} {:>7} states {:>8} transitions {}",
                outcome.scenario,
                outcome.states,
                outcome.transitions,
                if outcome.closed { "closed" } else { "clipped" },
            );
            if let Some(cx) = outcome.violation {
                println!("counterexample trace (ssq-trace JSONL):");
                println!("{}", cx.to_jsonl());
                return Err(err(format!(
                    "{}: invariant {} ({}) violated at depth {}: {}",
                    outcome.scenario,
                    cx.invariant,
                    cx.code,
                    cx.depth(),
                    cx.detail,
                )));
            }
        }
        println!(
            "verify[{tier}] clean: {count} scenarios, {states} states, {transitions} transitions \
             in {:.2}s",
            started.elapsed().as_secs_f64(),
        );
    }
    Ok(())
}

/// Writes `events` to `path` as JSONL, the `--trace-dir` export of
/// `ssq faults` and `ssq net`.
fn write_trace(path: &std::path::Path, events: &[Event]) -> Result<(), Box<dyn Error>> {
    let mut text = Vec::new();
    for event in events {
        event.write_jsonl(&mut text);
        text.push(b'\n');
    }
    std::fs::write(path, text).map_err(|e| err(format!("writing {}: {e}", path.display())))
}

/// `ssq faults [--smoke | --scenario NAME] [--seed N] [--trace-dir DIR]`:
/// run the chaos-campaign catalog (or one scenario) and judge each run
/// with the two-outcome oracle. Exits non-zero on a silent violation —
/// a tripped watchdog with no revocation or degradation on record.
fn faults_cmd(args: &[String]) -> Result<(), Box<dyn Error>> {
    use swizzle_qos::faults::{run_scenario, run_smoke, Verdict, SCENARIOS};

    let opts = Opts::parse(args, &["smoke", "csv"])?;
    let seed = opts.num("seed", 7)?;
    let results = match opts.get("scenario") {
        Some(name) => {
            let result = run_scenario(name, seed).ok_or_else(|| {
                let names: Vec<&str> = SCENARIOS.iter().map(|(n, _)| *n).collect();
                err(format!(
                    "unknown scenario {name:?}; catalog: {}",
                    names.join(", ")
                ))
            })?;
            vec![result]
        }
        None => run_smoke(seed),
    };

    if let Some(dir) = opts.get("trace-dir") {
        std::fs::create_dir_all(dir).map_err(|e| err(format!("creating {dir:?}: {e}")))?;
        for r in &results {
            let path = std::path::Path::new(dir).join(format!("{}.jsonl", r.name));
            write_trace(&path, &r.events)?;
        }
        if !opts.flag("csv") {
            println!("scenario traces written to {dir}/<scenario>.jsonl");
        }
    }

    let mut table = Table::with_columns(&[
        "scenario",
        "verdict",
        "detected",
        "degraded",
        "revoked",
        "faults",
        "delivered flits",
    ]);
    table.numeric();
    for r in &results {
        let (verdict, detected, degraded, revoked) = match &r.verdict {
            Verdict::BoundsPreserved => ("bounds-preserved".to_owned(), 0, 0, 0),
            Verdict::Revoked {
                revocations,
                degradations,
                detections,
            } => (
                "revoked".to_owned(),
                *detections,
                *degradations,
                *revocations,
            ),
            Verdict::SilentViolation { reason } => (format!("SILENT VIOLATION: {reason}"), 0, 0, 0),
        };
        table.row(vec![
            r.name.clone(),
            verdict,
            detected.to_string(),
            degraded.to_string(),
            revoked.to_string(),
            r.fault_injections.to_string(),
            r.delivered_flits.to_string(),
        ]);
    }
    if opts.flag("csv") {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_text());
        for r in &results {
            for note in &r.notes {
                println!("note[{}]: {note}", r.name);
            }
        }
    }

    let silent: Vec<&str> = results
        .iter()
        .filter(|r| !r.verdict.is_acceptable())
        .map(|r| r.name.as_str())
        .collect();
    if !silent.is_empty() {
        return Err(err(format!(
            "silent violation in scenario(s): {} — a guarantee broke with no \
             structured revocation on record",
            silent.join(", ")
        )));
    }
    if !opts.flag("csv") {
        println!(
            "\ncampaign clean: {} scenario(s), seed {seed} — every fault either \
             absorbed or loudly revoked",
            results.len()
        );
    }
    Ok(())
}

/// `ssq net [--smoke | --scenario NAME] [--seed N] [--trace-dir DIR]`:
/// run the multi-hop chaos catalog (or one scenario) and judge each run
/// with the end-to-end oracle. The smoke tier runs every scenario twice
/// from the same seed; any divergence is reported as a silent
/// violation. Exits non-zero if any scenario's verdict is unacceptable.
fn net_cmd(args: &[String]) -> Result<(), Box<dyn Error>> {
    use swizzle_qos::faults::Verdict;
    use swizzle_qos::net::{run_net_scenario, run_net_smoke, NET_SCENARIOS};

    let opts = Opts::parse(args, &["smoke", "csv"])?;
    let seed = opts.num("seed", 7)?;
    let results = match opts.get("scenario") {
        Some(name) => {
            let result = run_net_scenario(name, seed).ok_or_else(|| {
                let names: Vec<&str> = NET_SCENARIOS.iter().map(|(n, _)| *n).collect();
                err(format!(
                    "unknown scenario {name:?}; catalog: {}",
                    names.join(", ")
                ))
            })?;
            vec![result]
        }
        None => run_net_smoke(seed),
    };

    if let Some(dir) = opts.get("trace-dir") {
        std::fs::create_dir_all(dir).map_err(|e| err(format!("creating {dir:?}: {e}")))?;
        for r in &results {
            let dir = std::path::Path::new(dir);
            write_trace(&dir.join(format!("{}.jsonl", r.name)), &r.fabric_events)?;
            for (i, ring) in r.node_events.iter().enumerate() {
                write_trace(&dir.join(format!("{}.node{i}.jsonl", r.name)), ring)?;
            }
        }
        if !opts.flag("csv") {
            println!("scenario traces written to {dir}/<scenario>[.node<i>].jsonl");
        }
    }

    let mut table = Table::with_columns(&[
        "scenario",
        "verdict",
        "first violation",
        "revoked",
        "dropped",
        "retransmits",
        "reroutes",
        "delivered flits",
    ]);
    table.numeric();
    for r in &results {
        let verdict = match &r.verdict.overall {
            Verdict::BoundsPreserved => "bounds-preserved".to_owned(),
            Verdict::Revoked { .. } => "revoked".to_owned(),
            Verdict::SilentViolation { reason } => format!("SILENT VIOLATION: {reason}"),
        };
        let first = match &r.verdict.first_violation {
            Some((site, at)) => format!("{site}@{at}"),
            None => "-".to_owned(),
        };
        table.row(vec![
            r.name.clone(),
            verdict,
            first,
            r.counters.revocations.to_string(),
            r.counters.dropped_packets.to_string(),
            r.counters.retransmits.to_string(),
            r.counters.reroutes.to_string(),
            r.counters.delivered_flits.to_string(),
        ]);
    }
    if opts.flag("csv") {
        print!("{}", table.to_csv());
    } else {
        print!("{}", table.to_text());
    }

    let silent: Vec<&str> = results
        .iter()
        .filter(|r| !r.verdict.is_acceptable())
        .map(|r| r.name.as_str())
        .collect();
    if !silent.is_empty() {
        return Err(err(format!(
            "silent violation in scenario(s): {} — an end-to-end guarantee \
             broke with no structured revocation on record",
            silent.join(", ")
        )));
    }
    if !opts.flag("csv") {
        println!(
            "\nfabric campaign clean: {} scenario(s), seed {seed} — every topology \
             fault either absorbed or loudly revoked at a named hop",
            results.len()
        );
    }
    Ok(())
}

fn gl_bound(args: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = Opts::parse(args, &[])?;
    let l_max = opts.num("l-max", 8)?;
    let l_min = opts.num("l-min", 1)?;
    let n_gl = opts.num("n-gl", 1)?;
    let buffer = opts.num("buffer", 4)?;
    let scenario = GlScenario::new(l_max, l_min, n_gl, buffer);
    println!("{scenario}");
    println!(
        "Eq. 1: tau_GL <= l_max + N_GL*(b + b/l_min) = {} cycles",
        latency_bound(scenario)
    );
    Ok(())
}

fn gl_burst(args: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = Opts::parse(args, &[])?;
    let l_max = opts.num("l-max", 8)?;
    let constraints: Vec<u64> = opts
        .get("constraints")
        .ok_or_else(|| err("--constraints is required (e.g. 150,300,600)"))?
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<u64>()
                .map_err(|_| err(format!("bad constraint {s:?}")))
        })
        .collect::<Result<_, _>>()?;
    let budgets = burst_budgets(&constraints, l_max);
    let mut t = Table::with_columns(&["flow", "latency constraint", "burst budget (packets)"]);
    t.numeric();
    for (k, (&l, &sigma)) in constraints.iter().zip(&budgets).enumerate() {
        t.row(vec![
            format!("GL{}", k + 1),
            l.to_string(),
            sigma.to_string(),
        ]);
    }
    print!("{t}");
    Ok(())
}

fn storage(args: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = Opts::parse(args, &[])?;
    let radix = opts.num("radix", 64)? as usize;
    let width = opts.num("width", 512)? as usize;
    let flit_bytes = opts.num("flit-bytes", 64)?;
    let buf = opts.num("buffer-flits", 4)?;
    let geometry = Geometry::new(radix, width)?;
    let model = StorageModel::new(geometry, flit_bytes, buf, buf, buf, 11, 8, 8);
    println!("{model}");
    println!(
        "buffering/input: BE {} B, GB {} B, GL {} B; crosspoint state {:.2} B x {} = {} KiB; total {} KiB",
        model.be_buffer_bytes_per_input(),
        model.gb_buffer_bytes_per_input(),
        model.gl_buffer_bytes_per_input(),
        model.crosspoint_bytes(),
        geometry.crosspoints(),
        model.total_crosspoint_bytes() / 1024,
        model.total_bytes() / 1024,
    );
    Ok(())
}

fn frequency() {
    let model = DelayModel::calibrated_32nm();
    let mut t = Table::with_columns(&["radix", "width", "SS (GHz)", "SSVC (GHz)", "slowdown"]);
    t.numeric();
    for &width in &TABLE2_WIDTHS {
        for &radix in &TABLE2_RADICES {
            t.row(vec![
                format!("{radix}x{radix}"),
                width.to_string(),
                format!("{:.2}", model.ss_frequency_ghz(radix, width)),
                format!("{:.2}", model.ssvc_frequency_ghz(radix, width)),
                format!("{:.1}%", model.slowdown(radix, width) * 100.0),
            ]);
        }
    }
    print!("{t}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn opts_parse_pairs_and_flags() {
        let opts = Opts::parse(
            &strs(&[
                "--radix",
                "16",
                "--csv",
                "--reserve",
                "0:0:40",
                "--reserve",
                "1:0:10",
            ]),
            &["csv"],
        )
        .unwrap();
        assert_eq!(opts.get("radix"), Some("16"));
        assert!(opts.flag("csv"));
        assert_eq!(opts.get_all("reserve").count(), 2);
        assert_eq!(opts.num("radix", 8).unwrap(), 16);
        assert_eq!(opts.num("width", 128).unwrap(), 128);
    }

    #[test]
    fn opts_reject_positional_arguments() {
        assert!(Opts::parse(&strs(&["oops"]), &[]).is_err());
        assert!(Opts::parse(&strs(&["--radix"]), &[]).is_err());
    }

    #[test]
    fn reserve_spec_parsing() {
        assert_eq!(parse_reserve("2:0:40").unwrap(), (2, 0, 0.4, 8));
        assert_eq!(parse_reserve("2:0:5:4").unwrap(), (2, 0, 0.05, 4));
        assert!(parse_reserve("2:0").is_err());
        assert!(parse_reserve("a:0:40").is_err());
    }

    #[test]
    fn flow_spec_parsing() {
        let (i, o, class, rate, len) = parse_flow("1:0:GB:sat").unwrap();
        assert_eq!((i, o, len), (1, 0, 8));
        assert_eq!(class, TrafficClass::GuaranteedBandwidth);
        assert_eq!(rate, None);
        let (.., rate, len) = parse_flow("1:0:GL:0.25:1").unwrap();
        assert_eq!(rate, Some(0.25));
        assert_eq!(len, 1);
        assert!(parse_flow("1:0:XX:sat").is_err());
    }

    #[test]
    fn policy_names_resolve() {
        assert_eq!(parse_policy("lrg").unwrap(), Policy::LrgOnly);
        assert_eq!(
            parse_policy("ssvc-reset").unwrap(),
            Policy::Ssvc(CounterPolicy::Reset)
        );
        assert_eq!(parse_policy("four-level").unwrap(), Policy::FourLevel);
        assert!(parse_policy("bogus").is_err());
    }

    #[test]
    fn simulate_end_to_end() {
        // A tiny run through the whole pipeline must succeed.
        let args = strs(&[
            "--radix",
            "4",
            "--cycles",
            "2000",
            "--warmup",
            "200",
            "--reserve",
            "0:0:50:4",
            "--flow",
            "0:0:GB:sat:4",
            "--flow",
            "1:0:BE:0.1:4",
            "--csv",
        ]);
        simulate(&args).unwrap();
    }

    #[test]
    fn traced_simulate_writes_parseable_jsonl_and_reports() {
        let dir = std::env::temp_dir().join(format!("ssq-cli-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.jsonl");
        let metrics = dir.join("m.json");
        let args = strs(&[
            "--radix",
            "4",
            "--cycles",
            "2000",
            "--warmup",
            "200",
            "--reserve",
            "0:0:50:4",
            "--flow",
            "0:0:GB:sat:4",
            "--flow",
            "1:0:BE:0.2:4",
            "--trace",
            "--trace-out",
            trace.to_str().unwrap(),
            "--metrics-interval",
            "500",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--flight-recorder",
            "--csv",
        ]);
        // The leading `--radix` exercises the implicit-simulate path.
        run(&args).unwrap();
        let text = std::fs::read_to_string(&trace).unwrap();
        assert!(text.lines().count() > 100, "traced run produced no events");
        for line in text.lines() {
            Event::from_jsonl(line).unwrap();
        }
        let m = std::fs::read_to_string(&metrics).unwrap();
        assert!(m.starts_with('['), "json metrics expected: {m}");
        assert!(m.contains("\"delivered_flits\""));
        trace_report(&strs(&["--in", trace.to_str().unwrap()])).unwrap();
        trace_report(&strs(&["--in", trace.to_str().unwrap(), "--csv"])).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn profiled_simulate_runs_on_both_engines() {
        // Feature-off builds print the rebuild hint; feature-on builds
        // print the phase table. Either way the run must succeed, on
        // every engine.
        let base = [
            "--radix",
            "4",
            "--cycles",
            "500",
            "--warmup",
            "50",
            "--flow",
            "0:0:BE:0.2:4",
            "--prof",
        ];
        simulate(&strs(&base)).unwrap();
        let mut par = strs(&base);
        par.extend(strs(&["--engine", "par", "--threads", "2"]));
        simulate(&par).unwrap();
        let mut bitpar = strs(&base);
        bitpar.extend(strs(&["--engine", "bitpar"]));
        simulate(&bitpar).unwrap();
        // The monitored runner owns its own schedule, so --prof with a
        // watchdog mode is refused rather than silently mismeasured.
        let mut monitored = strs(&base);
        monitored.push("--flight-recorder".to_owned());
        let e = simulate(&monitored).expect_err("--prof + monitored mode");
        assert!(e.to_string().contains("--prof"), "got: {e}");
    }

    #[test]
    fn perf_report_renders_recorded_trajectory() {
        use swizzle_qos::prof::{BenchCell, BenchDoc, BenchEngine};
        let dir = std::env::temp_dir().join(format!("ssq-cli-perf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let doc = BenchDoc {
            schema: 2,
            pr: 3,
            profile: "release".to_owned(),
            quick: false,
            host_cores: 8,
            par_threads: 2,
            warmup_cycles: 100,
            measure_cycles: 400,
            cells: vec![BenchCell {
                radix: 16,
                load: "saturated".to_owned(),
                decide_fraction: 0.55,
                phases: vec![],
                engines: vec![BenchEngine {
                    engine: "sequential".to_owned(),
                    threads: 1,
                    cycles_per_sec: 125_000.0,
                    delivered_flits: 42,
                }],
                amdahl: vec![],
            }],
        };
        std::fs::write(dir.join("BENCH_3.json"), doc.render()).unwrap();
        let dir_s = dir.to_str().unwrap().to_owned();
        run(&strs(&["perf-report", "--results", &dir_s])).unwrap();
        perf_report(&strs(&["--results", &dir_s, "--csv"])).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let e = perf_report(&strs(&["--results", &dir_s])).expect_err("empty dir");
        assert!(e.to_string().contains("BENCH"), "got: {e}");
    }

    #[test]
    fn armed_gl_bound_of_zero_trips_and_dumps() {
        let args = strs(&[
            "simulate",
            "--radix",
            "4",
            "--cycles",
            "2000",
            "--warmup",
            "100",
            "--gl-reserve",
            "0:10",
            "--flow",
            "0:0:GL:0.05:1",
            "--flow",
            "1:0:BE:sat:8",
            "--flight-recorder",
            "--gl-bound",
            "0",
            "--csv",
        ]);
        let e = run(&args).expect_err("a 0-cycle GL bound cannot hold");
        assert!(e.to_string().contains("post-mortem"), "got: {e}");
    }

    #[test]
    fn gl_subcommands_compute() {
        gl_bound(&strs(&["--n-gl", "4", "--buffer", "8"])).unwrap();
        gl_burst(&strs(&["--constraints", "150,300,600"])).unwrap();
        assert!(gl_burst(&strs(&[])).is_err(), "constraints required");
    }

    #[test]
    fn faults_smoke_is_clean_and_writes_parseable_traces() {
        let dir = std::env::temp_dir().join(format!("ssq-cli-faults-{}", std::process::id()));
        let dir_s = dir.to_str().unwrap().to_owned();
        run(&strs(&[
            "faults",
            "--smoke",
            "--seed",
            "7",
            "--trace-dir",
            &dir_s,
            "--csv",
        ]))
        .unwrap();
        // One parseable JSONL trace per catalog scenario.
        for (name, _) in swizzle_qos::faults::SCENARIOS {
            let text = std::fs::read_to_string(dir.join(format!("{name}.jsonl"))).unwrap();
            for line in text.lines() {
                Event::from_jsonl(line).unwrap();
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faults_single_scenario_runs_and_unknown_is_rejected() {
        faults_cmd(&strs(&["--scenario", "aux-seu", "--csv"])).unwrap();
        let e = faults_cmd(&strs(&["--scenario", "bogus"])).expect_err("not in catalog");
        assert!(e.to_string().contains("catalog"), "got: {e}");
    }

    #[test]
    fn net_smoke_is_clean_and_writes_parseable_traces() {
        let dir = std::env::temp_dir().join(format!("ssq-cli-net-{}", std::process::id()));
        let dir_s = dir.to_str().unwrap().to_owned();
        run(&strs(&[
            "net",
            "--smoke",
            "--seed",
            "7",
            "--trace-dir",
            &dir_s,
            "--csv",
        ]))
        .unwrap();
        // One parseable fabric JSONL trace per catalog scenario, plus a
        // ring dump for node 0 at least.
        for (name, _) in swizzle_qos::net::NET_SCENARIOS {
            for file in [format!("{name}.jsonl"), format!("{name}.node0.jsonl")] {
                let text = std::fs::read_to_string(dir.join(&file)).unwrap();
                for line in text.lines() {
                    Event::from_jsonl(line).unwrap();
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn net_single_scenario_runs_and_unknown_is_rejected() {
        net_cmd(&strs(&["--scenario", "chain-nack-blip", "--csv"])).unwrap();
        let e = net_cmd(&strs(&["--scenario", "bogus"])).expect_err("not in catalog");
        assert!(e.to_string().contains("catalog"), "got: {e}");
    }

    #[test]
    fn unknown_subcommand_fails() {
        assert!(run(&strs(&["frobnicate"])).is_err());
        assert!(run(&strs(&["help"])).is_ok());
    }
}
