//! Seeded workload generation.
//!
//! Every input the benchmark feeds the simulator is derived here from
//! `--seed`: the same seed yields byte-identical argv, replay file and
//! fabric flow list. The program under test never sees the seed, only
//! the generated inputs.
//!
//! Each single-switch workload is one [`SimSpec`]. The untraced pass
//! turns it into an `ssq simulate` command line ([`SimSpec::argv`]); the
//! traced pass turns the *same* spec into a live `QosSwitch` through the
//! public library API ([`SimSpec::build`]), mirroring what
//! `src/bin/ssq.rs` does with those arguments. The traced pass checks
//! its delivered-flit count against the CLI's, so a mirror that drifts
//! from the CLI is caught, not silently measured.

use std::fmt::Write as _;

use swizzle_qos::arbiter::CounterPolicy;
use swizzle_qos::core::{Policy, QosSwitch, SwitchConfig};
use swizzle_qos::net::{FlowSpec, LinkDiscipline, Topology};
use swizzle_qos::traffic::{Bernoulli, FixedDest, Injector, ParseTraceError, TraceFile};
use swizzle_qos::types::rng::Xoshiro256StarStar;
use swizzle_qos::types::{bounds, Geometry, InputId, OutputId, Rate, TrafficClass};

/// The four workloads, in reporting order.
pub const WORKLOADS: [&str; 4] = ["dense-r64", "sparse-r64", "traced-r16", "fabric-mesh16"];

/// GB packet length everywhere (the CLI's `--flow` default).
pub const PACKET_FLITS: u64 = 8;

/// GL packet length everywhere: single-flit, interrupt-style.
pub const GL_FLITS: u64 = 1;

/// GL buffer depth of a CLI-built switch (`SwitchConfig`'s default; the
/// CLI never overrides it) — the `b` of Eq. 1.
const CLI_GL_BUFFER_FLITS: u64 = 4;

/// Per-hop link cost in a default `LinkSpec`: one cycle to serialize an
/// 8-flit packet over an 8-flit/cycle wire plus one cycle of latency
/// (the figure `examples/fabric_adherence.rs` budgets).
const LINK_CYCLES: u64 = 2;

/// One `--flow IN:OUT:CLASS:RATE:LEN`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    pub input: usize,
    pub output: usize,
    pub class: TrafficClass,
    /// Offered load in flits/cycle, already rounded to the four
    /// decimals the argv carries, so CLI and library see one value.
    pub rate: f64,
    pub len: u64,
}

/// A single-switch run: what `ssq simulate` is asked to do.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    pub radix: usize,
    pub width: usize,
    pub warmup: u64,
    pub cycles: u64,
    /// `(input, output, percent)` GB reservations.
    pub reserves: Vec<(usize, usize, u32)>,
    /// `(output, percent)` GL reservations.
    pub gl_reserves: Vec<(usize, u32)>,
    pub flows: Vec<Flow>,
    /// Text of the `--replay` file, when traffic is replayed.
    pub replay: Option<String>,
    /// What every reserved GB flow offers, in flits/cycle (as `--flow`
    /// traffic or through the replay file).
    pub gb_offered: f64,
}

/// The engines `ssq simulate --engine` offers that the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Seq,
    Bitpar,
}

impl Engine {
    pub const fn flag(self) -> &'static str {
        match self {
            Engine::Seq => "seq",
            Engine::Bitpar => "bitpar",
        }
    }
}

/// Rounds a rate to the four decimals the argv prints, through the same
/// text the CLI will parse.
fn argv_rate(rate: f64) -> f64 {
    format!("{rate:.4}")
        .parse()
        .expect("a formatted float parses back")
}

/// A seeded permutation of `0..n` (Fisher–Yates).
fn permutation(rng: &mut Xoshiro256StarStar, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.index(i + 1));
    }
    p
}

impl SimSpec {
    /// The reservation skeleton every single-switch workload shares:
    /// input `i` holds a 40 % GB reservation to a seeded permutation
    /// output, and one output in eight carries a 5 % GL reservation.
    /// Returns the spec plus the GB permutation.
    fn reserved(
        rng: &mut Xoshiro256StarStar,
        radix: usize,
        warmup: u64,
        cycles: u64,
    ) -> (SimSpec, Vec<usize>) {
        let gb_dest = permutation(rng, radix);
        let spec = SimSpec {
            radix,
            // Three arbitration lanes need width >= 3 * radix bits:
            // the paper's 512-bit channel at radix 64, 128 at radix 16.
            width: radix * 8,
            warmup,
            cycles,
            reserves: (0..radix).map(|i| (i, gb_dest[i], 40)).collect(),
            gl_reserves: (0..radix / 8).map(|g| (g * 8, 5)).collect(),
            flows: Vec::new(),
            replay: None,
            gb_offered: 0.0,
        };
        (spec, gb_dest)
    }

    /// Dense Bernoulli mix. One input in eight (seeded) is a dedicated
    /// GL source sending single-flit packets to one GL output — Eq. 1
    /// bounds the wait of a *buffered* GL packet, which presumes its
    /// input is not busy transmitting something else. Every other input
    /// offers a GB flow slightly above its reservation (so the
    /// reservation, not the arrival process, is what binds) plus two BE
    /// flows to seeded permutation outputs whose split is jittered by
    /// the seed while their sum stays fixed. Inputs are offered 0.77
    /// flits/cycle against the 8/9 a port can carry (one arbitration
    /// cycle per 8-flit packet): best-effort queues back up and overflow,
    /// so the arbiters always have work, yet no input is so saturated
    /// that its own best-effort packets crowd out its GB flow.
    pub fn dense(seed: u64, radix: usize, warmup: u64, cycles: u64) -> SimSpec {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let (mut spec, gb_dest) = SimSpec::reserved(&mut rng, radix, warmup, cycles);
        let be1 = permutation(&mut rng, radix);
        let be2 = permutation(&mut rng, radix);
        let gl_inputs = permutation(&mut rng, radix);
        let gl_inputs = &gl_inputs[..spec.gl_reserves.len()];
        spec.gb_offered = 0.42;
        spec.reserves.retain(|(i, _, _)| !gl_inputs.contains(i));
        for i in (0..radix).filter(|i| !gl_inputs.contains(i)) {
            let jitter = (rng.f64() - 0.5) * 0.04;
            for (output, class, rate) in [
                (
                    gb_dest[i],
                    TrafficClass::GuaranteedBandwidth,
                    spec.gb_offered,
                ),
                (be1[i], TrafficClass::BestEffort, 0.21 + jitter),
                (be2[i], TrafficClass::BestEffort, 0.14 - jitter),
            ] {
                spec.flows.push(Flow {
                    input: i,
                    output,
                    class,
                    rate: argv_rate(rate),
                    len: PACKET_FLITS,
                });
            }
        }
        for (&input, &(output, _)) in gl_inputs.iter().zip(&spec.gl_reserves) {
            spec.flows.push(Flow {
                input,
                output,
                class: TrafficClass::GuaranteedLatency,
                rate: 0.01,
                len: GL_FLITS,
            });
        }
        spec
    }

    /// Sparse replayed traffic (about 2.5 % load): per input an 8-flit
    /// GB packet every 400 cycles to its reserved output and an 8-flit
    /// BE packet every 800 to a seeded output. The seed places the GB
    /// and BE bursts and jitters each input within a 16-cycle window, so
    /// arrivals cluster the way periodic SoC producers do and the switch
    /// is provably idle for most of every period — the stretches the
    /// `bitpar` engine's `skip_idle` exists for.
    pub fn sparse(seed: u64, radix: usize, warmup: u64, cycles: u64) -> SimSpec {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let (mut spec, gb_dest) = SimSpec::reserved(&mut rng, radix, warmup, cycles);
        let horizon = warmup + cycles;
        let gb_burst = rng.below(100);
        let be_burst = gb_burst + 200;
        // (cycle, input, output, class) — sorted below into file order.
        let mut events: Vec<(u64, usize, usize, TrafficClass)> = Vec::new();
        for (i, &gb_dest) in gb_dest.iter().enumerate() {
            let gb_phase = gb_burst + rng.below(16);
            let be_phase = be_burst + rng.below(16);
            let be_dest = rng.index(radix);
            events.extend(
                (gb_phase..horizon)
                    .step_by(400)
                    .map(|c| (c, i, gb_dest, TrafficClass::GuaranteedBandwidth)),
            );
            events.extend(
                (be_phase..horizon)
                    .step_by(800)
                    .map(|c| (c, i, be_dest, TrafficClass::BestEffort)),
            );
        }
        events.sort_by_key(|&(cycle, input, _, class)| (cycle, input, class.priority()));
        let mut text = String::with_capacity(events.len() * 20);
        text.push_str("# cycle input output class len_flits\n");
        for (cycle, input, output, class) in events {
            let _ = writeln!(
                text,
                "{cycle} {input} {output} {} {PACKET_FLITS}",
                class.label()
            );
        }
        spec.replay = Some(text);
        spec.gb_offered = PACKET_FLITS as f64 / 400.0;
        spec
    }

    /// The same run cut to its first `cycles` measured cycles, the
    /// replay file cut to match (it is sorted by cycle, so that is a
    /// prefix of its lines).
    pub fn head(&self, cycles: u64) -> SimSpec {
        let horizon = self.warmup + cycles;
        let replay = self.replay.as_deref().map(|text| {
            let mut end = 0;
            for line in text.split_inclusive('\n') {
                let cycle = line.split_whitespace().next().and_then(|c| c.parse().ok());
                if cycle.is_some_and(|c: u64| c >= horizon) {
                    break;
                }
                end += line.len();
            }
            text[..end].to_owned()
        });
        SimSpec {
            cycles,
            replay,
            reserves: self.reserves.clone(),
            gl_reserves: self.gl_reserves.clone(),
            flows: self.flows.clone(),
            ..*self
        }
    }

    /// The `ssq simulate` arguments for this spec over `window`
    /// (warm-up, measured cycles): [`SimSpec::window`], or a shorter one
    /// to time what surrounds the cycle loop. `replay_path` is where the
    /// caller wrote [`SimSpec::replay`]; `extra` carries the
    /// observability flags of the traced workload.
    pub fn argv(
        &self,
        engine: Engine,
        window: (u64, u64),
        replay_path: Option<&str>,
        extra: &[String],
    ) -> Vec<String> {
        let mut a: Vec<String> = vec!["simulate".into()];
        let mut opt = |k: &str, v: String| {
            a.push(format!("--{k}"));
            a.push(v);
        };
        opt("radix", self.radix.to_string());
        opt("width", self.width.to_string());
        opt("policy", "ssvc-subtract".into());
        opt("warmup", window.0.to_string());
        opt("cycles", window.1.to_string());
        opt("engine", engine.flag().into());
        for &(i, o, pct) in &self.reserves {
            opt("reserve", format!("{i}:{o}:{pct}"));
        }
        for &(o, pct) in &self.gl_reserves {
            opt("gl-reserve", format!("{o}:{pct}"));
        }
        for f in &self.flows {
            opt(
                "flow",
                format!(
                    "{}:{}:{}:{:.4}:{}",
                    f.input,
                    f.output,
                    f.class.label(),
                    f.rate,
                    f.len
                ),
            );
        }
        if let Some(path) = replay_path {
            opt("replay", path.into());
        }
        a.push("--csv".into());
        a.extend(extra.iter().cloned());
        a
    }

    /// The spec's own (warm-up, measured cycles).
    pub fn window(&self) -> (u64, u64) {
        (self.warmup, self.cycles)
    }

    /// The switch configuration `ssq simulate` builds from
    /// [`SimSpec::argv`]: SSVC subtract policy, 16-flit GB/BE buffers,
    /// the reservations installed after `build()`.
    pub fn config(&self) -> Result<SwitchConfig, Box<dyn std::error::Error>> {
        let geometry = Geometry::new(self.radix, self.width)?;
        let mut config = SwitchConfig::builder(geometry)
            .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
            .gb_buffer_flits(16)
            .be_buffer_flits(16)
            .build()?;
        for &(i, o, pct) in &self.reserves {
            config.reservations_mut().reserve_gb(
                InputId::new(i),
                OutputId::new(o),
                Rate::new(f64::from(pct) / 100.0)?,
                PACKET_FLITS,
            )?;
        }
        for &(o, pct) in &self.gl_reserves {
            config
                .reservations_mut()
                .reserve_gl(OutputId::new(o), Rate::new(f64::from(pct) / 100.0)?)?;
        }
        Ok(config)
    }

    /// Parses the replay text the way the CLI does.
    pub fn replay_file(&self) -> Option<Result<TraceFile, ParseTraceError>> {
        self.replay.as_deref().map(str::parse)
    }

    /// The `--flow` injectors in argv order, seeded as the CLI seeds
    /// them (`0x55 + position`).
    pub fn flow_injectors(&self) -> Vec<Injector> {
        self.flows
            .iter()
            .enumerate()
            .map(|(n, f)| {
                Injector::new(
                    Box::new(Bernoulli::new(f.rate, f.len, 0x55 + n as u64)),
                    Box::new(FixedDest::new(OutputId::new(f.output))),
                    f.class,
                )
                .for_input(InputId::new(f.input))
            })
            .collect()
    }

    /// A ready-to-run switch: configuration, replay injectors, then flow
    /// injectors — the CLI's order.
    pub fn build(&self) -> QosSwitch {
        let mut switch = QosSwitch::new(
            self.config()
                .expect("generated configuration is admissible"),
        )
        .expect("generated configuration validates");
        if let Some(file) = self.replay_file() {
            let injectors = file
                .expect("generated replay parses")
                .into_injectors()
                .expect("one packet per stream per cycle");
            for injector in injectors {
                switch.add_injector(injector);
            }
        }
        for injector in self.flow_injectors() {
            switch.add_injector(injector);
        }
        switch
    }

    /// Eq. 1 bound on a buffered GL packet's wait at `output`.
    pub fn gl_bound(&self, output: usize) -> u64 {
        let n_gl = self
            .flows
            .iter()
            .filter(|f| f.class == TrafficClass::GuaranteedLatency && f.output == output)
            .count() as u64;
        bounds::gl_latency_bound(PACKET_FLITS, 1, n_gl.max(1), CLI_GL_BUFFER_FLITS)
    }
}

/// Hops on a `cols`-wide mesh's shortest route between two nodes.
fn manhattan(cols: usize, a: usize, b: usize) -> u64 {
    ((a / cols).abs_diff(b / cols) + (a % cols).abs_diff(b % cols)) as u64
}

/// The fabric workload: a 4x4 credit mesh and its seeded flows.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricSpec {
    pub rows: usize,
    pub cols: usize,
    pub warmup: u64,
    pub cycles: u64,
    pub flows: Vec<FlowSpec>,
    /// Seeds the fabric's own generator (NACK jitter; unused on credit
    /// links, but part of the replay contract).
    pub seed: u64,
}

impl FabricSpec {
    /// Per node one GB flow to its mirror node (rate 0.1), one BE flow
    /// to a seeded node two hops away (0.05), and four corner-to-corner
    /// GL flows (0.02). A link is one FIFO shared by all classes, so the
    /// load is kept where no link saturates: a full link would block GB
    /// and GL packets behind best-effort ones, which is congestion, not
    /// the arbitration this benchmark measures. Periods are `len / rate`, so offered load equals the
    /// declared rate exactly.
    pub fn mesh16(seed: u64, warmup: u64, cycles: u64) -> FabricSpec {
        let (rows, cols) = (4, 4);
        let n = rows * cols;
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        let mut flows = Vec::new();
        for node in 0..n {
            flows.push(
                FlowSpec::new(node, n - 1 - node, TrafficClass::GuaranteedBandwidth)
                    .ports(4, 4)
                    .rate(0.1)
                    .every(80),
            );
            // A seeded destination exactly two hops away: the seed moves
            // the traffic pattern while the fabric-wide hop count, and so
            // the work per cycle, stays put.
            let two_hops: Vec<usize> = (0..n)
                .filter(|&other| manhattan(cols, node, other) == 2)
                .collect();
            flows.push(
                FlowSpec::new(
                    node,
                    two_hops[rng.index(two_hops.len())],
                    TrafficClass::BestEffort,
                )
                .ports(5, 5)
                .rate(0.05)
                .every(160),
            );
        }
        let corners = [0, cols - 1, n - cols, n - 1];
        for (k, &corner) in corners.iter().enumerate() {
            flows.push(
                FlowSpec::new(corner, corners[3 - k], TrafficClass::GuaranteedLatency)
                    .ports(6, 6)
                    .rate(0.02)
                    .every(400),
            );
        }
        FabricSpec {
            rows,
            cols,
            warmup,
            cycles,
            flows,
            seed,
        }
    }

    pub fn topology(&self) -> Topology {
        Topology::mesh(self.rows, self.cols, LinkDiscipline::Credit)
    }

    /// Summed per-hop Eq. 1 budget for a GL flow, as
    /// `examples/fabric_adherence.rs` budgets it: `hops + 1` switch
    /// stages (16-flit GL share of a fabric node) and `hops` wires.
    /// `n_gl` is the worst case of every GL flow meeting at one output.
    pub fn gl_path_budget(&self, flow: &FlowSpec) -> u64 {
        let n_gl = self
            .flows
            .iter()
            .filter(|f| f.class == TrafficClass::GuaranteedLatency)
            .count() as u64;
        let hops = manhattan(self.cols, flow.src, flow.dest);
        let per_switch = bounds::gl_latency_bound(PACKET_FLITS, PACKET_FLITS, n_gl, 16);
        (hops + 1) * per_switch + hops * LINK_CYCLES
    }

    /// One line per flow, for the child-process hand-off and for the
    /// determinism test.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "mesh {} {} warmup {} cycles {} seed {}\n",
            self.rows, self.cols, self.warmup, self.cycles, self.seed
        );
        for f in &self.flows {
            let _ = writeln!(
                out,
                "flow {} {} {} {} {} {} {} {}",
                f.src,
                f.src_port,
                f.dest,
                f.dest_port,
                f.class.label(),
                f.rate,
                f.len_flits,
                f.period
            );
        }
        out
    }

    /// Inverse of [`FabricSpec::to_text`].
    pub fn from_text(text: &str) -> Result<FabricSpec, String> {
        fn num<T: std::str::FromStr>(field: Option<&str>, what: &str) -> Result<T, String> {
            field
                .ok_or_else(|| format!("missing {what}"))?
                .parse()
                .map_err(|_| format!("invalid {what}"))
        }
        let mut lines = text.lines();
        let head: Vec<&str> = lines
            .next()
            .ok_or("empty fabric spec")?
            .split_whitespace()
            .collect();
        if head.len() != 9 || head[0] != "mesh" {
            return Err("fabric spec must start with a mesh line".into());
        }
        let mut spec = FabricSpec {
            rows: num(head.get(1).copied(), "rows")?,
            cols: num(head.get(2).copied(), "cols")?,
            warmup: num(head.get(4).copied(), "warmup")?,
            cycles: num(head.get(6).copied(), "cycles")?,
            seed: num(head.get(8).copied(), "seed")?,
            flows: Vec::new(),
        };
        for line in lines {
            let mut f = line.split_whitespace();
            if f.next() != Some("flow") {
                return Err(format!("unexpected line {line:?}"));
            }
            let src = num(f.next(), "src")?;
            let src_port = num(f.next(), "src port")?;
            let dest = num(f.next(), "dest")?;
            let dest_port = num(f.next(), "dest port")?;
            let class = match f.next() {
                Some("BE") => TrafficClass::BestEffort,
                Some("GB") => TrafficClass::GuaranteedBandwidth,
                Some("GL") => TrafficClass::GuaranteedLatency,
                other => return Err(format!("unknown class {other:?}")),
            };
            spec.flows.push(
                FlowSpec::new(src, dest, class)
                    .ports(src_port, dest_port)
                    .rate(num(f.next(), "rate")?)
                    .len_flits(num(f.next(), "length")?)
                    .every(num(f.next(), "period")?),
            );
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_specs(seed: u64) -> (SimSpec, SimSpec, FabricSpec) {
        (
            SimSpec::dense(seed, 16, 100, 2_000),
            SimSpec::sparse(seed, 64, 100, 20_000),
            FabricSpec::mesh16(seed, 10, 100),
        )
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        let (dense_a, sparse_a, fabric_a) = all_specs(7);
        let (dense_b, sparse_b, fabric_b) = all_specs(7);
        let argv = |s: &SimSpec| s.argv(Engine::Seq, s.window(), Some("replay.txt"), &[]);
        assert_eq!(argv(&dense_a), argv(&dense_b));
        assert_eq!(argv(&sparse_a), argv(&sparse_b));
        assert_eq!(sparse_a.replay, sparse_b.replay);
        assert_eq!(fabric_a.to_text(), fabric_b.to_text());

        let (dense_c, sparse_c, fabric_c) = all_specs(8);
        assert_ne!(argv(&dense_a), argv(&dense_c));
        assert_ne!(argv(&sparse_a), argv(&sparse_c));
        assert_ne!(sparse_a.replay, sparse_c.replay);
        assert_ne!(fabric_a.to_text(), fabric_c.to_text());
    }

    #[test]
    fn argv_carries_what_the_library_is_given() {
        let spec = SimSpec::dense(3, 16, 100, 2_000);
        let argv = spec.argv(Engine::Bitpar, (0, 1), None, &["--trace".to_owned()]);
        let value_of = |flag: &str| {
            let at = argv.iter().position(|a| a == flag).expect(flag);
            argv[at + 1].as_str()
        };
        assert_eq!(argv[0], "simulate");
        assert_eq!(value_of("--radix"), "16");
        assert_eq!(value_of("--width"), "128");
        assert_eq!((value_of("--warmup"), value_of("--cycles")), ("0", "1"));
        assert_eq!(value_of("--engine"), "bitpar");
        assert_eq!(argv.last().map(String::as_str), Some("--trace"));
        assert_eq!(
            argv.iter().filter(|a| *a == "--flow").count(),
            spec.flows.len()
        );
        assert_eq!(
            argv.iter().filter(|a| *a == "--reserve").count(),
            spec.reserves.len()
        );
        // Rates survive the trip through argv text unchanged.
        for flow in &spec.flows {
            assert_eq!(format!("{:.4}", flow.rate).parse::<f64>(), Ok(flow.rate));
        }
        // Two GL sources at radix 16, each alone on its input.
        let gl: Vec<&Flow> = spec
            .flows
            .iter()
            .filter(|f| f.class == TrafficClass::GuaranteedLatency)
            .collect();
        assert_eq!(gl.len(), 2);
        for g in gl {
            assert_eq!(spec.flows.iter().filter(|f| f.input == g.input).count(), 1);
            assert!(spec.reserves.iter().all(|&(i, _, _)| i != g.input));
        }
        assert_eq!(spec.gl_bound(0), 16);
    }

    #[test]
    fn generated_specs_build_admissible_models() {
        let (dense, sparse, fabric) = all_specs(5);
        for spec in [&dense, &sparse] {
            let switch = spec.build();
            assert!(!swizzle_qos::core::Preflight::preflight(&switch).has_errors());
        }
        swizzle_qos::net::Fabric::new(fabric.topology(), &fabric.flows, fabric.seed)
            .expect("admissible fabric");
    }

    #[test]
    fn replay_file_meets_the_trace_contract() {
        let spec = SimSpec::sparse(11, 64, 100, 20_000);
        let file = spec
            .replay_file()
            .expect("replayed workload")
            .expect("parses");
        // 64 inputs, a GB packet every 400 cycles and a BE one every 800.
        let horizon = 20_100;
        let expected = 64 * (horizon / 400 + horizon / 800);
        assert!(
            file.len().abs_diff(expected) <= 128,
            "{} events",
            file.len()
        );
        assert!(file.events().windows(2).all(|w| w[0].cycle <= w[1].cycle));
        assert!(file.events().iter().all(|e| e.cycle < horizon as u64));
        // Round trip: the text is exactly what `TraceFile` would print.
        assert_eq!(spec.replay.as_deref(), Some(file.to_string().as_str()));
        // `into_injectors` rejects two packets of one stream in one
        // cycle, and `Trace::new` panics unless each stream's cycles
        // ascend strictly.
        let injectors = file
            .into_injectors()
            .expect("one packet per stream per cycle");
        assert_eq!(injectors.len(), 128);
    }

    #[test]
    fn head_is_a_prefix_cut_at_the_horizon() {
        let spec = SimSpec::sparse(2, 64, 100, 20_000);
        let head = spec.head(3_000);
        assert_eq!((head.warmup, head.cycles), (100, 3_000));
        let (full, cut) = (spec.replay.as_ref().unwrap(), head.replay.as_ref().unwrap());
        assert!(full.starts_with(cut.as_str()) && cut.len() < full.len());
        let last = head.replay_file().unwrap().unwrap();
        assert!(last.events().iter().all(|e| e.cycle < 3_100));
        let kept = spec
            .replay_file()
            .unwrap()
            .unwrap()
            .events()
            .iter()
            .filter(|e| e.cycle < 3_100)
            .count();
        assert_eq!(last.len(), kept);
        // Nothing to cut when the head is the whole run.
        assert_eq!(spec.head(20_000), spec);
    }

    #[test]
    fn fabric_spec_text_round_trips() {
        let spec = FabricSpec::mesh16(4, 10, 100);
        assert_eq!(FabricSpec::from_text(&spec.to_text()), Ok(spec.clone()));
        assert_eq!(spec.flows.len(), 16 * 2 + 4);
        assert!(FabricSpec::from_text("").is_err());
        assert!(FabricSpec::from_text("mesh 4 4 warmup 1 cycles 1 seed 1\nflow 0 4\n").is_err());
        // Corner to opposite corner: six hops, seven switch stages.
        let gl = spec.flows.last().expect("GL flows come last");
        assert_eq!(spec.gl_path_budget(gl), 7 * (8 + 4 * (16 + 2)) + 6 * 2);
    }
}
