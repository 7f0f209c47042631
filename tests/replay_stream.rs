//! The streamed replay of a trace, sorted by cycle or regrouped by
//! input, against the replay the trace's own injectors give
//! (`text.parse::<TraceFile>()` then `into_injectors`), on the
//! sequential runner, the idle-skipping one and the scalar reference
//! kernel: the same report rows, counters, injection work, skipped
//! cycles and JSONL trace bytes. And the streamed replay of a sorted
//! file reads it lazily: never more than the first line past the open
//! 64-cycle block, plus one reader buffer.

use std::io::{BufReader, Cursor, Read, Seek, SeekFrom, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use swizzle_qos::arbiter::CounterPolicy;
use swizzle_qos::core::{
    InjectionWork, Policy, QosSwitch, ReferenceKernel, SwitchConfig, SwitchCounters,
};
use swizzle_qos::sim::{CycleModel, Runner, Schedule};
use swizzle_qos::traffic::{Bernoulli, FixedDest, Injector, Periodic, Replay, TraceFile};
use swizzle_qos::types::{
    Cycle, Cycles, FlowId, Geometry, InputId, OutputId, Rate, TrafficClass, Xoshiro256StarStar,
};

const RADIX: usize = 8;

/// SSVC subtract on radix 8, a GB reservation from each input and GL
/// reservations on two outputs: replayed GB packets of other flows are
/// demoted, so every class path runs.
fn config() -> SwitchConfig {
    let geometry = Geometry::new(RADIX, 128).expect("valid geometry");
    let mut config = SwitchConfig::builder(geometry)
        .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
        .gb_buffer_flits(16)
        .be_buffer_flits(16)
        .build()
        .expect("valid config");
    for i in 0..RADIX {
        config
            .reservations_mut()
            .reserve_gb(
                InputId::new(i),
                OutputId::new((i * 3) % RADIX),
                Rate::new(0.1).expect("valid rate"),
                8,
            )
            .expect("fits budget");
    }
    for o in [0, 5] {
        config
            .reservations_mut()
            .reserve_gl(OutputId::new(o), Rate::new(0.05).expect("valid rate"))
            .expect("fits budget");
    }
    config
}

/// A seeded trace sorted by cycle: per `(input, class)` stream, a late
/// start, then bursts of back-to-back packets (some across a 64-cycle
/// block end) between gaps of up to many blocks; written with comments,
/// blank lines, tabs, padding and CRLF line ends.
fn sorted_trace(seed: u64) -> String {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut events = Vec::new();
    for input in 0..RADIX {
        for class in TrafficClass::ALL {
            if rng.chance(0.3) {
                continue;
            }
            let mut t = rng.range(0, 2_000);
            while t < 6_000 {
                if rng.chance(0.3) {
                    // A burst that crosses the next block end.
                    t = (t / 64 + 1) * 64 - rng.range(1, 6);
                }
                for _ in 0..rng.range(1, 12) {
                    let output = rng.index(RADIX);
                    let len = match class {
                        TrafficClass::GuaranteedLatency => 1,
                        _ => rng.range(1, 9),
                    };
                    events.push((t, input, output, class, len));
                    t += 1;
                }
                t += if rng.chance(0.2) {
                    rng.range(200, 1_500)
                } else {
                    rng.range(1, 80)
                };
            }
        }
    }
    events.sort_by_key(|e| e.0);
    let mut text = String::from("# cycle input output class len_flits\n");
    for (cycle, input, output, class, len) in events {
        match rng.index(12) {
            0 => text.push_str("# a comment\n"),
            1 => text.push_str(" \t\r\n"),
            _ => {}
        }
        let sep = ["  ", "\t", " "][rng.index(3)];
        let pad = if rng.index(10) == 0 { " " } else { "" };
        let end = if rng.index(4) == 0 { "\r\n" } else { "\n" };
        text.push_str(&format!(
            "{pad}{cycle}{sep}{input} {output}{sep}{} {len}{pad}{end}",
            class.label()
        ));
    }
    text
}

/// `text`'s packet lines regrouped by input, each stream keeping its
/// order: a file no longer sorted by cycle, as `sort -s -k2,2n` makes
/// of a capture.
fn regrouped(text: &str) -> String {
    let input = |line: &str| {
        let trace = line.parse::<TraceFile>().expect("parses");
        trace.events().first().map(|e| e.input)
    };
    let mut packets: Vec<&str> = text
        .split_inclusive('\n')
        .filter(|l| input(l).is_some())
        .collect();
    packets.sort_by_key(|l| input(l));
    packets.concat()
}

/// `--flow`-style injectors added after the replay: none, a periodic GL
/// source (the switch still sleeps through idle stretches), or a
/// Bernoulli BE source (it never does).
#[derive(Clone, Copy, Debug)]
enum Flows {
    None,
    Periodic,
    Bernoulli,
}

#[derive(Clone, Copy, Debug)]
enum Engine {
    Seq,
    Bitpar,
    Reference,
}

/// What a run leaves behind that a report or a trace shows.
struct Outcome {
    rows: String,
    counters: SwitchCounters,
    work: InjectionWork,
    skipped: u64,
    jsonl: Vec<u8>,
}

/// An in-memory JSONL sink the test can read back.
#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("unpoisoned").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Counts the cycles the skipping runner jumps over.
struct Counting<'a> {
    inner: &'a mut QosSwitch,
    skipped: u64,
}

impl CycleModel for Counting<'_> {
    fn step(&mut self, now: Cycle) {
        self.inner.step(now);
    }
    fn begin_measurement(&mut self, now: Cycle) {
        self.inner.begin_measurement(now);
    }
    fn skip_idle(&mut self, now: Cycle, limit: Cycle) -> Cycle {
        let target = self.inner.skip_idle(now, limit);
        self.skipped += target.value() - now.value();
        target
    }
}

/// The report rows `ssq simulate --csv` prints, from the switch's
/// per-flow metrics.
fn rows(switch: &QosSwitch, now: Cycle) -> String {
    let mut rows = String::new();
    for i in 0..RADIX {
        for o in 0..RADIX {
            let flow = FlowId::new(InputId::new(i), OutputId::new(o));
            for (label, metrics) in [
                ("BE", switch.be_metrics()),
                ("GB", switch.gb_metrics()),
                ("GL", switch.gl_metrics()),
            ] {
                let m = metrics.flow(flow);
                if m.packets() > 0 {
                    rows.push_str(&format!(
                        "{flow},{label},{},{:.4},{:.1},{}\n",
                        m.packets(),
                        m.throughput(now),
                        m.mean_latency(),
                        m.max_latency().unwrap_or(0)
                    ));
                }
            }
        }
    }
    rows
}

/// Runs `text` through a switch on `engine`, replayed streamed or from
/// the trace's own injectors, with `flows` added after it.
fn run(text: &str, streamed: bool, engine: Engine, flows: Flows, cycles: u64) -> Outcome {
    let mut switch = QosSwitch::new(config()).expect("valid switch");
    let sink = Shared::default();
    switch.tracer_mut().attach_jsonl(Box::new(sink.clone()));
    if streamed {
        let replay = Replay::open(Cursor::new(text.to_owned()), RADIX).expect("checked");
        switch.add_replay(replay);
    } else {
        let trace: TraceFile = text.parse().expect("parses");
        for injector in trace
            .into_injectors()
            .expect("one packet per stream and cycle")
        {
            switch.add_injector(injector);
        }
    }
    let flow = |source: Box<dyn swizzle_qos::traffic::TrafficSource + Send + Sync>, class| {
        Injector::new(source, Box::new(FixedDest::new(OutputId::new(5))), class)
            .for_input(InputId::new(2))
    };
    match flows {
        Flows::None => {}
        Flows::Periodic => switch.add_injector(flow(
            Box::new(Periodic::new(301, 17, 1)),
            TrafficClass::GuaranteedLatency,
        )),
        Flows::Bernoulli => switch.add_injector(flow(
            Box::new(Bernoulli::new(0.05, 2, 0x55)),
            TrafficClass::BestEffort,
        )),
    }
    let runner = Runner::new(Schedule::new(Cycles::new(300), Cycles::new(cycles)));
    let mut skipped = 0;
    let now = match engine {
        Engine::Seq => runner.run(&mut switch),
        Engine::Bitpar => {
            let mut counting = Counting {
                inner: &mut switch,
                skipped: 0,
            };
            let now = runner.run_skipping(&mut counting);
            skipped = counting.skipped;
            now
        }
        Engine::Reference => runner.run(&mut ReferenceKernel(&mut switch)),
    };
    assert_eq!(switch.replay_error(), None);
    switch.tracer_mut().flush();
    let jsonl = sink.0.lock().expect("unpoisoned").clone();
    Outcome {
        rows: rows(&switch, now),
        counters: switch.counters(),
        work: switch.injection_work(),
        skipped,
        jsonl,
    }
}

#[test]
fn a_streamed_replay_matches_the_built_one_on_every_engine() {
    for seed in 0..4 {
        let text = sorted_trace(seed);
        let unsorted = regrouped(&text);
        let cycles: Vec<u64> = unsorted
            .lines()
            .map(|l| l.split_whitespace().next().expect("a packet line"))
            .map(|c| c.parse().expect("a cycle"))
            .collect();
        assert!(!cycles.is_sorted(), "seed {seed}: regrouped stays sorted");
        for (engine, flows, cycles) in [
            (Engine::Seq, Flows::None, 7_000),
            (Engine::Seq, Flows::Bernoulli, 7_000),
            (Engine::Bitpar, Flows::None, 7_000),
            (Engine::Bitpar, Flows::Periodic, 7_000),
            (Engine::Bitpar, Flows::Bernoulli, 3_000),
            (Engine::Reference, Flows::Periodic, 3_000),
        ] {
            let tag = format!("seed {seed}, {engine:?}, {flows:?}, {cycles} cycles");
            let built = run(&text, false, engine, flows, cycles);
            assert!(built.counters.delivered_packets > 100, "{tag}: too thin");
            assert!(!built.jsonl.is_empty(), "{tag}: nothing traced");
            if let (Engine::Bitpar, Flows::None | Flows::Periodic) = (engine, flows) {
                assert!(built.skipped > 1_000, "{tag}: skipped {}", built.skipped);
            }
            for (file, order) in [(&text, "sorted"), (&unsorted, "regrouped")] {
                let streamed = run(file, true, engine, flows, cycles);
                let tag = format!("{tag}, {order}");
                let facts = |o: &Outcome| (o.counters, o.work, o.skipped);
                assert_eq!(facts(&streamed), facts(&built), "{tag}");
                assert_eq!(streamed.rows, built.rows, "{tag}");
                let diverged = streamed
                    .jsonl
                    .iter()
                    .zip(&built.jsonl)
                    .position(|(a, b)| a != b);
                assert_eq!(diverged, None, "{tag}: JSONL traces differ at that byte");
                assert_eq!(
                    streamed.jsonl.len(),
                    built.jsonl.len(),
                    "{tag}: JSONL lengths"
                );
            }
        }
    }
}

/// A file whose bytes read so far the test can see: the position of the
/// underlying cursor, whatever reads or seeks moved it.
struct Counted {
    inner: Cursor<Vec<u8>>,
    consumed: Arc<AtomicU64>,
}

impl Read for Counted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.consumed
            .store(self.inner.position(), Ordering::Relaxed);
        Ok(n)
    }
}

impl Seek for Counted {
    fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
        let at = self.inner.seek(pos)?;
        self.consumed.store(at, Ordering::Relaxed);
        Ok(at)
    }
}

/// After each cycle `c`, the streamed replay has read the file up to
/// the end of its first packet line past the open block (64-cycle
/// blocks from cycle 0 when every cycle is stepped), and at most one
/// reader buffer beyond it.
#[test]
fn a_streamed_replay_reads_one_block_ahead() {
    const BUFFER: usize = 256;
    let text = sorted_trace(7);
    // Each packet line's cycle and the offset just past its `\n`.
    let mut ends = Vec::new();
    let mut offset = 0;
    for line in text.split_inclusive('\n') {
        offset += line.len();
        if let Ok(trace) = line.parse::<TraceFile>() {
            ends.extend(trace.events().first().map(|e| (e.cycle, offset as u64)));
        }
    }
    let consumed = Arc::new(AtomicU64::new(0));
    let file = Counted {
        inner: Cursor::new(text.clone().into_bytes()),
        consumed: Arc::clone(&consumed),
    };
    let replay = Replay::open(BufReader::with_capacity(BUFFER, file), RADIX).expect("checked");
    let mut switch = QosSwitch::new(config()).expect("valid switch");
    switch.add_replay(replay);
    let mut checked = 0;
    for c in 0..6_500 {
        switch.step(Cycle::new(c));
        let block_end = (c / 64 + 1) * 64;
        let past = ends
            .iter()
            .find(|&&(cycle, _)| cycle >= block_end)
            .map_or(text.len() as u64, |&(_, end)| end);
        let read = consumed.load(Ordering::Relaxed);
        assert!(
            read >= past,
            "cycle {c}: read {read} bytes, short of {past}"
        );
        assert!(
            read <= past + BUFFER as u64,
            "cycle {c}: read {read} bytes, past {past} plus a buffer"
        );
        checked += u64::from(read < text.len() as u64);
    }
    assert!(checked > 5_000, "the file outlasts most of the run");
    assert!(switch.counters().delivered_packets > 1_000);
}
