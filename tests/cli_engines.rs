//! `ssq simulate` through the real binary, every `--engine` × every way
//! of watching a run: the engines drive one kernel through one cycle
//! loop, so whatever a run writes — the `--csv` report, the event trace,
//! the waveform, the metrics series, the flight post-mortem — must be
//! byte-identical to `seq`'s. Plus the inputs that used to panic or
//! hang somewhere in that grid, each now a one-line diagnostic.

use std::fmt::Write as _;
use std::path::Path;

use swizzle_qos::trace::Event;

mod common;
use common::{assert_diagnosed, ssq, ssq_in, stderr, Scratch};

/// `(name, --engine options)`; `seq` first — it is the reference.
const ENGINES: [(&str, &[&str]); 2] = [("seq", &[]), ("bitpar", &["--engine", "bitpar"])];

/// `(name, the option naming the file the mode writes, its other options)`.
const MODES: [(&str, Option<&str>, &[&str]); 5] = [
    ("plain", None, &[]),
    ("trace", Some("--trace-out"), &["--trace"]),
    ("vcd", Some("--vcd"), &[]),
    (
        "metrics",
        Some("--metrics-out"),
        &["--metrics-interval", "50"],
    ),
    ("flight", None, &["--flight-recorder"]),
];

/// One small radix-4 switch carrying all three classes into output 0.
const CONFIG: &[&str] = &[
    "simulate",
    "--radix",
    "4",
    "--warmup",
    "150",
    "--cycles",
    "1500",
    "--reserve",
    "0:0:40:4",
    "--gl-reserve",
    "0:10",
    "--csv",
];

/// Sparse periodic GB, BE and GL arrivals: predictable, so `bitpar`
/// really does skip in the modes that let it. Each GL packet arrives
/// one cycle into a GB transmission, so it waits.
fn replay_text() -> String {
    let mut events: Vec<(u64, String)> = Vec::new();
    for (input, class, len, period, phase) in [
        (0, "GB", 4, 40, 3),
        (1, "BE", 4, 90, 11),
        (2, "GL", 1, 200, 44),
    ] {
        for cycle in (phase..1650).step_by(period) {
            events.push((cycle, format!("{cycle} {input} 0 {class} {len}")));
        }
    }
    events.sort();
    let mut text = String::from("# cycle input output class len_flits\n");
    for (_, line) in events {
        writeln!(text, "{line}").expect("string write");
    }
    text
}

/// What one cell of the grid produced.
#[derive(PartialEq, Eq, Debug)]
struct Produced {
    success: bool,
    stdout: String,
    stderr: String,
    /// The mode's own file, or the post-mortem of a tripped run.
    file: Option<Vec<u8>>,
}

/// Runs `CONFIG` on `engine` with `mode`'s options plus `extra`, from a
/// directory of its own.
fn run_cell(
    dir: &Scratch,
    replay: &Path,
    engine: (&str, &[&str]),
    mode: (&str, Option<&str>, &[&str]),
    extra: &[&str],
) -> Produced {
    let cwd = dir.join(&format!("{}-{}", engine.0, mode.0));
    std::fs::create_dir_all(&cwd).expect("cell dir");
    let mut args = CONFIG.to_vec();
    args.extend(["--replay", replay.to_str().expect("utf-8 path")]);
    args.extend(engine.1);
    args.extend(mode.2);
    args.extend(extra);
    if let Some(option) = mode.1 {
        args.extend([option, "artefact"]);
    }
    let out = ssq_in(&cwd, &args);
    let written = match mode.1 {
        Some(_) => cwd.join("artefact"),
        None => cwd.join("results/flight-trip.txt"),
    };
    Produced {
        success: out.status.success(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: stderr(&out),
        file: std::fs::read(written).ok(),
    }
}

#[test]
fn every_engine_writes_what_seq_writes_in_every_mode() {
    let dir = Scratch::new("grid");
    let replay = dir.join("sparse.trace");
    std::fs::write(&replay, replay_text()).expect("replay written");
    for mode in MODES {
        let seq = run_cell(&dir, &replay, ENGINES[0], mode, &[]);
        assert!(seq.success, "seq/{}: {}", mode.0, seq.stderr);
        for class in ["GB", "BE", "GL"] {
            assert!(seq.stdout.contains(class), "{}: {}", mode.0, seq.stdout);
        }
        assert_eq!(seq.file.is_some(), mode.1.is_some(), "seq/{}", mode.0);
        assert!(seq.file.as_ref().is_none_or(|f| f.len() > 100));
        for engine in &ENGINES[1..] {
            let other = run_cell(&dir, &replay, *engine, mode, &[]);
            assert_eq!(other, seq, "{}/{}", engine.0, mode.0);
        }
    }
}

#[test]
fn a_tripped_run_reads_the_same_on_every_engine() {
    let dir = Scratch::new("trip");
    let replay = dir.join("sparse.trace");
    std::fs::write(&replay, replay_text()).expect("replay written");
    let flight = MODES[4];
    let trip = |engine| run_cell(&dir, &replay, engine, flight, &["--gl-bound", "0"]);
    let seq = trip(ENGINES[0]);
    assert!(!seq.success, "a 0-cycle GL bound cannot hold");
    assert!(seq.stderr.starts_with("error: run tripped at cycle "));
    assert!(!seq.stderr.contains("cycle cycle"), "{}", seq.stderr);
    assert!(seq.stderr.contains("results/flight-trip.txt"));
    let post_mortem = seq.file.as_ref().expect("post-mortem written");
    assert!(String::from_utf8_lossy(post_mortem).contains("Eq. 1 bound of 0"));
    for engine in &ENGINES[1..] {
        assert_eq!(trip(*engine), seq, "{}", engine.0);
    }
}

/// The flight recorder holds what the trace stream says happened: a
/// tripped run's post-mortem lists exactly the last `--flight-capacity`
/// events of its own `--trace-out` file, rendered, and its header counts
/// the rest as evicted. Output 0 is kept busy with GB and BE packets, so
/// the 300-event ring has reused its oldest block before a lone GL
/// packet arrives mid-transmission and trips the 0-cycle bound.
#[test]
fn a_post_mortem_lists_the_last_events_of_its_runs_trace() {
    let dir = Scratch::new("ring-vs-trace");
    let replay = dir.join("busy.trace");
    let mut text = String::new();
    for cycle in (0..1650).step_by(6) {
        writeln!(text, "{cycle} 0 0 GB 4\n{cycle} 1 0 BE 2").expect("string write");
        if cycle == 1296 {
            writeln!(text, "1300 2 0 GL 1").expect("string write");
        }
    }
    std::fs::write(&replay, text).expect("replay written");
    for (engine, options) in ENGINES {
        let cwd = dir.join(engine);
        std::fs::create_dir_all(&cwd).expect("cell dir");
        let mut args = CONFIG.to_vec();
        args.extend(["--replay", replay.to_str().expect("utf-8 path")]);
        args.extend(options);
        args.extend(["--trace", "--trace-out", "trace.jsonl", "--flight-recorder"]);
        args.extend(["--flight-capacity", "300", "--gl-bound", "0"]);
        let out = ssq_in(&cwd, &args);
        assert!(stderr(&out).starts_with("error: run tripped at cycle 1301"));
        let trace = std::fs::read_to_string(cwd.join("trace.jsonl")).expect("trace");
        let events: Vec<String> = trace
            .lines()
            .map(|line| Event::from_jsonl(line).expect(line).to_string())
            .collect();
        assert!(events.len() > 3 * 256, "{engine}: only {}", events.len());
        let post_mortem =
            std::fs::read_to_string(cwd.join("results/flight-trip.txt")).expect("post-mortem");
        let header = format!(
            "events : 300 retained of {} recorded ({} evicted)\n",
            events.len(),
            events.len() - 300
        );
        assert!(post_mortem.contains(&header), "{engine}: {post_mortem}");
        let listed: Vec<&str> = post_mortem
            .lines()
            .skip_while(|l| *l != "--- last events (oldest first) ---")
            .skip(1)
            .take_while(|l| !l.is_empty())
            .collect();
        assert_eq!(listed, events[events.len() - 300..], "{engine}");
    }
}

#[test]
fn an_empty_measured_phase_is_diagnosed_on_every_engine_and_mode() {
    for engine in ENGINES {
        for mode in [&[][..], &["--flight-recorder"], &["--gl-bound", "50"]] {
            let mut args = vec!["simulate", "--radix", "4", "--cycles", "0"];
            args.extend(engine.1);
            args.extend(mode);
            assert_diagnosed(&ssq(&args), "--cycles: ");
        }
    }
}

#[test]
fn a_radix_beyond_the_model_is_a_config_error() {
    let out = ssq(&["simulate", "--radix", "128", "--width", "1024"]);
    assert_diagnosed(&out, "radix 128 exceeds");
}

/// The sharded engine is a library runner only: `simulate` names the
/// engines it drives, and `--threads` is no option of it.
#[test]
fn the_par_engine_and_its_threads_option_are_not_offered() {
    let base = ["simulate", "--radix", "4", "--cycles", "10"];
    assert_diagnosed(
        &ssq(&[&base[..], &["--engine", "par"]].concat()),
        "--engine: expected seq or bitpar, got \"par\"",
    );
    assert_diagnosed(
        &ssq(&[&base[..], &["--threads", "2"]].concat()),
        "unknown option --threads",
    );
}

/// `--capture` reports the file it wrote on stderr, so the stdout of a
/// `--csv` run is the CSV report alone, as it is without a capture.
#[test]
fn a_captured_csv_run_prints_the_csv_alone() {
    let dir = Scratch::new("capture");
    let capture = dir.join("capture.trace");
    let capture = capture.to_str().expect("utf-8 path");
    let args = [
        "simulate",
        "--radix",
        "4",
        "--cycles",
        "300",
        "--csv",
        "--flow",
        "0:1:BE:0.2:4",
    ];
    let plain = ssq(&args);
    let captured = ssq(&[&args[..], &["--capture", capture]].concat());
    assert!(captured.status.success(), "{}", stderr(&captured));
    let stdout = String::from_utf8_lossy(&captured.stdout);
    assert_eq!(
        stdout.lines().next(),
        Some("flow,class,packets,throughput (flits/cycle),mean latency,max latency")
    );
    assert_eq!(captured.stdout, plain.stdout);
    assert!(
        stderr(&captured).starts_with("captured "),
        "{}",
        stderr(&captured)
    );
    assert!(std::fs::read_to_string(capture).is_ok_and(|t| t.lines().count() > 10));
}

/// The profiler ships in the default build: `--prof` prints the phase
/// table, and warm-up never shows in it. A Bernoulli flow keeps `bitpar`
/// dense, so both engines execute — and sample — every measured cycle.
#[test]
fn the_default_build_profiles_every_measured_cycle() {
    for engine in ["seq", "bitpar"] {
        let out = ssq(&[
            "simulate",
            "--radix",
            "4",
            "--warmup",
            "50",
            "--cycles",
            "500",
            "--flow",
            "0:0:BE:0.2:4",
            "--prof",
            "--engine",
            engine,
        ]);
        assert!(out.status.success(), "{engine}: {}", stderr(&out));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("profiled 500 of 500 cycles"),
            "{engine}: {stdout}"
        );
        for phase in ["prepare", "decide", "commit"] {
            let row = stdout.lines().find(|l| l.starts_with(phase));
            assert!(row.is_some(), "{engine}: no {phase} row in: {stdout}");
        }
    }
}

/// The bytes the run-observation outputs carry on `CONFIG` plus the
/// replay: the `--metrics-out` series as CSV and JSON, the metrics block
/// of a tripped run's post-mortem, and every `--prof` line but its
/// nanosecond figures.
#[test]
fn the_observation_outputs_keep_their_bytes() {
    let dir = Scratch::new("pinned");
    let replay = dir.join("sparse.trace");
    std::fs::write(&replay, replay_text()).expect("replay written");
    let run = |name: &str, extra: &[&str]| {
        let cwd = dir.join(name);
        std::fs::create_dir_all(&cwd).expect("run dir");
        let mut args = CONFIG.to_vec();
        args.extend(["--replay", replay.to_str().expect("utf-8 path")]);
        args.extend(extra);
        (ssq_in(&cwd, &args), cwd)
    };
    let read = |path: &Path| std::fs::read_to_string(path).expect("output written");

    for (ext, first, row_200, last) in [
        (
            "csv",
            "cycle,delivered_packets,delivered_flits,dropped_packets,chained_packets,gl_policed_cycles",
            "200,2.000,8.000,0.000,0.000,0.000",
            "1600,59.000,215.000,0.000,0.000,0.000",
        ),
        (
            "json",
            "[",
            "  {\"cycle\":200,\"delivered_packets\":2.000,\"delivered_flits\":8.000,\
             \"dropped_packets\":0.000,\"chained_packets\":0.000,\"gl_policed_cycles\":0.000},",
            "]",
        ),
    ] {
        let file = format!("m.{ext}");
        let (out, cwd) = run(ext, &["--metrics-interval", "50", "--metrics-out", &file]);
        assert!(out.status.success(), "{ext}: {}", stderr(&out));
        let text = read(&cwd.join(&file));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 31 + usize::from(ext == "json"), "{text}");
        assert_eq!(lines.first(), Some(&first), "{text}");
        assert!(lines.contains(&row_200), "{text}");
        assert_eq!(lines.last(), Some(&last), "{text}");
        assert!(text.ends_with('\n'));
    }

    let (out, cwd) = run(
        "trip",
        &[
            "--flight-recorder",
            "--gl-bound",
            "0",
            "--metrics-interval",
            "50",
        ],
    );
    assert!(!out.status.success(), "a 0-cycle GL bound cannot hold");
    assert!(
        stderr(&out).contains("run tripped at cycle 48"),
        "{}",
        stderr(&out)
    );
    let post_mortem = read(&cwd.join("results/flight-trip.txt"));
    let block = post_mortem
        .split_once("\n--- metrics at trip ---\n")
        .map(|(_, block)| block)
        .expect("a metrics block");
    // The block is the switch's at the trip, not at the last interval
    // boundary before it: the trip cycle's row ends the series.
    let rule = "-".repeat(94);
    assert_eq!(
        block,
        format!(
            "delivered_packets = 3.000\n\
             delivered_flits = 12.000\n\
             dropped_packets = 0.000\n\
             chained_packets = 0.000\n\
             gl_policed_cycles = 0.000\n\
             \n\
             --- sampled series ---\n\
             cycle  delivered_packets  delivered_flits  dropped_packets  chained_packets  gl_policed_cycles\n\
             {rule}\n\
             0                  0.000            0.000            0.000            0.000              0.000\n\
             48                 3.000           12.000            0.000            0.000              0.000\n"
        )
    );

    for (engine, cycles, prepares, refills) in [("seq", 1500, 1500, 23), ("bitpar", 291, 291, 19)] {
        let mut args: Vec<&str> = CONFIG.iter().copied().filter(|&a| a != "--csv").collect();
        args.extend(["--replay", replay.to_str().expect("utf-8 path")]);
        args.extend(["--prof", "--engine", engine]);
        let out = ssq(&args);
        assert!(out.status.success(), "{engine}: {}", stderr(&out));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let profile = stdout
            .split_once("cycle-phase profile (prepare/decide/commit):\n")
            .map(|(_, profile)| profile)
            .expect("a profile");
        // Every line with its nanosecond-derived cells left out.
        let shape: Vec<String> = profile
            .lines()
            .map(|line| {
                let cells: Vec<&str> = line.split_whitespace().collect();
                match cells.first() {
                    Some(&("prepare" | "decide" | "commit")) if cells.len() == 4 => {
                        format!("{} {}", cells[0], cells[3])
                    }
                    _ if line.starts_with("decide fraction: ") => "decide fraction".into(),
                    _ => line.to_string(),
                }
            })
            .collect();
        assert_eq!(
            shape,
            [
                format!("profiled {cycles} of {cycles} cycles"),
                "phase    ns/cycle  fraction  samples".into(),
                "-".repeat(36),
                format!("prepare {prepares}"),
                "decide 126".into(),
                "commit 126".into(),
                "decide fraction".into(),
                format!(
                    "injection work (exact, measured window): 63 source polls, 63 staging \
                     probes, {refills} arrival-block refills"
                ),
                "output work (exact, measured window): 126 outputs visited, 0.08 of 4 per cycle"
                    .into(),
                "transmit-only cycles (exact, measured window): 228 stepped cycles with every \
                 requested output busy and nothing staged, 153 of them clock-only (no packet \
                 finished, no arrival due)"
                    .into(),
            ],
            "{engine}: {profile}"
        );
    }
}

/// `--prof --engine par` is refused as an engine, by name, before the
/// profiler is looked at.
#[test]
fn profiling_the_par_engine_is_refused_by_name() {
    let out = ssq(&[
        "simulate", "--radix", "4", "--cycles", "10", "--prof", "--engine", "par",
    ]);
    assert_diagnosed(&out, "--engine: expected seq or bitpar, got \"par\"");
    assert!(!stderr(&out).contains("--prof"), "{}", stderr(&out));
}

#[test]
fn the_retired_perf_report_is_an_unknown_subcommand() {
    assert_diagnosed(&ssq(&["perf-report"]), "unknown subcommand");
}
