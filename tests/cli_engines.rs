//! `ssq simulate` through the real binary, every `--engine` × every way
//! of watching a run: the engines drive one kernel through one cycle
//! loop, so whatever a run writes — the `--csv` report, the event trace,
//! the waveform, the metrics series, the flight post-mortem — must be
//! byte-identical to `seq`'s. Plus the inputs that used to panic or
//! hang somewhere in that grid, each now a one-line diagnostic.

use std::fmt::Write as _;
use std::path::Path;

mod common;
use common::{assert_diagnosed, ssq, ssq_in, stderr, Scratch};

/// `(name, --engine options)`; `seq` first — it is the reference.
const ENGINES: [(&str, &[&str]); 3] = [
    ("seq", &[]),
    ("par", &["--engine", "par", "--threads", "2"]),
    ("bitpar", &["--engine", "bitpar"]),
];

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

#[test]
fn more_threads_than_outputs_still_finishes_with_seqs_report() {
    let run = |engine: &[&str]| {
        let mut args = vec!["simulate", "--radix", "4", "--cycles", "300", "--csv"];
        args.extend(["--flow", "0:1:BE:sat:4", "--flow", "2:1:BE:0.2:4"]);
        args.extend(engine);
        let out = ssq(&args);
        assert!(out.status.success(), "{}", stderr(&out));
        out.stdout
    };
    assert_eq!(run(&["--engine", "par", "--threads", "100000"]), run(&[]));
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

#[test]
fn profiling_the_par_engine_is_refused_by_name() {
    let out = ssq(&[
        "simulate", "--radix", "4", "--cycles", "10", "--prof", "--engine", "par",
    ]);
    assert_diagnosed(&out, "--prof: ");
    assert!(stderr(&out).contains("par"), "{}", stderr(&out));
}

#[test]
fn the_retired_perf_report_is_an_unknown_subcommand() {
    assert_diagnosed(&ssq(&["perf-report"]), "unknown subcommand");
}
