//! The CLI's error tier: whatever file a user points `ssq` at — absent,
//! binary, torn mid-line, or one bad line deep in a good capture — the
//! process exits nonzero with a `path:line:` diagnostic on stderr and
//! never panics. Driven through the real binary, since the exit code and
//! the stderr text are the contract.

use std::path::Path;
use std::process::Output;

mod common;
use common::{assert_diagnosed, ssq, stderr, Scratch};

/// A real trace written by `ssq simulate --trace`, as text.
fn good_trace(dir: &Scratch) -> String {
    let path = dir.join("good.jsonl");
    let out = ssq(&[
        "simulate",
        "--trace",
        "--trace-out",
        path.to_str().expect("utf-8 path"),
        "--radix",
        "4",
        "--cycles",
        "400",
        "--reserve",
        "0:0:40",
        "--flow",
        "0:0:GB:sat",
        "--flow",
        "1:0:BE:0.3",
        "--csv",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = std::fs::read_to_string(&path).expect("trace written");
    assert!(text.lines().count() > 100, "trace too short to cut up");
    text
}

fn report(path: &Path) -> Output {
    ssq(&["trace-report", "--in", path.to_str().expect("utf-8 path")])
}

#[test]
fn trace_report_on_a_missing_file_names_it() {
    let dir = Scratch::new("missing");
    let path = dir.join("nope.jsonl");
    assert_diagnosed(&report(&path), "nope.jsonl");
}

#[test]
fn trace_report_on_a_binary_blob_points_at_the_line() {
    let dir = Scratch::new("blob");
    let path = dir.join("blob.jsonl");
    let mut blob = b"{\"cycle\":1,\"kind\":\"decay\",\"output\":0,\"epoch\":1}\n".to_vec();
    blob.extend((0..4096u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8 | 0x80));
    std::fs::write(&path, blob).expect("blob written");
    assert_diagnosed(&report(&path), "blob.jsonl:2: ");
}

#[test]
fn trace_report_on_a_trace_torn_mid_line_points_at_the_last_line() {
    let dir = Scratch::new("torn");
    let good = good_trace(&dir);
    let keep = good.len() - 17;
    let lines = good[..keep].lines().count();
    let path = dir.join("torn.jsonl");
    std::fs::write(&path, &good[..keep]).expect("torn trace written");
    assert_diagnosed(&report(&path), &format!("torn.jsonl:{lines}: "));
}

#[test]
fn trace_report_finds_a_bad_line_deep_in_a_good_file() {
    let dir = Scratch::new("deep");
    let mut lines: Vec<String> = good_trace(&dir).lines().map(str::to_owned).collect();
    let at = lines.len() - 3;
    lines[at] = lines[at].replacen("\"cycle\":", "\"cycle\":-", 1);
    let path = dir.join("deep.jsonl");
    std::fs::write(&path, lines.join("\n")).expect("trace written");
    let out = report(&path);
    assert_diagnosed(&out, &format!("deep.jsonl:{}: ", at + 1));
    assert!(out.stdout.is_empty(), "no partial report before the error");
}

#[test]
fn trace_report_skips_blank_padding() {
    let dir = Scratch::new("padded");
    let good = good_trace(&dir);
    let padded = format!("\n  \n{}\n\t\n\n", good.replace('\n', "\n\n"));
    let path = dir.join("padded.jsonl");
    std::fs::write(&path, padded).expect("trace written");
    let (plain, padded) = (report(&dir.join("good.jsonl")), report(&path));
    assert!(padded.status.success(), "{}", stderr(&padded));
    let body = |out: &Output| {
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        // The first line names the file; the tables below must agree.
        text.split_once('\n').expect("header line").1.to_owned()
    };
    assert!(body(&padded).contains("in0->out0"));
    assert_eq!(body(&padded), body(&plain));
}

#[test]
fn simulate_replay_of_garbage_is_diagnosed() {
    let dir = Scratch::new("replay");
    let replay = |path: &Path| {
        ssq(&[
            "simulate",
            "--radix",
            "4",
            "--cycles",
            "10",
            "--replay",
            path.to_str().expect("utf-8 path"),
        ])
    };
    assert_diagnosed(&replay(&dir.join("nope.trace")), "nope.trace");

    let text = dir.join("text.trace");
    std::fs::write(&text, "# a comment\n\nnot a trace line\n").expect("written");
    assert_diagnosed(&replay(&text), "text.trace:3: ");

    let blob = dir.join("blob.trace");
    std::fs::write(&blob, [0xff, 0xfe, 0x00, 0x80, b'\n', 0xc3]).expect("written");
    assert_diagnosed(&replay(&blob), "blob.trace");
}

/// Flag values the libraries reject by assertion: the CLI answers each
/// with an `error:` naming the flag instead of reaching the panic.
#[test]
fn out_of_range_flag_values_are_diagnosed() {
    let cases: &[(&[&str], &str)] = &[
        (&["simulate", "--reserve", "9:0:10"], "--reserve"),
        (&["simulate", "--reserve", "0:0:10:0"], "--reserve"),
        (&["simulate", "--flow", "0:0:GB:2.0"], "--flow"),
        (&["simulate", "--flow", "0:0:GB:-1"], "--flow"),
        (&["simulate", "--flow", "0:0:GB:nan"], "--flow"),
        (&["simulate", "--flow", "0:0:BE:0.1:0"], "--flow"),
        (&["simulate", "--flow", "9:0:BE:0.1"], "--flow"),
        (&["simulate", "--flow", "0:99:BE:0.1"], "--flow"),
        (&["gl-bound", "--l-max", "0"], "--l-max"),
        (&["gl-bound", "--l-min", "0"], "--l-min"),
        (&["gl-bound", "--buffer", "0"], "--buffer"),
        (&["gl-burst", "--constraints", "5,3"], "--constraints"),
        (&["storage", "--flit-bytes", "0"], "--flit-bytes"),
        (&["verify", "--bogus"], "--bogus"),
    ];
    for (args, flag) in cases {
        assert_diagnosed(&ssq(args), flag);
    }
}

/// `--help` after any subcommand prints the option list and succeeds.
#[test]
fn help_on_every_subcommand_prints_usage() {
    for sub in [
        "simulate",
        "trace-report",
        "verify",
        "faults",
        "net",
        "gl-bound",
        "gl-burst",
        "storage",
        "frequency",
    ] {
        let out = ssq(&[sub, "--help"]);
        assert_eq!(out.status.code(), Some(0), "{sub}: {}", stderr(&out));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("USAGE"), "{sub} --help: {text}");
    }
}
