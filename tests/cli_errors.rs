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

    // Lines the switch cannot take (radix 4, at most 1 024 flits), and
    // two packets of one stream in one cycle, named by the second's line;
    // in an unsorted file, the earliest cycle's.
    let cases: &[(&str, &str, &str)] = &[
        (
            "input.trace",
            "0 9 3 GB 8\n",
            "input.trace:1: input 9 is outside radix 4",
        ),
        (
            "output.trace",
            "# ports\n0 1 9 GB 8\n",
            "output.trace:2: output 9 is outside radix 4",
        ),
        (
            "long.trace",
            "0 1 3 GB 2000\n",
            "long.trace:1: packet length 2000 flits outside 1..=1024",
        ),
        (
            "twice.trace",
            "5 0 1 GB 2\n5 0 2 GB 2\n",
            "twice.trace:2: input In0 injects two GB packets at cycle 5",
        ),
        (
            "unsorted.trace",
            "9 0 1 GB 2\n5 0 1 GB 2\n9 0 2 GB 2\n5 0 3 GB 2\n",
            "unsorted.trace:4: input In0 injects two GB packets at cycle 5",
        ),
    ];
    for (name, text, needle) in cases {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("written");
        assert_diagnosed(&replay(&path), needle);
    }

    // The same refusals past the first block of an otherwise sorted
    // file, which is read a block at a time during the run: each is
    // found before the run starts, with nothing on stdout. So is a
    // duplicate in a file that turns unsorted after 200 sorted lines.
    let sorted = |cycles: std::ops::Range<u64>| -> Vec<String> {
        cycles
            .map(|c| format!("{c} {} {} GB 1", c % 4, (c * 3) % 4))
            .collect()
    };
    let with = |mut lines: Vec<String>, at: usize, line: &str| {
        lines.insert(at, line.to_owned());
        lines.join("\n") + "\n"
    };
    let late: [(&str, String, String); 4] = [
        (
            "late-token.trace",
            with(sorted(0..1_500), 1_200, "1200 1 2 GX 1"),
            "late-token.trace:1201: unknown class \"GX\" (expected BE, GB, or GL)".into(),
        ),
        (
            "late-port.trace",
            with(sorted(0..1_500), 1_300, "1300 9 2 GB 1"),
            "late-port.trace:1301: input 9 is outside radix 4".into(),
        ),
        (
            "late-twice.trace",
            with(sorted(0..1_500), 1_401, "1400 0 3 GB 2"),
            "late-twice.trace:1402: input In0 injects two GB packets at cycle 1400".into(),
        ),
        (
            "turns-unsorted.trace",
            with(sorted(0..1_100), 200, "50 2 3 GB 2"),
            "turns-unsorted.trace:201: input In2 injects two GB packets at cycle 50".into(),
        ),
    ];
    for (name, text, needle) in late {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("written");
        let out = ssq(&[
            "simulate",
            "--radix",
            "4",
            "--cycles",
            "10",
            "--csv",
            "--replay",
            path.to_str().expect("utf-8 path"),
        ]);
        assert_diagnosed(&out, &needle);
        assert!(out.stdout.is_empty(), "{name}: no report before the error");
    }
}

/// A trace line whose fault site is not one the taxonomy names.
#[test]
fn trace_report_refuses_an_unknown_fault_site() {
    let dir = Scratch::new("site");
    let path = dir.join("site.jsonl");
    let line = "{\"cycle\":1,\"kind\":\"fault\",\"site\":\"foo\",\"output\":0,\
                \"input\":0,\"healed\":false}\n";
    std::fs::write(&path, line).expect("trace written");
    let out = report(&path);
    assert_diagnosed(
        &out,
        "site.jsonl:1: trace parse error: unknown `site` label `foo`",
    );
    assert!(out.stdout.is_empty(), "no partial report before the error");
}

const U64_MAX: &str = "18446744073709551615";

/// Flag values the libraries reject by assertion (or answer with a
/// wrapped number), and options a subcommand does not read: the CLI
/// answers each with an `error:` naming the flag.
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
        (&["gl-bound", "--l-max", U64_MAX, "--n-gl", "2"], "--l-max"),
        (&["gl-bound", "--l-max", "1025"], "--l-max"),
        (&["gl-bound", "--n-gl", "65"], "--n-gl"),
        (
            &["gl-bound", "--n-gl", "64", "--buffer", U64_MAX],
            "--buffer",
        ),
        (&["gl-burst", "--constraints", "5,3"], "--constraints"),
        (
            &[
                "gl-burst",
                "--l-max",
                U64_MAX,
                "--constraints",
                "5,18446744073709551615",
            ],
            "--l-max",
        ),
        (
            &["gl-burst", "--l-max", "0", "--constraints", "5"],
            "--l-max",
        ),
        (&["storage", "--flit-bytes", "0"], "--flit-bytes"),
        (&["verify", "--bogus"], "--bogus"),
        // An option the subcommand does not read is refused, not ignored.
        (&["simulate", "--cylces", "5"], "--cylces"),
        (&["gl-bound", "--lmax", "99"], "--lmax"),
        (&["trace-report", "--trace", "t.jsonl"], "--trace"),
        (&["frequency", "--radix", "8"], "--radix"),
        (
            &["simulate", "--policy", "lrg", "--fabric-check"],
            "--fabric-check",
        ),
        (
            &["simulate", "--policy", "four-level", "--gl-policing"],
            "--gl-policing",
        ),
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
