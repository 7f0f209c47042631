//! `qosbench` — see `benchmark/README.md`. Run through `benchmark/run.sh`,
//! which builds `ssq`, `fabric-run` and this program into one target
//! directory first.
//!
//! ```text
//! qosbench --workload W --seed N --seconds S --trace 0|1   one pass, one JSON line
//! qosbench [--seed N] [--seconds S]                        every workload, both passes
//! qosbench --compare A.json B.json                         regression table
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use qosbench::alloc::CountingAlloc;
use qosbench::gen::WORKLOADS;
use qosbench::report::{self, WorkloadResult, END_TO_END, PER_LAYER};
use qosbench::workload::Ctx;
use qosbench::{traced, untraced, DEFAULT_SECONDS};
use swizzle_qos::prof::json::Json;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

type Fallible<T> = Result<T, Box<dyn std::error::Error>>;

/// Parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    compare: Option<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        ..Args::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: invalid number {v:?}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = number(value()?)?,
            "--seconds" => parsed.seconds = number(value()?)?,
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                }
            }
            "--compare" => parsed.compare = Some((value()?.clone(), value()?.clone())),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &parsed.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?}; expected one of {WORKLOADS:?}"
            ));
        }
    }
    Ok(parsed)
}

/// Removes the scratch directory when the benchmark ends, however it
/// ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The programs under test sit beside this one: `run.sh` builds all
/// three into one target directory.
fn context() -> Fallible<(Ctx, Scratch)> {
    let exe = std::env::current_exe()?;
    let dir = exe.parent().ok_or("qosbench has no parent directory")?;
    let beside = |name: &str| -> Fallible<PathBuf> {
        let path = dir.join(name);
        if path.is_file() {
            Ok(path)
        } else {
            Err(format!(
                "{} not found; run benchmark/run.sh, which builds it",
                path.display()
            )
            .into())
        }
    };
    let out = PathBuf::from("benchmark/out");
    let tmp = out.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp)?;
    let ctx = Ctx {
        ssq: beside("ssq")?,
        fabric_run: beside("fabric-run")?,
        out,
        tmp: tmp.clone(),
    };
    Ok((ctx, Scratch(tmp)))
}

fn write_spans(
    ctx: &Ctx,
    workload: &str,
    seed: u64,
    rec: &qosbench::span::Recorder,
) -> Fallible<()> {
    let path = ctx.out.join(format!("spans-{workload}.json"));
    std::fs::write(&path, rec.to_json(workload, seed))?;
    Ok(())
}

/// One pass of one workload; prints the driver's JSON line last.
fn driver_mode(args: &Args, workload: &str) -> Fallible<()> {
    let (ctx, _scratch) = context()?;
    let line = if args.trace {
        let (pass, rec) = traced::run(workload, args.seed, &ctx)?;
        write_spans(&ctx, workload, args.seed, &rec)?;
        pass.driver_line(&PER_LAYER)
    } else {
        untraced::run(workload, args.seed, args.seconds, &ctx)?.driver_line(&END_TO_END)
    };
    println!("{line}");
    Ok(())
}

/// Every workload, untraced then traced; prints every metric by name
/// with its unit and writes the results document. Returns whether every
/// output check passed.
fn full_mode(args: &Args) -> Fallible<bool> {
    let (ctx, _scratch) = context()?;
    let mut results = Vec::new();
    let mut table = String::new();
    for workload in WORKLOADS {
        eprintln!("qosbench: {workload}: untraced pass ({} s)", args.seconds);
        let untraced = untraced::run(workload, args.seed, args.seconds, &ctx)?;
        eprintln!("qosbench: {workload}: traced pass");
        let (traced, rec) = traced::run(workload, args.seed, &ctx)?;
        write_spans(&ctx, workload, args.seed, &rec)?;
        let result = WorkloadResult { untraced, traced };
        let attempted = result.untraced.attempted + result.traced.attempted;
        let failed = result.untraced.failed() + result.traced.failed();
        table.push_str(&format!(
            "\n{workload} (seed {}): {attempted} checked runs, {failed} failed, failed_share {}\n end to end (tracing off):\n",
            args.seed,
            failed as f64 / attempted.max(1) as f64
        ));
        result.untraced.render(&END_TO_END, &mut table);
        table.push_str(" per layer (traced pass):\n");
        result.traced.render(&PER_LAYER, &mut table);
        results.push((workload, result));
    }
    let path = ctx.out.join(format!("results-seed{}.json", args.seed));
    std::fs::write(
        &path,
        report::results_json(args.seed, args.seconds, &results),
    )?;
    print!("{table}");
    println!(
        "\nresults: {}\nspans:   {}/spans-<workload>.json",
        path.display(),
        ctx.out.display()
    );
    Ok(results
        .iter()
        .all(|(_, r)| r.untraced.failed() + r.traced.failed() == 0))
}

fn read_json(path: &Path) -> Fallible<Json> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?)
}

/// Prints the regression table; `false` when any metric is worse.
fn compare_mode(base: &str, change: &str) -> Fallible<bool> {
    let bounds = report::bounds_from(&read_json(Path::new("BENCHMARK.json"))?)?;
    let (table, any_worse) = report::compare(
        &read_json(Path::new(base))?,
        &read_json(Path::new(change))?,
        &bounds,
    )?;
    print!("{table}");
    Ok(!any_worse)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("qosbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.compare, &args.workload) {
        (Some((base, change)), _) => compare_mode(base, change),
        (None, Some(workload)) => driver_mode(&args, workload).map(|()| true),
        (None, None) => full_mode(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("qosbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args = parse_args(&strs(&[
            "--workload",
            "sparse-r64",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(args.workload.as_deref(), Some("sparse-r64"));
        assert_eq!((args.seed, args.seconds, args.trace), (9, 3, true));
        assert_eq!(parse_args(&[]).expect("valid").seconds, DEFAULT_SECONDS);
        assert!(parse_args(&strs(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strs(&["--trace", "2"])).is_err());
        assert!(parse_args(&strs(&["--seed"])).is_err());
        let cmp = parse_args(&strs(&["--compare", "a.json", "b.json"])).expect("valid");
        assert_eq!(
            cmp.compare,
            Some(("a.json".to_owned(), "b.json".to_owned()))
        );
    }
}
