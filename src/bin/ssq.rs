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
//!
//! This file is the dispatcher; each subcommand family lives in a module
//! under `src/bin/ssq/`.

use std::error::Error;
use std::process::ExitCode;

// `#[path]`: a module declared in a crate root resolves beside the root,
// and a stray `src/bin/opts.rs` would be auto-discovered as a binary.
#[path = "ssq/campaigns.rs"]
mod campaigns;
#[path = "ssq/models.rs"]
mod models;
#[path = "ssq/opts.rs"]
mod opts;
#[path = "ssq/simulate.rs"]
mod simulate;
#[path = "ssq/trace_report.rs"]
mod trace_report;

use campaigns::{faults_cmd, net_cmd};
use models::{frequency, gl_bound, gl_burst, storage, verify};
use opts::err;
use simulate::simulate;
use trace_report::trace_report;

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
  --engine NAME           how the one cycle kernel is driven: seq
                          (default), every cycle; bitpar, seq that jumps
                          provably idle stretches (dense again under any
                          probe or watchdog); par, decides on worker
                          threads — all bit-identical
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
                          prepare/decide/commit breakdown (bitpar: of the
                          cycles idle skipping still executes); seq and
                          bitpar only — par has no profiler

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
    // `--help` anywhere on the line, after any subcommand, is a request
    // for the option list, not an option.
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return Ok(());
    }
    match args.first().map(String::as_str) {
        Some("simulate") => simulate(&args[1..]),
        Some("trace-report") => trace_report(&args[1..]),
        // A leading option means `simulate` was implied:
        // `ssq --trace --flow 0:0:GB:sat` just works.
        Some(leading) if leading.starts_with("--") => simulate(args),
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
        Some("help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(err(format!("unknown subcommand {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opts::{parse_flow, parse_policy, parse_reserve, Opts};
    use swizzle_qos::arbiter::CounterPolicy;
    use swizzle_qos::core::Policy;
    use swizzle_qos::trace::Event;
    use swizzle_qos::types::TrafficClass;

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
        // The run must succeed on both engines the profiler covers
        // (tests/cli_engines.rs reads the table it prints).
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
        let mut bitpar = strs(&base);
        bitpar.extend(strs(&["--engine", "bitpar"]));
        simulate(&bitpar).unwrap();
        // `begin_measurement` resets the phase totals, so the watchdog
        // modes profile like any other.
        let mut monitored = strs(&base);
        monitored.push("--flight-recorder".to_owned());
        simulate(&monitored).unwrap();
        // The kernel profiler never sees a cycle under the sharded
        // engine: refused rather than reported as an empty table.
        let mut par = strs(&base);
        par.extend(strs(&["--engine", "par", "--threads", "2"]));
        let e = simulate(&par).expect_err("--prof --engine par");
        assert!(e.to_string().contains("--prof"), "got: {e}");
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
