//! What the CLI test binaries share: spawning the real `ssq`, a scratch
//! directory per test, and the shape of a diagnosed failure.

// Each test binary uses its own subset.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

pub fn ssq(args: &[&str]) -> Output {
    ssq_in(Path::new("."), args)
}

/// `ssq` run from `cwd` — where its default `results/` lands.
pub fn ssq_in(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ssq"))
        .current_dir(cwd)
        .args(args)
        .output()
        .expect("ssq spawns")
}

/// A scratch directory of this test's own (tests run in parallel),
/// removed when the test ends.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("ssq-cli-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The run failed the way a user should see it: nonzero exit, an
/// `error:` line naming `needle`, no panic message.
pub fn assert_diagnosed(out: &Output, needle: &str) {
    let err = stderr(out);
    assert!(!out.status.success(), "should have failed: {err}");
    assert_eq!(
        out.status.code(),
        Some(1),
        "an error exit, not a crash: {err}"
    );
    assert!(err.starts_with("error: "), "{err}");
    assert!(err.contains(needle), "{needle:?} not in: {err}");
    assert!(!err.contains("panicked"), "{err}");
}
