//! Flight-recorder post-mortem rendering.
//!
//! When the runner trips (stall, violated GL bound) or a debug assert
//! fires, the last N events from the [`RingSink`] plus the latest
//! metrics snapshot are rendered into one artifact under `results/` —
//! so a failed run leaves evidence instead of nothing.

use std::io;
use std::path::{Path, PathBuf};

use crate::metrics::MetricsRegistry;
use crate::sink::RingSink;

/// Renders a post-mortem report: the trip reason, how many events the
/// ring retained of how many it recorded, the retained tail of the event
/// stream (chronological), and every gauge's latest value followed by
/// the sampled series. `ring` is the run's flight recorder, if one was
/// attached.
#[must_use]
pub fn render_post_mortem(
    reason: &str,
    tripped_at: u64,
    ring: Option<&RingSink>,
    metrics: Option<&MetricsRegistry>,
) -> String {
    let events = ring.map(RingSink::events).unwrap_or_default();
    let recorded = ring.map_or(0, RingSink::total_recorded);
    let evicted = recorded - events.len() as u64;
    let mut out = String::new();
    out.push_str("=== flight recorder post-mortem ===\n");
    out.push_str(&format!("reason : {reason}\n"));
    out.push_str(&format!("cycle  : {tripped_at}\n"));
    out.push_str(&format!(
        "events : {} retained of {recorded} recorded ({evicted} evicted)\n",
        events.len()
    ));
    out.push('\n');
    if events.is_empty() {
        out.push_str("(no events retained — was the flight recorder attached?)\n");
    } else {
        out.push_str("--- last events (oldest first) ---\n");
        for ev in &events {
            out.push_str(&ev.to_string());
            out.push('\n');
        }
    }
    if let Some(m) = metrics {
        out.push('\n');
        out.push_str("--- metrics at trip ---\n");
        for (name, value) in m.latest_summary() {
            out.push_str(&format!("{name} = {value}\n"));
        }
        if m.samples() > 0 {
            out.push('\n');
            out.push_str("--- sampled series ---\n");
            out.push_str(&m.to_table().to_text());
        }
    }
    out
}

/// Writes a post-mortem to `<dir>/flight-<name>.txt`, creating the
/// directory if needed, and returns the path.
///
/// Never clobbers an earlier post-mortem: if the primary path already
/// exists the file is written as `flight-<name>-<tripped_at>.txt`
/// instead (and, should a same-cycle artifact also exist, with an extra
/// monotonically probed `.N` suffix), so every run of a sweep keeps its
/// own evidence.
///
/// # Errors
///
/// Propagates filesystem errors from directory creation or the write.
pub fn write_post_mortem(
    dir: &Path,
    name: &str,
    reason: &str,
    tripped_at: u64,
    ring: Option<&RingSink>,
    metrics: Option<&MetricsRegistry>,
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let mut path = dir.join(format!("flight-{name}.txt"));
    if path.exists() {
        path = dir.join(format!("flight-{name}-{tripped_at}.txt"));
    }
    let mut probe = 1u32;
    while path.exists() {
        path = dir.join(format!("flight-{name}-{tripped_at}.{probe}.txt"));
        probe += 1;
    }
    std::fs::write(&path, render_post_mortem(reason, tripped_at, ring, metrics))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind};
    use crate::sink::TraceSink;

    fn decay(cycle: u64) -> Event {
        Event {
            cycle,
            kind: EventKind::Decay {
                output: 1,
                epoch: 2,
            },
        }
    }

    #[test]
    fn render_includes_reason_events_and_metrics() {
        let mut ring = RingSink::new(8);
        ring.record(&decay(42));
        let mut m = MetricsRegistry::new(10, &["grants"]);
        m.snapshot(40, &[9.0]);
        let text = render_post_mortem(
            "stall: no progress for 1000 cycles",
            1042,
            Some(&ring),
            Some(&m),
        );
        assert!(text.contains("stall: no progress"), "{text}");
        assert!(text.contains("decay"), "{text}");
        assert!(text.contains("grants = 9.000"), "{text}");
        assert!(text.contains("sampled series"), "{text}");
    }

    #[test]
    fn empty_ring_is_called_out() {
        let text = render_post_mortem("assert", 0, None, None);
        assert!(text.contains("no events retained"), "{text}");
        assert!(text.contains("events : 0 retained of 0 recorded (0 evicted)\n"));
    }

    /// The header says how much of the run the ring no longer holds.
    #[test]
    fn the_header_counts_what_the_ring_evicted() {
        let mut ring = RingSink::new(4);
        for cycle in 0..3 {
            ring.record(&decay(cycle));
        }
        let text = render_post_mortem("trip", 3, Some(&ring), None);
        assert!(
            text.contains("events : 3 retained of 3 recorded (0 evicted)\n"),
            "{text}"
        );
        for cycle in 3..10 {
            ring.record(&decay(cycle));
        }
        let text = render_post_mortem("trip", 10, Some(&ring), None);
        assert!(
            text.contains("events : 4 retained of 10 recorded (6 evicted)\n"),
            "{text}"
        );
        let lines: Vec<&str> = text.lines().skip_while(|l| !l.starts_with("---")).collect();
        let kept: Vec<String> = (6..10).map(|c| decay(c).to_string()).collect();
        assert_eq!(lines[1..], kept, "{text}");
    }

    #[test]
    fn write_creates_directory_and_file() {
        let dir = std::env::temp_dir().join(format!("ssq-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = write_post_mortem(&dir, "unit", "test trip", 7, None, None).unwrap();
        assert!(path.ends_with("flight-unit.txt"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("test trip"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn existing_post_mortems_are_never_clobbered() {
        let dir = std::env::temp_dir().join(format!("ssq-flight-clobber-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let first = write_post_mortem(&dir, "unit", "first trip", 99, None, None).unwrap();
        assert!(first.ends_with("flight-unit.txt"));
        let second = write_post_mortem(&dir, "unit", "second trip", 99, None, None).unwrap();
        assert!(second.ends_with("flight-unit-99.txt"), "{second:?}");
        let third = write_post_mortem(&dir, "unit", "third trip", 99, None, None).unwrap();
        assert!(third.ends_with("flight-unit-99.1.txt"), "{third:?}");
        // The earlier artifacts survived untouched.
        assert!(std::fs::read_to_string(&first).unwrap().contains("first"));
        assert!(std::fs::read_to_string(&second).unwrap().contains("second"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
