//! Waveform dumping: a minimal Value Change Dump (VCD, IEEE 1364)
//! writer and a switch-activity recorder built on it.
//!
//! This module is the single VCD implementation of the workspace (it
//! used to be split between `ssq-sim` and `ssq-core`):
//!
//! * [`VcdWriter`] — streams standard VCD that GTKWave (or any
//!   waveform viewer) opens directly, with value deduplication and a
//!   definitions/changes phase machine;
//! * [`SwitchVcdRecorder`] — declares one group of signals per output
//!   channel (busy flag, granted input, packet class, flits remaining,
//!   read off the [`ChannelState`] that
//!   [`QosSwitch::channel`] derives from the output's transmit interval)
//!   and one buffer-occupancy counter per input port, then samples
//!   them every cycle.
//!
//! # Examples
//!
//! Using the writer directly:
//!
//! ```
//! use ssq_core::vcd::VcdWriter;
//!
//! let mut out = Vec::new();
//! let mut vcd = VcdWriter::new(&mut out, "1ns")?;
//! vcd.scope("switch")?;
//! let busy = vcd.add_wire(1, "busy")?;
//! let count = vcd.add_wire(8, "count")?;
//! vcd.upscope()?;
//! vcd.end_definitions()?;
//! vcd.change(0, busy, 0)?;
//! vcd.change(0, count, 0)?;
//! vcd.change(5, busy, 1)?;
//! vcd.change(5, count, 42)?;
//! let text = String::from_utf8(out)?;
//! assert!(text.contains("$timescale 1ns $end"));
//! assert!(text.contains("#5"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Examples
//!
//! ```
//! use ssq_core::vcd::SwitchVcdRecorder;
//! use ssq_core::{QosSwitch, SwitchConfig};
//! use ssq_sim::CycleModel;
//! use ssq_types::{Cycle, Geometry};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = SwitchConfig::builder(Geometry::new(4, 128)?).build()?;
//! let mut switch = QosSwitch::new(config)?;
//! let mut out = Vec::new();
//! let mut recorder = SwitchVcdRecorder::new(&mut out, &switch)?;
//! for c in 0..10 {
//!     switch.step(Cycle::new(c));
//!     recorder.sample(&switch, Cycle::new(c))?;
//! }
//! let text = String::from_utf8(out)?;
//! assert!(text.contains("$enddefinitions"));
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::io::{self, Write};

use ssq_types::{Cycle, InputId, OutputId, TrafficClass};

use crate::switch::{ChannelState, QosSwitch};

/// Handle to a declared VCD variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId {
    index: usize,
    width: u32,
}

impl VarId {
    /// Declared bit width of the variable.
    #[must_use]
    pub const fn width(self) -> u32 {
        self.width
    }
}

/// Writer state machine: declarations first, then value changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Definitions,
    Changes,
}

/// Streams a VCD file to any [`Write`] sink (a `File`, a `Vec<u8>` in
/// tests, a `BufWriter`, …). A `&mut W` also works, per the blanket
/// `Write for &mut W` impl.
#[derive(Debug)]
pub struct VcdWriter<W: Write> {
    out: W,
    phase: Phase,
    next_var: usize,
    var_widths: Vec<u32>,
    last_values: Vec<Option<u64>>,
    current_time: Option<u64>,
    scope_depth: usize,
}

/// Error for misuse of the writer's phases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcdPhaseError {
    action: &'static str,
}

impl fmt::Display for VcdPhaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VCD {} attempted in the wrong phase", self.action)
    }
}

impl std::error::Error for VcdPhaseError {}

impl From<VcdPhaseError> for io::Error {
    fn from(e: VcdPhaseError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidInput, e)
    }
}

/// Encodes a variable index as a VCD identifier (printable ASCII 33–126).
#[expect(clippy::cast_possible_truncation, reason = "`index % 94` fits a byte")]
fn id_code(mut index: usize) -> String {
    let mut code = String::new();
    loop {
        code.push(char::from(b'!' + (index % 94) as u8));
        index /= 94;
        if index == 0 {
            break;
        }
        index -= 1;
    }
    code
}

impl<W: Write> VcdWriter<W> {
    /// Creates a writer and emits the header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn new(mut out: W, timescale: &str) -> io::Result<Self> {
        writeln!(out, "$version swizzle-qos VCD writer $end")?;
        writeln!(out, "$timescale {timescale} $end")?;
        Ok(VcdWriter {
            out,
            phase: Phase::Definitions,
            next_var: 0,
            var_widths: Vec::new(),
            last_values: Vec::new(),
            current_time: None,
            scope_depth: 0,
        })
    }

    /// Opens a module scope.
    ///
    /// # Errors
    ///
    /// I/O errors, or [`VcdPhaseError`] after
    /// [`end_definitions`](Self::end_definitions).
    pub fn scope(&mut self, name: &str) -> io::Result<()> {
        self.require(Phase::Definitions, "scope")?;
        writeln!(self.out, "$scope module {name} $end")?;
        self.scope_depth += 1;
        Ok(())
    }

    /// Closes the innermost scope.
    ///
    /// # Errors
    ///
    /// I/O errors; [`VcdPhaseError`] outside the definitions phase.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open.
    pub fn upscope(&mut self) -> io::Result<()> {
        self.require(Phase::Definitions, "upscope")?;
        assert!(self.scope_depth > 0, "upscope without an open scope");
        writeln!(self.out, "$upscope $end")?;
        self.scope_depth -= 1;
        Ok(())
    }

    /// Declares a wire of `width` bits and returns its handle.
    ///
    /// # Errors
    ///
    /// I/O errors; [`VcdPhaseError`] outside the definitions phase.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 64.
    pub fn add_wire(&mut self, width: u32, name: &str) -> io::Result<VarId> {
        assert!((1..=64).contains(&width), "width {width} outside 1..=64");
        self.require(Phase::Definitions, "add_wire")?;
        let index = self.next_var;
        self.next_var += 1;
        self.var_widths.push(width);
        self.last_values.push(None);
        writeln!(self.out, "$var wire {width} {} {name} $end", id_code(index))?;
        Ok(VarId { index, width })
    }

    /// Ends the declaration section; value changes may follow.
    ///
    /// # Errors
    ///
    /// I/O errors; [`VcdPhaseError`] if called twice.
    ///
    /// # Panics
    ///
    /// Panics if scopes are still open.
    pub fn end_definitions(&mut self) -> io::Result<()> {
        self.require(Phase::Definitions, "end_definitions")?;
        assert_eq!(self.scope_depth, 0, "unclosed scopes at end of definitions");
        writeln!(self.out, "$enddefinitions $end")?;
        self.phase = Phase::Changes;
        Ok(())
    }

    /// Records `var = value` at time `t`. Deduplicates: unchanged values
    /// emit nothing. Times must be non-decreasing.
    ///
    /// # Errors
    ///
    /// I/O errors; [`VcdPhaseError`] before
    /// [`end_definitions`](Self::end_definitions).
    ///
    /// # Panics
    ///
    /// Panics if `t` goes backwards or `value` does not fit the declared
    /// width.
    pub fn change(&mut self, t: u64, var: VarId, value: u64) -> io::Result<()> {
        self.require(Phase::Changes, "change")?;
        let width = self.var_widths[var.index];
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} exceeds {width}-bit variable"
        );
        if self.last_values[var.index] == Some(value) {
            return Ok(());
        }
        match self.current_time {
            Some(current) if current == t => {}
            Some(current) => {
                assert!(t > current, "time went backwards: {t} < {current}");
                writeln!(self.out, "#{t}")?;
                self.current_time = Some(t);
            }
            None => {
                writeln!(self.out, "#{t}")?;
                self.current_time = Some(t);
            }
        }
        if width == 1 {
            writeln!(self.out, "{value}{}", id_code(var.index))?;
        } else {
            writeln!(self.out, "b{value:b} {}", id_code(var.index))?;
        }
        self.last_values[var.index] = Some(value);
        Ok(())
    }

    /// Flushes the underlying sink.
    ///
    /// # Errors
    ///
    /// Propagates the sink's flush error.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }

    fn require(&self, phase: Phase, action: &'static str) -> Result<(), VcdPhaseError> {
        if self.phase == phase {
            Ok(())
        } else {
            Err(VcdPhaseError { action })
        }
    }
}

/// Class encoding on the `class` wires: BE=0, GB=1, GL=2, idle=3.
fn class_code(class: Option<TrafficClass>) -> u64 {
    match class {
        Some(TrafficClass::BestEffort) => 0,
        Some(TrafficClass::GuaranteedBandwidth) => 1,
        Some(TrafficClass::GuaranteedLatency) => 2,
        None => 3,
    }
}

/// Records a [`QosSwitch`]'s externally observable activity to VCD.
#[derive(Debug)]
pub struct SwitchVcdRecorder<W: Write> {
    vcd: VcdWriter<W>,
    busy: Vec<VarId>,
    granted_input: Vec<VarId>,
    class: Vec<VarId>,
    remaining: Vec<VarId>,
    occupancy: Vec<VarId>,
}

impl<W: Write> SwitchVcdRecorder<W> {
    /// Declares the signal hierarchy for `switch` and finishes the VCD
    /// header. One cycle of simulated time maps to one VCD time unit.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn new(out: W, switch: &QosSwitch) -> io::Result<Self> {
        let radix = switch.config().geometry().radix();
        let mut vcd = VcdWriter::new(out, "1ns")?;
        vcd.scope("switch")?;
        let mut busy = Vec::with_capacity(radix);
        let mut granted_input = Vec::with_capacity(radix);
        let mut class = Vec::with_capacity(radix);
        let mut remaining = Vec::with_capacity(radix);
        for o in 0..radix {
            vcd.scope(&format!("out{o}"))?;
            busy.push(vcd.add_wire(1, "busy")?);
            granted_input.push(vcd.add_wire(8, "granted_input")?);
            class.push(vcd.add_wire(2, "class")?);
            remaining.push(vcd.add_wire(16, "flits_remaining")?);
            vcd.upscope()?;
        }
        let mut occupancy = Vec::with_capacity(radix);
        for i in 0..radix {
            vcd.scope(&format!("in{i}"))?;
            occupancy.push(vcd.add_wire(16, "buffered_flits")?);
            vcd.upscope()?;
        }
        vcd.upscope()?;
        vcd.end_definitions()?;
        Ok(SwitchVcdRecorder {
            vcd,
            busy,
            granted_input,
            class,
            remaining,
            occupancy,
        })
    }

    /// Samples the switch state at `now`. Call once per cycle, after
    /// [`CycleModel::step`](ssq_sim::CycleModel::step).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn sample(&mut self, switch: &QosSwitch, now: Cycle) -> io::Result<()> {
        let radix = switch.config().geometry().radix();
        let t = now.value();
        for o in 0..radix {
            match switch.channel(OutputId::new(o)) {
                ChannelState::Idle => {
                    self.vcd.change(t, self.busy[o], 0)?;
                    self.vcd.change(t, self.granted_input[o], 0xFF)?;
                    self.vcd.change(t, self.class[o], class_code(None))?;
                    self.vcd.change(t, self.remaining[o], 0)?;
                }
                ChannelState::Transmitting {
                    input,
                    class,
                    remaining_flits,
                } => {
                    self.vcd.change(t, self.busy[o], 1)?;
                    self.vcd
                        .change(t, self.granted_input[o], input.index() as u64)?;
                    self.vcd.change(t, self.class[o], class_code(Some(class)))?;
                    self.vcd.change(
                        t,
                        self.remaining[o],
                        remaining_flits.min(u64::from(u16::MAX)),
                    )?;
                }
            }
        }
        for i in 0..radix {
            let occ = switch.buffered_flits(InputId::new(i));
            self.vcd
                .change(t, self.occupancy[i], occ.min(u64::from(u16::MAX)))?;
        }
        Ok(())
    }

    /// Flushes the underlying sink.
    ///
    /// # Errors
    ///
    /// Propagates the sink's flush error.
    pub fn flush(&mut self) -> io::Result<()> {
        self.vcd.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Policy, SwitchConfig};
    use ssq_sim::CycleModel;
    use ssq_traffic::{FixedDest, Injector, Saturating};
    use ssq_types::{Geometry, Rate};

    fn recorded_dump() -> String {
        let mut config = SwitchConfig::builder(Geometry::new(4, 128).unwrap())
            .policy(Policy::LrgOnly)
            .gb_buffer_flits(16)
            .build()
            .unwrap();
        config
            .reservations_mut()
            .reserve_gb(
                InputId::new(0),
                OutputId::new(1),
                Rate::new(0.5).unwrap(),
                4,
            )
            .unwrap();
        let mut switch = QosSwitch::new(config).unwrap();
        switch.add_injector(
            Injector::new(
                Box::new(Saturating::new(4)),
                Box::new(FixedDest::new(OutputId::new(1))),
                TrafficClass::GuaranteedBandwidth,
            )
            .for_input(InputId::new(0)),
        );
        let mut out = Vec::new();
        {
            let mut rec = SwitchVcdRecorder::new(&mut out, &switch).unwrap();
            for c in 0..30u64 {
                switch.step(Cycle::new(c));
                rec.sample(&switch, Cycle::new(c)).unwrap();
            }
            rec.flush().unwrap();
        }
        String::from_utf8(out).unwrap()
    }

    fn build_sample() -> String {
        let mut out = Vec::new();
        {
            let mut vcd = VcdWriter::new(&mut out, "1ns").unwrap();
            vcd.scope("top").unwrap();
            let a = vcd.add_wire(1, "a").unwrap();
            vcd.scope("inner").unwrap();
            let b = vcd.add_wire(4, "b").unwrap();
            vcd.upscope().unwrap();
            vcd.upscope().unwrap();
            vcd.end_definitions().unwrap();
            vcd.change(0, a, 1).unwrap();
            vcd.change(0, b, 9).unwrap();
            vcd.change(3, a, 1).unwrap(); // duplicate — suppressed
            vcd.change(7, b, 2).unwrap();
        }
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn header_and_structure() {
        let text = build_sample();
        assert!(text.starts_with("$version"));
        assert!(text.contains("$timescale 1ns $end"));
        assert!(text.contains("$scope module top $end"));
        assert!(text.contains("$scope module inner $end"));
        assert_eq!(text.matches("$upscope $end").count(), 2);
        assert!(text.contains("$enddefinitions $end"));
    }

    #[test]
    fn var_declarations() {
        let text = build_sample();
        assert!(text.contains("$var wire 1 ! a $end"));
        assert!(text.contains("$var wire 4 \" b $end"));
    }

    #[test]
    fn value_changes_and_dedup() {
        let text = build_sample();
        assert!(text.contains("#0\n1!\nb1001 \""));
        // The duplicate change at t=3 was suppressed entirely.
        assert!(!text.contains("#3"));
        assert!(text.contains("#7\nb10 \""));
    }

    #[test]
    fn id_codes_cover_many_variables() {
        assert_eq!(id_code(0), "!");
        assert_eq!(id_code(93), "~");
        assert_eq!(id_code(94), "!!");
        assert_eq!(id_code(94 + 93), "~!");
        // All codes must be unique across a large range.
        let codes: std::collections::HashSet<String> = (0..10_000).map(id_code).collect();
        assert_eq!(codes.len(), 10_000);
    }

    #[test]
    fn changes_before_enddefinitions_are_rejected() {
        let mut out = Vec::new();
        let mut vcd = VcdWriter::new(&mut out, "1ns").unwrap();
        let a = vcd.add_wire(1, "a").unwrap();
        let err = vcd.change(0, a, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn time_must_be_monotonic() {
        let mut out = Vec::new();
        let mut vcd = VcdWriter::new(&mut out, "1ns").unwrap();
        let a = vcd.add_wire(1, "a").unwrap();
        vcd.end_definitions().unwrap();
        vcd.change(5, a, 0).unwrap();
        vcd.change(4, a, 1).unwrap();
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_value_rejected() {
        let mut out = Vec::new();
        let mut vcd = VcdWriter::new(&mut out, "1ns").unwrap();
        let a = vcd.add_wire(2, "a").unwrap();
        vcd.end_definitions().unwrap();
        vcd.change(0, a, 4).unwrap();
    }

    #[test]
    fn declares_per_port_hierarchy() {
        let text = recorded_dump();
        for o in 0..4 {
            assert!(
                text.contains(&format!("$scope module out{o} $end")),
                "out{o}"
            );
            assert!(text.contains(&format!("$scope module in{o} $end")), "in{o}");
        }
        assert_eq!(
            text.matches("$var wire 1 ").count(),
            4,
            "one busy flag per output"
        );
    }

    #[test]
    fn records_transmission_activity() {
        let text = recorded_dump();
        let changes = &text[text.find("$enddefinitions").unwrap()..];
        // The saturated flow keeps out1 busy: its busy wire toggles.
        assert!(
            changes.lines().any(|l| l.starts_with('1')),
            "no busy=1 events"
        );
        // Timestamps advance.
        assert!(changes.contains("#0"));
        assert!(changes.contains("#29"));
    }

    #[test]
    fn unchanged_signals_stay_quiet() {
        let text = recorded_dump();
        let changes = &text[text.find("$enddefinitions").unwrap()..];
        // Output 3 never transmits; after the initial sample its busy wire
        // must never appear again. Find its id code from the declaration.
        let decl_line = text
            .lines()
            .filter(|l| l.contains("$var wire 1 "))
            .nth(3)
            .expect("four busy declarations");
        let id = decl_line.split_whitespace().nth(3).unwrap();
        let events = changes
            .lines()
            .filter(|l| l.strip_prefix(['0', '1']).is_some_and(|rest| rest == id))
            .count();
        assert_eq!(events, 1, "idle output's busy wire changed more than once");
    }
}
