//! Output-channel state machine.

#![cfg_attr(
    not(test),
    deny(clippy::indexing_slicing, clippy::arithmetic_side_effects)
)]

use std::fmt;

use ssq_types::{InputId, OutputId, TrafficClass};

/// The per-cycle state of one output channel.
///
/// The cycle-accurate timing of the Swizzle Switch: a packet costs one
/// (or, for the 4-level prior design, two) arbitration cycle(s) during
/// which no data moves, then one cycle per flit. Back-to-back packets on
/// a saturated channel therefore deliver `L/(L+A)` flits/cycle — the
/// "maximum possible throughput is 0.89 flits/cycle … because this
/// experiment uses 8-flit packet sizes" ceiling of Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelState {
    /// No packet holds the channel; arbitration may start.
    Idle,
    /// A committed packet is streaming its flits.
    Transmitting {
        /// The granted input.
        input: InputId,
        /// The class of the committed packet (identifies the queue).
        class: TrafficClass,
        /// Flits left to move, including the one moving this cycle.
        remaining_flits: u64,
    },
}

/// One output channel: its FSM plus utilization accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputChannel {
    output: OutputId,
    state: ChannelState,
    busy_flit_cycles: u64,
    arbitration_cycles: u64,
}

impl OutputChannel {
    /// Creates an idle channel for `output`.
    #[must_use]
    pub const fn new(output: OutputId) -> Self {
        OutputChannel {
            output,
            state: ChannelState::Idle,
            busy_flit_cycles: 0,
            arbitration_cycles: 0,
        }
    }

    /// The output this channel drives.
    #[must_use]
    pub const fn output(&self) -> OutputId {
        self.output
    }

    /// The current FSM state.
    #[must_use]
    pub const fn state(&self) -> ChannelState {
        self.state
    }

    /// Whether arbitration may start this cycle.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.state == ChannelState::Idle
    }

    /// Commits the channel to a packet chosen by arbitration; records the
    /// arbitration cycles spent.
    ///
    /// # Panics
    ///
    /// Panics if the channel is not idle or the packet is empty.
    pub fn commit(
        &mut self,
        input: InputId,
        class: TrafficClass,
        len_flits: u64,
        arbitration_cycles: u64,
    ) {
        assert!(self.is_idle(), "commit on a busy channel");
        assert!(len_flits > 0, "cannot commit an empty packet");
        self.arbitration_cycles = self.arbitration_cycles.saturating_add(arbitration_cycles);
        self.state = ChannelState::Transmitting {
            input,
            class,
            remaining_flits: len_flits,
        };
    }

    /// Moves one flit; returns the committed `(input, class)` and whether
    /// the packet finished (the channel returns to idle), or `None` when
    /// the channel is idle.
    pub fn transmit_flit(&mut self) -> Option<(InputId, TrafficClass, bool)> {
        let ChannelState::Transmitting {
            input,
            class,
            remaining_flits,
        } = self.state
        else {
            return None;
        };
        self.busy_flit_cycles = self.busy_flit_cycles.saturating_add(1);
        // `commit` asserts len_flits > 0 and the FSM returns to Idle at 1,
        // so remaining_flits >= 1 whenever we are Transmitting.
        let remaining = remaining_flits.saturating_sub(1);
        if remaining == 0 {
            self.state = ChannelState::Idle;
        } else {
            self.state = ChannelState::Transmitting {
                input,
                class,
                remaining_flits: remaining,
            };
        }
        Some((input, class, remaining == 0))
    }

    /// Cycles spent moving flits since the last reset.
    #[must_use]
    pub const fn busy_flit_cycles(&self) -> u64 {
        self.busy_flit_cycles
    }

    /// Cycles spent arbitrating since the last reset.
    #[must_use]
    pub const fn arbitration_cycles(&self) -> u64 {
        self.arbitration_cycles
    }

    /// Clears utilization counters (at the measurement boundary); the FSM
    /// state is preserved so in-flight packets finish normally.
    pub fn reset_counters(&mut self) {
        self.busy_flit_cycles = 0;
        self.arbitration_cycles = 0;
    }
}

impl fmt::Display for OutputChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.state {
            ChannelState::Idle => write!(f, "{}: idle", self.output),
            ChannelState::Transmitting {
                input,
                class,
                remaining_flits,
            } => write!(
                f,
                "{}: {} from {} ({} flits left)",
                self.output, class, input, remaining_flits
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_idle_commit_drain() {
        let mut ch = OutputChannel::new(OutputId::new(0));
        assert!(ch.is_idle());
        ch.commit(InputId::new(3), TrafficClass::GuaranteedBandwidth, 2, 1);
        assert!(!ch.is_idle());
        let (i, c, done) = ch.transmit_flit().expect("busy channel transmits");
        assert_eq!(
            (i, c, done),
            (InputId::new(3), TrafficClass::GuaranteedBandwidth, false)
        );
        let (_, _, done) = ch.transmit_flit().expect("busy channel transmits");
        assert!(done);
        assert!(ch.is_idle());
    }

    #[test]
    fn utilization_counters_accumulate() {
        let mut ch = OutputChannel::new(OutputId::new(1));
        ch.commit(InputId::new(0), TrafficClass::BestEffort, 3, 1);
        while !ch.is_idle() {
            let _ = ch.transmit_flit();
        }
        ch.commit(InputId::new(1), TrafficClass::BestEffort, 1, 2);
        let _ = ch.transmit_flit();
        assert_eq!(ch.busy_flit_cycles(), 4);
        assert_eq!(ch.arbitration_cycles(), 3);
        ch.reset_counters();
        assert_eq!(ch.busy_flit_cycles(), 0);
    }

    #[test]
    #[should_panic(expected = "busy channel")]
    fn double_commit_is_a_bug() {
        let mut ch = OutputChannel::new(OutputId::new(0));
        ch.commit(InputId::new(0), TrafficClass::BestEffort, 2, 1);
        ch.commit(InputId::new(1), TrafficClass::BestEffort, 2, 1);
    }

    #[test]
    fn transmit_while_idle_is_a_no_op() {
        let mut ch = OutputChannel::new(OutputId::new(0));
        assert!(ch.transmit_flit().is_none());
        assert_eq!(ch.busy_flit_cycles(), 0);
    }

    #[test]
    fn reset_preserves_in_flight_state() {
        let mut ch = OutputChannel::new(OutputId::new(0));
        ch.commit(InputId::new(0), TrafficClass::GuaranteedLatency, 5, 1);
        ch.reset_counters();
        assert!(matches!(
            ch.state(),
            ChannelState::Transmitting {
                remaining_flits: 5,
                ..
            }
        ));
    }
}
