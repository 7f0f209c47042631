//! Why the paper builds a *single-stage* switch: composing switches
//! breaks per-flow QoS.
//!
//! §4.4: "Scaling to more nodes involve composing multiple switches,
//! which makes the QoS technique more complex. Crosspoints will have to
//! be shared by several flows … It becomes increasingly difficult to
//! maintain separation between flows in buffers."
//!
//! This example quantifies that. Four sources (A–D) all target one final
//! output with reservations 40/10/40/10 %. A and C are well-behaved
//! (they inject at their reserved rates); B and D flood.
//!
//! * **single stage** — one 4×4 SSVC switch sees each source on its own
//!   input, so every flow has its own crosspoint state: A and C receive
//!   their full reservations despite the floods.
//! * **two stages** — sources pair up onto two inter-stage links (A+B on
//!   one, C+D on the other) through a first-stage switch without QoS;
//!   the second-stage SSVC switch then sees only two *merged* flows and
//!   can only protect the aggregates. Inside each shared buffer B's
//!   flood crowds A's packets out — A loses a large part of its
//!   guarantee to its own link partner.
//!
//! ```sh
//! cargo run --example two_stage_network --release
//! ```

use swizzle_qos::arbiter::CounterPolicy;
use swizzle_qos::core::{Policy, QosSwitch, SwitchConfig};
use swizzle_qos::sim::CycleModel;
use swizzle_qos::stats::Table;
use swizzle_qos::types::{
    Cycle, FlowId, Geometry, InputId, OutputId, PacketId, PacketSpec, Rate, TrafficClass,
};

const SOURCES: usize = 4;
const RESERVED: [f64; SOURCES] = [0.4, 0.1, 0.4, 0.1];
const LEN: u64 = 4;
const FINAL_OUT: OutputId = OutputId::new(0);
const CYCLES: u64 = 60_000;

/// A hand-driven Bernoulli source (rate 1.0 = always backlogged).
/// Packet ids encode the source index in their low bits so delivered
/// packets can be attributed after flows merge.
struct Source {
    index: usize,
    next_seq: u64,
    /// Offered load in flits/cycle; 1.0 saturates.
    rate: f64,
    rng: u64,
}

impl Source {
    fn new(index: usize, rate: f64) -> Self {
        Source {
            index,
            next_seq: 0,
            rate,
            rng: 0x9E37_79B9_7F4A_7C15 ^ index as u64,
        }
    }

    fn wants_packet(&mut self) -> bool {
        // xorshift64* — deterministic per-source randomness.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let u = (self.rng >> 11) as f64 / (1u64 << 53) as f64;
        u < self.rate / LEN as f64
    }

    fn next_spec(&mut self, input: InputId, output: OutputId, now: Cycle) -> PacketSpec {
        let id = PacketId::new(self.next_seq * SOURCES as u64 + self.index as u64);
        self.next_seq += 1;
        PacketSpec::new(
            id,
            FlowId::new(input, output),
            TrafficClass::GuaranteedBandwidth,
            LEN,
            now,
        )
    }
}

/// A and C ask exactly their reserved share of the deliverable output
/// bandwidth (0.4 x 0.8 = 0.32 flits/cycle); B and D flood.
fn make_sources() -> Vec<Source> {
    (0..SOURCES)
        .map(|i| {
            let rate = if i % 2 == 0 { RESERVED[i] * 0.8 } else { 1.0 };
            Source::new(i, rate)
        })
        .collect()
}

fn source_of(spec: PacketSpec) -> usize {
    (spec.id().raw() % SOURCES as u64) as usize
}

fn ssvc_stage(reservations: &[(usize, usize, f64)]) -> QosSwitch {
    let mut config = SwitchConfig::builder(Geometry::new(4, 128).expect("valid"))
        .policy(Policy::Ssvc(CounterPolicy::SubtractRealClock))
        .gb_buffer_flits(16)
        .build()
        .expect("valid");
    for &(i, o, r) in reservations {
        config
            .reservations_mut()
            .reserve_gb(
                InputId::new(i),
                OutputId::new(o),
                Rate::new(r).expect("valid"),
                LEN,
            )
            .expect("fits");
    }
    QosSwitch::new(config).expect("valid switch")
}

/// Single-stage reference: each source has its own input and crosspoint.
fn run_single_stage() -> [u64; SOURCES] {
    let reservations: Vec<(usize, usize, f64)> = RESERVED
        .iter()
        .enumerate()
        .map(|(i, &r)| (i, FINAL_OUT.index(), r))
        .collect();
    let mut switch = ssvc_stage(&reservations);
    switch.set_delivery_log(true);
    let mut sources = make_sources();
    let mut delivered = [0u64; SOURCES];
    for c in 0..CYCLES {
        let now = Cycle::new(c);
        for (i, src) in sources.iter_mut().enumerate() {
            let input = InputId::new(i);
            let backlogged = src.rate >= 1.0;
            let fires = if backlogged { true } else { src.wants_packet() };
            if fires
                && switch.free_flits(input, TrafficClass::GuaranteedBandwidth, FINAL_OUT) >= LEN
            {
                let spec = src.next_spec(input, FINAL_OUT, now);
                let _ = switch.offer_packet(spec, now);
            }
        }
        switch.step(now);
        for (_, spec) in switch.drain_deliveries() {
            delivered[source_of(spec)] += spec.len_flits();
        }
    }
    delivered
}

/// Two stages: stage 1 (no QoS) merges source pairs onto two links;
/// stage 2 (SSVC) can only reserve for the merged aggregates.
fn run_two_stage() -> [u64; SOURCES] {
    // Stage 1: plain LRG switch; A,B -> out0; C,D -> out1.
    let config1 = SwitchConfig::builder(Geometry::new(4, 128).expect("valid"))
        .policy(Policy::LrgOnly)
        .gb_buffer_flits(16)
        .build()
        .expect("valid");
    let mut stage1 = QosSwitch::new(config1).expect("valid switch");
    stage1.set_delivery_log(true);
    // Stage 2: SSVC reserving 50% per merged link toward the final output.
    let mut stage2 = ssvc_stage(&[(0, FINAL_OUT.index(), 0.5), (1, FINAL_OUT.index(), 0.5)]);
    stage2.set_delivery_log(true);

    let mut sources = make_sources();
    let mut delivered = [0u64; SOURCES];
    for c in 0..CYCLES {
        let now = Cycle::new(c);
        // Sources feed stage 1; pairs share an inter-stage link.
        for (i, src) in sources.iter_mut().enumerate() {
            let input = InputId::new(i);
            let link = OutputId::new(i / 2);
            let backlogged = src.rate >= 1.0;
            let fires = if backlogged { true } else { src.wants_packet() };
            if fires && stage1.free_flits(input, TrafficClass::GuaranteedBandwidth, link) >= LEN {
                let spec = src.next_spec(input, link, now);
                let _ = stage1.offer_packet(spec, now);
            }
        }
        stage1.step(now);
        // Stage-1 deliveries hop onto stage 2: input = the link they rode,
        // destination = the final output. Ids (and creation times) carry over.
        for (_, spec) in stage1.drain_deliveries() {
            let link = spec.flow().output().index();
            let hop = PacketSpec::new(
                spec.id(),
                FlowId::new(InputId::new(link), FINAL_OUT),
                TrafficClass::GuaranteedBandwidth,
                spec.len_flits(),
                spec.created(),
            );
            // A full stage-2 buffer drops the packet (no inter-stage
            // backpressure in this sketch — one of the §4.4 buffer
            // conflicts composition has to solve).
            let _ = stage2.offer_packet(hop, now);
        }
        stage2.step(now);
        for (_, spec) in stage2.drain_deliveries() {
            delivered[source_of(spec)] += spec.len_flits();
        }
    }
    delivered
}

fn main() {
    let single = run_single_stage();
    let double = run_two_stage();
    let share = |d: &[u64; SOURCES], i: usize| d[i] as f64 / d.iter().sum::<u64>() as f64;

    let mut t = Table::with_columns(&[
        "source",
        "reserved",
        "single-stage share",
        "two-stage share",
    ]);
    t.numeric();
    for i in 0..SOURCES {
        t.row(vec![
            ["A", "B", "C", "D"][i].to_owned(),
            format!("{:.0}%", RESERVED[i] * 100.0),
            format!("{:.1}%", share(&single, i) * 100.0),
            format!("{:.1}%", share(&double, i) * 100.0),
        ]);
    }
    println!("{t}");
    println!("Single stage: every source owns a crosspoint, so SSVC protects A and C");
    println!("from their flooding neighbours. Two stages: A+B and C+D merge onto shared");
    println!("links and crosspoints, the second stage can only see the aggregates, and");
    println!("inside each shared buffer the flood crowds the well-behaved flow out of");
    println!("its guarantee — the flow-separation loss S4.4 warns about, and the reason");
    println!("the paper scales one switch to radix 64 instead of composing switches.");
}
