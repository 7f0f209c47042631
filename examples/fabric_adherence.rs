//! Do per-output guarantees survive a multi-hop fabric?
//!
//! DESIGN.md §13 installs each guaranteed flow's reservation at every
//! hop along its route and holds every link to "Eq. 1 per hop"
//! (SSQ013). This example measures what that buys on a healthy fabric:
//! the same three flows — two well-behaved GB flows and one GL flow —
//! cross a 3-hop chain and a 2-level fat tree under each link
//! discipline (credit backpressure, lossy, NACK-retransmit), and the
//! table reports delivered rate against reservation and worst-case
//! end-to-end GL latency against the summed per-hop Eq. 1 budget.
//!
//! ```sh
//! cargo run --example fabric_adherence --release
//! ```

use swizzle_qos::net::BackoffPolicy;
use swizzle_qos::net::{Fabric, FlowSpec, LinkDiscipline, Topology};
use swizzle_qos::sim::{Runner, Schedule};
use swizzle_qos::stats::Table;
use swizzle_qos::types::{bounds, Cycles, TrafficClass};

const WARMUP: u64 = 1_000;
const MEASURE: u64 = 40_000;
const LEN: u64 = 8;
const SEED: u64 = 7;

/// Two exactly-at-reservation GB flows and one GL flow, source node 0
/// to node 3 (the endpoints both shapes share). Offered load equals
/// the reserved rate: 8-flit packets every `len / rate` cycles.
fn flows() -> [FlowSpec; 3] {
    [
        FlowSpec::new(0, 3, TrafficClass::GuaranteedBandwidth)
            .rate(0.4)
            .every(20),
        FlowSpec::new(0, 3, TrafficClass::GuaranteedBandwidth)
            .ports(5, 5)
            .rate(0.2)
            .every(40),
        FlowSpec::new(0, 3, TrafficClass::GuaranteedLatency)
            .ports(6, 6)
            .rate(0.05)
            .every(160),
    ]
}

/// Summed per-hop Eq. 1 budget for the GL flow: each of `hops`
/// switches owes at most `gl_latency_bound` cycles, and each wire adds
/// its serialization plus propagation latency. The source switch
/// itself is one more arbitration stage, hence `hops + 1`.
fn gl_path_budget(hops: u64) -> u64 {
    let per_switch = bounds::gl_latency_bound(LEN, LEN, 1, 16);
    let per_wire = LEN.div_ceil(8) + 1; // capacity 8 flits/cycle, latency 1
    (hops + 1) * per_switch + hops * per_wire
}

/// A topology under test: its name, its builder, and its hop count.
type Shape = (&'static str, fn(LinkDiscipline) -> Topology, u64);

fn main() {
    let shapes: [Shape; 2] = [
        ("chain-3", |d| Topology::chain(3, d), 3),
        ("fat-tree", Topology::fat_tree, 2),
    ];
    let disciplines = [
        ("credit", LinkDiscipline::Credit),
        ("lossy", LinkDiscipline::Lossy),
        (
            "nack",
            LinkDiscipline::Nack(BackoffPolicy::exponential(8, 4, 2, 256)),
        ),
    ];

    let mut t = Table::with_columns(&[
        "topology",
        "links",
        "GB 0.40 got",
        "GB 0.20 got",
        "GL p100 / budget",
        "lost",
    ]);
    t.numeric();
    for (shape_name, build, hops) in shapes {
        for (disc_name, discipline) in disciplines {
            let mut fabric =
                Fabric::new(build(discipline), &flows(), SEED).expect("admissible fabric");
            let schedule = Schedule::new(Cycles::new(WARMUP), Cycles::new(MEASURE));
            Runner::new(schedule).run(&mut fabric);

            let elapsed = (WARMUP + MEASURE) as f64;
            let rate = |i: usize| fabric.flow_stats(i).delivered_flits as f64 / elapsed;
            let gl = fabric.flow_stats(2);
            let lost: u64 = (0..3).map(|i| fabric.flow_stats(i).lost_packets).sum();
            t.row(vec![
                shape_name.to_owned(),
                disc_name.to_owned(),
                format!("{:.3}", rate(0)),
                format!("{:.3}", rate(1)),
                format!("{} / {}", gl.latency_max, gl_path_budget(hops)),
                format!("{lost}"),
            ]);
        }
    }
    println!("{t}");
    println!("Offered load equals the reservation (8-flit packets, exact periods), so");
    println!("'got' should match the reserved column and the GL worst case should sit");
    println!("inside the summed per-hop Eq. 1 budget. The fat tree's shortest route is");
    println!("2 hops (leaf-spine-leaf), so its GL budget is one switch stage smaller.");
}
