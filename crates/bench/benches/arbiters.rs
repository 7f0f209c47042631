//! Micro-benchmarks: arbitration-decision cost per policy.
//!
//! The paper's hardware contribution is a *single-cycle* combined
//! Virtual Clock + LRG arbitration; in the simulator the analogous
//! question is the software cost per decision, which bounds achievable
//! simulation throughput.

use std::hint::black_box;

use ssq_arbiter::{
    Arbiter, CounterPolicy, Dwrr, FourLevel, Lrg, Request, SsvcArbiter, SsvcConfig, VirtualClock,
    Wfq, Wrr,
};
use ssq_bench::microbench::{bench, group};
use ssq_types::Cycle;

fn full_requests(n: usize) -> Vec<Request> {
    (0..n).map(|i| Request::new(i, 8)).collect()
}

fn bench_policies() {
    group("arbitrate_radix64");
    let n = 64;
    let reqs = full_requests(n);

    let mut arbiters: Vec<(&str, Box<dyn Arbiter>)> = vec![
        ("lrg", Box::new(Lrg::new(n))),
        ("four_level", Box::new(FourLevel::new(n))),
        ("wrr", Box::new(Wrr::new(&vec![2; n]))),
        ("dwrr", Box::new(Dwrr::new(&vec![16; n]))),
        ("wfq", Box::new(Wfq::new(&vec![1.0; n]))),
        ("virtual_clock", Box::new(VirtualClock::new(&vec![64.0; n]))),
        (
            "ssvc",
            Box::new(SsvcArbiter::new(
                SsvcConfig::new(12, 3, CounterPolicy::SubtractRealClock),
                &vec![9; n],
            )),
        ),
    ];
    for (name, arb) in &mut arbiters {
        let mut now = Cycle::ZERO;
        bench("arbitrate_radix64", name, || {
            now = now.next();
            arb.tick();
            black_box(arb.arbitrate(now, black_box(&reqs)));
        });
    }
}

fn bench_ssvc_radix_scaling() {
    group("ssvc_radix_scaling");
    for radix in [8usize, 16, 32, 64] {
        let reqs = full_requests(radix);
        let mut ssvc = SsvcArbiter::new(
            SsvcConfig::new(12, 3, CounterPolicy::SubtractRealClock),
            &vec![9; radix],
        );
        let mut now = Cycle::ZERO;
        bench("ssvc_radix_scaling", &radix.to_string(), || {
            now = now.next();
            ssvc.tick();
            black_box(ssvc.arbitrate(now, black_box(&reqs)));
        });
    }
}

fn main() {
    bench_policies();
    bench_ssvc_radix_scaling();
}
