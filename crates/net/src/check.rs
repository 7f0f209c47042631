//! Static topology admission: the SSQ013 rule ("Eq. 1 per hop").
//!
//! A reservation admitted at a switch output is only a real guarantee
//! if every *link* the flow crosses can carry it too. For each link,
//! over the flows whose healthy-topology route crosses it:
//!
//! * **Rate cover (Error)** — the summed reserved rates (fractions of
//!   the upstream output channel, which moves at most one flit per
//!   cycle) must fit the channel: `Σ rate ≤ min(capacity, 1)`. A sum
//!   above that can never satisfy Eq. 1 on this hop, no matter the
//!   discipline.
//! * **Credit depth cover (Warning)** — on a credit link crossed by GL
//!   flows, the downstream queue must absorb a worst-case Eq. 1 wait's
//!   worth of line-rate arrivals: `queue_depth ≥ ⌈bound / l_max⌉`
//!   packets, with `bound = gl_latency_bound(l_max, l_min, n_gl, 16)`
//!   (the fabric's per-node GB buffer). A shallower queue pauses the
//!   upstream switch for longer than the bound allows, so the per-hop
//!   GL guarantee cannot hold.

use ssq_check::{codes, Diagnostic, Preflight, Report, Severity};
use ssq_types::{bounds, TrafficClass};

use crate::fabric::{Fabric, FlowSpec};
use crate::link::LinkDiscipline;
use crate::topology::{compute_routes, route_links, Topology};

impl Preflight for Fabric {
    /// The SSQ013 topology admission report (per-node SSQ001–SSQ012
    /// checks already gate each switch at construction time).
    fn preflight(&self) -> Report {
        analyze_topology(self.topology(), &self.flow_specs())
    }
}

/// Per-link reservation load, accumulated from flow routes.
#[derive(Debug, Clone, Copy, Default)]
struct LinkLoad {
    rate_sum: f64,
    gl_flows: u64,
    len_max: u64,
    len_min: u64,
}

/// Runs the SSQ013 topology admission checks for `flows` over
/// `topology` (healthy routes). Flows with no route are reported as
/// errors too — an unroutable guarantee is not a guarantee.
pub fn analyze_topology(topology: &Topology, flows: &[FlowSpec]) -> Report {
    let link_up = vec![true; topology.links.len()];
    let node_up = vec![true; topology.nodes];
    let routes = compute_routes(topology, &link_up, &node_up);

    let mut loads = vec![LinkLoad::default(); topology.links.len()];
    let mut report = Report::new();
    for (f, flow) in flows.iter().enumerate() {
        if flow.class == TrafficClass::BestEffort {
            continue; // BE reserves nothing; links owe it nothing.
        }
        let Some(path) = route_links(topology, &routes, flow.src, flow.dest) else {
            report.push(Diagnostic::new(
                codes::TOPOLOGY_UNDERPROVISIONED,
                Severity::Error,
                format!("flow {f}"),
                format!(
                    "guaranteed flow {} -> {} has no route in the healthy topology",
                    flow.src, flow.dest
                ),
            ));
            continue;
        };
        for l in path {
            let load = loads.get_mut(l).expect("route link in range");
            load.rate_sum += flow.rate;
            load.len_max = load.len_max.max(flow.len_flits);
            load.len_min = if load.len_min == 0 {
                flow.len_flits
            } else {
                load.len_min.min(flow.len_flits)
            };
            if flow.class == TrafficClass::GuaranteedLatency {
                load.gl_flows += 1;
            }
        }
    }

    for (l, load) in loads.iter().enumerate() {
        if load.rate_sum == 0.0 {
            continue;
        }
        let link = topology.links.get(l).expect("in range");
        // The upstream output channel moves at most one flit per
        // cycle, so a faster wire does not raise the admissible sum.
        let usable = (link.capacity as f64).min(1.0);
        if load.rate_sum > usable + 1e-9 {
            report.push(Diagnostic::new(
                codes::TOPOLOGY_UNDERPROVISIONED,
                Severity::Error,
                format!("link {l}"),
                format!(
                    "reserved rates sum to {:.3} but the hop can carry {:.3} \
                     flits/cycle: Eq. 1 cannot hold on this hop",
                    load.rate_sum, usable
                ),
            ));
        }
        if load.gl_flows > 0 && matches!(link.discipline, LinkDiscipline::Credit) {
            let l_max = load.len_max.max(1);
            let l_min = load.len_min.max(1);
            let bound = bounds::gl_latency_bound(l_max, l_min, load.gl_flows, 16);
            let needed = usize::try_from(bound.div_ceil(l_max)).unwrap_or(usize::MAX);
            if link.queue_depth < needed {
                report.push(Diagnostic::new(
                    codes::TOPOLOGY_UNDERPROVISIONED,
                    Severity::Warning,
                    format!("link {l}"),
                    format!(
                        "credit depth {} cannot absorb the Eq. 1 GL wait \
                         ({bound} cycles needs {needed} packet credits): \
                         the per-hop GL bound may not hold",
                        link.queue_depth
                    ),
                ));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FlowSpec;
    use ssq_types::bounds::gl_latency_bound;

    fn gb(src: usize, dest: usize, rate: f64) -> FlowSpec {
        FlowSpec::new(src, dest, TrafficClass::GuaranteedBandwidth).rate(rate)
    }

    #[test]
    fn provisioned_chain_is_clean() {
        let topo = Topology::chain(3, LinkDiscipline::Credit);
        let flows = [gb(0, 3, 0.4), gb(0, 3, 0.3).ports(5, 5)];
        let report = analyze_topology(&topo, &flows);
        assert!(report.is_clean(), "{}", report.to_table());
    }

    #[test]
    fn oversubscribed_hop_is_an_error_on_every_crossed_link() {
        let topo = Topology::chain(2, LinkDiscipline::Credit);
        let flows = [gb(0, 2, 0.7), gb(0, 2, 0.6).ports(5, 5)];
        let report = analyze_topology(&topo, &flows);
        assert!(report.has_errors());
        // Both chain links carry the 1.3 sum; each gets its own error.
        assert_eq!(
            report.with_code(codes::TOPOLOGY_UNDERPROVISIONED).count(),
            2
        );
    }

    #[test]
    fn best_effort_flows_reserve_nothing() {
        let topo = Topology::chain(2, LinkDiscipline::Credit);
        let flows = [FlowSpec::new(0, 2, TrafficClass::BestEffort).rate(0.9)];
        assert!(analyze_topology(&topo, &flows).is_clean());
    }

    #[test]
    fn unroutable_guaranteed_flow_is_an_error() {
        // Chain links are one-directional: 2 -> 0 has no route.
        let topo = Topology::chain(2, LinkDiscipline::Credit);
        let flows = [gb(2, 0, 0.2)];
        let report = analyze_topology(&topo, &flows);
        assert!(report.has_errors());
    }

    #[test]
    fn credit_depth_warning_cross_checks_the_types_bound() {
        // One GL flow, 8-flit packets, the fabric's 16-flit buffer:
        // the exact Eq. 1 bound from ssq_types decides the cutoff.
        let bound = gl_latency_bound(8, 8, 1, 16);
        let needed = bound.div_ceil(8) as usize;
        assert!(needed > 1, "bound {bound} must need multiple credits");

        let shallow =
            Topology::chain(2, LinkDiscipline::Credit).map_links(|l| l.queue_depth(needed - 1));
        let gl = [FlowSpec::new(0, 2, TrafficClass::GuaranteedLatency).rate(0.1)];
        let report = analyze_topology(&shallow, &gl);
        assert!(!report.is_clean(), "depth {} must warn", needed - 1);
        assert!(!report.has_errors(), "depth shortfall is a warning");

        let deep = Topology::chain(2, LinkDiscipline::Credit).map_links(|l| l.queue_depth(needed));
        assert!(
            analyze_topology(&deep, &gl).is_clean(),
            "depth {needed} exactly covers the bound"
        );
    }

    #[test]
    fn lossy_links_skip_the_credit_depth_rule() {
        let bound = gl_latency_bound(8, 8, 1, 16);
        let needed = bound.div_ceil(8) as usize;
        let topo =
            Topology::chain(2, LinkDiscipline::Lossy).map_links(|l| l.queue_depth(needed - 1));
        let gl = [FlowSpec::new(0, 2, TrafficClass::GuaranteedLatency).rate(0.1)];
        assert!(analyze_topology(&topo, &gl).is_clean());
    }
}
