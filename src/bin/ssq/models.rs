//! The analytical subcommands: `ssq verify` (model checker), `gl-bound`
//! (Eq. 1), `gl-burst` (Eqs. 2-3), `storage` (Table 1), `frequency`
//! (Table 2).

use std::error::Error;

use swizzle_qos::core::gl::{burst_budgets, latency_bound, GlScenario};
use swizzle_qos::physical::{DelayModel, StorageModel, TABLE2_RADICES, TABLE2_WIDTHS};
use swizzle_qos::stats::Table;
use swizzle_qos::types::Geometry;

use crate::opts::{err, Opts};

/// `ssq verify [--deep]`: run the bounded exhaustive model checker over
/// the fast-tier (and optionally deep-tier) scenario batteries. Exits
/// with an error — printing the minimal counterexample as replayable
/// ssq-trace JSONL — on the first invariant violation.
pub(crate) fn verify(args: &[String]) -> Result<(), Box<dyn Error>> {
    let mut deep = false;
    for arg in args {
        match arg.as_str() {
            "--deep" => deep = true,
            other => return Err(err(format!("unknown verify flag {other:?}"))),
        }
    }

    let mut batteries = vec![("fast", swizzle_qos::verify::tier::fast_scenarios())];
    if deep {
        batteries.push(("deep", swizzle_qos::verify::tier::deep_scenarios()));
    }
    for (tier, scenarios) in batteries {
        let started = std::time::Instant::now();
        let count = scenarios.len();
        let (mut states, mut transitions) = (0usize, 0u64);
        for scenario in scenarios {
            let outcome = swizzle_qos::verify::verify_scenario(&scenario);
            states += outcome.states;
            transitions += outcome.transitions;
            println!(
                "verify[{tier}] {:<28} {:>7} states {:>8} transitions {}",
                outcome.scenario,
                outcome.states,
                outcome.transitions,
                if outcome.closed { "closed" } else { "clipped" },
            );
            if let Some(cx) = outcome.violation {
                println!("counterexample trace (ssq-trace JSONL):");
                println!("{}", cx.to_jsonl());
                return Err(err(format!(
                    "{}: invariant {} ({}) violated at depth {}: {}",
                    outcome.scenario,
                    cx.invariant,
                    cx.code,
                    cx.depth(),
                    cx.detail,
                )));
            }
        }
        println!(
            "verify[{tier}] clean: {count} scenarios, {states} states, {transitions} transitions \
             in {:.2}s",
            started.elapsed().as_secs_f64(),
        );
    }
    Ok(())
}

pub(crate) fn gl_bound(args: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = Opts::parse(args, &[])?;
    let l_max = opts.num("l-max", 8)?;
    let l_min = opts.num("l-min", 1)?;
    let n_gl = opts.num("n-gl", 1)?;
    let buffer = opts.num("buffer", 4)?;
    if l_max == 0 {
        return Err(err("--l-max: packets need at least one flit"));
    }
    if l_min == 0 || l_min > l_max {
        return Err(err(format!(
            "--l-min: expected 1..={l_max} (--l-max), got {l_min}"
        )));
    }
    if n_gl == 0 {
        return Err(err("--n-gl: need at least one GL injector"));
    }
    if buffer < l_min {
        return Err(err(format!(
            "--buffer: must hold one minimum-size packet ({l_min} flits), got {buffer}"
        )));
    }
    let scenario = GlScenario::new(l_max, l_min, n_gl, buffer);
    println!("{scenario}");
    println!(
        "Eq. 1: tau_GL <= l_max + N_GL*(b + b/l_min) = {} cycles",
        latency_bound(scenario)
    );
    Ok(())
}

pub(crate) fn gl_burst(args: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = Opts::parse(args, &[])?;
    let l_max = opts.num("l-max", 8)?;
    let constraints: Vec<u64> = opts
        .get("constraints")
        .ok_or_else(|| err("--constraints is required (e.g. 150,300,600)"))?
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<u64>()
                .map_err(|_| err(format!("bad constraint {s:?}")))
        })
        .collect::<Result<_, _>>()?;
    if !constraints.is_sorted() {
        return Err(err(
            "--constraints: list the latency constraints tightest (smallest) first",
        ));
    }
    let budgets = burst_budgets(&constraints, l_max);
    let mut t = Table::with_columns(&["flow", "latency constraint", "burst budget (packets)"]);
    t.numeric();
    for (k, (&l, &sigma)) in constraints.iter().zip(&budgets).enumerate() {
        t.row(vec![
            format!("GL{}", k + 1),
            l.to_string(),
            sigma.to_string(),
        ]);
    }
    print!("{t}");
    Ok(())
}

pub(crate) fn storage(args: &[String]) -> Result<(), Box<dyn Error>> {
    let opts = Opts::parse(args, &[])?;
    let radix = opts.num("radix", 64)? as usize;
    let width = opts.num("width", 512)? as usize;
    let flit_bytes = opts.num("flit-bytes", 64)?;
    let buf = opts.num("buffer-flits", 4)?;
    for (flag, value) in [("flit-bytes", flit_bytes), ("buffer-flits", buf)] {
        if value == 0 {
            return Err(err(format!("--{flag}: must be at least 1")));
        }
    }
    let geometry = Geometry::new(radix, width)?;
    let model = StorageModel::new(geometry, flit_bytes, buf, buf, buf, 11, 8, 8);
    println!("{model}");
    println!(
        "buffering/input: BE {} B, GB {} B, GL {} B; crosspoint state {:.2} B x {} = {} KiB; total {} KiB",
        model.be_buffer_bytes_per_input(),
        model.gb_buffer_bytes_per_input(),
        model.gl_buffer_bytes_per_input(),
        model.crosspoint_bytes(),
        geometry.crosspoints(),
        model.total_crosspoint_bytes() / 1024,
        model.total_bytes() / 1024,
    );
    Ok(())
}

pub(crate) fn frequency() {
    let model = DelayModel::calibrated_32nm();
    let mut t = Table::with_columns(&["radix", "width", "SS (GHz)", "SSVC (GHz)", "slowdown"]);
    t.numeric();
    for &width in &TABLE2_WIDTHS {
        for &radix in &TABLE2_RADICES {
            t.row(vec![
                format!("{radix}x{radix}"),
                width.to_string(),
                format!("{:.2}", model.ss_frequency_ghz(radix, width)),
                format!("{:.2}", model.ssvc_frequency_ghz(radix, width)),
                format!("{:.1}%", model.slowdown(radix, width) * 100.0),
            ]);
        }
    }
    print!("{t}");
}
