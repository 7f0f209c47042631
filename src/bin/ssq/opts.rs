//! What every subcommand shares: the CLI error type, the `--key value`
//! option stream, and the spec parsers (`--policy`, `--reserve`,
//! `--flow`).

use std::error::Error;
use std::fmt;

use swizzle_qos::arbiter::CounterPolicy;
use swizzle_qos::core::Policy;
use swizzle_qos::types::TrafficClass;

/// CLI-level error with a user-facing message.
#[derive(Debug)]
pub(crate) struct CliError(String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for CliError {}

pub(crate) fn err(message: impl Into<String>) -> Box<dyn Error> {
    Box::new(CliError(message.into()))
}

/// A parsed option stream: `--key value` pairs plus boolean flags.
pub(crate) struct Opts {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Opts {
    pub(crate) fn parse(args: &[String], flag_names: &[&str]) -> Result<Self, Box<dyn Error>> {
        let mut pairs = Vec::new();
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(err(format!("unexpected argument {arg:?}")));
            };
            if flag_names.contains(&key) {
                flags.push(key.to_owned());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| err(format!("--{key} needs a value")))?;
            pairs.push((key.to_owned(), value.clone()));
        }
        Ok(Opts { pairs, flags })
    }

    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub(crate) fn get_all<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.pairs
            .iter()
            .filter(move |(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub(crate) fn num(&self, key: &str, default: u64) -> Result<u64, Box<dyn Error>> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("--{key}: invalid number {v:?}"))),
        }
    }

    pub(crate) fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

pub(crate) fn parse_policy(name: &str) -> Result<Policy, Box<dyn Error>> {
    Ok(match name {
        "lrg" => Policy::LrgOnly,
        "ssvc-subtract" => Policy::Ssvc(CounterPolicy::SubtractRealClock),
        "ssvc-halve" => Policy::Ssvc(CounterPolicy::Halve),
        "ssvc-reset" => Policy::Ssvc(CounterPolicy::Reset),
        "vc" => Policy::ExactVirtualClock,
        "gsf" => Policy::Gsf,
        "wrr" => Policy::Wrr,
        "dwrr" => Policy::Dwrr,
        "wfq" => Policy::Wfq,
        "four-level" => Policy::FourLevel,
        other => return Err(err(format!("unknown policy {other:?}"))),
    })
}

pub(crate) fn parse_class(name: &str) -> Result<TrafficClass, Box<dyn Error>> {
    Ok(match name {
        "BE" | "be" => TrafficClass::BestEffort,
        "GB" | "gb" => TrafficClass::GuaranteedBandwidth,
        "GL" | "gl" => TrafficClass::GuaranteedLatency,
        other => return Err(err(format!("unknown class {other:?}"))),
    })
}

/// `IN:OUT:PCT[:LEN]`
pub(crate) fn parse_reserve(spec: &str) -> Result<(usize, usize, f64, u64), Box<dyn Error>> {
    let parts: Vec<&str> = spec.split(':').collect();
    if !(3..=4).contains(&parts.len()) {
        return Err(err(format!(
            "--reserve {spec:?}: expected IN:OUT:PCT[:LEN]"
        )));
    }
    let input: usize = parts[0].parse().map_err(|_| err("bad input index"))?;
    let output: usize = parts[1].parse().map_err(|_| err("bad output index"))?;
    let pct: f64 = parts[2].parse().map_err(|_| err("bad percentage"))?;
    let len = packet_len("reserve", spec, parts.get(3))?;
    Ok((input, output, pct / 100.0, len))
}

/// The optional trailing `LEN` of a `--reserve`/`--flow` spec: 8 flits
/// when absent, at least one when given.
fn packet_len(flag: &str, spec: &str, part: Option<&&str>) -> Result<u64, Box<dyn Error>> {
    match part.map(|s| s.parse::<u64>()) {
        None => Ok(8),
        Some(Ok(len)) if len > 0 => Ok(len),
        Some(Ok(_)) => Err(err(format!(
            "--{flag} {spec:?}: packets need at least one flit"
        ))),
        Some(Err(_)) => Err(err("bad packet length")),
    }
}

/// A port index named by `flag`'s `spec`, checked against the radix.
pub(crate) fn port_in_range(
    flag: &str,
    spec: &str,
    side: &str,
    index: usize,
    radix: usize,
) -> Result<usize, Box<dyn Error>> {
    if index < radix {
        Ok(index)
    } else {
        Err(err(format!(
            "--{flag} {spec:?}: {side} {index} is outside radix {radix}"
        )))
    }
}

/// Parsed `--flow` spec: input, output, class, rate (None = saturating),
/// and packet length.
pub(crate) type FlowSpec = (usize, usize, TrafficClass, Option<f64>, u64);

/// `IN:OUT:CLASS:RATE[:LEN]`
pub(crate) fn parse_flow(spec: &str) -> Result<FlowSpec, Box<dyn Error>> {
    let parts: Vec<&str> = spec.split(':').collect();
    if !(4..=5).contains(&parts.len()) {
        return Err(err(format!(
            "--flow {spec:?}: expected IN:OUT:CLASS:RATE[:LEN]"
        )));
    }
    let input: usize = parts[0].parse().map_err(|_| err("bad input index"))?;
    let output: usize = parts[1].parse().map_err(|_| err("bad output index"))?;
    let class = parse_class(parts[2])?;
    let rate = if parts[3] == "sat" {
        None
    } else {
        let rate: f64 = parts[3].parse().map_err(|_| err("bad rate"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(err(format!(
                "--flow {spec:?}: rate must be `sat` or within [0, 1] flits/cycle"
            )));
        }
        Some(rate)
    };
    let len = packet_len("flow", spec, parts.get(4))?;
    Ok((input, output, class, rate, len))
}
