//! The trace event taxonomy and its JSONL wire format.
//!
//! One [`Event`] is emitted per observable micro-action of the switch:
//! an arbitration decision, a grant (channel allocation), an inhibit (a
//! requester defeated on the thermometer bitlines), an `auxVC` update
//! (with its saturation flag), a decay epoch (real-time-clock
//! subtraction), a GL policing stall, a packet chaining, and an
//! admission rejection. The fault family (DESIGN.md §8) — injection,
//! detection, degradation, guarantee revocation, and re-admission —
//! shares the same wire. The format is one flat JSON object per line —
//! hand-serialized and hand-parsed, since the workspace is fully
//! offline (no serde).

use std::fmt;

use ssq_types::TrafficClass;

/// One traced occurrence at a specific cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Cycle at which the event occurred.
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
}

/// Why a packet was refused (or downgraded) at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The per-input staging queue was full; the packet was dropped.
    StagingOverflow,
    /// The destination port buffer had no room; the offer was refused.
    BufferFull,
    /// A GB packet without a matching reservation was demoted to BE
    /// (admitted, but not in the class it asked for).
    Demoted,
    /// The packet's input link is down (fault-injected or real); the
    /// offer was refused at admission.
    LinkDown,
}

impl RejectReason {
    /// Stable wire label.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            RejectReason::StagingOverflow => "staging_overflow",
            RejectReason::BufferFull => "buffer_full",
            RejectReason::Demoted => "demoted",
            RejectReason::LinkDown => "link_down",
        }
    }

    fn from_label(s: &str) -> Option<Self> {
        match s {
            "staging_overflow" => Some(RejectReason::StagingOverflow),
            "buffer_full" => Some(RejectReason::BufferFull),
            "demoted" => Some(RejectReason::Demoted),
            "link_down" => Some(RejectReason::LinkDown),
            _ => None,
        }
    }
}

/// The event taxonomy (DESIGN.md §6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// An arbitration decision at an output: `winner` (an input index)
    /// was selected among `contenders` requesters in class `class`.
    Decision {
        output: u32,
        class: TrafficClass,
        contenders: u32,
        winner: u32,
    },
    /// A channel grant: the head packet of (`input` → `output`) started
    /// transmission after waiting `waited` cycles since injection. A
    /// grant with `class == GL` is a GL lane dispatch.
    Grant {
        output: u32,
        input: u32,
        class: TrafficClass,
        len_flits: u64,
        waited: u64,
    },
    /// A follow-on packet of the same flow chained onto the still-held
    /// channel without re-arbitration (§4.2, ref [10]).
    Chained {
        output: u32,
        input: u32,
        len_flits: u64,
    },
    /// A GB requester defeated on the thermometer bitlines: its MSB
    /// lane `msb` was inhibited by the winner's smaller `winner_msb`
    /// (or lost the LRG tie-break at the same lane).
    Inhibit {
        output: u32,
        input: u32,
        msb: u64,
        winner_msb: u64,
    },
    /// The winner's `auxVC` was charged its `Vtick`; `saturated` is set
    /// when the counter clamped at the saturation cap (triggering the
    /// halve/reset policies).
    AuxVc {
        output: u32,
        input: u32,
        aux: u64,
        saturated: bool,
    },
    /// The real-time subcounter wrapped: every `auxVC` at this output
    /// dropped one MSB step and all thermometer codes shifted down one
    /// lane. `epoch` counts wraps since construction.
    Decay { output: u32, epoch: u64 },
    /// GL traffic was buffered at this output but the policer inhibited
    /// it this cycle; `backlog` is the number of policed GL packets.
    GlPoliced { output: u32, backlog: u32 },
    /// A packet was refused or downgraded at admission.
    Reject {
        input: u32,
        output: u32,
        class: TrafficClass,
        reason: RejectReason,
    },
    /// A fault was injected (`healed == false`) or healed
    /// (`healed == true`) at the named site. `site` is a stable label
    /// from the fault taxonomy (DESIGN.md §8): `bitline_stuck`,
    /// `thermometer`, `aux_bit_flip`, `epoch_skip`, `link`,
    /// `grant_bus`, `sink`.
    Fault {
        site: String,
        output: u32,
        input: u32,
        healed: bool,
    },
    /// A runtime detector classified corrupted state without panicking:
    /// `code` names the tripped predicate (`SSQV00x` from the V1–V6
    /// catalog, or `parity` for a thermometer-lane parity mismatch) and
    /// `detail` carries the offending value (code/aux/winner index).
    Detected {
        output: u32,
        code: String,
        detail: u64,
    },
    /// An output changed its degradation mode: `lrg_fallback` (SSVC →
    /// pure LRG after a lost GB lane), `retry` (bounded
    /// retry-with-backoff armed on transient grant-bus corruption), or
    /// `ssvc_restored` (healed back to full SSVC).
    Degraded { output: u32, mode: String },
    /// A previously admitted guarantee can no longer be honored: the
    /// flow (`input` → `output`, `class`) keeps service but its stated
    /// bound is replaced. `forfeited` means no bound at all survives;
    /// otherwise `bound` is the recomputed (weaker) Eq. 1 wait bound.
    GuaranteeRevoked {
        output: u32,
        input: u32,
        class: TrafficClass,
        bound: u64,
        forfeited: bool,
    },
    /// Post-fault re-admission decided this flow's fate against the
    /// shrunken capacity: `action` is `keep`, `demote`, or `evict`.
    Readmitted {
        output: u32,
        input: u32,
        class: TrafficClass,
        action: String,
    },
    /// Multi-hop fabric (DESIGN.md §13): a delivered packet entered the
    /// egress queue of link `link` at node `node`, bound for the next
    /// hop.
    HopEnqueue {
        node: u32,
        link: u32,
        packet: u64,
        len_flits: u64,
    },
    /// Credit/PFC-style backpressure engaged on `link`: the downstream
    /// queue reached `occupancy` flits and the upstream end paused.
    CreditPause { link: u32, occupancy: u64 },
    /// Credit/PFC-style backpressure released on `link`: the downstream
    /// queue drained to `occupancy` flits and the upstream end resumed.
    CreditResume { link: u32, occupancy: u64 },
    /// A packet was dropped at a hop: `reason` is a stable label
    /// (`queue_full`, `link_down`, `no_route`, `retries_exhausted`).
    /// Per-flow loss accounting keys on (`input` → `output`, `class`)
    /// of the end-to-end flow.
    Drop {
        link: u32,
        input: u32,
        output: u32,
        class: TrafficClass,
        packet: u64,
        reason: String,
    },
    /// The NACK discipline scheduled retransmission `attempt` of
    /// `packet` on `link`, `delay` cycles out (bounded exponential
    /// backoff, DESIGN.md §13).
    NackRetransmit {
        link: u32,
        packet: u64,
        attempt: u32,
        delay: u64,
    },
    /// Traffic toward node `dest` was rerouted at `node` onto link
    /// `via` after a topology fault removed the primary path.
    Reroute { node: u32, dest: u32, via: u32 },
}

impl EventKind {
    /// Stable wire label for the `"kind"` field.
    #[must_use]
    pub const fn label(&self) -> &'static str {
        match self {
            EventKind::Decision { .. } => "decision",
            EventKind::Grant { .. } => "grant",
            EventKind::Chained { .. } => "chained",
            EventKind::Inhibit { .. } => "inhibit",
            EventKind::AuxVc { .. } => "auxvc",
            EventKind::Decay { .. } => "decay",
            EventKind::GlPoliced { .. } => "gl_policed",
            EventKind::Reject { .. } => "reject",
            EventKind::Fault { .. } => "fault",
            EventKind::Detected { .. } => "detected",
            EventKind::Degraded { .. } => "degraded",
            EventKind::GuaranteeRevoked { .. } => "guarantee_revoked",
            EventKind::Readmitted { .. } => "readmitted",
            EventKind::HopEnqueue { .. } => "hop_enqueue",
            EventKind::CreditPause { .. } => "credit_pause",
            EventKind::CreditResume { .. } => "credit_resume",
            EventKind::Drop { .. } => "drop",
            EventKind::NackRetransmit { .. } => "nack_retransmit",
            EventKind::Reroute { .. } => "reroute",
        }
    }
}

fn class_from_label(s: &str) -> Option<TrafficClass> {
    match s {
        "BE" => Some(TrafficClass::BestEffort),
        "GB" => Some(TrafficClass::GuaranteedBandwidth),
        "GL" => Some(TrafficClass::GuaranteedLatency),
        _ => None,
    }
}

/// `,"<name>":` as bytes: the writer appends every key as one literal.
macro_rules! key {
    ($name:literal) => {
        concat!(",\"", $name, "\":").as_bytes()
    };
}

impl Event {
    /// Appends the event to `out` as one JSON object (no trailing
    /// newline) without touching the heap beyond `out` itself: keys are
    /// literals, numbers go through a stack digit buffer.
    ///
    /// The field set per kind is the stable schema pinned by the
    /// golden-file test (`tests/jsonl_golden.rs`). Every line written
    /// here parses back with [`Event::from_jsonl`]: free-form label
    /// fields are written with `"`, `\` and ASCII control bytes
    /// replaced by `_`, since the schema has no escapes.
    pub fn write_jsonl(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"cycle\":");
        push_u64(out, self.cycle);
        push_label(out, key!("kind"), self.kind.label());
        match &self.kind {
            EventKind::Decision {
                output,
                class,
                contenders,
                winner,
            } => {
                push_num(out, key!("output"), *output);
                push_label(out, key!("class"), class.label());
                push_num(out, key!("contenders"), *contenders);
                push_num(out, key!("winner"), *winner);
            }
            EventKind::Grant {
                output,
                input,
                class,
                len_flits,
                waited,
            } => {
                push_num(out, key!("output"), *output);
                push_num(out, key!("input"), *input);
                push_label(out, key!("class"), class.label());
                push_num(out, key!("len_flits"), *len_flits);
                push_num(out, key!("waited"), *waited);
            }
            EventKind::Chained {
                output,
                input,
                len_flits,
            } => {
                push_num(out, key!("output"), *output);
                push_num(out, key!("input"), *input);
                push_num(out, key!("len_flits"), *len_flits);
            }
            EventKind::Inhibit {
                output,
                input,
                msb,
                winner_msb,
            } => {
                push_num(out, key!("output"), *output);
                push_num(out, key!("input"), *input);
                push_num(out, key!("msb"), *msb);
                push_num(out, key!("winner_msb"), *winner_msb);
            }
            EventKind::AuxVc {
                output,
                input,
                aux,
                saturated,
            } => {
                push_num(out, key!("output"), *output);
                push_num(out, key!("input"), *input);
                push_num(out, key!("aux"), *aux);
                push_bool(out, key!("saturated"), *saturated);
            }
            EventKind::Decay { output, epoch } => {
                push_num(out, key!("output"), *output);
                push_num(out, key!("epoch"), *epoch);
            }
            EventKind::GlPoliced { output, backlog } => {
                push_num(out, key!("output"), *output);
                push_num(out, key!("backlog"), *backlog);
            }
            EventKind::Reject {
                input,
                output,
                class,
                reason,
            } => {
                push_num(out, key!("input"), *input);
                push_num(out, key!("output"), *output);
                push_label(out, key!("class"), class.label());
                push_label(out, key!("reason"), reason.label());
            }
            EventKind::Fault {
                site,
                output,
                input,
                healed,
            } => {
                push_text(out, key!("site"), site);
                push_num(out, key!("output"), *output);
                push_num(out, key!("input"), *input);
                push_bool(out, key!("healed"), *healed);
            }
            EventKind::Detected {
                output,
                code,
                detail,
            } => {
                push_num(out, key!("output"), *output);
                push_text(out, key!("code"), code);
                push_num(out, key!("detail"), *detail);
            }
            EventKind::Degraded { output, mode } => {
                push_num(out, key!("output"), *output);
                push_text(out, key!("mode"), mode);
            }
            EventKind::GuaranteeRevoked {
                output,
                input,
                class,
                bound,
                forfeited,
            } => {
                push_num(out, key!("output"), *output);
                push_num(out, key!("input"), *input);
                push_label(out, key!("class"), class.label());
                push_num(out, key!("bound"), *bound);
                push_bool(out, key!("forfeited"), *forfeited);
            }
            EventKind::Readmitted {
                output,
                input,
                class,
                action,
            } => {
                push_num(out, key!("output"), *output);
                push_num(out, key!("input"), *input);
                push_label(out, key!("class"), class.label());
                push_text(out, key!("action"), action);
            }
            EventKind::HopEnqueue {
                node,
                link,
                packet,
                len_flits,
            } => {
                push_num(out, key!("node"), *node);
                push_num(out, key!("link"), *link);
                push_num(out, key!("packet"), *packet);
                push_num(out, key!("len_flits"), *len_flits);
            }
            EventKind::CreditPause { link, occupancy }
            | EventKind::CreditResume { link, occupancy } => {
                push_num(out, key!("link"), *link);
                push_num(out, key!("occupancy"), *occupancy);
            }
            EventKind::Drop {
                link,
                input,
                output,
                class,
                packet,
                reason,
            } => {
                push_num(out, key!("link"), *link);
                push_num(out, key!("input"), *input);
                push_num(out, key!("output"), *output);
                push_label(out, key!("class"), class.label());
                push_num(out, key!("packet"), *packet);
                push_text(out, key!("reason"), reason);
            }
            EventKind::NackRetransmit {
                link,
                packet,
                attempt,
                delay,
            } => {
                push_num(out, key!("link"), *link);
                push_num(out, key!("packet"), *packet);
                push_num(out, key!("attempt"), *attempt);
                push_num(out, key!("delay"), *delay);
            }
            EventKind::Reroute { node, dest, via } => {
                push_num(out, key!("node"), *node);
                push_num(out, key!("dest"), *dest);
                push_num(out, key!("via"), *via);
            }
        }
        out.push(b'}');
    }

    /// [`Event::write_jsonl`] into a fresh `String`, for tests and
    /// one-off callers; anything that writes many events appends into
    /// one buffer instead.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::new();
        self.write_jsonl(&mut out);
        // The writer emits `&str` contents and ASCII only: never lossy.
        String::from_utf8_lossy(&out).into_owned()
    }

    /// Parses one JSONL line produced by [`Event::write_jsonl`].
    ///
    /// The grammar is one flat object of string / unsigned-integer /
    /// bool values: ASCII whitespace is allowed around the object and
    /// between tokens, fields may come in any order, the first of a
    /// duplicated key wins, unknown keys are ignored, and strings carry
    /// no escapes. Nothing is allocated for the fixed-label kinds; the
    /// free-form labels of the fault and drop kinds are copied out.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the first malformed token,
    /// missing field, out-of-range number, or unknown kind/label, or a
    /// line with more than [`MAX_FIELDS`] fields.
    pub fn from_jsonl(line: &str) -> Result<Event, ParseError> {
        let fields = Fields::parse(line)?;
        let cycle = fields.num("cycle")?;
        let kind = match fields.str("kind")? {
            "decision" => EventKind::Decision {
                output: fields.num32("output")?,
                class: fields.class()?,
                contenders: fields.num32("contenders")?,
                winner: fields.num32("winner")?,
            },
            "grant" => EventKind::Grant {
                output: fields.num32("output")?,
                input: fields.num32("input")?,
                class: fields.class()?,
                len_flits: fields.num("len_flits")?,
                waited: fields.num("waited")?,
            },
            "chained" => EventKind::Chained {
                output: fields.num32("output")?,
                input: fields.num32("input")?,
                len_flits: fields.num("len_flits")?,
            },
            "inhibit" => EventKind::Inhibit {
                output: fields.num32("output")?,
                input: fields.num32("input")?,
                msb: fields.num("msb")?,
                winner_msb: fields.num("winner_msb")?,
            },
            "auxvc" => EventKind::AuxVc {
                output: fields.num32("output")?,
                input: fields.num32("input")?,
                aux: fields.num("aux")?,
                saturated: fields.boolean("saturated")?,
            },
            "decay" => EventKind::Decay {
                output: fields.num32("output")?,
                epoch: fields.num("epoch")?,
            },
            "gl_policed" => EventKind::GlPoliced {
                output: fields.num32("output")?,
                backlog: fields.num32("backlog")?,
            },
            "reject" => EventKind::Reject {
                input: fields.num32("input")?,
                output: fields.num32("output")?,
                class: fields.class()?,
                reason: RejectReason::from_label(fields.str("reason")?)
                    .ok_or_else(|| ParseError::new("unknown reject reason"))?,
            },
            "fault" => EventKind::Fault {
                site: fields.str("site")?.to_string(),
                output: fields.num32("output")?,
                input: fields.num32("input")?,
                healed: fields.boolean("healed")?,
            },
            "detected" => EventKind::Detected {
                output: fields.num32("output")?,
                code: fields.str("code")?.to_string(),
                detail: fields.num("detail")?,
            },
            "degraded" => EventKind::Degraded {
                output: fields.num32("output")?,
                mode: fields.str("mode")?.to_string(),
            },
            "guarantee_revoked" => EventKind::GuaranteeRevoked {
                output: fields.num32("output")?,
                input: fields.num32("input")?,
                class: fields.class()?,
                bound: fields.num("bound")?,
                forfeited: fields.boolean("forfeited")?,
            },
            "readmitted" => EventKind::Readmitted {
                output: fields.num32("output")?,
                input: fields.num32("input")?,
                class: fields.class()?,
                action: fields.str("action")?.to_string(),
            },
            "hop_enqueue" => EventKind::HopEnqueue {
                node: fields.num32("node")?,
                link: fields.num32("link")?,
                packet: fields.num("packet")?,
                len_flits: fields.num("len_flits")?,
            },
            "credit_pause" => EventKind::CreditPause {
                link: fields.num32("link")?,
                occupancy: fields.num("occupancy")?,
            },
            "credit_resume" => EventKind::CreditResume {
                link: fields.num32("link")?,
                occupancy: fields.num("occupancy")?,
            },
            "drop" => EventKind::Drop {
                link: fields.num32("link")?,
                input: fields.num32("input")?,
                output: fields.num32("output")?,
                class: fields.class()?,
                packet: fields.num("packet")?,
                reason: fields.str("reason")?.to_string(),
            },
            "nack_retransmit" => EventKind::NackRetransmit {
                link: fields.num32("link")?,
                packet: fields.num("packet")?,
                attempt: fields.num32("attempt")?,
                delay: fields.num("delay")?,
            },
            "reroute" => EventKind::Reroute {
                node: fields.num32("node")?,
                dest: fields.num32("dest")?,
                via: fields.num32("via")?,
            },
            other => return Err(ParseError::new(format!("unknown event kind `{other}`"))),
        };
        Ok(Event { cycle, kind })
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:>8}  ", self.cycle)?;
        match &self.kind {
            EventKind::Decision {
                output,
                class,
                contenders,
                winner,
            } => write!(
                f,
                "decision   out{output} {} winner=in{winner} of {contenders}",
                class.label()
            ),
            EventKind::Grant {
                output,
                input,
                class,
                len_flits,
                waited,
            } => write!(
                f,
                "grant      out{output} <- in{input} {} len={len_flits} waited={waited}",
                class.label()
            ),
            EventKind::Chained {
                output,
                input,
                len_flits,
            } => write!(f, "chained    out{output} <- in{input} len={len_flits}"),
            EventKind::Inhibit {
                output,
                input,
                msb,
                winner_msb,
            } => write!(
                f,
                "inhibit    out{output} in{input} lane={msb} beaten-by-lane={winner_msb}"
            ),
            EventKind::AuxVc {
                output,
                input,
                aux,
                saturated,
            } => write!(
                f,
                "auxvc      out{output} in{input} aux={aux}{}",
                if *saturated { " SATURATED" } else { "" }
            ),
            EventKind::Decay { output, epoch } => {
                write!(f, "decay      out{output} epoch={epoch}")
            }
            EventKind::GlPoliced { output, backlog } => {
                write!(f, "gl-policed out{output} backlog={backlog}")
            }
            EventKind::Reject {
                input,
                output,
                class,
                reason,
            } => write!(
                f,
                "reject     in{input} -> out{output} {} ({})",
                class.label(),
                reason.label()
            ),
            EventKind::Fault {
                site,
                output,
                input,
                healed,
            } => write!(
                f,
                "fault      {site} out{output} in{input} {}",
                if *healed { "HEALED" } else { "INJECTED" }
            ),
            EventKind::Detected {
                output,
                code,
                detail,
            } => write!(f, "detected   out{output} {code} detail={detail}"),
            EventKind::Degraded { output, mode } => {
                write!(f, "degraded   out{output} mode={mode}")
            }
            EventKind::GuaranteeRevoked {
                output,
                input,
                class,
                bound,
                forfeited,
            } => write!(
                f,
                "revoked    out{output} in{input} {} {}",
                class.label(),
                if *forfeited {
                    "bound FORFEITED".to_string()
                } else {
                    format!("bound={bound}")
                }
            ),
            EventKind::Readmitted {
                output,
                input,
                class,
                action,
            } => write!(
                f,
                "readmit    out{output} in{input} {} -> {action}",
                class.label()
            ),
            EventKind::HopEnqueue {
                node,
                link,
                packet,
                len_flits,
            } => write!(
                f,
                "hop-enq    node{node} link{link} pkt{packet} len={len_flits}"
            ),
            EventKind::CreditPause { link, occupancy } => {
                write!(f, "cr-pause   link{link} occupancy={occupancy}")
            }
            EventKind::CreditResume { link, occupancy } => {
                write!(f, "cr-resume  link{link} occupancy={occupancy}")
            }
            EventKind::Drop {
                link,
                input,
                output,
                class,
                packet,
                reason,
            } => write!(
                f,
                "drop       link{link} in{input} -> out{output} {} pkt{packet} ({reason})",
                class.label()
            ),
            EventKind::NackRetransmit {
                link,
                packet,
                attempt,
                delay,
            } => write!(
                f,
                "nack-rtx   link{link} pkt{packet} attempt={attempt} delay={delay}"
            ),
            EventKind::Reroute { node, dest, via } => {
                write!(f, "reroute    node{node} dest=node{dest} via=link{via}")
            }
        }
    }
}

/// Appends `v` in decimal through a stack digit buffer.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    // u64::MAX has 20 digits.
    let mut digits = [b'0'; 20];
    let mut start = digits.len();
    loop {
        // `v % 10` is below 10: the cast is exact and fits the low nibble.
        let digit = (v % 10) as u8;
        start = start.saturating_sub(1);
        if let Some(slot) = digits.get_mut(start) {
            *slot = b'0' | digit;
        }
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(digits.get(start..).unwrap_or_default());
}

fn push_num(out: &mut Vec<u8>, key: &[u8], v: impl Into<u64>) {
    out.extend_from_slice(key);
    push_u64(out, v.into());
}

/// A fixed identifier from this crate's own label tables.
fn push_label(out: &mut Vec<u8>, key: &[u8], v: &'static str) {
    out.extend_from_slice(key);
    out.push(b'"');
    out.extend_from_slice(v.as_bytes());
    out.push(b'"');
}

/// A caller-supplied label: the bytes the parser would choke on (or
/// that would break the one-object-per-line framing) become `_`.
fn push_text(out: &mut Vec<u8>, key: &[u8], v: &str) {
    out.extend_from_slice(key);
    out.push(b'"');
    out.extend(v.bytes().map(|b| {
        if matches!(b, b'"' | b'\\') || b.is_ascii_control() {
            b'_'
        } else {
            b
        }
    }));
    out.push(b'"');
}

fn push_bool(out: &mut Vec<u8>, key: &[u8], v: bool) {
    out.extend_from_slice(key);
    out.extend_from_slice(if v { b"true" } else { b"false" });
}

/// Error from [`Event::from_jsonl`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    message: String,
}

impl ParseError {
    fn new(message: impl Into<String>) -> Self {
        ParseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

/// Most fields [`Event::from_jsonl`] accepts on one line — twice what
/// the widest kind (`drop`, 8 fields) writes.
pub const MAX_FIELDS: usize = 16;

/// One parsed JSON scalar, borrowing from the line.
#[derive(Clone, Copy)]
enum Scalar<'a> {
    Num(u64),
    Str(&'a str),
    Bool(bool),
}

/// The fields of one line: a fixed stack table of borrowed slots in
/// line order, so the first of a duplicated key is the one found.
struct Fields<'a> {
    slots: [(&'a str, Scalar<'a>); MAX_FIELDS],
    len: usize,
}

/// The ASCII subset of `char::is_whitespace`.
const fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

impl<'a> Fields<'a> {
    /// Parses one flat JSON object of string/unsigned-integer/bool
    /// values — exactly the subset [`Event::write_jsonl`] emits. String
    /// values never contain escapes (the writer replaces the bytes that
    /// would need one), so none are accepted.
    fn parse(line: &'a str) -> Result<Self, ParseError> {
        let bytes = line.as_bytes();
        let skip_space = |mut at: usize| {
            while bytes.get(at).copied().is_some_and(is_space) {
                at += 1;
            }
            at
        };
        // The text between `at` and the next `"`, and the index after
        // that quote. Both cuts sit next to an ASCII byte, so `get`
        // never lands inside a UTF-8 sequence.
        let quoted = |at: usize, unterminated: &'static str| {
            let len = bytes
                .get(at..)
                .and_then(|rest| rest.iter().position(|&b| b == b'"'))
                .ok_or_else(|| ParseError::new(unterminated))?;
            let text = line
                .get(at..at + len)
                .ok_or_else(|| ParseError::new(unterminated))?;
            Ok::<_, ParseError>((text, at + len + 1))
        };

        let mut fields = Fields {
            slots: [("", Scalar::Bool(false)); MAX_FIELDS],
            len: 0,
        };
        let mut at = skip_space(0);
        if bytes.get(at) != Some(&b'{') {
            return Err(ParseError::new("line is not a JSON object"));
        }
        at = skip_space(at + 1);
        loop {
            if bytes.get(at) != Some(&b'"') {
                return Err(ParseError::new("expected quoted key"));
            }
            let (key, after_key) = quoted(at + 1, "unterminated key")?;
            at = skip_space(after_key);
            if bytes.get(at) != Some(&b':') {
                return Err(ParseError::new(format!("missing `:` after `{key}`")));
            }
            at = skip_space(at + 1);
            let rest = bytes.get(at..).unwrap_or_default();
            let value = if rest.first() == Some(&b'"') {
                let (text, after) = quoted(at + 1, "unterminated string value")?;
                if text.as_bytes().contains(&b'\\') {
                    return Err(ParseError::new("escapes are not part of the schema"));
                }
                at = after;
                Scalar::Str(text)
            } else if rest.starts_with(b"true") {
                at += 4;
                Scalar::Bool(true)
            } else if rest.starts_with(b"false") {
                at += 5;
                Scalar::Bool(false)
            } else {
                let (mut n, mut overflow, mut digits) = (0u64, false, 0);
                for d in rest
                    .iter()
                    .map_while(|b| b.is_ascii_digit().then(|| b - b'0'))
                {
                    let (tens, o1) = n.overflowing_mul(10);
                    let (sum, o2) = tens.overflowing_add(u64::from(d));
                    (n, overflow, digits) = (sum, overflow | o1 | o2, digits + 1);
                }
                if overflow || digits == 0 {
                    return Err(ParseError::new(format!("bad value for `{key}`")));
                }
                at += digits;
                Scalar::Num(n)
            };
            let slot = fields
                .slots
                .get_mut(fields.len)
                .ok_or_else(|| ParseError::new(format!("more than {MAX_FIELDS} fields")))?;
            *slot = (key, value);
            fields.len += 1;
            at = skip_space(at);
            match bytes.get(at) {
                Some(b',') => {
                    at = skip_space(at + 1);
                    if bytes.get(at) == Some(&b'}') {
                        return Err(ParseError::new("trailing comma"));
                    }
                }
                Some(b'}') => {
                    at += 1;
                    break;
                }
                Some(_) => return Err(ParseError::new("expected `,` between fields")),
                None => return Err(ParseError::new("line is not a JSON object")),
            }
        }
        if skip_space(at) != bytes.len() {
            return Err(ParseError::new("trailing characters after the object"));
        }
        Ok(fields)
    }

    fn get(&self, key: &str) -> Result<Scalar<'a>, ParseError> {
        self.slots
            .iter()
            .take(self.len)
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| ParseError::new(format!("missing field `{key}`")))
    }

    fn num(&self, key: &str) -> Result<u64, ParseError> {
        match self.get(key)? {
            Scalar::Num(n) => Ok(n),
            _ => Err(ParseError::new(format!("field `{key}` is not a number"))),
        }
    }

    fn num32(&self, key: &str) -> Result<u32, ParseError> {
        u32::try_from(self.num(key)?)
            .map_err(|_| ParseError::new(format!("field `{key}` exceeds u32")))
    }

    fn str(&self, key: &str) -> Result<&'a str, ParseError> {
        match self.get(key)? {
            Scalar::Str(s) => Ok(s),
            _ => Err(ParseError::new(format!("field `{key}` is not a string"))),
        }
    }

    fn boolean(&self, key: &str) -> Result<bool, ParseError> {
        match self.get(key)? {
            Scalar::Bool(b) => Ok(b),
            _ => Err(ParseError::new(format!("field `{key}` is not a bool"))),
        }
    }

    fn class(&self) -> Result<TrafficClass, ParseError> {
        class_from_label(self.str("class")?).ok_or_else(|| ParseError::new("unknown traffic class"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<Event> {
        vec![
            Event {
                cycle: 1,
                kind: EventKind::Decision {
                    output: 0,
                    class: TrafficClass::GuaranteedBandwidth,
                    contenders: 3,
                    winner: 2,
                },
            },
            Event {
                cycle: 2,
                kind: EventKind::Grant {
                    output: 0,
                    input: 2,
                    class: TrafficClass::GuaranteedLatency,
                    len_flits: 8,
                    waited: 5,
                },
            },
            Event {
                cycle: 3,
                kind: EventKind::Chained {
                    output: 1,
                    input: 2,
                    len_flits: 4,
                },
            },
            Event {
                cycle: 4,
                kind: EventKind::Inhibit {
                    output: 0,
                    input: 5,
                    msb: 6,
                    winner_msb: 4,
                },
            },
            Event {
                cycle: 5,
                kind: EventKind::AuxVc {
                    output: 0,
                    input: 2,
                    aux: 4095,
                    saturated: true,
                },
            },
            Event {
                cycle: 6,
                kind: EventKind::Decay {
                    output: 0,
                    epoch: 7,
                },
            },
            Event {
                cycle: 7,
                kind: EventKind::GlPoliced {
                    output: 3,
                    backlog: 2,
                },
            },
            Event {
                cycle: 8,
                kind: EventKind::Reject {
                    input: 1,
                    output: 0,
                    class: TrafficClass::BestEffort,
                    reason: RejectReason::StagingOverflow,
                },
            },
            Event {
                cycle: 9,
                kind: EventKind::Fault {
                    site: "bitline_stuck".to_string(),
                    output: 0,
                    input: 3,
                    healed: false,
                },
            },
            Event {
                cycle: 10,
                kind: EventKind::Detected {
                    output: 0,
                    code: "SSQV002".to_string(),
                    detail: 0b101,
                },
            },
            Event {
                cycle: 11,
                kind: EventKind::Degraded {
                    output: 0,
                    mode: "lrg_fallback".to_string(),
                },
            },
            Event {
                cycle: 12,
                kind: EventKind::GuaranteeRevoked {
                    output: 0,
                    input: 3,
                    class: TrafficClass::GuaranteedLatency,
                    bound: 96,
                    forfeited: false,
                },
            },
            Event {
                cycle: 13,
                kind: EventKind::Readmitted {
                    output: 0,
                    input: 2,
                    class: TrafficClass::GuaranteedBandwidth,
                    action: "evict".to_string(),
                },
            },
            Event {
                cycle: 14,
                kind: EventKind::HopEnqueue {
                    node: 1,
                    link: 0,
                    packet: 4_294_967_299,
                    len_flits: 8,
                },
            },
            Event {
                cycle: 15,
                kind: EventKind::CreditPause {
                    link: 0,
                    occupancy: 32,
                },
            },
            Event {
                cycle: 16,
                kind: EventKind::CreditResume {
                    link: 0,
                    occupancy: 16,
                },
            },
            Event {
                cycle: 17,
                kind: EventKind::Drop {
                    link: 2,
                    input: 1,
                    output: 0,
                    class: TrafficClass::GuaranteedBandwidth,
                    packet: 77,
                    reason: "queue_full".to_string(),
                },
            },
            Event {
                cycle: 18,
                kind: EventKind::NackRetransmit {
                    link: 2,
                    packet: 77,
                    attempt: 1,
                    delay: 12,
                },
            },
            Event {
                cycle: 19,
                kind: EventKind::Reroute {
                    node: 0,
                    dest: 3,
                    via: 4,
                },
            },
        ]
    }

    #[test]
    fn round_trips_every_kind() {
        for ev in all_kinds() {
            let line = ev.to_jsonl();
            let back = Event::from_jsonl(&line).expect(&line);
            assert_eq!(back, ev, "{line}");
        }
    }

    #[test]
    fn grant_wire_format_is_stable() {
        let ev = &all_kinds()[1];
        assert_eq!(
            ev.to_jsonl(),
            "{\"cycle\":2,\"kind\":\"grant\",\"output\":0,\"input\":2,\"class\":\"GL\",\
             \"len_flits\":8,\"waited\":5}"
        );
    }

    #[test]
    fn hop_wire_formats_are_stable() {
        let drop = &all_kinds()[16];
        assert_eq!(
            drop.to_jsonl(),
            "{\"cycle\":17,\"kind\":\"drop\",\"link\":2,\"input\":1,\"output\":0,\
             \"class\":\"GB\",\"packet\":77,\"reason\":\"queue_full\"}"
        );
        let pause = &all_kinds()[14];
        assert_eq!(
            pause.to_jsonl(),
            "{\"cycle\":15,\"kind\":\"credit_pause\",\"link\":0,\"occupancy\":32}"
        );
    }

    #[test]
    fn parse_accepts_whitespace_and_any_field_order() {
        let ev =
            Event::from_jsonl("{ \"kind\": \"decay\", \"epoch\": 3, \"cycle\": 9, \"output\": 1 }")
                .expect("reordered fields parse");
        assert_eq!(
            ev,
            Event {
                cycle: 9,
                kind: EventKind::Decay {
                    output: 1,
                    epoch: 3
                },
            }
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "not json",
            "{\"cycle\":1}",
            "{\"cycle\":1,\"kind\":\"nope\"}",
            "{\"cycle\":1,\"kind\":\"decay\",\"output\":0}",
            "{\"cycle\":-1,\"kind\":\"decay\",\"output\":0,\"epoch\":0}",
            "{\"cycle\":1,\"kind\":\"decay\",\"output\":0,\"epoch\":0,}",
        ] {
            assert!(Event::from_jsonl(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn link_down_rejects_round_trip() {
        let ev = Event {
            cycle: 14,
            kind: EventKind::Reject {
                input: 2,
                output: 1,
                class: TrafficClass::GuaranteedBandwidth,
                reason: RejectReason::LinkDown,
            },
        };
        let line = ev.to_jsonl();
        assert!(line.contains("\"reason\":\"link_down\""), "{line}");
        assert_eq!(Event::from_jsonl(&line).expect(&line), ev);
    }

    #[test]
    fn display_is_compact() {
        let s = all_kinds()[1].to_string();
        assert!(s.contains("grant"), "{s}");
        assert!(s.contains("waited=5"), "{s}");
    }

    /// Seeded corruption fuzz over the JSONL replay path, every kind:
    /// whatever a damaged capture looks like — flipped bytes, deletions,
    /// torn writes, spliced junk — `from_jsonl` either reproduces an
    /// event exactly (re-render matches) or returns a structured error.
    /// It never panics, so `trace-report` and a chaos campaign's replay
    /// tooling can stream a half-written capture without crashing.
    #[test]
    fn corrupted_jsonl_never_panics_and_good_lines_round_trip() {
        use ssq_types::rng::Xoshiro256StarStar;

        let lines: Vec<String> = all_kinds().iter().map(Event::to_jsonl).collect();
        assert_eq!(lines.len(), 19, "every kind covered");
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x905_13);
        for round in 0..1900 {
            let base = &lines[round % lines.len()];
            let mut bytes = base.clone().into_bytes();
            for _ in 0..=rng.index(3) {
                match rng.index(4) {
                    // Flip one byte to a random printable character.
                    0 => {
                        let at = rng.index(bytes.len());
                        bytes[at] = 0x20 + rng.below(0x5f) as u8;
                    }
                    // Delete one byte.
                    1 => {
                        let at = rng.index(bytes.len());
                        bytes.remove(at);
                    }
                    // Truncate mid-line (torn write).
                    2 => bytes.truncate(rng.index(bytes.len() + 1)),
                    // Splice junk into the middle.
                    _ => {
                        let junk: &[u8] = match rng.index(3) {
                            0 => b"\"link\":18446744073709551616,",
                            1 => b"}{",
                            _ => b"\\u00",
                        };
                        let at = rng.index(bytes.len() + 1);
                        let mut spliced = bytes[..at].to_vec();
                        spliced.extend_from_slice(junk);
                        spliced.extend_from_slice(&bytes[at..]);
                        bytes = spliced;
                    }
                }
                if bytes.is_empty() {
                    bytes.push(b' ');
                }
            }
            let text = String::from_utf8_lossy(&bytes).into_owned();
            match Event::from_jsonl(&text) {
                // A corruption that still parses must re-render to a
                // line that parses back to the same event — the replay
                // path cannot silently reinterpret damaged captures.
                Ok(ev) => {
                    let re = ev.to_jsonl();
                    assert_eq!(Event::from_jsonl(&re).expect(&re), ev, "{text}");
                }
                // The error formats without panicking.
                Err(e) => {
                    let _ = e.to_string();
                }
            }
        }
    }

    /// The encoder this module replaced, kept as the reference the new
    /// one is held to: plain `format!`, one arm per kind.
    fn reference_jsonl(ev: &Event) -> String {
        let rest = match &ev.kind {
            EventKind::Decision {
                output,
                class,
                contenders,
                winner,
            } => format!(
                "\"output\":{output},\"class\":\"{}\",\"contenders\":{contenders},\
                 \"winner\":{winner}",
                class.label()
            ),
            EventKind::Grant {
                output,
                input,
                class,
                len_flits,
                waited,
            } => format!(
                "\"output\":{output},\"input\":{input},\"class\":\"{}\",\
                 \"len_flits\":{len_flits},\"waited\":{waited}",
                class.label()
            ),
            EventKind::Chained {
                output,
                input,
                len_flits,
            } => format!("\"output\":{output},\"input\":{input},\"len_flits\":{len_flits}"),
            EventKind::Inhibit {
                output,
                input,
                msb,
                winner_msb,
            } => format!(
                "\"output\":{output},\"input\":{input},\"msb\":{msb},\"winner_msb\":{winner_msb}"
            ),
            EventKind::AuxVc {
                output,
                input,
                aux,
                saturated,
            } => format!(
                "\"output\":{output},\"input\":{input},\"aux\":{aux},\"saturated\":{saturated}"
            ),
            EventKind::Decay { output, epoch } => format!("\"output\":{output},\"epoch\":{epoch}"),
            EventKind::GlPoliced { output, backlog } => {
                format!("\"output\":{output},\"backlog\":{backlog}")
            }
            EventKind::Reject {
                input,
                output,
                class,
                reason,
            } => format!(
                "\"input\":{input},\"output\":{output},\"class\":\"{}\",\"reason\":\"{}\"",
                class.label(),
                reason.label()
            ),
            EventKind::Fault {
                site,
                output,
                input,
                healed,
            } => format!(
                "\"site\":\"{site}\",\"output\":{output},\"input\":{input},\"healed\":{healed}"
            ),
            EventKind::Detected {
                output,
                code,
                detail,
            } => format!("\"output\":{output},\"code\":\"{code}\",\"detail\":{detail}"),
            EventKind::Degraded { output, mode } => {
                format!("\"output\":{output},\"mode\":\"{mode}\"")
            }
            EventKind::GuaranteeRevoked {
                output,
                input,
                class,
                bound,
                forfeited,
            } => format!(
                "\"output\":{output},\"input\":{input},\"class\":\"{}\",\"bound\":{bound},\
                 \"forfeited\":{forfeited}",
                class.label()
            ),
            EventKind::Readmitted {
                output,
                input,
                class,
                action,
            } => format!(
                "\"output\":{output},\"input\":{input},\"class\":\"{}\",\"action\":\"{action}\"",
                class.label()
            ),
            EventKind::HopEnqueue {
                node,
                link,
                packet,
                len_flits,
            } => format!(
                "\"node\":{node},\"link\":{link},\"packet\":{packet},\"len_flits\":{len_flits}"
            ),
            EventKind::CreditPause { link, occupancy }
            | EventKind::CreditResume { link, occupancy } => {
                format!("\"link\":{link},\"occupancy\":{occupancy}")
            }
            EventKind::Drop {
                link,
                input,
                output,
                class,
                packet,
                reason,
            } => format!(
                "\"link\":{link},\"input\":{input},\"output\":{output},\"class\":\"{}\",\
                 \"packet\":{packet},\"reason\":\"{reason}\"",
                class.label()
            ),
            EventKind::NackRetransmit {
                link,
                packet,
                attempt,
                delay,
            } => format!(
                "\"link\":{link},\"packet\":{packet},\"attempt\":{attempt},\"delay\":{delay}"
            ),
            EventKind::Reroute { node, dest, via } => {
                format!("\"node\":{node},\"dest\":{dest},\"via\":{via}")
            }
        };
        format!(
            "{{\"cycle\":{},\"kind\":\"{}\",{rest}}}",
            ev.cycle,
            ev.kind.label()
        )
    }

    /// `all_kinds()[kind]` with every number redrawn: half the draws
    /// come from the digit-count and type boundaries, half are uniform.
    fn random_event(rng: &mut ssq_types::rng::Xoshiro256StarStar, kind: usize) -> Event {
        const EDGES: [u64; 7] = [
            0,
            9,
            10,
            u32::MAX as u64 - 1,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut n64 = || {
            if rng.chance(0.5) {
                EDGES[rng.index(EDGES.len())]
            } else {
                rng.next_u64() >> rng.index(64)
            }
        };
        let mut ev = all_kinds()[kind].clone();
        ev.cycle = n64();
        let mut n32 = || n64().min(u64::from(u32::MAX)) as u32;
        match &mut ev.kind {
            EventKind::Decision {
                output,
                contenders,
                winner,
                ..
            } => (*output, *contenders, *winner) = (n32(), n32(), n32()),
            EventKind::GlPoliced { output, backlog } => (*output, *backlog) = (n32(), n32()),
            EventKind::Reroute { node, dest, via } => (*node, *dest, *via) = (n32(), n32(), n32()),
            EventKind::Reject { input, output, .. }
            | EventKind::Fault { input, output, .. }
            | EventKind::Readmitted { input, output, .. } => (*input, *output) = (n32(), n32()),
            EventKind::Degraded { output, .. } => *output = n32(),
            _ => {}
        }
        let mut flip = || n64() % 2 == 0;
        match &mut ev.kind {
            EventKind::AuxVc { saturated: b, .. }
            | EventKind::Fault { healed: b, .. }
            | EventKind::GuaranteeRevoked { forfeited: b, .. } => *b = flip(),
            _ => {}
        }
        match &mut ev.kind {
            EventKind::Grant {
                len_flits: a,
                waited: b,
                ..
            }
            | EventKind::Inhibit {
                msb: a,
                winner_msb: b,
                ..
            }
            | EventKind::HopEnqueue {
                packet: a,
                len_flits: b,
                ..
            }
            | EventKind::NackRetransmit {
                packet: a,
                delay: b,
                ..
            } => (*a, *b) = (n64(), n64()),
            EventKind::Chained { len_flits: a, .. }
            | EventKind::AuxVc { aux: a, .. }
            | EventKind::Decay { epoch: a, .. }
            | EventKind::Detected { detail: a, .. }
            | EventKind::GuaranteeRevoked { bound: a, .. }
            | EventKind::CreditPause { occupancy: a, .. }
            | EventKind::CreditResume { occupancy: a, .. }
            | EventKind::Drop { packet: a, .. } => *a = n64(),
            _ => {}
        }
        ev
    }

    #[test]
    fn encoder_matches_the_format_reference_on_every_kind() {
        let mut rng = ssq_types::rng::Xoshiro256StarStar::seed_from_u64(0xC0DE_C15);
        // One buffer for the whole run, as a sink holds it: a stale tail
        // from a longer previous line must never leak into the next.
        let mut line = Vec::new();
        for round in 0..19 * 200 {
            let ev = random_event(&mut rng, round % 19);
            line.clear();
            ev.write_jsonl(&mut line);
            let want = reference_jsonl(&ev);
            assert_eq!(String::from_utf8_lossy(&line), want);
            assert_eq!(ev.to_jsonl(), want);
            assert_eq!(Event::from_jsonl(&want).expect(&want), ev);
        }
    }

    #[test]
    fn digit_boundaries_encode_exactly() {
        for v in [
            0,
            9,
            10,
            99,
            100,
            u64::from(u32::MAX),
            u64::from(u32::MAX) + 1,
            u64::MAX,
        ] {
            let mut out = b"x".to_vec();
            push_u64(&mut out, v);
            assert_eq!(String::from_utf8_lossy(&out), format!("x{v}"));
        }
    }

    /// Splits a writer-produced line into its `"key":value` fields;
    /// fixed-label lines hold no `,` inside a value.
    fn fields_of(line: &str) -> Vec<&str> {
        line.trim_matches(['{', '}']).split(',').collect()
    }

    #[test]
    fn parser_accepts_shuffled_fields_and_padded_whitespace() {
        let mut rng = ssq_types::rng::Xoshiro256StarStar::seed_from_u64(0x5_0FF1E);
        let pads = ["", " ", "\t", "  ", " \r", "\n", "\x0b\x0c"];
        for round in 0..19 * 50 {
            let ev = random_event(&mut rng, round % 19);
            let line = ev.to_jsonl();
            let mut fields = fields_of(&line);
            for i in (1..fields.len()).rev() {
                fields.swap(i, rng.index(i + 1));
            }
            let mut pad = || pads[rng.index(pads.len())];
            let mut text = format!("{}{{{}", pad(), pad());
            for (i, field) in fields.iter().enumerate() {
                let (key, value) = field.split_once(':').expect("key:value");
                if i > 0 {
                    text.push_str(&format!("{},{}", pad(), pad()));
                }
                text.push_str(&format!("{key}{}:{}{value}", pad(), pad()));
            }
            text.push_str(&format!("{}}}{}", pad(), pad()));
            assert_eq!(Event::from_jsonl(&text).expect(&text), ev, "{text:?}");
        }
    }

    #[test]
    fn first_duplicate_key_wins() {
        let ev = Event::from_jsonl(
            "{\"cycle\":1,\"cycle\":2,\"kind\":\"decay\",\"kind\":\"nope\",\"output\":3,\
             \"epoch\":4,\"epoch\":\"x\",\"output\":99999999999}",
        )
        .expect("later duplicates are never looked at");
        assert_eq!(
            ev,
            Event {
                cycle: 1,
                kind: EventKind::Decay {
                    output: 3,
                    epoch: 4
                },
            }
        );
    }

    #[test]
    fn field_table_overflow_is_an_error_not_a_panic() {
        let decay = "\"cycle\":1,\"kind\":\"decay\",\"output\":0,\"epoch\":0";
        let extras = |n: usize| -> String { (0..n).map(|i| format!(",\"x{i}\":{i}")).collect() };
        let full = format!("{{{decay}{}}}", extras(MAX_FIELDS - 4));
        assert!(Event::from_jsonl(&full).is_ok(), "{full}");
        for over in [1, 2, 40] {
            let line = format!("{{{decay}{}}}", extras(MAX_FIELDS - 4 + over));
            let e = Event::from_jsonl(&line).expect_err(&line);
            assert!(e.to_string().contains("more than 16 fields"), "{e}");
        }
    }

    #[test]
    fn number_grammar_boundaries() {
        let decay = |cycle: &str, output: &str| {
            Event::from_jsonl(&format!(
                "{{\"cycle\":{cycle},\"kind\":\"decay\",\"output\":{output},\"epoch\":0}}"
            ))
        };
        assert_eq!(
            decay("18446744073709551615", "4294967295").map(|e| e.cycle),
            Ok(u64::MAX)
        );
        assert_eq!(
            decay("007", "00").map(|e| e.cycle),
            Ok(7),
            "leading zeros as before"
        );
        for (cycle, output, why) in [
            ("18446744073709551616", "0", "u64::MAX + 1"),
            ("100000000000000000000", "0", "21 digits"),
            ("-1", "0", "negative"),
            ("+1", "0", "signed"),
            ("", "0", "empty digits"),
            ("1.5", "0", "fraction"),
            ("1e3", "0", "exponent"),
            ("0x10", "0", "hex"),
            ("1", "4294967296", "u32 field holding 2^32"),
            ("1", "18446744073709551615", "u32 field holding u64::MAX"),
            ("1", "true", "bool in a number field"),
            ("\"1\"", "0", "string in a number field"),
        ] {
            assert!(decay(cycle, output).is_err(), "{why} should not parse");
        }
    }

    #[test]
    fn structural_garbage_is_rejected() {
        for bad in [
            "{",
            "}",
            "{}",
            "{ }",
            "{,}",
            "{\"cycle\"}",
            "{\"cycle\":}",
            "{\"cycle\":1",
            "{\"cycle\":1,",
            "{\"cycle",
            "{\"cycle\":1 \"kind\":\"decay\"}",
            "{\"cycle\":1,\"kind\":\"decay\",\"output\":0,\"epoch\":0}}",
            "{\"cycle\":1,\"kind\":\"decay\",\"output\":0,\"epoch\":0} x",
            "x{\"cycle\":1,\"kind\":\"decay\",\"output\":0,\"epoch\":0}",
            "{\"cycle\":1,\"kind\":\"decay\",\"output\":0,\"epoch\":0}{}",
            "{\"cycle\":1,\"kind\":\"dec\\u0061y\",\"output\":0,\"epoch\":0}",
            "{\"cycle\":1,\"kind\":\"decay,\"output\":0,\"epoch\":0}",
            "{\"cycle\":1,\"kind\":\"auxvc\",\"output\":0,\"input\":0,\"aux\":0,\"saturated\":truex}",
            "{\"cycle\":1,\"kind\":\"auxvc\",\"output\":0,\"input\":0,\"aux\":0,\"saturated\":1}",
            "{\"cycle\":1,\"kind\":\"grant\",\"output\":0,\"input\":0,\"class\":\"XX\",\
             \"len_flits\":1,\"waited\":1}",
            "{\"cycle\":1,\"kind\":\"d\u{e9}cay\",\"output\":0,\"epoch\":0}",
            "\u{a0}{\"cycle\":1,\"kind\":\"decay\",\"output\":0,\"epoch\":0}",
        ] {
            let e = Event::from_jsonl(bad).expect_err(bad);
            assert!(e.to_string().starts_with("trace parse error: "), "{e}");
        }
    }

    /// Free-form labels come from callers (`pub String` fields): the
    /// writer never emits a line its own parser rejects, whatever they
    /// hold. The offending bytes become `_`; everything else survives.
    #[test]
    fn hostile_labels_are_written_parseable() {
        let hostile = [
            "plain",
            "",
            "quo\"te",
            "back\\slash",
            "\\\"",
            "new\nline",
            "tab\tcr\rnul\0del\x7f",
            "}{,:",
            "caf\u{e9} \u{1f980}",
            "\\u0041",
        ];
        let clean = |s: &str| -> String {
            s.chars()
                .map(|c| {
                    if c == '"' || c == '\\' || c.is_ascii_control() {
                        '_'
                    } else {
                        c
                    }
                })
                .collect()
        };
        for label in hostile {
            let l = label.to_string();
            let events = [
                EventKind::Fault {
                    site: l.clone(),
                    output: 1,
                    input: 2,
                    healed: true,
                },
                EventKind::Detected {
                    output: 1,
                    code: l.clone(),
                    detail: 3,
                },
                EventKind::Degraded {
                    output: 1,
                    mode: l.clone(),
                },
                EventKind::Readmitted {
                    output: 1,
                    input: 2,
                    class: TrafficClass::GuaranteedBandwidth,
                    action: l.clone(),
                },
                EventKind::Drop {
                    link: 0,
                    input: 1,
                    output: 2,
                    class: TrafficClass::BestEffort,
                    packet: 9,
                    reason: l.clone(),
                },
            ];
            for kind in events {
                let line = Event { cycle: 5, kind }.to_jsonl();
                assert!(!line.contains('\n'), "{line:?} must stay one line");
                let back = Event::from_jsonl(&line).expect(&line);
                let got = match &back.kind {
                    EventKind::Fault { site: s, .. }
                    | EventKind::Detected { code: s, .. }
                    | EventKind::Degraded { mode: s, .. }
                    | EventKind::Readmitted { action: s, .. }
                    | EventKind::Drop { reason: s, .. } => s.clone(),
                    other => panic!("kind changed: {other:?}"),
                };
                assert_eq!(got, clean(label), "{line:?}");
                assert_eq!(back.to_jsonl(), line, "sanitising is idempotent");
            }
        }
    }
}
