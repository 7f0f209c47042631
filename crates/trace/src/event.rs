//! The trace event taxonomy and its JSONL wire format.
//!
//! One [`Event`] is emitted per observable micro-action of the switch:
//! an arbitration decision, a grant (channel allocation), an inhibit (a
//! requester defeated on the thermometer bitlines), an `auxVC` update
//! (with its saturation flag), a decay epoch (real-time-clock
//! subtraction), a GL policing stall, a packet chaining, and an
//! admission rejection. The fault family (DESIGN.md §8) — injection,
//! detection, degradation, guarantee revocation, and re-admission —
//! and the multi-hop fabric's hop events share the same wire. The
//! format is one flat JSON object per line — hand-serialized and
//! hand-parsed, since the workspace is fully offline (no serde).
//!
//! Each kind is declared once, in the [`EventKind`] table below: its
//! label, its fields in wire order, and their types. The label, the
//! writer and the parser are generated from that table, and every
//! string field is a [`Label`] type, so no caller can hand the writer
//! free text.

use std::fmt;

use ssq_types::invariant::Invariant;
use ssq_types::TrafficClass;

/// One traced occurrence at a specific cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Cycle at which the event occurred.
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
}

/// A closed set of values, each with a stable wire label: the type of
/// every string field of the schema.
pub trait Label: Copy + 'static {
    /// Every value, in declaration order.
    const ALL: &'static [Self];

    /// The value's stable wire label.
    fn label(self) -> &'static str;

    /// The value's index in [`Label::ALL`]: how a flight-recorder ring
    /// stores it.
    fn ordinal(self) -> u8;

    /// Inverse of [`Label::label`].
    fn from_label(s: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|v| v.label() == s)
    }
}

/// Declares a label enum: each variant once, with its wire label, which
/// is also how the value displays.
macro_rules! labels {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $($(#[$doc:meta])* $variant:ident = $label:literal,)+
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $($(#[$doc])* $variant,)+
        }

        impl $name {
            /// Stable wire label.
            #[must_use]
            pub const fn label(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }
        }

        impl Label for $name {
            const ALL: &'static [Self] = &[$($name::$variant,)+];

            fn label(self) -> &'static str {
                $name::label(self)
            }

            fn ordinal(self) -> u8 {
                self as u8
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.label())
            }
        }
    };
}

impl Label for TrafficClass {
    const ALL: &'static [Self] = &TrafficClass::ALL;

    fn label(self) -> &'static str {
        TrafficClass::label(self)
    }

    fn ordinal(self) -> u8 {
        self as u8
    }
}

/// A `detected` event's code is the invariant's `SSQV00x` code.
impl Label for Invariant {
    const ALL: &'static [Self] = &Invariant::ALL;

    fn label(self) -> &'static str {
        self.code()
    }

    fn ordinal(self) -> u8 {
        self as u8
    }
}

labels! {
    /// Why a packet was refused (or downgraded) at admission.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RejectReason {
        /// The per-input staging queue was full; the packet was dropped.
        StagingOverflow = "staging_overflow",
        /// The destination port buffer had no room; the offer was refused.
        BufferFull = "buffer_full",
        /// A GB packet without a matching reservation was demoted to BE
        /// (admitted, but not in the class it asked for).
        Demoted = "demoted",
        /// The packet's input link is down (fault-injected or real); the
        /// offer was refused at admission.
        LinkDown = "link_down",
    }
}

labels! {
    /// Why a fabric hop lost a packet. Declared in label order, so a ledger
    /// keyed on it iterates as one keyed on the label would.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub enum DropReason {
        /// The wire or an endpoint node died under the packet.
        LinkDown = "link_down",
        /// The packet stood on an output port with no outgoing link.
        NoRoute = "no_route",
        /// A lossy link's queue, or the downstream switch, had no room.
        QueueFull = "queue_full",
        /// A NACK link spent the packet's retransmission budget.
        RetriesExhausted = "retries_exhausted",
    }
}

impl DropReason {
    /// Whether the loss is fault-attributable, and so must come with an
    /// explicit revocation, as opposed to plain congestion.
    #[must_use]
    pub const fn is_loud(self) -> bool {
        !matches!(self, DropReason::QueueFull)
    }
}

impl EventKind {
    /// Whether a switch's trace event renegotiates a guarantee out loud:
    /// a `guarantee_revoked`, a `degraded`, or a `readmitted` that does
    /// not keep the reservation. The single-switch and fabric oracles
    /// both judge a node's record by this. (A fabric `drop` is loud by
    /// [`DropReason::is_loud`].)
    #[must_use]
    pub fn is_loud(&self) -> bool {
        match self {
            EventKind::GuaranteeRevoked { .. } | EventKind::Degraded { .. } => true,
            EventKind::Readmitted { action, .. } => *action != ReadmitAction::Keep,
            _ => false,
        }
    }
}

labels! {
    /// Where a fault was injected or healed (DESIGN.md §8).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum FaultSite {
        /// A wire of the checked inhibit fabric stuck at charged or
        /// discharged.
        BitlineStuck = "bitline_stuck",
        /// A single-event upset flipped one bit of an `auxVC` counter.
        AuxBitFlip = "aux_bit_flip",
        /// An output's counter-policy clock skipped epoch boundaries.
        EpochSkip = "epoch_skip",
        /// An input link went down or came back up.
        Link = "link",
        /// The trace sink itself failed.
        Sink = "sink",
    }
}

labels! {
    /// An output's degradation-mode transition.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum DegradeMode {
        /// Bounded retry-with-backoff consumed on a transient corruption.
        Retry = "retry",
        /// SSVC fell back to pure LRG after a lost GB lane.
        LrgFallback = "lrg_fallback",
        /// Full SSVC arbitration restored after the fabric healed.
        SsvcRestored = "ssvc_restored",
        /// The GL class was demoted and its Eq. 1 bound forfeited.
        GlDemoted = "gl_demoted",
        /// GL preemption restored.
        GlRestored = "gl_restored",
    }
}

labels! {
    /// What re-admission decided for one reservation after a fault reduced
    /// an output's capacity.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum ReadmitAction {
        /// The reservation still fits and keeps its class.
        Keep = "keep",
        /// A GL allocation lost its lane and was demoted (bound forfeited).
        Demote = "demote",
        /// The reservation no longer fits and was removed.
        Evict = "evict",
    }
}

/// Declares [`EventKind`] from one table: each kind's docs, wire label
/// and fields (keys are the field names, written in declaration order).
/// Generates the enum, [`EventKind::label`], the writer arm, the
/// exact-shape scan arm that reads the writer's output back, the
/// general parser arm, and the flight-recorder ring's packed form.
macro_rules! event_kinds {
    (
        $(#[$meta:meta])*
        pub enum EventKind {
            $($(#[$doc:meta])* $kind:ident = $label:literal { $($field:ident: $ty:ty,)+ },)+
        }
    ) => {
        $(#[$meta])*
        pub enum EventKind {
            $($(#[$doc])* $kind { $($field: $ty,)+ },)+
        }

        /// A kind without its fields; its discriminant is the kind's
        /// ordinal in the packed form.
        #[derive(Clone, Copy)]
        enum Tag {
            $($kind,)+
        }

        /// Every tag, indexed by ordinal.
        const TAGS: &[Tag] = &[$(Tag::$kind,)+];

        impl EventKind {
            /// Most bytes [`EventKind::pack`] writes for any kind.
            const PACKED_MAX: usize = {
                let widths = [$(0 $(+ <$ty as Wire>::PACKED_MAX)+,)+];
                let mut widest = 0;
                let mut i = 0;
                while i < widths.len() {
                    if widths[i] > widest {
                        widest = widths[i];
                    }
                    i += 1;
                }
                1 + widest
            };

            /// Appends the kind's ordinal, then each field's packed form
            /// in declaration order.
            fn pack(&self, out: &mut Vec<u8>) {
                match self {
                    $(EventKind::$kind { $($field,)+ } => {
                        out.push(Tag::$kind as u8);
                        $(Wire::pack($field, out);)+
                    })+
                }
            }

            /// Reads back what [`EventKind::pack`] wrote, stepping `bytes`
            /// past it; `None` if `bytes` does not start with a packed kind.
            fn unpack(bytes: &mut &[u8]) -> Option<Self> {
                let tag = *TAGS.get(usize::from(take_byte(bytes)?))?;
                Some(match tag {
                    $(Tag::$kind => EventKind::$kind {
                        $($field: Wire::unpack(bytes)?,)+
                    },)+
                })
            }

            /// Stable wire label for the `"kind"` field.
            #[must_use]
            pub const fn label(&self) -> &'static str {
                match self {
                    $(EventKind::$kind { .. } => $label,)+
                }
            }

            /// Appends `,"<field>":<value>` for each field.
            fn write_fields(&self, out: &mut Vec<u8>) {
                match self {
                    $(EventKind::$kind { $($field,)+ } => {
                        $(
                            out.extend_from_slice(
                                concat!(",\"", stringify!($field), "\":").as_bytes(),
                            );
                            Wire::put($field, out);
                        )+
                    })+
                }
            }

            /// The kind labelled `label`, its fields read from `cur` exactly
            /// as [`EventKind::write_fields`] writes them: each key literal,
            /// then its value, in declaration order. `None` on any other
            /// shape.
            fn scan_fields(label: &str, cur: &mut Cursor<'_>) -> Option<Self> {
                Some(match label {
                    $($label => EventKind::$kind {
                        $($field: cur.field(concat!(",\"", stringify!($field), "\":"))?,)+
                    },)+
                    _ => return None,
                })
            }

            /// The kind labelled `label`, each field read from `fields`.
            fn read_fields(label: &str, fields: &Fields<'_>) -> Result<Self, ParseError> {
                Ok(match label {
                    $($label => EventKind::$kind {
                        $($field: fields.take(stringify!($field))?,)+
                    },)+
                    other => {
                        return Err(ParseError::new(format!("unknown event kind `{other}`")))
                    }
                })
            }
        }
    };
}

event_kinds! {
    /// The event taxonomy (DESIGN.md §6).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum EventKind {
        /// An arbitration decision at an output: `winner` (an input index)
        /// was selected among `contenders` requesters in class `class`.
        Decision = "decision" {
            output: u32,
            class: TrafficClass,
            contenders: u32,
            winner: u32,
        },
        /// A channel grant: the head packet of (`input` → `output`) started
        /// transmission after waiting `waited` cycles since injection. A
        /// grant with `class == GL` is a GL lane dispatch.
        Grant = "grant" {
            output: u32,
            input: u32,
            class: TrafficClass,
            len_flits: u64,
            waited: u64,
        },
        /// A follow-on packet of the same flow chained onto the still-held
        /// channel without re-arbitration (§4.2, ref \[10\]).
        Chained = "chained" {
            output: u32,
            input: u32,
            len_flits: u64,
        },
        /// A GB requester defeated on the thermometer bitlines: its MSB
        /// lane `msb` was inhibited by the winner's smaller `winner_msb`
        /// (or lost the LRG tie-break at the same lane).
        Inhibit = "inhibit" {
            output: u32,
            input: u32,
            msb: u64,
            winner_msb: u64,
        },
        /// The winner's `auxVC` was charged its `Vtick`; `saturated` is set
        /// when the counter clamped at the saturation cap (triggering the
        /// halve/reset policies).
        AuxVc = "auxvc" {
            output: u32,
            input: u32,
            aux: u64,
            saturated: bool,
        },
        /// The real-time subcounter wrapped: every `auxVC` at this output
        /// dropped one MSB step and all thermometer codes shifted down one
        /// lane. `epoch` counts wraps since construction.
        Decay = "decay" {
            output: u32,
            epoch: u64,
        },
        /// GL traffic was buffered at this output but the policer inhibited
        /// it this cycle; `backlog` is the number of policed GL packets.
        GlPoliced = "gl_policed" {
            output: u32,
            backlog: u32,
        },
        /// A packet was refused or downgraded at admission.
        Reject = "reject" {
            input: u32,
            output: u32,
            class: TrafficClass,
            reason: RejectReason,
        },
        /// A fault was injected (`healed == false`) or healed
        /// (`healed == true`) at `site`.
        Fault = "fault" {
            site: FaultSite,
            output: u32,
            input: u32,
            healed: bool,
        },
        /// A runtime detector classified corrupted state without panicking:
        /// `code` is the tripped V1–V6 predicate (its label is the
        /// `SSQV00x` code) and `detail` carries the offending value
        /// (thermometer code, `auxVC`, or winner index).
        Detected = "detected" {
            output: u32,
            code: Invariant,
            detail: u64,
        },
        /// An output changed its degradation mode.
        Degraded = "degraded" {
            output: u32,
            mode: DegradeMode,
        },
        /// A previously admitted guarantee can no longer be honored: the
        /// flow (`input` → `output`, `class`) keeps service but its stated
        /// bound is replaced. `forfeited` means no bound at all survives;
        /// otherwise `bound` is the recomputed (weaker) Eq. 1 wait bound.
        GuaranteeRevoked = "guarantee_revoked" {
            output: u32,
            input: u32,
            class: TrafficClass,
            bound: u64,
            forfeited: bool,
        },
        /// Post-fault re-admission decided this flow's fate against the
        /// shrunken capacity.
        Readmitted = "readmitted" {
            output: u32,
            input: u32,
            class: TrafficClass,
            action: ReadmitAction,
        },
        /// Multi-hop fabric (DESIGN.md §13): a delivered packet entered the
        /// egress queue of link `link` at node `node`, bound for the next
        /// hop.
        HopEnqueue = "hop_enqueue" {
            node: u32,
            link: u32,
            packet: u64,
            len_flits: u64,
        },
        /// Credit/PFC-style backpressure engaged on `link`: the downstream
        /// queue reached `occupancy` flits and the upstream end paused.
        CreditPause = "credit_pause" {
            link: u32,
            occupancy: u64,
        },
        /// Credit/PFC-style backpressure released on `link`: the downstream
        /// queue drained to `occupancy` flits and the upstream end resumed.
        CreditResume = "credit_resume" {
            link: u32,
            occupancy: u64,
        },
        /// A packet was dropped at a hop, for `reason`. Per-flow loss
        /// accounting keys on (`input` → `output`, `class`) of the
        /// end-to-end flow.
        Drop = "drop" {
            link: u32,
            input: u32,
            output: u32,
            class: TrafficClass,
            packet: u64,
            reason: DropReason,
        },
        /// The NACK discipline scheduled retransmission `attempt` of
        /// `packet` on `link`, `delay` cycles out (bounded exponential
        /// backoff, DESIGN.md §13).
        NackRetransmit = "nack_retransmit" {
            link: u32,
            packet: u64,
            attempt: u32,
            delay: u64,
        },
        /// Traffic toward node `dest` was rerouted at `node` onto link
        /// `via` after a topology fault removed the primary path.
        Reroute = "reroute" {
            node: u32,
            dest: u32,
            via: u32,
        },
    }
}

impl Event {
    /// Appends the event to `out` as one JSON object (no trailing
    /// newline) without touching the heap beyond `out` itself: keys are
    /// literals, numbers go through a stack digit buffer.
    ///
    /// The field set per kind is the stable schema pinned by the
    /// golden-file test (`tests/jsonl_golden.rs`). Every line written
    /// here parses back with [`Event::from_jsonl`].
    pub fn write_jsonl(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"cycle\":");
        self.cycle.put(out);
        out.extend_from_slice(b",\"kind\":\"");
        out.extend_from_slice(self.kind.label().as_bytes());
        out.push(b'"');
        self.kind.write_fields(out);
        out.push(b'}');
    }

    /// [`Event::write_jsonl`] into a fresh `String`, for tests and
    /// one-off callers; anything that writes many events appends into
    /// one buffer instead.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::new();
        self.write_jsonl(&mut out);
        // The writer emits static labels and ASCII digits only: never lossy.
        String::from_utf8_lossy(&out).into_owned()
    }

    /// Parses one JSONL line produced by [`Event::write_jsonl`].
    ///
    /// The grammar is one flat object of string / unsigned-integer /
    /// bool values: ASCII whitespace is allowed around the object and
    /// between tokens, fields may come in any order, the first of a
    /// duplicated key wins, unknown keys are ignored, and strings carry
    /// no escapes. Nothing is allocated on success.
    ///
    /// A line in the writer's own shape is read in one pass; any other
    /// line goes through the general parser, which alone decides what
    /// is an error.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the first malformed token,
    /// missing field, out-of-range number, or unknown kind/label, or a
    /// line with more than [`MAX_FIELDS`] fields.
    pub fn from_jsonl(line: &str) -> Result<Event, ParseError> {
        match Event::scan(line) {
            Some(event) => Ok(event),
            None => Event::parse_general(line),
        }
    }

    /// Reads `line` only if it is exactly what [`Event::write_jsonl`]
    /// writes, plus trailing ASCII whitespace: `{"cycle":N,"kind":"L"`,
    /// each field of kind `L` in declaration order, `}`. Every line this
    /// accepts, [`Event::parse_general`] accepts too, as the same event:
    /// the keys are distinct and at most 8, each number fits its field,
    /// and each string is a label.
    fn scan(line: &str) -> Option<Event> {
        let mut cur = Cursor(line);
        let cycle = cur.field("{\"cycle\":")?;
        cur.eat(",\"kind\":\"")?;
        let kind = EventKind::scan_fields(cur.quoted()?, &mut cur)?;
        cur.eat("}")?;
        cur.0.bytes().all(is_space).then_some(Event { cycle, kind })
    }

    /// Most bytes [`Event::pack`] writes.
    pub(crate) const PACKED_MAX: usize = <u64 as Wire>::PACKED_MAX + EventKind::PACKED_MAX;

    /// Appends the event's packed form, as a flight-recorder ring stores
    /// it: the cycle as its wrapping difference from `prev_cycle` (the
    /// cycle of the event packed before it; LEB128), then the kind's
    /// ordinal and its fields, each `u32` / `u64` in LEB128, each `bool`
    /// in one byte and each label as its [`Label::ordinal`]. Nothing is
    /// looked up by name.
    pub(crate) fn pack(&self, prev_cycle: u64, out: &mut Vec<u8>) {
        self.cycle.wrapping_sub(prev_cycle).pack(out);
        self.kind.pack(out);
    }

    /// Reads back the event [`Event::pack`] wrote against `prev_cycle`,
    /// stepping `bytes` past it; `None` once `bytes` is spent (or holds
    /// anything else).
    pub(crate) fn unpack(prev_cycle: u64, bytes: &mut &[u8]) -> Option<Event> {
        let cycle = prev_cycle.wrapping_add(u64::unpack(bytes)?);
        let kind = EventKind::unpack(bytes)?;
        Some(Event { cycle, kind })
    }

    /// The general parser: any field order, whitespace, unknown keys.
    fn parse_general(line: &str) -> Result<Event, ParseError> {
        let fields = Fields::parse(line)?;
        let cycle = fields.take("cycle")?;
        let Scalar::Str(kind) = fields.get("kind")? else {
            return Err(ParseError::new("field `kind` is not a string"));
        };
        let kind = EventKind::read_fields(kind, &fields)?;
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
                "decision   out{output} {class} winner=in{winner} of {contenders}"
            ),
            EventKind::Grant {
                output,
                input,
                class,
                len_flits,
                waited,
            } => write!(
                f,
                "grant      out{output} <- in{input} {class} len={len_flits} waited={waited}"
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
            } => write!(f, "reject     in{input} -> out{output} {class} ({reason})"),
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
                "revoked    out{output} in{input} {class} {}",
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
            } => write!(f, "readmit    out{output} in{input} {class} -> {action}"),
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
                "drop       link{link} in{input} -> out{output} {class} pkt{packet} ({reason})"
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

/// How one field type crosses the wire: `put` appends its JSON value,
/// `scan` reads back exactly what `put` wrote, and `take` reads it from
/// the scalar the general parser found under `key`. `pack` appends the
/// value's binary form (at most `PACKED_MAX` bytes) for a flight-recorder
/// ring, and `unpack` reads it back.
trait Wire: Sized {
    const PACKED_MAX: usize;
    fn put(&self, out: &mut Vec<u8>);
    fn scan(cur: &mut Cursor<'_>) -> Option<Self>;
    fn take(key: &str, value: Scalar<'_>) -> Result<Self, ParseError>;
    fn pack(&self, out: &mut Vec<u8>);
    fn unpack(bytes: &mut &[u8]) -> Option<Self>;
}

/// The first byte of `bytes`, stepping past it.
fn take_byte(bytes: &mut &[u8]) -> Option<u8> {
    let (&first, rest) = bytes.split_first()?;
    *bytes = rest;
    Some(first)
}

/// The unread rest of a line, for the exact-shape scan.
struct Cursor<'a>(&'a str);

impl<'a> Cursor<'a> {
    /// Steps over `lit` if the rest starts with it.
    fn eat(&mut self, lit: &str) -> Option<()> {
        self.0 = self.0.strip_prefix(lit)?;
        Some(())
    }

    /// Steps over `key`, then reads the value that follows it.
    fn field<T: Wire>(&mut self, key: &str) -> Option<T> {
        self.eat(key)?;
        T::scan(self)
    }

    /// The text up to the next `"`, stepping over that quote.
    fn quoted(&mut self) -> Option<&'a str> {
        let (text, rest) = self.0.split_once('"')?;
        self.0 = rest;
        Some(text)
    }
}

impl Wire for u64 {
    /// Decimal, through a stack digit buffer.
    fn put(&self, out: &mut Vec<u8>) {
        // u64::MAX has 20 digits.
        let mut digits = [b'0'; 20];
        let mut start = digits.len();
        let mut v = *self;
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

    /// One or more ASCII digits; `None` on overflow.
    fn scan(cur: &mut Cursor<'_>) -> Option<Self> {
        let len = cur.0.bytes().take_while(u8::is_ascii_digit).count();
        if len == 0 {
            return None;
        }
        let (digits, rest) = cur.0.split_at_checked(len)?;
        let n = digits.bytes().try_fold(0u64, |n, d| {
            n.checked_mul(10)?.checked_add(u64::from(d - b'0'))
        })?;
        cur.0 = rest;
        Some(n)
    }

    fn take(key: &str, value: Scalar<'_>) -> Result<Self, ParseError> {
        match value {
            Scalar::Num(n) => Ok(n),
            _ => Err(ParseError::new(format!("field `{key}` is not a number"))),
        }
    }

    /// LEB128: seven bits a byte, low first, the top bit set on every
    /// byte but the last.
    const PACKED_MAX: usize = 10;

    fn pack(&self, out: &mut Vec<u8>) {
        let mut v = *self;
        while v >= 0x80 {
            // The low seven bits: the cast is exact.
            out.push((v & 0x7f) as u8 | 0x80);
            v >>= 7;
        }
        // Below 0x80: the cast is exact.
        out.push(v as u8);
    }

    fn unpack(bytes: &mut &[u8]) -> Option<Self> {
        let (mut v, mut shift) = (0, 0);
        loop {
            let byte = take_byte(bytes)?;
            v |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return Some(v);
            }
            shift += 7;
            if shift >= 64 {
                return None;
            }
        }
    }
}

impl Wire for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        u64::from(*self).put(out);
    }

    fn scan(cur: &mut Cursor<'_>) -> Option<Self> {
        u32::try_from(u64::scan(cur)?).ok()
    }

    fn take(key: &str, value: Scalar<'_>) -> Result<Self, ParseError> {
        u32::try_from(u64::take(key, value)?)
            .map_err(|_| ParseError::new(format!("field `{key}` exceeds u32")))
    }

    const PACKED_MAX: usize = 5;

    fn pack(&self, out: &mut Vec<u8>) {
        u64::from(*self).pack(out);
    }

    fn unpack(bytes: &mut &[u8]) -> Option<Self> {
        u32::try_from(u64::unpack(bytes)?).ok()
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(if *self { b"true" } else { b"false" });
    }

    fn scan(cur: &mut Cursor<'_>) -> Option<Self> {
        if cur.eat("true").is_some() {
            Some(true)
        } else {
            cur.eat("false").map(|()| false)
        }
    }

    fn take(key: &str, value: Scalar<'_>) -> Result<Self, ParseError> {
        match value {
            Scalar::Bool(b) => Ok(b),
            _ => Err(ParseError::new(format!("field `{key}` is not a bool"))),
        }
    }

    const PACKED_MAX: usize = 1;

    fn pack(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn unpack(bytes: &mut &[u8]) -> Option<Self> {
        match take_byte(bytes)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl<T: Label> Wire for T {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(b'"');
        out.extend_from_slice(self.label().as_bytes());
        out.push(b'"');
    }

    fn scan(cur: &mut Cursor<'_>) -> Option<Self> {
        cur.eat("\"")?;
        T::from_label(cur.quoted()?)
    }

    fn take(key: &str, value: Scalar<'_>) -> Result<Self, ParseError> {
        let Scalar::Str(s) = value else {
            return Err(ParseError::new(format!("field `{key}` is not a string")));
        };
        T::from_label(s).ok_or_else(|| ParseError::new(format!("unknown `{key}` label `{s}`")))
    }

    const PACKED_MAX: usize = 1;

    fn pack(&self, out: &mut Vec<u8>) {
        out.push(self.ordinal());
    }

    fn unpack(bytes: &mut &[u8]) -> Option<Self> {
        T::ALL.get(usize::from(take_byte(bytes)?)).copied()
    }
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
    /// values — exactly the subset [`Event::write_jsonl`] emits. Every
    /// string the writer emits is a label, so no escapes are accepted.
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

    /// The value under `key`, as the field type it is read into.
    fn take<T: Wire>(&self, key: &str) -> Result<T, ParseError> {
        T::take(key, self.get(key)?)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One event of each kind, in table order.
    pub(crate) fn all_kinds() -> Vec<Event> {
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
                    site: FaultSite::BitlineStuck,
                    output: 0,
                    input: 3,
                    healed: false,
                },
            },
            Event {
                cycle: 10,
                kind: EventKind::Detected {
                    output: 0,
                    code: Invariant::Thermometer,
                    detail: 0b101,
                },
            },
            Event {
                cycle: 11,
                kind: EventKind::Degraded {
                    output: 0,
                    mode: DegradeMode::LrgFallback,
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
                    action: ReadmitAction::Evict,
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
                    reason: DropReason::QueueFull,
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
            // The writer's own line takes the exact-shape scan, trailing
            // whitespace and all; a line one step off that shape does not.
            assert_eq!(Event::scan(&line).as_ref(), Some(&ev), "{line}");
            assert_eq!(Event::scan(&format!("{line}\r\n")).as_ref(), Some(&ev));
            let padded = format!(" {line}");
            assert_eq!(Event::scan(&padded), None, "{padded}");
            assert_eq!(Event::from_jsonl(&padded).as_ref(), Ok(&ev));
            let comma = line.replace('}', ",}");
            assert_eq!(Event::scan(&comma), None, "{comma}");
            assert!(Event::parse_general(&comma).is_err(), "{comma}");
        }
        // Every label of every string field (16 is more than any label
        // set holds), with small numbers.
        for i in 0..16 {
            for kind in 0..19 {
                let mut ev = all_kinds()[kind].clone();
                redraw(&mut ev, &mut Fixed(i as u64, i));
                let line = ev.to_jsonl();
                assert_eq!(Event::scan(&line).as_ref(), Some(&ev), "{line}");
            }
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
    /// tooling can stream a half-written capture without crashing. A
    /// damaged line the exact-shape scan still accepts is one the
    /// general parser reads as the same event.
    #[test]
    fn corrupted_jsonl_never_panics_and_good_lines_round_trip() {
        use ssq_types::rng::Xoshiro256StarStar;

        let mut lines: Vec<String> = all_kinds().iter().map(Event::to_jsonl).collect();
        assert_eq!(lines.len(), 19, "every kind covered");
        // A drop reason no writer emits is refused by name, not kept.
        let unknown = lines[16].replace("queue_full", "cosmic_ray");
        let e = Event::from_jsonl(&unknown).expect_err(&unknown);
        assert!(e.to_string().contains("unknown `reason` label"), "{e}");
        lines.push(unknown);
        // Every kind again with each number at its type's top, so one
        // more digit anywhere in it is out of range.
        for kind in 0..19 {
            let mut ev = all_kinds()[kind].clone();
            redraw(&mut ev, &mut Fixed(u64::MAX, kind));
            lines.push(ev.to_jsonl());
        }
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x0009_0513);
        let mut scanned = 0;
        for round in 0..39 * 500 {
            let base = &lines[round % lines.len()];
            let mut bytes = base.clone().into_bytes();
            for _ in 0..=rng.index(3) {
                match rng.index(5) {
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
                    // Insert one digit.
                    3 => {
                        let at = rng.index(bytes.len() + 1);
                        bytes.insert(at, b'0' + rng.below(10) as u8);
                    }
                    // Splice junk into the middle.
                    _ => {
                        let junk: &[u8] = match rng.index(4) {
                            0 => b"\"link\":18446744073709551616,",
                            1 => b"}{",
                            2 => b",",
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
            // The scan is a shortcut, never a second grammar: whatever it
            // accepts, the general parser reads as the same event.
            if let Some(ev) = Event::scan(&text) {
                assert_eq!(Event::parse_general(&text), Ok(ev), "{text}");
                scanned += 1;
            }
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
        assert!(scanned > 100, "only {scanned} mutated lines took the scan");
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
                "\"site\":\"{}\",\"output\":{output},\"input\":{input},\"healed\":{healed}",
                site.label()
            ),
            EventKind::Detected {
                output,
                code,
                detail,
            } => format!(
                "\"output\":{output},\"code\":\"{}\",\"detail\":{detail}",
                code.code()
            ),
            EventKind::Degraded { output, mode } => {
                format!("\"output\":{output},\"mode\":\"{}\"", mode.label())
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
                "\"output\":{output},\"input\":{input},\"class\":\"{}\",\"action\":\"{}\"",
                class.label(),
                action.label()
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
                 \"packet\":{packet},\"reason\":\"{}\"",
                class.label(),
                reason.label()
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

    /// Where [`redraw`] takes each new number and label from.
    pub(crate) trait Draw {
        fn number(&mut self) -> u64;
        fn index(&mut self, len: usize) -> usize;
    }

    /// Half the number draws come from the digit-count and type
    /// boundaries, half are uniform.
    impl Draw for ssq_types::rng::Xoshiro256StarStar {
        fn number(&mut self) -> u64 {
            const EDGES: [u64; 7] = [
                0,
                9,
                10,
                u32::MAX as u64 - 1,
                u32::MAX as u64,
                u64::MAX - 1,
                u64::MAX,
            ];
            if self.chance(0.5) {
                EDGES[self.index(EDGES.len())]
            } else {
                self.next_u64() >> self.index(64)
            }
        }

        fn index(&mut self, len: usize) -> usize {
            ssq_types::rng::Xoshiro256StarStar::index(self, len)
        }
    }

    /// Every number `.0` (a `u32` field clamped to `u32::MAX`), every
    /// label the `.1`-th of its set, wrapping.
    pub(crate) struct Fixed(pub(crate) u64, pub(crate) usize);

    impl Draw for Fixed {
        fn number(&mut self) -> u64 {
            self.0
        }

        fn index(&mut self, len: usize) -> usize {
            self.1 % len
        }
    }

    /// `all_kinds()[kind]` with every number and label redrawn at random.
    pub(crate) fn random_event(rng: &mut ssq_types::rng::Xoshiro256StarStar, kind: usize) -> Event {
        let mut ev = all_kinds()[kind].clone();
        redraw(&mut ev, rng);
        ev
    }

    /// Redraws the cycle and every field of `ev` from `draw`.
    pub(crate) fn redraw(ev: &mut Event, draw: &mut impl Draw) {
        ev.cycle = draw.number();
        let mut n32 = || draw.number().min(u64::from(u32::MAX)) as u32;
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
        let mut flip = || draw.number().is_multiple_of(2);
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
            } => (*a, *b) = (draw.number(), draw.number()),
            EventKind::Chained { len_flits: a, .. }
            | EventKind::AuxVc { aux: a, .. }
            | EventKind::Decay { epoch: a, .. }
            | EventKind::Detected { detail: a, .. }
            | EventKind::GuaranteeRevoked { bound: a, .. }
            | EventKind::CreditPause { occupancy: a, .. }
            | EventKind::CreditResume { occupancy: a, .. }
            | EventKind::Drop { packet: a, .. } => *a = draw.number(),
            _ => {}
        }
        fn pick<T: Label>(draw: &mut impl Draw, v: &mut T) {
            *v = T::ALL[draw.index(T::ALL.len())];
        }
        match &mut ev.kind {
            EventKind::Decision { class, .. }
            | EventKind::Grant { class, .. }
            | EventKind::GuaranteeRevoked { class, .. } => pick(draw, class),
            EventKind::Reject { class, reason, .. } => {
                pick(draw, class);
                pick(draw, reason);
            }
            EventKind::Drop { class, reason, .. } => {
                pick(draw, class);
                pick(draw, reason);
            }
            EventKind::Readmitted { class, action, .. } => {
                pick(draw, class);
                pick(draw, action);
            }
            EventKind::Fault { site, .. } => pick(draw, site),
            EventKind::Detected { code, .. } => pick(draw, code),
            EventKind::Degraded { mode, .. } => pick(draw, mode),
            _ => {}
        }
    }

    #[test]
    fn encoder_matches_the_format_reference_on_every_kind() {
        let mut rng = ssq_types::rng::Xoshiro256StarStar::seed_from_u64(0x0C0D_EC15);
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
            v.put(&mut out);
            assert_eq!(String::from_utf8_lossy(&out), format!("x{v}"));
            // Every kind with every number at `v` scans back exactly.
            for kind in 0..19 {
                let mut ev = all_kinds()[kind].clone();
                redraw(&mut ev, &mut Fixed(v, kind));
                let line = ev.to_jsonl();
                assert_eq!(Event::scan(&line).as_ref(), Some(&ev), "{line}");
            }
            // A `u32` field takes `v` only up to `u32::MAX`, on either path.
            let wide = format!("{{\"cycle\":{v},\"kind\":\"decay\",\"output\":{v},\"epoch\":{v}}}");
            assert_eq!(
                Event::scan(&wide),
                Event::parse_general(&wide).ok(),
                "{wide}"
            );
            assert_eq!(Event::scan(&wide).is_some(), v <= u64::from(u32::MAX));
        }
        let over = "{\"cycle\":18446744073709551616,\"kind\":\"decay\",\"output\":0,\"epoch\":0}";
        assert_eq!(Event::scan(over), None);
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

    /// Which kinds are loud, by label; a `readmitted` by its action too.
    #[test]
    fn loudness_is_decided_per_kind() {
        let table = [
            ("decision", false),
            ("grant", false),
            ("chained", false),
            ("inhibit", false),
            ("auxvc", false),
            ("decay", false),
            ("gl_policed", false),
            ("reject", false),
            ("fault", false),
            ("detected", false),
            ("degraded", true),
            ("guarantee_revoked", true),
            ("readmitted", true),
            ("hop_enqueue", false),
            ("credit_pause", false),
            ("credit_resume", false),
            ("drop", false),
            ("nack_retransmit", false),
            ("reroute", false),
        ];
        let kinds = all_kinds();
        assert_eq!(kinds.len(), table.len());
        for (ev, (label, loud)) in kinds.iter().zip(table) {
            assert_eq!(ev.kind.label(), label);
            assert_eq!(ev.kind.is_loud(), loud, "{label}");
        }
        for &action in ReadmitAction::ALL {
            let kind = EventKind::Readmitted {
                output: 0,
                input: 2,
                class: TrafficClass::GuaranteedBandwidth,
                action,
            };
            assert_eq!(kind.is_loud(), action != ReadmitAction::Keep, "{action}");
        }
    }

    /// Every label enum's `from_label` inverts its `label`, no two
    /// values of one enum share a label, and each value's ordinal is its
    /// index in `ALL`.
    #[test]
    fn every_label_round_trips() {
        fn check<T: Label + PartialEq + fmt::Debug>() {
            for (i, &v) in T::ALL.iter().enumerate() {
                assert_eq!(T::from_label(v.label()), Some(v));
                assert_eq!(usize::from(v.ordinal()), i, "{v:?}");
                assert!(T::ALL[..i].iter().all(|w| w.label() != v.label()));
            }
            assert_eq!(T::from_label("foo"), None);
        }
        check::<TrafficClass>();
        check::<RejectReason>();
        check::<DropReason>();
        check::<FaultSite>();
        check::<Invariant>();
        check::<DegradeMode>();
        check::<ReadmitAction>();
    }

    /// A label outside a field's set is a parse error that names the
    /// field, for every string field of the schema.
    #[test]
    fn unknown_labels_are_refused_by_field() {
        let kinds = all_kinds();
        for (at, key, label) in [
            (0, "class", "GB"),
            (7, "reason", "staging_overflow"),
            (8, "site", "bitline_stuck"),
            (9, "code", "SSQV002"),
            (10, "mode", "lrg_fallback"),
            (12, "action", "evict"),
            (16, "reason", "queue_full"),
        ] {
            let line = kinds[at].to_jsonl();
            let field = format!("\"{key}\":\"{label}\"");
            assert!(line.contains(&field), "{line}");
            let bad = line.replace(&field, &format!("\"{key}\":\"foo\""));
            let e = Event::from_jsonl(&bad).expect_err(&bad);
            assert_eq!(
                e.to_string(),
                format!("trace parse error: unknown `{key}` label `foo`")
            );
            let bad = line.replace(&field, &format!("\"{key}\":7"));
            let e = Event::from_jsonl(&bad).expect_err(&bad);
            assert!(
                e.to_string().contains(&format!("`{key}` is not a string")),
                "{e}"
            );
        }
    }
}
