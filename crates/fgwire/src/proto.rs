//! The wire protocol: segment geometry, slot state machine constants,
//! completion codes, transform-kind encoding, and the length-prefixed JSON
//! frames of the control channel.
//!
//! Everything here is *data definitions* shared by both ends. The rule
//! that makes the protocol robust against hostile peers: **geometry is
//! never read from shared memory.** Both sides compute the segment layout
//! independently from the handshake's validated [`SegmentConfig`]; slot
//! headers carry only per-request parameters, each of which the server
//! re-validates before acting on it.

use fgfft::workload::TransformKind;
use fgserve::admission::TenantId;
use fgserve::ServeError;
use fgsupport::json::Value;
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;

/// First quadword of every segment; mapping a segment that does not start
/// with this is a handshake bug, caught before any slot traffic.
pub const MAGIC: u64 = 0x6667_7769_7265_0001; // "fgwire", protocol 1

/// Protocol revision carried in the hello frame; both sides must match.
pub const PROTO_VERSION: u64 = 1;

/// Hard cap on `n_log2` accepted over the wire (2^24 complex samples —
/// far above anything the size classes can hold, so the class check is
/// what actually binds; this bound just keeps arithmetic comfortable).
pub const MAX_N_LOG2: u32 = 24;

/// Hard cap on slots per segment (bounds server-side memory and ring
/// sizes regardless of what a client asks for).
pub const MAX_SLOTS: u32 = 1024;

/// Hard cap on one slot's payload, in `log2(Complex64 samples)`.
pub const MAX_CLASS_LOG2: u32 = 22; // 4 M samples = 64 MiB per slot

/// Slot ownership states — the seqlock-style flag both sides step through.
/// Transitions: `FREE → WRITING → SUBMITTED → EXECUTING → DONE → FREE`.
/// The client owns `FREE/WRITING/DONE→FREE`; the server owns the
/// `SUBMITTED → EXECUTING` claim (a CAS, so a double submit of one slot
/// loses cleanly) and `EXECUTING → DONE`.
pub mod state {
    /// Client-owned, not in use.
    pub const FREE: u32 = 0;
    /// Client is filling the payload and header.
    pub const WRITING: u32 = 1;
    /// Handed to the server (entry pushed on the submit ring).
    pub const SUBMITTED: u32 = 2;
    /// Server claimed it; the payload belongs to the service until DONE.
    pub const EXECUTING: u32 = 3;
    /// Server finished (transformed or rejected); client may read and free.
    pub const DONE: u32 = 4;
}

/// Completion codes, carried in the completion-ring entry (and, for
/// post-claim outcomes, mirrored in the slot header). Specific codes for
/// each way a slot submission can be refused — the adversarial tests
/// assert on these.
pub mod code {
    /// Transform completed; the payload holds the result.
    pub const OK: u16 = 0;
    /// Cluster admission queue full; header carries `retry_after_us`.
    pub const OVERLOADED: u16 = 1;
    /// Per-tenant QoS bucket empty.
    pub const THROTTLED: u16 = 2;
    /// Deadline passed before or during dispatch.
    pub const DEADLINE: u16 = 3;
    /// Dispatch failed (panic, dying dispatcher); payload indeterminate.
    pub const INTERNAL: u16 = 4;
    /// Parameters well-formed at the wire level but refused by the
    /// service's own validation.
    pub const BAD_REQUEST: u16 = 5;
    /// Server is draining; reconnect later.
    pub const SHUTTING_DOWN: u16 = 6;
    /// Submit entry named a slot not in the `SUBMITTED` state.
    pub const BAD_SLOT_STATE: u16 = 7;
    /// Declared transform does not fit the slot's size class.
    pub const BAD_SIZE_CLASS: u16 = 8;
    /// Submit entry's sequence number does not match the slot header's.
    pub const STALE_SEQUENCE: u16 = 9;
    /// `n_log2`/kind fields do not name a valid plan key.
    pub const BAD_PLAN_KEY: u16 = 10;
    /// Catch-all transport violation (out-of-range slot index, torn
    /// header observed after claim, unknown session, ...).
    pub const PROTOCOL: u16 = 11;
}

/// Map a completion code back onto the in-process error taxonomy, so the
/// wire client surfaces the *same* `ServeError`s an in-process caller
/// sees. `retry_after_us` and `tenant` contextualize the overload and
/// throttle variants.
pub fn code_to_error(
    code: u16,
    queue_capacity: usize,
    retry_after_us: u64,
    tenant: Option<TenantId>,
) -> Option<ServeError> {
    match code {
        code::OK => None,
        code::OVERLOADED => Some(ServeError::Overloaded {
            queue_capacity,
            retry_after_us,
        }),
        code::THROTTLED => Some(ServeError::Throttled {
            tenant: tenant.unwrap_or(TenantId(0)),
        }),
        code::DEADLINE => Some(ServeError::DeadlineExceeded),
        code::INTERNAL => Some(ServeError::Internal {
            reason: "server-side dispatch failure".to_string(),
        }),
        code::BAD_REQUEST => Some(ServeError::BadRequest(
            "rejected by service validation".to_string(),
        )),
        code::SHUTTING_DOWN => Some(ServeError::ShuttingDown),
        code::BAD_SLOT_STATE => Some(ServeError::Protocol {
            reason: "slot was not in the SUBMITTED state".to_string(),
        }),
        code::BAD_SIZE_CLASS => Some(ServeError::Protocol {
            reason: "transform does not fit the slot's size class".to_string(),
        }),
        code::STALE_SEQUENCE => Some(ServeError::Protocol {
            reason: "stale slot sequence number".to_string(),
        }),
        code::BAD_PLAN_KEY => Some(ServeError::Protocol {
            reason: "header fields do not name a valid plan key".to_string(),
        }),
        other => Some(ServeError::Protocol {
            reason: format!("wire violation (code {other})"),
        }),
    }
}

/// Map a service-side error onto its wire code (the reverse direction,
/// used when the server answers a slot).
pub fn error_to_code(error: &ServeError) -> u16 {
    match error {
        ServeError::Overloaded { .. } => code::OVERLOADED,
        ServeError::Throttled { .. } => code::THROTTLED,
        ServeError::ShuttingDown => code::SHUTTING_DOWN,
        ServeError::BadRequest(_) => code::BAD_REQUEST,
        ServeError::DeadlineExceeded => code::DEADLINE,
        ServeError::Internal { .. } => code::INTERNAL,
        ServeError::Protocol { .. } => code::PROTOCOL,
    }
}

/// Transform-kind wire tags.
pub mod kind_tag {
    /// [`fgfft::workload::TransformKind::C2C`].
    pub const C2C: u32 = 0;
    /// [`fgfft::workload::TransformKind::R2C`].
    pub const R2C: u32 = 1;
    /// [`fgfft::workload::TransformKind::C2R`].
    pub const C2R: u32 = 2;
    /// [`fgfft::workload::TransformKind::C2C2D`].
    pub const C2C2D: u32 = 3;
}

/// Encode a kind for the slot header: `(tag, rows_log2, cols_log2)`
/// (rows/cols are zero for the 1-D kinds).
pub fn encode_kind(kind: TransformKind) -> (u32, u32, u32) {
    match kind {
        TransformKind::C2C => (kind_tag::C2C, 0, 0),
        TransformKind::R2C => (kind_tag::R2C, 0, 0),
        TransformKind::C2R => (kind_tag::C2R, 0, 0),
        TransformKind::C2C2D {
            rows_log2,
            cols_log2,
        } => (kind_tag::C2C2D, rows_log2, cols_log2),
    }
}

/// Decode header kind fields; garbage yields `Err(BAD_PLAN_KEY)`.
pub fn decode_kind(tag: u32, rows_log2: u32, cols_log2: u32) -> Result<TransformKind, u16> {
    match tag {
        kind_tag::C2C => Ok(TransformKind::C2C),
        kind_tag::R2C => Ok(TransformKind::R2C),
        kind_tag::C2R => Ok(TransformKind::C2R),
        kind_tag::C2C2D => {
            if rows_log2 > MAX_N_LOG2 || cols_log2 > MAX_N_LOG2 {
                return Err(code::BAD_PLAN_KEY);
            }
            Ok(TransformKind::C2C2D {
                rows_log2,
                cols_log2,
            })
        }
        _ => Err(code::BAD_PLAN_KEY),
    }
}

/// One payload size class: `count` slots each holding `1 << len_log2`
/// complex samples. Mirrors the power-of-two size classes of
/// [`fgserve::BufferPool`], so a deployment can make wire slots alias the
/// classes its in-process pool already serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotClass {
    /// `log2` of the slot capacity in `Complex64` samples.
    pub len_log2: u32,
    /// Number of slots of this class.
    pub count: u32,
}

/// The client-proposed segment shape: which size classes, how many slots
/// of each. Validated by [`SegmentConfig::validate`] on both sides before
/// any layout arithmetic happens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentConfig {
    /// Size classes, smallest first (enforced by `validate`).
    pub classes: Vec<SlotClass>,
}

impl SegmentConfig {
    /// A sensible default: a few slots each of 2^10..2^14 samples.
    pub fn default_classes() -> Self {
        Self {
            classes: (10..=14)
                .map(|len_log2| SlotClass { len_log2, count: 4 })
                .collect(),
        }
    }

    /// Bounds-check the proposal: non-empty, strictly ascending classes,
    /// every class within [`MAX_CLASS_LOG2`], total slots within
    /// [`MAX_SLOTS`].
    pub fn validate(&self) -> Result<(), String> {
        if self.classes.is_empty() {
            return Err("no size classes".to_string());
        }
        let mut last: Option<u32> = None;
        let mut total: u64 = 0;
        for class in &self.classes {
            if class.len_log2 > MAX_CLASS_LOG2 {
                return Err(format!(
                    "class 2^{} exceeds the 2^{MAX_CLASS_LOG2} cap",
                    class.len_log2
                ));
            }
            if class.count == 0 {
                return Err(format!("class 2^{} has zero slots", class.len_log2));
            }
            if let Some(prev) = last {
                if class.len_log2 <= prev {
                    return Err("classes must be strictly ascending".to_string());
                }
            }
            last = Some(class.len_log2);
            total += class.count as u64;
        }
        if total > MAX_SLOTS as u64 {
            return Err(format!("{total} slots exceed the {MAX_SLOTS} cap"));
        }
        Ok(())
    }

    /// Total slot count across all classes.
    pub fn total_slots(&self) -> u32 {
        self.classes.iter().map(|c| c.count).sum()
    }

    /// Serialize for the hello frame.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.classes
                .iter()
                .map(|c| {
                    Value::obj(vec![
                        ("len_log2", Value::Num(c.len_log2 as f64)),
                        ("count", Value::Num(c.count as f64)),
                    ])
                })
                .collect(),
        )
    }

    /// Parse from the hello frame (shape errors only; bounds are
    /// [`SegmentConfig::validate`]'s job).
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let Value::Arr(items) = value else {
            return Err("classes must be an array".to_string());
        };
        let mut classes = Vec::with_capacity(items.len());
        for item in items {
            let len_log2 = item
                .get("len_log2")
                .and_then(Value::as_u64)
                .ok_or("class missing len_log2")? as u32;
            let count = item
                .get("count")
                .and_then(Value::as_u64)
                .ok_or("class missing count")? as u32;
            classes.push(SlotClass { len_log2, count });
        }
        Ok(Self { classes })
    }
}

/// Size of one slot header in bytes (a full cache line).
pub const SLOT_HEADER_BYTES: usize = 64;

/// Byte offsets of every region in the segment, computed identically on
/// both sides from a validated [`SegmentConfig`] — never read from the
/// segment itself.
#[derive(Debug, Clone)]
pub struct SegmentLayout {
    /// The config the layout was computed from.
    pub config: SegmentConfig,
    /// Submit ring offset (client → server).
    pub submit_ring: usize,
    /// Completion ring offset (server → client).
    pub complete_ring: usize,
    /// Ring capacity in entries (power of two ≥ total slots).
    pub ring_capacity: usize,
    /// Slot-header array offset.
    pub slot_headers: usize,
    /// Per-slot payload offsets, indexed by slot.
    pub payload_offsets: Vec<usize>,
    /// Per-slot payload capacity in `Complex64` samples, indexed by slot.
    pub slot_capacity: Vec<usize>,
    /// Total mapped length in bytes.
    pub total_len: usize,
}

/// Bytes occupied by one ring: head + tail quadwords on their own cache
/// lines, then `capacity` 8-byte entries.
fn ring_bytes(capacity: usize) -> usize {
    128 + capacity * 8
}

fn align64(offset: usize) -> usize {
    (offset + 63) & !63
}

impl SegmentLayout {
    /// Compute the layout. The config must already be validated — this
    /// panics on zero classes rather than guessing.
    pub fn new(config: SegmentConfig) -> Self {
        assert!(
            config.validate().is_ok(),
            "layout from an unvalidated config"
        );
        let total_slots = config.total_slots() as usize;
        let ring_capacity = total_slots.next_power_of_two().max(2);
        let header_end = 64; // magic + reserved
        let submit_ring = align64(header_end);
        let complete_ring = align64(submit_ring + ring_bytes(ring_capacity));
        let slot_headers = align64(complete_ring + ring_bytes(ring_capacity));
        let mut cursor = align64(slot_headers + total_slots * SLOT_HEADER_BYTES);
        let mut payload_offsets = Vec::with_capacity(total_slots);
        let mut slot_capacity = Vec::with_capacity(total_slots);
        for class in &config.classes {
            let samples = 1usize << class.len_log2;
            for _ in 0..class.count {
                payload_offsets.push(cursor);
                slot_capacity.push(samples);
                cursor = align64(cursor + samples * std::mem::size_of::<fgfft::Complex64>());
            }
        }
        Self {
            config,
            submit_ring,
            complete_ring,
            ring_capacity,
            slot_headers,
            payload_offsets,
            slot_capacity,
            total_len: cursor,
        }
    }

    /// Number of slots in the segment.
    pub fn total_slots(&self) -> usize {
        self.payload_offsets.len()
    }

    /// Byte offset of slot `index`'s header.
    pub fn header_offset(&self, index: usize) -> usize {
        self.slot_headers + index * SLOT_HEADER_BYTES
    }
}

/// Write one length-prefixed JSON frame (4-byte little-endian length,
/// then the serialized value).
pub fn write_frame(stream: &mut &UnixStream, value: &Value) -> io::Result<()> {
    let body = value.to_string_pretty();
    let bytes = body.as_bytes();
    let len = u32::try_from(bytes.len()).map_err(|_| io::Error::other("frame too large"))?;
    stream.write_all(&len.to_le_bytes())?;
    stream.write_all(bytes)?;
    Ok(())
}

/// Maximum accepted control-frame body (a handshake is a few hundred
/// bytes; anything larger is a confused or hostile peer).
pub const MAX_FRAME: u32 = 64 * 1024;

/// Read one length-prefixed JSON frame. `Ok(None)` on clean EOF at a
/// frame boundary.
pub fn read_frame(stream: &mut &UnixStream) -> io::Result<Option<Value>> {
    let mut len_bytes = [0u8; 4];
    match stream.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes);
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::other(format!("bad frame length {len}")));
    }
    let mut body = vec![0u8; len as usize];
    stream.read_exact(&mut body)?;
    let text = String::from_utf8(body).map_err(|_| io::Error::other("frame is not UTF-8"))?;
    fgsupport::json::parse(&text)
        .map(Some)
        .map_err(|e| io::Error::other(format!("frame is not JSON: {e:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_regions_do_not_overlap() {
        let layout = SegmentLayout::new(SegmentConfig::default_classes());
        assert!(layout.submit_ring >= 64);
        assert!(layout.complete_ring >= layout.submit_ring + ring_bytes(layout.ring_capacity));
        assert!(layout.slot_headers >= layout.complete_ring + ring_bytes(layout.ring_capacity));
        let total = layout.total_slots();
        assert_eq!(total, 20);
        assert!(layout.payload_offsets[0] >= layout.header_offset(total - 1) + SLOT_HEADER_BYTES);
        for i in 1..total {
            let prev_end = layout.payload_offsets[i - 1]
                + layout.slot_capacity[i - 1] * std::mem::size_of::<fgfft::Complex64>();
            assert!(
                layout.payload_offsets[i] >= prev_end,
                "slot {i} overlaps its neighbor"
            );
            assert_eq!(layout.payload_offsets[i] % 64, 0, "slot {i} misaligned");
        }
        assert!(layout.total_len >= layout.payload_offsets[total - 1]);
    }

    #[test]
    fn config_validation_rejects_garbage() {
        assert!(SegmentConfig { classes: vec![] }.validate().is_err());
        assert!(SegmentConfig {
            classes: vec![SlotClass {
                len_log2: MAX_CLASS_LOG2 + 1,
                count: 1
            }]
        }
        .validate()
        .is_err());
        assert!(SegmentConfig {
            classes: vec![SlotClass {
                len_log2: 10,
                count: 0
            }]
        }
        .validate()
        .is_err());
        assert!(
            SegmentConfig {
                classes: vec![
                    SlotClass {
                        len_log2: 10,
                        count: 1
                    },
                    SlotClass {
                        len_log2: 10,
                        count: 1
                    }
                ]
            }
            .validate()
            .is_err(),
            "duplicate classes"
        );
        assert!(SegmentConfig {
            classes: vec![SlotClass {
                len_log2: 10,
                count: MAX_SLOTS + 1
            }]
        }
        .validate()
        .is_err());
        assert!(SegmentConfig::default_classes().validate().is_ok());
    }

    #[test]
    fn config_round_trips_through_json() {
        let config = SegmentConfig::default_classes();
        let parsed = SegmentConfig::from_json(&config.to_json()).expect("parses");
        assert_eq!(parsed, config);
    }

    #[test]
    fn kinds_round_trip() {
        use fgfft::workload::TransformKind as K;
        for kind in [
            K::C2C,
            K::R2C,
            K::C2R,
            K::C2C2D {
                rows_log2: 5,
                cols_log2: 5,
            },
        ] {
            let (tag, rows, cols) = encode_kind(kind);
            assert_eq!(decode_kind(tag, rows, cols).expect("valid"), kind);
        }
        assert_eq!(decode_kind(9, 0, 0), Err(code::BAD_PLAN_KEY));
        assert_eq!(
            decode_kind(kind_tag::C2C2D, MAX_N_LOG2 + 1, 1),
            Err(code::BAD_PLAN_KEY)
        );
    }

    #[test]
    fn codes_map_onto_the_serve_error_taxonomy() {
        assert!(code_to_error(code::OK, 0, 0, None).is_none());
        assert!(matches!(
            code_to_error(code::OVERLOADED, 64, 250, None),
            Some(ServeError::Overloaded {
                queue_capacity: 64,
                retry_after_us: 250
            })
        ));
        for wire in [
            code::BAD_SLOT_STATE,
            code::BAD_SIZE_CLASS,
            code::STALE_SEQUENCE,
            code::BAD_PLAN_KEY,
            code::PROTOCOL,
        ] {
            assert!(
                matches!(
                    code_to_error(wire, 0, 0, None),
                    Some(ServeError::Protocol { .. })
                ),
                "code {wire} must map to Protocol"
            );
        }
        // And the reverse direction is consistent for service outcomes.
        assert_eq!(error_to_code(&ServeError::DeadlineExceeded), code::DEADLINE);
        assert_eq!(
            error_to_code(&ServeError::ShuttingDown),
            code::SHUTTING_DOWN
        );
    }

    #[test]
    fn frames_round_trip_over_a_socketpair() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        let value = Value::obj(vec![
            ("type", Value::Str("hello".to_string())),
            ("proto", Value::Num(PROTO_VERSION as f64)),
            ("classes", SegmentConfig::default_classes().to_json()),
        ]);
        write_frame(&mut &a, &value).expect("write");
        let read = read_frame(&mut &b).expect("read").expect("not EOF");
        assert_eq!(read.get("type").and_then(Value::as_str), Some("hello"));
        let classes =
            SegmentConfig::from_json(read.get("classes").expect("classes")).expect("parses");
        assert_eq!(classes, SegmentConfig::default_classes());
        drop(a);
        assert!(read_frame(&mut &b).expect("clean EOF").is_none());
    }
}
