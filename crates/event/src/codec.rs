//! Compact binary codec: varint primitives, bounds-checked reading,
//! and the attribute dictionary.
//!
//! This is the one encoding of an event: the runtime's wire frames and
//! the broker's write-ahead log records both carry it.
//!
//! * **varints** — LEB128 for unsigned integers, zigzag for signed, so
//!   sequence numbers, offsets and ids cost 1–2 bytes;
//! * **attribute dictionary** — attribute (and class) names travel as
//!   small integer ids. Inside one process the global [`AttrId`] interner
//!   *is* the dictionary ([`DictMode::Shared`]); across a socket each
//!   connection negotiates its own dense id space via dictionary-update
//!   frames ([`DictMode::Negotiated`]), so a name crosses the wire once
//!   per connection instead of once per message. A log record carries
//!   its own negotiated dictionary, because interned ids are
//!   process-local and must not reach disk;
//! * **bounds-checked decoding** — [`WireReader`] never reads past its
//!   slice and every length is validated against the bytes actually
//!   present *before* any allocation, so garbage and truncated input is
//!   rejected with a [`CodecError`] instead of a panic or an OOM.
//!
//! Types encode themselves via [`BinCodec`]; the overlay message enum and
//! the filter language implement it in their own crates on top of these
//! primitives.

use crate::intern::AttrId;

/// Frame payload discriminator: an application message follows.
pub const KIND_MSG: u8 = 0;
/// Frame payload discriminator: a dictionary update (new name→id
/// mappings the peer must learn before decoding subsequent messages).
pub const KIND_DICT: u8 = 1;
/// Frame payload discriminator: a connection handshake.
pub const KIND_HELLO: u8 = 2;

/// Magic bytes opening a handshake frame ("LC" + format version 1).
pub const HELLO_MAGIC: [u8; 3] = [b'L', b'C', 1];

/// Why a binary decode failed. All failures are total — no partial
/// values escape — and none panic, whatever the input bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value did.
    Truncated,
    /// A varint ran past 10 bytes or overflowed 64 bits.
    Overflow,
    /// An unknown enum tag byte.
    Tag(u8),
    /// A declared length exceeds the bytes actually present.
    Length,
    /// A dictionary reference to an id this connection never learned.
    DictMiss(u64),
    /// A structurally invalid value (bad UTF-8, NaN, rejected invariant).
    Invalid(&'static str),
    /// Trailing bytes after a complete value.
    Trailing,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated mid-value"),
            CodecError::Overflow => write!(f, "varint overflows 64 bits"),
            CodecError::Tag(t) => write!(f, "unknown tag byte {t}"),
            CodecError::Length => write!(f, "declared length exceeds input"),
            CodecError::DictMiss(id) => write!(f, "unknown dictionary id {id}"),
            CodecError::Invalid(what) => write!(f, "invalid value: {what}"),
            CodecError::Trailing => write!(f, "trailing bytes after value"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------------
// Varint primitives
// ---------------------------------------------------------------------------

/// Appends `v` as an LEB128 varint (1 byte for values < 128).
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `v` zigzag-mapped then LEB128-encoded, so small magnitudes of
/// either sign stay small on the wire.
pub fn write_zigzag(out: &mut Vec<u8>, v: i64) {
    write_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// A bounds-checked cursor over a byte slice. Every read either returns
/// a complete value or a [`CodecError`]; the cursor never advances past
/// the end and never allocates more than the bytes it can see.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps a payload for decoding.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Fails with [`CodecError::Trailing`] unless the input is exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Trailing`] when unconsumed bytes remain.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Trailing)
        }
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads an LEB128 varint.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] on short input and
    /// [`CodecError::Overflow`] when the encoding exceeds 64 bits.
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = u64::from(byte & 0x7f);
            // The tenth byte may only carry the final single bit.
            if shift == 63 && bits > 1 {
                return Err(CodecError::Overflow);
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::Overflow)
    }

    /// Reads a zigzag-encoded signed varint.
    ///
    /// # Errors
    ///
    /// Propagates the failures of [`WireReader::varint`].
    pub fn zigzag(&mut self) -> Result<i64, CodecError> {
        let raw = self.varint()?;
        Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
    }

    /// Reads exactly `len` bytes, without copying.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Length`] when fewer than `len` remain.
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        if len > self.remaining() {
            return Err(CodecError::Length);
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }

    /// Reads a varint length followed by that many bytes.
    ///
    /// # Errors
    ///
    /// Fails as [`WireReader::varint`] / [`WireReader::bytes`] do; the
    /// length is validated against the remaining input before any use,
    /// so a hostile length cannot trigger allocation.
    pub fn len_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.varint()?;
        let len = usize::try_from(len).map_err(|_| CodecError::Length)?;
        self.bytes(len)
    }

    /// Reads a varint length followed by that many UTF-8 bytes.
    ///
    /// # Errors
    ///
    /// Fails as [`WireReader::len_bytes`] does, plus
    /// [`CodecError::Invalid`] on malformed UTF-8.
    pub fn string(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.len_bytes()?).map_err(|_| CodecError::Invalid("utf-8"))
    }

    /// Reads an 8-byte little-endian f64.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Truncated`] on short input.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        let raw = self.bytes(8).map_err(|_| CodecError::Truncated)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(raw);
        Ok(f64::from_bits(u64::from_le_bytes(arr)))
    }

    /// Reads a varint element count for a collection whose elements each
    /// occupy at least one byte, rejecting counts the input cannot hold.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Length`] when the count exceeds the
    /// remaining bytes (so a hostile count cannot pre-allocate memory).
    pub fn count(&mut self) -> Result<usize, CodecError> {
        let n = self.varint()?;
        let n = usize::try_from(n).map_err(|_| CodecError::Length)?;
        if n > self.remaining() {
            return Err(CodecError::Length);
        }
        Ok(n)
    }
}

/// Appends a length-prefixed byte string.
pub fn write_bytes(out: &mut Vec<u8>, b: &[u8]) {
    write_varint(out, b.len() as u64);
    out.extend_from_slice(b);
}

/// Appends a length-prefixed UTF-8 string.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    write_bytes(out, s.as_bytes());
}

// ---------------------------------------------------------------------------
// Attribute dictionary
// ---------------------------------------------------------------------------

/// How attribute/class names map to wire integers on one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DictMode {
    /// Both endpoints share one process, hence one [`AttrId`] interner:
    /// the interned id *is* the wire id and no negotiation ever happens.
    /// This is what the in-process transport uses.
    Shared,
    /// The endpoints are separate processes: the sender assigns dense
    /// wire ids on first use and announces each mapping in a
    /// [`KIND_DICT`] frame *before* the message that relies on it.
    Negotiated,
}

/// The sender's half of the dictionary: maps interned [`AttrId`]s to
/// wire ids, tracking which mappings the peer has not been told yet.
#[derive(Debug)]
pub struct EncodeDict {
    mode: DictMode,
    /// Negotiated mode: `wire[attr.0 as usize]` is the assigned wire id
    /// plus one (0 = unassigned). Indexed by interned id, so lookup on
    /// the encode hot path is an array load, not a hash.
    wire: Vec<u64>,
    next: u64,
    pending: Vec<(u64, &'static str)>,
}

impl EncodeDict {
    /// A dictionary for the given mode, empty of assignments.
    #[must_use]
    pub fn new(mode: DictMode) -> Self {
        Self {
            mode,
            wire: Vec::new(),
            next: 0,
            pending: Vec::new(),
        }
    }

    /// The mode this dictionary was built for.
    #[must_use]
    pub fn mode(&self) -> DictMode {
        self.mode
    }

    /// Encodes one attribute reference, assigning a wire id on first use
    /// in [`DictMode::Negotiated`] mode.
    pub fn write_attr(&mut self, out: &mut Vec<u8>, id: AttrId) {
        match self.mode {
            DictMode::Shared => write_varint(out, u64::from(id.0)),
            DictMode::Negotiated => {
                let idx = id.0 as usize;
                if idx >= self.wire.len() {
                    self.wire.resize(idx + 1, 0);
                }
                let assigned = if self.wire[idx] == 0 {
                    let w = self.next;
                    self.next += 1;
                    self.wire[idx] = w + 1;
                    self.pending.push((w, id.name()));
                    w
                } else {
                    self.wire[idx] - 1
                };
                write_varint(out, assigned);
            }
        }
    }

    /// Interns `name` and encodes it as an attribute reference — how
    /// class names share the dictionary machinery.
    pub fn write_name(&mut self, out: &mut Vec<u8>, name: &str) {
        let id = AttrId::intern(name);
        self.write_attr(out, id);
    }

    /// Drains the mappings assigned since the last call. The transport
    /// must deliver these (as a [`KIND_DICT`] frame) before the message
    /// whose encoding minted them.
    pub fn take_pending(&mut self) -> Vec<(u64, &'static str)> {
        std::mem::take(&mut self.pending)
    }

    /// Whether any mappings await announcement.
    #[must_use]
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }
}

/// The receiver's half of the dictionary: maps wire ids back to interned
/// [`AttrId`]s.
#[derive(Debug)]
pub struct DecodeDict {
    mode: DictMode,
    /// Negotiated mode: `attrs[wire_id]` is the locally interned id.
    attrs: Vec<AttrId>,
}

impl DecodeDict {
    /// A dictionary for the given mode, empty of learned mappings.
    #[must_use]
    pub fn new(mode: DictMode) -> Self {
        Self {
            mode,
            attrs: Vec::new(),
        }
    }

    /// The mode this dictionary was built for.
    #[must_use]
    pub fn mode(&self) -> DictMode {
        self.mode
    }

    /// Decodes one attribute reference.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::DictMiss`] for a wire id this connection
    /// was never taught ([`DictMode::Negotiated`]) or that exceeds the
    /// process interner ([`DictMode::Shared`] — possible only when a
    /// foreign or corrupt payload is fed to an in-process decoder).
    pub fn read_attr(&self, r: &mut WireReader<'_>) -> Result<AttrId, CodecError> {
        let wire = r.varint()?;
        match self.mode {
            DictMode::Shared => {
                if (wire as usize) < AttrId::universe_size() {
                    Ok(AttrId(wire as u32))
                } else {
                    Err(CodecError::DictMiss(wire))
                }
            }
            DictMode::Negotiated => self
                .attrs
                .get(usize::try_from(wire).map_err(|_| CodecError::DictMiss(wire))?)
                .copied()
                .ok_or(CodecError::DictMiss(wire)),
        }
    }

    /// Decodes an attribute reference and resolves its name.
    ///
    /// # Errors
    ///
    /// Fails as [`DecodeDict::read_attr`] does.
    pub fn read_name(&self, r: &mut WireReader<'_>) -> Result<&'static str, CodecError> {
        Ok(self.read_attr(r)?.name())
    }

    /// Applies a dictionary-update payload (the bytes *after* the
    /// [`KIND_DICT`] byte): each entry interns the announced name and
    /// records the wire id → attr mapping.
    ///
    /// # Errors
    ///
    /// Rejects malformed entries and non-contiguous wire ids; a failed
    /// update leaves previously learned mappings intact.
    pub fn apply_update(&mut self, payload: &[u8]) -> Result<(), CodecError> {
        let mut r = WireReader::new(payload);
        let n = r.count()?;
        for _ in 0..n {
            let wire = r.varint()?;
            let name = r.string()?;
            // The sender assigns ids densely in order; anything else is
            // a protocol violation, not a mapping to silently accept.
            if wire != self.attrs.len() as u64 {
                return Err(CodecError::Invalid("non-contiguous dictionary id"));
            }
            self.attrs.push(AttrId::intern(name));
        }
        r.expect_end()
    }
}

/// Serializes pending dictionary entries as a [`KIND_DICT`] payload.
pub fn encode_dict_update(entries: &[(u64, &str)], out: &mut Vec<u8>) {
    out.push(KIND_DICT);
    write_varint(out, entries.len() as u64);
    for (wire, name) in entries {
        write_varint(out, *wire);
        write_str(out, name);
    }
}

// ---------------------------------------------------------------------------
// The codec trait
// ---------------------------------------------------------------------------

/// Compact binary encoding of one wire type.
///
/// Implementations append to a caller-owned buffer (so per-connection
/// writers reuse one allocation across messages) and decode from a
/// [`WireReader`] without ever panicking on hostile bytes.
pub trait BinCodec: Sized {
    /// Appends this value's binary encoding to `out`.
    fn encode_bin(&self, out: &mut Vec<u8>, dict: &mut EncodeDict);

    /// Decodes one value from the reader.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] describing the first malformed byte;
    /// the reader position is unspecified after a failure.
    fn decode_bin(r: &mut WireReader<'_>, dict: &DecodeDict) -> Result<Self, CodecError>;
}

// ---------------------------------------------------------------------------
// Implementations for the event model
// ---------------------------------------------------------------------------

use bytes::Bytes;

use crate::class::ClassId;
use crate::data::EventData;
use crate::envelope::{Envelope, EventSeq};
use crate::stage::{Advertisement, StageMap};
use crate::trace_ctx::{TraceContext, TraceId};
use crate::value::AttrValue;

impl BinCodec for AttrValue {
    fn encode_bin(&self, out: &mut Vec<u8>, _dict: &mut EncodeDict) {
        match self {
            AttrValue::Int(v) => {
                out.push(0);
                write_zigzag(out, *v);
            }
            AttrValue::Float(v) => {
                out.push(1);
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            AttrValue::Str(s) => {
                out.push(2);
                write_str(out, s);
            }
            AttrValue::Bool(b) => {
                out.push(3);
                out.push(u8::from(*b));
            }
        }
    }

    fn decode_bin(r: &mut WireReader<'_>, _dict: &DecodeDict) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(AttrValue::Int(r.zigzag()?)),
            1 => {
                let f = r.f64()?;
                if f.is_nan() {
                    // `AttrValue::float` rejects NaN; the wire does too.
                    return Err(CodecError::Invalid("NaN float"));
                }
                Ok(AttrValue::Float(f))
            }
            2 => Ok(AttrValue::Str(r.string()?.to_owned())),
            3 => match r.u8()? {
                0 => Ok(AttrValue::Bool(false)),
                1 => Ok(AttrValue::Bool(true)),
                t => Err(CodecError::Tag(t)),
            },
            t => Err(CodecError::Tag(t)),
        }
    }
}

impl BinCodec for EventData {
    fn encode_bin(&self, out: &mut Vec<u8>, dict: &mut EncodeDict) {
        write_varint(out, self.len() as u64);
        for (id, value) in self.iter_ids() {
            dict.write_attr(out, id);
            value.encode_bin(out, dict);
        }
    }

    fn decode_bin(r: &mut WireReader<'_>, dict: &DecodeDict) -> Result<Self, CodecError> {
        let n = r.count()?;
        let mut data = EventData::with_capacity(n);
        for _ in 0..n {
            let id = dict.read_attr(r)?;
            let value = AttrValue::decode_bin(r, dict)?;
            data.insert_id(id, value);
        }
        Ok(data)
    }
}

impl BinCodec for TraceContext {
    fn encode_bin(&self, out: &mut Vec<u8>, _dict: &mut EncodeDict) {
        write_varint(out, self.id.0);
        write_varint(out, self.published_at);
        write_varint(out, self.last_hop_at);
    }

    fn decode_bin(r: &mut WireReader<'_>, _dict: &DecodeDict) -> Result<Self, CodecError> {
        Ok(TraceContext {
            id: TraceId(r.varint()?),
            published_at: r.varint()?,
            last_hop_at: r.varint()?,
        })
    }
}

impl BinCodec for ClassId {
    fn encode_bin(&self, out: &mut Vec<u8>, _dict: &mut EncodeDict) {
        write_varint(out, u64::from(self.0));
    }

    fn decode_bin(r: &mut WireReader<'_>, _dict: &DecodeDict) -> Result<Self, CodecError> {
        let raw = r.varint()?;
        u32::try_from(raw)
            .map(ClassId)
            .map_err(|_| CodecError::Invalid("class id exceeds u32"))
    }
}

impl BinCodec for EventSeq {
    fn encode_bin(&self, out: &mut Vec<u8>, _dict: &mut EncodeDict) {
        write_varint(out, self.0);
    }

    fn decode_bin(r: &mut WireReader<'_>, _dict: &DecodeDict) -> Result<Self, CodecError> {
        Ok(EventSeq(r.varint()?))
    }
}

impl BinCodec for StageMap {
    fn encode_bin(&self, out: &mut Vec<u8>, _dict: &mut EncodeDict) {
        write_varint(out, self.stages() as u64);
        for stage in 0..self.stages() {
            let attrs = self.attrs_at(stage);
            write_varint(out, attrs.len() as u64);
            for a in attrs {
                write_varint(out, *a as u64);
            }
        }
    }

    fn decode_bin(r: &mut WireReader<'_>, _dict: &DecodeDict) -> Result<Self, CodecError> {
        let stages = r.count()?;
        let mut sets = Vec::with_capacity(stages);
        for _ in 0..stages {
            let n = r.count()?;
            let mut attrs = Vec::with_capacity(n);
            for _ in 0..n {
                let a = r.varint()?;
                attrs.push(usize::try_from(a).map_err(|_| CodecError::Length)?);
            }
            sets.push(attrs);
        }
        StageMap::new(sets).map_err(|_| CodecError::Invalid("stage map invariants"))
    }
}

impl BinCodec for Advertisement {
    fn encode_bin(&self, out: &mut Vec<u8>, dict: &mut EncodeDict) {
        self.class.encode_bin(out, dict);
        self.stage_map.encode_bin(out, dict);
    }

    fn decode_bin(r: &mut WireReader<'_>, dict: &DecodeDict) -> Result<Self, CodecError> {
        let class = ClassId::decode_bin(r, dict)?;
        let stage_map = StageMap::decode_bin(r, dict)?;
        Ok(Advertisement::new(class, stage_map))
    }
}

impl BinCodec for Envelope {
    fn encode_bin(&self, out: &mut Vec<u8>, dict: &mut EncodeDict) {
        self.class().encode_bin(out, dict);
        // The class name goes through the dictionary like an attribute:
        // one small integer per message instead of the spelled-out name.
        dict.write_name(out, self.class_name());
        self.seq().encode_bin(out, dict);
        self.meta().encode_bin(out, dict);
        write_bytes(out, self.payload());
        match self.trace() {
            None => out.push(0),
            Some(tc) => {
                out.push(1);
                tc.encode_bin(out, dict);
            }
        }
    }

    fn decode_bin(r: &mut WireReader<'_>, dict: &DecodeDict) -> Result<Self, CodecError> {
        let class = ClassId::decode_bin(r, dict)?;
        let class_name = dict.read_name(r)?;
        let seq = EventSeq::decode_bin(r, dict)?;
        let meta = EventData::decode_bin(r, dict)?;
        let payload = Bytes::from(r.len_bytes()?.to_vec());
        let mut env = Envelope::from_parts(class, class_name, seq, meta, payload);
        match r.u8()? {
            0 => {}
            1 => env.set_trace(Some(TraceContext::decode_bin(r, dict)?)),
            t => return Err(CodecError::Tag(t)),
        }
        Ok(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_varint(v: u64) -> u64 {
        let mut buf = Vec::new();
        write_varint(&mut buf, v);
        let mut r = WireReader::new(&buf);
        let back = r.varint().unwrap();
        assert!(r.is_empty());
        back
    }

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [
            0,
            1,
            127,
            128,
            255,
            256,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(round_varint(v), v);
        }
    }

    #[test]
    fn varint_sizes_are_minimal() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_varint(&mut buf, 128);
        assert_eq!(buf.len(), 2);
        buf.clear();
        write_varint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn zigzag_round_trips_signs() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            write_zigzag(&mut buf, v);
            let mut r = WireReader::new(&buf);
            assert_eq!(r.zigzag().unwrap(), v);
        }
        // Small magnitudes of either sign stay one byte.
        let mut buf = Vec::new();
        write_zigzag(&mut buf, -5);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn truncated_varint_is_an_error_not_a_panic() {
        // A continuation bit with nothing after it.
        let mut r = WireReader::new(&[0x80]);
        assert_eq!(r.varint(), Err(CodecError::Truncated));
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // Eleven continuation bytes can never be a valid u64.
        let bytes = [0xffu8; 11];
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.varint(), Err(CodecError::Overflow));
        // Ten bytes whose top byte carries more than the final bit.
        let mut bytes = [0x80u8; 10];
        bytes[9] = 0x02;
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.varint(), Err(CodecError::Overflow));
    }

    #[test]
    fn hostile_length_cannot_allocate() {
        // Declares a 2^60-byte string with 3 bytes of input.
        let mut buf = Vec::new();
        write_varint(&mut buf, 1 << 60);
        buf.extend_from_slice(b"abc");
        let mut r = WireReader::new(&buf);
        assert_eq!(r.len_bytes(), Err(CodecError::Length));
    }

    #[test]
    fn hostile_count_cannot_allocate() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.count(), Err(CodecError::Length));
    }

    #[test]
    fn strings_reject_bad_utf8() {
        let mut buf = Vec::new();
        write_bytes(&mut buf, &[0xff, 0xfe]);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.string(), Err(CodecError::Invalid("utf-8")));
    }

    #[test]
    fn shared_dict_round_trips_interned_ids() {
        let id = AttrId::intern("codec_shared_attr");
        let mut enc = EncodeDict::new(DictMode::Shared);
        let mut buf = Vec::new();
        enc.write_attr(&mut buf, id);
        assert!(!enc.has_pending(), "shared mode never announces");
        let dec = DecodeDict::new(DictMode::Shared);
        let mut r = WireReader::new(&buf);
        assert_eq!(dec.read_attr(&mut r).unwrap(), id);
    }

    #[test]
    fn shared_dict_rejects_uninterned_ids() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::from(u32::MAX));
        let dec = DecodeDict::new(DictMode::Shared);
        let mut r = WireReader::new(&buf);
        assert!(matches!(
            dec.read_attr(&mut r),
            Err(CodecError::DictMiss(_))
        ));
    }

    #[test]
    fn negotiated_dict_announces_once_then_reuses() {
        let a = AttrId::intern("codec_neg_a");
        let b = AttrId::intern("codec_neg_b");
        let mut enc = EncodeDict::new(DictMode::Negotiated);
        let mut buf = Vec::new();
        enc.write_attr(&mut buf, a);
        enc.write_attr(&mut buf, b);
        enc.write_attr(&mut buf, a);
        let pending = enc.take_pending();
        assert_eq!(pending.len(), 2, "each name announced exactly once");
        assert!(!enc.has_pending());

        // The peer learns the mappings, then decodes the references.
        let mut update = Vec::new();
        encode_dict_update(
            &pending
                .iter()
                .map(|(w, n)| (*w, *n))
                .collect::<Vec<(u64, &str)>>(),
            &mut update,
        );
        assert_eq!(update[0], KIND_DICT);
        let mut dec = DecodeDict::new(DictMode::Negotiated);
        dec.apply_update(&update[1..]).unwrap();
        let mut r = WireReader::new(&buf);
        assert_eq!(dec.read_attr(&mut r).unwrap(), a);
        assert_eq!(dec.read_attr(&mut r).unwrap(), b);
        assert_eq!(dec.read_attr(&mut r).unwrap(), a);
    }

    #[test]
    fn negotiated_decode_without_update_is_a_dict_miss() {
        let mut enc = EncodeDict::new(DictMode::Negotiated);
        let mut buf = Vec::new();
        enc.write_attr(&mut buf, AttrId::intern("codec_neg_miss"));
        let dec = DecodeDict::new(DictMode::Negotiated);
        let mut r = WireReader::new(&buf);
        assert_eq!(dec.read_attr(&mut r), Err(CodecError::DictMiss(0)));
    }

    #[test]
    fn dict_update_rejects_gaps_and_garbage() {
        let mut dec = DecodeDict::new(DictMode::Negotiated);
        // Entry with wire id 5 into an empty dictionary: a gap.
        let mut payload = Vec::new();
        write_varint(&mut payload, 1);
        write_varint(&mut payload, 5);
        write_str(&mut payload, "x");
        assert!(dec.apply_update(&payload).is_err());
        // Truncated update: the count promises more entries than the
        // bytes present can hold.
        assert_eq!(dec.apply_update(&[0x02, 0x00]), Err(CodecError::Length));
        // An entry cut off mid-name.
        let mut cut = Vec::new();
        write_varint(&mut cut, 1);
        write_varint(&mut cut, 0);
        write_varint(&mut cut, 30);
        cut.extend_from_slice(b"short");
        assert_eq!(dec.apply_update(&cut), Err(CodecError::Length));
        // Failures leave the dictionary usable: a good update still lands.
        let mut ok = Vec::new();
        write_varint(&mut ok, 1);
        write_varint(&mut ok, 0);
        write_str(&mut ok, "codec_update_ok");
        dec.apply_update(&ok).unwrap();
        let mut refbuf = Vec::new();
        write_varint(&mut refbuf, 0);
        let mut r = WireReader::new(&refbuf);
        assert_eq!(
            dec.read_attr(&mut r).unwrap(),
            AttrId::intern("codec_update_ok")
        );
    }

    #[test]
    fn expect_end_flags_trailing_bytes() {
        let mut r = WireReader::new(&[1, 2]);
        r.u8().unwrap();
        assert_eq!(r.expect_end(), Err(CodecError::Trailing));
        r.u8().unwrap();
        assert_eq!(r.expect_end(), Ok(()));
    }

    fn round<T: BinCodec + PartialEq + std::fmt::Debug>(v: &T) {
        let mut enc = EncodeDict::new(DictMode::Shared);
        let dec = DecodeDict::new(DictMode::Shared);
        let mut buf = Vec::new();
        v.encode_bin(&mut buf, &mut enc);
        let mut r = WireReader::new(&buf);
        let back = T::decode_bin(&mut r, &dec).unwrap();
        assert_eq!(&back, v);
        r.expect_end().unwrap();
    }

    #[test]
    fn attr_values_round_trip() {
        round(&AttrValue::Int(-123_456));
        round(&AttrValue::Int(i64::MIN));
        round(&AttrValue::Float(3.25));
        round(&AttrValue::Float(f64::NEG_INFINITY));
        round(&AttrValue::Str("hello × wire".to_owned()));
        round(&AttrValue::Str(String::new()));
        round(&AttrValue::Bool(true));
        round(&AttrValue::Bool(false));
    }

    #[test]
    fn nan_floats_are_rejected_on_decode() {
        let mut buf = vec![1u8];
        buf.extend_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let dec = DecodeDict::new(DictMode::Shared);
        let mut r = WireReader::new(&buf);
        assert_eq!(
            AttrValue::decode_bin(&mut r, &dec),
            Err(CodecError::Invalid("NaN float"))
        );
    }

    #[test]
    fn event_data_round_trips() {
        let mut d = EventData::new();
        d.insert("codec_symbol", "Foo");
        d.insert("codec_price", 9.5_f64);
        d.insert("codec_volume", 32_300_i64);
        round(&d);
        round(&EventData::new());
    }

    #[test]
    fn stage_maps_and_advertisements_round_trip() {
        let sm = StageMap::from_prefixes(&[3, 2, 1]).unwrap();
        round(&sm);
        round(&Advertisement::new(ClassId(7), sm));
        // A wire stage map violating the subset invariant is rejected.
        let mut buf = Vec::new();
        for v in [2u64, 1, 0, 1, 1] {
            write_varint(&mut buf, v);
        }
        let dec = DecodeDict::new(DictMode::Shared);
        let mut r = WireReader::new(&buf);
        assert!(StageMap::decode_bin(&mut r, &dec).is_err());
    }

    #[test]
    fn envelopes_round_trip_with_payload_and_trace() {
        let mut meta = EventData::new();
        meta.insert("codec_env_attr", 42_i64);
        let mut env = Envelope::from_parts(
            ClassId(3),
            "Stock",
            EventSeq(41),
            meta,
            Bytes::from(vec![1u8, 2, 3, 4]),
        );
        round(&env);
        env.set_trace(Some(TraceContext::new(TraceId(77), 123_456)));
        round(&env);
    }

    #[test]
    fn envelope_decode_rejects_truncation_at_every_prefix() {
        let mut meta = EventData::new();
        meta.insert("codec_trunc_attr", "v");
        let env = Envelope::from_parts(
            ClassId(1),
            "Trunc",
            EventSeq(9),
            meta,
            Bytes::from(vec![7u8; 16]),
        );
        let mut enc = EncodeDict::new(DictMode::Shared);
        let dec = DecodeDict::new(DictMode::Shared);
        let mut buf = Vec::new();
        env.encode_bin(&mut buf, &mut enc);
        for cut in 0..buf.len() {
            let mut r = WireReader::new(&buf[..cut]);
            assert!(
                Envelope::decode_bin(&mut r, &dec).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }
}
