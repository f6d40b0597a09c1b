//! Length-prefixed byte framing for the wall-clock wire protocol.
//!
//! The multi-threaded runtime (`layercake-rt`) exchanges serialized
//! messages between node threads as *frames*: a 4-byte little-endian
//! payload length followed by the payload bytes (here: the binary
//! encoding of an overlay message, see [`crate::codec`]). Framing is what
//! turns a byte stream into a message stream, and it is deliberately
//! dumb — no checksums, no versioning — because the payload's first byte
//! says what it is and both ends are the same binary.
//!
//! The decoder is incremental: bytes may arrive in arbitrary chunks
//! (half a header, three frames at once) and [`FrameDecoder::next_frame`]
//! yields complete payloads as they become available. Two malformed-input
//! conditions are detected and reported as typed [`FrameError`]s instead
//! of panics or silent corruption:
//!
//! * a header announcing a payload larger than [`MAX_FRAME_PAYLOAD`]
//!   (garbage bytes interpreted as a length — without the cap a single
//!   corrupt header would make the decoder wait forever for gigabytes);
//! * a stream that ends mid-frame ([`FrameDecoder::finish`] reports the
//!   truncation).
//!
//! A framing error is **terminal for the connection**: once a header is
//! corrupt there are no message boundaries left to resynchronize on, so
//! the decoder latches the error and every later call reports it again.
//! The only correct recovery is to drop the stream and establish a new
//! one with a fresh decoder.

use std::fmt;

/// Size of the frame header: a little-endian `u32` payload length.
pub const FRAME_HEADER_LEN: usize = 4;

/// Upper bound on a single frame's payload, in bytes. Larger lengths in
/// a header are treated as corruption ([`FrameError::Oversized`]); the
/// bound is far above any overlay message this workspace produces.
pub const MAX_FRAME_PAYLOAD: usize = 16 * 1024 * 1024;

/// A framing-layer failure (distinct from payload deserialization
/// failures, which the payload codec reports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A frame header announced a payload beyond [`MAX_FRAME_PAYLOAD`] —
    /// either a genuinely oversized message or garbage bytes read as a
    /// length.
    Oversized {
        /// The announced payload length.
        len: usize,
        /// The configured maximum.
        max: usize,
    },
    /// The stream ended in the middle of a frame (header or payload).
    Truncated {
        /// Bytes still buffered when the stream ended.
        have: usize,
        /// Bytes the current frame needs in total (header + payload), or
        /// [`FRAME_HEADER_LEN`] if the header itself is incomplete.
        need: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversized { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Truncated { have, need } => {
                write!(f, "stream ended mid-frame: have {have} bytes, need {need}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes one payload as a length-prefixed frame.
///
/// # Errors
///
/// Returns [`FrameError::Oversized`] when the payload exceeds
/// [`MAX_FRAME_PAYLOAD`] — the same bound the decoder enforces, so an
/// encodable frame is always decodable.
pub fn encode_frame(payload: &[u8]) -> Result<Vec<u8>, FrameError> {
    if payload.len() > MAX_FRAME_PAYLOAD {
        return Err(FrameError::Oversized {
            len: payload.len(),
            max: MAX_FRAME_PAYLOAD,
        });
    }
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    // The cap guarantees the length fits in u32.
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Incremental decoder turning an arbitrary chunking of frame bytes back
/// into complete payloads.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by returned frames; compacted
    /// lazily so pushing and popping stay amortized O(bytes).
    read: usize,
    /// The first framing error seen, latched: corrupt framing has no
    /// boundaries to resync on, so the error is terminal for the stream.
    poisoned: Option<FrameError>,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends received bytes to the decode buffer.
    ///
    /// Once the decoder is poisoned the bytes are discarded: nothing
    /// after a corrupt header can be framed, so buffering it would only
    /// grow memory on a connection that must be dropped anyway.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.poisoned.is_some() {
            return;
        }
        // Compact once the dead prefix dominates, so the buffer does not
        // grow with the total stream length.
        if self.read > 0 && self.read >= self.buf.len() / 2 {
            self.buf.drain(..self.read);
            self.read = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Whether the decoder has latched a framing error. A poisoned
    /// decoder never yields another frame; the connection it was reading
    /// must be dropped.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Bytes buffered but not yet returned as a frame.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.read
    }

    /// Extracts the next complete frame payload, if one is buffered.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError::Oversized`] when the next header announces a
    /// payload beyond [`MAX_FRAME_PAYLOAD`]. The error is **terminal**:
    /// the decoder latches it, every subsequent `next_frame`/`finish`
    /// call returns it again, and later `push`es are discarded —
    /// resynchronizing inside corrupt framing is not possible without
    /// message boundaries, so the connection must be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        let avail = &self.buf[self.read..];
        if avail.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len > MAX_FRAME_PAYLOAD {
            let err = FrameError::Oversized {
                len,
                max: MAX_FRAME_PAYLOAD,
            };
            self.poisoned = Some(err.clone());
            // Drop the unusable tail: a poisoned decoder never reads it.
            self.buf.clear();
            self.read = 0;
            return Err(err);
        }
        if avail.len() < FRAME_HEADER_LEN + len {
            return Ok(None);
        }
        let start = self.read + FRAME_HEADER_LEN;
        let payload = self.buf[start..start + len].to_vec();
        self.read = start + len;
        Ok(Some(payload))
    }

    /// Declares the stream finished: any buffered partial frame is a
    /// truncation.
    ///
    /// # Errors
    ///
    /// Returns the latched framing error if the decoder is poisoned,
    /// otherwise [`FrameError::Truncated`] when bytes of an incomplete
    /// frame remain buffered.
    pub fn finish(&self) -> Result<(), FrameError> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        let avail = &self.buf[self.read..];
        if avail.is_empty() {
            return Ok(());
        }
        let need = if avail.len() < FRAME_HEADER_LEN {
            FRAME_HEADER_LEN
        } else {
            let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
            FRAME_HEADER_LEN + len
        };
        Err(FrameError::Truncated {
            have: avail.len(),
            need,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_frame_round_trips() {
        let frame = encode_frame(b"hello").unwrap();
        assert_eq!(frame.len(), FRAME_HEADER_LEN + 5);
        let mut dec = FrameDecoder::new();
        dec.push(&frame);
        assert_eq!(dec.next_frame().unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(dec.next_frame().unwrap(), None);
        dec.finish().unwrap();
    }

    #[test]
    fn empty_payload_is_a_valid_frame() {
        let frame = encode_frame(b"").unwrap();
        let mut dec = FrameDecoder::new();
        dec.push(&frame);
        assert_eq!(dec.next_frame().unwrap().as_deref(), Some(&b""[..]));
        dec.finish().unwrap();
    }

    #[test]
    fn arbitrary_chunking_reassembles() {
        let mut stream = Vec::new();
        let payloads: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; i as usize * 7]).collect();
        for p in &payloads {
            stream.extend_from_slice(&encode_frame(p).unwrap());
        }
        // Feed one byte at a time — the worst chunking.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in stream {
            dec.push(&[b]);
            while let Some(p) = dec.next_frame().unwrap() {
                got.push(p);
            }
        }
        assert_eq!(got, payloads);
        dec.finish().unwrap();
    }

    #[test]
    fn truncated_payload_is_reported_on_finish() {
        let frame = encode_frame(&[7u8; 100]).unwrap();
        let mut dec = FrameDecoder::new();
        dec.push(&frame[..50]);
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(
            dec.finish(),
            Err(FrameError::Truncated {
                have: 50,
                need: FRAME_HEADER_LEN + 100,
            })
        );
    }

    #[test]
    fn truncated_header_is_reported_on_finish() {
        let mut dec = FrameDecoder::new();
        dec.push(&[1, 0]);
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(
            dec.finish(),
            Err(FrameError::Truncated {
                have: 2,
                need: FRAME_HEADER_LEN,
            })
        );
    }

    #[test]
    fn garbage_length_is_an_oversized_error() {
        let mut dec = FrameDecoder::new();
        dec.push(&u32::MAX.to_le_bytes());
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::Oversized {
                len: u32::MAX as usize,
                max: MAX_FRAME_PAYLOAD,
            })
        );
    }

    #[test]
    fn framing_error_is_terminal_for_the_stream() {
        let mut dec = FrameDecoder::new();
        // A good frame followed by a corrupt header followed by another
        // good frame: only the first frame may come out.
        dec.push(&encode_frame(b"before").unwrap());
        dec.push(&u32::MAX.to_le_bytes());
        dec.push(&encode_frame(b"after").unwrap());
        assert_eq!(dec.next_frame().unwrap().as_deref(), Some(&b"before"[..]));
        let err = dec.next_frame().unwrap_err();
        assert!(matches!(err, FrameError::Oversized { .. }));
        assert!(dec.is_poisoned());
        // The error is latched: re-polling re-errors, it never resyncs
        // onto the valid frame that followed the garbage.
        assert_eq!(dec.next_frame(), Err(err.clone()));
        assert_eq!(dec.finish(), Err(err.clone()));
        // Later pushes are discarded rather than buffered.
        dec.push(&encode_frame(b"late").unwrap());
        assert_eq!(dec.pending(), 0);
        assert_eq!(dec.next_frame(), Err(err));
    }

    #[test]
    fn oversized_payload_is_rejected_at_encode_time() {
        let big = vec![0u8; MAX_FRAME_PAYLOAD + 1];
        assert!(matches!(
            encode_frame(&big),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn long_streams_do_not_grow_the_buffer() {
        let frame = encode_frame(&[42u8; 64]).unwrap();
        let mut dec = FrameDecoder::new();
        for _ in 0..10_000 {
            dec.push(&frame);
            assert!(dec.next_frame().unwrap().is_some());
        }
        // Compaction keeps the buffer near one frame, not 10k frames.
        assert!(dec.buf.capacity() < 16 * frame.len());
        dec.finish().unwrap();
    }

    #[test]
    fn errors_display_actionably() {
        let e = FrameError::Oversized { len: 99, max: 10 };
        assert!(e.to_string().contains("99"));
        let t = FrameError::Truncated { have: 1, need: 4 };
        assert!(t.to_string().contains("mid-frame"));
    }
}
