//! Wire-protocol round-trip properties: every [`OverlayMsg`] must survive
//! encode → frame → deframe → decode with **byte-identical** re-encoding, because the wall-clock runtime pays this cycle on every
//! hop and the simulator's virtual-time behavior must stay the reference.
//! Also exercises the framing error paths (truncated streams, garbage
//! length prefixes) the runtime relies on to reject corrupt peers.

use layercake_event::{
    encode_frame, Advertisement, BinCodec, ClassId, CodecError, DecodeDict, DictMode, EncodeDict,
    Envelope, EventData, EventSeq, FrameDecoder, FrameError, StageMap, TraceContext, TraceId,
    WireReader,
};
use layercake_filter::{Filter, FilterId};
use layercake_overlay::{OverlayMsg, SubscriptionReq};
use layercake_sim::ActorId;
use proptest::prelude::*;

/// The binary payload of one message, in the in-process (shared
/// dictionary) mode the runtime's channel links use.
fn encode(msg: &OverlayMsg) -> Vec<u8> {
    let mut bytes = Vec::new();
    msg.encode_bin(&mut bytes, &mut EncodeDict::new(DictMode::Shared));
    bytes
}

/// Decodes one whole payload; trailing bytes are an error.
fn decode(payload: &[u8]) -> Result<OverlayMsg, CodecError> {
    let mut r = WireReader::new(payload);
    let msg = OverlayMsg::decode_bin(&mut r, &DecodeDict::new(DictMode::Shared))?;
    r.expect_end()?;
    Ok(msg)
}

/// Encode → frame → deframe → decode, asserting the decoded value equals
/// the original and re-encodes to the exact same bytes.
fn round_trip(msg: &OverlayMsg) -> OverlayMsg {
    let bytes = encode(msg);
    let framed = encode_frame(&bytes).expect("frame");
    let mut dec = FrameDecoder::new();
    dec.push(&framed);
    let payload = dec
        .next_frame()
        .expect("well-formed frame")
        .expect("complete frame");
    assert_eq!(payload, bytes, "framing must not alter the payload");
    assert!(dec.next_frame().expect("no trailing error").is_none());
    dec.finish().expect("no partial frame left behind");
    let back = decode(&payload).expect("decode");
    let re = encode(&back);
    assert_eq!(bytes, re, "re-encode of {msg:?} is not byte-identical");
    back
}

fn arb_actor() -> impl Strategy<Value = ActorId> {
    prop_oneof![any::<usize>().prop_map(ActorId), Just(ActorId(usize::MAX))]
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    (
        proptest::option::of(0u32..8),
        proptest::collection::vec((0usize..4, -1000i64..1000), 0..4),
    )
        .prop_map(|(class, constraints)| {
            let mut f = match class {
                Some(c) => Filter::for_class(ClassId(c)),
                None => Filter::any(),
            };
            for (attr, val) in constraints {
                f = match attr {
                    0 => f.eq("wire-attr-a", val),
                    1 => f.le("wire-attr-b", val as f64),
                    2 => f.prefix("wire-attr-c", format!("p{val}")),
                    _ => f.exists("wire-attr-d"),
                };
            }
            f
        })
}

fn arb_envelope() -> impl Strategy<Value = Envelope> {
    (
        0u32..8,
        any::<u64>(),
        proptest::collection::vec((0usize..3, -1000i64..1000), 0..5),
        proptest::option::of((any::<u64>(), any::<u64>())),
    )
        .prop_map(|(class, seq, attrs, trace)| {
            let mut meta = EventData::new();
            for (i, (kind, val)) in attrs.into_iter().enumerate() {
                match kind {
                    0 => meta.insert(format!("wire-meta-{i}"), val),
                    1 => meta.insert(format!("wire-meta-{i}"), val as f64 / 4.0),
                    _ => meta.insert(format!("wire-meta-{i}"), format!("s{val}")),
                };
            }
            let mut env = Envelope::from_meta(ClassId(class), "WireTest", EventSeq(seq), meta);
            if let Some((id, at)) = trace {
                env.set_trace(Some(TraceContext::new(TraceId(id), at)));
            }
            env
        })
}

fn arb_req() -> impl Strategy<Value = SubscriptionReq> {
    (any::<u64>(), arb_filter(), arb_actor(), any::<bool>()).prop_map(
        |(id, filter, subscriber, durable)| SubscriptionReq {
            id: FilterId(id),
            filter,
            subscriber,
            durable,
        },
    )
}

/// A strategy covering every `OverlayMsg` variant with randomized payloads.
fn arb_msg() -> impl Strategy<Value = OverlayMsg> {
    prop_oneof![
        (0u32..8, 1usize..4).prop_map(|(c, stages)| {
            let prefixes: Vec<usize> = (1..=stages).rev().collect();
            OverlayMsg::Advertise(Advertisement::new(
                ClassId(c),
                StageMap::from_prefixes(&prefixes).expect("non-increasing prefixes"),
            ))
        }),
        arb_req().prop_map(OverlayMsg::Subscribe),
        (arb_req(), arb_actor()).prop_map(|(req, node)| OverlayMsg::JoinAt { req, node }),
        (any::<u64>(), arb_actor()).prop_map(|(id, node)| OverlayMsg::AcceptedAt {
            id: FilterId(id),
            node
        }),
        (arb_filter(), arb_actor())
            .prop_map(|(filter, child)| OverlayMsg::ReqInsert { filter, child }),
        arb_envelope().prop_map(OverlayMsg::Publish),
        arb_envelope().prop_map(OverlayMsg::Deliver),
        Just(OverlayMsg::Renew),
        (arb_filter(), arb_actor())
            .prop_map(|(filter, subscriber)| OverlayMsg::Unsubscribe { filter, subscriber }),
        (arb_filter(), arb_actor())
            .prop_map(|(filter, child)| OverlayMsg::ReqRemove { filter, child }),
        arb_actor().prop_map(|subscriber| OverlayMsg::Detach { subscriber }),
        arb_actor().prop_map(|subscriber| OverlayMsg::Attach { subscriber }),
        (any::<u64>(), arb_envelope())
            .prop_map(|(link_seq, env)| OverlayMsg::Sequenced { link_seq, env }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(from_seq, to_seq)| OverlayMsg::Nack { from_seq, to_seq }),
        any::<u64>().prop_map(|to| OverlayMsg::Advance { to }),
        Just(OverlayMsg::RenewAck),
        Just(OverlayMsg::Rejoin),
        Just(OverlayMsg::Reannounce),
        Just(OverlayMsg::Credit),
        any::<u64>().prop_map(|consumed_total| OverlayMsg::CreditGrant { consumed_total }),
        (any::<u64>(), arb_envelope()).prop_map(|(off, env)| OverlayMsg::Durable { off, env }),
        (0u32..8, any::<u64>()).prop_map(|(class, upto)| OverlayMsg::AckUpto {
            class: ClassId(class),
            upto
        }),
        (0u32..8, any::<u64>()).prop_map(|(class, base)| OverlayMsg::DurableBase {
            class: ClassId(class),
            base
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every message value round-trips through the framed wire byte-identically.
    #[test]
    fn framed_round_trip_is_byte_identical(msg in arb_msg()) {
        let back = round_trip(&msg);
        prop_assert_eq!(back, msg);
    }

    /// A stream of many frames decodes to the same messages in order even
    /// when delivered in arbitrary chunk sizes (TCP-style re-segmentation).
    #[test]
    fn chunked_streams_preserve_message_order(
        msgs in proptest::collection::vec(arb_msg(), 1..8),
        chunk in 1usize..64,
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_frame(&encode(m)).unwrap());
        }
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.push(piece);
            while let Some(frame) = dec.next_frame().unwrap() {
                out.push(decode(&frame).unwrap());
            }
        }
        dec.finish().unwrap();
        prop_assert_eq!(out, msgs);
    }

    /// Cutting a framed message anywhere strictly inside it leaves the
    /// decoder reporting a truncated stream, never a phantom frame.
    #[test]
    fn truncated_frames_are_detected(msg in arb_msg(), cut_seed in 0usize..1_000_000) {
        let framed = encode_frame(&encode(&msg)).unwrap();
        let cut = 1 + cut_seed % (framed.len() - 1); // 1..framed.len()
        let mut dec = FrameDecoder::new();
        dec.push(&framed[..cut]);
        prop_assert!(dec.next_frame().unwrap().is_none(), "partial frame must not decode");
        let err = dec.finish().expect_err("truncation must be reported");
        prop_assert!(matches!(err, FrameError::Truncated { .. }), "{err}");
    }

    /// Garbage length prefixes beyond the frame-size cap are rejected
    /// instead of driving a huge allocation.
    #[test]
    fn garbage_length_prefixes_are_rejected(len in 0x0100_0001u32..=u32::MAX) {
        let mut dec = FrameDecoder::new();
        dec.push(&len.to_le_bytes());
        let err = dec.next_frame().expect_err("oversized length must error");
        prop_assert!(matches!(err, FrameError::Oversized { .. }), "{err}");
    }

    /// A framing error is terminal: after a corrupt header the decoder
    /// keeps reporting the same error and never "resynchronizes" onto
    /// valid-looking frames that follow — there are no boundaries left
    /// to trust. (Regression: the decoder used to clear its state and
    /// decode phantom frames out of the corrupt tail.)
    #[test]
    fn framing_errors_poison_the_stream(
        msg in arb_msg(),
        after in arb_msg(),
        len in 0x0100_0001u32..=u32::MAX,
    ) {
        let mut dec = FrameDecoder::new();
        dec.push(&encode_frame(&encode(&msg)).unwrap());
        dec.push(&len.to_le_bytes());
        dec.push(&encode_frame(&encode(&after)).unwrap());
        // The frame before the corruption still comes out.
        prop_assert!(dec.next_frame().unwrap().is_some());
        let err = dec.next_frame().expect_err("corrupt header must error");
        prop_assert!(dec.is_poisoned());
        // Latched: every later poll re-reports, nothing ever decodes.
        prop_assert_eq!(dec.next_frame().expect_err("stays poisoned"), err.clone());
        prop_assert_eq!(dec.finish().expect_err("finish reports it too"), err);
        prop_assert_eq!(dec.pending(), 0, "poisoned tail must be discarded");
    }
}

/// Garbage *payload* bytes inside a well-formed frame fail in the codec
/// with a typed error, not a panic.
#[test]
fn garbage_payloads_fail_cleanly() {
    let renew = encode(&OverlayMsg::Renew);
    let with_trailing = [renew.as_slice(), &[0]].concat();
    let cases: [(&[u8], CodecError); 4] = [
        (b"\xff\xfe\x00", CodecError::Tag(0xff)),
        (b"", CodecError::Truncated),
        (&[5], CodecError::Truncated), // a Publish tag with no envelope
        (&with_trailing, CodecError::Trailing),
    ];
    for (payload, want) in cases {
        let framed = encode_frame(payload).unwrap();
        let mut dec = FrameDecoder::new();
        dec.push(&framed);
        let got = dec.next_frame().unwrap().unwrap();
        assert_eq!(got, payload);
        assert_eq!(decode(&got), Err(want));
    }
}
