//! Event envelopes: what travels through the broker overlay.

use std::sync::Arc;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::class::ClassId;
use crate::data::EventData;
use crate::error::EventError;
use crate::trace_ctx::TraceContext;
use crate::typed::TypedEvent;

/// Monotonic sequence number identifying a published event instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EventSeq(pub u64);

/// The immutable, structurally shared part of an [`Envelope`]: everything
/// that is identical across every copy of one published event.
///
/// Fan-out to N downstreams, the reliability retransmission ring, and
/// flow-control egress queues all hold `Arc` references to one body; the
/// only per-copy state lives in the envelope header ([`Envelope::trace`]).
/// Nothing may mutate a body after construction — there is deliberately no
/// `&mut` accessor.
#[derive(Debug, PartialEq)]
struct EnvelopeBody {
    class: ClassId,
    class_name: String,
    seq: EventSeq,
    meta: EventData,
    payload: Bytes,
}

/// A published event as seen by the broker network.
///
/// An envelope carries two representations of the same event, realizing the
/// paper's end-to-end safety argument (Section 3.4):
///
/// * [`meta`](Envelope::meta) — the extracted name/value meta-data (the
///   covering event `e'`), which is all intermediate brokers ever inspect;
/// * [`payload`](Envelope::payload) — the serialized, *opaque* event object,
///   decoded back into the application type only at the subscriber runtime.
///
/// Brokers never deserialize the payload, so encapsulation is preserved and
/// per-hop filtering cost is independent of the richness of the event type.
///
/// # Sharing contract
///
/// An envelope is a cheap header (the tracing context) plus an immutable,
/// reference-counted body (class, sequence, meta-data, payload). `clone()`
/// bumps a reference count — its cost is independent of meta and payload
/// size — so per-downstream fan-out copies, retransmission-ring entries and
/// queued envelopes all share one body. The body is never mutated after
/// construction; the tracing context is the only per-copy mutable state
/// ([`Envelope::set_trace`] / [`Envelope::touch_trace`]), which is how each
/// hop re-stamps `last_hop_at` on its own copy without disturbing siblings.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    body: Arc<EnvelopeBody>,
    /// Sampled-tracing context; `None` (the default) for the unsampled
    /// majority of events, which therefore pay nothing for observability.
    trace: Option<TraceContext>,
}

// Compile-time audit that envelopes can cross threads: the wall-clock
// runtime (`layercake-rt`) fans one `Arc<EnvelopeBody>` out to matcher
// shards running on different OS threads, which is only sound while both
// the header and the shared body are `Send + Sync`. A field that loses
// the bound (say, an `Rc` or a `Cell` slipping into `EventData`) must
// fail the build here, not deadlock or data-race at runtime.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = {
    _assert_send_sync::<Envelope>();
    _assert_send_sync::<EnvelopeBody>();
};

impl Envelope {
    fn from_body(body: EnvelopeBody) -> Self {
        Self {
            body: Arc::new(body),
            trace: None,
        }
    }

    /// Encodes a typed event for publication: extracts its meta-data and
    /// serializes the object for opaque transport.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::PayloadEncode`] if serialization fails.
    pub fn encode<E: TypedEvent>(
        class: ClassId,
        seq: EventSeq,
        event: &E,
    ) -> Result<Self, EventError> {
        let payload =
            serde_json::to_vec(event).map_err(|e| EventError::PayloadEncode(e.to_string()))?;
        Ok(Self::from_body(EnvelopeBody {
            class,
            class_name: E::CLASS_NAME.to_owned(),
            seq,
            meta: event.extract(),
            payload: Bytes::from(payload),
        }))
    }

    /// Creates an envelope from bare meta-data, with an empty payload.
    ///
    /// This supports simulation workloads that model only the routing layer
    /// (the paper's Section 5 setup publishes name/value "dummy" events).
    #[must_use]
    pub fn from_meta(
        class: ClassId,
        class_name: impl Into<String>,
        seq: EventSeq,
        meta: EventData,
    ) -> Self {
        Self::from_body(EnvelopeBody {
            class,
            class_name: class_name.into(),
            seq,
            meta,
            payload: Bytes::new(),
        })
    }

    /// Creates an envelope from explicit parts, including an opaque
    /// payload. Benchmarks and gateways that re-wrap foreign encodings use
    /// this; typed publication goes through [`Envelope::encode`].
    #[must_use]
    pub fn from_parts(
        class: ClassId,
        class_name: impl Into<String>,
        seq: EventSeq,
        meta: EventData,
        payload: Bytes,
    ) -> Self {
        Self::from_body(EnvelopeBody {
            class,
            class_name: class_name.into(),
            seq,
            meta,
            payload,
        })
    }

    /// Decodes the encapsulated payload into a typed event.
    ///
    /// Decoding into a *supertype* of the published class is allowed (the
    /// extra attributes of the subtype are ignored), which is how
    /// polymorphic, type-based subscriptions deliver subclass events.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::PayloadDecode`] if the payload is empty or not
    /// a valid encoding of `E`.
    pub fn decode<E: TypedEvent>(&self) -> Result<E, EventError> {
        if self.body.payload.is_empty() {
            return Err(EventError::PayloadDecode(format!(
                "event {} of class {:?} carries no payload",
                self.body.seq.0, self.body.class_name
            )));
        }
        serde_json::from_slice(&self.body.payload)
            .map_err(|e| EventError::PayloadDecode(e.to_string()))
    }

    /// The event class id.
    #[must_use]
    pub fn class(&self) -> ClassId {
        self.body.class
    }

    /// The event class name.
    #[must_use]
    pub fn class_name(&self) -> &str {
        &self.body.class_name
    }

    /// The publisher-assigned sequence number.
    #[must_use]
    pub fn seq(&self) -> EventSeq {
        self.body.seq
    }

    /// The routing meta-data (covering event).
    #[must_use]
    pub fn meta(&self) -> &EventData {
        &self.body.meta
    }

    /// The opaque serialized event object.
    #[must_use]
    pub fn payload(&self) -> &Bytes {
        &self.body.payload
    }

    /// Whether two envelopes share one body allocation (true for clones of
    /// the same published event). Used by tests and benchmarks to verify
    /// the zero-copy fan-out contract.
    #[must_use]
    pub fn shares_body_with(&self, other: &Envelope) -> bool {
        Arc::ptr_eq(&self.body, &other.body)
    }

    /// The sampled-tracing context, if this event was selected for tracing.
    #[must_use]
    pub fn trace(&self) -> Option<TraceContext> {
        self.trace
    }

    /// Attaches (or clears) the tracing context. Called once at publish
    /// time by the tracing layer; `None` is the untraced default. Per-copy:
    /// clones made afterwards inherit the context, siblings do not change.
    pub fn set_trace(&mut self, trace: Option<TraceContext>) {
        self.trace = trace;
    }

    /// Re-stamps the context's `last_hop_at` before this copy is forwarded
    /// to the next hop. A no-op on untraced envelopes. Only this copy's
    /// header changes; the shared body is untouched.
    pub fn touch_trace(&mut self, now_ticks: u64) {
        if let Some(t) = &mut self.trace {
            t.last_hop_at = now_ticks;
        }
    }

    /// Approximate wire size in bytes (meta names/values + payload), used by
    /// bandwidth accounting in the simulator.
    #[must_use]
    pub fn wire_size(&self) -> usize {
        let meta: usize = self
            .body
            .meta
            .iter()
            .map(|(n, v)| n.len() + std::mem::size_of_val(v))
            .sum();
        meta + self.body.payload.len() + self.body.class_name.len() + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typed_event;
    use crate::value::AttrValue;

    typed_event! {
        pub struct Stock: "Stock" {
            symbol: String,
            price: f64,
        }
    }

    #[test]
    fn encode_extracts_meta_and_payload() {
        let s = Stock::new("Foo".to_owned(), 9.0);
        let env = Envelope::encode(ClassId(1), EventSeq(7), &s).unwrap();
        assert_eq!(env.class(), ClassId(1));
        assert_eq!(env.class_name(), "Stock");
        assert_eq!(env.seq(), EventSeq(7));
        assert_eq!(env.meta().get("symbol"), Some(&AttrValue::from("Foo")));
        assert!(!env.payload().is_empty());
        assert!(env.wire_size() > env.payload().len());
    }

    #[test]
    fn decode_round_trip() {
        let s = Stock::new("Bar".to_owned(), 15.0);
        let env = Envelope::encode(ClassId(0), EventSeq(0), &s).unwrap();
        let back: Stock = env.decode().unwrap();
        assert_eq!(back, s);
        assert_eq!(back.symbol(), "Bar");
        assert_eq!(*back.price(), 15.0);
    }

    #[test]
    fn meta_only_envelope_has_no_payload() {
        let meta = crate::event_data! { "year" => 2002 };
        let env = Envelope::from_meta(ClassId(3), "Biblio", EventSeq(1), meta);
        assert!(env.payload().is_empty());
        let err = env.decode::<Stock>().unwrap_err();
        assert!(matches!(err, EventError::PayloadDecode(_)));
    }

    #[test]
    fn decode_type_mismatch_reports_error() {
        typed_event! {
            pub struct Strict: "Strict" {
                mandatory: i64,
            }
        }
        assert_eq!(*Strict::new(3).mandatory(), 3);
        let s = Stock::new("Foo".to_owned(), 1.0);
        let env = Envelope::encode(ClassId(0), EventSeq(0), &s).unwrap();
        // `Strict` requires a field the Stock payload lacks.
        assert!(env.decode::<Strict>().is_err());
    }

    #[test]
    fn clones_share_one_body() {
        let meta = crate::event_data! { "year" => 2002 };
        let env = Envelope::from_meta(ClassId(3), "Biblio", EventSeq(1), meta);
        let copy = env.clone();
        assert!(env.shares_body_with(&copy));
        // Distinct publishes do not share.
        let other = Envelope::from_meta(ClassId(3), "Biblio", EventSeq(2), EventData::new());
        assert!(!env.shares_body_with(&other));
    }

    #[test]
    fn trace_stamping_is_per_copy() {
        use crate::trace_ctx::{TraceContext, TraceId};
        let meta = crate::event_data! { "year" => 2002 };
        let mut env = Envelope::from_meta(ClassId(3), "Biblio", EventSeq(1), meta);
        env.set_trace(Some(TraceContext::new(TraceId(5), 7)));
        let mut fwd = env.clone();
        fwd.touch_trace(42);
        // The forwarded copy re-stamped its own header; the original copy
        // and the shared body are untouched.
        assert_eq!(fwd.trace().unwrap().last_hop_at, 42);
        assert_eq!(env.trace().unwrap().last_hop_at, 7);
        assert!(env.shares_body_with(&fwd));
    }

    #[test]
    fn trace_context_stamping() {
        use crate::trace_ctx::{TraceContext, TraceId};
        let meta = crate::event_data! { "year" => 2002 };
        let mut env = Envelope::from_meta(ClassId(3), "Biblio", EventSeq(1), meta);
        assert_eq!(env.trace(), None);
        // touch_trace on an untraced envelope is a no-op.
        env.touch_trace(10);
        assert_eq!(env.trace(), None);
        env.set_trace(Some(TraceContext::new(TraceId(5), 7)));
        env.touch_trace(12);
        let ctx = env.trace().unwrap();
        assert_eq!(ctx.id, TraceId(5));
        assert_eq!(ctx.published_at, 7);
        assert_eq!(ctx.last_hop_at, 12);
    }
}
