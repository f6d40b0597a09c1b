//! The per-broker durable event log: segmented, CRC-framed, with
//! batched fsync, consumer offsets, and torn-tail recovery.

use std::collections::BTreeMap;

use layercake_event::{
    encode_dict_update, encode_record, scan_records, write_bytes, write_varint, BinCodec, ClassId,
    CodecError, DecodeDict, DictMode, EncodeDict, Envelope, WireReader, RECORD_HEADER_LEN,
};
use layercake_filter::DestId;
use layercake_metrics::{DurabilityStats, PipelineStage, StageProfiler};

use super::storage::LogStorage;

/// Sizing and flush-batching knobs for a [`DurableLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogConfig {
    /// Rotate the open segment once it holds at least this many bytes.
    pub segment_bytes: usize,
    /// fsync after this many appended records (the flush interval). `1`
    /// syncs every append; larger values batch the fsync cost at the
    /// price of a longer unsynced tail lost on a crash.
    pub flush_every: usize,
}

impl Default for LogConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 64 * 1024,
            flush_every: 8,
        }
    }
}

/// One record as it lives in the log: the event plus its per-class
/// durable offset (1-based, monotone per class).
///
/// The payload is the wire codec's: a length-prefixed dictionary update,
/// the class, the offset as a varint, then the envelope. Each record
/// carries its own [`DictMode::Negotiated`] dictionary, so every name it
/// uses is spelled out inside it and a log reads back in a process whose
/// interner numbered the names differently.
struct LogRecord {
    class: ClassId,
    off: u64,
    env: Envelope,
}

impl LogRecord {
    fn encode(class: ClassId, off: u64, env: &Envelope) -> Vec<u8> {
        let mut dict = EncodeDict::new(DictMode::Negotiated);
        let mut body = Vec::new();
        class.encode_bin(&mut body, &mut dict);
        write_varint(&mut body, off);
        env.encode_bin(&mut body, &mut dict);
        let mut update = Vec::new();
        encode_dict_update(&dict.take_pending(), &mut update);
        // Skip the update's frame-kind byte: a record holds exactly one.
        // The length prefix takes its place for updates under 128 bytes.
        let mut payload = Vec::with_capacity(update.len() + body.len());
        write_bytes(&mut payload, &update[1..]);
        payload.extend_from_slice(&body);
        payload
    }

    fn decode(payload: &[u8]) -> Result<Self, CodecError> {
        let mut r = WireReader::new(payload);
        let mut dict = DecodeDict::new(DictMode::Negotiated);
        dict.apply_update(r.len_bytes()?)?;
        let class = ClassId::decode_bin(&mut r, &dict)?;
        let off = r.varint()?;
        let env = Envelope::decode_bin(&mut r, &dict)?;
        r.expect_end()?;
        Ok(LogRecord { class, off, env })
    }
}

/// In-memory index of one segment: byte size and the highest per-class
/// offset it contains (what compaction compares against consumer acks).
#[derive(Debug, Default, Clone)]
struct SegMeta {
    id: u64,
    bytes: usize,
    max_off: BTreeMap<u32, u64>,
}

/// A per-broker append-only event log with CRC-framed records, segment
/// rotation, batched fsync, and a persisted consumer-offset table.
///
/// The log is the durable replacement for the in-memory retransmit ring
/// and the `parked` buffer: every event matched for a *durable*
/// subscriber is appended (once per event), and a consumer that comes
/// back — after a detach, or after the broker itself crashed and
/// restarted with nothing but this log — replays everything past its
/// last acknowledged per-class offset. Compaction deletes sealed
/// segments once every registered consumer has acknowledged past them;
/// lease expiry deregisters consumers, so the log never outlives the
/// subscriptions that need it.
#[derive(Debug)]
pub struct DurableLog {
    storage: Box<dyn LogStorage>,
    cfg: LogConfig,
    /// Segment index, ascending by id; the last entry is the open
    /// (append) segment.
    segs: Vec<SegMeta>,
    next_seg_id: u64,
    /// Last assigned offset per class (`0` = nothing logged yet).
    tail: BTreeMap<u32, u64>,
    /// Acknowledged offset per `(dest, class)` durable consumer.
    offsets: BTreeMap<(u64, u32), u64>,
    dirty_records: usize,
    dirty_bytes: u64,
    offsets_dirty: bool,
    stats: DurabilityStats,
    /// Optional stage telemetry: every fsync batch's duration lands in
    /// the [`PipelineStage::WalFsync`] histogram. Set only by the
    /// wall-clock runtime; the simulator's logs never time syncs, so
    /// sim behavior is untouched.
    profiler: Option<std::sync::Arc<StageProfiler>>,
}

impl DurableLog {
    /// Opens (or creates) a log on `storage`, recovering from whatever a
    /// previous incarnation left: segments are scanned record by record
    /// and any torn or garbage tail is truncated to the last record with
    /// a valid CRC; the consumer-offset table is reloaded from the
    /// metadata blob.
    #[must_use]
    pub fn open(storage: Box<dyn LogStorage>, cfg: LogConfig) -> Self {
        let mut log = Self {
            storage,
            cfg,
            segs: Vec::new(),
            next_seg_id: 0,
            tail: BTreeMap::new(),
            offsets: BTreeMap::new(),
            dirty_records: 0,
            dirty_bytes: 0,
            offsets_dirty: false,
            stats: DurabilityStats::default(),
            profiler: None,
        };
        log.rescan();
        log
    }

    /// Attaches stage telemetry: from here on, every fsync batch records
    /// its wall-clock duration. Unconditional (not sampled) — syncs are
    /// batched and rare, so the timing cost is noise next to the fsync
    /// itself.
    pub fn set_stage_profiler(&mut self, profiler: std::sync::Arc<StageProfiler>) {
        self.profiler = Some(profiler);
    }

    /// The log's cumulative activity counters.
    #[must_use]
    pub fn stats(&self) -> &DurabilityStats {
        &self.stats
    }

    /// Number of live segments.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.segs.len()
    }

    /// Last assigned durable offset for a class (`0` when nothing of
    /// that class was ever logged).
    #[must_use]
    pub fn tail_off(&self, class: ClassId) -> u64 {
        self.tail.get(&class.0).copied().unwrap_or(0)
    }

    /// Appends one event, assigning and returning its per-class durable
    /// offset. Rotates the open segment when full and fsyncs every
    /// [`LogConfig::flush_every`] appends.
    pub fn append(&mut self, env: &Envelope) -> u64 {
        let class = env.class();
        let off = self.tail_off(class) + 1;
        self.tail.insert(class.0, off);
        let payload = LogRecord::encode(class, off, env);
        let rec = encode_record(&payload).expect("log record fits the frame cap");
        if self
            .segs
            .last()
            .is_some_and(|s| s.bytes > 0 && s.bytes + rec.len() > self.cfg.segment_bytes)
        {
            self.rotate();
        }
        if self.segs.is_empty() {
            let id = self.next_seg_id;
            self.next_seg_id += 1;
            self.segs.push(SegMeta {
                id,
                bytes: 0,
                max_off: BTreeMap::new(),
            });
        }
        let seg = self.segs.last_mut().expect("open segment exists");
        self.storage.append(seg.id, &rec);
        seg.bytes += rec.len();
        seg.max_off.insert(class.0, off);
        self.stats.records_appended += 1;
        self.dirty_records += 1;
        self.dirty_bytes += rec.len() as u64;
        if self.dirty_records >= self.cfg.flush_every {
            self.flush();
        }
        off
    }

    /// Makes everything appended so far durable: fsyncs the open segment
    /// (one batch) and persists the consumer-offset table if it changed.
    /// Then compacts, since newly persisted acks may free segments.
    pub fn flush(&mut self) {
        self.sync_dirty();
        if self.offsets_dirty {
            self.persist_offsets();
        }
        self.compact();
    }

    /// fsyncs any unsynced appended records (one batch). Always runs
    /// before the offset table is persisted: a persisted ack must never
    /// refer past the durable tail, or a crash in between would recover
    /// a tail below the ack and `replay_after` would skip the offsets
    /// new appends then reuse.
    fn sync_dirty(&mut self) {
        if self.dirty_records == 0 {
            return;
        }
        if let Some(seg) = self.segs.last() {
            let t0 = self
                .profiler
                .as_ref()
                .map(|p| (p, std::time::Instant::now()));
            self.storage.sync(seg.id);
            if let Some((p, t0)) = t0 {
                p.record(
                    PipelineStage::WalFsync,
                    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
                );
            }
        }
        self.stats.fsync_batches += 1;
        self.stats.bytes_fsynced += self.dirty_bytes;
        self.dirty_records = 0;
        self.dirty_bytes = 0;
    }

    /// Registers a durable consumer for a class. An unknown consumer
    /// starts at the current tail (durability covers events from
    /// subscription time onward); a known one — typically re-subscribing
    /// after a detach or a broker restart — keeps its persisted offset.
    /// Returns the offset the consumer has acknowledged, i.e. where
    /// replay should start *after*. The registration itself is persisted
    /// immediately, so a crash cannot forget a durable consumer.
    pub fn register_consumer(&mut self, dest: DestId, class: ClassId) -> u64 {
        let tail = self.tail_off(class);
        let upto = *self.offsets.entry((dest.0, class.0)).or_insert(tail);
        // The new entry points at the in-memory tail (and the table may
        // carry other consumers' unflushed acks): sync appended records
        // first so the persisted table never outruns the durable tail.
        self.sync_dirty();
        self.persist_offsets();
        upto
    }

    /// Whether any durable consumer entry exists for this destination.
    #[must_use]
    pub fn is_consumer(&self, dest: DestId) -> bool {
        self.offsets.keys().any(|&(d, _)| d == dest.0)
    }

    /// Whether any durable consumer is registered for this class (i.e.
    /// whether events of the class must be appended to the log at all).
    #[must_use]
    pub fn has_class_consumer(&self, class: ClassId) -> bool {
        self.offsets.keys().any(|&(_, c)| c == class.0)
    }

    /// Whether this destination holds a durable consumer entry for this
    /// specific class.
    #[must_use]
    pub fn is_class_consumer(&self, dest: DestId, class: ClassId) -> bool {
        self.offsets.contains_key(&(dest.0, class.0))
    }

    /// The destinations holding a durable consumer entry for `class`, in
    /// ascending id order.
    #[must_use]
    pub fn consumers_of_class(&self, class: ClassId) -> Vec<DestId> {
        self.offsets
            .keys()
            .filter(|&&(_, c)| c == class.0)
            .map(|&(d, _)| DestId(d))
            .collect()
    }

    /// The offset a consumer has acknowledged for a class (`0` when it
    /// has no entry).
    #[must_use]
    pub fn acked_upto(&self, dest: DestId, class: ClassId) -> u64 {
        self.offsets.get(&(dest.0, class.0)).copied().unwrap_or(0)
    }

    /// The classes a destination holds durable offsets for.
    #[must_use]
    pub fn consumer_classes(&self, dest: DestId) -> Vec<ClassId> {
        self.offsets
            .keys()
            .filter(|&&(d, _)| d == dest.0)
            .map(|&(_, c)| ClassId(c))
            .collect()
    }

    /// Every destination with at least one durable consumer entry.
    #[must_use]
    pub fn consumer_dests(&self) -> Vec<DestId> {
        let mut dests: Vec<DestId> = self.offsets.keys().map(|&(d, _)| DestId(d)).collect();
        dests.dedup();
        dests
    }

    /// Records a consumer's acknowledgement: everything of `class` up to
    /// and including `upto` has been received. Acks for unregistered
    /// consumers are ignored (stale, or addressed to a shard that does
    /// not own the class), and an ack is clamped to the class tail — a
    /// consumer cannot have received what was never appended, so an
    /// over-tail ack is necessarily stale (e.g. from before a crash that
    /// lost the unsynced tail) and must not skip reused offsets.
    /// Persisted at the next flush — a crash in between replays a little
    /// extra, which the subscriber's `(class, seq)` dedup absorbs.
    pub fn ack(&mut self, dest: DestId, class: ClassId, upto: u64) {
        let upto = upto.min(self.tail_off(class));
        if let Some(entry) = self.offsets.get_mut(&(dest.0, class.0)) {
            if upto > *entry {
                *entry = upto;
                self.offsets_dirty = true;
            }
        }
    }

    /// Deregisters every durable consumer entry of a destination (lease
    /// expiry or explicit unsubscription), then compacts — with its last
    /// interested consumer gone, a segment's history is garbage.
    pub fn drop_consumer(&mut self, dest: DestId) {
        let before = self.offsets.len();
        self.offsets.retain(|&(d, _), _| d != dest.0);
        if self.offsets.len() != before {
            // The surviving entries may hold acks for records not yet
            // synced; keep the sync-before-persist invariant here too.
            self.sync_dirty();
            self.persist_offsets();
            self.compact();
        }
    }

    /// Replays every logged record of `class` with offset greater than
    /// `upto`, in append order. Everything returned counts as a replay
    /// in [`DurabilityStats`]: this entry point exists for recovery and
    /// gap repair, where the caller is by definition re-reading history.
    pub fn replay_after(&mut self, class: ClassId, upto: u64) -> Vec<(u64, Envelope)> {
        let out = self.replay_window(class, upto, usize::MAX);
        self.stats.records_replayed += out.len() as u64;
        out
    }

    /// Credits `n` re-read records to [`DurabilityStats::records_replayed`].
    /// [`DurableLog::replay_window`] cannot count its own output — the
    /// broker pages *first-time* deliveries through it too (window-full
    /// backlog), and only the caller knows where replayed history ends
    /// and fresh backlog begins.
    pub fn note_replayed(&mut self, n: u64) {
        self.stats.records_replayed += n;
    }

    /// The bounded form of [`DurableLog::replay_after`]: at most `max`
    /// records, in append order. Used by the broker's in-flight window —
    /// a consumer far behind is paged out of the log one window at a
    /// time, paced by its acknowledgements, instead of having its whole
    /// backlog dumped on the wire at once. Does **not** touch the replay
    /// counter (see [`DurableLog::note_replayed`]).
    pub fn replay_window(&mut self, class: ClassId, upto: u64, max: usize) -> Vec<(u64, Envelope)> {
        let mut out = Vec::new();
        'segs: for seg in &self.segs {
            if seg.max_off.get(&class.0).copied().unwrap_or(0) <= upto {
                continue;
            }
            let bytes = self.storage.read_segment(seg.id);
            for payload in scan_records(&bytes).records {
                let Ok(rec) = LogRecord::decode(&payload) else {
                    continue;
                };
                if rec.class == class && rec.off > upto {
                    if out.len() >= max {
                        break 'segs;
                    }
                    out.push((rec.off, rec.env));
                }
            }
        }
        out
    }

    /// Simulates a process crash and restart on the same storage: every
    /// unsynced byte is lost (the simulator's page-cache model), then the
    /// log re-opens from what survived — re-scanning segments, truncating
    /// torn tails, reloading the offset table. Counters accumulate across
    /// the restart, mirroring how broker counters survive `on_restart`.
    pub fn crash_restart(&mut self) {
        self.storage.lose_unsynced();
        self.dirty_records = 0;
        self.dirty_bytes = 0;
        self.offsets_dirty = false;
        self.rescan();
    }

    /// Scans storage and rebuilds the in-memory index: per-segment sizes
    /// and per-class maxima, class tails, and the consumer-offset table.
    /// Torn or undecodable tails are truncated (and the cut fsynced) so
    /// the next append lands on a valid boundary.
    fn rescan(&mut self) {
        self.segs.clear();
        self.tail.clear();
        for id in self.storage.segment_ids() {
            let bytes = self.storage.read_segment(id);
            let scan = scan_records(&bytes);
            let mut meta = SegMeta {
                id,
                bytes: 0,
                max_off: BTreeMap::new(),
            };
            let mut valid_len = 0usize;
            let mut decode_cut = false;
            for payload in &scan.records {
                match LogRecord::decode(payload) {
                    Ok(rec) => {
                        valid_len += RECORD_HEADER_LEN + payload.len();
                        let tail = self.tail.entry(rec.class.0).or_insert(0);
                        *tail = (*tail).max(rec.off);
                        let mx = meta.max_off.entry(rec.class.0).or_insert(0);
                        *mx = (*mx).max(rec.off);
                    }
                    Err(_) => {
                        // CRC-valid but not a record we can read: written
                        // by something else. Cut here like a torn tail.
                        decode_cut = true;
                        break;
                    }
                }
            }
            if !scan.clean || decode_cut {
                self.storage.truncate(id, valid_len as u64);
                self.storage.sync(id);
                self.stats.torn_truncations += 1;
            }
            if valid_len == 0 {
                self.storage.remove_segment(id);
                continue;
            }
            meta.bytes = valid_len;
            self.segs.push(meta);
        }
        self.next_seg_id = self.segs.last().map_or(0, |s| s.id + 1);
        self.offsets = self
            .storage
            .read_meta()
            .and_then(|bytes| decode_offsets(&bytes).ok())
            .unwrap_or_default();
        // A persisted ack above the recovered tail refers to records the
        // crash took (the offset table can legitimately be newer than the
        // last record sync). Clamp it, or new appends reusing those
        // offsets would be skipped by `replay_after` forever.
        let tail = &self.tail;
        for (&(_, class), upto) in self.offsets.iter_mut() {
            let recovered = tail.get(&class).copied().unwrap_or(0);
            if *upto > recovered {
                *upto = recovered;
            }
        }
    }

    /// Seals the open segment (fsyncing its tail) and starts a new one.
    fn rotate(&mut self) {
        self.flush();
        let id = self.next_seg_id;
        self.next_seg_id += 1;
        self.segs.push(SegMeta {
            id,
            bytes: 0,
            max_off: BTreeMap::new(),
        });
        self.stats.segments_rotated += 1;
        self.compact();
    }

    /// Writes the consumer-offset table durably (atomic replace).
    fn persist_offsets(&mut self) {
        self.storage.write_meta(&encode_offsets(&self.offsets));
        self.offsets_dirty = false;
    }

    /// The lowest acknowledged offset of `class` across its registered
    /// consumers; `u64::MAX` when no consumer is registered for it (its
    /// records are wanted by nobody).
    fn min_acked(&self, class: u32) -> u64 {
        self.offsets
            .iter()
            .filter(|&(&(_, c), _)| c == class)
            .map(|(_, &upto)| upto)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Deletes every sealed segment whose records have all been
    /// acknowledged by every consumer that wants them.
    fn compact(&mut self) {
        if self.segs.len() <= 1 {
            return; // never delete the open segment
        }
        let sealed = self.segs.len() - 1;
        let mut removed = 0usize;
        for i in 0..sealed {
            let seg = &self.segs[i - removed];
            let disposable = seg
                .max_off
                .iter()
                .all(|(&class, &mx)| self.min_acked(class) >= mx);
            if disposable {
                let id = seg.id;
                self.storage.remove_segment(id);
                self.segs.remove(i - removed);
                removed += 1;
                self.stats.segments_compacted += 1;
            }
        }
    }
}

/// Encodes the consumer-offset table (the metadata blob): a count, then
/// one `(dest, class, upto)` varint triple per consumer.
fn encode_offsets(entries: &BTreeMap<(u64, u32), u64>) -> Vec<u8> {
    let mut out = Vec::new();
    write_varint(&mut out, entries.len() as u64);
    for (&(dest, class), &upto) in entries {
        write_varint(&mut out, dest);
        write_varint(&mut out, u64::from(class));
        write_varint(&mut out, upto);
    }
    out
}

fn decode_offsets(bytes: &[u8]) -> Result<BTreeMap<(u64, u32), u64>, CodecError> {
    let mut r = WireReader::new(bytes);
    let n = r.count()?;
    let mut entries = BTreeMap::new();
    for _ in 0..n {
        let dest = r.varint()?;
        let class =
            u32::try_from(r.varint()?).map_err(|_| CodecError::Invalid("class id exceeds u32"))?;
        entries.insert((dest, class), r.varint()?);
    }
    r.expect_end()?;
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::super::storage::MemStorage;
    use super::*;
    use layercake_event::{EventData, EventSeq};

    fn env(class: u32, seq: u64) -> Envelope {
        let mut meta = EventData::new();
        meta.insert("k", seq as i64);
        Envelope::from_meta(ClassId(class), "T", EventSeq(seq), meta)
    }

    fn small_log() -> DurableLog {
        DurableLog::open(
            Box::new(MemStorage::new()),
            LogConfig {
                segment_bytes: 4096,
                flush_every: 2,
            },
        )
    }

    #[test]
    fn append_assigns_monotone_per_class_offsets() {
        let mut log = small_log();
        assert_eq!(log.append(&env(0, 10)), 1);
        assert_eq!(log.append(&env(1, 11)), 1);
        assert_eq!(log.append(&env(0, 12)), 2);
        assert_eq!(log.tail_off(ClassId(0)), 2);
        assert_eq!(log.tail_off(ClassId(1)), 1);
        assert_eq!(log.stats().records_appended, 3);
    }

    #[test]
    fn flush_batches_fsyncs() {
        let mut log = small_log(); // flush_every = 2
        log.append(&env(0, 0));
        assert_eq!(log.stats().fsync_batches, 0);
        log.append(&env(0, 1));
        assert_eq!(log.stats().fsync_batches, 1);
        assert!(log.stats().bytes_fsynced > 0);
        log.append(&env(0, 2));
        log.flush();
        assert_eq!(log.stats().fsync_batches, 2);
        // An empty flush costs nothing.
        log.flush();
        assert_eq!(log.stats().fsync_batches, 2);
    }

    #[test]
    fn segments_rotate_at_the_byte_bound() {
        let mut log = DurableLog::open(
            Box::new(MemStorage::new()),
            LogConfig {
                segment_bytes: 256,
                flush_every: 1,
            },
        );
        // An unacked consumer pins every segment, so rotation is visible.
        log.register_consumer(DestId(1), ClassId(0));
        for i in 0..20 {
            log.append(&env(0, i));
        }
        assert!(log.segment_count() > 1, "20 records must span segments");
        assert!(log.stats().segments_rotated > 0);
        assert_eq!(log.stats().segments_compacted, 0);
    }

    #[test]
    fn sealed_segments_nobody_wants_are_compacted_eagerly() {
        let mut log = DurableLog::open(
            Box::new(MemStorage::new()),
            LogConfig {
                segment_bytes: 256,
                flush_every: 1,
            },
        );
        for i in 0..20 {
            log.append(&env(0, i));
        }
        assert_eq!(log.segment_count(), 1, "no consumer → no history kept");
        assert!(log.stats().segments_compacted > 0);
    }

    #[test]
    fn replay_starts_after_the_acked_offset() {
        let mut log = small_log();
        let dest = DestId(42);
        assert_eq!(log.register_consumer(dest, ClassId(0)), 0);
        for i in 0..6 {
            log.append(&env(0, 100 + i));
        }
        log.ack(dest, ClassId(0), 4);
        let replayed = log.replay_after(ClassId(0), 4);
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0].0, 5);
        assert_eq!(replayed[0].1.seq(), EventSeq(104));
        assert_eq!(replayed[1].0, 6);
        assert_eq!(log.stats().records_replayed, 2);
    }

    #[test]
    fn late_consumers_start_at_the_tail() {
        let mut log = small_log();
        log.append(&env(0, 0));
        log.append(&env(0, 1));
        let upto = log.register_consumer(DestId(7), ClassId(0));
        assert_eq!(upto, 2, "a new consumer owes nothing from the past");
        assert!(log.replay_after(ClassId(0), upto).is_empty());
    }

    #[test]
    fn offsets_survive_crash_restart_and_unsynced_tail_is_lost() {
        let mut log = small_log(); // flush_every = 2
        let dest = DestId(9);
        log.register_consumer(dest, ClassId(0));
        for i in 0..4 {
            log.append(&env(0, i));
        }
        log.ack(dest, ClassId(0), 2);
        log.flush(); // acks + 4 records durable
        log.append(&env(0, 4)); // unsynced (flush_every not reached)
        assert_eq!(log.tail_off(ClassId(0)), 5);
        log.crash_restart();
        // The unsynced fifth record is gone; the synced four and the
        // persisted ack survive.
        assert_eq!(log.tail_off(ClassId(0)), 4);
        assert!(log.is_consumer(dest));
        let acked = log.register_consumer(dest, ClassId(0));
        let replayed = log.replay_after(ClassId(0), acked);
        assert_eq!(replayed.len(), 2, "offsets 3 and 4 replay");
        assert_eq!(replayed[0].0, 3);
    }

    #[test]
    fn compaction_waits_for_acks_and_lease_expiry() {
        let mut log = DurableLog::open(
            Box::new(MemStorage::new()),
            LogConfig {
                segment_bytes: 128,
                flush_every: 1,
            },
        );
        let a = DestId(1);
        let b = DestId(2);
        log.register_consumer(a, ClassId(0));
        log.register_consumer(b, ClassId(0));
        for i in 0..12 {
            log.append(&env(0, i));
        }
        let before = log.segment_count();
        assert!(before > 2);
        // One consumer acks everything — the slower one still pins the log.
        log.ack(a, ClassId(0), 12);
        log.flush();
        assert_eq!(log.segment_count(), before);
        assert_eq!(log.stats().segments_compacted, 0);
        // The slow consumer's lease expires: its entries drop, sealed
        // segments below the remaining minimum ack go.
        log.drop_consumer(b);
        assert!(log.segment_count() < before);
        assert!(log.stats().segments_compacted > 0);
        // With no consumers at all, everything sealed is garbage.
        log.drop_consumer(a);
        assert_eq!(log.segment_count(), 1, "only the open segment remains");
    }

    #[test]
    fn acks_for_unregistered_consumers_are_ignored() {
        let mut log = small_log();
        log.append(&env(0, 0));
        log.ack(DestId(99), ClassId(0), 1);
        assert!(!log.is_consumer(DestId(99)));
    }

    #[test]
    fn register_consumer_syncs_appended_records_before_persisting_offsets() {
        let mut log = DurableLog::open(
            Box::new(MemStorage::new()),
            LogConfig {
                segment_bytes: 4096,
                flush_every: 100, // appends stay unsynced on their own
            },
        );
        log.register_consumer(DestId(1), ClassId(0));
        for i in 0..3 {
            log.append(&env(0, i));
        }
        // Registering a second consumer persists an offset equal to the
        // in-memory tail (3) — which must force those three records to
        // disk first, or a crash would recover tail 0 < ack 3 and new
        // events reusing offsets 1..=3 would never replay.
        assert_eq!(log.register_consumer(DestId(2), ClassId(0)), 3);
        log.crash_restart();
        assert_eq!(
            log.tail_off(ClassId(0)),
            3,
            "registration made the appended records durable"
        );
        assert_eq!(log.acked_upto(DestId(2), ClassId(0)), 3);
        assert!(log.replay_after(ClassId(0), 3).is_empty());
    }

    #[test]
    fn recovery_clamps_persisted_acks_to_the_recovered_tail() {
        // Two durable records, synced — then an offset table claiming a
        // consumer acknowledged offset 99 (persisted by an incarnation
        // whose later records did not survive the crash).
        let mut storage = MemStorage::new();
        {
            let mut log = DurableLog::open(
                Box::new(MemStorage::new()),
                LogConfig {
                    segment_bytes: 4096,
                    flush_every: 1,
                },
            );
            log.register_consumer(DestId(7), ClassId(0));
            log.append(&env(0, 0));
            log.append(&env(0, 1));
            storage.append(0, &log.storage.read_segment(0));
            storage.sync(0);
        }
        let table = [((7u64, 0u32), 99u64)].into_iter().collect();
        storage.write_meta(&encode_offsets(&table));
        let mut log = DurableLog::open(Box::new(storage), LogConfig::default());
        assert_eq!(
            log.acked_upto(DestId(7), ClassId(0)),
            2,
            "an ack beyond the durable tail is clamped on recovery"
        );
        // Offsets reused by new appends replay instead of being skipped.
        assert_eq!(log.append(&env(0, 5)), 3);
        assert_eq!(log.replay_after(ClassId(0), 2).len(), 1);
    }

    #[test]
    fn crc_valid_non_records_are_cut_like_a_torn_tail() {
        let mut src = small_log();
        for i in 0..3 {
            src.append(&env(0, i));
        }
        let bytes = src.storage.read_segment(0);
        let records = scan_records(&bytes).records;
        let prefix: usize = records[..2]
            .iter()
            .map(|p| RECORD_HEADER_LEN + p.len())
            .sum();
        // Two good records, a record whose CRC holds but whose payload is
        // not a log record, then a good record the cut must take too.
        let mut storage = MemStorage::new();
        storage.append(0, &bytes[..prefix]);
        storage.append(0, &encode_record(b"not a log record").unwrap());
        storage.append(0, &bytes[prefix..]);
        storage.sync(0);
        let mut log = DurableLog::open(Box::new(storage), LogConfig::default());
        assert_eq!(log.tail_off(ClassId(0)), 2);
        assert_eq!(log.stats().torn_truncations, 1);
        assert_eq!(log.storage.read_segment(0), bytes[..prefix]);
        // Appends land on the repaired boundary and replay.
        assert_eq!(log.append(&env(0, 9)), 3);
        let replayed = log.replay_after(ClassId(0), 0);
        let offs: Vec<u64> = replayed.iter().map(|(off, _)| *off).collect();
        assert_eq!(offs, vec![1, 2, 3]);
        assert_eq!(replayed[2].1.seq(), EventSeq(9));
    }

    #[test]
    fn records_spell_out_their_names_and_round_trip() {
        let mut meta = EventData::new();
        meta.insert("wal-spelled-symbol", "Foo");
        meta.insert("wal-spelled-price", 9.5);
        let mut event = Envelope::from_meta(ClassId(4), "WalSpelledClass", EventSeq(77), meta);
        event.set_trace(Some(layercake_event::TraceContext::new(
            layercake_event::TraceId(5),
            11,
        )));
        let mut log = small_log();
        assert_eq!(log.append(&event), 1);
        // Interned ids are process-local: a record must carry every name
        // it uses, or another process could not read it back.
        let bytes = log.storage.read_segment(0);
        for name in ["wal-spelled-symbol", "wal-spelled-price", "WalSpelledClass"] {
            assert!(
                bytes.windows(name.len()).any(|w| w == name.as_bytes()),
                "{name} is not spelled out in the record"
            );
        }
        let payload = &scan_records(&bytes).records[0];
        let rec = LogRecord::decode(payload).unwrap();
        assert_eq!((rec.class, rec.off), (ClassId(4), 1));
        assert_eq!(rec.env, event);
        assert_eq!(log.replay_after(ClassId(4), 0), vec![(1, event)]);
    }

    #[test]
    fn garbage_offset_tables_load_empty() {
        let table = [((7u64, 0u32), 3u64), ((8, 1), 4)].into_iter().collect();
        let good = encode_offsets(&table);
        assert_eq!(decode_offsets(&good), Ok(table));
        let truncated = &good[..good.len() - 1];
        let trailing = [good.as_slice(), &[0]].concat();
        let old_json = br#"{"consumers":[{"dest":7,"class":0,"upto":3}]}"#;
        for blob in [&b""[..], b"\xff\xff\xff", truncated, &trailing, old_json] {
            let mut storage = MemStorage::new();
            storage.write_meta(blob);
            let log = DurableLog::open(Box::new(storage), LogConfig::default());
            assert!(log.consumer_dests().is_empty(), "{blob:?} loaded a table");
        }
    }

    #[test]
    fn over_tail_acks_are_clamped() {
        let mut log = small_log();
        log.register_consumer(DestId(1), ClassId(0));
        log.append(&env(0, 0));
        // A stale subscriber cursor from before a broker crash can name
        // offsets the recovered log never assigned; taking it verbatim
        // would skip the reused offsets forever.
        log.ack(DestId(1), ClassId(0), 50);
        assert_eq!(log.acked_upto(DestId(1), ClassId(0)), 1);
    }

    #[test]
    fn replay_window_bounds_the_batch() {
        let mut log = DurableLog::open(
            Box::new(MemStorage::new()),
            LogConfig {
                segment_bytes: 256, // records span several segments
                flush_every: 1,
            },
        );
        log.register_consumer(DestId(1), ClassId(0));
        for i in 0..10 {
            log.append(&env(0, i));
        }
        let first = log.replay_window(ClassId(0), 2, 4);
        let offs: Vec<u64> = first.iter().map(|(off, _)| *off).collect();
        assert_eq!(offs, vec![3, 4, 5, 6]);
        assert_eq!(
            log.stats().records_replayed,
            0,
            "window paging is not replay; only the caller can tell"
        );
        log.note_replayed(first.len() as u64);
        assert_eq!(log.stats().records_replayed, 4);
        let rest = log.replay_window(ClassId(0), 6, usize::MAX);
        assert_eq!(rest.len(), 4);
        assert_eq!(rest[0].0, 7);
    }

    mod corruption {
        //! Property coverage for recovery: whatever happens to a stored
        //! segment — truncation at any byte, a flipped byte, random
        //! garbage appended — `open` must never panic and must recover
        //! exactly the longest prefix of CRC-valid records.
        use super::*;
        use proptest::prelude::*;

        /// Builds a synced single-segment log of `n` records and returns
        /// the raw segment bytes plus each record's end boundary.
        fn valid_segment(n: u64) -> (Vec<u8>, Vec<usize>) {
            let mut log = DurableLog::open(
                Box::new(MemStorage::new()),
                LogConfig {
                    segment_bytes: usize::MAX,
                    flush_every: 1,
                },
            );
            // A pinning consumer keeps eager compaction away.
            log.register_consumer(DestId(1), ClassId(0));
            for i in 0..n {
                log.append(&env(0, i));
            }
            let bytes = log.storage.read_segment(0);
            let mut boundaries = Vec::new();
            let mut at = 0usize;
            for payload in scan_records(&bytes).records {
                at += RECORD_HEADER_LEN + payload.len();
                boundaries.push(at);
            }
            assert_eq!(boundaries.len(), n as usize);
            assert_eq!(at, bytes.len());
            (bytes, boundaries)
        }

        /// Opens a log over one synced segment holding exactly `bytes`.
        fn reopen(bytes: &[u8]) -> DurableLog {
            let mut storage = MemStorage::new();
            if !bytes.is_empty() {
                storage.append(0, bytes);
                storage.sync(0);
            }
            DurableLog::open(Box::new(storage), LogConfig::default())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Cutting the segment at any byte recovers every record
            /// wholly inside the cut, loses the rest, and the log keeps
            /// accepting appends on the repaired boundary.
            #[test]
            fn truncation_recovers_the_longest_valid_prefix(
                n in 1u64..12,
                cut_seed in 0usize..1_000_000,
            ) {
                let (bytes, bounds) = valid_segment(n);
                let cut = cut_seed % (bytes.len() + 1);
                let survivors = bounds.iter().filter(|&&b| b <= cut).count() as u64;
                let mut log = reopen(&bytes[..cut]);
                prop_assert_eq!(log.tail_off(ClassId(0)), survivors);
                let on_boundary = cut == 0 || bounds.contains(&cut);
                prop_assert_eq!(log.stats().torn_truncations, u64::from(!on_boundary));
                // The torn tail is gone for good: appends and replay line
                // up on the recovered offset, not the pre-crash one.
                log.register_consumer(DestId(2), ClassId(0));
                prop_assert_eq!(log.append(&env(0, 999)), survivors + 1);
                let replayed = log.replay_after(ClassId(0), 0);
                prop_assert_eq!(replayed.len() as u64, survivors + 1);
            }

            /// Flipping any single byte is caught by the record CRC: the
            /// records before the flip survive, nothing after the flip is
            /// trusted, and recovery never panics.
            #[test]
            fn bit_flips_cut_the_log_at_the_damaged_record(
                n in 1u64..12,
                pos_seed in 0usize..1_000_000,
                mask in 1u8..=255,
            ) {
                let (mut bytes, bounds) = valid_segment(n);
                let pos = pos_seed % bytes.len();
                bytes[pos] ^= mask;
                let intact = bounds.iter().filter(|&&b| b <= pos).count() as u64;
                let log = reopen(&bytes);
                prop_assert_eq!(log.tail_off(ClassId(0)), intact);
                prop_assert_eq!(log.stats().torn_truncations, 1);
            }

            /// Random bytes appended after valid records (a torn write, a
            /// partial header, plausible-looking garbage) never survive a
            /// reopen and never panic it.
            #[test]
            fn garbage_tails_are_dropped(
                n in 0u64..8,
                garbage in proptest::collection::vec(any::<u8>(), 1..128),
            ) {
                let (mut bytes, _) = valid_segment(n);
                bytes.extend_from_slice(&garbage);
                let log = reopen(&bytes);
                prop_assert_eq!(log.tail_off(ClassId(0)), n);
                prop_assert_eq!(log.stats().torn_truncations, 1);
            }
        }
    }

    #[test]
    fn reopen_truncates_garbage_tail() {
        let mut storage = MemStorage::new();
        {
            let mut log = DurableLog::open(
                Box::new(MemStorage::new()),
                LogConfig {
                    segment_bytes: 4096,
                    flush_every: 1,
                },
            );
            log.append(&env(0, 0));
            log.append(&env(0, 1));
            // Copy the valid bytes into our inspectable storage, then
            // append garbage like a crashed writer would.
            storage.append(0, &log.storage.read_segment(0));
        }
        storage.append(0, &[0xDE, 0xAD, 0xBE, 0xEF, 0x01]);
        storage.sync(0);
        let log = DurableLog::open(Box::new(storage), LogConfig::default());
        assert_eq!(log.tail_off(ClassId(0)), 2);
        assert_eq!(log.stats().torn_truncations, 1);
    }
}
