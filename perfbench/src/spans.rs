//! In-memory spans for the traced run, written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// At most this many spans are kept for the file (about 5 MB of JSON
/// lines per traced run); durations are kept for every span regardless,
/// so the metrics never depend on the cap.
const MAX_SPANS: usize = 50_000;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    seq: Option<u64>,
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
    durations: BTreeMap<&'static str, Vec<u64>>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(MAX_SPANS),
            dropped: 0,
            durations: BTreeMap::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records one finished span and returns its id (usable as a parent).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        seq: Option<u64>,
    ) -> u32 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.durations
            .entry(name)
            .or_default()
            .push(end_ns - start_ns);
        if self.spans.len() < MAX_SPANS {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                seq,
            });
        } else {
            self.dropped += 1;
        }
        u32::try_from(self.spans.len()).unwrap_or(u32::MAX) - 1
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        seq: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let a = Instant::now();
        let r = f();
        self.record(name, a, Instant::now(), parent, seq);
        r
    }

    /// Median duration of the spans named `name`, in ns (0 without any).
    pub fn median_ns(&self, name: &str) -> f64 {
        let Some(d) = self.durations.get(name) else {
            return 0.0;
        };
        let mut v: Vec<f64> = d.iter().map(|&x| x as f64).collect();
        v.sort_by(f64::total_cmp);
        crate::quantile(&v, 0.5)
    }

    /// Mean duration of the spans named `name`, in ns (0 without any).
    pub fn mean_ns(&self, name: &str) -> f64 {
        match self.durations.get(name) {
            Some(d) if !d.is_empty() => d.iter().sum::<u64>() as f64 / d.len() as f64,
            _ => 0.0,
        }
    }

    /// Writes the kept spans as JSON lines (`name`, `start_ns`, `end_ns`,
    /// `parent`, `seq`), plus one summary line per span name.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_owned(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"seq\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(u64::from)),
                opt(s.seq)
            )?;
        }
        for (name, d) in &self.durations {
            writeln!(
                w,
                "{{\"summary\":\"{name}\",\"count\":{},\"median_ns\":{},\"mean_ns\":{}}}",
                d.len(),
                self.median_ns(name),
                self.mean_ns(name)
            )?;
        }
        writeln!(w, "{{\"spans_dropped\":{}}}", self.dropped)?;
        w.flush()
    }
}
