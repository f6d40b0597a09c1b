//! The four workloads: seeded inputs built before any clock starts, plus
//! the delivery oracle derived from them.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use layercake_event::{
    Advertisement, AttrValue, AttributeDecl, ClassId, Envelope, EventData, EventSeq, StageMap,
    TypeRegistry, TypedEvent, ValueKind,
};
use layercake_filter::{Filter, Predicate};
use layercake_overlay::OverlayConfig;
use layercake_workload::biblio::ATTRS;
use layercake_workload::{
    BiblioConfig, BiblioWorkload, StockConfig, StockWorkload, SubsConfig, ZipfSubs,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Share of the measured seconds spent in the fixed-rate phase; the rest
/// is the saturation phase.
pub const FIXED_SHARE: f64 = 0.5;

/// Runtimes an untraced run sets up one after another; each floods the
/// saturation pool for its share of the saturation phase.
pub const RUNTIMES: usize = 3;

/// Seed of the `biblio` subscription population. Populations are fixed
/// like a dataset (`fanout_zipf` uses E22's default pool seed, and the
/// overlay its default placement seed); `--seed` draws the events. A
/// population per seed moved the false-positive ratio by 10% between
/// seeds, more than the bound a regression is judged by.
const POPULATION_SEED: u64 = 2002;

/// Every `PROBE_EVERY`-th generated event of `biblio` and `fanout_zipf`
/// instantiates a probe subscription, so the tapped probes get a fixed
/// share of the latency samples whatever the population looks like.
const PROBE_EVERY: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ticker,
    Biblio,
    FanoutZipf,
    Durable,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "ticker" => Some(Self::Ticker),
            "biblio" => Some(Self::Biblio),
            "fanout_zipf" => Some(Self::FanoutZipf),
            "durable" => Some(Self::Durable),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::Ticker => "ticker",
            Self::Biblio => "biblio",
            Self::FanoutZipf => "fanout_zipf",
            Self::Durable => "durable",
        }
    }

    /// Offered load of the fixed-rate phase, events/s: a fifth to a
    /// quarter of the saturation throughput measured on a 2-core host.
    fn fixed_rate(self) -> f64 {
        match self {
            Self::Ticker => 40_000.0,
            Self::Biblio => 10_000.0,
            Self::FanoutZipf => 6_000.0,
            Self::Durable => 1_500.0,
        }
    }

    /// Events per saturation round: about 0.15 s of flood on a 2-core
    /// host, so a run has dozens of rounds to take the median of.
    fn round(self) -> usize {
        match self {
            Self::Ticker => 25_000,
            Self::Biblio => 6_000,
            Self::FanoutZipf => 5_000,
            Self::Durable => 1_000,
        }
    }

    /// Upper estimate of saturation throughput on a 2-core host, events/s:
    /// the pool holds this many events per second of one runtime's share
    /// of the saturation phase. A host that empties the pool ends that
    /// runtime's flood early.
    fn pool_rate(self) -> f64 {
        match self {
            Self::Ticker => 250_000.0,
            Self::Biblio => 70_000.0,
            Self::FanoutZipf => 50_000.0,
            Self::Durable => 12_000.0,
        }
    }
}

/// How a subscriber is attached to the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubKind {
    /// One filter, every delivery forwarded to the collector thread.
    Tapped,
    /// A disjunctive host (`add_subscriber_any`), untapped.
    Host,
    /// A durable one-filter subscriber, untapped.
    Durable,
}

pub struct SubSpec {
    pub kind: SubKind,
    pub filters: Vec<Filter>,
}

pub struct Inputs {
    pub kind: Kind,
    pub seed: u64,
    pub registry: Arc<TypeRegistry>,
    pub overlay: OverlayConfig,
    pub adverts: Vec<Advertisement>,
    pub subs: Vec<SubSpec>,
    /// Fixed-rate phase events, seqs `0..fixed.len()`.
    pub fixed: Vec<Envelope>,
    /// Saturation pool, seqs continuing after `fixed`.
    pub sat: Vec<Envelope>,
    pub fixed_rate: f64,
    pub round: usize,
    /// Subscriber indices that must receive event seq `i`:
    /// `expected_subs[expected_off[i]..expected_off[i + 1]]`.
    expected_off: Vec<u32>,
    expected_subs: Vec<u32>,
}

impl Inputs {
    pub fn event(&self, seq: usize) -> &Envelope {
        match seq.checked_sub(self.fixed.len()) {
            None => &self.fixed[seq],
            Some(i) => &self.sat[i],
        }
    }

    /// The subscribers that must receive event `seq`, ascending.
    pub fn expected(&self, seq: usize) -> &[u32] {
        &self.expected_subs[self.expected_off[seq] as usize..self.expected_off[seq + 1] as usize]
    }

    /// Expected deliveries of the events `seqs`.
    pub fn expected_in(&self, seqs: std::ops::Range<usize>) -> u64 {
        u64::from(self.expected_off[seqs.end] - self.expected_off[seqs.start])
    }

    /// Broker stages of the hierarchy (stage 1 = leaf brokers).
    pub fn stages(&self) -> usize {
        self.overlay.levels.len()
    }
}

/// Builds a workload's inputs from `seed` for a run of `seconds`.
pub fn build(kind: Kind, seed: u64, seconds: f64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let fixed_n = (kind.fixed_rate() * seconds * FIXED_SHARE) as usize;
    let sat_n = (kind.pool_rate() * seconds * (1.0 - FIXED_SHARE) / RUNTIMES as f64) as usize;
    let total = (fixed_n + sat_n) as u64;
    let mut overlay = OverlayConfig::default();
    let mut registry = TypeRegistry::new();
    let (adverts, subs, events) = match kind {
        Kind::Ticker | Kind::Durable => {
            overlay.levels = vec![1];
            overlay.durability_enabled = kind == Kind::Durable;
            ticker(&mut registry, kind == Kind::Durable, total, &mut rng)
        }
        Kind::Biblio => {
            overlay.levels = vec![4, 2, 1];
            biblio(&mut registry, total, &mut rng)
        }
        Kind::FanoutZipf => {
            overlay.levels = vec![2, 1];
            overlay.aggregation_enabled = true;
            fanout(&mut registry, total, &mut rng)
        }
    };
    let registry = Arc::new(registry);
    let (expected_off, expected_subs) = Oracle::new(&subs).expected(&events, &registry);
    let mut fixed = events;
    let sat = fixed.split_off(fixed_n);
    Inputs {
        kind,
        seed,
        registry,
        overlay,
        adverts,
        subs,
        fixed,
        sat,
        fixed_rate: kind.fixed_rate(),
        round: kind.round(),
        expected_off,
        expected_subs,
    }
}

type Built = (Vec<Advertisement>, Vec<SubSpec>, Vec<Envelope>);

/// `ticker`/`durable`: 8 classes of 2 int attributes on one root broker.
/// Each class has one subscriber; the root keeps only `region`, so the
/// `level < 94` constraint is checked at the subscriber alone and about
/// 6% of the events it receives are weakening false positives.
fn ticker(registry: &mut TypeRegistry, durable: bool, total: u64, rng: &mut StdRng) -> Built {
    const CLASSES: usize = 8;
    let classes: Vec<ClassId> = (0..CLASSES)
        .map(|i| {
            registry
                .register(
                    &format!("Feed{i}"),
                    None,
                    vec![
                        AttributeDecl::new("region", ValueKind::Int),
                        AttributeDecl::new("level", ValueKind::Int),
                    ],
                )
                .expect("register ticker class")
        })
        .collect();
    let stage_map = StageMap::from_prefixes(&[2, 1]).expect("ticker stage map");
    let adverts = classes
        .iter()
        .map(|&c| Advertisement::new(c, stage_map.clone()))
        .collect();
    let filter = |c: ClassId| Filter::for_class(c).eq("region", 0i64).lt("level", 94i64);
    let mut subs: Vec<SubSpec> = classes
        .iter()
        .map(|&c| SubSpec {
            kind: if durable {
                SubKind::Durable
            } else {
                SubKind::Tapped
            },
            filters: vec![filter(c)],
        })
        .collect();
    if durable {
        // Volatile tapped probes beside the durable subscribers: their
        // latency crosses the same shard, WAL appends and fsyncs included.
        subs.extend(classes.iter().map(|&c| SubSpec {
            kind: SubKind::Tapped,
            filters: vec![filter(c)],
        }));
    }
    let events = (0..total)
        .map(|seq| {
            let idx = rng.gen_range(0..CLASSES);
            let mut meta = EventData::with_capacity(2);
            meta.insert("region", 0i64);
            meta.insert("level", rng.gen_range(0..100i64));
            Envelope::from_meta(classes[idx], format!("Feed{idx}"), EventSeq(seq), meta)
        })
        .collect();
    (adverts, subs, events)
}

/// `biblio`: the paper's Section 5 workload, 4000 subscriptions dealt
/// to 16 hosts, plus 16 tapped probes copied from the population. The
/// population is drawn from [`POPULATION_SEED`]; `rng` draws the events.
fn biblio(registry: &mut TypeRegistry, total: u64, rng: &mut StdRng) -> Built {
    const HOSTS: usize = 16;
    const PROBES: usize = 16;
    let cfg = BiblioConfig {
        subscriptions: 4000,
        ..BiblioConfig::default()
    };
    let mut pop_rng = StdRng::seed_from_u64(POPULATION_SEED);
    let w = BiblioWorkload::new(cfg, registry, &mut pop_rng);
    let adverts = vec![Advertisement::new(w.class(), BiblioWorkload::stage_map())];
    let pop = w.subscriptions();
    let mut subs: Vec<SubSpec> = pop
        .chunks(pop.len().div_ceil(HOSTS))
        .map(|c| SubSpec {
            kind: SubKind::Host,
            filters: c.to_vec(),
        })
        .collect();
    let probes: Vec<Filter> = (0..PROBES)
        .map(|_| pop[pop_rng.gen_range(0..pop.len())].clone())
        .collect();
    subs.extend(probes.iter().map(|f| SubSpec {
        kind: SubKind::Tapped,
        filters: vec![f.clone()],
    }));
    let events = (0..total)
        .map(|seq| {
            if seq % PROBE_EVERY == PROBE_EVERY - 1 {
                let probe = &probes[((seq / PROBE_EVERY) % PROBES as u64) as usize];
                let mut meta = EventData::with_capacity(ATTRS.len());
                for name in ATTRS {
                    meta.insert(
                        name,
                        eq_value(probe, name).expect("probe pins every attribute"),
                    );
                }
                Envelope::from_meta(w.class(), "Biblio", EventSeq(seq), meta)
            } else {
                w.envelope(seq, rng)
            }
        })
        .collect();
    (adverts, subs, events)
}

/// `fanout_zipf`: E22's Zipf stock population (20k draws from the
/// default pool and seed) dealt to 8 hosts with aggregation on, plus 16
/// tapped probes on symbols outside the pool so they add cover roots
/// without changing the pool's forest. `rng` draws the quotes.
/// Quotes come in sessions of `SESSION` that restart every price walk at
/// the base price: an unbounded walk would drift past the pool's price
/// ceilings, and the false-positive ratio with it, as runs get longer.
fn fanout(registry: &mut TypeRegistry, total: u64, rng: &mut StdRng) -> Built {
    const HOSTS: usize = 8;
    const DRAWS: usize = 20_000;
    const PROBES: usize = 16;
    const SESSION: u64 = 2000;
    let mut stock = StockWorkload::new(
        StockConfig {
            subtype_rate: 0.0,
            ..StockConfig::default()
        },
        registry,
    );
    let class = stock.class();
    let adverts = vec![Advertisement::new(class, StockWorkload::stage_map())];
    let mut zipf = ZipfSubs::new(SubsConfig::default(), class);
    let draws: Vec<Filter> = (0..DRAWS).map(|_| zipf.next_filter()).collect();
    let mut subs: Vec<SubSpec> = draws
        .chunks(DRAWS / HOSTS)
        .map(|c| SubSpec {
            kind: SubKind::Host,
            filters: c.to_vec(),
        })
        .collect();
    let probe_symbol = |k: u64| StockWorkload::symbol_name(zipf.population() + k as usize);
    subs.extend((0..PROBES as u64).map(|k| SubSpec {
        kind: SubKind::Tapped,
        filters: vec![Filter::for_class(class).eq("symbol", probe_symbol(k))],
    }));
    let session = stock.clone();
    let events = (0..total)
        .map(|seq| {
            if seq % SESSION == 0 {
                stock = session.clone();
            }
            let mut meta = stock.next_quote(rng).extract();
            if seq % PROBE_EVERY == PROBE_EVERY - 1 {
                meta.insert("symbol", probe_symbol((seq / PROBE_EVERY) % PROBES as u64));
            }
            Envelope::from_meta(class, "Stock", EventSeq(seq), meta)
        })
        .collect();
    (adverts, subs, events)
}

fn eq_value(f: &Filter, name: &str) -> Option<AttrValue> {
    f.constraints_on(name).find_map(|c| match c.predicate() {
        Predicate::Eq(v) => Some(v.clone()),
        _ => None,
    })
}

/// The delivery oracle: which subscribers must receive each event, by
/// `Filter::matches_envelope` over every branch. Candidates are narrowed
/// by one string equality per filter (a plain hash lookup, independent
/// of the broker indexes under test); every candidate is then checked in
/// full. Lookups use the event's own class: no workload publishes
/// subtype events.
struct Oracle {
    /// (class, attribute, value) → (subscriber, filter) pairs pinned by it.
    by_eq: HashMap<(ClassId, String, String), Vec<(u32, Filter)>>,
    /// Attributes used as keys per class.
    key_attrs: HashMap<ClassId, Vec<String>>,
    /// Filters without a string equality, scanned for every event.
    scan: Vec<(u32, Filter)>,
}

impl Oracle {
    fn new(subs: &[SubSpec]) -> Self {
        let mut o = Self {
            by_eq: HashMap::new(),
            key_attrs: HashMap::new(),
            scan: Vec::new(),
        };
        for (i, sub) in subs.iter().enumerate() {
            let i = u32::try_from(i).expect("subscriber index fits u32");
            let mut seen = HashSet::new();
            for f in sub.filters.iter().filter(|f| seen.insert(*f)) {
                let key = f.class().and_then(|class| {
                    f.constraints()
                        .iter()
                        .rev()
                        .find_map(|c| match c.predicate() {
                            Predicate::Eq(AttrValue::Str(s)) => {
                                Some((class, c.name().to_owned(), s.clone()))
                            }
                            _ => None,
                        })
                });
                match key {
                    Some(key) => {
                        let attrs = o.key_attrs.entry(key.0).or_default();
                        if !attrs.contains(&key.1) {
                            attrs.push(key.1.clone());
                        }
                        o.by_eq.entry(key).or_default().push((i, f.clone()));
                    }
                    None => o.scan.push((i, f.clone())),
                }
            }
        }
        o
    }

    /// Expected subscribers of every event, as offsets into a flat list.
    fn expected(&self, events: &[Envelope], registry: &TypeRegistry) -> (Vec<u32>, Vec<u32>) {
        let mut off = Vec::with_capacity(events.len() + 1);
        let mut flat = Vec::new();
        off.push(0);
        let mut hits: Vec<u32> = Vec::new();
        for env in events {
            hits.clear();
            let mut check = |(i, f): &(u32, Filter)| {
                if !hits.contains(i) && f.matches_envelope(env, registry) {
                    hits.push(*i);
                }
            };
            self.scan.iter().for_each(&mut check);
            for attr in self.key_attrs.get(&env.class()).into_iter().flatten() {
                if let Some(AttrValue::Str(v)) = env.meta().get(attr) {
                    let key = (env.class(), attr.clone(), v.clone());
                    self.by_eq
                        .get(&key)
                        .into_iter()
                        .flatten()
                        .for_each(&mut check);
                }
            }
            hits.sort_unstable();
            flat.extend_from_slice(&hits);
            off.push(u32::try_from(flat.len()).expect("expected deliveries fit u32"));
        }
        (off, flat)
    }
}
