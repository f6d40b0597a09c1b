//! The layercake benchmark: one workload per invocation through the
//! threaded runtime, checked against a delivery oracle.
//!
//! ```text
//! perfbench --workload <ticker|biblio|fanout_zipf|durable> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` replays the
//! same inputs with spans around each layer and prints the per-layer
//! metrics. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md`.

mod alloc;
mod drive;
mod layers;
mod spans;
mod workload;

use std::path::{Path, PathBuf};
use std::sync::mpsc::channel;
use std::time::Duration;

use workload::{Inputs, Kind, FIXED_SHARE, RUNTIMES};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Linear-interpolated quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Resident set size of this process, in KiB.
pub fn rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

/// The verdict of one run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    let workload = Kind::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Cores, compiler and source revision, carried by every output.
fn fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    };
    let rustc = run("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let rev = run("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| format!("src-fnv64:{:016x}", source_hash()));
    format!("cores={cores} rustc=\"{rustc}\" rev={rev}")
}

/// FNV-1a over every file under `crates/` and `perfbench/` (build
/// directories aside), in path order: the revision of a checkout that is
/// not a git repository.
fn source_hash() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                if !p.ends_with("target") {
                    walk(&p, out);
                }
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The untraced run: [`RUNTIMES`] runtimes, one after another, each set
/// up, run for its third of the fixed-rate phase and then flooded for its
/// share of the saturation phase. A runtime keeps one thread layout for
/// its life, and its windows and rounds move together by ±10%; fresh
/// runtimes sample fresh layouts, so pooling their windows and rounds
/// steadies the medians more than a longer run of one runtime would.
fn untraced(inputs: &Inputs, seconds: f64, out_dir: &Path) -> Outcome {
    let (tx, rx) = channel();
    let collector = drive::Collector::spawn(
        rx,
        inputs.fixed.len(),
        inputs.fixed_rate,
        2 * inputs.fixed.len(),
    );
    let sat_budget = Duration::from_secs_f64(seconds * (1.0 - FIXED_SHARE) / RUNTIMES as f64);
    let sat_lo = inputs.fixed.len();
    let (mut setups, mut round_eps) = (Vec::new(), Vec::new());
    let (mut sat_published, mut sat_bytes, mut sat_frames) = (0u64, 0u64, 0u64);
    let (mut failed_rounds, mut sat_host_lag) = (0u32, 0f64);
    let (mut lag_max, mut lag_mean, mut fixed_host_lag) = (0f64, 0f64, 0f64);
    let mut drained = true;
    let mut audit = drive::Audit::default();
    let rss0 = rss_kb();
    let mut rss1 = 0.0;
    for i in 0..RUNTIMES {
        let st = drive::start(inputs, Some(&tx), 0, out_dir, None);
        setups.push(st.setup_s);
        let seqs = i * sat_lo / RUNTIMES..(i + 1) * sat_lo / RUNTIMES;
        let fixed = drive::fixed_phase(inputs, &st, &collector, seqs.clone(), None);
        if i == 0 {
            rss1 = rss_kb();
        }
        lag_max = lag_max.max(fixed.lag_max_us);
        lag_mean += fixed.lag_mean_us / RUNTIMES as f64;
        fixed_host_lag = fixed_host_lag.max(fixed.host_lag_us);
        drained &= fixed.drained;
        let sat = drive::saturation(inputs, &st, sat_budget, usize::MAX);
        let flood = sat_lo..sat_lo + sat.published as usize;
        audit.absorb(&drive::finish(inputs, st, &[seqs, flood]).audit);
        round_eps.extend(sat.round_eps);
        sat_published += sat.published;
        sat_bytes += sat.bytes;
        sat_frames += sat.frames;
        failed_rounds += sat.failed_rounds;
        sat_host_lag = sat_host_lag.max(sat.host_lag_us);
    }
    drop(tx);
    let collected = collector.join();

    let lat = collected.sorted_us();
    let p50 = collected.windowed_us(inputs.fixed_rate, 0.5);
    let p90 = collected.windowed_us(inputs.fixed_rate, 0.9);
    let eps = median(&round_eps);
    println!(
        "# fixed-rate: {} events at {} ev/s, {} probe deliveries; whole phase p50 {:.1} us, p90 {:.1} us, p99 {:.1} us (p99 not a metric); publisher lag mean {:.1} us max {:.1} us",
        inputs.fixed.len(),
        inputs.fixed_rate,
        lat.len(),
        quantile(&lat, 0.5),
        quantile(&lat, 0.9),
        quantile(&lat, 0.99),
        lag_mean,
        lag_max
    );
    let windows: Vec<String> = collected
        .windows_us(inputs.fixed_rate, 0.9)
        .iter()
        .map(|w| format!("{w:.0}"))
        .collect();
    println!("# window p90s (us): {}", windows.join(" "));
    println!(
        "# host: largest quiet-check lag {:.0} us in the fixed-rate phase, {:.0} us in saturation; waited {:.1} s for a quiet host",
        fixed_host_lag,
        sat_host_lag,
        drive::waited_s()
    );
    println!(
        "# saturation: {} rounds of {} events over {RUNTIMES} runtimes, eps min {:.0} median {eps:.0} max {:.0}, {} frames/event",
        round_eps.len(),
        inputs.round,
        round_eps.iter().copied().fold(f64::INFINITY, f64::min),
        round_eps.iter().copied().fold(0.0, f64::max),
        sat_frames as f64 / sat_published.max(1) as f64
    );
    println!(
        "# audit: expected {} confirmed {} missing {} duplicate {} unexpected {} errors {} received {}; failed_ratio {}; setups {:?} s",
        audit.expected,
        audit.confirmed,
        audit.missing,
        audit.duplicate,
        audit.unexpected,
        audit.errors,
        audit.received,
        audit.failed() as f64 / audit.expected.max(1) as f64,
        setups
    );
    let correct = audit.failed() == 0
        && failed_rounds == 0
        && drained
        && !round_eps.is_empty()
        && lat.len() >= 100;
    Outcome {
        correct,
        attempted: audit.expected.max(1),
        failed: audit.failed() + u64::from(failed_rounds),
        metrics: vec![
            metric("throughput_eps", eps, "events/s"),
            metric("latency_p50_us", p50, "us"),
            metric("latency_p90_us", p90, "us"),
            metric("setup_s", median(&setups), "s"),
            metric(
                "wire_bytes_per_event",
                sat_bytes as f64 / sat_published.max(1) as f64,
                "B",
            ),
            metric(
                "false_positive_ratio",
                1.0 - audit.confirmed as f64 / audit.received.max(1) as f64,
                "ratio",
            ),
            metric("rss_mb", (rss1 - rss0) / 1024.0, "MB"),
        ],
    }
}

fn json_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <ticker|biblio|fanout_zipf|durable> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&out_dir).expect("create .bench_out");
    let host = fingerprint();
    println!(
        "# workload={} seed={} seconds={} trace={} {host}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let inputs = workload::build(args.workload, args.seed, args.seconds);
    println!(
        "# inputs: {} subscribers, {} filters, {} fixed-rate + {} saturation-pool events, {} expected deliveries",
        inputs.subs.len(),
        inputs.subs.iter().map(|s| s.filters.len()).sum::<usize>(),
        inputs.fixed.len(),
        inputs.sat.len(),
        inputs.expected_in(0..inputs.fixed.len() + inputs.sat.len())
    );
    let outcome = if args.trace {
        layers::traced(&inputs, args.seconds, &out_dir)
    } else {
        untraced(&inputs, args.seconds, &out_dir)
    };
    for m in &outcome.metrics {
        println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let line = json_line(&outcome);
    let record = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::write(
        &record,
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"host\": \"{}\", \"result\": {line}}}\n",
            args.workload.name(),
            args.seed,
            host.replace('"', "'")
        ),
    );
    println!("{line}");
    if !outcome.correct {
        eprintln!("perfbench: outputs did not match the oracle (see the # audit line)");
    }
}
