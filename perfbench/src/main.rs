//! The repository benchmark: one command that runs a named workload against
//! the public APIs of `jsoniq-core`, `snowpark` and `snowdb`, checks every
//! answer, and prints the end-to-end metrics (untraced run) or the per-layer
//! metrics (traced run, `--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload adl-nested --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The workloads, why each exists, and which metric each layer should move
//! are described in `perfbench/README.md`.

mod adl_nested;
mod hep_stream;
mod layers;
mod report;
mod rss;
mod ssb_wire;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use snowdb::Variant;

use crate::report::{Report, Sample, Samples};
use crate::trace::Tracer;

pub const WORKLOADS: [&str; 3] = ["adl-nested", "ssb-wire", "hep-stream"];

/// Engine worker threads (`Database::set_threads`) on every workload.
pub const THREADS: usize = 2;

/// Command-line settings. Seeds and sizes are arguments; the program under
/// test only ever sees the inputs generated from them.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    pub trace: bool,
    /// ADL events (`adl-nested`, and the initial table of `hep-stream`).
    pub events: usize,
    /// SSB lineorders (`ssb-wire`).
    pub lineorders: usize,
    /// Scratch directory for databases and span logs, relative to the
    /// working directory.
    pub data_dir: PathBuf,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            workload: String::new(),
            seed: 1,
            seconds: 30.0,
            trace: false,
            events: adl::SF1_EVENTS,
            lineorders: ssb::LINEORDERS_SF1,
            data_dir: PathBuf::from(".bench_data"),
        }
    }
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => cfg.workload = value,
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--events" => cfg.events = value.parse().map_err(|e| bad(&e))?,
            "--lineorders" => cfg.lineorders = value.parse().map_err(|e| bad(&e))?,
            "--data-dir" => cfg.data_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 || cfg.events == 0 || cfg.lineorders == 0 {
        return Err("sizes and durations must be positive".into());
    }
    Ok(cfg)
}

fn main() {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run = match cfg.workload.as_str() {
        "adl-nested" => adl_nested::run(&cfg),
        "ssb-wire" => ssb_wire::run(&cfg),
        _ => hep_stream::run(&cfg),
    };
    let mut report = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload);
            std::process::exit(2);
        }
    };
    report.info.insert(
        0,
        format!(
            "seed {} | timed loop {} s | engine threads {} (available parallelism {}) | \
             flush policy: every commit fsyncs",
            cfg.seed,
            cfg.seconds,
            THREADS,
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        ),
    );
    report
        .end_to_end
        .set("failed_share", report.outcomes.failed_share(), "ratio");
    if !report.print(&cfg.workload, cfg.trace) {
        std::process::exit(1);
    }
}

/// Set-ups repeat until there are at least `MIN_SETUPS` of them and they
/// took at least `SETUP_MIN_SECONDS`, so `setup_s` is a median of many.
const MIN_SETUPS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 4.0;
const SETUP_MAX_REPEATS: usize = 40;

/// Runs `setup` repeatedly, dropping each instance before building the next,
/// records the median time as `setup_s`, and returns the last instance.
pub fn repeated_setup<T>(
    report: &mut Report,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<T, String> {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < MIN_SETUPS
        || (times.iter().sum::<f64>() < SETUP_MIN_SECONDS && times.len() < SETUP_MAX_REPEATS)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup(times.len())?);
        times.push(t.elapsed().as_secs_f64());
    }
    let median = stats::median(&times).expect("at least one set-up");
    report.end_to_end.set("setup_s", median, "s");
    let shown: Vec<String> = times.iter().map(|t| format!("{t:.3}")).collect();
    report.info(format!(
        "setup_s is the median of {} set-ups, seconds: {}",
        times.len(),
        shown.join(" ")
    ));
    Ok(last.expect("at least one set-up"))
}

/// A fresh scratch directory for one database instance.
pub fn fresh_dir(cfg: &Config, tag: &str) -> Result<PathBuf, String> {
    let dir = cfg
        .data_dir
        .join(format!("{}-{tag}-{}", cfg.workload, std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&cfg.data_dir)
        .map_err(|e| format!("{}: {e}", cfg.data_dir.display()))?;
    Ok(dir)
}

/// The first column of every row, sorted, so results compare as multisets.
pub fn first_column_sorted(rows: Vec<Vec<Variant>>) -> Vec<Variant> {
    let mut v: Vec<Variant> = rows
        .into_iter()
        .filter_map(|r| r.into_iter().next())
        .collect();
    v.sort_by(snowdb::variant::cmp_variants);
    v
}

/// Rows and scanned bytes of one execution, or why it failed.
pub type Outcome = Result<(Vec<Vec<Variant>>, u64), String>;

/// Checks an execution's first result column against the expected sorted
/// answer and records it as a sample or a failure.
pub fn record(
    samples: &mut Samples,
    problems: &mut Vec<String>,
    query: &str,
    latency: Duration,
    outcome: Outcome,
    expected: &[Variant],
) {
    match outcome {
        Ok((rows, bytes_scanned)) => {
            let got = first_column_sorted(rows);
            if got == expected {
                samples.push(Sample {
                    query: query.to_string(),
                    latency_ms: latency.as_secs_f64() * 1e3,
                    bytes_scanned,
                });
            } else {
                samples.fail();
                problems.push(format!(
                    "{query}: wrong answer ({} rows, expected {})",
                    got.len(),
                    expected.len()
                ));
            }
        }
        Err(e) => {
            samples.fail();
            problems.push(format!("{query}: {e}"));
        }
    }
}

/// Tracing overhead: how much longer a traced execution takes than an
/// untraced one, from the two modes' closed-loop throughput (`qps` is the
/// inverse of mean latency per client).
pub fn overhead_share(untraced: &Samples, traced: &Samples) -> f64 {
    traced.mean_latency_ms() / untraced.mean_latency_ms() - 1.0
}

/// Shares of traced query latency: each layer's self time over the summed
/// root-span durations, and the share all layers account for together.
pub fn layer_shares(tr: &Tracer, report: &mut Report) {
    let (root_ns, _) = tr.total_ns(layers::QUERY);
    let self_ns = tr.self_time_ns();
    let unaccounted = self_ns.get(layers::QUERY).copied().unwrap_or(0);
    report.per_layer.set(
        "trace.accounted_share",
        1.0 - unaccounted as f64 / root_ns.max(1) as f64,
        "ratio",
    );
    let shares: Vec<String> = self_ns
        .iter()
        .filter(|(name, _)| **name != layers::QUERY)
        .map(|(name, ns)| format!("{name} {:.1}%", 100.0 * *ns as f64 / root_ns.max(1) as f64))
        .collect();
    report.info(format!("traced latency shares: {}", shares.join(", ")));
}

/// Writes the spans of a traced run under the scratch directory.
pub fn write_spans(cfg: &Config, tr: &Tracer, report: &mut Report) {
    let path = cfg
        .data_dir
        .join(format!("spans-{}-seed{}.jsonl", cfg.workload, cfg.seed));
    let written = std::fs::create_dir_all(&cfg.data_dir).and_then(|_| tr.write_jsonl(&path));
    match written {
        Ok(()) => report.info(format!(
            "{} spans written to {}",
            tr.spans().len(),
            path.display()
        )),
        Err(e) => report.info(format!("spans not written to {}: {e}", path.display())),
    }
}
