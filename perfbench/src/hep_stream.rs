//! `hep-stream`: a store-backed ADL table under streaming ingest, background
//! compaction and a reader, with a buffer cache smaller than the decoded
//! columns the reader touches.
//!
//! - Writer: an open loop at a fixed offered rate appends batches of freshly
//!   generated ADL events (another seed) as JSONL through
//!   `Database::stream_ingest`, one micro-commit per batch. Each batch is
//!   generated while the writer waits for its scheduled time and dropped once
//!   committed. Commit latency runs from the scheduled time to the
//!   acknowledgement.
//! - Compactor: `store::Compactor` with the default policy.
//! - Reader: a closed loop over translated Q1–Q3. Each Q1 histogram must sum
//!   to a committed prefix: the initial events plus a whole number of
//!   batches, between the rows acknowledged before the query and the rows
//!   submitted for commit after it.
//!
//! After the writer and compactor stop and one final `compact_table_once`,
//! the row count must equal initial + acknowledged and Q1–Q3 must equal
//! their handwritten SQL.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use adl::generator::{generate_events, schema, AdlConfig};
use adl::queries::AdlQuery;
use snowdb::storage::ScanSource;
use snowdb::store::{compact_table_once, CompactionPolicy, Compactor, CompactorStats, Store};
use snowdb::variant::{to_json, Object};
use snowdb::{Database, Variant};
use snowpark::Session;

use crate::adl_nested::{run_plain, strategy};
use crate::layers::{self, LayerCounts};
use crate::report::{tail_metric, Metrics, Report, Sample, Samples};
use crate::stats::{self, Outcomes};
use crate::trace::Tracer;
use crate::{repeated_setup, Config, Outcome, THREADS};

const TABLE: &str = "hep";
/// Mixed into `--seed` for the streamed events, so they differ from the
/// initial table's.
const STREAM_SEED_SALT: u64 = 0x5EED_57AE;
/// Pause between compactor passes.
const COMPACT_INTERVAL: Duration = Duration::from_millis(50);
const MIB: f64 = 1024.0 * 1024.0;
/// Buffer-cache capacity, below the decoded working set of Q1–Q3.
const CACHE_BYTES: u64 = 2 << 20;
/// Offered ingest rate, batches per second.
const INGEST_RATE: f64 = 8.0;
/// Events per ingest batch, one micro-commit each.
const BATCH_EVENTS: usize = 256;

/// A store-backed database holding the initial events.
struct Stream {
    db: Arc<Database>,
    session: Session,
    dir: PathBuf,
}

impl Drop for Stream {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// One event row as a JSON object keyed by the table's column names.
fn jsonl(row: &[Variant], names: &[String]) -> String {
    let mut o = Object::with_capacity(names.len());
    for (k, v) in names.iter().zip(row) {
        o.insert(k.as_str(), v.clone());
    }
    to_json(&Variant::object(o))
}

fn column_names() -> Vec<String> {
    schema().into_iter().map(|c| c.name).collect()
}

fn initial_config(cfg: &Config) -> AdlConfig {
    AdlConfig {
        events: cfg.events,
        seed: cfg.seed,
        ..AdlConfig::default()
    }
}

/// JSONL bytes of the initial events, newlines included. Worked out once,
/// before and apart from the timed set-ups: rendering is about a quarter of
/// a set-up and the program never sees it.
fn initial_jsonl_bytes(cfg: &Config) -> u64 {
    let names = column_names();
    generate_events(&initial_config(cfg))
        .iter()
        .map(|row| jsonl(row, &names).len() as u64 + 1)
        .sum()
}

fn setup(cfg: &Config, i: usize) -> Result<Stream, String> {
    let initial = initial_config(cfg);
    let rows = generate_events(&initial);
    let dir = crate::fresh_dir(cfg, &format!("db{i}"))?;
    let db = Database::open(&dir).map_err(|e| e.to_string())?;
    db.set_threads(Some(THREADS));
    db.load_table_with_partition_rows(TABLE, schema(), rows, initial.partition_rows)
        .map_err(|e| e.to_string())?;
    let db = Arc::new(db);
    store(&db).set_cache_capacity(CACHE_BYTES);
    Ok(Stream {
        session: Session::new(db.clone()),
        db,
        dir,
    })
}

/// Batch `b` of the stream: freshly generated events (one generator seed per
/// batch) whose ids continue after the initial table's, as JSONL lines.
fn stream_batch(cfg: &Config, b: usize, names: &[String]) -> Vec<String> {
    let events = generate_events(&AdlConfig {
        events: BATCH_EVENTS,
        seed: (cfg.seed ^ STREAM_SEED_SALT).wrapping_add(b as u64),
        ..AdlConfig::default()
    });
    events
        .into_iter()
        .enumerate()
        .map(|(j, mut row)| {
            row[0] = Variant::Int((cfg.events + b * BATCH_EVENTS + j) as i64);
            jsonl(&row, names)
        })
        .collect()
}

fn store(db: &Database) -> Arc<Store> {
    db.store().expect("opened from a directory")
}

/// Decoded bytes of the columns Q1–Q3 touch: the cache's resident bytes after
/// running them once into an empty, unbounded cache. Restores the benchmark's
/// capacity and leaves the cache empty.
fn decoded_working_set(s: &Stream, queries: &[AdlQuery]) -> Result<u64, String> {
    let store = store(&s.db);
    store.set_cache_capacity(u64::MAX / 2);
    store.cache().clear();
    for q in queries {
        run_plain(&s.db, &s.session, &q.jsoniq, strategy(q))?;
    }
    let used = store.cache_stats().used_bytes;
    store.set_cache_capacity(CACHE_BYTES);
    store.cache().clear();
    Ok(used)
}

/// Highest partition-file sequence number in `parts/`: every partition
/// write allocates the next one, committed or not.
fn last_file_id(dir: &Path) -> u64 {
    std::fs::read_dir(dir.join("parts"))
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| {
                    let name = e.file_name().into_string().ok()?;
                    name.strip_prefix('p')?
                        .strip_suffix(".part")?
                        .parse::<u64>()
                        .ok()
                })
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// What the writer measured.
#[derive(Default)]
struct WriterRun {
    /// Scheduled time → acknowledgement, ms.
    commit_ms: Vec<f64>,
    /// Start of a batch against its schedule, ms.
    late_ms: Vec<f64>,
    /// The non-committing `push_json` calls of a batch, ms.
    parse_ms: Vec<f64>,
    /// The `push_json` call that seals, writes and commits, ms.
    commit_call_ms: Vec<f64>,
    /// JSONL bytes of acknowledged batches, newlines included.
    input_bytes: u64,
    outcomes: Outcomes,
    problems: Vec<String>,
}

fn writer_loop(
    db: &Database,
    cfg: &Config,
    t0: Instant,
    acked: &AtomicU64,
    submitted: &AtomicU64,
) -> WriterRun {
    let mut w = WriterRun::default();
    let mut ing = match db.stream_ingest(TABLE, BATCH_EVENTS) {
        Ok(i) => i,
        Err(e) => {
            w.outcomes.record(false);
            w.problems.push(format!("stream_ingest: {e}"));
            return w;
        }
    };
    let deadline = t0 + Duration::from_secs_f64(cfg.seconds);
    let names = column_names();
    for k in 0.. {
        let due = t0 + Duration::from_secs_f64(k as f64 / INGEST_RATE);
        if due >= deadline {
            break;
        }
        let batch = stream_batch(cfg, k, &names);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let start = Instant::now();
        w.late_ms
            .push(start.saturating_duration_since(due).as_secs_f64() * 1e3);
        let (last, rest) = batch.split_last().expect("batches are never empty");
        let parsed = rest.iter().try_for_each(|line| ing.push_json(line));
        let parse_end = Instant::now();
        submitted.fetch_add(batch.len() as u64, Ordering::SeqCst);
        let committed = parsed.and_then(|_| ing.push_json(last));
        let ack = Instant::now();
        match committed {
            Ok(()) => {
                acked.fetch_add(batch.len() as u64, Ordering::SeqCst);
                w.outcomes.record(true);
                w.commit_ms.push((ack - due).as_secs_f64() * 1e3);
                w.parse_ms.push((parse_end - start).as_secs_f64() * 1e3);
                w.commit_call_ms.push((ack - parse_end).as_secs_f64() * 1e3);
                w.input_bytes += batch.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
            }
            Err(e) => {
                w.outcomes.record(false);
                w.problems.push(format!("batch {k}: {e}"));
            }
        }
    }
    if let Err(e) = ing.finish() {
        w.outcomes.record(false);
        w.problems.push(format!("finish: {e}"));
    }
    w
}

/// Sum of the `count` fields of a histogram result.
fn histogram_total(rows: &[Vec<Variant>]) -> i64 {
    rows.iter()
        .filter_map(|r| r.first())
        .map(|v| v.get_field("count").as_i64().unwrap_or(0))
        .sum()
}

/// What the reader measured.
#[derive(Default)]
struct ReaderRun {
    untraced: Samples,
    traced: Samples,
    counts: LayerCounts,
    tracer: Option<Tracer>,
    problems: Vec<String>,
    wall_s: f64,
}

fn reader_loop(
    s: &Stream,
    queries: &[AdlQuery],
    cfg: &Config,
    t0: Instant,
    acked: &AtomicU64,
    submitted: &AtomicU64,
) -> ReaderRun {
    let mut r = ReaderRun {
        tracer: Some(Tracer::new(t0)),
        ..ReaderRun::default()
    };
    let tr = r.tracer.as_mut().expect("just set");
    let deadline = Duration::from_secs_f64(cfg.seconds);
    let initial = cfg.events as i64;
    let batch = BATCH_EVENTS as i64;
    let mut n = 0usize;
    while t0.elapsed() < deadline {
        let i = n % queries.len();
        let q = &queries[i];
        let traced_mode = cfg.trace && (n / queries.len() + i) % 2 == 1;
        let before = acked.load(Ordering::SeqCst) as i64;
        let t = Instant::now();
        let outcome: Outcome = if traced_mode {
            layers::run_traced(
                &s.db,
                &s.session,
                &q.jsoniq,
                strategy(q),
                tr,
                n as u64,
                &mut r.counts,
            )
            .map(|(rows, scan)| (rows, scan.bytes_scanned))
        } else {
            run_plain(&s.db, &s.session, &q.jsoniq, strategy(q))
        };
        let latency = t.elapsed();
        let after = submitted.load(Ordering::SeqCst) as i64;
        let samples = if traced_mode {
            &mut r.traced
        } else {
            &mut r.untraced
        };
        let checked = outcome.and_then(|(rows, bytes)| {
            if q.id == "q1" {
                let added = histogram_total(&rows) - initial;
                if added % batch != 0 || added < before || added > after {
                    return Err(format!(
                        "Q1 counts {added} streamed events, not a committed prefix in [{before}, {after}]"
                    ));
                }
            }
            Ok(bytes)
        });
        match checked {
            Ok(bytes_scanned) => samples.push(Sample {
                query: q.id.to_string(),
                latency_ms: latency.as_secs_f64() * 1e3,
                bytes_scanned,
            }),
            Err(e) => {
                samples.fail();
                r.problems.push(format!("{}: {e}", q.id));
            }
        }
        n += 1;
    }
    r.wall_s = t0.elapsed().as_secs_f64();
    r
}

/// The post-quiesce checks: row count, and Q1–Q3 on both the untraced and the
/// stepwise path against handwritten SQL.
fn final_checks(s: &Stream, queries: &[AdlQuery], expect_rows: i64, report: &mut Report) {
    let mut check = |ok: Result<(), String>| {
        report.outcomes.record(ok.is_ok());
        if let Err(e) = ok {
            report.problem(format!("after quiesce: {e}"));
        }
    };
    let count =
        s.db.query(&format!("SELECT COUNT(*) FROM {TABLE}"))
            .map_err(|e| e.to_string());
    check(
        count.and_then(|r| match r.scalar().and_then(Variant::as_i64) {
            Some(n) if n == expect_rows => Ok(()),
            other => Err(format!("row count {other:?}, expected {expect_rows}")),
        }),
    );
    let mut tr = Tracer::new(Instant::now());
    let mut counts = LayerCounts::default();
    for q in queries {
        let hand =
            s.db.query(&q.handwritten_sql)
                .map_err(|e| format!("{} handwritten: {e}", q.id));
        let Ok(hand) = hand.map(|h| crate::first_column_sorted(h.rows)) else {
            check(Err(format!("{} handwritten SQL failed", q.id)));
            continue;
        };
        // Both the untraced and the stepwise path must reproduce it.
        let plain = run_plain(&s.db, &s.session, &q.jsoniq, strategy(q));
        let stepwise = layers::run_traced(
            &s.db,
            &s.session,
            &q.jsoniq,
            strategy(q),
            &mut tr,
            0,
            &mut counts,
        )
        .map(|(rows, scan)| (rows, scan.bytes_scanned));
        for (path, out) in [("translated", plain), ("stepwise", stepwise)] {
            check(out.and_then(|(rows, _)| {
                if crate::first_column_sorted(rows) == hand {
                    Ok(())
                } else {
                    Err(format!("{} {path} differs from its handwritten SQL", q.id))
                }
            }));
        }
    }
}

/// Bytes of the partition files the live table references.
fn stored_bytes(s: &Stream) -> u64 {
    let parts = s.dir.join("parts");
    s.db.table(TABLE)
        .map(|t| {
            t.partitions()
                .iter()
                .filter_map(|p| match &**p {
                    ScanSource::Disk(d) => std::fs::metadata(parts.join(d.file_name())).ok(),
                    ScanSource::Mem(_) => None,
                })
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let initial_bytes = initial_jsonl_bytes(cfg);
    let s = repeated_setup(&mut report, |i| setup(cfg, i))?;
    let queries: Vec<AdlQuery> = adl::queries::queries(TABLE).into_iter().take(3).collect();
    let working_set = decoded_working_set(&s, &queries)?;
    report.info(format!(
        "ADL events {} (seed {}) on disk; writer offers {} batches/s of {} events \
         (seeds from {}), one micro-commit each; compactor every {} ms, default policy; \
         reader closed loop over Q1-Q3",
        cfg.events,
        cfg.seed,
        INGEST_RATE,
        BATCH_EVENTS,
        cfg.seed ^ STREAM_SEED_SALT,
        COMPACT_INTERVAL.as_millis()
    ));
    report.info(format!(
        "buffer cache {:.2} MiB vs decoded working set of Q1-Q3 {:.2} MiB at start{}",
        CACHE_BYTES as f64 / MIB,
        working_set as f64 / MIB,
        if CACHE_BYTES < working_set {
            ""
        } else {
            " (cache is NOT smaller)"
        }
    ));

    let first_file = last_file_id(&s.dir);
    let acked = AtomicU64::new(0);
    let submitted = AtomicU64::new(0);
    let compactor = Compactor::spawn(
        s.db.clone(),
        TABLE,
        CompactionPolicy::default(),
        COMPACT_INTERVAL,
    );
    let t0 = Instant::now();
    let (writer, mut reader, peaks) = std::thread::scope(|sc| {
        let sampler = sc.spawn(|| crate::rss::sample_until(t0, cfg.seconds));
        let w = sc.spawn(|| writer_loop(&s.db, cfg, t0, &acked, &submitted));
        let r = reader_loop(&s, &queries, cfg, t0, &acked, &submitted);
        let w = w.join().expect("writer thread panicked");
        (w, r, sampler.join().expect("RSS sampler panicked"))
    });
    report.info(peaks.describe());
    report
        .end_to_end
        .set("peak_rss_mb", peaks.median_mb(), "MiB");
    let cs: CompactorStats = compactor.stop();
    let acked = acked.load(Ordering::SeqCst);
    if let Err(e) = compact_table_once(&s.db, TABLE, &CompactionPolicy::default()) {
        report.outcomes.record(false);
        report.problem(format!("final compaction: {e}"));
    }

    report.outcomes.merge(reader.untraced.outcomes);
    report.outcomes.merge(reader.traced.outcomes);
    report.outcomes.merge(writer.outcomes);
    report.problems.append(&mut reader.problems);
    report.problems.extend(writer.problems);
    final_checks(
        &s,
        &queries,
        (cfg.events as u64 + acked) as i64,
        &mut report,
    );

    let stored = stored_bytes(&s);
    let final_set = decoded_working_set(&s, &queries)?;
    report.info(format!(
        "{} batches acknowledged ({} events); table {} -> {} events; decoded working set \
         {:.2} MiB at end; generator at most {:.3} ms late",
        writer.commit_ms.len(),
        acked,
        cfg.events,
        cfg.events as u64 + acked,
        final_set as f64 / MIB,
        writer.late_ms.iter().copied().fold(0.0, f64::max),
    ));

    let e2e = &mut report.end_to_end;
    if !cfg.trace {
        reader.untraced.loop_metrics(reader.wall_s, true, e2e);
    }
    e2e.set(
        "commit_p50_ms",
        stats::median(&writer.commit_ms).unwrap_or(0.0),
        "ms",
    );
    tail_metric("commit_tail_ms", &writer.commit_ms, e2e);
    e2e.set(
        "stored_bytes_per_input_byte",
        stored as f64 / (initial_bytes + writer.input_bytes) as f64,
        "ratio",
    );

    if cfg.trace {
        let tr = reader.tracer.take().expect("reader tracer");
        let self_ns = tr.self_time_ns();
        let m = &mut report.per_layer;
        layers::compile_metrics(&self_ns, &reader.counts, m);
        layers::exec_metrics(&self_ns, &reader.counts, THREADS, m);
        store_metrics(&s, &reader.counts, first_file, &cs, m);
        m.set("ingest.parse_ms", mean(&writer.parse_ms), "ms");
        m.set("ingest.commit_ms", mean(&writer.commit_call_ms), "ms");
        m.set("gen.late_ms", mean(&writer.late_ms), "ms");
        m.set(
            "trace.overhead_share",
            crate::overhead_share(&reader.untraced, &reader.traced),
            "ratio",
        );
        crate::layer_shares(&tr, &mut report);
        crate::write_spans(cfg, &tr, &mut report);
    }
    Ok(report)
}

fn store_metrics(
    s: &Stream,
    c: &LayerCounts,
    first_file: u64,
    cs: &CompactorStats,
    m: &mut Metrics,
) {
    layers::cache_metrics(c, m);
    let live = s.db.table(TABLE).map_or(0, |t| t.partitions().len());
    m.set("store.live_partitions", live as f64, "count");
    m.set(
        "store.partitions_written",
        (last_file_id(&s.dir) - first_file) as f64,
        "count",
    );
    m.set("store.disk_mb", dir_bytes(&s.dir) as f64 / MIB, "MiB");
    m.set("compact.passes", cs.passes as f64, "count");
    m.set("compact.compactions", cs.compactions as f64, "count");
    m.set(
        "compact.conflicts_lost_share",
        layers::share(cs.conflicts_lost, cs.compactions + cs.conflicts_lost),
        "ratio",
    );
    m.set("compact.errors", cs.errors as f64, "count");
}
