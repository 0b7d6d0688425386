//! `adl-nested`: the eight ADL queries on an in-memory table, one client in a
//! closed loop, each execution JSONiq text → `Translator` → `Database::query`
//! → rows, with the paper's strategy per query.
//!
//! This is the nested path (`FLATTEN`, boxed object field access,
//! `MIN_BY`/`ARRAY_AGG`, the JOIN-based rescans of Q6); storage and the wire
//! are bypassed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use adl::generator::{generate_events, schema, AdlConfig};
use adl::queries::AdlQuery;
use jsoniq_core::snowflake::{NestedStrategy, Translator};
use snowdb::Database;
use snowpark::Session;

use crate::layers::{self, LayerCounts};
use crate::report::{Report, Samples};
use crate::rss::PeakWindows;
use crate::trace::Tracer;
use crate::{record, repeated_setup, Config, Outcome, THREADS};

/// The paper's strategy for a query (§V-A): JOIN-based for Q6 only.
pub fn strategy(q: &AdlQuery) -> NestedStrategy {
    if q.join_based {
        NestedStrategy::JoinBased
    } else {
        NestedStrategy::FlagColumn
    }
}

/// Untraced execution: `Translator::translate` then `Database::query`.
pub fn run_plain(db: &Database, session: &Session, jsoniq: &str, s: NestedStrategy) -> Outcome {
    let df = Translator::new(session.clone(), s)
        .translate(jsoniq)
        .map_err(|e| e.to_string())?;
    let res = db.query(df.sql()).map_err(|e| e.to_string())?;
    Ok((res.rows, res.profile.scan.bytes_scanned))
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let adl_cfg = AdlConfig {
        events: cfg.events,
        seed: cfg.seed,
        ..AdlConfig::default()
    };
    let (db, session) = repeated_setup(&mut report, |_| {
        let rows = generate_events(&adl_cfg);
        let db = Database::new();
        db.set_threads(Some(THREADS));
        db.load_table_with_partition_rows("hep", schema(), rows, adl_cfg.partition_rows)
            .map_err(|e| e.to_string())?;
        let db = Arc::new(db);
        Ok((db.clone(), Session::new(db)))
    })?;
    report.info(format!(
        "ADL events {} (seed {}), in-memory, {}-row partitions; one client, closed loop",
        adl_cfg.events, adl_cfg.seed, adl_cfg.partition_rows
    ));

    let queries = adl::queries::queries("hep");
    let expected = queries
        .iter()
        .map(|q| {
            db.query(&q.handwritten_sql)
                .map(|r| crate::first_column_sorted(r.rows))
                .map_err(|e| format!("{} handwritten SQL: {e}", q.id))
        })
        .collect::<Result<Vec<_>, _>>()?;

    let mut untraced = Samples::default();
    let mut traced = Samples::default();
    let mut tr = Tracer::new(Instant::now());
    let mut counts = LayerCounts::default();
    let deadline = Duration::from_secs_f64(cfg.seconds);
    let t0 = Instant::now();
    // Whole passes over the eight queries, so every query weighs the same in
    // the throughput whichever moment the deadline falls on.
    let mut passes = 0usize;
    // A pass starts only if it is expected to end within half a pass of the
    // deadline, so runs end close to it.
    let more = |passes: usize| {
        let elapsed = t0.elapsed();
        elapsed < deadline && (passes == 0 || elapsed + elapsed / (2 * passes as u32) < deadline)
    };
    let mut peaks = PeakWindows::start();
    let mut pass_s = Vec::new();
    while more(passes) {
        let pass_start = Instant::now();
        for (i, q) in queries.iter().enumerate() {
            // Traced runs interleave traced and untraced executions of the
            // same query, alternating which goes first.
            let modes: &[bool] = match (cfg.trace, (passes + i) % 2 == 1) {
                (false, _) => &[false],
                (true, false) => &[false, true],
                (true, true) => &[true, false],
            };
            let mut scanned = Vec::with_capacity(2);
            for &traced_mode in modes {
                let t = Instant::now();
                let outcome = if traced_mode {
                    let qid = (passes * queries.len() + i) as u64;
                    layers::run_traced(
                        &db,
                        &session,
                        &q.jsoniq,
                        strategy(q),
                        &mut tr,
                        qid,
                        &mut counts,
                    )
                    .map(|(rows, scan)| (rows, scan.bytes_scanned))
                } else {
                    run_plain(&db, &session, &q.jsoniq, strategy(q))
                };
                let latency = t.elapsed();
                if let Ok((_, bytes)) = &outcome {
                    scanned.push(*bytes);
                }
                let samples = if traced_mode {
                    &mut traced
                } else {
                    &mut untraced
                };
                record(
                    samples,
                    &mut report.problems,
                    q.id,
                    latency,
                    outcome,
                    &expected[i],
                );
            }
            // The stepwise path must scan exactly what `Database::query` scans.
            if let [a, b] = scanned[..] {
                report.outcomes.record(a == b);
                if a != b {
                    report.problem(format!(
                        "{}: traced path scanned {b} bytes, untraced {a}",
                        q.id
                    ));
                }
            }
        }
        passes += 1;
        peaks.close();
        pass_s.push(format!("{:.2}", pass_start.elapsed().as_secs_f64()));
    }
    let wall = t0.elapsed().as_secs_f64();
    report.info(format!(
        "{passes} passes in {wall:.3} s, pass seconds: {}",
        pass_s.join(" ")
    ));
    report.info(peaks.describe());
    report
        .end_to_end
        .set("peak_rss_mb", peaks.median_mb(), "MiB");

    if cfg.trace {
        let self_ns = tr.self_time_ns();
        layers::compile_metrics(&self_ns, &counts, &mut report.per_layer);
        layers::exec_metrics(&self_ns, &counts, THREADS, &mut report.per_layer);
        report.per_layer.set(
            "trace.overhead_share",
            crate::overhead_share(&untraced, &traced),
            "ratio",
        );
        crate::layer_shares(&tr, &mut report);
        crate::write_spans(cfg, &tr, &mut report);
    } else {
        untraced.loop_metrics(wall, false, &mut report.end_to_end);
        for (id, lat) in untraced.by_query() {
            let med = crate::stats::median(&lat).unwrap_or(0.0);
            report.info(format!("{id} median {med:.3} ms over {} runs", lat.len()));
        }
    }
    report.outcomes.merge(untraced.outcomes);
    report.outcomes.merge(traced.outcomes);
    Ok(report)
}
