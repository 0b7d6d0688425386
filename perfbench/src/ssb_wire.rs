//! `ssb-wire`: the thirteen SSB queries (JSONiq formulation, flag-column
//! strategy) over SSB persisted and reopened through `Database::open`,
//! served by `snowdb::serve` on loopback. Two `Client` connections run
//! closed loops; each translates on its own side and ships SQL text — the
//! paper's Snowpark-client → warehouse shape.
//!
//! This is flat relational work (joins, dictionary kernels, join ordering,
//! the front end, admission and the wire codec) with no `FLATTEN`. The
//! default 64 MiB buffer cache holds the whole working set, so every scan
//! hits once the expected answers have been computed.

use std::sync::Arc;
use std::time::{Duration, Instant};

use jsoniq_core::snowflake::{NestedStrategy, Translator};
use snowdb::server::client::{Client, RemoteOutcome};
use snowdb::variant::Object;
use snowdb::{Database, ServerConfig, ServerHandle, SnowError, Variant};
use snowpark::Session;
use ssb::{SsbConfig, SsbQuery};

use crate::layers::{self, LayerCounts};
use crate::report::{Metrics, Report, Samples};
use crate::trace::Tracer;
use crate::{record, repeated_setup, Config, Outcome, THREADS};

const CLIENTS: usize = 2;
const SERVER_ROUNDTRIP: &str = "server.roundtrip";
/// Embedded stepwise executions per query after a traced wire loop, which
/// supply the executor metrics `RESULT_DONE` does not carry.
const EMBEDDED_REPS: usize = 3;

/// A served database with its connected clients.
struct Served {
    db: Arc<Database>,
    server: Option<ServerHandle>,
    clients: Vec<Client>,
    dir: std::path::PathBuf,
}

impl Drop for Served {
    fn drop(&mut self) {
        for c in self.clients.drain(..) {
            c.goodbye();
        }
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn setup(cfg: &Config, ssb_cfg: &SsbConfig, i: usize) -> Result<Served, String> {
    let staged = Database::new();
    ssb::load_ssb(&staged, ssb_cfg);
    let dir = crate::fresh_dir(cfg, &format!("db{i}"))?;
    staged.persist_to(&dir).map_err(|e| e.to_string())?;
    drop(staged);
    let db = Database::open(&dir).map_err(|e| e.to_string())?;
    db.set_threads(Some(THREADS));
    let db = Arc::new(db);
    let server = snowdb::serve(db.clone(), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| e.to_string())?;
    let mut served = Served {
        db,
        server: None,
        clients: Vec::new(),
        dir,
    };
    let addr = server.addr();
    served.server = Some(server);
    for _ in 0..CLIENTS {
        served
            .clients
            .push(Client::connect(addr).map_err(|e| e.to_string())?);
    }
    Ok(served)
}

/// Handwritten SQL rows wrapped into objects with the query's keys. With no
/// matching rows the JSONiq group-by yields no groups where the SQL global
/// aggregate yields one NULL row; that row is dropped.
fn expected_answer(db: &Database, q: &SsbQuery) -> Result<Vec<Variant>, String> {
    let rows = db
        .query(&q.sql)
        .map_err(|e| format!("{} handwritten SQL: {e}", q.id))?
        .rows;
    let wrapped = rows
        .into_iter()
        .map(|row| {
            let mut o = Object::with_capacity(q.keys.len());
            for (k, v) in q.keys.iter().zip(row) {
                o.insert(*k, v);
            }
            vec![Variant::object(o)]
        })
        .filter(|r| q.keys != ["revenue"] || !r[0].get_field("revenue").is_null())
        .collect();
    Ok(crate::first_column_sorted(wrapped))
}

/// Server-side figures of one wire execution.
#[derive(Clone, Copy, Debug, Default)]
struct Wire {
    executions: u64,
    engine_us: u64,
    queued_ms: u64,
    roundtrip_ns: u64,
    rejected: u64,
}

/// Ships `sql` and waits for the last row.
fn execute(client: &mut Client, sql: &str, wire: &mut Wire) -> Outcome {
    let t = Instant::now();
    match client.execute(sql) {
        Ok(RemoteOutcome::Rows(r)) => {
            wire.executions += 1;
            wire.engine_us += r.done.compile_us + r.done.exec_us;
            wire.queued_ms += r.done.queued_ms;
            wire.roundtrip_ns += t.elapsed().as_nanos() as u64;
            Ok((r.rows, r.done.bytes_scanned))
        }
        Ok(RemoteOutcome::Message(m)) => Err(format!("expected rows, got message {m:?}")),
        Err(e) => {
            if matches!(e, SnowError::Rejected(_)) {
                wire.rejected += 1;
            }
            Err(e.to_string())
        }
    }
}

/// What one client thread produced.
#[derive(Default)]
struct ClientRun {
    untraced: Samples,
    traced: Samples,
    problems: Vec<String>,
    wire: Wire,
    counts: LayerCounts,
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    c: usize,
    client: &mut Client,
    session: &Session,
    db: &Database,
    queries: &[SsbQuery],
    expected: &[Vec<Variant>],
    cfg: &Config,
    t0: Instant,
    tr: &mut Tracer,
) -> ClientRun {
    let mut run = ClientRun::default();
    let deadline = Duration::from_secs_f64(cfg.seconds);
    // Clients start at different queries so the mix is interleaved.
    let mut n = c * queries.len() / CLIENTS;
    while t0.elapsed() < deadline {
        let i = n % queries.len();
        let q = &queries[i];
        let traced_mode = cfg.trace && (n / queries.len() + i) % 2 == 1;
        let t = Instant::now();
        let outcome = if traced_mode {
            let qid = ((c as u64) << 32) | n as u64;
            let root = tr.begin(layers::QUERY, qid, None);
            let out = layers::translate_traced(
                session,
                &q.jsoniq,
                NestedStrategy::FlagColumn,
                tr,
                qid,
                root,
                &mut run.counts,
            )
            .and_then(|sql| {
                // Client-side compile split: the server compiles again.
                layers::compile_traced(db, &sql, tr, qid, root, &mut run.counts, |_, _, _| ())?;
                let rt = tr.begin(SERVER_ROUNDTRIP, qid, Some(root));
                let out = execute(client, &sql, &mut run.wire);
                tr.end(rt);
                out
            });
            tr.end(root);
            out
        } else {
            Translator::new(session.clone(), NestedStrategy::FlagColumn)
                .translate(&q.jsoniq)
                .map_err(|e| e.to_string())
                .and_then(|df| execute(client, df.sql(), &mut run.wire))
        };
        let latency = t.elapsed();
        let samples = if traced_mode {
            &mut run.traced
        } else {
            &mut run.untraced
        };
        record(
            samples,
            &mut run.problems,
            q.id,
            latency,
            outcome,
            &expected[i],
        );
        n += 1;
    }
    run
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let ssb_cfg = SsbConfig {
        lineorders: cfg.lineorders,
        seed: cfg.seed,
        ..SsbConfig::default()
    };
    let mut served = repeated_setup(&mut report, |i| setup(cfg, &ssb_cfg, i))?;
    let db = served.db.clone();
    let session = Session::new(db.clone());
    let queries = ssb::queries();
    let expected = queries
        .iter()
        .map(|q| expected_answer(&db, q))
        .collect::<Result<Vec<_>, _>>()?;
    let cache = db.store().expect("opened from disk").cache_stats();
    report.info(format!(
        "SSB lineorders {} (seed {}), persisted and reopened; buffer cache {:.1} MiB holding \
         {:.1} MiB decoded after the expected answers; {CLIENTS} wire clients, closed loops",
        ssb_cfg.lineorders,
        ssb_cfg.seed,
        cache.capacity_bytes as f64 / (1024.0 * 1024.0),
        cache.used_bytes as f64 / (1024.0 * 1024.0),
    ));

    let t0 = Instant::now();
    let (runs, peaks) = std::thread::scope(|s| {
        let sampler = s.spawn(|| crate::rss::sample_until(t0, cfg.seconds));
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (session, db, queries, expected) = (&session, &db, &queries, &expected);
                s.spawn(move || {
                    let mut tr = Tracer::new(t0);
                    let run =
                        client_loop(c, client, session, db, queries, expected, cfg, t0, &mut tr);
                    (run, tr)
                })
            })
            .collect();
        let runs: Vec<(ClientRun, Tracer)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (runs, sampler.join().expect("RSS sampler panicked"))
    });
    report.info(peaks.describe());
    report
        .end_to_end
        .set("peak_rss_mb", peaks.median_mb(), "MiB");
    let wall = t0.elapsed().as_secs_f64();

    let mut untraced = Samples::default();
    let mut traced = Samples::default();
    let mut wire = Wire::default();
    let mut counts = LayerCounts::default();
    let mut tr = Tracer::new(t0);
    for (run, t) in runs {
        untraced.extend(run.untraced);
        traced.extend(run.traced);
        report.problems.extend(run.problems);
        wire.executions += run.wire.executions;
        wire.engine_us += run.wire.engine_us;
        wire.queued_ms += run.wire.queued_ms;
        wire.roundtrip_ns += run.wire.roundtrip_ns;
        wire.rejected += run.wire.rejected;
        counts.merge(&run.counts);
        tr.absorb(t);
    }
    report.info(format!(
        "{} executions in {wall:.3} s",
        untraced.ok.len() + traced.ok.len()
    ));
    report.outcomes = untraced.outcomes;
    report.outcomes.merge(traced.outcomes);

    if cfg.trace {
        let self_ns = tr.self_time_ns();
        layers::compile_metrics(&self_ns, &counts, &mut report.per_layer);
        server_metrics(&wire, &mut report.per_layer);
        report.per_layer.set(
            "trace.overhead_share",
            crate::overhead_share(&untraced, &traced),
            "ratio",
        );
        crate::layer_shares(&tr, &mut report);
        let embedded = embedded_pass(&db, &session, &queries, &expected, t0, &mut report)?;
        report.per_layer.extend(embedded);
        crate::write_spans(cfg, &tr, &mut report);
    } else {
        untraced.loop_metrics(wall, true, &mut report.end_to_end);
    }
    Ok(report)
}

/// Engine, queue and wire time per wire execution (traced and untraced ship
/// the same SQL the same way). The wire share is the client round trip less
/// what the server reports for compile + execute and admission queueing:
/// framing, socket and scheduling delays.
fn server_metrics(w: &Wire, m: &mut Metrics) {
    let n = w.executions.max(1) as f64;
    let engine_ms = w.engine_us as f64 / 1e3 / n;
    let queue_ms = w.queued_ms as f64 / n;
    let roundtrip_ms = w.roundtrip_ns as f64 / 1e6 / n;
    m.set("server.engine_ms", engine_ms, "ms");
    m.set("server.queue_ms", queue_ms, "ms");
    m.set("server.wire_ms", roundtrip_ms - engine_ms - queue_ms, "ms");
    m.set("server.rejected", w.rejected as f64, "count");
}

/// `RESULT_DONE` carries no operator metrics, so the executor, result and
/// storage layers of `ssb-wire` come from stepwise embedded executions of
/// the same queries on the served database, after the wire loop.
fn embedded_pass(
    db: &Database,
    session: &Session,
    queries: &[SsbQuery],
    expected: &[Vec<Variant>],
    epoch: Instant,
    report: &mut Report,
) -> Result<Metrics, String> {
    let mut tr = Tracer::new(epoch);
    let mut counts = LayerCounts::default();
    let mut samples = Samples::default();
    for rep in 0..EMBEDDED_REPS {
        for (i, q) in queries.iter().enumerate() {
            let qid = (1 << 48) | (rep * queries.len() + i) as u64;
            let t = Instant::now();
            let out = layers::run_traced(
                db,
                session,
                &q.jsoniq,
                NestedStrategy::FlagColumn,
                &mut tr,
                qid,
                &mut counts,
            )
            .map(|(rows, scan)| (rows, scan.bytes_scanned));
            record(
                &mut samples,
                &mut report.problems,
                q.id,
                t.elapsed(),
                out,
                &expected[i],
            );
        }
    }
    report.outcomes.merge(samples.outcomes);
    let mut m = Metrics::default();
    layers::exec_metrics(&tr.self_time_ns(), &counts, db.effective_threads(), &mut m);
    layers::cache_metrics(&counts, &mut m);
    Ok(m)
}
