//! The traced query path: each layer's public function called in turn, one
//! span per call, instead of `Translator::translate` + `Database::query`.
//!
//! The chain is `parse` → `rewrite` → `itertree::build` → `translate_iter`
//! (+ `DataFrame::sql`) → `parse_query` → `bind_query` → `optimize` →
//! `lower` → `ExecCtx::worker` + `execute_physical` → `Chunk::into_rows`,
//! with the engine's own thread, vectorize and encode defaults. It returns
//! the same rows and scan statistics as `Database::query`.

use std::collections::BTreeMap;
use std::sync::Arc;

use jsoniq_core::snowflake::{NestedStrategy, Translator};
use snowdb::exec::{pipeline, vectorize_from_env, ExecCtx};
use snowdb::plan::{bind_query, physical, Node};
use snowdb::storage::{encode_from_env, ScanStats};
use snowdb::{Database, OpMetrics, QueryGovernor, Variant};
use snowpark::Session;

use crate::report::Metrics;
use crate::trace::Tracer;

/// Span names, in chain order. The root span of each query is `QUERY`.
pub const QUERY: &str = "query";
pub const JSONIQ_LAYERS: [&str; 4] = [
    "jsoniq.parse",
    "jsoniq.rewrite",
    "jsoniq.itertree",
    "jsoniq.translate",
];
pub const COMPILE_LAYERS: [&str; 4] = ["sql.parse", "plan.bind", "optimize", "plan.lower"];
pub const EXEC: &str = "exec";
pub const RESULT_ROWS: &str = "result.rows";

/// Operator categories of `exec.*_ms`, by `OpMetrics` label.
const OP_KINDS: [&str; 8] = [
    "scan",
    "filter",
    "project",
    "flatten",
    "aggregate",
    "join",
    "sort",
    "other",
];

fn op_kind(name: &str) -> usize {
    match name {
        n if n.starts_with("Scan") => 0,
        "Filter" => 1,
        "Project" => 2,
        "Flatten" => 3,
        "Aggregate" => 4,
        n if n.ends_with("Join") => 5,
        "Sort" => 6,
        _ => 7,
    }
}

/// Counts taken at the layer boundaries, summed over traced queries.
#[derive(Clone, Debug, Default)]
pub struct LayerCounts {
    /// Traced queries that reached translation.
    pub queries: u64,
    pub iterators: u64,
    pub sql_bytes: u64,
    pub plan_nodes: u64,
    pub plan_ops: u64,
    /// Queries executed in this process (so with operator metrics).
    pub executed: u64,
    pub busy_ns: [u64; 8],
    pub rows_out: u64,
    pub rows_vectorized: u64,
    pub rows_fallback: u64,
    pub rows_on_codes: u64,
    pub rows_materialized: u64,
    /// Largest operator peak memory estimate of any query.
    pub peak_mem_bytes: u64,
    pub result_rows: u64,
    pub scan: ScanStats,
}

impl LayerCounts {
    /// Adds another tracer's counts (one per client thread) into these.
    pub fn merge(&mut self, o: &LayerCounts) {
        self.queries += o.queries;
        self.iterators += o.iterators;
        self.sql_bytes += o.sql_bytes;
        self.plan_nodes += o.plan_nodes;
        self.plan_ops += o.plan_ops;
        self.executed += o.executed;
        for (a, b) in self.busy_ns.iter_mut().zip(o.busy_ns) {
            *a += b;
        }
        self.rows_out += o.rows_out;
        self.rows_vectorized += o.rows_vectorized;
        self.rows_fallback += o.rows_fallback;
        self.rows_on_codes += o.rows_on_codes;
        self.rows_materialized += o.rows_materialized;
        self.peak_mem_bytes = self.peak_mem_bytes.max(o.peak_mem_bytes);
        self.result_rows += o.result_rows;
        self.scan.merge(&o.scan);
    }

    fn add_ops(&mut self, m: &OpMetrics) {
        self.busy_ns[op_kind(&m.name)] += m.busy.as_nanos() as u64;
        self.rows_out += m.rows_out;
        self.rows_vectorized += m.rows_vectorized;
        self.rows_fallback += m.rows_fallback;
        self.rows_on_codes += m.rows_on_codes;
        self.rows_materialized += m.rows_materialized;
        self.peak_mem_bytes = self.peak_mem_bytes.max(m.peak_mem_bytes);
        for c in &m.children {
            self.add_ops(c);
        }
    }
}

/// Runs the JSONiq front end stepwise and returns the SQL text.
pub fn translate_traced(
    session: &Session,
    jsoniq: &str,
    strategy: NestedStrategy,
    tr: &mut Tracer,
    qid: u64,
    root: usize,
    counts: &mut LayerCounts,
) -> Result<String, String> {
    let [parse, rewrite, itertree, translate] = JSONIQ_LAYERS;
    let module = tr
        .span(parse, qid, root, || jsoniq_core::parse(jsoniq))
        .map_err(|e| e.to_string())?;
    let expr = tr
        .span(rewrite, qid, root, || jsoniq_core::expr::rewrite(&module))
        .map_err(|e| e.to_string())?;
    let it = tr
        .span(itertree, qid, root, || jsoniq_core::itertree::build(&expr))
        .map_err(|e| e.to_string())?;
    let sql = tr
        .span(translate, qid, root, || {
            Translator::new(session.clone(), strategy)
                .translate_iter(&it)
                .map(|df| df.sql().to_string())
        })
        .map_err(|e| e.to_string())?;
    counts.queries += 1;
    counts.iterators += it.counts().total() as u64;
    counts.sql_bytes += sql.len() as u64;
    Ok(sql)
}

/// Compiles SQL stepwise (parse, bind on a fresh snapshot, optimize) and
/// lowers it for `threads` workers, counting plan nodes and operators.
/// Calls `then` with the physical plan, since it borrows the logical one.
pub fn compile_traced<T>(
    db: &Database,
    sql: &str,
    tr: &mut Tracer,
    qid: u64,
    root: usize,
    counts: &mut LayerCounts,
    then: impl FnOnce(&physical::PhysNode<'_>, &mut Tracer, &mut LayerCounts) -> T,
) -> Result<T, String> {
    let [parse, bind, optimize, lower] = COMPILE_LAYERS;
    let ast = tr
        .span(parse, qid, root, || snowdb::sql::parse_query(sql))
        .map_err(|e| e.to_string())?;
    let bound = tr
        .span(bind, qid, root, || bind_query(&ast, &*db.snapshot()))
        .map_err(|e| e.to_string())?;
    let plan: Node = tr
        .span(optimize, qid, root, || snowdb::optimize::optimize(bound))
        .map_err(|e| e.to_string())?;
    let threads = db.effective_threads();
    let phys = tr.span(lower, qid, root, || physical::lower(&plan, threads));
    counts.plan_nodes += plan.node_count() as u64;
    counts.plan_ops += phys.op_count() as u64;
    Ok(then(&phys, tr, counts))
}

/// One traced embedded execution of a JSONiq query, from text to rows.
pub fn run_traced(
    db: &Database,
    session: &Session,
    jsoniq: &str,
    strategy: NestedStrategy,
    tr: &mut Tracer,
    qid: u64,
    counts: &mut LayerCounts,
) -> Result<(Vec<Vec<Variant>>, ScanStats), String> {
    let root = tr.begin(QUERY, qid, None);
    let out = translate_traced(session, jsoniq, strategy, tr, qid, root, counts).and_then(|sql| {
        compile_traced(db, &sql, tr, qid, root, counts, |phys, tr, counts| {
            let (batches, stats) = tr.span(EXEC, qid, root, || {
                let gov = Arc::new(QueryGovernor::from_params(&db.session_params()));
                let mut ctx = ExecCtx::worker(gov, vectorize_from_env(), encode_from_env());
                let batches = pipeline::execute_physical(phys, &mut ctx);
                (batches, ctx.stats)
            });
            let batches = batches.map_err(|e| e.to_string())?;
            let rows = tr.span(RESULT_ROWS, qid, root, || {
                let mut rows = Vec::with_capacity(pipeline::total_rows(&batches));
                for chunk in batches {
                    rows.extend(chunk.into_rows());
                }
                rows
            });
            counts.executed += 1;
            counts.add_ops(&phys.snapshot());
            counts.result_rows += rows.len() as u64;
            counts.scan.merge(&stats);
            Ok((rows, stats))
        })?
    });
    tr.end(root);
    out
}

fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// `part ÷ whole`, 0 when `whole` is 0.
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// Front-end and compile metrics: self time per query of every span of the
/// JSONiq and SQL compile layers, plus the counts taken beside them.
pub fn compile_metrics(self_ns: &BTreeMap<&str, u64>, c: &LayerCounts, m: &mut Metrics) {
    let ms = |name: &str| {
        per(
            self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6,
            c.queries,
        )
    };
    m.set("jsoniq.parse_ms", ms("jsoniq.parse"), "ms");
    m.set("jsoniq.rewrite_ms", ms("jsoniq.rewrite"), "ms");
    m.set("jsoniq.itertree_ms", ms("jsoniq.itertree"), "ms");
    m.set("jsoniq.translate_ms", ms("jsoniq.translate"), "ms");
    m.set(
        "jsoniq.iterators",
        per(c.iterators as f64, c.queries),
        "count",
    );
    m.set(
        "snowpark.sql_bytes",
        per(c.sql_bytes as f64, c.queries),
        "bytes",
    );
    m.set("sql.parse_ms", ms("sql.parse"), "ms");
    m.set("plan.bind_ms", ms("plan.bind"), "ms");
    m.set("optimize.ms", ms("optimize"), "ms");
    m.set("plan.lower_ms", ms("plan.lower"), "ms");
    m.set("plan.nodes", per(c.plan_nodes as f64, c.queries), "count");
    m.set("plan.ops", per(c.plan_ops as f64, c.queries), "count");
}

/// Executor, result-boundary and storage metrics of queries executed in
/// this process with `threads` workers.
pub fn exec_metrics(
    self_ns: &BTreeMap<&str, u64>,
    c: &LayerCounts,
    threads: usize,
    m: &mut Metrics,
) {
    let n = c.executed;
    let wall_ns = self_ns.get(EXEC).copied().unwrap_or(0);
    m.set("exec.wall_ms", per(wall_ns as f64 / 1e6, n), "ms");
    for (i, kind) in OP_KINDS.iter().enumerate() {
        m.set_owned(
            format!("exec.{kind}_ms"),
            per(c.busy_ns[i] as f64 / 1e6, n),
            "ms",
        );
    }
    m.set("exec.rows_out", per(c.rows_out as f64, n), "count");
    m.set(
        "exec.vectorized_share",
        share(c.rows_vectorized, c.rows_vectorized + c.rows_fallback),
        "ratio",
    );
    m.set(
        "exec.on_codes_share",
        share(c.rows_on_codes, c.rows_on_codes + c.rows_materialized),
        "ratio",
    );
    m.set("exec.peak_mem_mb", c.peak_mem_bytes as f64 / MIB, "MiB");
    let busy: u64 = c.busy_ns.iter().sum();
    m.set(
        "exec.parallel_efficiency",
        share(busy, wall_ns * threads as u64),
        "ratio",
    );
    m.set(
        "result.rows_ms",
        per(
            self_ns.get(RESULT_ROWS).copied().unwrap_or(0) as f64 / 1e6,
            n,
        ),
        "ms",
    );
    m.set("result.rows", per(c.result_rows as f64, n), "count");
    m.set(
        "storage.scanned_mb",
        per(c.scan.bytes_scanned as f64 / MIB, n),
        "MiB",
    );
    m.set(
        "storage.rows_scanned",
        per(c.scan.rows_scanned as f64, n),
        "count",
    );
    m.set(
        "storage.pruned_share",
        share(c.scan.partitions_pruned, c.scan.partitions_total),
        "ratio",
    );
    m.set(
        "storage.columns_skipped",
        per(c.scan.columns_skipped as f64, n),
        "count",
    );
}

/// Buffer-cache metrics of the queries executed in this process.
pub fn cache_metrics(c: &LayerCounts, m: &mut Metrics) {
    let hits = c.scan.cache_hits;
    m.set(
        "store.cache_hit_ratio",
        share(hits, hits + c.scan.cache_misses),
        "ratio",
    );
    m.set(
        "store.cache_evictions",
        per(c.scan.cache_evictions as f64, c.executed),
        "count",
    );
}
