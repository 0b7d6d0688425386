//! Plan execution: materializing operators over columnar chunks.

pub mod agg;
pub mod column;
pub mod expr;
pub mod kernel;
pub mod metrics;
pub mod pipeline;

pub use column::{Bitmap, ColumnVec};
pub use expr::{eval, truth, RowView};

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{Result, SnowError};
use crate::govern::QueryGovernor;
use crate::plan::{AggExpr, Node, NodeKind, PExpr, SortKey};
use crate::sql::{BinOp, JoinKind};
use crate::storage::ScanStats;
use crate::variant::{cmp_variants, Key, Variant};

use agg::Accumulator;

/// A fully materialized intermediate result: typed columns with validity
/// bitmaps ([`ColumnVec`]); genuinely mixed data falls back to boxed variants
/// per column.
#[derive(Clone, Debug, Default)]
pub struct Chunk {
    pub cols: Vec<ColumnVec>,
    pub rows: usize,
}

impl Chunk {
    /// An empty chunk with the given arity.
    pub fn empty(arity: usize) -> Chunk {
        Chunk { cols: vec![ColumnVec::new(); arity], rows: 0 }
    }

    /// Reads one row as a vector (used at the result boundary).
    pub fn row(&self, i: usize) -> Vec<Variant> {
        self.cols.iter().map(|c| c.get(i)).collect()
    }

    fn push_row_from(&mut self, other: &Chunk, row: usize) {
        for (dst, src) in self.cols.iter_mut().zip(&other.cols) {
            dst.push_from(src, row);
        }
        self.rows += 1;
    }

    /// Cheap memory estimate for governance accounting: typed columns are
    /// measured exactly; string/variant columns extrapolate a first-row
    /// sample over all rows. O(arity) per batch — not per-row — so the
    /// estimate costs nothing on the hot path while still catching the
    /// `ARRAY_AGG`/join blow-ups where every row carries a large nested
    /// value.
    pub fn approx_bytes(&self) -> u64 {
        self.cols.iter().map(ColumnVec::approx_bytes).sum()
    }

    /// Consumes the chunk into row vectors; boxed values are moved, typed
    /// values materialize exactly once. This is the result-boundary path;
    /// [`Chunk::row`] stays for callers that only borrow the chunk.
    pub fn into_rows(self) -> Vec<Vec<Variant>> {
        let arity = self.cols.len();
        let mut out: Vec<Vec<Variant>> =
            (0..self.rows).map(|_| Vec::with_capacity(arity)).collect();
        for col in self.cols {
            debug_assert_eq!(col.len(), out.len());
            for (row, v) in out.iter_mut().zip(col.into_variants()) {
                row.push(v);
            }
        }
        out
    }
}

/// Resolves the `SNOWDB_VECTORIZE` environment default: vectorized kernels
/// are on unless the variable is set to `0`/`false`/`off`.
pub fn vectorize_from_env() -> bool {
    match std::env::var("SNOWDB_VECTORIZE") {
        Ok(v) => !matches!(v.trim(), "0" | "false" | "FALSE" | "off" | "OFF"),
        Err(_) => true,
    }
}

/// Mutable per-query execution state.
#[derive(Debug)]
pub struct ExecCtx {
    pub stats: ScanStats,
    /// Counter backing `SEQ8()`.
    pub seq_counter: i64,
    /// Lifecycle governor for the running query: cancellation, deadline,
    /// budgets, chaos. Defaults to an unbounded governor, so ungoverned
    /// callers pay only a relaxed atomic load per batch boundary.
    pub gov: Arc<QueryGovernor>,
    /// Whether the batched executor may use vectorized kernels. The serial
    /// reference executor ignores this — it is the never-vectorizing
    /// baseline the oracle compares against.
    pub vectorize: bool,
    /// Whether batched scans keep dictionary/run-length encoded blocks
    /// encoded (kernels then execute on codes where they can). The serial
    /// reference executor ignores this too — it always decodes at the scan,
    /// making it the baseline the encoded path must match bit for bit.
    pub encode: bool,
}

impl Default for ExecCtx {
    fn default() -> ExecCtx {
        ExecCtx {
            stats: ScanStats::default(),
            seq_counter: 0,
            gov: Arc::default(),
            vectorize: vectorize_from_env(),
            encode: crate::storage::encode_from_env(),
        }
    }
}

impl ExecCtx {
    /// A context governed by `gov`; worker threads build their own contexts
    /// from the same governor so all checkpoints observe one set of limits.
    pub fn with_governor(gov: Arc<QueryGovernor>) -> ExecCtx {
        ExecCtx { gov, ..ExecCtx::default() }
    }

    /// A worker-thread context sharing `gov` and inheriting explicit
    /// vectorization/encoding choices (workers must not re-read the
    /// environment: the per-query options may override it).
    pub fn worker(gov: Arc<QueryGovernor>, vectorize: bool, encode: bool) -> ExecCtx {
        ExecCtx { gov, vectorize, encode, ..ExecCtx::default() }
    }
}

/// Executes a bound (and optimized) plan to completion.
pub fn execute(node: &Node, ctx: &mut ExecCtx) -> Result<Chunk> {
    match &node.kind {
        NodeKind::Values => Ok(Chunk { cols: Vec::new(), rows: 1 }),
        NodeKind::Scan { table, pushed, materialize } => {
            let mut cols: Vec<ColumnVec> =
                vec![ColumnVec::new(); table.schema().len()];
            let mut rows = 0usize;
            for part in table.partitions() {
                ctx.stats.partitions_total += 1;
                // Zone-map pruning: skip the partition when any pushed
                // predicate proves no row can match.
                let prunable = pushed.iter().any(|p| {
                    part.zone_map(p.col)
                        .is_some_and(|zm| !zm.may_match(p.cmp, &p.lit))
                });
                if prunable {
                    ctx.stats.partitions_pruned += 1;
                    for (i, m) in materialize.iter().enumerate() {
                        if *m {
                            ctx.stats.bytes_skipped += part.column_bytes(i);
                        }
                    }
                    continue;
                }
                ctx.stats.partitions_scanned += 1;
                ctx.stats.rows_scanned += part.row_count() as u64;
                for (i, out) in cols.iter_mut().enumerate() {
                    if materialize[i] {
                        let read = part.read_column_governed(i, &ctx.gov, "Scan")?;
                        ctx.stats.record_read(&read);
                        // Partition columns already are typed ColumnVecs — no
                        // per-value boxing. The serial executor always
                        // decodes encoded blocks here: it is the reference
                        // the encoded path is verified against.
                        out.append(read.data.decoded());
                    } else {
                        // Unreferenced columns are never read; fill with nulls
                        // to keep positional addressing intact.
                        ctx.stats.columns_skipped += 1;
                        ctx.stats.bytes_skipped += part.column_bytes(i);
                        out.push_nulls(part.row_count());
                    }
                }
                rows += part.row_count();
            }
            Ok(Chunk { cols, rows })
        }
        NodeKind::Project { input, exprs } => {
            let inp = execute(input, ctx)?;
            let mut cols: Vec<ColumnVec> =
                exprs.iter().map(|_| ColumnVec::new()).collect();
            // SEQ8() numbers rows within the projection evaluating it, starting
            // at zero. This makes row ids deterministic per plan site, so two
            // occurrences of the same subquery (the JOIN-based nested-query
            // strategy of paper §IV-C2 duplicates one) assign identical ids.
            let saved_seq = ctx.seq_counter;
            ctx.seq_counter = 0;
            for r in 0..inp.rows {
                let parts = [(&inp, r)];
                let view = RowView::new(&parts);
                for (e, out) in exprs.iter().zip(cols.iter_mut()) {
                    out.push(eval(e, view, ctx)?);
                }
                // The first SEQ8() call in each row yields the row number.
                ctx.seq_counter = r as i64 + 1;
            }
            ctx.seq_counter = saved_seq;
            Ok(Chunk { cols, rows: inp.rows })
        }
        NodeKind::Filter { input, pred } => {
            let inp = execute(input, ctx)?;
            let mut keep = Vec::with_capacity(inp.rows);
            for r in 0..inp.rows {
                let parts = [(&inp, r)];
                let v = eval(pred, RowView::new(&parts), ctx)?;
                if truth(&v)? == Some(true) {
                    keep.push(r);
                }
            }
            let cols = inp.cols.iter().map(|c| c.gather(&keep)).collect();
            Ok(Chunk { cols, rows: keep.len() })
        }
        NodeKind::Flatten { input, expr, outer } => {
            let inp = execute(input, ctx)?;
            let in_arity = inp.cols.len();
            let mut out = Chunk::empty(in_arity + 5);
            for r in 0..inp.rows {
                let parts = [(&inp, r)];
                let v = eval(expr, RowView::new(&parts), ctx)?;
                let emit = |out: &mut Chunk,
                            value: Variant,
                            index: Variant,
                            key: Variant,
                            this: Variant| {
                    for (i, col) in out.cols.iter_mut().enumerate().take(in_arity) {
                        col.push_from(&inp.cols[i], r);
                    }
                    out.cols[in_arity].push(value);
                    out.cols[in_arity + 1].push(index);
                    out.cols[in_arity + 2].push(key);
                    out.cols[in_arity + 3].push(Variant::Int(r as i64));
                    out.cols[in_arity + 4].push(this);
                    out.rows += 1;
                };
                match &v {
                    Variant::Array(items) if !items.is_empty() => {
                        for (i, item) in items.iter().enumerate() {
                            emit(
                                &mut out,
                                item.clone(),
                                Variant::Int(i as i64),
                                Variant::Null,
                                v.clone(),
                            );
                        }
                    }
                    Variant::Object(obj) if !obj.is_empty() => {
                        for (k, val) in obj.iter() {
                            emit(
                                &mut out,
                                val.clone(),
                                Variant::Null,
                                Variant::from(k),
                                v.clone(),
                            );
                        }
                    }
                    _ => {
                        if *outer {
                            emit(&mut out, Variant::Null, Variant::Null, Variant::Null, v.clone());
                        }
                    }
                }
            }
            Ok(out)
        }
        NodeKind::Aggregate { input, groups, aggs } => {
            exec_aggregate(input, groups, aggs, ctx)
        }
        NodeKind::Join { left, right, kind, on } => exec_join(left, right, *kind, on, ctx),
        NodeKind::Sort { input, keys } => exec_sort(input, keys, ctx),
        NodeKind::Limit { input, n } => {
            let inp = execute(input, ctx)?;
            let n = (*n as usize).min(inp.rows);
            let mut cols = inp.cols;
            for c in &mut cols {
                c.truncate(n);
            }
            Ok(Chunk { cols, rows: n })
        }
        NodeKind::UnionAll { left, right } => {
            let mut l = execute(left, ctx)?;
            let r = execute(right, ctx)?;
            if l.cols.len() != r.cols.len() {
                return Err(SnowError::Exec("UNION ALL arity mismatch".into()));
            }
            for (dst, src) in l.cols.iter_mut().zip(r.cols) {
                dst.append(src);
            }
            l.rows += r.rows;
            Ok(l)
        }
        NodeKind::Distinct { input } => {
            let inp = execute(input, ctx)?;
            let mut seen = std::collections::HashSet::new();
            let mut out = Chunk::empty(inp.cols.len());
            for r in 0..inp.rows {
                let key: Vec<Key> = inp.cols.iter().map(|c| c.key_at(r)).collect();
                if seen.insert(key) {
                    out.push_row_from(&inp, r);
                }
            }
            Ok(out)
        }
    }
}

fn exec_aggregate(
    input: &Node,
    groups: &[PExpr],
    aggs: &[AggExpr],
    ctx: &mut ExecCtx,
) -> Result<Chunk> {
    let inp = execute(input, ctx)?;
    // Group entries keep insertion order so results are deterministic. A
    // single-key fast path avoids the per-row Vec allocation — translated
    // nested queries group by a lone row-id column on every reaggregation.
    let single = groups.len() == 1;
    let mut index: HashMap<Vec<Key>, usize> = HashMap::new();
    let mut index1: HashMap<Key, usize> = HashMap::new();
    let mut group_vals: Vec<Vec<Variant>> = Vec::new();
    let mut states: Vec<Vec<Accumulator>> = Vec::new();

    for r in 0..inp.rows {
        let parts = [(&inp, r)];
        let view = RowView::new(&parts);
        let mut gv = Vec::with_capacity(groups.len());
        for g in groups {
            gv.push(eval(g, view, ctx)?);
        }
        let slot = if single {
            let key = Key::of(&gv[0]);
            match index1.get(&key) {
                Some(&s) => s,
                None => {
                    let s = states.len();
                    index1.insert(key, s);
                    group_vals.push(std::mem::take(&mut gv));
                    states.push(aggs.iter().map(|a| Accumulator::new(a.kind)).collect());
                    s
                }
            }
        } else {
            let key: Vec<Key> = gv.iter().map(Key::of).collect();
            match index.get(&key) {
                Some(&s) => s,
                None => {
                    let s = states.len();
                    index.insert(key, s);
                    group_vals.push(std::mem::take(&mut gv));
                    states.push(aggs.iter().map(|a| Accumulator::new(a.kind)).collect());
                    s
                }
            }
        };
        for (a, st) in aggs.iter().zip(states[slot].iter_mut()) {
            let v = match &a.arg {
                Some(e) => eval(e, view, ctx)?,
                None => Variant::Null,
            };
            match &a.arg2 {
                Some(k) => {
                    let kv = eval(k, view, ctx)?;
                    st.update2(&v, &kv)?;
                }
                None => st.update(&v)?,
            }
        }
    }

    // Global aggregation over zero rows still yields one row.
    if groups.is_empty() && states.is_empty() {
        group_vals.push(Vec::new());
        states.push(aggs.iter().map(|a| Accumulator::new(a.kind)).collect());
    }

    let n_out = group_vals.len();
    let mut cols: Vec<ColumnVec> =
        vec![ColumnVec::new(); groups.len() + aggs.len()];
    for (gv, st) in group_vals.into_iter().zip(states) {
        for (i, v) in gv.into_iter().enumerate() {
            cols[i].push(v);
        }
        for (j, acc) in st.into_iter().enumerate() {
            cols[groups.len() + j].push(acc.finish());
        }
    }
    Ok(Chunk { cols, rows: n_out })
}

/// Splits an ON predicate into equi-join pairs and a residual.
fn split_join_on(
    on: &PExpr,
    left_arity: usize,
) -> (Vec<(PExpr, PExpr)>, Vec<PExpr>) {
    fn conjuncts(e: &PExpr, out: &mut Vec<PExpr>) {
        if let PExpr::Binary { left, op: BinOp::And, right } = e {
            conjuncts(left, out);
            conjuncts(right, out);
        } else {
            out.push(e.clone());
        }
    }
    fn side(e: &PExpr, left_arity: usize) -> Option<bool> {
        // Some(true) = uses only left columns, Some(false) = only right,
        // None = mixed or no columns.
        let mut cols = Vec::new();
        e.collect_cols(&mut cols);
        if cols.is_empty() {
            return None;
        }
        let all_left = cols.iter().all(|&c| c < left_arity);
        let all_right = cols.iter().all(|&c| c >= left_arity);
        match (all_left, all_right) {
            (true, _) => Some(true),
            (_, true) => Some(false),
            _ => None,
        }
    }
    let mut cs = Vec::new();
    conjuncts(on, &mut cs);
    let mut equi = Vec::new();
    let mut residual = Vec::new();
    for c in cs {
        if let PExpr::Binary { left, op: BinOp::Eq, right } = &c {
            match (side(left, left_arity), side(right, left_arity)) {
                (Some(true), Some(false)) => {
                    equi.push((*left.clone(), shift(right, left_arity)));
                    continue;
                }
                (Some(false), Some(true)) => {
                    equi.push((*right.clone(), shift(left, left_arity)));
                    continue;
                }
                _ => {}
            }
        }
        residual.push(c);
    }
    (equi, residual)
}

/// Rewrites column indices of a right-side expression to be relative to the
/// right input.
fn shift(e: &PExpr, left_arity: usize) -> PExpr {
    let mut cols = Vec::new();
    e.collect_cols(&mut cols);
    let max = cols.iter().max().copied().unwrap_or(0);
    let subs: Vec<PExpr> = (0..=max)
        .map(|i| PExpr::Col(i.saturating_sub(left_arity)))
        .collect();
    e.substitute(&subs)
}

fn exec_join(
    left: &Node,
    right: &Node,
    kind: JoinKind,
    on: &Option<PExpr>,
    ctx: &mut ExecCtx,
) -> Result<Chunk> {
    let l = execute(left, ctx)?;
    let r = execute(right, ctx)?;
    join_chunks(&l, &r, kind, on, ctx)
}

/// Joins two materialized chunks (the serial reference implementation; the
/// batched executor falls back to it when the ON predicate is volatile).
fn join_chunks(
    l: &Chunk,
    r: &Chunk,
    kind: JoinKind,
    on: &Option<PExpr>,
    ctx: &mut ExecCtx,
) -> Result<Chunk> {
    let la = l.cols.len();
    let ra = r.cols.len();
    let mut out = Chunk::empty(la + ra);

    let (equi, residual) = match on {
        Some(e) => split_join_on(e, la),
        None => (Vec::new(), Vec::new()),
    };

    let residual_ok = |out_ctx: &mut ExecCtx, lr: usize, rr: usize| -> Result<bool> {
        for e in &residual {
            let parts = [(l, lr), (r, rr)];
            let v = eval(e, RowView::new(&parts), out_ctx)?;
            if truth(&v)? != Some(true) {
                return Ok(false);
            }
        }
        Ok(true)
    };

    let emit = |out: &mut Chunk, lr: usize, rr: Option<usize>| {
        for (i, col) in out.cols.iter_mut().enumerate().take(la) {
            col.push_from(&l.cols[i], lr);
        }
        for (i, col) in out.cols.iter_mut().enumerate().skip(la) {
            match rr {
                Some(rr) => col.push_from(&r.cols[i - la], rr),
                None => col.push_null(),
            }
        }
        out.rows += 1;
    };
    debug_assert!(ra + la == out.cols.len());

    if equi.is_empty() {
        // Nested-loop join for cross joins and non-equi conditions.
        for lr in 0..l.rows {
            let mut matched = false;
            for rr in 0..r.rows {
                if residual_ok(ctx, lr, rr)? {
                    emit(&mut out, lr, Some(rr));
                    matched = true;
                }
            }
            if kind == JoinKind::LeftOuter && !matched {
                emit(&mut out, lr, None);
            }
        }
        return Ok(out);
    }

    // Hash join: build on the right side.
    let mut table: HashMap<Vec<Key>, Vec<usize>> = HashMap::new();
    for rr in 0..r.rows {
        let parts = [(r, rr)];
        let view = RowView::new(&parts);
        let mut key = Vec::with_capacity(equi.len());
        let mut has_null = false;
        for (_, rk) in &equi {
            let v = eval(rk, view, ctx)?;
            if v.is_null() {
                has_null = true;
                break;
            }
            key.push(Key::of(&v));
        }
        // NULL keys never match in SQL equality.
        if !has_null {
            table.entry(key).or_default().push(rr);
        }
    }
    for lr in 0..l.rows {
        let parts = [(l, lr)];
        let view = RowView::new(&parts);
        let mut key = Vec::with_capacity(equi.len());
        let mut has_null = false;
        for (lk, _) in &equi {
            let v = eval(lk, view, ctx)?;
            if v.is_null() {
                has_null = true;
                break;
            }
            key.push(Key::of(&v));
        }
        let mut matched = false;
        if !has_null {
            if let Some(rows) = table.get(&key) {
                for &rr in rows {
                    if residual_ok(ctx, lr, rr)? {
                        emit(&mut out, lr, Some(rr));
                        matched = true;
                    }
                }
            }
        }
        if kind == JoinKind::LeftOuter && !matched {
            emit(&mut out, lr, None);
        }
    }
    Ok(out)
}

/// Compares two values under one sort key (shared by the serial and batched
/// sort implementations so their orders are identical).
fn cmp_sort_values(k: &SortKey, va: &Variant, vb: &Variant) -> std::cmp::Ordering {
    // Explicit NULL placement overrides the natural order.
    let nulls_first = k.nulls_first.unwrap_or(k.desc);
    match (va.is_null(), vb.is_null()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => {
            if nulls_first {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Greater
            }
        }
        (false, true) => {
            if nulls_first {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Less
            }
        }
        (false, false) => {
            let base = cmp_variants(va, vb);
            if k.desc {
                base.reverse()
            } else {
                base
            }
        }
    }
}

fn exec_sort(input: &Node, keys: &[SortKey], ctx: &mut ExecCtx) -> Result<Chunk> {
    let inp = execute(input, ctx)?;
    // Evaluate all keys up front.
    let mut key_cols: Vec<Vec<Variant>> = Vec::with_capacity(keys.len());
    for k in keys {
        let mut col = Vec::with_capacity(inp.rows);
        for r in 0..inp.rows {
            let parts = [(&inp, r)];
            col.push(eval(&k.expr, RowView::new(&parts), ctx)?);
        }
        key_cols.push(col);
    }
    let mut order: Vec<usize> = (0..inp.rows).collect();
    order.sort_by(|&a, &b| {
        for (k, col) in keys.iter().zip(&key_cols) {
            let c = cmp_sort_values(k, &col[a], &col[b]);
            if c != std::cmp::Ordering::Equal {
                return c;
            }
        }
        std::cmp::Ordering::Equal
    });
    let cols = inp.cols.iter().map(|c| c.gather(&order)).collect();
    Ok(Chunk { cols, rows: inp.rows })
}
