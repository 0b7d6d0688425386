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

use crate::error::Result;
use crate::govern::QueryGovernor;
use crate::plan::{PExpr, SortKey};
use crate::sql::{BinOp, JoinKind};
use crate::storage::ScanStats;
use crate::variant::{cmp_variants, Key, Variant};

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
    /// Whether the executor may use vectorized kernels; off, every operator
    /// runs on the row-at-a-time path the kernels must match.
    pub vectorize: bool,
    /// Whether scans keep dictionary/run-length encoded blocks encoded
    /// (kernels then execute on codes where they can); off, scans decode,
    /// the baseline the encoded path must match bit for bit.
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

/// Joins two materialized chunks on one thread in row order (the executor
/// falls back to it when the ON predicate is volatile).
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

/// Compares two values under one sort key.
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
