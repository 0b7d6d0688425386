//! Morsel-parallel batched execution: the engine's only executor. It runs a
//! lowered [`PhysNode`] tree as a partition-parallel pipeline:
//!
//! - every operator produces an ordered list of batches (≤ [`BATCH_ROWS`]
//!   rows each) instead of one whole-table chunk;
//! - `Scan → Filter → Project` chains are *fused*: each worker claims a
//!   micro-partition from the work-stealing [`crate::storage::morsel`]
//!   dispatcher, materializes it in batches, and pushes each batch through
//!   the fused stages before claiming more work;
//! - filter/project/flatten over non-scan inputs map over batches in
//!   parallel; aggregate, join and sort are pipeline breakers that build
//!   thread-local partial state merged at the barrier;
//! - every operator updates the [`OpMetricsCell`] of its
//!   [`PhysNode`](crate::plan::physical::PhysNode), producing the
//!   per-operator metrics tree reported in
//!   [`QueryProfile`](crate::engine::QueryProfile).
//!
//! # Determinism contract
//!
//! Parallel execution must be *byte-identical* to serial (one-thread,
//! row-order) execution:
//!
//! - all merges happen in partition/batch index order (the dispatcher hands
//!   out indices, results are reassembled sorted by index);
//! - `SEQ8()` gets its counter base per batch from a prefix sum over the
//!   input batch row counts, so row ids match the serial row order exactly;
//!   the same prefix-sum scheme gives `FLATTEN`'s `SEQ` column its parent row
//!   index;
//! - aggregate partials merge in batch order ([`Accumulator::merge`]), which
//!   preserves first-seen group order and first-among-ties semantics;
//!   `SUM`/`AVG` fold serially over the ordered batches because float
//!   addition is not associative;
//! - when several batches fail, the error with the lowest batch index wins —
//!   the one serial execution would have reported;
//! - volatile expressions outside projections (a `SEQ8()` in a filter or join
//!   condition) run on one thread in row order;
//! - the root of a shared subplan runs once per query and every reference
//!   reads its spooled batches, so all references see the same row ids.
//!
//! # Vectorized execution
//!
//! Batches are columnar ([`ColumnVec`]), and when `ctx.vectorize` is on
//! (default; `SNOWDB_VECTORIZE=0` disables) each operator first offers its
//! expressions to the typed kernels in [`super::kernel`]. Kernels only accept
//! *infallible* expression shapes, so a successful vectorized evaluation is
//! value-identical to the serial row loop; everything else — and every row of
//! a batch whose expressions decline — runs on the row-at-a-time Variant
//! path. Both outcomes are counted per operator (`rows_vectorized` /
//! `rows_fallback`, rendered as `vec=` by `EXPLAIN ANALYZE`).
//!
//! When `ctx.encode` is on, scans hand encoded (dictionary / run-length)
//! blocks into the pipeline unchanged and the kernels evaluate
//! equality/`IN` filters and group keys directly on dictionary codes,
//! materializing strings only at operator boundaries that need them. Rows
//! evaluated on codes vs. materialized are counted per operator
//! (`rows_on_codes` / `rows_materialized`, rendered as `enc=` by
//! `EXPLAIN ANALYZE`).

use std::collections::HashMap;
use std::time::Instant;

use crate::error::{Result, SnowError};
use crate::plan::physical::{PhysNode, Spool, Spooled};
use crate::plan::{AggExpr, AggKind, NodeKind, PExpr, SortKey};
use crate::sql::JoinKind;
use crate::storage::morsel::try_parallel_indexed_governed;
use crate::variant::{Key, Variant};

use super::agg::{column_eligible, Accumulator};
use super::column::ColumnVec;
use super::kernel::{eval_vec, eval_vec_counted, mask_keep};
use super::metrics::OpMetricsCell;
use super::{
    cmp_sort_values, eval, join_chunks, split_join_on, truth, Chunk, ExecCtx, RowView,
};

/// Target rows per batch. Matches the default micro-partition size so a
/// partition usually maps to one batch.
pub const BATCH_ROWS: usize = 4096;

/// Executes a physical plan to completion, returning the ordered batch list.
///
/// Scan statistics accumulate into `ctx.stats` (per-worker stats are summed
/// in partition order, so `bytes_scanned` and partition counts are identical
/// for any thread count).
///
/// The root of a shared subplan runs once: its first reference executes the
/// operator and fills the [`Spool`], and every reference (the first
/// included) takes its batches from there.
pub fn execute_physical(p: &PhysNode<'_>, ctx: &mut ExecCtx) -> Result<Vec<Chunk>> {
    match &p.spool {
        None => execute_operator(p, ctx),
        Some(Spooled::First(spool)) => {
            spool.fill(execute_operator(p, ctx)?);
            take_spool(p, spool, ctx)
        }
        Some(Spooled::Reuse(spool)) => {
            let batches = take_spool(p, spool, ctx)?;
            p.metrics.add_output(total_rows(&batches) as u64, batches.len() as u64);
            Ok(batches)
        }
    }
}

/// Takes one reference's batches from a filled spool. Copies are charged to
/// the memory budget like any produced batch; the last reference takes the
/// spooled batches themselves.
fn take_spool(p: &PhysNode<'_>, spool: &Spool, ctx: &mut ExecCtx) -> Result<Vec<Chunk>> {
    ctx.gov.checkpoint("Spool")?;
    let start = Instant::now();
    let Some((batches, copied)) = spool.take() else {
        return Err(SnowError::internal(
            "Spool",
            format!("spool #{} read before it was filled", spool.id),
        ));
    };
    if copied {
        for c in &batches {
            charge_batch(p, ctx, "Spool", c)?;
        }
    }
    p.metrics.add_busy(start.elapsed());
    Ok(batches)
}

/// Executes one operator (its inputs through [`execute_physical`]).
fn execute_operator(p: &PhysNode<'_>, ctx: &mut ExecCtx) -> Result<Vec<Chunk>> {
    match &p.logical.kind {
        NodeKind::Values => {
            p.metrics.add_output(1, 1);
            Ok(vec![Chunk { cols: Vec::new(), rows: 1 }])
        }
        NodeKind::Scan { .. } => exec_scan(p, &[], ctx),
        NodeKind::Filter { .. } | NodeKind::Project { .. } => {
            if let Some((scan, stages)) = fused_chain(p) {
                exec_scan(scan, &stages, ctx)
            } else {
                match &p.logical.kind {
                    NodeKind::Filter { pred, .. } => exec_filter(p, pred, ctx),
                    NodeKind::Project { exprs, .. } => exec_project(p, exprs, ctx),
                    _ => unreachable!(),
                }
            }
        }
        NodeKind::Flatten { expr, outer, .. } => exec_flatten(p, expr, *outer, ctx),
        NodeKind::Aggregate { groups, aggs, .. } => exec_aggregate(p, groups, aggs, ctx),
        NodeKind::Join { kind, on, .. } => exec_join(p, *kind, on, ctx),
        NodeKind::Sort { keys, .. } => exec_sort(p, keys, ctx),
        NodeKind::Limit { n, .. } => exec_limit(p, *n, ctx),
        NodeKind::UnionAll { .. } => exec_union(p, ctx),
        NodeKind::Distinct { .. } => exec_distinct(p, ctx),
    }
}

/// Total rows across a batch list.
pub fn total_rows(batches: &[Chunk]) -> usize {
    batches.iter().map(|c| c.rows).sum()
}

/// Concatenates a batch list into one chunk (moves, no cell clones).
pub fn concat_batches(batches: Vec<Chunk>, arity: usize) -> Chunk {
    let mut iter = batches.into_iter();
    let Some(mut first) = iter.next() else {
        return Chunk::empty(arity);
    };
    for c in iter {
        for (dst, src) in first.cols.iter_mut().zip(c.cols) {
            dst.append(src);
        }
        first.rows += c.rows;
    }
    first
}

/// Splits a chunk into batches of at most [`BATCH_ROWS`] rows (moves, no cell
/// clones). Zero-row chunks produce an empty list.
fn split_into_batches(mut chunk: Chunk) -> Vec<Chunk> {
    if chunk.rows == 0 {
        return Vec::new();
    }
    if chunk.rows <= BATCH_ROWS {
        return vec![chunk];
    }
    let mut out = Vec::with_capacity(chunk.rows.div_ceil(BATCH_ROWS));
    while chunk.rows > BATCH_ROWS {
        let mut head = Vec::with_capacity(chunk.cols.len());
        for col in chunk.cols.iter_mut() {
            let tail = col.split_off(BATCH_ROWS);
            head.push(std::mem::replace(col, tail));
        }
        chunk.rows -= BATCH_ROWS;
        out.push(Chunk { cols: head, rows: BATCH_ROWS });
    }
    out.push(chunk);
    out
}

/// Output arity of a batch list, falling back to the plan's schema when the
/// list is empty.
fn batches_arity(batches: &[Chunk], p: &PhysNode<'_>) -> usize {
    batches.first().map_or(p.logical.arity(), |c| c.cols.len())
}

/// Static operator tag for governance checkpoints. The checkpoint hot path
/// must not allocate; the full display name (with table suffix) is built by
/// [`PhysNode::op_name`] only where a per-call allocation is already paid.
fn op_tag(p: &PhysNode<'_>) -> &'static str {
    match &p.logical.kind {
        NodeKind::Scan { .. } => "Scan",
        NodeKind::Values => "Values",
        NodeKind::Project { .. } => "Project",
        NodeKind::Filter { .. } => "Filter",
        NodeKind::Flatten { .. } => "Flatten",
        NodeKind::Aggregate { .. } => "Aggregate",
        NodeKind::Join { .. } => "Join",
        NodeKind::Sort { .. } => "Sort",
        NodeKind::Limit { .. } => "Limit",
        NodeKind::UnionAll { .. } => "UnionAll",
        NodeKind::Distinct { .. } => "Distinct",
    }
}

/// Accounts one produced batch: raises the operator's peak-memory watermark
/// and charges the governor's cumulative memory budget.
fn charge_batch(
    p: &PhysNode<'_>,
    ctx: &ExecCtx,
    op: &str,
    chunk: &Chunk,
) -> Result<()> {
    let bytes = chunk.approx_bytes();
    p.metrics.add_mem(bytes);
    ctx.gov.charge_memory(bytes, op)
}

/// The typed error a panicking worker is converted into (the morsel layer
/// catches the unwind and reports the lowest-index failure).
fn worker_panic_error(op: &str, index: usize, msg: String) -> SnowError {
    SnowError::internal(op, format!("worker panic at index {index}: {msg}"))
}

/// Exclusive prefix sum of batch row counts: the global index of each batch's
/// first row, which seeds the deterministic `SEQ8()` / `FLATTEN` bases.
fn row_bases(batches: &[Chunk]) -> Vec<usize> {
    let mut bases = Vec::with_capacity(batches.len());
    let mut acc = 0usize;
    for c in batches {
        bases.push(acc);
        acc += c.rows;
    }
    bases
}

// ---------------------------------------------------------------------------
// Fused scan pipeline
// ---------------------------------------------------------------------------

/// Walks a `Filter`/`Project` chain down to a `Scan`, returning the scan node
/// and the stages bottom-up, or `None` when the chain is broken. Volatile
/// projections are excluded: they need the global row index for `SEQ8()`,
/// which a streaming fused stage does not know. A spooled operator below `p`
/// breaks the chain too: it must run through [`execute_physical`].
fn fused_chain<'b, 'a>(
    p: &'b PhysNode<'a>,
) -> Option<(&'b PhysNode<'a>, Vec<&'b PhysNode<'a>>)> {
    let mut stages = Vec::new();
    let mut cur = p;
    loop {
        if cur.spool.is_some() && !std::ptr::eq(cur, p) {
            return None;
        }
        match &cur.logical.kind {
            NodeKind::Filter { pred, .. } if !pred.is_volatile() => {
                stages.push(cur);
                cur = &cur.children[0];
            }
            NodeKind::Project { exprs, .. }
                if !exprs.iter().any(PExpr::is_volatile) =>
            {
                stages.push(cur);
                cur = &cur.children[0];
            }
            NodeKind::Scan { .. } => {
                stages.reverse();
                return Some((cur, stages));
            }
            _ => return None,
        }
    }
}

/// Applies one fused stage to a batch, updating the stage's metrics.
fn apply_stage(stage: &PhysNode<'_>, chunk: Chunk, ctx: &mut ExecCtx) -> Result<Chunk> {
    let op = op_tag(stage);
    ctx.gov.checkpoint(op)?;
    let start = Instant::now();
    let rows_in = chunk.rows as u64;
    let out = match &stage.logical.kind {
        NodeKind::Filter { pred, .. } => {
            filter_batch(pred, &chunk, ctx, Some(&stage.metrics))?
        }
        NodeKind::Project { exprs, .. } => {
            project_batch(exprs, &chunk, ctx, 0, Some(&stage.metrics))?
        }
        _ => unreachable!("fused stages are filters and projections"),
    };
    stage.metrics.record_batch(rows_in, out.rows as u64, start.elapsed());
    charge_batch(stage, ctx, op, &out)?;
    Ok(out)
}

/// Scans a table partition-parallel, pushing each materialized batch through
/// the fused `stages` before the morsel barrier. Workers keep private
/// [`ScanStats`](crate::storage::ScanStats) that are summed in partition
/// order, so the accounting is exact and thread-count independent.
fn exec_scan(
    scan: &PhysNode<'_>,
    stages: &[&PhysNode<'_>],
    ctx: &mut ExecCtx,
) -> Result<Vec<Chunk>> {
    let NodeKind::Scan { table, pushed, materialize } = &scan.logical.kind else {
        unreachable!("exec_scan on a non-scan node")
    };
    let parts = table.partitions();
    let arity = table.schema().len();
    let gov = ctx.gov.clone();
    let vectorize = ctx.vectorize;
    let encode = ctx.encode;
    let op = scan.op_name();
    let results = try_parallel_indexed_governed(
        parts.len(),
        scan.parallelism,
        || gov.claim_checkpoint(&op),
        |pi, msg| worker_panic_error(&op, pi, msg),
        |pi| {
            let part = &parts[pi];
            let mut wctx = ExecCtx::worker(gov.clone(), vectorize, encode);
            wctx.stats.partitions_total = 1;
            // Zone-map pruning: skip the partition when any pushed predicate
            // proves no row can match. Pruned partitions contribute zero bytes.
            let prunable = pushed.iter().any(|p| {
                part.zone_map(p.col).is_some_and(|zm| !zm.may_match(p.cmp, &p.lit))
            });
            if prunable {
                wctx.stats.partitions_pruned = 1;
                for (i, m) in materialize.iter().enumerate() {
                    if *m {
                        wctx.stats.bytes_skipped += part.column_bytes(i);
                    }
                }
                return Ok((Vec::new(), wctx.stats));
            }
            wctx.stats.partitions_scanned = 1;
            wctx.stats.rows_scanned = part.row_count() as u64;
            // Materialize the surviving columns through the scan source:
            // in-memory partitions hand back shared column vectors, disk
            // partitions lazily read exactly the projected blocks (through
            // the buffer cache), so skipped columns cost zero file bytes.
            let mut data: Vec<Option<std::sync::Arc<ColumnVec>>> = vec![None; arity];
            for (i, m) in materialize.iter().enumerate() {
                if *m {
                    let read = part.read_column_governed(i, &wctx.gov, &op)?;
                    wctx.stats.record_read(&read);
                    data[i] = Some(read.data);
                } else {
                    wctx.stats.columns_skipped += 1;
                    wctx.stats.bytes_skipped += part.column_bytes(i);
                }
            }
            wctx.gov.charge_scanned(wctx.stats.bytes_scanned, &op)?;
            let mut out = Vec::new();
            let n = part.row_count();
            let mut lo = 0usize;
            while lo < n {
                wctx.gov.checkpoint(&op)?;
                let start = Instant::now();
                let hi = (lo + BATCH_ROWS).min(n);
                // Partition columns already are ColumnVecs: a batch is a
                // slice of each, decoded only when the scan executes
                // decoded — values are never boxed on the way in.
                let mut cols: Vec<ColumnVec> = Vec::with_capacity(arity);
                for src in data.iter().take(arity) {
                    if let Some(data) = src {
                        let mut col = data.slice(lo, hi);
                        if !encode {
                            col.decode_in_place();
                        }
                        cols.push(col);
                    } else {
                        // Unreferenced columns are never read; fill with nulls
                        // to keep positional addressing intact.
                        let mut col = ColumnVec::new();
                        col.push_nulls(hi - lo);
                        cols.push(col);
                    }
                }
                let mut chunk = Chunk { cols, rows: hi - lo };
                scan.metrics.record_batch(0, chunk.rows as u64, start.elapsed());
                charge_batch(scan, &wctx, &op, &chunk)?;
                for stage in stages {
                    chunk = apply_stage(stage, chunk, &mut wctx)?;
                }
                if chunk.rows > 0 {
                    out.push(chunk);
                }
                lo = hi;
            }
            Ok((out, wctx.stats))
        },
    )?;
    let mut batches = Vec::new();
    for (mut chunks, stats) in results {
        ctx.stats.merge(&stats);
        batches.append(&mut chunks);
    }
    Ok(batches)
}

// ---------------------------------------------------------------------------
// Streaming operators over batch lists
// ---------------------------------------------------------------------------

fn filter_batch(
    pred: &PExpr,
    inp: &Chunk,
    ctx: &mut ExecCtx,
    cell: Option<&OpMetricsCell>,
) -> Result<Chunk> {
    if ctx.vectorize {
        if let Some(mask) = eval_vec_counted(pred, inp, cell) {
            // A non-boolean mask value falls through to the row loop, which
            // raises the serial type error at the offending row.
            if let Some(keep) = mask_keep(&mask) {
                if let Some(cell) = cell {
                    cell.add_vectorized(inp.rows as u64);
                }
                let cols = inp.cols.iter().map(|c| c.gather(&keep)).collect();
                return Ok(Chunk { cols, rows: keep.len() });
            }
        }
    }
    if let Some(cell) = cell {
        cell.add_fallback(inp.rows as u64);
    }
    let mut keep = Vec::with_capacity(inp.rows);
    for r in 0..inp.rows {
        let parts = [(inp, r)];
        let v = eval(pred, RowView::new(&parts), ctx)?;
        if truth(&v)? == Some(true) {
            keep.push(r);
        }
    }
    let cols = inp.cols.iter().map(|c| c.gather(&keep)).collect();
    Ok(Chunk { cols, rows: keep.len() })
}

/// Projects one batch. `seq_base` is the global index of the batch's first
/// row: the counter is set to `base + r` before row `r`, so `SEQ8()` numbers
/// the rows of each projection site from zero in input order, whatever the
/// batching and thread count.
fn project_batch(
    exprs: &[PExpr],
    inp: &Chunk,
    ctx: &mut ExecCtx,
    seq_base: i64,
    cell: Option<&OpMetricsCell>,
) -> Result<Chunk> {
    if ctx.vectorize && !exprs.iter().any(PExpr::is_volatile) {
        let tried: Vec<Option<ColumnVec>> =
            exprs.iter().map(|e| eval_vec_counted(e, inp, cell)).collect();
        if tried.iter().all(Option::is_some) {
            if let Some(cell) = cell {
                cell.add_vectorized(inp.rows as u64);
            }
            let cols = tried.into_iter().map(Option::unwrap).collect();
            return Ok(Chunk { cols, rows: inp.rows });
        }
        // Mixed outcome: keep the kernel results and evaluate the declined
        // expressions row-major *together*, preserving the serial
        // (row, expression) error order among them — the vectorized ones are
        // infallible, so they cannot mask an earlier serial error.
        if let Some(cell) = cell {
            cell.add_fallback(inp.rows as u64);
        }
        let mut cols: Vec<ColumnVec> = Vec::with_capacity(exprs.len());
        let mut missing: Vec<usize> = Vec::new();
        for (i, t) in tried.into_iter().enumerate() {
            match t {
                Some(c) => cols.push(c),
                None => {
                    cols.push(ColumnVec::new());
                    missing.push(i);
                }
            }
        }
        for r in 0..inp.rows {
            let parts = [(inp, r)];
            let view = RowView::new(&parts);
            for &i in &missing {
                let v = eval(&exprs[i], view, ctx)?;
                cols[i].push(v);
            }
        }
        return Ok(Chunk { cols, rows: inp.rows });
    }
    if let Some(cell) = cell {
        cell.add_fallback(inp.rows as u64);
    }
    let mut cols: Vec<ColumnVec> = exprs.iter().map(|_| ColumnVec::new()).collect();
    let saved_seq = ctx.seq_counter;
    for r in 0..inp.rows {
        ctx.seq_counter = seq_base + r as i64;
        let parts = [(inp, r)];
        let view = RowView::new(&parts);
        for (e, out) in exprs.iter().zip(cols.iter_mut()) {
            out.push(eval(e, view, ctx)?);
        }
    }
    ctx.seq_counter = saved_seq;
    Ok(Chunk { cols, rows: inp.rows })
}

fn exec_filter(p: &PhysNode<'_>, pred: &PExpr, ctx: &mut ExecCtx) -> Result<Vec<Chunk>> {
    let input = execute_physical(&p.children[0], ctx)?;
    if pred.is_volatile() {
        // One thread in row order keeps the SEQ8 stream deterministic (a
        // volatile filter predicate does not occur in bound plans today, but
        // must not silently change meaning if it does).
        let mut out = Vec::new();
        for c in &input {
            ctx.gov.checkpoint("Filter")?;
            let start = Instant::now();
            let f = filter_batch(pred, c, ctx, Some(&p.metrics))?;
            p.metrics.record_batch(c.rows as u64, f.rows as u64, start.elapsed());
            charge_batch(p, ctx, "Filter", &f)?;
            if f.rows > 0 {
                out.push(f);
            }
        }
        return Ok(out);
    }
    let gov = ctx.gov.clone();
    let vectorize = ctx.vectorize;
    let encode = ctx.encode;
    let batches = try_parallel_indexed_governed(
        input.len(),
        p.parallelism,
        || gov.claim_checkpoint("Filter"),
        |bi, msg| worker_panic_error("Filter", bi, msg),
        |bi| {
            let start = Instant::now();
            let mut wctx = ExecCtx::worker(gov.clone(), vectorize, encode);
            let out = filter_batch(pred, &input[bi], &mut wctx, Some(&p.metrics))?;
            p.metrics.record_batch(input[bi].rows as u64, out.rows as u64, start.elapsed());
            charge_batch(p, &wctx, "Filter", &out)?;
            Ok(out)
        },
    )?;
    Ok(batches.into_iter().filter(|c| c.rows > 0).collect())
}

fn exec_project(
    p: &PhysNode<'_>,
    exprs: &[PExpr],
    ctx: &mut ExecCtx,
) -> Result<Vec<Chunk>> {
    let input = execute_physical(&p.children[0], ctx)?;
    let bases = row_bases(&input);
    // Volatile projections parallelize too: each batch knows its global row
    // base, so SEQ8 ids are assigned exactly as in serial row order. The
    // per-worker context leaves the caller's counter untouched.
    let gov = ctx.gov.clone();
    let vectorize = ctx.vectorize;
    let encode = ctx.encode;
    let batches = try_parallel_indexed_governed(
        input.len(),
        p.parallelism,
        || gov.claim_checkpoint("Project"),
        |bi, msg| worker_panic_error("Project", bi, msg),
        |bi| {
            let start = Instant::now();
            let mut wctx = ExecCtx::worker(gov.clone(), vectorize, encode);
            let out =
                project_batch(exprs, &input[bi], &mut wctx, bases[bi] as i64, Some(&p.metrics))?;
            p.metrics.record_batch(input[bi].rows as u64, out.rows as u64, start.elapsed());
            charge_batch(p, &wctx, "Project", &out)?;
            Ok(out)
        },
    )?;
    Ok(batches.into_iter().filter(|c| c.rows > 0).collect())
}

/// Flattens one batch. `row_base` is the global index of the batch's first
/// row; the emitted `SEQ` column carries `row_base + r`, the parent row's
/// index in the whole flatten input.
fn flatten_batch(
    expr: &PExpr,
    outer: bool,
    inp: &Chunk,
    ctx: &mut ExecCtx,
    row_base: i64,
    cell: Option<&OpMetricsCell>,
) -> Result<Chunk> {
    let in_arity = inp.cols.len();
    let mut out = Chunk::empty(in_arity + 5);
    // The flatten source evaluates vectorized when possible; the emit loop is
    // per-row either way (output cardinality is data-dependent), but input
    // columns pass through typed via `push_from` and the `SEQ` column stays a
    // typed Int column.
    let vec_src = if ctx.vectorize && !expr.is_volatile() {
        eval_vec_counted(expr, inp, cell)
    } else {
        None
    };
    if let Some(cell) = cell {
        if vec_src.is_some() {
            cell.add_vectorized(inp.rows as u64);
        } else {
            cell.add_fallback(inp.rows as u64);
        }
    }
    for r in 0..inp.rows {
        let v = match &vec_src {
            Some(col) => col.get(r),
            None => {
                let parts = [(inp, r)];
                eval(expr, RowView::new(&parts), ctx)?
            }
        };
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
            out.cols[in_arity + 3].push(Variant::Int(row_base + r as i64));
            out.cols[in_arity + 4].push(this);
            out.rows += 1;
        };
        match &v {
            Variant::Array(items) if !items.is_empty() => {
                for (i, item) in items.iter().enumerate() {
                    emit(&mut out, item.clone(), Variant::Int(i as i64), Variant::Null, v.clone());
                }
            }
            Variant::Object(obj) if !obj.is_empty() => {
                for (k, val) in obj.iter() {
                    emit(&mut out, val.clone(), Variant::Null, Variant::from(k), v.clone());
                }
            }
            _ => {
                if outer {
                    emit(&mut out, Variant::Null, Variant::Null, Variant::Null, v.clone());
                }
            }
        }
    }
    Ok(out)
}

fn exec_flatten(
    p: &PhysNode<'_>,
    expr: &PExpr,
    outer: bool,
    ctx: &mut ExecCtx,
) -> Result<Vec<Chunk>> {
    let input = execute_physical(&p.children[0], ctx)?;
    let bases = row_bases(&input);
    if expr.is_volatile() {
        let mut out = Vec::new();
        for (bi, c) in input.iter().enumerate() {
            ctx.gov.checkpoint("Flatten")?;
            let start = Instant::now();
            let f = flatten_batch(expr, outer, c, ctx, bases[bi] as i64, Some(&p.metrics))?;
            p.metrics.record_batch(c.rows as u64, f.rows as u64, start.elapsed());
            charge_batch(p, ctx, "Flatten", &f)?;
            if f.rows > 0 {
                out.push(f);
            }
        }
        return Ok(out);
    }
    let gov = ctx.gov.clone();
    let vectorize = ctx.vectorize;
    let encode = ctx.encode;
    let batches = try_parallel_indexed_governed(
        input.len(),
        p.parallelism,
        || gov.claim_checkpoint("Flatten"),
        |bi, msg| worker_panic_error("Flatten", bi, msg),
        |bi| {
            let start = Instant::now();
            let mut wctx = ExecCtx::worker(gov.clone(), vectorize, encode);
            let out = flatten_batch(
                expr,
                outer,
                &input[bi],
                &mut wctx,
                bases[bi] as i64,
                Some(&p.metrics),
            )?;
            p.metrics.record_batch(input[bi].rows as u64, out.rows as u64, start.elapsed());
            charge_batch(p, &wctx, "Flatten", &out)?;
            Ok(out)
        },
    )?;
    Ok(batches.into_iter().filter(|c| c.rows > 0).collect())
}

// ---------------------------------------------------------------------------
// Pipeline breakers
// ---------------------------------------------------------------------------

/// Hash-aggregate state: groups in first-seen order plus accumulator rows.
#[derive(Default)]
struct AggState {
    index: HashMap<Vec<Key>, usize>,
    index1: HashMap<Key, usize>,
    group_vals: Vec<Vec<Variant>>,
    states: Vec<Vec<Accumulator>>,
}

impl AggState {
    /// Folds one batch into the state (row-order semantics: rows in
    /// order, group entries keep insertion order, single-key fast path).
    fn fold(
        &mut self,
        groups: &[PExpr],
        aggs: &[AggExpr],
        inp: &Chunk,
        ctx: &mut ExecCtx,
    ) -> Result<()> {
        let single = groups.len() == 1;
        for r in 0..inp.rows {
            let parts = [(inp, r)];
            let view = RowView::new(&parts);
            let mut gv = Vec::with_capacity(groups.len());
            for g in groups {
                gv.push(eval(g, view, ctx)?);
            }
            let slot = if single {
                let key = Key::of(&gv[0]);
                match self.index1.get(&key) {
                    Some(&s) => s,
                    None => {
                        let s = self.states.len();
                        self.index1.insert(key, s);
                        self.group_vals.push(std::mem::take(&mut gv));
                        self.states
                            .push(aggs.iter().map(|a| Accumulator::new(a.kind)).collect());
                        s
                    }
                }
            } else {
                let key: Vec<Key> = gv.iter().map(Key::of).collect();
                match self.index.get(&key) {
                    Some(&s) => s,
                    None => {
                        let s = self.states.len();
                        self.index.insert(key, s);
                        self.group_vals.push(std::mem::take(&mut gv));
                        self.states
                            .push(aggs.iter().map(|a| Accumulator::new(a.kind)).collect());
                        s
                    }
                }
            };
            for (a, st) in aggs.iter().zip(self.states[slot].iter_mut()) {
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
        Ok(())
    }

    /// Folds one batch, preferring the column-major path. Returns through the
    /// row-at-a-time [`AggState::fold`] whenever [`AggState::try_fold_vec`]
    /// declines, counting rows on the matching metrics counter.
    fn fold_batch(
        &mut self,
        groups: &[PExpr],
        aggs: &[AggExpr],
        inp: &Chunk,
        ctx: &mut ExecCtx,
        cell: &OpMetricsCell,
    ) -> Result<()> {
        if ctx.vectorize && self.try_fold_vec(groups, aggs, inp)? {
            cell.add_vectorized(inp.rows as u64);
            return Ok(());
        }
        cell.add_fallback(inp.rows as u64);
        self.fold(groups, aggs, inp, ctx)
    }

    /// Attempts a column-major fold of one batch: group keys and aggregate
    /// arguments evaluate through the typed kernels, group slots come from
    /// [`ColumnVec::key_at`], and accumulators consume whole columns (global
    /// aggregation) or per-row typed values (grouped).
    ///
    /// Returns `Ok(false)` — with the state untouched — when any expression
    /// declines to vectorize or a two-argument aggregate is present. The
    /// global path additionally requires every accumulator to be provably
    /// infallible for its column ([`column_eligible`] plus a numeric `SUM`
    /// state), so column-major evaluation can never reorder errors across
    /// aggregates relative to the serial row loop.
    fn try_fold_vec(
        &mut self,
        groups: &[PExpr],
        aggs: &[AggExpr],
        inp: &Chunk,
    ) -> Result<bool> {
        if aggs.iter().any(|a| a.arg2.is_some()) {
            return Ok(false);
        }
        let mut gcols = Vec::with_capacity(groups.len());
        for g in groups {
            match eval_vec(g, inp) {
                Some(c) => gcols.push(c),
                None => return Ok(false),
            }
        }
        if groups.is_empty() {
            // A SUM accumulator holding a non-numeric value (stored unchecked
            // by an earlier row-major batch) errors on the next numeric value;
            // take the row path so the (row, aggregate) error order matches.
            if let Some(&slot) = self.index.get(&Vec::new()) {
                if self.states[slot].iter().any(|st| {
                    matches!(st, Accumulator::Sum { acc: Some(v) }
                        if !matches!(v, Variant::Int(_) | Variant::Float(_)))
                }) {
                    return Ok(false);
                }
            }
            // Evaluate and eligibility-check one aggregate at a time so an
            // ineligible argument (e.g. SUM over a mixed Variant column)
            // declines before the remaining arguments pay for evaluation —
            // bare column references decline without even a clone.
            let mut acols = Vec::with_capacity(aggs.len());
            for a in aggs {
                if let Some(PExpr::Col(i)) = &a.arg {
                    match inp.cols.get(*i) {
                        Some(c) if column_eligible(a.kind, c) => {}
                        _ => return Ok(false),
                    }
                }
                let col = match &a.arg {
                    Some(e) => match eval_vec(e, inp) {
                        Some(c) => c,
                        None => return Ok(false),
                    },
                    None => ColumnVec::Null(inp.rows),
                };
                if !column_eligible(a.kind, &col) {
                    return Ok(false);
                }
                acols.push(col);
            }
            if inp.rows == 0 {
                return Ok(true);
            }
            let slot = match self.index.get(&Vec::new()) {
                Some(&s) => s,
                None => {
                    let s = self.states.len();
                    self.index.insert(Vec::new(), s);
                    self.group_vals.push(Vec::new());
                    self.states
                        .push(aggs.iter().map(|a| Accumulator::new(a.kind)).collect());
                    s
                }
            };
            for (st, col) in self.states[slot].iter_mut().zip(&acols) {
                st.update_column(col)?;
            }
            return Ok(true);
        }
        // Grouped path: typed keys and typed per-row argument values feed the
        // ordinary row accumulators, so any update error surfaces at exactly
        // the serial (row, aggregate) position.
        let mut acols = Vec::with_capacity(aggs.len());
        for a in aggs {
            let col = match &a.arg {
                Some(e) => match eval_vec(e, inp) {
                    Some(c) => c,
                    None => return Ok(false),
                },
                None => ColumnVec::Null(inp.rows),
            };
            acols.push(col);
        }
        let single = groups.len() == 1;
        // Dictionary-coded single group key: resolve each distinct code to its
        // group slot at most once per batch, so the per-row work is an array
        // lookup instead of boxing the string into a `Key`. First-appearance
        // order is preserved — rows still insert into `index1` in row order.
        if single {
            if let ColumnVec::DictStr { codes, dict } = &gcols[0] {
                let mut memo: Vec<Option<usize>> = vec![None; dict.len() + 1];
                for (r, &code) in codes.iter().enumerate().take(inp.rows) {
                    let mi = if code == crate::storage::NULL_CODE {
                        dict.len()
                    } else {
                        code as usize
                    };
                    let slot = match memo[mi] {
                        Some(s) => s,
                        None => {
                            let key = gcols[0].key_at(r);
                            let s = match self.index1.get(&key) {
                                Some(&s) => s,
                                None => {
                                    let s = self.states.len();
                                    self.index1.insert(key, s);
                                    self.group_vals.push(vec![gcols[0].get(r)]);
                                    self.states.push(
                                        aggs.iter()
                                            .map(|a| Accumulator::new(a.kind))
                                            .collect(),
                                    );
                                    s
                                }
                            };
                            memo[mi] = Some(s);
                            s
                        }
                    };
                    for (st, col) in self.states[slot].iter_mut().zip(&acols) {
                        st.update(&col.get(r))?;
                    }
                }
                return Ok(true);
            }
        }
        for r in 0..inp.rows {
            let slot = if single {
                let key = gcols[0].key_at(r);
                match self.index1.get(&key) {
                    Some(&s) => s,
                    None => {
                        let s = self.states.len();
                        self.index1.insert(key, s);
                        self.group_vals.push(vec![gcols[0].get(r)]);
                        self.states
                            .push(aggs.iter().map(|a| Accumulator::new(a.kind)).collect());
                        s
                    }
                }
            } else {
                let key: Vec<Key> = gcols.iter().map(|c| c.key_at(r)).collect();
                match self.index.get(&key) {
                    Some(&s) => s,
                    None => {
                        let s = self.states.len();
                        self.index.insert(key, s);
                        self.group_vals.push(gcols.iter().map(|c| c.get(r)).collect());
                        self.states
                            .push(aggs.iter().map(|a| Accumulator::new(a.kind)).collect());
                        s
                    }
                }
            };
            for (st, col) in self.states[slot].iter_mut().zip(&acols) {
                st.update(&col.get(r))?;
            }
        }
        Ok(true)
    }

    /// Merges a later partial into this one, in input order: new groups
    /// append (preserving global first-seen order), existing groups merge
    /// accumulators.
    fn merge(&mut self, other: AggState, single: bool) -> Result<()> {
        for (gv, accs) in other.group_vals.into_iter().zip(other.states) {
            let slot = if single {
                let key = Key::of(&gv[0]);
                match self.index1.get(&key) {
                    Some(&s) => Some(s),
                    None => {
                        self.index1.insert(key, self.states.len());
                        None
                    }
                }
            } else {
                let key: Vec<Key> = gv.iter().map(Key::of).collect();
                match self.index.get(&key) {
                    Some(&s) => Some(s),
                    None => {
                        self.index.insert(key, self.states.len());
                        None
                    }
                }
            };
            match slot {
                Some(s) => {
                    for (st, acc) in self.states[s].iter_mut().zip(accs) {
                        st.merge(acc)?;
                    }
                }
                None => {
                    self.group_vals.push(gv);
                    self.states.push(accs);
                }
            }
        }
        Ok(())
    }
}

/// True when per-batch partial states of this kind merge to the exact serial
/// result. `SUM`/`AVG` are excluded: float addition is not associative, so
/// only a serial fold in row order is bit-reproducible.
fn exactly_mergeable(kind: AggKind) -> bool {
    !matches!(kind, AggKind::Sum | AggKind::Avg)
}

fn exec_aggregate(
    p: &PhysNode<'_>,
    groups: &[PExpr],
    aggs: &[AggExpr],
    ctx: &mut ExecCtx,
) -> Result<Vec<Chunk>> {
    let input = execute_physical(&p.children[0], ctx)?;
    let in_rows = total_rows(&input) as u64;
    p.metrics.add_rows_in(in_rows);
    p.metrics.peak(in_rows);
    let start = Instant::now();

    let volatile = groups.iter().any(PExpr::is_volatile)
        || aggs.iter().any(|a| {
            a.arg.as_ref().is_some_and(PExpr::is_volatile)
                || a.arg2.as_ref().is_some_and(PExpr::is_volatile)
        });
    let single = groups.len() == 1;
    let parallel = !volatile
        && aggs.iter().all(|a| exactly_mergeable(a.kind))
        && p.parallelism > 1
        && input.len() > 1;

    let mut state = if parallel {
        // Thread-local partial aggregation per batch, merged at the barrier
        // in batch order so group order and tie-breaks match serial.
        let gov = ctx.gov.clone();
        let vectorize = ctx.vectorize;
        let encode = ctx.encode;
        let partials = try_parallel_indexed_governed(
            input.len(),
            p.parallelism,
            || gov.claim_checkpoint("Aggregate"),
            |bi, msg| worker_panic_error("Aggregate", bi, msg),
            |bi| {
                let mut wctx = ExecCtx::worker(gov.clone(), vectorize, encode);
                let mut st = AggState::default();
                st.fold_batch(groups, aggs, &input[bi], &mut wctx, &p.metrics)?;
                Ok(st)
            },
        )?;
        let mut merged = AggState::default();
        for partial in partials {
            merged.merge(partial, single)?;
        }
        merged
    } else {
        let mut st = AggState::default();
        for c in &input {
            ctx.gov.checkpoint("Aggregate")?;
            st.fold_batch(groups, aggs, c, ctx, &p.metrics)?;
        }
        st
    };

    // Global aggregation over zero rows still yields one row.
    if groups.is_empty() && state.states.is_empty() {
        state.group_vals.push(Vec::new());
        state.states.push(aggs.iter().map(|a| Accumulator::new(a.kind)).collect());
    }

    let n_out = state.group_vals.len();
    let mut cols: Vec<ColumnVec> = vec![ColumnVec::new(); groups.len() + aggs.len()];
    for (gv, st) in state.group_vals.into_iter().zip(state.states) {
        for (i, v) in gv.into_iter().enumerate() {
            cols[i].push(v);
        }
        for (j, acc) in st.into_iter().enumerate() {
            cols[groups.len() + j].push(acc.finish());
        }
    }
    p.metrics.add_busy(start.elapsed());
    let out = Chunk { cols, rows: n_out };
    charge_batch(p, ctx, "Aggregate", &out)?;
    let batches = split_into_batches(out);
    p.metrics.add_output(n_out as u64, batches.len() as u64);
    Ok(batches)
}

fn exec_join(
    p: &PhysNode<'_>,
    kind: JoinKind,
    on: &Option<PExpr>,
    ctx: &mut ExecCtx,
) -> Result<Vec<Chunk>> {
    let l_batches = execute_physical(&p.children[0], ctx)?;
    let r_batches = execute_physical(&p.children[1], ctx)?;
    let la = batches_arity(&l_batches, &p.children[0]);
    let ra = batches_arity(&r_batches, &p.children[1]);
    let l_rows = total_rows(&l_batches) as u64;
    let r_rows = total_rows(&r_batches) as u64;
    p.metrics.add_rows_in(l_rows + r_rows);
    p.metrics.peak(l_rows + r_rows);
    let start = Instant::now();

    // The build side is materialized whole for O(1) row addressing.
    let r = concat_batches(r_batches, ra);
    charge_batch(p, ctx, "Join", &r)?;

    if on.as_ref().is_some_and(PExpr::is_volatile) {
        // Volatile join conditions evaluate on one thread in row order.
        let l = concat_batches(l_batches, la);
        charge_batch(p, ctx, "Join", &l)?;
        let out = join_chunks(&l, &r, kind, on, ctx)?;
        charge_batch(p, ctx, "Join", &out)?;
        p.metrics.add_busy(start.elapsed());
        let batches = split_into_batches(out);
        p.metrics
            .add_output(batches.iter().map(|c| c.rows as u64).sum(), batches.len() as u64);
        return Ok(batches);
    }

    let (equi, residual) = match on {
        Some(e) => split_join_on(e, la),
        None => (Vec::new(), Vec::new()),
    };

    // Hash join: build on the right side (serial — the build is a hash
    // insert in row order; probe is the parallel phase). Key expressions go
    // through the typed kernels when possible; `key_at` then yields exactly
    // the group key `Key::of` would for the boxed value.
    let vectorize = ctx.vectorize;
    let encode = ctx.encode;
    let hash: Option<HashMap<Vec<Key>, Vec<usize>>> = if equi.is_empty() {
        None
    } else {
        let mut table: HashMap<Vec<Key>, Vec<usize>> = HashMap::new();
        let build_cols: Option<Vec<ColumnVec>> = if vectorize {
            equi.iter().map(|(_, rk)| eval_vec(rk, &r)).collect()
        } else {
            None
        };
        match build_cols {
            Some(kcols) => {
                for rr in 0..r.rows {
                    if rr % BATCH_ROWS == 0 {
                        ctx.gov.checkpoint("Join")?;
                    }
                    // NULL keys never match in SQL equality.
                    if kcols.iter().any(|c| c.is_null_at(rr)) {
                        continue;
                    }
                    let key: Vec<Key> = kcols.iter().map(|c| c.key_at(rr)).collect();
                    table.entry(key).or_default().push(rr);
                }
            }
            None => {
                let mut bctx = ExecCtx::worker(ctx.gov.clone(), vectorize, ctx.encode);
                for rr in 0..r.rows {
                    if rr % BATCH_ROWS == 0 {
                        bctx.gov.checkpoint("Join")?;
                    }
                    let parts = [(&r, rr)];
                    let view = RowView::new(&parts);
                    let mut key = Vec::with_capacity(equi.len());
                    let mut has_null = false;
                    for (_, rk) in &equi {
                        let v = eval(rk, view, &mut bctx)?;
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
            }
        }
        Some(table)
    };

    let gov = ctx.gov.clone();
    let probe = |lb: &Chunk| -> Result<Chunk> {
        let mut wctx = ExecCtx::worker(gov.clone(), vectorize, encode);
        // Matches accumulate as (left, right) row indices; the output chunk
        // is a typed gather at the end, so column representations survive the
        // join untouched (`None` right rows become NULLs on the outer side).
        let mut lidx: Vec<usize> = Vec::new();
        let mut ridx: Vec<Option<usize>> = Vec::new();
        let residual_ok = |wctx: &mut ExecCtx, lr: usize, rr: usize| -> Result<bool> {
            for e in &residual {
                let parts = [(lb, lr), (&r, rr)];
                let v = eval(e, RowView::new(&parts), wctx)?;
                if truth(&v)? != Some(true) {
                    return Ok(false);
                }
            }
            Ok(true)
        };
        match &hash {
            None => {
                // Nested-loop join for cross joins and non-equi conditions.
                for lr in 0..lb.rows {
                    let mut matched = false;
                    for rr in 0..r.rows {
                        if residual_ok(&mut wctx, lr, rr)? {
                            lidx.push(lr);
                            ridx.push(Some(rr));
                            matched = true;
                        }
                    }
                    if kind == JoinKind::LeftOuter && !matched {
                        lidx.push(lr);
                        ridx.push(None);
                    }
                }
            }
            Some(table) => {
                let probe_cols: Option<Vec<ColumnVec>> = if wctx.vectorize {
                    equi.iter().map(|(lk, _)| eval_vec(lk, lb)).collect()
                } else {
                    None
                };
                if probe_cols.is_some() {
                    p.metrics.add_vectorized(lb.rows as u64);
                } else {
                    p.metrics.add_fallback(lb.rows as u64);
                }
                for lr in 0..lb.rows {
                    let mut key = Vec::with_capacity(equi.len());
                    let mut has_null = false;
                    match &probe_cols {
                        Some(kcols) => {
                            if kcols.iter().any(|c| c.is_null_at(lr)) {
                                has_null = true;
                            } else {
                                key.extend(kcols.iter().map(|c| c.key_at(lr)));
                            }
                        }
                        None => {
                            let parts = [(lb, lr)];
                            let view = RowView::new(&parts);
                            for (lk, _) in &equi {
                                let v = eval(lk, view, &mut wctx)?;
                                if v.is_null() {
                                    has_null = true;
                                    break;
                                }
                                key.push(Key::of(&v));
                            }
                        }
                    }
                    let mut matched = false;
                    if !has_null {
                        if let Some(rows) = table.get(&key) {
                            for &rr in rows {
                                if residual_ok(&mut wctx, lr, rr)? {
                                    lidx.push(lr);
                                    ridx.push(Some(rr));
                                    matched = true;
                                }
                            }
                        }
                    }
                    if kind == JoinKind::LeftOuter && !matched {
                        lidx.push(lr);
                        ridx.push(None);
                    }
                }
            }
        }
        let mut cols: Vec<ColumnVec> = Vec::with_capacity(la + ra);
        for c in &lb.cols {
            cols.push(c.gather(&lidx));
        }
        for c in &r.cols {
            cols.push(c.gather_opt(&ridx));
        }
        Ok(Chunk { cols, rows: lidx.len() })
    };

    let batches = try_parallel_indexed_governed(
        l_batches.len(),
        p.parallelism,
        || gov.claim_checkpoint("Join"),
        |bi, msg| worker_panic_error("Join", bi, msg),
        |bi| {
            let t0 = Instant::now();
            let out = probe(&l_batches[bi])?;
            p.metrics
                .record_batch(l_batches[bi].rows as u64, out.rows as u64, t0.elapsed());
            let bytes = out.approx_bytes();
            p.metrics.add_mem(bytes);
            gov.charge_memory(bytes, "Join")?;
            Ok(out)
        },
    )?;
    p.metrics.add_busy(start.elapsed());
    Ok(batches.into_iter().filter(|c| c.rows > 0).collect())
}

fn exec_sort(p: &PhysNode<'_>, keys: &[SortKey], ctx: &mut ExecCtx) -> Result<Vec<Chunk>> {
    let input = execute_physical(&p.children[0], ctx)?;
    let in_rows = total_rows(&input);
    p.metrics.add_rows_in(in_rows as u64);
    p.metrics.peak(in_rows as u64);
    let start = Instant::now();

    let gov = ctx.gov.clone();
    let vectorize = ctx.vectorize;
    let encode = ctx.encode;
    let volatile = keys.iter().any(|k| k.expr.is_volatile());
    // Key evaluation parallelizes per batch; each result is key-major.
    let key_cols: Vec<Vec<Vec<Variant>>> = if volatile {
        let mut all = Vec::with_capacity(input.len());
        for c in &input {
            ctx.gov.checkpoint("Sort")?;
            all.push(eval_sort_keys(keys, c, ctx, Some(&p.metrics))?);
        }
        all
    } else {
        try_parallel_indexed_governed(
            input.len(),
            p.parallelism,
            || gov.claim_checkpoint("Sort"),
            |bi, msg| worker_panic_error("Sort", bi, msg),
            |bi| {
                let mut wctx = ExecCtx::worker(gov.clone(), vectorize, encode);
                eval_sort_keys(keys, &input[bi], &mut wctx, Some(&p.metrics))
            },
        )?
    };

    // Global merge: a stable sort over (batch, row) in input order, so the
    // permutation — and therefore tie order — is that of a serial sort.
    let mut order: Vec<(u32, u32)> = Vec::with_capacity(in_rows);
    for (bi, c) in input.iter().enumerate() {
        for r in 0..c.rows {
            order.push((bi as u32, r as u32));
        }
    }
    order.sort_by(|&(ab, ar), &(bb, br)| {
        for (ki, k) in keys.iter().enumerate() {
            let va = &key_cols[ab as usize][ki][ar as usize];
            let vb = &key_cols[bb as usize][ki][br as usize];
            let c = cmp_sort_values(k, va, vb);
            if c != std::cmp::Ordering::Equal {
                return c;
            }
        }
        std::cmp::Ordering::Equal
    });

    // Parallel gather into output batches.
    let arity = batches_arity(&input, &p.children[0]);
    let n_batches = in_rows.div_ceil(BATCH_ROWS);
    let batches = try_parallel_indexed_governed(
        n_batches,
        p.parallelism,
        || gov.claim_checkpoint("Sort"),
        |ob, msg| worker_panic_error("Sort", ob, msg),
        |ob| {
            let t0 = Instant::now();
            let lo = ob * BATCH_ROWS;
            let hi = (lo + BATCH_ROWS).min(in_rows);
            let mut cols: Vec<ColumnVec> = vec![ColumnVec::new(); arity];
            for &(bi, r) in &order[lo..hi] {
                for (i, col) in cols.iter_mut().enumerate() {
                    col.push_from(&input[bi as usize].cols[i], r as usize);
                }
            }
            let out = Chunk { cols, rows: hi - lo };
            p.metrics.record_batch(0, out.rows as u64, t0.elapsed());
            let bytes = out.approx_bytes();
            p.metrics.add_mem(bytes);
            gov.charge_memory(bytes, "Sort")?;
            Ok(out)
        },
    )?;
    p.metrics.add_busy(start.elapsed());
    Ok(batches)
}

fn eval_sort_keys(
    keys: &[SortKey],
    inp: &Chunk,
    ctx: &mut ExecCtx,
    cell: Option<&OpMetricsCell>,
) -> Result<Vec<Vec<Variant>>> {
    let mut out = Vec::with_capacity(keys.len());
    let mut all_vec = true;
    for k in keys {
        if ctx.vectorize && !k.expr.is_volatile() {
            if let Some(col) = eval_vec(&k.expr, inp) {
                out.push(col.into_variants());
                continue;
            }
        }
        all_vec = false;
        let mut col = Vec::with_capacity(inp.rows);
        for r in 0..inp.rows {
            let parts = [(inp, r)];
            col.push(eval(&k.expr, RowView::new(&parts), ctx)?);
        }
        out.push(col);
    }
    if let Some(cell) = cell {
        if all_vec {
            cell.add_vectorized(inp.rows as u64);
        } else {
            cell.add_fallback(inp.rows as u64);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Serial batch-list operators
// ---------------------------------------------------------------------------

fn exec_limit(p: &PhysNode<'_>, n: u64, ctx: &mut ExecCtx) -> Result<Vec<Chunk>> {
    let input = execute_physical(&p.children[0], ctx)?;
    let start = Instant::now();
    let mut remaining = n as usize;
    let mut out = Vec::new();
    for mut c in input {
        if remaining == 0 {
            break;
        }
        ctx.gov.checkpoint("Limit")?;
        p.metrics.add_rows_in(c.rows as u64);
        if c.rows > remaining {
            for col in c.cols.iter_mut() {
                col.truncate(remaining);
            }
            c.rows = remaining;
        }
        remaining -= c.rows;
        p.metrics.add_output(c.rows as u64, 1);
        out.push(c);
    }
    p.metrics.add_busy(start.elapsed());
    Ok(out)
}

fn exec_union(p: &PhysNode<'_>, ctx: &mut ExecCtx) -> Result<Vec<Chunk>> {
    let mut l = execute_physical(&p.children[0], ctx)?;
    let r = execute_physical(&p.children[1], ctx)?;
    let start = Instant::now();
    ctx.gov.checkpoint("UnionAll")?;
    if batches_arity(&l, &p.children[0]) != batches_arity(&r, &p.children[1]) {
        return Err(SnowError::Exec("UNION ALL arity mismatch".into()));
    }
    let rows = (total_rows(&l) + total_rows(&r)) as u64;
    l.extend(r);
    p.metrics.add_rows_in(rows);
    p.metrics.add_output(rows, l.len() as u64);
    p.metrics.add_busy(start.elapsed());
    Ok(l)
}

fn exec_distinct(p: &PhysNode<'_>, ctx: &mut ExecCtx) -> Result<Vec<Chunk>> {
    let input = execute_physical(&p.children[0], ctx)?;
    let start = Instant::now();
    let in_rows = total_rows(&input) as u64;
    p.metrics.add_rows_in(in_rows);
    p.metrics.peak(in_rows);
    // One hash set over the batches in input order: first occurrence wins.
    let arity = batches_arity(&input, &p.children[0]);
    let mut seen = std::collections::HashSet::new();
    let mut out: Vec<Chunk> = Vec::new();
    let mut cur = Chunk::empty(arity);
    for c in &input {
        ctx.gov.checkpoint("Distinct")?;
        for r in 0..c.rows {
            let key: Vec<Key> = c.cols.iter().map(|col| col.key_at(r)).collect();
            if seen.insert(key) {
                cur.push_row_from(c, r);
                if cur.rows == BATCH_ROWS {
                    charge_batch(p, ctx, "Distinct", &cur)?;
                    out.push(std::mem::replace(&mut cur, Chunk::empty(arity)));
                }
            }
        }
    }
    if cur.rows > 0 {
        charge_batch(p, ctx, "Distinct", &cur)?;
        out.push(cur);
    }
    let out_rows: u64 = out.iter().map(|c| c.rows as u64).sum();
    p.metrics.add_output(out_rows, out.len() as u64);
    p.metrics.add_busy(start.elapsed());
    Ok(out)
}
