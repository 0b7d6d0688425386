//! The engine facade: a multi-version catalog plus the compile/execute query
//! pipeline.
//!
//! Every statement pins one immutable [`CatalogSnapshot`] and runs against it
//! end to end — concurrent commits never change what an in-flight query sees.
//! Writers prepare partitions off to the side and commit through an optimistic
//! compare-and-swap on the catalog version ([`Database::commit_writes`]); a
//! lost race surfaces as [`SnowError::WriteConflict`] and the auto-commit DML
//! paths retry on a fresh snapshot under a seeded, bounded backoff.

use std::sync::atomic::{AtomicU64, Ordering as AtomicOrd};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use crate::catalog::{CatalogSnapshot, SharedCatalog, TableEntry, TableWrite, WriteSet};
use crate::error::{Result, SnowError};
use crate::exec::metrics::OpMetrics;
use crate::exec::{pipeline, ExecCtx};
use crate::govern::retry::{self, RetryPolicy};
use crate::govern::{
    GovernorSummary, QueryFailure, QueryGovernor, QueryHandle, SessionParams,
};
use crate::optimize::optimize;
use crate::plan::physical::{lower, PhysNode};
use crate::plan::{bind_query, Field, Node, PExpr};
use crate::sql::ast::{Expr, Travel};
use crate::sql::{parse_query, parse_statement, Statement};
use crate::storage::{
    ColumnDef, MemSink, MicroPartition, PartitionSink, ScanSource, ScanStats, Table, TableBuilder,
    DEFAULT_PARTITION_ROWS,
};
use crate::store::Store;
use crate::variant::Variant;

/// Timing and scan metrics for one query, split exactly like the paper's §V:
/// compilation (parse + bind + optimize) versus execution, plus bytes scanned.
#[derive(Clone, Debug, Default)]
pub struct QueryProfile {
    pub compile_time: Duration,
    pub exec_time: Duration,
    pub scan: ScanStats,
    /// Per-operator metrics tree mirroring the executed plan (rows in/out,
    /// batches, busy time, peak intermediate rows/bytes, parallelism).
    pub metrics: Option<OpMetrics>,
    /// Governance accounting (time vs. deadline, memory and bytes scanned vs.
    /// budgets). Present when any session limit or fault schedule was armed.
    pub governed: Option<GovernorSummary>,
}

impl QueryProfile {
    /// Total in-engine time (the paper's "total query runtime in Snowflake").
    pub fn total_time(&self) -> Duration {
        self.compile_time + self.exec_time
    }
}

/// Outcome of [`Database::execute`].
// One value per statement, immediately consumed; boxing `Rows` would add an
// indirection for no measurable gain.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum StatementResult {
    Rows(QueryResult),
    Message(String),
}

/// A completed query: column names, row-major results, and the profile.
#[derive(Clone, Debug)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Variant>>,
    pub profile: QueryProfile,
}

impl QueryResult {
    /// Single scalar convenience accessor (first column of first row).
    pub fn scalar(&self) -> Option<&Variant> {
        self.rows.first().and_then(|r| r.first())
    }
}

/// An embedded Snowflake-like database: a multi-version catalog of immutable
/// table snapshots plus the query pipeline.
///
/// The catalog is MVCC: readers pin an `Arc`'d [`CatalogSnapshot`] and never
/// block writers; writers commit optimistically and serialize only on the
/// commit point itself. Cloning handles is cheap; table data is never behind
/// a lock.
#[derive(Default)]
pub struct Database {
    /// The current catalog version plus the commit serialization point.
    catalog: SharedCatalog,
    /// Explicit worker-thread override; `None` falls back to the
    /// `SNOWDB_THREADS` environment variable, then to the machine's
    /// available parallelism.
    threads: RwLock<Option<usize>>,
    /// Session parameters (`SET STATEMENT_TIMEOUT_IN_SECONDS = ...`); a fresh
    /// [`QueryGovernor`] is armed from them for every statement run directly
    /// on the database. [`crate::session::Session`]s carry their own.
    params: RwLock<SessionParams>,
    /// Attached persistent store ([`Database::open`] / [`Database::persist_to`]);
    /// `None` for a purely in-memory database. When attached, every catalog
    /// commit also commits a new manifest version and newly loaded tables
    /// stream their partitions to disk.
    store: RwLock<Option<Arc<Store>>>,
    /// Monotonic counter feeding per-commit retry-jitter seeds, so contending
    /// writers on one database desynchronize deterministically.
    commit_seq: AtomicU64,
}

/// Sink adapter charging every sealed partition against a query governor
/// before handing it to the real destination — this is what bounds (and
/// faults, under chaos schedules) streaming ingest and DML rewrites.
struct GovernedSink {
    inner: Box<dyn PartitionSink>,
    gov: Arc<QueryGovernor>,
}

impl PartitionSink for GovernedSink {
    fn flush(&self, part: MicroPartition) -> Result<Arc<ScanSource>> {
        self.gov.charge_memory(part.total_bytes(), "Ingest")?;
        self.inner.flush(part)
    }
}

/// Per-call execution options for [`Database::query_with`].
///
/// The defaults reproduce [`Database::query`]: optimized plan, thread count
/// resolved from the database override / `SNOWDB_THREADS` / machine
/// parallelism. The verification oracle uses explicit options to walk the
/// configuration lattice without mutating shared database state.
#[derive(Clone, Copy, Debug)]
pub struct QueryOptions {
    /// Run the optimizer passes (`false` executes the raw bound plan).
    pub optimize: bool,
    /// Explicit worker-thread count; `None` uses the database default.
    pub threads: Option<usize>,
    /// Use the typed vectorized kernels; `None` resolves from
    /// `SNOWDB_VECTORIZE` (on unless set to `0`/`false`/`off`).
    pub vectorize: Option<bool>,
    /// Let encoded (dictionary / run-length) column blocks flow into the
    /// executor; `None` resolves from `SNOWDB_ENCODE` (on unless set to
    /// `0`/`false`/`off`). When off, scans decode every block at the
    /// pipeline boundary.
    pub encode: Option<bool>,
}

impl Default for QueryOptions {
    fn default() -> QueryOptions {
        QueryOptions { optimize: true, threads: None, vectorize: None, encode: None }
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Loads a table from rows in one shot, replacing any same-named table.
    pub fn load_table<I>(&self, name: &str, schema: Vec<ColumnDef>, rows: I) -> Result<()>
    where
        I: IntoIterator<Item = Vec<Variant>>,
    {
        self.load_table_with_partition_rows(
            name,
            schema,
            rows,
            crate::storage::DEFAULT_PARTITION_ROWS,
        )
    }

    /// Loads a table with an explicit micro-partition size.
    pub fn load_table_with_partition_rows<I>(
        &self,
        name: &str,
        schema: Vec<ColumnDef>,
        rows: I,
        partition_rows: usize,
    ) -> Result<()>
    where
        I: IntoIterator<Item = Vec<Variant>>,
    {
        self.load_table_stream(name, schema, rows.into_iter().map(Ok), partition_rows)
    }

    /// Streaming loader core: rows arrive through a fallible iterator (so a
    /// file/parse error aborts the load, not the process), partitions seal
    /// and flush incrementally — straight to partition files when a
    /// persistent store is attached — and every sealed partition is charged
    /// against a governor armed from the session parameters. Peak memory is
    /// one open partition regardless of table size.
    ///
    /// A load *replaces* any same-named table (last writer wins); it commits
    /// against the catalog version current at commit time and therefore never
    /// trips a write conflict.
    pub fn load_table_stream<I>(
        &self,
        name: &str,
        schema: Vec<ColumnDef>,
        rows: I,
        partition_rows: usize,
    ) -> Result<()>
    where
        I: IntoIterator<Item = Result<Vec<Variant>>>,
    {
        let upper = name.to_ascii_uppercase();
        let gov = Arc::new(QueryGovernor::from_params(&self.session_params()));
        let store = self.store();
        let inner: Box<dyn PartitionSink> = match &store {
            Some(s) => Box::new(s.sink(schema.clone())),
            None => Box::new(MemSink),
        };
        let sink = GovernedSink { inner, gov };
        let mut b =
            TableBuilder::with_sink(upper.clone(), schema.clone(), partition_rows, Box::new(sink));
        for row in rows {
            b.push_row(&row?)?;
        }
        let table = Arc::new(b.finish()?);
        // Publish atomically; on failure the fresh partition files stay
        // invisible debris (swept on the next write-open) and the previous
        // table version remains live.
        self.commit_latest(WriteSet::single(&upper, TableWrite::Put {
            table,
            expect_absent: false,
        }))?;
        Ok(())
    }

    /// Opens (or initializes) a persistent database directory with the write
    /// lock. Every committed table is reconstructed lazily — footers are
    /// read, column data is not — and subsequent catalog commits write new
    /// manifest versions to the same directory. A directory already
    /// write-locked by a *different live process* is refused with a typed
    /// [`SnowError::Storage`]; use [`Database::open_read_only`] to read past
    /// the lock.
    pub fn open(dir: impl AsRef<std::path::Path>) -> Result<Database> {
        Database::open_mode(dir, false)
    }

    /// Opens a persistent database directory without taking the write lock:
    /// always succeeds alongside a live writer process, but every catalog
    /// mutation on the returned database is refused with a typed error.
    pub fn open_read_only(dir: impl AsRef<std::path::Path>) -> Result<Database> {
        Database::open_mode(dir, true)
    }

    fn open_mode(dir: impl AsRef<std::path::Path>, read_only: bool) -> Result<Database> {
        let (store, tables) = if read_only {
            Store::open_read_only(dir)?
        } else {
            Store::open(dir)?
        };
        let version = store.version();
        let mut map = std::collections::BTreeMap::new();
        for t in tables {
            let name = t.name().to_ascii_uppercase();
            map.insert(name, TableEntry { table: Arc::new(t), committed_at: version });
        }
        let mut snapshot = CatalogSnapshot::new(version, map);
        snapshot.set_pin(store.pin_current());
        let db = Database {
            catalog: SharedCatalog::new(snapshot),
            ..Database::default()
        };
        db.catalog.set_capacity(store.retention());
        *db.store.write() = Some(store);
        Ok(db)
    }

    /// Persists the current catalog into a fresh database directory and
    /// attaches it: every partition is written as an immutable partition
    /// file, all tables are committed in **one** manifest version, and the
    /// in-memory snapshots are swapped for their disk-backed (lazily read)
    /// versions. Refuses a directory that already holds a database.
    pub fn persist_to(&self, dir: impl AsRef<std::path::Path>) -> Result<()> {
        let store = Store::create(dir)?;
        // Hold the commit lock across the whole persist so no commit can
        // slip between the catalog snapshot and the attach.
        let _guard = self.catalog.lock_commits();
        let current = self.catalog.snapshot();
        let mut writes = Vec::new();
        for (name, entry) in current.entries() {
            let t = &entry.table;
            let mut sources = Vec::with_capacity(t.partitions().len());
            for part in t.partitions() {
                let (src, _pref) = store.write_partition(&part.to_mem()?, t.schema())?;
                sources.push(src);
            }
            let table =
                Arc::new(Table::from_parts(t.name().to_string(), t.schema().to_vec(), sources));
            writes.push((name.clone(), TableWrite::Put { table, expect_absent: false }));
        }
        if writes.is_empty() {
            *self.store.write() = Some(store);
            return Ok(());
        }
        let set = WriteSet { writes };
        store.commit_writes(&set)?;
        let next = current.apply(current.version(), &set)?;
        *self.store.write() = Some(store);
        self.catalog.publish(Arc::new(next));
        Ok(())
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<Arc<Store>> {
        self.store.read().clone()
    }

    /// Pins the current catalog version. Everything resolved through the
    /// returned snapshot is immutable: concurrent commits publish *new*
    /// versions and never mutate a pinned one.
    pub fn snapshot(&self) -> Arc<CatalogSnapshot> {
        self.catalog.snapshot()
    }

    /// Commits a write set against `base_version` (the version the writer
    /// read its inputs from): the optimistic compare-and-swap. Under the
    /// commit lock the set is validated against the *current* version
    /// ([`CatalogSnapshot::apply`]); on success it is made durable first
    /// (when a store is attached) and then published. A validation failure
    /// surfaces as [`SnowError::WriteConflict`] with nothing changed.
    pub(crate) fn commit_writes(
        &self,
        base_version: u64,
        set: WriteSet,
    ) -> Result<Arc<CatalogSnapshot>> {
        let _guard = self.catalog.lock_commits();
        let current = self.catalog.snapshot();
        self.commit_locked(&current, base_version, set)
    }

    /// Commits a write set against whatever version is current at the commit
    /// point — replace/last-writer-wins semantics (bulk load, register,
    /// drop). Never trips a write conflict for plain `Put`s and `Drop`s.
    fn commit_latest(&self, set: WriteSet) -> Result<Arc<CatalogSnapshot>> {
        let _guard = self.catalog.lock_commits();
        let current = self.catalog.snapshot();
        let base = current.version();
        self.commit_locked(&current, base, set)
    }

    fn commit_locked(
        &self,
        current: &Arc<CatalogSnapshot>,
        base_version: u64,
        set: WriteSet,
    ) -> Result<Arc<CatalogSnapshot>> {
        let mut next = current.apply(base_version, &set)?;
        if let Some(s) = self.store() {
            // Durability first: the manifest CAS is the real commit point.
            // If it fails, nothing was published and prepared partition
            // files remain invisible debris.
            s.commit_writes(&set)?;
            // Pin the new version's files for the snapshot's lifetime: a
            // query holding this snapshot can outlive the version's stay in
            // the retention window, and GC must defer, not unlink.
            next.set_pin(s.pin_current());
        }
        let next = Arc::new(next);
        self.catalog.publish(next.clone());
        Ok(next)
    }

    /// A fresh deterministic-jitter seed for one auto-commit retry loop.
    pub(crate) fn next_commit_seed(&self) -> u64 {
        crate::govern::chaos::splitmix64(
            self.commit_seq.fetch_add(1, AtomicOrd::Relaxed).wrapping_add(0x5EED),
        )
    }

    /// Registers a pre-built table snapshot, replacing any same-named table.
    /// When a persistent store is attached the partitions are written to
    /// disk first so the commit is durable.
    pub fn register(&self, table: Table) -> Result<()> {
        let upper = table.name().to_ascii_uppercase();
        let table = match self.store() {
            Some(s) => {
                let mut sources = Vec::with_capacity(table.partitions().len());
                for part in table.partitions() {
                    let (src, _pref) = s.write_partition(&part.to_mem()?, table.schema())?;
                    sources.push(src);
                }
                Arc::new(Table::from_parts(
                    table.name().to_string(),
                    table.schema().to_vec(),
                    sources,
                ))
            }
            None => Arc::new(table),
        };
        self.commit_latest(WriteSet::single(&upper, TableWrite::Put {
            table,
            expect_absent: false,
        }))?;
        Ok(())
    }

    /// Removes a table; returns whether it existed. Infallible legacy shim
    /// over [`Database::drop_table_checked`]; a failed persistent-catalog
    /// commit reports `false` and leaves the table in place.
    pub fn drop_table(&self, name: &str) -> bool {
        self.drop_table_checked(name).unwrap_or(false)
    }

    /// Removes a table, committing the drop to the persistent catalog when a
    /// store is attached. The in-memory catalog only changes after the commit
    /// succeeds, so a failed commit leaves both views consistent. Drops are
    /// idempotent and never conflict.
    pub fn drop_table_checked(&self, name: &str) -> Result<bool> {
        let upper = name.to_ascii_uppercase();
        let base = self.snapshot();
        if base.table(&upper).is_none() {
            return Ok(false);
        }
        self.commit_writes(base.version(), WriteSet::single(&upper, TableWrite::Drop))?;
        Ok(true)
    }

    /// Current schema generation — the catalog version; changes whenever the
    /// catalog does. Anything compiled against the catalog (cached
    /// translations, prepared plans) should treat a different stamp as a
    /// different database.
    pub fn schema_generation(&self) -> u64 {
        self.catalog.snapshot().version()
    }

    /// Fetches a table snapshot from the current catalog version.
    pub fn table(&self, name: &str) -> Option<Arc<Table>> {
        self.catalog.snapshot().table(name)
    }

    /// Names of all tables in the current catalog version.
    pub fn table_names(&self) -> Vec<String> {
        self.catalog.snapshot().table_names()
    }

    /// Compiles a SQL query to an optimized plan (parse + bind + optimize).
    pub fn compile(&self, sql: &str) -> Result<Node> {
        self.compile_with(sql, true)
    }

    /// Compiles a SQL query, optionally skipping the optimizer: the raw bound
    /// plan executes on the same pipeline, which is what lets the verification
    /// oracle compare optimized against unoptimized results.
    pub fn compile_with(&self, sql: &str, optimize_plan: bool) -> Result<Node> {
        self.compile_on(&self.snapshot(), sql, optimize_plan)
    }

    /// Compiles against an explicit pinned snapshot (sessions compile inside
    /// their transaction's effective catalog). Binds run through a
    /// [`TravelCatalog`], so `AT`/`BEFORE` clauses resolve retained
    /// historical versions while plain references stay on the snapshot.
    pub(crate) fn compile_on(
        &self,
        cat: &CatalogSnapshot,
        sql: &str,
        optimize_plan: bool,
    ) -> Result<Node> {
        let ast = parse_query(sql)?;
        let bound = bind_query(&ast, &TravelCatalog { db: self, base: cat })?;
        if optimize_plan {
            optimize(bound)
        } else {
            Ok(bound)
        }
    }

    /// Overrides the worker-thread count for this database's queries.
    /// `None` restores the default resolution (`SNOWDB_THREADS` environment
    /// variable, then available parallelism); values are clamped to ≥ 1.
    pub fn set_threads(&self, threads: Option<usize>) {
        *self.threads.write() = threads.map(|t| t.max(1));
    }

    /// Worker count for the next query: explicit override, else the
    /// `SNOWDB_THREADS` environment variable (re-read per query), else the
    /// machine's available parallelism. 1 means fully inline serial
    /// execution — no threads are spawned.
    pub fn effective_threads(&self) -> usize {
        if let Some(t) = *self.threads.read() {
            return t;
        }
        if let Some(t) = std::env::var("SNOWDB_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
        {
            return t.max(1);
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    /// Runs a SQL query end to end, reporting a per-phase [`QueryProfile`].
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.query_with(sql, &QueryOptions::default())
    }

    /// Runs a SQL query under explicit execution options (optimizer on/off,
    /// thread count) without touching the database-wide defaults. The query
    /// runs under a governor armed from the session parameters.
    pub fn query_with(&self, sql: &str, opts: &QueryOptions) -> Result<QueryResult> {
        let gov = Arc::new(QueryGovernor::from_params(&self.session_params()));
        self.query_governed(sql, opts, gov).map_err(SnowError::from)
    }

    /// Runs a SQL query under an explicit [`QueryGovernor`]. On failure the
    /// [`QueryFailure`] carries the typed error plus the partial per-operator
    /// metrics tree accumulated up to the abort — the diagnosable form of a
    /// cancellation, deadline, or budget trip. The chaos harness drives this
    /// entry point directly with fault-schedule governors.
    // The large Err carries the whole diagnosis (summary + partial metrics);
    // it is built once on an already-failed, cold path.
    #[allow(clippy::result_large_err)]
    pub fn query_governed(
        &self,
        sql: &str,
        opts: &QueryOptions,
        gov: Arc<QueryGovernor>,
    ) -> std::result::Result<QueryResult, QueryFailure> {
        self.query_on(&self.snapshot(), sql, opts, gov)
    }

    /// [`Database::query_governed`] against an explicit pinned snapshot — the
    /// statement sees exactly one catalog version from bind to last batch.
    #[allow(clippy::result_large_err)]
    pub(crate) fn query_on(
        &self,
        cat: &CatalogSnapshot,
        sql: &str,
        opts: &QueryOptions,
        gov: Arc<QueryGovernor>,
    ) -> std::result::Result<QueryResult, QueryFailure> {
        let t0 = Instant::now();
        let plan = match self.compile_on(cat, sql, opts.optimize) {
            Ok(p) => p,
            Err(error) => {
                return Err(QueryFailure {
                    error,
                    partial_metrics: None,
                    summary: gov.summary(),
                })
            }
        };
        let compile_time = t0.elapsed();

        let threads = opts.threads.map_or_else(|| self.effective_threads(), |t| t.max(1));
        let vectorize =
            opts.vectorize.unwrap_or_else(crate::exec::vectorize_from_env);
        let encode = opts.encode.unwrap_or_else(crate::storage::encode_from_env);
        let (batches, phys_metrics, ctx, exec_time) =
            self.run_physical(&plan, threads, vectorize, encode, gov.clone());
        let batches = match batches {
            Ok(b) => b,
            Err(error) => {
                return Err(QueryFailure {
                    error,
                    partial_metrics: Some(phys_metrics),
                    summary: gov.summary(),
                })
            }
        };

        let columns = plan.fields.iter().map(|f| f.name.clone()).collect();
        let mut rows = Vec::with_capacity(pipeline::total_rows(&batches));
        for chunk in batches {
            // Result boundary: drain each batch's columns into row vectors —
            // values are moved, never cloned per cell.
            rows.extend(chunk.into_rows());
        }
        Ok(QueryResult {
            columns,
            rows,
            profile: QueryProfile {
                compile_time,
                exec_time,
                scan: ctx.stats,
                metrics: Some(phys_metrics),
                governed: gov.is_armed().then(|| gov.summary()),
            },
        })
    }

    /// Submits a query on a background thread, returning a cancellable
    /// [`QueryHandle`]. The governor is armed from the session parameters at
    /// submit time; [`QueryHandle::cancel`] trips it at the next batch
    /// boundary.
    pub fn execute_governed(self: &Arc<Database>, sql: &str) -> QueryHandle {
        let gov = Arc::new(QueryGovernor::from_params(&self.session_params()));
        let db = Arc::clone(self);
        let g = gov.clone();
        let sql = sql.to_string();
        #[allow(clippy::result_large_err)]
        let join = std::thread::spawn(move || {
            db.query_governed(&sql, &QueryOptions::default(), g)
        });
        QueryHandle::new(gov, join)
    }

    /// Executes an optimized plan on the morsel-parallel pipeline, returning
    /// batches, the metrics snapshot, the execution context, and wall time.
    /// Metrics and context come back even when execution fails — that is what
    /// makes a governance trip diagnosable from its partial metrics tree.
    fn run_physical(
        &self,
        plan: &Node,
        threads: usize,
        vectorize: bool,
        encode: bool,
        gov: Arc<QueryGovernor>,
    ) -> (Result<Vec<crate::exec::Chunk>>, OpMetrics, ExecCtx, Duration) {
        let t = Instant::now();
        let phys: PhysNode<'_> = lower(plan, threads);
        let mut ctx = ExecCtx::worker(gov, vectorize, encode);
        // Last line of panic isolation: a panic escaping the morsel layer's
        // catch_unwind (e.g. one injected at a claim gate) must not cross the
        // engine boundary. The catalog is only read during execution, the
        // engine's parking_lot locks do not poison, and the store's std
        // mutexes recover from poisoning (`store::lock`), so unwinding to
        // here leaves the database fully usable.
        let batches = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pipeline::execute_physical(&phys, &mut ctx)
        }))
        .unwrap_or_else(|payload| {
            Err(SnowError::internal(
                "executor",
                crate::govern::panic_message(&*payload),
            ))
        });
        let exec_time = t.elapsed();
        (batches, phys.snapshot(), ctx, exec_time)
    }

    /// Renders the optimized plan of a query (`EXPLAIN`).
    pub fn explain(&self, sql: &str) -> Result<String> {
        Ok(crate::plan::explain(&self.compile(sql)?))
    }

    /// Renders the plan with or without the optimizer passes applied — the
    /// divergence reports of the verification oracle show both.
    pub fn explain_with(&self, sql: &str, optimize_plan: bool) -> Result<String> {
        Ok(crate::plan::explain(&self.compile_with(sql, optimize_plan)?))
    }

    /// Runs the query and renders its plan annotated with the measured
    /// per-operator metrics (`EXPLAIN ANALYZE`).
    pub fn explain_analyze(&self, sql: &str) -> Result<String> {
        let plan = self.compile(sql)?;
        self.explain_analyze_plan(&plan)
    }

    fn explain_analyze_plan(&self, plan: &Node) -> Result<String> {
        let gov = Arc::new(QueryGovernor::from_params(&self.session_params()));
        let (batches, metrics, ctx, exec_time) = self.run_physical(
            plan,
            self.effective_threads(),
            crate::exec::vectorize_from_env(),
            crate::storage::encode_from_env(),
            gov.clone(),
        );
        let batches = batches?;
        let rows = pipeline::total_rows(&batches);
        let mut out = crate::plan::explain_analyze(plan, &metrics);
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                "-- {} row(s) in {:.3?}; {} bytes scanned, {}/{} partitions\n",
                rows,
                exec_time,
                ctx.stats.bytes_scanned,
                ctx.stats.partitions_scanned,
                ctx.stats.partitions_total,
            ),
        );
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(
                "-- pruned: {} partition(s), {} column block(s) skipped, {} bytes saved\n",
                ctx.stats.partitions_pruned, ctx.stats.columns_skipped, ctx.stats.bytes_skipped,
            ),
        );
        if ctx.stats.cache_hits + ctx.stats.cache_misses > 0 {
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!(
                    "-- buffer cache: {} hit(s), {} miss(es), {} eviction(s)\n",
                    ctx.stats.cache_hits, ctx.stats.cache_misses, ctx.stats.cache_evictions,
                ),
            );
        }
        if gov.is_armed() {
            let _ = std::fmt::Write::write_fmt(
                &mut out,
                format_args!("-- {}\n", gov.summary().render()),
            );
        }
        Ok(out)
    }

    /// Current session parameters.
    pub fn session_params(&self) -> SessionParams {
        *self.params.read()
    }

    /// Sets a session parameter (`0` clears, Snowflake-style); returns its
    /// canonical name.
    pub fn set_session_param(&self, name: &str, value: u64) -> Result<&'static str> {
        self.params.write().set(name, value)
    }

    /// Clears a session parameter; returns its canonical name.
    pub fn unset_session_param(&self, name: &str) -> Result<&'static str> {
        self.params.write().unset(name)
    }

    /// Executes any statement: queries return rows, DDL/DML return a message.
    ///
    /// DML (`INSERT`/`UPDATE`/`DELETE`) auto-commits: it plans against a
    /// pinned snapshot, prepares partitions off to the side, and commits
    /// optimistically, retrying lost races on a fresh snapshot under a
    /// seeded bounded backoff. Explicit transactions need a
    /// [`crate::session::Session`].
    pub fn execute(&self, sql: &str) -> Result<StatementResult> {
        match parse_statement(sql)? {
            Statement::Query(_) => Ok(StatementResult::Rows(self.query(sql)?)),
            Statement::Verify(query_sql) => {
                let report = crate::verify::verify_sql(
                    self,
                    &query_sql,
                    &crate::verify::default_lattice(self.effective_threads()),
                    crate::verify::DEFAULT_EPSILON,
                )?;
                Ok(StatementResult::Message(report.render()))
            }
            Statement::Explain(q) => {
                let snap = self.snapshot();
                let bound =
                    crate::plan::bind_query(&q, &TravelCatalog { db: self, base: &snap })?;
                let plan = crate::optimize::optimize(bound)?;
                Ok(StatementResult::Message(crate::plan::explain(&plan)))
            }
            Statement::ExplainAnalyze(q) => {
                let snap = self.snapshot();
                let bound =
                    crate::plan::bind_query(&q, &TravelCatalog { db: self, base: &snap })?;
                let plan = crate::optimize::optimize(bound)?;
                Ok(StatementResult::Message(self.explain_analyze_plan(&plan)?))
            }
            Statement::CreateTable { name, columns } => {
                let upper = name.to_ascii_uppercase();
                let schema: Vec<ColumnDef> = columns
                    .into_iter()
                    .map(|(n, ty)| crate::storage::ColumnDef::new(n, ty))
                    .collect();
                let policy = RetryPolicy::commit_default(self.next_commit_seed());
                retry::run(&policy, |_| {
                    let base = self.snapshot();
                    if base.table(&upper).is_some() {
                        return Err(SnowError::Catalog(format!(
                            "table '{name}' already exists"
                        )));
                    }
                    let table =
                        Arc::new(Table::from_parts(upper.clone(), schema.clone(), Vec::new()));
                    self.commit_writes(
                        base.version(),
                        WriteSet::single(&upper, TableWrite::Put { table, expect_absent: true }),
                    )
                })?;
                Ok(StatementResult::Message(format!("created table {name}")))
            }
            stmt @ (Statement::Insert { .. }
            | Statement::Update { .. }
            | Statement::Delete { .. }) => {
                self.autocommit_dml(&stmt, &self.session_params())
            }
            Statement::DropTable { name, if_exists } => {
                let existed = self.drop_table_checked(&name)?;
                if !existed && !if_exists {
                    return Err(SnowError::Catalog(format!("table '{name}' does not exist")));
                }
                Ok(StatementResult::Message(format!("dropped table {name}")))
            }
            Statement::Undrop { name } => {
                let version = self.undrop_table(&name)?;
                Ok(StatementResult::Message(format!(
                    "undropped table {name} (restored from version {version})"
                )))
            }
            Statement::CloneTable { name, source, travel } => {
                self.clone_table(&name, &source, travel.as_ref())?;
                Ok(StatementResult::Message(format!(
                    "created table {name} as zero-copy clone of {source}"
                )))
            }
            Statement::Set { name, value } if name.eq_ignore_ascii_case(RETENTION_PARAM) => {
                if value == 0 {
                    return Err(SnowError::Catalog(format!(
                        "{RETENTION_PARAM} must be at least 1 \
                         (the current version is always retained)"
                    )));
                }
                let v = self.set_retention(value)?;
                Ok(StatementResult::Message(format!("{RETENTION_PARAM} set to {v}")))
            }
            Statement::Set { name, value } => {
                let canonical = self.set_session_param(&name, value)?;
                Ok(StatementResult::Message(if value == 0 {
                    format!("{canonical} cleared")
                } else {
                    format!("{canonical} set to {value}")
                }))
            }
            Statement::Unset { name } => {
                let canonical = self.unset_session_param(&name)?;
                Ok(StatementResult::Message(format!("{canonical} cleared")))
            }
            Statement::Begin | Statement::Commit | Statement::Rollback => {
                Err(SnowError::Catalog(
                    "explicit transactions require a session: open a snowdb::Session \
                     and run BEGIN/COMMIT/ROLLBACK there"
                        .into(),
                ))
            }
        }
    }

    /// Auto-commits one DML statement: plan against a pinned snapshot,
    /// prepare partitions, commit via CAS, retry lost races on a fresh
    /// snapshot under a seeded bounded backoff.
    pub(crate) fn autocommit_dml(
        &self,
        stmt: &Statement,
        params: &SessionParams,
    ) -> Result<StatementResult> {
        let gov = Arc::new(QueryGovernor::from_params(params));
        self.autocommit_dml_governed(stmt, &gov)
    }

    /// [`Database::autocommit_dml`] under an explicit governor, so a caller
    /// holding the governor (the network service layer, a `QueryHandle`) can
    /// cancel the rewrite mid-flight. One governor spans every retry attempt:
    /// the statement deadline covers the whole statement, and a cancellation
    /// requested during backoff aborts the next attempt at its first
    /// checkpoint.
    pub(crate) fn autocommit_dml_governed(
        &self,
        stmt: &Statement,
        gov: &Arc<QueryGovernor>,
    ) -> Result<StatementResult> {
        let policy = RetryPolicy::commit_default(self.next_commit_seed());
        retry::run(&policy, |_| {
            let base = self.snapshot();
            let (name, write, msg) = self.plan_dml(&base, stmt, gov)?;
            if let Some(w) = write {
                self.commit_writes(base.version(), WriteSet::single(&name, w))?;
            }
            Ok(StatementResult::Message(msg))
        })
    }

    /// Plans one DML statement against a pinned snapshot, returning the
    /// table name, the prepared write (or `None` when the statement touched
    /// no partition), and the result message. Pure with respect to the
    /// catalog: nothing is committed. Sessions call this against their
    /// transaction's effective catalog.
    pub(crate) fn plan_dml(
        &self,
        cat: &CatalogSnapshot,
        stmt: &Statement,
        gov: &Arc<QueryGovernor>,
    ) -> Result<(String, Option<TableWrite>, String)> {
        match stmt {
            Statement::Insert { table, rows } => self.plan_insert(cat, table, rows, gov),
            Statement::Update { table, sets, predicate } => {
                self.plan_update(cat, table, sets, predicate.as_ref(), gov)
            }
            Statement::Delete { table, predicate } => {
                self.plan_delete(cat, table, predicate.as_ref(), gov)
            }
            other => Err(SnowError::internal(
                "engine",
                format!("plan_dml called with non-DML statement {other:?}"),
            )),
        }
    }

    /// `INSERT`: evaluates the `VALUES` tuples and seals them into fresh
    /// partitions (streamed straight to partition files when a store is
    /// attached). The append merges with concurrent appends at commit time;
    /// existing partitions are never rewritten.
    fn plan_insert(
        &self,
        cat: &CatalogSnapshot,
        table: &str,
        rows: &[Vec<Expr>],
        gov: &Arc<QueryGovernor>,
    ) -> Result<(String, Option<TableWrite>, String)> {
        let upper = table.to_ascii_uppercase();
        let t = cat
            .table(&upper)
            .ok_or_else(|| SnowError::Catalog(format!("table '{table}' does not exist")))?;
        // Evaluate each VALUES tuple as literal expressions.
        let mut ctx = ExecCtx::default();
        let chunk = crate::exec::Chunk { cols: Vec::new(), rows: 1 };
        let parts = [(&chunk, 0usize)];
        let view = crate::exec::RowView::new(&parts);
        let mut new_rows: Vec<Vec<Variant>> = Vec::with_capacity(rows.len());
        for tuple in rows {
            if tuple.len() != t.schema().len() {
                return Err(SnowError::Catalog(format!(
                    "INSERT arity {} does not match table arity {}",
                    tuple.len(),
                    t.schema().len()
                )));
            }
            let mut row = Vec::with_capacity(tuple.len());
            for e in tuple {
                let bound = crate::plan::binder::bind_expr(e, &[], None)?;
                row.push(crate::exec::eval(&bound, view, &mut ctx)?);
            }
            new_rows.push(row);
        }
        let inserted = new_rows.len();
        let schema = t.schema().to_vec();
        let parts = self.build_partitions(&upper, &schema, &new_rows, DEFAULT_PARTITION_ROWS, gov)?;
        let write = (!parts.is_empty()).then_some(TableWrite::Append { parts, schema });
        Ok((upper, write, format!("inserted {inserted} row(s)")))
    }

    /// `DELETE`: copy-on-write partition rewrite. Partitions with no matching
    /// row keep their `Arc` (zero copy, and — because conflict detection is
    /// by partition identity — zero conflict surface); partitions losing all
    /// rows are removed outright; mixed partitions are rebuilt from their
    /// surviving rows. Rows are deleted iff the predicate is `TRUE`
    /// (`FALSE`-or-`NULL` rows survive — SQL three-valued logic).
    fn plan_delete(
        &self,
        cat: &CatalogSnapshot,
        table: &str,
        predicate: Option<&Expr>,
        gov: &Arc<QueryGovernor>,
    ) -> Result<(String, Option<TableWrite>, String)> {
        let upper = table.to_ascii_uppercase();
        let t = cat
            .table(&upper)
            .ok_or_else(|| SnowError::Catalog(format!("table '{table}' does not exist")))?;
        let schema = t.schema().to_vec();
        let bound = self.bind_dml_predicate(&t, predicate)?;
        let mut removed = Vec::new();
        let mut added = Vec::new();
        let mut deleted = 0usize;
        for part in t.partitions() {
            gov.checkpoint("Rewrite")?;
            let rows = part.row_count();
            if rows == 0 {
                continue;
            }
            let (mask, cols) = self.match_rows(part, &schema, bound.as_ref(), gov)?;
            let hits = mask.iter().filter(|&&m| m).count();
            if hits == 0 {
                continue;
            }
            deleted += hits;
            removed.push(part.clone());
            if hits == rows {
                continue;
            }
            let mut survivors: Vec<Vec<Variant>> = Vec::with_capacity(rows - hits);
            for (r, &dead) in mask.iter().enumerate() {
                if !dead {
                    survivors.push(cols.iter().map(|c| c.get(r)).collect());
                }
            }
            added.extend(self.build_partitions(&upper, &schema, &survivors, rows, gov)?);
        }
        let write = (!removed.is_empty()).then_some(TableWrite::Rewrite { removed, added });
        Ok((upper, write, format!("deleted {deleted} row(s)")))
    }

    /// `UPDATE`: copy-on-write partition rewrite. Untouched partitions keep
    /// their `Arc`; a partition with at least one matching row is rebuilt
    /// with the `SET` expressions applied to matching rows (evaluated
    /// against the *old* row, so `SET a = a + 1` is well-defined).
    fn plan_update(
        &self,
        cat: &CatalogSnapshot,
        table: &str,
        sets: &[(String, Expr)],
        predicate: Option<&Expr>,
        gov: &Arc<QueryGovernor>,
    ) -> Result<(String, Option<TableWrite>, String)> {
        let upper = table.to_ascii_uppercase();
        let t = cat
            .table(&upper)
            .ok_or_else(|| SnowError::Catalog(format!("table '{table}' does not exist")))?;
        let schema = t.schema().to_vec();
        let fields = self.dml_fields(&t);
        let mut set_cols: Vec<(usize, PExpr)> = Vec::with_capacity(sets.len());
        for (col, e) in sets {
            let idx = t.column_index(col).ok_or_else(|| {
                SnowError::Plan(format!("unknown column '{col}' in UPDATE SET"))
            })?;
            set_cols.push((idx, crate::plan::binder::bind_expr(e, &fields, None)?));
        }
        let bound = self.bind_dml_predicate(&t, predicate)?;
        let mut removed = Vec::new();
        let mut added = Vec::new();
        let mut updated = 0usize;
        for part in t.partitions() {
            gov.checkpoint("Rewrite")?;
            let rows = part.row_count();
            if rows == 0 {
                continue;
            }
            let (mask, cols) = self.match_rows(part, &schema, bound.as_ref(), gov)?;
            let hits = mask.iter().filter(|&&m| m).count();
            if hits == 0 {
                continue;
            }
            updated += hits;
            removed.push(part.clone());
            // Re-materialize the whole partition, substituting the SET
            // expressions on matching rows.
            let chunk = self.partition_chunk(&cols, rows);
            let mut ctx = ExecCtx::default();
            let mut rebuilt: Vec<Vec<Variant>> = Vec::with_capacity(rows);
            for (r, &hit) in mask.iter().enumerate() {
                let mut row: Vec<Variant> = cols.iter().map(|c| c.get(r)).collect();
                if hit {
                    let parts = [(&chunk, r)];
                    let view = crate::exec::RowView::new(&parts);
                    for (idx, e) in &set_cols {
                        row[*idx] = crate::exec::eval(e, view, &mut ctx)?;
                    }
                }
                rebuilt.push(row);
            }
            added.extend(self.build_partitions(&upper, &schema, &rebuilt, rows, gov)?);
        }
        let write = (!removed.is_empty()).then_some(TableWrite::Rewrite { removed, added });
        Ok((upper, write, format!("updated {updated} row(s)")))
    }

    /// Bind fields for DML predicates/SET expressions: every column,
    /// qualified by the table name.
    fn dml_fields(&self, t: &Table) -> Vec<Field> {
        t.schema()
            .iter()
            .map(|c| Field::new(Some(t.name()), c.name.clone()))
            .collect()
    }

    fn bind_dml_predicate(&self, t: &Table, predicate: Option<&Expr>) -> Result<Option<PExpr>> {
        let fields = self.dml_fields(t);
        predicate
            .map(|p| crate::plan::binder::bind_expr(p, &fields, None))
            .transpose()
    }

    /// Reads every column of a partition (governed) and evaluates the
    /// predicate per row: `mask[r]` is true iff the predicate is `TRUE` on
    /// row `r` (no predicate matches every row).
    fn match_rows(
        &self,
        part: &Arc<ScanSource>,
        schema: &[ColumnDef],
        pred: Option<&PExpr>,
        gov: &QueryGovernor,
    ) -> Result<(Vec<bool>, Vec<Arc<crate::exec::ColumnVec>>)> {
        let rows = part.row_count();
        let mut cols = Vec::with_capacity(schema.len());
        for i in 0..schema.len() {
            cols.push(part.read_column_governed(i, gov, "Rewrite")?.data);
        }
        let mask = match pred {
            None => vec![true; rows],
            Some(p) => {
                let chunk = self.partition_chunk(&cols, rows);
                let mut ctx = ExecCtx::default();
                let mut mask = Vec::with_capacity(rows);
                for r in 0..rows {
                    let parts = [(&chunk, r)];
                    let view = crate::exec::RowView::new(&parts);
                    let v = crate::exec::eval(p, view, &mut ctx)?;
                    mask.push(crate::exec::truth(&v)? == Some(true));
                }
                mask
            }
        };
        Ok((mask, cols))
    }

    fn partition_chunk(
        &self,
        cols: &[Arc<crate::exec::ColumnVec>],
        rows: usize,
    ) -> crate::exec::Chunk {
        crate::exec::Chunk { cols: cols.iter().map(|c| c.decoded()).collect(), rows }
    }

    /// Seals rows into fresh partitions through the standard builder path
    /// (type validation, stats, zone maps), streaming to partition files
    /// when a store is attached and charging the governor for every sealed
    /// partition.
    pub(crate) fn build_partitions(
        &self,
        name: &str,
        schema: &[ColumnDef],
        rows: &[Vec<Variant>],
        partition_rows: usize,
        gov: &Arc<QueryGovernor>,
    ) -> Result<Vec<Arc<ScanSource>>> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        let inner: Box<dyn PartitionSink> = match self.store() {
            Some(s) => Box::new(s.sink(schema.to_vec())),
            None => Box::new(MemSink),
        };
        let sink = GovernedSink { inner, gov: gov.clone() };
        let mut b = TableBuilder::with_sink(
            name.to_string(),
            schema.to_vec(),
            partition_rows.max(1),
            Box::new(sink),
        );
        for row in rows {
            b.push_row(row)?;
        }
        Ok(b.finish()?.partitions().to_vec())
    }

    /// Sets the retention window (number of committed versions kept for time
    /// travel / `UNDROP` / clones, including the current one; clamped ≥ 1).
    /// For a persistent database the change is itself a commit — shrinking
    /// immediately evicts (and GCs) history beyond the new window.
    pub fn set_retention(&self, versions: u64) -> Result<u64> {
        let versions = versions.max(1);
        let _guard = self.catalog.lock_commits();
        if let Some(s) = self.store() {
            let current = self.catalog.snapshot();
            s.set_retention(versions)?;
            // The store committed a version of its own; publish the matching
            // (table-wise empty) catalog version to keep the two counters —
            // and their histories — in lockstep.
            let mut next = current.apply(current.version(), &WriteSet::default())?;
            next.set_pin(s.pin_current());
            self.catalog.set_capacity(versions);
            self.catalog.publish(Arc::new(next));
        } else {
            self.catalog.set_capacity(versions);
        }
        Ok(versions)
    }

    /// The configured retention window in versions.
    pub fn retention(&self) -> u64 {
        match self.store() {
            Some(s) => s.retention(),
            None => self.catalog.capacity(),
        }
    }

    /// Resolves a table as of a retained historical version, for `AT`/
    /// `BEFORE` clauses, `UNDROP`, and versioned clones. Resolution order:
    /// the base snapshot itself, then the store's manifest history (whose
    /// reconstructed partitions carry a GC [`crate::store::VersionPin`]),
    /// then the in-memory snapshot history (purely in-memory databases,
    /// where no GC exists). Evicted or unknown versions surface as typed
    /// errors, never a wrong answer.
    pub(crate) fn table_at_version(
        &self,
        name: &str,
        travel: &Travel,
        base: &CatalogSnapshot,
    ) -> Result<Arc<Table>> {
        let version = if travel.before {
            travel.version.checked_sub(1).ok_or_else(|| {
                SnowError::Plan("BEFORE(VERSION => 0) has no predecessor version".into())
            })?
        } else {
            travel.version
        };
        let upper = name.to_ascii_uppercase();
        if version > base.version() {
            return Err(SnowError::Catalog(format!(
                "version {version} has not been committed yet (current version: {})",
                base.version()
            )));
        }
        let missing = || {
            SnowError::Catalog(format!("table '{name}' did not exist at version {version}"))
        };
        if version == base.version() {
            return base.table(&upper).ok_or_else(missing);
        }
        if let Some(s) = self.store() {
            return match s.open_table_at(version, &upper)? {
                Some(t) => Ok(Arc::new(t)),
                None => Err(missing()),
            };
        }
        match self.catalog.at_version(version) {
            Some(snap) => snap.table(&upper).ok_or_else(missing),
            None => Err(SnowError::Storage(format!(
                "version {version} is outside the retention window \
                 (retention: {} versions)",
                self.catalog.capacity()
            ))),
        }
    }

    /// `UNDROP TABLE`: restores the table from the most recent retained
    /// version that still holds it, as a `CREATE`-style commit (conflicts if
    /// the name was concurrently re-created). Returns the version restored
    /// from; a table absent from every retained version is a typed catalog
    /// error.
    pub fn undrop_table(&self, name: &str) -> Result<u64> {
        let upper = name.to_ascii_uppercase();
        let policy = RetryPolicy::commit_default(self.next_commit_seed());
        retry::run(&policy, |_| {
            let base = self.snapshot();
            if base.table(&upper).is_some() {
                return Err(SnowError::Catalog(format!(
                    "table '{name}' already exists (drop it before UNDROP)"
                )));
            }
            let (table, version) = self.latest_retained(&upper)?;
            let table = Arc::new(Table::from_parts(
                upper.clone(),
                table.schema().to_vec(),
                table.partitions().to_vec(),
            ));
            self.commit_writes(
                base.version(),
                WriteSet::single(&upper, TableWrite::Put { table, expect_absent: true }),
            )?;
            Ok(version)
        })
    }

    /// The newest retained historical version holding `upper`, walking the
    /// manifest history when a store is attached (it survives restarts),
    /// else the in-memory snapshot history.
    fn latest_retained(&self, upper: &str) -> Result<(Arc<Table>, u64)> {
        if let Some(s) = self.store() {
            for v in s.retained_versions().into_iter().rev() {
                if let Some(t) = s.open_table_at(v, upper)? {
                    return Ok((Arc::new(t), v));
                }
            }
        } else {
            let current = self.catalog.snapshot().version();
            for v in (1..=current).rev() {
                let Some(snap) = self.catalog.at_version(v) else { break };
                if let Some(t) = snap.table(upper) {
                    return Ok((t, v));
                }
            }
        }
        Err(SnowError::Catalog(format!(
            "table '{upper}' is not present in any retained version \
             (retention: {} versions)",
            self.retention()
        )))
    }

    /// `CREATE TABLE ... CLONE src [AT/BEFORE(VERSION => n)]`: a zero-copy
    /// metadata operation. The clone shares the source's immutable partition
    /// `Arc`s — no partition bytes are read or written; on a persistent
    /// database the manifest simply references the same files from both
    /// tables, and copy-on-write DML diverges them from there.
    pub fn clone_table(&self, name: &str, source: &str, travel: Option<&Travel>) -> Result<()> {
        let upper = name.to_ascii_uppercase();
        let src_upper = source.to_ascii_uppercase();
        let policy = RetryPolicy::commit_default(self.next_commit_seed());
        retry::run(&policy, |_| {
            let base = self.snapshot();
            if base.table(&upper).is_some() {
                return Err(SnowError::Catalog(format!("table '{name}' already exists")));
            }
            let src = match travel {
                Some(t) => self.table_at_version(&src_upper, t, &base)?,
                None => base.table(&src_upper).ok_or_else(|| {
                    SnowError::Catalog(format!("table '{source}' does not exist"))
                })?,
            };
            let table = Arc::new(Table::from_parts(
                upper.clone(),
                src.schema().to_vec(),
                src.partitions().to_vec(),
            ));
            self.commit_writes(
                base.version(),
                WriteSet::single(&upper, TableWrite::Put { table, expect_absent: true }),
            )?;
            Ok(())
        })
    }

    /// Runs a query and requires a single scalar result.
    pub fn query_scalar(&self, sql: &str) -> Result<Variant> {
        let res = self.query(sql)?;
        res.scalar()
            .cloned()
            .ok_or_else(|| SnowError::Exec("query produced no rows".into()))
    }
}

/// Statement name of the retention knob (`SET DATA_RETENTION_VERSIONS = n`),
/// intercepted ahead of the ordinary session parameters because it mutates
/// durable store state, not per-session limits.
pub(crate) const RETENTION_PARAM: &str = "DATA_RETENTION_VERSIONS";

/// The binder-facing catalog for one statement: plain table references
/// resolve on the pinned base snapshot; `AT`/`BEFORE` clauses reach through
/// the database into retained history ([`Database::table_at_version`]).
pub(crate) struct TravelCatalog<'a> {
    pub(crate) db: &'a Database,
    pub(crate) base: &'a CatalogSnapshot,
}

impl crate::plan::Catalog for TravelCatalog<'_> {
    fn table(&self, name: &str) -> Option<Arc<Table>> {
        self.base.table(name)
    }

    fn table_at(&self, name: &str, travel: &Travel) -> Result<Arc<Table>> {
        self.db.table_at_version(name, travel, self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::ColumnType;

    fn db_with_nums() -> Database {
        let db = Database::new();
        db.load_table(
            "nums",
            vec![
                ColumnDef::new("A", ColumnType::Int),
                ColumnDef::new("B", ColumnType::Float),
            ],
            (0..10).map(|i| vec![Variant::Int(i), Variant::Float(i as f64 * 0.5)]),
        )
        .unwrap();
        db
    }

    #[test]
    fn basic_select_where() {
        let db = db_with_nums();
        let r = db.query("SELECT a FROM nums WHERE a >= 7 ORDER BY a").unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0][0], Variant::Int(7));
        assert_eq!(r.columns, vec!["A"]);
    }

    #[test]
    fn aggregate_group_by() {
        let db = db_with_nums();
        let r = db
            .query("SELECT a % 2 AS p, count(*) AS c, sum(a) AS s FROM nums GROUP BY a % 2 ORDER BY p")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0], vec![Variant::Int(0), Variant::Int(5), Variant::Int(20)]);
        assert_eq!(r.rows[1], vec![Variant::Int(1), Variant::Int(5), Variant::Int(25)]);
    }

    #[test]
    fn global_aggregate_over_empty_input() {
        let db = db_with_nums();
        let r = db.query("SELECT count(*), sum(a) FROM nums WHERE a > 100").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Variant::Int(0));
        assert!(r.rows[0][1].is_null());
    }

    #[test]
    fn unknown_table_is_a_plan_error() {
        let db = Database::new();
        match db.query("SELECT * FROM missing") {
            Err(SnowError::Plan(_)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn profile_reports_bytes_scanned() {
        let db = db_with_nums();
        let full = db.query("SELECT a, b FROM nums").unwrap();
        let narrow = db.query("SELECT a FROM nums").unwrap();
        assert!(full.profile.scan.bytes_scanned > narrow.profile.scan.bytes_scanned);
        assert!(narrow.profile.scan.bytes_scanned > 0);
    }

    #[test]
    fn zone_map_pruning_skips_partitions() {
        let db = Database::new();
        db.load_table_with_partition_rows(
            "t",
            vec![ColumnDef::new("X", ColumnType::Int)],
            (0..100).map(|i| vec![Variant::Int(i)]),
            10,
        )
        .unwrap();
        let r = db.query("SELECT x FROM t WHERE x >= 95").unwrap();
        assert_eq!(r.rows.len(), 5);
        assert_eq!(r.profile.scan.partitions_total, 10);
        assert_eq!(r.profile.scan.partitions_scanned, 1);
    }

    #[test]
    fn union_all_and_limit() {
        let db = db_with_nums();
        let r = db
            .query("SELECT a FROM nums UNION ALL SELECT a FROM nums ORDER BY a LIMIT 4")
            .unwrap();
        assert_eq!(r.rows.len(), 4);
        assert_eq!(r.rows[0][0], Variant::Int(0));
        assert_eq!(r.rows[1][0], Variant::Int(0));
    }

    #[test]
    fn distinct_dedups() {
        let db = db_with_nums();
        let r = db.query("SELECT DISTINCT a % 3 AS m FROM nums ORDER BY m").unwrap();
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn select_without_from() {
        let db = Database::new();
        let r = db.query("SELECT 1 + 2 AS x, 'hi' AS y").unwrap();
        assert_eq!(r.rows, vec![vec![Variant::Int(3), Variant::str("hi")]]);
    }

    #[test]
    fn snapshot_pins_a_catalog_version() {
        let db = db_with_nums();
        let snap = db.snapshot();
        let before = snap.table("nums").unwrap().row_count();
        db.execute("INSERT INTO nums VALUES (100, 1.0)").unwrap();
        // The pinned snapshot still sees the old version; a fresh one sees
        // the new row.
        assert_eq!(snap.table("nums").unwrap().row_count(), before);
        assert_eq!(db.table("nums").unwrap().row_count(), before + 1);
        assert!(db.snapshot().version() > snap.version());
    }

    #[test]
    fn update_and_delete_rewrite_only_touched_partitions() {
        let db = Database::new();
        db.load_table_with_partition_rows(
            "t",
            vec![ColumnDef::new("X", ColumnType::Int)],
            (0..100).map(|i| vec![Variant::Int(i)]),
            10,
        )
        .unwrap();
        let before: Vec<_> = db.table("t").unwrap().partitions().to_vec();
        // Touches only the partition holding 95..100.
        match db.execute("DELETE FROM t WHERE x >= 95").unwrap() {
            StatementResult::Message(m) => assert_eq!(m, "deleted 5 row(s)"),
            other => panic!("unexpected {other:?}"),
        }
        let after = db.table("t").unwrap();
        assert_eq!(after.row_count(), 95);
        let kept = after
            .partitions()
            .iter()
            .filter(|p| before.iter().any(|q| Arc::ptr_eq(p, q)))
            .count();
        assert_eq!(kept, 9, "untouched partitions must be shared, not copied");

        match db.execute("UPDATE t SET x = x + 1000 WHERE x < 5").unwrap() {
            StatementResult::Message(m) => assert_eq!(m, "updated 5 row(s)"),
            other => panic!("unexpected {other:?}"),
        }
        let sum = db.query_scalar("SELECT sum(x) FROM t WHERE x >= 1000").unwrap();
        assert_eq!(sum, Variant::Int(1000 + 1001 + 1002 + 1003 + 1004));
        assert_eq!(db.table("t").unwrap().row_count(), 95);
    }

    #[test]
    fn delete_with_null_predicate_keeps_null_rows() {
        let db = Database::new();
        db.load_table(
            "t",
            vec![ColumnDef::new("X", ColumnType::Int)],
            vec![vec![Variant::Int(1)], vec![Variant::Null], vec![Variant::Int(3)]],
        )
        .unwrap();
        // x > 2 is NULL on the NULL row: the row must survive.
        match db.execute("DELETE FROM t WHERE x > 2").unwrap() {
            StatementResult::Message(m) => assert_eq!(m, "deleted 1 row(s)"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(db.table("t").unwrap().row_count(), 2);
    }

    #[test]
    fn transactions_on_the_bare_database_point_at_sessions() {
        let db = db_with_nums();
        for sql in ["BEGIN", "COMMIT", "ROLLBACK"] {
            match db.execute(sql) {
                Err(SnowError::Catalog(m)) => assert!(m.contains("Session"), "{m}"),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
