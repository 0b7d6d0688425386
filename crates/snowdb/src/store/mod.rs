//! Persistent micro-partition store.
//!
//! This subsystem gives `snowdb` the storage architecture the paper's
//! performance story rests on (§II-B): tables live as *immutable* columnar
//! partition files on disk, a versioned manifest names the live partitions of
//! every table, scans read lazily — per column block, through a shared
//! buffer cache — and pruning decisions translate into file bytes that are
//! **never read**, making `bytes_scanned` actual I/O rather than an estimate.
//!
//! Layout of a database directory:
//!
//! ```text
//! <dir>/MANIFEST        committed catalog (JSON, see `manifest`)
//! <dir>/MANIFEST.tmp    commit-in-progress debris, ignored and swept
//! <dir>/parts/pN.part   immutable partition files (see `format`)
//! ```
//!
//! Invariants:
//! - partition files are written *before* the manifest commit that
//!   references them and never modified afterwards;
//! - the rename of `MANIFEST.tmp` onto `MANIFEST` is the single atomic
//!   commit point — a crash at any step reopens to the previous version;
//! - partition file names are never reused (`next_file` is persisted), so a
//!   stale reader can never observe a recycled file;
//! - the manifest retains the last `retention` committed versions (time
//!   travel, `UNDROP`, clones); a file is unlinked only when *no retained
//!   version and no live [`VersionPin`] references it* — files not reachable
//!   from any retained version are crash debris and are swept on open.

pub mod cache;
pub mod compact;
pub mod format;
pub mod manifest;

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

use crate::error::{Result, SnowError};
use crate::govern::chaos::{ChaosSchedule, ChaosSite};
use crate::govern::QueryGovernor;
use crate::storage::{ColumnDef, ColumnRead, MicroPartition, ScanSource, Table, ZoneMap};

pub use cache::{BufferCache, CacheOutcome, CacheStats, DEFAULT_CACHE_BYTES};
pub use compact::{compact_table_once, CompactionPolicy, CompactionReport, Compactor, CompactorStats};
pub use format::{ColumnMeta, PartitionMeta};
pub use manifest::{Manifest, PartRef, TableManifest, VersionRecord, DEFAULT_RETENTION};

fn storage(msg: impl Into<String>) -> SnowError {
    SnowError::Storage(msg.into())
}

/// A pin on one committed catalog version: while any `Arc<VersionPin>` is
/// alive, GC will not unlink the partition files it names — even after the
/// version falls out of the retention window (the files go to the deferred
/// set and are swept once the pin drops). Pins are registered weakly on the
/// store, so a forgotten pin costs nothing once dropped.
#[derive(Debug)]
pub struct VersionPin {
    version: u64,
    files: HashSet<String>,
}

impl VersionPin {
    /// The pinned catalog version.
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// One disk-backed micro-partition: a path, the decoded footer (schema, zone
/// maps, block ranges), and a handle on the store's shared buffer cache.
/// All metadata questions are answered from the footer without touching
/// block bytes; data reads go through [`DiskPartition::read_column_governed`].
#[derive(Debug)]
pub struct DiskPartition {
    path: PathBuf,
    /// Unique id (the file's sequence number) — the cache key namespace.
    file_id: u64,
    meta: PartitionMeta,
    cache: Arc<BufferCache>,
    /// Keeps the backing file pinned against GC for partitions reconstructed
    /// from a *historical* version (time travel / `UNDROP`). `None` for
    /// current-version partitions, whose lifetime the catalog snapshot pins.
    _pin: Option<Arc<VersionPin>>,
}

impl DiskPartition {
    pub fn row_count(&self) -> usize {
        self.meta.row_count
    }

    /// The partition's file name inside `parts/` — the manifest-side identity
    /// used when a copy-on-write rewrite removes this partition.
    pub fn file_name(&self) -> String {
        format!("p{}.part", self.file_id)
    }

    pub fn zone_map(&self, i: usize) -> Option<&ZoneMap> {
        self.meta.columns[i].zone_map.as_ref()
    }

    /// Optimizer statistics from the footer (format v3+; `None` for files
    /// written by older versions). Metadata-only, like `zone_map`.
    pub fn column_stats(&self, i: usize) -> Option<&crate::storage::ColumnStats> {
        self.meta.columns[i].stats.as_ref()
    }

    /// Exact encoded length of column `i`'s block — the I/O cost of reading
    /// it, and the savings of skipping it.
    pub fn column_bytes(&self, i: usize) -> u64 {
        self.meta.columns[i].len
    }

    pub fn total_bytes(&self) -> u64 {
        self.meta.total_block_bytes()
    }

    /// The decoded footer.
    pub fn meta(&self) -> &PartitionMeta {
        &self.meta
    }

    /// Materializes column `i`: governor checkpoint (the `StoreRead` chaos
    /// site), then buffer cache, then — only on a miss — a CRC-checked read
    /// of exactly the block's bytes. The miss charges the in-memory size
    /// against the query's memory budget — the *encoded* size for
    /// dictionary/run-length blocks, which keep their encoding in memory —
    /// so compressed columns also compress the cache and the budget.
    /// Hits are free.
    pub fn read_column_governed(
        &self,
        i: usize,
        gov: &QueryGovernor,
        op: &str,
    ) -> Result<ColumnRead> {
        gov.store_checkpoint(op)?;
        let key = (self.file_id, i as u32);
        if let Some(data) = self.cache.get(key) {
            return Ok(ColumnRead {
                data,
                io_bytes: 0,
                mem_bytes: 0,
                cache: Some(CacheOutcome { hit: true, evictions: 0 }),
            });
        }
        let cm = &self.meta.columns[i];
        let data = Arc::new(format::read_column(&self.path, cm, self.meta.row_count)?);
        let mem_bytes = crate::storage::estimated_size(&data);
        let evictions = self.cache.insert(key, data.clone(), mem_bytes);
        gov.charge_memory(mem_bytes, op)?;
        Ok(ColumnRead {
            data,
            io_bytes: cm.len,
            mem_bytes,
            cache: Some(CacheOutcome { hit: false, evictions }),
        })
    }
}

/// Locks a store mutex, recovering it if an earlier holder panicked. Every
/// critical section in the store leaves its data consistent at each panic
/// point — a commit builds the next manifest on a copy and assigns `state`
/// only once the manifest is durable, so a panic mid-commit leaves the
/// previous version in place — and a poisoned lock would otherwise fail
/// every later commit of the process.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Handle on an open database directory: the committed catalog state, the
/// shared buffer cache, and the commit machinery. One `Store` is shared by
/// the [`Database`](crate::engine::Database) that opened it.
pub struct Store {
    dir: PathBuf,
    parts_dir: PathBuf,
    cache: Arc<BufferCache>,
    /// The manifest to be written by the *next* commit: the committed state
    /// plus any file-sequence numbers allocated since. Held across commit
    /// I/O, serializing commits.
    state: Mutex<Manifest>,
    chaos: Mutex<Option<Arc<ChaosSchedule>>>,
    /// Live version pins (weak: a dropped pin unpins). Checked by GC before
    /// any unlink. Lock order: `state` before `pins` before `deferred`.
    pins: Mutex<Vec<Weak<VersionPin>>>,
    /// Files evicted from retention while still pinned (or whose unlink hit
    /// an injected crash). Retried on every subsequent commit; unreferenced
    /// leftovers are also swept on the next write-mode open.
    deferred: Mutex<HashSet<String>>,
    /// Read-only stores skip the advisory lock and refuse every commit.
    read_only: bool,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("version", &self.version())
            .finish()
    }
}

impl Store {
    /// Opens (or initializes) the database directory for writing and
    /// reconstructs every committed table. Takes the directory's advisory
    /// `LOCK` (a second writer process gets a typed `Storage` error). Crash
    /// debris — a leftover `MANIFEST.tmp`, partition files not referenced by
    /// the committed manifest — is swept.
    pub fn open(dir: impl AsRef<Path>) -> Result<(Arc<Store>, Vec<Table>)> {
        Store::open_mode(dir, false)
    }

    /// Opens the directory read-only: no advisory lock (so it works alongside
    /// a live writer process), no debris sweep (debris may be that writer's
    /// in-flight commit), and every commit is refused.
    pub fn open_read_only(dir: impl AsRef<Path>) -> Result<(Arc<Store>, Vec<Table>)> {
        Store::open_mode(dir, true)
    }

    fn open_mode(dir: impl AsRef<Path>, read_only: bool) -> Result<(Arc<Store>, Vec<Table>)> {
        let dir = dir.as_ref().to_path_buf();
        let parts_dir = dir.join("parts");
        std::fs::create_dir_all(&parts_dir)
            .map_err(|e| storage(format!("{}: create: {e}", parts_dir.display())))?;

        if !read_only {
            acquire_lock(&dir)?;
        }
        let mut committed = manifest::read_manifest(&dir)?.unwrap_or_default();
        if let Some(k) = retention_from_env() {
            committed.retention = k;
        }
        if !read_only {
            sweep_debris(&dir, &parts_dir, &committed);
        }

        let cache = Arc::new(BufferCache::new(DEFAULT_CACHE_BYTES));
        let store = Arc::new(Store {
            dir,
            parts_dir,
            cache,
            state: Mutex::new(committed.clone()),
            chaos: Mutex::new(None),
            pins: Mutex::new(Vec::new()),
            deferred: Mutex::new(HashSet::new()),
            read_only,
        });

        let mut tables = Vec::new();
        for (name, tm) in &committed.tables {
            let mut partitions = Vec::with_capacity(tm.partitions.len());
            for pref in &tm.partitions {
                partitions.push(Arc::new(ScanSource::Disk(store.open_partition(pref, name, None)?)));
            }
            tables.push(Table::from_parts(name.clone(), tm.schema.clone(), partitions));
        }
        Ok((store, tables))
    }

    /// Initializes a *fresh* database directory; refuses to clobber one that
    /// already holds a committed manifest (use [`Store::open`] for that).
    pub fn create(dir: impl AsRef<Path>) -> Result<Arc<Store>> {
        let dir = dir.as_ref();
        if dir.join(manifest::MANIFEST_FILE).exists() {
            return Err(storage(format!(
                "{}: directory already contains a database (open it instead)",
                dir.display()
            )));
        }
        let (store, _tables) = Store::open(dir)?;
        Ok(store)
    }

    /// Validates and wires up one committed partition file. `pin` keeps the
    /// file GC-protected for the partition's lifetime (historical reads).
    fn open_partition(
        &self,
        pref: &PartRef,
        table: &str,
        pin: Option<Arc<VersionPin>>,
    ) -> Result<DiskPartition> {
        let path = self.parts_dir.join(&pref.file);
        let file_id = parse_file_id(&pref.file).ok_or_else(|| {
            storage(format!(
                "table '{table}': malformed partition file name '{}'",
                pref.file
            ))
        })?;
        let meta = format::read_footer(&path)?;
        if meta.row_count != pref.rows {
            return Err(storage(format!(
                "table '{table}': {} holds {} rows but the manifest says {}",
                path.display(),
                meta.row_count,
                pref.rows
            )));
        }
        Ok(DiskPartition { path, file_id, meta, cache: self.cache.clone(), _pin: pin })
    }

    /// Allocates the next partition-file sequence number. The number is
    /// consumed even if the write or commit later fails — names are never
    /// reused within a catalog lineage.
    fn alloc_file_id(&self) -> u64 {
        let mut state = lock(&self.state);
        let id = state.next_file;
        state.next_file += 1;
        id
    }

    /// Writes one sealed partition as an immutable file (not yet visible:
    /// only a manifest commit publishes it). Returns the scan source plus the
    /// manifest reference for the commit.
    pub fn write_partition(
        self: &Arc<Store>,
        part: &MicroPartition,
        schema: &[ColumnDef],
    ) -> Result<(Arc<ScanSource>, PartRef)> {
        let file_id = self.alloc_file_id();
        let file = format!("p{file_id}.part");
        let path = self.parts_dir.join(&file);
        let meta = format::write_partition(&path, schema, part)?;
        let pref = PartRef { file, rows: meta.row_count };
        let disk = DiskPartition { path, file_id, meta, cache: self.cache.clone(), _pin: None };
        Ok((Arc::new(ScanSource::Disk(disk)), pref))
    }

    /// A [`PartitionSink`](crate::storage::PartitionSink) that streams sealed
    /// partitions straight to disk, collecting their manifest references.
    pub fn sink(self: &Arc<Store>, schema: Vec<ColumnDef>) -> DiskSink {
        DiskSink {
            store: self.clone(),
            schema,
            refs: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Commits a new or replaced table atomically. On error (including
    /// injected `ManifestCommit` faults) the previous catalog version stays
    /// committed and the freshly written files remain invisible debris.
    pub fn commit_table(
        &self,
        name: &str,
        schema: Vec<ColumnDef>,
        partitions: Vec<PartRef>,
    ) -> Result<u64> {
        self.commit_with(|m| {
            m.tables
                .insert(name.to_string(), TableManifest { schema, partitions });
        })
    }

    /// Commits a table drop; returns the new version. The dropped table's
    /// files are *not* unlinked here: the drop's predecessor version stays in
    /// the retention history (that is what `UNDROP` restores from), and GC
    /// unlinks the files only once every retained version and pin that
    /// references them is gone.
    pub fn commit_drop(&self, name: &str) -> Result<u64> {
        self.commit_with(|m| {
            m.tables.remove(name);
        })
    }

    /// Every commit follows the same lifecycle: archive the current version
    /// into the retained history, bump, mutate, evict history beyond the
    /// retention window, write the manifest atomically, then GC. Because the
    /// predecessor is always archived first, a file removed by a rewrite or
    /// drop stays referenced for another `retention - 1` commits — history
    /// eviction is the *only* point where a committed file can become
    /// unreachable, and [`Store::sweep_unreachable`] is the only unlink site.
    fn commit_with(&self, mutate: impl FnOnce(&mut Manifest)) -> Result<u64> {
        if self.read_only {
            return Err(storage(format!(
                "{}: database is read-only (opened without the write lock)",
                self.dir.display()
            )));
        }
        let mut state = lock(&self.state);
        let mut next = state.clone();
        next.archive_current();
        next.version += 1;
        mutate(&mut next);
        next.retention = next.retention.max(1);
        let evicted = next.enforce_retention();
        let chaos = lock(&self.chaos).clone();
        if let Err(e) = manifest::commit_manifest(&self.dir, &next, chaos.as_deref()) {
            // CAS ambiguity: the failure may have struck *after* the atomic
            // rename (a crash-after-commit fault, or an fsync error on the
            // directory). Re-read the on-disk manifest to resolve it — if the
            // new version is durable the commit happened and in-memory state
            // must say so, otherwise the previous version stays live.
            match manifest::read_manifest(&self.dir) {
                Ok(Some(on_disk)) if on_disk.version == next.version => {}
                _ => return Err(e),
            }
        }
        let version = next.version;
        *state = next;
        // GC runs only after the commit is durable. Candidates are the files
        // of just-evicted versions plus earlier deferrals — never a file that
        // merely *exists* in parts/, so a concurrent writer's staged-but-
        // uncommitted partitions are untouchable by construction.
        let mut candidates: Vec<String> = evicted
            .iter()
            .flat_map(|rec| {
                rec.tables
                    .values()
                    .flat_map(|t| t.partitions.iter().map(|p| p.file.clone()))
            })
            .collect();
        candidates.extend(lock(&self.deferred).drain());
        self.sweep_unreachable(candidates, &state, chaos.as_deref());
        Ok(version)
    }

    /// Unlinks each candidate file unless a retained version still references
    /// it (skip forever — it will be re-offered when that version evicts) or
    /// a live pin protects it (defer to the next commit). An injected
    /// [`ChaosSite::GcUnlink`] fault simulates a crash mid-sweep: the file is
    /// deferred, and reopen's debris sweep provides the crash-recovery path.
    fn sweep_unreachable(
        &self,
        candidates: Vec<String>,
        committed: &Manifest,
        chaos: Option<&ChaosSchedule>,
    ) {
        if candidates.is_empty() {
            return;
        }
        let live = committed.all_files();
        let pinned = self.pinned_files();
        let mut deferred = lock(&self.deferred);
        for file in candidates {
            if live.contains(&file) {
                continue;
            }
            if pinned.contains(&file) || gc_chaos_point(chaos, &file).is_err() {
                deferred.insert(file);
                continue;
            }
            let _ = std::fs::remove_file(self.parts_dir.join(&file));
        }
    }

    /// Pins the *current* committed version's files — attached by the engine
    /// to every published catalog snapshot, so an in-flight query holding an
    /// old snapshot keeps its files on disk even after retention evicts the
    /// version.
    pub fn pin_current(&self) -> Arc<VersionPin> {
        let state = lock(&self.state);
        let files = state
            .tables
            .values()
            .flat_map(|t| t.partitions.iter().map(|p| p.file.clone()))
            .collect();
        self.pin_version(state.version, files)
    }

    /// Registers a pin on `version` covering `files`. GC defers unlinking any
    /// of these files until the returned pin (and every clone) is dropped.
    pub fn pin_version(&self, version: u64, files: HashSet<String>) -> Arc<VersionPin> {
        let pin = Arc::new(VersionPin { version, files });
        let mut pins = lock(&self.pins);
        pins.retain(|w| w.strong_count() > 0);
        pins.push(Arc::downgrade(&pin));
        pin
    }

    /// The union of files protected by live pins.
    fn pinned_files(&self) -> HashSet<String> {
        let mut pins = lock(&self.pins);
        pins.retain(|w| w.strong_count() > 0);
        let mut out = HashSet::new();
        for w in pins.iter() {
            if let Some(pin) = w.upgrade() {
                out.extend(pin.files.iter().cloned());
            }
        }
        out
    }

    /// Retained catalog versions, ascending (oldest history through current).
    pub fn retained_versions(&self) -> Vec<u64> {
        lock(&self.state).retained_versions()
    }

    /// The configured retention window (number of versions, ≥ 1).
    pub fn retention(&self) -> u64 {
        lock(&self.state).retention
    }

    /// Sets the retention window and persists it as a commit of its own —
    /// which immediately evicts (and GCs) any history beyond the new window.
    /// Values < 1 clamp to 1.
    pub fn set_retention(&self, versions: u64) -> Result<u64> {
        let versions = versions.max(1);
        self.commit_with(move |m| {
            m.retention = versions;
        })
    }

    /// Reconstructs table `name` as it stood at committed version `version`.
    /// Returns `Ok(None)` when the version is retained but the table did not
    /// exist in it; a typed `Storage` error when the version has been evicted
    /// from the retention window (or never existed). The returned table's
    /// partitions carry a [`VersionPin`], so its files survive GC for as long
    /// as the table (or any plan scanning it) is alive.
    pub fn open_table_at(self: &Arc<Store>, version: u64, name: &str) -> Result<Option<Table>> {
        let (tm, pin) = {
            let state = lock(&self.state);
            let Some(tables) = state.tables_at(version) else {
                return Err(storage(format!(
                    "version {version} is outside the retention window (retained: {:?})",
                    state.retained_versions()
                )));
            };
            let Some(tm) = tables.get(name) else {
                return Ok(None);
            };
            let files: HashSet<String> =
                tm.partitions.iter().map(|p| p.file.clone()).collect();
            // Pin under the state lock: a racing commit cannot evict-and-
            // unlink these files between lookup and pin registration.
            (tm.clone(), self.pin_version(version, files))
        };
        let mut partitions = Vec::with_capacity(tm.partitions.len());
        for pref in &tm.partitions {
            partitions.push(Arc::new(ScanSource::Disk(self.open_partition(
                pref,
                name,
                Some(pin.clone()),
            )?)));
        }
        Ok(Some(Table::from_parts(name.to_string(), tm.schema.clone(), partitions)))
    }

    /// The table names present at retained version `version` (typed `Storage`
    /// error outside the retention window).
    pub fn table_names_at(&self, version: u64) -> Result<Vec<String>> {
        let state = lock(&self.state);
        let Some(tables) = state.tables_at(version) else {
            return Err(storage(format!(
                "version {version} is outside the retention window (retained: {:?})",
                state.retained_versions()
            )));
        };
        Ok(tables.keys().cloned().collect())
    }

    /// Applies one catalog [`WriteSet`](crate::catalog::WriteSet) as a single
    /// manifest commit. Every partition named by the set must already be a
    /// written partition *file* (files are invisible until this commit).
    /// Files removed by rewrites or drops are *not* unlinked here: the
    /// pre-commit version keeps referencing them from the retained history,
    /// and GC unlinks them only once they fall out of every retained version
    /// and pin (see [`Store::commit_with`]).
    pub(crate) fn commit_writes(&self, set: &crate::catalog::WriteSet) -> Result<u64> {
        use crate::catalog::TableWrite;
        // Translate sources to manifest references up front so a non-disk
        // partition is a typed error, not a silently empty manifest entry.
        let as_refs = |parts: &[Arc<crate::storage::ScanSource>]| -> Result<Vec<PartRef>> {
            parts
                .iter()
                .map(|p| match p.as_ref() {
                    crate::storage::ScanSource::Disk(d) => {
                        Ok(PartRef { file: d.file_name(), rows: d.row_count() })
                    }
                    crate::storage::ScanSource::Mem(_) => Err(storage(
                        "cannot commit an in-memory partition to the manifest \
                         (persist it first)",
                    )),
                })
                .collect()
        };
        let mut edits: Vec<(String, ManifestEdit)> = Vec::with_capacity(set.writes.len());
        for (name, write) in &set.writes {
            let edit = match write {
                TableWrite::Put { table, .. } => ManifestEdit::Put {
                    schema: table.schema().to_vec(),
                    partitions: as_refs(table.partitions())?,
                },
                TableWrite::Append { parts, .. } => ManifestEdit::Append(as_refs(parts)?),
                TableWrite::Rewrite { removed, added } => ManifestEdit::Rewrite {
                    removed: removed
                        .iter()
                        .filter_map(|p| match p.as_ref() {
                            crate::storage::ScanSource::Disk(d) => Some(d.file_name()),
                            crate::storage::ScanSource::Mem(_) => None,
                        })
                        .collect(),
                    added: as_refs(added)?,
                },
                TableWrite::Drop => ManifestEdit::Drop,
            };
            edits.push((name.clone(), edit));
        }
        self.commit_with(|m| {
            for (name, edit) in edits {
                match edit {
                    ManifestEdit::Put { schema, partitions } => {
                        m.tables.insert(name, TableManifest { schema, partitions });
                    }
                    ManifestEdit::Append(refs) => {
                        if let Some(tm) = m.tables.get_mut(&name) {
                            tm.partitions.extend(refs);
                        }
                    }
                    ManifestEdit::Rewrite { removed, added } => {
                        if let Some(tm) = m.tables.get_mut(&name) {
                            tm.partitions.retain(|p| !removed.contains(&p.file));
                            tm.partitions.extend(added);
                        }
                    }
                    ManifestEdit::Drop => {
                        m.tables.remove(&name);
                    }
                }
            }
        })
    }

    /// Whether this store was opened read-only.
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// The committed catalog version.
    pub fn version(&self) -> u64 {
        lock(&self.state).version
    }

    /// The database directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The shared buffer cache.
    pub fn cache(&self) -> &Arc<BufferCache> {
        &self.cache
    }

    /// Buffer-cache counters (hits / misses / evictions / residency).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Re-bounds the buffer cache (evicting immediately if shrinking).
    pub fn set_cache_capacity(&self, bytes: u64) {
        self.cache.set_capacity(bytes);
    }

    /// Arms (or clears) a fault schedule on the store's commit path — the
    /// `ManifestCommit` chaos site. Read-path faults (`StoreRead`) ride in
    /// each query's governor instead.
    pub fn set_chaos(&self, schedule: Option<ChaosSchedule>) {
        *lock(&self.chaos) = schedule.map(Arc::new);
    }
}

/// Streams sealed partitions to disk during ingest. Clone-cheap: clones share
/// the collected manifest references.
#[derive(Clone)]
pub struct DiskSink {
    store: Arc<Store>,
    schema: Vec<ColumnDef>,
    refs: Arc<Mutex<Vec<PartRef>>>,
}

impl DiskSink {
    /// The manifest references of every partition flushed so far, in order.
    pub fn refs(&self) -> Vec<PartRef> {
        lock(&self.refs).clone()
    }
}

impl crate::storage::PartitionSink for DiskSink {
    fn flush(&self, part: MicroPartition) -> Result<Arc<ScanSource>> {
        let (source, pref) = self.store.write_partition(&part, &self.schema)?;
        lock(&self.refs).push(pref);
        Ok(source)
    }
}

/// Pre-translated manifest mutation for one table of a write set.
enum ManifestEdit {
    Put { schema: Vec<ColumnDef>, partitions: Vec<PartRef> },
    Append(Vec<PartRef>),
    Rewrite { removed: Vec<String>, added: Vec<PartRef> },
    Drop,
}

/// `pN.part` → `N`.
fn parse_file_id(file: &str) -> Option<u64> {
    file.strip_prefix('p')?.strip_suffix(".part")?.parse().ok()
}

/// `SNOWDB_RETAIN` overrides the persisted retention window at open time
/// (clamped to ≥ 1); unset or unparsable means keep the manifest's value.
fn retention_from_env() -> Option<u64> {
    std::env::var("SNOWDB_RETAIN")
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .map(|k| k.max(1))
}

/// Name of the advisory lock file inside the database directory.
pub const LOCK_FILE: &str = "LOCK";

/// Takes the directory's advisory write lock: a `LOCK` file holding the
/// owner's PID, created with `O_EXCL` so exactly one process wins a race.
///
/// - The owning process may re-open the directory freely (the engine keeps no
///   global registry of open stores, and tests legitimately reopen).
/// - A lock left by a *dead* process (checked via `/proc/<pid>`) is stale and
///   is broken — crash recovery must not require manual lock removal.
/// - A lock held by a live foreign process is a typed
///   `SnowError::Storage("database is locked ...")`.
///
/// The lock is advisory and is intentionally never released on drop: the
/// stale-PID check makes releases unnecessary, and an explicit release would
/// break same-process reopen while older handles are still alive.
fn acquire_lock(dir: &Path) -> Result<()> {
    use std::io::Write as _;
    let path = dir.join(LOCK_FILE);
    let my_pid = std::process::id();
    loop {
        match std::fs::OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut f) => {
                f.write_all(format!("{my_pid}\n").as_bytes())
                    .map_err(|e| storage(format!("{}: write: {e}", path.display())))?;
                let _ = f.sync_all();
                return Ok(());
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let holder = std::fs::read_to_string(&path)
                    .ok()
                    .and_then(|s| s.trim().parse::<u32>().ok());
                match holder {
                    Some(pid) if pid == my_pid => return Ok(()),
                    Some(pid) if !pid_is_alive(pid) => {
                        // Stale lock from a dead process: break it and race
                        // for the fresh one (another opener may win — loop).
                        let _ = std::fs::remove_file(&path);
                    }
                    Some(pid) => {
                        return Err(storage(format!(
                            "database is locked by process {pid} ({})",
                            dir.display()
                        )));
                    }
                    // Unreadable/empty lock: a writer is mid-creation or
                    // crashed between create and write. Without a PID there
                    // is no owner to defer to; treat as stale.
                    None => {
                        let _ = std::fs::remove_file(&path);
                    }
                }
            }
            Err(e) => return Err(storage(format!("{}: create lock: {e}", path.display()))),
        }
    }
}

/// Best-effort liveness probe for a PID. On Linux `/proc/<pid>` is exact
/// enough for an advisory lock; elsewhere assume alive (never break a lock
/// we cannot verify is stale).
fn pid_is_alive(pid: u32) -> bool {
    #[cfg(target_os = "linux")]
    {
        Path::new(&format!("/proc/{pid}")).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = pid;
        true
    }
}

/// A [`ChaosSite::GcUnlink`] injection point on the GC sweep. Injected
/// faults — including panics — surface as a typed error the sweeper turns
/// into a deferral, simulating a crash that left the file on disk.
fn gc_chaos_point(chaos: Option<&ChaosSchedule>, file: &str) -> Result<()> {
    let Some(schedule) = chaos else { return Ok(()) };
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        schedule.maybe_inject(ChaosSite::GcUnlink, "GcUnlink")
    })) {
        Ok(r) => r,
        Err(payload) => Err(storage(format!(
            "simulated crash during GC unlink of {file}: {}",
            crate::govern::panic_message(&*payload)
        ))),
    }
}

/// Removes commit debris: a leftover `MANIFEST.tmp` and partition files not
/// referenced by *any retained version* of the committed manifest (current
/// or history — the bug this replaced swept against the newest version only,
/// destroying time-travel history on every write-mode open). Safe because
/// files only become meaningful through a commit, and `next_file` never
/// reuses names. This is also the crash-recovery path for a GC interrupted
/// mid-sweep: deferred files die here once nothing references them.
fn sweep_debris(dir: &Path, parts_dir: &Path, committed: &Manifest) {
    let _ = std::fs::remove_file(dir.join(manifest::MANIFEST_TMP));
    let live = committed.all_files();
    let Ok(entries) = std::fs::read_dir(parts_dir) else { return };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if !live.contains(name) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{ColumnType, TableBuilder};
    use crate::Variant;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("snowdb-store-{}-{tag}-{n}", std::process::id()))
    }

    fn schema() -> Vec<ColumnDef> {
        vec![
            ColumnDef::new("ID", ColumnType::Int),
            ColumnDef::new("NAME", ColumnType::Str),
        ]
    }

    fn build_table(store: &Arc<Store>, rows: i64) -> (Table, Vec<PartRef>) {
        let sink = store.sink(schema());
        let mut b = TableBuilder::with_sink("T", schema(), 4, Box::new(sink.clone()));
        for i in 0..rows {
            b.push_row(&[Variant::Int(i), Variant::str(format!("n{i}"))]).unwrap();
        }
        let t = b.finish().unwrap();
        (t, sink.refs())
    }

    #[test]
    fn write_commit_reopen_roundtrip() {
        let dir = temp_dir("roundtrip");
        {
            let store = Store::create(&dir).unwrap();
            let (t, refs) = build_table(&store, 10);
            assert_eq!(t.partitions().len(), 3);
            assert_eq!(refs.len(), 3);
            store.commit_table("T", schema(), refs).unwrap();
            assert_eq!(store.version(), 1);
        }
        let (store, tables) = Store::open(&dir).unwrap();
        assert_eq!(store.version(), 1);
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(t.name(), "T");
        assert_eq!(t.row_count(), 10);
        assert_eq!(t.schema(), schema());
        assert!(t.partitions().iter().all(|p| p.is_disk()));
        // Lazy read returns the data.
        let col = t.partitions()[0].read_column(0).unwrap();
        assert_eq!(col.get(0), Variant::Int(0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uncommitted_partitions_are_invisible_and_swept() {
        let dir = temp_dir("sweep");
        {
            let store = Store::create(&dir).unwrap();
            let (t, refs) = build_table(&store, 8);
            store.commit_table("T", schema(), refs).unwrap();
            drop(t);
            // A second table is written but never committed (simulated crash).
            let _ = build_table(&store, 5);
        }
        let parts_before = std::fs::read_dir(dir.join("parts")).unwrap().count();
        assert!(parts_before > 2, "orphans present before reopen");
        let (_store, tables) = Store::open(&dir).unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].row_count(), 8);
        // Orphans are swept; only the committed table's two files remain.
        let parts_after = std::fs::read_dir(dir.join("parts")).unwrap().count();
        assert_eq!(parts_after, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_hit_makes_reads_free() {
        let dir = temp_dir("cache");
        let store = Store::create(&dir).unwrap();
        let (t, refs) = build_table(&store, 4);
        store.commit_table("T", schema(), refs).unwrap();
        let gov = QueryGovernor::unbounded();
        let cold = t.partitions()[0].read_column_governed(0, &gov, "Scan").unwrap();
        assert!(cold.io_bytes > 0);
        assert!(!cold.cache.unwrap().hit);
        let warm = t.partitions()[0].read_column_governed(0, &gov, "Scan").unwrap();
        assert_eq!(warm.io_bytes, 0);
        assert!(warm.cache.unwrap().hit);
        assert!(Arc::ptr_eq(&cold.data, &warm.data));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_reads_charge_memory_budget_on_miss_only() {
        let dir = temp_dir("gov");
        let store = Store::create(&dir).unwrap();
        let (t, refs) = build_table(&store, 4);
        store.commit_table("T", schema(), refs).unwrap();
        // Budget too small for the decoded block: the miss trips it.
        let tight = QueryGovernor::unbounded().with_memory_limit(1);
        let err = t.partitions()[0]
            .read_column_governed(0, &tight, "Scan")
            .unwrap_err();
        assert!(matches!(err, SnowError::ResourceExhausted(_)), "{err}");
        // The block is now cached; a hit under the same tight budget is free.
        let warm = t.partitions()[0]
            .read_column_governed(0, &tight, "Scan")
            .unwrap();
        assert_eq!(warm.mem_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn commit_drop_retains_history_then_gc_unlinks_past_retention() {
        let dir = temp_dir("drop");
        let store = Store::create(&dir).unwrap();
        let (_t, refs) = build_table(&store, 8);
        store.commit_table("T", schema(), refs).unwrap();
        store.commit_drop("T").unwrap();
        assert_eq!(store.version(), 2);
        // The drop keeps the files: version 1 is retained and UNDROP-able.
        assert_eq!(std::fs::read_dir(dir.join("parts")).unwrap().count(), 2);
        assert!(store.open_table_at(1, "T").unwrap().is_some());
        // Shrinking retention to 1 evicts version 1 and GC unlinks its files.
        store.set_retention(1).unwrap();
        assert_eq!(std::fs::read_dir(dir.join("parts")).unwrap().count(), 0);
        let err = store.open_table_at(1, "T").unwrap_err();
        assert!(matches!(err, SnowError::Storage(_)), "{err}");
        let (store2, tables) = Store::open(&dir).unwrap();
        assert_eq!(tables.len(), 0);
        assert_eq!(store2.version(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retained_versions_survive_reopen_and_sweep() {
        let dir = temp_dir("retain");
        {
            let store = Store::create(&dir).unwrap();
            let (_t, refs) = build_table(&store, 8);
            store.commit_table("T", schema(), refs).unwrap();
            let (_t2, refs2) = build_table(&store, 4);
            // Replace the table's partitions entirely: version 1's files are
            // now referenced only by the history.
            store.commit_table("T", schema(), refs2).unwrap();
        }
        // Reopen sweeps debris — the historical files must survive it (the
        // pre-retention sweeper would have deleted them here).
        let (store, tables) = Store::open(&dir).unwrap();
        assert_eq!(tables[0].row_count(), 4);
        assert_eq!(store.retained_versions(), vec![1, 2]);
        let old = store.open_table_at(1, "T").unwrap().unwrap();
        assert_eq!(old.row_count(), 8);
        let col = old.partitions()[0].read_column(0).unwrap();
        assert_eq!(col.get(0), Variant::Int(0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pinned_files_survive_eviction_until_pin_drops() {
        let dir = temp_dir("pin");
        let store = Store::create(&dir).unwrap();
        let (_t, refs) = build_table(&store, 8);
        store.commit_table("T", schema(), refs).unwrap();
        // Pin version 1 (as a long-running reader would), then replace the
        // table's partitions and evict version 1 from retention.
        let old = store.open_table_at(1, "T").unwrap().unwrap();
        let (_t2, refs2) = build_table(&store, 4);
        store.commit_table("T", schema(), refs2).unwrap();
        store.set_retention(1).unwrap();
        // Version 1's two files are deferred, not unlinked: still scannable.
        assert_eq!(std::fs::read_dir(dir.join("parts")).unwrap().count(), 3);
        let col = old.partitions()[0].read_column(0).unwrap();
        assert_eq!(col.get(0), Variant::Int(0));
        // Drop the pin; the next commit retries the deferral and unlinks.
        drop(old);
        store.set_retention(1).unwrap();
        assert_eq!(std::fs::read_dir(dir.join("parts")).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_commit_fault_preserves_previous_version() {
        let dir = temp_dir("chaos");
        let store = Store::create(&dir).unwrap();
        let (_t, refs) = build_table(&store, 8);
        store.commit_table("T", schema(), refs).unwrap();
        // Period-1 schedule: the very first injection point fires, killing
        // the commit before the rename.
        store.set_chaos(Some(ChaosSchedule::with_period(0xC0FFEE, 1)));
        let (_t2, refs2) = build_table(&store, 3);
        let err = store.commit_table("T2", schema(), refs2).unwrap_err();
        assert!(matches!(err, SnowError::Storage(_) | SnowError::Internal(_)), "{err}");
        store.set_chaos(None);
        assert_eq!(store.version(), 1, "failed commit must not advance the version");
        // Reopen sees only the committed table.
        drop(store);
        let (store2, tables) = Store::open(&dir).unwrap();
        assert_eq!(store2.version(), 1);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].name(), "T");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn commit_after_a_panicking_commit_succeeds() {
        let dir = temp_dir("poison");
        let store = Store::create(&dir).unwrap();
        let (_t, refs) = build_table(&store, 8);
        store.commit_table("T", schema(), refs).unwrap();
        // A panic inside the commit's critical section poisons the state
        // lock. (Injected `ManifestCommit` panics are already turned into
        // storage errors by the manifest's chaos point; the mutation step
        // runs under the same lock without such a guard.)
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.commit_with(|_| panic!("commit step panicked"))
        }));
        assert!(res.is_err());
        assert!(store.state.is_poisoned());
        assert_eq!(store.version(), 1, "the panicked commit must not advance the version");
        // The poisoned lock is recovered: writing and committing still work.
        let (_t3, refs3) = build_table(&store, 3);
        assert_eq!(store.commit_table("T3", schema(), refs3).unwrap(), 2);
        drop(store);
        let (_, tables) = Store::open(&dir).unwrap();
        let mut names: Vec<&str> = tables.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        assert_eq!(names, ["T", "T3"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_existing_database() {
        let dir = temp_dir("refuse");
        let store = Store::create(&dir).unwrap();
        store.commit_table("T", schema(), vec![]).unwrap();
        drop(store);
        let err = Store::create(&dir).unwrap_err();
        assert!(matches!(err, SnowError::Storage(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
