//! Thread-safe sharing of the read path: σ-cache and engine.
//!
//! The paper positions the σ-cache as "an attractive solution for
//! large-scale data processing"; in a server setting many query threads
//! answer probability value generation queries against one cache and run
//! `SELECT`s against one engine. Both are **lock-free on the read path**:
//!
//! * a [`SigmaCache`](crate::sigma_cache::SigmaCache) is shared as a
//!   plain `Arc<SigmaCache>`: its ladder is immutable and its hit/miss
//!   counters are relaxed atomics, so lookups take `&self` and no thread
//!   ever blocks another. (Earlier revisions serialized every lookup
//!   behind a `Mutex` just to bump the counters; the atomic counters
//!   removed the last reason for exclusive access.)
//! * [`SharedEngine`] is the statement executor — SQL in, probabilistic
//!   views out. It shares one catalog behind an [`RwLock`] and has exactly
//!   one read path and one write path. Every `SELECT`, whichever entry
//!   point it came in through, runs [`SharedEngine::execute_planned`]: the
//!   read lock is held just long enough to clone an immutable snapshot of
//!   a resident relation (the scan runs outside it), or to stream an
//!   evicted one's leaves once (its `HAVING` tails, sampling and sorts run
//!   outside it). Only
//!   mutating statements (loads, `INSERT`, `DROP`, view registration,
//!   including the Fig. 7 `CREATE VIEW … AS DENSITY …`, fulfilled by the
//!   [`OmegaViewBuilder`]) take the write lock. This is the "offline mode"
//!   of the framework; its "online mode" is the streaming path below.
//!
//! ## Streaming ingestion
//!
//! [`SharedEngine::append_batches`] is the write path of the `tspdb-ingest`
//! subsystem: a whole flush of per-relation row batches is journaled as one
//! group commit (one WAL fsync amortized over every batch), applied under
//! one write lock, and every Ω-view derived from an appended source table
//! is maintained in place. The engine keeps each view's model table next
//! to its lineage, so when the fresh rows are a strict suffix in time it
//! infers densities for the appended windows only and *appends* their
//! tuples — bit-identical to a full rebuild, because per-window density
//! inference is stateless and a σ-cache ladder that keeps its base rung and
//! ratio keeps every old tuple (see `maintain_view`). Any other shape falls
//! back to the rebuild. Appends bump only the catalog's *data* generation,
//! so cached plans and in-flight [`tspdb_probdb::RelationSnapshot`] readers
//! survive a stream of them untouched.

use crate::builder::{sigma_range, BuiltView, OmegaViewBuilder, ViewBuilderConfig};
use crate::error::CoreError;
use crate::metrics::MetricKind;
use crate::omega::OmegaSpec;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};
use tspdb_probdb::{
    CmpOp, Column, ColumnSlice, ColumnType, Conjunction, Database, DbError, DensityViewSpec,
    PlannedQuery, Planner, QueryOutput, Relation, ScanSource, Schema, Statement, Table, Value,
};
use tspdb_stats::Density;
use tspdb_storage::{CheckpointSource, JournalOp, Storage, StorageOptions};
use tspdb_timeseries::TimeSeries;

/// WAL size (bytes of redo records) above which a journaled write
/// triggers an automatic checkpoint. Checkpoints are incremental — they
/// shadow-write only the pages of relations written since the last one —
/// so the threshold mostly trades recovery (replay) time against
/// checkpoint frequency rather than against whole-file rewrites.
const WAL_AUTOCHECKPOINT_BYTES: u64 = 4 * 1024 * 1024;

/// *How* a relation was written since the last checkpoint — decides which
/// [`CheckpointSource`] the next checkpoint uses for it.
///
/// `Appended` promises the on-disk copy is a row-exact prefix of the
/// in-memory relation, so the checkpoint reuses the old leaf chain and
/// writes only the suffix. Any write that can break that promise
/// (re-registration, drop + create, a rebuild) must mark `Rewritten`,
/// which always wins when the two merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DirtyKind {
    /// Rows were only appended; the on-disk prefix is still exact.
    Appended,
    /// The relation was (or may have been) changed beyond an append.
    Rewritten,
}

/// Build diagnostics of the most recent `CREATE VIEW … AS DENSITY`.
#[derive(Debug, Clone)]
pub struct LastBuild {
    /// Name of the created view.
    pub view_name: String,
    /// Full diagnostics from the builder.
    pub built: BuiltView,
}

/// How an append brought an Ω-view up to date.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenancePath {
    /// Densities inferred for the appended windows only; their tuples
    /// appended to the view.
    Appended,
    /// Densities inferred for the appended windows only; every tuple
    /// regenerated from the stored model because the σ-cache ladder moved.
    Regenerated,
    /// The whole view rebuilt from the source table.
    Rebuilt,
}

/// What the most recent append cost one Ω-view — counts, not timings, so
/// tests can pin the complexity of maintenance exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Maintenance {
    /// The path taken.
    pub path: MaintenancePath,
    /// Windows handed to the density metric.
    pub windows_inferred: usize,
}

/// The model behind a live Ω-view (the paper's Fig. 2 model table), kept so
/// an append infers only the appended windows.
#[derive(Debug)]
struct ViewModel {
    /// One density per emitted timestamp, in time order.
    densities: Vec<(i64, Density)>,
    /// [`sigma_range`] of `densities`.
    sigma_range: (f64, f64),
    /// `(min σ̂, d_s)` of the σ-cache ladder the view's tuples were generated
    /// through; `None` when they were evaluated directly.
    ladder: Option<(f64, f64)>,
    /// The last `window` source readings in time order: all the history
    /// the next appended windows look back on.
    tail: Vec<(i64, f64)>,
    /// Source rows the model accounts for; any other row count under an
    /// append means the source changed behind the model's back.
    source_rows: usize,
}

/// An Ω-view's lineage: the spec it was created from and, when in hand,
/// its model. The spec is persisted in the view's catalog entry; the model
/// is not — a reopened engine starts without one and the first append
/// rebuilds it.
#[derive(Debug)]
struct ViewLineage {
    spec: DensityViewSpec,
    model: Option<ViewModel>,
    last_maintenance: Option<Maintenance>,
}

/// A density view built from its source table, with the model to keep.
struct BuiltDensityView {
    built: BuiltView,
    model: ViewModel,
}

/// A cloneable, `Send + Sync` handle to one engine shared across threads.
///
/// The catalog (the [`Database`] of tables and views) is the only state
/// behind a lock; the builder defaults are immutable and the last-build
/// diagnostics sit behind their own small lock so they never contend with
/// queries.
#[derive(Debug, Clone)]
pub struct SharedEngine {
    catalog: Arc<RwLock<Database>>,
    defaults: ViewBuilderConfig,
    last_build: Arc<RwLock<Option<LastBuild>>>,
    /// The persistent storage engine, when this engine was opened with
    /// [`SharedEngine::open_persistent`]. `None` = purely in-memory.
    storage: Option<Arc<Storage>>,
    /// Ω-view lineage: view name → the spec it was created from (plus its
    /// model), so appends to a source table know which views to maintain.
    /// Every checkpoint writes each spec's text into its view's catalog
    /// entry, so lineage commits with the tuples it derives.
    lineage: Arc<Mutex<BTreeMap<String, ViewLineage>>>,
    /// Relations written since the last checkpoint, and *how* (append vs
    /// arbitrary rewrite). An empty map (with an empty WAL) means the
    /// on-disk file already equals the catalog, so checkpoints and
    /// evictions skip entirely; a clean relation that is already on disk
    /// is carried through a checkpoint as [`CheckpointSource::Keep`]
    /// without even being made resident.
    dirty: Arc<Mutex<BTreeMap<String, DirtyKind>>>,
}

impl Default for SharedEngine {
    fn default() -> Self {
        SharedEngine::new(ViewBuilderConfig::default())
    }
}

impl SharedEngine {
    /// Creates a shared engine with the given view-builder defaults.
    pub fn new(defaults: ViewBuilderConfig) -> Self {
        SharedEngine {
            catalog: Arc::new(RwLock::new(Database::new())),
            defaults,
            last_build: Arc::new(RwLock::new(None)),
            storage: None,
            lineage: Arc::new(Mutex::new(BTreeMap::new())),
            dirty: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// Opens (creating if absent) a **persistent** engine on `dir` and
    /// runs crash recovery:
    ///
    /// 1. load every relation of the checkpointed database file into the
    ///    catalog (probabilistic views go through registration);
    /// 2. replay the write-ahead log's committed suffix through the normal
    ///    write path — per-statement errors are ignored, because a
    ///    statement that failed deterministically before the crash fails
    ///    identically on replay and leaves the same state;
    /// 3. checkpoint immediately, so the on-disk file equals the
    ///    post-replay state before any query is served;
    /// 4. attach the storage engine as the catalog's scan source, so
    ///    evicted relations are served from disk behind the same scan leaf.
    ///
    /// Every later mutating statement is journaled to the WAL (fsync on
    /// commit) **before** it is applied in memory.
    pub fn open_persistent(dir: &Path, defaults: ViewBuilderConfig) -> Result<Self, CoreError> {
        let (storage, recovery) = Storage::open(dir, StorageOptions::default())
            .map_err(DbError::from)
            .map_err(CoreError::from)?;
        let storage = Arc::new(storage);
        let engine = SharedEngine {
            storage: Some(Arc::clone(&storage)),
            ..SharedEngine::new(defaults)
        };
        {
            let mut catalog = engine.catalog.write().expect("catalog lock poisoned");
            // 1. Checkpointed relations, and the Ω-view lineage their
            // catalog entries carry, so replayed appends maintain the views
            // the checkpointed catalog already derives.
            let mut lineage = engine.lineage.lock().unwrap_or_else(|e| e.into_inner());
            for name in storage.relation_names() {
                if let Some(relation) = storage.scan(&name).map_err(DbError::from)? {
                    match relation {
                        Relation::Deterministic(t) => catalog.register_table(t)?,
                        Relation::Probabilistic(t) => catalog.register_prob_table(t)?,
                    }
                }
                let spec = storage.entry(&name).and_then(|e| e.lineage);
                if let Some(Ok(Statement::CreateDensityView(spec))) =
                    spec.map(|sql| tspdb_probdb::parse(&sql))
                {
                    lineage.insert(
                        spec.view_name.clone(),
                        ViewLineage {
                            spec,
                            model: None,
                            last_maintenance: None,
                        },
                    );
                }
            }
            drop(lineage);
            // 2. WAL replay (no re-logging).
            for op in &recovery.ops {
                let _ = engine.apply_op(&mut catalog, op);
            }
            // 3. Boot checkpoint: disk == post-replay state, WAL empty.
            engine.checkpoint_locked(&mut catalog, &storage)?;
            // 4. Disk-backed scans behind the same scan leaf.
            catalog.attach_scan_source(Arc::clone(&storage) as Arc<dyn ScanSource>);
        }
        Ok(engine)
    }

    /// The persistent storage engine, if this engine has one (fault
    /// injection and cache diagnostics hang off this handle).
    pub fn storage(&self) -> Option<&Arc<Storage>> {
        self.storage.as_ref()
    }

    /// Applies one journaled operation — once it is durable on the live
    /// path, again on WAL replay (without journaling it twice). Returns the
    /// rows an append landed. Replay ignores the errors — see
    /// [`SharedEngine::open_persistent`] for why that is sound.
    fn apply_op(&self, catalog: &mut Database, op: &JournalOp) -> Result<usize, CoreError> {
        match op {
            JournalOp::Sql(sql) => {
                let stmt = tspdb_probdb::parse(sql)?;
                self.apply_locked(catalog, stmt, None)?;
                Ok(0)
            }
            JournalOp::LoadTable {
                name,
                schema,
                columns,
            } => {
                let table = Table::from_columns(name.clone(), schema.clone(), columns.clone())?;
                self.mark_dirty(std::iter::once((name.clone(), DirtyKind::Rewritten)));
                catalog.register_table(table)?;
                Ok(0)
            }
            // Only the source rows are journaled: dependent Ω-views are
            // re-derived on replay, exactly as when the batch first landed.
            JournalOp::AppendRows { table, columns } => {
                let appended = catalog.append_columns(table, columns, None)?;
                self.mark_dirty(std::iter::once((table.clone(), DirtyKind::Appended)));
                self.maintain_dependent_views(catalog, table, appended)?;
                Ok(appended)
            }
        }
    }

    /// Applies a mutating statement against an exclusively borrowed
    /// catalog — the one write path, shared by [`SharedEngine::write`] and
    /// WAL replay. A density view is built here, inside the exclusive
    /// borrow, unless the caller hands in one it `prebuilt` under the read
    /// lock.
    fn apply_locked(
        &self,
        catalog: &mut Database,
        stmt: Statement,
        prebuilt: Option<BuiltDensityView>,
    ) -> Result<QueryOutput, CoreError> {
        self.mark_dirty(statement_dirty_targets(&stmt));
        match stmt {
            Statement::CreateDensityView(spec) => {
                let BuiltDensityView { built, model } = match prebuilt {
                    Some(built) => built,
                    None => build_density_view(catalog, self.defaults, &spec)?,
                };
                catalog.register_prob_table(built.view.clone())?;
                // Lock order: catalog before last_build (the only place
                // both are held at once), so `last_build()` always names
                // the view registered last.
                *self.last_build.write().expect("last-build lock poisoned") = Some(LastBuild {
                    view_name: spec.view_name.clone(),
                    built,
                });
                self.lineage
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(
                        spec.view_name.clone(),
                        ViewLineage {
                            spec,
                            model: Some(model),
                            last_maintenance: None,
                        },
                    );
                Ok(QueryOutput::None)
            }
            Statement::Insert { table, rows } => {
                // A replayed INSERT appends to its table exactly as a
                // streamed batch does, so its dependent Ω-views are
                // maintained the same way (the live path lands it so too).
                let columns = catalog.check_rows(&table, rows)?;
                self.apply_op(catalog, &JournalOp::AppendRows { table, columns })?;
                Ok(QueryOutput::None)
            }
            other => {
                let dropped = match &other {
                    Statement::Drop { name } => Some(name.clone()),
                    _ => None,
                };
                let out = catalog.execute_parsed(other).map_err(CoreError::from)?;
                if let Some(name) = dropped {
                    // A dropped view takes its lineage along; a dropped
                    // source leaves its views standing but their models
                    // describe a table that is gone.
                    let mut lineage = self.lineage.lock().unwrap_or_else(|e| e.into_inner());
                    lineage.remove(&name);
                    for entry in lineage.values_mut() {
                        if entry.spec.source_table == name {
                            entry.model = None;
                        }
                    }
                }
                Ok(out)
            }
        }
    }

    /// Writes an incremental checkpoint with the catalog exclusively
    /// borrowed, so the snapshot is consistent with the WAL floor. Each
    /// relation contributes per its [`DirtyKind`]: clean relations already
    /// on disk become [`CheckpointSource::Keep`] (no pages written, no
    /// materialization — evicted relations stay evicted), append-only
    /// dirty ones become [`CheckpointSource::Append`] (suffix leaves
    /// only), everything else is rewritten. Dirty relations are made
    /// resident first so their tuples are in hand.
    fn checkpoint_locked(
        &self,
        catalog: &mut Database,
        storage: &Storage,
    ) -> Result<(), CoreError> {
        // Clean skip: no relation was written since the last checkpoint
        // and the WAL holds no records past the floor, so the on-disk
        // file already equals the catalog — a checkpoint would only burn
        // write bandwidth.
        let dirty: BTreeMap<String, DirtyKind> =
            self.dirty.lock().unwrap_or_else(|e| e.into_inner()).clone();
        if dirty.is_empty() && storage.wal_bytes().map_err(DbError::from)? == 0 {
            return Ok(());
        }
        let on_disk: BTreeSet<String> = storage.relation_names().into_iter().collect();
        let mut kept: Vec<String> = Vec::new();
        let mut fresh: Vec<(String, DirtyKind)> = Vec::new();
        for name in catalog.all_relation_names() {
            match dirty.get(&name) {
                None if on_disk.contains(&name) => kept.push(name),
                // Conservative: a clean relation the file has never seen
                // still needs a first write.
                None => fresh.push((name, DirtyKind::Rewritten)),
                Some(kind) => fresh.push((name, *kind)),
            }
        }
        for (name, _) in &fresh {
            catalog.ensure_resident(name)?;
        }
        let relations: Vec<(DirtyKind, Relation)> = fresh
            .iter()
            .filter_map(|(n, k)| catalog.relation(n).cloned().map(|r| (*k, r)))
            .collect();
        let sources: Vec<CheckpointSource> = kept
            .iter()
            .map(|n| CheckpointSource::Keep(n.as_str()))
            .chain(relations.iter().map(|(kind, relation)| match kind {
                DirtyKind::Appended => CheckpointSource::Append(relation),
                DirtyKind::Rewritten => CheckpointSource::Rewrite(relation),
            }))
            .collect();
        // Each view's spec rides in its catalog entry, committed by the
        // same meta-slot write as its tuples, so a reopened engine keeps
        // maintaining exactly the views the checkpoint holds.
        let lineage: BTreeMap<String, String> = self
            .lineage
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, entry)| (name.clone(), entry.spec.to_string()))
            .collect();
        storage
            .checkpoint_incremental(&sources, &lineage)
            .map_err(DbError::from)
            .map_err(CoreError::from)?;
        self.dirty.lock().unwrap_or_else(|e| e.into_inner()).clear();
        Ok(())
    }

    /// Forces a checkpoint now: rewrites the database file from the
    /// current catalog, truncates the WAL. No-op error when the engine is
    /// not persistent.
    pub fn checkpoint(&self) -> Result<(), CoreError> {
        let storage = self.storage.as_ref().ok_or_else(|| {
            CoreError::Db(DbError::Storage("engine has no data directory".into()))
        })?;
        let mut catalog = self.catalog.write().expect("catalog lock poisoned");
        self.checkpoint_locked(&mut catalog, storage)
    }

    /// Checkpoints, then drops the named relation's tuples from memory;
    /// subsequent scans are served from disk
    /// through the page cache — with bit-identical query results, which is
    /// what the persistence differential tests pin down.
    ///
    /// A relation that has seen no writes since the last checkpoint (its
    /// on-disk copy is already current) skips the checkpoint rewrite and
    /// is evicted directly.
    pub fn evict_to_disk(&self, name: &str) -> Result<(), CoreError> {
        let storage = self.storage.as_ref().ok_or_else(|| {
            CoreError::Db(DbError::Storage("engine has no data directory".into()))
        })?;
        let mut catalog = self.catalog.write().expect("catalog lock poisoned");
        let clean = !self
            .dirty
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .contains_key(name)
            && storage.relation_names().iter().any(|n| n == name);
        if !clean {
            self.checkpoint_locked(&mut catalog, storage)?;
        }
        catalog.evict_relation(name)?;
        Ok(())
    }

    /// Read access to the catalog. Holding the guard blocks writers (not
    /// readers); drop it promptly.
    pub fn read(&self) -> RwLockReadGuard<'_, Database> {
        self.catalog.read().expect("catalog lock poisoned")
    }

    /// The one read path: executes a planned `SELECT` against an immutable
    /// snapshot. The read lock is held only long enough to take the plan's
    /// [`Database::scan_input`] — for a resident relation, a clone of the
    /// `Arc` of its rung; for an evicted one, its leaf-at-a-time scan off
    /// disk folded into groups or candidates — and the rest of the strategy
    /// (for an evicted relation its `HAVING` tails, sampling and sorts)
    /// then runs outside the lock while appends land new rungs next to it.
    /// Any number of threads can be inside this call at once.
    ///
    /// `worlds_threads` overrides the engine-wide fork-join width — of
    /// `WITH WORLDS` sampling and of the restriction fan-out — for this one
    /// query (a server session's setting); it never changes an answer,
    /// only its latency.
    pub fn execute_planned(
        &self,
        planned: &PlannedQuery,
        worlds_threads: Option<usize>,
    ) -> Result<QueryOutput, CoreError> {
        let (snapshot, threads) = {
            let catalog = self.read();
            let threads = worlds_threads.unwrap_or_else(|| catalog.worlds_threads());
            (catalog.scan_input(planned, threads)?, threads)
        };
        snapshot.execute(planned, threads).map_err(CoreError::from)
    }

    /// Runs a parsed read-only statement; anything else is turned away
    /// with [`DbError::ReadOnly`].
    fn run_read(&self, stmt: Statement) -> Result<QueryOutput, CoreError> {
        match stmt {
            Statement::Select(sel) => self.execute_planned(&Planner::plan(&sel)?, None),
            Statement::Explain(sel) => self.read().explain_select(&sel).map_err(CoreError::from),
            other => Err(CoreError::Db(DbError::ReadOnly(format!("{other:?}")))),
        }
    }

    /// Runs a read-only statement (`SELECT` / `EXPLAIN`), planning it
    /// afresh.
    pub fn query(&self, sql: &str) -> Result<QueryOutput, CoreError> {
        self.run_read(tspdb_probdb::parse(sql)?)
    }

    /// [`SharedEngine::query`] through the catalog's shared plan cache:
    /// hot statements skip parse+plan across *all* sessions. Semantics
    /// are identical to [`SharedEngine::query`] — DDL bumps the catalog
    /// generation, which invalidates cached plans (tuple-only appends
    /// bump a separate data generation and leave plans standing).
    pub fn query_cached(&self, sql: &str) -> Result<QueryOutput, CoreError> {
        let resolved = self.read().plan_cached(sql)?;
        match resolved {
            Ok(planned) => self.execute_planned(&planned, None),
            Err(stmt) => self.run_read(stmt),
        }
    }

    /// The catalog generation (bumped by every DDL/write; keys the plan
    /// cache).
    pub fn catalog_generation(&self) -> u64 {
        self.read().generation()
    }

    /// The catalog's *data* generation — bumped by every tuple-only write
    /// (`INSERT`, streaming appends). TAIL polling uses this as its cheap
    /// "anything new?" check before re-running a standing query.
    pub fn data_generation(&self) -> u64 {
        self.read().data_generation()
    }

    /// Plan-cache effectiveness counters, for diagnostics and benches.
    pub fn plan_cache_stats(&self) -> tspdb_probdb::PlanCacheStats {
        self.read().plan_cache_stats()
    }

    /// Executes any SQL statement.
    ///
    /// * `SELECT` / `EXPLAIN` — the read path
    ///   ([`SharedEngine::execute_planned`]), concurrent with other readers.
    /// * `TAIL` — rejected: it registers a continuous query, so there is
    ///   no one-shot answer to produce and nothing to redo on recovery (it
    ///   never reaches the WAL).
    /// * Everything else — the write path: write lock, journaled first on
    ///   a persistent engine.
    pub fn execute(&self, sql: &str) -> Result<QueryOutput, CoreError> {
        self.execute_statement(sql, tspdb_probdb::parse(sql)?)
    }

    /// [`SharedEngine::execute`] for a statement the caller already parsed
    /// from `sql` (the wire server, which classifies statements itself) —
    /// no re-parse, and the journal still records the original text.
    pub fn execute_statement(&self, sql: &str, stmt: Statement) -> Result<QueryOutput, CoreError> {
        match stmt {
            Statement::Tail(_) => Err(CoreError::Db(DbError::Unsupported(
                "TAIL is a continuous query; submit it over the server wire protocol".into(),
            ))),
            Statement::Select(_) | Statement::Explain(_) => self.run_read(stmt),
            mutating => self.write(sql, mutating),
        }
    }

    /// The write path. Mutating statements serialise under the write lock;
    /// a persistent engine journals them **before** applying — append +
    /// fsync to the WAL first, then apply in memory, the redo-log ordering
    /// that makes the committed prefix recoverable. Holding the write lock
    /// across both steps keeps WAL order and apply order identical, which
    /// replay depends on.
    ///
    /// An in-memory engine has no such order to keep, so it **builds a
    /// density view under the read lock** (inference only reads the source
    /// table) and takes the write lock just to register it: long builds do
    /// not starve queries. The build therefore works on a *snapshot* — if
    /// a writer replaces the source table in the gap, the registered view
    /// still reflects the data that was visible when the build began.
    fn write(&self, sql: &str, stmt: Statement) -> Result<QueryOutput, CoreError> {
        let prebuilt = match (&self.storage, &stmt) {
            (None, Statement::CreateDensityView(spec)) => {
                Some(build_density_view(&self.read(), self.defaults, spec)?)
            }
            _ => None,
        };
        let mut catalog = self.catalog.write().expect("catalog lock poisoned");
        let journal = || match &self.storage {
            Some(storage) => storage
                .log(&JournalOp::Sql(sql.to_string()))
                .map(drop)
                .map_err(|e| CoreError::from(DbError::from(e))),
            None => Ok(()),
        };
        let out = match stmt {
            // An INSERT is checked whole before it is journaled: its cells
            // against the schema, its times against the dependent views.
            Statement::Insert { table, rows } => {
                let columns = catalog.check_rows(&table, rows)?;
                self.admit_append(&catalog, &table, &columns, &[])?;
                journal()?;
                self.apply_op(&mut catalog, &JournalOp::AppendRows { table, columns })?;
                QueryOutput::None
            }
            stmt => {
                journal()?;
                self.apply_locked(&mut catalog, stmt, prebuilt)?
            }
        };
        if let Some(storage) = &self.storage {
            if storage.wal_bytes().map_err(DbError::from)? >= WAL_AUTOCHECKPOINT_BYTES {
                self.checkpoint_locked(&mut catalog, storage)?;
            }
        }
        Ok(out)
    }

    /// Appends `rows` to one deterministic table — a single-batch
    /// [`SharedEngine::append_batches`].
    pub fn append_rows(&self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize, CoreError> {
        self.append_batches(vec![(table.to_string(), rows)])
    }

    /// The streaming-ingestion write path: lands a whole flush of
    /// per-relation row batches in one **group commit**.
    ///
    /// Each batch is checked once, up front, and becomes the table's
    /// columns ([`Database::check_rows`]); a batch that fails is skipped —
    /// never journaled — and the first error is returned after the rest
    /// land. On a persistent engine every checked batch is one
    /// [`JournalOp::AppendRows`] record and the whole flush hits the WAL
    /// with a *single* fsync — durability cost is amortized over every row
    /// in the flush instead of paid per statement. The records are then
    /// applied in order under one write lock through the same path WAL
    /// replay takes: each swaps a fresh relation rung in (snapshot readers
    /// keep the old rung), bumps only the *data* generation (cached plans
    /// survive) and maintains any Ω-views derived from the table. Returns
    /// the number of rows appended.
    pub fn append_batches(
        &self,
        batches: Vec<(String, Vec<Vec<Value>>)>,
    ) -> Result<usize, CoreError> {
        if batches.is_empty() {
            return Ok(0);
        }
        let mut catalog = self.catalog.write().expect("catalog lock poisoned");
        let mut first_err: Option<CoreError> = None;
        let mut ops = Vec::with_capacity(batches.len());
        for (table, rows) in batches {
            let checked = catalog.check_rows(&table, rows).map_err(CoreError::from);
            let admitted = checked.and_then(|columns| {
                let pending: Vec<&[Column]> = ops
                    .iter()
                    .filter_map(|op| match op {
                        JournalOp::AppendRows { table: t, columns } if *t == table => {
                            Some(columns.as_slice())
                        }
                        _ => None,
                    })
                    .collect();
                self.admit_append(&catalog, &table, &columns, &pending)?;
                Ok(columns)
            });
            match admitted {
                Ok(columns) => ops.push(JournalOp::AppendRows { table, columns }),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        if let Some(storage) = &self.storage {
            storage.log_batch(&ops).map_err(DbError::from)?;
        }
        let mut appended = 0usize;
        for op in &ops {
            match self.apply_op(&mut catalog, op) {
                Ok(n) => appended += n,
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        if let Some(storage) = &self.storage {
            if storage.wal_bytes().map_err(DbError::from)? >= WAL_AUTOCHECKPOINT_BYTES {
                self.checkpoint_locked(&mut catalog, storage)?;
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(appended),
        }
    }

    /// Refuses an append that an Ω-view derived from `source` could not
    /// absorb: one whose rows repeat a time, among themselves or against
    /// the rows `source` holds and the `pending` batches of the same write
    /// land ahead of them. Maintaining such a view means rebuilding it,
    /// and the rebuild fails on the repeated time. Checked before the
    /// journal, a refused append lands nothing and the view keeps its
    /// model. O(batch) on the maintenance fast path — the view's model
    /// accounts for every source row and the batch is a strict suffix in
    /// time — and O(source rows) otherwise, like the rebuild it stands in
    /// for.
    fn admit_append(
        &self,
        catalog: &Database,
        source: &str,
        columns: &[Column],
        pending: &[&[Column]],
    ) -> Result<(), CoreError> {
        let lineage = self.lineage.lock().unwrap_or_else(|e| e.into_inner());
        for entry in lineage.values() {
            if entry.spec.source_table != source {
                continue;
            }
            let table = catalog.table(source)?;
            let time_column = &entry.spec.time_column;
            let Ok(c) = table.schema().index_of(time_column) else {
                continue;
            };
            let fresh = int_values(&columns[c]);
            let earlier: Vec<i64> = pending
                .iter()
                .flat_map(|p| int_values(&p[c]))
                .copied()
                .collect();
            let held = int_values(table.column(c));
            let held_max = match &entry.model {
                Some(model) if model.source_rows == table.len() => {
                    model.tail.last().map(|&(t, _)| t)
                }
                _ => held.iter().copied().max(),
            };
            let ahead_max = held_max.max(earlier.iter().copied().max());
            let suffix = fresh.windows(2).all(|w| w[0] < w[1])
                && fresh
                    .first()
                    .is_none_or(|&first| ahead_max.is_none_or(|max| first > max));
            if suffix {
                continue;
            }
            let mut ahead: Vec<i64> = held.iter().copied().chain(earlier).collect();
            ahead.sort_unstable();
            let mut sorted = fresh.to_vec();
            sorted.sort_unstable();
            let repeated = sorted
                .windows(2)
                .find(|w| w[0] == w[1])
                .map(|w| w[0])
                .or_else(|| {
                    fresh
                        .iter()
                        .copied()
                        .find(|t| ahead.binary_search(t).is_ok())
                });
            if let Some(t) = repeated {
                return Err(DbError::ViewBuild(format!(
                    "append to {source} refused: {time_column} = {t} repeats, and view {} \
                     needs distinct times",
                    entry.spec.view_name
                ))
                .into());
            }
        }
        Ok(())
    }

    /// Brings every Ω-view derived from `source` up to date after
    /// `appended` fresh source rows, each through [`Self::maintain_view`].
    /// A view whose maintenance fails is left without a model, so the next
    /// append retries it from the source table.
    fn maintain_dependent_views(
        &self,
        catalog: &mut Database,
        source: &str,
        appended: usize,
    ) -> Result<(), CoreError> {
        if appended == 0 {
            return Ok(());
        }
        let mut lineage = self.lineage.lock().unwrap_or_else(|e| e.into_inner());
        for entry in lineage.values_mut() {
            if entry.spec.source_table != source {
                continue;
            }
            let (model, done) = maintain_view(
                catalog,
                self.defaults,
                &entry.spec,
                entry.model.take(),
                appended,
            )?;
            entry.model = Some(model);
            entry.last_maintenance = Some(done);
            let kind = match done.path {
                MaintenancePath::Appended => DirtyKind::Appended,
                MaintenancePath::Regenerated | MaintenancePath::Rebuilt => DirtyKind::Rewritten,
            };
            self.mark_dirty(std::iter::once((entry.spec.view_name.clone(), kind)));
        }
        Ok(())
    }

    /// Records relations written since the last checkpoint.
    /// [`DirtyKind::Rewritten`] always wins a merge: an append after a
    /// rewrite still leaves the on-disk prefix stale, so the relation must
    /// stay on the full-rewrite path until a checkpoint clears it.
    fn mark_dirty<I: IntoIterator<Item = (String, DirtyKind)>>(&self, names: I) {
        let mut dirty = self.dirty.lock().unwrap_or_else(|e| e.into_inner());
        for (name, kind) in names {
            dirty
                .entry(name)
                .and_modify(|existing| {
                    if kind == DirtyKind::Rewritten {
                        *existing = DirtyKind::Rewritten;
                    }
                })
                .or_insert(kind);
        }
    }

    /// Loads a time series as a two-column table `(t INT, <value_col>
    /// FLOAT)` — the `raw_values` table of the paper's running example
    /// (write lock).
    pub fn load_series(
        &self,
        table_name: &str,
        value_column: &str,
        series: &TimeSeries,
    ) -> Result<(), CoreError> {
        // No SQL text exists for a programmatic load, so the journal
        // records the finished table itself (schema + columns, floats as
        // bit patterns) — replay re-registers it verbatim.
        let schema = Schema::new(vec![
            ("t".to_string(), ColumnType::Int),
            (value_column.to_string(), ColumnType::Float),
        ]);
        let mut columns = Column::for_schema(&schema, series.len());
        for obs in series.iter() {
            columns[0].push_int(obs.time);
            columns[1].push_float(obs.value);
        }
        let op = JournalOp::LoadTable {
            name: table_name.to_string(),
            schema,
            columns,
        };
        let mut catalog = self.catalog.write().expect("catalog lock poisoned");
        if let Some(storage) = &self.storage {
            storage.log(&op).map_err(DbError::from)?;
        }
        self.apply_op(&mut catalog, &op)?;
        Ok(())
    }

    /// Diagnostics of the most recent density-view build on this shared
    /// engine (cloned out so no lock is held by the caller).
    pub fn last_build(&self) -> Option<LastBuild> {
        self.last_build
            .read()
            .expect("last-build lock poisoned")
            .clone()
    }

    /// What the most recent append to its source table cost the named
    /// Ω-view: the path maintenance took and the windows it inferred.
    /// `None` for a view no append has reached since it was created or the
    /// engine opened.
    pub fn last_maintenance(&self, view_name: &str) -> Option<Maintenance> {
        let lineage = self.lineage.lock().unwrap_or_else(|e| e.into_inner());
        lineage.get(view_name)?.last_maintenance
    }

    /// Sets the fork-join width for `SELECT … WITH WORLDS` sampling and for
    /// the segment fan-out of large restrictions (`0` = one thread per
    /// core). The knob is an atomic on the catalog's read path, so tuning
    /// it takes only the *read* lock and never blocks concurrent queries.
    /// The width never changes an answer, only its latency.
    pub fn set_worlds_threads(&self, threads: usize) {
        self.read().set_worlds_threads(threads);
    }
}

/// The relations a mutating statement writes — what the dirty tracker
/// records before the statement applies. Conservative by construction:
/// marking too much (or as [`DirtyKind::Rewritten`] when an append would
/// do) only costs checkpoint pages, marking too little would lose data on
/// a skipped one, so the match is exhaustive and any new mutating variant
/// must name its targets here. Only `INSERT` qualifies as append-only;
/// everything else replaces the relation wholesale.
fn statement_dirty_targets(stmt: &Statement) -> Vec<(String, DirtyKind)> {
    match stmt {
        Statement::CreateTable { name, .. } | Statement::Drop { name } => {
            vec![(name.clone(), DirtyKind::Rewritten)]
        }
        Statement::Insert { table, .. } => vec![(table.clone(), DirtyKind::Appended)],
        Statement::CreateDensityView(spec) => vec![(spec.view_name.clone(), DirtyKind::Rewritten)],
        Statement::Select(_) | Statement::Explain(_) | Statement::Tail(_) => vec![],
    }
}

/// Brings one Ω-view up to date after `appended` rows landed at the end of
/// its source table. The contract on every path: the view, its totals
/// and every query answer are bit-identical to a `CREATE VIEW` from scratch
/// over the same rows. Three outcomes:
///
/// * **Appended.** With the `model` in hand and the fresh rows a strict
///   suffix in time, the metric runs over the appended windows only — the
///   stored tail of `window` readings is all the history they look back on,
///   and per-window inference is stateless, so the densities are those a
///   rebuild would infer. Their tuples are appended when the σ-cache
///   ladder a rebuild would lay out gives every old σ̂ its old rung. Rungs
///   sit at `min σ̂ · d_s^q` and a lookup takes the largest rung ≤ σ̂, so
///   that holds whenever `(min σ̂, d_s)` is unchanged: a larger max σ̂ only
///   adds rungs above every old σ̂. With no cache configured it always
///   holds. Only the data generation moves; cached plans survive.
/// * **Regenerated.** A new minimum σ̂ re-bases the ladder (and under a
///   memory constraint a new maximum changes `d_s`), which can move any old
///   tuple. All tuples are then regenerated from the stored model — no
///   window is re-fitted — and the view re-registered.
/// * **Rebuilt.** Without a model (the first append after
///   [`SharedEngine::open_persistent`], which persists specs only, or after
///   a failed maintenance), on backfill, duplicate or non-integer times, or
///   when the source changed other than through this path, the view is
///   built from the whole source table as `CREATE VIEW` does, which also
///   restores the model. Recovery therefore costs one full build per view,
///   on its first replayed or live append.
fn maintain_view(
    catalog: &mut Database,
    defaults: ViewBuilderConfig,
    spec: &DensityViewSpec,
    model: Option<ViewModel>,
    appended: usize,
) -> Result<(ViewModel, Maintenance), CoreError> {
    let source = catalog.table(&spec.source_table)?;
    let suffix = model.and_then(|model| {
        let fresh = strict_suffix(source, spec, &model, appended)?;
        Some((model, fresh))
    });
    let Some((mut model, fresh)) = suffix else {
        let BuiltDensityView { built, model } = build_density_view(catalog, defaults, spec)?;
        let windows_inferred = built.model.len() + built.failures;
        catalog.register_prob_table(built.view)?;
        let done = Maintenance {
            path: MaintenancePath::Rebuilt,
            windows_inferred,
        };
        return Ok((model, done));
    };

    let (builder, omega) = view_builder(defaults, spec)?;
    let floor = model.tail.last().map(|&(t, _)| t);
    model.tail.extend(fresh);
    let (lo, hi) = time_bounds_from_predicate(&spec.predicate, &spec.time_column)?
        .unwrap_or((i64::MIN, i64::MAX));
    let bounds = (floor.map_or(lo, |t| lo.max(t.saturating_add(1))), hi);
    let inferred = builder.infer(&points_to_series(spec, &model.tail), Some(bounds))?;
    let stale = model.tail.len().saturating_sub(builder.config().window);
    model.tail.drain(..stale);
    model.source_rows += appended;

    let old_len = model.densities.len();
    let fresh_range = sigma_range(&inferred.densities);
    model.sigma_range = (
        model.sigma_range.0.min(fresh_range.0),
        model.sigma_range.1.max(fresh_range.1),
    );
    model.densities.extend(inferred.densities);
    let cache = builder.ladder(model.sigma_range, omega)?;
    let ladder = cache
        .as_ref()
        .map(|c| (model.sigma_range.0, c.ratio_threshold()));
    let path = if ladder == model.ladder {
        let suffix = builder.generate(
            &model.densities[old_len..],
            cache.as_ref(),
            omega,
            &spec.view_name,
        )?;
        catalog.append_columns(&spec.view_name, suffix.columns(), Some(suffix.probs()))?;
        MaintenancePath::Appended
    } else {
        let view = builder.generate(&model.densities, cache.as_ref(), omega, &spec.view_name)?;
        catalog.register_prob_table(view)?;
        model.ladder = ladder;
        MaintenancePath::Regenerated
    };
    let done = Maintenance {
        path,
        windows_inferred: model.densities.len() - old_len + inferred.failures,
    };
    Ok((model, done))
}

/// The `appended` newest rows of a view's source table as `(time, value)`
/// points in time order, when they extend the history `model` accounts for
/// as a strict suffix: every time an integer greater than every old one,
/// no two equal. `None` sends maintenance down the full-rebuild path, which
/// also reports whatever is wrong with the rows.
fn strict_suffix(
    source: &Table,
    spec: &DensityViewSpec,
    model: &ViewModel,
    appended: usize,
) -> Option<Vec<(i64, f64)>> {
    let old_len = source.len().checked_sub(appended)?;
    if old_len != model.source_rows {
        return None;
    }
    let fresh = sorted_points(source, old_len, spec).ok()?;
    match (model.tail.last(), fresh.first()) {
        (Some(&(old_max, _)), Some(&(first, _))) if first <= old_max => None,
        _ => Some(fresh),
    }
}

/// The builder and Ω lattice a density-view spec resolves to.
fn view_builder(
    defaults: ViewBuilderConfig,
    spec: &DensityViewSpec,
) -> Result<(OmegaViewBuilder, OmegaSpec), CoreError> {
    let mut config = defaults;
    if let Some(name) = &spec.metric {
        config.metric = MetricKind::parse(name)?;
    }
    if let Some(w) = spec.window {
        config.window = w;
    }
    Ok((
        OmegaViewBuilder::new(config)?,
        OmegaSpec::new(spec.delta, spec.n)?,
    ))
}

/// Fulfils a density-view spec against a catalog borrow. Building only
/// reads the source table, so a *read* lock suffices.
fn build_density_view(
    db: &Database,
    defaults: ViewBuilderConfig,
    spec: &DensityViewSpec,
) -> Result<BuiltDensityView, CoreError> {
    let source = db.table(&spec.source_table)?;
    let mut tail = sorted_points(source, 0, spec)?;
    let bounds = time_bounds_from_predicate(&spec.predicate, &spec.time_column)?;
    let (builder, omega) = view_builder(defaults, spec)?;
    let inferred = builder.infer(&points_to_series(spec, &tail), bounds)?;
    let built = builder.build_from(&inferred, omega, &spec.view_name)?;
    tail.drain(..tail.len().saturating_sub(builder.config().window));
    let sigma_range = sigma_range(&inferred.densities);
    let model = ViewModel {
        ladder: built.ratio_threshold.map(|ds| (sigma_range.0, ds)),
        densities: inferred.densities,
        sigma_range,
        tail,
        source_rows: source.len(),
    };
    Ok(BuiltDensityView { built, model })
}

/// The values of an `INT` column; nothing for any other type.
fn int_values(column: &Column) -> &[i64] {
    match column.values() {
        ColumnSlice::Int(values) => values,
        _ => &[],
    }
}

/// Reads the rows `from..` of a view's source table as `(time, value)`
/// points sorted by time; a time column that is not `INT`, a text value
/// column (when there is a row to read) and duplicate timestamps are
/// errors.
fn sorted_points(
    table: &Table,
    from: usize,
    spec: &DensityViewSpec,
) -> Result<Vec<(i64, f64)>, CoreError> {
    let (time_column, value_column) = (&spec.time_column, &spec.value_column);
    let t_idx = table.schema().index_of(time_column)?;
    let v_idx = table.schema().index_of(value_column)?;
    let mismatch = |column: &str, expected, got| {
        Err(CoreError::Db(DbError::TypeMismatch {
            column: column.to_string(),
            expected,
            got,
        }))
    };
    if from == table.len() {
        return Ok(Vec::new());
    }
    let times = match table.column(t_idx).values() {
        ColumnSlice::Int(times) => &times[from..],
        other => return mismatch(time_column, ColumnType::Int, other.column_type()),
    };
    let mut pairs: Vec<(i64, f64)> = match table.column(v_idx).values() {
        ColumnSlice::Int(values) => times
            .iter()
            .zip(&values[from..])
            .map(|(&t, &v)| (t, v as f64))
            .collect(),
        ColumnSlice::Float(values) => times
            .iter()
            .copied()
            .zip(values[from..].iter().copied())
            .collect(),
        ColumnSlice::Text(_) => return mismatch(value_column, ColumnType::Float, ColumnType::Text),
    };
    pairs.sort_by_key(|&(t, _)| t);
    if pairs.windows(2).any(|w| w[0].0 == w[1].0) {
        return Err(CoreError::InvalidConfig(format!(
            "duplicate timestamps in {}.{time_column}",
            table.name()
        )));
    }
    Ok(pairs)
}

/// The [`TimeSeries`] of strictly increasing `(time, value)` points.
fn points_to_series(spec: &DensityViewSpec, points: &[(i64, f64)]) -> TimeSeries {
    let (timestamps, values) = points.iter().copied().unzip();
    TimeSeries::from_parts(spec.value_column.clone(), timestamps, values)
}

/// Reduces a conjunction over the time column into inclusive `(lo, hi)`
/// bounds. Only comparisons on the time column are allowed in a density
/// view's `WHERE` clause (the paper's queries restrict time intervals).
pub(crate) fn time_bounds_from_predicate(
    pred: &Conjunction,
    time_column: &str,
) -> Result<Option<(i64, i64)>, CoreError> {
    if pred.is_empty() {
        return Ok(None);
    }
    let mut lo = i64::MIN;
    let mut hi = i64::MAX;
    for cmp in pred {
        if cmp.column != time_column {
            return Err(CoreError::InvalidConfig(format!(
                "density view WHERE clauses may only reference the time column \
                 {time_column:?}, found {:?}",
                cmp.column
            )));
        }
        let v = cmp
            .value
            .as_i64()
            .or_else(|| cmp.value.as_f64().map(|f| f as i64));
        let v = v.ok_or_else(|| {
            CoreError::InvalidConfig("time predicate literal must be numeric".into())
        })?;
        match cmp.op {
            CmpOp::Ge => lo = lo.max(v),
            CmpOp::Gt => lo = lo.max(v.saturating_add(1)),
            CmpOp::Le => hi = hi.min(v),
            CmpOp::Lt => hi = hi.min(v.saturating_sub(1)),
            CmpOp::Eq => {
                lo = lo.max(v);
                hi = hi.min(v);
            }
            CmpOp::Ne => {
                return Err(CoreError::InvalidConfig(
                    "'!=' is not meaningful for a time interval".into(),
                ))
            }
        }
    }
    Ok(Some((lo, hi)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricConfig;
    use crate::sigma_cache::{direct_probability_values, SigmaCache, SigmaCacheConfig};
    use tspdb_probdb::Comparison;
    use tspdb_timeseries::generate::TemperatureGenerator;

    fn shared() -> Arc<SigmaCache> {
        Arc::new(
            SigmaCache::build(
                0.1,
                10.0,
                OmegaSpec::new(0.1, 20).unwrap(),
                SigmaCacheConfig::default(),
            )
            .unwrap(),
        )
    }

    #[test]
    fn concurrent_queries_agree_with_direct_evaluation() {
        let cache = shared();
        let omega = OmegaSpec::new(0.1, 20).unwrap();
        let handles: Vec<_> = (0..8)
            .map(|worker| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let sigma = 0.1 + (worker * 200 + i) as f64 * 0.006;
                        let got = cache.probability_values(5.0, sigma);
                        let want = direct_probability_values(5.0, sigma, &omega);
                        for (g, w) in got.iter().zip(&want) {
                            assert!(
                                (g.rho - w.rho).abs() < 0.05,
                                "worker {worker}: σ {sigma} mismatch"
                            );
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 8 * 200);
        assert_eq!(stats.misses, 0, "all sigmas were in range");
    }

    #[test]
    fn clones_share_state() {
        let cache = shared();
        let clone = Arc::clone(&cache);
        clone.probability_values(0.0, 1.0);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.len(), clone.len());
        assert!(!cache.is_empty());
        assert!(cache.memory_bytes() > 0);
    }

    fn shared_engine_with_view() -> SharedEngine {
        let engine = engine_with_series(150);
        engine
            .execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw_values")
            .unwrap();
        engine
    }

    #[test]
    fn shared_engine_plan_cache_is_shared_and_generation_invalidated() {
        let engine = shared_engine_with_view();
        let sql = "SELECT * FROM pv WHERE prob >= 0.1";
        let baseline = engine.query(sql).unwrap();
        // Warm the cache once (one miss), then concurrent "sessions" all
        // run the same hot statement: every one of them hits.
        assert_eq!(engine.query_cached(sql).unwrap(), baseline);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..4 {
                        assert_eq!(engine.query_cached(sql).unwrap(), baseline);
                    }
                });
            }
        });
        let stats = engine.plan_cache_stats();
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(stats.hits, 32, "{stats:?}");
        // A write bumps the generation and invalidates the cached plan,
        // but answers stay correct (and reflect the write).
        let g = engine.catalog_generation();
        engine.execute("CREATE TABLE extra (k INT)").unwrap();
        assert!(engine.catalog_generation() > g);
        assert_eq!(engine.query_cached(sql).unwrap(), baseline);
        let stats = engine.plan_cache_stats();
        assert_eq!(stats.misses, 2, "{stats:?}");
        assert_eq!(stats.invalidations, 1, "{stats:?}");
    }

    #[test]
    fn shared_engine_serves_selects_from_many_threads() {
        let engine = shared_engine_with_view();
        let expected = engine
            .query("SELECT * FROM pv WHERE prob >= 0.1")
            .unwrap()
            .prob_rows()
            .unwrap()
            .len();
        assert!(expected > 0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let engine = engine.clone();
                s.spawn(move || {
                    for _ in 0..20 {
                        let got = engine
                            .query("SELECT * FROM pv WHERE prob >= 0.1")
                            .unwrap()
                            .prob_rows()
                            .unwrap()
                            .len();
                        assert_eq!(got, expected);
                    }
                });
            }
        });
    }

    #[test]
    fn shared_engine_runs_mc_selects_concurrently_and_identically() {
        let engine = shared_engine_with_view();
        engine.set_worlds_threads(2);
        const MC_SQL: &str = "SELECT * FROM pv WITH WORLDS 2000 SEED 21";
        let expected = engine
            .query(MC_SQL)
            .unwrap()
            .worlds()
            .unwrap()
            .fingerprint();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let engine = engine.clone();
                let expected = &expected;
                s.spawn(move || {
                    for _ in 0..5 {
                        let got = engine.query(MC_SQL).unwrap();
                        assert_eq!(&got.worlds().unwrap().fingerprint(), expected);
                    }
                });
            }
        });
    }

    #[test]
    fn shared_engine_serves_aggregates_and_explain_under_the_read_lock() {
        let engine = shared_engine_with_view();
        engine.set_worlds_threads(2);
        const AGG_SQL: &str =
            "SELECT t, COUNT(*), SUM(lambda) FROM pv GROUP BY t HAVING COUNT(*) >= 2 \
             WITH WORLDS 1000 SEED 13";
        let expected = engine
            .query(AGG_SQL)
            .unwrap()
            .aggregate()
            .unwrap()
            .fingerprint();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let engine = engine.clone();
                let expected = &expected;
                s.spawn(move || {
                    for _ in 0..3 {
                        let got = engine.query(AGG_SQL).unwrap();
                        assert_eq!(&got.aggregate().unwrap().fingerprint(), expected);
                        let report = engine.query(&format!("EXPLAIN {AGG_SQL}")).unwrap();
                        let report = report.explain().unwrap();
                        assert!(report.strategy.contains("worlds"));
                    }
                });
            }
        });
    }

    #[test]
    fn shared_engine_mixes_reads_and_writes() {
        let engine = shared_engine_with_view();
        std::thread::scope(|s| {
            let reader = engine.clone();
            s.spawn(move || {
                for _ in 0..50 {
                    let out = reader.query("SELECT * FROM pv LIMIT 5").unwrap();
                    assert_eq!(out.prob_rows().unwrap().len(), 5);
                }
            });
            let writer = engine.clone();
            s.spawn(move || {
                writer.execute("CREATE TABLE scratch (x INT)").unwrap();
                writer
                    .execute("INSERT INTO scratch VALUES (1), (2)")
                    .unwrap();
            });
        });
        let out = engine.query("SELECT * FROM scratch").unwrap();
        assert_eq!(out.rows().unwrap().len(), 2);
    }

    /// Self-cleaning temp dir for the persistent-engine tests (no
    /// external crates in the offline build).
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new() -> TempDir {
            use std::sync::atomic::{AtomicU64, Ordering};
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "tspdb-concurrent-test-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Deterministic synthetic series: strictly increasing integer times,
    /// smooth values — the shape the ingest subsystem streams.
    fn synthetic_rows(range: std::ops::Range<i64>) -> Vec<Vec<Value>> {
        range
            .map(|t| {
                let v = 20.0 + 3.0 * ((t as f64) * 0.21).sin() + 0.01 * (t % 7) as f64;
                vec![Value::Int(t), Value::Float(v)]
            })
            .collect()
    }

    /// A cheap AR(1) config whose densities are evaluated directly (no
    /// σ-cache): every suffix append stays on the append path.
    fn direct_config() -> ViewBuilderConfig {
        ViewBuilderConfig {
            window: 30,
            metric_config: MetricConfig {
                p: 1,
                q: 0,
                ..MetricConfig::default()
            },
            cache: None,
            threads: 1,
            ..ViewBuilderConfig::default()
        }
    }

    fn engine_with_rows(config: ViewBuilderConfig, upto: i64) -> SharedEngine {
        rebuilt_twin(config, synthetic_rows(0..upto))
    }

    #[test]
    fn monotone_appends_maintain_views_incrementally_and_bit_identically() {
        // Incremental: view created over 100 rows, then three streamed
        // suffix batches. Scratch twin: all 130 rows first, view built once.
        let engine = engine_with_rows(direct_config(), 100);
        let ddl_gen = engine.catalog_generation();
        let data_gen = engine.data_generation();
        engine
            .append_rows("raw_values", synthetic_rows(100..110))
            .unwrap();
        engine
            .append_rows("raw_values", synthetic_rows(110..111))
            .unwrap();
        engine
            .append_rows("raw_values", synthetic_rows(111..130))
            .unwrap();
        assert_eq!(
            engine.catalog_generation(),
            ddl_gen,
            "suffix maintenance must not re-register the view (DDL generation moved)"
        );
        assert!(engine.data_generation() > data_gen);

        let twin = engine_with_rows(direct_config(), 130);
        let sql = "SELECT * FROM pv";
        assert_eq!(engine.query(sql).unwrap(), twin.query(sql).unwrap());
        // The view's totals absorbed the suffix: equal to the rebuild's
        // from-scratch fold, bit for bit.
        assert_eq!(pv_totals(&engine), pv_totals(&twin));
        // And derived answers agree across every strategy surface.
        let agg = "SELECT COUNT(*) FROM pv GROUP BY WINDOW(t, 16)";
        assert_eq!(engine.query(agg).unwrap(), twin.query(agg).unwrap());
    }

    /// `direct_config` with the default σ-cache (H′ = 0.01) switched on.
    fn cached_config() -> ViewBuilderConfig {
        ViewBuilderConfig {
            cache: Some(SigmaCacheConfig::default()),
            ..direct_config()
        }
    }

    /// Readings around 20 whose deterministic jitter has the given
    /// amplitude: a louder batch raises σ̂, a quieter one lowers it.
    fn jittery_rows(range: std::ops::Range<i64>, amplitude: f64) -> Vec<Vec<Value>> {
        range
            .map(|t| {
                let noise = ((t as f64 * 12.9898).sin() * 43758.5453).fract();
                vec![Value::Int(t), Value::Float(20.0 + amplitude * noise)]
            })
            .collect()
    }

    const PV_SQL: &str = "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw_values";

    /// A fresh engine handed `rows` at once, with `pv` built from scratch.
    fn rebuilt_twin(config: ViewBuilderConfig, rows: Vec<Vec<Value>>) -> SharedEngine {
        let twin = SharedEngine::new(config);
        twin.execute("CREATE TABLE raw_values (t INT, r FLOAT)")
            .unwrap();
        twin.append_rows("raw_values", rows).unwrap();
        twin.execute(PV_SQL).unwrap();
        twin
    }

    fn assert_pv_equals(engine: &SharedEngine, twin: &SharedEngine) {
        let sql = "SELECT * FROM pv";
        assert_eq!(engine.query(sql).unwrap(), twin.query(sql).unwrap());
        assert_eq!(pv_totals(engine), pv_totals(twin));
    }

    /// Bits of `pv`'s running totals: Σp, then Σp·v per numeric column.
    fn pv_totals(engine: &SharedEngine) -> Vec<u64> {
        let catalog = engine.read();
        let pv = catalog.prob_table("pv").unwrap();
        let sums = pv.schema().names().filter_map(|c| pv.expected_sum(c).ok());
        std::iter::once(pv.expected_count())
            .chain(sums)
            .map(f64::to_bits)
            .collect()
    }

    fn stored_sigma_range(engine: &SharedEngine) -> (f64, f64) {
        let lineage = engine.lineage.lock().unwrap();
        lineage["pv"].model.as_ref().unwrap().sigma_range
    }

    #[test]
    fn a_larger_max_sigma_keeps_cached_views_on_the_append_path() {
        let mut rows = jittery_rows(0..100, 1.0);
        let engine = rebuilt_twin(cached_config(), rows.clone());
        let ddl_gen = engine.catalog_generation();
        let (min_before, max_before) = stored_sigma_range(&engine);
        engine.dirty.lock().unwrap().clear();

        let loud = jittery_rows(100..130, 6.0);
        engine.append_rows("raw_values", loud.clone()).unwrap();
        rows.extend(loud);
        let (min_after, max_after) = stored_sigma_range(&engine);
        assert!(
            max_after > max_before && min_after == min_before,
            "the batch must only raise max σ̂: [{min_before}, {max_before}] → [{min_after}, {max_after}]"
        );
        assert_eq!(
            engine.last_maintenance("pv"),
            Some(Maintenance {
                path: MaintenancePath::Appended,
                windows_inferred: 30,
            })
        );
        assert_eq!(engine.catalog_generation(), ddl_gen);
        assert_eq!(
            engine.dirty.lock().unwrap().get("pv"),
            Some(&DirtyKind::Appended)
        );
        assert_pv_equals(&engine, &rebuilt_twin(cached_config(), rows));
    }

    #[test]
    fn a_smaller_min_sigma_regenerates_cached_views_from_the_stored_model() {
        let mut rows = jittery_rows(0..100, 1.0);
        let engine = rebuilt_twin(cached_config(), rows.clone());
        let ddl_gen = engine.catalog_generation();
        let (min_before, _) = stored_sigma_range(&engine);
        engine.dirty.lock().unwrap().clear();

        let quiet = jittery_rows(100..140, 0.05);
        engine.append_rows("raw_values", quiet.clone()).unwrap();
        rows.extend(quiet);
        let (min_after, _) = stored_sigma_range(&engine);
        assert!(
            min_after < min_before,
            "the batch must lower min σ̂: {min_before} → {min_after}"
        );
        assert_eq!(
            engine.last_maintenance("pv"),
            Some(Maintenance {
                path: MaintenancePath::Regenerated,
                windows_inferred: 40,
            })
        );
        assert!(engine.catalog_generation() > ddl_gen);
        assert_eq!(
            engine.dirty.lock().unwrap().get("pv"),
            Some(&DirtyKind::Rewritten)
        );
        assert_pv_equals(&engine, &rebuilt_twin(cached_config(), rows.clone()));

        // The re-based ladder is the stored one now: once the windows
        // hold louder readings again, σ̂ stays above the new minimum and
        // batches go back to the append path.
        for from in [140, 150] {
            let next = jittery_rows(from..from + 10, 1.0);
            engine.append_rows("raw_values", next.clone()).unwrap();
            rows.extend(next);
            assert_pv_equals(&engine, &rebuilt_twin(cached_config(), rows.clone()));
        }
        assert_eq!(
            engine.last_maintenance("pv").unwrap().path,
            MaintenancePath::Appended
        );
    }

    #[test]
    fn ddl_and_backfill_discard_or_replace_the_stored_model() {
        let path = |engine: &SharedEngine| engine.last_maintenance("pv").map(|m| m.path);
        let mut rows = jittery_rows(0..100, 1.0);
        let engine = rebuilt_twin(cached_config(), rows.clone());

        // DROP VIEW takes the model along with the lineage…
        engine.execute("DROP VIEW pv").unwrap();
        assert!(engine.lineage.lock().unwrap().get("pv").is_none());
        rows.extend(jittery_rows(100..110, 1.0));
        engine
            .append_rows("raw_values", rows[100..].to_vec())
            .unwrap();
        assert_eq!(path(&engine), None);
        // …and re-creating it stores the model of the new build.
        engine.execute(PV_SQL).unwrap();
        assert_eq!(
            engine.lineage.lock().unwrap()["pv"]
                .model
                .as_ref()
                .unwrap()
                .source_rows,
            110
        );
        rows.extend(jittery_rows(110..120, 1.0));
        engine
            .append_rows("raw_values", rows[110..].to_vec())
            .unwrap();
        assert_eq!(path(&engine), Some(MaintenancePath::Appended));
        assert_pv_equals(&engine, &rebuilt_twin(cached_config(), rows.clone()));

        // Backfill rebuilds, and the rebuild's model (tail in time order,
        // whatever the row order) carries the next suffix append.
        rows.extend(jittery_rows(-20..0, 1.0));
        engine
            .append_rows("raw_values", rows[120..].to_vec())
            .unwrap();
        assert_eq!(path(&engine), Some(MaintenancePath::Rebuilt));
        rows.extend(jittery_rows(120..130, 1.0));
        engine
            .append_rows("raw_values", rows[140..].to_vec())
            .unwrap();
        assert_eq!(path(&engine), Some(MaintenancePath::Appended));
        assert_pv_equals(&engine, &rebuilt_twin(cached_config(), rows.clone()));

        // A SQL INSERT is an append like any other: it maintains the view
        // itself, so the model stays whole and the next append extends it.
        engine
            .execute("INSERT INTO raw_values VALUES (130, 20.5)")
            .unwrap();
        rows.push(vec![Value::Int(130), Value::Float(20.5)]);
        assert_eq!(path(&engine), Some(MaintenancePath::Appended));
        assert_pv_equals(&engine, &rebuilt_twin(cached_config(), rows.clone()));
        rows.extend(jittery_rows(131..140, 1.0));
        engine
            .append_rows("raw_values", rows[151..].to_vec())
            .unwrap();
        assert_eq!(path(&engine), Some(MaintenancePath::Appended));
        assert_pv_equals(&engine, &rebuilt_twin(cached_config(), rows));

        // Dropping the source keeps the view but not its model.
        engine.execute("DROP TABLE raw_values").unwrap();
        assert!(engine.lineage.lock().unwrap()["pv"].model.is_none());
        engine
            .execute("CREATE TABLE raw_values (t INT, r FLOAT)")
            .unwrap();
        let fresh = jittery_rows(0..80, 2.0);
        engine.append_rows("raw_values", fresh.clone()).unwrap();
        assert_eq!(path(&engine), Some(MaintenancePath::Rebuilt));
        assert_pv_equals(&engine, &rebuilt_twin(cached_config(), fresh));
    }

    #[test]
    fn backfill_appends_fall_back_to_a_full_rebuild() {
        let engine2 = engine_with_rows(direct_config(), 100);
        let ddl_gen = engine2.catalog_generation();
        // New rows strictly *before* existing history: not a suffix.
        engine2
            .append_rows("raw_values", synthetic_rows(-20..0))
            .unwrap();
        assert!(
            engine2.catalog_generation() > ddl_gen,
            "backfill must take the rebuild path (re-registration bumps DDL generation)"
        );
        let twin = SharedEngine::new(direct_config());
        twin.execute("CREATE TABLE raw_values (t INT, r FLOAT)")
            .unwrap();
        let mut all = synthetic_rows(0..100);
        all.extend(synthetic_rows(-20..0));
        twin.append_rows("raw_values", all).unwrap();
        twin.execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw_values")
            .unwrap();
        let sql = "SELECT * FROM pv";
        assert_eq!(engine2.query(sql).unwrap(), twin.query(sql).unwrap());
    }

    /// An append that repeats a time cannot be absorbed by the view over
    /// its source, so it is refused before the journal: no row lands, the
    /// WAL is untouched, the view keeps its tuples and its model (the next
    /// good append takes the append path), and a reopen agrees.
    #[test]
    fn appends_a_dependent_view_cannot_absorb_are_refused_before_the_journal() {
        let dir = TempDir::new();
        let engine = SharedEngine::open_persistent(&dir.0, direct_config()).unwrap();
        engine
            .execute("CREATE TABLE raw_values (t INT, r FLOAT)")
            .unwrap();
        engine
            .append_rows("raw_values", synthetic_rows(0..100))
            .unwrap();
        engine.execute(PV_SQL).unwrap();
        let storage = Arc::clone(engine.storage().unwrap());
        let pv_bytes = |engine: &SharedEngine| {
            tspdb_wire::canonical_result_bytes(&engine.query("SELECT * FROM pv").unwrap())
        };
        let source_len = |engine: &SharedEngine| engine.read().table("raw_values").unwrap().len();
        let (view, wal) = (pv_bytes(&engine), storage.wal_bytes().unwrap());

        let refused = |what: &str, out: Result<usize, CoreError>| {
            let err = out.unwrap_err();
            assert!(
                matches!(&err, CoreError::Db(DbError::ViewBuild(msg)) if msg.contains("repeats")),
                "{what}: {err:?}"
            );
        };
        refused(
            "a batch repeating the newest time",
            engine.append_rows("raw_values", synthetic_rows(99..101)),
        );
        let mut repeats_itself = synthetic_rows(100..104);
        repeats_itself.extend(synthetic_rows(102..103));
        refused(
            "a batch repeating a time within itself",
            engine.append_rows("raw_values", repeats_itself),
        );
        refused(
            "an INSERT backfilling a held time",
            engine
                .execute("INSERT INTO raw_values VALUES (5, 20.0)")
                .map(|_| 0),
        );
        assert_eq!(source_len(&engine), 100, "a refused append landed rows");
        assert!(
            pv_bytes(&engine) == view,
            "a refused append changed the view"
        );
        assert_eq!(
            storage.wal_bytes().unwrap(),
            wal,
            "a refused append reached the WAL"
        );

        // Within one flush a batch is checked against the batches ahead of
        // it: the second repeats the first's newest time and is refused,
        // while the first lands on the append path.
        refused(
            "a batch repeating a time of the batch ahead of it",
            engine.append_batches(vec![
                ("raw_values".into(), synthetic_rows(100..103)),
                ("raw_values".into(), synthetic_rows(102..104)),
            ]),
        );
        assert_eq!(source_len(&engine), 103);
        assert_eq!(
            engine.last_maintenance("pv").map(|m| m.path),
            Some(MaintenancePath::Appended),
            "the view lost its model"
        );
        engine
            .append_rows("raw_values", synthetic_rows(103..110))
            .unwrap();
        assert_eq!(
            engine.last_maintenance("pv").map(|m| m.path),
            Some(MaintenancePath::Appended)
        );
        let twin = engine_with_rows(direct_config(), 110);
        assert!(pv_bytes(&engine) == pv_bytes(&twin));
        drop(engine);
        let reopened = SharedEngine::open_persistent(&dir.0, direct_config()).unwrap();
        assert_eq!(source_len(&reopened), 110);
        assert!(pv_bytes(&reopened) == pv_bytes(&twin));
    }

    #[test]
    fn append_batches_group_commits_with_one_fsync_and_recovers() {
        let dir = TempDir::new();
        let engine = SharedEngine::open_persistent(&dir.0, direct_config()).unwrap();
        engine.execute("CREATE TABLE kv (k INT, v FLOAT)").unwrap();
        let storage = Arc::clone(engine.storage().unwrap());
        let before = storage.wal_fsyncs();
        // Three relations' batches in one flush: one WAL fsync total.
        engine
            .append_batches(vec![
                ("kv".into(), synthetic_rows(0..40)),
                ("kv".into(), synthetic_rows(40..64)),
                ("kv".into(), synthetic_rows(64..100)),
            ])
            .unwrap();
        assert_eq!(storage.wal_fsyncs(), before + 1, "group commit = one fsync");
        // The statement path is not batched: each INSERT is its own commit.
        const INSERTS: u64 = 8;
        let before = storage.wal_fsyncs();
        for k in 0..INSERTS {
            engine
                .execute(&format!("INSERT INTO kv VALUES ({}, 0.5)", 100 + k))
                .unwrap();
        }
        assert_eq!(
            storage.wal_fsyncs(),
            before + INSERTS,
            "the statement path must fsync once per INSERT"
        );
        let rows = 100 + INSERTS as usize;
        assert_eq!(
            engine
                .query("SELECT * FROM kv")
                .unwrap()
                .rows()
                .unwrap()
                .len(),
            rows
        );
        drop(engine);
        // Both paths are redo-logged: a reopen replays them verbatim.
        let reopened = SharedEngine::open_persistent(&dir.0, direct_config()).unwrap();
        assert_eq!(
            reopened
                .query("SELECT * FROM kv")
                .unwrap()
                .rows()
                .unwrap()
                .len(),
            rows
        );
    }

    #[test]
    fn sql_inserts_maintain_dependent_views_live_and_on_replay() {
        // A SQL INSERT appends to the view's source just as a streamed
        // batch does, so the view must equal a twin built once over every
        // row: in memory, and again after a reopen replays the INSERTs from
        // the WAL and more land.
        let insert = |engine: &SharedEngine, range: std::ops::Range<i64>| {
            for row in synthetic_rows(range) {
                engine
                    .execute(&format!(
                        "INSERT INTO raw_values VALUES ({}, {})",
                        row[0], row[1]
                    ))
                    .unwrap();
            }
        };
        let pv_bytes = |engine: &SharedEngine| {
            tspdb_wire::canonical_result_bytes(&engine.query("SELECT * FROM pv").unwrap())
        };
        let assert_matches_twin = |engine: &SharedEngine, upto: i64| {
            let twin = engine_with_rows(direct_config(), upto);
            assert!(
                pv_bytes(engine) == pv_bytes(&twin),
                "view over 0..{upto} differs from its twin"
            );
            assert_eq!(pv_totals(engine), pv_totals(&twin), "totals over 0..{upto}");
        };

        let dir = TempDir::new();
        let engine = SharedEngine::open_persistent(&dir.0, direct_config()).unwrap();
        engine
            .execute("CREATE TABLE raw_values (t INT, r FLOAT)")
            .unwrap();
        engine
            .append_rows("raw_values", synthetic_rows(0..100))
            .unwrap();
        engine.execute(PV_SQL).unwrap();
        insert(&engine, 100..110);
        assert_matches_twin(&engine, 110);
        drop(engine);

        let reopened = SharedEngine::open_persistent(&dir.0, direct_config()).unwrap();
        assert_matches_twin(&reopened, 110);
        insert(&reopened, 110..120);
        assert_matches_twin(&reopened, 120);
    }

    #[test]
    fn append_batch_errors_skip_the_batch_but_keep_later_ones() {
        use tspdb_probdb::Value;
        let engine = SharedEngine::new(direct_config());
        engine.execute("CREATE TABLE kv (k INT, v FLOAT)").unwrap();
        let err = engine
            .append_batches(vec![
                ("kv".into(), synthetic_rows(0..3)),
                // Arity mismatch rejects this whole batch atomically…
                ("kv".into(), vec![vec![Value::Int(9)]]),
                // …while later batches still land (mirrors WAL replay).
                ("kv".into(), synthetic_rows(3..5)),
            ])
            .unwrap_err();
        assert!(format!("{err}").contains("arity") || format!("{err:?}").contains("Arity"));
        assert_eq!(
            engine
                .query("SELECT * FROM kv")
                .unwrap()
                .rows()
                .unwrap()
                .len(),
            5
        );
    }

    #[test]
    fn tail_statements_are_rejected_before_the_journal() {
        let dir = TempDir::new();
        let engine = SharedEngine::open_persistent(&dir.0, direct_config()).unwrap();
        engine.execute("CREATE TABLE kv (k INT, v FLOAT)").unwrap();
        let storage = Arc::clone(engine.storage().unwrap());
        let wal_before = storage.wal_bytes().unwrap();
        let err = engine
            .execute("TAIL SELECT COUNT(*) FROM kv GROUP BY WINDOW(k, 10)")
            .unwrap_err();
        assert!(format!("{err}").contains("continuous query"), "{err}");
        assert_eq!(
            storage.wal_bytes().unwrap(),
            wal_before,
            "a rejected TAIL must never reach the WAL"
        );
    }

    #[test]
    fn clean_engines_skip_checkpoint_rewrites() {
        let dir = TempDir::new();
        let engine = SharedEngine::open_persistent(&dir.0, direct_config()).unwrap();
        engine.execute("CREATE TABLE kv (k INT, v FLOAT)").unwrap();
        engine.append_rows("kv", synthetic_rows(0..10)).unwrap();
        engine.checkpoint().unwrap();
        let db_file = dir.0.join(tspdb_storage::DB_FILE);
        let written = std::fs::metadata(&db_file).unwrap().modified().unwrap();
        // Nothing changed since: the rewrite is skipped wholesale.
        engine.checkpoint().unwrap();
        assert_eq!(
            std::fs::metadata(&db_file).unwrap().modified().unwrap(),
            written,
            "clean checkpoint rewrote the database file"
        );
        // Evicting a clean relation also skips the rewrite, and disk
        // still serves the current tuples.
        engine.evict_to_disk("kv").unwrap();
        assert_eq!(
            std::fs::metadata(&db_file).unwrap().modified().unwrap(),
            written
        );
        assert_eq!(
            engine
                .query("SELECT * FROM kv")
                .unwrap()
                .rows()
                .unwrap()
                .len(),
            10
        );
        // A new append re-dirties: the next checkpoint writes again.
        engine.append_rows("kv", synthetic_rows(10..12)).unwrap();
        engine.checkpoint().unwrap();
        assert_ne!(
            std::fs::metadata(&db_file).unwrap().modified().unwrap(),
            written,
            "dirty checkpoint must rewrite the database file"
        );
    }

    #[test]
    fn view_maintenance_survives_restart_via_the_lineage_sidecar() {
        let dir = TempDir::new();
        {
            let engine = SharedEngine::open_persistent(&dir.0, direct_config()).unwrap();
            engine
                .execute("CREATE TABLE raw_values (t INT, r FLOAT)")
                .unwrap();
            engine
                .append_rows("raw_values", synthetic_rows(0..60))
                .unwrap();
            engine
                .execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw_values")
                .unwrap();
            engine.checkpoint().unwrap();
        }
        // The reopened engine only knows pv through the meta sidecar (the
        // CREATE VIEW is below the checkpoint floor, so replay never sees
        // it) — streamed appends must still maintain the view.
        let engine = SharedEngine::open_persistent(&dir.0, direct_config()).unwrap();
        engine
            .append_rows("raw_values", synthetic_rows(60..90))
            .unwrap();
        let twin = engine_with_rows(direct_config(), 90);
        let sql = "SELECT * FROM pv";
        assert_eq!(engine.query(sql).unwrap(), twin.query(sql).unwrap());
        // And the maintained state is what a crash recovery reproduces.
        drop(engine);
        let reopened = SharedEngine::open_persistent(&dir.0, direct_config()).unwrap();
        assert_eq!(reopened.query(sql).unwrap(), twin.query(sql).unwrap());
    }

    #[test]
    fn snapshot_reads_keep_serving_while_appends_land() {
        let engine = engine_with_rows(direct_config(), 60);
        let sql = "SELECT * FROM pv WHERE prob >= 0.0";
        let start = engine.query_cached(sql).unwrap().prob_rows().unwrap().len();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let reader = engine.clone();
                s.spawn(move || {
                    let mut last = start;
                    for _ in 0..40 {
                        let n = reader.query_cached(sql).unwrap().prob_rows().unwrap().len();
                        // Monotone stream + MVCC snapshots: row counts only grow.
                        assert!(n >= last, "snapshot went backwards: {n} < {last}");
                        last = n;
                    }
                });
            }
            let writer = engine.clone();
            s.spawn(move || {
                for t in 60..110 {
                    writer
                        .append_rows("raw_values", synthetic_rows(t..t + 1))
                        .unwrap();
                }
            });
        });
        let end = engine.query_cached(sql).unwrap().prob_rows().unwrap().len();
        assert!(end > start);
        // The whole stream of appends kept every cached plan standing.
        let stats = engine.plan_cache_stats();
        assert_eq!(stats.invalidations, 0, "{stats:?}");
    }

    #[test]
    fn shared_engine_rebuilds_views_concurrently_with_reads() {
        let engine = shared_engine_with_view();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let reader = engine.clone();
                s.spawn(move || {
                    for _ in 0..10 {
                        reader.query("SELECT * FROM pv LIMIT 1").unwrap();
                    }
                });
            }
            let builder = engine.clone();
            s.spawn(move || {
                builder
                    .execute(
                        "CREATE VIEW pv2 AS DENSITY r OVER t OMEGA delta=0.5, n=4 \
                         FROM raw_values",
                    )
                    .unwrap();
            });
        });
        assert_eq!(engine.last_build().unwrap().view_name, "pv2");
        assert!(engine.read().prob_table("pv2").is_ok());
    }

    fn engine_with_series(n: usize) -> SharedEngine {
        let e = SharedEngine::new(ViewBuilderConfig {
            window: 60,
            metric_config: MetricConfig {
                p: 1,
                ..MetricConfig::default()
            },
            ..ViewBuilderConfig::default()
        });
        let s = TemperatureGenerator::default().generate(n);
        e.load_series("raw_values", "r", &s).unwrap();
        e
    }

    #[test]
    fn end_to_end_density_view_via_sql() {
        let e = engine_with_series(150);
        e.execute("CREATE VIEW prob_view AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw_values")
            .unwrap();
        let out = e.execute("SELECT * FROM prob_view LIMIT 6").unwrap();
        let rows = out.prob_rows().unwrap();
        assert_eq!(rows.len(), 6);
        let lb = e.last_build().unwrap();
        assert_eq!(lb.view_name, "prob_view");
        assert_eq!(lb.built.model.len(), 90);
    }

    #[test]
    fn where_clause_limits_time_interval() {
        let e = engine_with_series(200);
        // Timestamps are 0, 120, 240, …; pick an interval covering 5 ticks
        // past the warm-up window of 60 samples (t = 7200 s).
        e.execute(
            "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=1, n=4 \
             FROM raw_values WHERE t >= 12000 AND t <= 12480",
        )
        .unwrap();
        let catalog = e.read();
        let view = catalog.prob_table("pv").unwrap();
        assert_eq!(view.len(), 5 * 4);
        for (row, _) in view.iter() {
            let t = row[0].as_i64().unwrap();
            assert!((12000..=12480).contains(&t));
        }
    }

    #[test]
    fn using_metric_and_window_override_defaults() {
        let e = engine_with_series(150);
        e.execute(
            "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=1, n=4 \
             FROM raw_values USING METRIC vt WINDOW 80",
        )
        .unwrap();
        // Window 80 ⇒ 150 − 80 = 70 model rows.
        assert_eq!(e.last_build().unwrap().built.model.len(), 70);
    }

    #[test]
    fn unknown_metric_is_reported() {
        let e = engine_with_series(120);
        let err = e
            .execute(
                "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=1, n=4 \
                 FROM raw_values USING METRIC bogus",
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::UnknownMetric(_)));
    }

    #[test]
    fn non_time_predicate_is_rejected() {
        let e = engine_with_series(120);
        let err = e
            .execute(
                "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=1, n=4 \
                 FROM raw_values WHERE r >= 1",
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)));
    }

    #[test]
    fn time_bounds_reduction() {
        let pred = vec![
            Comparison::new("t", CmpOp::Ge, 10i64),
            Comparison::new("t", CmpOp::Le, 20i64),
            Comparison::new("t", CmpOp::Gt, 11i64),
            Comparison::new("t", CmpOp::Lt, 20i64),
        ];
        let bounds = time_bounds_from_predicate(&pred, "t").unwrap();
        assert_eq!(bounds, Some((12, 19)));
        assert_eq!(time_bounds_from_predicate(&Vec::new(), "t").unwrap(), None);
        let eq = vec![Comparison::new("t", CmpOp::Eq, 5i64)];
        assert_eq!(time_bounds_from_predicate(&eq, "t").unwrap(), Some((5, 5)));
        let ne = vec![Comparison::new("t", CmpOp::Ne, 5i64)];
        assert!(time_bounds_from_predicate(&ne, "t").is_err());
    }

    #[test]
    fn sorted_points_sorts_and_validates() {
        let spec = match tspdb_probdb::parse(
            "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw",
        ) {
            Ok(Statement::CreateDensityView(spec)) => spec,
            other => panic!("{other:?}"),
        };
        let schema = Schema::of(&[("t", ColumnType::Int), ("r", ColumnType::Float)]);
        let mut table = Table::new("raw", schema.clone());
        for t in [3, 1, 2] {
            table
                .insert(vec![Value::Int(t), Value::Float(t as f64)])
                .unwrap();
        }
        let points = sorted_points(&table, 0, &spec).unwrap();
        assert_eq!(points, [(1, 1.0), (2, 2.0), (3, 3.0)]);
        assert_eq!(
            sorted_points(&table, 1, &spec).unwrap(),
            [(1, 1.0), (2, 2.0)]
        );

        let mut dup = Table::new("raw", schema);
        dup.insert(vec![Value::Int(1), Value::Float(1.0)]).unwrap();
        dup.insert(vec![Value::Int(1), Value::Float(2.0)]).unwrap();
        assert!(sorted_points(&dup, 0, &spec).is_err());

        // Mistyped columns are errors once there is a row to read.
        for (t, r) in [
            (ColumnType::Float, ColumnType::Float),
            (ColumnType::Int, ColumnType::Text),
        ] {
            let mut bad = Table::new("raw", Schema::of(&[("t", t), ("r", r)]));
            assert!(sorted_points(&bad, 0, &spec).unwrap().is_empty());
            let r = if r == ColumnType::Text {
                Value::from("x")
            } else {
                Value::Float(1.0)
            };
            bad.insert(vec![Value::Int(1), r]).unwrap();
            assert!(matches!(
                sorted_points(&bad, 0, &spec),
                Err(CoreError::Db(DbError::TypeMismatch { .. }))
            ));
        }
    }

    #[test]
    fn ordinary_sql_still_works_through_engine() {
        let e = SharedEngine::default();
        e.execute("CREATE TABLE x (a INT)").unwrap();
        e.execute("INSERT INTO x VALUES (1), (2)").unwrap();
        let out = e.execute("SELECT * FROM x WHERE a > 1").unwrap();
        assert_eq!(out.rows().unwrap().len(), 1);
    }

    #[test]
    fn query_takes_shared_reference_and_rejects_writes() {
        let e = engine_with_series(150);
        e.execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw_values")
            .unwrap();
        // Read path through a shared reference only.
        let shared: &SharedEngine = &e;
        let out = shared.query("SELECT * FROM pv LIMIT 3").unwrap();
        assert_eq!(out.prob_rows().unwrap().len(), 3);
        // Writes are refused on the read path.
        assert!(shared.query("DROP TABLE raw_values").is_err());
        assert!(shared
            .query("INSERT INTO raw_values VALUES (1, 1.0)")
            .is_err());
        // …and still work through the write path.
        assert!(e.execute("DROP VIEW pv").is_ok());
    }

    #[test]
    fn with_worlds_query_runs_against_a_density_view() {
        let e = engine_with_series(150);
        e.execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw_values")
            .unwrap();
        e.set_worlds_threads(2);
        let out = e
            .query("SELECT * FROM pv THRESHOLD 0.2 WITH WORLDS 4000 SEED 17")
            .unwrap();
        let w = out.worlds().unwrap();
        assert_eq!(w.worlds, 0, "row plans are answered in closed form");
        assert_eq!(w.seed, 17);
        assert!(w.matching_tuples > 0);
        // The exact operator over the same sub-relation, bit for bit.
        let sub = e
            .query("SELECT * FROM pv THRESHOLD 0.2")
            .unwrap()
            .prob_rows()
            .unwrap()
            .clone();
        let exact = tspdb_probdb::query::event_probability(&sub, &Vec::new()).unwrap();
        assert_eq!(w.event_probability.to_bits(), exact.to_bits());
    }

    #[test]
    fn aggregate_queries_run_through_the_planner_on_views() {
        let e = engine_with_series(150);
        e.execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw_values")
            .unwrap();
        // Exact grouped aggregate: E[count | t] = Σ prob over the 6 cells.
        let out = e.query("SELECT t, COUNT(*) FROM pv GROUP BY t").unwrap();
        let agg = out.aggregate().unwrap();
        assert_eq!(agg.strategy, "exact");
        assert_eq!(agg.groups.len(), 90);
        // `WITH WORLDS` answers an expectation exactly, and samples the
        // `HAVING` event of the same plan to within tolerance.
        let mc = e
            .query("SELECT COUNT(*) FROM pv WITH WORLDS 4000 SEED 5")
            .unwrap();
        let exact = e.query("SELECT COUNT(*) FROM pv").unwrap();
        assert_eq!(mc, exact);
        let having = "SELECT COUNT(*) FROM pv HAVING COUNT(*) >= 88";
        let mc = e
            .query(&format!("{having} WITH WORLDS 4000 SEED 5"))
            .unwrap();
        let (mc, exact) = (mc.aggregate().unwrap(), e.query(having).unwrap());
        let exact = exact.aggregate().unwrap();
        assert_eq!(mc.strategy, "worlds");
        assert_eq!(mc.groups[0].values, exact.groups[0].values);
        let (mp, ep) = (
            mc.groups[0].event_probability.unwrap(),
            exact.groups[0].event_probability.unwrap(),
        );
        let tol = 4.0 * (ep * (1.0 - ep) / 4000.0).sqrt() + 1e-3;
        assert!((mp - ep).abs() <= tol, "MC {mp} vs exact {ep}");
        // EXPLAIN reports the plan without executing it.
        let report = e
            .execute("EXPLAIN SELECT t, COUNT(*) FROM pv GROUP BY t")
            .unwrap();
        let report = report.explain().unwrap();
        assert!(report.logical.contains("Aggregate [COUNT(*)] GROUP BY t"));
        assert!(report.strategy.starts_with("exact"));
    }

    #[test]
    fn fig1_style_query_on_view() {
        // Downstream probabilistic query over the created view: the most
        // probable range per timestamp (the "which room is Alice in" shape).
        let e = engine_with_series(130);
        e.execute("CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=4 FROM raw_values")
            .unwrap();
        let catalog = e.read();
        let view = catalog.prob_table("pv").unwrap();
        let best = tspdb_probdb::query::most_probable_per_group(view, "t").unwrap();
        assert_eq!(best.len(), 70);
        // The winning cell must be adjacent to the mean (λ ∈ {−1, 0}).
        for (row, _) in best.iter() {
            let lambda = row[1].as_i64().unwrap();
            assert!((-1..=0).contains(&lambda), "winning λ = {lambda}");
        }
    }
}
