//! The in-memory database: named relations plus statement execution.
//!
//! [`Database`] owns deterministic tables and probabilistic views and
//! executes parsed [`Statement`]s. `SELECT`s are **planned, not
//! dispatched**: the statement is handed to [`Planner::plan`], which builds
//! a logical/physical plan and picks an evaluation strategy
//! ([`crate::plan::ExactStrategy`], [`crate::plan::WorldsStrategy`] under
//! `WITH WORLDS`, or [`crate::plan::SynopsisStrategy`] under
//! `WITH SYNOPSIS`, fed the relation's precomputed [`RelationSynopses`]);
//! the catalog's job shrinks to resolving the scanned relation and running
//! the chosen strategy. `EXPLAIN` returns the plan instead of running it.
//!
//! The one statement the catalog cannot execute by itself is `CREATE VIEW
//! … AS DENSITY …` — inferring densities is the job of the `tspdb-core`
//! crate, whose engine builds the view and hands it to
//! [`Database::register_prob_table`]. This keeps the dependency arrow
//! pointing from the paper's contribution down into the substrate, never
//! backwards.

use crate::column::{Column, ColumnSlice};
use crate::error::DbError;
use crate::plan::{AggregateResult, ExplainReport, PhysicalPlan, PlannedQuery, Planner};
use crate::plan_cache::{PlanCache, PlanCacheStats};
use crate::scan::{self, Batch, BatchStream};
use crate::schema::Schema;
use crate::sql::{parse, SelectStmt, Statement};
use crate::table::{check_columns, ProbTable, Table};
use crate::value::{ColumnType, Value};
use crate::worlds::WorldsResult;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use tspdb_stats::synopsis::{merge_sorted_pairs, ProbHistogram};

/// Default bucket count for relation synopses (`WITH SYNOPSIS` without a
/// `BUCKETS` clause, and the catalog's precomputed histograms).
pub const DEFAULT_SYNOPSIS_BUCKETS: usize = 64;

/// The probabilistic-histogram synopses of one relation: a B-bucket
/// [`ProbHistogram`] per numeric column, all over the same tuple snapshot.
///
/// The catalog keeps one per probabilistic view behind an [`Arc`] and
/// replaces the whole value on every write, so readers clone the `Arc`
/// lock-free and never observe a half-rebuilt synopsis. A write pays only
/// for the sorted runs; a column's buckets are laid out by the first query
/// that reads them (outside the catalog lock) and kept for the rest.
#[derive(Debug, Clone)]
pub struct RelationSynopses {
    buckets: usize,
    tuples: usize,
    columns: BTreeMap<String, ColumnSynopsis>,
}

#[derive(Debug, Clone)]
struct ColumnSynopsis {
    /// The canonical sorted `(value, probability)` run of the column,
    /// retained so an append can stable-merge the new tuples' run into it
    /// — the merged run, and so every bucket laid out from it, is
    /// bit-identical to a from-scratch build over the whole view, without
    /// re-sorting the old tuples (the Cormode & Garofalakis incremental
    /// recipe). Empty on [`RelationSynopses::merge_to`]-derived copies,
    /// which are per-query throwaways never appended to.
    run: Vec<(f64, f64)>,
    /// `ProbHistogram::from_sorted(run, buckets)`, on first use.
    histogram: OnceLock<ProbHistogram>,
}

impl PartialEq for RelationSynopses {
    /// Equal summaries of equal tuples: compares the laid-out histograms
    /// (laying out any not read yet) as well as the runs behind them.
    fn eq(&self, other: &Self) -> bool {
        self.buckets == other.buckets
            && self.tuples == other.tuples
            && self.columns.len() == other.columns.len()
            && self
                .columns
                .iter()
                .zip(&other.columns)
                .all(|((a, x), (b, y))| {
                    a == b && x.run == y.run && self.column(a) == other.column(b)
                })
    }
}

impl RelationSynopses {
    /// Summarises every numeric column of the view in `buckets`-bucket
    /// histograms (text columns have no value order to bucket and are
    /// skipped).
    pub fn build(t: &ProbTable, buckets: usize) -> Self {
        Self::build_from(t, 0, buckets, &BTreeMap::new())
    }

    /// The incremental form of [`RelationSynopses::build`]: `self` must
    /// summarise exactly the first `from_row` rows of `t`; the result
    /// summarises all of `t` and is **bit-identical** to
    /// `RelationSynopses::build(t, self.buckets)`. Only the appended
    /// suffix is extracted and sorted; the retained runs absorb it by
    /// stable merge.
    pub fn append_from(&self, t: &ProbTable, from_row: usize) -> Self {
        Self::build_from(t, from_row, self.buckets, &self.columns)
    }

    fn build_from(
        t: &ProbTable,
        from_row: usize,
        buckets: usize,
        base: &BTreeMap<String, ColumnSynopsis>,
    ) -> Self {
        let mut columns = BTreeMap::new();
        for c in 0..t.schema().arity() {
            let (name, ty) = t.schema().column(c);
            if ty == ColumnType::Text {
                continue;
            }
            // A column without a retained run (never the case for
            // catalog-built synopses; schemas are fixed per view) falls
            // back to extracting the whole column from row 0.
            let base = base.get(name);
            let start = if base.is_some() { from_row } else { 0 };
            let probs = t.probs()[start..].iter().copied();
            let delta =
                ProbHistogram::prepare_pairs(match t.column(c).values().slice(start..t.len()) {
                    ColumnSlice::Int(v) => v.iter().map(|&v| v as f64).zip(probs).collect(),
                    ColumnSlice::Float(v) => v.iter().copied().zip(probs).collect(),
                    ColumnSlice::Text(_) => unreachable!("text columns are skipped above"),
                });
            // A stable merge of two stably-sorted runs (base first on
            // ties) is exactly the stable sort of their concatenation, so
            // the merged run — and every bucket built from it — matches a
            // from-scratch build bit for bit.
            let run = match base {
                Some(b) => merge_sorted_pairs(&b.run, &delta),
                None => delta,
            };
            let histogram = OnceLock::new();
            columns.insert(name.to_string(), ColumnSynopsis { run, histogram });
        }
        RelationSynopses {
            buckets,
            tuples: t.len(),
            columns,
        }
    }

    /// The bucket count the histograms were built with.
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// Tuples summarised (the view's length at build time).
    pub fn tuples(&self) -> usize {
        self.tuples
    }

    /// The histogram of one column (`None` for text/unknown columns).
    pub fn column(&self, name: &str) -> Option<&ProbHistogram> {
        let column = self.columns.get(name)?;
        Some(
            column
                .histogram
                .get_or_init(|| ProbHistogram::from_sorted(&column.run, self.buckets)),
        )
    }

    /// Names of the summarised columns, sorted.
    pub fn column_names(&self) -> impl Iterator<Item = &str> {
        self.columns.keys().map(String::as_str)
    }

    /// The lexicographically-first summarised column, if any — the
    /// deterministic anchor for pure-`COUNT` queries.
    pub fn first_column(&self) -> Option<&str> {
        self.columns.keys().next().map(String::as_str)
    }

    /// A coarser view with every histogram merged down to `buckets`
    /// buckets (bucket payloads are additive, so derived answers keep
    /// sound bounds).
    pub fn merge_to(&self, buckets: usize) -> Self {
        RelationSynopses {
            buckets,
            tuples: self.tuples,
            columns: self
                .columns
                .keys()
                .map(|name| {
                    let merged = self.column(name).expect("own column").merge_to(buckets);
                    let column = ColumnSynopsis {
                        // Coarsened copies are per-query throwaways; cloning
                        // the runs into them would only burn memory.
                        run: Vec::new(),
                        histogram: OnceLock::from(merged),
                    };
                    (name.clone(), column)
                })
                .collect(),
        }
    }
}

/// A stored relation: deterministic or probabilistic.
#[derive(Debug, Clone)]
pub enum Relation {
    /// Ordinary table.
    Deterministic(Table),
    /// Tuple-independent probabilistic view.
    Probabilistic(ProbTable),
}

/// An immutable, internally-consistent snapshot of one relation and the
/// derived structures a query strategy consumes — see
/// [`Database::scan_input`]. Both `Arc`s were taken under the same
/// catalog borrow, so the synopses always describe exactly the tuples in
/// `relation`.
#[derive(Debug, Clone)]
pub struct RelationSnapshot {
    /// The relation rung.
    pub relation: Arc<Relation>,
    /// Precomputed histogram synopses (probabilistic views only).
    pub synopses: Option<Arc<RelationSynopses>>,
}

impl RelationSnapshot {
    /// Runs `planned`'s strategy over this snapshot — the one place a
    /// strategy is instantiated and executed, whichever entry point the
    /// statement came in through. `plan` is the physical plan
    /// [`Database::scan_input`] returned next to the snapshot; `threads`
    /// is the fork-join width (it never changes an answer). Needs no
    /// catalog borrow, so callers sharing the catalog behind a lock run
    /// this after releasing it.
    pub fn execute(
        self,
        planned: &PlannedQuery,
        plan: &PhysicalPlan,
        threads: usize,
    ) -> Result<QueryOutput, DbError> {
        planned
            .strategy_with_context(threads, self.synopses)
            .execute(&self.relation, plan)
    }
}

/// Result of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// DDL/DML statements produce no rows.
    None,
    /// Deterministic result set.
    Rows(Table),
    /// Probabilistic result set.
    ProbRows(ProbTable),
    /// Monte-Carlo estimate from a `WITH WORLDS` query: the distributional
    /// answers plus per-query sampling statistics (worlds sampled, CIs,
    /// wall time).
    Worlds(WorldsResult),
    /// Result of an aggregate query (`COUNT(*)` / `SUM` / `AVG` /
    /// `EXPECTED`, optionally grouped, optionally with a `HAVING` event
    /// probability) from either evaluation strategy.
    Aggregate(AggregateResult),
    /// The plan report of an `EXPLAIN` statement.
    Explain(ExplainReport),
}

impl QueryOutput {
    /// Convenience accessor for deterministic results.
    pub fn rows(&self) -> Option<&Table> {
        match self {
            QueryOutput::Rows(t) => Some(t),
            _ => None,
        }
    }

    /// Convenience accessor for probabilistic results.
    pub fn prob_rows(&self) -> Option<&ProbTable> {
        match self {
            QueryOutput::ProbRows(t) => Some(t),
            _ => None,
        }
    }

    /// Convenience accessor for `WITH WORLDS` results.
    pub fn worlds(&self) -> Option<&WorldsResult> {
        match self {
            QueryOutput::Worlds(w) => Some(w),
            _ => None,
        }
    }

    /// Convenience accessor for aggregate results.
    pub fn aggregate(&self) -> Option<&AggregateResult> {
        match self {
            QueryOutput::Aggregate(a) => Some(a),
            _ => None,
        }
    }

    /// Convenience accessor for `EXPLAIN` reports.
    pub fn explain(&self) -> Option<&ExplainReport> {
        match self {
            QueryOutput::Explain(e) => Some(e),
            _ => None,
        }
    }

    /// The variant's name, for logs and diagnostics.
    pub fn variant_name(&self) -> &'static str {
        match self {
            QueryOutput::None => "None",
            QueryOutput::Rows(_) => "Rows",
            QueryOutput::ProbRows(_) => "ProbRows",
            QueryOutput::Worlds(_) => "Worlds",
            QueryOutput::Aggregate(_) => "Aggregate",
            QueryOutput::Explain(_) => "Explain",
        }
    }
}

/// A fallback provider of relations that are not resident in memory —
/// implemented by the persistent storage engine upstream (`tspdb-storage`),
/// which materialises relations from its paged on-disk tables.
///
/// The substrate stays storage-agnostic: it only asks for a relation by
/// name when the in-memory catalog misses. Whatever comes back is executed
/// by the *same* strategies over the *same* tuple representation, so for a
/// fixed query + seed the results are bit-identical whether the relation
/// was resident or scanned from the source.
pub trait ScanSource: std::fmt::Debug + Send + Sync {
    /// Materialises the named relation, or `None` if the source doesn't
    /// hold it either.
    fn scan(&self, name: &str) -> Result<Option<Relation>, DbError>;
    /// Opens a lazy batch stream over the named relation, or `None` when
    /// the source either doesn't hold it or can't stream (the default:
    /// sources without a paged layout fall back to [`ScanSource::scan`]).
    /// The executor uses this to restrict a disk-resident relation one
    /// decoded leaf at a time instead of materialising it whole.
    fn scan_stream(&self, name: &str) -> Result<Option<Box<dyn BatchStream>>, DbError> {
        let _ = name;
        Ok(None)
    }
    /// Names of all relations the source can scan.
    fn names(&self) -> Vec<String>;
}

/// An in-memory database of named relations.
#[derive(Debug, Default)]
pub struct Database {
    /// The relation rungs, in the σ-cache idiom: each relation sits behind
    /// an immutable [`Arc`] snapshot. Writes swap in a new rung
    /// ([`Arc::make_mut`] copies only when a reader still holds the old
    /// one), so a query path that cloned the `Arc` keeps executing against
    /// a consistent MVCC-style snapshot while appends land.
    relations: BTreeMap<String, Arc<Relation>>,
    /// Fallback relation provider consulted when `relations` misses (the
    /// persistent storage engine, when the database runs on one).
    scan_source: Option<Arc<dyn ScanSource>>,
    /// Names dropped since the scan source last checkpointed. The source
    /// still holds their pages until the next checkpoint rewrites the
    /// file; these tombstones stop the fallback from resurrecting them.
    dropped: std::collections::BTreeSet<String>,
    /// Precomputed synopses, keyed by relation name. Maintained eagerly on
    /// the write paths (`&mut self`: view registration and drops), so the
    /// shared read path clones an [`Arc`] snapshot without locking.
    synopses: BTreeMap<String, Arc<RelationSynopses>>,
    /// Catalog (DDL) generation: bumped by every statement that changes
    /// the *shape* of the catalog — CREATE/DROP, view re-registration.
    /// Cached plans are keyed by the generation they were planned under
    /// and lazily evicted when it moves on.
    generation: AtomicU64,
    /// Data generation: bumped by writes that only add tuples (INSERT and
    /// the batched append paths). Kept separate from the DDL generation so
    /// cached plans — which embed no tuple-derived state — survive pure
    /// appends; observers that need "did any data change?" (TAIL polling,
    /// dirty-relation checkpoint tracking) watch this counter instead.
    data_generation: AtomicU64,
    /// Shared plan cache (see [`crate::plan_cache`]). Interior-mutable so
    /// the concurrent read path (`&self`) can record hits and insert
    /// freshly-planned statements.
    plan_cache: PlanCache,
    /// Fork-join width for `WITH WORLDS` sampling and for the segment
    /// fan-out of large restrictions (0 = one thread per core).
    /// Only wall-clock is affected — MC estimates are bit-identical at
    /// every width. Stored atomically so the knob is tunable from the
    /// shared read path (`&self`) without an exclusive borrow — a server
    /// session can retune MC parallelism without blocking readers.
    worlds_threads: AtomicUsize,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Sets the fork-join width used by `WITH WORLDS` sampling and by the
    /// segment fan-out of large restrictions (`0` = one thread per core).
    /// The determinism contract of both means this never changes query
    /// results, only their latency — which is why a shared borrow
    /// suffices: concurrent readers may observe either the old or the new
    /// width, but their answers are identical under both.
    pub fn set_worlds_threads(&self, threads: usize) {
        self.worlds_threads.store(threads, Ordering::Relaxed);
    }

    /// The configured `WITH WORLDS` fork-join width.
    pub fn worlds_threads(&self) -> usize {
        self.worlds_threads.load(Ordering::Relaxed)
    }

    /// The catalog generation: a counter bumped by every DDL/write, used
    /// to key (and invalidate) cached plans.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    fn bump_generation(&self) {
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// The data generation: bumped by tuple-only writes (INSERT/appends),
    /// which deliberately do **not** move the DDL generation — plans stay
    /// cached across pure appends.
    pub fn data_generation(&self) -> u64 {
        self.data_generation.load(Ordering::Relaxed)
    }

    fn bump_data_generation(&self) {
        self.data_generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Plan-cache effectiveness counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// The plan cached under this exact statement text at the current
    /// generation, if any — the parse-free fast path. Stale entries
    /// (older generation) are evicted, never returned.
    pub fn cached_plan(&self, sql: &str) -> Option<Arc<PlannedQuery>> {
        self.plan_cache.lookup(sql, self.generation())
    }

    /// Resolves statement text to a plan through the shared plan cache —
    /// the one place that sequence is written. An exact textual repeat
    /// skips the parser (raw-text hit); otherwise the statement is parsed
    /// and a normalized-text hit (the statement's `Display`, which the
    /// parser round-trips) reuses the cached plan and aliases this
    /// spelling's raw text for next time; a miss plans fresh and caches
    /// under both keys. Only `SELECT`s are planned: `Ok(Err(stmt))` hands
    /// any other statement back parsed, for the caller to route.
    pub fn plan_cached(&self, sql: &str) -> Result<Result<Arc<PlannedQuery>, Statement>, DbError> {
        if let Some(plan) = self.cached_plan(sql) {
            return Ok(Ok(plan));
        }
        let sel = match parse(sql)? {
            Statement::Select(sel) => sel,
            other => return Ok(Err(other)),
        };
        let generation = self.generation();
        let normalized = sel.to_string();
        if let Some(plan) = self.plan_cache.lookup(&normalized, generation) {
            if normalized != sql {
                self.plan_cache.insert(&[sql], &plan, generation);
            }
            return Ok(Ok(plan));
        }
        self.plan_cache.record_miss();
        let planned = Arc::new(Planner::plan(&sel)?);
        if normalized == sql {
            self.plan_cache.insert(&[sql], &planned, generation);
        } else {
            self.plan_cache
                .insert(&[sql, normalized.as_str()], &planned, generation);
        }
        Ok(Ok(planned))
    }

    /// [`Database::query`] through the shared plan cache: hot statements
    /// skip parse+plan entirely (raw-text hit) or at least planning
    /// (normalized hit). Semantics are identical to [`Database::query`].
    pub fn query_cached(&self, sql: &str) -> Result<QueryOutput, DbError> {
        match self.plan_cached(sql)? {
            Ok(planned) => self.execute_planned(&planned),
            Err(stmt) => self.query_parsed(stmt),
        }
    }

    /// Names of all stored relations, sorted.
    pub fn relation_names(&self) -> Vec<&str> {
        self.relations.keys().map(String::as_str).collect()
    }

    /// Names of all reachable relations — resident ones plus any the
    /// attached scan source holds — sorted and deduplicated.
    pub fn all_relation_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.relations.keys().cloned().collect();
        if let Some(source) = &self.scan_source {
            names.extend(
                source
                    .names()
                    .into_iter()
                    .filter(|n| !self.dropped.contains(n)),
            );
        }
        names.sort();
        names.dedup();
        names
    }

    /// Attaches the fallback relation provider consulted when the
    /// in-memory catalog misses (the persistent storage engine).
    pub fn attach_scan_source(&mut self, source: Arc<dyn ScanSource>) {
        self.scan_source = Some(source);
        // The reachable-relation set just changed shape.
        self.bump_generation();
    }

    /// Whether a scan source is attached.
    pub fn has_scan_source(&self) -> bool {
        self.scan_source.is_some()
    }

    /// Materialises a relation from the attached scan source (`None` when
    /// no source is attached or the source doesn't hold the name).
    fn scan_from_source(&self, name: &str) -> Result<Option<Relation>, DbError> {
        if self.dropped.contains(name) {
            return Ok(None);
        }
        match &self.scan_source {
            Some(source) => source.scan(name),
            None => Ok(None),
        }
    }

    /// Drops a relation's tuples from memory while **keeping its
    /// synopses**, so later reads fall through to the scan source. Keeping
    /// the synopses means planner strategy selection — and therefore every
    /// query result — is identical for the disk-backed relation and the
    /// resident one. Refuses to evict anything the attached source cannot
    /// serve back (that would be data loss, not eviction).
    pub fn evict_relation(&mut self, name: &str) -> Result<(), DbError> {
        if !self.relations.contains_key(name) {
            return Err(DbError::UnknownTable(name.to_string()));
        }
        let served = self
            .scan_source
            .as_ref()
            .is_some_and(|s| s.names().iter().any(|n| n == name));
        if !served {
            return Err(DbError::Storage(format!(
                "evicting {name:?} would lose data: the scan source cannot serve it"
            )));
        }
        self.relations.remove(name);
        Ok(())
    }

    /// Loads a relation back into memory from the scan source if it is not
    /// already resident. Returns whether the relation is resident
    /// afterwards. Write paths call this so statements hit evicted
    /// relations transparently.
    pub fn ensure_resident(&mut self, name: &str) -> Result<bool, DbError> {
        if self.relations.contains_key(name) {
            return Ok(true);
        }
        match self.scan_from_source(name)? {
            Some(Relation::Deterministic(t)) => {
                self.relations
                    .insert(name.to_string(), Arc::new(Relation::Deterministic(t)));
                Ok(true)
            }
            Some(Relation::Probabilistic(t)) => {
                // Goes through registration so the synopses are (re)built
                // deterministically from the recovered tuples.
                self.register_prob_table(t)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Registers a deterministic table (errors on name collision).
    pub fn register_table(&mut self, table: Table) -> Result<(), DbError> {
        let name = table.name().to_string();
        if self.relations.contains_key(&name) {
            return Err(DbError::DuplicateTable(name));
        }
        self.dropped.remove(&name);
        self.relations
            .insert(name, Arc::new(Relation::Deterministic(table)));
        self.bump_generation();
        Ok(())
    }

    /// Registers a probabilistic view, replacing any same-named view (views
    /// are derived data, so re-creation is allowed; tables are not
    /// replaceable). The view's synopses are (re)built here — every write
    /// goes through registration, so a cached synopsis never outlives the
    /// tuples it summarises.
    pub fn register_prob_table(&mut self, table: ProbTable) -> Result<(), DbError> {
        let name = table.name().to_string();
        if matches!(
            self.relations.get(&name).map(|r| r.as_ref()),
            Some(Relation::Deterministic(_))
        ) {
            return Err(DbError::DuplicateTable(name));
        }
        self.dropped.remove(&name);
        self.synopses.insert(
            name.clone(),
            Arc::new(RelationSynopses::build(&table, DEFAULT_SYNOPSIS_BUCKETS)),
        );
        self.relations
            .insert(name, Arc::new(Relation::Probabilistic(table)));
        self.bump_generation();
        Ok(())
    }

    /// Checks `rows` for an append to the deterministic table `table`,
    /// transposing them into its columns: [`Column::from_rows`] is the one
    /// type check (ints widen into float columns), so a bad row rejects the
    /// whole batch before anything is written. An evicted table comes back
    /// into memory first, so appends hit disk-backed tables transparently.
    pub fn check_rows(
        &mut self,
        table: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<Vec<Column>, DbError> {
        self.ensure_resident(table)?;
        match self.relations.get(table).map(|r| r.as_ref()) {
            Some(Relation::Deterministic(t)) => Column::from_rows(t.schema(), rows),
            Some(Relation::Probabilistic(_)) => Err(DbError::Unsupported(
                "INSERT into probabilistic views is not allowed; views are derived".into(),
            )),
            None => Err(DbError::UnknownTable(table.to_string())),
        }
    }

    /// Appends a batch of rows to a deterministic table (a plain `INSERT`):
    /// [`Database::check_rows`], then [`Database::append_columns`].
    pub fn append_rows(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<usize, DbError> {
        let columns = self.check_rows(table, rows)?;
        self.append_columns(table, &columns, None)
    }

    /// Appends checked columns to a relation — the one path appended rows
    /// land on: `INSERT`, streamed batches, their WAL replay, and the tuples
    /// incremental Ω-view maintenance derives. `columns` are the relation's
    /// columns in schema order and `probs` their probabilities, present
    /// exactly when the relation is probabilistic; anything else is an
    /// error, raised before the relation is touched.
    ///
    /// The rows land through `extend_from_batch`: a new relation rung is
    /// swapped in (in-flight snapshot readers keep the old one), a view's
    /// synopses absorb the suffix via [`RelationSynopses::append_from`]
    /// (bit-identical to a rebuild), and only the *data* generation moves,
    /// so cached plans survive.
    pub fn append_columns(
        &mut self,
        name: &str,
        columns: &[Column],
        probs: Option<&[f64]>,
    ) -> Result<usize, DbError> {
        self.ensure_resident(name)?;
        let rel = self
            .relations
            .get_mut(name)
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))?;
        let schema = match (rel.as_ref(), probs) {
            (Relation::Deterministic(t), None) => t.schema().clone(),
            (Relation::Probabilistic(t), Some(_)) => t.schema().clone(),
            _ => {
                return Err(DbError::Unsupported(format!(
                    "{name:?}: rows carry probabilities exactly when the relation is probabilistic"
                )))
            }
        };
        let rows = probs.map_or_else(|| columns.first().map_or(0, Column::len), <[f64]>::len);
        check_columns(&schema, columns, rows)?;
        let batch = Batch::new(&schema, columns, probs, 0);
        match Arc::make_mut(rel) {
            Relation::Deterministic(t) => t.extend_from_batch(&batch, 0..rows),
            Relation::Probabilistic(t) => {
                let from = t.len();
                t.extend_from_batch(&batch, 0..rows)?;
                let synopses = match self.synopses.get(name) {
                    Some(base) => base.append_from(t, from),
                    None => RelationSynopses::build(t, DEFAULT_SYNOPSIS_BUCKETS),
                };
                self.synopses.insert(name.to_string(), Arc::new(synopses));
            }
        }
        self.bump_data_generation();
        Ok(rows)
    }

    /// The precomputed synopsis snapshot of a probabilistic view (`None`
    /// for deterministic tables and unknown names). Cloning the [`Arc`] is
    /// the whole cost — the snapshot is immutable.
    pub fn synopses(&self, name: &str) -> Option<Arc<RelationSynopses>> {
        self.synopses.get(name).cloned()
    }

    /// Borrow of one resident relation (no scan-source fallback).
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name).map(|r| r.as_ref())
    }

    /// Looks up a deterministic table.
    pub fn table(&self, name: &str) -> Result<&Table, DbError> {
        match self.relations.get(name).map(|r| r.as_ref()) {
            Some(Relation::Deterministic(t)) => Ok(t),
            _ => Err(DbError::UnknownTable(name.to_string())),
        }
    }

    /// Looks up a probabilistic view.
    pub fn prob_table(&self, name: &str) -> Result<&ProbTable, DbError> {
        match self.relations.get(name).map(|r| r.as_ref()) {
            Some(Relation::Probabilistic(t)) => Ok(t),
            _ => Err(DbError::UnknownTable(name.to_string())),
        }
    }

    /// Drops a relation by name (and its synopses, if any). A tombstone
    /// stops the scan source from resurrecting the name until a
    /// checkpoint rewrites the on-disk file (or the name is re-created).
    pub fn drop_relation(&mut self, name: &str) -> Result<(), DbError> {
        self.synopses.remove(name);
        self.dropped.insert(name.to_string());
        self.bump_generation();
        self.relations
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Executes a read-only statement (`SELECT`) with a shared borrow.
    ///
    /// This is the concurrent read path: `&self` means any number of
    /// threads can run queries at once (e.g. through the read side of an
    /// `RwLock`). Mutating statements are rejected with
    /// [`DbError::ReadOnly`].
    ///
    /// # Examples
    ///
    /// ```
    /// use tspdb_probdb::{ColumnType, Database, ProbTable, Schema, Value};
    ///
    /// let mut db = Database::new();
    /// let mut view = ProbTable::new("pv", Schema::of(&[("room", ColumnType::Int)]));
    /// view.insert(vec![Value::Int(1)], 0.5).unwrap();
    /// view.insert(vec![Value::Int(2)], 0.25).unwrap();
    /// db.register_prob_table(view).unwrap();
    ///
    /// // Expected count E[COUNT(*)] = 0.5 + 0.25.
    /// let out = db.query("SELECT COUNT(*) FROM pv").unwrap();
    /// let agg = out.aggregate().unwrap();
    /// assert!((agg.groups[0].values[0].value - 0.75).abs() < 1e-12);
    ///
    /// // Writes are rejected on this path.
    /// assert!(db.query("DROP TABLE pv").is_err());
    /// ```
    pub fn query(&self, sql: &str) -> Result<QueryOutput, DbError> {
        self.query_parsed(parse(sql)?)
    }

    /// The parse-free core of [`Database::query`].
    fn query_parsed(&self, stmt: Statement) -> Result<QueryOutput, DbError> {
        match stmt {
            Statement::Select(sel) => self.execute_planned(&Planner::plan(&sel)?),
            Statement::Explain(sel) => self.explain_select(&sel),
            other => Err(DbError::ReadOnly(format!("{other:?}"))),
        }
    }

    /// Executes a planned query: resolves the scanned relation and runs
    /// the plan's strategy over it.
    pub fn execute_planned(&self, planned: &PlannedQuery) -> Result<QueryOutput, DbError> {
        let (snapshot, plan) = self.scan_input(planned)?;
        snapshot.execute(planned, &plan, self.worlds_threads())
    }

    /// Everything `planned` needs in order to execute, as immutable
    /// snapshots: the relation rung with the matching synopsis `Arc`, plus
    /// the physical plan to run over them. This is the MVCC read path —
    /// take the input under a shared lock, release the lock, then
    /// [`RelationSnapshot::execute`] it while writers land new rungs
    /// (appends swap in a new rung rather than mutating the old one in
    /// place, so the snapshot stays internally consistent for as long as
    /// its `Arc`s live).
    ///
    /// Resident relations win and cost two `Arc` clones; otherwise the
    /// scan source's batch stream is restricted leaf by leaf, and only when
    /// the plan or the source can't stream is the relation materialised
    /// whole. Either way the same strategy executes over the same tuple
    /// representation, so results are bit-identical across media for a
    /// fixed query + seed.
    pub fn scan_input<'p>(
        &self,
        planned: &'p PlannedQuery,
    ) -> Result<(RelationSnapshot, Cow<'p, PhysicalPlan>), DbError> {
        let name = &planned.physical.table;
        let relation = match self.relations.get(name) {
            Some(r) => Arc::clone(r),
            None => {
                if let Some(streamed) = self.stream_input(planned)? {
                    return Ok(streamed);
                }
                match self.scan_from_source(name)? {
                    Some(r) => Arc::new(r),
                    None => return Err(DbError::UnknownTable(name.clone())),
                }
            }
        };
        let snapshot = RelationSnapshot {
            relation,
            synopses: self.synopses(name),
        };
        Ok((snapshot, Cow::Borrowed(&planned.physical)))
    }

    /// [`Database::scan_input`] over the scan source's lazy batch stream,
    /// restricting leaf by leaf instead of materialising the relation
    /// whole. Returns `Ok(None)` when the source can't stream or the plan
    /// needs every tuple anyway, so the caller materialises the relation:
    /// `WITH WORLDS` plans (MC passes over the tuples many times; `EXPLAIN`
    /// notes it) and synopsis plans with no fallback, which answer from
    /// bucketed moments over the **whole** relation and its cached
    /// synopses (whose staleness guard compares tuple counts).
    ///
    /// Bit-identity with the materialised path is preserved by applying
    /// the *same* restrictions in the *same* observable order:
    /// [`scan::restrict_stream`] runs `WHERE` (and `THRESHOLD`) over every
    /// batch, and both are stripped from the plan the strategy executes;
    /// `TOP` stays with the strategy, which also keeps ownership of the
    /// deterministic `THRESHOLD`/`TOP` rejection.
    fn stream_input<'p>(
        &self,
        planned: &'p PlannedQuery,
    ) -> Result<Option<(RelationSnapshot, Cow<'p, PhysicalPlan>)>, DbError> {
        use crate::plan::StrategyKind;

        if matches!(planned.strategy, StrategyKind::Worlds(_))
            || planned.synopsis_answers_whole_relation()
        {
            return Ok(None);
        }
        let plan = &planned.physical;
        let name = &plan.table;
        if self.dropped.contains(name) {
            return Ok(None);
        }
        let Some(source) = &self.scan_source else {
            return Ok(None);
        };
        let Some(mut stream) = source.scan_stream(name)? else {
            return Ok(None);
        };
        // No synopses (the restricted tuple set no longer matches the
        // cached ones — their staleness guard would reject them anyway).
        let input = |relation: Relation, plan| {
            let snapshot = RelationSnapshot {
                relation: Arc::new(relation),
                synopses: None,
            };
            Ok(Some((snapshot, plan)))
        };
        if !stream.probabilistic() && (plan.threshold.is_some() || plan.top.is_some()) {
            // The strategy rejects THRESHOLD/TOP on deterministic
            // relations *before* evaluating any predicate; handing it an
            // empty relation and the unstripped plan reproduces that error
            // (and its ordering) without reading a page.
            let empty = Relation::Deterministic(Table::new(name, stream.schema().clone()));
            return input(empty, Cow::Borrowed(plan));
        }
        let relation = scan::restrict_stream(stream.as_mut(), name, plan)?;
        let mut stripped = plan.clone();
        stripped.predicate = Vec::new();
        stripped.threshold = None;
        input(relation, Cow::Owned(stripped))
    }

    /// Plans a `SELECT` and returns its [`ExplainReport`] instead of
    /// executing it (the `EXPLAIN` statement).
    pub fn explain_select(&self, sel: &SelectStmt) -> Result<QueryOutput, DbError> {
        let planned = Planner::plan(sel)?;
        let relation = match self
            .relations
            .get(&planned.physical.table)
            .map(|r| r.as_ref())
        {
            Some(Relation::Deterministic(t)) => {
                format!(
                    "{}: deterministic ({} rows)",
                    planned.physical.table,
                    t.len()
                )
            }
            Some(Relation::Probabilistic(t)) => format!(
                "{}: probabilistic ({} tuples)",
                planned.physical.table,
                t.len()
            ),
            None if !self.dropped.contains(&planned.physical.table)
                && self
                    .scan_source
                    .as_ref()
                    .is_some_and(|s| s.names().contains(&planned.physical.table)) =>
            {
                use crate::plan::StrategyKind;
                let scan_note = match &planned.strategy {
                    StrategyKind::Worlds(_) => {
                        " — materialises whole (MC sampling re-reads tuples)"
                    }
                    _ => " — lazy leaf-at-a-time scan",
                };
                format!(
                    "{}: on disk (via scan source){scan_note}",
                    planned.physical.table
                )
            }
            None => format!(
                "{}: not found (plan is still valid)",
                planned.physical.table
            ),
        };
        Ok(QueryOutput::Explain(ExplainReport {
            relation,
            logical: planned.logical.to_string(),
            physical: planned.physical.to_string(),
            strategy: planned
                .strategy_with_context(
                    self.worlds_threads(),
                    self.synopses(&planned.physical.table),
                )
                .describe(),
        }))
    }

    /// Executes a SQL statement that does not require density inference.
    /// `CREATE VIEW … AS DENSITY …` returns [`DbError::Unsupported`]: the
    /// `tspdb-core` engine builds the view and registers it through
    /// [`Database::register_prob_table`].
    pub fn execute(&mut self, sql: &str) -> Result<QueryOutput, DbError> {
        self.execute_parsed(parse(sql)?)
    }

    /// [`Database::execute`] for an already-parsed statement (no
    /// re-tokenizing on paths where the caller holds the AST).
    pub fn execute_parsed(&mut self, stmt: Statement) -> Result<QueryOutput, DbError> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                let table = Table::new(name, Schema::new(columns));
                self.register_table(table)?;
                Ok(QueryOutput::None)
            }
            Statement::Insert { table, rows } => {
                self.append_rows(&table, rows).map(|_| QueryOutput::None)
            }
            Statement::Select(_) | Statement::Explain(_) => self.query_parsed(stmt),
            Statement::CreateDensityView(_) => Err(DbError::Unsupported(
                "DENSITY views are built by the tspdb-core engine; execute the statement there"
                    .into(),
            )),
            Statement::Tail(_) => Err(DbError::Unsupported(
                "TAIL is a continuous query; submit it over the server wire protocol".into(),
            )),
            Statement::Drop { name } => {
                // Materialise an evicted relation first so the drop is
                // visible to the catalog (the storage layer forgets it at
                // the next checkpoint).
                self.ensure_resident(&name)?;
                self.drop_relation(&name)?;
                Ok(QueryOutput::None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn setup() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE raw_values (t INT, r FLOAT)")
            .unwrap();
        db.execute("INSERT INTO raw_values VALUES (1, 4.2), (2, 5.9), (3, 7.1), (4, 7.9)")
            .unwrap();
        db
    }

    #[test]
    fn create_insert_select_round_trip() {
        let mut db = setup();
        let out = db
            .execute("SELECT r FROM raw_values WHERE t >= 2 AND t <= 3 ORDER BY r DESC")
            .unwrap();
        let rows = out.rows().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.row(0)[0], Value::Float(7.1));
        assert_eq!(rows.row(1)[0], Value::Float(5.9));
    }

    #[test]
    fn select_star_and_limit() {
        let mut db = setup();
        let out = db.execute("SELECT * FROM raw_values LIMIT 2").unwrap();
        let rows = out.rows().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.schema().arity(), 2);
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = setup();
        assert!(matches!(
            db.execute("CREATE TABLE raw_values (x INT)"),
            Err(DbError::DuplicateTable(_))
        ));
    }

    #[test]
    fn drop_removes_relation() {
        let mut db = setup();
        db.execute("DROP TABLE raw_values").unwrap();
        assert!(matches!(
            db.execute("SELECT * FROM raw_values"),
            Err(DbError::UnknownTable(_))
        ));
    }

    #[test]
    fn density_view_is_unsupported_below_the_engine() {
        let mut db = setup();
        let sql = "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 FROM raw_values";
        assert!(matches!(db.execute(sql), Err(DbError::Unsupported(_))));
    }

    #[test]
    fn prob_view_ordering_by_probability() {
        let mut db = Database::new();
        let schema = Schema::of(&[("room", crate::value::ColumnType::Int)]);
        let mut v = ProbTable::new("pv", schema);
        for (room, p) in [(1, 0.2), (2, 0.9), (3, 0.5)] {
            v.insert(vec![Value::Int(room)], p).unwrap();
        }
        db.register_prob_table(v).unwrap();
        let out = db
            .execute("SELECT room FROM pv ORDER BY prob DESC LIMIT 2")
            .unwrap();
        let rows = out.prob_rows().unwrap();
        assert_eq!(rows.row(0)[0], Value::Int(2));
        assert_eq!(rows.row(1)[0], Value::Int(3));
    }

    #[test]
    fn synopsis_rebuild_is_scoped_to_the_written_relation() {
        let mut db = Database::new();
        let schema = Schema::of(&[("x", crate::value::ColumnType::Int)]);
        for name in ["a", "b"] {
            let mut v = ProbTable::new(name, schema.clone());
            v.insert(vec![Value::Int(1)], 0.5).unwrap();
            db.register_prob_table(v).unwrap();
        }
        let a_before = db.synopses("a").unwrap();

        // A write to `b` must rebuild `b`'s synopses and nobody else's:
        // `a`'s snapshot is still the very same allocation.
        let b_before = db.synopses("b").unwrap();
        let mut v = ProbTable::new("b", schema);
        v.insert(vec![Value::Int(2)], 0.25).unwrap();
        db.register_prob_table(v).unwrap();
        assert!(
            Arc::ptr_eq(&a_before, &db.synopses("a").unwrap()),
            "writing b must not touch a's synopses"
        );
        assert!(
            !Arc::ptr_eq(&b_before, &db.synopses("b").unwrap()),
            "writing b must rebuild b's synopses"
        );
    }

    #[test]
    fn insert_into_view_is_rejected() {
        let mut db = Database::new();
        let schema = Schema::of(&[("x", crate::value::ColumnType::Int)]);
        db.register_prob_table(ProbTable::new("pv", schema))
            .unwrap();
        assert!(matches!(
            db.execute("INSERT INTO pv VALUES (1)"),
            Err(DbError::Unsupported(_))
        ));
    }

    #[test]
    fn view_replacement_allowed_table_shadowing_not() {
        let mut db = setup();
        let schema = Schema::of(&[("x", crate::value::ColumnType::Int)]);
        db.register_prob_table(ProbTable::new("pv", schema.clone()))
            .unwrap();
        // Re-registering the same view name is fine (derived data).
        db.register_prob_table(ProbTable::new("pv", schema.clone()))
            .unwrap();
        // But a view cannot shadow a base table.
        assert!(db
            .register_prob_table(ProbTable::new("raw_values", schema))
            .is_err());
    }

    #[test]
    fn relation_names_sorted() {
        let db = setup();
        assert_eq!(db.relation_names(), vec!["raw_values"]);
    }

    fn fig1_database() -> Database {
        let mut db = Database::new();
        let schema = Schema::of(&[
            ("time", crate::value::ColumnType::Int),
            ("room", crate::value::ColumnType::Int),
        ]);
        let mut v = ProbTable::new("pv", schema);
        for (t, room, p) in [
            (1, 1, 0.5),
            (1, 2, 0.1),
            (1, 3, 0.3),
            (1, 4, 0.1),
            (2, 1, 0.2),
            (2, 2, 0.4),
        ] {
            v.insert(vec![Value::Int(t), Value::Int(room)], p).unwrap();
        }
        db.register_prob_table(v).unwrap();
        db
    }

    #[test]
    fn threshold_and_top_clauses_execute() {
        let db = fig1_database();
        let out = db.query("SELECT * FROM pv THRESHOLD 0.3").unwrap();
        assert_eq!(out.prob_rows().unwrap().len(), 3); // 0.5, 0.3, 0.4
        let out = db.query("SELECT * FROM pv TOP 2").unwrap();
        let rows = out.prob_rows().unwrap();
        assert_eq!(rows.probs(), &[0.5, 0.4]);
        // THRESHOLD composes with TOP, then LIMIT trims the result.
        let out = db
            .query("SELECT * FROM pv WHERE time = 1 THRESHOLD 0.2 TOP 5 LIMIT 1")
            .unwrap();
        let rows = out.prob_rows().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows.probs(), &[0.5]);
    }

    #[test]
    fn with_worlds_queries_return_sampling_stats() {
        let db = fig1_database();
        let out = db
            .query("SELECT * FROM pv WHERE time = 1 WITH WORLDS 20000 SEED 5")
            .unwrap();
        let w = out.worlds().unwrap();
        assert_eq!(w.worlds, 20_000);
        assert_eq!(w.matching_tuples, 4);
        assert_eq!(w.seed, 5);
        assert!(!w.converged);
        // P(some room at time 1) = 1 − 0.5·0.9·0.7·0.9 ≈ 0.7165.
        assert!((w.event_probability - 0.7165).abs() < 0.02);
        assert!(w.event_ci_half_width > 0.0);
        assert!(w.wall > std::time::Duration::ZERO);
    }

    #[test]
    fn with_worlds_single_numeric_projection_adds_sum() {
        let db = fig1_database();
        let out = db
            .query("SELECT room FROM pv WHERE time = 2 WITH WORLDS 20000 SEED 1")
            .unwrap();
        let w = out.worlds().unwrap();
        let sum = w.sum.as_ref().unwrap();
        assert_eq!(sum.column, "room");
        // E[Σ room] = 1·0.2 + 2·0.4 = 1.0.
        assert!((sum.mean - 1.0).abs() < 0.05, "sum mean {}", sum.mean);
    }

    #[test]
    fn with_worlds_text_projection_skips_sum_unknown_column_errors() {
        let mut db = Database::new();
        let schema = Schema::of(&[
            ("room", crate::value::ColumnType::Int),
            ("tag", crate::value::ColumnType::Text),
        ]);
        let mut v = ProbTable::new("pv", schema);
        v.insert(vec![Value::Int(1), Value::Text("a".into())], 0.5)
            .unwrap();
        db.register_prob_table(v).unwrap();
        // A single text projection runs the MC query without a SUM.
        let out = db.query("SELECT tag FROM pv WITH WORLDS 1000").unwrap();
        assert!(out.worlds().unwrap().sum.is_none());
        // Unknown columns error like the exact path's projection would —
        // in single- and multi-column projections alike.
        assert!(matches!(
            db.query("SELECT nope FROM pv WITH WORLDS 1000"),
            Err(DbError::UnknownColumn(_))
        ));
        assert!(matches!(
            db.query("SELECT room, nope FROM pv WITH WORLDS 1000"),
            Err(DbError::UnknownColumn(_))
        ));
    }

    #[test]
    fn with_worlds_confidence_terminates_early() {
        let db = fig1_database();
        let out = db
            .query("SELECT * FROM pv WITH WORLDS 1000000 SEED 2 CONFIDENCE 0.02")
            .unwrap();
        let w = out.worlds().unwrap();
        assert!(w.converged);
        assert!(w.worlds < 1_000_000);
        assert!(w.event_ci_half_width <= 0.02);
    }

    #[test]
    fn with_worlds_rejects_presentation_clauses() {
        let db = fig1_database();
        for sql in [
            "SELECT * FROM pv ORDER BY prob DESC WITH WORLDS 100",
            "SELECT * FROM pv LIMIT 5 WITH WORLDS 100",
        ] {
            assert!(
                matches!(db.query(sql), Err(DbError::InvalidWorlds(_))),
                "{sql} should be rejected"
            );
        }
    }

    #[test]
    fn probabilistic_clauses_rejected_on_deterministic_tables() {
        let db = setup();
        for sql in [
            "SELECT * FROM raw_values WITH WORLDS 100",
            "SELECT * FROM raw_values THRESHOLD 0.5",
            "SELECT * FROM raw_values TOP 3",
        ] {
            assert!(
                matches!(db.query(sql), Err(DbError::InvalidWorlds(_))),
                "{sql} should be rejected"
            );
        }
    }

    #[test]
    fn worlds_queries_are_read_only_and_reproducible() {
        let db = fig1_database();
        db.set_worlds_threads(1);
        let a = db
            .query("SELECT * FROM pv WITH WORLDS 5000 SEED 9")
            .unwrap();
        db.set_worlds_threads(8);
        assert_eq!(db.worlds_threads(), 8);
        let b = db
            .query("SELECT * FROM pv WITH WORLDS 5000 SEED 9")
            .unwrap();
        assert_eq!(
            a.worlds().unwrap().fingerprint(),
            b.worlds().unwrap().fingerprint(),
            "thread count changed the estimate"
        );
    }

    #[test]
    fn query_path_serves_selects_and_rejects_writes() {
        let db = setup();
        // &Database is enough for a SELECT.
        let out = db.query("SELECT * FROM raw_values WHERE t >= 3").unwrap();
        assert_eq!(out.rows().unwrap().len(), 2);
        // All mutating statements are turned away.
        for sql in [
            "CREATE TABLE other (x INT)",
            "INSERT INTO raw_values VALUES (9, 1.0)",
            "DROP TABLE raw_values",
            "CREATE VIEW v AS DENSITY r OVER t OMEGA delta=1, n=2 FROM raw_values",
        ] {
            assert!(
                matches!(db.query(sql), Err(DbError::ReadOnly(_))),
                "{sql} slipped through the read-only path"
            );
        }
        // The table is untouched.
        assert_eq!(db.table("raw_values").unwrap().len(), 4);
    }
}
