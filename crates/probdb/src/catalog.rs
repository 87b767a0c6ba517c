//! The in-memory database: named relations plus statement execution.
//!
//! [`Database`] owns deterministic tables and probabilistic views and
//! executes parsed [`Statement`]s. `SELECT`s are **planned, not
//! dispatched**: the statement is handed to [`Planner::plan`], which builds
//! a logical/physical plan and picks an evaluation strategy
//! ([`crate::plan::ExactStrategy`], or [`crate::plan::WorldsStrategy`]
//! for what `WITH WORLDS` samples); the catalog's job shrinks to resolving the
//! scanned relation and running the chosen strategy. `EXPLAIN` returns
//! the plan instead of running it.
//!
//! The one statement the catalog cannot execute by itself is `CREATE VIEW
//! … AS DENSITY …` — inferring densities is the job of the `tspdb-core`
//! crate, whose engine builds the view and hands it to
//! [`Database::register_prob_table`]. This keeps the dependency arrow
//! pointing from the paper's contribution down into the substrate, never
//! backwards.

use crate::column::Column;
use crate::error::DbError;
use crate::plan::{AggregateResult, ExplainReport, Finish, PlannedQuery, Planner};
use crate::plan_cache::{PlanCache, PlanCacheStats};
use crate::scan::{Batch, BatchStream, Source};
use crate::schema::Schema;
use crate::sql::{parse, SelectStmt, Statement};
use crate::table::{check_columns, ProbTable, Table};
use crate::value::Value;
use crate::worlds::WorldsResult;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A stored relation: deterministic or probabilistic.
#[derive(Debug, Clone)]
pub enum Relation {
    /// Ordinary table.
    Deterministic(Table),
    /// Tuple-independent probabilistic view.
    Probabilistic(ProbTable),
}

/// What one statement reads, taken under the catalog's lock — see
/// [`Database::scan_input`].
pub enum RelationSnapshot<'p> {
    /// A resident relation's rung: an immutable snapshot the statement
    /// runs over after the lock is released.
    Resident(Arc<Relation>),
    /// An evicted relation, scanned while its leaves streamed past (a
    /// checkpoint may rewrite the pages once the lock is gone): the rest
    /// of the answer, run after the lock is released.
    Scanned(Finish<'p>),
}

impl RelationSnapshot<'_> {
    /// Runs `planned`'s strategy over this snapshot — the one place a
    /// strategy runs over a resident relation, whichever entry point the
    /// statement came in through; `threads` is the fork-join width (it
    /// never changes an answer). Needs no catalog borrow, so callers
    /// sharing the catalog behind a lock run this after releasing it.
    pub fn execute(self, planned: &PlannedQuery, threads: usize) -> Result<QueryOutput, DbError> {
        match self {
            RelationSnapshot::Resident(relation) => planned
                .strategy_with_context(threads)
                .execute(Source::Resident(&relation), &planned.physical),
            RelationSnapshot::Scanned(finish) => finish(),
        }
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
    /// Opens a lazy batch stream over the named relation, or `None` if
    /// the source doesn't hold it: how a statement reads an evicted
    /// relation, one decoded leaf at a time.
    fn scan_stream(&self, name: &str) -> Result<Option<Box<dyn BatchStream>>, DbError>;
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
    pub(crate) fn cached_plan(&self, sql: &str) -> Option<Arc<PlannedQuery>> {
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
    #[cfg(test)]
    pub(crate) fn query_cached(&self, sql: &str) -> Result<QueryOutput, DbError> {
        match self.plan_cached(sql)? {
            Ok(planned) => self.execute_planned(&planned),
            Err(stmt) => self.query_parsed(stmt),
        }
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

    /// Drops a relation's tuples from memory, so later reads fall through
    /// to the scan source — with the same answers as the resident
    /// relation. Refuses to evict anything the attached source cannot
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
    /// replaceable).
    pub fn register_prob_table(&mut self, table: ProbTable) -> Result<(), DbError> {
        let name = table.name().to_string();
        if matches!(
            self.relations.get(&name).map(|r| r.as_ref()),
            Some(Relation::Deterministic(_))
        ) {
            return Err(DbError::DuplicateTable(name));
        }
        self.dropped.remove(&name);
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
    pub(crate) fn append_rows(
        &mut self,
        table: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<usize, DbError> {
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
    /// totals absorb the suffix (bit-identical to a rebuild), and only the
    /// *data* generation moves, so cached plans survive.
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
            Relation::Probabilistic(t) => t.extend_from_batch(&batch, 0..rows)?,
        }
        self.bump_data_generation();
        Ok(rows)
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

    /// Drops a relation by name. A tombstone
    /// stops the scan source from resurrecting the name until a
    /// checkpoint rewrites the on-disk file (or the name is re-created).
    pub(crate) fn drop_relation(&mut self, name: &str) -> Result<(), DbError> {
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
        let threads = self.worlds_threads();
        self.scan_input(planned, threads)?.execute(planned, threads)
    }

    /// What `planned` reads, as an immutable snapshot. This is the MVCC
    /// read path — take the input under a shared lock, release the lock,
    /// then `RelationSnapshot::execute` it while writers land new rungs
    /// (appends swap in a new rung rather than mutating the old one in
    /// place, so the snapshot stays internally consistent for as long as
    /// its `Arc` lives).
    ///
    /// A resident relation wins and costs one `Arc` clone. An evicted one
    /// is scanned here, at fork-join width `threads`: the strategy
    /// consumes the scan source's leaf stream batch by batch, the relation
    /// is never materialised, and what the answer needs after the scan
    /// (`HAVING` tails, closed forms, the final sort) runs in
    /// `RelationSnapshot::execute`. Both run the same operators over the
    /// same tuples in the same order: bit-identical answers.
    pub fn scan_input<'p>(
        &self,
        planned: &'p PlannedQuery,
        threads: usize,
    ) -> Result<RelationSnapshot<'p>, DbError> {
        let name = &planned.physical.table;
        if let Some(relation) = self.relations.get(name) {
            return Ok(RelationSnapshot::Resident(Arc::clone(relation)));
        }
        let streamed = match (&self.scan_source, self.dropped.contains(name)) {
            (Some(source), false) => source.scan_stream(name)?,
            _ => None,
        };
        let mut stream = streamed.ok_or_else(|| DbError::UnknownTable(name.clone()))?;
        let strategy = planned.strategy_with_context(threads);
        let finish = strategy.scan(Source::Stream(stream.as_mut()), &planned.physical)?;
        Ok(RelationSnapshot::Scanned(finish))
    }

    /// Plans a `SELECT` and returns its [`ExplainReport`] instead of
    /// executing it (the `EXPLAIN` statement).
    pub fn explain_select(&self, sel: &SelectStmt) -> Result<QueryOutput, DbError> {
        let planned = Planner::plan(sel)?;
        let name = &planned.physical.table;
        let on_disk = self
            .scan_source
            .as_ref()
            .is_some_and(|s| s.names().contains(name));
        let relation = match self.relations.get(name).map(|r| r.as_ref()) {
            Some(Relation::Deterministic(t)) => format!("deterministic ({} rows)", t.len()),
            Some(Relation::Probabilistic(t)) => format!("probabilistic ({} tuples)", t.len()),
            None if on_disk && !self.dropped.contains(name) => {
                "on disk (via scan source) — lazy leaf-at-a-time scan".into()
            }
            None => "not found (plan is still valid)".into(),
        };
        Ok(QueryOutput::Explain(ExplainReport {
            relation: format!("{name}: {relation}"),
            logical: planned.logical.to_string(),
            physical: planned.physical.to_string(),
            strategy: planned
                .strategy_with_context(self.worlds_threads())
                .describe(&planned.physical),
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
    fn appends_keep_totals_equal_to_a_build_from_scratch() {
        let mut db = Database::new();
        let schema = Schema::of(&[
            ("x", crate::value::ColumnType::Int),
            ("y", crate::value::ColumnType::Float),
        ]);
        let rows = [
            (1, 0.5, 0.5),
            (2, 1e-3, 0.25),
            (3, -0.0, 0.125),
            (4, 7.5, 1.0),
        ];
        let mut whole = ProbTable::new("pv", schema.clone());
        for &(x, y, p) in &rows {
            whole
                .insert(vec![Value::Int(x), Value::Float(y)], p)
                .unwrap();
        }
        db.register_prob_table(ProbTable::new("pv", schema))
            .unwrap();
        for chunk in [0..1, 1..3, 3..4] {
            let part = whole.take(&chunk.collect::<Vec<_>>());
            db.append_columns("pv", part.columns(), Some(part.probs()))
                .unwrap();
            // Read, so the next append folds into kept totals.
            db.prob_table("pv").unwrap().expected_count();
        }
        let appended = db.prob_table("pv").unwrap();
        assert_eq!(appended.len(), whole.len());
        assert_eq!(
            appended.expected_count().to_bits(),
            whole.expected_count().to_bits()
        );
        for col in ["x", "y"] {
            assert_eq!(
                appended.expected_sum(col).unwrap().to_bits(),
                whole.expected_sum(col).unwrap().to_bits(),
                "{col}"
            );
        }
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
    fn with_worlds_rows_are_answered_in_closed_form() {
        let db = fig1_database();
        let out = db
            .query("SELECT * FROM pv WHERE time = 1 WITH WORLDS 20000 SEED 5")
            .unwrap();
        let w = out.worlds().unwrap();
        assert_eq!(w.worlds, 0, "nothing is sampled");
        assert_eq!(w.matching_tuples, 4);
        assert_eq!(w.seed, 5);
        assert!(w.converged);
        // P(some room at time 1) = 1 − 0.5·0.9·0.7·0.9 = 0.7165.
        assert!((w.event_probability - 0.7165).abs() < 1e-15);
        assert_eq!(w.event_ci_half_width, 0.0);
        assert_eq!(w.count_ci_half_width, 0.0);
        let count = db.query("SELECT COUNT(*) FROM pv WHERE time = 1").unwrap();
        assert_eq!(
            w.count_mean.to_bits(),
            count.aggregate().unwrap().groups[0].values[0]
                .value
                .to_bits()
        );
        let mass: f64 = w.count_distribution.iter().sum();
        assert_eq!(w.count_distribution.len(), 5);
        assert!((mass - 1.0).abs() < 1e-15);
        let text = w.to_string();
        assert!(
            text.starts_with("worlds: none sampled, closed forms (seed 5"),
            "{text}"
        );
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
        // E[Σ room] = 1·0.2 + 2·0.4 = 1.0, the bits SUM(room) answers.
        let exact = db.query("SELECT SUM(room) FROM pv WHERE time = 2").unwrap();
        assert_eq!(
            sum.mean,
            exact.aggregate().unwrap().groups[0].values[0].value
        );
        assert!((sum.mean - 1.0).abs() < 1e-15, "sum mean {}", sum.mean);
        assert_eq!(sum.ci_half_width, 0.0);
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
        // A single text projection answers the domain without a SUM.
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
    fn with_worlds_confidence_is_met_by_the_closed_form() {
        let db = fig1_database();
        let out = db
            .query("SELECT * FROM pv WITH WORLDS 1000000 SEED 2 CONFIDENCE 0.02")
            .unwrap();
        let w = out.worlds().unwrap();
        assert!(w.converged);
        assert_eq!(w.worlds, 0);
        assert_eq!(w.event_ci_half_width, 0.0);
        // The clause is still validated.
        assert!(matches!(
            db.query("SELECT * FROM pv WITH WORLDS 10 CONFIDENCE 0"),
            Err(DbError::Parse(_))
        ));
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
