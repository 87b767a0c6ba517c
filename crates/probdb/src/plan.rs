//! The query planner: logical plans, physical plans, and pluggable
//! evaluation strategies.
//!
//! Query execution used to be ad-hoc dispatch inside the catalog — one
//! hard-coded execution shape per SQL clause. This module replaces that
//! with the classical pipeline
//!
//! ```text
//! parse  →  LogicalPlan  →  PhysicalPlan  →  EvalStrategy
//! ```
//!
//! * [`LogicalPlan`] is an operator tree (scan / filter / threshold /
//!   top-k / sort / limit / project / aggregate) built from a parsed
//!   [`SelectStmt`] by [`Planner::plan`]; it is what `EXPLAIN` prints.
//! * [`PhysicalPlan`] is the lowered, flat form every strategy consumes: a
//!   named scan, the tuple-domain restriction (`WHERE` / `THRESHOLD` /
//!   `TOP`), and one terminal [`PhysicalAction`] (return rows, or compute
//!   aggregates).
//! * `EvalStrategy` is the pluggable evaluation backend.
//!   `ExactStrategy` answers with closed forms over tuple independence
//!   (linearity of expectation for `COUNT` / `SUM` / `AVG` / `EXPECTED`,
//!   the Poisson-binomial DP for `HAVING COUNT`, the sum-distribution DP
//!   for `HAVING SUM`); `WorldsStrategy` runs a `WITH WORLDS` row plan or
//!   `HAVING` statement. A row plan's answer (`QueryOutput::Worlds`) is
//!   closed forms over the restricted domain, with `worlds = 0` and zero
//!   half-widths; only a `HAVING` event is sampled, by Monte-Carlo
//!   possible-world sampling that inherits the executor's bit-identical
//!   determinism at every thread count. An aggregate without `HAVING` is
//!   planned onto `ExactStrategy`, and under `WorldsStrategy` the
//!   aggregate values of a `HAVING` statement are the same closed forms.
//!   `WITH SYNOPSIS [BUCKETS b] [MAXERROR e]` is accepted and planned
//!   onto `ExactStrategy` too: an exact answer meets any error bound.
//!
//! Both strategies evaluate the *same* plans, so every sampled event
//! admits an exact-vs-MC differential test, and every future operator
//! (joins, windows, parallel scans) becomes a plan node instead of another
//! `match` arm in the catalog.

use crate::aggregates::{
    count_distribution_of, count_moments_of, event_probability_of, sum_distribution_of,
    sum_moments_of,
};
use crate::catalog::QueryOutput;
use crate::error::DbError;
use crate::query::{Conjunction, PROB_PSEUDO_COLUMN};
use crate::scan::{self, Folded, Rows, Source};
use crate::schema::Schema;
use crate::sql::{
    AggExpr, AggFunc, HavingClause, SelectItem, SelectStmt, WindowSpec, WorldsClause,
};
use crate::value::{ColumnType, Value};
use crate::worlds::{
    mix_seed, SumEstimate, SumEventSpec, WorldsConfig, WorldsExecutor, WorldsResult,
};
use std::fmt;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Logical plans
// ---------------------------------------------------------------------------

/// A node of the logical operator tree.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Read a named relation.
    Scan {
        /// Table or view name.
        table: String,
    },
    /// Keep tuples satisfying a conjunctive predicate.
    Filter {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// The predicate.
        predicate: Conjunction,
    },
    /// Keep tuples with probability ≥ τ (`THRESHOLD`).
    Threshold {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// Minimum tuple probability.
        tau: f64,
    },
    /// Keep the k most probable tuples (`TOP`).
    TopK {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// Number of tuples to keep.
        k: usize,
    },
    /// Order tuples by a column (or the `prob` pseudo-column).
    Sort {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// Sort column.
        column: String,
        /// Ascending?
        ascending: bool,
    },
    /// Keep the first n tuples (`LIMIT`).
    Limit {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// Row cap.
        n: usize,
    },
    /// Project onto named columns.
    Project {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// Projected columns, in order.
        columns: Vec<String>,
    },
    /// Bucket tuples into temporal windows (`GROUP BY WINDOW(…)`): each
    /// tuple joins the half-open bucket containing its window-column value
    /// (canonical index `⌊(value − origin) / width⌋`), and every bucket
    /// becomes one aggregation group keyed by its bucket start.
    Window {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// The window specification.
        spec: WindowSpec,
    },
    /// Grouped aggregation with an optional `HAVING` event predicate.
    Aggregate {
        /// Input operator.
        input: Box<LogicalPlan>,
        /// `GROUP BY` columns (empty = one global group).
        group_by: Vec<String>,
        /// Aggregate expressions, in projection order.
        aggregates: Vec<AggExpr>,
        /// Optional event predicate.
        having: Option<HavingClause>,
    },
}

impl LogicalPlan {
    /// One-line description of this node (children excluded).
    fn describe(&self) -> String {
        match self {
            LogicalPlan::Scan { table } => format!("Scan {table}"),
            LogicalPlan::Filter { predicate, .. } => {
                let preds: Vec<String> = predicate
                    .iter()
                    .map(|c| format!("{} {} {}", c.column, c.op, c.value))
                    .collect();
                format!("Filter {}", preds.join(" AND "))
            }
            LogicalPlan::Threshold { tau, .. } => format!("Threshold τ={tau}"),
            LogicalPlan::TopK { k, .. } => format!("TopK k={k}"),
            LogicalPlan::Sort {
                column, ascending, ..
            } => format!("Sort {column} {}", if *ascending { "ASC" } else { "DESC" }),
            LogicalPlan::Limit { n, .. } => format!("Limit {n}"),
            LogicalPlan::Project { columns, .. } => format!("Project [{}]", columns.join(", ")),
            LogicalPlan::Window { spec, .. } => format!(
                "Window {} width={} origin={}",
                spec.column,
                spec.width,
                spec.origin()
            ),
            LogicalPlan::Aggregate {
                group_by,
                aggregates,
                having,
                ..
            } => {
                let aggs: Vec<String> = aggregates.iter().map(|a| a.to_string()).collect();
                let mut s = format!("Aggregate [{}]", aggs.join(", "));
                if !group_by.is_empty() {
                    s.push_str(&format!(" GROUP BY {}", group_by.join(", ")));
                }
                if let Some(h) = having {
                    s.push_str(&format!(" HAVING {h}"));
                }
                s
            }
        }
    }

    /// The node's single input, if it has one.
    fn input(&self) -> Option<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => None,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Threshold { input, .. }
            | LogicalPlan::TopK { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Window { input, .. }
            | LogicalPlan::Aggregate { input, .. } => Some(input),
        }
    }
}

impl fmt::Display for LogicalPlan {
    /// Renders the tree root-first with two-space indentation per level.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut node = Some(self);
        let mut depth = 0usize;
        while let Some(n) = node {
            if depth > 0 {
                f.write_str("\n")?;
            }
            write!(f, "{:indent$}{}", "", n.describe(), indent = depth * 2)?;
            node = n.input();
            depth += 1;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Physical plans
// ---------------------------------------------------------------------------

/// The lowered plan every `EvalStrategy` consumes: scan + restriction +
/// one terminal action.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    /// Source relation name.
    pub table: String,
    /// `WHERE` conjunction (may reference the `prob` pseudo-column).
    pub predicate: Conjunction,
    /// `THRESHOLD` minimum tuple probability.
    pub threshold: Option<f64>,
    /// `TOP` k most probable tuples.
    pub top: Option<usize>,
    /// What to compute over the restricted domain.
    pub action: PhysicalAction,
}

/// Terminal operator of a [`PhysicalPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalAction {
    /// Return (projected, ordered, limited) tuples. Under the worlds
    /// strategy this is the row-domain sampling estimate instead (`ORDER
    /// BY` / `LIMIT` are rejected at plan time for that combination).
    Rows {
        /// Projected columns (empty = all).
        columns: Vec<String>,
        /// Optional ordering.
        order_by: Option<(String, bool)>,
        /// Optional row cap.
        limit: Option<usize>,
    },
    /// Compute grouped aggregates.
    Aggregate(AggregatePlan),
}

/// The aggregate part of a physical plan.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregatePlan {
    /// Optional temporal window bucketing; when present, every bucket is
    /// one group keyed by its bucket start, ahead of the `group_by` values.
    pub window: Option<WindowSpec>,
    /// Grouping columns (empty = one global group).
    pub group_by: Vec<String>,
    /// Aggregate expressions in projection order.
    pub aggregates: Vec<AggExpr>,
    /// Optional `HAVING` event predicate.
    pub having: Option<HavingClause>,
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scan({})", self.table)?;
        if !self.predicate.is_empty() {
            write!(f, " → filter({} comparisons)", self.predicate.len())?;
        }
        if let Some(tau) = self.threshold {
            write!(f, " → threshold({tau})")?;
        }
        if let Some(k) = self.top {
            write!(f, " → top({k})")?;
        }
        match &self.action {
            PhysicalAction::Rows {
                columns,
                order_by,
                limit,
            } => {
                if let Some((col, asc)) = order_by {
                    write!(f, " → sort({col} {})", if *asc { "ASC" } else { "DESC" })?;
                }
                if let Some(n) = limit {
                    write!(f, " → limit({n})")?;
                }
                if columns.is_empty() {
                    write!(f, " → rows(*)")
                } else {
                    write!(f, " → rows({})", columns.join(", "))
                }
            }
            PhysicalAction::Aggregate(agg) => {
                let aggs: Vec<String> = agg.aggregates.iter().map(|a| a.to_string()).collect();
                write!(f, " → aggregate([{}]", aggs.join(", "))?;
                if let Some(w) = &agg.window {
                    write!(f, ", window={w}")?;
                }
                if !agg.group_by.is_empty() {
                    write!(f, ", group_by=[{}]", agg.group_by.join(", "))?;
                }
                if let Some(h) = &agg.having {
                    write!(f, ", having={h}")?;
                }
                write!(f, ")")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The planner
// ---------------------------------------------------------------------------

/// Which evaluation backend a plan runs on.
#[derive(Debug, Clone, PartialEq)]
pub enum StrategyKind {
    /// Closed forms (`ExactStrategy`).
    Exact {
        /// Set when a `WITH WORLDS` clause was planned onto closed forms
        /// (an aggregate without `HAVING`): the clause still requires a
        /// probabilistic relation.
        probabilistic_only: bool,
    },
    /// Monte-Carlo possible-world sampling (`WorldsStrategy`), carrying
    /// the `WITH WORLDS` clause that selected it.
    Worlds(WorldsClause),
}

/// A fully planned query: logical tree, lowered physical plan, and the
/// chosen strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedQuery {
    /// The logical operator tree (what `EXPLAIN` prints).
    pub logical: LogicalPlan,
    /// The lowered plan the strategies execute.
    pub physical: PhysicalPlan,
    /// The chosen evaluation strategy.
    pub strategy: StrategyKind,
}

impl PlannedQuery {
    /// Instantiates the chosen strategy. `threads` is the fork-join width
    /// for sampling and for the segment fan-out of large restrictions (it
    /// never changes an answer).
    pub(crate) fn strategy_with_context(&self, threads: usize) -> Box<dyn EvalStrategy> {
        match &self.strategy {
            StrategyKind::Exact { probabilistic_only } => Box::new(ExactStrategy {
                threads,
                probabilistic_only: *probabilistic_only,
            }),
            StrategyKind::Worlds(clause) => Box::new(WorldsStrategy {
                clause: clause.clone(),
                threads,
            }),
        }
    }
}

/// Builds [`PlannedQuery`]s from parsed statements. Stateless — planning
/// is a pure function of the statement; relation-dependent validation
/// (unknown tables/columns, deterministic-vs-probabilistic rules) stays
/// with execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct Planner;

impl Planner {
    /// Plans a `SELECT`.
    ///
    /// Validation performed here (all [`DbError::Plan`] unless noted):
    /// * plain projected columns must appear in `GROUP BY` when the
    ///   projection carries aggregates (the result is keyed by the full
    ///   `GROUP BY` list in `GROUP BY` order — see [`AggregateResult`]);
    /// * `GROUP BY` (windowed or not) / `HAVING` require an aggregate
    ///   projection;
    /// * aggregate queries reject `ORDER BY` / `LIMIT` (groups are
    ///   returned in canonical key order);
    /// * `GROUP BY WINDOW(…)` needs a positive, finite width (and a finite
    ///   origin when given); buckets become ordinary groups keyed by their
    ///   bucket start, ahead of the plain `GROUP BY` values;
    /// * `HAVING` must compare `COUNT(*)` or `SUM(col)` against a numeric
    ///   literal (`COUNT` tails come from the Poisson-binomial DP,
    ///   `SUM` tails from the sum-distribution DP; `AVG`/`EXPECTED` event
    ///   predicates have no closed form and are rejected);
    /// * `WITH WORLDS` rejects `ORDER BY` / `LIMIT`
    ///   ([`DbError::InvalidWorlds`], as before the planner existed), and a
    ///   clause with no world or a non-positive `CONFIDENCE`
    ///   ([`DbError::InvalidWorlds`]);
    /// * `WITH WORLDS` plans a row query or a `HAVING` statement onto the
    ///   worlds strategy, which answers the row query in closed form and
    ///   samples only the `HAVING` event. An aggregate without `HAVING` is
    ///   planned onto the exact strategy, which answers the clause-free
    ///   statement's bytes (an exact answer meets any `CONFIDENCE`) but
    ///   still refuses a deterministic relation;
    /// * `WITH SYNOPSIS` is planned onto the exact strategy (an exact
    ///   answer meets any `MAXERROR`) and cannot combine with `WITH
    ///   WORLDS`.
    pub fn plan(sel: &SelectStmt) -> Result<PlannedQuery, DbError> {
        let aggregates: Vec<AggExpr> = sel
            .projection
            .iter()
            .filter_map(|item| match item {
                SelectItem::Aggregate(a) => Some(a.clone()),
                SelectItem::Column(_) => None,
            })
            .collect();
        let plain: Vec<String> = sel
            .projection
            .iter()
            .filter_map(|item| match item {
                SelectItem::Column(c) => Some(c.clone()),
                SelectItem::Aggregate(_) => None,
            })
            .collect();

        if aggregates.is_empty() {
            if !sel.group_by.is_empty() || sel.window.is_some() {
                return Err(DbError::Plan(
                    "GROUP BY requires at least one aggregate in the projection".into(),
                ));
            }
            if sel.having.is_some() {
                return Err(DbError::Plan(
                    "HAVING requires an aggregate projection".into(),
                ));
            }
        } else {
            for col in &plain {
                if !sel.group_by.contains(col) {
                    return Err(DbError::Plan(format!(
                        "projected column {col} must appear in GROUP BY"
                    )));
                }
            }
            if sel.order_by.is_some() || sel.limit.is_some() {
                return Err(DbError::Plan(
                    "ORDER BY/LIMIT do not apply to aggregate queries; groups are \
                     returned in canonical key order"
                        .into(),
                ));
            }
            if let Some(w) = &sel.window {
                validate_window(w)?;
            }
            if let Some(h) = &sel.having {
                validate_having(h)?;
            }
        }
        if sel.worlds.is_some() && (sel.order_by.is_some() || sel.limit.is_some()) {
            return Err(DbError::InvalidWorlds(
                "ORDER BY/LIMIT do not apply to WITH WORLDS estimates; restrict the \
                 sampling domain with WHERE, THRESHOLD or TOP instead"
                    .into(),
            ));
        }

        // Logical tree, bottom-up: scan → filter → threshold → top-k, then
        // either the aggregate terminal or sort → limit → project.
        let mut logical = LogicalPlan::Scan {
            table: sel.table.clone(),
        };
        if !sel.predicate.is_empty() {
            logical = LogicalPlan::Filter {
                input: Box::new(logical),
                predicate: sel.predicate.clone(),
            };
        }
        if let Some(tau) = sel.threshold {
            logical = LogicalPlan::Threshold {
                input: Box::new(logical),
                tau,
            };
        }
        if let Some(k) = sel.top {
            logical = LogicalPlan::TopK {
                input: Box::new(logical),
                k,
            };
        }
        let action = if aggregates.is_empty() {
            if let Some((column, ascending)) = &sel.order_by {
                logical = LogicalPlan::Sort {
                    input: Box::new(logical),
                    column: column.clone(),
                    ascending: *ascending,
                };
            }
            if let Some(n) = sel.limit {
                logical = LogicalPlan::Limit {
                    input: Box::new(logical),
                    n,
                };
            }
            if !plain.is_empty() {
                logical = LogicalPlan::Project {
                    input: Box::new(logical),
                    columns: plain.clone(),
                };
            }
            PhysicalAction::Rows {
                columns: plain,
                order_by: sel.order_by.clone(),
                limit: sel.limit,
            }
        } else {
            if let Some(w) = &sel.window {
                logical = LogicalPlan::Window {
                    input: Box::new(logical),
                    spec: w.clone(),
                };
            }
            let agg_plan = AggregatePlan {
                window: sel.window.clone(),
                group_by: sel.group_by.clone(),
                aggregates: aggregates.clone(),
                having: sel.having.clone(),
            };
            logical = LogicalPlan::Aggregate {
                input: Box::new(logical),
                group_by: sel.group_by.clone(),
                aggregates,
                having: sel.having.clone(),
            };
            PhysicalAction::Aggregate(agg_plan)
        };

        let strategy = match (&sel.worlds, &sel.synopsis) {
            (Some(_), Some(_)) => {
                return Err(DbError::Plan(
                    "a statement selects at most one evaluation clause: \
                     WITH WORLDS or WITH SYNOPSIS"
                        .into(),
                ));
            }
            (Some(clause), None) => {
                worlds_executor(clause, 0, 0)?;
                let samples = match &action {
                    PhysicalAction::Rows { .. } => true,
                    PhysicalAction::Aggregate(agg) => agg.having.is_some(),
                };
                if samples {
                    StrategyKind::Worlds(clause.clone())
                } else {
                    StrategyKind::Exact {
                        probabilistic_only: true,
                    }
                }
            }
            (None, _) => StrategyKind::Exact {
                probabilistic_only: false,
            },
        };
        Ok(PlannedQuery {
            logical,
            physical: PhysicalPlan {
                table: sel.table.clone(),
                predicate: sel.predicate.clone(),
                threshold: sel.threshold,
                top: sel.top,
                action,
            },
            strategy,
        })
    }
}

// ---------------------------------------------------------------------------
// Aggregate results
// ---------------------------------------------------------------------------

/// One aggregate value.
#[derive(Debug, Clone, PartialEq)]
pub struct AggValue {
    /// The exact closed form, under every strategy.
    pub value: f64,
    /// Uncertainty half-width. Every aggregate value is exact, so the
    /// engine always reports `None`; the field keeps the result's wire
    /// shape.
    pub ci_half_width: Option<f64>,
}

/// One group of an [`AggregateResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateGroup {
    /// The `GROUP BY` column values (empty for the global group).
    pub key: Vec<Value>,
    /// One estimate per aggregate expression, in projection order.
    pub values: Vec<AggValue>,
    /// The tuple-count distribution (exact Poisson-binomial or MC
    /// histogram) iff a `HAVING COUNT(*)` tail was evaluated from it
    /// (`HAVING COUNT(*) >= 0` always holds); `COUNT(*)` alone is Σp.
    pub count_distribution: Option<Vec<f64>>,
    /// `P(HAVING predicate)` on probabilistic inputs (on deterministic
    /// tables `HAVING` filters groups instead and this stays `None`).
    pub event_probability: Option<f64>,
    /// Worlds sampled for this group (`None` under exact evaluation).
    pub worlds: Option<usize>,
}

/// Result of an aggregate query: one row per group, in canonical group-key
/// order.
///
/// Groups are keyed by the **full `GROUP BY` list, in `GROUP BY` order**,
/// regardless of how many of those columns the projection repeated or in
/// what order — plain projected columns only have to *appear* in
/// `GROUP BY` (the planner checks that); they do not reorder or narrow
/// the group key. A `GROUP BY WINDOW(…)` bucketing contributes the bucket
/// start as the **first** key value (a float), with the window's canonical
/// rendering as the matching first entry of `group_columns` — so windowed
/// results reuse this struct unchanged and cross the wire without any new
/// frame shape.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateResult {
    /// `GROUP BY` column names (empty = single global group).
    pub group_columns: Vec<String>,
    /// The aggregate expressions, in projection order.
    pub aggregates: Vec<AggExpr>,
    /// The `HAVING` event predicate, if any.
    pub having: Option<HavingClause>,
    /// Name of the strategy that produced the result.
    pub strategy: &'static str,
    /// The groups.
    pub groups: Vec<AggregateGroup>,
}

impl AggregateResult {
    /// Bit-exact fingerprint of every estimate — the cross-thread-count
    /// determinism witness for MC aggregates (wall-clock excluded; there
    /// is none to exclude).
    pub fn fingerprint(&self) -> String {
        use fmt::Write;
        let mut s = format!("strategy={} groups={}", self.strategy, self.groups.len());
        for g in &self.groups {
            write!(s, " |").expect("write to String cannot fail");
            for k in &g.key {
                write!(s, " {k}").expect("write to String cannot fail");
            }
            for v in &g.values {
                write!(s, " {:016x}", v.value.to_bits()).expect("write to String cannot fail");
                if let Some(ci) = v.ci_half_width {
                    write!(s, "±{:016x}", ci.to_bits()).expect("write to String cannot fail");
                }
            }
            if let Some(p) = g.event_probability {
                write!(s, " ev={:016x}", p.to_bits()).expect("write to String cannot fail");
            }
            if let Some(dist) = &g.count_distribution {
                for d in dist {
                    write!(s, " d{:016x}", d.to_bits()).expect("write to String cannot fail");
                }
            }
        }
        s
    }
}

impl fmt::Display for AggregateResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Header: group columns, aggregates, then the event column — the
        // latter only when groups actually carry event probabilities (on
        // deterministic inputs HAVING filters groups instead, so the rows
        // would have no cell under that header).
        let mut header: Vec<String> = self.group_columns.clone();
        header.extend(self.aggregates.iter().map(|a| a.to_string()));
        if let (Some(h), true) = (
            &self.having,
            self.groups.iter().any(|g| g.event_probability.is_some()),
        ) {
            header.push(format!("P({h})"));
        }
        writeln!(f, "{} [{}]", header.join("  "), self.strategy)?;
        for g in &self.groups {
            let mut cells: Vec<String> = g.key.iter().map(|v| v.to_string()).collect();
            for v in &g.values {
                match v.ci_half_width {
                    Some(ci) => cells.push(format!("{:.4} ± {:.4}", v.value, ci)),
                    None => cells.push(format!("{:.4}", v.value)),
                }
            }
            if let Some(p) = g.event_probability {
                cells.push(format!("{p:.4}"));
            }
            writeln!(f, "{}", cells.join("  "))?;
        }
        Ok(())
    }
}

/// What `EXPLAIN` returns: the plans and the strategy, pre-rendered.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainReport {
    /// The source relation, annotated with its kind when it exists.
    pub relation: String,
    /// The logical operator tree.
    pub logical: String,
    /// The lowered physical pipeline.
    pub physical: String,
    /// The chosen strategy with its parameters.
    pub strategy: String,
}

impl fmt::Display for ExplainReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "relation: {}", self.relation)?;
        writeln!(f, "logical plan:")?;
        for line in self.logical.lines() {
            writeln!(f, "  {line}")?;
        }
        writeln!(f, "physical plan:\n  {}", self.physical)?;
        writeln!(f, "strategy: {}", self.strategy)
    }
}

// ---------------------------------------------------------------------------
// Evaluation strategies
// ---------------------------------------------------------------------------

/// The rest of an answer once its scan is done — `HAVING` tails, closed
/// forms over the kept domain, the final sort. It needs nothing more of
/// the source, so an evicted relation's leaves (and the catalog lock that
/// keeps them) are released before it runs.
pub type Finish<'p> = Box<dyn FnOnce() -> Result<QueryOutput, DbError> + Send + 'p>;

/// A pluggable evaluation backend executing physical plans.
pub(crate) trait EvalStrategy {
    /// Parameter description for `EXPLAIN` of `plan`.
    fn describe(&self, plan: &PhysicalPlan) -> String;

    /// Scans the source relation for a physical plan and returns the rest
    /// of the answer.
    fn scan<'p>(&self, source: Source<'_>, plan: &'p PhysicalPlan) -> Result<Finish<'p>, DbError>;

    /// Executes a physical plan over the source relation.
    fn execute(&self, source: Source<'_>, plan: &PhysicalPlan) -> Result<QueryOutput, DbError> {
        self.scan(source, plan)?()
    }
}

/// Closed-form evaluation over tuple independence.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExactStrategy {
    /// Fork-join width of the restriction fan-out (0 = one thread per
    /// core); latency only.
    pub threads: usize,
    /// Refuse a deterministic relation, as the `WITH WORLDS` clause
    /// planned onto this strategy requires.
    pub probabilistic_only: bool,
}

impl EvalStrategy for ExactStrategy {
    fn describe(&self, _plan: &PhysicalPlan) -> String {
        "exact (closed forms: COUNT(*) = Σp, SUM = Σp·v; count DP only for HAVING COUNT, \
         sum DP only for HAVING SUM)"
            .into()
    }

    fn scan<'p>(&self, source: Source<'_>, plan: &'p PhysicalPlan) -> Result<Finish<'p>, DbError> {
        if !source.probabilistic() {
            if self.probabilistic_only {
                return Err(deterministic_worlds(&plan.table));
            }
            if plan.threshold.is_some() || plan.top.is_some() {
                return Err(DbError::InvalidWorlds(format!(
                    "THRESHOLD/TOP require a probabilistic relation; \
                     {} is deterministic",
                    plan.table
                )));
            }
            if let PhysicalAction::Aggregate(agg) = &plan.action {
                validate_aggregate_plan(agg)?;
            }
        }
        match &plan.action {
            PhysicalAction::Rows {
                columns,
                order_by,
                limit,
            } => {
                // An unknown ORDER BY column, then an unknown projected
                // one, errs after the scan, even over no rows.
                let (schema, probabilistic) = (source.schema().clone(), source.probabilistic());
                let ranked = match order_by {
                    Some((c, _)) if !(probabilistic && c == PROB_PSEUDO_COLUMN) => {
                        schema.index_of(c).map(drop)
                    }
                    _ => Ok(()),
                };
                let projection = match ranked.and_then(|()| project(&schema, columns)) {
                    Ok(projection) => projection,
                    Err(e) => {
                        scan::scan(source, plan, self.threads, &mut |_, _| {})?;
                        return Err(e);
                    }
                };
                let rank = order_by
                    .as_ref()
                    .map(|(c, ascending)| (c.as_str(), *ascending));
                let mut out = Rows::new(&plan.table, projection, probabilistic, rank, *limit);
                scan::scan(source, plan, self.threads, &mut |b, sel| out.offer(b, sel))?;
                Ok(Box::new(move || Ok(out.finish().into_output())))
            }
            PhysicalAction::Aggregate(agg) => {
                aggregate(source, plan, agg, self.threads, "exact", exact_tail)
            }
        }
    }
}

/// The output schema and source column indices of a projection (an empty
/// list projects every column).
fn project(schema: &Schema, columns: &[String]) -> Result<(Schema, Vec<usize>), DbError> {
    if columns.is_empty() {
        Ok((schema.clone(), (0..schema.arity()).collect()))
    } else {
        schema.project(columns)
    }
}

/// The error a `WITH WORLDS` statement over a deterministic relation
/// raises, whichever strategy it was planned onto.
fn deterministic_worlds(table: &str) -> DbError {
    DbError::InvalidWorlds(format!(
        "THRESHOLD/TOP/WITH WORLDS require a probabilistic relation; \
         {table} is deterministic"
    ))
}

/// The executor of one run of `clause`, seeded with `seed`. Refuses a
/// clause with no world or a non-positive `CONFIDENCE`.
fn worlds_executor(
    clause: &WorldsClause,
    seed: u64,
    threads: usize,
) -> Result<WorldsExecutor, DbError> {
    WorldsExecutor::new(WorldsConfig {
        max_worlds: clause.worlds,
        seed,
        target_ci: clause.confidence,
        threads,
        ..WorldsConfig::default()
    })
}

/// Trim budget of the row-level `WITH WORLDS` count distribution: the
/// count DP drops at most `2^-60` of probability mass from the far tails,
/// so the answer is within L1 distance `2^-60` (plus rounding) of the
/// untrimmed distribution. A fixed part of the answer (`docs/sql.md`),
/// not an option.
const ROW_COUNT_TRIM: f64 = 1.0 / (1u64 << 60) as f64;

/// `WITH WORLDS` evaluation of a row plan or a `HAVING` statement.
///
/// A row plan is answered in closed form over its restricted domain (see
/// [`domain_closed_form`]): nothing is sampled. A `HAVING` event is
/// sampled by Monte Carlo. Group seeds derive deterministically from the
/// clause seed and the group's canonical-order index (the global group
/// keeps the clause seed itself), and each group runs the batched
/// executor — so results stay bit-identical at every thread count,
/// groups included.
#[derive(Debug, Clone)]
pub(crate) struct WorldsStrategy {
    /// The selecting `WITH WORLDS` clause.
    pub clause: WorldsClause,
    /// Fork-join width of sampling and of the restriction fan-out (0 =
    /// one thread per core); latency only.
    pub threads: usize,
}

impl EvalStrategy for WorldsStrategy {
    fn describe(&self, plan: &PhysicalPlan) -> String {
        let method = match plan.action {
            PhysicalAction::Rows { .. } => {
                "closed forms for row plans, only HAVING events sample; \
                 count distribution within L1 2^-60; "
            }
            PhysicalAction::Aggregate(_) => "Monte-Carlo, ",
        };
        let mut s = format!(
            "worlds ({method}max_worlds={}, seed={}",
            self.clause.worlds,
            self.clause.seed.unwrap_or(0)
        );
        if let Some(eps) = self.clause.confidence {
            s.push_str(&format!(", confidence={eps}"));
        }
        s.push(')');
        s
    }

    fn scan<'p>(&self, source: Source<'_>, plan: &'p PhysicalPlan) -> Result<Finish<'p>, DbError> {
        if !source.probabilistic() {
            return Err(deterministic_worlds(&plan.table));
        }
        let seed = self.clause.seed.unwrap_or(0);
        match &plan.action {
            PhysicalAction::Rows { columns, .. } => {
                // Validate the projection exactly like the exact path —
                // unknown columns error no matter how many are listed.
                let schema = source.schema();
                for col in columns {
                    schema.index_of(col)?;
                }
                // A single projected *numeric* column additionally requests
                // the SUM aggregate over that column (the pre-planner
                // heuristic, kept for compatibility; `SELECT SUM(col) …` is
                // the first-class spelling).
                let sum = match columns.as_slice() {
                    [col] if schema.type_of(col)? != ColumnType::Text => {
                        Some((col.as_str(), schema.index_of(col)?))
                    }
                    _ => None,
                };
                let (mut probs, mut values) = (Vec::new(), Vec::new());
                scan::scan(source, plan, self.threads, &mut |batch, sel| {
                    sel.extend(batch.probs().expect("a probabilistic relation"), &mut probs);
                    if let Some((_, c)) = sum {
                        scan::numbers(batch.values(c), sel, &mut values);
                    }
                })?;
                // Nothing samples, but the clause is refused as when it did.
                worlds_executor(&self.clause, seed, self.threads)?;
                Ok(Box::new(move || {
                    let sum = sum.map(|(c, _)| (c, values.as_slice()));
                    Ok(QueryOutput::Worlds(domain_closed_form(&probs, sum, seed)))
                }))
            }
            PhysicalAction::Aggregate(agg) => {
                let this = self.clone();
                let grouped = agg.window.is_some() || !agg.group_by.is_empty();
                let tail = move |g, h: &HavingClause, p: &[f64], s: Option<(&str, &[f64])>| {
                    this.sample_tail(grouped.then_some(g), h, p, s)
                };
                aggregate(source, plan, agg, self.threads, "worlds", tail)
            }
        }
    }
}

/// The row-level `WITH WORLDS` answer over a restricted domain, from the
/// kernels the exact operators run: `count_mean` is `COUNT(*)`'s `Σp`,
/// `count_variance` `Σp(1 − p)`, `sum` `SUM(col)`'s `Σp·v` with
/// `Σp(1 − p)v²`, `event_probability` `−expm1(Σ ln_1p(−p))`, and
/// `count_distribution` the count DP trimmed to [`ROW_COUNT_TRIM`].
/// `worlds = 0` and every half-width is 0: no world is sampled. `seed`
/// echoes the clause, and `threads` is 1: the folds run on the calling
/// thread.
fn domain_closed_form(probs: &[f64], sum: Option<(&str, &[f64])>, seed: u64) -> WorldsResult {
    let started = Instant::now();
    let (count_mean, count_variance) = count_moments_of(probs);
    let sum = sum.map(|(column, values)| {
        let (mean, variance) = sum_moments_of(probs, values);
        SumEstimate {
            column: column.to_string(),
            mean,
            variance,
            ci_half_width: 0.0,
        }
    });
    WorldsResult {
        worlds: 0,
        matching_tuples: probs.len(),
        seed,
        threads: 1,
        converged: true,
        event_probability: event_probability_of(probs),
        event_ci_half_width: 0.0,
        count_distribution: count_distribution_of(probs, ROW_COUNT_TRIM).0,
        count_mean,
        count_variance,
        count_ci_half_width: 0.0,
        sum,
        wall: started.elapsed(),
    }
}

impl WorldsStrategy {
    /// One group's sampled `HAVING` outcome: a `HAVING SUM` event through
    /// its one tallied column, a `HAVING COUNT` event through the count
    /// histogram it ships. Group `Some(g)`, the `g`-th in canonical order,
    /// samples with the clause seed mixed with `g`; the one group of an
    /// ungrouped statement (`None`) with the clause seed itself.
    fn sample_tail(
        &self,
        group: Option<usize>,
        h: &HavingClause,
        probs: &[f64],
        sum: Option<(&str, &[f64])>,
    ) -> Result<Tail, DbError> {
        let seed = self.clause.seed.unwrap_or(0);
        let seed = group.map_or(seed, |g| mix_seed(seed, g as u64));
        let executor = worlds_executor(&self.clause, seed, self.threads)?;
        let k = h
            .value
            .as_f64()
            .expect("validate_aggregate_plan checked the literal");
        Ok(match sum {
            Some(column) => {
                let event = SumEventSpec {
                    op: h.op,
                    threshold: k,
                };
                let (run, frequency) = executor.run_domain_event(probs, Some(column), Some(event));
                Tail {
                    event_probability: frequency.expect("an event was requested"),
                    count_distribution: None,
                    worlds: Some(run.worlds),
                }
            }
            None => {
                let run = executor.run_domain(probs, None);
                Tail {
                    event_probability: tail_probability(&run.count_distribution, h.op, k),
                    count_distribution: Some(run.count_distribution),
                    worlds: Some(run.worlds),
                }
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Shared physical operators (aggregation)
// ---------------------------------------------------------------------------

/// The result's group-column names: the window label (its canonical
/// `WINDOW(col, width[, origin])` rendering) ahead of the `GROUP BY`
/// columns — matching the key layout [`scan::group_rows`] produces.
fn group_columns_of(plan: &AggregatePlan) -> Vec<String> {
    let window = plan.window.iter().map(WindowSpec::to_string);
    window.chain(plan.group_by.iter().cloned()).collect()
}

/// Checks the invariants [`Planner::plan`] guarantees for plans it built —
/// every column-taking aggregate names a column, and `HAVING` compares
/// `COUNT(*)` against a number. Re-checked at the entry of every aggregate
/// evaluator because the plan structs have public fields: a hand-built
/// [`PhysicalPlan`] fed to [`crate::Database::execute_planned`] must
/// surface [`DbError::Plan`], not panic on the evaluators' internal
/// `expect`s.
fn validate_aggregate_plan(plan: &AggregatePlan) -> Result<(), DbError> {
    for agg in &plan.aggregates {
        match agg.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg | AggFunc::Expected if agg.column.is_none() => {
                return Err(DbError::Plan(format!("{} requires a column", agg.func)));
            }
            _ => {}
        }
    }
    if let Some(w) = &plan.window {
        validate_window(w)?;
    }
    if let Some(h) = &plan.having {
        validate_having(h)?;
    }
    Ok(())
}

/// Validates a `GROUP BY WINDOW(…)` specification: the width must be a
/// positive, finite float (the canonical bucket index divides by it), and
/// an explicit origin must be finite.
fn validate_window(w: &WindowSpec) -> Result<(), DbError> {
    if !(w.width > 0.0) || !w.width.is_finite() {
        return Err(DbError::Plan(format!(
            "WINDOW width must be positive and finite, got {}",
            w.width
        )));
    }
    match w.origin {
        Some(o) if !o.is_finite() => Err(DbError::Plan(format!(
            "WINDOW origin must be finite, got {o}"
        ))),
        _ => Ok(()),
    }
}

/// Validates a `HAVING` event predicate. `COUNT(*)` events evaluate
/// through the Poisson-binomial DP and `SUM(col)` events through the
/// sum-distribution DP ([`sum_distribution_of`]); `AVG`/`EXPECTED` events
/// are ratios without a closed-form distribution and are rejected.
fn validate_having(h: &HavingClause) -> Result<(), DbError> {
    let supported =
        h.agg == AggExpr::count() || (h.agg.func == AggFunc::Sum && h.agg.column.is_some());
    if !supported {
        return Err(DbError::Plan(format!(
            "HAVING supports COUNT(*) and SUM(col) event predicates, got {}",
            h.agg
        )));
    }
    if h.value.as_f64().is_none() {
        return Err(DbError::Plan(format!(
            "HAVING compares {} against a number, got {:?}",
            h.agg, h.value
        )));
    }
    Ok(())
}

/// `P(count op k)` over a count distribution: sums the mass of every
/// count value satisfying the comparison.
fn tail_probability(dist: &[f64], op: crate::query::CmpOp, k: f64) -> f64 {
    let holds = dist
        .iter()
        .enumerate()
        .filter(|&(c, _)| op.eval((c as f64).partial_cmp(&k)));
    holds.fold(0.0, |p, (_, &mass)| p + mass).clamp(0.0, 1.0)
}

/// One group's `HAVING` outcome on a probabilistic relation.
struct Tail {
    /// `P(HAVING predicate)`.
    event_probability: f64,
    /// The count distribution the event was read off (a `HAVING COUNT`
    /// tail only).
    count_distribution: Option<Vec<f64>>,
    /// Worlds sampled (`None` under exact evaluation).
    worlds: Option<usize>,
}

/// The exact `HAVING` outcome of one group: the sum-distribution DP over
/// the `HAVING SUM` column, or the Poisson-binomial count DP. The count DP
/// runs at budget 0 (it trims only exact zeros): a nonzero budget would
/// need its ε reported in the aggregate result.
fn exact_tail(
    _group: usize,
    h: &HavingClause,
    probs: &[f64],
    sum: Option<(&str, &[f64])>,
) -> Result<Tail, DbError> {
    let k = h
        .value
        .as_f64()
        .expect("validate_aggregate_plan checked the literal");
    Ok(match sum {
        Some((_, values)) => Tail {
            event_probability: sum_distribution_of(probs, values)?.tail(h.op, k),
            count_distribution: None,
            worlds: None,
        },
        None => {
            let (dist, _) = count_distribution_of(probs, 0.0);
            Tail {
                event_probability: tail_probability(&dist, h.op, k),
                count_distribution: Some(dist),
                worlds: None,
            }
        }
    })
}

/// Aggregate evaluation over the rows `source` keeps, under every
/// strategy, folded group by group as they arrive ([`scan::aggregate`]).
/// Over a probabilistic relation: O(n) linearity-of-expectation counts,
/// sums and their ratio, and `tail` for a `HAVING` event — given the
/// group's index in canonical order, its probabilities and, for a `HAVING
/// SUM`, the summed column's name and values. Over a deterministic one:
/// classic SQL aggregation, where `HAVING` filters groups (every world is
/// the same world, so the event either holds or does not). A resident
/// relation's groups finish as they close; a stream's after it is released.
fn aggregate<'p>(
    source: Source<'_>,
    plan: &PhysicalPlan,
    agg: &'p AggregatePlan,
    threads: usize,
    strategy: &'static str,
    tail: impl Fn(usize, &HavingClause, &[f64], Option<(&str, &[f64])>) -> Result<Tail, DbError>
        + Send
        + 'p,
) -> Result<Finish<'p>, DbError> {
    let probabilistic = source.probabilistic();
    let operands = scan::operands(agg);
    let invalid = validate_aggregate_plan(agg).err();
    let finish = move |group: usize, g: Folded| -> Result<Option<AggregateGroup>, DbError> {
        let count = if probabilistic { g.mass } else { g.rows as f64 };
        let sum = |col: &Option<String>| {
            let at = operands.iter().position(|c| Some(*c) == col.as_deref());
            g.sums[at.expect("validate_aggregate_plan checked the column")]
        };
        let values = agg
            .aggregates
            .iter()
            .map(|a| AggValue {
                value: match a.func {
                    AggFunc::Count => count,
                    AggFunc::Sum | AggFunc::Expected => sum(&a.column),
                    // `E[SUM] / E[COUNT]`, 0 when the expected count is 0.
                    AggFunc::Avg if count == 0.0 => 0.0,
                    AggFunc::Avg => sum(&a.column) / count,
                },
                ci_half_width: None,
            })
            .collect();
        let mut group_out = AggregateGroup {
            key: Vec::new(),
            values,
            count_distribution: None,
            event_probability: None,
            worlds: None,
        };
        if let Some(h) = &agg.having {
            let summed = (h.agg.func == AggFunc::Sum).then_some(&h.agg.column);
            if probabilistic {
                let sum = summed.map(|c| (c.as_deref().expect("validated"), g.values.as_slice()));
                let tail = tail(group, h, &g.probs, sum)?;
                group_out.count_distribution = tail.count_distribution;
                group_out.event_probability = Some(tail.event_probability);
                group_out.worlds = tail.worlds;
            } else {
                // The comparand is the group's actual COUNT or SUM.
                let comparand = summed.map_or(count, sum);
                let k = h.value.as_f64().expect("a validated literal");
                if !h.op.eval(comparand.partial_cmp(&k)) {
                    return Ok(None);
                }
            }
        }
        group_out.key = g.key;
        Ok(Some(group_out))
    };
    let result = move |groups: Vec<Result<Option<AggregateGroup>, DbError>>| {
        let groups = groups.into_iter().filter_map(Result::transpose);
        Ok(QueryOutput::Aggregate(AggregateResult {
            group_columns: group_columns_of(agg),
            aggregates: agg.aggregates.clone(),
            having: agg.having.clone(),
            strategy,
            groups: groups.collect::<Result<_, _>>()?,
        }))
    };
    if let Source::Resident(_) = source {
        let groups = scan::aggregate(source, plan, agg, threads, invalid, finish);
        let out = result(groups?);
        return Ok(Box::new(move || out));
    }
    let groups = scan::aggregate(source, plan, agg, threads, invalid, |i, g| (i, g))?;
    let groups = groups.into_iter().map(move |(i, g)| finish(i, g));
    Ok(Box::new(move || result(groups.collect())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregates::sum_from_zero;
    use crate::catalog::Relation;
    use crate::table::ProbTable;

    /// `Σp·v`, folded in order from `+0.0`: the mean `sum_moments_of`
    /// returns, bit for bit, without its variance fold.
    fn expected_sum_of(probs: &[f64], values: &[f64]) -> f64 {
        assert_eq!(probs.len(), values.len(), "values parallel to probs");
        probs
            .iter()
            .zip(values)
            .fold(0.0, |acc, (&p, &v)| acc + p * v)
    }
    use crate::query::CmpOp;
    use crate::sql::parse;
    use crate::table::Table;
    use crate::value::ColumnType;
    use proptest::prelude::*;

    fn plan_sql(sql: &str) -> PlannedQuery {
        match parse(sql).unwrap() {
            crate::sql::Statement::Select(sel) => Planner::plan(&sel).unwrap(),
            other => panic!("not a SELECT: {other:?}"),
        }
    }

    fn plan_err(sql: &str) -> DbError {
        match parse(sql).unwrap() {
            crate::sql::Statement::Select(sel) => Planner::plan(&sel).unwrap_err(),
            other => panic!("not a SELECT: {other:?}"),
        }
    }

    #[test]
    fn row_query_plans_the_full_pipeline() {
        let planned = plan_sql(
            "SELECT room FROM pv WHERE time = 1 THRESHOLD 0.25 TOP 3 \
             ORDER BY prob DESC LIMIT 2",
        );
        let rendered = planned.logical.to_string();
        assert!(rendered.starts_with("Project [room]"), "{rendered}");
        for node in ["Limit 2", "Sort prob DESC", "TopK k=3", "Threshold τ=0.25"] {
            assert!(rendered.contains(node), "{rendered} missing {node}");
        }
        assert!(rendered.trim_end().ends_with("Scan pv"), "{rendered}");
        assert_eq!(
            planned.strategy,
            StrategyKind::Exact {
                probabilistic_only: false
            }
        );
        match &planned.physical.action {
            PhysicalAction::Rows { columns, .. } => assert_eq!(columns, &["room".to_string()]),
            other => panic!("wrong action: {other:?}"),
        }
    }

    #[test]
    fn aggregate_query_plans_an_aggregate_node() {
        let planned =
            plan_sql("SELECT g, COUNT(*), SUM(r) FROM pv GROUP BY g HAVING COUNT(*) >= 2 WITH WORLDS 100 SEED 4");
        let rendered = planned.logical.to_string();
        assert!(
            rendered.starts_with("Aggregate [COUNT(*), SUM(r)] GROUP BY g HAVING COUNT(*) >= 2"),
            "{rendered}"
        );
        assert!(matches!(planned.strategy, StrategyKind::Worlds(_)));
        let physical = planned.physical.to_string();
        assert!(physical.contains("aggregate("), "{physical}");
    }

    #[test]
    fn planner_rejects_invalid_shapes() {
        // Plain projected column not in GROUP BY.
        assert!(matches!(
            plan_err("SELECT room, COUNT(*) FROM pv"),
            DbError::Plan(_)
        ));
        // GROUP BY without aggregates.
        assert!(matches!(
            plan_err("SELECT room FROM pv GROUP BY room"),
            DbError::Plan(_)
        ));
        // HAVING without aggregates.
        assert!(matches!(
            plan_err("SELECT room FROM pv HAVING COUNT(*) >= 1"),
            DbError::Plan(_)
        ));
        // ORDER BY on an aggregate query.
        assert!(matches!(
            plan_err("SELECT COUNT(*) FROM pv ORDER BY room"),
            DbError::Plan(_)
        ));
        // HAVING over an aggregate without a count/sum distribution.
        assert!(matches!(
            plan_err("SELECT COUNT(*) FROM pv HAVING AVG(r) >= 1"),
            DbError::Plan(_)
        ));
        // WITH WORLDS and WITH SYNOPSIS cannot combine (hand-built; the
        // parser already rejects a second WITH clause).
        let mut sel = match parse("SELECT COUNT(*) FROM pv WITH WORLDS 10").unwrap() {
            crate::sql::Statement::Select(sel) => sel,
            other => panic!("not a SELECT: {other:?}"),
        };
        sel.synopsis = Some(crate::sql::SynopsisClause {
            buckets: None,
            max_error: None,
        });
        assert!(matches!(Planner::plan(&sel), Err(DbError::Plan(_))));
        // HAVING against text.
        assert!(matches!(
            plan_err("SELECT COUNT(*) FROM pv HAVING COUNT(*) >= 'two'"),
            DbError::Plan(_)
        ));
        // ORDER BY with WITH WORLDS keeps its historical error type.
        assert!(matches!(
            plan_err("SELECT * FROM pv ORDER BY prob WITH WORLDS 10"),
            DbError::InvalidWorlds(_)
        ));
    }

    fn fig1() -> ProbTable {
        let schema = Schema::of(&[("time", ColumnType::Int), ("room", ColumnType::Int)]);
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
        v
    }

    fn run(sql: &str, rel: &Relation) -> QueryOutput {
        let planned = plan_sql(sql);
        planned
            .strategy_with_context(1)
            .execute(Source::Resident(rel), &planned.physical)
            .unwrap()
    }

    #[test]
    fn exact_count_and_grouped_sum() {
        let rel = Relation::Probabilistic(fig1());
        // Global expected count: Σp = 1.6.
        let out = run("SELECT COUNT(*) FROM pv", &rel);
        let agg = match &out {
            QueryOutput::Aggregate(a) => a,
            other => panic!("wrong output: {other:?}"),
        };
        assert_eq!(agg.strategy, "exact");
        assert_eq!(agg.groups.len(), 1);
        assert!((agg.groups[0].values[0].value - 1.6).abs() < 1e-12);
        // The always-true tail `HAVING COUNT(*) >= 0` attaches the exact
        // Poisson-binomial distribution.
        let out = run("SELECT COUNT(*) FROM pv HAVING COUNT(*) >= 0", &rel);
        let agg = match &out {
            QueryOutput::Aggregate(a) => a,
            other => panic!("wrong output: {other:?}"),
        };
        let dist = agg.groups[0].count_distribution.as_ref().unwrap();
        assert_eq!(dist.len(), 7);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-12);

        // Grouped by time: E[Σ room | t=1] = 2.0, E[Σ room | t=2] = 1.0.
        let out = run("SELECT time, SUM(room) FROM pv GROUP BY time", &rel);
        let agg = match &out {
            QueryOutput::Aggregate(a) => a,
            other => panic!("wrong output: {other:?}"),
        };
        assert_eq!(agg.groups.len(), 2);
        assert_eq!(agg.groups[0].key, vec![Value::Int(1)]);
        assert!((agg.groups[0].values[0].value - 2.0).abs() < 1e-12);
        assert_eq!(agg.groups[1].key, vec![Value::Int(2)]);
        assert!((agg.groups[1].values[0].value - 1.0).abs() < 1e-12);
    }

    /// Every strategy attaches a group's count distribution iff the plan
    /// carries a `HAVING COUNT` tail; `COUNT(*)` alone is Σp.
    #[test]
    fn only_a_having_count_tail_attaches_the_count_distribution() {
        let rel = Relation::Probabilistic(fig1());
        // `WITH SYNOPSIS` is answered exactly.
        for (filter, clause, strategy) in [
            ("", "", "exact"),
            ("", "WITH WORLDS 500 SEED 3", "worlds"),
            ("WHERE time >= 1", "WITH SYNOPSIS", "exact"),
        ] {
            let render = |shape: &str| format!("{} {clause}", shape.replace("{where}", filter));
            for shape in [
                "SELECT COUNT(*) FROM pv {where}",
                "SELECT time, COUNT(*) FROM pv {where} GROUP BY time",
                "SELECT COUNT(*), SUM(room) FROM pv {where} HAVING SUM(room) >= 2",
            ] {
                let sql = render(shape);
                for g in &run_agg(&sql, &rel).groups {
                    assert!(g.count_distribution.is_none(), "{sql}: {g:?}");
                }
            }
            for (shape, sizes) in [
                (
                    "SELECT COUNT(*) FROM pv {where} HAVING COUNT(*) >= 2",
                    &[7][..],
                ),
                (
                    "SELECT time, SUM(room) FROM pv {where} GROUP BY time HAVING COUNT(*) >= 1",
                    &[5, 3][..],
                ),
            ] {
                let sql = render(shape);
                let agg = run_agg(&sql, &rel);
                assert_eq!(agg.strategy, strategy, "{sql}");
                let got: Vec<usize> = agg
                    .groups
                    .iter()
                    .map(|g| {
                        let dist = g.count_distribution.as_ref().expect(&sql);
                        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-12, "{sql}");
                        dist.len()
                    })
                    .collect();
                assert_eq!(got, sizes, "{sql}");
            }
        }
    }

    #[test]
    fn an_empty_selection_aggregates_to_positive_zero() {
        let rel = Relation::Probabilistic(fig1());
        let sql = "SELECT COUNT(*), SUM(room), AVG(room) FROM pv WHERE time < 0";
        for clause in ["", "WITH WORLDS 100 SEED 1", "WITH SYNOPSIS"] {
            let agg = run_agg(&format!("{sql} {clause}"), &rel);
            assert_eq!(agg.groups.len(), 1, "{clause}");
            for v in &agg.groups[0].values {
                assert_eq!(v.value.to_bits(), 0.0f64.to_bits(), "{clause}: {v:?}");
            }
        }
        assert_eq!(
            ProbTable::new("e", Schema::of(&[]))
                .expected_count()
                .to_bits(),
            0
        );

        let mut table = Table::new("d", Schema::of(&[("x", ColumnType::Float)]));
        table.insert(vec![Value::Float(0.5)]).unwrap();
        let agg = run_agg(
            "SELECT SUM(x), AVG(x) FROM d WHERE x > 1",
            &Relation::Deterministic(table),
        );
        for v in &agg.groups[0].values {
            assert_eq!(v.value.to_bits(), 0.0f64.to_bits(), "{v:?}");
        }
    }

    #[test]
    fn exact_having_reports_event_probability() {
        let rel = Relation::Probabilistic(fig1());
        let out = run(
            "SELECT COUNT(*) FROM pv WHERE time = 1 HAVING COUNT(*) >= 1",
            &rel,
        );
        let agg = match &out {
            QueryOutput::Aggregate(a) => a,
            other => panic!("wrong output: {other:?}"),
        };
        // P(count ≥ 1) = 1 − 0.5·0.9·0.7·0.9 = 0.7165.
        let p = agg.groups[0].event_probability.unwrap();
        assert!((p - 0.7165).abs() < 1e-12, "got {p}");
    }

    #[test]
    fn windowed_exact_aggregates_bucket_canonically() {
        let rel = Relation::Probabilistic(fig1());
        // Width 2 from origin 0 over time ∈ {1, 2}: bucket [0, 2) holds the
        // four t=1 tuples, bucket [2, 4) the two t=2 tuples.
        let out = run(
            "SELECT COUNT(*), SUM(room) FROM pv GROUP BY WINDOW(time, 2)",
            &rel,
        );
        let agg = out.aggregate().unwrap();
        assert_eq!(agg.group_columns, vec!["WINDOW(time, 2.0)".to_string()]);
        assert_eq!(agg.groups.len(), 2);
        assert_eq!(agg.groups[0].key, vec![Value::Float(0.0)]);
        assert!((agg.groups[0].values[0].value - 1.0).abs() < 1e-12); // Σp at t=1
        assert!((agg.groups[0].values[1].value - 2.0).abs() < 1e-12); // E[Σ room | t=1]
        assert_eq!(agg.groups[1].key, vec![Value::Float(2.0)]);
        assert!((agg.groups[1].values[0].value - 0.6).abs() < 1e-12);
        assert!((agg.groups[1].values[1].value - 1.0).abs() < 1e-12);

        // An origin shifts the alignment: width 2 from origin 1 puts both
        // timestamps into the single bucket [1, 3).
        let out = run("SELECT COUNT(*) FROM pv GROUP BY WINDOW(time, 2, 1)", &rel);
        let agg = out.aggregate().unwrap();
        assert_eq!(agg.groups.len(), 1);
        assert_eq!(agg.groups[0].key, vec![Value::Float(1.0)]);
        assert!((agg.groups[0].values[0].value - 1.6).abs() < 1e-12);
    }

    #[test]
    fn window_composes_with_group_by_columns() {
        let rel = Relation::Probabilistic(fig1());
        let out = run(
            "SELECT room, COUNT(*) FROM pv GROUP BY WINDOW(time, 2), room",
            &rel,
        );
        let agg = out.aggregate().unwrap();
        assert_eq!(
            agg.group_columns,
            vec!["WINDOW(time, 2.0)".to_string(), "room".to_string()]
        );
        // Bucket [0, 2) has rooms 1–4, bucket [2, 4) rooms 1–2: 6 groups in
        // canonical (bucket, room) order.
        assert_eq!(agg.groups.len(), 6);
        assert_eq!(agg.groups[0].key, vec![Value::Float(0.0), Value::Int(1)]);
        assert_eq!(
            agg.groups.last().unwrap().key,
            vec![Value::Float(2.0), Value::Int(2)]
        );
    }

    #[test]
    fn windowed_having_reports_per_bucket_event_probability() {
        let rel = Relation::Probabilistic(fig1());
        let out = run(
            "SELECT COUNT(*) FROM pv GROUP BY WINDOW(time, 2) HAVING COUNT(*) >= 1",
            &rel,
        );
        let agg = out.aggregate().unwrap();
        assert_eq!(agg.groups.len(), 2);
        // Bucket [0, 2): 1 − 0.5·0.9·0.7·0.9 = 0.7165; bucket [2, 4):
        // 1 − 0.8·0.6 = 0.52.
        let p0 = agg.groups[0].event_probability.unwrap();
        let p1 = agg.groups[1].event_probability.unwrap();
        assert!((p0 - 0.7165).abs() < 1e-12, "got {p0}");
        assert!((p1 - 0.52).abs() < 1e-12, "got {p1}");
    }

    #[test]
    fn windowed_worlds_aggregates_are_thread_invariant_and_converge() {
        assert_worlds_tail_converges(
            "SELECT COUNT(*), SUM(room) FROM pv GROUP BY WINDOW(time, 2) HAVING COUNT(*) >= 1",
            "WITH WORLDS 40000 SEED 21",
        );
    }

    #[test]
    fn windowed_deterministic_aggregates_follow_sql_semantics() {
        let schema = Schema::of(&[("x", ColumnType::Float), ("v", ColumnType::Int)]);
        let mut t = Table::new("t", schema);
        // Negative values exercise the floor (not truncate-toward-zero)
        // bucket index: −0.5 lands in bucket [−5, 0), not [0, 5).
        for (x, v) in [(-0.5, 1), (1.0, 2), (4.9, 3), (5.0, 4), (12.0, 5)] {
            t.insert(vec![Value::Float(x), Value::Int(v)]).unwrap();
        }
        let rel = Relation::Deterministic(t);
        let out = run(
            "SELECT COUNT(*), SUM(v) FROM t GROUP BY WINDOW(x, 5) HAVING COUNT(*) >= 2",
            &rel,
        );
        let agg = out.aggregate().unwrap();
        // Buckets: [−5, 0) → {1}, [0, 5) → {2, 3}, [5, 10) → {4},
        // [10, 15) → {5}; HAVING keeps only [0, 5).
        assert_eq!(agg.groups.len(), 1);
        assert_eq!(agg.groups[0].key, vec![Value::Float(0.0)]);
        assert_eq!(agg.groups[0].values[0].value, 2.0);
        assert_eq!(agg.groups[0].values[1].value, 5.0);
    }

    #[test]
    fn window_over_text_column_errors() {
        let schema = Schema::of(&[("tag", ColumnType::Text)]);
        let mut v = ProbTable::new("pv", schema);
        v.insert(vec![Value::from("a")], 0.5).unwrap();
        let rel = Relation::Probabilistic(v);
        let planned = plan_sql("SELECT COUNT(*) FROM pv GROUP BY WINDOW(tag, 2)");
        let err = planned
            .strategy_with_context(1)
            .execute(Source::Resident(&rel), &planned.physical)
            .unwrap_err();
        assert!(matches!(err, DbError::TypeMismatch { .. }));
    }

    #[test]
    fn window_plans_render_in_logical_and_physical_form() {
        let planned = plan_sql(
            "SELECT COUNT(*) FROM pv WHERE room = 1 GROUP BY WINDOW(time, 2.5, 1) \
             WITH WORLDS 100 SEED 3",
        );
        let logical = planned.logical.to_string();
        assert!(
            logical.contains("Window time width=2.5 origin=1"),
            "{logical}"
        );
        assert!(
            logical.starts_with("Aggregate [COUNT(*)]"),
            "window sits below the aggregate: {logical}"
        );
        let physical = planned.physical.to_string();
        assert!(
            physical.contains("window=WINDOW(time, 2.5, 1.0)"),
            "{physical}"
        );
        // Windows without aggregates have no plan.
        assert!(matches!(
            plan_err("SELECT room FROM pv GROUP BY WINDOW(time, 2)"),
            DbError::Plan(_)
        ));
    }

    #[test]
    fn having_sum_executes_exactly() {
        let rel = Relation::Probabilistic(fig1());
        // At time 2: room 1 (p=0.2) and room 2 (p=0.4). SUM(room) ≥ 2 holds
        // exactly when room 2 is present: P = 0.4.
        let out = run(
            "SELECT COUNT(*) FROM pv WHERE time = 2 HAVING SUM(room) >= 2",
            &rel,
        );
        let agg = match &out {
            QueryOutput::Aggregate(a) => a,
            other => panic!("wrong output: {other:?}"),
        };
        assert_eq!(agg.strategy, "exact");
        let g = &agg.groups[0];
        assert!((g.values[0].value - 0.6).abs() < 1e-12);
        assert!(
            (g.event_probability.unwrap() - 0.4).abs() < 1e-12,
            "P(SUM(room) >= 2) = {:?}",
            g.event_probability
        );
        // The HAVING SUM column need not be projected, and the event works
        // per group.
        let out = run(
            "SELECT time, COUNT(*) FROM pv GROUP BY time HAVING SUM(room) >= 2",
            &rel,
        );
        let agg = match &out {
            QueryOutput::Aggregate(a) => a,
            other => panic!("wrong output: {other:?}"),
        };
        assert_eq!(agg.groups.len(), 2);
        // Time 1: SUM(room) < 2 iff nothing or only room 1 is present.
        let p_lt2 = 0.5 * 0.9 * 0.7 * 0.9 * 2.0;
        assert!((agg.groups[0].event_probability.unwrap() - (1.0 - p_lt2)).abs() < 1e-12);
        assert!((agg.groups[1].event_probability.unwrap() - 0.4).abs() < 1e-12);
        // HAVING SUM does not force the count DP when COUNT isn't asked.
        let out = run("SELECT SUM(room) FROM pv HAVING SUM(room) >= 2", &rel);
        let agg = match &out {
            QueryOutput::Aggregate(a) => a,
            other => panic!("wrong output: {other:?}"),
        };
        assert!(agg.groups[0].count_distribution.is_none());
        assert!(agg.groups[0].event_probability.is_some());
    }

    #[test]
    fn having_sum_over_non_finite_values_follows_the_worlds_semantics() {
        let inf = f64::INFINITY;
        let groups: [&[(f64, f64)]; 4] = [
            &[(1.0, 0.5), (inf, 0.5), (2.0, 0.5)],
            &[(1.0, 0.5), (f64::NAN, 0.3), (2.0, 0.6), (-3.0, 0.4)],
            &[(inf, 0.3), (-inf, 0.6), (2.0, 0.5), (1.5, 0.8)],
            &[
                (f64::NAN, 0.2),
                (inf, 0.4),
                (-inf, 0.7),
                (0.25, 0.5),
                (4.0, 0.9),
            ],
        ];
        let schema = Schema::of(&[("g", ColumnType::Int), ("x", ColumnType::Float)]);
        let mut t = ProbTable::new("bp", schema);
        for (g, tuples) in groups.iter().enumerate() {
            for &(x, p) in *tuples {
                t.insert(vec![Value::Int(g as i64), Value::Float(x)], p)
                    .unwrap();
            }
        }
        let rel = Relation::Probabilistic(t);
        let events = |sql: &str| -> Vec<f64> {
            match run(sql, &rel) {
                QueryOutput::Aggregate(a) => a
                    .groups
                    .iter()
                    .map(|g| g.event_probability.unwrap())
                    .collect(),
                other => panic!("wrong output: {other:?}"),
            }
        };
        // x = 1, +∞, 2 at p = 1/2: finite (uniform on {0..3}) or +∞.
        let ge2 = events("SELECT g, COUNT(*) FROM bp GROUP BY g HAVING SUM(x) >= 2");
        assert_eq!(ge2[0], 0.75);
        let le100 = events("SELECT g, COUNT(*) FROM bp GROUP BY g HAVING SUM(x) <= 100");
        assert_eq!(le100[0], 0.5);
        // Every mix agrees with sampling within 5 standard errors.
        for having in ["SUM(x) >= 2", "SUM(x) <= 100", "SUM(x) > 0", "SUM(x) <> 1"] {
            let sql = format!("SELECT g, COUNT(*) FROM bp GROUP BY g HAVING {having}");
            let exact = events(&sql);
            let mc = events(&format!("{sql} WITH WORLDS 20000 SEED 1"));
            for (g, (&e, &m)) in exact.iter().zip(&mc).enumerate() {
                let se = (e * (1.0 - e) / 20_000.0).sqrt().max(1e-4);
                assert!(
                    (e - m).abs() <= 5.0 * se,
                    "group {g}, {having}: exact {e} vs worlds {m}"
                );
            }
        }
    }

    #[test]
    fn having_sum_filters_deterministic_groups() {
        let schema = Schema::of(&[("g", ColumnType::Int), ("x", ColumnType::Int)]);
        let mut t = Table::new("t", schema);
        for (g, x) in [(1, 1), (1, 2), (2, 4), (2, 5)] {
            t.insert(vec![Value::Int(g), Value::Int(x)]).unwrap();
        }
        let rel = Relation::Deterministic(t);
        let out = run(
            "SELECT g, COUNT(*) FROM t GROUP BY g HAVING SUM(x) >= 5",
            &rel,
        );
        let agg = match &out {
            QueryOutput::Aggregate(a) => a,
            other => panic!("wrong output: {other:?}"),
        };
        // Group 1 sums to 3 and is filtered; group 2 sums to 9 and stays.
        assert_eq!(agg.groups.len(), 1);
        assert_eq!(agg.groups[0].key, vec![Value::Int(2)]);
        assert_eq!(agg.groups[0].event_probability, None);
    }

    #[test]
    fn avg_and_expected_are_consistent() {
        let rel = Relation::Probabilistic(fig1());
        let out = run(
            "SELECT AVG(room), EXPECTED(room), COUNT(*) FROM pv WHERE time = 1",
            &rel,
        );
        let agg = match &out {
            QueryOutput::Aggregate(a) => a,
            other => panic!("wrong output: {other:?}"),
        };
        let avg = agg.groups[0].values[0].value;
        let expected = agg.groups[0].values[1].value;
        let count = agg.groups[0].values[2].value;
        assert!((expected - 2.0).abs() < 1e-12);
        assert!((avg - expected / count).abs() < 1e-12);
    }

    /// Runs `sql` with the `WITH WORLDS` `clause` at widths 1 and 8 and
    /// checks what sampling still decides: the answer is the same bits at
    /// both widths, the aggregate values are the exact strategy's bits,
    /// and the sampled event (and count histogram, for a `HAVING COUNT`)
    /// converges to the exact one.
    fn assert_worlds_tail_converges(sql: &str, clause: &str) {
        let rel = Relation::Probabilistic(fig1());
        let planned = plan_sql(&format!("{sql} {clause}"));
        let run_at = |threads| match planned
            .strategy_with_context(threads)
            .execute(Source::Resident(&rel), &planned.physical)
            .unwrap()
        {
            QueryOutput::Aggregate(a) => a,
            other => panic!("wrong output: {other:?}"),
        };
        let (one, eight) = (run_at(1), run_at(8));
        assert_eq!(
            one.fingerprint(),
            eight.fingerprint(),
            "thread count changed {sql}"
        );
        assert_eq!(one.strategy, "worlds", "{sql}");
        let exact = run_agg(sql, &rel);
        assert_eq!(one.groups.len(), exact.groups.len(), "{sql}");
        for (mc, ex) in one.groups.iter().zip(&exact.groups) {
            assert_eq!(mc.key, ex.key, "group keys must align");
            assert_eq!(mc.values, ex.values, "{sql}: values are closed forms");
            assert!(mc.worlds.is_some(), "{sql}");
            let (mp, ep) = (mc.event_probability.unwrap(), ex.event_probability.unwrap());
            assert!((mp - ep).abs() < 0.02, "{sql}: event MC {mp} vs exact {ep}");
            match (&mc.count_distribution, &ex.count_distribution) {
                (Some(m), Some(e)) => {
                    assert_eq!(m.len(), e.len(), "{sql}");
                    for (a, b) in m.iter().zip(e) {
                        assert!((a - b).abs() < 0.02, "{sql}: histogram {m:?} vs {e:?}");
                    }
                }
                (None, None) => {}
                other => panic!("{sql}: count distributions differ in shape: {other:?}"),
            }
        }
    }

    #[test]
    fn worlds_aggregates_converge_and_are_thread_invariant() {
        for sql in [
            "SELECT time, COUNT(*), SUM(room) FROM pv GROUP BY time HAVING COUNT(*) >= 1",
            "SELECT COUNT(*), AVG(room) FROM pv WHERE room <= 3 HAVING COUNT(*) >= 2",
            "SELECT time, COUNT(*), SUM(room) FROM pv GROUP BY time HAVING SUM(room) >= 2",
            "SELECT EXPECTED(room) FROM pv HAVING SUM(room) < 4",
        ] {
            assert_worlds_tail_converges(sql, "WITH WORLDS 40000 SEED 11");
        }
    }

    #[test]
    fn deterministic_aggregates_follow_sql_semantics() {
        let schema = Schema::of(&[("g", ColumnType::Int), ("x", ColumnType::Float)]);
        let mut t = Table::new("t", schema);
        for (g, x) in [(1, 1.0), (1, 3.0), (2, 10.0)] {
            t.insert(vec![Value::Int(g), Value::Float(x)]).unwrap();
        }
        let rel = Relation::Deterministic(t);
        let out = run(
            "SELECT g, COUNT(*), SUM(x), AVG(x) FROM t GROUP BY g HAVING COUNT(*) >= 2",
            &rel,
        );
        let agg = match &out {
            QueryOutput::Aggregate(a) => a,
            other => panic!("wrong output: {other:?}"),
        };
        // HAVING filtered group g=2 away.
        assert_eq!(agg.groups.len(), 1);
        assert_eq!(agg.groups[0].key, vec![Value::Int(1)]);
        assert_eq!(agg.groups[0].values[0].value, 2.0);
        assert_eq!(agg.groups[0].values[1].value, 4.0);
        assert_eq!(agg.groups[0].values[2].value, 2.0);
        assert_eq!(agg.groups[0].event_probability, None);
    }

    #[test]
    fn text_column_aggregates_error() {
        let schema = Schema::of(&[("tag", ColumnType::Text)]);
        let mut v = ProbTable::new("pv", schema);
        v.insert(vec![Value::from("a")], 0.5).unwrap();
        let rel = Relation::Probabilistic(v);
        let planned = plan_sql("SELECT SUM(tag) FROM pv");
        let err = planned
            .strategy_with_context(1)
            .execute(Source::Resident(&rel), &planned.physical)
            .unwrap_err();
        assert!(matches!(err, DbError::TypeMismatch { .. }));
    }

    #[test]
    fn hand_built_invalid_plans_error_instead_of_panicking() {
        // The plan structs have public fields, so execute_planned can see
        // shapes Planner::plan would never emit — they must surface
        // DbError::Plan, not hit the evaluators' internal expects.
        let rel = Relation::Probabilistic(fig1());
        let det = Relation::Deterministic(Table::new("t", Schema::of(&[("g", ColumnType::Int)])));
        let broken = [
            AggregatePlan {
                window: None,
                group_by: Vec::new(),
                aggregates: vec![AggExpr {
                    func: AggFunc::Sum,
                    column: None, // SUM without a column
                }],
                having: None,
            },
            AggregatePlan {
                window: None,
                group_by: Vec::new(),
                aggregates: vec![AggExpr::count()],
                having: Some(HavingClause {
                    agg: AggExpr::count(),
                    op: CmpOp::Ge,
                    value: Value::from("two"), // text literal
                }),
            },
            AggregatePlan {
                window: Some(crate::sql::WindowSpec {
                    column: "time".into(),
                    width: 0.0, // the parser would reject this width
                    origin: None,
                }),
                group_by: Vec::new(),
                aggregates: vec![AggExpr::count()],
                having: None,
            },
            AggregatePlan {
                window: Some(crate::sql::WindowSpec {
                    column: "time".into(),
                    width: 1.0,
                    origin: Some(f64::INFINITY), // non-finite origin
                }),
                group_by: Vec::new(),
                aggregates: vec![AggExpr::count()],
                having: None,
            },
        ];
        for agg_plan in broken {
            let physical = PhysicalPlan {
                table: "pv".into(),
                predicate: Vec::new(),
                threshold: None,
                top: None,
                action: PhysicalAction::Aggregate(agg_plan),
            };
            for (strategy, relation) in [
                (
                    Box::new(ExactStrategy::default()) as Box<dyn EvalStrategy>,
                    &rel,
                ),
                (
                    Box::new(ExactStrategy::default()) as Box<dyn EvalStrategy>,
                    &det,
                ),
                (
                    Box::new(WorldsStrategy {
                        clause: WorldsClause {
                            worlds: 64,
                            seed: None,
                            confidence: None,
                        },
                        threads: 1,
                    }) as Box<dyn EvalStrategy>,
                    &rel,
                ),
            ] {
                assert!(
                    matches!(
                        strategy.execute(Source::Resident(relation), &physical),
                        Err(DbError::Plan(_))
                    ),
                    "{} accepted an invalid plan",
                    strategy.describe(&physical)
                );
            }
        }
    }

    #[test]
    fn tail_probability_covers_all_operators() {
        let dist = [0.25, 0.25, 0.5]; // P(0), P(1), P(2)
        assert!((tail_probability(&dist, CmpOp::Ge, 1.0) - 0.75).abs() < 1e-12);
        assert!((tail_probability(&dist, CmpOp::Gt, 1.0) - 0.5).abs() < 1e-12);
        assert!((tail_probability(&dist, CmpOp::Le, 1.0) - 0.5).abs() < 1e-12);
        assert!((tail_probability(&dist, CmpOp::Lt, 1.0) - 0.25).abs() < 1e-12);
        assert!((tail_probability(&dist, CmpOp::Eq, 1.0) - 0.25).abs() < 1e-12);
        assert!((tail_probability(&dist, CmpOp::Ne, 1.0) - 0.75).abs() < 1e-12);
        // A fractional threshold: P(count ≥ 1.5) = P(count = 2).
        assert!((tail_probability(&dist, CmpOp::Ge, 1.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn explain_report_renders_all_sections() {
        let planned =
            plan_sql("SELECT COUNT(*) FROM pv HAVING COUNT(*) >= 1 WITH WORLDS 500 SEED 2");
        let report = ExplainReport {
            relation: "pv: probabilistic (6 tuples)".into(),
            logical: planned.logical.to_string(),
            physical: planned.physical.to_string(),
            strategy: planned.strategy_with_context(0).describe(&planned.physical),
        };
        let text = report.to_string();
        assert!(text.contains("Aggregate [COUNT(*)]"), "{text}");
        assert!(text.contains("Scan pv"), "{text}");
        assert!(text.contains("strategy: worlds"), "{text}");
        assert!(text.contains("max_worlds=500"), "{text}");
        assert!(text.contains("seed=2"), "{text}");
    }

    #[test]
    fn predicate_in_plan_display_names_comparisons() {
        let planned = plan_sql("SELECT * FROM pv WHERE room = 2 AND prob >= 0.1");
        let rendered = planned.logical.to_string();
        assert!(
            rendered.contains("Filter room = 2 AND prob >= 0.1"),
            "{rendered}"
        );
    }

    /// A synthetic view with deterministic contents: `t` counts up, `r`
    /// ramps, probabilities cycle over [0, 0.96].
    fn synth(n: usize) -> ProbTable {
        let schema = Schema::of(&[("t", ColumnType::Int), ("r", ColumnType::Float)]);
        let mut v = ProbTable::new("pv", schema);
        for i in 0..n {
            let p = ((i * 37) % 97) as f64 / 100.0;
            v.insert(vec![Value::Int(i as i64), Value::Float(i as f64 * 0.25)], p)
                .unwrap();
        }
        v
    }

    fn run_agg(sql: &str, rel: &Relation) -> AggregateResult {
        match run(sql, rel) {
            QueryOutput::Aggregate(a) => a,
            other => panic!("wrong output: {other:?}"),
        }
    }

    #[test]
    fn with_synopsis_plans_onto_the_exact_strategy() {
        for sql in [
            "SELECT COUNT(*) FROM pv WITH SYNOPSIS",
            "SELECT COUNT(*) FROM pv WITH SYNOPSIS BUCKETS 8 MAXERROR 0.5",
        ] {
            let planned = plan_sql(sql);
            assert_eq!(
                planned.strategy,
                StrategyKind::Exact {
                    probabilistic_only: false
                },
                "{sql}"
            );
            let strategy = planned.strategy_with_context(0);
            assert_eq!(
                strategy.describe(&planned.physical),
                ExactStrategy::default().describe(&planned.physical)
            );
        }
    }

    /// Every statement carrying `WITH SYNOPSIS` answers what the statement
    /// without the clause answers, bit for bit, whatever its bucket count
    /// or error bound, on the O(1) totals path and the scan path alike.
    #[test]
    fn with_synopsis_answers_equal_the_clause_free_statement() {
        let rel = Relation::Probabilistic(synth(200));
        for sql in [
            "SELECT COUNT(*), SUM(r), AVG(r), EXPECTED(r) FROM pv",
            "SELECT COUNT(*) FROM pv THRESHOLD 0.25",
            "SELECT COUNT(*), SUM(r) FROM pv THRESHOLD 0.33",
            "SELECT COUNT(*), SUM(t) FROM pv GROUP BY WINDOW(t, 16)",
            "SELECT COUNT(*) FROM pv WHERE t < 40 HAVING COUNT(*) >= 10",
            "SELECT COUNT(*) FROM pv TOP 3",
            "SELECT t, COUNT(*) FROM pv WHERE t < 5 GROUP BY t",
            "SELECT COUNT(*) FROM pv HAVING SUM(r) >= 2",
            "SELECT r FROM pv WHERE t < 4",
        ] {
            let bits = |out: QueryOutput| match out {
                QueryOutput::Aggregate(a) => a.fingerprint(),
                other => format!("{other:?}"),
            };
            let want = bits(run(sql, &rel));
            for clause in [
                "WITH SYNOPSIS",
                "WITH SYNOPSIS BUCKETS 65",
                "WITH SYNOPSIS BUCKETS 4 MAXERROR 0.000001",
            ] {
                assert_eq!(
                    bits(run(&format!("{sql} {clause}"), &rel)),
                    want,
                    "{sql} {clause}"
                );
            }
        }
    }

    /// `WITH WORLDS` over an aggregate without `HAVING` is planned onto
    /// the exact strategy, and still validated as a `WITH WORLDS` clause.
    #[test]
    fn with_worlds_expectations_plan_onto_the_exact_strategy() {
        let lowered = StrategyKind::Exact {
            probabilistic_only: true,
        };
        for sql in [
            "SELECT COUNT(*) FROM pv WITH WORLDS 100",
            "SELECT g, SUM(r), AVG(r) FROM pv GROUP BY g WITH WORLDS 10 SEED 3 CONFIDENCE 0.5",
        ] {
            let planned = plan_sql(sql);
            assert_eq!(planned.strategy, lowered, "{sql}");
            let strategy = planned.strategy_with_context(0);
            assert_eq!(
                strategy.describe(&planned.physical),
                ExactStrategy::default().describe(&planned.physical)
            );
        }
        for sql in [
            "SELECT * FROM pv WITH WORLDS 100",
            "SELECT r FROM pv WHERE t < 3 WITH WORLDS 100",
            "SELECT COUNT(*) FROM pv HAVING COUNT(*) >= 1 WITH WORLDS 100",
            "SELECT SUM(r) FROM pv GROUP BY g HAVING SUM(r) >= 1 WITH WORLDS 100",
        ] {
            assert!(
                matches!(plan_sql(sql).strategy, StrategyKind::Worlds(_)),
                "{sql} stays on the worlds strategy"
            );
        }
        // A hand-built clause the parser would refuse keeps its typed error.
        for (worlds, confidence) in [(0, None), (10, Some(0.0)), (10, Some(-1.0))] {
            let mut sel = match parse("SELECT COUNT(*) FROM pv WITH WORLDS 10").unwrap() {
                crate::sql::Statement::Select(sel) => sel,
                other => panic!("not a SELECT: {other:?}"),
            };
            sel.worlds = Some(WorldsClause {
                worlds,
                seed: None,
                confidence,
            });
            assert!(
                matches!(Planner::plan(&sel), Err(DbError::InvalidWorlds(_))),
                "{worlds} worlds, confidence {confidence:?}"
            );
        }
        // A deterministic relation is refused as before.
        let mut table = Table::new("d", Schema::of(&[("x", ColumnType::Float)]));
        table.insert(vec![Value::Float(0.5)]).unwrap();
        let planned = plan_sql("SELECT COUNT(*), SUM(x) FROM d WITH WORLDS 100");
        let err = planned
            .strategy_with_context(1)
            .execute(
                Source::Resident(&Relation::Deterministic(table)),
                &planned.physical,
            )
            .unwrap_err();
        assert!(
            matches!(&err, DbError::InvalidWorlds(m) if m.contains("WITH WORLDS")),
            "{err:?}"
        );
    }

    /// A row plan samples nothing, yet a hand-built clause the planner
    /// would refuse is still refused, and `EXPLAIN` says what runs.
    #[test]
    fn row_plans_validate_the_clause_they_no_longer_sample_with() {
        let rel = Relation::Probabilistic(synth(50));
        let planned = plan_sql("SELECT * FROM pv WITH WORLDS 10 SEED 4");
        for (worlds, confidence) in [(0, None), (10, Some(0.0)), (10, Some(-1.0))] {
            let strategy = WorldsStrategy {
                clause: WorldsClause {
                    worlds,
                    seed: None,
                    confidence,
                },
                threads: 1,
            };
            assert!(
                matches!(
                    strategy.execute(Source::Resident(&rel), &planned.physical),
                    Err(DbError::InvalidWorlds(_))
                ),
                "{worlds} worlds, confidence {confidence:?}"
            );
        }
        let text = planned.strategy_with_context(1).describe(&planned.physical);
        assert!(text.contains("closed forms for row plans"), "{text}");
        assert!(text.contains("only HAVING events sample"), "{text}");
        let having = plan_sql("SELECT COUNT(*) FROM pv HAVING COUNT(*) >= 1 WITH WORLDS 10");
        let text = having.strategy_with_context(1).describe(&having.physical);
        assert!(
            text.starts_with("worlds (Monte-Carlo, max_worlds=10"),
            "{text}"
        );
    }

    /// Every aggregate without `HAVING` carrying `WITH WORLDS` answers what
    /// the statement without the clause answers, bit for bit, whatever its
    /// world count, seed or confidence, at fork-join widths 1 and 8.
    #[test]
    fn with_worlds_expectations_answer_equal_the_clause_free_statement() {
        let rel = Relation::Probabilistic(synth(200));
        for sql in [
            "SELECT COUNT(*), SUM(r), AVG(r), EXPECTED(r) FROM pv",
            "SELECT t, COUNT(*), SUM(r) FROM pv WHERE t < 5 GROUP BY t",
            "SELECT COUNT(*), AVG(t) FROM pv GROUP BY WINDOW(t, 16)",
            "SELECT COUNT(*), SUM(r) FROM pv WHERE t >= 50 AND r < 30",
            "SELECT COUNT(*), SUM(r) FROM pv THRESHOLD 0.33",
            "SELECT EXPECTED(t), COUNT(*) FROM pv TOP 7",
            "SELECT COUNT(*) FROM pv WHERE t < 0",
            "SELECT SUM(nope) FROM pv",
        ] {
            for threads in [1, 8] {
                let answer = |sql: &str| {
                    let planned = plan_sql(sql);
                    match planned
                        .strategy_with_context(threads)
                        .execute(Source::Resident(&rel), &planned.physical)
                    {
                        Ok(QueryOutput::Aggregate(a)) => {
                            assert!(a.groups.iter().all(|g| g.worlds.is_none()), "{sql}");
                            format!("{a:?} {}", a.fingerprint())
                        }
                        other => format!("{other:?}"),
                    }
                };
                let want = answer(sql);
                for clause in [
                    "WITH WORLDS 200",
                    "WITH WORLDS 1 SEED 9",
                    "WITH WORLDS 100000 SEED 4 CONFIDENCE 0.001",
                ] {
                    assert_eq!(
                        answer(&format!("{sql} {clause}")),
                        want,
                        "{sql} {clause} at width {threads}"
                    );
                }
            }
        }
    }

    /// The integers and floats that break naive sums: NaN, ±∞, −0.0 and
    /// the neighbours of ±2^53, which do not survive the widening to f64.
    const TWO53: i64 = 1 << 53;
    const INTS: [i64; 7] = [0, 3, -1, TWO53 + 1, TWO53 - 1, -TWO53 - 1, i64::MIN];
    const FLOATS: [f64; 8] = [
        f64::NAN,
        -0.0,
        0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.1,
        2.5,
        (TWO53 + 1) as f64,
    ];
    /// Probabilities: the edges, then a value from the case.
    const PROBS: [f64; 3] = [0.0, 1.0, 0.5];

    fn totals_table(rows: &[(usize, usize, usize, f64)]) -> ProbTable {
        let schema = Schema::of(&[
            ("i", ColumnType::Int),
            ("f", ColumnType::Float),
            ("s", ColumnType::Text),
        ]);
        let mut t = ProbTable::new("pv", schema);
        for &(i, f, p, q) in rows {
            let row = vec![
                Value::Int(INTS[i % INTS.len()]),
                Value::Float(FLOATS[f % FLOATS.len()]),
                Value::from(["a", "b"][i % 2]),
            ];
            t.insert(row, PROBS.get(p).copied().unwrap_or(q)).unwrap();
        }
        t
    }

    fn whole_relation_plan(aggregates: Vec<AggExpr>) -> PhysicalPlan {
        PhysicalPlan {
            table: "pv".into(),
            predicate: Vec::new(),
            threshold: None,
            top: None,
            action: PhysicalAction::Aggregate(AggregatePlan {
                window: None,
                group_by: Vec::new(),
                aggregates,
                having: None,
            }),
        }
    }

    /// `x`'s bits, every NaN as one pattern: Rust leaves the sign and
    /// payload of a NaN that arithmetic produces unspecified, and two
    /// compiled loops over the same sum (a release build's whole-relation
    /// fold and its row-at-a-time fold) can differ in exactly that.
    fn bits(x: f64) -> String {
        let x = if x.is_nan() { f64::NAN } else { x };
        format!("{:016x}", x.to_bits())
    }

    /// The bits of a table's totals: Σp, then Σp·v per column or the error.
    fn totals_bits(t: &ProbTable) -> String {
        let mut s = bits(t.expected_count());
        for col in ["i", "f", "s", "nope"] {
            match t.expected_sum(col) {
                Ok(v) => s.push_str(&format!(" {}", bits(v))),
                Err(e) => s.push_str(&format!(" {e:?}")),
            }
        }
        s
    }

    fn result_bits(r: Result<AggregateResult, DbError>) -> String {
        let Ok(mut a) = r else {
            return format!("{:?}", r.unwrap_err());
        };
        let values: Vec<String> = a
            .groups
            .iter_mut()
            .flat_map(|g| std::mem::take(&mut g.values))
            .map(|v| format!("{}{:?}", bits(v.value), v.ci_half_width))
            .collect();
        format!("{values:?} {a:?}")
    }

    proptest! {
        /// The running totals equal the scan path's sums over the whole
        /// relation bit for bit (any NaN as a NaN), however the relation
        /// was built, and the totals path answers exactly what the scan
        /// path answers.
        #[test]
        fn totals_and_their_fast_path_equal_the_scan_path(
            rows in proptest::collection::vec((0usize..7, 0usize..8, 0usize..6, 0.0f64..=1.0), 0..40),
            chunks in proptest::collection::vec(1usize..9, 1..12),
            picks in proptest::collection::vec(0usize..64, 0..20),
        ) {
            let built = totals_table(&rows);
            let all: Vec<usize> = (0..built.len()).collect();

            // The definition: `Σp` and `Σp·v` folded from +0.0 in row order.
            let batch = built.batch();
            let mut want = bits(sum_from_zero(built.probs()));
            for col in ["i", "f"] {
                let mut values = Vec::new();
                let whole = scan::Selection::Span(0..built.len());
                scan::numbers(batch.values(built.schema().index_of(col).unwrap()), &whole, &mut values);
                let mean = expected_sum_of(built.probs(), &values);
                want.push_str(&format!(" {}", bits(mean)));
            }
            let got = totals_bits(&built);
            prop_assert!(got.starts_with(&want), "{got} vs {want}");
            if built.is_empty() {
                prop_assert!(got.starts_with("0000000000000000 0000000000000000 0000000000000000"));
            }

            // Inserts and chunked appends that keep totals read along the
            // way, a decoder's columns and a gather all land on the totals
            // `built` folds on its first read.
            let mut inserted = ProbTable::new("pv", built.schema().clone());
            for (row, p) in built.iter() {
                inserted.expected_count();
                inserted.insert(row, p).unwrap();
            }
            prop_assert_eq!(totals_bits(&inserted), got.clone());
            let mut chunked = ProbTable::new("pv", built.schema().clone());
            let mut at = 0;
            for &n in chunks.iter().cycle() {
                if at >= built.len() {
                    break;
                }
                let end = (at + n).min(built.len());
                chunked.extend_from_batch(&batch, at..end).unwrap();
                chunked.expected_count();
                at = end;
            }
            prop_assert_eq!(totals_bits(&chunked), got.clone());
            let decoded = ProbTable::from_columns(
                "pv",
                built.schema().clone(),
                built.columns().to_vec(),
                built.probs().to_vec(),
            )
            .unwrap();
            prop_assert_eq!(totals_bits(&decoded), got);
            let picked: Vec<usize> = picks.iter().filter_map(|&i| all.get(i).copied()).collect();
            let subset: Vec<_> = picked.iter().map(|&i| rows[i]).collect();
            prop_assert_eq!(totals_bits(&built.take(&picked)), totals_bits(&totals_table(&subset)));

            let agg = |func, column: Option<&str>| AggExpr {
                func,
                column: column.map(str::to_string),
            };
            for (aggregates, numeric) in [
                (vec![AggExpr::count()], true),
                (vec![AggExpr::count(), agg(AggFunc::Sum, Some("i")), agg(AggFunc::Avg, Some("f"))], true),
                (vec![agg(AggFunc::Expected, Some("f")), agg(AggFunc::Avg, Some("i"))], true),
                (vec![AggExpr::count(), agg(AggFunc::Sum, Some("s"))], false),
                (vec![agg(AggFunc::Avg, Some("f")), agg(AggFunc::Sum, Some("nope"))], false),
                (vec![agg(AggFunc::Sum, None)], false),
            ] {
                // `THRESHOLD 0` keeps every row but takes the scan; the
                // unrestricted plan reads the totals exactly when every
                // aggregate is numeric.
                let plan = whole_relation_plan(aggregates);
                let mut scan_plan = plan.clone();
                scan_plan.threshold = Some(0.0);
                let PhysicalAction::Aggregate(agg_plan) = &plan.action else {
                    unreachable!()
                };
                let fast = scan::from_totals(&built, &plan, agg_plan);
                prop_assert_eq!(fast.is_some(), numeric, "{:?}", plan);
                prop_assert!(scan::from_totals(&built, &scan_plan, agg_plan).is_none());
                let relation = Relation::Probabilistic(built.clone());
                let scanned = aggregate(Source::Resident(&relation), &scan_plan, agg_plan, 1, "exact", exact_tail)
                    .and_then(|finish| finish())
                    .map(|out| match out {
                        QueryOutput::Aggregate(a) => a,
                        other => panic!("wrong output: {other:?}"),
                    });
                let scanned = result_bits(scanned);
                let executed = ExactStrategy::default()
                    .execute(Source::Resident(&relation), &plan)
                    .map(|out| match out {
                        QueryOutput::Aggregate(a) => a,
                        other => panic!("wrong output: {other:?}"),
                    });
                prop_assert_eq!(result_bits(executed), scanned);
            }
        }
    }
}
