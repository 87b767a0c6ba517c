//! # tspdb-probdb
//!
//! Tuple-independent probabilistic database substrate for the `tspdb`
//! workspace — the storage and query layer that the paper's Ω-view builder
//! materialises probabilistic views into:
//!
//! * [`value`] / [`schema`] — typed cells and relation schemas.
//! * [`table`] / [`mod@column`] — deterministic [`table::Table`]s and
//!   tuple-independent, column-major [`table::ProbTable`]s (the `prob_view`
//!   of the paper's Fig. 1/2).
//! * [`codec`] — the one byte codec: the encoder/decoder pair wire frames,
//!   leaf pages and WAL records are written with, and the column-major
//!   batch encoding every stored tuple travels in.
//! * [`scan`] — the one scan operator: every source feeds it borrowed
//!   column [`scan::Batch`]es, and typed kernels restrict, order, group and
//!   gather on top of them.
//! * [`query`] — predicates and whole-relation probabilistic operators:
//!   selection, threshold, event probability, expected aggregates.
//! * [`sql`] — tokenizer/parser for the paper's SQL-like syntax including
//!   the Fig. 7 `CREATE VIEW … AS DENSITY … OMEGA …` statement, the
//!   aggregate grammar (`COUNT(*)` / `SUM` / `AVG` / `EXPECTED`,
//!   `GROUP BY`, `HAVING` event predicates) and `EXPLAIN`.
//! * [`plan`] — the query planner: [`plan::LogicalPlan`] trees lowered to
//!   [`plan::PhysicalPlan`]s and executed by a pluggable
//!   [`plan::EvalStrategy`] ([`plan::ExactStrategy`] closed forms, the
//!   [`plan::WorldsStrategy`] Monte-Carlo backend under `WITH WORLDS`, or
//!   the [`plan::SynopsisStrategy`] O(B) histogram backend under
//!   `WITH SYNOPSIS`).
//! * [`catalog`] — the in-memory [`catalog::Database`] executing
//!   statements; `SELECT`s are planned then executed, density views are
//!   delegated to a handler supplied by the engine layer (`tspdb-core`).
//! * [`worlds`] — possible-world sampling: the parallel, deterministic
//!   [`worlds::WorldsExecutor`] behind `SELECT … WITH WORLDS`.
//!
//! ## Quick start
//!
//! ```
//! use tspdb_probdb::{ColumnType, Database, ProbTable, Schema, Value};
//!
//! let mut db = Database::new();
//! let schema = Schema::of(&[("t", ColumnType::Int), ("room", ColumnType::Int)]);
//! let mut pv = ProbTable::new("pv", schema);
//! pv.insert(vec![Value::Int(1), Value::Int(2)], 0.9).unwrap();
//! pv.insert(vec![Value::Int(3), Value::Int(2)], 0.4).unwrap();
//! db.register_prob_table(pv).unwrap();
//!
//! // Temporal windows: expected sightings per 2-step bucket.
//! let out = db.query("SELECT COUNT(*) FROM pv GROUP BY WINDOW(t, 2)").unwrap();
//! let agg = out.aggregate().unwrap();
//! assert_eq!(agg.groups.len(), 2); // buckets [0, 2) and [2, 4)
//! assert!((agg.groups[0].values[0].value - 0.9).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![allow(
    // `!(x > 0.0)` deliberately catches NaN alongside non-positive values
    // in numeric guards; `partial_cmp` obscures that intent.
    clippy::neg_cmp_op_on_partial_ord,
    // Index-based loops mirror the textbook formulations of the numeric
    // kernels (Cholesky, Levinson-Durbin, filters) they implement.
    clippy::needless_range_loop
)]

pub mod aggregates;
pub mod catalog;
pub mod codec;
pub mod column;
pub mod error;
pub mod plan;
pub mod plan_cache;
pub mod query;
pub mod scan;
pub mod schema;
pub mod sql;
pub mod table;
pub mod value;
pub mod worlds;

pub use aggregates::{sum_distribution_of, SumDistribution};
pub use catalog::{
    Database, QueryOutput, Relation, RelationSnapshot, RelationSynopses, ScanSource,
    DEFAULT_SYNOPSIS_BUCKETS,
};
pub use column::{Column, ColumnSlice};
pub use error::DbError;
pub use plan::{
    AggregateResult, EvalStrategy, ExactStrategy, ExplainReport, LogicalPlan, PhysicalPlan,
    PlannedQuery, Planner, StrategyKind, SynopsisStrategy, WorldsStrategy,
};
pub use plan_cache::PlanCacheStats;
pub use query::{CmpOp, Comparison, Conjunction};
pub use scan::{Batch, BatchStream};
pub use schema::Schema;
pub use sql::{
    parse, AggExpr, AggFunc, DensityViewSpec, HavingClause, SelectItem, SelectStmt, Statement,
    SynopsisClause, WindowSpec, WorldsClause,
};
pub use table::{ProbTable, Table};
pub use value::{ColumnType, Value, ValueKey};
pub use worlds::{SumEstimate, WorldsConfig, WorldsExecutor, WorldsResult};
