//! Exact-vs-Monte-Carlo differential harness.
//!
//! The possible-worlds executor and the exact operators answer the same
//! questions through entirely different code paths: closed forms over
//! tuple independence (`event_probability`, `count_distribution`,
//! `count_moments`, `ProbTable::expected_sum`, the count and sum DPs) and
//! sampled worlds. Through SQL, `WITH WORLDS` samples only a `HAVING
//! COUNT` / `HAVING SUM` event; a row-level statement is answered in
//! closed form. The sampler's convergence and width invariance are
//! therefore checked through `WorldsExecutor::run_domain`, the entry point
//! `HAVING` samples through. This suite pins down four invariants,
//! permanently:
//!
//! 1. **Convergence** — for generated probabilistic tables the sampled
//!    estimates land within statistical tolerance of the exact answers
//!    (tolerances are multiples of the estimator's standard error, so they
//!    hold deterministically for the fixed seeds used here);
//! 2. **Thread invariance** — the executor returns *bit-identical*
//!    results at 1 and 8 threads for the same seed, which is what makes
//!    `WITH WORLDS` reproducible on any machine;
//! 3. **Expectations are exact** — the aggregate values of a `WITH
//!    WORLDS` statement and a row-level answer's moments are the exact
//!    strategy's bits, and a statement without `HAVING` answers the bytes
//!    of the statement without the clause;
//! 4. **`WITH SYNOPSIS` is exact** — every statement carrying the clause
//!    answers the bytes of the statement without it, non-finite values
//!    included, and the whole-relation totals that answer it in O(1)
//!    equal a from-scratch build after every write.

use proptest::prelude::*;
use tspdb::probdb::aggregates::{count_distribution, count_moments};
use tspdb::probdb::query::{event_probability, CmpOp, Comparison};
use tspdb::probdb::{
    Column, ColumnType, ProbTable, Schema, Value, WorldsConfig, WorldsExecutor, WorldsResult,
};

const WORLDS: usize = 30_000;

/// `(room, reading)` table with rooms cycling 0..4 and readings tied to
/// the row index, so predicates have something to bite on.
fn table_from(probs: &[f64]) -> ProbTable {
    let schema = Schema::of(&[("room", ColumnType::Int), ("reading", ColumnType::Float)]);
    let mut v = ProbTable::new("v", schema);
    for (i, &p) in probs.iter().enumerate() {
        v.insert(
            vec![Value::Int(i as i64 % 4), Value::Float(i as f64 * 0.5 - 2.0)],
            p,
        )
        .unwrap();
    }
    v
}

/// The probabilities of the tuples of `table` matching `pred`, and the
/// values of `sum_column` over them, in row order.
fn domain(
    table: &ProbTable,
    pred: &[Comparison],
    sum_column: Option<&str>,
) -> (Vec<f64>, Option<Vec<f64>>) {
    let sub = tspdb::probdb::query::select_prob(table, &pred.to_vec()).unwrap();
    let values = sum_column.map(|col| {
        let c = sub.schema().index_of(col).unwrap();
        sub.iter()
            .map(|(row, _)| row[c].as_f64().unwrap())
            .collect()
    });
    (sub.probs().to_vec(), values)
}

fn run(
    table: &ProbTable,
    pred: &[Comparison],
    seed: u64,
    threads: usize,
    sum_column: Option<&str>,
) -> WorldsResult {
    let (probs, values) = domain(table, pred, sum_column);
    WorldsExecutor::new(WorldsConfig {
        max_worlds: WORLDS,
        seed,
        threads,
        ..WorldsConfig::default()
    })
    .unwrap()
    .run_domain(&probs, sum_column.zip(values.as_deref()))
}

/// Runs at 1 and 8 threads, asserts bit-identical estimates, returns one.
fn run_both_widths(
    table: &ProbTable,
    pred: &[Comparison],
    seed: u64,
    sum_column: Option<&str>,
) -> WorldsResult {
    let one = run(table, pred, seed, 1, sum_column);
    let eight = run(table, pred, seed, 8, sum_column);
    assert_eq!(
        one.fingerprint(),
        eight.fingerprint(),
        "1-thread and 8-thread runs diverged (seed {seed})"
    );
    one
}

proptest! {
    #[test]
    fn mc_converges_to_exact_closed_forms(
        probs in proptest::collection::vec(0.0f64..=1.0, 1..25),
        seed in 0u64..1_000_000,
    ) {
        let v = table_from(&probs);
        let pred: Vec<Comparison> = Vec::new();

        let exact_p = event_probability(&v, &pred).unwrap();
        let exact_dist = count_distribution(&v, &pred).unwrap();
        let (exact_mean, exact_var) = count_moments(&v, &pred).unwrap();

        let mc = run_both_widths(&v, &pred, seed, None);
        prop_assert_eq!(mc.worlds, WORLDS);
        prop_assert_eq!(mc.matching_tuples, probs.len());

        // Event probability: within 5 standard errors of the exact value.
        let se_p = (exact_p * (1.0 - exact_p) / WORLDS as f64).sqrt();
        prop_assert!(
            (mc.event_probability - exact_p).abs() <= 5.0 * se_p + 1e-9,
            "event: MC {} vs exact {} (SE {})",
            mc.event_probability, exact_p, se_p
        );

        // Count distribution: every bucket within 5 SEs, plus a few worlds
        // of absolute slack for the far tails where the bucket probability
        // is so small that the normal approximation behind the SE bound
        // breaks down (a single sampled world there is several "SEs").
        prop_assert_eq!(mc.count_distribution.len(), exact_dist.len());
        let slack = 5.0 / WORLDS as f64;
        for (k, (e, m)) in exact_dist.iter().zip(&mc.count_distribution).enumerate() {
            let se = (e * (1.0 - e) / WORLDS as f64).sqrt();
            prop_assert!(
                (e - m).abs() <= 5.0 * se + slack,
                "count bucket {k}: exact {e} vs MC {m}"
            );
        }

        // Count moments: the mean within 5 SEs, the variance loosely.
        let se_mean = (exact_var / WORLDS as f64).sqrt();
        prop_assert!(
            (mc.count_mean - exact_mean).abs() <= 5.0 * se_mean + 1e-9,
            "count mean: MC {} vs exact {}",
            mc.count_mean, exact_mean
        );
        prop_assert!(
            (mc.count_variance - exact_var).abs() <= 0.15 * exact_var + 0.05,
            "count variance: MC {} vs exact {}",
            mc.count_variance, exact_var
        );
    }

    #[test]
    fn mc_sum_converges_to_expected_sum(
        probs in proptest::collection::vec(0.0f64..=1.0, 1..20),
        seed in 0u64..1_000_000,
    ) {
        let v = table_from(&probs);
        let exact = v.expected_sum("reading").unwrap();
        let mc = run_both_widths(&v, &[], seed, Some("reading"));
        let sum = mc.sum.as_ref().unwrap();
        let se = (sum.variance / WORLDS as f64).sqrt();
        prop_assert!(
            (sum.mean - exact).abs() <= 5.0 * se + 1e-6,
            "sum: MC {} vs exact {} (SE {})",
            sum.mean, exact, se
        );
    }
}

#[test]
fn predicated_queries_agree_with_exact_path() {
    let probs: Vec<f64> = (0..24).map(|i| ((i * 37) % 97) as f64 / 100.0).collect();
    let v = table_from(&probs);
    for pred in [
        vec![Comparison::new("room", CmpOp::Eq, 1i64)],
        vec![Comparison::new("reading", CmpOp::Ge, 2.0)],
        vec![
            Comparison::new("room", CmpOp::Ne, 0i64),
            Comparison::new("prob", CmpOp::Ge, 0.25),
        ],
    ] {
        let exact = event_probability(&v, &pred).unwrap();
        let mc = run_both_widths(&v, &pred, 2024, None);
        assert!(
            (mc.event_probability - exact).abs() <= 3.0 * mc.event_ci_half_width + 1e-3,
            "pred {pred:?}: MC {} vs exact {exact}",
            mc.event_probability
        );
        let exact_dist = count_distribution(&v, &pred).unwrap();
        assert_eq!(mc.count_distribution.len(), exact_dist.len());
    }
}

#[test]
fn early_termination_is_thread_invariant_and_honours_the_target() {
    let probs: Vec<f64> = (0..12).map(|i| 0.05 + 0.07 * i as f64).collect();
    let v = table_from(&probs);
    let run_ci = |threads: usize| {
        WorldsExecutor::new(WorldsConfig {
            max_worlds: 2_000_000,
            seed: 77,
            target_ci: Some(0.005),
            threads,
            ..WorldsConfig::default()
        })
        .unwrap()
        .run_domain(v.probs(), None)
    };
    let one = run_ci(1);
    let eight = run_ci(8);
    assert_eq!(one.fingerprint(), eight.fingerprint());
    assert!(one.converged);
    assert!(one.worlds < 2_000_000);
    assert!(one.event_ci_half_width <= 0.005);
}

/// Runs a row-level `WITH WORLDS` query at 1 and 8 worlds-threads,
/// asserts the bit-identical fingerprint, and returns the answer.
fn run_rows_both_widths(db: &mut tspdb::Database, sql: &str) -> WorldsResult {
    db.set_worlds_threads(1);
    let one = db.query(sql).unwrap().worlds().unwrap().clone();
    db.set_worlds_threads(8);
    let eight = db.query(sql).unwrap().worlds().unwrap().clone();
    assert_eq!(
        one.fingerprint(),
        eight.fingerprint(),
        "1-thread and 8-thread row estimates diverged for {sql}"
    );
    one
}

/// Runs an aggregate SQL query at 1 and 8 worlds-threads, asserts the
/// bit-identical fingerprint, and returns the result.
fn run_aggregate_both_widths(
    db: &mut tspdb::Database,
    sql: &str,
) -> tspdb::probdb::AggregateResult {
    db.set_worlds_threads(1);
    let one = db.query(sql).unwrap().aggregate().unwrap().clone();
    db.set_worlds_threads(8);
    let eight = db.query(sql).unwrap().aggregate().unwrap().clone();
    assert_eq!(
        one.fingerprint(),
        eight.fingerprint(),
        "1-thread and 8-thread aggregate runs diverged for {sql}"
    );
    one
}

#[test]
fn planned_sum_aggregate_agrees_between_strategies() {
    // `SELECT SUM(col)` through the planner is Σ p·v under either clause,
    // and so is the row-level answer of one projected column, bit for
    // bit. The sampler over the same group converges to it.
    let probs: Vec<f64> = (0..24).map(|i| ((i * 41) % 89) as f64 / 100.0).collect();
    let v = table_from(&probs);
    let mut db = tspdb::Database::new();
    db.register_prob_table(v.clone()).unwrap();

    let sql = "SELECT room, SUM(reading) FROM v GROUP BY room";
    let exact = db.query(sql).unwrap().aggregate().unwrap().clone();
    assert_eq!(exact.strategy, "exact");
    assert_eq!(
        answer_bytes(&db, &format!("{sql} WITH WORLDS 30000 SEED 6")),
        answer_bytes(&db, sql),
        "a HAVING-free WITH WORLDS aggregate is the exact answer"
    );
    for e in &exact.groups {
        let room = e.key[0].as_i64().unwrap();
        assert!(
            e.values[0].ci_half_width.is_none(),
            "exact values carry no CI"
        );
        let rows = run_rows_both_widths(
            &mut db,
            &format!("SELECT reading FROM v WHERE room = {room} WITH WORLDS 30000 SEED 6"),
        );
        let closed = rows.sum.as_ref().unwrap();
        assert_eq!(rows.worlds, 0);
        assert_eq!(
            (closed.mean.to_bits(), closed.ci_half_width),
            (e.values[0].value.to_bits(), 0.0),
            "room {room}: the row-level SUM is the exact SUM"
        );
        let room_pred = [Comparison::new("room", CmpOp::Eq, room)];
        let mc = run_both_widths(&v, &room_pred, 6, Some("reading"));
        let sum = mc.sum.as_ref().unwrap();
        let tol = 5.0 * sum.ci_half_width + 1e-6;
        assert!(
            (sum.mean - e.values[0].value).abs() <= tol,
            "room {room}: MC sum {} vs exact {} (tol {tol})",
            sum.mean,
            e.values[0].value
        );

        // Per-group exact cross-check against the standalone closed form.
        let sub =
            tspdb::probdb::query::select_prob(&v, &vec![Comparison::new("room", CmpOp::Eq, room)])
                .unwrap();
        let direct = sub.expected_sum("reading").unwrap();
        assert!((e.values[0].value - direct).abs() < 1e-12);
    }
}

#[test]
fn windowed_aggregates_agree_between_strategies() {
    // `GROUP BY WINDOW` through the planner: per-bucket Poisson-binomial /
    // linearity closed forms versus per-bucket MC sampling of the HAVING
    // event with bucket-derived seeds. Both strategies must produce the
    // same buckets (same canonical starts), the same aggregate values,
    // statistically identical events and count histograms, and the MC side
    // must stay bit-identical across worlds-thread counts.
    let probs: Vec<f64> = (0..28).map(|i| ((i * 43) % 95) as f64 / 100.0).collect();
    let v = table_from(&probs); // readings span [−2.0, 11.5]
    let mut db = tspdb::Database::new();
    db.register_prob_table(v.clone()).unwrap();

    let sql_exact = "SELECT COUNT(*), SUM(reading) FROM v \
                     GROUP BY WINDOW(reading, 4.0, -2.0) HAVING COUNT(*) >= 2";
    let exact = db.query(sql_exact).unwrap().aggregate().unwrap().clone();
    assert_eq!(exact.strategy, "exact");
    assert_eq!(
        exact.group_columns,
        vec!["WINDOW(reading, 4.0, -2.0)".to_string()]
    );
    // Buckets [−2, 2), [2, 6), [6, 10), [10, 14): starts −2, 2, 6, 10.
    let starts: Vec<f64> = exact
        .groups
        .iter()
        .map(|g| g.key[0].as_f64().unwrap())
        .collect();
    assert_eq!(starts, vec![-2.0, 2.0, 6.0, 10.0]);

    // Per-bucket exact values cross-check against the standalone closed
    // forms over the equivalent WHERE-range restriction.
    for g in &exact.groups {
        let start = g.key[0].as_f64().unwrap();
        let sub = tspdb::probdb::query::select_prob(
            &v,
            &vec![
                Comparison::new("reading", CmpOp::Ge, start),
                Comparison::new("reading", CmpOp::Lt, start + 4.0),
            ],
        )
        .unwrap();
        let direct = sub.expected_sum("reading").unwrap();
        assert!((g.values[1].value - direct).abs() < 1e-12);
        let (mean, _) = count_moments(&sub, &Vec::new()).unwrap();
        assert!((g.values[0].value - mean).abs() < 1e-12);
    }

    let mc = run_aggregate_both_widths(
        &mut db,
        &format!("{sql_exact} WITH WORLDS {WORLDS} SEED 19"),
    );
    assert_eq!(mc.strategy, "worlds");
    assert_eq!(mc.groups.len(), exact.groups.len());
    for (m, e) in mc.groups.iter().zip(&exact.groups) {
        assert_eq!(m.key, e.key, "bucket keys must align across strategies");
        assert_eq!(
            m.values, e.values,
            "bucket {:?}: values are closed forms",
            m.key
        );
        let (mh, eh) = (
            m.count_distribution.as_ref().unwrap(),
            e.count_distribution.as_ref().unwrap(),
        );
        assert_eq!(mh.len(), eh.len());
        for (k, (a, b)) in mh.iter().zip(eh).enumerate() {
            let se = (b * (1.0 - b) / WORLDS as f64).sqrt();
            assert!(
                (a - b).abs() <= 5.0 * se + 5.0 / WORLDS as f64,
                "bucket {:?}, count {k}: MC {a} vs exact {b}",
                m.key
            );
        }
        let (mp, ep) = (m.event_probability.unwrap(), e.event_probability.unwrap());
        let se = (ep * (1.0 - ep) / WORLDS as f64).sqrt();
        assert!(
            (mp - ep).abs() <= 5.0 * se + 1e-9,
            "bucket {:?}: MC P(count ≥ 2) {mp} vs exact {ep} (SE {se})",
            m.key
        );
    }
}

#[test]
fn window_composed_with_group_by_matches_manual_two_level_grouping() {
    // WINDOW(reading, w) combined with GROUP BY room must answer exactly
    // like restricting to each (bucket, room) pair by hand.
    let probs: Vec<f64> = (0..24).map(|i| ((i * 31) % 89) as f64 / 100.0).collect();
    let v = table_from(&probs);
    let mut db = tspdb::Database::new();
    db.register_prob_table(v.clone()).unwrap();
    let agg = db
        .query("SELECT room, COUNT(*) FROM v GROUP BY WINDOW(reading, 5.0), room")
        .unwrap()
        .aggregate()
        .unwrap()
        .clone();
    assert!(agg.groups.len() > 2);
    for g in &agg.groups {
        let start = g.key[0].as_f64().unwrap();
        let room = g.key[1].as_i64().unwrap();
        let sub = tspdb::probdb::query::select_prob(
            &v,
            &vec![
                Comparison::new("reading", CmpOp::Ge, start),
                Comparison::new("reading", CmpOp::Lt, start + 5.0),
                Comparison::new("room", CmpOp::Eq, room),
            ],
        )
        .unwrap();
        let (mean, _) = count_moments(&sub, &Vec::new()).unwrap();
        assert!(
            (g.values[0].value - mean).abs() < 1e-12,
            "bucket {start} room {room}"
        );
    }
}

#[test]
fn planned_count_event_agrees_between_strategies() {
    // The `COUNT(*) >= k` event: exact Poisson-binomial tail vs the MC
    // count-histogram tail, through the same SQL plan.
    let probs: Vec<f64> = (0..18)
        .map(|i| 0.04 + ((i * 29) % 83) as f64 / 100.0)
        .collect();
    let v = table_from(&probs);
    let mut db = tspdb::Database::new();
    db.register_prob_table(v.clone()).unwrap();

    for k in [1i64, 3, 6] {
        let exact_sql = format!("SELECT COUNT(*) FROM v HAVING COUNT(*) >= {k}");
        let exact = db.query(&exact_sql).unwrap().aggregate().unwrap().clone();
        let exact_p = exact.groups[0].event_probability.unwrap();
        // Cross-check against the standalone closed form.
        let direct =
            tspdb::probdb::aggregates::prob_count_at_least(&v, &Vec::new(), k as usize).unwrap();
        assert!((exact_p - direct).abs() < 1e-12);

        let mc = run_aggregate_both_widths(
            &mut db,
            &format!("{exact_sql} WITH WORLDS {WORLDS} SEED {k}"),
        );
        let mc_p = mc.groups[0].event_probability.unwrap();
        let se = (exact_p * (1.0 - exact_p) / WORLDS as f64).sqrt();
        assert!(
            (mc_p - exact_p).abs() <= 5.0 * se + 1e-9,
            "k={k}: MC P(count>={k}) {mc_p} vs exact {exact_p} (SE {se})"
        );

        // COUNT(*) is the exact expected count, and the mean of the
        // shipped MC count histogram tracks it.
        let (exact_mean, exact_var) = count_moments(&v, &Vec::new()).unwrap();
        assert_eq!(mc.groups[0].values, exact.groups[0].values);
        let histogram = mc.groups[0].count_distribution.as_ref().unwrap();
        let mc_mean: f64 = histogram
            .iter()
            .enumerate()
            .map(|(c, p)| c as f64 * p)
            .sum();
        let se_mean = (exact_var / WORLDS as f64).sqrt();
        assert!((mc_mean - exact_mean).abs() <= 5.0 * se_mean + 1e-9);
    }
}

#[test]
fn explain_names_plan_and_strategy_for_both_backends() {
    let v = table_from(&[0.5, 0.25, 0.75]);
    let mut db = tspdb::Database::new();
    db.register_prob_table(v).unwrap();
    let exact = db
        .query("EXPLAIN SELECT COUNT(*) FROM v WHERE room = 1")
        .unwrap()
        .explain()
        .unwrap()
        .clone();
    assert!(exact.logical.contains("Aggregate [COUNT(*)]"), "{exact:?}");
    assert!(exact.logical.contains("Scan v"), "{exact:?}");
    assert!(exact.strategy.starts_with("exact"), "{exact:?}");
    let lowered = db
        .query("EXPLAIN SELECT SUM(reading) FROM v GROUP BY room WITH WORLDS 1000 SEED 9")
        .unwrap()
        .explain()
        .unwrap()
        .clone();
    assert_eq!(lowered.strategy, exact.strategy, "{lowered:?}");
    let mc = db
        .query(
            "EXPLAIN SELECT SUM(reading) FROM v GROUP BY room HAVING SUM(reading) >= 1 \
             WITH WORLDS 1000 SEED 9",
        )
        .unwrap()
        .explain()
        .unwrap()
        .clone();
    assert!(mc.logical.contains("GROUP BY room"), "{mc:?}");
    assert!(mc.strategy.contains("worlds"), "{mc:?}");
    assert!(mc.strategy.contains("max_worlds=1000"), "{mc:?}");
    assert!(mc.relation.contains("probabilistic"), "{mc:?}");
}

#[test]
fn sql_with_worlds_matches_direct_executor_calls() {
    // The SQL surface and the Rust API must drive the very same sampler:
    // a `HAVING COUNT` statement's one group ships the count histogram of
    // `run_domain` over the same domain, seed and worlds, bit for bit.
    let probs: Vec<f64> = (0..10).map(|i| 0.1 + 0.08 * i as f64).collect();
    let v = table_from(&probs);
    let mut db = tspdb::Database::new();
    db.register_prob_table(v.clone()).unwrap();
    let room_2 = [Comparison::new("room", CmpOp::Eq, 2i64)];
    let (domain_probs, _) = domain(&v, &room_2, None);
    for threads in [1, 8] {
        db.set_worlds_threads(threads);
        let via_sql = db
            .query("SELECT COUNT(*) FROM v WHERE room = 2 HAVING COUNT(*) >= 1 WITH WORLDS 8000 SEED 31")
            .unwrap();
        let group = &via_sql.aggregate().unwrap().groups[0];
        let direct = WorldsExecutor::new(WorldsConfig {
            max_worlds: 8_000,
            seed: 31,
            threads,
            ..WorldsConfig::default()
        })
        .unwrap()
        .run_domain(&domain_probs, None);
        assert_eq!(group.worlds, Some(direct.worlds), "threads = {threads}");
        assert_eq!(
            group.count_distribution.as_deref(),
            Some(direct.count_distribution.as_slice()),
            "threads = {threads}"
        );
        let at_least_one: f64 = direct.count_distribution[1..].iter().sum();
        assert_eq!(group.event_probability, Some(at_least_one.clamp(0.0, 1.0)));
        // The row-level statement over the same domain samples nothing.
        let rows = db
            .query("SELECT * FROM v WHERE room = 2 WITH WORLDS 8000 SEED 31")
            .unwrap();
        assert_eq!(rows.worlds().unwrap().worlds, 0);
    }
}

// ---------------------------------------------------------------------------
// Sampled shapes: a tallied column consumes no randomness
// ---------------------------------------------------------------------------

#[test]
fn a_tallied_column_leaves_the_count_estimates_bit_identical() {
    // Presence sampling never consumes RNG for values: the count and event
    // estimates of a run that tallies a SUM column (a projected column, or
    // a `HAVING SUM` tail) equal those of a run without one, bit for bit.
    // This is what keeps every group's count histogram the same whichever
    // sampler shape produced it.
    let probs: Vec<f64> = (0..23).map(|i| ((i * 37) % 97) as f64 / 100.0).collect();
    let reading: Vec<f64> = (0..23).map(|i| i as f64 * 0.5 - 2.0).collect();

    for threads in [1usize, 8] {
        let executor = WorldsExecutor::new(WorldsConfig {
            max_worlds: 10_000,
            seed: 77,
            threads,
            ..WorldsConfig::default()
        })
        .unwrap();
        let mut tallied = executor.run_domain(&probs, Some(("reading", &reading)));
        let bare = executor.run_domain(&probs, None);
        assert!(tallied.sum.take().is_some());
        assert_eq!(
            tallied.fingerprint(),
            bare.fingerprint(),
            "threads = {threads}"
        );
    }
}

#[test]
fn grouped_multi_column_worlds_aggregates_sample_only_the_event() {
    // A query aggregating two columns per group under `WITH WORLDS` and a
    // `HAVING` tail reports every aggregate value as the exact strategy's
    // closed form, whatever the seed, samples only the per-group event,
    // and stays bit-identical across worlds-thread counts.
    let schema = Schema::of(&[
        ("room", ColumnType::Int),
        ("reading", ColumnType::Float),
        ("weight", ColumnType::Float),
    ]);
    let mut v = ProbTable::new("v2", schema);
    for i in 0..26 {
        v.insert(
            vec![
                Value::Int(i % 3),
                Value::Float(i as f64 * 0.4 - 1.0),
                Value::Float(((i * 11) % 5) as f64 + 0.5),
            ],
            ((i as usize * 53) % 91) as f64 / 100.0,
        )
        .unwrap();
    }
    let mut db = tspdb::Database::new();
    db.register_prob_table(v).unwrap();

    for having in ["COUNT(*) >= 4", "SUM(weight) >= 9"] {
        let exact_sql = format!(
            "SELECT room, COUNT(*), SUM(reading), SUM(weight), AVG(reading) FROM v2 \
             GROUP BY room HAVING {having}"
        );
        let exact = db.query(&exact_sql).unwrap().aggregate().unwrap().clone();
        assert_eq!(exact.strategy, "exact");
        let mut seeds = [12, 13].into_iter().map(|seed| {
            run_aggregate_both_widths(
                &mut db,
                &format!("{exact_sql} WITH WORLDS {WORLDS} SEED {seed}"),
            )
        });
        let (mc, other_seed) = (seeds.next().unwrap(), seeds.next().unwrap());
        assert_eq!(mc.groups.len(), 3);
        for ((m, o), e) in mc.groups.iter().zip(&other_seed.groups).zip(&exact.groups) {
            assert_eq!(m.key, e.key);
            assert_eq!(m.values, e.values, "{having}: values are closed forms");
            assert_eq!(o.values, e.values, "{having}: the seed moves no value");
            let (mp, ep) = (m.event_probability.unwrap(), e.event_probability.unwrap());
            let se = (ep * (1.0 - ep) / WORLDS as f64).sqrt();
            assert!(
                (mp - ep).abs() <= 5.0 * se + 1e-3,
                "{having}, group {:?}: MC {mp} vs exact {ep}",
                m.key
            );
        }
    }
}

// ---------------------------------------------------------------------------
// HAVING SUM: sum-distribution DP vs Monte-Carlo event frequency
// ---------------------------------------------------------------------------

#[test]
fn having_sum_event_agrees_between_exact_and_mc() {
    // `HAVING SUM(col) >= s` executes exactly through the sum-distribution
    // DP; the MC lowering tallies the same event over sampled worlds. They
    // must agree within standard-error multiples — and everything else is
    // the same closed form under both.
    let probs: Vec<f64> = (0..22).map(|i| ((i * 37) % 97) as f64 / 100.0).collect();
    let v = table_from(&probs); // readings i·0.5 − 2.0: dyadic, so the DP is exact
    let mut db = tspdb::Database::new();
    db.register_prob_table(v).unwrap();

    for s in ["2", "10.25", "-1"] {
        let exact_sql = format!("SELECT COUNT(*), SUM(reading) FROM v HAVING SUM(reading) >= {s}");
        let exact = db.query(&exact_sql).unwrap().aggregate().unwrap().clone();
        assert_eq!(exact.strategy, "exact");
        let exact_p = exact.groups[0].event_probability.unwrap();
        assert!((0.0..=1.0).contains(&exact_p));

        let mc = run_aggregate_both_widths(
            &mut db,
            &format!("{exact_sql} WITH WORLDS {WORLDS} SEED 23"),
        );
        let mc_p = mc.groups[0].event_probability.unwrap();
        let se = (exact_p * (1.0 - exact_p) / WORLDS as f64).sqrt();
        assert!(
            (mc_p - exact_p).abs() <= 5.0 * se + 1e-3,
            "s={s}: MC P(SUM >= {s}) {mc_p} vs exact {exact_p} (SE {se})"
        );

        // Only the event is sampled: the COUNT/SUM values are the closed
        // forms of the statement without HAVING, bit for bit.
        let plain = run_aggregate_both_widths(
            &mut db,
            &format!("SELECT COUNT(*), SUM(reading) FROM v WITH WORLDS {WORLDS} SEED 23"),
        );
        assert_eq!(mc.groups[0].values, plain.groups[0].values);
        assert_eq!(mc.groups[0].values, exact.groups[0].values);
    }

    // Grouped HAVING SUM: per-group events against per-group DP tails.
    let exact_sql = "SELECT room, COUNT(*) FROM v GROUP BY room HAVING SUM(reading) >= 1";
    let exact = db.query(exact_sql).unwrap().aggregate().unwrap().clone();
    let mc = run_aggregate_both_widths(
        &mut db,
        &format!("{exact_sql} WITH WORLDS {WORLDS} SEED 29"),
    );
    assert_eq!(exact.groups.len(), mc.groups.len());
    for (e, m) in exact.groups.iter().zip(&mc.groups) {
        assert_eq!(e.key, m.key);
        let (ep, mp) = (e.event_probability.unwrap(), m.event_probability.unwrap());
        let se = (ep * (1.0 - ep) / WORLDS as f64).sqrt();
        assert!(
            (mp - ep).abs() <= 5.0 * se + 1e-3,
            "group {:?}: MC {mp} vs exact {ep}",
            e.key
        );
    }
}

// ---------------------------------------------------------------------------
// `WITH SYNOPSIS` is answered exactly
// ---------------------------------------------------------------------------

/// `sql`'s canonical answer bytes, or its error.
fn answer_bytes(db: &tspdb::Database, sql: &str) -> Result<Vec<u8>, String> {
    db.query(sql)
        .map(|out| tspdb_wire::canonical_result_bytes(&out))
        .map_err(|e| format!("{e:?}"))
}

#[test]
fn with_synopsis_answers_are_the_clause_free_answers() {
    let probs: Vec<f64> = (0..180).map(|i| ((i * 37) % 97) as f64 / 100.0).collect();
    let mut db = tspdb::Database::new();
    db.register_prob_table(table_from(&probs)).unwrap();

    for sql in [
        "SELECT COUNT(*), SUM(reading), AVG(reading), EXPECTED(reading) FROM v",
        "SELECT COUNT(*), SUM(reading) FROM v THRESHOLD 0.25",
        "SELECT COUNT(*), SUM(reading) FROM v THRESHOLD 0.37",
        "SELECT COUNT(*), SUM(reading) FROM v GROUP BY WINDOW(reading, 16.0)",
        "SELECT COUNT(*) FROM v HAVING COUNT(*) >= 80",
        "SELECT SUM(room) FROM v WHERE reading >= 1.0",
        "SELECT SUM(nope) FROM v",
    ] {
        let want = answer_bytes(&db, sql);
        for clause in [
            "WITH SYNOPSIS",
            "WITH SYNOPSIS BUCKETS 16",
            "WITH SYNOPSIS BUCKETS 65 MAXERROR 0.001",
        ] {
            assert_eq!(
                answer_bytes(&db, &format!("{sql} {clause}")),
                want,
                "{sql} {clause}"
            );
        }
    }
}

/// The histogram synopsis dropped ±∞ and NaN and reported what was left
/// with a zero-width bound: `2 ± 0`, `5 ± 0` and `2.5 ± 0` here, where
/// exact evaluation and sampled worlds give 3, NaN and NaN. Answered
/// exactly, the clause changes nothing, whatever the projection or bound.
#[test]
fn with_synopsis_keeps_non_finite_values() {
    let schema = Schema::of(&[("x", ColumnType::Float)]);
    let mut pv = ProbTable::new("pv", schema);
    for x in [1.0, f64::INFINITY, 2.0, f64::NAN, 3.0, 4.0] {
        pv.insert(vec![Value::Float(x)], 0.5).unwrap();
    }
    let mut db = tspdb::Database::new();
    db.register_prob_table(pv).unwrap();

    for (sql, count) in [
        ("SELECT COUNT(*), SUM(x), AVG(x) FROM pv", 3),
        ("SELECT COUNT(*) FROM pv", 1),
    ] {
        let exact = db.query(sql).unwrap().aggregate().unwrap().clone();
        assert_eq!(exact.groups[0].values[0].value, 3.0, "{sql}");
        for v in &exact.groups[0].values[1..count] {
            assert!(v.value.is_nan(), "{sql}: {v:?}");
        }
        for clause in ["WITH SYNOPSIS", "WITH SYNOPSIS MAXERROR 0.5"] {
            assert_eq!(
                answer_bytes(&db, &format!("{sql} {clause}")),
                answer_bytes(&db, sql),
                "{sql} {clause}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Parallel scans: the restriction fan-out is invisible in every answer
// ---------------------------------------------------------------------------

/// A 70 000-tuple `(t, room, reading)` relation — above the size at which
/// a restricted scan fans out over contiguous segments — built column by
/// column: `t` ascending, rooms cycling 0..4, readings and probabilities
/// scrambled by the row index.
fn fan_out_table() -> ProbTable {
    const N: i64 = 70_000;
    let schema = Schema::of(&[
        ("t", ColumnType::Int),
        ("room", ColumnType::Int),
        ("reading", ColumnType::Float),
    ]);
    let mut columns = Column::for_schema(&schema, N as usize);
    let mut probs = Vec::with_capacity(N as usize);
    for i in 0..N {
        assert!(columns[0].push_int(i));
        assert!(columns[1].push_int(i % 4));
        assert!(columns[2].push_float(((i * 37) % 997) as f64 * 0.01 - 2.0));
        probs.push(((i * 7919) % 1000) as f64 / 1000.0);
    }
    ProbTable::from_columns("v", schema, columns, probs).unwrap()
}

/// Fresh database over [`fan_out_table`].
fn fan_out_db() -> tspdb::Database {
    let mut db = tspdb::Database::new();
    db.register_prob_table(fan_out_table()).unwrap();
    db
}

/// `sql`'s answer (or error) at fan-out widths 1, 2 and 8, asserted to be
/// the same bytes at every width. Width 1 is the unsegmented scan: each
/// segment is a contiguous, ascending index range — what a time-range
/// shard used to be — so these are the sharded-vs-unsharded checks.
fn answer_at_every_width(db: &tspdb::Database, sql: &str) -> Result<Vec<u8>, String> {
    let answers: Vec<Result<Vec<u8>, String>> = [1usize, 2, 8]
        .into_iter()
        .map(|threads| {
            db.set_worlds_threads(threads);
            db.query(sql)
                .map(|out| tspdb_wire::canonical_result_bytes(&out))
                .map_err(|e| format!("{e:?}"))
        })
        .collect();
    assert!(
        answers.iter().all(|a| *a == answers[0]),
        "{sql} diverged across fan-out widths"
    );
    answers.into_iter().next().unwrap()
}

#[test]
fn sharded_scans_are_bit_identical_to_unsharded_for_every_strategy() {
    // Segments are contiguous ascending index ranges concatenated in
    // order, so for both strategies — exact and `WITH WORLDS` — the
    // fan-out width (`set_worlds_threads`) is a pure latency knob.
    // Every query is restricted (or it would not fan out) and linear in
    // the relation.
    const QUERIES: [&str; 6] = [
        // Exact row scan: WHERE + THRESHOLD + TOP over the merged survivors.
        "SELECT * FROM v WHERE reading >= 1.0 AND room <> 3 THRESHOLD 0.2 TOP 16",
        "SELECT t, reading FROM v WHERE room = 2 ORDER BY prob DESC LIMIT 25",
        "SELECT COUNT(*), SUM(reading) FROM v WHERE room >= 1 GROUP BY WINDOW(t, 500)",
        // A leading time range is a binary search; the rest still fans out.
        "SELECT COUNT(*), SUM(reading) FROM v WHERE t >= 1000 AND reading > 0.0 \
         HAVING SUM(reading) >= 40000 WITH WORLDS 200 SEED 9",
        "SELECT t, room FROM v WHERE t >= 500 THRESHOLD 0.9",
        // `WITH SYNOPSIS` is answered by the exact fan-out.
        "SELECT COUNT(*) FROM v WHERE reading < 0.5 GROUP BY WINDOW(t, 400) WITH SYNOPSIS",
    ];
    let db = fan_out_db();
    for sql in QUERIES {
        let answer = answer_at_every_width(&db, sql);
        assert!(answer.is_ok(), "{sql}: {answer:?}");
    }
}

#[test]
fn sharded_scans_reproduce_unsharded_errors() {
    // An unknown column errors once a row reaches its conjunct, and only
    // then — identically at every fan-out width, so splitting the scan
    // neither hides a failure nor invents one.
    let db = fan_out_db();
    let reached = answer_at_every_width(&db, "SELECT * FROM v WHERE reading > 0.0 AND missing = 1");
    assert!(reached.is_err(), "{reached:?}");
    let unreached = answer_at_every_width(
        &db,
        "SELECT * FROM v WHERE reading > 1000.0 AND missing = 1",
    );
    assert!(unreached.is_ok(), "{unreached:?}");
}

// ---------------------------------------------------------------------------
// Append-incremental maintenance ≡ rebuild from scratch
// ---------------------------------------------------------------------------

/// Engine defaults for the append-differential property: a small AR(1)
/// window keeps per-case model fits cheap and one build thread avoids
/// oversubscribing 64 proptest cases (the produced view is identical for
/// every thread count anyway).
fn append_config(cache: Option<tspdb::SigmaCacheConfig>) -> tspdb::ViewBuilderConfig {
    tspdb::ViewBuilderConfig {
        window: 24,
        metric_config: tspdb::MetricConfig {
            p: 1,
            q: 0,
            ..Default::default()
        },
        cache,
        threads: 1,
        ..Default::default()
    }
}

/// The builder configurations append maintenance must hold under: direct
/// evaluation, the default distance-constrained σ-cache (`d_s` fixed, the
/// ladder re-bases when min σ̂ falls) and a memory-only one (`d_s` follows
/// the σ̂ spread, so a new maximum moves the ladder too).
fn append_caches() -> [Option<tspdb::SigmaCacheConfig>; 3] {
    [
        None,
        Some(tspdb::SigmaCacheConfig::default()),
        Some(tspdb::SigmaCacheConfig {
            distance_constraint: None,
            memory_constraint: Some(12),
        }),
    ]
}

proptest! {
    #[test]
    fn append_incremental_state_equals_rebuild_from_scratch(
        base in proptest::collection::vec(15.0f64..25.0, 26..34),
        batches in proptest::collection::vec(
            proptest::collection::vec(15.0f64..25.0, 1..12),
            1..4,
        ),
    ) {
        // The streaming contract: appending batches to a live engine —
        // incrementally maintaining its Ω-view and the view's totals —
        // must leave state *bit-identical* to a fresh engine handed the
        // full prefix at once, after every prefix of the append sequence.
        // Checked through every query strategy (exact, Monte-Carlo
        // worlds), the O(1) totals behind `WITH SYNOPSIS`, and a full view
        // scan, compared as canonical result bytes.
        use tspdb::SharedEngine;
        const TABLE: &str = "CREATE TABLE stream (t INT, r FLOAT)";
        const VIEW: &str =
            "CREATE VIEW sv AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM stream";
        const CHECKS: [&str; 5] = [
            "SELECT * FROM sv THRESHOLD 0.0",
            "SELECT COUNT(*), SUM(lambda) FROM sv GROUP BY WINDOW(t, 8)",
            "SELECT COUNT(*) FROM sv HAVING COUNT(*) >= 20 WITH WORLDS 400 SEED 11",
            "SELECT COUNT(*), SUM(lambda) FROM sv WITH SYNOPSIS BUCKETS 8",
            "SELECT COUNT(*), SUM(r) FROM stream GROUP BY WINDOW(t, 8)",
        ];
        let rows = |from: usize, vals: &[f64]| -> Vec<Vec<Value>> {
            vals.iter()
                .enumerate()
                .map(|(i, &r)| vec![Value::Int((from + i) as i64), Value::Float(r)])
                .collect()
        };

        for cache in append_caches() {
            let live = SharedEngine::new(append_config(cache));
            live.execute(TABLE).unwrap();
            live.append_rows("stream", rows(0, &base)).unwrap();
            live.execute(VIEW).unwrap();

            let mut all = base.clone();
            for batch in &batches {
                live.append_rows("stream", rows(all.len(), batch)).unwrap();
                all.extend_from_slice(batch);

                let rebuilt = SharedEngine::new(append_config(cache));
                rebuilt.execute(TABLE).unwrap();
                rebuilt.append_rows("stream", rows(0, &all)).unwrap();
                rebuilt.execute(VIEW).unwrap();
                for sql in CHECKS {
                    prop_assert_eq!(
                        tspdb_wire::canonical_result_bytes(&live.query(sql).unwrap()),
                        tspdb_wire::canonical_result_bytes(&rebuilt.query(sql).unwrap()),
                        "{} diverged after {} appended rows under {:?}",
                        sql,
                        all.len() - base.len(),
                        cache
                    );
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn totals_after_write_equal_build_from_scratch(
        probs in proptest::collection::vec(0.0f64..=1.0, 0..40),
        extra in proptest::collection::vec(0.0f64..=1.0, 1..10),
        split in 0usize..10,
    ) {
        // The totals behind the O(1) whole-relation answers absorb every
        // write: after appends and after re-registration they equal those
        // of a from-scratch build, and `WITH SYNOPSIS` still answers the
        // clause-free bytes.
        let totals = |t: &ProbTable| {
            (
                t.expected_count().to_bits(),
                t.expected_sum("room").unwrap().to_bits(),
                t.expected_sum("reading").unwrap().to_bits(),
            )
        };
        const SQL: &str = "SELECT COUNT(*), SUM(reading), AVG(room) FROM v";
        let mut grown = probs.clone();
        grown.extend_from_slice(&extra);
        let scratch = table_from(&grown);

        let mut db = tspdb::Database::new();
        db.register_prob_table(table_from(&probs)).unwrap();
        let split = probs.len() + split.min(extra.len());
        for range in [probs.len()..split, split..grown.len()] {
            let mut part = ProbTable::new("v", scratch.schema().clone());
            part.extend_from_batch(&scratch.batch(), range).unwrap();
            db.append_columns("v", part.columns(), Some(part.probs())).unwrap();
            // Read, so the next append folds into kept totals.
            prop_assert!(answer_bytes(&db, SQL).is_ok());
        }
        prop_assert_eq!(totals(db.prob_table("v").unwrap()), totals(&scratch));
        let appended = answer_bytes(&db, SQL);
        prop_assert_eq!(answer_bytes(&db, &format!("{SQL} WITH SYNOPSIS")), appended.clone());

        db.register_prob_table(table_from(&grown)).unwrap();
        prop_assert_eq!(totals(db.prob_table("v").unwrap()), totals(&scratch));
        prop_assert_eq!(answer_bytes(&db, SQL), appended);
    }
}
