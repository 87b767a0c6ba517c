//! The paper's Fig. 1 worked example, replayed through the SQL surface and
//! the probabilistic query operators.

use tspdb::probdb::query::{
    event_probability, most_probable_per_group, threshold, CmpOp, Comparison,
};
use tspdb::probdb::{ColumnType, Database, ProbTable, Schema, Value};

/// Builds the Fig. 1 `prob_view` exactly as printed in the paper.
fn fig1_view() -> ProbTable {
    let schema = Schema::of(&[("time", ColumnType::Int), ("room", ColumnType::Int)]);
    let mut v = ProbTable::new("prob_view", schema);
    let rows = [
        (1, 1, 0.5),
        (1, 2, 0.1),
        (1, 3, 0.3),
        (1, 4, 0.1),
        (2, 1, 0.2),
        (2, 2, 0.4),
        (2, 3, 0.1),
        (2, 4, 0.3),
    ];
    for (t, room, p) in rows {
        v.insert(vec![Value::Int(t), Value::Int(room)], p).unwrap();
    }
    v
}

#[test]
fn fig1_probabilities_are_well_formed() {
    let v = fig1_view();
    // Each timestamp's room probabilities form a distribution.
    for t in [1i64, 2] {
        let mass: f64 = v
            .iter()
            .filter(|(row, _)| row[0].as_i64() == Some(t))
            .map(|(_, p)| p)
            .sum();
        assert!((mass - 1.0).abs() < 1e-12, "time {t} mass {mass}");
    }
}

#[test]
fn sql_selects_answer_fig1_questions() {
    let mut db = Database::new();
    db.register_prob_table(fig1_view()).unwrap();

    // "Where is Alice most likely to be at time 1?"
    let out = db
        .execute("SELECT room FROM prob_view WHERE time = 1 ORDER BY prob DESC LIMIT 1")
        .unwrap();
    let rows = out.prob_rows().unwrap();
    assert_eq!(rows.row(0)[0], Value::Int(1));
    assert!((rows.probs()[0] - 0.5).abs() < 1e-12);

    // "Which placements are at least 30% likely?"
    let out = db
        .execute("SELECT time, room FROM prob_view WHERE prob >= 0.3")
        .unwrap();
    assert_eq!(out.prob_rows().unwrap().len(), 4); // 0.5, 0.3, 0.4, 0.3
}

#[test]
fn operators_compose_on_fig1_view() {
    let v = fig1_view();

    // Most probable room per time: room 1 at t=1, room 2 at t=2.
    let best = most_probable_per_group(&v, "time").unwrap();
    let picks: Vec<(i64, i64)> = best
        .iter()
        .map(|(r, _)| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
        .collect();
    assert!(picks.contains(&(1, 1)));
    assert!(picks.contains(&(2, 2)));

    // P(Alice visits room 3 at some time) = 1 − (1−0.3)(1−0.1) = 0.37.
    let pred = vec![Comparison::new("room", CmpOp::Eq, 3i64)];
    let p = event_probability(&v, &pred).unwrap();
    assert!((p - 0.37).abs() < 1e-12);

    // Expected room number at time 2: 1·0.2 + 2·0.4 + 3·0.1 + 4·0.3 = 2.5.
    let at2 =
        tspdb::probdb::query::select_prob(&v, &vec![Comparison::new("time", CmpOp::Eq, 2i64)])
            .unwrap();
    assert!((at2.expected_sum("room").unwrap() - 2.5).abs() < 1e-12);

    // Threshold at 0.4 keeps exactly the two most confident placements.
    let confident = threshold(&v, 0.4).unwrap();
    assert_eq!(confident.len(), 2);
}

#[test]
fn windowed_aggregates_answer_fig1_questions() {
    // "Per 2-timestep window, how many sightings do we expect, and how
    // likely is at least one?" — the temporal window clause end to end.
    let mut db = Database::new();
    db.register_prob_table(fig1_view()).unwrap();
    let agg = db
        .query("SELECT COUNT(*) FROM prob_view GROUP BY WINDOW(time, 2) HAVING COUNT(*) >= 1")
        .unwrap()
        .aggregate()
        .unwrap()
        .clone();
    // Bucket [0, 2) holds t=1, bucket [2, 4) holds t=2; each timestamp's
    // probabilities sum to 1, so both expected counts are 1.
    assert_eq!(agg.groups.len(), 2);
    assert_eq!(agg.groups[0].key, vec![Value::Float(0.0)]);
    assert_eq!(agg.groups[1].key, vec![Value::Float(2.0)]);
    for g in &agg.groups {
        assert!((g.values[0].value - 1.0).abs() < 1e-12);
    }
    // P(count ≥ 1): t=1 → 1 − 0.5·0.9·0.7·0.9; t=2 → 1 − 0.8·0.6·0.9·0.7.
    let p0 = agg.groups[0].event_probability.unwrap();
    let p1 = agg.groups[1].event_probability.unwrap();
    assert!((p0 - 0.7165).abs() < 1e-12, "got {p0}");
    assert!((p1 - 0.6976).abs() < 1e-12, "got {p1}");
}

#[test]
fn raw_values_to_view_round_trip_via_sql_strings() {
    // Full textual pipeline: create the raw table via SQL, insert the
    // Fig. 2 values, build a density view, query it — no Rust-level table
    // construction at all.
    let engine = tspdb::SharedEngine::new(tspdb::ViewBuilderConfig {
        window: 40,
        metric_config: tspdb::MetricConfig {
            p: 1,
            q: 0,
            ..tspdb::MetricConfig::default()
        },
        ..tspdb::ViewBuilderConfig::default()
    });
    engine
        .execute("CREATE TABLE raw_values (t INT, r FLOAT)")
        .unwrap();
    // 60 synthetic readings drifting upward, inserted in SQL batches.
    let mut stmt = String::from("INSERT INTO raw_values VALUES ");
    for t in 0..60 {
        if t > 0 {
            stmt.push_str(", ");
        }
        let r = 4.0 + 0.05 * t as f64 + ((t * 7919) % 13) as f64 * 0.01;
        stmt.push_str(&format!("({t}, {r})"));
    }
    engine.execute(&stmt).unwrap();

    engine
        .execute(
            "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.1, n=6 \
             FROM raw_values WHERE t >= 45 USING METRIC vt WINDOW 40",
        )
        .unwrap();
    let out = engine
        .execute("SELECT * FROM pv ORDER BY prob DESC")
        .unwrap();
    let rows = out.prob_rows().unwrap();
    assert_eq!(rows.len(), 15 * 6); // t = 45..59, 6 cells each
    assert!(rows.probs()[0] > 0.05);
}
