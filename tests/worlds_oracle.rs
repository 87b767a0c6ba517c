//! A brute-force possible-worlds oracle for the row-level `WITH WORLDS`
//! answer.
//!
//! A tuple-independent relation of `n` tuples denotes a distribution over
//! its `2^n` sub-relations (possible worlds). For `n ≤ 12`, probabilities
//! `k/16` and small integer values, every world weight is an integer over
//! `16^n`, so the oracle enumerates the worlds in exact integer arithmetic
//! and rounds each answer field to `f64` once. Every field of the
//! `WorldsResult` a row-level statement answers is checked against it:
//! the moments and the event probability to within a few ulp, and the
//! count distribution to within L1 `2^-60` (the trim budget of the
//! row-level count DP) plus rounding. The oracle shares no code with the
//! engine: it restricts the domain, enumerates and sums on its own.

use proptest::prelude::*;
use tspdb::probdb::{ColumnType, ProbTable, Schema, Value, WorldsResult};

/// Most tuples the oracle enumerates (`2^12` worlds).
const MAX_TUPLES: usize = 12;

/// One tuple: group `g`, integer value `v`, probability `k/16`.
#[derive(Debug, Clone, Copy)]
struct Tuple {
    g: i64,
    v: i64,
    k: u32,
}

impl Tuple {
    fn p(&self) -> f64 {
        self.k as f64 / 16.0
    }
}

/// The exact answer over a domain, each field rounded once.
#[derive(Debug)]
struct Oracle {
    event_probability: f64,
    count_distribution: Vec<f64>,
    count_mean: f64,
    count_variance: f64,
    sum_mean: f64,
    sum_variance: f64,
}

/// `num / 16^n` rounded once: the scale is a power of two, so only the
/// integer-to-float conversion rounds.
fn ratio(num: i128, n: usize) -> f64 {
    num as f64 / 16f64.powi(n as i32)
}

/// Enumerates every world of `domain`. A world's weight is
/// `W / 16^n` with `W = Π (k or 16 − k)`; the moments are
/// `E[X] = ΣW·x / 16^n` and `Var[X] = (16^n·ΣW·x² − (ΣW·x)²) / 16^(2n)`,
/// all in integers.
fn enumerate(domain: &[Tuple]) -> Oracle {
    let n = domain.len();
    assert!(n <= MAX_TUPLES);
    let scale: i128 = 16i128.pow(n as u32);
    let mut dist = vec![0i128; n + 1];
    let (mut wc, mut wc2, mut ws, mut ws2) = (0i128, 0i128, 0i128, 0i128);
    for world in 0u32..1 << n {
        let mut weight: i128 = 1;
        let (mut count, mut sum) = (0i128, 0i128);
        for (i, t) in domain.iter().enumerate() {
            if world & (1 << i) != 0 {
                weight *= t.k as i128;
                count += 1;
                sum += t.v as i128;
            } else {
                weight *= 16 - t.k as i128;
            }
        }
        dist[count as usize] += weight;
        wc += weight * count;
        wc2 += weight * count * count;
        ws += weight * sum;
        ws2 += weight * sum * sum;
    }
    assert_eq!(dist.iter().sum::<i128>(), scale, "world weights sum to 1");
    let variance = |w1: i128, w2: i128| ratio(scale * w2 - w1 * w1, 2 * n);
    Oracle {
        event_probability: ratio(scale - dist[0], n),
        count_distribution: dist.iter().map(|&d| ratio(d, n)).collect(),
        count_mean: ratio(wc, n),
        count_variance: variance(wc, wc2),
        sum_mean: ratio(ws, n),
        sum_variance: variance(ws, ws2),
    }
}

/// Distance in units in the last place between two finite values of the
/// same sign (`±0` are 0 apart).
fn ulps(a: f64, b: f64) -> u64 {
    if a == b {
        return 0;
    }
    assert!(
        a.is_finite() && b.is_finite() && (a >= 0.0) == (b >= 0.0),
        "{a} vs {b}"
    );
    a.abs().to_bits().abs_diff(b.abs().to_bits())
}

/// The most ulp a closed form may sit from the oracle: the log-sum of the
/// event probability folds up to 12 roundings; the moments of these
/// inputs are exact.
const ULPS: u64 = 8;

fn table(tuples: &[Tuple]) -> ProbTable {
    let schema = Schema::of(&[("g", ColumnType::Int), ("v", ColumnType::Int)]);
    let mut t = ProbTable::new("v", schema);
    for tuple in tuples {
        t.insert(vec![Value::Int(tuple.g), Value::Int(tuple.v)], tuple.p())
            .unwrap();
    }
    t
}

/// A row-level statement and the domain the oracle restricts to on its
/// own: `(SQL, kept tuples)`.
fn statements(tuples: &[Tuple]) -> Vec<(&'static str, Vec<Tuple>)> {
    let keep = |f: &dyn Fn(&Tuple) -> bool| tuples.iter().copied().filter(f).collect();
    // TOP 4: the four most probable, ties to the earlier tuple.
    let mut by_prob: Vec<usize> = (0..tuples.len()).collect();
    by_prob.sort_by(|&a, &b| tuples[b].k.cmp(&tuples[a].k).then(a.cmp(&b)));
    let top = by_prob.iter().take(4).map(|&i| tuples[i]).collect();
    vec![
        ("SELECT * FROM v WITH WORLDS 100 SEED 3", tuples.to_vec()),
        ("SELECT v FROM v WITH WORLDS 1000", tuples.to_vec()),
        (
            "SELECT v FROM v WHERE g = 1 WITH WORLDS 10 SEED 9",
            keep(&|t| t.g == 1),
        ),
        (
            "SELECT v FROM v THRESHOLD 0.5 WITH WORLDS 10",
            keep(&|t| t.k >= 8),
        ),
        ("SELECT v FROM v TOP 4 WITH WORLDS 10 SEED 2", top),
        (
            "SELECT g, v FROM v WHERE v >= 0 AND prob < 1 WITH WORLDS 7",
            keep(&|t| t.v >= 0 && t.k < 16),
        ),
    ]
}

/// Checks every field of each statement's answer against the oracle.
fn check(tuples: &[Tuple]) {
    let mut db = tspdb::Database::new();
    db.register_prob_table(table(tuples)).unwrap();
    for (sql, domain) in statements(tuples) {
        let want = enumerate(&domain);
        let got: WorldsResult = db.query(sql).unwrap().worlds().unwrap().clone();
        let ctx = format!("{sql} over {domain:?}");
        assert_eq!((got.worlds, got.threads), (0, 1), "{ctx}");
        assert!(got.converged, "{ctx}");
        assert_eq!(got.matching_tuples, domain.len(), "{ctx}");
        let seed = sql.split(" SEED ").nth(1).map_or(0, |s| s.parse().unwrap());
        assert_eq!(got.seed, seed, "{ctx}");
        assert_eq!(
            (got.event_ci_half_width, got.count_ci_half_width),
            (0.0, 0.0),
            "{ctx}"
        );
        for (field, have, exact) in [
            ("event", got.event_probability, want.event_probability),
            ("count mean", got.count_mean, want.count_mean),
            ("count variance", got.count_variance, want.count_variance),
        ] {
            assert!(
                ulps(have, exact) <= ULPS,
                "{field}: {have:e} vs {exact:e}, {ctx}"
            );
        }
        assert_eq!(got.count_distribution.len(), domain.len() + 1, "{ctx}");
        let l1: f64 = got
            .count_distribution
            .iter()
            .zip(&want.count_distribution)
            .map(|(a, b)| (a - b).abs())
            .sum();
        let rounding = 4.0 * domain.len() as f64 * f64::EPSILON;
        assert!(l1 <= 2f64.powi(-60) + rounding, "count L1 {l1:e}, {ctx}");
        match (&got.sum, sql.starts_with("SELECT v ")) {
            (Some(sum), true) => {
                assert_eq!(
                    (sum.column.as_str(), sum.ci_half_width),
                    ("v", 0.0),
                    "{ctx}"
                );
                assert!(ulps(sum.mean, want.sum_mean) <= ULPS, "sum mean, {ctx}");
                assert!(
                    ulps(sum.variance, want.sum_variance) <= ULPS,
                    "sum var, {ctx}"
                );
            }
            (None, false) => {}
            (sum, _) => panic!("sum {sum:?} for {ctx}"),
        }
    }
}

fn tuples_of(raw: &[(i64, i64, u32)]) -> Vec<Tuple> {
    raw.iter().map(|&(g, v, k)| Tuple { g, v, k }).collect()
}

#[test]
fn the_oracle_agrees_with_hand_computed_worlds() {
    // p = 1/2 and 1/4: P(none) = 3/8, so P(some) = 5/8; the count is
    // 0, 1, 2 with 3/8, 4/8, 1/8; the sum of values 2 and −4 is 0, 2, −4,
    // −2 with 3/8, 3/8, 1/8, 1/8.
    let o = enumerate(&tuples_of(&[(0, 2, 8), (0, -4, 4)]));
    assert_eq!(o.event_probability, 0.625);
    assert_eq!(o.count_distribution, vec![0.375, 0.5, 0.125]);
    assert_eq!((o.count_mean, o.count_variance), (0.75, 0.4375));
    assert_eq!(o.sum_mean, 0.0);
    assert_eq!(o.sum_variance, 0.375 * 4.0 + 0.125 * 16.0 + 0.125 * 4.0);
    let empty = enumerate(&[]);
    assert_eq!(empty.event_probability, 0.0);
    assert_eq!(empty.count_distribution, vec![1.0]);
}

#[test]
fn edge_domains_match_the_oracle() {
    for raw in [
        vec![],
        vec![(1, 3, 0)],
        vec![(1, 3, 16)],
        vec![(1, -2, 16), (1, 5, 0), (1, 1, 1)],
        vec![(0, 1, 1); MAX_TUPLES],
        vec![(1, -4, 15); MAX_TUPLES],
        (0..MAX_TUPLES as i64)
            .map(|i| (i % 3, i - 6, (i as u32 * 7) % 17))
            .collect(),
    ] {
        check(&tuples_of(&raw));
    }
}

proptest! {
    #[test]
    fn row_level_answers_match_world_enumeration(
        raw in proptest::collection::vec((0i64..3, -4i64..=4, 0u32..=16), 0..MAX_TUPLES + 1),
    ) {
        check(&tuples_of(&raw));
    }
}
