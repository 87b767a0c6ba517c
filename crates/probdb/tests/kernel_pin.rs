//! Pins the bits of the three per-group aggregate kernels, as committed in
//! `tests/fixtures/kernels.txt`: the Poisson-binomial count DP
//! ([`count_distribution_of`] at budget 0, the form `HAVING COUNT` runs),
//! the sum DP ([`sum_distribution_of`]: its `dist`, `step`, `offset` and
//! `exact`), and the Monte-Carlo world sampler ([`WorldsExecutor`]
//! fingerprints, [`SumEstimate`]s and the `HAVING` events through SQL).
//!
//! The inputs are the edge cases a rewrite of those kernels can get wrong:
//! probabilities 0, 1, the smallest subnormal, 2^-53, 1 − 2^-53 and values
//! one ulp either side of `k·2^-53` (the sampler's resolution), ±0.0,
//! dyadic, non-dyadic and non-finite summed values, 0 and 1 tallied
//! columns, batch sizes 1, 7 and 1024, a `CONFIDENCE` early stop, and
//! fork-join widths 1 and 2. A failing assertion here means an answer
//! changed. If that was deliberate, regenerate the fixture with
//! `cargo test -p tspdb-probdb --test kernel_pin -- --ignored` and say
//! why in the change.

use std::fmt::Write;
use std::path::{Path, PathBuf};
use tspdb_probdb::aggregates::count_distribution_of;
use tspdb_probdb::{
    sum_distribution_of, ColumnType, Database, ProbTable, QueryOutput, Schema, SumDistribution,
    SumEstimate, Value, WorldsConfig, WorldsExecutor,
};

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/kernels.txt")
}

/// SplitMix64: a self-contained input generator, so the fixture does not
/// move with the workspace's RNG.
struct Inputs(u64);

impl Inputs {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` on the 2^-53 grid.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Probabilities at which a presence test `u < p` with `u` on the 2^-53
/// grid is decided by the last bit.
fn edge_probs() -> Vec<f64> {
    let ulp = 1.0 / (1u64 << 53) as f64;
    let mut edges = vec![0.0, 1.0, f64::from_bits(1), ulp, 1.0 - ulp, 0.5];
    for k in [1u64, 3, 1 << 20, (1 << 52) + 1, (1 << 53) - 2] {
        let on = k as f64 * ulp;
        edges.extend([
            f64::from_bits(on.to_bits() - 1),
            on,
            f64::from_bits(on.to_bits() + 1),
        ]);
    }
    edges
}

const LENGTHS: [usize; 7] = [0, 1, 2, 7, 64, 300, 18_000];

/// Probability vectors by family: `edge` cycles the edge values, `rand` is
/// uniform, `mix` is uniform with every fifth entry an edge value.
fn probs(family: &str, n: usize, seed: u64) -> Vec<f64> {
    let edges = edge_probs();
    let mut g = Inputs(seed);
    (0..n)
        .map(|i| match family {
            "edge" => edges[i % edges.len()],
            "rand" => g.unit(),
            "mix" if i % 5 == 0 => edges[g.below(edges.len() as u64) as usize],
            "mix" => g.unit(),
            _ => unreachable!("unknown probability family {family}"),
        })
        .collect()
}

/// Summed values by family.
fn values(family: &str, n: usize, seed: u64) -> Vec<f64> {
    let mut g = Inputs(seed);
    (0..n)
        .map(|i| match family {
            "zero" => [0.0, -0.0][i % 2],
            "dyadic" => match g.below(6) {
                0 => 0.0,
                1 => -0.0,
                _ => (g.below(17) as f64 - 8.0) / 4.0,
            },
            "sparse" => match g.below(16) {
                0 => 1.0,
                1 => -0.5,
                _ => 0.0,
            },
            "nondyadic" => match g.below(4) {
                0 => 0.1 * (g.below(9) as f64 - 4.0),
                1 => 1.0 / 3.0,
                _ => g.unit() * 4.0 - 2.0,
            },
            "infinite" => [1.0, f64::INFINITY, -2.5, f64::NEG_INFINITY][i % 4],
            "posinf" if i == 3 => f64::INFINITY,
            "posinf" => [0.75, -1.5][i % 2],
            "nan" => [0.5, f64::NAN, -1.0][i % 3],
            _ => unreachable!("unknown value family {family}"),
        })
        .collect()
}

/// FNV-1a over the bit patterns: the digest of a vector too long to pin
/// entry by entry.
fn digest(xs: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Every bit pattern for short vectors, the length and digest for long
/// ones.
fn bits(xs: &[f64]) -> String {
    let mut s = format!("len={} fnv={:016x}", xs.len(), digest(xs));
    if xs.len() <= 400 {
        for x in xs {
            write!(s, " {:016x}", x.to_bits()).unwrap();
        }
    }
    s
}

/// The `dist`, `step` and `offset` of a [`SumDistribution`], recovered
/// from its `Debug` rendering (Rust prints floats as the shortest string
/// that parses back to the same bits), and its `is_exact`.
fn sum_parts(d: &SumDistribution) -> (Vec<f64>, f64, f64, bool) {
    let s = format!("{d:?}");
    let field = |name: &str| -> &str {
        let key = format!("{name}: ");
        let start = s.find(&key).unwrap_or_else(|| panic!("no {name} in {s}")) + key.len();
        let rest = &s[start..];
        &rest[..rest.find([',', ' ']).unwrap_or(rest.len())]
    };
    let list_start = s.find("dist: [").expect("dist field") + "dist: [".len();
    let list = &s[list_start..list_start + s[list_start..].find(']').expect("dist list end")];
    let dist = list
        .split(", ")
        .map(|x| x.parse().expect("dist entry"))
        .collect();
    let step = field("step").parse().expect("step");
    let offset = field("offset").parse().expect("offset");
    (dist, step, offset, d.is_exact())
}

fn sum_estimate(s: &SumEstimate) -> String {
    format!(
        "sum[{}]={:016x}/{:016x}/{:016x}",
        s.column,
        s.mean.to_bits(),
        s.variance.to_bits(),
        s.ci_half_width.to_bits()
    )
}

fn render_count(out: &mut String) {
    for &n in &LENGTHS {
        // The O(n²) DP at n = 18 000 is pinned once, not per family.
        let families: &[&str] = if n > 300 {
            &["mix"]
        } else {
            &["edge", "rand", "mix"]
        };
        for family in families {
            let (dist, _) = count_distribution_of(&probs(family, n, n as u64 + 1), 0.0);
            writeln!(out, "count {family} n={n} {}", bits(&dist)).unwrap();
        }
    }
}

fn render_sum(out: &mut String) {
    for &n in &LENGTHS {
        let families: &[&str] = if n > 300 {
            &["zero", "sparse"]
        } else {
            &["zero", "dyadic", "sparse", "nondyadic"]
        };
        for pfam in ["edge", "mix"] {
            for vfam in families {
                let p = probs(pfam, n, n as u64 + 7);
                let v = values(vfam, n, n as u64 + 11);
                let line = match sum_distribution_of(&p, &v) {
                    Ok(d) => {
                        let (dist, step, offset, exact) = sum_parts(&d);
                        format!(
                            "step={:016x} offset={:016x} exact={exact} {}",
                            step.to_bits(),
                            offset.to_bits(),
                            bits(&dist)
                        )
                    }
                    Err(e) => format!("err {e}"),
                };
                writeln!(out, "sum {pfam}/{vfam} n={n} {line}").unwrap();
            }
        }
    }
    // A dyadic group too wide for the DP's cell budget.
    let p = probs("mix", 18_000, 3);
    let v = values("dyadic", 18_000, 5);
    let line = match sum_distribution_of(&p, &v) {
        Ok(d) => format!("ok support={}", d.support_len()),
        Err(e) => format!("err {e}"),
    };
    writeln!(out, "sum mix/dyadic n=18000 {line}").unwrap();
}

/// Out-of-range and NaN probabilities, which the sampler clamps (NaN is
/// never present).
fn sampler_probs(n: usize, seed: u64) -> Vec<f64> {
    let mut p = probs("mix", n, seed);
    for (i, x) in p.iter_mut().enumerate() {
        match i % 23 {
            4 => *x = -0.25,
            9 => *x = 1.5,
            17 => *x = f64::NAN,
            _ => {}
        }
    }
    p
}

fn executor(
    worlds: usize,
    seed: u64,
    batch: usize,
    ci: Option<f64>,
    threads: usize,
) -> WorldsExecutor {
    WorldsExecutor::new(WorldsConfig {
        max_worlds: worlds,
        seed,
        target_ci: ci,
        threads,
        batch_size: batch,
    })
    .unwrap()
}

/// A tallied column: `(name, values parallel to the probabilities)`.
type Column<'a> = (&'a str, &'a [f64]);

fn render_sampler(out: &mut String) {
    for &n in &[0usize, 1, 7, 64, 300] {
        let p = sampler_probs(n, n as u64 + 13);
        let dyadic = values("dyadic", n, n as u64 + 17);
        let infinite = values("infinite", n, n as u64 + 23);
        let nan = values("nan", n, n as u64 + 29);
        // One +∞ tuple among finite ones: a world sum is +∞ or finite,
        // never NaN, unless absent tuples are multiplied by 0.
        let posinf = values("posinf", n, n as u64 + 31);
        let shapes: [(&str, Option<Column>); 5] = [
            ("c0", None),
            ("c1", Some(("d", &dyadic))),
            ("c1nan", Some(("q", &nan))),
            ("c1inf", Some(("i", &infinite))),
            ("c1posinf", Some(("p", &posinf))),
        ];
        for (shape, column) in shapes {
            for batch in [1usize, 7, 1024] {
                for threads in [1usize, 2] {
                    let worlds = if n > 64 { 1500 } else { 3000 };
                    let exec = executor(worlds, 0xC0FFEE ^ n as u64, batch, None, threads);
                    let mut result = exec.run_domain(&p, column);
                    let sum = result.sum.take();
                    let mut line = format!(
                        "worlds {shape} n={n} batch={batch} threads={threads} {}",
                        result.fingerprint()
                    );
                    if let Some(s) = &sum {
                        write!(line, " {}", sum_estimate(s)).unwrap();
                    }
                    writeln!(out, "{line}").unwrap();
                }
            }
        }
    }
    // CONFIDENCE early stop, through the single-column entry point.
    let p = sampler_probs(7, 31);
    let v = values("dyadic", 7, 37);
    for threads in [1usize, 2] {
        let result =
            executor(1_000_000, 41, 1024, Some(0.004), threads).run_domain(&p, Some(("d", &v)));
        assert!(result.converged, "the CONFIDENCE target must stop early");
        writeln!(
            out,
            "worlds confidence threads={threads} {}",
            result.fingerprint()
        )
        .unwrap();
    }
}

/// A `(g, x)` relation for the SQL statements: three groups, dyadic and
/// non-dyadic values, edge probabilities.
fn database() -> Database {
    let mut db = Database::new();
    let schema = Schema::of(&[("g", ColumnType::Int), ("x", ColumnType::Float)]);
    let mut t = ProbTable::new("kp", schema);
    let p = probs("mix", 240, 43);
    let dyadic = values("dyadic", 240, 47);
    let nondyadic = values("nondyadic", 240, 53);
    for i in 0..240 {
        let x = if i % 3 == 2 { nondyadic[i] } else { dyadic[i] };
        t.insert(vec![Value::Int(i as i64 % 3), Value::Float(x)], p[i])
            .unwrap();
    }
    db.register_prob_table(t).unwrap();
    db
}

const STATEMENTS: [&str; 8] = [
    "SELECT g, COUNT(*), SUM(x) FROM kp GROUP BY g HAVING SUM(x) >= 3 WITH WORLDS 3000 SEED 9",
    "SELECT g, COUNT(*) FROM kp GROUP BY g HAVING SUM(x) < -1.5 WITH WORLDS 2000 SEED 10",
    "SELECT COUNT(*), SUM(x) FROM kp WITH WORLDS 200000 SEED 4 CONFIDENCE 0.01",
    "SELECT * FROM kp WHERE g = 1 WITH WORLDS 2000 SEED 2",
    "SELECT x FROM kp WHERE g = 2 WITH WORLDS 2000 SEED 5",
    "SELECT g, COUNT(*) FROM kp GROUP BY g HAVING COUNT(*) >= 40",
    "SELECT g, SUM(x) FROM kp GROUP BY g HAVING SUM(x) <= 2.5",
    "SELECT COUNT(*) FROM kp GROUP BY WINDOW(g, 2) HAVING SUM(x) > 0",
];

/// The sampler over the domain a row-level `… WITH WORLDS n SEED s`
/// statement names, at `threads`: what the statement answered while row
/// plans were sampled. They are answered in closed form now, so their
/// lines pin [`WorldsExecutor::run_domain`] over the statement's rows
/// (and its one projected column).
fn sampled_rows(db: &Database, sql: &str, threads: usize) -> String {
    let (rows_sql, clause) = sql
        .split_once(" WITH WORLDS ")
        .expect("a WITH WORLDS statement");
    let mut words = clause.split(' ');
    let worlds = words
        .next()
        .and_then(|w| w.parse().ok())
        .expect("world count");
    let seed = words.nth(1).and_then(|s| s.parse().ok()).expect("seed");
    let QueryOutput::ProbRows(rows) = db.query(rows_sql).unwrap() else {
        panic!("{rows_sql} returns no probabilistic rows");
    };
    let values: Vec<f64> = rows.iter().filter_map(|(row, _)| row[0].as_f64()).collect();
    let column = (rows.schema().arity() == 1).then_some((rows.schema().column(0).0, &values[..]));
    let exec = executor(
        worlds,
        seed,
        WorldsConfig::default().batch_size,
        None,
        threads,
    );
    let w = exec.run_domain(rows.probs(), column);
    let sum = w.sum.as_ref().map(sum_estimate).unwrap_or_default();
    format!("{} {sum}", w.fingerprint())
}

fn render_sql(out: &mut String) {
    let db = database();
    for threads in [1usize, 2] {
        db.set_worlds_threads(threads);
        for sql in STATEMENTS {
            let answer = match db.query(sql).unwrap() {
                QueryOutput::Aggregate(a) => a.fingerprint(),
                QueryOutput::Worlds(w) => {
                    assert_eq!(w.worlds, 0, "{sql} samples nothing");
                    sampled_rows(&db, sql, threads)
                }
                other => panic!("unexpected output for {sql}: {other:?}"),
            };
            writeln!(out, "sql threads={threads} {sql} => {answer}").unwrap();
        }
    }
}

fn render() -> String {
    let mut out = String::new();
    render_count(&mut out);
    render_sum(&mut out);
    render_sampler(&mut out);
    render_sql(&mut out);
    out
}

#[test]
fn aggregate_kernels_reproduce_the_pinned_bits() {
    let pinned = std::fs::read_to_string(fixture()).expect("read the kernel fixture");
    let got = render();
    let (pinned, got): (Vec<&str>, Vec<&str>) = (pinned.lines().collect(), got.lines().collect());
    for (i, (want, have)) in pinned.iter().zip(&got).enumerate() {
        assert!(
            want == have,
            "line {} differs from the fixture:\n  pinned: {}\n  got:    {}",
            i + 1,
            &want[..want.len().min(300)],
            &have[..have.len().min(300)]
        );
    }
    assert_eq!(pinned.len(), got.len(), "fixture line count");
}

#[test]
#[ignore = "rewrites tests/fixtures/kernels.txt; run only for a deliberate answer change"]
fn regenerate_kernel_fixture() {
    std::fs::create_dir_all(fixture().parent().unwrap()).unwrap();
    std::fs::write(fixture(), render()).unwrap();
}
