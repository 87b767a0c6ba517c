//! Possible-world semantics: sampling and Monte-Carlo estimation.
//!
//! A tuple-independent probabilistic relation denotes a distribution over
//! *possible worlds* — deterministic relations in which each tuple appears
//! independently with its probability. Sampling worlds gives both a
//! validation harness for the exact operators (Monte-Carlo frequencies must
//! converge to computed probabilities) and an escape hatch for queries with
//! no closed form, in the spirit of MCDB (Jampani et al.), which the paper
//! cites as the ancestor of its parameter-storing design. Through SQL only
//! a `HAVING` event has no closed form here: a row-level `WITH WORLDS`
//! statement answers a [`WorldsResult`] in closed form (`crate::plan`).
//!
//! [`WorldsExecutor`] fans world sampling out over
//! [`tspdb_stats::parallel`] in fixed-size *batches*, each batch seeded
//! deterministically from `(seed, batch index)` so the estimate is
//! **bit-identical at every thread count**, with per-batch aggregation of
//! the event probability, the COUNT distribution (histogram, moments,
//! quantiles), an optional SUM aggregate, 95% confidence intervals, and
//! early termination once the event-probability CI half-width drops below
//! a target. `tests/worlds_differential.rs` checks its estimates against
//! the exact closed forms.

use crate::error::DbError;
use crate::query::CmpOp;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::fmt;
use std::hint::select_unpredictable;
use std::time::{Duration, Instant};
use tspdb_stats::parallel::{effective_threads, map_segments};

/// Worlds per deterministic batch: the RNG granularity of the executor.
///
/// Each batch consumes its own seeded generator, so the batch size is part
/// of the reproducibility contract — changing it changes the stream (but
/// never the thread count's influence, which is zero).
pub(crate) const DEFAULT_BATCH_SIZE: usize = 1024;

/// Batches evaluated between two convergence checks. A round is the unit of
/// parallel fan-out *and* of early termination, so it is a constant rather
/// than a function of the thread count — otherwise the stopping point (and
/// with it the estimate) would depend on the machine.
const BATCHES_PER_ROUND: usize = 8;

/// Two-sided 95% standard-normal quantile used for all intervals.
const Z_95: f64 = 1.959_963_984_540_054;

/// Configuration of a [`WorldsExecutor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldsConfig {
    /// Upper bound on the number of worlds to sample.
    pub max_worlds: usize,
    /// Base seed; combined with each batch index to seed that batch's RNG.
    pub seed: u64,
    /// Early-termination target: stop as soon as the 95% CI half-width of
    /// the event-probability estimate is at most this value (checked once
    /// per round). `None` always samples `max_worlds` worlds.
    pub target_ci: Option<f64>,
    /// Fork-join width (`0` = one per core); never affects the estimate.
    pub threads: usize,
    /// Worlds per deterministic batch; see `DEFAULT_BATCH_SIZE`.
    pub batch_size: usize,
}

impl Default for WorldsConfig {
    fn default() -> Self {
        WorldsConfig {
            max_worlds: 10_000,
            seed: 0,
            target_ci: None,
            threads: 0,
            batch_size: DEFAULT_BATCH_SIZE,
        }
    }
}

/// The SUM aggregate over one numeric column (`Σ v_i` over tuples present
/// in a world): its mean and variance. A row-level `WITH WORLDS` statement
/// reports the closed forms `Σp·v` and `Σp(1 − p)v²` with a zero
/// half-width; [`WorldsExecutor::run_domain`] reports sampled moments.
#[derive(Debug, Clone, PartialEq)]
pub struct SumEstimate {
    /// Summed column.
    pub column: String,
    /// Mean of the per-world sum: exactly [`ProbTable::expected_sum`]'s
    /// `Σp·v` in a statement's answer, the sampled mean from the executor.
    ///
    /// [`ProbTable::expected_sum`]: crate::ProbTable::expected_sum
    pub mean: f64,
    /// Variance of the per-world sum (sample variance from the executor).
    pub variance: f64,
    /// 95% CI half-width of the mean; 0 for a closed form.
    pub ci_half_width: f64,
}

/// The answer to a row-level `WITH WORLDS` statement, and what one
/// [`WorldsExecutor::run_domain`] produces: the matching-tuple count and
/// event over a domain of independent tuples, plus the per-query
/// statistics the SQL layer surfaces.
///
/// A statement's answer is closed forms: `worlds = 0`, `converged`, and
/// every half-width 0. The executor fills the same fields with Monte-Carlo
/// estimates.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldsResult {
    /// Worlds actually sampled (≤ `max_worlds`; less on early
    /// termination); 0 for a closed-form answer.
    pub worlds: usize,
    /// Tuples matching the predicate (the domain).
    pub matching_tuples: usize,
    /// Seed the run was keyed on (echoed by a closed-form answer).
    pub seed: u64,
    /// Effective fork-join width of the sampler (diagnostic only — the
    /// answer is identical at every width); 1 for a closed-form answer,
    /// whose folds run on the calling thread.
    pub threads: usize,
    /// Whether the CI target stopped sampling before `max_worlds`; always
    /// set for a closed-form answer.
    pub converged: bool,
    /// `P(at least one matching tuple exists)`: exactly
    /// [`crate::query::event_probability`] in a statement's answer, the
    /// sampled frequency from the executor.
    pub event_probability: f64,
    /// 95% CI half-width for the event probability — the *Wilson-score*
    /// width, which stays positive even at empirical frequencies of
    /// exactly 0 or 1 (where the naive Wald width collapses to zero).
    ///
    /// Note the deliberate pairing: `event_probability` itself remains the
    /// unbiased empirical frequency (not the Wilson-adjusted midpoint, so
    /// that MC estimates converge to the exact operators without bias),
    /// while this width is the Wilson one. Near the boundaries read it as
    /// an uncertainty scale — the actual 95% interval is clipped to
    /// `[0, 1]` and one-sided at an estimate of exactly 0 or 1. 0 for a
    /// closed-form answer.
    pub event_ci_half_width: f64,
    /// The matching-tuple count distribution, `matching_tuples + 1`
    /// entries; entry `k` is `P(count = k)`. In a statement's answer it is
    /// the count DP with its far tails trimmed by at most `2^-60` of mass
    /// (L1 to [`crate::aggregates::count_distribution`]); from the
    /// executor, the sampled histogram.
    pub count_distribution: Vec<f64>,
    /// Mean of the count: `Σp`, or the mean of the sampled counts.
    pub count_mean: f64,
    /// Variance of the count: `Σp(1 − p)`, or the sample variance.
    pub count_variance: f64,
    /// 95% CI half-width of `count_mean`; 0 for a closed form.
    pub count_ci_half_width: f64,
    /// SUM aggregate, when a numeric column was requested.
    pub sum: Option<SumEstimate>,
    /// Wall-clock time of the run.
    pub wall: Duration,
}

impl WorldsResult {
    /// Quantile of the sampled count distribution: the smallest count `k`
    /// with `P(count ≤ k) ≥ q` (`q` clamped to `[0, 1]`).
    pub(crate) fn count_quantile(&self, q: f64) -> usize {
        let q = q.clamp(0.0, 1.0);
        let mut cdf = 0.0;
        for (k, &mass) in self.count_distribution.iter().enumerate() {
            cdf += mass;
            if cdf >= q - 1e-12 {
                return k;
            }
        }
        self.count_distribution.len().saturating_sub(1)
    }

    /// Bit-exact fingerprint of every estimate (wall time and thread count
    /// excluded): two runs with equal fingerprints produced identical
    /// numbers. This is what the differential tests compare across thread
    /// counts.
    pub fn fingerprint(&self) -> String {
        use fmt::Write;
        let mut s = String::new();
        write!(
            s,
            "w={} m={} seed={} conv={} p={:016x} pci={:016x} cm={:016x} cv={:016x} cci={:016x}",
            self.worlds,
            self.matching_tuples,
            self.seed,
            self.converged,
            self.event_probability.to_bits(),
            self.event_ci_half_width.to_bits(),
            self.count_mean.to_bits(),
            self.count_variance.to_bits(),
            self.count_ci_half_width.to_bits(),
        )
        .expect("write to String cannot fail");
        for d in &self.count_distribution {
            write!(s, " {:016x}", d.to_bits()).expect("write to String cannot fail");
        }
        if let Some(sum) = &self.sum {
            write!(
                s,
                " sum[{}]={:016x}/{:016x}/{:016x}",
                sum.column,
                sum.mean.to_bits(),
                sum.variance.to_bits(),
                sum.ci_half_width.to_bits(),
            )
            .expect("write to String cannot fail");
        }
        s
    }
}

impl fmt::Display for WorldsResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let threads = format!(
            "{} thread{}",
            self.threads,
            if self.threads == 1 { "" } else { "s" }
        );
        let ms = self.wall.as_secs_f64() * 1e3;
        if self.worlds == 0 {
            writeln!(
                f,
                "worlds: none sampled, closed forms (seed {}, {threads}, {ms:.3} ms)",
                self.seed
            )?;
        } else {
            writeln!(
                f,
                "worlds: {} sampled (seed {}, {threads}, {}converged, {ms:.3} ms)",
                self.worlds,
                self.seed,
                if self.converged { "" } else { "not " },
            )?;
        }
        writeln!(
            f,
            "event probability: {:.6} ± {:.6}",
            self.event_probability, self.event_ci_half_width
        )?;
        writeln!(
            f,
            "count: mean {:.4} ± {:.4}, variance {:.4}, p50 {}, p95 {}",
            self.count_mean,
            self.count_ci_half_width,
            self.count_variance,
            self.count_quantile(0.5),
            self.count_quantile(0.95),
        )?;
        if let Some(sum) = &self.sum {
            writeln!(
                f,
                "sum({}): mean {:.4} ± {:.4}, variance {:.4}",
                sum.column, sum.mean, sum.ci_half_width, sum.variance
            )?;
        }
        Ok(())
    }
}

/// A `HAVING SUM(col) ⟨op⟩ s` event checked inside the sampling loop:
/// each world's sum over the tallied column is compared against the
/// threshold, and the hit frequency estimates the event probability.
/// Checking piggybacks on the per-world sum the tally already computes —
/// no extra RNG is consumed, so adding an event never changes any other
/// estimate's bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SumEventSpec {
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand side of the comparison.
    pub threshold: f64,
}

impl SumEventSpec {
    fn holds(&self, world_sum: f64) -> bool {
        self.op.eval(world_sum.partial_cmp(&self.threshold))
    }
}

/// Per-batch accumulator. Batches are folded into the global tally **in
/// batch order**, so the floating-point reduction tree is independent of
/// how batches were distributed over threads.
struct BatchTally {
    worlds: u64,
    event_hits: u64,
    hist: Vec<u64>,
    /// `Σ_worlds (per-world sum)` of the tallied column (0 without one).
    sum: f64,
    /// `Σ_worlds (per-world sum)²`.
    sum_sq: f64,
    /// Worlds whose column sum satisfied the [`SumEventSpec`] (always 0
    /// when no event was requested).
    sum_event_hits: u64,
}

impl BatchTally {
    fn zero(buckets: usize) -> Self {
        BatchTally {
            worlds: 0,
            event_hits: 0,
            hist: vec![0; buckets],
            sum: 0.0,
            sum_sq: 0.0,
            sum_event_hits: 0,
        }
    }

    /// Books one sampled world's matching-tuple count.
    fn record_world(&mut self, count: usize) {
        self.worlds += 1;
        self.event_hits += (count > 0) as u64;
        self.hist[count] += 1;
    }

    fn absorb(&mut self, other: &BatchTally) {
        self.worlds += other.worlds;
        self.event_hits += other.event_hits;
        for (a, b) in self.hist.iter_mut().zip(&other.hist) {
            *a += b;
        }
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.sum_event_hits += other.sum_event_hits;
    }
}

/// 95% Wilson-score half-width for a binomial proportion.
///
/// Unlike the Wald interval (`z·√(p̂(1−p̂)/n)`), the Wilson interval keeps
/// a positive width at `p̂ = 0` or `p̂ = 1` — essential for the
/// `CONFIDENCE` stopping rule, which would otherwise fire on the very
/// first round of a rare (or near-certain) event with a falsely claimed
/// ±0 interval. Only the *width* is used; the reported point estimate
/// stays the unbiased empirical frequency (see
/// [`WorldsResult::event_ci_half_width`] for how to read the pair).
fn wilson_half_width(hits: u64, worlds: u64) -> f64 {
    let n = worlds as f64;
    let p = hits as f64 / n;
    let z2 = Z_95 * Z_95;
    Z_95 * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / (1.0 + z2 / n)
}

/// Derives a sub-seed from a base seed and a salt (SplitMix64-style mix) —
/// used for per-batch RNGs here and per-group runs in the planner's MC
/// aggregate evaluation.
pub(crate) fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `2^53`: the resolution of the uniform draws presence is tested with.
const DRAW_SCALE: f64 = (1u64 << 53) as f64;

/// The integer presence threshold of a tuple with probability `p`.
///
/// A world draws one 64-bit word `x` per tuple. The tuple is present when
/// the uniform `u = (x >> 11)·2^-53` satisfies `u < p` for `p` clamped to
/// `[0, 1]` — the `rand` shim's Bernoulli test. Since `p·2^53` is exact
/// and `x >> 11` is an integer, `u < p` holds exactly when
/// `x >> 11 < ⌈p·2^53⌉`, so the test needs no float at all. NaN is never
/// present: its threshold is 0.
fn presence_threshold(p: f64) -> u64 {
    if p.is_nan() {
        0
    } else {
        (p.clamp(0.0, 1.0) * DRAW_SCALE).ceil() as u64
    }
}

/// Whether the next draw of `rng` makes a tuple with presence threshold
/// `t` ([`presence_threshold`]) present in the world being sampled.
#[inline]
fn present(rng: &mut StdRng, t: u64) -> bool {
    (rng.next_u64() >> 11) < t
}

/// `if hit { v } else { 0.0 }` — what an absent tuple adds to a world sum
/// — selected on the bit pattern. An integer select lowers to a
/// conditional move, where an `f64` select on baseline x86-64 lowers to a
/// branch on the draw. Never `v · (hit as f64)`: `∞·0` is NaN.
#[inline]
fn kept(hit: bool, v: f64) -> f64 {
    f64::from_bits(select_unpredictable(hit, v.to_bits(), 0))
}

/// The parallel possible-worlds executor.
///
/// ## Determinism contract
///
/// For a fixed `(table, predicate, sum column, max_worlds, seed,
/// batch_size, target_ci)` the result is **bit-identical** at every
/// `threads` setting: worlds are drawn in batches whose RNGs are seeded
/// from the batch *index*, threads only decide which core evaluates which
/// batch, and batch tallies are reduced in index order. Early termination
/// is checked once per fixed-size round of batches, so the stopping point
/// cannot depend on scheduling either.
#[derive(Debug, Clone)]
pub struct WorldsExecutor {
    config: WorldsConfig,
}

impl WorldsExecutor {
    /// Validates the configuration and builds an executor.
    pub fn new(config: WorldsConfig) -> Result<Self, DbError> {
        if config.max_worlds == 0 {
            return Err(DbError::InvalidWorlds(
                "need at least one world (max_worlds = 0)".into(),
            ));
        }
        if config.batch_size == 0 {
            return Err(DbError::InvalidWorlds("batch_size must be positive".into()));
        }
        if let Some(eps) = config.target_ci {
            if !(eps > 0.0) {
                return Err(DbError::InvalidWorlds(format!(
                    "CI target must be positive, got {eps}"
                )));
            }
        }
        Ok(WorldsExecutor { config })
    }

    /// Samples worlds of a domain: tuple `i` exists independently with
    /// probability `probs[i]`, and when `sum` supplies `(column name,
    /// per-tuple values)` the SUM aggregate over present tuples is
    /// estimated too (`sum.1` must be parallel to `probs`). A `HAVING
    /// COUNT` event is read off the sampled count histogram.
    ///
    /// # Examples
    ///
    /// ```
    /// use tspdb_probdb::{WorldsConfig, WorldsExecutor};
    ///
    /// let executor = WorldsExecutor::new(WorldsConfig {
    ///     max_worlds: 4096,
    ///     seed: 7,
    ///     ..WorldsConfig::default()
    /// })
    /// .unwrap();
    /// // Two tuples with P = 0.5 and 0.25: P(at least one) = 0.625.
    /// let result = executor.run_domain(&[0.5, 0.25], None);
    /// assert_eq!(result.worlds, 4096);
    /// assert!((result.event_probability - 0.625).abs() < 0.05);
    /// ```
    pub fn run_domain(&self, probs: &[f64], sum: Option<(&str, &[f64])>) -> WorldsResult {
        self.run_domain_event(probs, sum, None).0
    }

    /// [`WorldsExecutor::run_domain`] plus an optional [`SumEventSpec`]
    /// tested against each world's sum over the `sum` column inside the
    /// sampling loop. The second return value is the event's hit frequency
    /// when an event was requested.
    ///
    /// The event check reuses the per-world sum the tally already computes
    /// and consumes no RNG, so every other estimate stays bit-identical to
    /// an event-free run with the same seed.
    pub(crate) fn run_domain_event(
        &self,
        probs: &[f64],
        sum: Option<(&str, &[f64])>,
        event: Option<SumEventSpec>,
    ) -> (WorldsResult, Option<f64>) {
        let started = Instant::now();
        if let Some((col, vals)) = sum {
            assert_eq!(
                vals.len(),
                probs.len(),
                "run_domain: values of column {col} must be parallel to probs"
            );
        }
        assert!(
            event.is_none() || sum.is_some(),
            "run_domain_event: a sum event needs a tallied column"
        );
        let values = sum.map(|(_, vals)| vals);
        let thresholds: Vec<u64> = probs.iter().map(|&p| presence_threshold(p)).collect();
        let cfg = &self.config;
        let buckets = probs.len() + 1;
        let total_batches = cfg.max_worlds.div_ceil(cfg.batch_size);
        let threads = effective_threads(cfg.threads, total_batches.min(BATCHES_PER_ROUND));

        let mut tally = BatchTally::zero(buckets);
        let mut converged = false;
        let mut next_batch = 0usize;
        while next_batch < total_batches && !converged {
            let round = (total_batches - next_batch).min(BATCHES_PER_ROUND);
            // One tally per batch, returned per segment in segment order;
            // flattening restores exact batch order.
            let segments = map_segments(round, cfg.threads, |range| {
                range
                    .map(|i| {
                        let b = next_batch + i;
                        let worlds_in_batch =
                            cfg.batch_size.min(cfg.max_worlds - b * cfg.batch_size);
                        self.sample_batch(b as u64, worlds_in_batch, &thresholds, values, event)
                    })
                    .collect::<Vec<_>>()
            });
            for batch in segments.iter().flatten() {
                tally.absorb(batch);
            }
            next_batch += round;
            if let Some(eps) = cfg.target_ci {
                if wilson_half_width(tally.event_hits, tally.worlds) <= eps {
                    converged = true;
                }
            }
        }

        let sum_event = event.map(|_| tally.sum_event_hits as f64 / tally.worlds as f64);
        let column = sum.map(|(col, _)| col);
        let result = self.summarize(
            tally,
            probs.len(),
            column,
            threads,
            converged,
            started.elapsed(),
        );
        (result, sum_event)
    }

    /// Draws one batch of worlds with the batch's own deterministic RNG.
    ///
    /// The presence loop is specialized by shape — without a tallied
    /// column (plain `WITH WORLDS` domains and `HAVING COUNT` tails) and
    /// with one (a single projected numeric column, or a `HAVING SUM`
    /// tail). Both consume the RNG identically (one word per tuple per
    /// world, tested against the tuple's [`presence_threshold`]), so the
    /// count estimates are bit-identical whichever shape ran.
    ///
    /// The loops are branch-free: a hit is counted as `hit as usize` and
    /// summed through the select [`kept`]. A world sum starts at `+0.0`
    /// and so is never `−0.0`, which makes adding `+0.0` for an absent
    /// tuple an exact no-op.
    fn sample_batch(
        &self,
        batch: u64,
        worlds: usize,
        thresholds: &[u64],
        values: Option<&[f64]>,
        event: Option<SumEventSpec>,
    ) -> BatchTally {
        let mut rng = StdRng::seed_from_u64(mix_seed(self.config.seed, batch));
        let mut tally = BatchTally::zero(thresholds.len() + 1);
        match values {
            None => {
                for _ in 0..worlds {
                    let mut count = 0usize;
                    for &t in thresholds {
                        count += present(&mut rng, t) as usize;
                    }
                    tally.record_world(count);
                }
            }
            Some(vals) => {
                for _ in 0..worlds {
                    let mut count = 0usize;
                    let mut world_sum = 0.0f64;
                    for (&t, &v) in thresholds.iter().zip(vals) {
                        let hit = present(&mut rng, t);
                        count += hit as usize;
                        world_sum += kept(hit, v);
                    }
                    tally.record_world(count);
                    tally.sum += world_sum;
                    tally.sum_sq += world_sum * world_sum;
                    if let Some(ev) = event {
                        tally.sum_event_hits += ev.holds(world_sum) as u64;
                    }
                }
            }
        }
        tally
    }

    /// Turns the final tally into the reported estimates; `column` names
    /// the tallied SUM column, if there was one.
    fn summarize(
        &self,
        tally: BatchTally,
        matching: usize,
        column: Option<&str>,
        threads: usize,
        converged: bool,
        wall: Duration,
    ) -> WorldsResult {
        let n = tally.worlds as f64;
        let event_probability = tally.event_hits as f64 / n;
        let event_ci_half_width = wilson_half_width(tally.event_hits, tally.worlds);

        let count_distribution: Vec<f64> = tally.hist.iter().map(|&c| c as f64 / n).collect();
        let count_mean = tally
            .hist
            .iter()
            .enumerate()
            .map(|(k, &c)| k as f64 * c as f64)
            .sum::<f64>()
            / n;
        let count_sq = tally
            .hist
            .iter()
            .enumerate()
            .map(|(k, &c)| (k as f64) * (k as f64) * c as f64)
            .sum::<f64>();
        let count_variance = if tally.worlds > 1 {
            ((count_sq - n * count_mean * count_mean) / (n - 1.0)).max(0.0)
        } else {
            0.0
        };
        let count_ci_half_width = Z_95 * (count_variance / n).sqrt();

        let sum = column.map(|column| {
            let mean = tally.sum / n;
            let variance = if tally.worlds > 1 {
                ((tally.sum_sq - n * mean * mean) / (n - 1.0)).max(0.0)
            } else {
                0.0
            };
            SumEstimate {
                column: column.to_string(),
                mean,
                variance,
                ci_half_width: Z_95 * (variance / n).sqrt(),
            }
        });

        WorldsResult {
            worlds: tally.worlds as usize,
            matching_tuples: matching,
            seed: self.config.seed,
            threads,
            converged,
            event_probability,
            event_ci_half_width,
            count_distribution,
            count_mean,
            count_variance,
            count_ci_half_width,
            sum,
            wall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregates::{count_distribution_of, event_probability_of, sum_moments_of};

    /// Five tuples with their rooms; room 1 holds the first and third.
    const PROBS: [f64; 5] = [0.5, 0.25, 0.4, 0.9, 0.05];
    const ROOMS: [f64; 5] = [1.0, 2.0, 1.0, 3.0, 2.0];
    const ROOM_1: [f64; 2] = [0.5, 0.4];

    fn executor(worlds: usize, seed: u64, threads: usize) -> WorldsExecutor {
        WorldsExecutor::new(WorldsConfig {
            max_worlds: worlds,
            seed,
            threads,
            ..WorldsConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn executor_is_bit_identical_across_thread_counts() {
        let reference = executor(20_000, 99, 1).run_domain(&ROOM_1, None);
        for threads in [2, 3, 4, 8] {
            let got = executor(20_000, 99, threads).run_domain(&ROOM_1, None);
            assert_eq!(
                got.fingerprint(),
                reference.fingerprint(),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn executor_estimates_converge_to_exact() {
        let exact = event_probability_of(&ROOM_1);
        let got = executor(40_000, 7, 0).run_domain(&ROOM_1, None);
        assert_eq!(got.worlds, 40_000);
        assert_eq!(got.matching_tuples, 2);
        assert!(
            (got.event_probability - exact).abs() < 3.0 * got.event_ci_half_width + 1e-3,
            "MC {} vs exact {exact} (CI ±{})",
            got.event_probability,
            got.event_ci_half_width
        );
        let (exact_dist, _) = count_distribution_of(&ROOM_1, 0.0);
        assert_eq!(got.count_distribution.len(), exact_dist.len());
        for (k, (a, b)) in exact_dist.iter().zip(&got.count_distribution).enumerate() {
            assert!((a - b).abs() < 0.02, "count {k}: exact {a} vs MC {b}");
        }
    }

    #[test]
    fn executor_sum_matches_expected_sum() {
        let (exact, _) = sum_moments_of(&PROBS, &ROOMS);
        let got = executor(40_000, 3, 0).run_domain(&PROBS, Some(("room", &ROOMS)));
        let sum = got.sum.as_ref().unwrap();
        assert_eq!(sum.column, "room");
        assert!(
            (sum.mean - exact).abs() < 3.0 * sum.ci_half_width + 1e-3,
            "MC sum {} vs exact {exact}",
            sum.mean
        );
    }
    #[test]
    fn sum_event_converges_and_keeps_other_estimates_bit_identical() {
        let probs = [0.5, 0.25, 0.4, 0.9, 0.05];
        let values = [1.5, -2.0, 0.5, 3.0, 1.0];
        let exec = executor(40_000, 21, 0);
        let spec = SumEventSpec {
            op: CmpOp::Ge,
            threshold: 2.0,
        };
        let (with_event, event) = exec.run_domain_event(&probs, Some(("v", &values)), Some(spec));
        let without = exec.run_domain(&probs, Some(("v", &values)));
        // The event check consumes no RNG: every other estimate is
        // bit-identical with and without it.
        assert_eq!(with_event.fingerprint(), without.fingerprint());
        let p_hat = event.expect("event was requested");
        let hw = wilson_half_width((p_hat * 40_000.0).round() as u64, 40_000);
        let exact = crate::aggregates::sum_distribution_of(&probs, &values)
            .unwrap()
            .tail(CmpOp::Ge, 2.0);
        assert!(
            (p_hat - exact).abs() < 3.0 * hw + 1e-3,
            "MC sum event {p_hat} ± {hw} vs exact {exact}"
        );
    }

    #[test]
    fn executor_early_termination_is_deterministic() {
        let run = |threads| {
            WorldsExecutor::new(WorldsConfig {
                max_worlds: 1_000_000,
                seed: 11,
                target_ci: Some(0.01),
                threads,
                ..WorldsConfig::default()
            })
            .unwrap()
            .run_domain(&PROBS, None)
        };
        let a = run(1);
        let b = run(8);
        assert!(a.converged);
        assert!(a.worlds < 1_000_000, "CI target should stop early");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a.event_ci_half_width <= 0.01);
    }

    #[test]
    fn degenerate_proportions_keep_a_positive_ci() {
        // A certain event: the empirical hit rate is exactly 1, where the
        // Wald interval collapses to ±0 and would satisfy any CONFIDENCE
        // target after the first round. The Wilson interval stays open and
        // keeps sampling until it genuinely shrinks below the target.
        let run = |eps: f64, cap: usize| {
            WorldsExecutor::new(WorldsConfig {
                max_worlds: cap,
                seed: 4,
                target_ci: Some(eps),
                threads: 1,
                ..WorldsConfig::default()
            })
            .unwrap()
            .run_domain(&[1.0], None)
        };
        // Too tight for 50k worlds: must exhaust the budget, not "converge".
        let tight = run(1e-5, 50_000);
        assert!(!tight.converged, "±0 Wald interval leaked through");
        assert_eq!(tight.worlds, 50_000);
        assert!(tight.event_ci_half_width > 0.0);
        // Achievable target: converges once the Wilson width reaches it.
        let loose = run(1e-4, 50_000);
        assert!(loose.converged);
        assert!(loose.worlds < 50_000);
        assert!(loose.event_ci_half_width > 0.0);
        assert!(loose.event_ci_half_width <= 1e-4);
    }

    #[test]
    fn count_quantiles_walk_the_cdf() {
        let got = executor(20_000, 5, 0).run_domain(&PROBS, None);
        assert!(got.count_quantile(0.0) <= got.count_quantile(0.5));
        assert!(got.count_quantile(0.5) <= got.count_quantile(1.0));
        assert!(got.count_quantile(1.0) <= 5);
        // Exact median of the Poisson-binomial over the 5 view tuples is 2.
        assert_eq!(got.count_quantile(0.5), 2);
    }

    #[test]
    fn executor_on_empty_domain() {
        let got = executor(1_000, 1, 0).run_domain(&[], None);
        assert_eq!(got.matching_tuples, 0);
        assert_eq!(got.event_probability, 0.0);
        assert_eq!(got.count_distribution, vec![1.0]);
        assert_eq!(got.count_mean, 0.0);
    }

    #[test]
    fn executor_rejects_bad_configs() {
        for cfg in [
            WorldsConfig {
                max_worlds: 0,
                ..WorldsConfig::default()
            },
            WorldsConfig {
                batch_size: 0,
                ..WorldsConfig::default()
            },
            WorldsConfig {
                target_ci: Some(0.0),
                ..WorldsConfig::default()
            },
            WorldsConfig {
                target_ci: Some(-1.0),
                ..WorldsConfig::default()
            },
        ] {
            assert!(matches!(
                WorldsExecutor::new(cfg),
                Err(DbError::InvalidWorlds(_))
            ));
        }
    }

    #[test]
    fn display_summarizes_the_run() {
        let got = executor(2_000, 1, 1).run_domain(&PROBS, Some(("room", &ROOMS)));
        let text = got.to_string();
        assert!(text.contains("worlds: 2000 sampled"));
        assert!(text.contains("event probability"));
        assert!(text.contains("sum(room)"));
    }

    /// The `gen_bool` sampler [`WorldsExecutor::sample_batch`] replaced,
    /// kept as the reference its threshold form matches tally for tally.
    fn sample_batch_reference(
        exec: &WorldsExecutor,
        batch: u64,
        worlds: usize,
        probs: &[f64],
        values: Option<&[f64]>,
        event: Option<SumEventSpec>,
    ) -> BatchTally {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(mix_seed(exec.config.seed, batch));
        let mut tally = BatchTally::zero(probs.len() + 1);
        for _ in 0..worlds {
            let mut count = 0usize;
            let mut world_sum = 0.0f64;
            for (i, &p) in probs.iter().enumerate() {
                if rng.gen_bool(p.clamp(0.0, 1.0)) {
                    count += 1;
                    if let Some(vals) = values {
                        world_sum += vals[i];
                    }
                }
            }
            tally.worlds += 1;
            if count > 0 {
                tally.event_hits += 1;
            }
            tally.hist[count] += 1;
            if values.is_some() {
                tally.sum += world_sum;
                tally.sum_sq += world_sum * world_sum;
            }
            if let Some(ev) = event {
                if ev.holds(world_sum) {
                    tally.sum_event_hits += 1;
                }
            }
        }
        tally
    }

    /// Every field of a tally as integers, so NaN sums compare by bits.
    fn tally_bits(t: &BatchTally) -> Vec<u64> {
        let mut out = vec![t.worlds, t.event_hits, t.sum_event_hits];
        out.extend(&t.hist);
        out.extend([t.sum.to_bits(), t.sum_sq.to_bits()]);
        out
    }

    /// Edge, out-of-range and NaN probabilities next to uniform ones.
    fn sampler_probs(picks: &[(usize, f64)]) -> Vec<f64> {
        let mut edges = crate::aggregates::edge_probabilities();
        edges.extend([-0.25, 1.5, f64::NAN, -0.0]);
        picks
            .iter()
            .map(|&(i, random)| edges.get(i).copied().unwrap_or(random))
            .collect()
    }

    /// Runs both sampler shapes (no column, one column with and without a
    /// sum event) over `probs` and asserts the reference's tallies.
    fn assert_shapes_match(probs: &[f64], seed: u64, worlds: usize) {
        let n = probs.len();
        let dyadic: Vec<f64> = (0..n).map(|i| [0.5, -0.0, -1.25, 3.0][i % 4]).collect();
        let odd: Vec<f64> = (0..n).map(|i| 0.1 * i as f64 - 1.0 / 3.0).collect();
        let wild: Vec<f64> = (0..n)
            .map(|i| [1.0, f64::INFINITY, -2.0, f64::NEG_INFINITY, 0.0][i % 5])
            .collect();
        let nan: Vec<f64> = (0..n).map(|i| [2.0, f64::NAN, -0.5][i % 3]).collect();
        let event = SumEventSpec {
            op: CmpOp::Ge,
            threshold: 1.0,
        };
        let shapes: [(Option<&[f64]>, Option<SumEventSpec>); 7] = [
            (None, None),
            (Some(&dyadic), None),
            (Some(&odd), None),
            (Some(&wild), Some(event)),
            (Some(&nan), Some(event)),
            (Some(&odd), Some(event)),
            (Some(&dyadic), Some(event)),
        ];
        let exec = executor(worlds, seed, 1);
        let thresholds: Vec<u64> = probs.iter().map(|&p| presence_threshold(p)).collect();
        for (values, ev) in &shapes {
            for batch in [0u64, 1, 9] {
                let got = exec.sample_batch(batch, worlds, &thresholds, *values, *ev);
                let want = sample_batch_reference(&exec, batch, worlds, probs, *values, *ev);
                assert_eq!(
                    tally_bits(&got),
                    tally_bits(&want),
                    "column {values:?}, event {ev:?}, batch {batch}, probs {probs:?}"
                );
            }
        }
    }

    /// A generator whose every draw is one fixed word.
    struct Word(u64);

    impl RngCore for Word {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// Whether `gen_bool` — the test the sampler used to run — keeps a
    /// tuple with probability `p` when the draw's top 53 bits are `k`.
    fn gen_bool_hit(k: u64, p: f64) -> bool {
        use rand::Rng;
        Word(k << 11).gen_bool(p.clamp(0.0, 1.0))
    }

    fn assert_threshold_identity(p: f64) {
        let t = presence_threshold(p);
        for k in [t.wrapping_sub(1), t, t + 1] {
            if k < 1 << 53 {
                assert_eq!(k < t, gen_bool_hit(k, p), "p = {p:e}, k = {k}, t = {t}");
            }
        }
    }

    #[test]
    fn presence_threshold_decides_exactly_like_gen_bool() {
        let mut edges = crate::aggregates::edge_probabilities();
        edges.extend([-0.25, 1.5, f64::NAN, -0.0, f64::INFINITY, f64::NEG_INFINITY]);
        for &p in &edges {
            assert_threshold_identity(p);
        }
        assert_eq!(presence_threshold(f64::NAN), 0);
        assert_eq!(presence_threshold(1.0), 1 << 53);
        assert_eq!(presence_threshold(f64::from_bits(1)), 1);
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..100_000 {
            // Random bit patterns cover every exponent in [0, 1]; random
            // grid points and their neighbours hit the boundary itself.
            let wide = f64::from_bits(rng.next_u64() % 0x3FF0_0000_0000_0001);
            let grid = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            for p in [wide, grid, grid.next_up(), grid.next_down()] {
                assert_threshold_identity(p);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn every_sampler_shape_matches_the_gen_bool_reference(
            picks in proptest::collection::vec((0usize..48, 0.0f64..=1.0), 0..40),
            seed in 0u64..1_000,
        ) {
            assert_shapes_match(&sampler_probs(&picks), seed, 37);
        }
    }

    /// The sampler half of the release-only equivalence sweep (see
    /// `aggregates::tests::kernel_equivalence_sweep`).
    #[test]
    #[ignore = "release-only sweep; run with --ignored kernel_equivalence_sweep"]
    fn kernel_equivalence_sweep_of_the_sampler() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(0x5a3b1e);
        for case in 0..3_000u64 {
            let octave = rng.gen_range(0u32..10);
            let n = rng.gen_range(0usize..=1 << octave);
            let picks: Vec<(usize, f64)> = (0..n)
                .map(|_| (rng.gen_range(0usize..64), rng.gen_range(0.0f64..=1.0)))
                .collect();
            assert_shapes_match(&sampler_probs(&picks), case, 16);
        }
    }
}
