//! `tspbench`: the repository's layered performance benchmark.
//!
//! Five named workloads, three gated end-to-end metrics each, and a traced
//! pass that breaks the same operations down by layer. README.md defines
//! every workload and metric; `BENCHMARK.json` at the repository root is
//! the machine-readable contract.
//!
//! ```text
//! tspbench --workload NAME --seed N --seconds S --trace 0|1   one run, one result line
//! tspbench run    [--workload NAME] [--seed N] [--seconds S] [--quick]
//! tspbench trace  [--workload NAME] [--seed N] [--seconds S] [--quick]
//! tspbench repeat [--seed N] [--seconds S] [--quick]
//! ```

mod common;
mod ingest;
mod json;
mod prng;
mod query;
mod stats;
mod trace;
mod view_build;

use common::{end_to_end_metrics, per_layer_metrics, Better, MetricDef, Outcome, RunCfg, METRICS};
use json::Json;
use std::path::PathBuf;

/// `run_seconds` of `BENCHMARK.json`: the default `--seconds`.
const RUN_SECONDS: f64 = 10.0;
/// `--quick`: about a second per workload, smoke sizes.
const QUICK_SECONDS: f64 = 1.0;

/// The workloads, with the one-line reason each exists (`BENCHMARK.json`
/// carries the same lines).
const WORKLOADS: [(&str, &str); 5] = [
    (
        "view_build",
        "CREATE VIEW AS DENSITY in process: inference, sigma-cache and view build do all the work; wire, server, storage none",
    ),
    (
        "query_point",
        "selective statements over TCP, 80% from 64 hot texts, 20% plan-cache misses: per-request layers dominate, scans do little",
    ),
    (
        "query_scan",
        "full-relation statements over TCP, 1 in 4 on an evicted twin larger than the page cache: scan, strategy, encode and disk reads dominate",
    ),
    (
        "ingest_raw",
        "group-committed appends to a bare durable table beside a snapshot reader, checkpoints, kill -9, recovery: WAL and storage do the work",
    ),
    (
        "ingest_view",
        "the same appends under a dependent density view: view and synopsis maintenance dominates and WAL cost vanishes",
    ),
];

fn run_workload(name: &str, cfg: &RunCfg) -> Outcome {
    let result = std::panic::catch_unwind(|| match name {
        "view_build" => view_build::run(cfg),
        "query_point" => query::run(query::Kind::Point, cfg),
        "query_scan" => query::run(query::Kind::Scan, cfg),
        "ingest_raw" => ingest::run(ingest::Kind::Raw, cfg),
        "ingest_view" => ingest::run(ingest::Kind::View, cfg),
        other => Err(format!("unknown workload {other}")),
    });
    let error = match result {
        Ok(Ok(outcome)) => return outcome,
        Ok(Err(e)) => e,
        Err(panic) => panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "workload panicked".into()),
    };
    // A workload that cannot finish failed everything it attempted; the
    // others still run.
    Outcome {
        attempted: 1,
        failed: 1,
        errors: vec![error],
        ..Outcome::default()
    }
}

struct Cli {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: tspbench --workload NAME --seed N --seconds S --trace 0|1\n       \
         tspbench run|trace [--workload NAME] [--seed N] [--seconds S] [--quick]\n       \
         tspbench repeat [--seed N] [--seconds S] [--quick]\n\
         workloads: {}",
        WORKLOADS.map(|(name, _)| name).join(", ")
    );
    std::process::exit(2);
}

fn parse_cli(args: &[String]) -> Cli {
    let mut cli = Cli {
        command: String::new(),
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "run" | "trace" | "repeat" if cli.command.is_empty() => cli.command = arg.clone(),
            "--workload" => cli.workload = Some(value().clone()),
            "--seed" => cli.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => cli.seconds = Some(value().parse().unwrap_or_else(|_| usage())),
            "--trace" => {
                cli.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--quick" => cli.quick = true,
            _ => usage(),
        }
    }
    if let Some(name) = &cli.workload {
        if !WORKLOADS.iter().any(|(w, _)| w == name) {
            eprintln!("unknown workload {name}");
            usage();
        }
    }
    if cli.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) {
        usage();
    }
    cli
}

/// `<target dir>/tspbench`, from where cargo put this binary
/// (`<target dir>/<profile>/tspbench`), so scratch data and span files
/// stay inside the build directory of the checkout that was built.
fn work_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.parent()
        .and_then(|profile| profile.parent())
        .map(|target| target.join("tspbench"))
        .ok_or_else(|| format!("{} has no target directory above it", exe.display()))
}

/// The checked-out commit, when the working directory is a git checkout.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.len() == 40 && commit.bytes().all(|b| b.is_ascii_hexdigit()) {
        commit.to_string()
    } else {
        "unknown".to_string()
    }
}

fn metric_json(def: &MetricDef, value: f64) -> Json {
    let mut fields = vec![
        ("value", Json::Num(value)),
        ("unit", Json::str(def.unit)),
        ("better", Json::str(def.better.as_str())),
    ];
    if let Some(bound) = def.bound {
        fields.push(("bound", Json::Num(bound)));
    }
    Json::obj(fields)
}

/// The rich per-workload record of `run`, `trace` and `repeat`.
fn workload_json(name: &str, outcome: &Outcome, span_file: Option<&str>) -> Json {
    let why = WORKLOADS
        .iter()
        .find(|(w, _)| *w == name)
        .map_or("", |(_, why)| why);
    let metrics = METRICS
        .iter()
        .filter_map(|def| Some((def.name, metric_json(def, *outcome.metrics.get(def.name)?))));
    let mut fields = vec![
        ("name", Json::str(name)),
        ("why", Json::str(why)),
        ("input_digest", Json::str(outcome.input_digest.as_str())),
        ("attempted", Json::Int(outcome.attempted as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        (
            "fail_ratio",
            Json::Num(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        ),
        ("samples", Json::Int(outcome.samples as i64)),
        ("metrics", Json::obj(metrics)),
        (
            "errors",
            Json::Arr(outcome.errors.iter().map(Json::str).collect()),
        ),
    ];
    if let Some(table) = &outcome.layers {
        let rows = table.rows.iter().map(|r| {
            Json::obj([
                ("span", Json::str(r.name)),
                ("count", Json::Int(r.count as i64)),
                ("busy_ms", Json::Num(r.busy_ns as f64 / 1e6)),
                ("self_ms", Json::Num(r.self_ns as f64 / 1e6)),
                (
                    "share_of_op_time",
                    Json::Num(r.self_ns as f64 / table.op_ns.max(1) as f64),
                ),
            ])
        });
        fields.push(("layers", Json::Arr(rows.collect())));
        fields.push(("unattributed", Json::Num(table.unattributed_share())));
    }
    if let Some(path) = span_file {
        fields.push(("span_file", Json::str(path)));
    }
    Json::obj(fields)
}

fn print_human(name: &str, outcome: &Outcome) {
    eprintln!(
        "{name}: attempted {} failed {} samples {} digest {}",
        outcome.attempted, outcome.failed, outcome.samples, outcome.input_digest
    );
    for def in &METRICS {
        if let Some(value) = outcome.metrics.get(def.name) {
            let bound = def.bound.map_or(String::new(), |b| format!("  bound {b}"));
            eprintln!(
                "  {:<36} {:>16.6} {:<7} {} is better{bound}",
                def.name,
                value,
                def.unit,
                def.better.as_str()
            );
        }
    }
    if let Some(table) = &outcome.layers {
        eprint!("{}", table.render());
    }
    for e in &outcome.errors {
        eprintln!("  FAILED: {e}");
    }
}

/// Writes the spans of a traced run to `<work dir>/trace-<workload>.json`.
fn write_spans(cfg: &RunCfg, name: &str, outcome: &Outcome) -> Option<String> {
    if outcome.spans.is_empty() {
        return None;
    }
    let path = cfg.work_dir.join(format!("trace-{name}.json"));
    match std::fs::write(&path, trace::spans_json(&outcome.spans)) {
        Ok(()) => Some(path.display().to_string()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            None
        }
    }
}

/// Runs the selected workloads once; returns their records.
fn run_set(cli: &Cli, cfg: &RunCfg) -> Vec<(&'static str, Outcome)> {
    WORKLOADS
        .iter()
        .filter(|(name, _)| cli.workload.as_deref().is_none_or(|w| w == *name))
        .map(|&(name, _)| {
            let outcome = run_workload(name, cfg);
            print_human(name, &outcome);
            (name, outcome)
        })
        .collect()
}

fn header(mode: &str, cfg: &RunCfg) -> Vec<(&'static str, Json)> {
    vec![
        ("benchmark", Json::str("tspbench")),
        ("mode", Json::str(mode)),
        ("seed", Json::Int(cfg.seed as i64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("quick", Json::Bool(cfg.quick)),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as i64)),
        ),
        ("threads", Json::Int(common::THREADS as i64)),
        ("commit", Json::str(git_commit())),
    ]
}

/// Relative change of `second` against `first`, signed so that positive
/// means worse.
fn worsening(def: &MetricDef, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Higher => (first - second) / first,
        Better::Lower => (second - first) / first,
    }
}

/// `repeat`: two full sets back to back; every gated metric of every
/// workload must agree within its bound.
fn repeat(cli: &Cli, cfg: &RunCfg) -> (Json, bool) {
    let first = run_set(cli, cfg);
    let second = run_set(cli, cfg);
    let mut rows = Vec::new();
    let mut noise = Vec::new();
    let mut all_within = true;
    eprintln!("workload       metric          first           second          change   bound");
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        let mut per_metric = Vec::new();
        for def in end_to_end_metrics() {
            let (x, y) = (
                a.metrics.get(def.name).copied().unwrap_or(0.0),
                b.metrics.get(def.name).copied().unwrap_or(0.0),
            );
            let change = worsening(def, x, y);
            let bound = def.bound.unwrap_or(0.0);
            let within = change.abs() <= bound && x != 0.0 && y != 0.0;
            all_within &= within;
            eprintln!(
                "{name:<14} {:<12} {x:>15.6} {y:>15.6} {:>+8.2}% {:>6.0}%{}",
                def.name,
                100.0 * change,
                100.0 * bound,
                if within { "" } else { "  OUTSIDE" }
            );
            rows.push(Json::obj([
                ("workload", Json::str(*name)),
                ("metric", Json::str(def.name)),
                ("first", Json::Num(x)),
                ("second", Json::Num(y)),
                ("worsening", Json::Num(change)),
                ("bound", Json::Num(bound)),
                ("within", Json::Bool(within)),
            ]));
            per_metric.push((def.name, Json::Num(change.abs())));
        }
        noise.push((*name, Json::obj(per_metric)));
        all_within &= a.failed == 0 && b.failed == 0;
    }
    let mut fields = header("repeat", cfg);
    for (key, set) in [("first", &first), ("second", &second)] {
        fields.push((
            key,
            Json::Arr(
                set.iter()
                    .map(|(name, o)| workload_json(name, o, None))
                    .collect(),
            ),
        ));
    }
    fields.push(("comparison", Json::Arr(rows)));
    fields.push(("noise", Json::obj(noise)));
    fields.push(("within_bounds", Json::Bool(all_within)));
    fields.push(("claim", Json::Null));
    (Json::obj(fields), all_within)
}

/// The one result line of the benchmark contract.
fn contract_line(outcome: &Outcome, traced: bool) -> Json {
    let defs: Vec<&MetricDef> = if traced {
        per_layer_metrics().collect()
    } else {
        end_to_end_metrics().collect()
    };
    let metrics = defs.into_iter().map(|def| {
        // A layer a workload never enters did no work there: 0.
        let value = outcome.metrics.get(def.name).copied().unwrap_or(0.0);
        (
            def.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Int(outcome.attempted.max(1) as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "ingest-child") {
        // The re-exec'd ingest run; it ends by being killed.
        let err = ingest::child_main(&args[1..]).unwrap_err();
        eprintln!("tspbench ingest-child: {err}");
        std::process::exit(1);
    }
    let cli = parse_cli(&args);
    let work_dir = work_dir().unwrap_or_else(|e| {
        eprintln!("tspbench: {e}");
        std::process::exit(1);
    });
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("tspbench: create {}: {e}", work_dir.display());
        std::process::exit(1);
    }
    let cfg = RunCfg {
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(if cli.quick {
            QUICK_SECONDS
        } else {
            RUN_SECONDS
        }),
        trace: cli.command == "trace" || (cli.command.is_empty() && cli.trace),
        quick: cli.quick,
        work_dir,
    };

    let ok = match cli.command.as_str() {
        "" => {
            let Some(name) = cli.workload.as_deref() else {
                usage()
            };
            let outcome = run_workload(name, &cfg);
            print_human(name, &outcome);
            write_spans(&cfg, name, &outcome);
            println!("{}", contract_line(&outcome, cfg.trace).render());
            outcome.failed == 0
        }
        "repeat" => {
            let (report, within) = repeat(&cli, &cfg);
            println!("{}", report.render());
            within
        }
        mode => {
            let set = run_set(&cli, &cfg);
            let mut fields = header(mode, &cfg);
            fields.push((
                "workloads",
                Json::Arr(
                    set.iter()
                        .map(|(name, o)| {
                            let span_file = write_spans(&cfg, name, o);
                            workload_json(name, o, span_file.as_deref())
                        })
                        .collect(),
                ),
            ));
            fields.push(("claim", Json::Null));
            println!("{}", Json::obj(fields).render());
            set.iter().all(|(_, o)| o.failed == 0)
        }
    };
    std::process::exit(if ok { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_the_same_workloads_and_run_length() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200);
            let entry = format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert!(manifest.contains(&format!("\"run_seconds\": {RUN_SECONDS}")));
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys_and_the_right_metric_set() {
        let mut outcome = Outcome {
            attempted: 12,
            ..Outcome::default()
        };
        outcome.set_end_to_end(100.0, 2.0, &[1.0, 3.0, 2.0], 0.25);
        let line = contract_line(&outcome, false).render();
        assert!(line.starts_with(
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"work_per_s\": {\"value\": 50, \"unit\": \"1/s\"}, \"op_p50_ms\": {\"value\": 2, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        ));
        let traced = contract_line(&outcome, true).render();
        assert_eq!(
            traced.matches("\"unit\"").count(),
            per_layer_metrics().count()
        );
        assert!(!traced.contains("\"work_per_s\""));
        // A failed workload is incorrect and still attempted something.
        let failed = run_workload(
            "nope",
            &RunCfg {
                seed: 0,
                seconds: 1.0,
                trace: false,
                quick: true,
                work_dir: PathBuf::new(),
            },
        );
        assert_eq!((failed.attempted, failed.failed), (1, 1));
        assert!(contract_line(&failed, false)
            .render()
            .starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        let higher = METRICS.iter().find(|m| m.name == "work_per_s").unwrap();
        let lower = METRICS.iter().find(|m| m.name == "op_p50_ms").unwrap();
        assert!((worsening(higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening(lower, 100.0, 90.0) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(lower, 0.0, 5.0), 0.0);
    }
}
