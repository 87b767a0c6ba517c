//! Online mode: a GPS feed streamed into a live Ω-view.
//!
//! The paper's framework works online ("the dynamic density metrics infer
//! p_t(R_t) as soon as a new value r_t is streamed to the system"). This
//! example pushes the car-data stream through an `Appender` into a
//! `SharedEngine` that holds a density view over the table: every flush
//! infers densities for the appended windows only, reuses the σ-cache
//! ladder while its base rung stands, and leaves the view bit-identical to
//! one built offline over the finished series.
//!
//! Run with: `cargo run --release --example streaming_online`

use std::time::{Duration, Instant};
use tspdb::core::MaintenancePath;
use tspdb::timeseries::generate::GpsGenerator;
use tspdb::{MetricConfig, MetricKind, SharedEngine, Value, ViewBuilderConfig};
use tspdb_ingest::{Appender, AppenderConfig};

const TABLE: &str = "CREATE TABLE gps (t INT, x FLOAT)";
const VIEW: &str = "CREATE VIEW pv AS DENSITY x OVER t OMEGA delta=0.5, n=40 FROM gps";
const PRELOAD: usize = 100;

fn main() {
    let series = GpsGenerator::default().generate(2500);
    let rows: Vec<Vec<Value>> = series
        .iter()
        .map(|obs| vec![Value::Int(obs.time), Value::Float(obs.value)])
        .collect();
    let config = ViewBuilderConfig {
        metric: MetricKind::VariableThresholding,
        metric_config: MetricConfig {
            p: 1,
            q: 0,
            ..MetricConfig::default()
        },
        window: 40,
        ..ViewBuilderConfig::default() // σ-cache on, H′ = 0.01
    };

    let live = SharedEngine::new(config);
    live.execute(TABLE).expect("create table");
    live.append_rows("gps", rows[..PRELOAD].to_vec())
        .expect("preload");
    live.execute(VIEW).expect("create view");

    let mut appender = Appender::new(
        live.clone(),
        AppenderConfig {
            max_rows: 64,
            max_delay: Duration::from_millis(50),
        },
    );
    let (mut appended, mut regenerated, mut rebuilt, mut windows) = (0, 0, 0, 0);
    let mut tally = |engine: &SharedEngine| {
        let done = engine.last_maintenance("pv").expect("view was maintained");
        windows += done.windows_inferred;
        match done.path {
            MaintenancePath::Appended => appended += 1,
            MaintenancePath::Regenerated => regenerated += 1,
            MaintenancePath::Rebuilt => rebuilt += 1,
        }
    };
    let started = Instant::now();
    for row in &rows[PRELOAD..] {
        if appender.append("gps", row.clone()).expect("append") > 0 {
            tally(&live);
        }
    }
    if appender.flush().expect("final flush") > 0 {
        tally(&live);
    }
    let streamed = started.elapsed();
    let stats = appender.stats();
    println!(
        "streamed {} GPS observations in {} flushes: {streamed:?} ({:.0} rows/s)",
        stats.rows,
        stats.flushes,
        stats.rows as f64 / streamed.as_secs_f64()
    );
    println!(
        "view maintenance: {appended} flushes appended, {regenerated} regenerated from the \
         stored model, {rebuilt} rebuilt; {windows} windows inferred for {} rows",
        stats.rows
    );

    let offline = SharedEngine::new(config);
    offline.execute(TABLE).expect("create table");
    offline.append_rows("gps", rows).expect("load");
    let started = Instant::now();
    offline.execute(VIEW).expect("create view");
    println!("one-shot build over the same rows: {:?}", started.elapsed());
    let sql = "SELECT * FROM pv";
    assert_eq!(
        live.query(sql).expect("live scan"),
        offline.query(sql).expect("offline scan"),
        "the streamed view must equal the one-shot build"
    );
    println!("streamed view == one-shot view, bit for bit");
}
