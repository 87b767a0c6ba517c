//! Quickstart: from an imprecise time series to a queryable probabilistic
//! database in a dozen lines.
//!
//! Run with: `cargo run --release --example quickstart`

use tspdb::timeseries::generate::TemperatureGenerator;
use tspdb::{MetricConfig, MetricKind, SharedEngine, ViewBuilderConfig};

fn main() {
    // 1. An imprecise sensor feed: half a day of 2-minute temperature
    //    readings from the synthetic campus generator.
    let series = TemperatureGenerator::default().generate(360);
    println!("raw series: {series}");

    // 2. An engine with the paper's main metric (ARMA-GARCH) and a σ-cache
    //    with the default Hellinger distance constraint H' = 0.01.
    let engine = SharedEngine::new(ViewBuilderConfig {
        metric: MetricKind::ArmaGarch,
        metric_config: MetricConfig::default(),
        window: 60,
        ..ViewBuilderConfig::default()
    });
    engine
        .load_series("raw_values", "r", &series)
        .expect("load raw_values");

    // 3. The probability value generation query (paper Fig. 7): 8 ranges of
    //    0.5 °C around the expected true value, for every timestamp.
    engine
        .execute(
            "CREATE VIEW prob_view AS DENSITY r OVER t \
             OMEGA delta=0.5, n=8 FROM raw_values",
        )
        .expect("create density view");

    let build = engine.last_build().expect("view was just built");
    println!(
        "built prob_view: {} tuples over {} timestamps ({} cached distributions, {:?} inference, {:?} generation)",
        build.built.view.len(),
        build.built.model.len(),
        build.built.cache_len.unwrap_or(0),
        build.built.inference_time,
        build.built.generation_time,
    );

    // 4. Ordinary SQL over the probabilistic view.
    let out = engine
        .execute("SELECT t, lambda, lo, hi FROM prob_view ORDER BY prob DESC LIMIT 8")
        .expect("query view");
    println!("\nmost probable ranges overall:");
    print!("{}", out.prob_rows().unwrap().render(8));

    // 5. Downstream probabilistic reasoning with the query operators.
    let db = engine.read();
    let view = db.prob_table("prob_view").unwrap();
    let best = tspdb::probdb::query::most_probable_per_group(view, "t").unwrap();
    println!("\nmost probable range per timestamp (first 5):");
    print!("{}", best.render(5));

    let expected_tuples = view.expected_count();
    println!(
        "\nexpected number of tuples present in a possible world: {expected_tuples:.1} \
         (of {} candidate tuples)",
        view.len()
    );
}
