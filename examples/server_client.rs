//! The wire protocol end to end: every `QueryOutput` variant over TCP,
//! byte-identical to in-process execution.
//!
//! The example drives one statement script twice — through a
//! [`tspdb_client::Client`] against a running server, and through a local
//! in-process [`tspdb::SharedEngine`] mirror, read through its plain
//! borrowed `Database` path — and asserts that each response
//! crosses the wire **byte for byte** identical to the in-process result
//! (Monte-Carlo results compare by their bit-exact fingerprint, which
//! excludes only wall-clock time). Prepared statements then replay the
//! hot `SELECT`s through the plan-once/execute-many path.
//!
//! By default the example spawns its own server on an ephemeral loopback
//! port. Set `PROBDB_SERVER_ADDR=host:port` to target an external
//! `probdb-server` instead (the CI smoke job does this); the server must
//! run the demo configuration (`tspdb_server::demo_config`) for the
//! density-view builds to match the local mirror.

use tspdb_client::Client;
use tspdb_server::{demo_config, demo_insert_statement, Server, ServerConfig};
use tspdb_wire::canonical_result_bytes;

/// The statement script: DDL + data, then one statement per result shape.
const SETUP: &[&str] = &[
    "CREATE TABLE wire_raw (t INT, r FLOAT)",
    // Rows are inserted as literals below so the server and the local
    // mirror see the exact same values.
    "CREATE VIEW wire_pv AS DENSITY r OVER t OMEGA delta=0.1, n=6 \
     FROM wire_raw WHERE t >= 45 USING METRIC vt WINDOW 40",
];

const QUERIES: &[(&str, &str)] = &[
    (
        "Rows",
        "SELECT t, r FROM wire_raw WHERE t >= 55 ORDER BY r DESC",
    ),
    (
        "ProbRows",
        "SELECT * FROM wire_pv WHERE prob >= 0.05 TOP 10",
    ),
    ("Worlds", "SELECT * FROM wire_pv WITH WORLDS 2000 SEED 42"),
    (
        "Aggregate",
        "SELECT t, COUNT(*), SUM(lambda) FROM wire_pv GROUP BY t HAVING COUNT(*) >= 2",
    ),
    // An aggregate without HAVING has nothing to sample: its WITH WORLDS
    // clause is planned onto exact evaluation, and EXPLAIN says so.
    (
        "Explain",
        "EXPLAIN SELECT t, COUNT(*) FROM wire_pv GROUP BY t WITH WORLDS 500 SEED 7",
    ),
];

fn main() {
    // Either an external server (CI smoke) or one spawned right here.
    let external = std::env::var("PROBDB_SERVER_ADDR").ok();
    let handle = if external.is_none() {
        let server = Server::bind(
            "127.0.0.1:0",
            tspdb::SharedEngine::new(demo_config()),
            ServerConfig::default(),
        )
        .expect("bind ephemeral loopback port");
        Some(server.spawn().expect("start server threads"))
    } else {
        None
    };
    let addr = external
        .clone()
        .unwrap_or_else(|| handle.as_ref().unwrap().addr().to_string());

    let mut client = Client::connect(&addr).expect("connect to server");
    println!("connected to {} at {addr}", client.server_info());

    // The in-process mirror executes the identical script locally.
    let mirror = tspdb::SharedEngine::new(demo_config());

    let mut script: Vec<String> = vec![
        SETUP[0].to_string(),
        demo_insert_statement("wire_raw"),
        SETUP[1].to_string(),
    ];
    script.extend(QUERIES.iter().map(|(_, sql)| sql.to_string()));

    let mut seen = Vec::new();
    for sql in &script {
        let over_wire = match client.query(sql) {
            Ok(out) => out,
            Err(e) => panic!("server rejected {sql:?}: {e}"),
        };
        // Reads take the borrowed catalog path (no plan cache, no
        // snapshot); the setup statements it turns away go to the engine.
        let read = mirror.read().query(sql);
        let in_process = match read {
            Err(tspdb::DbError::ReadOnly(_)) => {
                mirror.execute(sql).expect("mirror executes the script")
            }
            read => read.expect("mirror executes the script"),
        };
        assert_eq!(
            canonical_result_bytes(&over_wire),
            canonical_result_bytes(&in_process),
            "wire and in-process results diverge for {sql:?}"
        );
        seen.push(over_wire.variant_name());
        println!("  ok [{:>9}] {}", over_wire.variant_name(), sql);
    }
    for expected in ["Rows", "ProbRows", "Worlds", "Aggregate", "Explain"] {
        assert!(
            seen.contains(&expected),
            "script never produced a {expected} result"
        );
    }

    // Prepared statements: plan once, execute many — every replay must
    // match the ad-hoc result bit for bit.
    for (name, sql) in QUERIES {
        let ad_hoc = canonical_result_bytes(&client.query(sql).expect("ad-hoc query"));
        let stmt = client.prepare(sql).expect("prepare");
        for _ in 0..3 {
            let replay = canonical_result_bytes(&client.execute(stmt).expect("execute prepared"));
            assert_eq!(replay, ad_hoc, "prepared replay diverged for {name}");
        }
        client.close_statement(stmt).expect("close statement");
    }
    println!("  ok prepared statements replay bit-identically (3× each)");

    // Session-scoped MC parallelism: a different fork-join width must not
    // change a single bit of the estimate.
    let base = canonical_result_bytes(&client.query(QUERIES[2].1).expect("MC query"));
    client.set_worlds_threads(4).expect("set worlds threads");
    let wide = canonical_result_bytes(&client.query(QUERIES[2].1).expect("MC query at width 4"));
    assert_eq!(base, wide, "worlds-thread override changed the estimate");
    println!("  ok session worlds-thread override is latency-only");

    // Leave an external server the way we found it.
    client.query("DROP VIEW wire_pv").expect("drop view");
    client.query("DROP TABLE wire_raw").expect("drop table");
    client.close().expect("clean close");
    if let Some(handle) = handle {
        handle.shutdown();
    }
    println!("all five QueryOutput variants round-tripped byte-identically");
}
