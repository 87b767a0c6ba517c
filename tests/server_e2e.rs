//! End-to-end wire-protocol tests: a real server on an ephemeral loopback
//! port, the native client, and an in-process mirror executing the exact
//! same statements — results must match byte for byte (Monte-Carlo
//! results by their bit-exact fingerprint, which excludes only wall
//! time).

use tspdb::SharedEngine;
use tspdb_client::{Client, ClientError};
use tspdb_server::{demo_config, demo_insert_statement, Server, ServerConfig, ServerHandle};
use tspdb_wire::canonical_result_bytes;

/// Starts an empty demo-config server.
fn start_server() -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        SharedEngine::new(demo_config()),
        ServerConfig::default(),
    )
    .expect("bind ephemeral port")
    .spawn()
    .expect("spawn server")
}

/// The `tests/sql_pipeline.rs` statement set: raw table via SQL, the 60
/// synthetic readings, a density view, and the Fig. 1-style questions —
/// plus one statement per remaining result shape.
fn pipeline_statements() -> Vec<String> {
    vec![
        "CREATE TABLE raw_values (t INT, r FLOAT)".to_string(),
        demo_insert_statement("raw_values"),
        "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.1, n=6 \
         FROM raw_values WHERE t >= 45 USING METRIC vt WINDOW 40"
            .to_string(),
        "SELECT * FROM pv ORDER BY prob DESC".to_string(),
        "SELECT t, r FROM raw_values WHERE t >= 2 AND t <= 10 ORDER BY r DESC LIMIT 4".to_string(),
        "SELECT * FROM pv WHERE prob >= 0.1 THRESHOLD 0.15 TOP 12".to_string(),
        "SELECT lambda FROM pv WHERE t = 50".to_string(),
        "SELECT * FROM pv WHERE t >= 50 WITH WORLDS 3000 SEED 17".to_string(),
        "SELECT t, COUNT(*), SUM(lambda) FROM pv GROUP BY t HAVING COUNT(*) >= 3".to_string(),
        "SELECT t, COUNT(*), SUM(lambda), AVG(lambda) FROM pv GROUP BY t \
         WITH WORLDS 1000 SEED 23"
            .to_string(),
        "EXPLAIN SELECT t, COUNT(*) FROM pv GROUP BY t WITH WORLDS 500 SEED 7".to_string(),
        "SELECT COUNT(*) FROM raw_values".to_string(),
        // Temporal windows — exact and MC per-bucket answers must cross the
        // wire byte-identically, bucket keys (float starts) included.
        "SELECT COUNT(*), SUM(lambda) FROM pv GROUP BY WINDOW(t, 10)".to_string(),
        "SELECT COUNT(*) FROM pv GROUP BY WINDOW(t, 10, 45) HAVING COUNT(*) >= 2 \
         WITH WORLDS 800 SEED 41"
            .to_string(),
        // `WITH SYNOPSIS` is answered exactly: from the view's running
        // totals, or by the windowed scan.
        "SELECT COUNT(*), SUM(lambda) FROM pv WITH SYNOPSIS BUCKETS 16".to_string(),
        "SELECT COUNT(*), SUM(lambda) FROM pv GROUP BY WINDOW(t, 10) WITH SYNOPSIS BUCKETS 32"
            .to_string(),
        // HAVING SUM event predicates run the exact sum-distribution DP.
        "SELECT COUNT(*) FROM pv HAVING SUM(lambda) >= 1".to_string(),
    ]
}

#[test]
fn pipeline_statement_set_matches_in_process_execution() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mirror = SharedEngine::new(demo_config());

    let mut variants_seen = std::collections::BTreeSet::new();
    for sql in pipeline_statements() {
        let over_wire = client
            .query(&sql)
            .unwrap_or_else(|e| panic!("server rejected {sql:?}: {e}"));
        // Reads take the plain borrowed `Database` path (no plan cache, no
        // snapshot); the writes it turns away go through the engine.
        let read = mirror.read().query(&sql);
        let in_process = match read {
            Err(tspdb::DbError::ReadOnly(_)) => mirror
                .execute(&sql)
                .unwrap_or_else(|e| panic!("mirror rejected {sql:?}: {e}")),
            read => read.unwrap_or_else(|e| panic!("mirror rejected {sql:?}: {e}")),
        };
        assert_eq!(
            canonical_result_bytes(&over_wire),
            canonical_result_bytes(&in_process),
            "wire and in-process results diverge for {sql:?}"
        );
        variants_seen.insert(over_wire.variant_name());
    }
    // None + all five result variants crossed the wire.
    assert_eq!(
        variants_seen.len(),
        6,
        "some QueryOutput variant was never exercised"
    );

    client.close().expect("clean close");
    handle.shutdown();
}

#[test]
fn prepared_statements_survive_catalog_growth_and_close() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.query("CREATE TABLE kv (k INT, v FLOAT)").unwrap();
    client
        .query("INSERT INTO kv VALUES (1, 1.5), (2, 2.5), (3, 3.5)")
        .unwrap();

    let stmt = client
        .prepare("SELECT k, v FROM kv WHERE k >= 2 ORDER BY k ASC")
        .unwrap();
    let first = client.execute(stmt).unwrap();
    assert_eq!(first.rows().unwrap().len(), 2);

    // The plan re-executes against current data: growing the table is
    // visible to the next execute.
    client.query("INSERT INTO kv VALUES (4, 4.5)").unwrap();
    let second = client.execute(stmt).unwrap();
    assert_eq!(second.rows().unwrap().len(), 3);

    client.close_statement(stmt).unwrap();
    match client.execute(stmt) {
        Err(ClientError::Server(tspdb::DbError::Unsupported(msg))) => {
            assert!(msg.contains("unknown prepared statement"), "{msg}")
        }
        other => panic!("executing a closed statement produced {other:?}"),
    }

    // Ids are session-scoped: a fresh session does not see them.
    let mut other = Client::connect(handle.addr()).expect("connect second session");
    assert!(other.execute(stmt).is_err());
    other.close().unwrap();

    client.close().unwrap();
    handle.shutdown();
}

#[test]
fn eight_concurrent_connections_get_identical_answers() {
    let handle = start_server();
    let mut seeder = Client::connect(handle.addr()).expect("connect");
    for sql in pipeline_statements().iter().take(3) {
        seeder.query(sql).expect("seed statement");
    }
    const MC_SQL: &str = "SELECT * FROM pv WITH WORLDS 2000 SEED 99";
    const AGG_SQL: &str = "SELECT t, COUNT(*), SUM(lambda) FROM pv GROUP BY t \
                           HAVING COUNT(*) >= 3 WITH WORLDS 800 SEED 3";
    let mc_base = canonical_result_bytes(&seeder.query(MC_SQL).unwrap());
    let agg_base = canonical_result_bytes(&seeder.query(AGG_SQL).unwrap());
    seeder.close().unwrap();

    std::thread::scope(|s| {
        for worker in 0..8 {
            let addr = handle.addr();
            let mc_base = &mc_base;
            let agg_base = &agg_base;
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("worker connects");
                // Half the sessions override MC parallelism — it must not
                // change a single bit of any answer.
                if worker % 2 == 0 {
                    client.set_worlds_threads(2 + worker % 4).unwrap();
                }
                let stmt = client.prepare(MC_SQL).unwrap();
                for _ in 0..4 {
                    assert_eq!(
                        &canonical_result_bytes(&client.query(MC_SQL).unwrap()),
                        mc_base
                    );
                    assert_eq!(
                        &canonical_result_bytes(&client.execute(stmt).unwrap()),
                        mc_base
                    );
                    assert_eq!(
                        &canonical_result_bytes(&client.query(AGG_SQL).unwrap()),
                        agg_base
                    );
                }
                client.close().unwrap();
            });
        }
    });
    handle.shutdown();
}

/// `WITH WORLDS` over an aggregate without `HAVING` crosses the wire as
/// the exact answer of the statement without the clause, and `EXPLAIN`
/// names the exact strategy; a `HAVING` tail is still sampled.
#[test]
fn with_worlds_expectations_cross_the_wire_as_exact_answers() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    for sql in pipeline_statements().iter().take(3) {
        client.query(sql).expect("seed statement");
    }
    for threads in [1, 8] {
        client.set_worlds_threads(threads).unwrap();
        for twin in [
            "SELECT COUNT(*), SUM(lambda) FROM pv",
            "SELECT t, COUNT(*), AVG(lambda) FROM pv WHERE t >= 50 GROUP BY t",
            "SELECT COUNT(*) FROM pv GROUP BY WINDOW(t, 10)",
        ] {
            let want = canonical_result_bytes(&client.query(twin).unwrap());
            let sql = format!("{twin} WITH WORLDS 500 SEED 4");
            let got = client.query(&sql).unwrap();
            assert_eq!(canonical_result_bytes(&got), want, "{sql}");
            assert_eq!(got.aggregate().unwrap().strategy, "exact", "{sql}");
            let explain = client.query(&format!("EXPLAIN {sql}")).unwrap();
            let strategy = &explain.explain().unwrap().strategy;
            assert!(strategy.starts_with("exact"), "{sql}: {strategy}");
        }
        let sampled = client
            .query("SELECT COUNT(*) FROM pv HAVING COUNT(*) >= 10 WITH WORLDS 500 SEED 4")
            .unwrap();
        let sampled = sampled.aggregate().unwrap();
        assert_eq!(sampled.strategy, "worlds");
        assert_eq!(sampled.groups[0].worlds, Some(500));
    }
    client.close().unwrap();
    handle.shutdown();
}

#[test]
fn cached_plans_never_survive_cross_session_writes_or_ddl() {
    // The plan cache is engine-wide: a statement cached by one session is
    // keyed on the catalog generation, and any write or DDL — from *any*
    // session — bumps it. A stale plan must never answer.
    let handle = start_server();
    let mut a = Client::connect(handle.addr()).expect("connect session a");
    let mut b = Client::connect(handle.addr()).expect("connect session b");

    a.query("CREATE TABLE kv (k INT, v FLOAT)").unwrap();
    a.query("INSERT INTO kv VALUES (1, 1.5), (2, 2.5)").unwrap();

    const SQL: &str = "SELECT k, v FROM kv WHERE k >= 1 ORDER BY k ASC";
    // First query plans and caches; the repeat is the cache hit.
    assert_eq!(a.query(SQL).unwrap().rows().unwrap().len(), 2);
    assert_eq!(a.query(SQL).unwrap().rows().unwrap().len(), 2);

    // An answer-changing write from the *other* session: the next cached
    // execution must see it.
    b.query("INSERT INTO kv VALUES (3, 3.5)").unwrap();
    assert_eq!(a.query(SQL).unwrap().rows().unwrap().len(), 3);

    // Drop and re-create with a narrower schema from the other session:
    // the old plan's column set no longer exists, so serving it stale
    // would fabricate rows. It must be replanned — and fail cleanly.
    b.query("DROP TABLE kv").unwrap();
    b.query("CREATE TABLE kv (k INT)").unwrap();
    b.query("INSERT INTO kv VALUES (7)").unwrap();
    match a.query(SQL) {
        Err(ClientError::Server(e)) => {
            assert!(
                matches!(
                    e,
                    tspdb::DbError::UnknownColumn(_) | tspdb::DbError::Plan(_)
                ),
                "stale plan produced the wrong error: {e:?}"
            )
        }
        other => panic!("stale cached plan produced {other:?}"),
    }
    // The replanned shape of the new table works from both sessions.
    assert_eq!(
        a.query("SELECT k FROM kv").unwrap().rows().unwrap().len(),
        1
    );
    assert_eq!(
        b.query("SELECT k FROM kv").unwrap().rows().unwrap().len(),
        1
    );

    a.close().unwrap();
    b.close().unwrap();
    handle.shutdown();
}

#[test]
fn structured_errors_cross_the_wire() {
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).expect("connect");
    type ErrorCheck = fn(&tspdb::DbError) -> bool;
    let cases: [(&str, ErrorCheck); 4] = [
        (
            "SELECT * FROM missing",
            |e| matches!(e, tspdb::DbError::UnknownTable(t) if t == "missing"),
        ),
        ("SELECT gibberish FROM", |e| {
            matches!(e, tspdb::DbError::Parse(_))
        }),
        ("SELECT room, COUNT(*) FROM pv", |e| {
            matches!(e, tspdb::DbError::Plan(_))
        }),
        ("SELECT * FROM pv ORDER BY prob DESC WITH WORLDS 10", |e| {
            matches!(e, tspdb::DbError::InvalidWorlds(_))
        }),
    ];
    for (sql, check) in cases {
        match client.query(sql) {
            Err(ClientError::Server(e)) => assert!(check(&e), "{sql} produced {e:?}"),
            other => panic!("{sql} produced {other:?}"),
        }
    }
    // The session survives every failure.
    client.query("CREATE TABLE ok (x INT)").unwrap();
    client.close().unwrap();
    handle.shutdown();
}
