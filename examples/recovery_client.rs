//! The crash-recovery smoke driver: load a deterministic dataset into a
//! persistent `probdb-server`, then fingerprint a fixed query battery.
//!
//! ```text
//! PROBDB_SERVER_ADDR=host:port cargo run --example recovery_client -- load
//! PROBDB_SERVER_ADDR=host:port cargo run --example recovery_client -- probe
//! ```
//!
//! * `load` — create a table, insert deterministic literal rows and build
//!   a density view over them. Idempotent-unsafe by design: loading twice
//!   fails on the duplicate table, which is exactly what the smoke job
//!   wants (a recovered server must already hold the data).
//! * `dirty` — append fresh deterministic rows to the raw table (and so to
//!   the view over it), so the next boot's checkpoint has append pages to
//!   shadow-write (the CI job
//!   kills the server *inside* that checkpoint via
//!   `TSPDB_CHECKPOINT_HOLD_MS`).
//! * `probe` — run the query battery and print one
//!   `<label><TAB><fingerprint>` line per query, where the fingerprint
//!   hashes the canonical wire bytes of the result. The CI recovery-smoke
//!   job probes before a `kill -9` and again after reboot and diffs the
//!   two transcripts — recovery must be **bit-identical**, not merely
//!   row-count-identical.
//!
//! The target server comes from `PROBDB_SERVER_ADDR` (required — this
//! example never spawns its own server; the whole point is that the
//! server process dies and reboots between invocations).

use tspdb_client::Client;
use tspdb_server::demo_insert_statement;
use tspdb_wire::canonical_result_bytes;

/// The query battery: every result shape, including Monte-Carlo with a
/// pinned seed — any nondeterminism across the crash shows up as a
/// fingerprint diff.
const PROBES: &[(&str, &str)] = &[
    ("rows", "SELECT t, r FROM rec_raw ORDER BY r DESC LIMIT 25"),
    (
        "prob-rows",
        "SELECT * FROM rec_pv WHERE prob >= 0.05 ORDER BY prob DESC LIMIT 50",
    ),
    ("threshold", "SELECT t, lambda FROM rec_pv THRESHOLD 0.05"),
    (
        "aggregate",
        "SELECT COUNT(*), SUM(lambda) FROM rec_pv GROUP BY WINDOW(t, 25)",
    ),
    ("worlds", "SELECT * FROM rec_pv WITH WORLDS 600 SEED 42"),
    (
        "worlds-agg",
        "SELECT COUNT(*) FROM rec_pv THRESHOLD 0.02 WITH WORLDS 400 SEED 7",
    ),
    ("explain", "EXPLAIN SELECT * FROM rec_pv WITH WORLDS 100"),
];

/// FNV-1a over the canonical result bytes — a stable, dependency-free
/// fingerprint the smoke job can diff as text.
fn fingerprint(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_default();
    let addr = std::env::var("PROBDB_SERVER_ADDR")
        .expect("set PROBDB_SERVER_ADDR to the target probdb-server");
    let mut client = Client::connect(&addr).expect("connect to server");

    match mode.as_str() {
        "load" => {
            let script = [
                "CREATE TABLE rec_raw (t INT, r FLOAT)".to_string(),
                demo_insert_statement("rec_raw"),
                "CREATE VIEW rec_pv AS DENSITY r OVER t OMEGA delta=0.1, n=6 \
                 FROM rec_raw USING METRIC vt WINDOW 40"
                    .to_string(),
            ];
            for sql in &script {
                if let Err(e) = client.query(sql) {
                    panic!("load failed at {sql:?}: {e}");
                }
            }
            println!("loaded rec_raw + rec_pv into {addr}");
        }
        "dirty" => {
            // Timestamps past everything stored (and far past the loaded
            // data): every call is a pure append, which the INSERT also
            // maintains into rec_pv, whose source needs distinct times.
            let latest = client
                .query("SELECT t FROM rec_raw ORDER BY t DESC LIMIT 1")
                .unwrap_or_else(|e| panic!("dirty: reading the latest t failed: {e}"));
            let start = latest
                .rows()
                .and_then(|t| t.iter().next()?.first()?.as_i64())
                .map_or(100_000, |t| (t + 1).max(100_000));
            let values: Vec<String> = (0..64)
                .map(|i| format!("({}, {:.6})", start + i, 15.0 + i as f64 * 0.125))
                .collect();
            let sql = format!("INSERT INTO rec_raw VALUES {}", values.join(", "));
            client
                .query(&sql)
                .unwrap_or_else(|e| panic!("dirty append failed: {e}"));
            println!("appended 64 rows to rec_raw on {addr}");
        }
        "probe" => {
            for (label, sql) in PROBES {
                let out = client
                    .query(sql)
                    .unwrap_or_else(|e| panic!("probe {label} failed: {e}"));
                println!("{label}\t{}", fingerprint(&canonical_result_bytes(&out)));
            }
        }
        other => {
            eprintln!("usage: recovery_client <load|dirty|probe> (got {other:?})");
            std::process::exit(2);
        }
    }
    client.close().expect("clean close");
}
