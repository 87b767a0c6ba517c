//! Pins the on-disk format: database format v3 and WAL v2, as committed
//! in `tests/fixtures/v3` — the disk counterpart of the wire crate's
//! `protocol_pin.rs`.
//!
//! The fixture holds a checkpoint of one probabilistic relation and one
//! deterministic relation with a text column (NaN, −0.0 and ±∞ among the
//! floats, a view spec in the probabilistic relation's catalog entry), then
//! three committed WAL records: `Sql`, `LoadTable` and `AppendRows`. This
//! build must read it back bit for bit, and write it byte for byte. A
//! failing assertion here is a format change: it needs a version bump, the
//! refusal of the old version, and a regenerated fixture
//! (`cargo test -p tspdb-storage --test format_pin -- --ignored`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use tspdb_probdb::{Column, ColumnSlice, ColumnType, ProbTable, Relation, Schema, Table, Value};
use tspdb_storage::codec::crc32;
use tspdb_storage::page::PAGE_SIZE;
use tspdb_storage::{CheckpointSource, JournalOp, Storage, StorageOptions, DB_FILE, WAL_FILE};

const SPEC: &str = "CREATE VIEW pv AS DENSITY r OVER t OMEGA delta=0.5, n=6 FROM raw";

/// The float edge cases the columns below cycle through.
const FLOATS: [f64; 6] = [f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, 0.3];

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v3")
}

/// A fresh temp directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!("tspdb-pin-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `pv`: 300 tuples, enough for two leaves.
fn pv() -> Relation {
    let schema = Schema::of(&[("t", ColumnType::Int), ("lo", ColumnType::Float)]);
    let mut t = ProbTable::new("pv", schema);
    for i in 0..300 {
        let row = vec![Value::Int(i - 150), Value::Float(FLOATS[i as usize % 6])];
        t.insert(row, (i % 11).min(10) as f64 / 10.0).unwrap();
    }
    Relation::Probabilistic(t)
}

fn raw_row(t: i64, tag: &str, r: f64) -> Vec<Value> {
    vec![Value::Int(t), Value::from(tag), Value::Float(r)]
}

/// `raw`: a deterministic table with a text column.
fn raw() -> Table {
    let schema = Schema::of(&[
        ("t", ColumnType::Int),
        ("tag", ColumnType::Text),
        ("r", ColumnType::Float),
    ]);
    let mut t = Table::new("raw", schema);
    for i in 0..12 {
        let tag = ["", "s", "héllo"][i % 3].repeat(i % 4);
        t.insert(raw_row(i as i64, &tag, FLOATS[i % 6])).unwrap();
    }
    t
}

/// The WAL records after the checkpoint.
fn ops() -> Vec<JournalOp> {
    let series = Schema::of(&[("t", ColumnType::Int), ("r", ColumnType::Float)]);
    let points = (0..6).map(|i| vec![Value::Int(i), Value::Float(FLOATS[i as usize])]);
    let appended = vec![
        raw_row(13, "é", f64::NAN),
        raw_row(14, "", f64::NEG_INFINITY),
    ];
    vec![
        JournalOp::Sql("INSERT INTO raw VALUES (12, 'sql', -0.0)".into()),
        JournalOp::LoadTable {
            name: "series".into(),
            columns: Column::from_rows(&series, points.collect()).unwrap(),
            schema: series,
        },
        JournalOp::AppendRows {
            table: "raw".into(),
            columns: Column::from_rows(raw().schema(), appended).unwrap(),
        },
    ]
}

/// Writes the fixture's contents into a fresh directory `dir`.
fn write_v3_fixture(dir: &Path) {
    let (storage, _) = Storage::open(dir, StorageOptions::default()).unwrap();
    let (pv, raw) = (pv(), Relation::Deterministic(raw()));
    let sources = [
        CheckpointSource::Rewrite(&pv),
        CheckpointSource::Rewrite(&raw),
    ];
    let lineage = BTreeMap::from([("pv".to_string(), SPEC.to_string())]);
    storage.checkpoint_incremental(&sources, &lineage).unwrap();
    for op in ops() {
        storage.log(&op).unwrap();
    }
}

/// Cells as comparable strings: floats by bit pattern.
fn cells(columns: &[Column]) -> Vec<Vec<String>> {
    let float = |x: &f64| format!("{:#018x}", x.to_bits());
    columns
        .iter()
        .map(|c| match c.values() {
            ColumnSlice::Int(v) => v.iter().map(i64::to_string).collect(),
            ColumnSlice::Float(v) => v.iter().map(float).collect(),
            ColumnSlice::Text(v) => v.to_vec(),
        })
        .collect()
}

/// A journal op, comparable bit for bit.
fn op_bits(op: &JournalOp) -> String {
    match op {
        JournalOp::Sql(sql) => format!("sql {sql}"),
        JournalOp::LoadTable {
            name,
            schema,
            columns,
        } => format!("load {name} {schema} {:?}", cells(columns)),
        JournalOp::AppendRows { table, columns } => format!("append {table} {:?}", cells(columns)),
    }
}

/// A relation — kind, schema, cells, probabilities — comparable bit for
/// bit.
fn relation_bits(relation: &Relation) -> String {
    let (kind, schema, columns, probs) = match relation {
        Relation::Deterministic(t) => ("table", t.schema(), t.columns().to_vec(), &[][..]),
        Relation::Probabilistic(t) => ("view", t.schema(), t.columns().to_vec(), t.probs()),
    };
    let probs: Vec<u64> = probs.iter().map(|p| p.to_bits()).collect();
    format!("{kind} {schema} {:?} {probs:?}", cells(&columns))
}

#[test]
fn the_v3_fixture_verifies_replays_and_scans_bit_identically() {
    let dir = TempDir::new("read");
    for file in [DB_FILE, WAL_FILE] {
        std::fs::copy(fixture().join(file), dir.0.join(file)).unwrap();
    }
    // Every page checksum: CRC-32 of the image with its checksum field
    // (bytes 4..8) zeroed.
    let image = std::fs::read(dir.0.join(DB_FILE)).unwrap();
    assert_eq!(image.len() % PAGE_SIZE, 0);
    for (id, page) in image.chunks_exact(PAGE_SIZE).enumerate() {
        let mut zeroed = page.to_vec();
        zeroed[4..8].fill(0);
        let stored = u32::from_be_bytes(page[4..8].try_into().unwrap());
        assert_eq!(stored, crc32(&zeroed), "page {id}");
    }
    let wal = std::fs::read(dir.0.join(WAL_FILE)).unwrap();
    assert_eq!(&wal[..12], b"TSPDBWAL\0\0\0\x02", "WAL magic and version 2");

    // Replay checks every record's checksum: a failure would truncate the
    // tail.
    let (storage, recovery) = Storage::open(&dir.0, StorageOptions::default()).unwrap();
    assert_eq!(recovery.checkpoint_relations, 2);
    assert!(!recovery.truncated_tail);
    let replayed: Vec<String> = recovery.ops.iter().map(op_bits).collect();
    assert_eq!(replayed, ops().iter().map(op_bits).collect::<Vec<_>>());

    for (name, want, lineage) in [
        ("pv", pv(), Some(SPEC)),
        ("raw", Relation::Deterministic(raw()), None),
    ] {
        let got = storage.scan(name).unwrap().expect("on disk");
        assert_eq!(relation_bits(&got), relation_bits(&want), "{name}");
        assert_eq!(storage.entry(name).unwrap().lineage.as_deref(), lineage);
    }
}

#[test]
fn this_build_writes_the_v3_fixture_byte_for_byte() {
    let dir = TempDir::new("write");
    write_v3_fixture(&dir.0);
    for file in [DB_FILE, WAL_FILE] {
        let written = std::fs::read(dir.0.join(file)).unwrap();
        let pinned = std::fs::read(fixture().join(file)).unwrap();
        assert!(written == pinned, "{file} differs from the fixture");
    }
}

#[test]
#[ignore = "rewrites tests/fixtures/v3; run only for a deliberate format change"]
fn regenerate_v3_fixture() {
    let _ = std::fs::remove_dir_all(fixture());
    write_v3_fixture(&fixture());
}
