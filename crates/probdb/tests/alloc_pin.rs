//! Allocation pins for the column-major deterministic `Table`, counted by
//! a global allocator: copying a table (what an append pays while a
//! snapshot reader still holds it) allocates per column, not per row,
//! and the ingest reader's recent-window statement allocates in
//! proportion to the rows it reads, not to the table.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tspdb_probdb::{ColumnType, Database, Schema, Table, Value};

/// Counts the blocks and bytes the current thread allocates while
/// counting is switched on; other threads (parallel tests) are ignored.
struct Counting;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn record(bytes: usize) {
    if ON.try_with(Cell::get).unwrap_or(false) {
        BLOCKS.with(|b| b.set(b.get() + 1));
        BYTES.with(|b| b.set(b.get() + bytes));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(blocks, bytes)` allocated on this thread by `f`, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (usize, usize, T) {
    BLOCKS.with(|b| b.set(0));
    BYTES.with(|b| b.set(0));
    ON.with(|on| on.set(true));
    let out = f();
    ON.with(|on| on.set(false));
    (BLOCKS.with(Cell::get), BYTES.with(Cell::get), out)
}

/// The ingest stream's shape: ascending `t`, a float reading and a room.
fn stream(rows: i64) -> Table {
    let schema = Schema::of(&[
        ("t", ColumnType::Int),
        ("r", ColumnType::Float),
        ("room", ColumnType::Int),
    ]);
    let mut table = Table::new("stream", schema);
    table.reserve(rows as usize);
    for t in 0..rows {
        table
            .insert(vec![
                Value::Int(t),
                Value::Float(t as f64 * 0.5),
                Value::Int(t % 7),
            ])
            .unwrap();
    }
    table
}

#[test]
fn cloning_a_deterministic_table_allocates_per_column_not_per_row() {
    for rows in [100_000, 400_000] {
        let table = stream(rows);
        let arity = table.schema().arity();
        let (blocks, bytes, copy) = counted(|| table.clone());
        assert_eq!(copy, table);
        // Name, schema and column vectors, then one flat buffer per
        // column: nothing per row.
        assert!(
            blocks <= 3 * arity + 4,
            "{rows} rows: {blocks} blocks for {arity} columns"
        );
        assert!(
            bytes <= rows as usize * 8 * arity + 4096,
            "{rows} rows: {bytes} bytes"
        );
    }
}

#[test]
fn the_recent_window_reader_allocates_for_the_rows_it_reads() {
    // The ingest reader: the last `RECENT` rows of a growing stream.
    const RECENT: i64 = 4096;
    let mut allocated = Vec::new();
    // Multiples of the window width, so the recent rows fill four buckets.
    for rows in [102_400, 409_600] {
        let mut db = Database::new();
        db.set_worlds_threads(1);
        db.register_table(stream(rows)).unwrap();
        let sql = format!(
            "SELECT COUNT(*), SUM(r) FROM stream WHERE t >= {} GROUP BY WINDOW(t, 1024)",
            rows - RECENT
        );
        let (_, bytes, out) = counted(|| db.query(&sql).unwrap());
        let groups = &out.aggregate().unwrap().groups;
        assert_eq!(groups.len(), 4);
        assert!(groups.iter().all(|g| g.values[0].value == 1024.0));
        // The kept indices and the group bookkeeping: a few words per
        // recent row, never the table's 8 bytes per row and column.
        assert!(
            bytes <= 32 * RECENT as usize + 64 * 1024,
            "{rows} rows: {bytes} bytes for {RECENT} recent rows"
        );
        allocated.push(bytes);
    }
    // Four times the table, the same allocations give or take the bytes
    // of a longer literal.
    assert!(
        allocated[1].abs_diff(allocated[0]) < 1024,
        "allocation grows with the table: {allocated:?}"
    );
}
