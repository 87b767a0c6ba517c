//! Allocation pins, counted by a global allocator: copying a deterministic
//! `Table` (what an append pays while a snapshot reader still holds it)
//! allocates per column, not per row; the ingest reader's recent-window
//! statement allocates in proportion to the rows it reads, not to the
//! table; and scans of a probabilistic relation allocate for their answer
//! — a few groups, the `k` of a `LIMIT` — whatever the relation's size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tspdb_probdb::{ColumnType, Database, ProbTable, Schema, Table, Value};

/// Counts the blocks and bytes the current thread allocates while
/// counting is switched on; other threads (parallel tests) are ignored.
struct Counting;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
    /// Bytes allocated and not yet freed while counting (frees of blocks
    /// from before count as 0), and the most of them at once.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn record(bytes: usize, freed: usize) {
    if ON.try_with(Cell::get).unwrap_or(false) {
        BLOCKS.with(|b| b.set(b.get() + usize::from(bytes > 0)));
        BYTES.with(|b| b.set(b.get() + bytes));
        let live = LIVE.with(|l| {
            l.set(l.get() + bytes as isize - freed as isize);
            l.get()
        });
        PEAK.with(|p| p.set(p.get().max(live)));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, layout.size());
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(blocks, bytes)` allocated on this thread by `f`, and its result.
fn counted<T>(f: impl FnOnce() -> T) -> (usize, usize, T) {
    let (blocks, bytes, _, out) = peaked(f);
    (blocks, bytes, out)
}

/// [`counted`], plus the peak of the bytes `f` held live at once.
fn peaked<T>(f: impl FnOnce() -> T) -> (usize, usize, usize, T) {
    for counter in [&BLOCKS, &BYTES] {
        counter.with(|c| c.set(0));
    }
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    ON.with(|on| on.set(true));
    let out = f();
    ON.with(|on| on.set(false));
    let peak = PEAK.with(Cell::get).max(0) as usize;
    (BLOCKS.with(Cell::get), BYTES.with(Cell::get), peak, out)
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

/// An Ω-view's shape: `readings` readings at ascending `t`, six lattice
/// cells each, with scattered probabilities.
fn view(readings: i64) -> ProbTable {
    let schema = Schema::of(&[
        ("t", ColumnType::Int),
        ("lambda", ColumnType::Int),
        ("lo", ColumnType::Float),
        ("hi", ColumnType::Float),
    ]);
    let mut view = ProbTable::new("v", schema);
    view.reserve(readings as usize * 6);
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    for r in 0..readings {
        for lambda in -3..3i64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let p = (state >> 40) as f64 / (1u64 << 24) as f64 / 4.0;
            let lo = lambda as f64 * 0.5;
            let row = vec![
                Value::Int(r * 60),
                Value::Int(lambda),
                Value::Float(lo),
                Value::Float(lo + 0.5),
            ];
            view.insert(row, p).unwrap();
        }
    }
    view
}

#[test]
fn probabilistic_scans_allocate_for_their_answer_not_the_relation() {
    // Per size: (bytes, peak live bytes, groups) of each shape.
    let mut seen = Vec::new();
    // 60 000 and 240 000 tuples.
    for readings in [10_000, 40_000] {
        let mut db = Database::new();
        db.set_worlds_threads(1);
        db.register_prob_table(view(readings)).unwrap();
        let shapes = [
            // A range that keeps every tuple: the totals cannot answer it.
            "SELECT COUNT(*), SUM(lambda) FROM v WHERE t >= 0",
            // One group per 1 000 readings.
            "SELECT COUNT(*) FROM v GROUP BY WINDOW(t, 60000)",
            "SELECT t, lambda FROM v ORDER BY prob DESC LIMIT 100",
            // Per-row work: a conjunct on an unsorted column, a threshold.
            "SELECT COUNT(*), SUM(lambda) FROM v WHERE lambda >= 0",
            "SELECT COUNT(*), SUM(lambda) FROM v THRESHOLD 0.1",
        ];
        let answers = shapes.map(|sql| {
            let (_, bytes, peak, out) = peaked(|| db.query(sql).unwrap());
            let groups = out.aggregate().map_or(0, |a| a.groups.len());
            (bytes, peak, groups)
        });
        let [(sum_bytes, ..), (window_bytes, _, groups), (top_bytes, top_peak, _), per_row @ ..] =
            answers;
        assert_eq!(groups, readings as usize / 1_000);
        // Two kept indices per tuple alone would be 8 bytes each.
        assert!(sum_bytes <= 64 * 1024, "{readings}: {sum_bytes} B");
        assert!(
            window_bytes <= 16 * 1024 + 512 * groups,
            "{readings}: {window_bytes} B for {groups} groups"
        );
        // At most 2k candidates of two columns live at once.
        assert!(top_peak <= 64 * 1024, "{readings}: {top_peak} B live");
        assert!(top_bytes <= 1024 * 1024, "{readings}: {top_bytes} B");
        // The kept positions of one slice of rows at a time, not of the
        // relation.
        for (_, peak, _) in per_row {
            assert!(peak <= 64 * 1024, "{readings}: {peak} B live");
        }
        seen.push(answers);
    }
    let [small, large] = [&seen[0], &seen[1]];
    assert_eq!(small[0].0, large[0].0, "the sum allocates per tuple");
    let per_group = |(bytes, _, groups): (usize, usize, usize)| bytes as f64 / groups as f64;
    assert!(
        per_group(large[1]) <= per_group(small[1]),
        "the window allocates beyond its groups: {seen:?}"
    );
    // A candidate set that never outgrows 2k: the same peak, and only the
    // cuts' churn, which grows with the log of the relation, in bytes.
    assert_eq!(small[2].1, large[2].1, "{seen:?}");
    assert!(large[2].0 < small[2].0 * 3 / 2, "{seen:?}");
    for shape in 3..5 {
        assert_eq!(small[shape].1, large[shape].1, "{seen:?}");
    }
}
