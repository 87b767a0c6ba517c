//! Spans around the benchmark's own calls into the layers.
//!
//! The engine has no spans of its own yet, so every span here is taken
//! from outside: a real call is timed where it happens, and the parts of a
//! call the benchmark cannot see into (the server's parse, plan, execute
//! and encode behind one socket round trip; the WAL commit and catalog
//! apply behind one `Appender` flush) are *replayed* through the layers'
//! public functions right after the real call and recorded as child spans
//! laid inside the parent's interval. A span's self time — its duration
//! minus what its children cover — is then the part nothing replayed
//! explains, which is how `server.self_us` and the maintenance share of a
//! flush are defined.
//!
//! Spans stay in memory while a workload runs and are written out once,
//! after measuring.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// 0 for the root span of an operation.
    pub parent: u64,
    /// Shared by every span of one operation.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's span buffer. Lanes share an epoch and draw ids from
/// disjoint residues, so buffers merge without renumbering.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    lane: u64,
    lanes: u64,
    issued: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, lane: u64, lanes: u64) -> Self {
        Tracer {
            epoch,
            lane,
            lanes,
            issued: 0,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn next_id(&mut self) -> u64 {
        self.issued += 1;
        self.issued * self.lanes + self.lane + 1
    }

    /// Opens an operation: its root span covers `start_ns..end_ns`.
    /// Returns the root's id, which is also the operation id.
    pub fn root(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> u64 {
        let id = self.next_id();
        self.spans.push(Span {
            id,
            parent: 0,
            op: id,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Records a child of `parent` within operation `op`.
    pub fn child(
        &mut self,
        op: u64,
        parent: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id();
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Lays replayed calls back to back inside `parent`'s interval
    /// `start_ns..end_ns`, clipping at its end: a replay that ran longer
    /// than the real call (a colder cache) must not push self time below
    /// zero.
    pub fn replayed(
        &mut self,
        op: u64,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
        calls: &[(&'static str, u64)],
    ) {
        let mut at = start_ns;
        for &(name, dur_ns) in calls {
            let end = (at + dur_ns).min(end_ns);
            self.child(op, parent, name, at, end);
            at = end;
        }
    }
}

/// Count, busy time and self time of one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerRow {
    pub name: &'static str,
    pub count: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

/// The per-layer table of a traced run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerTable {
    /// One row per span name below the roots, in name order.
    pub rows: Vec<LayerRow>,
    /// Number of operations and the sum of their root spans.
    pub ops: u64,
    pub op_ns: u64,
    /// Root self time: op time no child span covers.
    pub unattributed_ns: u64,
}

impl LayerTable {
    /// A span's self time is its duration minus the part of its interval
    /// its direct children cover (overlapping children count once).
    pub fn of(spans: &[Span]) -> LayerTable {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        let mut table = LayerTable {
            rows: Vec::new(),
            ops: 0,
            op_ns: 0,
            unattributed_ns: 0,
        };
        for s in spans {
            let dur = s.end_ns - s.start_ns;
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
            let self_ns = dur - covered;
            if s.parent == 0 {
                table.ops += 1;
                table.op_ns += dur;
                table.unattributed_ns += self_ns;
            } else {
                let row = rows.entry(s.name).or_insert(LayerRow {
                    name: s.name,
                    count: 0,
                    busy_ns: 0,
                    self_ns: 0,
                });
                row.count += 1;
                row.busy_ns += dur;
                row.self_ns += self_ns;
            }
        }
        table.rows = rows.into_values().collect();
        table
    }

    /// Share of op time spent in the self time of spans whose name starts
    /// with one of `prefixes`.
    pub fn share(&self, prefixes: &[&str]) -> f64 {
        if self.op_ns == 0 {
            return 0.0;
        }
        let self_ns: u64 = self
            .rows
            .iter()
            .filter(|r| prefixes.iter().any(|p| r.name.starts_with(p)))
            .map(|r| r.self_ns)
            .sum();
        self_ns as f64 / self.op_ns as f64
    }

    pub fn unattributed_share(&self) -> f64 {
        if self.op_ns == 0 {
            0.0
        } else {
            self.unattributed_ns as f64 / self.op_ns as f64
        }
    }

    /// The human table (stderr).
    pub fn render(&self) -> String {
        let mut out = format!(
            "  {:<22} {:>9} {:>12} {:>12} {:>7}\n",
            "span", "count", "busy_ms", "self_ms", "share"
        );
        let share = |ns: u64| 100.0 * ns as f64 / self.op_ns.max(1) as f64;
        for r in &self.rows {
            let _ = writeln!(
                out,
                "  {:<22} {:>9} {:>12.3} {:>12.3} {:>6.1}%",
                r.name,
                r.count,
                r.busy_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6,
                share(r.self_ns)
            );
        }
        let _ = writeln!(
            out,
            "  {:<22} {:>9} {:>12.3} {:>12.3} {:>6.1}%",
            "unattributed",
            self.ops,
            self.op_ns as f64 / 1e6,
            self.unattributed_ns as f64 / 1e6,
            share(self.unattributed_ns)
        );
        out
    }
}

/// Length of the union of `intervals` clipped to `lo..hi`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut at = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(at), end.min(hi));
        if end > start {
            covered += end - start;
            at = end;
        }
    }
    covered
}

/// The span file: one JSON array of `{id, parent, op, name, start_ns,
/// end_ns}` objects.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_union_of_children() {
        let mut t = Tracer::new(Instant::now(), 0, 1);
        let op = t.root("op.query", 0, 100);
        let req = t.child(op, op, "server.request", 0, 100);
        // Two overlapping children and one reaching past the parent.
        t.child(op, req, "exec.exact", 10, 40);
        t.child(op, req, "wire.encode_resp", 30, 50);
        t.child(op, req, "wire.decode_resp", 90, 130);
        let table = LayerTable::of(&t.spans);
        assert_eq!((table.ops, table.op_ns, table.unattributed_ns), (1, 100, 0));
        let row = |name: &str| table.rows.iter().find(|r| r.name == name).unwrap().clone();
        // 100 − (10..50 ∪ 90..100) = 100 − 50.
        assert_eq!(row("server.request").self_ns, 50);
        assert_eq!(row("exec.exact").self_ns, 30);
        assert_eq!(row("wire.decode_resp").busy_ns, 40);
        assert!((table.share(&["server."]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn replayed_calls_are_clipped_to_the_parent() {
        let mut t = Tracer::new(Instant::now(), 1, 2);
        let op = t.root("op.commit", 1_000, 1_100);
        let flush = t.child(op, op, "ingest.flush", 1_000, 1_100);
        t.replayed(
            op,
            flush,
            1_000,
            1_100,
            &[("storage.wal_commit", 70), ("engine.apply", 70)],
        );
        let table = LayerTable::of(&t.spans);
        let self_of = |name: &str| table.rows.iter().find(|r| r.name == name).unwrap().self_ns;
        assert_eq!(self_of("storage.wal_commit"), 70);
        assert_eq!(self_of("engine.apply"), 30);
        assert_eq!(self_of("ingest.flush"), 0);
        assert_eq!(table.unattributed_share(), 0.0);
        // Lanes never collide on ids.
        let mut other = Tracer::new(Instant::now(), 0, 2);
        let other_op = other.root("op.read", 0, 1);
        assert!(t.spans.iter().all(|s| s.id != other_op));
    }

    #[test]
    fn span_file_is_a_json_array_of_the_six_fields() {
        let mut t = Tracer::new(Instant::now(), 0, 1);
        let op = t.root("op.read", 5, 9);
        t.child(op, op, "exec.exact", 5, 9);
        let text = spans_json(&t.spans);
        assert!(text.starts_with("[\n{\"id\": 2, \"parent\": 0, \"op\": 2, \"name\": \"op.read\""));
        assert!(text.ends_with("\"start_ns\": 5, \"end_ns\": 9}\n]"));
        assert_eq!(text.matches("\"name\"").count(), 2);
    }
}
