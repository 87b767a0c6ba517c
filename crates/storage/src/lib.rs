//! # tspdb-storage
//!
//! The persistent storage engine under the `tspdb` workspace: paged
//! on-disk tables behind an immutable-snapshot page cache, a checksummed
//! write-ahead log, and crash recovery that replays the committed prefix
//! on boot.
//!
//! A database directory holds two files:
//!
//! * `tspdb.db` — fixed-size pages ([`page::PAGE_SIZE`] bytes): **two
//!   meta slots** (pages 0 and 1, the valid one with the higher epoch
//!   wins), a catalog chain (one entry per relation, an Ω-view's lineage
//!   spec included), and per relation an interior chain listing its leaf
//!   pages and the leaves, each one column-major batch of tuples
//!   (`tspdb_probdb::codec::encode_batch`). Checkpoints are **incremental
//!   and shadow-paged**
//!   ([`Storage::checkpoint_incremental`]): new pages go only to slots
//!   unreachable from the live meta, and one meta-slot write is the
//!   atomic commit point — which is what lets the page cache hold
//!   immutable [`std::sync::Arc`] snapshots, the same design as the
//!   engine's σ-cache.
//! * `tspdb.wal` — the redo log. Every mutating operation is appended and
//!   fsynced **before** it is applied in memory; recovery replays
//!   committed records newer than the last checkpoint.
//!
//! ## Determinism across media
//!
//! Tuples are encoded with floats as IEEE-754 bit patterns and replayed
//! writes go through the same engine write path as live ones, so a tuple
//! is bit-identical whether it came from the page cache, a cold disk
//! read, a lazy `RelationStream`, or a post-crash WAL replay — and
//! therefore so is every query fingerprint, at any thread count, for a
//! fixed query + seed.
//!
//! ## Crash safety
//!
//! The commit point of a write is the WAL fsync. The commit point of a
//! checkpoint is the meta-slot write — issued only after every shadowed
//! data page is durably fsynced, and carrying the WAL floor so replay
//! skips records the checkpoint already contains (see `checkpoint` for
//! the full protocol). Fault-injection crash points ([`CrashPoint`] on
//! the WAL path, [`CheckpointCrashPoint`] inside the checkpoint) cut the
//! write path at each of these windows in tests.

#![warn(missing_docs)]
#![deny(unsafe_code)]
// The one `unsafe` block (the CRC kernel dispatch in `codec`) must say why
// it is sound.
#![warn(clippy::undocumented_unsafe_blocks)]

pub(crate) mod checkpoint;
pub mod codec;
pub(crate) mod error;
pub mod page;
pub(crate) mod pager;
pub(crate) mod wal;

pub use checkpoint::{CheckpointCrashPoint, CheckpointSource};
pub(crate) use checkpoint::{CheckpointStats, RelationLayout};
pub(crate) use error::StorageError;
pub(crate) use pager::{Pager, PagerStats, DEFAULT_CACHE_PAGES};
pub use wal::{CrashPoint, JournalOp};

use checkpoint::SlotAllocator;
use page::{PageKind, PAGE_SIZE, PAYLOAD_LEN};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use tspdb_probdb::codec::{decode_batch, Decoder};
use tspdb_probdb::{
    Batch, BatchStream, Column, DbError, ProbTable, Relation, ScanSource, Schema, Table,
};

/// Database file magic.
pub(crate) const DB_MAGIC: &[u8; 8] = b"TSPDB-DB";

/// Database file format version (v3: every leaf is one column-major batch
/// and catalog entries carry Ω-view lineage; v2 leaves were row-major, v1
/// files were rewritten wholesale). Older files are refused, not read.
pub(crate) const DB_VERSION: u32 = 3;

/// Number of meta slots at the head of the database file.
const META_SLOTS: u64 = 2;

/// Debug hook: sleep this many milliseconds inside
/// [`Storage::checkpoint_incremental`], between the data-page fsync and
/// the meta-slot commit. CI's recovery smoke test uses it to land a
/// `kill -9` inside an in-flight checkpoint.
pub(crate) const CHECKPOINT_HOLD_ENV: &str = "TSPDB_CHECKPOINT_HOLD_MS";

/// Name of the paged database file inside a data directory.
pub const DB_FILE: &str = "tspdb.db";

/// Name of the write-ahead log inside a data directory.
pub const WAL_FILE: &str = "tspdb.wal";

/// Tuning knobs of a [`Storage`].
#[derive(Debug, Clone, Copy)]
pub struct StorageOptions {
    /// Page-cache capacity in pages.
    pub cache_pages: usize,
    /// Whether commits fsync. Leave `true` anywhere durability matters;
    /// tests that hammer the write path may turn it off.
    pub fsync: bool,
}

impl Default for StorageOptions {
    fn default() -> Self {
        StorageOptions {
            cache_pages: DEFAULT_CACHE_PAGES,
            fsync: true,
        }
    }
}

/// One relation's entry in the on-disk catalog.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// Relation name.
    pub name: String,
    /// Whether tuples carry existence probabilities.
    pub probabilistic: bool,
    /// Column layout.
    pub schema: Schema,
    /// Interior-chain root page id (0 = no tuples).
    pub root: u64,
    /// Tuple count, recorded for integrity checking on scan.
    pub rows: u64,
    /// The statement a derived relation is maintained by (an Ω-view's
    /// `CREATE VIEW … AS DENSITY` text), opaque to the storage engine.
    /// It commits with the same meta-slot write as the tuples it derives.
    pub lineage: Option<String>,
}

/// What [`Storage::open`] found on disk.
#[derive(Debug)]
pub struct Recovery {
    /// Committed WAL operations newer than the checkpoint, in commit
    /// order. The caller must replay them through its normal write path
    /// (without re-logging) before serving queries.
    pub ops: Vec<JournalOp>,
    /// Relations present in the checkpointed database file.
    pub checkpoint_relations: usize,
    /// WAL records skipped as already covered by the checkpoint.
    pub skipped: usize,
    /// Whether a torn WAL tail (crash mid-write) was truncated away.
    pub truncated_tail: bool,
}

/// The live meta slot's contents.
#[derive(Debug, Clone, Copy)]
struct MetaInfo {
    epoch: u64,
    n_pages: u64,
    catalog_root: u64,
    wal_floor: u64,
}

/// The persistent storage engine of one database directory.
///
/// Thread-safe: scans read immutable page snapshots through the shared
/// pager; `log` serialises appends on the WAL mutex; checkpoints
/// serialise on their own mutex and shadow-write only pages unreachable
/// from the live meta, so concurrent reads of the *current* state stay
/// valid throughout. One caveat is inherited by anything that streams
/// lazily (`Storage::scan_stream`): a stream outliving **two**
/// checkpoints may observe reused slots; the engine layer prevents this
/// by excluding checkpoints while queries run (its catalog RwLock).
#[derive(Debug)]
pub struct Storage {
    options: StorageOptions,
    pager: Arc<Pager>,
    /// Read-write handle to the database file, used only by checkpoints
    /// for in-place shadow writes (the pager's handle stays read-only).
    db_write: Mutex<File>,
    directory: RwLock<BTreeMap<String, CatalogEntry>>,
    /// Page layout of each cataloged relation — the reachable set the
    /// shadow allocator must not touch, and the leaf-chain prefix appends
    /// reuse.
    layouts: RwLock<BTreeMap<String, RelationLayout>>,
    /// Page ids of the live catalog chain (reachable, like the layouts).
    catalog_pages: Mutex<Vec<u64>>,
    /// Epoch of the live meta slot; the next checkpoint commits epoch+1
    /// to slot `(epoch+1) % 2`.
    epoch: AtomicU64,
    wal: Mutex<wal::Wal>,
    /// Sequence number of the last record appended to the WAL (0 = none
    /// since the floor).
    last_seq: AtomicU64,
    /// Lifetime count of database-file pages written by checkpoints —
    /// the observable behind the O(dirty)-not-O(total) cost claim.
    pages_written: AtomicU64,
    /// Armed fault-injection point for the next checkpoint (tests only).
    checkpoint_crash: Mutex<Option<CheckpointCrashPoint>>,
    /// Serialises checkpoints against each other.
    ckpt_serial: Mutex<()>,
}

impl Storage {
    /// Opens (creating if absent) the database directory and runs
    /// recovery: verifies and loads the checkpointed file, replays the
    /// WAL's committed suffix, truncates any torn tail. The returned
    /// [`Recovery::ops`] must be replayed by the caller before use.
    pub fn open(dir: &Path, options: StorageOptions) -> Result<(Storage, Recovery), StorageError> {
        std::fs::create_dir_all(dir)?;
        let db_path = dir.join(DB_FILE);
        if !db_path.exists() {
            // Fresh directory: both meta slots, epoch 0, empty catalog.
            write_fresh_db(&db_path.with_extension("db.tmp"))?;
            std::fs::rename(db_path.with_extension("db.tmp"), &db_path)?;
            sync_dir(dir)?;
        }

        let loaded = load_db_file(&db_path, options.cache_pages)?;
        let db_write = OpenOptions::new().read(true).write(true).open(&db_path)?;
        let (wal, replay) =
            wal::Wal::open(&dir.join(WAL_FILE), loaded.meta.wal_floor, options.fsync)?;
        let last_seq = replay.last_seq.max(loaded.meta.wal_floor);
        let recovery = Recovery {
            ops: replay.ops.into_iter().map(|(_, op)| op).collect(),
            checkpoint_relations: loaded.directory.len(),
            skipped: replay.skipped,
            truncated_tail: replay.truncated_tail,
        };
        Ok((
            Storage {
                options,
                pager: Arc::new(loaded.pager),
                db_write: Mutex::new(db_write),
                directory: RwLock::new(loaded.directory),
                layouts: RwLock::new(loaded.layouts),
                catalog_pages: Mutex::new(loaded.catalog_pages),
                epoch: AtomicU64::new(loaded.meta.epoch),
                wal: Mutex::new(wal),
                last_seq: AtomicU64::new(last_seq),
                pages_written: AtomicU64::new(0),
                checkpoint_crash: Mutex::new(None),
                ckpt_serial: Mutex::new(()),
            },
            recovery,
        ))
    }

    /// Journals one operation: appends it to the WAL and fsyncs. Returns
    /// only once the record is durable — callers apply the operation in
    /// memory **after** this returns (redo logging).
    pub fn log(&self, op: &JournalOp) -> Result<u64, StorageError> {
        let mut wal = self.wal.lock().unwrap_or_else(|e| e.into_inner());
        let seq = self.last_seq.load(Ordering::Relaxed) + 1;
        wal.append(seq, op)?;
        self.last_seq.store(seq, Ordering::Relaxed);
        Ok(seq)
    }

    /// Journals a batch of operations with **group commit**: all records
    /// are appended and committed under one WAL fsync instead of one per
    /// operation — the amortisation that makes a streamed append workload
    /// affordable. Returns the sequence number of the batch's last record.
    /// Durability is prefix-shaped: a crash mid-batch recovers some prefix
    /// of it (the torn suffix never happened).
    pub fn log_batch(&self, ops: &[JournalOp]) -> Result<u64, StorageError> {
        let mut wal = self.wal.lock().unwrap_or_else(|e| e.into_inner());
        let start = self.last_seq.load(Ordering::Relaxed) + 1;
        wal.append_batch(start, ops)?;
        let last = start + ops.len().saturating_sub(1) as u64;
        if !ops.is_empty() {
            self.last_seq.store(last, Ordering::Relaxed);
        }
        Ok(last)
    }

    /// Commit fsyncs issued by the WAL so far (observable for the group
    /// commit tests: N batched ops move this by 1).
    pub fn wal_fsyncs(&self) -> u64 {
        self.wal.lock().unwrap_or_else(|e| e.into_inner()).fsyncs()
    }

    /// Arms a fault-injection crash point for the next [`Storage::log`]
    /// call (tests only). After it fires the handle is poisoned.
    pub fn set_crash_point(&self, point: Option<CrashPoint>) {
        self.wal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .set_crash_point(point);
    }

    /// Arms a fault-injection point inside the next checkpoint (tests
    /// only). After it fires the handle is poisoned.
    pub fn set_checkpoint_crash_point(&self, point: Option<CheckpointCrashPoint>) {
        *self
            .checkpoint_crash
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = point;
    }

    /// Whether an injected crash has poisoned this handle.
    pub(crate) fn is_poisoned(&self) -> bool {
        self.wal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_poisoned()
    }

    /// Bytes of redo records currently in the WAL (drives auto-checkpoint
    /// thresholds upstream).
    pub fn wal_bytes(&self) -> Result<u64, StorageError> {
        self.wal
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len_bytes()
    }

    /// Lifetime count of database-file pages written by checkpoints. An
    /// append-only workload moves this by O(appended rows) per
    /// checkpoint, not O(database).
    pub fn pages_written(&self) -> u64 {
        self.pages_written.load(Ordering::Relaxed)
    }

    /// Writes a **full** checkpoint: every relation in `relations` is
    /// rewritten from scratch, everything else is dropped from the
    /// catalog, and no relation carries lineage. The tests' shorthand for
    /// [`Storage::checkpoint_incremental`] with every source a rewrite.
    #[cfg(test)]
    pub(crate) fn checkpoint(
        &self,
        relations: &[Relation],
    ) -> Result<CheckpointStats, StorageError> {
        let sources: Vec<CheckpointSource<'_>> =
            relations.iter().map(CheckpointSource::Rewrite).collect();
        self.checkpoint_incremental(&sources, &BTreeMap::new())
    }

    /// Writes an incremental, shadow-paged checkpoint.
    ///
    /// `sources` names every relation the new catalog should contain —
    /// relations absent from it are dropped. [`CheckpointSource::Keep`]
    /// writes nothing; [`CheckpointSource::Append`] writes only the
    /// appended suffix (new leaves + a fresh interior chain);
    /// [`CheckpointSource::Rewrite`] writes the relation whole. The
    /// catalog chain and one meta slot are always rewritten, and every
    /// entry in it carries the relation's [`CatalogEntry::lineage`] from
    /// `lineage` (relation name → statement text), so a derived relation
    /// and its lineage commit together.
    ///
    /// Protocol (see `checkpoint` module docs): data pages go to slots
    /// unreachable from the live meta and are fsynced; only then is the
    /// new meta — carrying the WAL floor — committed to the inactive slot
    /// and fsynced; only then is the WAL reset. A crash at any point
    /// recovers bit-exactly to the old or the new state.
    ///
    /// The caller must guarantee the sources reflect every operation
    /// logged so far (i.e. hold its write lock across this call).
    pub fn checkpoint_incremental(
        &self,
        sources: &[CheckpointSource<'_>],
        lineage: &BTreeMap<String, String>,
    ) -> Result<CheckpointStats, StorageError> {
        let _serial = self.ckpt_serial.lock().unwrap_or_else(|e| e.into_inner());
        if self.is_poisoned() {
            return Err(StorageError::Poisoned);
        }
        let floor = self.last_seq.load(Ordering::Relaxed);
        let old_dir = self
            .directory
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let old_layouts = self
            .layouts
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        let old_catalog = self
            .catalog_pages
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();

        // Classify every source, degrading appends that can't reuse the
        // on-disk prefix (missing, schema change, shrunk) to rewrites and
        // no-op appends to keeps.
        enum Work<'a> {
            Keep,
            Fresh { rel: &'a Relation, from: usize },
        }
        let mut stats = CheckpointStats::default();
        let mut plan: BTreeMap<String, Work<'_>> = BTreeMap::new();
        for source in sources {
            match source {
                CheckpointSource::Keep(name) => {
                    if !old_dir.contains_key(*name) {
                        return Err(StorageError::UnknownRelation((*name).to_string()));
                    }
                    plan.insert((*name).to_string(), Work::Keep);
                }
                CheckpointSource::Append(rel) => {
                    let (name, schema, probabilistic, len) = relation_parts(rel);
                    let work = match old_dir.get(name) {
                        Some(e)
                            if e.schema == *schema
                                && e.probabilistic == probabilistic
                                && len as u64 >= e.rows =>
                        {
                            if len as u64 == e.rows {
                                Work::Keep
                            } else {
                                Work::Fresh {
                                    rel,
                                    from: e.rows as usize,
                                }
                            }
                        }
                        _ => Work::Fresh { rel, from: 0 },
                    };
                    plan.insert(name.to_string(), work);
                }
                CheckpointSource::Rewrite(rel) => {
                    plan.insert(
                        relation_parts(rel).0.to_string(),
                        Work::Fresh { rel, from: 0 },
                    );
                }
            }
        }

        // Shadow allocator: everything the live meta reaches is off
        // limits; what's left inside the file is free, then the file
        // grows.
        let mut reachable: BTreeSet<u64> = (0..META_SLOTS).collect();
        reachable.extend(old_catalog.iter().copied());
        for layout in old_layouts.values() {
            reachable.extend(layout.pages());
        }
        let mut alloc = SlotAllocator::new(&reachable, self.pager.n_pages());

        // Encode the new state: suffix leaves + fresh interior chains per
        // dirty relation, then one fresh catalog chain over all entries.
        let mut writes: Vec<(u64, page::Page)> = Vec::new();
        let mut new_dir: BTreeMap<String, CatalogEntry> = BTreeMap::new();
        let mut new_layouts: BTreeMap<String, RelationLayout> = BTreeMap::new();
        for (name, work) in &plan {
            match work {
                Work::Keep => {
                    stats.relations_kept += 1;
                    new_dir.insert(name.clone(), old_dir[name].clone());
                    new_layouts.insert(
                        name.clone(),
                        old_layouts.get(name).cloned().unwrap_or_default(),
                    );
                }
                Work::Fresh { rel, from } => {
                    if *from > 0 {
                        stats.relations_appended += 1;
                    } else {
                        stats.relations_rewritten += 1;
                    }
                    let (_, schema, probabilistic, len) = relation_parts(rel);
                    let new_leaves = checkpoint::encode_leaves(rel, *from)?;
                    let mut leaf_ids: Vec<u64> = if *from > 0 {
                        old_layouts
                            .get(name)
                            .map(|l| l.leaves.clone())
                            .unwrap_or_default()
                    } else {
                        Vec::new()
                    };
                    for leaf in new_leaves {
                        let id = alloc.alloc();
                        leaf_ids.push(id);
                        writes.push((id, leaf));
                    }
                    let mut interiors = checkpoint::build_interior_pages(&leaf_ids);
                    let interior_ids: Vec<u64> = interiors.iter().map(|_| alloc.alloc()).collect();
                    for i in 0..interiors.len().saturating_sub(1) {
                        interiors[i].set_next(interior_ids[i + 1]);
                    }
                    let root = interior_ids.first().copied().unwrap_or(0);
                    for (id, p) in interior_ids.iter().zip(interiors) {
                        writes.push((*id, p));
                    }
                    new_dir.insert(
                        name.clone(),
                        CatalogEntry {
                            name: name.clone(),
                            probabilistic,
                            schema: schema.clone(),
                            root,
                            rows: len as u64,
                            lineage: None,
                        },
                    );
                    new_layouts.insert(
                        name.clone(),
                        RelationLayout {
                            leaves: leaf_ids,
                            interior: interior_ids,
                        },
                    );
                }
            }
        }
        for (name, entry) in &mut new_dir {
            entry.lineage = lineage.get(name).cloned();
        }
        let mut cat_pages = checkpoint::build_catalog_pages(new_dir.values())?;
        let cat_ids: Vec<u64> = cat_pages.iter().map(|_| alloc.alloc()).collect();
        for i in 0..cat_pages.len().saturating_sub(1) {
            cat_pages[i].set_next(cat_ids[i + 1]);
        }
        let catalog_root = cat_ids.first().copied().unwrap_or(0);
        for (id, p) in cat_ids.iter().zip(cat_pages) {
            writes.push((*id, p));
        }

        let new_file_pages = alloc.file_pages();
        let new_epoch = self.epoch.load(Ordering::Relaxed) + 1;
        let slot = new_epoch % META_SLOTS;
        let mut meta_page =
            checkpoint::build_meta_page(new_epoch, new_file_pages, catalog_root, floor);

        // --- Write phase. Every destination so far is unreachable from
        // the live meta, so nothing here can corrupt the old state. ---
        let crash = self
            .checkpoint_crash
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        let mut file = self.db_write.lock().unwrap_or_else(|e| e.into_inner());
        if crash == Some(CheckpointCrashPoint::MidPage) {
            if let Some((id, p)) = writes.first_mut() {
                file.seek(SeekFrom::Start(*id * PAGE_SIZE as u64))?;
                file.write_all(&p.sealed_image()[..PAGE_SIZE / 2])?;
                file.sync_data()?;
            }
            self.wal.lock().unwrap_or_else(|e| e.into_inner()).poison();
            return Err(StorageError::InjectedCrash("checkpoint-mid-page"));
        }
        for (id, p) in &mut writes {
            file.seek(SeekFrom::Start(*id * PAGE_SIZE as u64))?;
            file.write_all(p.sealed_image())?;
        }
        if self.options.fsync {
            // sync_all, not sync_data: the file may have grown, and the
            // new length must be durable before the meta slot points past
            // the old end.
            file.sync_all()?;
        }
        // Debug hook for CI's kill-during-checkpoint smoke test: hold the
        // window between data durability and the meta commit open.
        if let Ok(ms) = std::env::var(CHECKPOINT_HOLD_ENV) {
            if let Ok(ms) = ms.trim().parse::<u64>() {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
        }
        if crash == Some(CheckpointCrashPoint::AfterPages) {
            self.wal.lock().unwrap_or_else(|e| e.into_inner()).poison();
            return Err(StorageError::InjectedCrash("checkpoint-after-pages"));
        }

        // --- Commit point: one page write to the inactive meta slot. ---
        file.seek(SeekFrom::Start(slot * PAGE_SIZE as u64))?;
        file.write_all(meta_page.sealed_image())?;
        if self.options.fsync {
            file.sync_data()?;
        }
        drop(file);
        if crash == Some(CheckpointCrashPoint::AfterMeta) {
            self.wal.lock().unwrap_or_else(|e| e.into_inner()).poison();
            return Err(StorageError::InjectedCrash("checkpoint-after-meta"));
        }

        // The meta slot is durable; the WAL is redundant up to the floor.
        self.wal.lock().unwrap_or_else(|e| e.into_inner()).reset()?;

        // Publish the new state in memory.
        self.pager.extend_to(new_file_pages);
        let mut invalidated: Vec<u64> = writes.iter().map(|(id, _)| *id).collect();
        invalidated.push(slot);
        self.pager.invalidate(&invalidated);
        *self.directory.write().unwrap_or_else(|e| e.into_inner()) = new_dir;
        *self.layouts.write().unwrap_or_else(|e| e.into_inner()) = new_layouts;
        *self.catalog_pages.lock().unwrap_or_else(|e| e.into_inner()) = cat_ids;
        self.epoch.store(new_epoch, Ordering::Relaxed);
        stats.pages_written = writes.len() as u64 + 1; // + the meta slot
        self.pages_written
            .fetch_add(stats.pages_written, Ordering::Relaxed);
        Ok(stats)
    }

    /// Opens a lazy, leaf-at-a-time stream over one on-disk relation, or
    /// `None` if the catalog has no such relation. Pages fault in one
    /// leaf at a time through the shared cache — the relation is never
    /// materialised whole.
    pub(crate) fn scan_stream(&self, name: &str) -> Result<Option<RelationStream>, StorageError> {
        let entry = {
            let dir = self.directory.read().unwrap_or_else(|e| e.into_inner());
            match dir.get(name) {
                Some(e) => e.clone(),
                None => return Ok(None),
            }
        };
        RelationStream::new(Arc::clone(&self.pager), entry).map(Some)
    }

    /// Materialises one relation from disk (through the page cache), or
    /// `None` if the catalog has no such relation: the recovery read. Each
    /// leaf lands as one slice copy per column, pre-sized from the
    /// stream's size hint. Queries never come here: they consume the
    /// stream itself.
    pub fn scan(&self, name: &str) -> Result<Option<Relation>, StorageError> {
        let Some(mut stream) = self.scan_stream(name)? else {
            return Ok(None);
        };
        let (name, schema) = (stream.entry.name.clone(), stream.entry.schema.clone());
        let rows = stream.size_hint();
        Ok(Some(if stream.entry.probabilistic {
            let mut t = ProbTable::new(name, schema);
            t.reserve(rows);
            while let Some(batch) = stream.next_batch()? {
                t.extend_from_batch(&batch, 0..batch.len())?;
            }
            Relation::Probabilistic(t)
        } else {
            let mut t = Table::new(name, schema);
            t.reserve(rows);
            while let Some(batch) = stream.next_batch()? {
                t.extend_from_batch(&batch, 0..batch.len());
            }
            Relation::Deterministic(t)
        }))
    }

    /// Names of all relations in the on-disk catalog.
    pub fn relation_names(&self) -> Vec<String> {
        self.directory
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect()
    }

    /// Catalog entry of one relation, if present.
    pub fn entry(&self, name: &str) -> Option<CatalogEntry> {
        self.directory
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }

    /// Page-cache counters of the live pager.
    pub fn cache_stats(&self) -> PagerStats {
        self.pager.stats()
    }
}

/// A lazy batch stream over one on-disk relation. Each
/// [`RelationStream::next_batch`] faults in one leaf through the shared
/// page cache (a warm scan never touches the disk) and decodes its batch
/// **straight into reused column vectors**, plus the probabilities of a
/// probabilistic relation — a scan allocates per relation, not per tuple.
/// Owns its pager handle, so it can outlive the [`Storage`] call that
/// opened it.
#[derive(Debug)]
pub(crate) struct RelationStream {
    pager: Arc<Pager>,
    /// Leaf page ids not yet decoded, in tuple order.
    leaves: VecDeque<u64>,
    entry: CatalogEntry,
    columns: Vec<Column>,
    probs: Vec<f64>,
    /// Tuples handed out so far — the global index of the next batch.
    seen: usize,
}

impl RelationStream {
    fn new(pager: Arc<Pager>, entry: CatalogEntry) -> Result<RelationStream, StorageError> {
        Ok(RelationStream {
            leaves: read_layout(&pager, entry.root)?.leaves.into(),
            columns: Column::for_schema(&entry.schema, 0),
            pager,
            entry,
            probs: Vec::new(),
            seen: 0,
        })
    }

    /// Decodes the next leaf, or `None` at end of relation — at which
    /// point the tuples seen must match the catalog's recorded row count.
    pub(crate) fn next_batch(&mut self) -> Result<Option<Batch<'_>>, StorageError> {
        let Some(id) = self.leaves.pop_front() else {
            if self.seen as u64 != self.entry.rows {
                return Err(StorageError::CorruptPage {
                    page: self.entry.root,
                    reason: format!(
                        "catalog records {} rows, leaves hold {}",
                        self.entry.rows, self.seen
                    ),
                });
            }
            return Ok(None);
        };
        let page = self.pager.get(id)?;
        if page.kind() != PageKind::Leaf {
            return Err(StorageError::CorruptPage {
                page: id,
                reason: format!("expected a leaf page, found {:?}", page.kind()),
            });
        }
        for column in &mut self.columns {
            column.clear();
        }
        self.probs.clear();
        let mut dec = Decoder::new(page.payload());
        let probs = self.entry.probabilistic.then_some(&mut self.probs);
        let rows = decode_batch(&mut dec, &mut self.columns, probs)
            .and_then(|rows| dec.finish().map(|()| rows))
            .map_err(StorageError::corrupt(id))?;
        let offset = self.seen;
        self.seen += rows;
        let probs = self.entry.probabilistic.then_some(self.probs.as_slice());
        Ok(Some(Batch::new(
            &self.entry.schema,
            &self.columns,
            probs,
            offset,
        )))
    }
}

impl BatchStream for RelationStream {
    fn schema(&self) -> &Schema {
        &self.entry.schema
    }

    fn probabilistic(&self) -> bool {
        self.entry.probabilistic
    }

    /// The catalog's row count, capped at one row per payload byte of the
    /// leaves still to read, so a damaged count cannot reserve more than
    /// the file could hold (the count itself is checked at exhaustion).
    fn size_hint(&self) -> usize {
        let most = (self.leaves.len() as u64).saturating_mul(PAYLOAD_LEN as u64);
        usize::try_from(self.entry.rows.min(most)).unwrap_or(usize::MAX)
    }

    fn next_batch(&mut self) -> Result<Option<Batch<'_>>, DbError> {
        RelationStream::next_batch(self).map_err(DbError::from)
    }
}

impl ScanSource for Storage {
    fn scan(&self, name: &str) -> Result<Option<Relation>, DbError> {
        Storage::scan(self, name).map_err(DbError::from)
    }

    fn scan_stream(&self, name: &str) -> Result<Option<Box<dyn BatchStream>>, DbError> {
        Ok(Storage::scan_stream(self, name)?.map(|s| Box::new(s) as Box<dyn BatchStream>))
    }

    fn names(&self) -> Vec<String> {
        self.relation_names()
    }
}

fn relation_parts(r: &Relation) -> (&str, &Schema, bool, usize) {
    match r {
        Relation::Deterministic(t) => (t.name(), t.schema(), false, t.len()),
        Relation::Probabilistic(t) => (t.name(), t.schema(), true, t.len()),
    }
}

/// Fsyncs a directory so a rename inside it is durable.
fn sync_dir(dir: &Path) -> Result<(), StorageError> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Writes a fresh, empty database file: both meta slots at epoch 0 with
/// an empty catalog.
fn write_fresh_db(path: &Path) -> Result<(), StorageError> {
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)?;
    for _slot in 0..META_SLOTS {
        let mut meta = checkpoint::build_meta_page(0, META_SLOTS, 0, 0);
        file.write_all(meta.sealed_image())?;
    }
    file.sync_all()?;
    Ok(())
}

/// Everything [`load_db_file`] recovers from a database file.
struct LoadedDb {
    pager: Pager,
    meta: MetaInfo,
    directory: BTreeMap<String, CatalogEntry>,
    layouts: BTreeMap<String, RelationLayout>,
    catalog_pages: Vec<u64>,
}

/// Parses one meta slot, validating checksum, magic, version and page
/// size.
fn read_meta_slot(pager: &Pager, slot: u64) -> Result<MetaInfo, StorageError> {
    let page = pager.get(slot)?;
    if page.kind() != PageKind::Meta {
        return Err(StorageError::BadDatabase(format!(
            "page {slot} is not a meta page"
        )));
    }
    let mut dec = Decoder::new(page.payload());
    let corrupt = StorageError::corrupt(slot);
    if dec.take_raw(DB_MAGIC.len()).map_err(corrupt)? != DB_MAGIC {
        return Err(StorageError::BadDatabase("magic mismatch".into()));
    }
    let version = dec.take_u32().map_err(corrupt)?;
    if version != DB_VERSION {
        return Err(StorageError::BadDatabase(format!(
            "database format v{version}, this build reads v{DB_VERSION}"
        )));
    }
    let page_size = dec.take_u32().map_err(corrupt)? as usize;
    if page_size != PAGE_SIZE {
        return Err(StorageError::BadDatabase(format!(
            "database uses {page_size}-byte pages, this build uses {PAGE_SIZE}"
        )));
    }
    let mut field = || dec.take_u64().map_err(corrupt);
    Ok(MetaInfo {
        epoch: field()?,
        n_pages: field()?,
        catalog_root: field()?,
        wal_floor: field()?,
    })
}

/// Walks one relation's interior chain, recording its page layout (leaves
/// are located, not read — scans fault them in lazily).
fn read_layout(pager: &Pager, root: u64) -> Result<RelationLayout, StorageError> {
    let mut layout = RelationLayout::default();
    let mut id = root;
    while id != 0 {
        let page = pager.get(id)?;
        if page.kind() != PageKind::Interior {
            return Err(StorageError::CorruptPage {
                page: id,
                reason: format!("expected an interior page, found {:?}", page.kind()),
            });
        }
        layout.interior.push(id);
        let mut dec = Decoder::new(page.payload());
        for _ in 0..page.count() {
            layout
                .leaves
                .push(dec.take_u64().map_err(StorageError::corrupt(id))?);
        }
        id = page.next();
    }
    Ok(layout)
}

/// Opens a database file: picks the live meta slot (valid + highest
/// epoch), loads the catalog and per-relation page layouts, and wraps the
/// file in a pager.
fn load_db_file(path: &Path, cache_pages: usize) -> Result<LoadedDb, StorageError> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    // A crash can tear the file's trailing page mid-extension; only whole
    // pages count, and nothing reachable from a valid meta slot can live
    // in the torn tail (the meta committed only after its pages were
    // durable).
    let file_pages = len / PAGE_SIZE as u64;
    if file_pages < META_SLOTS {
        return Err(StorageError::BadDatabase(format!(
            "file length {len} holds fewer than the {META_SLOTS} meta slots"
        )));
    }
    let pager = Pager::new(file, file_pages, cache_pages);

    // Dual-slot recovery: a crash can tear at most the slot being
    // written, so the other one is always a valid, older state.
    let mut meta: Option<MetaInfo> = None;
    let mut slot_errors: Vec<String> = Vec::new();
    for slot in 0..META_SLOTS {
        match read_meta_slot(&pager, slot) {
            Ok(m) if meta.is_none() || m.epoch > meta.expect("checked").epoch => meta = Some(m),
            Ok(_) => {}
            // A checksummed meta page that is not this format (an older
            // version, another magic) is no torn slot: refuse the file.
            Err(e @ StorageError::BadDatabase(_)) => return Err(e),
            Err(e) => slot_errors.push(format!("slot {slot}: {e}")),
        }
    }
    let Some(meta) = meta else {
        return Err(StorageError::BadDatabase(format!(
            "no valid meta slot ({})",
            slot_errors.join("; ")
        )));
    };
    // The file may be *longer* than the meta records (a checkpoint that
    // extended the file and crashed before its commit point); it must
    // never be shorter.
    if meta.n_pages > file_pages || meta.n_pages < META_SLOTS {
        return Err(StorageError::BadDatabase(format!(
            "meta slot records {} pages, file holds {file_pages}",
            meta.n_pages
        )));
    }

    let mut directory = BTreeMap::new();
    let mut catalog_pages = Vec::new();
    let mut id = meta.catalog_root;
    while id != 0 {
        let page = pager.get(id)?;
        if page.kind() != PageKind::Catalog {
            return Err(StorageError::CorruptPage {
                page: id,
                reason: format!("expected a catalog page, found {:?}", page.kind()),
            });
        }
        catalog_pages.push(id);
        let mut dec = Decoder::new(page.payload());
        for _ in 0..page.count() {
            let entry =
                checkpoint::decode_catalog_entry(&mut dec).map_err(StorageError::corrupt(id))?;
            directory.insert(entry.name.clone(), entry);
        }
        id = page.next();
    }
    let mut layouts = BTreeMap::new();
    for (name, entry) in &directory {
        layouts.insert(name.clone(), read_layout(&pager, entry.root)?);
    }
    Ok(LoadedDb {
        pager,
        meta,
        directory,
        layouts,
        catalog_pages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use tspdb_probdb::codec::{encode_column_type, Encoder};
    use tspdb_probdb::{ColumnType, ProbTable, Value};

    /// Minimal self-cleaning temp dir (no external crates in the offline
    /// build).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new() -> TempDir {
            use std::sync::atomic::AtomicU64;
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "tspdb-storage-test-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn sample_prob_table(name: &str, rows: usize) -> ProbTable {
        let schema = Schema::of(&[("t", ColumnType::Int), ("r", ColumnType::Float)]);
        let mut t = ProbTable::new(name, schema);
        for i in 0..rows {
            let p = ((i % 97) as f64 + 1.0) / 100.0;
            t.insert(vec![Value::Int(i as i64), Value::Float(0.1 + i as f64)], p)
                .unwrap();
        }
        t
    }

    #[test]
    fn fresh_directory_opens_empty() {
        let dir = TempDir::new();
        let (storage, recovery) = Storage::open(dir.path(), StorageOptions::default()).unwrap();
        assert!(recovery.ops.is_empty());
        assert_eq!(recovery.checkpoint_relations, 0);
        assert!(storage.relation_names().is_empty());
        assert!(storage.scan("nope").unwrap().is_none());
    }

    #[test]
    fn log_survives_reopen_and_checkpoint_sets_the_floor() {
        let dir = TempDir::new();
        let (storage, _) = Storage::open(dir.path(), StorageOptions::default()).unwrap();
        storage.log(&JournalOp::Sql("CREATE ...".into())).unwrap();
        storage.log(&JournalOp::Sql("INSERT 1".into())).unwrap();
        drop(storage);

        // Ops replay on the next open.
        let (storage, recovery) = Storage::open(dir.path(), StorageOptions::default()).unwrap();
        assert_eq!(recovery.ops.len(), 2);

        // Checkpoint makes them redundant; nothing replays afterwards, and
        // new ops get fresh sequence numbers above the floor.
        storage.checkpoint(&[]).unwrap();
        assert_eq!(storage.wal_bytes().unwrap(), 0);
        storage.log(&JournalOp::Sql("INSERT 2".into())).unwrap();
        drop(storage);
        let (_, recovery) = Storage::open(dir.path(), StorageOptions::default()).unwrap();
        assert_eq!(recovery.ops.len(), 1);
        assert_eq!(recovery.skipped, 0, "WAL was reset, floor covers nothing");
        assert_eq!(recovery.ops[0], JournalOp::Sql("INSERT 2".into()));
    }

    #[test]
    fn stale_wal_records_below_the_floor_are_skipped() {
        // A crash in the window between the checkpoint's meta commit and
        // its WAL reset: the checkpointed file already contains the ops,
        // but the log still holds them. The AfterMeta crash point is that
        // exact window.
        let dir = TempDir::new();
        let (storage, _) = Storage::open(dir.path(), StorageOptions::default()).unwrap();
        storage.log(&JournalOp::Sql("INSERT 1".into())).unwrap();
        storage.log(&JournalOp::Sql("INSERT 2".into())).unwrap();

        let table = sample_prob_table("pv", 2);
        storage.set_checkpoint_crash_point(Some(CheckpointCrashPoint::AfterMeta));
        assert!(matches!(
            storage.checkpoint(&[Relation::Probabilistic(table)]),
            Err(StorageError::InjectedCrash("checkpoint-after-meta"))
        ));
        drop(storage); // WAL never reset — the crash window

        let (storage, recovery) = Storage::open(dir.path(), StorageOptions::default()).unwrap();
        assert!(recovery.ops.is_empty(), "nothing to redo");
        assert_eq!(recovery.skipped, 2, "both records identified as applied");
        assert!(
            storage.scan("pv").unwrap().is_some(),
            "meta committed before the crash: the new state is served"
        );
        // New writes continue above the floor.
        storage.log(&JournalOp::Sql("INSERT 3".into())).unwrap();
        drop(storage);
        let (_, recovery) = Storage::open(dir.path(), StorageOptions::default()).unwrap();
        assert_eq!(recovery.ops.len(), 1);
        assert_eq!(recovery.ops[0], JournalOp::Sql("INSERT 3".into()));
    }

    #[test]
    fn crash_before_meta_commit_recovers_the_old_state() {
        for (point, tag) in [
            (CheckpointCrashPoint::MidPage, "checkpoint-mid-page"),
            (CheckpointCrashPoint::AfterPages, "checkpoint-after-pages"),
        ] {
            let dir = TempDir::new();
            let (storage, _) = Storage::open(dir.path(), StorageOptions::default()).unwrap();
            let v1 = sample_prob_table("pv", 50);
            storage
                .checkpoint(&[Relation::Probabilistic(v1.clone())])
                .unwrap();

            // A bigger version crashes mid-checkpoint, before the commit
            // point: recovery must serve v1, bit-exactly.
            let v2 = sample_prob_table("pv", 200);
            storage.set_checkpoint_crash_point(Some(point));
            assert!(matches!(
                storage.checkpoint_incremental(&[CheckpointSource::Append(
                    &Relation::Probabilistic(v2)
                )], &BTreeMap::new()),
                Err(StorageError::InjectedCrash(t)) if t == tag
            ));
            drop(storage);

            let (storage, recovery) = Storage::open(dir.path(), StorageOptions::default()).unwrap();
            assert!(recovery.ops.is_empty());
            let got = storage.scan("pv").unwrap().expect("pv survives");
            let Relation::Probabilistic(got) = got else {
                panic!("expected a probabilistic relation")
            };
            assert_eq!(got.len(), 50, "{tag}: the old state, nothing torn");
            for i in 0..50 {
                assert_eq!(got.tuple(i).1.to_bits(), v1.tuple(i).1.to_bits());
            }
        }
    }

    #[test]
    fn append_checkpoints_write_o_dirty_not_o_total() {
        let dir = TempDir::new();
        let (storage, _) = Storage::open(dir.path(), StorageOptions::default()).unwrap();
        let full = sample_prob_table("pv", 100_000);
        let full_stats = storage
            .checkpoint(&[Relation::Probabilistic(full.clone())])
            .unwrap();
        assert_eq!(full_stats.relations_rewritten, 1);

        // Append 1% and checkpoint incrementally: the acceptance bound is
        // <10% of the pages a full rewrite writes.
        let mut grown = full.clone();
        for i in 100_000..101_000 {
            let p = ((i % 97) as f64 + 1.0) / 100.0;
            grown
                .insert(vec![Value::Int(i as i64), Value::Float(0.1 + i as f64)], p)
                .unwrap();
        }
        let incr_stats = storage
            .checkpoint_incremental(
                &[CheckpointSource::Append(&Relation::Probabilistic(
                    grown.clone(),
                ))],
                &BTreeMap::new(),
            )
            .unwrap();
        assert_eq!(incr_stats.relations_appended, 1);
        assert!(
            incr_stats.pages_written * 10 < full_stats.pages_written,
            "append wrote {} pages, full rewrite wrote {}",
            incr_stats.pages_written,
            full_stats.pages_written
        );

        // And the result is the same as if it had been rewritten whole.
        let got = storage.scan("pv").unwrap().expect("pv on disk");
        let Relation::Probabilistic(got) = got else {
            panic!("expected a probabilistic relation")
        };
        assert_eq!(got.len(), 101_000);
        for i in [0usize, 99_999, 100_000, 100_999] {
            assert_eq!(got.tuple(i).1.to_bits(), grown.tuple(i).1.to_bits());
            assert_eq!(got.tuple(i).0, grown.tuple(i).0);
        }

        // Survives a reboot (the appended suffix + reused prefix chain).
        drop(storage);
        let (storage, _) = Storage::open(dir.path(), StorageOptions::default()).unwrap();
        let got = storage.scan("pv").unwrap().expect("pv survives reboot");
        let Relation::Probabilistic(got) = got else {
            panic!("expected a probabilistic relation")
        };
        assert_eq!(got.len(), 101_000);
    }

    #[test]
    fn keep_sources_write_no_relation_pages_and_drops_reclaim_slots() {
        let dir = TempDir::new();
        let (storage, _) = Storage::open(dir.path(), StorageOptions::default()).unwrap();
        let a = sample_prob_table("a", 300);
        let b = sample_prob_table("b", 300);
        storage
            .checkpoint(&[
                Relation::Probabilistic(a.clone()),
                Relation::Probabilistic(b),
            ])
            .unwrap();
        // Keep both: only the catalog chain + meta slot are rewritten.
        // The first keep may grow the file by one page (the old catalog
        // slot stays reachable until the *next* checkpoint frees it);
        // after that the two catalog slots alternate — steady state.
        let stats = storage
            .checkpoint_incremental(
                &[CheckpointSource::Keep("a"), CheckpointSource::Keep("b")],
                &BTreeMap::new(),
            )
            .unwrap();
        assert_eq!(stats.relations_kept, 2);
        assert!(
            stats.pages_written <= 2,
            "keep-only checkpoint wrote {} pages",
            stats.pages_written
        );
        let steady = storage.pager.n_pages();
        storage
            .checkpoint_incremental(
                &[CheckpointSource::Keep("a"), CheckpointSource::Keep("b")],
                &BTreeMap::new(),
            )
            .unwrap();
        assert_eq!(storage.pager.n_pages(), steady, "no growth on repeat keep");

        // Drop `b` (absent from the sources): its slots free up, so
        // rewriting `a` into them must not grow the file.
        storage
            .checkpoint_incremental(&[CheckpointSource::Keep("a")], &BTreeMap::new())
            .unwrap();
        let before_rewrite = storage.pager.n_pages();
        storage
            .checkpoint_incremental(
                &[CheckpointSource::Rewrite(&Relation::Probabilistic(
                    a.clone(),
                ))],
                &BTreeMap::new(),
            )
            .unwrap();
        assert_eq!(
            storage.pager.n_pages(),
            before_rewrite,
            "rewrite reused the dropped relation's slots"
        );
        assert!(storage.scan("b").unwrap().is_none(), "b was dropped");
        let got = storage.scan("a").unwrap().expect("a lives");
        let Relation::Probabilistic(got) = got else {
            panic!("expected a probabilistic relation")
        };
        assert_eq!(got.len(), 300);
    }

    #[test]
    fn unknown_keep_source_is_an_error() {
        let dir = TempDir::new();
        let (storage, _) = Storage::open(dir.path(), StorageOptions::default()).unwrap();
        assert!(matches!(
            storage.checkpoint_incremental(&[CheckpointSource::Keep("ghost")], &BTreeMap::new()),
            Err(StorageError::UnknownRelation(n)) if n == "ghost"
        ));
    }

    #[test]
    fn incompatible_append_degrades_to_a_rewrite() {
        let dir = TempDir::new();
        let (storage, _) = Storage::open(dir.path(), StorageOptions::default()).unwrap();
        storage
            .checkpoint(&[Relation::Probabilistic(sample_prob_table("pv", 100))])
            .unwrap();

        // Shrunk row count can't reuse the prefix: must degrade, not
        // corrupt.
        let shrunk = sample_prob_table("pv", 40);
        let stats = storage
            .checkpoint_incremental(
                &[CheckpointSource::Append(&Relation::Probabilistic(
                    shrunk.clone(),
                ))],
                &BTreeMap::new(),
            )
            .unwrap();
        assert_eq!(stats.relations_rewritten, 1);
        assert_eq!(stats.relations_appended, 0);
        let got = storage.scan("pv").unwrap().expect("pv on disk");
        let Relation::Probabilistic(got) = got else {
            panic!("expected a probabilistic relation")
        };
        assert_eq!(got.len(), 40);

        // Unchanged append degrades to a keep: no relation pages written.
        let stats = storage
            .checkpoint_incremental(
                &[CheckpointSource::Append(&Relation::Probabilistic(shrunk))],
                &BTreeMap::new(),
            )
            .unwrap();
        assert_eq!(stats.relations_kept, 1);
        assert!(stats.pages_written <= 2);
    }

    #[test]
    fn lazy_stream_yields_the_materialized_tuples() {
        let dir = TempDir::new();
        let (storage, _) = Storage::open(dir.path(), StorageOptions::default()).unwrap();
        let table = sample_prob_table("pv", 500);
        storage
            .checkpoint(&[Relation::Probabilistic(table.clone())])
            .unwrap();

        let mut stream = storage.scan_stream("pv").unwrap().expect("pv on disk");
        assert!(stream.entry.probabilistic);
        let mut n = 0usize;
        let mut leaves = 0usize;
        while let Some(batch) = stream.next_batch().unwrap() {
            assert_eq!(batch.offset(), n, "batches partition the relation in order");
            let probs = batch.probs().expect("probabilistic");
            for (i, p) in probs.iter().enumerate() {
                let (want_row, want_p) = table.tuple(n);
                assert_eq!(p.to_bits(), want_p.to_bits());
                let row: Vec<Value> = (0..2).map(|c| batch.values(c).value(i)).collect();
                assert_eq!(row, want_row);
                n += 1;
            }
            leaves += 1;
        }
        assert_eq!(n, 500);
        assert!(leaves > 1, "500 tuples span several leaves");
        assert!(storage.scan_stream("nope").unwrap().is_none());
    }

    #[test]
    fn bytewise_crc_v2_pages_verify_and_the_directory_is_refused_by_version() {
        // `tests/fixtures/bytewise_v2` was written by the build before
        // slicing-by-8 (byte-at-a-time `crc32`): a checkpoint of `pv` (300
        // tuples) and `raw` (10 rows), then two WAL records. Every page
        // checksum in it must verify under today's `crc32`.
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bytewise_v2");
        let dir = TempDir::new();
        for file in [DB_FILE, WAL_FILE] {
            std::fs::copy(fixture.join(file), dir.path().join(file)).unwrap();
        }
        let image = std::fs::read(dir.path().join(DB_FILE)).unwrap();
        for (id, page) in image.chunks_exact(PAGE_SIZE).enumerate() {
            let mut zeroed = page.to_vec();
            zeroed[4..8].fill(0);
            let stored = u32::from_be_bytes(page[4..8].try_into().unwrap());
            assert_eq!(stored, codec::crc32_bytewise(&zeroed), "page {id}");
            assert_eq!(stored, codec::crc32(&zeroed), "page {id}");
        }

        // This build reads format v3 only: the v2 directory is refused by
        // version, with a typed error rather than a misread.
        let err = Storage::open(dir.path(), StorageOptions::default()).unwrap_err();
        assert!(
            matches!(&err, StorageError::BadDatabase(msg) if msg.contains("format v2")),
            "{err}"
        );
    }

    #[test]
    fn a_repeated_column_in_a_checksummed_record_is_an_error_not_a_panic() {
        let dir = TempDir::new();
        drop(Storage::open(dir.path(), StorageOptions::default()).unwrap());
        // A `LoadTable` record whose schema names `a` twice, under a valid
        // CRC: only the decoder's schema check stands between it and
        // `Schema::new`'s assertion.
        let mut payload = Encoder::new();
        payload.put_u64(1);
        payload.put_u8(2);
        payload.put_str("dup");
        payload.put_u32(2);
        for _ in 0..2 {
            payload.put_str("a");
            encode_column_type(&mut payload, ColumnType::Int);
        }
        let payload = payload.into_bytes();
        let mut wal = std::fs::read(dir.path().join(WAL_FILE)).unwrap();
        wal.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        wal.extend_from_slice(&codec::crc32(&payload).to_be_bytes());
        wal.extend_from_slice(&payload);
        std::fs::write(dir.path().join(WAL_FILE), wal).unwrap();
        let err = Storage::open(dir.path(), StorageOptions::default()).unwrap_err();
        assert!(
            matches!(&err, StorageError::CorruptPage { reason, .. } if reason.contains("repeats column a")),
            "{err}"
        );
    }

    #[test]
    fn empty_relation_round_trips() {
        let dir = TempDir::new();
        let (storage, _) = Storage::open(dir.path(), StorageOptions::default()).unwrap();
        let t = sample_prob_table("empty", 0);
        storage.checkpoint(&[Relation::Probabilistic(t)]).unwrap();
        let got = storage.scan("empty").unwrap().expect("cataloged");
        let Relation::Probabilistic(got) = got else {
            panic!("expected a probabilistic relation")
        };
        assert!(got.is_empty());
    }

    #[test]
    fn injected_crash_poisons_the_handle() {
        let dir = TempDir::new();
        let (storage, _) = Storage::open(dir.path(), StorageOptions::default()).unwrap();
        storage.set_crash_point(Some(CrashPoint::PreCommit));
        assert!(storage.log(&JournalOp::Sql("INSERT 1".into())).is_err());
        assert!(storage.is_poisoned());
        assert!(matches!(
            storage.log(&JournalOp::Sql("INSERT 2".into())),
            Err(StorageError::Poisoned)
        ));
        assert!(matches!(
            storage.checkpoint(&[]),
            Err(StorageError::Poisoned)
        ));
        // Scans still work: reads never depend on the write path.
        assert!(storage.scan("nope").unwrap().is_none());
    }

    #[test]
    fn a_flipped_byte_in_a_stored_leaf_fails_the_scan_naming_that_leaf() {
        let dir = TempDir::new();
        let table = sample_prob_table("pv", 2000);
        let leaves = {
            let (storage, _) = Storage::open(dir.path(), StorageOptions::default()).unwrap();
            storage
                .checkpoint(&[Relation::Probabilistic(table.clone())])
                .unwrap();
            let root = storage.entry("pv").expect("cataloged").root;
            read_layout(&storage.pager, root).unwrap().leaves
        };
        assert!(leaves.len() >= 3, "2000 tuples span several leaves");
        let pristine = std::fs::read(dir.path().join(DB_FILE)).unwrap();
        // The first, a middle and the last leaf; a header byte and payload
        // bytes at the front, middle and end of the page.
        let targets = [
            leaves[0],
            leaves[leaves.len() / 2],
            leaves[leaves.len() - 1],
        ];
        for (leaf, offset) in targets
            .iter()
            .flat_map(|&l| [(l, 9), (l, 30), (l, 2048), (l, 4095)])
        {
            let mut image = pristine.clone();
            image[leaf as usize * PAGE_SIZE + offset] ^= 0x10;
            std::fs::write(dir.path().join(DB_FILE), &image).unwrap();
            // Opening reads only meta, catalog and interior pages.
            let (storage, _) = Storage::open(dir.path(), StorageOptions::default()).unwrap();
            match storage.scan("pv") {
                Err(StorageError::CorruptPage { page, .. }) => {
                    assert_eq!(page, leaf, "byte {offset} of leaf {leaf}");
                }
                other => {
                    panic!("byte {offset} of leaf {leaf}: expected CorruptPage, got {other:?}")
                }
            }
        }

        // The untouched file scans back whole, flags included.
        std::fs::write(dir.path().join(DB_FILE), &pristine).unwrap();
        let (storage, _) = Storage::open(dir.path(), StorageOptions::default()).unwrap();
        let Some(Relation::Probabilistic(got)) = storage.scan("pv").unwrap() else {
            panic!("expected the probabilistic relation back");
        };
        assert_eq!(got, table);
    }

    #[test]
    fn a_descent_at_a_leaf_boundary_clears_the_scanned_flag() {
        // `t` ascends within every leaf and descends exactly where the
        // second leaf starts: a scan appends each leaf as a span, and must
        // still leave the flag per-row inserts gave (ProbTable equality
        // compares the flags).
        let dir = TempDir::new();
        let (storage, _) = Storage::open(dir.path(), StorageOptions::default()).unwrap();
        let probe = sample_prob_table("pv", 2000);
        storage
            .checkpoint(&[Relation::Probabilistic(probe.clone())])
            .unwrap();
        let first_leaf_rows = |storage: &Storage| {
            let mut stream = storage.scan_stream("pv").unwrap().expect("cataloged");
            stream.next_batch().unwrap().expect("a first leaf").len()
        };
        let boundary = first_leaf_rows(&storage);
        assert!(0 < boundary && boundary < 2000);

        let schema = probe.schema().clone();
        let mut table = ProbTable::new("pv", schema);
        for i in 0..2000 {
            let t = if i < boundary {
                i as i64
            } else {
                i as i64 - 10
            };
            table
                .insert(vec![Value::Int(t), Value::Float(0.5)], 0.5)
                .unwrap();
        }
        storage
            .checkpoint(&[Relation::Probabilistic(table.clone())])
            .unwrap();
        assert_eq!(
            first_leaf_rows(&storage),
            boundary,
            "same fixed-width rows per leaf"
        );
        let Some(Relation::Probabilistic(got)) = storage.scan("pv").unwrap() else {
            panic!("expected the probabilistic relation back");
        };
        assert_eq!(got, table);
    }

    #[test]
    fn warm_scans_hit_the_cache() {
        let dir = TempDir::new();
        let (storage, _) = Storage::open(dir.path(), StorageOptions::default()).unwrap();
        let table = sample_prob_table("pv", 300);
        storage
            .checkpoint(&[Relation::Probabilistic(table)])
            .unwrap();
        storage.scan("pv").unwrap();
        let cold = storage.cache_stats();
        storage.scan("pv").unwrap();
        let warm = storage.cache_stats();
        assert_eq!(warm.misses, cold.misses, "second scan reads no pages");
        assert!(warm.hits > cold.hits);
    }
}
