//! Incremental, page-granular checkpoints: the types and page encoders
//! behind [`crate::Storage::checkpoint_incremental`].
//!
//! ## Shadow-write protocol
//!
//! The database file keeps **two meta slots** (pages 0 and 1); the live
//! one is the valid slot with the higher epoch. A checkpoint never
//! overwrites any page reachable from the live meta — new leaf, interior
//! and catalog pages go to *free* slots (pages reachable from neither
//! meta, recomputed from the live catalog each time) and then to fresh
//! pages past the end of the file. Only after those writes are durably
//! fsynced does the checkpoint write the new meta — carrying the advanced
//! WAL floor — to the *inactive* slot and fsync again. That single page
//! write is the commit point: a crash anywhere earlier recovers the old
//! state bit-exactly (plus WAL replay), a crash after it recovers the new
//! state (stale WAL records below the floor are skipped on replay), and
//! no interleaving yields a torn mix.
//!
//! ## Cost model
//!
//! An [`CheckpointSource::Append`] reuses the old leaf chain as an
//! unchanged prefix and writes only leaves for the appended suffix, a
//! fresh interior chain and a fresh catalog chain — O(dirty), not
//! O(relation). [`CheckpointSource::Keep`] writes nothing for the
//! relation at all. Pages that were reachable only from the *previous*
//! epoch become free slots for the *next* checkpoint, so space is
//! reclaimed one checkpoint late, never sooner than a reader holding the
//! old snapshot could still need it.

use crate::error::StorageError;
use crate::page::{Page, PageKind, PAYLOAD_LEN};
use crate::CatalogEntry;
use std::collections::BTreeSet;
use tspdb_probdb::codec::{
    decode_schema, encode_batch, encode_schema, encoded_row_len, DecodeError, Decoder, Encoder,
    BATCH_HEADER_LEN,
};
use tspdb_probdb::{ColumnSlice, Relation};

/// Fault-injection points inside [`crate::Storage::checkpoint_incremental`]
/// (tests only). Each simulates the process dying at one window of the
/// shadow-write protocol; after it fires the handle is poisoned, exactly
/// like the WAL's [`crate::CrashPoint`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointCrashPoint {
    /// Die mid-way through the first data-page write: half a page reaches
    /// a free slot. Recovery must not even notice — the slot is
    /// unreachable from the live meta.
    MidPage,
    /// Die after every data page is written and fsynced but before the
    /// meta slot advances the WAL floor. Recovery serves the *old* state
    /// plus WAL replay.
    AfterPages,
    /// Die after the meta slot is committed but before the WAL reset.
    /// Recovery serves the *new* state and skips the stale WAL records at
    /// or below the floor.
    AfterMeta,
}

/// One relation's contribution to an incremental checkpoint.
#[derive(Debug, Clone, Copy)]
pub enum CheckpointSource<'a> {
    /// The on-disk copy is already current: carry its catalog entry and
    /// page layout forward, writing nothing.
    Keep(&'a str),
    /// The relation grew by appends only: rows past the on-disk row count
    /// are written to new leaves, the old leaf chain is reused as the
    /// unchanged prefix. Degrades to [`CheckpointSource::Keep`] when
    /// nothing was appended, and to a full rewrite when the on-disk copy
    /// is missing or incompatible (schema change, shrunk row count).
    Append(&'a Relation),
    /// Write the relation from scratch (dropped + re-created, rewritten
    /// in place, or first checkpoint).
    Rewrite(&'a Relation),
}

/// What one incremental checkpoint did, for cost assertions and
/// diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Pages written to the database file, including the meta slot.
    pub pages_written: u64,
    /// Relations carried forward untouched.
    pub relations_kept: usize,
    /// Relations that wrote only an appended suffix.
    pub relations_appended: usize,
    /// Relations written from scratch.
    pub relations_rewritten: usize,
}

/// The page ids one relation occupies on disk — everything reachable from
/// its catalog entry's root.
#[derive(Debug, Clone, Default)]
pub(crate) struct RelationLayout {
    /// Leaf page ids, in tuple order.
    pub leaves: Vec<u64>,
    /// Interior-chain page ids, in chain order (empty for an empty
    /// relation).
    pub interior: Vec<u64>,
}

impl RelationLayout {
    /// All page ids of the layout.
    pub(crate) fn pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.leaves.iter().chain(self.interior.iter()).copied()
    }
}

/// Hands out destination page ids for shadow writes: first the free slots
/// inside the file (ascending), then fresh pages past the end.
#[derive(Debug)]
pub(crate) struct SlotAllocator {
    free: std::vec::IntoIter<u64>,
    next: u64,
}

impl SlotAllocator {
    /// `reachable` is every page id the live meta can reach (both meta
    /// slots included); `file_pages` the physical page count.
    pub(crate) fn new(reachable: &BTreeSet<u64>, file_pages: u64) -> SlotAllocator {
        let free: Vec<u64> = (2..file_pages)
            .filter(|id| !reachable.contains(id))
            .collect();
        SlotAllocator {
            free: free.into_iter(),
            next: file_pages,
        }
    }

    pub(crate) fn alloc(&mut self) -> u64 {
        self.free.next().unwrap_or_else(|| {
            let id = self.next;
            self.next += 1;
            id
        })
    }

    /// Physical page count after all allocations so far (≥ the count the
    /// allocator was built with).
    pub(crate) fn file_pages(&self) -> u64 {
        self.next
    }
}

/// Encodes `relation`'s rows from index `from` onwards into sealed leaf
/// pages, each payload one [`encode_batch`] batch holding as many rows as
/// fit (page ids are assigned by the caller), read straight off the
/// relation's columns.
pub(crate) fn encode_leaves(relation: &Relation, from: usize) -> Result<Vec<Page>, StorageError> {
    let (columns, probs, len) = match relation {
        Relation::Deterministic(t) => (t.columns(), None, t.len()),
        Relation::Probabilistic(t) => (t.columns(), Some(&t.probs()[from..]), t.len()),
    };
    let columns: Vec<ColumnSlice<'_>> = columns
        .iter()
        .map(|c| c.values().slice(from..len))
        .collect();
    let rows = len - from;
    let header = BATCH_HEADER_LEN + columns.len();
    let mut leaves: Vec<Page> = Vec::new();
    let mut start = 0;
    while start < rows {
        let (mut end, mut used) = (start, header);
        while end < rows {
            let row = encoded_row_len(&columns, end, probs.is_some());
            if used + row > PAYLOAD_LEN {
                if end == start {
                    return Err(StorageError::TupleTooLarge {
                        size: header + row,
                        max: PAYLOAD_LEN,
                    });
                }
                break;
            }
            used += row;
            end += 1;
        }
        let slices: Vec<ColumnSlice<'_>> = columns.iter().map(|c| c.slice(start..end)).collect();
        let mut enc = Encoder::new();
        encode_batch(&mut enc, &slices, probs.map(|p| &p[start..end]));
        let mut leaf = Page::new(PageKind::Leaf);
        leaf.set_payload(&enc.into_bytes());
        leaf.set_count((end - start) as u32);
        leaves.push(leaf);
        start = end;
    }
    Ok(leaves)
}

/// Builds the interior chain over `leaf_ids` — unlinked; the caller
/// assigns ids and sets the `next` pointers.
pub(crate) fn build_interior_pages(leaf_ids: &[u64]) -> Vec<Page> {
    let ids_per_page = PAYLOAD_LEN / 8;
    leaf_ids
        .chunks(ids_per_page)
        .map(|chunk| {
            let mut interior = Page::new(PageKind::Interior);
            let mut enc = Encoder::new();
            for id in chunk {
                enc.put_u64(*id);
            }
            interior.set_payload(&enc.into_bytes());
            interior.set_count(chunk.len() as u32);
            interior
        })
        .collect()
}

/// Builds the catalog chain over `entries` (greedy packing) — unlinked;
/// the caller assigns ids and sets the `next` pointers. Entries must come
/// in catalog (name) order.
pub(crate) fn build_catalog_pages<'a>(
    entries: impl Iterator<Item = &'a CatalogEntry>,
) -> Result<Vec<Page>, StorageError> {
    let mut pages: Vec<Page> = Vec::new();
    let mut payload = Encoder::new();
    let mut count = 0u32;
    for entry in entries {
        let mut enc = Encoder::new();
        enc.put_str(&entry.name);
        enc.put_u8(u8::from(entry.probabilistic));
        encode_schema(&mut enc, &entry.schema);
        enc.put_u64(entry.root);
        enc.put_u64(entry.rows);
        // No lineage is the empty statement.
        enc.put_str(entry.lineage.as_deref().unwrap_or_default());
        let enc = enc.into_bytes();
        if enc.len() > PAYLOAD_LEN {
            return Err(StorageError::BadDatabase(format!(
                "catalog entry for {:?} exceeds one page",
                entry.name
            )));
        }
        if payload.len() + enc.len() > PAYLOAD_LEN {
            let mut p = Page::new(PageKind::Catalog);
            p.set_payload(&std::mem::take(&mut payload).into_bytes());
            p.set_count(count);
            count = 0;
            pages.push(p);
        }
        payload.put_raw(&enc);
        count += 1;
    }
    if count > 0 {
        let mut p = Page::new(PageKind::Catalog);
        p.set_payload(&payload.into_bytes());
        p.set_count(count);
        pages.push(p);
    }
    Ok(pages)
}

/// Reads one catalog entry written by [`build_catalog_pages`].
pub(crate) fn decode_catalog_entry(dec: &mut Decoder<'_>) -> Result<CatalogEntry, DecodeError> {
    Ok(CatalogEntry {
        name: dec.take_str()?,
        probabilistic: dec.take_u8()? != 0,
        schema: decode_schema(dec)?,
        root: dec.take_u64()?,
        rows: dec.take_u64()?,
        lineage: Some(dec.take_str()?).filter(|spec| !spec.is_empty()),
    })
}

/// Builds one sealed-ready meta page.
pub(crate) fn build_meta_page(epoch: u64, n_pages: u64, catalog_root: u64, wal_floor: u64) -> Page {
    let mut meta = Encoder::new();
    meta.put_raw(crate::DB_MAGIC);
    meta.put_u32(crate::DB_VERSION);
    meta.put_u32(crate::page::PAGE_SIZE as u32);
    meta.put_u64(epoch);
    meta.put_u64(n_pages);
    meta.put_u64(catalog_root);
    meta.put_u64(wal_floor);
    let mut page = Page::new(PageKind::Meta);
    page.set_payload(&meta.into_bytes());
    page
}
