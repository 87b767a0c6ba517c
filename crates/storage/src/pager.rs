//! The pager: one database file behind a page cache keyed by page id.
//!
//! The cache holds **immutable [`Arc<Page>`] snapshots** — the same design
//! as the σ-cache's `Arc` rungs: the read path clones an `Arc` out of the
//! map and works on the snapshot without ever blocking another reader on
//! page content. The `RwLock` around the map is held only for the lookup
//! itself; a cache miss reads the page from the file, verifies its
//! checksum, and publishes the `Arc` for everyone after it.
//!
//! A miss costs one positional read (`pread`, no file lock: concurrent
//! misses read in parallel) straight into the page's own buffer, and one
//! checksum over it in place (carry-less-multiply CRC-32 where the CPU has
//! it, see [`crate::codec`]); the image is never copied.
//!
//! The pager itself never writes. Checkpoints shadow-write through a
//! separate handle — only to pages that are *free* under the current meta
//! (see [`crate::Storage::checkpoint_incremental`]) — then call
//! [`Pager::extend_to`] / [`Pager::invalidate`] so the cache drops exactly
//! the page ids that were rewritten. A cached page reachable from the old
//! meta is never overwritten on disk, so snapshots held across a
//! checkpoint stay byte-valid.

use crate::error::StorageError;
use crate::page::{blank_image, Page, PAGE_SIZE};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Default number of pages the cache may hold (1024 × 4 KiB = 4 MiB).
pub(crate) const DEFAULT_CACHE_PAGES: usize = 1024;

/// Hit/miss counters of one pager (relaxed atomics — diagnostics, not a
/// consistent snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagerStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that went to disk.
    pub misses: u64,
}

/// A page-granular reader over one database file.
#[derive(Debug)]
pub(crate) struct Pager {
    file: File,
    cache: RwLock<HashMap<u64, Arc<Page>>>,
    /// FIFO of resident page ids, used for eviction once `capacity` is
    /// exceeded. Approximate by design: eviction only bounds memory, it
    /// never affects results.
    resident: Mutex<VecDeque<u64>>,
    capacity: usize,
    /// Physical page count. Grows in place when a checkpoint extends the
    /// file ([`Pager::extend_to`]); never shrinks while the pager lives.
    n_pages: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Pager {
    /// Wraps an open database file holding `n_pages` pages.
    pub(crate) fn new(file: File, n_pages: u64, capacity: usize) -> Self {
        Pager {
            file,
            cache: RwLock::new(HashMap::new()),
            resident: Mutex::new(VecDeque::new()),
            capacity: capacity.max(8),
            n_pages: AtomicU64::new(n_pages),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Number of pages in the file.
    pub(crate) fn n_pages(&self) -> u64 {
        self.n_pages.load(Ordering::Acquire)
    }

    /// Grows the addressable page count to `n_pages` (no-op when the file
    /// already reaches it). Called after a checkpoint extends the file.
    pub(crate) fn extend_to(&self, n_pages: u64) {
        self.n_pages.fetch_max(n_pages, Ordering::AcqRel);
    }

    /// Drops the given page ids from the cache. Called after a checkpoint
    /// rewrites free slots in place, so the next read of any rewritten id
    /// refetches the new image; ids never cached are ignored.
    pub(crate) fn invalidate(&self, ids: &[u64]) {
        let mut cache = self.cache.write().expect("page cache lock");
        for id in ids {
            cache.remove(id);
        }
        // Stale ids may linger in the residency FIFO; eviction treats a
        // miss on removal as already-gone, so no cleanup is needed here.
    }

    /// Cache counters.
    pub(crate) fn stats(&self) -> PagerStats {
        PagerStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Reads page `id`, serving from the cache when possible. The returned
    /// snapshot is immutable and safe to hold across any later checkpoint.
    pub(crate) fn get(&self, id: u64) -> Result<Arc<Page>, StorageError> {
        let n_pages = self.n_pages();
        if id >= n_pages {
            return Err(StorageError::CorruptPage {
                page: id,
                reason: format!("page id beyond file ({n_pages} pages)"),
            });
        }
        if let Some(page) = self.cache.read().expect("page cache lock").get(&id) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(page));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut image = blank_image();
        self.file
            .read_exact_at(&mut image[..], id * PAGE_SIZE as u64)?;
        let page = Arc::new(Page::verified(id, image)?);
        let mut cache = self.cache.write().expect("page cache lock");
        // Two threads may race the same cold page; first write wins and
        // both end up with an identical immutable snapshot.
        let entry = cache.entry(id).or_insert_with(|| Arc::clone(&page));
        let page = Arc::clone(entry);
        if cache.len() > self.capacity {
            let mut resident = self.resident.lock().unwrap_or_else(|e| e.into_inner());
            resident.push_back(id);
            while cache.len() > self.capacity {
                match resident.pop_front() {
                    Some(victim) if victim != id => {
                        cache.remove(&victim);
                    }
                    Some(_) => resident.push_back(id),
                    None => break,
                }
            }
        } else {
            self.resident
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push_back(id);
        }
        Ok(page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageKind;
    use std::io::Write;

    fn pager_with_pages(n: usize, capacity: usize) -> (Pager, tempdir::TempDir) {
        let dir = tempdir::TempDir::new();
        let path = dir.path().join("pages.db");
        let mut file = File::create(&path).unwrap();
        for i in 0..n {
            let mut page = Page::new(PageKind::Leaf);
            page.set_payload(format!("page {i}").as_bytes());
            file.write_all(page.sealed_image()).unwrap();
        }
        file.sync_all().unwrap();
        let file = File::open(&path).unwrap();
        (Pager::new(file, n as u64, capacity), dir)
    }

    #[test]
    fn cold_then_warm_reads() {
        let (pager, _dir) = pager_with_pages(4, 16);
        let a = pager.get(2).unwrap();
        assert_eq!(a.payload(), b"page 2");
        let b = pager.get(2).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "warm read must share the snapshot");
        let stats = pager.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn out_of_range_page_is_an_error() {
        let (pager, _dir) = pager_with_pages(2, 16);
        assert!(matches!(
            pager.get(2),
            Err(StorageError::CorruptPage { page: 2, .. })
        ));
    }

    #[test]
    fn eviction_bounds_residency_without_changing_results() {
        let (pager, _dir) = pager_with_pages(64, 8);
        for round in 0..3 {
            for i in 0..64 {
                let page = pager.get(i).unwrap();
                assert_eq!(
                    page.payload(),
                    format!("page {i}").as_bytes(),
                    "round {round}"
                );
            }
        }
        assert!(pager.cache.read().unwrap().len() <= 9);
    }

    /// Minimal self-cleaning temp dir (no external crates in the offline
    /// build).
    mod tempdir {
        use std::path::{Path, PathBuf};
        use std::sync::atomic::{AtomicU64, Ordering};

        pub struct TempDir(PathBuf);

        impl TempDir {
            pub fn new() -> TempDir {
                static NEXT: AtomicU64 = AtomicU64::new(0);
                let path = std::env::temp_dir().join(format!(
                    "tspdb-pager-test-{}-{}",
                    std::process::id(),
                    NEXT.fetch_add(1, Ordering::Relaxed)
                ));
                std::fs::create_dir_all(&path).unwrap();
                TempDir(path)
            }

            pub fn path(&self) -> &Path {
                &self.0
            }
        }

        impl Drop for TempDir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }
}
