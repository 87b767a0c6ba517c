//! Fixed-size pages with typed headers.
//!
//! Every page is [`PAGE_SIZE`] bytes: a 24-byte header followed by the
//! payload. The header carries the page *kind*, a CRC-32 of the whole
//! image (checksum field zeroed during computation), the id of the next
//! page in this page's chain (`0` = end of chain — page 0 is always the
//! meta page, so the id is free to act as the null sentinel), an entry
//! count and the number of payload bytes in use:
//!
//! ```text
//! offset  size  field
//!      0     1  kind        (1=Meta, 2=Catalog, 3=Interior, 4=Leaf)
//!      1     3  reserved    (zero)
//!      4     4  checksum    CRC-32 of the page image, this field as zero
//!      8     8  next        page id of the chain successor, 0 = none
//!     16     4  count       entries in the payload
//!     20     4  used        payload bytes in use
//!     24  4072  payload
//! ```

use crate::codec::crc32;
use crate::error::StorageError;

/// Size of every page, header included.
pub const PAGE_SIZE: usize = 4096;

/// Bytes of header before the payload.
pub(crate) const HEADER_LEN: usize = 24;

/// Payload capacity of one page.
pub(crate) const PAYLOAD_LEN: usize = PAGE_SIZE - HEADER_LEN;

/// Typed page kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PageKind {
    /// Page 0: database magic, version, page count, catalog root.
    Meta,
    /// Catalog directory: one entry per stored relation.
    Catalog,
    /// Interior node of a relation: the ordered list of its leaf page ids.
    Interior,
    /// Leaf node: encoded tuples.
    Leaf,
}

impl PageKind {
    fn tag(self) -> u8 {
        match self {
            PageKind::Meta => 1,
            PageKind::Catalog => 2,
            PageKind::Interior => 3,
            PageKind::Leaf => 4,
        }
    }

    fn from_tag(tag: u8) -> Option<PageKind> {
        match tag {
            1 => Some(PageKind::Meta),
            2 => Some(PageKind::Catalog),
            3 => Some(PageKind::Interior),
            4 => Some(PageKind::Leaf),
            _ => None,
        }
    }
}

/// One fixed-size page image.
#[derive(Debug, Clone)]
pub(crate) struct Page {
    buf: Box<[u8; PAGE_SIZE]>,
}

impl Page {
    /// A zeroed page of the given kind.
    pub(crate) fn new(kind: PageKind) -> Self {
        let mut page = Page { buf: blank_image() };
        page.buf[0] = kind.tag();
        page
    }

    /// Adopts an image read from disk as a page, verifying its checksum and
    /// kind tag where it lies — the bytes are never copied. `id` labels
    /// corruption errors.
    pub(crate) fn verified(id: u64, mut buf: Box<[u8; PAGE_SIZE]>) -> Result<Page, StorageError> {
        let stored = u32::from_be_bytes(buf[4..8].try_into().expect("4 bytes"));
        buf[4..8].fill(0);
        let computed = crc32(&buf[..]);
        if stored != computed {
            return Err(StorageError::CorruptPage {
                page: id,
                reason: format!("checksum {stored:#010x} != computed {computed:#010x}"),
            });
        }
        buf[4..8].copy_from_slice(&stored.to_be_bytes());
        let page = Page { buf };
        if PageKind::from_tag(page.buf[0]).is_none() {
            return Err(StorageError::CorruptPage {
                page: id,
                reason: format!("unknown page kind {}", page.buf[0]),
            });
        }
        Ok(page)
    }

    /// The page kind.
    pub(crate) fn kind(&self) -> PageKind {
        PageKind::from_tag(self.buf[0]).expect("kind validated at construction")
    }

    /// Id of the next page in this chain (`0` = end).
    pub(crate) fn next(&self) -> u64 {
        u64::from_be_bytes(self.buf[8..16].try_into().expect("8 bytes"))
    }

    /// Sets the chain successor.
    pub(crate) fn set_next(&mut self, next: u64) {
        self.buf[8..16].copy_from_slice(&next.to_be_bytes());
    }

    /// Number of entries in the payload.
    pub(crate) fn count(&self) -> u32 {
        u32::from_be_bytes(self.buf[16..20].try_into().expect("4 bytes"))
    }

    /// Sets the entry count.
    pub(crate) fn set_count(&mut self, count: u32) {
        self.buf[16..20].copy_from_slice(&count.to_be_bytes());
    }

    /// Payload bytes in use.
    pub(crate) fn used(&self) -> usize {
        u32::from_be_bytes(self.buf[20..24].try_into().expect("4 bytes")) as usize
    }

    /// The in-use payload slice.
    pub(crate) fn payload(&self) -> &[u8] {
        &self.buf[HEADER_LEN..HEADER_LEN + self.used().min(PAYLOAD_LEN)]
    }

    /// Replaces the payload (must fit [`PAYLOAD_LEN`]) and records its
    /// length.
    pub(crate) fn set_payload(&mut self, payload: &[u8]) {
        assert!(
            payload.len() <= PAYLOAD_LEN,
            "payload exceeds page capacity"
        );
        self.buf[HEADER_LEN..HEADER_LEN + payload.len()].copy_from_slice(payload);
        self.buf[HEADER_LEN + payload.len()..].fill(0);
        self.buf[20..24].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    }

    /// Seals the page for writing: computes and stores the checksum, then
    /// returns the full image.
    pub(crate) fn sealed_image(&mut self) -> &[u8; PAGE_SIZE] {
        self.buf[4..8].fill(0);
        let crc = crc32(&self.buf[..]);
        self.buf[4..8].copy_from_slice(&crc.to_be_bytes());
        &self.buf
    }
}

/// A zeroed page-sized buffer, allocated on the heap directly (never
/// built on the stack and copied).
pub(crate) fn blank_image() -> Box<[u8; PAGE_SIZE]> {
    vec![0u8; PAGE_SIZE]
        .into_boxed_slice()
        .try_into()
        .expect("PAGE_SIZE")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_and_reload_round_trips() {
        let mut page = Page::new(PageKind::Leaf);
        page.set_next(17);
        page.set_count(3);
        page.set_payload(b"abc def ghi");
        let got = Page::verified(5, Box::new(*page.sealed_image())).unwrap();
        assert_eq!(got.kind(), PageKind::Leaf);
        assert_eq!(got.next(), 17);
        assert_eq!(got.count(), 3);
        assert_eq!(got.payload(), b"abc def ghi");
    }

    #[test]
    fn bit_flip_is_detected() {
        let mut page = Page::new(PageKind::Leaf);
        page.set_next(3);
        page.set_count(2);
        page.set_payload(&(0..PAYLOAD_LEN).map(|i| (i * 7) as u8).collect::<Vec<_>>());
        let sealed = *page.sealed_image();
        // Header (kind, checksum, next, count, used), payload, the last
        // byte, and a stride over everything between, each bit in turn.
        let offsets = [
            0,
            4,
            7,
            8,
            16,
            20,
            HEADER_LEN,
            HEADER_LEN + 2,
            PAGE_SIZE - 1,
        ];
        for offset in offsets.into_iter().chain((0..PAGE_SIZE).step_by(61)) {
            for bit in 0..8 {
                let mut image = Box::new(sealed);
                image[offset] ^= 1 << bit;
                assert!(
                    matches!(
                        Page::verified(9, image),
                        Err(StorageError::CorruptPage { page: 9, .. })
                    ),
                    "flip of bit {bit} at byte {offset} went unnoticed"
                );
            }
        }
        assert!(Page::verified(9, Box::new(sealed)).is_ok());
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut page = Page::new(PageKind::Leaf);
        page.buf[0] = 99; // corrupt the kind, then re-seal so the CRC passes
        let image = Box::new(*page.sealed_image());
        assert!(matches!(
            Page::verified(1, image),
            Err(StorageError::CorruptPage { .. })
        ));
    }

    #[test]
    fn oversized_payload_panics() {
        let mut page = Page::new(PageKind::Leaf);
        let too_big = vec![0u8; PAYLOAD_LEN + 1];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            page.set_payload(&too_big);
        }));
        assert!(result.is_err());
    }
}
