//! Cursors over a relation's interior/leaf page chains.
//!
//! A relation on disk is an **interior chain** — pages whose payload is the
//! ordered list of leaf page ids — and the **leaf pages** those ids point
//! at, each holding `count` encoded tuples. [`PageCursor`] walks the
//! interior chain once up front and then hands out leaves in order;
//! [`BatchCursor`] decodes each of those leaves into one column batch.
//! Both read through the pager, so a warm scan never touches the disk.
//!
//! Cursors are generic over *how* they hold the pager: a borrowed
//! `&Pager` for short scans, or an owned `Arc<Pager>` when the cursor
//! must outlive the stack frame (the lazy [`crate::RelationStream`] the
//! query engine pulls batches through).

use crate::codec::Reader;
use crate::error::StorageError;
use crate::page::{Page, PageKind};
use crate::pager::Pager;
use std::borrow::Borrow;
use std::collections::VecDeque;
use std::sync::Arc;
use tspdb_probdb::{Batch, Column, Schema};

/// Iterates the leaf pages of one relation, in tuple order.
#[derive(Debug)]
pub struct PageCursor<P: Borrow<Pager>> {
    pager: P,
    leaves: VecDeque<u64>,
}

impl<P: Borrow<Pager>> PageCursor<P> {
    /// Walks the interior chain rooted at `root` (0 = empty relation) and
    /// prepares to iterate its leaves.
    pub fn new(pager: P, root: u64) -> Result<Self, StorageError> {
        let mut leaves = VecDeque::new();
        let mut id = root;
        while id != 0 {
            let page = pager.borrow().get(id)?;
            if page.kind() != PageKind::Interior {
                return Err(StorageError::CorruptPage {
                    page: id,
                    reason: format!("expected an interior page, found {:?}", page.kind()),
                });
            }
            let mut r = Reader::new(page.payload(), id);
            for _ in 0..page.count() {
                leaves.push_back(r.take_u64()?);
            }
            id = page.next();
        }
        Ok(PageCursor { pager, leaves })
    }

    /// Number of leaves not yet returned.
    pub fn remaining_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// The next leaf page, or `None` when the relation is exhausted.
    pub fn next_leaf(&mut self) -> Result<Option<(u64, Arc<Page>)>, StorageError> {
        let Some(id) = self.leaves.pop_front() else {
            return Ok(None);
        };
        let page = self.pager.borrow().get(id)?;
        if page.kind() != PageKind::Leaf {
            return Err(StorageError::CorruptPage {
                page: id,
                reason: format!("expected a leaf page, found {:?}", page.kind()),
            });
        }
        Ok(Some((id, page)))
    }
}

/// Streams the tuples of one relation a leaf at a time: every
/// [`BatchCursor::next_batch`] decodes one 4 KiB leaf **straight into
/// column vectors** (plus the probability vector for probabilistic
/// relations) and lends them out as a [`Batch`]. The buffers are reused
/// from leaf to leaf, so a scan allocates per relation, not per tuple.
#[derive(Debug)]
pub struct BatchCursor<P: Borrow<Pager>> {
    pages: PageCursor<P>,
    schema: Schema,
    probabilistic: bool,
    columns: Vec<Column>,
    probs: Vec<f64>,
    /// Tuples handed out so far — the global index of the next batch.
    seen: usize,
}

impl<P: Borrow<Pager>> BatchCursor<P> {
    /// A batch cursor over the relation rooted at `root`.
    pub fn new(
        pager: P,
        root: u64,
        schema: Schema,
        probabilistic: bool,
    ) -> Result<Self, StorageError> {
        Ok(BatchCursor {
            pages: PageCursor::new(pager, root)?,
            columns: Column::for_schema(&schema, 0),
            schema,
            probabilistic,
            probs: Vec::new(),
            seen: 0,
        })
    }

    /// Tuples handed out so far.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Number of leaves not yet decoded.
    pub fn remaining_leaves(&self) -> usize {
        self.pages.remaining_leaves()
    }

    /// Decodes the next leaf, or `None` at end of relation.
    pub fn next_batch(&mut self) -> Result<Option<Batch<'_>>, StorageError> {
        let Some((id, page)) = self.pages.next_leaf()? else {
            return Ok(None);
        };
        for column in &mut self.columns {
            column.clear();
        }
        self.probs.clear();
        let mut r = Reader::new(page.payload(), id);
        for _ in 0..page.count() {
            if self.probabilistic {
                self.probs.push(r.take_f64()?);
            }
            for column in &mut self.columns {
                let tag = r.take_u8()?;
                let pushed = match tag {
                    0 => column.push_int(r.take_i64()?),
                    1 => column.push_float(r.take_f64()?),
                    2 => column.push_text(r.take_str()?),
                    _ => false,
                };
                if !pushed {
                    return Err(StorageError::CorruptPage {
                        page: id,
                        reason: format!("value tag {tag} in a {} column", column.column_type()),
                    });
                }
            }
        }
        let offset = self.seen;
        self.seen += page.count() as usize;
        let probs = self.probabilistic.then_some(self.probs.as_slice());
        Ok(Some(Batch::new(&self.schema, &self.columns, probs, offset)))
    }
}
