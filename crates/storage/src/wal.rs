//! The write-ahead log: checksummed, sequence-numbered redo records with
//! fsync-on-commit, plus the fault-injection crash points the recovery
//! tests drive.
//!
//! ## Record layout
//!
//! The file opens with a 12-byte header (`"TSPDB-WAL"` padded magic +
//! format version), then zero or more records:
//!
//! ```text
//! [len: u32][crc: u32][payload: len bytes]     payload = [seq: u64][op]
//! ```
//!
//! `crc` is the CRC-32 of the payload. A record is **committed** iff it is
//! completely on disk with a valid checksum; the commit point is the
//! `fsync` after the record is written. Replay reads records until EOF or
//! the first damaged record — a torn tail from a crash mid-write — and
//! discards everything from the damage on, which is exactly the
//! uncommitted suffix.
//!
//! ## Sequence numbers and checkpoints
//!
//! Every record carries a monotonically increasing sequence number that
//! survives log resets. A checkpoint stores the sequence of the last
//! operation it includes in the database file's meta page; replay skips
//! records at or below that floor. This makes the
//! crash-between-checkpoint-rename-and-log-reset window safe: the stale
//! records are still in the log, but their sequence numbers identify them
//! as already applied.

use crate::codec::crc32;
use crate::error::StorageError;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write as _};
use std::path::Path;
use tspdb_probdb::codec::{
    decode_batch, decode_schema, encode_batch, encode_schema, DecodeError, Decoder, Encoder,
};
use tspdb_probdb::{Column, Schema};

/// WAL file magic (9 bytes of name + 3 of padding → 12-byte header with
/// the version).
const WAL_MAGIC: &[u8; 8] = b"TSPDBWAL";

/// WAL format version (v2: table loads and appends carry their rows as one
/// column-major batch; v1 logs are refused, not read).
const WAL_VERSION: u32 = 2;

/// Header length: magic + version.
const WAL_HEADER_LEN: u64 = 12;

/// One journaled write operation — the redo unit of recovery.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalOp {
    /// A mutating SQL statement, journaled as its original source text.
    /// Replaying the text through the engine's write path is deterministic
    /// (witnessed end-to-end by the fingerprint differentials), so the
    /// statement itself is the redo record.
    Sql(String),
    /// A programmatic table load (`SharedEngine::load_series`): the
    /// finished table, since no SQL text exists for it.
    LoadTable {
        /// Table name.
        name: String,
        /// Column layout.
        schema: Schema,
        /// The rows, one column per schema column.
        columns: Vec<Column>,
    },
    /// A batched append from the streaming ingest path: rows landing on an
    /// existing deterministic table, whose schema is already on disk or in
    /// the catalog, so only the values travel. Derived Ω-views are not
    /// journaled: replay re-derives them from these rows.
    AppendRows {
        /// Target table.
        table: String,
        /// The appended rows, already checked against the table's schema,
        /// one column per schema column.
        columns: Vec<Column>,
    },
}

impl JournalOp {
    /// Encodes the operation payload (without the sequence number). Rows
    /// travel as one [`encode_batch`] batch.
    fn encode(&self, enc: &mut Encoder) {
        let columns = match self {
            JournalOp::Sql(sql) => {
                enc.put_u8(1);
                enc.put_str(sql);
                return;
            }
            JournalOp::LoadTable {
                name,
                schema,
                columns,
            } => {
                enc.put_u8(2);
                enc.put_str(name);
                encode_schema(enc, schema);
                columns
            }
            JournalOp::AppendRows { table, columns } => {
                enc.put_u8(3);
                enc.put_str(table);
                columns
            }
        };
        let slices: Vec<_> = columns.iter().map(Column::values).collect();
        encode_batch(enc, &slices, None);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<JournalOp, DecodeError> {
        match dec.take_u8()? {
            1 => Ok(JournalOp::Sql(dec.take_str()?)),
            2 => {
                let name = dec.take_str()?;
                let schema = decode_schema(dec)?;
                let mut columns = Column::for_schema(&schema, 0);
                decode_batch(dec, &mut columns, None)?;
                Ok(JournalOp::LoadTable {
                    name,
                    schema,
                    columns,
                })
            }
            3 => {
                let table = dec.take_str()?;
                let mut columns = Vec::new();
                decode_batch(dec, &mut columns, None)?;
                Ok(JournalOp::AppendRows { table, columns })
            }
            tag => Err(DecodeError(format!("unknown journal op tag {tag}"))),
        }
    }
}

/// Decodes one checksummed record payload: its sequence number, then the
/// operation, with nothing left over.
fn decode_record(payload: &[u8]) -> Result<(u64, JournalOp), DecodeError> {
    let mut dec = Decoder::new(payload);
    let record = (dec.take_u64()?, JournalOp::decode(&mut dec)?);
    dec.finish()?;
    Ok(record)
}

/// Where the fault-injection harness kills the write path. Each point
/// models one real crash window; after firing, the `Wal` is poisoned and
/// every later write fails with `StorageError::Poisoned` — the process
/// is "dead" as far as the storage layer is concerned, and the test
/// re-opens the directory to recover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Dies before any record byte reaches the log: the write is lost
    /// entirely and recovery must yield the prior committed prefix.
    PreCommit,
    /// Dies halfway through the record: a torn tail that replay must
    /// detect (checksum/length) and discard.
    MidRecord,
    /// Dies after the record is committed (written + fsynced) but before
    /// the in-memory apply / any checkpoint: replay must redo it.
    PostCommit,
}

/// Result of replaying a WAL at open.
#[derive(Debug)]
pub(crate) struct WalReplay {
    /// Committed operations with sequence numbers above the checkpoint
    /// floor, in commit order.
    pub ops: Vec<(u64, JournalOp)>,
    /// Highest sequence number seen in the log (0 when empty).
    pub last_seq: u64,
    /// Records skipped as already covered by the checkpoint.
    pub skipped: usize,
    /// Whether a torn/damaged tail was truncated away.
    pub truncated_tail: bool,
}

/// The write-ahead log of one database directory.
#[derive(Debug)]
pub(crate) struct Wal {
    file: File,
    /// Whether commits fsync (`true` everywhere except throwaway tests).
    fsync: bool,
    /// Commit fsyncs issued by the append paths — the observable that
    /// pins group commit down in tests: a batch of N operations through
    /// [`Wal::append_batch`] moves this by 1, not N.
    fsyncs: u64,
    crash_point: Option<CrashPoint>,
    poisoned: bool,
}

impl Wal {
    /// Opens (or creates) the log at `path` and replays it: committed
    /// records with sequence numbers above `floor` come back as redo
    /// operations; a torn tail is truncated so later appends start from a
    /// clean end of file.
    pub(crate) fn open(
        path: &Path,
        floor: u64,
        fsync: bool,
    ) -> Result<(Wal, WalReplay), StorageError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
            header.extend_from_slice(WAL_MAGIC);
            header.extend_from_slice(&WAL_VERSION.to_be_bytes());
            file.write_all(&header)?;
            file.sync_data()?;
        } else {
            let mut header = [0u8; WAL_HEADER_LEN as usize];
            file.seek(SeekFrom::Start(0))?;
            file.read_exact(&mut header)?;
            if &header[..8] != WAL_MAGIC {
                return Err(StorageError::BadDatabase("WAL magic mismatch".into()));
            }
            let version = u32::from_be_bytes(header[8..12].try_into().expect("4 bytes"));
            if version != WAL_VERSION {
                return Err(StorageError::BadDatabase(format!(
                    "WAL format v{version}, this build reads v{WAL_VERSION}"
                )));
            }
        }

        // Replay: committed prefix only.
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(WAL_HEADER_LEN))?;
        file.read_to_end(&mut bytes)?;
        let mut ops = Vec::new();
        let mut last_seq = 0u64;
        let mut skipped = 0usize;
        let mut pos = 0usize;
        let mut good_end = WAL_HEADER_LEN;
        let mut truncated_tail = false;
        while bytes.len() - pos >= 8 {
            let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            let crc = u32::from_be_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
            if len < 8 || bytes.len() - pos - 8 < len {
                truncated_tail = true;
                break;
            }
            let payload = &bytes[pos + 8..pos + 8 + len];
            if crc32(payload) != crc {
                truncated_tail = true;
                break;
            }
            let (seq, op) = decode_record(payload).map_err(StorageError::corrupt(0))?;
            last_seq = last_seq.max(seq);
            if seq > floor {
                ops.push((seq, op));
            } else {
                skipped += 1;
            }
            pos += 8 + len;
            good_end = WAL_HEADER_LEN + pos as u64;
        }
        truncated_tail |= bytes.len() > pos;
        if truncated_tail {
            // Drop the uncommitted suffix so the next append extends the
            // committed prefix instead of burying garbage mid-log.
            file.set_len(good_end)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(good_end))?;

        Ok((
            Wal {
                file,
                fsync,
                fsyncs: 0,
                crash_point: None,
                poisoned: false,
            },
            WalReplay {
                ops,
                last_seq,
                skipped,
                truncated_tail,
            },
        ))
    }

    /// Arms a fault-injection crash point for the **next** append.
    pub(crate) fn set_crash_point(&mut self, point: Option<CrashPoint>) {
        self.crash_point = point;
    }

    /// Encodes one sequence-stamped record (length + checksum + payload).
    fn encode_record(seq: u64, op: &JournalOp) -> Vec<u8> {
        let mut payload = Encoder::new();
        payload.put_u64(seq);
        op.encode(&mut payload);
        let payload = payload.into_bytes();
        let mut record = Vec::with_capacity(8 + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        record.extend_from_slice(&crc32(&payload).to_be_bytes());
        record.extend_from_slice(&payload);
        record
    }

    /// Appends and commits one operation. On success the record is
    /// durable: written in full, checksummed, fsynced.
    pub(crate) fn append(&mut self, seq: u64, op: &JournalOp) -> Result<(), StorageError> {
        self.commit(Self::encode_record(seq, op))
    }

    /// Group commit: appends `ops` as consecutive records starting at
    /// `start_seq` and commits them with **one** fsync for the whole
    /// batch, instead of one per operation. Durability is all-or-tail:
    /// after a crash, replay recovers a prefix of the batch (the torn
    /// suffix is truncated), exactly as if the lost operations had never
    /// been submitted — which is the contract every caller of a streaming
    /// append already lives with.
    pub(crate) fn append_batch(
        &mut self,
        start_seq: u64,
        ops: &[JournalOp],
    ) -> Result<(), StorageError> {
        if ops.is_empty() {
            return Ok(());
        }
        let mut batch = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            batch.extend_from_slice(&Self::encode_record(start_seq + i as u64, op));
        }
        self.commit(batch)
    }

    /// Writes pre-encoded record bytes and commits them with one fsync,
    /// honouring an armed crash point (the torn-write point tears the
    /// buffer in half, wherever the record boundaries fall).
    fn commit(&mut self, bytes: Vec<u8>) -> Result<(), StorageError> {
        if self.poisoned {
            return Err(StorageError::Poisoned);
        }
        match self.crash_point.take() {
            Some(CrashPoint::PreCommit) => {
                self.poisoned = true;
                return Err(StorageError::InjectedCrash("pre-commit"));
            }
            Some(CrashPoint::MidRecord) => {
                // Half the buffer reaches the disk — a torn write.
                self.file.write_all(&bytes[..bytes.len() / 2])?;
                self.file.sync_data()?;
                self.poisoned = true;
                return Err(StorageError::InjectedCrash("mid-record"));
            }
            Some(CrashPoint::PostCommit) => {
                self.file.write_all(&bytes)?;
                self.file.sync_data()?;
                self.poisoned = true;
                return Err(StorageError::InjectedCrash("post-commit"));
            }
            None => {}
        }

        self.file.write_all(&bytes)?;
        if self.fsync {
            self.file.sync_data()?;
            self.fsyncs += 1;
        }
        Ok(())
    }

    /// Commit fsyncs issued so far by the append paths.
    pub(crate) fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Truncates the log back to its header (after a checkpoint has made
    /// its contents redundant).
    pub(crate) fn reset(&mut self) -> Result<(), StorageError> {
        if self.poisoned {
            return Err(StorageError::Poisoned);
        }
        self.file.set_len(WAL_HEADER_LEN)?;
        self.file.seek(SeekFrom::Start(WAL_HEADER_LEN))?;
        if self.fsync {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Bytes of record data currently in the log (header excluded).
    pub(crate) fn len_bytes(&self) -> Result<u64, StorageError> {
        Ok(self.file.metadata()?.len().saturating_sub(WAL_HEADER_LEN))
    }

    /// Whether an injected crash has poisoned this handle.
    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Poisons the handle from outside — used by the checkpoint crash
    /// points, which simulate dying *between* WAL operations: after one
    /// fires, both logging and reset must refuse, exactly as if the
    /// process were gone.
    pub(crate) fn poison(&mut self) {
        self.poisoned = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_wal_path() -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "tspdb-wal-test-{}-{}.wal",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sql(n: u64) -> JournalOp {
        JournalOp::Sql(format!("INSERT INTO t VALUES ({n})"))
    }

    #[test]
    fn append_replay_round_trip() {
        let path = temp_wal_path();
        {
            let (mut wal, replay) = Wal::open(&path, 0, true).unwrap();
            assert!(replay.ops.is_empty());
            for seq in 1..=5 {
                wal.append(seq, &sql(seq)).unwrap();
            }
        }
        let (_, replay) = Wal::open(&path, 0, true).unwrap();
        assert_eq!(replay.ops.len(), 5);
        assert_eq!(replay.last_seq, 5);
        assert!(!replay.truncated_tail);
        assert_eq!(replay.ops[2].1, sql(3));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn floor_skips_checkpointed_records() {
        let path = temp_wal_path();
        {
            let (mut wal, _) = Wal::open(&path, 0, true).unwrap();
            for seq in 1..=6 {
                wal.append(seq, &sql(seq)).unwrap();
            }
        }
        let (_, replay) = Wal::open(&path, 4, true).unwrap();
        assert_eq!(replay.skipped, 4);
        assert_eq!(
            replay.ops.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![5, 6]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_to_the_committed_prefix() {
        let path = temp_wal_path();
        {
            let (mut wal, _) = Wal::open(&path, 0, true).unwrap();
            wal.append(1, &sql(1)).unwrap();
            wal.append(2, &sql(2)).unwrap();
            wal.set_crash_point(Some(CrashPoint::MidRecord));
            assert!(matches!(
                wal.append(3, &sql(3)),
                Err(StorageError::InjectedCrash("mid-record"))
            ));
            assert!(matches!(
                wal.append(4, &sql(4)),
                Err(StorageError::Poisoned)
            ));
        }
        let (mut wal, replay) = Wal::open(&path, 0, true).unwrap();
        assert!(replay.truncated_tail);
        assert_eq!(replay.ops.len(), 2);
        assert_eq!(replay.last_seq, 2);
        // The log is clean again: appends after recovery replay normally.
        wal.append(3, &sql(3)).unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path, 0, true).unwrap();
        assert_eq!(replay.ops.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pre_and_post_commit_crash_points() {
        let path = temp_wal_path();
        {
            let (mut wal, _) = Wal::open(&path, 0, true).unwrap();
            wal.set_crash_point(Some(CrashPoint::PreCommit));
            assert!(wal.append(1, &sql(1)).is_err());
        }
        let (_, replay) = Wal::open(&path, 0, true).unwrap();
        assert!(replay.ops.is_empty(), "pre-commit writes are lost");

        {
            let (mut wal, _) = Wal::open(&path, 0, true).unwrap();
            wal.set_crash_point(Some(CrashPoint::PostCommit));
            assert!(wal.append(1, &sql(1)).is_err());
        }
        let (_, replay) = Wal::open(&path, 0, true).unwrap();
        assert_eq!(replay.ops.len(), 1, "post-commit writes are durable");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_v1_log_is_refused_by_version() {
        let path = temp_wal_path();
        let mut header = WAL_MAGIC.to_vec();
        header.extend_from_slice(&1u32.to_be_bytes());
        std::fs::write(&path, header).unwrap();
        let err = Wal::open(&path, 0, true).unwrap_err();
        assert!(
            matches!(&err, StorageError::BadDatabase(msg) if msg.contains("WAL format v1")),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_is_one_fsync_per_batch() {
        let path = temp_wal_path();
        let (mut wal, _) = Wal::open(&path, 0, true).unwrap();
        let ops: Vec<JournalOp> = (1..=64).map(sql).collect();
        wal.append_batch(1, &ops).unwrap();
        assert_eq!(wal.fsyncs(), 1, "64 batched ops must cost one fsync");
        for (i, op) in ops.iter().enumerate() {
            wal.append(65 + i as u64, op).unwrap();
        }
        assert_eq!(wal.fsyncs(), 65, "unbatched ops cost one fsync each");
        drop(wal);
        // Both spellings leave identical, fully-committed records behind.
        let (_, replay) = Wal::open(&path, 0, true).unwrap();
        assert_eq!(replay.ops.len(), 128);
        assert_eq!(replay.last_seq, 128);
        assert!(!replay.truncated_tail);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_batch_recovers_a_prefix() {
        let path = temp_wal_path();
        {
            let (mut wal, _) = Wal::open(&path, 0, true).unwrap();
            wal.append_batch(1, &(1..=4).map(sql).collect::<Vec<_>>())
                .unwrap();
            wal.set_crash_point(Some(CrashPoint::MidRecord));
            assert!(wal
                .append_batch(5, &(5..=8).map(sql).collect::<Vec<_>>())
                .is_err());
        }
        let (_, replay) = Wal::open(&path, 0, true).unwrap();
        // The first batch is intact; the torn one recovers some strict
        // prefix (possibly empty — and when the tear happens to land on a
        // record boundary there is no tail to truncate, just fewer
        // records).
        assert!(replay.ops.len() >= 4 && replay.ops.len() < 8);
        assert_eq!(replay.ops[3].1, sql(4));
        for (i, (seq, op)) in replay.ops.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1);
            assert_eq!(*op, sql(*seq));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reset_empties_the_log() {
        let path = temp_wal_path();
        {
            let (mut wal, _) = Wal::open(&path, 0, true).unwrap();
            wal.append(1, &sql(1)).unwrap();
            assert!(wal.len_bytes().unwrap() > 0);
            wal.reset().unwrap();
            assert_eq!(wal.len_bytes().unwrap(), 0);
            wal.append(2, &sql(2)).unwrap();
        }
        let (_, replay) = Wal::open(&path, 0, true).unwrap();
        assert_eq!(
            replay.ops.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![2]
        );
        std::fs::remove_file(&path).unwrap();
    }
}
