//! Byte-level encoding shared by pages and the write-ahead log.
//!
//! Same conventions as the wire protocol ([`tspdb_wire`]'s codec, kept
//! deliberately in sync by idiom, not by dependency): big-endian integers,
//! **floats as IEEE-754 bit patterns** (`f64::to_bits` / `from_bits`, so a
//! tuple read back from disk is bit-identical to the one written — the
//! determinism contract depends on this), length-prefixed UTF-8 strings.
//!
//! [`tspdb_wire`]: https://docs.rs/tspdb-wire

use crate::error::StorageError;
use tspdb_probdb::{ColumnSlice, ColumnType, Schema, Value};

/// Slicing-by-8 lookup tables of the reflected IEEE 802.3 polynomial,
/// built at compile time: `TABLES[0]` is the classic byte-at-a-time table,
/// `TABLES[k][b]` the CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) — the checksum of page images
/// and WAL records. Slicing-by-8: eight bytes per step through eight
/// compile-time tables, the (at most seven) trailing bytes one at a time.
/// Same function as the byte-at-a-time loop, so every checksum already on
/// disk still verifies.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][chunk[4] as usize]
            ^ t[2][chunk[5] as usize]
            ^ t[1][chunk[6] as usize]
            ^ t[0][chunk[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// The byte-at-a-time CRC-32 this crate shipped before slicing-by-8 —
/// kept as the reference the fast path is tested against.
#[cfg(test)]
pub(crate) fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// An append-only byte buffer with typed writers.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes verbatim.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends an `f64` as its bit pattern (bit-exact round trip).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(u32::try_from(s.len()).expect("string longer than u32::MAX"));
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends one cell value: a type tag then the payload.
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Int(i) => {
                self.put_u8(0);
                self.put_i64(*i);
            }
            Value::Float(f) => {
                self.put_u8(1);
                self.put_f64(*f);
            }
            Value::Text(s) => {
                self.put_u8(2);
                self.put_str(s);
            }
        }
    }

    /// Appends cell `i` of a column, encoded exactly like the
    /// [`Writer::put_value`] of that cell.
    pub fn put_cell(&mut self, column: ColumnSlice<'_>, i: usize) {
        match column {
            ColumnSlice::Int(v) => {
                self.put_u8(0);
                self.put_i64(v[i]);
            }
            ColumnSlice::Float(v) => {
                self.put_u8(1);
                self.put_f64(v[i]);
            }
            ColumnSlice::Text(v) => {
                self.put_u8(2);
                self.put_str(&v[i]);
            }
        }
    }

    /// Appends a schema: arity, then `(name, type tag)` per column.
    pub fn put_schema(&mut self, schema: &Schema) {
        self.put_u32(schema.arity() as u32);
        for c in 0..schema.arity() {
            let (name, ty) = schema.column(c);
            self.put_str(name);
            self.put_u8(type_tag(ty));
        }
    }
}

/// Column-type tag used on disk.
pub fn type_tag(ty: ColumnType) -> u8 {
    match ty {
        ColumnType::Int => 0,
        ColumnType::Float => 1,
        ColumnType::Text => 2,
    }
}

/// A cursor over encoded bytes with typed readers. Every under-run is a
/// corruption error — the caller supplies the offending page id for the
/// report.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    page: u64,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice; `page` labels corruption errors.
    pub fn new(buf: &'a [u8], page: u64) -> Self {
        Reader { buf, pos: 0, page }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Reads `n` raw bytes verbatim.
    pub fn take_raw(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        self.take(n)
    }

    fn corrupt<T>(&self, reason: impl Into<String>) -> Result<T, StorageError> {
        Err(StorageError::CorruptPage {
            page: self.page,
            reason: reason.into(),
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        if self.remaining() < n {
            return self.corrupt(format!("need {n} bytes, {} remain", self.remaining()));
        }
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, StorageError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, StorageError> {
        Ok(u32::from_be_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a big-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, StorageError> {
        Ok(u64::from_be_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a big-endian `i64`.
    pub fn take_i64(&mut self) -> Result<i64, StorageError> {
        Ok(i64::from_be_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, StorageError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, StorageError> {
        let len = self.take_u32()? as usize;
        if len > self.remaining() {
            return self.corrupt(format!("string announces {len} bytes"));
        }
        let bytes = self.take(len)?;
        match String::from_utf8(bytes.to_vec()) {
            Ok(s) => Ok(s),
            Err(_) => self.corrupt("string is not valid UTF-8"),
        }
    }

    /// Reads one cell value.
    pub fn take_value(&mut self) -> Result<Value, StorageError> {
        match self.take_u8()? {
            0 => Ok(Value::Int(self.take_i64()?)),
            1 => Ok(Value::Float(self.take_f64()?)),
            2 => Ok(Value::Text(self.take_str()?)),
            tag => self.corrupt(format!("unknown value tag {tag}")),
        }
    }

    /// Reads a schema written by [`Writer::put_schema`].
    pub fn take_schema(&mut self) -> Result<Schema, StorageError> {
        let arity = self.take_u32()? as usize;
        if arity > self.remaining() {
            return self.corrupt(format!("schema announces {arity} columns"));
        }
        let mut columns = Vec::with_capacity(arity);
        for _ in 0..arity {
            let name = self.take_str()?;
            let ty = match self.take_u8()? {
                0 => ColumnType::Int,
                1 => ColumnType::Float,
                2 => ColumnType::Text,
                tag => return self.corrupt(format!("unknown column type tag {tag}")),
            };
            columns.push((name, ty));
        }
        Ok(Schema::new(columns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// `len` pseudo-random bytes from `seed` (SplitMix64).
    fn noise(mut seed: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    proptest::proptest! {
        #[test]
        fn crc32_slicing_equals_the_bytewise_loop(seed in 0u64..u64::MAX, len in 0usize..4201) {
            // Random contents, every start alignment within a word.
            let buf = noise(seed, len + 8);
            for start in 0..8 {
                let data = &buf[start..start + len];
                proptest::prop_assert_eq!(crc32(data), crc32_bytewise(data));
            }
        }
    }

    #[test]
    fn crc32_slicing_equals_the_bytewise_loop_at_every_length_and_alignment() {
        // Exhaustive over the chunk/remainder split: every length 0..=4200
        // (a page image is 4096) at all eight start alignments.
        let buf = noise(7, 4208);
        for start in 0..8 {
            for len in 0..=4200 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn values_round_trip_bit_exactly() {
        let values = [
            Value::Int(i64::MIN),
            Value::Int(42),
            Value::Float(0.1 + 0.2), // not representable exactly — bits must survive
            Value::Float(f64::NEG_INFINITY),
            Value::Float(-0.0),
            Value::Text("héllo".into()),
            Value::Text(String::new()),
        ];
        let mut w = Writer::new();
        for v in &values {
            w.put_value(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, 0);
        for v in &values {
            let got = r.take_value().unwrap();
            match (v, &got) {
                (Value::Float(a), Value::Float(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                _ => assert_eq!(v, &got),
            }
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn schema_round_trips() {
        let schema = Schema::of(&[
            ("t", ColumnType::Int),
            ("r", ColumnType::Float),
            ("tag", ColumnType::Text),
        ]);
        let mut w = Writer::new();
        w.put_schema(&schema);
        let bytes = w.into_bytes();
        let got = Reader::new(&bytes, 0).take_schema().unwrap();
        assert_eq!(schema, got);
    }

    #[test]
    fn truncated_input_is_a_corruption_error() {
        let mut w = Writer::new();
        w.put_str("hello");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..bytes.len() - 1], 7);
        assert!(matches!(
            r.take_str(),
            Err(StorageError::CorruptPage { page: 7, .. })
        ));
    }
}
