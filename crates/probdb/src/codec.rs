//! The one byte codec of the workspace: the encoder/decoder pair the wire
//! frames, the leaf pages and the write-ahead log are all written with.
//!
//! * **fixed-width scalars, big-endian** — no varints, so offsets are
//!   predictable and the encoder never branches on magnitude;
//! * **floats as IEEE-754 bit patterns** — `f64::to_bits`/`from_bits`
//!   round-trips every value including NaN payloads, so a tuple read back
//!   from a frame, a page or a log record is bit-identical to the one
//!   written, which the determinism contract requires;
//! * **length-prefixed strings and sequences** (`u32`) with the input's
//!   length as the outer bound, so a malformed prefix can never allocate
//!   more than the input's worth of memory;
//! * **decode validates** — a schema that repeats a column is a
//!   [`DecodeError`], never the panic [`Schema::new`] raises locally.
//!
//! [`Encoder`] and [`Decoder`] carry the scalars; the free `encode_*` /
//! `decode_*` pairs the substrate's types: column types, cells, schemas,
//! and the one tuple encoding, [`encode_batch`] / [`decode_batch`] — a run
//! of rows column by column, each column a type tag then its packed
//! values, then the probabilities. A batch is the body of every leaf page
//! and of the log's table-load and append records.

use crate::column::{Column, ColumnSlice};
use crate::schema::Schema;
use crate::value::{ColumnType, Value};
use std::fmt;

/// Bytes that do not decode as what the caller expected. Each consumer
/// wraps it in its own typed error (a malformed wire frame, a corrupt page).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Shorthand for a decode error.
fn invalid<T>(msg: impl Into<String>) -> Result<T, DecodeError> {
    Err(DecodeError(msg.into()))
}

/// An append-only byte buffer values encode into.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends raw bytes verbatim (magics, pre-encoded records).
    #[inline]
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `i64`.
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (bit-exact, NaN
    /// payloads included).
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a `usize` as a `u64` (lossless on every supported target).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a length-prefixed UTF-8 string.
    #[inline]
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(u32::try_from(s.len()).expect("string longer than u32::MAX"));
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// A cursor over encoded bytes.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Wraps encoded bytes.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless the input was consumed exactly — trailing bytes are a
    /// malformed encoding, not padding.
    pub fn finish(&self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            n => invalid(format!("{n} trailing bytes after message")),
        }
    }

    /// Reads raw bytes verbatim.
    #[inline]
    pub fn take_raw(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return invalid(format!("need {n} bytes, {} remain", self.remaining()));
        }
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take_raw(N)?.try_into().expect("N bytes"))
    }

    /// Reads one byte.
    #[inline]
    pub fn take_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take_raw(1)?[0])
    }

    /// Reads a big-endian `u32`.
    #[inline]
    pub fn take_u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.take_array()?))
    }

    /// Reads a big-endian `u64`.
    #[inline]
    pub fn take_u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.take_array()?))
    }

    /// Reads a big-endian `i64`.
    #[inline]
    pub fn take_i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_be_bytes(self.take_array()?))
    }

    /// Reads an `f64` from its bit pattern.
    #[inline]
    pub fn take_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a bool byte (`0` or `1`; anything else is malformed).
    pub fn take_bool(&mut self) -> Result<bool, DecodeError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => invalid(format!("bool byte must be 0 or 1, got {other}")),
        }
    }

    /// Reads a `usize` encoded as `u64`.
    pub fn take_usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.take_u64()?)
            .or_else(|_| invalid("length does not fit in usize on this target"))
    }

    /// Reads a length-prefixed UTF-8 string.
    #[inline]
    pub fn take_str(&mut self) -> Result<String, DecodeError> {
        let len = self.take_u32()? as usize;
        let bytes = self.take_raw(len)?;
        String::from_utf8(bytes.to_vec()).or_else(|_| invalid("string is not valid UTF-8"))
    }

    /// Reads a `u32` sequence-length prefix, bounded by the bytes actually
    /// remaining (each element occupies at least one byte, so a longer
    /// announcement is necessarily malformed).
    pub fn take_seq_len(&mut self) -> Result<usize, DecodeError> {
        let len = self.take_u32()? as usize;
        if len > self.remaining() {
            return invalid(format!(
                "sequence announces {len} elements but only {} bytes remain",
                self.remaining()
            ));
        }
        Ok(len)
    }
}

/// Pre-allocation cap for decoded sequences. [`Decoder::take_seq_len`]
/// bounds the *count* by the input, but `count × size_of::<T>()` is what
/// `Vec::with_capacity` actually reserves — a hostile prefix claiming
/// millions of multi-hundred-byte elements would allocate gigabytes
/// before the first element decode could fail. Capping the initial
/// reservation keeps the input-sized memory bound; honest large sequences
/// just grow amortized past it.
pub const SEQ_PREALLOC_CAP: usize = 4096;

/// A `Vec` sized for `len` decoded elements without trusting `len` with
/// more than a few thousand up-front slots.
pub fn seq_buffer<T>(len: usize) -> Vec<T> {
    Vec::with_capacity(len.min(SEQ_PREALLOC_CAP))
}

/// Appends a column type as its one-byte tag.
#[inline]
pub fn encode_column_type(enc: &mut Encoder, ty: ColumnType) {
    enc.put_u8(match ty {
        ColumnType::Int => 0,
        ColumnType::Float => 1,
        ColumnType::Text => 2,
    });
}

/// Reads a tag written by [`encode_column_type`].
#[inline]
pub fn decode_column_type(dec: &mut Decoder<'_>) -> Result<ColumnType, DecodeError> {
    match dec.take_u8()? {
        0 => Ok(ColumnType::Int),
        1 => Ok(ColumnType::Float),
        2 => Ok(ColumnType::Text),
        other => invalid(format!("unknown column type tag {other}")),
    }
}

/// Appends one cell: its type tag, then the payload.
#[inline]
pub fn encode_value(enc: &mut Encoder, v: &Value) {
    encode_column_type(enc, v.column_type());
    match v {
        Value::Int(i) => enc.put_i64(*i),
        Value::Float(f) => enc.put_f64(*f),
        Value::Text(s) => enc.put_str(s),
    }
}

/// Reads one cell written by [`encode_value`].
#[inline]
pub fn decode_value(dec: &mut Decoder<'_>) -> Result<Value, DecodeError> {
    Ok(match decode_column_type(dec)? {
        ColumnType::Int => Value::Int(dec.take_i64()?),
        ColumnType::Float => Value::Float(dec.take_f64()?),
        ColumnType::Text => Value::Text(dec.take_str()?),
    })
}

/// Appends a schema: arity, then `(name, type tag)` per column.
pub fn encode_schema(enc: &mut Encoder, schema: &Schema) {
    enc.put_u32(u32::try_from(schema.arity()).expect("schema wider than u32::MAX"));
    for c in 0..schema.arity() {
        let (name, ty) = schema.column(c);
        enc.put_str(name);
        encode_column_type(enc, ty);
    }
}

/// Reads a schema written by [`encode_schema`]. A repeated column name is
/// malformed input here, not the programming error [`Schema::new`]
/// panics on.
pub fn decode_schema(dec: &mut Decoder<'_>) -> Result<Schema, DecodeError> {
    let len = dec.take_seq_len()?;
    let mut columns: Vec<(String, ColumnType)> = seq_buffer(len);
    for _ in 0..len {
        let name = dec.take_str()?;
        let ty = decode_column_type(dec)?;
        if columns.iter().any(|(n, _)| *n == name) {
            return invalid(format!("schema repeats column {name}"));
        }
        columns.push((name, ty));
    }
    Ok(Schema::new(columns))
}

/// Bytes [`encode_batch`] writes before the first column.
pub const BATCH_HEADER_LEN: usize = 8;

/// Bytes [`encode_batch`] spends on row `i` (a text cell is its length
/// prefix plus its bytes); with [`BATCH_HEADER_LEN`] and one tag byte per
/// column the rows sum to the whole encoding.
pub fn encoded_row_len(columns: &[ColumnSlice<'_>], i: usize, probabilistic: bool) -> usize {
    let cells: usize = columns
        .iter()
        .map(|column| match column {
            ColumnSlice::Int(_) | ColumnSlice::Float(_) => 8,
            ColumnSlice::Text(v) => 4 + v[i].len(),
        })
        .sum();
    cells + if probabilistic { 8 } else { 0 }
}

/// Appends one column-major batch: arity and row count (`u32` each), then
/// per column its type tag and its packed values — 8-byte big-endian ints,
/// float bit patterns, or `u32`-length-prefixed text — then, when `probs`
/// is given, one float bit pattern per row.
///
/// # Panics
/// Panics when the columns and `probs` differ in length.
pub fn encode_batch(enc: &mut Encoder, columns: &[ColumnSlice<'_>], probs: Option<&[f64]>) {
    let rows = probs.map_or_else(|| columns.first().map_or(0, ColumnSlice::len), <[f64]>::len);
    assert!(
        columns.iter().all(|c| c.len() == rows),
        "batch columns differ in length"
    );
    enc.put_u32(u32::try_from(columns.len()).expect("batch wider than u32::MAX"));
    enc.put_u32(u32::try_from(rows).expect("batch taller than u32::MAX"));
    for column in columns {
        encode_column_type(enc, column.column_type());
        match column {
            ColumnSlice::Int(v) => v.iter().for_each(|&x| enc.put_i64(x)),
            ColumnSlice::Float(v) => v.iter().for_each(|&x| enc.put_f64(x)),
            ColumnSlice::Text(v) => v.iter().for_each(|s| enc.put_str(s)),
        }
    }
    for &p in probs.unwrap_or_default() {
        enc.put_f64(p);
    }
}

/// Reads one batch written by [`encode_batch`], appending its values to
/// `columns` and, when given, its probabilities to `probs`; returns its row
/// count. `columns` either holds one column per encoded column, each of
/// the encoded type (a reader that knows the schema, reusing its buffers),
/// or is empty and receives fresh columns of the encoded types.
///
/// Nothing is reserved ahead of the bytes that back it, so a hostile row
/// count fails on the input's length before it can allocate.
pub fn decode_batch(
    dec: &mut Decoder<'_>,
    columns: &mut Vec<Column>,
    probs: Option<&mut Vec<f64>>,
) -> Result<usize, DecodeError> {
    let arity = dec.take_u32()? as usize;
    let rows = dec.take_u32()? as usize;
    let fresh = columns.is_empty();
    if !fresh && arity != columns.len() {
        return invalid(format!(
            "batch of {arity} columns for a relation of {}",
            columns.len()
        ));
    }
    for c in 0..arity {
        let ty = decode_column_type(dec)?;
        if fresh {
            columns.push(Column::new(ty));
        }
        let column = &mut columns[c];
        if ty != column.column_type() {
            return invalid(format!("{ty} values in a {} column", column.column_type()));
        }
        match ty {
            ColumnType::Int => fixed_width(dec, rows)?.for_each(|x| {
                column.push_int(x as i64);
            }),
            ColumnType::Float => fixed_width(dec, rows)?.for_each(|x| {
                column.push_float(f64::from_bits(x));
            }),
            ColumnType::Text => {
                for _ in 0..rows {
                    column.push_text(dec.take_str()?);
                }
            }
        }
    }
    if let Some(probs) = probs {
        probs.extend(fixed_width(dec, rows)?.map(f64::from_bits));
    }
    Ok(rows)
}

/// `rows` packed 8-byte big-endian words, taken in one bounds check.
fn fixed_width<'a>(
    dec: &mut Decoder<'a>,
    rows: usize,
) -> Result<impl Iterator<Item = u64> + 'a, DecodeError> {
    let Some(len) = rows.checked_mul(8) else {
        return invalid(format!("batch announces {rows} rows"));
    };
    Ok(dec
        .take_raw(len)?
        .chunks_exact(8)
        .map(|w| u64::from_be_bytes(w.try_into().expect("8 bytes"))))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A batch's bytes, with every float by its bit pattern.
    fn encoded(columns: &[Column], probs: Option<&[f64]>) -> Vec<u8> {
        let slices: Vec<ColumnSlice<'_>> = columns.iter().map(Column::values).collect();
        let mut enc = Encoder::new();
        encode_batch(&mut enc, &slices, probs);
        enc.into_bytes()
    }

    #[test]
    fn batches_round_trip_into_fresh_and_reused_columns() {
        let schema = Schema::of(&[
            ("t", ColumnType::Int),
            ("r", ColumnType::Float),
            ("tag", ColumnType::Text),
        ]);
        let rows = vec![
            vec![Value::Int(-3), Value::Float(f64::NAN), Value::from("a")],
            vec![Value::Int(7), Value::Float(-0.0), Value::from("")],
            vec![Value::Int(i64::MAX), Value::Int(2), Value::from("é")],
        ];
        let columns = Column::from_rows(&schema, rows).unwrap();
        let probs = [0.5, 0.0, 1.0];
        let bytes = encoded(&columns, Some(&probs));

        // The row-length accounting adds up to the whole encoding.
        let slices: Vec<ColumnSlice<'_>> = columns.iter().map(Column::values).collect();
        let total: usize = (0..3).map(|i| encoded_row_len(&slices, i, true)).sum();
        assert_eq!(bytes.len(), BATCH_HEADER_LEN + slices.len() + total);

        // Fresh columns take the encoded types; the bytes survive exactly.
        let (mut fresh, mut fresh_probs) = (Vec::new(), Vec::new());
        let mut dec = Decoder::new(&bytes);
        let rows = decode_batch(&mut dec, &mut fresh, Some(&mut fresh_probs));
        assert_eq!((rows, dec.finish()), (Ok(3), Ok(())));
        assert_eq!(encoded(&fresh, Some(&fresh_probs)), bytes);

        // Reused columns are appended to, and must match the tags.
        let mut reused = Column::for_schema(&schema, 0);
        let mut dec = Decoder::new(&bytes);
        decode_batch(&mut dec, &mut reused, None).unwrap();
        assert_eq!(dec.remaining(), 3 * 8, "probabilities left unread");
        assert_eq!(reused[0].values(), ColumnSlice::Int(&[-3, 7, i64::MAX]));
        let mut mistyped = vec![Column::new(ColumnType::Float); 3];
        assert!(decode_batch(&mut Decoder::new(&bytes), &mut mistyped, None).is_err());
        let mut narrow = vec![Column::new(ColumnType::Int)];
        assert!(decode_batch(&mut Decoder::new(&bytes), &mut narrow, None).is_err());
    }

    #[test]
    fn hostile_batch_headers_fail_on_the_input_length() {
        // u32::MAX rows of one float column, and u32::MAX columns: both
        // run out of input before anything proportional is allocated.
        for (arity, rows) in [(1, u32::MAX), (u32::MAX, 0)] {
            let mut enc = Encoder::new();
            enc.put_u32(arity);
            enc.put_u32(rows);
            encode_column_type(&mut enc, ColumnType::Float);
            let bytes = enc.into_bytes();
            let mut columns = Vec::new();
            assert!(decode_batch(&mut Decoder::new(&bytes), &mut columns, None).is_err());
            assert!(columns.len() <= 1);
        }
    }
}
