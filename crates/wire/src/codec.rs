//! The binary codec: a flat, deterministic byte encoding for every type
//! that crosses the wire.
//!
//! The scalar, [`Value`] and [`Schema`] encodings are the workspace's one
//! byte codec, [`tspdb_probdb::codec`] (re-exported here as [`Encoder`] /
//! [`Decoder`]): fixed-width big-endian scalars, floats as IEEE-754 bit
//! patterns (NaN payloads included, which bit-identical MC estimates
//! across the wire require), `u32`-length-prefixed strings and sequences
//! bounded by the frame, and schemas that reject repeated columns. Its
//! [`DecodeError`] surfaces here as [`WireError::Malformed`].
//!
//! On top of it this module defines the frames' message encodings, which
//! validate on decode: rows are re-checked against their schema,
//! probabilities against `[0, 1]`, so a decoded relation upholds the same
//! invariants as a locally built one.

use std::fmt;
use std::time::Duration;
use tspdb_probdb::codec::{
    decode_column_type, decode_schema, decode_value, encode_column_type, encode_schema,
    encode_value, seq_buffer, DecodeError, SEQ_PREALLOC_CAP,
};
pub(crate) use tspdb_probdb::codec::{Decoder, Encoder};
use tspdb_probdb::plan::{AggValue, AggregateGroup, AggregateResult, ExplainReport};
use tspdb_probdb::sql::{AggExpr, AggFunc, HavingClause};
use tspdb_probdb::{
    CmpOp, Column, ColumnSlice, ColumnType, DbError, ProbTable, QueryOutput, Schema, SumEstimate,
    Table, Value, WorldsResult,
};

/// Errors surfaced by the wire layer: transport failures and protocol
/// violations. Server-side *database* errors are not a `WireError` — they
/// travel as a well-formed [`crate::Response::Error`] frame.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The peer sent bytes that do not decode as the expected message.
    Malformed(String),
    /// A frame announced a length beyond [`crate::MAX_FRAME_LEN`].
    FrameTooLarge {
        /// Announced body length.
        len: u32,
        /// The permitted maximum.
        max: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Malformed(e.0)
    }
}

/// Shorthand for a malformed-frame error.
fn malformed<T>(msg: impl Into<String>) -> Result<T, WireError> {
    Err(WireError::Malformed(msg.into()))
}

/// A type with a wire encoding. `decode(encode(x)) == x` for every value
/// the database layer can produce (property-tested per frame type).
pub trait Wire: Sized {
    /// Appends this value's encoding.
    fn encode(&self, enc: &mut Encoder);
    /// Decodes one value from the cursor.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError>;
}

/// Encodes a message into a standalone byte vector (no frame prefix).
pub fn encode_message<T: Wire>(msg: &T) -> Vec<u8> {
    let mut enc = Encoder::new();
    msg.encode(&mut enc);
    enc.into_bytes()
}

/// Decodes a message from a frame body, requiring every byte to be
/// consumed.
pub fn decode_message<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut dec = Decoder::new(bytes);
    let msg = T::decode(&mut dec)?;
    dec.finish()?;
    Ok(msg)
}

/// The canonical comparison form of a query result: its wire encoding,
/// except Monte-Carlo results, which compare by their bit-exact
/// [`WorldsResult::fingerprint`] — the one field a repeated execution may
/// legitimately change is the wall-clock time, and the fingerprint
/// excludes exactly that.
///
/// This is the single definition of "the same answer" used by the
/// differential surfaces (the `server_client` example, the end-to-end
/// tests, the `loadgen` baseline check); keep it here so a future
/// nondeterministic field needs one change, not three.
pub fn canonical_result_bytes(out: &QueryOutput) -> Vec<u8> {
    match out {
        QueryOutput::Worlds(w) => w.fingerprint().into_bytes(),
        other => encode_message(other),
    }
}

impl Wire for String {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(dec.take_str()?)
    }
}

impl Wire for u64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(*self);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(dec.take_u64()?)
    }
}

impl Wire for usize {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_usize(*self);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(dec.take_usize()?)
    }
}

impl Wire for f64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(*self);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(dec.take_f64()?)
    }
}

impl Wire for bool {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bool(*self);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(dec.take_bool()?)
    }
}

impl Wire for Duration {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.as_secs());
        enc.put_u32(self.subsec_nanos());
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let secs = dec.take_u64()?;
        let nanos = dec.take_u32()?;
        if nanos >= 1_000_000_000 {
            return malformed(format!("duration subsec nanos out of range: {nanos}"));
        }
        Ok(Duration::new(secs, nanos))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_u8(0),
            Some(v) => {
                enc.put_u8(1);
                v.encode(enc);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(dec)?)),
            other => malformed(format!("option tag must be 0 or 1, got {other}")),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(u32::try_from(self.len()).expect("sequence longer than u32::MAX"));
        for v in self {
            v.encode(enc);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let len = dec.take_seq_len()?;
        let mut out = seq_buffer(len);
        for _ in 0..len {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl Wire for ColumnType {
    fn encode(&self, enc: &mut Encoder) {
        encode_column_type(enc, *self);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(decode_column_type(dec)?)
    }
}

impl Wire for Value {
    fn encode(&self, enc: &mut Encoder) {
        encode_value(enc, self);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(decode_value(dec)?)
    }
}

impl Wire for Schema {
    fn encode(&self, enc: &mut Encoder) {
        encode_schema(enc, self);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(decode_schema(dec)?)
    }
}

/// The protocol-1 rows of a relation: per row, one tagged cell per column,
/// then — for a probabilistic relation — the probability. Read straight
/// off the typed columns: no `Vec<Value>` is built per row.
fn encode_rows(enc: &mut Encoder, columns: &[Column], probs: Option<&[f64]>, rows: usize) {
    let columns: Vec<ColumnSlice<'_>> = columns.iter().map(Column::values).collect();
    for i in 0..rows {
        for column in &columns {
            encode_column_type(enc, column.column_type());
            match column {
                ColumnSlice::Int(v) => enc.put_i64(v[i]),
                ColumnSlice::Float(v) => enc.put_f64(v[i]),
                ColumnSlice::Text(v) => enc.put_str(&v[i]),
            }
        }
        if let Some(probs) = probs {
            enc.put_f64(probs[i]);
        }
    }
}

/// Reads `rows` rows written by [`encode_rows`] straight into columns of
/// `schema` (ints widen into float columns, as an insert would), pushing
/// each row's probability onto `probs` when the relation has them. A cell
/// of the wrong type is malformed input naming the `row` kind.
fn decode_rows(
    dec: &mut Decoder<'_>,
    schema: &Schema,
    rows: usize,
    mut probs: Option<&mut Vec<f64>>,
    row: &str,
) -> Result<Vec<Column>, WireError> {
    let mut columns = Column::for_schema(schema, rows.min(SEQ_PREALLOC_CAP));
    for _ in 0..rows {
        for (c, column) in columns.iter_mut().enumerate() {
            let got = decode_column_type(dec)?;
            let pushed = match got {
                ColumnType::Int => column.push_int(dec.take_i64()?),
                ColumnType::Float => column.push_float(dec.take_f64()?),
                ColumnType::Text => column.push_text(dec.take_str()?),
            };
            if !pushed {
                let e = DbError::TypeMismatch {
                    column: schema.column(c).0.to_string(),
                    expected: column.column_type(),
                    got,
                };
                return malformed(format!("{row} violates its schema: {e}"));
            }
        }
        if let Some(probs) = probs.as_deref_mut() {
            probs.push(dec.take_f64()?);
        }
    }
    Ok(columns)
}

impl Wire for Table {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self.name());
        self.schema().encode(enc);
        enc.put_u32(u32::try_from(self.len()).expect("table taller than u32::MAX"));
        encode_rows(enc, self.columns(), None, self.len());
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let name = dec.take_str()?;
        let schema = Schema::decode(dec)?;
        let rows = dec.take_seq_len()?;
        let columns = decode_rows(dec, &schema, rows, None, "row")?;
        Table::from_columns(name, schema, columns)
            .or_else(|e| malformed(format!("row violates its schema: {e}")))
    }
}

impl Wire for ProbTable {
    /// The frame is row-major (protocol 1): per tuple, one tagged cell per
    /// column, then the probability ([`encode_rows`]).
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self.name());
        self.schema().encode(enc);
        enc.put_u32(u32::try_from(self.len()).expect("relation taller than u32::MAX"));
        encode_rows(enc, self.columns(), Some(self.probs()), self.len());
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let name = dec.take_str()?;
        let schema = Schema::decode(dec)?;
        let rows = dec.take_seq_len()?;
        let mut probs = seq_buffer(rows);
        let columns = decode_rows(dec, &schema, rows, Some(&mut probs), "tuple")?;
        ProbTable::from_columns(name, schema, columns, probs)
            .or_else(|e| malformed(format!("tuple violates its schema: {e}")))
    }
}

impl Wire for SumEstimate {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.column);
        enc.put_f64(self.mean);
        enc.put_f64(self.variance);
        enc.put_f64(self.ci_half_width);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(SumEstimate {
            column: dec.take_str()?,
            mean: dec.take_f64()?,
            variance: dec.take_f64()?,
            ci_half_width: dec.take_f64()?,
        })
    }
}

impl Wire for WorldsResult {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_usize(self.worlds);
        enc.put_usize(self.matching_tuples);
        enc.put_u64(self.seed);
        enc.put_usize(self.threads);
        enc.put_bool(self.converged);
        enc.put_f64(self.event_probability);
        enc.put_f64(self.event_ci_half_width);
        self.count_distribution.encode(enc);
        enc.put_f64(self.count_mean);
        enc.put_f64(self.count_variance);
        enc.put_f64(self.count_ci_half_width);
        self.sum.encode(enc);
        self.wall.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(WorldsResult {
            worlds: dec.take_usize()?,
            matching_tuples: dec.take_usize()?,
            seed: dec.take_u64()?,
            threads: dec.take_usize()?,
            converged: dec.take_bool()?,
            event_probability: dec.take_f64()?,
            event_ci_half_width: dec.take_f64()?,
            count_distribution: Vec::decode(dec)?,
            count_mean: dec.take_f64()?,
            count_variance: dec.take_f64()?,
            count_ci_half_width: dec.take_f64()?,
            sum: Option::decode(dec)?,
            wall: Duration::decode(dec)?,
        })
    }
}

impl Wire for AggFunc {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(match self {
            AggFunc::Count => 0,
            AggFunc::Sum => 1,
            AggFunc::Avg => 2,
            AggFunc::Expected => 3,
        });
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.take_u8()? {
            0 => Ok(AggFunc::Count),
            1 => Ok(AggFunc::Sum),
            2 => Ok(AggFunc::Avg),
            3 => Ok(AggFunc::Expected),
            other => malformed(format!("unknown aggregate function tag {other}")),
        }
    }
}

impl Wire for AggExpr {
    fn encode(&self, enc: &mut Encoder) {
        self.func.encode(enc);
        self.column.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(AggExpr {
            func: AggFunc::decode(dec)?,
            column: Option::decode(dec)?,
        })
    }
}

impl Wire for CmpOp {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(match self {
            CmpOp::Eq => 0,
            CmpOp::Ne => 1,
            CmpOp::Lt => 2,
            CmpOp::Le => 3,
            CmpOp::Gt => 4,
            CmpOp::Ge => 5,
        });
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.take_u8()? {
            0 => Ok(CmpOp::Eq),
            1 => Ok(CmpOp::Ne),
            2 => Ok(CmpOp::Lt),
            3 => Ok(CmpOp::Le),
            4 => Ok(CmpOp::Gt),
            5 => Ok(CmpOp::Ge),
            other => malformed(format!("unknown comparison operator tag {other}")),
        }
    }
}

impl Wire for HavingClause {
    fn encode(&self, enc: &mut Encoder) {
        self.agg.encode(enc);
        self.op.encode(enc);
        self.value.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(HavingClause {
            agg: AggExpr::decode(dec)?,
            op: CmpOp::decode(dec)?,
            value: Value::decode(dec)?,
        })
    }
}

impl Wire for AggValue {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(self.value);
        self.ci_half_width.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(AggValue {
            value: dec.take_f64()?,
            ci_half_width: Option::decode(dec)?,
        })
    }
}

impl Wire for AggregateGroup {
    fn encode(&self, enc: &mut Encoder) {
        self.key.encode(enc);
        self.values.encode(enc);
        self.count_distribution.encode(enc);
        self.event_probability.encode(enc);
        self.worlds.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(AggregateGroup {
            key: Vec::decode(dec)?,
            values: Vec::decode(dec)?,
            count_distribution: Option::decode(dec)?,
            event_probability: Option::decode(dec)?,
            worlds: Option::decode(dec)?,
        })
    }
}

impl Wire for AggregateResult {
    fn encode(&self, enc: &mut Encoder) {
        self.group_columns.encode(enc);
        self.aggregates.encode(enc);
        self.having.encode(enc);
        enc.put_str(self.strategy);
        self.groups.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        let group_columns = Vec::decode(dec)?;
        let aggregates = Vec::decode(dec)?;
        let having = Option::decode(dec)?;
        // `strategy` is a `&'static str` naming the evaluation backend;
        // only the known backends can be reconstituted.
        let strategy = match dec.take_str()?.as_str() {
            "exact" => "exact",
            "worlds" => "worlds",
            "synopsis" => "synopsis",
            other => return malformed(format!("unknown evaluation strategy {other:?}")),
        };
        Ok(AggregateResult {
            group_columns,
            aggregates,
            having,
            strategy,
            groups: Vec::decode(dec)?,
        })
    }
}

impl Wire for ExplainReport {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.relation);
        enc.put_str(&self.logical);
        enc.put_str(&self.physical);
        enc.put_str(&self.strategy);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(ExplainReport {
            relation: dec.take_str()?,
            logical: dec.take_str()?,
            physical: dec.take_str()?,
            strategy: dec.take_str()?,
        })
    }
}

impl Wire for QueryOutput {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            QueryOutput::None => enc.put_u8(0),
            QueryOutput::Rows(t) => {
                enc.put_u8(1);
                t.encode(enc);
            }
            QueryOutput::ProbRows(t) => {
                enc.put_u8(2);
                t.encode(enc);
            }
            QueryOutput::Worlds(w) => {
                enc.put_u8(3);
                w.encode(enc);
            }
            QueryOutput::Aggregate(a) => {
                enc.put_u8(4);
                a.encode(enc);
            }
            QueryOutput::Explain(e) => {
                enc.put_u8(5);
                e.encode(enc);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.take_u8()? {
            0 => Ok(QueryOutput::None),
            1 => Ok(QueryOutput::Rows(Table::decode(dec)?)),
            2 => Ok(QueryOutput::ProbRows(ProbTable::decode(dec)?)),
            3 => Ok(QueryOutput::Worlds(WorldsResult::decode(dec)?)),
            4 => Ok(QueryOutput::Aggregate(AggregateResult::decode(dec)?)),
            5 => Ok(QueryOutput::Explain(ExplainReport::decode(dec)?)),
            other => malformed(format!("unknown query output tag {other}")),
        }
    }
}

impl Wire for DbError {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            DbError::UnknownColumn(c) => {
                enc.put_u8(0);
                enc.put_str(c);
            }
            DbError::UnknownTable(t) => {
                enc.put_u8(1);
                enc.put_str(t);
            }
            DbError::DuplicateTable(t) => {
                enc.put_u8(2);
                enc.put_str(t);
            }
            DbError::ArityMismatch { expected, got } => {
                enc.put_u8(3);
                enc.put_usize(*expected);
                enc.put_usize(*got);
            }
            DbError::TypeMismatch {
                column,
                expected,
                got,
            } => {
                enc.put_u8(4);
                enc.put_str(column);
                expected.encode(enc);
                got.encode(enc);
            }
            DbError::InvalidProbability(p) => {
                enc.put_u8(5);
                enc.put_f64(*p);
            }
            DbError::Parse(msg) => {
                enc.put_u8(6);
                enc.put_str(msg);
            }
            DbError::Unsupported(msg) => {
                enc.put_u8(7);
                enc.put_str(msg);
            }
            DbError::ReadOnly(msg) => {
                enc.put_u8(8);
                enc.put_str(msg);
            }
            DbError::InvalidWorlds(msg) => {
                enc.put_u8(9);
                enc.put_str(msg);
            }
            DbError::Plan(msg) => {
                enc.put_u8(10);
                enc.put_str(msg);
            }
            DbError::ViewBuild(msg) => {
                enc.put_u8(11);
                enc.put_str(msg);
            }
            DbError::Storage(msg) => {
                enc.put_u8(12);
                enc.put_str(msg);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.take_u8()? {
            0 => Ok(DbError::UnknownColumn(dec.take_str()?)),
            1 => Ok(DbError::UnknownTable(dec.take_str()?)),
            2 => Ok(DbError::DuplicateTable(dec.take_str()?)),
            3 => Ok(DbError::ArityMismatch {
                expected: dec.take_usize()?,
                got: dec.take_usize()?,
            }),
            4 => Ok(DbError::TypeMismatch {
                column: dec.take_str()?,
                expected: ColumnType::decode(dec)?,
                got: ColumnType::decode(dec)?,
            }),
            5 => Ok(DbError::InvalidProbability(dec.take_f64()?)),
            6 => Ok(DbError::Parse(dec.take_str()?)),
            7 => Ok(DbError::Unsupported(dec.take_str()?)),
            8 => Ok(DbError::ReadOnly(dec.take_str()?)),
            9 => Ok(DbError::InvalidWorlds(dec.take_str()?)),
            10 => Ok(DbError::Plan(dec.take_str()?)),
            11 => Ok(DbError::ViewBuild(dec.take_str()?)),
            12 => Ok(DbError::Storage(dec.take_str()?)),
            other => malformed(format!("unknown database error tag {other}")),
        }
    }
}
