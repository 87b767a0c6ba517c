//! Frames: the request/response messages and their length-prefixed
//! transport encoding.
//!
//! Every message travels as one frame:
//!
//! ```text
//! ┌────────────────┬──────────────────────────────┐
//! │ u32 big-endian │ body                         │
//! │ body length    │ u8 message tag + payload     │
//! └────────────────┴──────────────────────────────┘
//! ```
//!
//! The first request on a connection must be [`Request::Hello`], whose
//! payload leads with the [`MAGIC`] bytes and the client's
//! [`PROTOCOL_VERSION`]; the server answers [`Response::Hello`] or an
//! error frame and closes. After the handshake the client drives a strict
//! request/response alternation — no pipelining — which keeps the session
//! state machine trivial on both ends.
//!
//! **One exception**: a session holding a [`Request::Tail`] subscription
//! may receive pushed [`Response::TailFrame`] frames (and a pushed
//! [`Response::TailStopped`] when a standing query lapses) at any point
//! between its own request/response pairs, including interleaved before
//! an in-flight request's reply. A client that never sends `Tail` never
//! sees a pushed frame, so pre-TAIL clients keep the pure alternation.

use crate::codec::{decode_message, Decoder, Encoder, Wire, WireError};
use std::io::{Read, Write};
use tspdb_probdb::plan::AggregateResult;
use tspdb_probdb::{DbError, QueryOutput};

/// Bytes opening every [`Request::Hello`] payload — rejects stray
/// connections speaking some other protocol before any allocation
/// happens.
pub const MAGIC: [u8; 4] = *b"TPDB";

/// Version of the wire protocol this build speaks. The handshake rejects
/// mismatches outright (no negotiation until a second version exists).
///
/// Still **1** after the persistent storage engine landed: its
/// [`DbError::Storage`] variant is a new error tag (12) at the end of the
/// tag space, which the version-bump policy classifies as a compatible
/// addition — old peers decode it as `Malformed` rather than corrupting
/// state.
///
/// Still **1** after TAIL continuous queries landed, for the same
/// reason: [`Request::Tail`] / [`Request::TailStop`] (tags 7, 8) and
/// [`Response::TailStarted`] / [`Response::TailFrame`] /
/// [`Response::TailStopped`] (tags 7, 8, 9) extend the ends of their tag
/// spaces, and a pushed frame only ever reaches a session that opted in
/// by sending `Tail` — an old client cannot receive bytes it cannot
/// decode.
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on a frame body. Large enough for any realistic result
/// relation, small enough that a hostile length prefix cannot exhaust
/// memory.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// A server-assigned handle to a prepared statement, scoped to the
/// session that prepared it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StatementId(pub u64);

impl Wire for StatementId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.0);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        Ok(StatementId(dec.take_u64()?))
    }
}

impl std::fmt::Display for StatementId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Opens the session: magic bytes plus the client's protocol version.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// Parse and execute one SQL statement.
    Query {
        /// The statement text.
        sql: String,
    },
    /// Parse and plan a read-only statement once; execute it later by id.
    Prepare {
        /// The statement text.
        sql: String,
    },
    /// Execute a prepared statement (plan-once / execute-many).
    Execute {
        /// Id returned by [`Response::Prepared`].
        statement: StatementId,
    },
    /// Discard a prepared statement.
    CloseStatement {
        /// Id returned by [`Response::Prepared`].
        statement: StatementId,
    },
    /// Session-scoped override of the `WITH WORLDS` fork-join width
    /// (`Some(0)` = one thread per core, `None` = clear the override and
    /// track the engine-wide default again). Latency-only: MC estimates
    /// are bit-identical at every width.
    SetWorldsThreads {
        /// The requested width, or `None` to clear the override.
        threads: Option<u64>,
    },
    /// Registers a `TAIL SELECT ... GROUP BY WINDOW(...)` standing query.
    /// The server answers [`Response::TailStarted`] with a token, then
    /// pushes one [`Response::TailFrame`] per window bucket as buckets
    /// close — already-closed history first, so a late subscriber catches
    /// up before it streams.
    Tail {
        /// The `TAIL SELECT ...` statement text.
        sql: String,
    },
    /// Cancels a TAIL subscription; the server answers
    /// [`Response::TailStopped`] (frames already pushed may still be in
    /// flight ahead of the ack).
    TailStop {
        /// Token returned by [`Response::TailStarted`].
        token: u64,
    },
    /// Ends the session; the server answers [`Response::Bye`] and closes.
    Close,
}

impl Wire for Request {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Request::Hello { version } => {
                enc.put_u8(0);
                enc.put_raw(&MAGIC);
                enc.put_u32(*version);
            }
            Request::Query { sql } => {
                enc.put_u8(1);
                enc.put_str(sql);
            }
            Request::Prepare { sql } => {
                enc.put_u8(2);
                enc.put_str(sql);
            }
            Request::Execute { statement } => {
                enc.put_u8(3);
                statement.encode(enc);
            }
            Request::CloseStatement { statement } => {
                enc.put_u8(4);
                statement.encode(enc);
            }
            Request::SetWorldsThreads { threads } => {
                enc.put_u8(5);
                threads.encode(enc);
            }
            Request::Close => enc.put_u8(6),
            Request::Tail { sql } => {
                enc.put_u8(7);
                enc.put_str(sql);
            }
            Request::TailStop { token } => {
                enc.put_u8(8);
                enc.put_u64(*token);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.take_u8()? {
            0 => {
                let magic = dec.take_raw(MAGIC.len())?;
                if magic != MAGIC {
                    return Err(WireError::Malformed(format!(
                        "bad handshake magic {magic:02x?}"
                    )));
                }
                Ok(Request::Hello {
                    version: dec.take_u32()?,
                })
            }
            1 => Ok(Request::Query {
                sql: dec.take_str()?,
            }),
            2 => Ok(Request::Prepare {
                sql: dec.take_str()?,
            }),
            3 => Ok(Request::Execute {
                statement: StatementId::decode(dec)?,
            }),
            4 => Ok(Request::CloseStatement {
                statement: StatementId::decode(dec)?,
            }),
            5 => Ok(Request::SetWorldsThreads {
                threads: Option::decode(dec)?,
            }),
            6 => Ok(Request::Close),
            7 => Ok(Request::Tail {
                sql: dec.take_str()?,
            }),
            8 => Ok(Request::TailStop {
                token: dec.take_u64()?,
            }),
            other => Err(WireError::Malformed(format!("unknown request tag {other}"))),
        }
    }
}

/// A server → client message. Every request yields exactly one response;
/// in addition, a session holding a TAIL subscription may receive pushed
/// [`Response::TailFrame`] / [`Response::TailStopped`] frames between its
/// own request/response pairs.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Successful handshake.
    Hello {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
        /// Human-readable server identification (name/version).
        server: String,
    },
    /// Result of a `Query` or `Execute`.
    Result(QueryOutput),
    /// A statement was prepared.
    Prepared {
        /// Handle for subsequent [`Request::Execute`] calls.
        statement: StatementId,
    },
    /// A prepared statement was closed.
    Closed {
        /// The handle that is now invalid.
        statement: StatementId,
    },
    /// The session's worlds fork-join width was set or cleared.
    WorldsThreadsSet {
        /// The override now in effect for this session (`None` = the
        /// engine-wide default applies).
        threads: Option<u64>,
    },
    /// The request failed; the session stays usable.
    Error(DbError),
    /// Acknowledges [`Request::Close`]; the server closes the connection.
    Bye,
    /// A TAIL subscription was registered.
    TailStarted {
        /// Handle for the subscription, scoped to this session; quote it
        /// in [`Request::TailStop`] to cancel.
        token: u64,
    },
    /// **Pushed**: one window bucket of a TAIL subscription closed. The
    /// carried result is byte-identical to re-running the subscription's
    /// windowed query and keeping only this bucket's groups.
    TailFrame {
        /// The subscription the frame belongs to.
        token: u64,
        /// The closed bucket's start (the window column value the bucket
        /// begins at).
        bucket: f64,
        /// The closed bucket's groups, in the windowed query's shape.
        result: AggregateResult,
    },
    /// A TAIL subscription ended: the ack for [`Request::TailStop`]
    /// (`reason` is `None`), or **pushed** when the standing query
    /// lapsed server-side (`reason` says why — e.g. its source table was
    /// dropped).
    TailStopped {
        /// The subscription that ended.
        token: u64,
        /// `None` for a client-requested stop; the error text when the
        /// server cancelled the subscription.
        reason: Option<String>,
    },
}

impl Wire for Response {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Response::Hello { version, server } => {
                enc.put_u8(0);
                enc.put_u32(*version);
                enc.put_str(server);
            }
            Response::Result(out) => {
                enc.put_u8(1);
                out.encode(enc);
            }
            Response::Prepared { statement } => {
                enc.put_u8(2);
                statement.encode(enc);
            }
            Response::Closed { statement } => {
                enc.put_u8(3);
                statement.encode(enc);
            }
            Response::WorldsThreadsSet { threads } => {
                enc.put_u8(4);
                threads.encode(enc);
            }
            Response::Error(e) => {
                enc.put_u8(5);
                e.encode(enc);
            }
            Response::Bye => enc.put_u8(6),
            Response::TailStarted { token } => {
                enc.put_u8(7);
                enc.put_u64(*token);
            }
            Response::TailFrame {
                token,
                bucket,
                result,
            } => {
                enc.put_u8(8);
                enc.put_u64(*token);
                enc.put_f64(*bucket);
                result.encode(enc);
            }
            Response::TailStopped { token, reason } => {
                enc.put_u8(9);
                enc.put_u64(*token);
                reason.encode(enc);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
        match dec.take_u8()? {
            0 => Ok(Response::Hello {
                version: dec.take_u32()?,
                server: dec.take_str()?,
            }),
            1 => Ok(Response::Result(QueryOutput::decode(dec)?)),
            2 => Ok(Response::Prepared {
                statement: StatementId::decode(dec)?,
            }),
            3 => Ok(Response::Closed {
                statement: StatementId::decode(dec)?,
            }),
            4 => Ok(Response::WorldsThreadsSet {
                threads: Option::decode(dec)?,
            }),
            5 => Ok(Response::Error(DbError::decode(dec)?)),
            6 => Ok(Response::Bye),
            7 => Ok(Response::TailStarted {
                token: dec.take_u64()?,
            }),
            8 => Ok(Response::TailFrame {
                token: dec.take_u64()?,
                bucket: dec.take_f64()?,
                result: AggregateResult::decode(dec)?,
            }),
            9 => Ok(Response::TailStopped {
                token: dec.take_u64()?,
                reason: Option::decode(dec)?,
            }),
            other => Err(WireError::Malformed(format!(
                "unknown response tag {other}"
            ))),
        }
    }
}

/// Encodes one message as a complete length-prefixed frame: the body is
/// encoded after a reserved 4-byte slot and its length patched in, so a
/// large result is never copied a second time to prepend its prefix.
pub fn encode_frame<T: Wire>(msg: &T) -> Result<Vec<u8>, WireError> {
    let mut enc = Encoder::new();
    enc.put_u32(0);
    msg.encode(&mut enc);
    let mut frame = enc.into_bytes();
    let len = u32::try_from(frame.len() - 4).unwrap_or(u32::MAX);
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    frame[..4].copy_from_slice(&len.to_be_bytes());
    Ok(frame)
}

/// Writes one message as a length-prefixed frame in a single
/// `write_all` — prefix and body leave together, so a `TCP_NODELAY`
/// peer receives one segment rather than a prefix it cannot use yet —
/// and flushes.
pub fn write_frame<T: Wire>(w: &mut impl Write, msg: &T) -> Result<(), WireError> {
    w.write_all(&encode_frame(msg)?)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame and decodes its body as `T`.
///
/// Accepts a frame however it was split in transit: `read_exact` waits
/// for the prefix and the body across as many reads as they take.
///
/// (The server does not use this: its reads interleave with shutdown
/// checks and wall-clock deadlines, so it reads the prefix and body
/// itself and shares only [`decode_message`].)
pub fn read_frame<T: Wire>(r: &mut impl Read) -> Result<T, WireError> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = u32::from_be_bytes(prefix);
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge {
            len,
            max: MAX_FRAME_LEN,
        });
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    decode_message(&body)
}
