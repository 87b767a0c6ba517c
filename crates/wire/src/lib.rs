//! # tspdb-wire
//!
//! The versioned, length-prefixed binary wire protocol shared by
//! `tspdb-server` and `tspdb-client`: a `codec` turning every
//! query-result type the database produces into deterministic bytes, and
//! `frame`s carrying requests (handshake, `Query`, `Prepare` /
//! `Execute` / `CloseStatement`, the session `SetWorldsThreads` knob,
//! `Tail` / `TailStop` continuous-query subscriptions, `Close`) and
//! responses (typed results for every [`tspdb_probdb::QueryOutput`]
//! variant, structured [`tspdb_probdb::DbError`]s, acks, and pushed
//! `TailFrame`s for sessions holding a TAIL subscription).
//!
//! The crate deliberately contains **no I/O policy** beyond reading and
//! writing one frame (a frame is encoded whole by [`encode_frame`] and
//! sent in one write) — connection handling, sessions and threading live
//! in the server; blocking convenience calls live in the client. Both
//! ends therefore test against the exact same byte-level contract, and
//! the encode→decode identity is property-tested here once for every
//! frame type.
//!
//! ## Quick start
//!
//! ```
//! use tspdb_wire::{decode_message, encode_message, Request};
//!
//! let request = Request::Query {
//!     sql: "SELECT COUNT(*) FROM pv GROUP BY WINDOW(t, 10)".into(),
//! };
//! let bytes = encode_message(&request);
//! assert_eq!(decode_message::<Request>(&bytes).unwrap(), request);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub(crate) mod codec;
pub(crate) mod frame;

pub use codec::{canonical_result_bytes, decode_message, encode_message, Wire, WireError};
pub use frame::{
    encode_frame, read_frame, write_frame, Request, Response, StatementId, MAGIC, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};
