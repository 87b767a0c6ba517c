//! A frame leaves in one `write`: prefix and body together, so a
//! `TCP_NODELAY` peer never wakes for a prefix it cannot use yet. The
//! bytes are still `[u32 length][body]`, and a reader still accepts a
//! frame however the transport splits it.

use std::io::{Read, Write};
use tspdb_probdb::{DbError, QueryOutput};
use tspdb_wire::{
    encode_frame, encode_message, read_frame, write_frame, Request, Response, MAX_FRAME_LEN,
};

/// A sink that records every `write` call it sees.
#[derive(Default)]
struct CountingWrite {
    writes: usize,
    flushes: usize,
    bytes: Vec<u8>,
}

impl Write for CountingWrite {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.flushes += 1;
        Ok(())
    }
}

/// A source that hands out its bytes in fixed pieces, the way a socket
/// delivers a frame split across segments.
struct Trickle<'a> {
    bytes: &'a [u8],
    piece: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.piece.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

fn sample_messages() -> (Vec<Request>, Vec<Response>) {
    let requests = vec![
        Request::Hello { version: 1 },
        Request::Query {
            sql: "SELECT * FROM pv WHERE t >= 7200 THRESHOLD 0.2".into(),
        },
        Request::Close,
    ];
    let responses = vec![
        Response::Bye,
        Response::Error(DbError::Unsupported("x".repeat(100_000))),
        Response::Result(QueryOutput::None),
    ];
    (requests, responses)
}

#[test]
fn write_frame_issues_exactly_one_write() {
    let (requests, responses) = sample_messages();
    for req in &requests {
        let mut sink = CountingWrite::default();
        write_frame(&mut sink, req).unwrap();
        assert_eq!(sink.writes, 1, "{req:?}");
        assert_eq!(sink.flushes, 1);
        assert_eq!(sink.bytes, encode_frame(req).unwrap());
    }
    for resp in &responses {
        let mut sink = CountingWrite::default();
        write_frame(&mut sink, resp).unwrap();
        assert_eq!(sink.writes, 1);
        assert_eq!(sink.bytes, encode_frame(resp).unwrap());
    }
}

#[test]
fn the_frame_encoder_writes_the_length_then_the_message() {
    let (requests, responses) = sample_messages();
    let check = |frame: Vec<u8>, body: Vec<u8>| {
        let mut expected = (body.len() as u32).to_be_bytes().to_vec();
        expected.extend_from_slice(&body);
        assert_eq!(frame, expected);
    };
    for req in &requests {
        check(encode_frame(req).unwrap(), encode_message(req));
    }
    for resp in &responses {
        check(encode_frame(resp).unwrap(), encode_message(resp));
    }
}

#[test]
fn an_oversized_message_is_refused_before_anything_is_written() {
    let huge = Response::Error(DbError::Unsupported("y".repeat(MAX_FRAME_LEN as usize + 1)));
    assert!(matches!(
        encode_frame(&huge),
        Err(tspdb_wire::WireError::FrameTooLarge { .. })
    ));
    let mut sink = CountingWrite::default();
    assert!(write_frame(&mut sink, &huge).is_err());
    assert_eq!(sink.writes, 0);
}

#[test]
fn readers_accept_frames_split_anywhere() {
    let (requests, _) = sample_messages();
    for req in &requests {
        let frame = encode_frame(req).unwrap();
        for piece in [1, 2, 3, 5, 4096] {
            let mut source = Trickle {
                bytes: &frame,
                piece,
            };
            let back: Request = read_frame(&mut source).unwrap();
            assert_eq!(&back, req, "piece = {piece}");
            assert!(source.bytes.is_empty());
        }
    }
}
