//! Front-end guarantees of the reactor threads, each over a real
//! loopback socket: a long statement holds up only its own connection,
//! frames are cut correctly however they arrive, a peer that stops
//! reading stalls nobody and parks one reply at most, shutdown joins
//! threads that are mid-statement, and a single thread both pushes TAIL
//! frames and answers queries.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use tspdb_client::{Client, TailNotice};
use tspdb_core::SharedEngine;
use tspdb_server::{demo_config, Server, ServerConfig, ServerHandle};
use tspdb_wire::{
    canonical_result_bytes, encode_frame, read_frame, Request, Response, PROTOCOL_VERSION,
};

/// An exact `HAVING COUNT` over every tuple of `big`: one Poisson-binomial
/// DP over ~70 000 probabilities, seconds of work in a debug build and a
/// few hundred milliseconds in a release one.
const LONG_SQL: &str = "SELECT COUNT(*) FROM big HAVING COUNT(*) >= 10";
/// Every row of `wide`: a result frame of about 7 MB, more than a
/// loopback connection's socket buffers take under Linux's default limits
/// (see [`loopback_absorbs`]), so the first reply parks.
const BULK_SQL: &str = "SELECT * FROM wide";
/// Rows of `wide`.
const WIDE_ROWS: i64 = 400_000;
/// A selective statement answered in well under a millisecond.
const SHORT_SQL: &str = "SELECT COUNT(*) FROM raw WHERE t = 120";

/// One engine for every test in this file: `raw` holds 1 500 generated
/// readings, `big` is a density view over them with 50 points per
/// reading (~70 000 tuples) and `wide` is a plain table of 400 000
/// readings. Built once; each test binds its own server.
fn engine() -> SharedEngine {
    static ENGINE: OnceLock<SharedEngine> = OnceLock::new();
    ENGINE
        .get_or_init(|| {
            let engine = SharedEngine::new(demo_config());
            let series = tspdb_timeseries::generate::TemperatureGenerator::default().generate(1500);
            engine.load_series("raw", "r", &series).unwrap();
            let wide = tspdb_timeseries::TimeSeries::from_parts(
                "r".to_string(),
                (0..WIDE_ROWS).collect(),
                (0..WIDE_ROWS).map(|t| t as f64 * 0.25).collect(),
            );
            engine.load_series("wide", "r", &wide).unwrap();
            engine
                .execute("CREATE VIEW big AS DENSITY r OVER t OMEGA delta=0.05, n=50 FROM raw")
                .unwrap();
            engine
        })
        .clone()
}

/// Bytes a loopback connection takes in of replies its peer never reads:
/// the server's send buffer at its ceiling (`tcp_wmem` max, 4 MiB by
/// default) plus the peer's receive buffer as it starts (`tcp_rmem`
/// default; it only grows as the peer reads). `None` where the limits
/// cannot be read.
fn loopback_absorbs() -> Option<usize> {
    let field = |path: &str, i: usize| -> Option<usize> {
        std::fs::read_to_string(path)
            .ok()?
            .split_whitespace()
            .nth(i)?
            .parse()
            .ok()
    };
    Some(field("/proc/sys/net/ipv4/tcp_wmem", 2)? + field("/proc/sys/net/ipv4/tcp_rmem", 1)?)
}

fn serve(engine: SharedEngine, workers: usize) -> ServerHandle {
    Server::bind(
        "127.0.0.1:0",
        engine,
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .spawn()
    .unwrap()
}

/// A raw socket past the handshake, for tests that shape the bytes
/// themselves.
fn raw_session(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
        .write_all(
            &encode_frame(&Request::Hello {
                version: PROTOCOL_VERSION,
            })
            .unwrap(),
        )
        .unwrap();
    assert!(matches!(
        read_frame::<Response>(&mut stream).unwrap(),
        Response::Hello { .. }
    ));
    stream
}

fn query_frame(sql: &str) -> Vec<u8> {
    encode_frame(&Request::Query { sql: sql.into() }).unwrap()
}

/// The wire bytes of a `Response::Result`, for byte-identity checks.
fn result_bytes(response: Response) -> Vec<u8> {
    match response {
        Response::Result(out) => canonical_result_bytes(&out),
        other => panic!("expected a result, got {other:?}"),
    }
}

#[test]
fn a_long_statement_holds_up_only_its_own_connection() {
    let handle = serve(engine(), 2);
    let mut long = raw_session(handle.addr());
    long.write_all(&query_frame(LONG_SQL)).unwrap();
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let reply = read_frame::<Response>(&mut long).unwrap();
        tx.send(Instant::now()).unwrap();
        reply
    });
    // Give the statement time to start executing on one thread.
    std::thread::sleep(Duration::from_millis(50));
    let mut short = Client::connect(handle.addr()).unwrap();
    for _ in 0..100 {
        short.query(SHORT_SQL).unwrap();
    }
    let shorts_done = Instant::now();
    assert!(
        rx.try_recv().is_err(),
        "the long statement's reply beat 100 short ones: they waited for it (or it was too short to tell)"
    );
    let long_done = rx.recv().unwrap();
    assert!(shorts_done < long_done);
    assert!(matches!(reader.join().unwrap(), Response::Result(_)));
    short.close().unwrap();
    handle.shutdown();
}

#[test]
fn two_frames_in_one_write_are_answered_in_order() {
    let handle = serve(engine(), 2);
    let mut stream = raw_session(handle.addr());
    let mut both = query_frame(SHORT_SQL);
    both.extend_from_slice(&query_frame("SELECT * FROM missing"));
    stream.write_all(&both).unwrap();
    let first = read_frame::<Response>(&mut stream).unwrap();
    let second = read_frame::<Response>(&mut stream).unwrap();
    let expected = canonical_result_bytes(&engine().query(SHORT_SQL).unwrap());
    assert_eq!(result_bytes(first), expected);
    assert!(matches!(second, Response::Error(_)), "{second:?}");
    handle.shutdown();
}

#[test]
fn a_frame_split_across_writes_still_parses() {
    let handle = serve(engine(), 2);
    let mut stream = raw_session(handle.addr());
    let frame = query_frame(SHORT_SQL);
    // Prefix alone, a pause, then the body in two pieces.
    stream.write_all(&frame[..4]).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    stream.write_all(&frame[4..7]).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    stream.write_all(&frame[7..]).unwrap();
    let reply = read_frame::<Response>(&mut stream).unwrap();
    let expected = canonical_result_bytes(&engine().query(SHORT_SQL).unwrap());
    assert_eq!(result_bytes(reply), expected);
    handle.shutdown();
}

#[test]
fn a_peer_that_stops_reading_stalls_nobody_and_gets_its_results_intact() {
    // One thread: were it to block on the stalled socket, nothing else
    // would be served. Each multi-megabyte result outgrows what the
    // loopback socket buffers absorb, so the server must park output.
    const RESULTS: usize = 8;
    let handle = serve(engine(), 1);
    let mut stalled = raw_session(handle.addr());
    stalled
        .write_all(&query_frame(BULK_SQL).repeat(RESULTS))
        .unwrap();
    // The first reply parks; the seven frames behind it stay unparsed
    // (and unexecuted) until it drains. Where the host's socket limits let
    // the connection take a whole reply in, nothing parks and a second
    // statement runs rightly, so only the bound is checked there.
    let expected = canonical_result_bytes(&engine().query(BULK_SQL).unwrap());
    let parks = loopback_absorbs().is_some_and(|absorbs| expected.len() > absorbs);
    let executed = || handle.stats().requests.load(Ordering::Relaxed);
    let deadline = Instant::now() + Duration::from_secs(30);
    while executed() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(200));
    if parks {
        assert_eq!(executed(), 1, "statements ran behind parked output");
    } else {
        assert!((1..=RESULTS as u64).contains(&executed()));
        eprintln!(
            "a {} B reply fits this host's loopback buffers: parking unchecked",
            expected.len()
        );
    }

    let mut other = Client::connect(handle.addr()).unwrap();
    for _ in 0..100 {
        other.query(SHORT_SQL).unwrap();
    }
    other.close().unwrap();

    // Now drain: every frame arrives whole and equals the in-process
    // answer.
    for _ in 0..RESULTS {
        let mut prefix = [0u8; 4];
        stalled.read_exact(&mut prefix).unwrap();
        let len = u32::from_be_bytes(prefix) as usize;
        assert!(len > 2 << 20, "a result of {len} bytes is too small");
        let mut body = vec![0u8; len];
        stalled.read_exact(&mut body).unwrap();
        let reply: Response = tspdb_wire::decode_message(&body).unwrap();
        assert!(result_bytes(reply) == expected, "a stalled result changed");
    }
    handle.shutdown();
}

#[test]
fn shutdown_joins_every_thread_while_a_statement_executes() {
    let handle = serve(engine(), 2);
    let addr = handle.addr();
    let mut long = raw_session(addr);
    long.write_all(&query_frame(LONG_SQL)).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        tx.send(()).unwrap();
    });
    rx.recv_timeout(Duration::from_secs(60))
        .expect("shutdown did not return");
    // Every thread is gone, so nothing holds the listener any more.
    assert!(TcpStream::connect(addr).is_err());
    // The statement's connection ends with its reply or a close, never a
    // hang.
    let mut rest = Vec::new();
    let _ = long.read_to_end(&mut rest);
}

#[test]
fn one_thread_pushes_tail_frames_between_ordinary_queries() {
    let handle = serve(SharedEngine::new(demo_config()), 1);
    let mut writer = Client::connect(handle.addr()).unwrap();
    let mut sub = Client::connect(handle.addr()).unwrap();
    writer
        .query("CREATE TABLE stream_t (t INT, r FLOAT)")
        .unwrap();
    writer
        .query("INSERT INTO stream_t VALUES (0, 1.0), (5, 2.0)")
        .unwrap();
    let tail = sub
        .tail("TAIL SELECT COUNT(*), SUM(r) FROM stream_t GROUP BY WINDOW(t, 10)")
        .unwrap();

    for (bucket, t) in [(0.0, 12), (10.0, 25), (20.0, 31)] {
        writer
            .query(&format!("INSERT INTO stream_t VALUES ({t}, 3.0)"))
            .unwrap();
        // The subscriber's own round trip interleaves with the push.
        assert!(sub.query("SELECT COUNT(*) FROM stream_t").is_ok());
        assert!(writer.query("SELECT COUNT(*) FROM stream_t").is_ok());
        let notice = sub
            .tail_next(Some(Duration::from_secs(10)))
            .unwrap()
            .expect("the closed bucket's frame");
        let TailNotice::Frame(frame) = notice else {
            panic!("expected a frame, got {notice:?}");
        };
        assert_eq!((frame.tail, frame.bucket), (tail, bucket));
    }
    sub.tail_stop(tail).unwrap();
    writer.close().unwrap();
    sub.close().unwrap();
    handle.shutdown();
}
