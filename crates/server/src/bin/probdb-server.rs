//! The tspdb wire-protocol server binary.
//!
//! ```text
//! probdb-server [--addr HOST:PORT] [--workers N] [--data-dir DIR] [--demo]
//! ```
//!
//! * `--addr` — listen address (default `127.0.0.1:7878`; port `0` picks
//!   an ephemeral port, printed on stdout).
//! * `--workers` — reactor threads, i.e. the bound on concurrently
//!   executing statements (default 8).
//! * `--data-dir` — persistent mode: open (or create) a database
//!   directory, recover committed writes from its write-ahead log, and
//!   journal every later write. Without it the server is purely
//!   in-memory.
//! * `--demo` — pre-load the demo dataset (`raw_values` + density view
//!   `pv`) so clients have something to query immediately. With
//!   `--data-dir`, the dataset is only loaded if the directory does not
//!   already hold it.
//!
//! The listen address is announced on stdout as `listening on <addr>`
//! before the accept loop starts — scripts (the CI smoke job) wait for
//! that line.

use tspdb_server::{demo_config, load_demo_data, Server, ServerConfig};

fn usage() -> ! {
    eprintln!("usage: probdb-server [--addr HOST:PORT] [--workers N] [--data-dir DIR] [--demo]");
    std::process::exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut config = ServerConfig::default();
    let mut demo = false;
    let mut data_dir: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => match args.next() {
                Some(a) => addr = a,
                None => usage(),
            },
            "--workers" => match args.next().and_then(|w| w.parse().ok()) {
                Some(w) => config.workers = w,
                None => usage(),
            },
            "--data-dir" => match args.next() {
                Some(d) => data_dir = Some(d),
                None => usage(),
            },
            "--demo" => demo = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }

    let engine = match &data_dir {
        Some(dir) => {
            match tspdb_core::SharedEngine::open_persistent(
                std::path::Path::new(dir),
                demo_config(),
            ) {
                Ok(engine) => {
                    println!("data dir {dir} recovered");
                    engine
                }
                Err(e) => {
                    eprintln!("cannot open data dir {dir}: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => tspdb_core::SharedEngine::new(demo_config()),
    };
    if demo {
        if let Err(e) = load_demo_data(&engine) {
            eprintln!("cannot build demo dataset: {e}");
            std::process::exit(1);
        }
    }

    let server = match Server::bind(&addr, engine, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    let local = server.local_addr().expect("bound listener has an address");
    let mut handle = match server.spawn() {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("cannot start server threads: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {local}");
    handle.wait();
}
