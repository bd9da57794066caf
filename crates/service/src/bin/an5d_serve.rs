//! The `an5d-serve` binary: serve the AN5D pipeline over HTTP until a
//! `POST /shutdown` arrives.
//!
//! ```text
//! an5d-serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
//!            [--backend SPEC]
//!            [--keep-alive-timeout SECS] [--max-requests N]
//!            [--tune-db PATH]
//! ```
//!
//! `--workers` sizes the CPU-bound dispatch pool, not the connection
//! count: a single reactor thread owns every connection (parking idle
//! keep-alives for free), and `--queue` bounds the dispatch queue of
//! complete parsed requests — when it is full the overflowing request
//! is answered with an immediate 503. `--cache` is the capacity of the
//! one plan cache behind `/plan`, `/predict` and `/codegen`.
//!
//! `/execute` runs one tile executor; `--backend` only sets how many
//! threads run tiles at once (`serial`: the request's worker alone,
//! `vector[:threads]`: at most that many, the worker included). It
//! defaults to the `AN5D_BACKEND` environment variable; an invalid spec
//! from either is a hard startup error. The persisted tuning database
//! defaults to the `AN5D_TUNE_DB` environment variable; `--tune-db`
//! overrides it (and `--tune-db ""` disables persistence). Appends are
//! fsync'd per record.
//!
//! Requests slower than `DEFAULT_SLOW_THRESHOLD` (1 s) are logged to
//! stderr with their trace id, and `GET /trace` keeps the last
//! `DEFAULT_TRACE_CAPACITY` (256) request traces.

use an5d_service::{banner, Server, ServerConfig};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: an5d-serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]\n\
         \x20                 [--backend SPEC]\n\
         \x20                 [--keep-alive-timeout SECS] [--max-requests N]\n\
         \x20                 [--tune-db PATH]\n\
         defaults: --addr 127.0.0.1:7845 --workers 4 --queue 64 --cache 256\n\
         \x20         --backend $AN5D_BACKEND (unset: serial); SPEC sets how many\n\
         \x20         threads run the tiles of one /execute: serial (one) or\n\
         \x20         vector[:threads] (at most; default one per CPU)\n\
         \x20         --keep-alive-timeout 5 --max-requests 1000\n\
         \x20         --tune-db $AN5D_TUNE_DB (unset: no persistence)\n\
         stop with: curl -X POST http://HOST:PORT/shutdown"
    );
    std::process::exit(2);
}

fn parse_args() -> ServerConfig {
    // The env-var defaults are resolved here at the binary boundary (the
    // library defaults are None so embedders never pick up a backend or
    // a DB implicitly); the flags override them below.
    let from_env = |name| std::env::var(name).ok().filter(|v| !v.trim().is_empty());
    let mut config = ServerConfig {
        backend: from_env(an5d::BACKEND_ENV),
        tune_db: from_env(an5d_service::TUNE_DB_ENV),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--addr" => config.addr = value,
            "--workers" => match value.parse() {
                Ok(n) if n > 0 => config.workers = n,
                _ => usage(),
            },
            "--queue" => match value.parse() {
                Ok(n) if n > 0 => config.queue_depth = n,
                _ => usage(),
            },
            "--cache" => match value.parse() {
                Ok(n) if n > 0 => config.cache_capacity = n,
                _ => usage(),
            },
            "--keep-alive-timeout" => match value.parse() {
                Ok(n) if n > 0 => {
                    config.keep_alive_timeout = std::time::Duration::from_secs(n);
                }
                _ => usage(),
            },
            "--max-requests" => match value.parse() {
                Ok(n) if n > 0 => config.max_requests_per_connection = n,
                _ => usage(),
            },
            "--backend" => {
                config.backend = Some(value).filter(|spec| !spec.trim().is_empty());
            }
            "--tune-db" => {
                config.tune_db = Some(value).filter(|path| !path.trim().is_empty());
            }
            _ => usage(),
        }
    }
    config
}

fn main() -> ExitCode {
    let config = parse_args();
    let server = match Server::start(&config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("an5d-serve: cannot start on {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{}",
        banner(
            server.addr(),
            &server.state().backend().describe(),
            config.workers,
            config.queue_depth,
            server.state().fleet().len(),
            config.tune_db.as_deref(),
        )
    );
    server.wait();
    eprintln!("an5d-serve: shutdown complete");
    ExitCode::SUCCESS
}
