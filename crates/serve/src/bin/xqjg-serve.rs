//! The `xqjg-serve` binary: load (or generate) a document, build the
//! catalog and standing indexes, and serve queries until killed.
//!
//! ```text
//! xqjg-serve [--addr HOST:PORT] [--workers N] [--scale F | --xml FILE [--uri URI]]
//! ```
//!
//! With `--xml`, the file is parsed and served under `URI` (default: the
//! file name).  Without it, an XMark-like auction instance is generated at
//! `--scale` (default 0.1) under `auction.xml` — handy for smoke tests.
//!
//! Execution defaults come from the `XQJG_*` environment knobs through the
//! strict parser; admission from `XQJG_GLOBAL_BUDGET`, `XQJG_MAX_SESSIONS`
//! and `XQJG_QUEUE_TIMEOUT`.  A malformed variable is a startup error.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::process::ExitCode;

use xqjg_core::Processor;
use xqjg_data::{generate_xmark_encoded, XmarkConfig};
use xqjg_serve::{Engine, Server, DEFAULT_WORKERS};

struct Args {
    addr: String,
    workers: usize,
    scale: f64,
    xml: Option<String>,
    uri: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:4817".to_string(),
        workers: DEFAULT_WORKERS,
        scale: 0.1,
        xml: None,
        uri: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--scale" => {
                args.scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?
            }
            "--xml" => args.xml = Some(value("--xml")?),
            "--uri" => args.uri = Some(value("--uri")?),
            "--help" | "-h" => {
                return Err("usage: xqjg-serve [--addr HOST:PORT] [--workers N] \
                     [--scale F | --xml FILE [--uri URI]]"
                    .to_string())
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let mut processor = Processor::new();
    match &args.xml {
        Some(path) => {
            let xml = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("xqjg-serve: cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let uri = args.uri.clone().unwrap_or_else(|| {
                std::path::Path::new(path)
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_else(|| path.clone())
            });
            if let Err(e) = processor.load_document(&uri, &xml) {
                eprintln!("xqjg-serve: cannot load {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("xqjg-serve: serving {uri}");
        }
        None => {
            let doc = generate_xmark_encoded("auction.xml", &XmarkConfig::with_scale(args.scale));
            processor.load_encoded("auction.xml", doc);
            eprintln!(
                "xqjg-serve: serving generated auction.xml (scale {})",
                args.scale
            );
        }
    }
    processor.create_default_indexes();
    let engine = match Engine::from_env(processor) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("xqjg-serve: bad configuration: {e}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::start(engine, &args.addr, args.workers) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xqjg-serve: cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", server.local_addr());
    // Serve until the process is killed; the Drop impl handles teardown if
    // this thread ever unparks.
    loop {
        std::thread::park();
    }
}
