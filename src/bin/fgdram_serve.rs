//! `fgdram-serve` — the persistent simulation job daemon.
//!
//! Binds a TCP port, loads the spool directory (resuming any jobs that
//! were interrupted by a previous kill), and serves suite jobs until
//! terminated. See DESIGN.md "Serving subsystem" for the wire protocol
//! and `fgdram-client` for the matching command-line client.
//!
//! ```text
//! fgdram-serve [--addr IP] [--port N] [--spool DIR] [--workers N]
//!              [--max-queued-cells N] [--max-job-cost NS]
//!              [--tenant-inflight N] [--quantum NS]
//!              [--read-timeout-ms N] [--write-timeout-ms N]
//!              [--shed-cost NS] [--chaos SPEC] [--chaos-seed N]
//! ```
//!
//! With `--port 0` the OS picks a free port; the daemon prints
//! `fgdram-serve: listening on IP:PORT` to stdout either way, which is
//! what `ci.sh` and the integration tests parse.
//!
//! `SIGTERM`/`SIGINT` drain gracefully: cells already running finish and
//! are checkpointed, queued cells stay in the spool for the next start,
//! and the process exits 0. `--chaos` engages the seeded wire/disk fault
//! layer (see DESIGN.md "Failure model of the serving layer").

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use fgdram_serve::{ChaosSpec, ServeConfig, Server};

const USAGE: &str = "usage: fgdram-serve [--addr IP] [--port N] [--spool DIR] [--workers N] \
                     [--max-queued-cells N] [--max-job-cost NS] [--tenant-inflight N] \
                     [--quantum NS] [--read-timeout-ms N] [--write-timeout-ms N] \
                     [--shed-cost NS] [--chaos SPEC] [--chaos-seed N]";

fn parse_args(args: &[String]) -> Result<(String, ServeConfig), String> {
    let mut addr = "127.0.0.1".to_string();
    let mut port = 7733u16;
    let mut cfg = ServeConfig::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(USAGE.to_string());
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let num = |what: &str| -> Result<u64, String> {
            value.parse::<u64>().map_err(|e| format!("{what} {value}: {e}"))
        };
        match flag.as_str() {
            "--addr" => addr = value.clone(),
            "--port" => port = value.parse().map_err(|e| format!("--port {value}: {e}"))?,
            "--spool" => cfg.spool_dir = PathBuf::from(value),
            "--workers" => cfg.workers = num("--workers")? as usize,
            "--max-queued-cells" => cfg.max_queued_cells = num("--max-queued-cells")? as usize,
            "--max-job-cost" => cfg.max_job_cost = num("--max-job-cost")?,
            "--tenant-inflight" => cfg.tenant_max_inflight = num("--tenant-inflight")? as usize,
            "--quantum" => cfg.quantum = num("--quantum")?,
            "--read-timeout-ms" => {
                cfg.read_timeout = Duration::from_millis(num("--read-timeout-ms")?)
            }
            "--write-timeout-ms" => {
                cfg.write_timeout = Duration::from_millis(num("--write-timeout-ms")?)
            }
            "--shed-cost" => cfg.shed_cost = num("--shed-cost")?,
            "--chaos" => {
                cfg.chaos = ChaosSpec::parse(value).map_err(|e| format!("--chaos: {e}"))?
            }
            "--chaos-seed" => cfg.chaos_seed = num("--chaos-seed")?,
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if cfg.read_timeout.is_zero() || cfg.write_timeout.is_zero() {
        return Err("timeouts must be positive (zero would disable the deadline)".to_string());
    }
    Ok((format!("{addr}:{port}"), cfg))
}

/// Set by the signal handler; polled by the drain watcher thread.
static TERMINATE: AtomicBool = AtomicBool::new(false);

// Minimal signal hookup without any registry dependency. The handler
// does the only thing an async-signal-safe handler may: flip a flag.
// (The library crates forbid unsafe; binaries carry the single FFI shim.)
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_term(_sig: i32) {
        TERMINATE.store(true, Ordering::SeqCst);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_term as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (bind_addr, cfg) = match parse_args(&args) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let chaos_engaged = !cfg.chaos.is_noop();
    let chaos_seed = cfg.chaos_seed;
    let server = match Server::bind(cfg, &bind_addr) {
        Ok(s) => std::sync::Arc::new(s),
        Err(e) => {
            eprintln!("fgdram-serve: bind {bind_addr}: {e}");
            return ExitCode::from(6);
        }
    };
    match server.local_addr() {
        Ok(a) => {
            // Stdout, flushed: scripts block on this line to learn the port.
            println!("fgdram-serve: listening on {a}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("fgdram-serve: local_addr: {e}");
            return ExitCode::from(6);
        }
    }
    if chaos_engaged {
        eprintln!("fgdram-serve: CHAOS ENGAGED (seed {chaos_seed}) — injecting seeded faults");
    }
    install_signal_handlers();
    // Drain watcher: on SIGTERM/SIGINT, stop accepting and shut the
    // worker pool down gracefully — running cells finish and checkpoint,
    // queued cells stay in the spool for the next start.
    let drainer = {
        let server = std::sync::Arc::clone(&server);
        std::thread::spawn(move || loop {
            if TERMINATE.load(Ordering::SeqCst) {
                eprintln!("fgdram-serve: draining (running cells finish and checkpoint)");
                server.shutdown();
                return true;
            }
            std::thread::sleep(Duration::from_millis(50));
        })
    };
    if let Err(e) = server.serve() {
        eprintln!("fgdram-serve: accept loop: {e}");
        return ExitCode::from(6);
    }
    if TERMINATE.load(Ordering::SeqCst) {
        // The accept loop ended because the drainer shut us down; wait
        // for the drain to complete so checkpoints are flushed.
        let _ = drainer.join();
        eprintln!("fgdram-serve: drained, exiting");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(String, ServeConfig), String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    /// An out-of-range port is a usage error, not a truncated port number.
    #[test]
    fn port_must_fit_u16() {
        assert_eq!(parse(&["--port", "8080"]).map(|(addr, _)| addr), Ok("127.0.0.1:8080".into()));
        let err = parse(&["--port", "70000"]).map(|(addr, _)| addr).expect_err("70000 > u16::MAX");
        assert!(err.starts_with("--port 70000"), "{err}");
    }

    /// A chaos rate outside [0, 1] is a usage error naming its key.
    #[test]
    fn chaos_rate_must_be_a_probability() {
        let err = parse(&["--chaos", "torn=2"]).map(|(addr, _)| addr).expect_err("2 > 1");
        assert!(err.starts_with("--chaos: torn:"), "{err}");
    }
}
