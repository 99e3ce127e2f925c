//! End-to-end tests of the `fgdram-serve` daemon and `fgdram-client`
//! through the real binaries and real processes — including the two
//! serving acceptance gates: the served report is byte-identical to the
//! `fgdram_sim suite` CLI at any worker count, and a `kill -9`'d daemon
//! resumes from its spool without recomputing finished cells.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use fgdram_model::json::{self, Value};

/// The job spec used throughout: small enough to finish in seconds,
/// large enough (3 workloads = 6 cells) for a mid-job kill to land.
const WARMUP: &str = "2000";
const WINDOW: &str = "6000";
const MAX_WORKLOADS: &str = "3";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fgdram_serve_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// The reference bytes: what the CLI prints for the same suite spec.
fn cli_report(jobs: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_fgdram_sim"))
        .args([
            "suite",
            "compute",
            "--warmup",
            WARMUP,
            "--window",
            WINDOW,
            "--max-workloads",
            MAX_WORKLOADS,
            "--jobs",
            jobs,
        ])
        .output()
        .expect("run fgdram_sim suite");
    assert!(out.status.success(), "CLI suite failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("CLI suite output is UTF-8")
}

/// A daemon process on an ephemeral port; killed on drop.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(spool: &Path, extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_fgdram-serve"))
            .args(["--port", "0", "--spool"])
            .arg(spool)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn fgdram-serve");
        // The daemon prints `fgdram-serve: listening on IP:PORT` once the
        // socket is bound; block on that line to learn the port.
        let stdout = child.stdout.take().expect("daemon stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("daemon banner");
        let addr = line
            .trim()
            .strip_prefix("fgdram-serve: listening on ")
            .unwrap_or_else(|| panic!("unexpected daemon banner: {line:?}"))
            .to_string();
        Daemon { child, addr }
    }

    fn client(&self, args: &[&str]) -> std::process::Output {
        Command::new(env!("CARGO_BIN_EXE_fgdram-client"))
            .args(args)
            .args(["--addr", &self.addr])
            .output()
            .expect("run fgdram-client")
    }

    /// `GET /stats` through the client, parsed.
    fn stats(&self, extra: &[&str]) -> Value {
        let out = self.client(&[&["stats"], extra].concat());
        assert!(out.status.success(), "stats: {}", String::from_utf8_lossy(&out.stderr));
        let body = String::from_utf8(out.stdout).expect("UTF-8 stats");
        json::parse(&body).unwrap_or_else(|e| panic!("stats is not JSON ({e}): {body}"))
    }
}

/// The counter at `path` (object keys) of a parsed `/stats` body.
fn counter(stats: &Value, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(stats, |v, k| v.get(k))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no counter {path:?} in {stats:?}"))
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn submit_args<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    let mut v = vec![
        "submit",
        "--suite",
        "compute",
        "--warmup",
        WARMUP,
        "--window",
        WINDOW,
        "--max-workloads",
        MAX_WORKLOADS,
    ];
    v.extend_from_slice(extra);
    v
}

#[test]
fn served_report_is_byte_identical_to_the_cli_suite() {
    let spool = tmp_dir("identity");
    let daemon = Daemon::start(&spool, &[]);
    let reference = cli_report("3");
    let out = daemon.client(&submit_args(&[]));
    assert!(out.status.success(), "client submit failed: {}", String::from_utf8_lossy(&out.stderr));
    let served = String::from_utf8(out.stdout).expect("served report is UTF-8");
    assert_eq!(served, reference, "served report differs from the CLI bytes");
    drop(daemon);
    let _ = std::fs::remove_dir_all(spool);
}

#[test]
fn over_budget_jobs_are_rejected_with_exit_code_8() {
    let spool = tmp_dir("budget");
    // 6 cells x 8000 ns = 48_000 > 10_000: rejected at admission.
    let daemon = Daemon::start(&spool, &["--max-job-cost", "10000"]);
    let out = daemon.client(&submit_args(&[]));
    assert_eq!(out.status.code(), Some(8), "budget reject exit code");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("\"code\":\"budget\""), "stderr: {err}");
    assert!(err.contains("HTTP 422"), "stderr: {err}");
    drop(daemon);
    let _ = std::fs::remove_dir_all(spool);
}

/// A submit whose telemetry would keep more than
/// `fgdram_telemetry::MAX_EPOCHS` epochs is refused at the door with a
/// typed 400, and the daemon keeps serving.
#[test]
fn over_limit_telemetry_is_a_bad_request_and_the_daemon_stays_up() {
    let spool = tmp_dir("epochs");
    let daemon = Daemon::start(&spool, &[]);
    let jsonl = spool.join("t.jsonl");
    let out = daemon.client(&[
        "submit",
        "--suite",
        "compute",
        "--max-workloads",
        "1",
        "--warmup",
        "0",
        "--window",
        "999999999",
        "--epoch",
        "1",
        "--telemetry",
        jsonl.to_str().expect("UTF-8 temp path"),
    ]);
    assert_eq!(out.status.code(), Some(2), "bad-request exit code");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("HTTP 400") && err.contains("\"code\":\"bad-request\""), "{err}");
    let health = fgdram_serve::http::request(&daemon.addr, "GET", "/healthz", &[], b"")
        .expect("daemon still answers");
    assert_eq!(health.status, 200);
    drop(daemon);
    let _ = std::fs::remove_dir_all(spool);
}

/// The suite CLI refuses what a served job spec refuses: zero workloads
/// (an empty suite has no gmean) and a zero window exit 2 before
/// anything is simulated.
#[test]
fn suite_flags_the_job_spec_refuses_exit_2() {
    for flag in ["--max-workloads", "--window"] {
        let out = Command::new(env!("CARGO_BIN_EXE_fgdram_sim"))
            .args(["suite", "compute", flag, "0"])
            .output()
            .expect("run fgdram_sim suite");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} 0: {stderr}");
        assert!(stderr.contains(&format!("{flag} must be >= 1")), "{stderr}");
        assert!(out.stdout.is_empty(), "{flag} 0 simulated nothing");
    }
}

/// A numeric flag given a non-number is a usage error that names the
/// flag, whichever flag it is.
#[test]
fn a_bad_numeric_value_exits_2_naming_its_flag() {
    for flag in [
        "--warmup",
        "--window",
        "--wave",
        "--mlp",
        "--jobs",
        "--max-workloads",
        "--epoch",
        "--fault-seed",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fgdram_sim"))
            .args(["suite", "compute", flag, "abc"])
            .output()
            .expect("run fgdram_sim suite");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} abc: {stderr}");
        assert!(stderr.contains(&format!("{flag}: invalid digit")), "{stderr}");
        assert!(out.stdout.is_empty(), "{flag} abc simulated nothing");
    }
}

#[test]
fn telemetry_streams_to_a_file_and_cancel_exits_10() {
    let spool = tmp_dir("telemetry");
    let daemon = Daemon::start(&spool, &[]);
    let tpath = spool.join("t.jsonl");
    let tpath_s = tpath.to_str().unwrap();
    let out = daemon.client(&submit_args(&["--telemetry", tpath_s, "--epoch", "1000"]));
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let jsonl = std::fs::read_to_string(&tpath).expect("telemetry file");
    assert!(jsonl.lines().count() > 0, "telemetry lines streamed");
    assert!(jsonl.lines().all(|l| l.starts_with('{') && l.ends_with('}')), "JSONL shape");
    // Cancel a fresh job queued behind a deliberately absent worker
    // supply: single worker and a long job keep j2 queued long enough.
    let out = daemon.client(&submit_args(&["--no-wait"]));
    assert!(out.status.success());
    let job = String::from_utf8(out.stdout).unwrap().trim().to_string();
    let out = daemon.client(&["cancel", &job]);
    assert!(
        out.status.success() || out.status.code() == Some(2),
        "cancel outcome: {:?} {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    if out.status.success() {
        // Fetching the report of a cancelled job is the typed code 10.
        let out = daemon.client(&["report", &job]);
        assert_eq!(out.status.code(), Some(10), "cancelled report exit code");
    }
    drop(daemon);
    let _ = std::fs::remove_dir_all(spool);
}

#[test]
fn kill_dash_nine_then_restart_resumes_without_recompute() {
    let spool = tmp_dir("resume");
    let reference = cli_report("2");
    // Single worker so the kill reliably lands mid-job.
    let daemon = Daemon::start(&spool, &["--workers", "1"]);
    let out = daemon.client(&submit_args(&["--no-wait"]));
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let job = String::from_utf8(out.stdout).unwrap().trim().to_string();
    // Wait until at least one cell record hits the spool, then SIGKILL.
    let ckpt = spool.join(format!("{job}.ckpt"));
    let deadline = Instant::now() + Duration::from_secs(60);
    let cells_before_kill = loop {
        let done = std::fs::read_to_string(&ckpt)
            .map(|s| s.lines().filter(|l| l.starts_with("end ")).count())
            .unwrap_or(0);
        if done >= 1 {
            break done;
        }
        assert!(Instant::now() < deadline, "no cell checkpointed within 60s");
        std::thread::sleep(Duration::from_millis(30));
    };
    drop(daemon); // SIGKILL, no graceful shutdown
                  // Restart on the same spool; the job resumes and completes.
    let daemon = Daemon::start(&spool, &["--workers", "1"]);
    let out = daemon.client(&["report", &job]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let served = String::from_utf8(out.stdout).unwrap();
    assert_eq!(served, reference, "resumed report differs from the CLI bytes");
    // The daemon restored (not re-ran) the checkpointed cells.
    let resumed = counter(&daemon.stats(&[]), &["cells", "resumed"]);
    assert!(resumed >= cells_before_kill as u64, "expected >= {cells_before_kill} resumed cells");
    drop(daemon);
    let _ = std::fs::remove_dir_all(spool);
}

/// A bad `--chaos` value through the real daemon: exit 2 before the
/// socket is bound or the spool opened.
#[test]
fn out_of_range_chaos_rate_exits_2_without_binding() {
    let spool =
        std::env::temp_dir().join(format!("fgdram_serve_e2e_badchaos_{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_fgdram-serve"))
        .args(["--port", "0", "--chaos", "torn=2", "--spool"])
        .arg(&spool)
        .output()
        .expect("run fgdram-serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--chaos: torn:"), "{stderr}");
    assert!(out.stdout.is_empty(), "no listening banner");
    assert!(!spool.exists(), "no spool opened");
}

/// One raw exchange with the daemon: `(status, body)`, the body checked
/// to be exactly one JSON value.
fn json_exchange(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (u16, String) {
    let resp = fgdram_serve::http::request(addr, method, path, headers, body.as_bytes())
        .unwrap_or_else(|e| panic!("{method} {path}: {e}"));
    let status = resp.status;
    let body = String::from_utf8(resp.into_body().expect("response body")).expect("UTF-8 body");
    json::parse(&body).unwrap_or_else(|e| panic!("{method} {path} -> {status}: {e}: {body}"));
    (status, body)
}

/// Every JSON body the daemon can emit is hand-assembled; each must be
/// exactly one valid JSON value, whatever text ends up inside it.
#[test]
fn every_json_body_the_daemon_emits_is_valid_json() {
    let spool = tmp_dir("jsonbodies");
    // A job that failed under an earlier daemon, as `mark_failed` spools
    // it, with a message that needs every kind of escaping. (No spec
    // field makes a healthy cell fail, so a failure produced by a live
    // worker is driven in-crate, by `crates/serve`'s
    // `failed_job_reports_the_same_error_live_and_after_a_restart`.)
    std::fs::write(
        spool.join("j1.ckpt"),
        "fgdram-serve-ckpt-v2\nid j1\ntenant anon\n\
         spec suite=compute;warmup=2000;window=6000;max_workloads=1\n\
         \nfailed stall 5 no%20progress:%20\"q\"%20\\%20%09tab%01\n",
    )
    .expect("plant spool file");
    // Disk-only chaos: the wire stays faithful, but the engine is live,
    // so /stats carries its nested `chaos` object.
    let flags = ["--workers", "1", "--chaos", "ckpt-corrupt=1", "--chaos-seed", "3"];
    let daemon = Daemon::start(&spool, &flags);
    let addr = daemon.addr.as_str();

    let (status, failed) = json_exchange(addr, "GET", "/jobs/j1/report", &[], "");
    assert_eq!(status, 500);
    assert_eq!(
        failed,
        "{\"error\":{\"code\":\"stall\",\"exit_code\":5,\
         \"message\":\"no progress: \\\"q\\\" \\\\ \\ttab\\u0001\"}}\n"
    );

    // Cells long enough (~0.5 s each) that the cancel lands mid-job.
    let spec = "suite=compute\nwarmup=2000\nwindow=50000\nmax_workloads=3\n";
    let key = [("X-Job-Key", "k \"1\"")];
    let (status, body) = json_exchange(addr, "POST", "/jobs", &key, spec);
    assert_eq!(status, 201);
    assert_eq!(body, "{\"job\":\"j2\",\"cells\":6,\"cost\":312000}\n");
    let (status, body) = json_exchange(addr, "POST", "/jobs", &key, spec);
    assert_eq!(status, 200);
    assert_eq!(body, "{\"job\":\"j2\",\"cells\":6,\"cost\":312000,\"deduped\":true}\n");
    let (status, body) = json_exchange(addr, "GET", "/jobs/j2", &[], "");
    assert_eq!(status, 200);
    assert!(body.starts_with("{\"job\":\"j2\",\"tenant\":\"anon\",\"state\":\""), "{body}");
    let (status, body) = json_exchange(addr, "DELETE", "/jobs/j2", &[], "");
    assert_eq!(status, 200);
    assert_eq!(body, "{\"job\":\"j2\",\"state\":\"canceled\"}\n");
    let (status, body) = json_exchange(addr, "GET", "/jobs/j2/report", &[], "");
    assert_eq!(status, 409);
    assert!(body.contains("\"code\":\"canceled\",\"exit_code\":10"), "{body}");

    // Rejects: the offending text is echoed into the message.
    let (status, body) = json_exchange(addr, "POST", "/jobs", &[], "suite=\"x\\y\"\t\n");
    assert_eq!(status, 400);
    assert!(body.contains("\"code\":\"bad-request\""), "{body}");
    let (status, _) = json_exchange(addr, "DELETE", "/jobs/j2", &[], "");
    assert_eq!(status, 400, "already cancelled");
    let (status, _) = json_exchange(addr, "GET", "/jobs/j\"9", &[], "");
    assert_eq!(status, 404);

    let (status, stats) = json_exchange(addr, "GET", "/stats", &[], "");
    assert_eq!(status, 200);
    assert!(stats.contains("\"chaos\":{\"wire\":{"), "{stats}");
    assert!(stats.contains("\"tenants\":{\"anon\":{"), "{stats}");

    // A restart replays the failed job from the spool: same bytes.
    drop(daemon);
    let daemon = Daemon::start(&spool, &flags);
    let (status, replayed) = json_exchange(&daemon.addr, "GET", "/jobs/j1/report", &[], "");
    assert_eq!((status, replayed), (500, failed));
    drop(daemon);
    let _ = std::fs::remove_dir_all(spool);
}

// ---------------------------------------------------------------------------
// Chaos hardening: seeded fuzz, wire/disk fault injection, graceful drain.
// ---------------------------------------------------------------------------

use fgdram_model::rng::SmallRng;

/// A valid request to mutate from: well-formed submit with a body.
const FUZZ_BASE: &[u8] =
    b"POST /jobs HTTP/1.1\r\ncontent-length: 14\r\nx-tenant: fuzz\r\n\r\nsuite=compute\n";

/// Seeded request mutator: each draw picks one corruption family, so the
/// corpus covers oversized headers, bogus framing numbers, NUL bytes,
/// truncations, and plain byte garbage.
fn mutate_request(rng: &mut SmallRng) -> Vec<u8> {
    let mut buf = FUZZ_BASE.to_vec();
    match rng.random_range(0..7u64) {
        0 => {
            // Oversized header line (way past any sane limit).
            let pad = "a".repeat(64 * 1024);
            buf = format!("GET /stats HTTP/1.1\r\nx-pad: {pad}\r\n\r\n").into_bytes();
        }
        1 => {
            // Non-numeric / absurd content-length.
            let cl = if rng.random_bool(0.5) { "banana" } else { "999999999999999999999999" };
            buf = format!("POST /jobs HTTP/1.1\r\ncontent-length: {cl}\r\n\r\nhi").into_bytes();
        }
        2 => {
            // Content-length larger than the bytes we actually send.
            buf = b"POST /jobs HTTP/1.1\r\ncontent-length: 5000\r\n\r\nshort".to_vec();
        }
        3 => {
            // NUL bytes sprayed through the request.
            for _ in 0..rng.random_range(1..8) {
                let at = rng.random_index(buf.len());
                buf[at] = 0;
            }
        }
        4 => {
            // Truncation at an arbitrary byte.
            buf.truncate(rng.random_index(buf.len()) + 1);
        }
        5 => {
            // Bogus chunked framing (bad chunk-size digits).
            buf = b"POST /jobs HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\nZZZZ\r\njunk\r\n0\r\n\r\n"
                .to_vec();
        }
        _ => {
            // Random byte garbling.
            for _ in 0..rng.random_range(1..12) {
                let at = rng.random_index(buf.len());
                buf[at] ^= rng.random_range(1..256) as u8;
            }
        }
    }
    buf
}

/// In-process half of the fuzz loop: the request parser itself must never
/// panic, whatever bytes arrive. (Cheap, so it runs a big corpus.)
#[test]
fn request_parser_survives_a_seeded_mutation_corpus() {
    let mut rng = SmallRng::seed_from_u64(0xF022);
    for _ in 0..500 {
        let buf = mutate_request(&mut rng);
        let mut cursor = std::io::Cursor::new(buf);
        // Ok or a typed error are both fine; only a panic fails the test.
        let _ = fgdram_serve::http::read_request(&mut cursor);
    }
}

/// Live-daemon half: malformed requests over a real socket get a typed
/// response (or a clean close), and the daemon stays alive throughout.
#[test]
fn daemon_survives_malformed_requests_over_the_wire() {
    use std::io::{Read as _, Write as _};
    let spool = tmp_dir("fuzzwire");
    let daemon = Daemon::start(&spool, &["--read-timeout-ms", "400", "--write-timeout-ms", "2000"]);
    let mut rng = SmallRng::seed_from_u64(0xF0221);
    for i in 0..60 {
        let buf = mutate_request(&mut rng);
        let mut s = std::net::TcpStream::connect(&daemon.addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let _ = s.write_all(&buf);
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut resp = Vec::new();
        let _ = s.read_to_end(&mut resp);
        if !resp.is_empty() {
            assert!(
                resp.starts_with(b"HTTP/1.1 "),
                "iteration {i}: non-HTTP response: {:?}",
                String::from_utf8_lossy(&resp[..resp.len().min(80)])
            );
            // The daemon closes with request bytes unread, so a reset can
            // cut the response short; only a whole status line is judged.
            if let Some(code) = resp.get(9..12) {
                let status: u16 = String::from_utf8_lossy(code).parse().unwrap_or(0);
                assert!(
                    (400..500).contains(&status),
                    "iteration {i}: malformed input answered {status}"
                );
            }
        }
    }
    // The daemon must still be healthy after the whole corpus.
    let stats = daemon.stats(&["--retries", "2"]);
    counter(&stats, &["wire", "malformed"]);
    drop(daemon);
    let _ = std::fs::remove_dir_all(spool);
}

/// The tentpole acceptance gate: under seeded wire chaos (torn requests,
/// connection resets, mid-response disconnects) plus disk chaos on the
/// spool, a retrying client still gets the exact CLI bytes.
#[test]
fn served_report_is_byte_identical_under_seeded_chaos_with_retries() {
    let spool = tmp_dir("chaoswire");
    let daemon = Daemon::start(
        &spool,
        &[
            "--chaos",
            "torn=0.3,reset=0.3,disconnect=0.2,ckpt-corrupt=0.3,ckpt-short=0.2",
            "--chaos-seed",
            "20250807",
            "--read-timeout-ms",
            "2000",
        ],
    );
    let reference = cli_report("3");
    let out = daemon.client(&submit_args(&["--retries", "16", "--retry-base-ms", "10"]));
    assert!(
        out.status.success(),
        "client failed under chaos: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let served = String::from_utf8(out.stdout).expect("served report is UTF-8");
    assert_eq!(served, reference, "chaos changed the served bytes");
    // The injected faults are visible in /stats: the run was not clean.
    let stats = daemon.stats(&["--retries", "16", "--retry-base-ms", "10"]);
    let injected: u64 = ["torn", "reset", "disconnect"]
        .iter()
        .map(|k| counter(&stats, &["chaos", "wire", k]))
        .sum();
    assert!(injected > 0, "no wire faults actually injected: {stats:?}");
    drop(daemon);
    let _ = std::fs::remove_dir_all(spool);
}

/// `kill -9` while disk chaos corrupts and tears checkpoint records: the
/// restarted (clean) daemon skips damaged records, recomputes those
/// cells, and still serves the exact CLI bytes.
#[test]
fn kill_dash_nine_under_disk_chaos_still_resumes_byte_identical() {
    let spool = tmp_dir("chaosdisk");
    let reference = cli_report("2");
    let daemon = Daemon::start(
        &spool,
        &["--workers", "1", "--chaos", "ckpt-corrupt=0.5,ckpt-short=0.3", "--chaos-seed", "777"],
    );
    let out = daemon.client(&submit_args(&["--no-wait"]));
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let job = String::from_utf8(out.stdout).unwrap().trim().to_string();
    // Let several (possibly damaged) records land, then SIGKILL.
    let ckpt = spool.join(format!("{job}.ckpt"));
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        // Lossy read: chaos corruption can make the spool non-UTF-8.
        let ends = std::fs::read(&ckpt)
            .map(|b| String::from_utf8_lossy(&b).lines().filter(|l| l.starts_with("end ")).count())
            .unwrap_or(0);
        if ends >= 2 {
            break;
        }
        assert!(Instant::now() < deadline, "no cells checkpointed within 60s");
        std::thread::sleep(Duration::from_millis(30));
    }
    drop(daemon); // SIGKILL
                  // Restart with chaos off: the loader faces the damaged spool.
    let daemon = Daemon::start(&spool, &["--workers", "1"]);
    let out = daemon.client(&["report", &job]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let served = String::from_utf8(out.stdout).unwrap();
    assert_eq!(served, reference, "resumed-after-disk-chaos report differs from the CLI bytes");
    counter(&daemon.stats(&[]), &["cells", "skipped_records"]);
    drop(daemon);
    let _ = std::fs::remove_dir_all(spool);
}

/// SIGTERM drains gracefully: the running cell finishes and checkpoints,
/// the process exits 0, and a restart completes the job byte-identically.
#[cfg(unix)]
#[test]
fn sigterm_drains_gracefully_and_a_restart_completes_the_job() {
    let spool = tmp_dir("drain");
    let reference = cli_report("2");
    let mut daemon = Daemon::start(&spool, &["--workers", "1"]);
    let out = daemon.client(&submit_args(&["--no-wait"]));
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let job = String::from_utf8(out.stdout).unwrap().trim().to_string();
    // Wait until the job is underway, then ask for a graceful stop.
    let ckpt = spool.join(format!("{job}.ckpt"));
    let deadline = Instant::now() + Duration::from_secs(60);
    while !ckpt.exists() {
        assert!(Instant::now() < deadline, "job never started within 60s");
        std::thread::sleep(Duration::from_millis(30));
    }
    let kill = Command::new("kill")
        .args(["-TERM", &daemon.child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(kill.success(), "kill -TERM failed");
    let status = daemon.child.wait().expect("wait for drained daemon");
    assert_eq!(status.code(), Some(0), "drain must exit 0, got {status:?}");
    // The drained spool resumes cleanly and the job completes.
    let daemon = Daemon::start(&spool, &["--workers", "1"]);
    let out = daemon.client(&["report", &job]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let served = String::from_utf8(out.stdout).unwrap();
    assert_eq!(served, reference, "post-drain report differs from the CLI bytes");
    drop(daemon);
    let _ = std::fs::remove_dir_all(spool);
}
