//! `fgdram-client` — command-line client for the `fgdram-serve` daemon.
//!
//! ```text
//! fgdram-client submit --suite compute|graphics [--addr HOST:PORT]
//!               [--tenant NAME] [--warmup NS] [--window NS]
//!               [--max-workloads N] [--telemetry PATH] [--epoch NS]
//!               [--no-wait] [--job-key KEY]
//!               [--retries N] [--retry-base-ms N] [--deadline-ms N]
//! fgdram-client status  JOB [--addr HOST:PORT] [retry flags]
//! fgdram-client report  JOB [--addr HOST:PORT] [retry flags]
//! fgdram-client cancel  JOB [--addr HOST:PORT] [retry flags]
//! fgdram-client stats       [--addr HOST:PORT] [retry flags]
//! ```
//!
//! `submit` waits for the job: telemetry (when requested) streams into
//! `--telemetry PATH` as epochs arrive, then the final report — the
//! exact bytes `fgdram_sim suite` would print — goes to stdout.
//!
//! Transient failures retry automatically: connection errors, torn
//! responses, 408 (server read deadline), 429 (overload shed; the
//! `Retry-After` hint is honoured) and 503 retry with exponential
//! backoff plus jitter, up to `--retries` attempts (default 4) within
//! the optional `--deadline-ms` total budget. Resubmission is safe
//! because every retried submit carries the same `X-Job-Key`
//! idempotency key (auto-generated unless `--job-key` pins one): a
//! duplicate submit re-attaches to the original job instead of running
//! it twice. `--retries 0` disables all retrying.
//!
//! Exit codes mirror a local `fgdram_sim` run where one exists:
//! simulation failures keep their codes 3-7, and the serving layer adds
//! 6 (transport/timeout), 8 (over budget), 9 (backpressure/overload or
//! daemon shutdown) and 10 (job cancelled). Usage errors exit 2.

use std::fs::File;
use std::io::{self, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fgdram_model::json;
use fgdram_model::rng::SmallRng;
use fgdram_serve::http;

const DEFAULT_ADDR: &str = "127.0.0.1:7733";
const DEFAULT_RETRIES: u32 = 4;
const DEFAULT_BASE_MS: u64 = 100;
/// Backoff sleeps never exceed this, whatever `Retry-After` says.
const MAX_BACKOFF_MS: u64 = 5_000;

const USAGE: &str = "usage: fgdram-client <submit|status|report|cancel|stats> [args] \
                     [--addr HOST:PORT] [--retries N] [--retry-base-ms N] [--deadline-ms N] \
                     (see --help per command)";

fn fail_usage(msg: &str) -> ExitCode {
    eprintln!("fgdram-client: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn fail_io(context: &str, e: &io::Error) -> ExitCode {
    eprintln!("fgdram-client: {context}: {e}");
    ExitCode::from(6)
}

/// Reports a non-2xx response on stderr and converts it to the typed
/// exit code carried in the error body.
fn fail_http(context: &str, status: u16, body: &[u8]) -> ExitCode {
    let body = String::from_utf8_lossy(body);
    eprintln!("fgdram-client: {context}: HTTP {status}: {}", body.trim_end());
    let code = json::parse(&body)
        .ok()
        .and_then(|v| v.get("error")?.get("exit_code")?.as_u64())
        .unwrap_or(if status < 500 { 2 } else { 1 });
    ExitCode::from(code.min(255) as u8)
}

/// Retry policy plus the mutable state one command invocation threads
/// through every request it makes (jitter stream, total deadline).
struct Retry {
    retries: u32,
    base_ms: u64,
    deadline: Option<Instant>,
    rng: SmallRng,
}

impl Retry {
    fn new(retries: u32, base_ms: u64, deadline_ms: u64) -> Retry {
        let now_ns = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        Retry {
            retries,
            base_ms: base_ms.max(1),
            deadline: (deadline_ms > 0)
                .then(|| Instant::now() + Duration::from_millis(deadline_ms)),
            // Wall-clock xor pid: retries only need *decorrelated* jitter
            // across concurrent clients, not reproducibility.
            rng: SmallRng::seed_from_u64(now_ns ^ (u64::from(std::process::id()) << 32)),
        }
    }

    /// The backoff sleep before retry number `attempt` (1-based):
    /// exponential in the attempt with up to 50% added jitter, floored
    /// by the server's `Retry-After` hint and capped at
    /// [`MAX_BACKOFF_MS`].
    fn delay(&mut self, attempt: u32, retry_after_s: Option<u64>) -> Duration {
        let exp = self.base_ms.saturating_mul(1u64 << attempt.min(10));
        let jitter = self.rng.random_range(0..exp / 2 + 1);
        let hinted = retry_after_s.map_or(0, |s| s.saturating_mul(1000));
        Duration::from_millis(exp.saturating_add(jitter).max(hinted).min(MAX_BACKOFF_MS))
    }

    /// `true` if a sleep of `d` still fits inside the total deadline.
    fn fits(&self, d: Duration) -> bool {
        self.deadline.is_none_or(|dl| Instant::now() + d < dl)
    }
}

/// A fully-read response: status, body, and the server's `Retry-After`
/// hint in seconds.
struct Reply {
    status: u16,
    body: Vec<u8>,
    retry_after: Option<u64>,
}

impl Reply {
    fn read(resp: http::Response) -> io::Result<Reply> {
        let status = resp.status;
        let retry_after = resp.header("retry-after").and_then(|v| v.parse().ok());
        Ok(Reply { status, body: resp.into_body()?, retry_after })
    }
}

/// Whether a failed request is worth retrying: the three statuses the
/// server uses for transient conditions (read deadline, overload shed,
/// shutting down). Transport errors always retry — the job key makes
/// resubmission idempotent.
fn retryable_status(status: u16) -> bool {
    matches!(status, 408 | 429 | 503)
}

/// Runs `attempt` — one request named `what` in log lines — retrying
/// transient failures per the [`Retry`] policy. Non-retryable HTTP
/// errors come back as an `Ok` reply for the caller's normal handling;
/// `Err` means the transport failed on every attempt.
fn retrying(
    r: &mut Retry,
    what: &str,
    mut attempt: impl FnMut() -> io::Result<Reply>,
) -> io::Result<Reply> {
    let mut n = 0u32;
    loop {
        let (why, retry_after) = match attempt() {
            Ok(reply) if !retryable_status(reply.status) || n >= r.retries => return Ok(reply),
            Ok(reply) => (format!("HTTP {}", reply.status), reply.retry_after),
            Err(e) if n >= r.retries => return Err(e),
            Err(e) => (e.to_string(), None),
        };
        n += 1;
        let d = r.delay(n, retry_after);
        if !r.fits(d) {
            return Err(io::Error::other(format!(
                "deadline exhausted after {n} attempt(s); last failure: {why}"
            )));
        }
        eprintln!("fgdram-client: {what}: {why}; retry {n}/{} in {}ms", r.retries, d.as_millis());
        std::thread::sleep(d);
    }
}

/// Issues `method path` and reads the whole response, retrying as
/// [`retrying`] does.
fn fetch(
    r: &mut Retry,
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<Reply> {
    retrying(r, &format!("{method} {path}"), || {
        http::request(addr, method, path, headers, body).and_then(Reply::read)
    })
}

struct Common {
    addr: String,
    retry: Retry,
    /// The other arguments, in order: positionals and command flags.
    rest: Vec<String>,
}

/// Takes `--addr` and the retry flags (each with its value) out of
/// `args`, passing everything else through.
fn parse_common(args: &[String]) -> Result<Common, String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut retries = DEFAULT_RETRIES;
    let mut base_ms = DEFAULT_BASE_MS;
    let mut deadline_ms = 0u64;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if !["--addr", "--retries", "--retry-base-ms", "--deadline-ms"].contains(&a.as_str()) {
            rest.push(a.clone());
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{a} {v}: {e}");
        match a.as_str() {
            "--addr" => addr = v.clone(),
            "--retries" => retries = v.parse().map_err(bad)?,
            "--retry-base-ms" => base_ms = v.parse().map_err(bad)?,
            _ => deadline_ms = v.parse().map_err(bad)?,
        }
    }
    Ok(Common { addr, retry: Retry::new(retries, base_ms, deadline_ms), rest })
}

fn print_reply(reply: Reply, context: &str) -> ExitCode {
    if (200..300).contains(&reply.status) {
        let mut out = std::io::stdout();
        let _ = out.write_all(&reply.body);
        let _ = out.flush();
        ExitCode::SUCCESS
    } else {
        fail_http(context, reply.status, &reply.body)
    }
}

fn simple(
    method: &str,
    needs_job: bool,
    path_of: impl Fn(&str) -> String,
    args: &[String],
) -> ExitCode {
    let mut c = match parse_common(args) {
        Ok(c) => c,
        Err(m) => return fail_usage(&m),
    };
    if let Some(flag) = c.rest.iter().find(|a| a.starts_with("--")) {
        return fail_usage(&format!("unknown flag {flag}"));
    }
    let path = if needs_job {
        match c.rest.as_slice() {
            [job] => path_of(job),
            _ => return fail_usage("expected exactly one JOB argument"),
        }
    } else {
        if !c.rest.is_empty() {
            return fail_usage("unexpected positional arguments");
        }
        path_of("")
    };
    match fetch(&mut c.retry, &c.addr, method, &path, &[], b"") {
        Ok(reply) => print_reply(reply, &path),
        Err(e) => fail_io(&format!("{method} {path} on {}", c.addr), &e),
    }
}

fn submit(args: &[String]) -> ExitCode {
    let Common { addr, mut retry, rest } = match parse_common(args) {
        Ok(c) => c,
        Err(m) => return fail_usage(&m),
    };
    let mut tenant: Option<String> = None;
    let mut suite: Option<String> = None;
    let mut spec_pairs: Vec<(String, String)> = Vec::new();
    let mut telemetry_path: Option<String> = None;
    let mut job_key: Option<String> = None;
    let mut wait = true;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if flag == "--no-wait" {
            wait = false;
            continue;
        }
        let Some(value) = it.next() else {
            return fail_usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--tenant" => tenant = Some(value.clone()),
            "--suite" => suite = Some(value.clone()),
            "--warmup" => spec_pairs.push(("warmup".into(), value.clone())),
            "--window" => spec_pairs.push(("window".into(), value.clone())),
            "--max-workloads" => spec_pairs.push(("max_workloads".into(), value.clone())),
            "--epoch" => spec_pairs.push(("epoch".into(), value.clone())),
            "--telemetry" => telemetry_path = Some(value.clone()),
            "--job-key" => job_key = Some(value.clone()),
            other => return fail_usage(&format!("unknown flag {other}")),
        }
    }
    let Some(suite) = suite else {
        return fail_usage("submit requires --suite compute|graphics");
    };
    // Resubmission is only safe with an idempotency key: if the first
    // submit succeeded but its response was lost, the retry must attach
    // to the existing job, not start a second one. Generate a key when
    // retries are possible and the caller did not pin one.
    let job_key = job_key.or_else(|| {
        (retry.retries > 0).then(|| format!("cli-{:016x}", retry.rng.random_range(0..u64::MAX)))
    });
    let mut body = format!("suite={suite}\n");
    for (k, v) in &spec_pairs {
        body.push_str(&format!("{k}={v}\n"));
    }
    if telemetry_path.is_some() {
        body.push_str("telemetry=1\n");
    }
    let mut headers: Vec<(&str, &str)> = Vec::new();
    if let Some(t) = &tenant {
        headers.push(("X-Tenant", t));
    }
    if let Some(k) = &job_key {
        headers.push(("X-Job-Key", k));
    }
    let reply = match fetch(&mut retry, &addr, "POST", "/jobs", &headers, body.as_bytes()) {
        Ok(r) => r,
        Err(e) => return fail_io(&format!("POST /jobs on {addr}"), &e),
    };
    // 201 is a fresh job; 200 means the idempotency key matched an
    // earlier submit (our own lost-response retry, typically) and we
    // re-attached to it.
    if reply.status != 201 && reply.status != 200 {
        return fail_http("submit", reply.status, &reply.body);
    }
    let submit_body = String::from_utf8_lossy(&reply.body).into_owned();
    let parsed = json::parse(&submit_body).unwrap_or(json::Value::Null);
    let Some(job) = parsed.get("job").and_then(json::Value::as_str) else {
        eprintln!("fgdram-client: malformed submit response: {submit_body}");
        return ExitCode::from(1);
    };
    let deduped = parsed.get("deduped") == Some(&json::Value::Bool(true));
    let attached = if deduped { " (deduped)" } else { "" };
    eprintln!("fgdram-client: submitted {job}{attached} ({})", submit_body.trim_end());
    if !wait {
        println!("{job}");
        return ExitCode::SUCCESS;
    }
    if let Some(path) = &telemetry_path {
        let tpath = format!("/jobs/{job}/telemetry");
        match stream_telemetry(&mut retry, &addr, &tpath, path) {
            Ok(code) if code != ExitCode::SUCCESS => return code,
            Ok(_) => {}
            Err(e) => return fail_io(&format!("GET {tpath}"), &e),
        }
    }
    let rpath = format!("/jobs/{job}/report");
    match fetch(&mut retry, &addr, "GET", &rpath, &[], b"") {
        Ok(reply) => print_reply(reply, "report"),
        Err(e) => fail_io(&format!("GET {rpath}"), &e),
    }
}

/// Streams telemetry to `out_path`, retrying the whole stream on a
/// mid-stream transport failure. Each attempt recreates the file, so a
/// torn stream never leaves a silently truncated telemetry log behind.
fn stream_telemetry(
    r: &mut Retry,
    addr: &str,
    tpath: &str,
    out_path: &str,
) -> io::Result<ExitCode> {
    let mut streamed = 0;
    let reply = retrying(r, &format!("GET {tpath}"), || {
        let resp = http::request(addr, "GET", tpath, &[], b"")?;
        if resp.status != 200 {
            return Reply::read(resp);
        }
        let mut file = File::create(out_path)?;
        // Chunks land in the file as epochs complete server-side.
        streamed = resp.stream_body(|chunk| file.write_all(chunk))?;
        Ok(Reply { status: 200, body: Vec::new(), retry_after: None })
    })?;
    if reply.status != 200 {
        return Ok(fail_http("telemetry", reply.status, &reply.body));
    }
    eprintln!("fgdram-client: telemetry: {streamed} bytes -> {out_path}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return fail_usage("missing command");
    };
    match cmd.as_str() {
        "submit" => submit(rest),
        "status" => simple("GET", true, |j| format!("/jobs/{j}"), rest),
        "report" => simple("GET", true, |j| format!("/jobs/{j}/report"), rest),
        "cancel" => simple("DELETE", true, |j| format!("/jobs/{j}"), rest),
        "stats" => simple("GET", false, |_| "/stats".to_string(), rest),
        "--help" | "-h" => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => fail_usage(&format!("unknown command '{other}'")),
    }
}
