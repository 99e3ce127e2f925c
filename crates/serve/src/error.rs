//! The serving error taxonomy: every way a job can be refused or die,
//! mapped onto the wire as an HTTP status + a typed JSON body, and onto
//! `fgdram-client` exit codes.
//!
//! Simulation failures reuse the [`SimError`] taxonomy from the core
//! crate unchanged — a client sees the same `exit_code` (3-7) it would
//! have seen running `fgdram_sim` locally — and the serving layer adds
//! the admission/lifecycle outcomes a shared daemon introduces (queue
//! full, quota, budget, cancel). Every error carries a stable short
//! `code` string so scripts can dispatch without parsing messages.
//!
//! [`WireError`] is the one error type: the JSON error body is rendered
//! from it, the spool persists it, and a failed job holds it. Each class
//! is one row of the class table `CLASSES` (code, HTTP status, client
//! exit code) and one constructor that writes its message.

use core::fmt;

use fgdram_core::SimError;
use fgdram_model::json;
use fgdram_model::kv::KvError;

/// Every error class, once: its wire code, HTTP status and
/// `fgdram-client` exit code. Simulation classes keep their `fgdram_sim`
/// exit codes (3-7); serving rejects use 8 (budget) and 9 (backpressure),
/// and 10 means the job was cancelled. A code not listed here (only a
/// hand-edited spool marker can carry one) answers 500.
pub(crate) const CLASSES: [(&str, u16, u8); 14] = [
    ("bad-request", 400, 2),
    ("not-found", 404, 2),
    ("timeout", 408, 6),
    ("canceled", 409, 10),
    ("budget", 422, 8),
    ("queue-full", 429, 9),
    ("quota", 429, 9),
    ("overloaded", 429, 9),
    ("shutting-down", 503, 9),
    // A config error in a cell means the spec validated but the
    // simulation rejected it — still the client's input.
    ("config", 400, 3),
    ("protocol", 500, 4),
    ("stall", 500, 5),
    ("io", 500, 6),
    ("fault-storm", 500, 7),
];

/// A serving failure in wire form. `code`, `exit_code` and `message` are
/// the three fields of the JSON error body, which are also exactly what
/// the spool's `failed` marker persists (the original [`SimError`]
/// cannot be reconstructed after a restart).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The stable error code string (e.g. `stall`).
    pub code: String,
    /// The exit code `fgdram-client` uses — for simulation failures, what
    /// a local `fgdram_sim` run would have exited with.
    pub exit_code: u8,
    /// Human-readable message.
    pub message: String,
    /// The `Retry-After` hint in seconds (overload rejects only, so
    /// well-behaved clients pace their retries).
    pub retry_after_s: Option<u64>,
}

impl WireError {
    /// An error of the listed class `code`.
    fn new(code: &'static str, message: String) -> WireError {
        let (_, _, exit_code) = CLASSES.iter().find(|c| c.0 == code).expect("a listed class");
        WireError { code: code.to_string(), exit_code: *exit_code, message, retry_after_s: None }
    }

    /// Malformed request or job spec.
    pub fn bad_request(m: impl fmt::Display) -> WireError {
        WireError::new("bad-request", format!("bad request: {m}"))
    }

    /// Unknown job id or route.
    pub fn not_found(m: impl fmt::Display) -> WireError {
        WireError::new("not-found", format!("not found: {m}"))
    }

    /// The connection idled past the read or write deadline (slow-loris
    /// style), or was torn mid-request.
    pub fn timeout(m: impl fmt::Display) -> WireError {
        WireError::new("timeout", format!("connection deadline exceeded: {m}"))
    }

    /// The job was cancelled before completing.
    pub fn canceled() -> WireError {
        WireError::new("canceled", "job cancelled".to_string())
    }

    /// The job's cells x simulated-ns `cost` exceeds the per-job budget.
    pub fn budget(cost: u64, limit: u64) -> WireError {
        let m = format!("job cost {cost} cells x simulated-ns exceeds the per-job budget {limit}");
        WireError::new("budget", m)
    }

    /// The bounded global queue cannot take this job's `cells`.
    pub fn queue_full(cells: usize, queued: usize, limit: usize) -> WireError {
        let m =
            format!("queue full: job needs {cells} cells but {queued}/{limit} are already queued");
        WireError::new("queue-full", m)
    }

    /// The tenant is at its in-flight job cap.
    pub fn quota(tenant: &str, inflight: usize, limit: usize) -> WireError {
        let m =
            format!("tenant '{tenant}' at in-flight quota ({inflight}/{limit} jobs); retry later");
        WireError::new("quota", m)
    }

    /// The queued simulated-ns backlog exceeds the shed threshold, so
    /// admitting more work would only grow latency; retry in
    /// `retry_after_s`.
    pub fn overloaded(queued_cost: u64, limit: u64, retry_after_s: u64) -> WireError {
        let m = format!(
            "overloaded: {queued_cost} simulated-ns queued exceeds the {limit} shed budget; \
             retry in ~{retry_after_s}s"
        );
        WireError { retry_after_s: Some(retry_after_s), ..WireError::new("overloaded", m) }
    }

    /// The daemon is shutting down.
    pub fn shutting_down() -> WireError {
        WireError::new("shutting-down", "daemon shutting down".to_string())
    }

    /// The HTTP status this error maps to. Keyed on the code string,
    /// which is all that survives of an error replayed from the spool.
    pub fn http_status(&self) -> u16 {
        CLASSES.iter().find(|c| c.0 == self.code).map_or(500, |c| c.1)
    }

    /// Renders the typed JSON error body:
    /// `{"error":{"code":...,"exit_code":N,"message":...}}`.
    pub fn json_body(&self) -> String {
        json::body(|o| {
            o.object("error", |o| {
                o.str("code", &self.code)
                    .u64("exit_code", self.exit_code.into())
                    .str("message", &self.message);
            });
        })
    }
}

/// A failed cell: the core error's class and message.
impl From<SimError> for WireError {
    fn from(e: SimError) -> Self {
        let code = match e {
            SimError::Config(_) => "config",
            SimError::Protocol(_) => "protocol",
            SimError::Stall { .. } => "stall",
            SimError::Io { .. } => "io",
            SimError::FaultStorm { .. } => "fault-storm",
        };
        WireError::new(code, e.to_string())
    }
}

/// A refused job spec item is the client's mistake.
impl From<KvError> for WireError {
    fn from(e: KvError) -> Self {
        WireError::bad_request(format_args!("job spec: {e}"))
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;
    use fgdram_dram::{ProtocolError, Rule};
    use fgdram_model::cmd::{BankRef, DramCommand};
    use fgdram_model::config::ConfigError;

    /// The status line, `Retry-After` value and body `e` is answered with.
    fn answer(e: &WireError) -> (String, Option<String>, String) {
        let mut out = Vec::new();
        crate::http::write_error(&mut out, e).unwrap();
        let out = String::from_utf8(out).unwrap();
        let (head, body) = out.split_once("\r\n\r\n").expect("a response head");
        let retry_after =
            head.lines().find_map(|l| l.strip_prefix("Retry-After: ")).map(str::to_string);
        (head.lines().next().unwrap().to_string(), retry_after, body.to_string())
    }

    /// Every error class, pinned whole: status line, `Retry-After` and
    /// the JSON body with its code, client exit code and message.
    #[test]
    fn codes_statuses_and_exit_codes_are_consistent() {
        let protocol = ProtocolError {
            cmd: DramCommand::Activate { bank: BankRef { channel: 3, bank: 1 }, row: 7, slice: 0 },
            at: 40,
            rule: Rule::ActRrd,
            earliest: Some(42),
        };
        let cases: Vec<(WireError, &str, Option<&str>, &str)> = vec![
            (
                WireError::bad_request("x"),
                "400 Bad Request",
                None,
                r#"{"error":{"code":"bad-request","exit_code":2,"message":"bad request: x"}}"#,
            ),
            (
                WireError::not_found("j9"),
                "404 Not Found",
                None,
                r#"{"error":{"code":"not-found","exit_code":2,"message":"not found: j9"}}"#,
            ),
            (
                WireError::queue_full(8, 100, 100),
                "429 Too Many Requests",
                None,
                r#"{"error":{"code":"queue-full","exit_code":9,"message":"queue full: job needs 8 cells but 100/100 are already queued"}}"#,
            ),
            (
                WireError::quota("t", 4, 4),
                "429 Too Many Requests",
                None,
                r#"{"error":{"code":"quota","exit_code":9,"message":"tenant 't' at in-flight quota (4/4 jobs); retry later"}}"#,
            ),
            (
                WireError::budget(10, 5),
                "422 Unprocessable Entity",
                None,
                r#"{"error":{"code":"budget","exit_code":8,"message":"job cost 10 cells x simulated-ns exceeds the per-job budget 5"}}"#,
            ),
            (
                WireError::overloaded(9, 5, 2),
                "429 Too Many Requests",
                Some("2"),
                r#"{"error":{"code":"overloaded","exit_code":9,"message":"overloaded: 9 simulated-ns queued exceeds the 5 shed budget; retry in ~2s"}}"#,
            ),
            (
                WireError::timeout("read"),
                "408 Request Timeout",
                None,
                r#"{"error":{"code":"timeout","exit_code":6,"message":"connection deadline exceeded: read"}}"#,
            ),
            (
                WireError::canceled(),
                "409 Conflict",
                None,
                r#"{"error":{"code":"canceled","exit_code":10,"message":"job cancelled"}}"#,
            ),
            (
                WireError::shutting_down(),
                "503 Service Unavailable",
                None,
                r#"{"error":{"code":"shutting-down","exit_code":9,"message":"daemon shutting down"}}"#,
            ),
            (
                WireError::from(SimError::Config(ConfigError::NotPowerOfTwo {
                    name: "channels",
                    value: 3,
                })),
                "400 Bad Request",
                None,
                r#"{"error":{"code":"config","exit_code":3,"message":"configuration error: channels must be a nonzero power of two, got 3"}}"#,
            ),
            (
                WireError::from(SimError::Protocol(protocol)),
                "500 Internal Server Error",
                None,
                r#"{"error":{"code":"protocol","exit_code":4,"message":"protocol violation: at 40 ns: Activate { bank: BankRef { channel: 3, bank: 1 }, row: 7, slice: 0 }: activate violates tRRD (legal from 42 ns)"}}"#,
            ),
            (
                WireError::from(SimError::Stall { at: 9, pending: 2, idle_ns: 7, bound: 5 }),
                "500 Internal Server Error",
                None,
                r#"{"error":{"code":"stall","exit_code":5,"message":"no forward progress for 7 ns at t=9 ns (2 items outstanding; watchdog bound 5 ns)"}}"#,
            ),
            (
                WireError::from(SimError::Io {
                    context: "spool j1".into(),
                    source: std::io::Error::other("disk full"),
                }),
                "500 Internal Server Error",
                None,
                r#"{"error":{"code":"io","exit_code":6,"message":"I/O error (spool j1): disk full"}}"#,
            ),
            (
                WireError::from(SimError::FaultStorm {
                    at: 1,
                    dues: 9,
                    excluded: 2,
                    max_excluded: 2,
                }),
                "500 Internal Server Error",
                None,
                r#"{"error":{"code":"fault-storm","exit_code":7,"message":"unrecoverable fault storm at t=1 ns: 9 uncorrectable errors, and excluding another grain would exceed the cap (2/2 already excluded)"}}"#,
            ),
        ];
        for (e, status, retry_after, body) in cases {
            let got = answer(&e);
            assert_eq!(
                (got.0.as_str(), got.1.as_deref(), got.2.as_str()),
                (format!("HTTP/1.1 {status}").as_str(), retry_after, format!("{body}\n").as_str()),
            );
        }
    }

    #[test]
    fn sim_errors_keep_their_core_exit_codes() {
        let protocol = ProtocolError {
            cmd: DramCommand::Precharge {
                bank: BankRef { channel: 0, bank: 0 },
                row: None,
                slice: 0,
            },
            at: 1,
            rule: Rule::ActRrd,
            earliest: None,
        };
        for sim in [
            SimError::Config(ConfigError::NotPowerOfTwo { name: "banks", value: 5 }),
            SimError::Protocol(protocol),
            SimError::Stall { at: 1, pending: 2, idle_ns: 3, bound: 4 },
            SimError::Io { context: "x".into(), source: std::io::Error::other("y") },
            SimError::FaultStorm { at: 1, dues: 2, excluded: 3, max_excluded: 3 },
        ] {
            let exit = sim.exit_code();
            assert_eq!(WireError::from(sim).exit_code, exit, "the CLASSES row and SimError agree");
        }
        // A code the table does not list (a hand-edited spool marker)
        // answers 500.
        let replayed = WireError { code: "internal".into(), ..WireError::canceled() };
        assert_eq!(replayed.http_status(), 500);
    }

    #[test]
    fn overload_carries_a_retry_after_header() {
        assert_eq!(WireError::overloaded(100, 50, 7).retry_after_s, Some(7));
        assert_eq!(WireError::canceled().retry_after_s, None);
    }

    #[test]
    fn json_body_escapes_messages() {
        assert_eq!(
            WireError::bad_request("a\"b\nc").json_body(),
            "{\"error\":{\"code\":\"bad-request\",\"exit_code\":2,\
             \"message\":\"bad request: a\\\"b\\nc\"}}\n"
        );
    }
}
