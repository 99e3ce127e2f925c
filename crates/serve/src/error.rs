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
//! [`WireError`] is the one wire form of a failure: the JSON error body
//! is rendered from it, the spool persists it, and a failed job holds it.

use fgdram_core::SimError;
use fgdram_model::json;
use fgdram_model::kv::KvError;

/// A serving-layer failure.
#[derive(Debug)]
pub enum ServeError {
    /// Malformed request or job spec. HTTP 400.
    BadRequest(String),
    /// Unknown job id or route. HTTP 404.
    NotFound(String),
    /// The bounded global queue cannot take this job's cells. HTTP 429.
    QueueFull {
        /// Cells the job would add.
        cells: usize,
        /// Cells already queued.
        queued: usize,
        /// The global queue bound.
        limit: usize,
    },
    /// The tenant is at its in-flight job cap. HTTP 429.
    Quota {
        /// The submitting tenant.
        tenant: String,
        /// Jobs the tenant already has in flight.
        inflight: usize,
        /// The per-tenant cap.
        limit: usize,
    },
    /// The job's cells x simulated-ns cost exceeds the per-job budget.
    /// HTTP 422.
    Budget {
        /// The job's cost in cells x simulated-ns.
        cost: u64,
        /// The per-job budget.
        limit: u64,
    },
    /// The queue-wait budget is exhausted: the backlog's simulated-ns
    /// cost exceeds the shed threshold, so admitting more work would
    /// only grow latency. HTTP 429 with a `Retry-After` hint.
    Overloaded {
        /// Simulated-ns cost already queued.
        queued_cost: u64,
        /// The shed threshold in simulated-ns.
        limit: u64,
        /// The `Retry-After` hint in seconds.
        retry_after_s: u64,
    },
    /// The connection idled past the read or write deadline (slow-loris
    /// style). HTTP 408.
    Timeout(String),
    /// The job was cancelled before completing. HTTP 409.
    Canceled,
    /// The daemon is shutting down. HTTP 503.
    ShuttingDown,
    /// A cell simulation failed; carries the typed core error. HTTP 500.
    Sim(SimError),
}

impl ServeError {
    /// The stable machine-readable code string for the JSON error body.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::BadRequest(_) => "bad-request",
            ServeError::NotFound(_) => "not-found",
            ServeError::QueueFull { .. } => "queue-full",
            ServeError::Quota { .. } => "quota",
            ServeError::Budget { .. } => "budget",
            ServeError::Overloaded { .. } => "overloaded",
            ServeError::Timeout(_) => "timeout",
            ServeError::Canceled => "canceled",
            ServeError::ShuttingDown => "shutting-down",
            ServeError::Sim(e) => match e {
                SimError::Config(_) => "config",
                SimError::Protocol(_) => "protocol",
                SimError::Stall { .. } => "stall",
                SimError::Io { .. } => "io",
                SimError::FaultStorm { .. } => "fault-storm",
            },
        }
    }

    /// The process exit code `fgdram-client` uses for this failure.
    /// Simulation errors keep their `fgdram_sim` codes (3-7); serving
    /// rejects use 8 (budget) and 9 (queue/quota backpressure), and 10
    /// means the job was cancelled.
    pub fn client_exit_code(&self) -> u8 {
        match self {
            ServeError::BadRequest(_) | ServeError::NotFound(_) => 2,
            ServeError::Budget { .. } => 8,
            ServeError::QueueFull { .. } | ServeError::Quota { .. } => 9,
            ServeError::Overloaded { .. } => 9,
            ServeError::Timeout(_) => 6,
            ServeError::Canceled => 10,
            ServeError::ShuttingDown => 9,
            ServeError::Sim(e) => e.exit_code(),
        }
    }

    /// Extra response headers this error carries (today: `Retry-After`
    /// on overload rejects, so well-behaved clients pace their retries).
    pub fn extra_headers(&self) -> Vec<(String, String)> {
        match self {
            ServeError::Overloaded { retry_after_s, .. } => {
                vec![("Retry-After".to_string(), retry_after_s.to_string())]
            }
            _ => Vec::new(),
        }
    }
}

/// A failure in wire form — the three fields of the JSON error body,
/// which are also exactly what the spool's `failed` marker persists (the
/// original [`SimError`] cannot be reconstructed after a restart).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The stable error code string (e.g. `stall`).
    pub code: String,
    /// The exit code `fgdram-client` uses — for simulation failures, what
    /// a local `fgdram_sim` run would have exited with.
    pub exit_code: u8,
    /// Human-readable message.
    pub message: String,
}

impl WireError {
    /// The HTTP status this error maps to. Keyed on the code string,
    /// which is all that survives of an error replayed from the spool.
    pub fn http_status(&self) -> u16 {
        match self.code.as_str() {
            // A config error in a cell means the spec validated but the
            // simulation rejected it — still the client's input.
            "bad-request" | "config" => 400,
            "not-found" => 404,
            "timeout" => 408,
            "canceled" => 409,
            "budget" => 422,
            "queue-full" | "quota" | "overloaded" => 429,
            "shutting-down" => 503,
            _ => 500,
        }
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

impl From<&ServeError> for WireError {
    fn from(e: &ServeError) -> Self {
        WireError {
            code: e.code().to_string(),
            exit_code: e.client_exit_code(),
            message: e.to_string(),
        }
    }
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::NotFound(m) => write!(f, "not found: {m}"),
            ServeError::QueueFull { cells, queued, limit } => write!(
                f,
                "queue full: job needs {cells} cells but {queued}/{limit} are already queued"
            ),
            ServeError::Quota { tenant, inflight, limit } => write!(
                f,
                "tenant '{tenant}' at in-flight quota ({inflight}/{limit} jobs); retry later"
            ),
            ServeError::Budget { cost, limit } => {
                write!(f, "job cost {cost} cells x simulated-ns exceeds the per-job budget {limit}")
            }
            ServeError::Overloaded { queued_cost, limit, retry_after_s } => write!(
                f,
                "overloaded: {queued_cost} simulated-ns queued exceeds the {limit} shed \
                 budget; retry in ~{retry_after_s}s"
            ),
            ServeError::Timeout(m) => write!(f, "connection deadline exceeded: {m}"),
            ServeError::Canceled => write!(f, "job cancelled"),
            ServeError::ShuttingDown => write!(f, "daemon shutting down"),
            ServeError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        ServeError::Sim(e)
    }
}

/// A refused job spec item is the client's mistake.
impl From<KvError> for ServeError {
    fn from(e: KvError) -> Self {
        ServeError::BadRequest(format!("job spec: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_statuses_and_exit_codes_are_consistent() {
        let cases: Vec<(ServeError, &str, u16, u8)> = vec![
            (ServeError::BadRequest("x".into()), "bad-request", 400, 2),
            (ServeError::NotFound("j9".into()), "not-found", 404, 2),
            (ServeError::QueueFull { cells: 8, queued: 100, limit: 100 }, "queue-full", 429, 9),
            (ServeError::Quota { tenant: "t".into(), inflight: 4, limit: 4 }, "quota", 429, 9),
            (ServeError::Budget { cost: 10, limit: 5 }, "budget", 422, 8),
            (
                ServeError::Overloaded { queued_cost: 9, limit: 5, retry_after_s: 2 },
                "overloaded",
                429,
                9,
            ),
            (ServeError::Timeout("read".into()), "timeout", 408, 6),
            (ServeError::Canceled, "canceled", 409, 10),
        ];
        for (e, code, status, exit) in cases {
            assert_eq!(e.code(), code);
            assert_eq!(e.client_exit_code(), exit);
            let wire = WireError::from(&e);
            assert_eq!(wire.http_status(), status);
            let body = wire.json_body();
            assert!(body.contains(&format!("\"code\":\"{code}\"")), "{body}");
        }
    }

    #[test]
    fn sim_errors_keep_their_core_exit_codes() {
        let e = ServeError::from(SimError::Stall { at: 1, pending: 2, idle_ns: 3, bound: 4 });
        assert_eq!(e.code(), "stall");
        assert_eq!(e.client_exit_code(), 5);
        let wire = WireError::from(&e);
        assert_eq!(wire.http_status(), 500);
        let body = wire.json_body();
        assert!(body.contains("\"exit_code\":5"), "{body}");
    }

    #[test]
    fn overload_carries_a_retry_after_header() {
        let e = ServeError::Overloaded { queued_cost: 100, limit: 50, retry_after_s: 7 };
        assert_eq!(e.extra_headers(), vec![("Retry-After".to_string(), "7".to_string())]);
        assert!(ServeError::Canceled.extra_headers().is_empty());
    }

    #[test]
    fn json_body_escapes_messages() {
        let e = ServeError::BadRequest("a\"b\nc".into());
        assert_eq!(
            WireError::from(&e).json_body(),
            "{\"error\":{\"code\":\"bad-request\",\"exit_code\":2,\
             \"message\":\"bad request: a\\\"b\\nc\"}}\n"
        );
    }
}
