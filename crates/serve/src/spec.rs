//! The wire job specification: the body of `POST /jobs`.
//!
//! A job spec is a short `key=value` text document (one pair per line;
//! blank lines and `#` comments ignored) that maps one-to-one onto
//! [`SuiteSpec`] — the same parameters `fgdram_sim suite` takes on the
//! command line, which is what makes the byte-identity gate meaningful:
//!
//! ```text
//! suite=compute
//! warmup=8000
//! window=30000
//! max_workloads=4
//! telemetry=1
//! epoch=1000
//! ```
//!
//! Unknown keys are rejected (a typo must not silently simulate something
//! else than asked — the same stance as the CLI's ignored-flag warnings),
//! and so is telemetry that would keep more than
//! [`fgdram_telemetry::MAX_EPOCHS`] epochs. The rules for the two headers
//! a submit carries beside the spec, tenant and idempotency key, live
//! here too: the spool loader applies all three to what it restores.

use fgdram_core::suite::{SuiteKind, SuiteSpec};
use fgdram_telemetry::check_epochs;

use crate::error::ServeError;

/// Default warmup when the spec omits it (matches the CLI default).
pub const DEFAULT_WARMUP: u64 = 20_000;
/// Default window when the spec omits it (matches the CLI default).
pub const DEFAULT_WINDOW: u64 = 100_000;
/// Default telemetry epoch when the spec omits it (matches the CLI).
pub const DEFAULT_EPOCH: u64 = 1_000;

/// Parses a job spec body into a [`SuiteSpec`].
///
/// # Errors
///
/// [`ServeError::BadRequest`] naming the offending line.
pub fn parse(body: &str) -> Result<SuiteSpec, ServeError> {
    let bad = |msg: String| ServeError::BadRequest(msg);
    let mut which = None;
    let mut warmup = DEFAULT_WARMUP;
    let mut window = DEFAULT_WINDOW;
    let mut max_workloads = None;
    let mut telemetry = false;
    let mut epoch = DEFAULT_EPOCH;
    for (ln, raw) in body.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line.split_once('=').ok_or_else(|| {
            bad(format!("spec line {}: expected key=value, got '{line}'", ln + 1))
        })?;
        let (key, value) = (key.trim(), value.trim());
        let num = |what: &str| -> Result<u64, ServeError> {
            value.parse::<u64>().map_err(|e| bad(format!("spec {what}={value}: {e}")))
        };
        match key {
            "suite" => {
                which =
                    Some(SuiteKind::parse(value).ok_or_else(|| {
                        bad(format!("unknown suite '{value}' (compute|graphics)"))
                    })?)
            }
            "warmup" => warmup = num("warmup")?,
            "window" => window = num("window")?,
            "max_workloads" => max_workloads = Some(num("max_workloads")? as usize),
            "telemetry" => {
                telemetry = match value {
                    "1" | "true" => true,
                    "0" | "false" => false,
                    _ => return Err(bad(format!("spec telemetry={value}: expected 0|1"))),
                }
            }
            "epoch" => {
                epoch = num("epoch")?;
                if epoch == 0 {
                    return Err(bad("spec epoch must be >= 1 ns".to_string()));
                }
            }
            other => return Err(bad(format!("unknown spec key '{other}'"))),
        }
    }
    let which = which.ok_or_else(|| bad("spec missing 'suite=' key".to_string()))?;
    if window == 0 {
        return Err(bad("spec window must be >= 1 ns".to_string()));
    }
    let spec = SuiteSpec {
        which,
        warmup,
        window,
        max_workloads,
        telemetry_epoch: telemetry.then_some(epoch),
    };
    if telemetry {
        check_epochs(spec.cell_count(), epoch, window).map_err(|e| bad(format!("spec {e}")))?;
    }
    Ok(spec)
}

/// The tenant name rule (`X-Tenant`): 1–64 ASCII alphanumerics, `-` or
/// `_`, so a tenant always renders into JSON and log lines unescaped.
///
/// # Errors
///
/// [`ServeError::BadRequest`] naming the tenant.
pub(crate) fn check_tenant(t: &str) -> Result<(), ServeError> {
    let ok = !t.is_empty()
        && t.len() <= 64
        && t.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
    ok.then_some(()).ok_or_else(|| ServeError::BadRequest(format!("invalid tenant name '{t}'")))
}

/// The idempotency key rule (`X-Job-Key`): 1–128 printable ASCII
/// characters or spaces.
///
/// # Errors
///
/// [`ServeError::BadRequest`] naming the key.
pub(crate) fn check_job_key(k: &str) -> Result<(), ServeError> {
    let ok = !k.is_empty() && k.len() <= 128 && k.chars().all(|c| c.is_ascii_graphic() || c == ' ');
    ok.then_some(()).ok_or_else(|| ServeError::BadRequest(format!("invalid job key '{k}'")))
}

/// Renders a spec back to the canonical wire form (used for spooling; a
/// parse/render round trip is the identity on the canonical form).
pub fn render(spec: &SuiteSpec) -> String {
    let mut out =
        format!("suite={}\nwarmup={}\nwindow={}\n", spec.which.label(), spec.warmup, spec.window);
    if let Some(n) = spec.max_workloads {
        out.push_str(&format!("max_workloads={n}\n"));
    }
    if let Some(e) = spec.telemetry_epoch {
        out.push_str(&format!("telemetry=1\nepoch={e}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec_and_round_trips() {
        let body = "suite=compute\nwarmup=2000\nwindow=9000\nmax_workloads=3\n\
                    telemetry=1\nepoch=500\n";
        let spec = parse(body).expect("valid spec");
        assert_eq!(spec.which, SuiteKind::Compute);
        assert_eq!((spec.warmup, spec.window), (2000, 9000));
        assert_eq!(spec.max_workloads, Some(3));
        assert_eq!(spec.telemetry_epoch, Some(500));
        let spec2 = parse(&render(&spec)).expect("canonical form re-parses");
        assert_eq!(spec, spec2);
    }

    #[test]
    fn defaults_match_the_cli() {
        let spec = parse("suite=graphics\n# comment\n\n").expect("minimal spec");
        assert_eq!(spec.which, SuiteKind::Graphics);
        assert_eq!((spec.warmup, spec.window), (DEFAULT_WARMUP, DEFAULT_WINDOW));
        assert_eq!(spec.max_workloads, None);
        assert_eq!(spec.telemetry_epoch, None);
    }

    #[test]
    fn rejects_junk_with_typed_errors() {
        for body in [
            "warmup=5",                                                               // no suite
            "suite=vector",                   // unknown suite
            "suite=compute\nflavour=mint",    // unknown key
            "suite=compute\nwarmup=abc",      // bad number
            "suite=compute\ntelemetry=maybe", // bad bool
            "suite=compute\nepoch=0",         // zero epoch
            "suite=compute\nwindow=0",        // zero window
            "suite=compute\nnonsense",        // not key=value
            "suite=compute\nmax_workloads=1\nwindow=999999999\ntelemetry=1\nepoch=1", // epochs
        ] {
            let err = parse(body).expect_err(body);
            assert_eq!(err.code(), "bad-request", "{body}");
        }
    }

    #[test]
    fn telemetry_epochs_are_bounded() {
        let body =
            |w: u64| format!("suite=compute\nmax_workloads=1\nwindow={w}\ntelemetry=1\nepoch=1");
        // Two cells, so half the limit per cell is the last window admitted.
        let at = fgdram_telemetry::MAX_EPOCHS / 2;
        assert!(parse(&body(at)).is_ok());
        assert_eq!(parse(&body(at + 1)).unwrap_err().code(), "bad-request");
        assert!(parse("suite=graphics\ntelemetry=1\n").is_ok(), "full suite at the defaults");
        assert!(parse("suite=compute\nwindow=999999999\nepoch=1\n").is_ok(), "no telemetry");
    }
}
