//! Job spooling: per-cell checkpoints that survive a daemon kill — and,
//! since v2, survive a *lying disk*.
//!
//! Every completed cell is appended to `<spool>/<job>.ckpt` — the cell's
//! [`SimReport`] (floats as exact IEEE-754 bit patterns, so a resumed
//! job renders byte-identical output) plus its pre-rendered telemetry
//! JSONL. A restarted daemon reloads every unfinished spool file,
//! restores the completed cells, and re-enqueues only the missing ones.
//!
//! The format is line-based and append-only. Each cell record closes
//! with an `end <index> <crc32>` line whose checksum covers the whole
//! record body, so the loader can tell three failure shapes apart:
//!
//! - **truncated** (kill -9 or a short write mid-append): the record is
//!   structurally incomplete — skipped, the cell re-runs;
//! - **corrupted** (bit rot, torn sector): the record parses but its CRC
//!   disagrees — skipped, the cell re-runs. Without the CRC a flipped
//!   digit inside a float's hex bit pattern would *decode successfully
//!   into the wrong number* and poison the resumed report silently;
//! - **duplicated** (an append retried after an unreported success): the
//!   last valid record for a cell wins, and the duplicate is counted.
//!
//! A bad record never ends parsing: the loader resyncs to the next
//! record boundary and keeps going, so one corrupt middle record costs
//! one cell, not every record after it. Every record is also preceded by
//! a guard newline, so a short-written record cannot glue itself onto
//! the next one's `cell` line. Skip/duplicate counts are surfaced on
//! [`LoadedJob`] and logged, never silently swallowed.
//!
//! Terminal markers (`done` / `failed ...` / `canceled`) make finished
//! jobs re-attachable after a restart without re-running anything: the
//! loader yields the [`JobState`] the server stores, a done job's report
//! rendered once. A corrupted marker line — or a `done` whose cells did
//! not all load — degrades to "still in progress", the safe direction.
//!
//! Disk-fault injection: when the spool carries a [`Chaos`] engine
//! (`--chaos` with `ckpt-*` rates), each append draws a seeded
//! [`DiskPlan`] — fail outright (ENOSPC-style), write a short prefix, or
//! flip bytes *after* the CRC was computed so the loader must catch it.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fgdram_core::report::{FaultSummary, SimReport};
use fgdram_core::suite::{render_report, SuiteSpec, SUITE_KINDS};
use fgdram_energy::meter::{EnergyBreakdown, EnergyPerBit};
use fgdram_faults::crc32;
use fgdram_model::config::DramKind;
use fgdram_model::units::{GbPerSec, Picojoules, PjPerBit};
use fgdram_workloads::Workload;

use crate::chaos::{Chaos, DiskPlan};
use crate::error::WireError;
use crate::spec;

const MAGIC: &str = "fgdram-serve-ckpt-v2";

/// One persisted (and in-memory) completed cell.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The cell's measurement report.
    pub report: SimReport,
    /// The cell's telemetry series, pre-rendered as the exact JSONL
    /// bytes the stream delivers (`None` when the job has no telemetry).
    pub jsonl: Option<String>,
}

/// Lifecycle of a job, as the server holds it and the loader restores it.
/// The terminal states carry their outcome, so a done job cannot lack its
/// report nor a failed one its error.
#[derive(Debug, PartialEq)]
pub enum JobState {
    /// Cells still to run (a restored job resumes them).
    Queued,
    /// A worker has claimed one of its cells.
    Running,
    /// All cells completed; holds the rendered suite report.
    Done(String),
    /// A cell failed; holds the error in wire form (which is also how it
    /// survives a spool round trip).
    Failed(WireError),
    /// The job was cancelled.
    Canceled,
}

impl JobState {
    pub(crate) fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
            JobState::Canceled => "canceled",
        }
    }

    pub(crate) fn terminal(&self) -> bool {
        matches!(self, JobState::Done(_) | JobState::Failed(_) | JobState::Canceled)
    }
}

/// The suite report of a job's input-order cell table, `None` while a
/// cell is missing.
pub(crate) fn render_final(
    spec: &SuiteSpec,
    workloads: &[Workload],
    cells: &[Option<Artifact>],
) -> Option<String> {
    let reports: Option<Vec<SimReport>> =
        cells.iter().map(|c| c.as_ref().map(|a| a.report.clone())).collect();
    Some(render_report(spec.which, workloads, &reports?))
}

/// A job reconstructed from its spool file.
#[derive(Debug)]
pub struct LoadedJob {
    /// Job id (`j<N>`), from the file name and header.
    pub id: String,
    /// Owning tenant.
    pub tenant: String,
    /// The client-supplied idempotency key, if the submit carried one.
    pub key: Option<String>,
    /// The job spec.
    pub spec: SuiteSpec,
    /// Input-order cell table; `None` cells still need to run.
    pub cells: Vec<Option<Artifact>>,
    /// [`JobState::Queued`] unless the job had reached a terminal state.
    pub state: JobState,
    /// Records discarded on load (truncated, corrupt, or unparseable).
    pub skipped_records: u64,
    /// Valid records that re-wrote an already-loaded cell (last wins).
    pub duplicate_records: u64,
}

/// The spool directory.
#[derive(Debug, Clone)]
pub struct Spool {
    dir: PathBuf,
    chaos: Option<Arc<Chaos>>,
}

/// Append handle for one job's checkpoint file.
#[derive(Debug)]
pub struct CkptWriter {
    w: BufWriter<fs::File>,
    chaos: Option<Arc<Chaos>>,
}

impl Spool {
    /// Opens (creating if needed) the spool directory. `chaos` carries
    /// the daemon's fault-injection engine; appends draw their
    /// [`DiskPlan`] from it (pass `None` for a faithful spool).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: &Path, chaos: Option<Arc<Chaos>>) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(Spool { dir: dir.to_path_buf(), chaos })
    }

    fn path_for(&self, id: &str) -> PathBuf {
        self.dir.join(format!("{id}.ckpt"))
    }

    /// Creates the checkpoint file for a newly admitted job. `key` is
    /// the client's idempotency key, persisted so a restarted daemon
    /// still deduplicates resubmits.
    ///
    /// # Errors
    ///
    /// Propagates file I/O failures.
    pub fn create(
        &self,
        id: &str,
        tenant: &str,
        key: Option<&str>,
        spec: &SuiteSpec,
    ) -> io::Result<CkptWriter> {
        let file = fs::File::create(self.path_for(id))?;
        let mut w = BufWriter::new(file);
        let spec_line = spec::render(spec).trim_end().replace('\n', ";");
        write!(w, "{MAGIC}\nid {id}\ntenant {}\n", esc(tenant))?;
        if let Some(k) = key {
            writeln!(w, "key {}", esc(k))?;
        }
        writeln!(w, "spec {spec_line}")?;
        w.flush()?;
        Ok(CkptWriter { w, chaos: self.chaos.clone() })
    }

    /// Reopens a resumed job's checkpoint file for appending.
    ///
    /// # Errors
    ///
    /// Propagates file I/O failures.
    pub fn reopen(&self, id: &str) -> io::Result<CkptWriter> {
        let file = fs::OpenOptions::new().append(true).open(self.path_for(id))?;
        Ok(CkptWriter { w: BufWriter::new(file), chaos: self.chaos.clone() })
    }

    /// Loads every parseable job in the spool directory, sorted by id.
    /// Unreadable or foreign files are skipped with a stderr warning —
    /// a corrupt spool entry must not keep the daemon from starting —
    /// and per-job skip/duplicate counts are logged the same way.
    pub fn load_all(&self) -> Vec<LoadedJob> {
        let mut out = Vec::new();
        let Ok(entries) = fs::read_dir(&self.dir) else { return out };
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
            .collect();
        paths.sort();
        for p in paths {
            // Lossy decode: corruption can leave invalid UTF-8 inside one
            // record, and that must cost that record (its CRC fails on
            // the replacement bytes), not the whole file. The header id
            // must name this file: a resumed job appends to that name.
            let stem = p.file_stem().and_then(|s| s.to_str());
            match fs::read(&p)
                .map_err(|e| e.to_string())
                .and_then(|b| parse_ckpt(&String::from_utf8_lossy(&b)))
                .and_then(|job| {
                    if stem == Some(job.id.as_str()) {
                        Ok(job)
                    } else {
                        Err(format!("header id '{}' does not name this file", job.id))
                    }
                }) {
                Ok(job) => {
                    if job.skipped_records > 0 || job.duplicate_records > 0 {
                        eprintln!(
                            "fgdram-serve: spool {}: skipped {} bad record(s), \
                             deduplicated {} (affected cells re-run)",
                            p.display(),
                            job.skipped_records,
                            job.duplicate_records
                        );
                    }
                    out.push(job);
                }
                Err(e) => eprintln!("fgdram-serve: skipping spool file {}: {e}", p.display()),
            }
        }
        out
    }
}

impl CkptWriter {
    /// Appends one completed cell and flushes, so the record survives a
    /// kill arriving any time after this returns. The record body is
    /// CRC-checked end to end; a guard newline in front keeps a
    /// previously short-written record from gluing onto this one.
    ///
    /// # Errors
    ///
    /// Propagates file I/O failures (including injected ENOSPC-style
    /// chaos failures). A failed append loses only this record: the
    /// cell's result stays in memory and simply re-runs after a
    /// restart.
    pub fn append_cell(&mut self, index: usize, artifact: &Artifact) -> io::Result<()> {
        let mut rec = format!("cell {index}\nreport {}\n", encode_report(&artifact.report));
        match &artifact.jsonl {
            Some(j) => {
                rec.push_str(&format!("jsonl {}\n", j.lines().count()));
                rec.push_str(j);
                if !j.ends_with('\n') {
                    rec.push('\n');
                }
            }
            None => rec.push_str("notelemetry\n"),
        }
        let crc = crc32(rec.as_bytes());
        rec.push_str(&format!("end {index} {crc:08x}\n"));
        let mut bytes = Vec::with_capacity(rec.len() + 1);
        bytes.push(b'\n'); // guard newline: isolates us from a prior short write
        bytes.extend_from_slice(rec.as_bytes());
        let plan = match &self.chaos {
            Some(c) => c.disk_plan(bytes.len()),
            None => DiskPlan::None,
        };
        match plan {
            DiskPlan::None => self.w.write_all(&bytes)?,
            DiskPlan::Enospc => {
                return Err(io::Error::other("chaos: spool append failed (ENOSPC-style)"));
            }
            // A short write models a torn append: the prefix lands, the
            // writer never learns. The loader discards the partial
            // record, so the cell re-runs — correct, just not free.
            DiskPlan::Short { keep } => self.w.write_all(&bytes[..keep.min(bytes.len())])?,
            DiskPlan::Corrupt { flips, mut dice } => {
                // Flip bytes AFTER the CRC went in: the loader must
                // catch this, or a resumed report silently lies.
                dice.corrupt_bytes(&mut bytes, flips);
                self.w.write_all(&bytes)?;
            }
        }
        self.w.flush()
    }

    fn append_marker(&mut self, marker: &str) -> io::Result<()> {
        // Same guard newline as cell records; markers are single short
        // lines and carry no CRC — a corrupted marker degrades to "still
        // in progress", which only costs re-running, never wrong output.
        write!(self.w, "\n{marker}\n")?;
        self.w.flush()
    }

    /// Appends the terminal marker for a completed job.
    ///
    /// # Errors
    ///
    /// Propagates file I/O failures.
    pub fn mark_done(&mut self) -> io::Result<()> {
        self.append_marker("done")
    }

    /// Appends the terminal marker for a failed job.
    ///
    /// # Errors
    ///
    /// Propagates file I/O failures.
    pub fn mark_failed(&mut self, e: &WireError) -> io::Result<()> {
        self.append_marker(&format!("failed {} {} {}", e.code, e.exit_code, esc(&e.message)))
    }

    /// Appends the terminal marker for a cancelled job.
    ///
    /// # Errors
    ///
    /// Propagates file I/O failures.
    pub fn mark_canceled(&mut self) -> io::Result<()> {
        self.append_marker("canceled")
    }
}

/// The first line at or after `from` that starts a new top-level
/// element — where the loader resyncs to after a bad record.
fn resync(lines: &[&str], from: usize) -> usize {
    let boundary = |l: &&str| {
        l.starts_with("cell ") || *l == "done" || *l == "canceled" || l.starts_with("failed ")
    };
    lines[from..].iter().position(boundary).map_or(lines.len(), |n| from + n)
}

/// Parses one cell record starting at `lines[i]` (which starts with
/// `"cell "`). Returns the cell index, artifact, and the line index just
/// past the record. Structure is validated first, then the CRC, and only
/// then is the report decoded — so corruption is caught even when the
/// mangled bytes would still decode.
fn parse_record(
    lines: &[&str],
    i: usize,
    total: usize,
) -> Result<(usize, Artifact, usize), String> {
    let index: usize = lines[i]
        .strip_prefix("cell ")
        .and_then(|r| r.trim().parse().ok())
        .ok_or("bad cell line")?;
    if index >= total {
        return Err(format!("cell index {index} out of range (job has {total})"));
    }
    let mut j = i + 1;
    let report_line =
        lines.get(j).and_then(|l| l.strip_prefix("report ")).ok_or("missing report line")?;
    j += 1;
    let jsonl_lines: Option<std::ops::Range<usize>> = match lines.get(j) {
        Some(&"notelemetry") => {
            j += 1;
            None
        }
        Some(l) if l.starts_with("jsonl ") => {
            let n: usize =
                l["jsonl ".len()..].trim().parse().map_err(|_| "bad jsonl count".to_string())?;
            j += 1;
            if j.checked_add(n).is_none_or(|end| end > lines.len()) {
                return Err("truncated jsonl block".to_string());
            }
            let range = j..j + n;
            j += n;
            Some(range)
        }
        _ => return Err("missing telemetry line".to_string()),
    };
    let end = lines.get(j).ok_or("missing end line")?;
    let mut it = end.strip_prefix("end ").ok_or("missing end line")?.split(' ');
    let end_index: usize =
        it.next().and_then(|v| v.parse().ok()).ok_or("bad end index".to_string())?;
    let crc_stored: u32 = it
        .next()
        .and_then(|v| u32::from_str_radix(v, 16).ok())
        .ok_or("missing record crc".to_string())?;
    if end_index != index {
        return Err(format!("end index {end_index} does not match cell {index}"));
    }
    let mut content = String::new();
    for l in &lines[i..j] {
        content.push_str(l);
        content.push('\n');
    }
    let crc_actual = crc32(content.as_bytes());
    if crc_actual != crc_stored {
        return Err(format!("crc mismatch (stored {crc_stored:08x}, actual {crc_actual:08x})"));
    }
    // CRC passed, so any decode failure here is a writer bug — still
    // skip rather than poison.
    let report = decode_report(report_line).ok_or("undecodable report")?;
    let jsonl = jsonl_lines.map(|range| {
        let mut buf = String::new();
        for l in &lines[range] {
            buf.push_str(l);
            buf.push('\n');
        }
        buf
    });
    Ok((index, Artifact { report, jsonl }, j + 1))
}

fn parse_ckpt(s: &str) -> Result<LoadedJob, String> {
    let lines: Vec<&str> = s.lines().collect();
    if lines.first().copied() != Some(MAGIC) {
        return Err(format!("missing or foreign magic header (want {MAGIC})"));
    }
    let mut i = 1;
    let mut header = |key: &str| -> Option<String> {
        let v = lines.get(i)?.strip_prefix(key)?.trim().to_string();
        i += 1;
        Some(v)
    };
    let missing = |key: &str| format!("missing '{key}' header");
    // Header lines carry no CRC: hold what they restore to the rules the
    // daemon issues and admits by, so damage cannot bring back an id or
    // a name it never hands out (an id renders into JSON as it is).
    let id = header("id ").ok_or_else(|| missing("id "))?;
    let digits = id.strip_prefix('j').unwrap_or("");
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("job id '{id}' is not one the daemon issues"));
    }
    let tenant = unesc(&header("tenant ").ok_or_else(|| missing("tenant "))?);
    spec::check_tenant(&tenant).map_err(|e| e.to_string())?;
    let key = header("key ").map(|k| unesc(&k));
    if let Some(k) = &key {
        spec::check_job_key(k).map_err(|e| e.to_string())?;
    }
    let spec_line = header("spec ").ok_or_else(|| missing("spec "))?.replace(';', "\n");
    let spec = spec::parse(&spec_line).map_err(|e| format!("spec: {e}"))?;
    let workloads = spec.workloads();
    let total = workloads.len() * SUITE_KINDS.len();
    let mut cells: Vec<Option<Artifact>> = (0..total).map(|_| None).collect();
    // The last terminal marker wins; a `done` gets its report below.
    let mut state = JobState::Queued;
    let mut skipped_records = 0u64;
    let mut duplicate_records = 0u64;
    // One bad record skips to the next boundary; it never ends parsing.
    while i < lines.len() {
        let line = lines[i];
        i += 1;
        let marker = match line {
            "" => continue, // guard newline between records
            "done" => Some(JobState::Done(String::new())),
            "canceled" => Some(JobState::Canceled),
            _ => line.strip_prefix("failed ").map(|rest| {
                let mut it = rest.splitn(3, ' ');
                let code = it.next().unwrap_or("internal").to_string();
                let exit_code = it.next().and_then(|v| v.parse().ok()).unwrap_or(1);
                let message = unesc(it.next().unwrap_or(""));
                JobState::Failed(WireError { code, exit_code, message, retry_after_s: None })
            }),
        };
        if let Some(marker) = marker {
            state = marker;
            continue;
        }
        match line.starts_with("cell ").then(|| parse_record(&lines, i - 1, total)) {
            Some(Ok((index, artifact, next))) => {
                if cells[index].is_some() {
                    duplicate_records += 1;
                }
                cells[index] = Some(artifact);
                i = next;
            }
            // A bad record, or orphan garbage (e.g. the tail of a short
            // write): one skip, then resync.
            _ => {
                skipped_records += 1;
                i = resync(&lines, i);
            }
        }
    }
    if let JobState::Done(report) = &mut state {
        // A cell lost to a bad record re-runs: the job is in progress.
        match render_final(&spec, &workloads, &cells) {
            Some(text) => *report = text,
            None => state = JobState::Queued,
        }
    }
    Ok(LoadedJob { id, tenant, key, spec, cells, state, skipped_records, duplicate_records })
}

/// Percent-escapes the characters the line format reserves.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\n' => out.push_str("%0a"),
            '\r' => out.push_str("%0d"),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`esc`] on bytes: `%` and two hex digits is that byte; any
/// other byte, a damaged escape included, stands for itself.
fn unesc(s: &str) -> String {
    let b = s.as_bytes();
    let hex = |i: usize| b.get(i).and_then(|&c| (c as char).to_digit(16));
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        if let (b'%', Some(hi), Some(lo)) = (b[i], hex(i + 1), hex(i + 2)) {
            out.push((hi * 16 + lo) as u8);
            i += 3;
        } else {
            out.push(b[i]);
            i += 1;
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn kind_from_label(label: &str) -> Option<DramKind> {
    DramKind::ALL.into_iter().find(|k| k.label() == label)
}

/// Encodes a report as one `key=value` line with every float carried as
/// its exact IEEE-754 bit pattern — a decode/encode round trip is the
/// identity, which is what keeps resumed reports byte-identical.
pub fn encode_report(r: &SimReport) -> String {
    let f = |v: f64| format!("{:016x}", v.to_bits());
    let mut out = format!(
        "workload={} kind={} window_ns={} retired={} read_atoms={} write_atoms={} \
         activates={} refreshes={} bandwidth={} utilisation={} row_hit_rate={} \
         l2_hit_rate={} avg_read_latency_ns={} p95_read_latency_ns={} \
         channel_imbalance_cv={} e_act={} e_mv={} e_io={} eb_act={} eb_mv={} eb_io={}",
        esc(&r.workload),
        esc(r.kind.label()),
        r.window_ns,
        r.retired,
        r.read_atoms,
        r.write_atoms,
        r.activates,
        r.refreshes,
        f(r.bandwidth.value()),
        f(r.utilisation),
        f(r.row_hit_rate),
        f(r.l2_hit_rate),
        f(r.avg_read_latency_ns),
        r.p95_read_latency_ns,
        f(r.channel_imbalance_cv),
        f(r.energy.activation.value()),
        f(r.energy.data_movement.value()),
        f(r.energy.io.value()),
        f(r.energy_per_bit.activation.value()),
        f(r.energy_per_bit.data_movement.value()),
        f(r.energy_per_bit.io.value()),
    );
    if let Some(fs) = &r.faults {
        out.push_str(&format!(
            " faults={},{},{},{},{}",
            fs.ce, fs.due, fs.retries, fs.excluded, fs.poisoned
        ));
    }
    out
}

/// Decodes [`encode_report`] output; `None` on any malformed field.
pub fn decode_report(line: &str) -> Option<SimReport> {
    let mut get = std::collections::BTreeMap::new();
    for pair in line.split(' ') {
        let (k, v) = pair.split_once('=')?;
        get.insert(k, v);
    }
    let s = |k: &str| -> Option<String> { get.get(k).map(|v| unesc(v)) };
    let u = |k: &str| -> Option<u64> { get.get(k)?.parse().ok() };
    let f = |k: &str| -> Option<f64> {
        Some(f64::from_bits(u64::from_str_radix(get.get(k)?, 16).ok()?))
    };
    let faults = match get.get("faults") {
        Some(v) => {
            let mut it = v.split(',').map(|x| x.parse::<u64>());
            let mut next = || it.next().and_then(|r| r.ok());
            Some(FaultSummary {
                ce: next()?,
                due: next()?,
                retries: next()?,
                excluded: next()?,
                poisoned: next()?,
            })
        }
        None => None,
    };
    Some(SimReport {
        workload: s("workload")?,
        kind: kind_from_label(&s("kind")?)?,
        window_ns: u("window_ns")?,
        retired: u("retired")?,
        read_atoms: u("read_atoms")?,
        write_atoms: u("write_atoms")?,
        activates: u("activates")?,
        refreshes: u("refreshes")?,
        bandwidth: GbPerSec::new(f("bandwidth")?),
        utilisation: f("utilisation")?,
        row_hit_rate: f("row_hit_rate")?,
        l2_hit_rate: f("l2_hit_rate")?,
        avg_read_latency_ns: f("avg_read_latency_ns")?,
        p95_read_latency_ns: u("p95_read_latency_ns")?,
        channel_imbalance_cv: f("channel_imbalance_cv")?,
        energy: EnergyBreakdown {
            activation: Picojoules::new(f("e_act")?),
            data_movement: Picojoules::new(f("e_mv")?),
            io: Picojoules::new(f("e_io")?),
        },
        energy_per_bit: EnergyPerBit {
            activation: PjPerBit::new(f("eb_act")?),
            data_movement: PjPerBit::new(f("eb_mv")?),
            io: PjPerBit::new(f("eb_io")?),
        },
        faults,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosSpec, Fault};
    use fgdram_core::suite::SuiteKind;

    fn sample_report(seedish: u64) -> SimReport {
        SimReport {
            workload: "GUPS".into(),
            kind: DramKind::Fgdram,
            window_ns: 30_000,
            retired: 12_345 + seedish,
            read_atoms: 99,
            write_atoms: 42,
            activates: 17,
            refreshes: 3,
            bandwidth: GbPerSec::new(123.456789 + seedish as f64 * 0.1),
            utilisation: 0.1234567891234,
            row_hit_rate: 1.0 / 3.0,
            l2_hit_rate: 2.0 / 7.0,
            avg_read_latency_ns: 101.5e-3 + seedish as f64,
            p95_read_latency_ns: 512,
            channel_imbalance_cv: 0.000123,
            energy: EnergyBreakdown {
                activation: Picojoules::new(1.0 / 3.0),
                data_movement: Picojoules::new(f64::MIN_POSITIVE),
                io: Picojoules::new(1e300),
            },
            energy_per_bit: EnergyPerBit {
                activation: PjPerBit::new(0.1),
                data_movement: PjPerBit::new(0.2),
                io: PjPerBit::new(0.3),
            },
            faults: (seedish % 2 == 0).then_some(FaultSummary {
                ce: 1,
                due: 2,
                retries: 3,
                excluded: 4,
                poisoned: 5,
            }),
        }
    }

    fn test_spec() -> SuiteSpec {
        SuiteSpec {
            which: SuiteKind::Compute,
            warmup: 100,
            window: 400,
            max_workloads: Some(2),
            telemetry_epoch: None,
        }
    }

    fn tmp_spool(tag: &str) -> (PathBuf, Spool) {
        let dir = std::env::temp_dir().join(format!("fgdram_spool_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spool = Spool::open(&dir, None).expect("open spool");
        (dir, spool)
    }

    #[test]
    fn report_round_trip_preserves_every_bit() {
        for i in 0..4 {
            let r = sample_report(i);
            let decoded = decode_report(&encode_report(&r)).expect("decodes");
            // Debug formatting round-trips every f64 exactly, so equal
            // strings mean equal bits (same convention as the golden).
            assert_eq!(format!("{r:?}"), format!("{decoded:?}"));
        }
    }

    #[test]
    fn ckpt_survives_truncation_and_resumes_partial() {
        let (dir, spool) = tmp_spool("trunc");
        let spec = test_spec();
        let mut w = spool.create("j7", "ten-ant", None, &spec).expect("create");
        let a0 =
            Artifact { report: sample_report(0), jsonl: Some("{\"x\":1}\n{\"x\":2}\n".into()) };
        let a2 = Artifact { report: sample_report(1), jsonl: None };
        w.append_cell(0, &a0).expect("cell 0");
        w.append_cell(2, &a2).expect("cell 2");
        drop(w);
        // Simulate a kill mid-append: truncated trailing record.
        let path = dir.join("j7.ckpt");
        let mut body = std::fs::read_to_string(&path).unwrap();
        body.push_str("cell 3\nreport workload=TRUNCATED");
        std::fs::write(&path, &body).unwrap();
        let jobs = spool.load_all();
        assert_eq!(jobs.len(), 1);
        let j = &jobs[0];
        assert_eq!((j.id.as_str(), j.tenant.as_str()), ("j7", "ten-ant"));
        assert_eq!(j.key, None);
        assert_eq!(j.spec, spec);
        assert_eq!(j.state, JobState::Queued);
        assert_eq!(j.cells.len(), 4);
        assert!(j.cells[0].is_some() && j.cells[2].is_some());
        assert!(j.cells[1].is_none() && j.cells[3].is_none(), "truncated record discarded");
        assert_eq!(j.skipped_records, 1);
        assert_eq!(j.cells[0].as_ref().unwrap().jsonl.as_deref(), Some("{\"x\":1}\n{\"x\":2}\n"));
        // A marker appended after the garbage is still honoured: the
        // loader resyncs past the truncated record instead of giving up.
        let mut w = spool.reopen("j7").expect("reopen");
        let stall = WireError {
            code: "stall".into(),
            exit_code: 5,
            message: "no forward progress at t=9".into(),
            retry_after_s: None,
        };
        w.mark_failed(&stall).expect("failed marker");
        drop(w);
        let jobs = spool.load_all();
        assert_eq!(jobs[0].state, JobState::Failed(stall));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn terminal_markers_and_key_round_trip() {
        let (dir, spool) = tmp_spool("term");
        let spec = test_spec();
        let mut w = spool.create("j1", "a", Some("order%66 retry"), &spec).unwrap();
        let cells: Vec<Option<Artifact>> =
            (0..4).map(|i| Some(Artifact { report: sample_report(i), jsonl: None })).collect();
        for (i, a) in cells.iter().enumerate() {
            w.append_cell(i, a.as_ref().unwrap()).unwrap();
        }
        w.mark_done().unwrap();
        let mut w = spool.create("j2", "a", None, &spec).unwrap();
        let boom = WireError {
            code: "protocol".into(),
            exit_code: 4,
            message: "boom boom".into(),
            retry_after_s: None,
        };
        w.mark_failed(&boom).unwrap();
        let mut w = spool.create("j3", "a", None, &spec).unwrap();
        w.mark_canceled().unwrap();
        let jobs = spool.load_all();
        assert_eq!(jobs.len(), 3);
        let report = render_final(&spec, &spec.workloads(), &cells).unwrap();
        assert_eq!(jobs[0].state, JobState::Done(report), "a done job loads rendered");
        assert_eq!(jobs[0].key.as_deref(), Some("order%66 retry"), "idempotency key survives");
        assert_eq!(jobs[0].skipped_records, 0);
        assert_eq!(jobs[0].duplicate_records, 0);
        assert_eq!(jobs[1].state, JobState::Failed(boom));
        assert_eq!(jobs[1].key, None);
        assert_eq!(jobs[2].state, JobState::Canceled);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The on-disk grammar is frozen: spools written by any v2 daemon
    // must keep loading, so this literal (CRC included) is pinned in
    // both directions.
    const V2: &str = "fgdram-serve-ckpt-v2\n\
            id j9\n\
            tenant ten-ant\n\
            key k%201\n\
            spec suite=compute;warmup=100;window=400;max_workloads=2\n\
            \n\
            cell 1\n\
            report workload=GUPS kind=FGDRAM window_ns=30000 retired=12346 read_atoms=99 \
            write_atoms=42 activates=17 refreshes=3 bandwidth=405ee3a26e547171 \
            utilisation=3fbf9add37c11162 row_hit_rate=3fd5555555555555 \
            l2_hit_rate=3fd2492492492492 avg_read_latency_ns=3ff19fbe76c8b439 \
            p95_read_latency_ns=512 channel_imbalance_cv=3f201f31f46ed246 \
            e_act=3fd5555555555555 e_mv=0010000000000000 e_io=7e37e43c8800759c \
            eb_act=3fb999999999999a eb_mv=3fc999999999999a eb_io=3fd3333333333333\n\
            jsonl 1\n\
            {\"x\":1}\n\
            end 1 b3f44297\n\
            \n\
            failed stall 5 some%20message\n";

    #[test]
    fn v2_fixture_loads_and_is_rewritten_byte_for_byte() {
        let j = parse_ckpt(V2).expect("a v2 file parses");
        assert_eq!(
            (j.id.as_str(), j.tenant.as_str(), j.key.as_deref()),
            ("j9", "ten-ant", Some("k 1"))
        );
        assert_eq!(j.spec, test_spec());
        assert_eq!((j.skipped_records, j.duplicate_records), (0, 0), "the CRC still matches");
        let cell = j.cells[1].as_ref().expect("cell 1 restored");
        assert_eq!(format!("{:?}", cell.report), format!("{:?}", sample_report(1)));
        assert_eq!(cell.jsonl.as_deref(), Some("{\"x\":1}\n"));
        let stall = WireError {
            code: "stall".into(),
            exit_code: 5,
            message: "some message".into(),
            retry_after_s: None,
        };
        assert_eq!(j.state, JobState::Failed(stall.clone()));
        // The writer half: the same job spooled again is the same bytes.
        let (dir, spool) = tmp_spool("v2fixture");
        let mut w = spool.create("j9", "ten-ant", Some("k 1"), &test_spec()).unwrap();
        w.append_cell(1, cell).unwrap();
        w.mark_failed(&stall).unwrap();
        drop(w);
        assert_eq!(std::fs::read_to_string(dir.join("j9.ckpt")).unwrap(), V2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_header_bytes_never_panic_nor_restore_what_submit_refuses() {
        // Header lines carry no CRC. Put a non-UTF-8 byte, then a JSON
        // quote, at every offset of the fixture: the load must not panic,
        // and whatever it restores must be what a submit could have made.
        let (dir, spool) = tmp_spool("damage");
        let path = dir.join("j9.ckpt");
        for at in 0..V2.len() {
            for byte in [0xFF, b'"'] {
                let mut damaged = V2.as_bytes().to_vec();
                damaged[at] = byte;
                std::fs::write(&path, &damaged).unwrap();
                for j in spool.load_all() {
                    assert_eq!(j.id, "j9", "byte {at}");
                    assert!(spec::check_tenant(&j.tenant).is_ok(), "byte {at}: {:?}", j.tenant);
                    if let Some(k) = &j.key {
                        assert!(spec::check_job_key(k).is_ok(), "byte {at}: key {k:?}");
                    }
                    assert_eq!(j.spec, test_spec(), "byte {at}");
                    for (i, cell) in j.cells.iter().enumerate() {
                        if let Some(a) = cell {
                            assert_eq!(
                                format!("{:?}", a.report),
                                format!("{:?}", sample_report(i as u64)),
                                "byte {at}: restored cell {i} must be bit-exact"
                            );
                        }
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ids_the_daemon_never_issues_are_not_restored() {
        // Each header id names its file, but only `j` and decimal digits
        // was ever issued: a restored `j1"x` would break status JSON.
        let (dir, spool) = tmp_spool("badid");
        for id in ["j1\"x", "x7", "j", "j+1", "j1 2", "j12"] {
            let body = format!("{MAGIC}\nid {id}\ntenant a\nspec suite=compute\n");
            std::fs::write(dir.join(format!("{id}.ckpt")), body).unwrap();
        }
        let ids: Vec<String> = spool.load_all().into_iter().map(|j| j.id).collect();
        assert_eq!(ids, ["j12"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unesc_decodes_bytes_and_keeps_damaged_escapes() {
        assert_eq!(unesc(&esc("café 100%\n")), "café 100%\n");
        assert_eq!(unesc("caf%c3%a9"), "café");
        assert_eq!(unesc("%zz%4%+1%\u{fffd}0"), "%zz%4%+1%\u{fffd}0");
    }

    #[test]
    fn over_limit_telemetry_spool_is_skipped() {
        // A job admitted before the epoch bound existed: loading it again
        // must cost the job, not abort the daemon on every restart.
        let (dir, spool) = tmp_spool("overlimit");
        let spec = "suite=compute;warmup=0;window=999999999;max_workloads=1;telemetry=1;epoch=1";
        let body = format!("{MAGIC}\nid j1\ntenant a\nspec {spec}\n");
        std::fs::write(dir.join("j1.ckpt"), body).unwrap();
        assert!(spool.load_all().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_middle_record_is_skipped_without_poisoning_the_rest() {
        let (dir, spool) = tmp_spool("corrupt");
        let spec = test_spec();
        let mut w = spool.create("j4", "a", None, &spec).unwrap();
        for i in 0..3 {
            w.append_cell(i, &Artifact { report: sample_report(i as u64), jsonl: None }).unwrap();
        }
        w.mark_done().unwrap();
        drop(w);
        // Flip one decimal digit of the MIDDLE record's retired count:
        // without the CRC this would decode cleanly into the wrong
        // number — the silent-poisoning failure v1 had.
        let path = dir.join("j4.ckpt");
        let body = std::fs::read_to_string(&path).unwrap();
        let honest = format!("retired={}", sample_report(1).retired);
        let lying = format!("retired={}", sample_report(1).retired + 50);
        assert_eq!(body.matches(&honest).count(), 1);
        std::fs::write(&path, body.replace(&honest, &lying)).unwrap();
        let jobs = spool.load_all();
        let j = &jobs[0];
        assert_eq!(j.skipped_records, 1, "corrupt record skipped, not trusted");
        assert!(j.cells[1].is_none(), "the lying cell re-runs");
        assert!(j.cells[0].is_some() && j.cells[2].is_some(), "neighbours survive");
        assert_eq!(j.state, JobState::Queued, "a done job missing a cell is in progress");
        assert_eq!(
            format!("{:?}", j.cells[2].as_ref().unwrap().report),
            format!("{:?}", sample_report(2)),
            "surviving cells are bit-exact"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_records_dedupe_last_valid_wins() {
        let (dir, spool) = tmp_spool("dup");
        let spec = test_spec();
        let mut w = spool.create("j5", "a", None, &spec).unwrap();
        // An append retried after an unreported success: same cell twice.
        w.append_cell(1, &Artifact { report: sample_report(7), jsonl: None }).unwrap();
        w.append_cell(1, &Artifact { report: sample_report(8), jsonl: None }).unwrap();
        drop(w);
        let jobs = spool.load_all();
        let j = &jobs[0];
        assert_eq!(j.duplicate_records, 1);
        assert_eq!(j.skipped_records, 0);
        assert_eq!(
            format!("{:?}", j.cells[1].as_ref().unwrap().report),
            format!("{:?}", sample_report(8)),
            "last valid record wins"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_truncation_prefix_loads_safely() {
        let (dir, spool) = tmp_spool("sweep");
        let spec = test_spec();
        let mut w = spool.create("j6", "a", None, &spec).unwrap();
        for i in 0..4 {
            let jsonl = (i % 2 == 0).then(|| "{\"epoch\":1}\n".to_string());
            w.append_cell(i, &Artifact { report: sample_report(i as u64), jsonl }).unwrap();
        }
        w.mark_done().unwrap();
        drop(w);
        let path = dir.join("j6.ckpt");
        let full = std::fs::read(&path).unwrap();
        // Every kill -9 point: any prefix must load without panicking,
        // and every cell it does restore must be bit-exact.
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            for j in spool.load_all() {
                for (i, cell) in j.cells.iter().enumerate() {
                    if let Some(a) = cell {
                        assert_eq!(
                            format!("{:?}", a.report),
                            format!("{:?}", sample_report(i as u64)),
                            "prefix {cut}: restored cell {i} must be bit-exact"
                        );
                    }
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_disk_faults_never_corrupt_a_loaded_cell() {
        let dir =
            std::env::temp_dir().join(format!("fgdram_spool_chaosdisk_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let chaos = Arc::new(Chaos::new(
            ChaosSpec::parse("ckpt-corrupt=0.3,ckpt-short=0.25,ckpt-enospc=0.2").unwrap(),
            4242,
        ));
        let spool = Spool::open(&dir, Some(chaos.clone())).expect("open spool");
        let spec = test_spec();
        let mut w = spool.create("j8", "a", None, &spec).unwrap();
        let mut enospc_seen = 0;
        // Retry loop, like the server after a failed append: keep
        // re-appending each cell until one append reports success.
        for round in 0..12 {
            for i in 0..4 {
                let jsonl = (i == 0).then(|| "{\"epoch\":1}\n{\"epoch\":2}\n".to_string());
                let art = Artifact { report: sample_report(i as u64), jsonl };
                if w.append_cell(i, &art).is_err() {
                    enospc_seen += 1;
                }
            }
            let _ = round;
        }
        drop(w);
        let jobs = spool.load_all();
        let j = &jobs[0];
        let injected =
            |f: Fault| chaos.injected[f as usize].load(std::sync::atomic::Ordering::Relaxed);
        let total_bad = injected(Fault::CkptCorrupt) + injected(Fault::CkptShort);
        assert!(total_bad > 0, "chaos actually injected disk faults");
        assert!(enospc_seen > 0, "ENOSPC-style appends surfaced as errors");
        assert!(j.skipped_records > 0 || j.duplicate_records > 0, "loader saw the damage");
        for (i, cell) in j.cells.iter().enumerate() {
            let a = cell.as_ref().expect("12 rounds outlast the fault rates");
            assert_eq!(
                format!("{:?}", a.report),
                format!("{:?}", sample_report(i as u64)),
                "cell {i}: loaded record is bit-exact or absent, never wrong"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
