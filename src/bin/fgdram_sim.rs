//! `fgdram-sim` — command-line front end to the FGDRAM reproduction.
//!
//! ```text
//! fgdram-sim list                          workloads in both suites
//! fgdram-sim info                          Table 2 configurations
//! fgdram-sim run <workload> [flags]        one simulation, full report
//! fgdram-sim compare <workload> [flags]    all four architectures side by side
//! fgdram-sim suite <compute|graphics>      suite summary on QB-HBM vs FGDRAM
//!
//! flags: --arch <hbm2|qb|salp|fg>  --warmup <ns>  --window <ns>
//!        --grs  --closed-page  --trace-check  --wave <n>  --mlp <n>
//!        --jobs <n>   worker threads for `suite` (default: all cores;
//!                     results are identical at any job count)
//!        --max-workloads <n>  cap the suite's workload list (CI scale)
//!        --telemetry <path>   epoch-sampled time series (JSONL, or CSV
//!                             when the path ends in `.csv`)
//!        --epoch <ns>         telemetry epoch length (default 1000); at
//!                             most 50 000 epochs may be kept at once
//!        --faults <spec>      fault injection (`ce=0.01,due=0.001,...`,
//!                             or the `storm` preset; see DESIGN.md)
//!        --fault-seed <n>     fault PRNG seed (default 1)
//!
//! exit codes: 0 ok, 2 usage, 3 config, 4 protocol violation,
//!             5 stall/watchdog, 6 I/O, 7 fault storm
//! ```

use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

use fgdram::core::experiments::{self, Scale};
use fgdram::core::suite;
use fgdram::core::{SimError, SimReport, SystemBuilder};
use fgdram::dram::ProtocolChecker;
use fgdram::energy::floorplan::IoTechnology;
use fgdram::faults::{timing, FaultSpec};
use fgdram::model::config::{CtrlConfig, DramConfig, DramKind, GpuConfig, PagePolicy};
use fgdram::telemetry::{check_epochs, export, Telemetry, TelemetryConfig};
use fgdram::workloads::{suites, Workload};

/// A CLI failure: either a usage error (exit 2, with the usage text) or a
/// typed simulation failure (exit 3-7 via [`SimError::exit_code`]).
enum CliError {
    Usage(String),
    Sim(SimError),
}

impl From<SimError> for CliError {
    fn from(e: SimError) -> Self {
        CliError::Sim(e)
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

#[derive(Debug, Clone)]
struct Flags {
    arch: DramKind,
    warmup: u64,
    window: u64,
    grs: bool,
    closed_page: bool,
    trace_check: bool,
    wave: Option<usize>,
    mlp: Option<usize>,
    /// Worker threads for matrix-shaped commands; 0 = available cores.
    jobs: usize,
    /// Cap on the suite's workload list (`suite` only).
    max_workloads: Option<usize>,
    /// Telemetry output path; format by extension (`.csv` = CSV, else JSONL).
    telemetry: Option<String>,
    /// Telemetry epoch length in simulated ns.
    epoch: u64,
    /// Parsed fault specification (`--faults`).
    faults: Option<FaultSpec>,
    /// Fault PRNG seed (`--fault-seed`).
    fault_seed: u64,
    /// Flag names the user explicitly passed, for ignored-flag warnings.
    present: Vec<&'static str>,
}

impl Default for Flags {
    fn default() -> Self {
        Flags {
            arch: DramKind::Fgdram,
            warmup: 20_000,
            window: 100_000,
            grs: false,
            closed_page: false,
            trace_check: false,
            wave: None,
            mlp: None,
            jobs: 0,
            max_workloads: None,
            telemetry: None,
            epoch: 1_000,
            faults: None,
            fault_seed: 1,
            present: Vec::new(),
        }
    }
}

fn parse_arch(s: &str) -> Result<DramKind, String> {
    match s {
        "hbm2" => Ok(DramKind::Hbm2),
        "qb" | "qb-hbm" => Ok(DramKind::QbHbm),
        "salp" | "salp-sc" => Ok(DramKind::QbHbmSalpSc),
        "fg" | "fgdram" => Ok(DramKind::Fgdram),
        other => Err(format!("unknown arch '{other}' (hbm2|qb|salp|fg)")),
    }
}

/// The value after flag `name`.
fn value<'a>(it: &mut impl Iterator<Item = &'a String>, name: &str) -> Result<&'a str, String> {
    it.next().map(String::as_str).ok_or_else(|| format!("{name} needs a value"))
}

/// The numeric value after flag `name`; a bad value names the flag.
fn number<'a, T>(it: &mut impl Iterator<Item = &'a String>, name: &str) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    value(it, name)?.parse().map_err(|e| format!("{name}: {e}"))
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let name = a.as_str();
        match name {
            "--arch" => f.arch = parse_arch(value(&mut it, name)?)?,
            "--warmup" => f.warmup = number(&mut it, name)?,
            "--window" => {
                f.window = number(&mut it, name)?;
                // The served job spec refuses a zero window too.
                if f.window == 0 {
                    return Err("--window must be >= 1 ns".to_string());
                }
            }
            "--wave" => f.wave = Some(number(&mut it, name)?),
            "--mlp" => f.mlp = Some(number(&mut it, name)?),
            "--jobs" => f.jobs = number(&mut it, name)?,
            "--max-workloads" => {
                let n = number(&mut it, name)?;
                // An empty suite has no gmean; the job spec refuses it too.
                if n == 0 {
                    return Err("--max-workloads must be >= 1".to_string());
                }
                f.max_workloads = Some(n);
            }
            "--telemetry" => f.telemetry = Some(value(&mut it, name)?.to_string()),
            "--epoch" => {
                f.epoch = number(&mut it, name)?;
                if f.epoch == 0 {
                    return Err("--epoch must be >= 1 ns".to_string());
                }
            }
            "--faults" => {
                f.faults = Some(
                    FaultSpec::parse(value(&mut it, name)?).map_err(|e| format!("{name}: {e}"))?,
                )
            }
            "--fault-seed" => f.fault_seed = number(&mut it, name)?,
            "--grs" => f.grs = true,
            "--closed-page" => f.closed_page = true,
            "--trace-check" => f.trace_check = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
        if let Some(known) = FLAG_NAMES.iter().find(|n| **n == name) {
            f.present.push(known);
        }
    }
    // `run` and `compare` keep one series at a time; `suite` re-checks
    // with its cell count.
    check_telemetry(&f, 1)?;
    Ok(f)
}

/// Bounds the epochs `series` telemetry series keep at once (no-op
/// without `--telemetry`).
fn check_telemetry(f: &Flags, series: usize) -> Result<(), String> {
    match f.telemetry {
        Some(_) => check_epochs(series, f.epoch, f.window),
        None => Ok(()),
    }
}

/// Canonical spellings, for the ignored-flag warnings.
const FLAG_NAMES: &[&str] = &[
    "--arch",
    "--warmup",
    "--window",
    "--wave",
    "--mlp",
    "--jobs",
    "--max-workloads",
    "--telemetry",
    "--epoch",
    "--faults",
    "--fault-seed",
    "--grs",
    "--closed-page",
    "--trace-check",
];

/// Warns (stderr) about every flag that was passed but has no effect on
/// `cmd`, so a typo like `suite --arch fg` does not silently simulate
/// something else than asked.
fn warn_ignored(f: &Flags, cmd: &str, ignored: &[&str]) {
    for name in ignored {
        if f.present.iter().any(|p| p == name) {
            eprintln!("warning: {name} is accepted but ignored by '{cmd}'");
        }
    }
    if f.telemetry.is_none() && f.present.contains(&"--epoch") {
        eprintln!("warning: --epoch has no effect without --telemetry");
    }
    if f.faults.is_none() && f.present.contains(&"--fault-seed") {
        eprintln!("warning: --fault-seed has no effect without --faults");
    }
}

/// The flag-customised system for one (workload, architecture) cell;
/// shared between the one-shot commands and the parallel suite matrix.
fn builder_for(mut workload: Workload, kind: DramKind, f: &Flags) -> SystemBuilder {
    if let Some(mlp) = f.mlp {
        workload.mlp = mlp;
    }
    let mut gpu = GpuConfig::default();
    if let Some(wave) = f.wave {
        gpu.wave_window = wave;
    }
    let mut ctrl = CtrlConfig::for_dram(&DramConfig::new(kind));
    if f.closed_page {
        ctrl.page_policy = PagePolicy::Closed;
    }
    let mut b = SystemBuilder::new(kind)
        .workload(workload)
        .gpu_config(gpu)
        .ctrl_config(ctrl)
        .io_technology(if f.grs { IoTechnology::Grs } else { IoTechnology::Podl });
    if let Some(spec) = &f.faults {
        b = b.faults(spec.clone()).fault_seed(f.fault_seed);
    }
    b
}

/// One telemetry output file, JSONL or CSV by the path's extension; a
/// CSV file gets one header, written with its first epoch.
struct TelemetrySink {
    w: BufWriter<File>,
    path: String,
    csv: bool,
    epochs: usize,
}

impl TelemetrySink {
    fn create(path: &str) -> Result<Self, SimError> {
        let file = File::create(path)
            .map_err(|e| SimError::Io { context: format!("--telemetry {path}"), source: e })?;
        Ok(TelemetrySink {
            w: BufWriter::new(file),
            path: path.to_string(),
            csv: path.ends_with(".csv"),
            epochs: 0,
        })
    }

    fn io_err(&self, e: std::io::Error) -> SimError {
        SimError::Io { context: format!("--telemetry {}", self.path), source: e }
    }

    fn emit(&mut self, meta: &[(&str, &str)], t: &Telemetry) -> Result<(), SimError> {
        let written = if self.csv {
            export::write_csv(&mut self.w, meta, t, self.epochs == 0)
        } else {
            export::write_jsonl(&mut self.w, meta, t)
        };
        written.map_err(|e| self.io_err(e))?;
        self.epochs += t.records.len();
        Ok(())
    }

    fn close(mut self) -> Result<(), SimError> {
        self.w.flush().map_err(|e| self.io_err(e))?;
        eprintln!("telemetry: {} epochs -> {}", self.epochs, self.path);
        Ok(())
    }
}

fn telemetry_cfg(f: &Flags) -> TelemetryConfig {
    TelemetryConfig::for_window(f.epoch, f.window)
}

fn simulate(
    workload: Workload,
    kind: DramKind,
    f: &Flags,
) -> Result<(SimReport, Option<Telemetry>), SimError> {
    let mut builder = builder_for(workload, kind, f);
    if f.trace_check {
        builder = builder.with_trace();
    }
    let mut sys = builder.build()?;
    sys.run_for(f.warmup)?;
    sys.reset_stats();
    if f.telemetry.is_some() {
        sys.enable_telemetry(telemetry_cfg(f));
    }
    sys.run_for(f.window)?;
    let series = sys.finish_telemetry();
    if f.trace_check {
        let mut trace = sys.take_trace();
        let injected = f.faults.as_ref().map_or(0, |s| s.timing_faults);
        if injected > 0 {
            // Timing-fault injection mode: perturb the recorded trace and
            // show what the independent checker catches. The structured
            // report is the deliverable; a caught violation is success.
            let shifted = timing::perturb(&mut trace, f.fault_seed, injected);
            let report = ProtocolChecker::new(DramConfig::new(kind)).report_trace(&trace);
            eprintln!(
                "trace-check: injected {injected} timing fault(s), {shifted} command(s) shifted"
            );
            eprintln!("{report}");
            if report.is_clean() && shifted > 0 {
                eprintln!("warning: perturbation produced no violation (shifts can cancel)");
            }
        } else {
            let report = ProtocolChecker::new(DramConfig::new(kind)).report_trace(&trace);
            if !report.is_clean() {
                eprintln!("{report}");
                return Err(SimError::Protocol(report.violations[0]));
            }
            eprintln!("trace-check: {} commands, protocol clean", trace.len());
        }
    }
    Ok((sys.report(f.window), series))
}

fn cmd_list() {
    println!("compute suite ({}):", suites::compute_suite().len());
    for w in suites::compute_suite() {
        println!(
            "  {:<14} {}",
            w.name,
            if w.memory_intensive { "memory-intensive" } else { "low-bandwidth" }
        );
    }
    println!("graphics suite ({}): gfx00 .. gfx79", suites::graphics_suite().len());
}

fn cmd_info() {
    println!(
        "{:<28} {:>10} {:>10} {:>16} {:>10}",
        "parameter", "HBM2", "QB-HBM", "QB+SALP+SC", "FGDRAM"
    );
    let cfgs: Vec<DramConfig> = DramKind::ALL.iter().map(|&k| DramConfig::new(k)).collect();
    let row = |name: &str, f: &dyn Fn(&DramConfig) -> String| {
        println!(
            "{:<28} {:>10} {:>10} {:>16} {:>10}",
            name,
            f(&cfgs[0]),
            f(&cfgs[1]),
            f(&cfgs[2]),
            f(&cfgs[3])
        );
    };
    row("channels (grains)", &|c| c.channels.to_string());
    row("banks/channel", &|c| c.banks_per_channel.to_string());
    row("row/activate (B)", &|c| c.activation_bytes.to_string());
    row("stack bandwidth (GB/s)", &|c| format!("{:.0}", c.stack_bandwidth().value()));
    row("tBURST (ns)", &|c| c.timing.t_burst.to_string());
    row("tCCDL (ns)", &|c| c.timing.t_ccd_l.to_string());
}

fn print_usage() {
    eprintln!(
        "usage: fgdram-sim <list|info|run|compare|suite> [args]\n\
         e.g.   fgdram-sim run GUPS --arch fg --trace-check\n\
                fgdram-sim run STREAM --telemetry out.jsonl --epoch 1000\n\
                fgdram-sim run STREAM --faults storm --fault-seed 7\n\
                fgdram-sim compare STREAM --window 50000\n\
                fgdram-sim suite compute --jobs 8 --telemetry suite.csv\n\
         exit codes: 0 ok, 2 usage, 3 config, 4 protocol, 5 stall, 6 I/O, 7 fault storm"
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            print_usage();
            ExitCode::from(2)
        }
        Err(CliError::Sim(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn real_main(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("info") => cmd_info(),
        Some("run") => {
            let name = args.get(1).ok_or_else(|| "run needs a workload name".to_string())?;
            let w = suites::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
            let f = parse_flags(&args[2..])?;
            warn_ignored(&f, "run", &["--jobs"]);
            let (report, series) = simulate(w, f.arch, &f)?;
            println!("{report}");
            if let (Some(path), Some(t)) = (&f.telemetry, &series) {
                let mut sink = TelemetrySink::create(path)?;
                sink.emit(&[("workload", name), ("arch", f.arch.label())], t)?;
                sink.close()?;
            }
        }
        Some("compare") => {
            let name = args.get(1).ok_or_else(|| "compare needs a workload name".to_string())?;
            let w = suites::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
            let f = parse_flags(&args[2..])?;
            warn_ignored(&f, "compare", &["--arch", "--jobs"]);
            let mut sink = f.telemetry.as_deref().map(TelemetrySink::create).transpose()?;
            let mut base: Option<SimReport> = None;
            for kind in DramKind::ALL {
                let (r, series) = simulate(w.clone(), kind, &f)?;
                let speedup = base
                    .as_ref()
                    .map(|b| format!("  {:.2}x vs QB-HBM", r.speedup_over(b)))
                    .unwrap_or_default();
                if kind == DramKind::QbHbm {
                    base = Some(r.clone());
                }
                println!("{r}{speedup}");
                if let (Some(sink), Some(t)) = (sink.as_mut(), &series) {
                    sink.emit(&[("workload", name), ("arch", kind.label())], t)?;
                }
            }
            if let Some(sink) = sink {
                sink.close()?;
            }
        }
        Some("suite") => {
            let which = args.get(1).map(String::as_str).unwrap_or("compute");
            let f = parse_flags(&args[2..])?;
            let which = suite::SuiteKind::parse(which)
                .ok_or_else(|| format!("unknown suite {which} (compute|graphics)"))?;
            let mut workloads = which.all_workloads();
            if let Some(n) = f.max_workloads {
                workloads.truncate(n);
            }
            warn_ignored(&f, "suite", &["--arch", "--trace-check"]);
            check_telemetry(&f, workloads.len() * suite::SUITE_KINDS.len())?;
            // Every (workload, architecture) cell is independent; run the
            // whole suite through the sharded cell executor. Results —
            // including the telemetry stream, which is serialised from the
            // input-order result table after the run — are identical at
            // any --jobs value. The cell table and the final rendering are
            // shared with `fgdram-serve` (core::suite), which is what
            // makes the served report byte-identical to this command.
            let scale = Scale {
                warmup: f.warmup,
                window: f.window,
                max_workloads: None, // already applied above
                parallelism: experiments::Parallelism::jobs(f.jobs),
            };
            let cells = experiments::run_cells(&workloads, &suite::SUITE_KINDS, scale, |w, k| {
                let mut b = builder_for(w.clone(), k, &f);
                if f.telemetry.is_some() {
                    b = b.telemetry(telemetry_cfg(&f));
                }
                b.run_instrumented(scale.warmup, scale.window)
            })?;
            let mut sink = f.telemetry.as_deref().map(TelemetrySink::create).transpose()?;
            if let Some(sink) = sink.as_mut() {
                for (ci, (_, t)) in cells.iter().enumerate() {
                    if let Some(t) = t {
                        let w = &workloads[ci / suite::SUITE_KINDS.len()];
                        let kind = suite::SUITE_KINDS[ci % suite::SUITE_KINDS.len()];
                        sink.emit(&[("workload", &w.name), ("arch", kind.label())], t)?;
                    }
                }
            }
            if let Some(sink) = sink {
                sink.close()?;
            }
            let reports: Vec<SimReport> = cells.into_iter().map(|(r, _)| r).collect();
            print!("{}", suite::render_report(which, &workloads, &reports));
        }
        Some(other) => return Err(CliError::Usage(format!("unknown subcommand '{other}'"))),
        None => return Err(CliError::Usage("missing subcommand".to_string())),
    }
    Ok(())
}
