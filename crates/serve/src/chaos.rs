//! Seeded chaos injection for the serving layer: wire faults on accepted
//! connections and disk faults on checkpoint appends.
//!
//! This extends the `crates/faults` philosophy (deterministic, seeded,
//! spec-driven fault injection) one level up the stack: where
//! `FaultSpec` breaks the simulated DRAM, [`ChaosSpec`] breaks the
//! daemon's own transport and spool, so every serving-layer defense
//! (read/write deadlines, client retry, CRC-checked spool records,
//! overload shedding) ships with the seeded attack that would kill it.
//!
//! ## Grammar
//!
//! `--chaos` takes a comma-separated [`fgdram_model::kv`] list of
//! probabilities, read like `--faults`:
//!
//! | key | fault injected |
//! |---|---|
//! | `torn=p` | the request stream ends after a seeded prefix (client died mid-send) |
//! | `reset=p` | the connection is dropped before reading anything (RST-style) |
//! | `dribble=p` | the read stalls past the deadline after a seeded prefix (slow loris) |
//! | `disconnect=p` | the response stream is cut after a seeded prefix |
//! | `garble=p` | seeded bytes of the request body are flipped (malformed spec) |
//! | `ckpt-corrupt=p` | seeded bytes of a spool record are flipped after its CRC is computed |
//! | `ckpt-short=p` | only a seeded prefix of a spool record reaches the file |
//! | `ckpt-enospc=p` | the spool append fails outright (ENOSPC-style) |
//!
//! plus the bare preset `storm` (aggressive-but-survivable rates for all
//! eight). Determinism: each connection and each append draws its own
//! [`fgdram_faults::Dice`] stream from `--chaos-seed` via
//! [`fgdram_faults::derive_seed`], keyed by a monotone event counter —
//! so a single-client interaction replays exactly under a fixed seed.
//!
//! At most one wire fault fires per connection (rolled in the fixed
//! order reset, torn, dribble, disconnect, garble) and at most one disk
//! fault per append (enospc, short, corrupt) — first hit wins, and every
//! roll is consumed either way so probabilities compose independently.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use fgdram_faults::Dice;
use fgdram_model::kv::{self, KvError};

/// A parsed, validated chaos specification (all rates default to 0).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosSpec {
    /// P(request stream torn after a seeded prefix).
    pub torn: f64,
    /// P(connection dropped before the request is read).
    pub reset: f64,
    /// P(read stalls past the deadline — surfaces as a timeout).
    pub dribble: f64,
    /// P(response stream cut after a seeded prefix).
    pub disconnect: f64,
    /// P(request body bytes flipped before the spec parser reads them).
    pub garble: f64,
    /// P(spool record corrupted after its CRC was computed).
    pub ckpt_corrupt: f64,
    /// P(spool record truncated to a seeded prefix).
    pub ckpt_short: f64,
    /// P(spool append fails outright).
    pub ckpt_enospc: f64,
}

impl ChaosSpec {
    /// Parses the comma-separated `key=value` grammar (see module docs).
    ///
    /// # Errors
    ///
    /// A [`KvError`] naming the first offending item.
    pub fn parse(s: &str) -> Result<ChaosSpec, KvError> {
        let mut spec = ChaosSpec::default();
        for item in kv::items(s, ',') {
            let rate = match item.key {
                "storm" if item.value.is_none() => {
                    spec.apply_storm_preset();
                    continue;
                }
                "torn" => &mut spec.torn,
                "reset" => &mut spec.reset,
                "dribble" => &mut spec.dribble,
                "disconnect" => &mut spec.disconnect,
                "garble" => &mut spec.garble,
                "ckpt-corrupt" => &mut spec.ckpt_corrupt,
                "ckpt-short" => &mut spec.ckpt_short,
                "ckpt-enospc" => &mut spec.ckpt_enospc,
                _ => return Err(item.unknown()),
            };
            *rate = item.prob()?;
        }
        Ok(spec)
    }

    /// The aggressive-but-survivable preset behind the bare `storm`
    /// item: every fault class fires often enough to exercise its
    /// defense, rarely enough that a retrying client still converges.
    fn apply_storm_preset(&mut self) {
        self.torn = 0.15;
        self.reset = 0.1;
        self.dribble = 0.1;
        self.disconnect = 0.15;
        self.garble = 0.05;
        self.ckpt_corrupt = 0.2;
        self.ckpt_short = 0.15;
        self.ckpt_enospc = 0.1;
    }

    /// True when no fault can ever fire — the chaos layer is not engaged
    /// and the daemon behaves byte-identically to one built without it.
    pub fn is_noop(&self) -> bool {
        *self == ChaosSpec::default()
    }
}

/// Monotone injection counters, surfaced under `"chaos"` in `/stats`.
#[derive(Debug, Default)]
pub struct ChaosStats {
    /// Request streams torn short.
    pub torn: AtomicU64,
    /// Connections reset before the request was read.
    pub reset: AtomicU64,
    /// Reads stalled into the deadline.
    pub dribble: AtomicU64,
    /// Response streams cut mid-write.
    pub disconnect: AtomicU64,
    /// Request bodies garbled.
    pub garble: AtomicU64,
    /// Spool records corrupted.
    pub ckpt_corrupt: AtomicU64,
    /// Spool records short-written.
    pub ckpt_short: AtomicU64,
    /// Spool appends failed outright.
    pub ckpt_enospc: AtomicU64,
}

/// What the chaos layer decided to do to one connection.
#[derive(Debug, Clone, PartialEq)]
pub enum WirePlan {
    /// Leave the connection alone.
    None,
    /// Drop it before reading anything.
    Reset,
    /// End the request stream after `after` bytes.
    Torn {
        /// Bytes delivered before the tear.
        after: usize,
    },
    /// Stall the read (deadline-style timeout) after `after` bytes.
    Dribble {
        /// Bytes delivered before the stall.
        after: usize,
    },
    /// Cut the response stream after `after` bytes.
    Disconnect {
        /// Bytes written before the cut.
        after: usize,
    },
    /// Flip bytes of the parsed request body (see [`WirePlan::garble`]).
    Garble {
        /// Per-byte flip probability (seeded per connection).
        rate: f64,
        /// The connection's dice stream to draw flips from.
        dice: Dice,
    },
}

impl WirePlan {
    /// Applies a garble plan to a parsed request body (any other plan
    /// leaves it alone): per byte, one roll at `rate` and, on a hit, one
    /// XOR mask in `1..256`. Only the body is garbled — a garbled head is
    /// just a torn request, but a garbled body must reach the spec
    /// parser.
    pub fn garble(self, body: &mut [u8]) {
        let WirePlan::Garble { rate, mut dice } = self else { return };
        for b in body {
            if dice.roll(rate) {
                *b ^= dice.range(1, 256) as u8;
            }
        }
    }
}

/// The live chaos engine: one per daemon, shared by the connection
/// handlers and the spool writers.
#[derive(Debug)]
pub struct Chaos {
    spec: ChaosSpec,
    seed: u64,
    conns: AtomicU64,
    appends: AtomicU64,
    /// Injection counters (public so `/stats` can render them).
    pub stats: ChaosStats,
}

/// What the chaos layer decided to do to one spool append.
#[derive(Debug, Clone, PartialEq)]
pub enum DiskPlan {
    /// Write the record faithfully.
    None,
    /// Fail the append outright (ENOSPC-style).
    Enospc,
    /// Write only the first `keep` bytes of the record.
    Short {
        /// Bytes of the record that reach the file.
        keep: usize,
    },
    /// Flip `flips` seeded bytes of the record before writing.
    Corrupt {
        /// Number of byte flips.
        flips: usize,
        /// The dice stream to draw flip positions from.
        dice: Dice,
    },
}

impl Chaos {
    /// Builds the engine for one daemon run.
    pub fn new(spec: ChaosSpec, seed: u64) -> Chaos {
        Chaos {
            spec,
            seed,
            conns: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            stats: ChaosStats::default(),
        }
    }

    /// The parsed spec this engine runs.
    pub fn spec(&self) -> &ChaosSpec {
        &self.spec
    }

    /// Draws the wire plan for the next accepted connection (and counts
    /// the injection). Each connection consumes one counter value, so a
    /// sequential client replays exactly under a fixed seed.
    pub fn wire_plan(&self) -> WirePlan {
        let n = self.conns.fetch_add(1, Ordering::Relaxed);
        let mut dice = Dice::for_site(self.seed, "wire", n);
        // Fixed roll order; every roll consumed so the streams stay
        // aligned when individual rates change.
        let reset = dice.roll(self.spec.reset);
        let torn = dice.roll(self.spec.torn);
        let dribble = dice.roll(self.spec.dribble);
        let disconnect = dice.roll(self.spec.disconnect);
        let garble = dice.roll(self.spec.garble);
        let plan = if reset {
            WirePlan::Reset
        } else if torn {
            WirePlan::Torn { after: dice.range(1, 64) as usize }
        } else if dribble {
            WirePlan::Dribble { after: dice.range(1, 64) as usize }
        } else if disconnect {
            WirePlan::Disconnect { after: dice.range(1, 160) as usize }
        } else if garble {
            let rate = 0.02 + 0.18 * (dice.range(0, 1000) as f64 / 1000.0);
            // The rest of the connection's stream draws the flips.
            WirePlan::Garble { rate, dice }
        } else {
            WirePlan::None
        };
        let counter = match &plan {
            WirePlan::None => None,
            WirePlan::Reset => Some(&self.stats.reset),
            WirePlan::Torn { .. } => Some(&self.stats.torn),
            WirePlan::Dribble { .. } => Some(&self.stats.dribble),
            WirePlan::Disconnect { .. } => Some(&self.stats.disconnect),
            WirePlan::Garble { .. } => Some(&self.stats.garble),
        };
        if let Some(c) = counter {
            c.fetch_add(1, Ordering::Relaxed);
        }
        plan
    }

    /// Draws the disk plan for the next spool append of a `record_len`
    /// byte record (and counts the injection).
    pub fn disk_plan(&self, record_len: usize) -> DiskPlan {
        let n = self.appends.fetch_add(1, Ordering::Relaxed);
        let mut dice = Dice::for_site(self.seed, "disk", n);
        let enospc = dice.roll(self.spec.ckpt_enospc);
        let short = dice.roll(self.spec.ckpt_short);
        let corrupt = dice.roll(self.spec.ckpt_corrupt);
        if enospc {
            self.stats.ckpt_enospc.fetch_add(1, Ordering::Relaxed);
            DiskPlan::Enospc
        } else if short && record_len > 1 {
            self.stats.ckpt_short.fetch_add(1, Ordering::Relaxed);
            DiskPlan::Short { keep: dice.range(1, record_len as u64) as usize }
        } else if corrupt && record_len > 0 {
            self.stats.ckpt_corrupt.fetch_add(1, Ordering::Relaxed);
            DiskPlan::Corrupt { flips: dice.range(1, 4) as usize, dice }
        } else {
            DiskPlan::None
        }
    }
}

/// A reader that applies a [`WirePlan::Torn`] or [`WirePlan::Dribble`]
/// to an inbound request stream. Wrap the raw `TcpStream` with this, then
/// put the `BufReader` on top.
#[derive(Debug)]
pub struct ChaosReader<R: Read> {
    inner: R,
    /// `(after, stall)`: after `after` bytes the stream ends (torn) or
    /// stalls into the deadline (dribble).
    cut: Option<(usize, bool)>,
    seen: usize,
}

impl<R: Read> ChaosReader<R> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: R, plan: &WirePlan) -> ChaosReader<R> {
        let cut = match *plan {
            WirePlan::Torn { after } => Some((after, false)),
            WirePlan::Dribble { after } => Some((after, true)),
            _ => None,
        };
        ChaosReader { inner, cut, seen: 0 }
    }
}

impl<R: Read> Read for ChaosReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let take = match self.cut {
            Some((after, stall)) if self.seen >= after => {
                if stall {
                    // The dribbling client never sends the next byte; the
                    // socket deadline fires. Surfaced directly as the
                    // same error a real `SO_RCVTIMEO` expiry produces.
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "chaos dribble stall"));
                }
                return Ok(0); // stream torn: looks like client EOF
            }
            Some((after, _)) => buf.len().min(after - self.seen),
            None => buf.len(),
        };
        let n = self.inner.read(&mut buf[..take])?;
        self.seen += n;
        Ok(n)
    }
}

/// A writer that applies a [`WirePlan::Disconnect`] to the response
/// stream: after the budgeted bytes, every write fails like a peer
/// hangup.
#[derive(Debug)]
pub struct ChaosWriter<W: Write> {
    inner: W,
    cut_after: Option<usize>,
    written: usize,
}

impl<W: Write> ChaosWriter<W> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: W, plan: &WirePlan) -> ChaosWriter<W> {
        let cut_after = match *plan {
            WirePlan::Disconnect { after } => Some(after),
            _ => None,
        };
        ChaosWriter { inner, cut_after, written: 0 }
    }
}

impl<W: Write> Write for ChaosWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(cut) = self.cut_after {
            if self.written >= cut {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "chaos disconnect: peer gone",
                ));
            }
            let take = buf.len().min(cut - self.written);
            let n = self.inner.write(&buf[..take])?;
            self.written += n;
            return Ok(n);
        }
        let n = self.inner.write(buf)?;
        self.written += n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_request, Request};
    use std::io::BufReader;

    #[test]
    fn parses_full_grammar_and_storm_preset() {
        let s = ChaosSpec::parse(
            "torn=0.1,reset=0.2,dribble=0.3,disconnect=0.4,garble=0.05,\
             ckpt-corrupt=0.6,ckpt-short=0.7,ckpt-enospc=0.8",
        )
        .unwrap();
        assert_eq!(s.torn, 0.1);
        assert_eq!(s.reset, 0.2);
        assert_eq!(s.dribble, 0.3);
        assert_eq!(s.disconnect, 0.4);
        assert_eq!(s.garble, 0.05);
        assert_eq!(s.ckpt_corrupt, 0.6);
        assert_eq!(s.ckpt_short, 0.7);
        assert_eq!(s.ckpt_enospc, 0.8);
        assert!(!s.is_noop());
        let storm = ChaosSpec::parse("storm").unwrap();
        assert!(!storm.is_noop());
        // Preset then override: later items win.
        assert_eq!(ChaosSpec::parse("storm,reset=0").unwrap().reset, 0.0);
    }

    #[test]
    fn empty_and_zero_specs_are_noop() {
        assert!(ChaosSpec::parse("").unwrap().is_noop());
        assert!(ChaosSpec::parse("torn=0,reset=0.0").unwrap().is_noop());
        assert_eq!(ChaosSpec::default(), ChaosSpec::parse("").unwrap());
    }

    #[test]
    fn rejects_malformed_items() {
        assert!(matches!(ChaosSpec::parse("bogus=1"), Err(KvError::UnknownKey(_))));
        assert!(matches!(ChaosSpec::parse("frob"), Err(KvError::UnknownKey(_))));
        assert!(matches!(ChaosSpec::parse("torn=zebra"), Err(KvError::BadValue { .. })));
        assert!(matches!(ChaosSpec::parse("torn=1.5"), Err(KvError::BadProbability { .. })));
        assert!(matches!(ChaosSpec::parse("torn=-0.1"), Err(KvError::BadProbability { .. })));
    }

    #[test]
    fn wire_plans_replay_under_a_fixed_seed() {
        let spec = ChaosSpec::parse("storm").unwrap();
        let a = Chaos::new(spec.clone(), 42);
        let b = Chaos::new(spec, 42);
        let plans_a: Vec<WirePlan> = (0..64).map(|_| a.wire_plan()).collect();
        let plans_b: Vec<WirePlan> = (0..64).map(|_| b.wire_plan()).collect();
        assert_eq!(plans_a, plans_b);
        assert!(plans_a.iter().any(|p| *p != WirePlan::None), "storm injects something in 64");
        assert!(plans_a.contains(&WirePlan::None), "storm is not total loss");
    }

    #[test]
    fn noop_spec_never_injects() {
        let c = Chaos::new(ChaosSpec::default(), 7);
        for _ in 0..256 {
            assert_eq!(c.wire_plan(), WirePlan::None);
            assert_eq!(c.disk_plan(100), DiskPlan::None);
        }
    }

    #[test]
    fn torn_reader_ends_the_stream_early() {
        let data = b"POST /jobs HTTP/1.1\r\n\r\nsuite=compute\n";
        let mut r = ChaosReader::new(&data[..], &WirePlan::Torn { after: 10 });
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, &data[..10]);
    }

    #[test]
    fn dribble_reader_times_out_after_its_prefix() {
        let data = b"GET /stats HTTP/1.1\r\n\r\n";
        let mut r = ChaosReader::new(&data[..], &WirePlan::Dribble { after: 5 });
        let mut buf = [0u8; 64];
        let n = r.read(&mut buf).unwrap();
        assert_eq!(n, 5);
        let err = r.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
    }

    /// A request through the faithful reader, then `plan`'s garble.
    fn garbled(plan: WirePlan, head: &str, body: &[u8]) -> Request {
        let mut data = head.as_bytes().to_vec();
        data.extend_from_slice(body);
        let mut r = BufReader::new(ChaosReader::new(&data[..], &plan));
        let mut req = read_request(&mut r).expect("a well-formed request");
        plan.garble(&mut req.body);
        req
    }

    #[test]
    fn garble_reader_leaves_the_head_alone_and_flips_the_body() {
        let head = "POST /jobs HTTP/1.1\r\nContent-Length: 14\r\n\r\n";
        let body = b"suite=compute\n";
        let plan = WirePlan::Garble { rate: 1.0, dice: Dice::for_site(3, "wire", 1) };
        let req = garbled(plan, head, body);
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/jobs"), "head untouched");
        assert_eq!(req.header("content-length"), Some("14"));
        assert_eq!(req.body.len(), body.len());
        assert!(req.body.iter().zip(body).all(|(a, b)| a != b), "every body byte flipped");
        // Any other plan leaves the body alone.
        assert_eq!(garbled(WirePlan::None, head, body).body, body);
    }

    #[test]
    fn seeded_garble_flips_the_same_body_bytes() {
        // Pinned bytes: one roll (and, on a hit, one mask) per body byte
        // in order, so a seeded chaos run replays the same garble.
        let body = "suite=compute\nwarmup=2000\nwindow=6000\nmax_workloads=3\n";
        let head =
            format!("POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n", body.len());
        let plan = Chaos::new(ChaosSpec::parse("garble=1").unwrap(), 11).wire_plan();
        assert!(matches!(plan, WirePlan::Garble { rate, .. } if rate == 0.02486), "{plan:?}");
        let req = garbled(plan, &head, body.as_bytes());
        assert_eq!(req.body, b"suite=compute\nwarmup=2000\nwiedow=6000\nmax_workloads=3H");
    }

    #[test]
    fn disconnect_writer_cuts_after_its_budget() {
        let mut sink = Vec::new();
        let mut w = ChaosWriter::new(&mut sink, &WirePlan::Disconnect { after: 8 });
        assert_eq!(w.write(b"HTTP/1.1 200").unwrap(), 8);
        assert_eq!(w.write(b"more").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(sink, b"HTTP/1.1");
    }

    #[test]
    fn disk_plans_cover_all_faults_and_replay() {
        let spec = ChaosSpec::parse("ckpt-corrupt=0.4,ckpt-short=0.3,ckpt-enospc=0.2").unwrap();
        let a = Chaos::new(spec.clone(), 9);
        let b = Chaos::new(spec, 9);
        let mut kinds = [0u32; 4];
        for _ in 0..256 {
            let pa = a.disk_plan(200);
            assert_eq!(pa, b.disk_plan(200));
            match pa {
                DiskPlan::None => kinds[0] += 1,
                DiskPlan::Enospc => kinds[1] += 1,
                DiskPlan::Short { keep } => {
                    assert!((1..200).contains(&keep));
                    kinds[2] += 1;
                }
                DiskPlan::Corrupt { flips, .. } => {
                    assert!((1..4).contains(&flips));
                    kinds[3] += 1;
                }
            }
        }
        assert!(kinds.iter().all(|&k| k > 0), "all plan kinds drawn: {kinds:?}");
        assert_eq!(a.stats.ckpt_enospc.load(Ordering::Relaxed), u64::from(kinds[1]));
    }
}
