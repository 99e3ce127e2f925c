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
//! probabilities, read like `--faults`: `key=p` for each key of the
//! fault-class table `FAULTS` (wire faults `torn`, `reset`, `dribble`,
//! `disconnect`, `garble`; disk faults `ckpt-corrupt`, `ckpt-short`,
//! `ckpt-enospc`; `Fault` says what each injects), plus the bare preset `storm`
//! (aggressive-but-survivable rates for all eight). Determinism: each
//! connection and each append draws its own [`fgdram_faults::Dice`]
//! stream from `--chaos-seed` via [`fgdram_faults::derive_seed`], keyed
//! by a monotone event counter — so a single-client interaction replays
//! exactly under a fixed seed.
//!
//! At most one wire fault fires per connection (rolled in the fixed
//! order reset, torn, dribble, disconnect, garble) and at most one disk
//! fault per append (enospc, short, corrupt) — first hit wins, and every
//! roll is consumed either way so probabilities compose independently.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use fgdram_faults::Dice;
use fgdram_model::json::Object;
use fgdram_model::kv::{self, KvError};

/// A chaos fault class; indexes [`FAULTS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fault {
    /// The request stream ends after a seeded prefix (client died
    /// mid-send).
    Torn,
    /// The connection is dropped before the request is read (RST-style).
    Reset,
    /// The read stalls past the deadline after a seeded prefix (slow
    /// loris).
    Dribble,
    /// The response stream is cut after a seeded prefix.
    Disconnect,
    /// Request body bytes are flipped before the spec parser reads them.
    Garble,
    /// A spool record is corrupted after its CRC was computed.
    CkptCorrupt,
    /// A spool record is truncated to a seeded prefix.
    CkptShort,
    /// A spool append fails outright (ENOSPC-style).
    CkptEnospc,
}

/// Each fault class once, in [`Fault`] order: its `--chaos` key, its
/// `storm` rate, and the `/stats` group and name its injection count
/// renders under. The `storm` rates are aggressive but survivable: every
/// class fires often enough to exercise its defense, rarely enough that a
/// retrying client still converges.
pub(crate) const FAULTS: [(&str, f64, &str, &str); 8] = [
    ("torn", 0.15, "wire", "torn"),
    ("reset", 0.1, "wire", "reset"),
    ("dribble", 0.1, "wire", "dribble"),
    ("disconnect", 0.15, "wire", "disconnect"),
    ("garble", 0.05, "wire", "garble"),
    ("ckpt-corrupt", 0.2, "disk", "corrupt"),
    ("ckpt-short", 0.15, "disk", "short"),
    ("ckpt-enospc", 0.1, "disk", "enospc"),
];

/// A parsed, validated chaos specification: one probability per fault
/// class (all default to 0).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChaosSpec {
    rates: [f64; FAULTS.len()],
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
            if item.key == "storm" && item.value.is_none() {
                spec.rates = FAULTS.map(|f| f.1);
                continue;
            }
            let Some(i) = FAULTS.iter().position(|f| f.0 == item.key) else {
                return Err(item.unknown());
            };
            spec.rates[i] = item.prob()?;
        }
        Ok(spec)
    }

    /// The probability of fault class `f`.
    pub(crate) fn rate(&self, f: Fault) -> f64 {
        self.rates[f as usize]
    }

    /// True when no fault can ever fire — the chaos layer is not engaged
    /// and the daemon behaves byte-identically to one built without it.
    pub fn is_noop(&self) -> bool {
        *self == ChaosSpec::default()
    }
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
    /// Injections so far, per fault class, surfaced under `"chaos"` in
    /// `/stats`.
    pub(crate) injected: [AtomicU64; FAULTS.len()],
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
            injected: Default::default(),
        }
    }

    /// Renders the injection counts as `/stats` members: one object per
    /// group, each class under its name, in [`FAULTS`] order.
    pub(crate) fn render_stats(&self, o: &mut Object<'_>) {
        for group in ["wire", "disk"] {
            o.object(group, |o| {
                for (f, n) in FAULTS.iter().zip(&self.injected).filter(|(f, _)| f.2 == group) {
                    o.u64(f.3, n.load(Ordering::Relaxed));
                }
            });
        }
    }

    /// Counts one injection of `f` and returns `plan`.
    fn inject<P>(&self, f: Fault, plan: P) -> P {
        self.injected[f as usize].fetch_add(1, Ordering::Relaxed);
        plan
    }

    /// Draws the wire plan for the next accepted connection (and counts
    /// the injection). Each connection consumes one counter value, so a
    /// sequential client replays exactly under a fixed seed.
    pub fn wire_plan(&self) -> WirePlan {
        let n = self.conns.fetch_add(1, Ordering::Relaxed);
        let mut dice = Dice::for_site(self.seed, "wire", n);
        // Fixed roll order; every roll consumed so the streams stay
        // aligned when individual rates change.
        let [reset, torn, dribble, disconnect, garble] =
            [Fault::Reset, Fault::Torn, Fault::Dribble, Fault::Disconnect, Fault::Garble]
                .map(|f| dice.roll(self.spec.rate(f)));
        if reset {
            self.inject(Fault::Reset, WirePlan::Reset)
        } else if torn {
            self.inject(Fault::Torn, WirePlan::Torn { after: dice.range(1, 64) as usize })
        } else if dribble {
            self.inject(Fault::Dribble, WirePlan::Dribble { after: dice.range(1, 64) as usize })
        } else if disconnect {
            let after = dice.range(1, 160) as usize;
            self.inject(Fault::Disconnect, WirePlan::Disconnect { after })
        } else if garble {
            let rate = 0.02 + 0.18 * (dice.range(0, 1000) as f64 / 1000.0);
            // The rest of the connection's stream draws the flips.
            self.inject(Fault::Garble, WirePlan::Garble { rate, dice })
        } else {
            WirePlan::None
        }
    }

    /// Draws the disk plan for the next spool append of a `record_len`
    /// byte record (and counts the injection).
    pub fn disk_plan(&self, record_len: usize) -> DiskPlan {
        let n = self.appends.fetch_add(1, Ordering::Relaxed);
        let mut dice = Dice::for_site(self.seed, "disk", n);
        let [enospc, short, corrupt] = [Fault::CkptEnospc, Fault::CkptShort, Fault::CkptCorrupt]
            .map(|f| dice.roll(self.spec.rate(f)));
        if enospc {
            self.inject(Fault::CkptEnospc, DiskPlan::Enospc)
        } else if short && record_len > 1 {
            let keep = dice.range(1, record_len as u64) as usize;
            self.inject(Fault::CkptShort, DiskPlan::Short { keep })
        } else if corrupt && record_len > 0 {
            let flips = dice.range(1, 4) as usize;
            self.inject(Fault::CkptCorrupt, DiskPlan::Corrupt { flips, dice })
        } else {
            DiskPlan::None
        }
    }
}

/// One direction of a connection under a [`WirePlan`]: a read ends
/// (torn) or stalls into the deadline (dribble) after the plan's prefix,
/// a write fails like a peer hangup after a disconnect plan's budget, and
/// any other plan passes bytes straight through. Wrap the raw
/// `TcpStream` once per direction, and put the `BufReader` on top of the
/// reading one.
#[derive(Debug)]
pub(crate) struct ChaosStream<S> {
    inner: S,
    plan: WirePlan,
    /// Bytes passed so far.
    seen: usize,
}

impl<S> ChaosStream<S> {
    /// Wraps `inner` under `plan`.
    pub(crate) fn new(inner: S, plan: &WirePlan) -> ChaosStream<S> {
        ChaosStream { inner, plan: plan.clone(), seen: 0 }
    }
}

impl<S: Read> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let take = match self.plan {
            // The dribbling client never sends the next byte; the socket
            // deadline fires. Surfaced directly as the same error a real
            // `SO_RCVTIMEO` expiry produces.
            WirePlan::Dribble { after } if self.seen >= after => {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "chaos dribble stall"));
            }
            WirePlan::Torn { after } if self.seen >= after => return Ok(0), // looks like EOF
            WirePlan::Torn { after } | WirePlan::Dribble { after } => {
                buf.len().min(after - self.seen)
            }
            _ => buf.len(),
        };
        let n = self.inner.read(&mut buf[..take])?;
        self.seen += n;
        Ok(n)
    }
}

impl<S: Write> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let take = match self.plan {
            WirePlan::Disconnect { after } if self.seen >= after => {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "chaos disconnect: peer gone",
                ));
            }
            WirePlan::Disconnect { after } => buf.len().min(after - self.seen),
            _ => buf.len(),
        };
        let n = self.inner.write(&buf[..take])?;
        self.seen += n;
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
    use fgdram_faults::crc32;
    use std::io::BufReader;

    #[test]
    fn parses_full_grammar_and_storm_preset() {
        let s = ChaosSpec::parse(
            "torn=0.1,reset=0.2,dribble=0.3,disconnect=0.4,garble=0.05,\
             ckpt-corrupt=0.6,ckpt-short=0.7,ckpt-enospc=0.8",
        )
        .unwrap();
        assert_eq!(s.rate(Fault::Torn), 0.1);
        assert_eq!(s.rate(Fault::Reset), 0.2);
        assert_eq!(s.rate(Fault::Dribble), 0.3);
        assert_eq!(s.rate(Fault::Disconnect), 0.4);
        assert_eq!(s.rate(Fault::Garble), 0.05);
        assert_eq!(s.rate(Fault::CkptCorrupt), 0.6);
        assert_eq!(s.rate(Fault::CkptShort), 0.7);
        assert_eq!(s.rate(Fault::CkptEnospc), 0.8);
        assert!(!s.is_noop());
        let storm = ChaosSpec::parse("storm").unwrap();
        assert!(!storm.is_noop());
        // Preset then override: later items win.
        assert_eq!(ChaosSpec::parse("storm,reset=0").unwrap().rate(Fault::Reset), 0.0);
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
        // Pinned: a changed roll order or rate table moves these.
        let tokens: Vec<String> = plans_a
            .iter()
            .map(|p| match p {
                WirePlan::None => "-".to_string(),
                WirePlan::Reset => "R".to_string(),
                WirePlan::Torn { after } => format!("T{after}"),
                WirePlan::Dribble { after } => format!("D{after}"),
                WirePlan::Disconnect { after } => format!("X{after}"),
                WirePlan::Garble { rate, .. } => format!("G{rate}"),
            })
            .collect();
        assert_eq!(tokens.join(" "), "- - R - T54 - - R - - - R - - - - - - D48 X20 T19 R R T50 - - - - - X93 G0.18794 - - - - - - - - X36 X4 D52 - D6 - - - - - R - R R D35 - T11 - - - - X36 T26 - D21");
        assert_eq!(crc32(format!("{plans_a:?}").as_bytes()), 0xc7d30a0a, "{plans_a:?}");
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
        let mut r = ChaosStream::new(&data[..], &WirePlan::Torn { after: 10 });
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, &data[..10]);
    }

    #[test]
    fn dribble_reader_times_out_after_its_prefix() {
        let data = b"GET /stats HTTP/1.1\r\n\r\n";
        let mut r = ChaosStream::new(&data[..], &WirePlan::Dribble { after: 5 });
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
        let mut r = BufReader::new(ChaosStream::new(&data[..], &plan));
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
        let mut w = ChaosStream::new(&mut sink, &WirePlan::Disconnect { after: 8 });
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
        assert_eq!(
            a.injected[Fault::CkptEnospc as usize].load(Ordering::Relaxed),
            u64::from(kinds[1])
        );
        // Pinned: a changed roll order moves the tally and the digest.
        assert_eq!(kinds, [93, 51, 59, 53]);
        let c = Chaos::new(
            ChaosSpec::parse("ckpt-corrupt=0.4,ckpt-short=0.3,ckpt-enospc=0.2").unwrap(),
            9,
        );
        let plans: Vec<DiskPlan> = (0..256).map(|_| c.disk_plan(200)).collect();
        assert_eq!(crc32(format!("{plans:?}").as_bytes()), 0x2dd82689, "{:?}", &plans[..12]);
    }
}
