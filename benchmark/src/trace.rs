//! Spans of the traced run, recorded from outside the library: the
//! benchmark reads the clock around its own calls into each layer.
//!
//! Two shapes. The engine's step loop runs a million steps a second, so
//! its spans are *aggregated* per slice and layer by a [`Chain`] (one
//! clock read per layer boundary; every nanosecond of a step lands in
//! exactly one layer) with a 1-in-[`RAW_EVERY`] raw sample of whole steps.
//! A served job is rare and slow, so its spans are kept raw in a
//! [`SpanTree`] per job. Everything stays in memory until the run ends.

use std::time::Instant;

use crate::json::Json;

/// The layers a step's time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Layer {
    /// `core::System`'s own glue: fill map, retry queues, watchdog.
    Glue,
    /// `model::wheel::EventWheel` push / pop / next_time.
    Wheel,
    /// `gpu::sm::Gpu` issue / sector_done / next_event.
    Sm,
    /// `gpu::l2::L2Cache` access / fill_done / writebacks.
    L2,
    /// `ctrl::Controller::try_enqueue`.
    CtrlEnqueue,
    /// `ctrl::Controller::tick`, which drives `dram::DramDevice`.
    CtrlTick,
}

/// Number of [`Layer`]s.
pub const LAYERS: usize = 6;

impl Layer {
    /// All layers in index order.
    pub const ALL: [Layer; LAYERS] =
        [Layer::Glue, Layer::Wheel, Layer::Sm, Layer::L2, Layer::CtrlEnqueue, Layer::CtrlTick];

    /// The module name the layer's metrics are reported under.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Glue => "core.system",
            Layer::Wheel => "model.wheel",
            Layer::Sm => "gpu.sm",
            Layer::L2 => "gpu.l2",
            Layer::CtrlEnqueue => "ctrl.enqueue",
            Layer::CtrlTick => "ctrl.tick",
        }
    }
}

/// One layer's aggregate over one slice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerAgg {
    /// Spans closed (calls into the layer, batched per step phase).
    pub calls: u64,
    /// Total span time in ns. Spans of different layers never overlap or
    /// nest, so this is the layer's self time.
    pub sum_ns: u64,
    /// Longest single span in ns.
    pub max_ns: u64,
    /// Work items the spans covered (events, sectors, requests, ticks).
    pub work: u64,
}

/// Every this-many steps one whole step's spans are kept raw.
pub const RAW_EVERY: u64 = 4096;

/// A raw span of a sampled step: `(step, layer index, duration ns)`.
pub type RawSpan = (u64, u8, u32);

/// A chained clock: each [`Chain::mark`] closes the span that began at the
/// previous mark and charges it to one layer.
#[derive(Debug)]
pub struct Chain {
    last: Instant,
    /// Aggregates of the slice in progress.
    pub agg: [LayerAgg; LAYERS],
    step: u64,
    raw_on: bool,
    /// The raw sample.
    pub raw: Vec<RawSpan>,
}

impl Chain {
    /// A chain with room for the raw sample of a long run.
    pub fn new() -> Self {
        Chain {
            last: Instant::now(),
            agg: [LayerAgg::default(); LAYERS],
            step: 0,
            raw_on: false,
            raw: Vec::with_capacity(1 << 16),
        }
    }

    /// Opens a step: the next mark's span starts now.
    #[inline]
    pub fn begin_step(&mut self) {
        self.step += 1;
        self.raw_on = self.step % RAW_EVERY == 0 && self.raw.len() + 32 < self.raw.capacity();
        self.last = Instant::now();
    }

    /// Charges the time since the previous mark, and `work` items, to
    /// `layer`.
    #[inline]
    pub fn mark(&mut self, layer: Layer, work: u64) {
        let now = Instant::now();
        let ns = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        let a = &mut self.agg[layer as usize];
        a.calls += 1;
        a.sum_ns += ns;
        a.max_ns = a.max_ns.max(ns);
        a.work += work;
        if self.raw_on {
            self.raw.push((self.step, layer as u8, ns.min(u32::MAX as u64) as u32));
        }
    }

    /// Steps begun so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Takes the finished slice's aggregates, zeroing them for the next.
    pub fn take_slice(&mut self) -> [LayerAgg; LAYERS] {
        std::mem::take(&mut self.agg)
    }
}

/// A span's self time: its duration minus the part its children cover.
/// Children are `(start, end)` offsets inside the parent; overlapping
/// children are counted once.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let mut kids: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.clamp(parent.0, parent.1), e.clamp(parent.0, parent.1)))
        .filter(|(s, e)| e > s)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.0;
    for (s, e) in kids {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    (parent.1 - parent.0) - covered
}

/// The raw spans of one served job: a root (`job`) and its children, as
/// offsets in ns from the start of the closed-loop phase.
#[derive(Debug, Clone)]
pub struct SpanTree {
    /// The server's job id (the identifier every span of the job shares).
    pub id: String,
    /// Job type label.
    pub kind: &'static str,
    /// Which client thread sent it.
    pub client: usize,
    /// `(start, end)` of the whole job, verification included.
    pub root: (u64, u64),
    /// Named child spans, each caused by the root.
    pub children: Vec<(&'static str, (u64, u64))>,
}

impl SpanTree {
    /// Duration of child `name` in ns (0 when absent).
    pub fn child_ns(&self, name: &str) -> u64 {
        self.children.iter().filter(|(n, _)| *n == name).map(|(_, (s, e))| e - s).sum()
    }

    /// What the client waited: submit sent to report body fully read.
    pub fn latency_ns(&self) -> u64 {
        self.children.iter().find(|(n, _)| *n == "fetch").map_or(0, |(_, (_, e))| e - self.root.0)
    }

    /// The root's self time: client glue between the child spans.
    pub fn root_self_ns(&self) -> u64 {
        let kids: Vec<_> = self.children.iter().map(|(_, se)| *se).collect();
        self_time(self.root, &kids)
    }

    fn json(&self) -> Json {
        let span = |name: &str, (s, e): (u64, u64), parent: Json| {
            Json::obj([
                ("name", Json::str(name)),
                ("start_ns", Json::Num(s as f64)),
                ("end_ns", Json::Num(e as f64)),
                ("parent", parent),
            ])
        };
        let mut spans = vec![span("job", self.root, Json::Null)];
        spans.extend(self.children.iter().map(|(n, se)| span(n, *se, Json::str("job"))));
        Json::obj([
            ("id", Json::str(&*self.id)),
            ("type", Json::str(self.kind)),
            ("client", Json::Num(self.client as f64)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Renders the engine trace: per slice x layer aggregates and the raw
/// step sample.
pub fn engine_json(slices: &[[LayerAgg; LAYERS]], raw: &[RawSpan]) -> Json {
    let slices = slices
        .iter()
        .map(|s| {
            Json::obj(Layer::ALL.iter().map(|&l| {
                let a = s[l as usize];
                let row = [a.calls, a.sum_ns, a.max_ns, a.work].map(|v| v as f64);
                (l.label(), Json::nums(&row))
            }))
        })
        .collect();
    let raw = raw
        .iter()
        .map(|&(step, layer, ns)| Json::nums(&[step as f64, layer as f64, ns as f64]))
        .collect();
    Json::obj([
        ("slice_layer_columns", Json::str("calls, sum_ns, max_ns, work")),
        ("slices", Json::Arr(slices)),
        ("raw_columns", Json::str("step, layer index (order of the slice keys), ns")),
        ("raw_every_steps", Json::Num(RAW_EVERY as f64)),
        ("raw", Json::Arr(raw)),
    ])
}

/// Renders the serve trace: one span tree per job.
pub fn serve_json(jobs: &[SpanTree]) -> Json {
    Json::obj([("jobs", Json::Arr(jobs.iter().map(SpanTree::json).collect()))])
}

/// Writes `doc` as `out/trace-<workload>.json` under the benchmark's
/// directory; a failure is reported, not fatal (the metrics stand).
pub fn write(workload: &str, doc: &Json) {
    let dir = crate::provenance::bench_dir().join("out");
    let path = dir.join(format!("trace-{workload}.json"));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc.pretty()))
    {
        eprintln!("fgdram-benchmark: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_what_children_cover() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 30), (50, 60)]), 70);
        // Overlapping and nested children count once; strays are clipped.
        assert_eq!(self_time((0, 100), &[(10, 40), (20, 30), (35, 50)]), 60);
        assert_eq!(self_time((10, 100), &[(0, 20), (90, 200)]), 70);
        assert_eq!(self_time((0, 100), &[(0, 100)]), 0);
        let tree = SpanTree {
            id: "j1".into(),
            kind: "A",
            client: 0,
            root: (1_000, 9_000),
            children: vec![
                ("submit", (1_100, 2_000)),
                ("wait", (2_050, 8_000)),
                ("fetch", (8_000, 8_900)),
            ],
        };
        assert_eq!(tree.child_ns("wait"), 5_950);
        assert_eq!(tree.root_self_ns(), 8_000 - 900 - 5_950 - 900);
    }

    #[test]
    fn chain_charges_every_mark_to_one_layer() {
        let mut c = Chain::new();
        c.begin_step();
        c.mark(Layer::Wheel, 3);
        c.mark(Layer::L2, 2);
        c.mark(Layer::Wheel, 1);
        let agg = c.take_slice();
        assert_eq!((agg[Layer::Wheel as usize].calls, agg[Layer::Wheel as usize].work), (2, 4));
        assert_eq!(agg[Layer::L2 as usize].calls, 1);
        assert!(agg[Layer::Wheel as usize].max_ns <= agg[Layer::Wheel as usize].sum_ns);
        assert_eq!(c.agg, [LayerAgg::default(); LAYERS]);
        assert_eq!(c.steps(), 1);
    }
}
