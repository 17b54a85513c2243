//! Unified run-report observability layer.
//!
//! The paper's claims are structural — separator quality, crossing numbers,
//! punt rates, work–depth profiles — but before this module they were
//! measured through three disconnected mechanisms
//! ([`crate::ParallelDcStats`], [`sepdc_scan::cost::MeterSnapshot`],
//! [`sepdc_scan::CostProfile`]) with no timings, no per-depth breakdown,
//! and no machine-readable artifact. [`RunReport`] merges them into one
//! **versioned, serializable** schema that every entry point, the CLI
//! (`sepdc knn --report out.json`, `sepdc report`), and the benchmark
//! (`bench_layers`, which takes its traced phase times from it) share.
//!
//! Two pieces:
//!
//! * [`RunRecorder`] — the lightweight instrument threaded through the
//!   recursions. Wall-clock **phase timers** (split / leaf-solve /
//!   collect-crossing / fast-correction / punt-correction / serve, summed
//!   across rayon workers) and **per-depth histograms** (node counts, crossing
//!   balls, separator candidate attempts, punt events, fast corrections,
//!   leaves, keyed by recursion depth). All counters are relaxed atomics;
//!   when disabled ([`KnnDcConfig::record`](crate::KnnDcConfig::record)
//!   `= false`) every call is a branch on a `bool` and no clock is read,
//!   so the hot path pays near-zero overhead.
//! * [`RunReport`] — the merged, versioned artifact: config echo, rayon
//!   thread count, total wall time, phase timings, named counters
//!   (structural stats + meter + cost profile under `stats.*` / `meter.*`
//!   / `cost.*` prefixes), and the depth histogram. Serializes to JSON
//!   with [`RunReport::to_json`] (the build is offline — no serde; the
//!   writer and the minimal parser live here) and round-trips through
//!   [`RunReport::from_json`], which rejects unknown schema versions with
//!   a typed [`ReportError::SchemaMismatch`].

use sepdc_scan::cost::MeterSnapshot;
use sepdc_scan::CostProfile;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Current schema version of [`RunReport`]. Bump on any field rename,
/// removal, or semantic change; [`RunReport::from_json`] rejects artifacts
/// written by other versions so downstream diff tooling never silently
/// compares incompatible schemas.
pub const RUN_REPORT_VERSION: u32 = 1;

/// The instrumented phases of the divide-and-conquer recursions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Separator search + in-place partition of the id arena.
    Split = 0,
    /// Base-case brute-force leaf solves (where the recursion bottoms out).
    LeafSolve = 1,
    /// Crossing-ball collection + unbounded-owner correction.
    CollectCrossing = 2,
    /// Fast correction: marching + candidate merge (Section 6.2).
    FastCorrection = 3,
    /// Punt correction: query-structure build + sweep (Section 3 via §4).
    PuntCorrection = 4,
    /// Batch serving: probe descent + leaf scan in the
    /// [`serve`](crate::serve) read-path engine (one timed interval per
    /// probe chunk, summed across rayon workers).
    Serve = 5,
    /// Separator candidate search alone (the best-of-N sweep). A
    /// **sub-interval of [`Phase::Split`]**: split still times gather +
    /// search + partition, so `separator-search ≤ split` and the two must
    /// not be summed together. Additive to schema v1.
    SeparatorSearch = 6,
}

const PHASE_COUNT: usize = 7;
const PHASE_NAMES: [&str; PHASE_COUNT] = [
    "split",
    "leaf-solve",
    "collect-crossing",
    "fast-correction",
    "punt-correction",
    "serve",
    "separator-search",
];

/// Per-depth atomic counters (one cell per recursion depth).
#[derive(Default)]
struct DepthCell {
    nodes: AtomicU64,
    leaves: AtomicU64,
    crossing: AtomicU64,
    candidates: AtomicU64,
    punts: AtomicU64,
    fast_corrections: AtomicU64,
}

/// Lightweight recorder threaded through the recursions (`&RunRecorder`
/// is `Sync`; counters are relaxed atomics aggregated after the parallel
/// phase, so no inter-thread data flows through them).
pub struct RunRecorder {
    enabled: bool,
    phase_ns: [AtomicU64; PHASE_COUNT],
    phase_calls: [AtomicU64; PHASE_COUNT],
    /// One cell per depth; deeper events clamp into the last cell.
    depth: Vec<DepthCell>,
}

impl RunRecorder {
    /// Recorder covering depths `0..=depth_cap` (clamped to a sane bound).
    pub fn new(enabled: bool, depth_cap: usize) -> Self {
        let cells = if enabled { depth_cap.min(4096) + 1 } else { 0 };
        RunRecorder {
            enabled,
            phase_ns: Default::default(),
            phase_calls: Default::default(),
            depth: (0..cells).map(|_| DepthCell::default()).collect(),
        }
    }

    /// A recorder that ignores every event and never reads the clock.
    pub fn disabled() -> Self {
        Self::new(false, 0)
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Start a phase timer; pair with [`Self::stop`]. `None` when disabled,
    /// so the disabled path never touches the clock.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Stop a phase timer started with [`Self::start`], attributing the
    /// elapsed time (summed across rayon workers) to `phase`.
    #[inline]
    pub fn stop(&self, phase: Phase, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.phase_ns[phase as usize]
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.phase_calls[phase as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Time a closure under `phase` (convenience over start/stop).
    #[inline]
    pub fn time<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let t0 = self.start();
        let out = f();
        self.stop(phase, t0);
        out
    }

    #[inline]
    fn cell(&self, depth: usize) -> Option<&DepthCell> {
        if self.enabled {
            Some(&self.depth[depth.min(self.depth.len() - 1)])
        } else {
            None
        }
    }

    /// Record one recursion node entered at `depth`.
    #[inline]
    pub fn node(&self, depth: usize) {
        if let Some(c) = self.cell(depth) {
            c.nodes.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one leaf (base case, forced, degenerate, or depth-forced).
    #[inline]
    pub fn leaf(&self, depth: usize) {
        if let Some(c) = self.cell(depth) {
            c.leaves.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record `n` crossing balls collected at a node at `depth`.
    #[inline]
    pub fn add_crossing(&self, depth: usize, n: u64) {
        if let Some(c) = self.cell(depth) {
            c.crossing.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record `n` separator candidate attempts at `depth`.
    #[inline]
    pub fn add_candidates(&self, depth: usize, n: u64) {
        if let Some(c) = self.cell(depth) {
            c.candidates.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record one punt event at `depth`.
    #[inline]
    pub fn punt(&self, depth: usize) {
        if let Some(c) = self.cell(depth) {
            c.punts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one completed fast correction at `depth`.
    #[inline]
    pub fn fast_correction(&self, depth: usize) {
        if let Some(c) = self.cell(depth) {
            c.fast_corrections.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot the phase timings (every [`Phase`], in declaration order;
    /// empty when the recorder is disabled).
    pub fn phases(&self) -> Vec<PhaseSample> {
        if !self.enabled {
            return Vec::new();
        }
        (0..PHASE_COUNT)
            .map(|i| PhaseSample {
                name: PHASE_NAMES[i].to_string(),
                ms: self.phase_ns[i].load(Ordering::Relaxed) as f64 / 1e6,
                calls: self.phase_calls[i].load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Snapshot the depth histogram, trimmed after the last active depth.
    pub fn depth_rows(&self) -> Vec<DepthRow> {
        let rows: Vec<DepthRow> = self
            .depth
            .iter()
            .enumerate()
            .map(|(d, c)| DepthRow {
                depth: d as u32,
                nodes: c.nodes.load(Ordering::Relaxed),
                leaves: c.leaves.load(Ordering::Relaxed),
                crossing: c.crossing.load(Ordering::Relaxed),
                candidates: c.candidates.load(Ordering::Relaxed),
                punts: c.punts.load(Ordering::Relaxed),
                fast_corrections: c.fast_corrections.load(Ordering::Relaxed),
            })
            .collect();
        let last = rows.iter().rposition(|r| r.nodes > 0).map_or(0, |i| i + 1);
        rows[..last].to_vec()
    }
}

/// Accumulated wall time of one instrumented phase, summed across rayon
/// workers (so phase times can exceed total wall time under parallelism).
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseSample {
    /// Phase name (one of the [`Phase`] variants' wire names).
    pub name: String,
    /// Accumulated milliseconds across all workers.
    pub ms: f64,
    /// Number of timed intervals attributed to this phase.
    pub calls: u64,
}

/// One row of the per-depth histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DepthRow {
    /// Recursion depth (root = 0).
    pub depth: u32,
    /// Recursion nodes entered at this depth.
    pub nodes: u64,
    /// Leaves (base-case + forced + degenerate + depth-forced) at this depth.
    pub leaves: u64,
    /// Crossing balls collected by nodes at this depth.
    pub crossing: u64,
    /// Separator candidate attempts drawn at this depth.
    pub candidates: u64,
    /// Punt events at this depth.
    pub punts: u64,
    /// Completed fast corrections at this depth.
    pub fast_corrections: u64,
}

/// The versioned, serializable artifact of one algorithm run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Schema version ([`RUN_REPORT_VERSION`] at write time).
    pub version: u32,
    /// Which algorithm produced the run (`parallel`, `simple`, `kdtree`,
    /// `brute`, `query-build`, …).
    pub algo: String,
    /// Point dimension.
    pub dim: usize,
    /// Input size.
    pub n: usize,
    /// Neighbors per point.
    pub k: usize,
    /// Master seed of the run.
    pub seed: u64,
    /// Rayon thread count at run time.
    pub threads: usize,
    /// End-to-end wall time of the run in milliseconds.
    pub wall_ms: f64,
    /// Config echo: named tunables, in a fixed order.
    pub config: Vec<(String, f64)>,
    /// Phase timings (empty when recording was disabled).
    pub phases: Vec<PhaseSample>,
    /// Named counters: structural stats (`stats.*`), whole-run meter
    /// (`meter.*`), and the work–depth profile (`cost.*`).
    pub counters: Vec<(String, f64)>,
    /// Per-depth histogram (empty when recording was disabled).
    pub depth: Vec<DepthRow>,
}

/// Why a serialized [`RunReport`] could not be loaded.
#[derive(Clone, Debug, PartialEq)]
pub enum ReportError {
    /// The text is not valid JSON, or a required field is missing/mistyped.
    Parse(String),
    /// The artifact was written by a different schema version.
    SchemaMismatch {
        /// Version found in the artifact.
        found: u32,
        /// Version this build reads ([`RUN_REPORT_VERSION`]).
        expected: u32,
    },
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::Parse(msg) => write!(f, "run report parse error: {msg}"),
            ReportError::SchemaMismatch { found, expected } => write!(
                f,
                "run report schema version {found} is not the supported version {expected}"
            ),
        }
    }
}

impl std::error::Error for ReportError {}

/// Counters of a [`MeterSnapshot`] under the `meter.` prefix.
pub fn meter_counters(m: &MeterSnapshot) -> Vec<(String, f64)> {
    vec![
        (
            "meter.separator_candidates".into(),
            m.separator_candidates as f64,
        ),
        ("meter.separator_accepts".into(), m.separator_accepts as f64),
        ("meter.punts".into(), m.punts as f64),
        ("meter.fast_corrections".into(), m.fast_corrections as f64),
        ("meter.marching_balls".into(), m.marching_balls as f64),
        ("meter.march_pruned".into(), m.march_pruned as f64),
        ("meter.query_builds".into(), m.query_builds as f64),
        ("meter.distance_evals".into(), m.distance_evals as f64),
        (
            "meter.correction_dist_evals".into(),
            m.correction_dist_evals as f64,
        ),
        ("precision.eps_skips".into(), m.eps_skips as f64),
    ]
}

/// `stats.<field>` counters of a stats struct, one per named field, in
/// the order given.
macro_rules! stats_counters {
    ($stats:expr; $($field:ident),+ $(,)?) => {
        vec![$((concat!("stats.", stringify!($field)).to_string(), $stats.$field as f64)),+]
    };
}
pub(crate) use stats_counters;

/// Counters of a [`CostProfile`] under the `cost.` prefix.
pub fn cost_counters(c: &CostProfile) -> Vec<(String, f64)> {
    vec![
        ("cost.work".into(), c.work as f64),
        ("cost.depth".into(), c.depth as f64),
        ("cost.scan_ops".into(), c.scan_ops as f64),
        (
            "cost.separator_candidates".into(),
            c.separator_candidates as f64,
        ),
        ("cost.punts".into(), c.punts as f64),
    ]
}

impl RunReport {
    /// Stamp the end-to-end wall time (the last step of report assembly).
    pub fn finish(mut self, wall: std::time::Duration) -> Self {
        self.wall_ms = wall.as_secs_f64() * 1e3;
        self
    }

    /// Look up a named counter.
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Look up a phase timing by wire name.
    pub fn phase(&self, name: &str) -> Option<&PhaseSample> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Serialize to pretty JSON (two-space indent, deterministic order).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\n");
        s.push_str(&format!("  \"run_report_version\": {},\n", self.version));
        s.push_str(&format!("  \"algo\": {},\n", json_str(&self.algo)));
        s.push_str(&format!("  \"dim\": {},\n", self.dim));
        s.push_str(&format!("  \"n\": {},\n", self.n));
        s.push_str(&format!("  \"k\": {},\n", self.k));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        s.push_str(&format!("  \"wall_ms\": {},\n", json_num(self.wall_ms)));
        s.push_str("  \"config\": {");
        for (i, (name, v)) in self.config.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(" {}: {}", json_str(name), json_num(*v)));
        }
        s.push_str(" },\n");
        s.push_str("  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            s.push_str(&format!(
                "    {{ \"name\": {}, \"ms\": {}, \"calls\": {} }}{}\n",
                json_str(&p.name),
                json_num(p.ms),
                p.calls,
                if i + 1 < self.phases.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\n    {}: {}", json_str(name), json_num(*v)));
        }
        if !self.counters.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("},\n");
        s.push_str("  \"depth\": [\n");
        for (i, r) in self.depth.iter().enumerate() {
            s.push_str(&format!(
                "    {{ \"depth\": {}, \"nodes\": {}, \"leaves\": {}, \"crossing\": {}, \
                 \"candidates\": {}, \"punts\": {}, \"fast_corrections\": {} }}{}\n",
                r.depth,
                r.nodes,
                r.leaves,
                r.crossing,
                r.candidates,
                r.punts,
                r.fast_corrections,
                if i + 1 < self.depth.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parse a serialized report, rejecting other schema versions.
    pub fn from_json(text: &str) -> Result<RunReport, ReportError> {
        let v = Json::parse(text).map_err(ReportError::Parse)?;
        let obj = v.as_obj("run report")?;
        let version = get_num(obj, "run_report_version")? as u32;
        if version != RUN_REPORT_VERSION {
            return Err(ReportError::SchemaMismatch {
                found: version,
                expected: RUN_REPORT_VERSION,
            });
        }
        let phases = get(obj, "phases")?
            .as_arr("phases")?
            .iter()
            .map(|p| {
                let o = p.as_obj("phase")?;
                Ok(PhaseSample {
                    name: get_str(o, "name")?,
                    ms: get_num(o, "ms")?,
                    calls: get_num(o, "calls")? as u64,
                })
            })
            .collect::<Result<Vec<_>, ReportError>>()?;
        let depth = get(obj, "depth")?
            .as_arr("depth")?
            .iter()
            .map(|r| {
                let o = r.as_obj("depth row")?;
                Ok(DepthRow {
                    depth: get_num(o, "depth")? as u32,
                    nodes: get_num(o, "nodes")? as u64,
                    leaves: get_num(o, "leaves")? as u64,
                    crossing: get_num(o, "crossing")? as u64,
                    candidates: get_num(o, "candidates")? as u64,
                    punts: get_num(o, "punts")? as u64,
                    fast_corrections: get_num(o, "fast_corrections")? as u64,
                })
            })
            .collect::<Result<Vec<_>, ReportError>>()?;
        let pairs = |field: &str| -> Result<Vec<(String, f64)>, ReportError> {
            get(obj, field)?
                .as_obj(field)?
                .iter()
                .map(|(name, v)| Ok((name.clone(), v.as_num(name)?)))
                .collect()
        };
        Ok(RunReport {
            version,
            algo: get_str(obj, "algo")?,
            dim: get_num(obj, "dim")? as usize,
            n: get_num(obj, "n")? as usize,
            k: get_num(obj, "k")? as usize,
            seed: get_num(obj, "seed")? as u64,
            threads: get_num(obj, "threads")? as usize,
            wall_ms: get_num(obj, "wall_ms")?,
            config: pairs("config")?,
            phases,
            counters: pairs("counters")?,
            depth,
        })
    }

    /// Render a human-readable summary (the `sepdc report` pretty-printer).
    pub fn render_human(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "run report v{} — algo={} d={} n={} k={} seed={} threads={} wall={:.2} ms\n",
            self.version,
            self.algo,
            self.dim,
            self.n,
            self.k,
            self.seed,
            self.threads,
            self.wall_ms
        ));
        if !self.config.is_empty() {
            s.push_str("\nconfig:\n");
            for (name, v) in &self.config {
                // The ε knob echoes as a raw number in the JSON; spell it
                // out for humans (DESIGN.md §17).
                match name.as_str() {
                    "epsilon" if *v > 0.0 => {
                        s.push_str(&format!("  {name:<24} {v} ((1+ε)-approximate)\n"));
                    }
                    "epsilon" => {
                        s.push_str(&format!("  {name:<24} {v} (exact answers)\n"));
                    }
                    _ => s.push_str(&format!("  {name:<24} {v}\n")),
                }
            }
        }
        if !self.phases.is_empty() {
            s.push_str("\nphase timings (summed across workers):\n");
            s.push_str(&format!("  {:<18} {:>12} {:>10}\n", "phase", "ms", "calls"));
            for p in &self.phases {
                s.push_str(&format!(
                    "  {:<18} {:>12.3} {:>10}\n",
                    p.name, p.ms, p.calls
                ));
            }
        }
        if !self.counters.is_empty() {
            // The ε-skip and certificate namespaces render as their own
            // sections; everything else stays in the flat counter list.
            let is_sectioned =
                |n: &str| n.starts_with("precision.") || n.starts_with("certificate.");
            let flat: Vec<_> = self
                .counters
                .iter()
                .filter(|(n, _)| !is_sectioned(n))
                .collect();
            if !flat.is_empty() {
                s.push_str("\ncounters:\n");
                for (name, v) in flat {
                    s.push_str(&format!("  {name:<32} {v}\n"));
                }
            }
            let precision: Vec<_> = self
                .counters
                .iter()
                .filter(|(n, _)| n.starts_with("precision."))
                .collect();
            if !precision.is_empty() {
                s.push_str("\nε relaxation:\n");
                for (name, v) in precision {
                    let short = name.trim_start_matches("precision.");
                    s.push_str(&format!("  {short:<32} {v}\n"));
                }
            }
            let cert: Vec<_> = self
                .counters
                .iter()
                .filter(|(n, _)| n.starts_with("certificate."))
                .collect();
            if !cert.is_empty() {
                s.push_str("\nerror certificate (measured vs exact):\n");
                for (name, v) in cert {
                    let short = name.trim_start_matches("certificate.");
                    s.push_str(&format!("  {short:<32} {v}\n"));
                }
            }
        }
        if !self.depth.is_empty() {
            s.push_str("\nper-depth histogram:\n");
            s.push_str(&format!(
                "  {:>5} {:>8} {:>8} {:>10} {:>10} {:>6} {:>6}\n",
                "depth", "nodes", "leaves", "crossing", "cands", "punts", "fast"
            ));
            for r in &self.depth {
                s.push_str(&format!(
                    "  {:>5} {:>8} {:>8} {:>10} {:>10} {:>6} {:>6}\n",
                    r.depth,
                    r.nodes,
                    r.leaves,
                    r.crossing,
                    r.candidates,
                    r.punts,
                    r.fast_corrections
                ));
            }
        }
        s
    }
}

/// Format an `f64` as a JSON number (non-finite values become `null`;
/// [`Json`] reads `null` back as NaN).
fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    if v == 0.0 && v.is_sign_negative() {
        // The integer branch below would cast -0.0 through i64 and print
        // "0", losing the sign bit on round-trip; "-0" parses back to -0.0.
        return "-0".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Escape and quote one JSON string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Minimal JSON value tree — just enough to round-trip [`RunReport`]
/// artifacts in the offline build (no serde). Object keys keep insertion
/// order.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let mut p = JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    fn as_obj(&self, what: &str) -> Result<&[(String, Json)], ReportError> {
        match self {
            Json::Obj(fields) => Ok(fields),
            other => Err(ReportError::Parse(format!(
                "{what}: expected object, found {other:?}"
            ))),
        }
    }

    fn as_arr(&self, what: &str) -> Result<&[Json], ReportError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(ReportError::Parse(format!(
                "{what}: expected array, found {other:?}"
            ))),
        }
    }

    fn as_num(&self, what: &str) -> Result<f64, ReportError> {
        match self {
            Json::Num(v) => Ok(*v),
            Json::Null => Ok(f64::NAN),
            other => Err(ReportError::Parse(format!(
                "{what}: expected number, found {other:?}"
            ))),
        }
    }

    fn as_str(&self, what: &str) -> Result<&str, ReportError> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(ReportError::Parse(format!(
                "{what}: expected string, found {other:?}"
            ))),
        }
    }
}

fn get<'a>(obj: &'a [(String, Json)], field: &str) -> Result<&'a Json, ReportError> {
    obj.iter()
        .find(|(name, _)| name == field)
        .map(|(_, v)| v)
        .ok_or_else(|| ReportError::Parse(format!("missing field '{field}'")))
}

fn get_num(obj: &[(String, Json)], field: &str) -> Result<f64, ReportError> {
    get(obj, field)?.as_num(field)
}

fn get_str(obj: &[(String, Json)], field: &str) -> Result<String, ReportError> {
    Ok(get(obj, field)?.as_str(field)?.to_string())
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}, found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let first = self.unicode_escape()?;
                            let code = if (0xD800..=0xDBFF).contains(&first) {
                                // High surrogate: a low surrogate escape must
                                // follow immediately to form one scalar.
                                if self.bytes.get(self.pos + 1) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 2) != Some(&b'u')
                                {
                                    return Err(format!(
                                        "lone high surrogate \\u{first:04x} at byte {}",
                                        self.pos
                                    ));
                                }
                                self.pos += 2;
                                let second = self.unicode_escape()?;
                                if !(0xDC00..=0xDFFF).contains(&second) {
                                    return Err(format!(
                                        "expected low surrogate after \\u{first:04x}, \
                                         found \\u{second:04x}"
                                    ));
                                }
                                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                            } else if (0xDC00..=0xDFFF).contains(&first) {
                                return Err(format!(
                                    "lone low surrogate \\u{first:04x} at byte {}",
                                    self.pos
                                ));
                            } else {
                                first
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad \\u escape U+{code:04X}"))?,
                            );
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // byte stream is valid UTF-8).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    /// Parse the `uXXXX` tail of a `\u` escape. On entry `self.pos` is at
    /// the `u`; on success it is left on the last hex digit (the caller's
    /// shared `self.pos += 1` then steps past the whole escape).
    fn unicode_escape(&mut self) -> Result<u32, String> {
        debug_assert_eq!(self.bytes.get(self.pos), Some(&b'u'));
        if self.pos + 5 > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let hex = &self.bytes[self.pos + 1..self.pos + 5];
        if !hex.iter().all(u8::is_ascii_hexdigit) {
            return Err("bad \\u escape".to_string());
        }
        // Hex digits are ASCII, so the slice is valid UTF-8.
        let code = u32::from_str_radix(std::str::from_utf8(hex).unwrap(), 16)
            .map_err(|_| "bad \\u escape".to_string())?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> RunReport {
        RunReport {
            version: RUN_REPORT_VERSION,
            algo: "parallel".to_string(),
            dim: 2,
            n: 1000,
            k: 4,
            seed: 7,
            threads: 3,
            wall_ms: 12.5,
            config: vec![("mu_epsilon".to_string(), 0.05), ("eta".to_string(), 0.3)],
            phases: vec![
                PhaseSample {
                    name: "split".to_string(),
                    ms: 3.25,
                    calls: 31,
                },
                PhaseSample {
                    name: "leaf-solve".to_string(),
                    ms: 6.0,
                    calls: 16,
                },
            ],
            counters: vec![
                ("stats.fast_corrections".to_string(), 12.0),
                ("meter.distance_evals".to_string(), 34567.0),
                ("cost.depth".to_string(), 88.0),
            ],
            depth: vec![
                DepthRow {
                    depth: 0,
                    nodes: 1,
                    leaves: 0,
                    crossing: 17,
                    candidates: 2,
                    punts: 0,
                    fast_corrections: 1,
                },
                DepthRow {
                    depth: 1,
                    nodes: 2,
                    leaves: 2,
                    crossing: 5,
                    candidates: 3,
                    punts: 1,
                    fast_corrections: 1,
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let report = sample_report();
        let text = report.to_json();
        let back = RunReport::from_json(&text).unwrap();
        assert_eq!(back, report);
        // Serializing the parsed report reproduces the exact text.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn schema_version_bump_is_detected() {
        let mut report = sample_report();
        report.version = RUN_REPORT_VERSION + 1;
        let text = report.to_json();
        assert_eq!(
            RunReport::from_json(&text),
            Err(ReportError::SchemaMismatch {
                found: RUN_REPORT_VERSION + 1,
                expected: RUN_REPORT_VERSION,
            })
        );
    }

    #[test]
    fn missing_fields_and_garbage_are_parse_errors() {
        assert!(matches!(
            RunReport::from_json("not json at all"),
            Err(ReportError::Parse(_))
        ));
        assert!(matches!(
            RunReport::from_json("{\"run_report_version\": 1}"),
            Err(ReportError::Parse(_))
        ));
        // Trailing garbage after a valid value is rejected too.
        let mut text = sample_report().to_json();
        text.push_str("...");
        assert!(matches!(
            RunReport::from_json(&text),
            Err(ReportError::Parse(_))
        ));
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut report = sample_report();
        report.algo = "weird \"algo\"\twith\nescapes\\".to_string();
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.algo, report.algo);
    }

    #[test]
    fn signed_zero_round_trips_bitwise() {
        // -0.0 == 0.0 under PartialEq, so compare raw bits explicitly.
        assert_eq!(json_num(-0.0), "-0");
        assert_eq!(json_num(0.0), "0");
        let mut report = sample_report();
        report.wall_ms = -0.0;
        report.counters.push(("zero.neg".to_string(), -0.0));
        report.counters.push(("zero.pos".to_string(), 0.0));
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.wall_ms.to_bits(), (-0.0f64).to_bits());
        let bits: Vec<u64> = back.counters.iter().map(|(_, v)| v.to_bits()).collect();
        let want: Vec<u64> = report.counters.iter().map(|(_, v)| v.to_bits()).collect();
        assert_eq!(bits, want);
        // Exact-text re-serialization still holds with signed zeros present.
        assert_eq!(back.to_json(), report.to_json());
    }

    #[test]
    fn astral_plane_strings_round_trip() {
        // Raw UTF-8 astral chars survive the writer (emitted unescaped)
        // and the parser's raw path.
        let mut report = sample_report();
        report.algo = "math \u{1d54a} emoji \u{1f600} bmp \u{2603}".to_string();
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.algo, report.algo);

        // Escaped surrogate pairs (what other JSON writers emit) must
        // combine into the astral scalar, not U+FFFD.
        let text = report
            .to_json()
            .replace("\u{1d54a}", "\\ud835\\udd4a")
            .replace("\u{1f600}", "\\ud83d\\ude00");
        let back = RunReport::from_json(&text).unwrap();
        assert_eq!(back.algo, report.algo);
    }

    #[test]
    fn lone_surrogates_are_typed_parse_errors() {
        let make = |algo_json: &str| sample_report().to_json().replace("\"parallel\"", algo_json);
        for bad in [
            "\"\\ud835\"",         // lone high at end of string
            "\"\\ud835 tail\"",    // high not followed by an escape
            "\"\\ud835\\n\"",      // high followed by a non-\u escape
            "\"\\ud835\\ud836\"",  // high followed by another high
            "\"\\udd4a\"",         // bare low
            "\"\\udc00 leading\"", // bare low with trailing text
        ] {
            let err = RunReport::from_json(&make(bad));
            assert!(
                matches!(err, Err(ReportError::Parse(ref m)) if m.contains("surrogate")),
                "{bad}: {err:?}"
            );
        }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = RunRecorder::disabled();
        assert!(!rec.is_enabled());
        assert!(rec.start().is_none());
        rec.node(0);
        rec.leaf(3);
        rec.add_crossing(1, 10);
        rec.punt(2);
        let t = rec.time(Phase::Split, || 41 + 1);
        assert_eq!(t, 42);
        assert!(rec.depth_rows().is_empty());
        assert!(rec.phases().is_empty());
    }

    #[test]
    fn recorder_aggregates_by_depth_and_clamps() {
        let rec = RunRecorder::new(true, 2);
        rec.node(0);
        rec.node(1);
        rec.node(1);
        rec.add_candidates(0, 4);
        rec.add_crossing(1, 7);
        rec.leaf(1);
        rec.punt(0);
        rec.fast_correction(1);
        // Depth 100 clamps into the last cell (depth 2).
        rec.node(100);
        rec.leaf(100);
        let rows = rec.depth_rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].nodes, 1);
        assert_eq!(rows[0].candidates, 4);
        assert_eq!(rows[0].punts, 1);
        assert_eq!(rows[1].nodes, 2);
        assert_eq!(rows[1].crossing, 7);
        assert_eq!(rows[1].leaves, 1);
        assert_eq!(rows[1].fast_corrections, 1);
        assert_eq!(rows[2].nodes, 1);
        assert_eq!(rows[2].leaves, 1);
    }

    #[test]
    fn recorder_phase_timing_accumulates() {
        let rec = RunRecorder::new(true, 4);
        rec.time(Phase::Split, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let t0 = rec.start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        rec.stop(Phase::Split, t0);
        let phases = rec.phases();
        let split = phases.iter().find(|p| p.name == "split").unwrap();
        assert_eq!(split.calls, 2);
        assert!(split.ms >= 2.0, "split {} ms", split.ms);
        // Untouched phases stay zero but are present in the snapshot.
        assert_eq!(phases.len(), 7);
        assert!(phases.iter().any(|p| p.name == "separator-search"));
        assert_eq!(rec.phases().iter().filter(|p| p.calls > 0).count(), 1);
    }

    #[test]
    fn recorder_is_thread_safe() {
        let rec = RunRecorder::new(true, 8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for d in 0..100 {
                        rec.node(d % 8);
                        rec.add_crossing(d % 8, 2);
                    }
                });
            }
        });
        let rows = rec.depth_rows();
        let nodes: u64 = rows.iter().map(|r| r.nodes).sum();
        let crossing: u64 = rows.iter().map(|r| r.crossing).sum();
        assert_eq!(nodes, 800);
        assert_eq!(crossing, 1600);
    }

    #[test]
    fn non_finite_counters_serialize_as_null() {
        let mut report = sample_report();
        report
            .counters
            .push(("stats.max_ratio".to_string(), f64::INFINITY));
        let text = report.to_json();
        assert!(text.contains("\"stats.max_ratio\": null"));
        let back = RunReport::from_json(&text).unwrap();
        assert!(back.counter("stats.max_ratio").unwrap().is_nan());
    }

    #[test]
    fn render_human_mentions_all_sections() {
        let text = sample_report().render_human();
        for needle in [
            "algo=parallel",
            "phase timings",
            "split",
            "counters",
            "stats.fast_corrections",
            "per-depth histogram",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn render_human_groups_precision_and_certificate_sections() {
        let mut r = sample_report();
        r.config.push(("epsilon".to_string(), 0.25));
        r.counters.push(("precision.eps_skips".to_string(), 900.0));
        r.counters
            .push(("certificate.max_rel_error".to_string(), 0.01));
        let text = r.render_human();
        assert!(text.contains("(1+ε)-approximate"), "{text}");
        assert!(text.contains("ε relaxation:"), "{text}");
        assert!(
            text.contains("error certificate (measured vs exact):"),
            "{text}"
        );
        // Namespaced counters are pulled out of the flat list and rendered
        // with the prefix stripped.
        assert!(!text.contains("  precision.eps_skips"), "{text}");
        assert!(text.contains("  eps_skips"), "{text}");
        assert!(text.contains("  max_rel_error"), "{text}");
        // ε = 0 renders as exact.
        let mut r0 = sample_report();
        r0.config.push(("epsilon".to_string(), 0.0));
        assert!(r0.render_human().contains("(exact answers)"));
    }

    #[test]
    fn counter_and_phase_lookup() {
        let r = sample_report();
        assert_eq!(r.counter("cost.depth"), Some(88.0));
        assert_eq!(r.counter("nope"), None);
        assert_eq!(r.phase("split").unwrap().calls, 31);
        assert!(r.phase("nope").is_none());
    }
}
