//! `bench_layers`: the repository benchmark.
//!
//! ```sh
//! bash bench_layers/run.sh --workload knn-uniform2d --seed 7 --seconds 10 --trace 0
//! bench_layers --workload all --seed 7 --out run.jsonl        # every workload, interleaved
//! bench_layers --workload all --seed 7 --trace 1 --out trace.jsonl
//! bench_layers compare base.jsonl head.jsonl                   # A/B verdicts
//! ```
//!
//! A run measures end-to-end metrics with tracing off; `--trace 1` is the
//! separate traced run that replays every layer and reports the per-layer
//! metrics. Every output the program produces is checked against an
//! oracle. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; every metric is also
//! printed before it as `workload metric value unit`. The workloads,
//! metrics and layer map are documented in `BENCHMARK.md`.

mod affinity;
mod alloc;
mod compare;
mod json;
mod knn;
mod layers;
mod probe;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Operations attempted and failed (wrong answer, lost reply, or a
/// certified-bound violation the program reported).
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Where the benchmark finds the daemon binary and keeps its files.
pub struct Ctx {
    pub seed: u64,
    pub sepdc: PathBuf,
    pub tmp: PathBuf,
}

/// A workload: set up in its constructor, then measured one repetition
/// at a time (one `parallel_knn` call, or one daemon session).
pub trait Workload {
    fn name(&self) -> &'static str;
    /// Repetitions a run makes at least, however short `--seconds` is.
    fn min_reps(&self) -> usize;
    /// Run one repetition and return its wall seconds, span bookkeeping
    /// included. With a tracer, record spans under `parent`.
    fn rep(&mut self, ctx: &Ctx, trace: Option<(&mut Tracer, usize)>) -> f64;
    fn end_to_end(&self) -> Vec<Metric>;
    /// Diagnostics: printed and written with `--out` but not declared,
    /// because not every workload has them or they miss the repeat test.
    fn extras(&self) -> Vec<Metric>;
    /// Replay every layer on this workload's input (trace runs only).
    fn layers(&mut self, ctx: &Ctx, t: &mut Tracer, parent: usize) -> Vec<Metric>;
    fn tally(&self) -> Tally;
}

pub const WORKLOADS: [&str; 5] = [
    "knn-uniform2d",
    "knn-clusters3d",
    "knn-snapped2d",
    "serve-read",
    "serve-churn",
];

fn make(name: &str, ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "knn-uniform2d" | "knn-clusters3d" | "knn-snapped2d" => knn::make(name, ctx.seed),
        "serve-read" => Box::new(serve::Serve::new(ctx, false)?),
        "serve-churn" => Box::new(serve::Serve::new(ctx, true)?),
        _ => unreachable!("workload names are validated before setup"),
    })
}

/// SplitMix64: the benchmark's own generator for scripts and id picks.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// FNV-1a-64, the hash every oracle comparison uses.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

struct Options {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

const USAGE: &str = "usage: bench_layers [--workload NAME|all] [--seed N] [--seconds S] \
                     [--trace 0|1] [--out FILE]\n       bench_layers compare BASE HEAD \
                     [--benchmark BENCHMARK.json]";

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: WORKLOADS.to_vec(),
        seed: 7,
        seconds: 10.0,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => o.workloads = WORKLOADS.to_vec(),
            "--workload" => {
                let w = WORKLOADS
                    .iter()
                    .find(|w| *w == value)
                    .ok_or_else(|| format!("unknown workload {value}"))?;
                o.workloads = vec![w];
            }
            "--seed" => o.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => o.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => o.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--out" => o.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !o.seconds.is_finite() || o.seconds <= 0.0 {
        return Err("--seconds must be a positive number".to_string());
    }
    Ok(o)
}

/// The one client thread that drives the daemon (a single-threaded
/// closed loop: it writes while the window has room, then reads).
const CLIENT_THREADS: usize = 1;

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_default()
}

/// The commit checked out in the working directory, read from `.git`
/// directly (no `git` process, nothing read outside the checkout).
fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let Some(name) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{name}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (id, r) = l.split_once(' ')?;
        (r == name).then(|| id.to_string())
    })
}

struct Outcome {
    name: &'static str,
    tally: Tally,
    metrics: Vec<Metric>,
    extras: Vec<Metric>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("compare") {
        compare::main(&args[1..])
    } else {
        match parse_options(&args) {
            Ok(o) => run(&o),
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                2
            }
        }
    };
    std::process::exit(code);
}

fn run(o: &Options) -> i32 {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if CLIENT_THREADS > nproc {
        eprintln!("error: {CLIENT_THREADS} client threads exceed nproc = {nproc}");
        return 2;
    }
    let exe_dir = match std::env::current_exe() {
        Ok(p) => p.parent().map(PathBuf::from).unwrap_or_default(),
        Err(e) => {
            eprintln!("error: cannot locate the benchmark binary: {e}");
            return 2;
        }
    };
    let ctx = Ctx {
        seed: o.seed,
        sepdc: exe_dir.join("sepdc"),
        tmp: exe_dir.join(format!("bench_layers_tmp_{}", std::process::id())),
    };
    let needs_daemon = o.trace || o.workloads.iter().any(|w| w.starts_with("serve-"));
    if needs_daemon && !ctx.sepdc.is_file() {
        eprintln!(
            "error: {} not found; build it with `cargo build --release -p sepdc-cli` into the \
             same target directory",
            ctx.sepdc.display()
        );
        return 2;
    }
    if let Err(e) = std::fs::create_dir_all(&ctx.tmp) {
        eprintln!("error: cannot create {}: {e}", ctx.tmp.display());
        return 2;
    }
    let load_before = loadavg();
    let mut tracer = Tracer::new();
    let result = if o.trace {
        traced(o, &ctx, &mut tracer)
    } else {
        interleaved(o, &ctx)
    };
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    let (outcomes, rounds) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let provenance = format!(
        "{{\"nproc\": {nproc}, \"rayon_threads\": {}, \"client_threads\": {CLIENT_THREADS}, \
         \"loadavg_before\": {}, \"loadavg_after\": {}, \"git_head\": {}, \"seed\": {}, \
         \"seconds\": {}, \"rounds\": {rounds}}}",
        rayon::current_num_threads(),
        json::str_lit(&load_before),
        json::str_lit(&loadavg()),
        git_head().map_or("null".to_string(), |h| json::str_lit(&h)),
        o.seed,
        json::num(o.seconds),
    );
    report(o, &outcomes, &provenance, o.trace.then(|| tracer.spans()))
}

/// End-to-end run: set every workload up, then run rounds in which each
/// workload still short of its budget does one repetition, so host drift
/// lands on all workloads alike.
fn interleaved(o: &Options, ctx: &Ctx) -> Result<(Vec<Outcome>, usize), String> {
    let mut ws = o
        .workloads
        .iter()
        .map(|w| make(w, ctx))
        .collect::<Result<Vec<_>, _>>()?;
    let mut spent = vec![(0.0, 0usize); ws.len()];
    let mut rounds = 0;
    loop {
        let mut ran = false;
        for (w, (secs, reps)) in ws.iter_mut().zip(&mut spent) {
            if *secs < o.seconds || *reps < w.min_reps() {
                *secs += w.rep(ctx, None);
                *reps += 1;
                ran = true;
            }
        }
        if !ran {
            break;
        }
        rounds += 1;
    }
    let outcomes = ws
        .iter()
        .map(|w| Outcome {
            name: w.name(),
            tally: w.tally(),
            metrics: w.end_to_end(),
            extras: w.extras(),
        })
        .collect();
    Ok((outcomes, rounds))
}

/// Traced run: workloads one after another, each under its own root span.
/// Repetitions alternate in blocks of half `min_reps` (a full pass over a
/// k-NN workload's inputs) between traced (spans per call or request) and
/// untraced (one bare span), and the run ends on a whole pair of blocks,
/// so both sides see the same inputs and the tracing overhead is measured
/// in the same run. Then every layer is replayed.
fn traced(o: &Options, ctx: &Ctx, t: &mut Tracer) -> Result<(Vec<Outcome>, usize), String> {
    let mut outcomes = Vec::new();
    let mut rounds = 0;
    for name in &o.workloads {
        let root = t.begin("workload", "bench", None);
        let mut w = t.time("setup", "bench", root, || make(name, ctx)).0?;
        let block = (w.min_reps() / 2).max(1);
        let (mut on, mut off) = (Vec::new(), Vec::new());
        let start = Instant::now();
        let mut reps = 0;
        while start.elapsed().as_secs_f64() < o.seconds
            || reps < w.min_reps()
            || reps % (2 * block) != 0
        {
            let rep = t.begin("rep", "bench", Some(root));
            if (reps / block) % 2 == 1 {
                on.push(w.rep(ctx, Some((&mut *t, rep))));
            } else {
                off.push(w.rep(ctx, None));
            }
            t.end(rep);
            reps += 1;
        }
        rounds = rounds.max(reps);
        let mut metrics = w.layers(ctx, t, root);
        t.end(root);
        metrics.push(metric(
            "trace.overhead",
            stats::median(&on) / stats::median(&off) - 1.0,
            "ratio",
        ));
        metrics.push(metric("trace.unattributed_s", t.self_s(root), "s"));
        outcomes.push(Outcome {
            name: w.name(),
            tally: w.tally(),
            metrics,
            extras: Vec::new(),
        });
    }
    Ok((outcomes, rounds))
}

/// `{"name": {"value": v, "unit": u}, ...}` under the given keys.
fn metrics_json<'a>(items: impl Iterator<Item = (String, &'a Metric)>) -> String {
    let body: Vec<String> = items
        .map(|(key, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::str_lit(&key),
                json::num(m.value),
                json::str_lit(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn plain(ms: &[Metric]) -> String {
    metrics_json(ms.iter().map(|m| (m.name.to_string(), m)))
}

fn report(
    o: &Options,
    outcomes: &[Outcome],
    provenance: &str,
    spans: Option<&[trace::Span]>,
) -> i32 {
    for oc in outcomes {
        for m in oc.metrics.iter().chain(&oc.extras) {
            println!("{} {} {} {}", oc.name, m.name, m.value, m.unit);
        }
        let fail_ratio = oc.tally.failed as f64 / oc.tally.attempted.max(1) as f64;
        println!("{} fail_ratio {fail_ratio} ratio", oc.name);
    }
    let attempted: u64 = outcomes.iter().map(|oc| oc.tally.attempted).sum();
    let failed: u64 = outcomes.iter().map(|oc| oc.tally.failed).sum();
    if let Some(path) = &o.out {
        let results: Vec<String> = outcomes
            .iter()
            .map(|oc| {
                format!(
                    "{{\"workload\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \
                     \"extras\": {}}}",
                    json::str_lit(oc.name),
                    oc.tally.attempted,
                    oc.tally.failed,
                    plain(&oc.metrics),
                    plain(&oc.extras),
                )
            })
            .collect();
        let spans = spans.map_or(String::new(), |spans| {
            let rows: Vec<String> = spans
                .iter()
                .map(|s| {
                    format!(
                        "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"layer\": {}, \
                         \"start_ns\": {}, \"end_ns\": {}, \"request_id\": {}}}",
                        s.id,
                        s.parent.map_or("null".to_string(), |p| p.to_string()),
                        json::str_lit(s.name),
                        json::str_lit(s.layer),
                        s.start_ns,
                        s.end_ns,
                        s.request_id.map_or("null".to_string(), |r| r.to_string()),
                    )
                })
                .collect();
            format!(", \"spans\": [{}]", rows.join(", "))
        });
        let line = format!(
            "{{\"mode\": {}, \"provenance\": {provenance}, \"results\": [{}]{spans}}}\n",
            json::str_lit(if o.trace { "trace" } else { "run" }),
            results.join(", "),
        );
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
        if let Err(e) = written {
            eprintln!("error: cannot write {path}: {e}");
            return 1;
        }
    }
    // A single-workload run keys metrics by their declared names; a run
    // over several workloads prefixes each with its workload.
    let single = outcomes.len() == 1;
    let keyed = outcomes.iter().flat_map(|oc| {
        oc.metrics.iter().map(move |m| {
            let key = if single {
                m.name.to_string()
            } else {
                format!("{}:{}", oc.name, m.name)
            };
            (key, m)
        })
    });
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0 && attempted > 0,
        metrics_json(keyed)
    );
    i32::from(failed > 0)
}
