//! The three k-NN workloads: one `parallel_knn` call per repetition,
//! every answer checked against the kd-tree oracle.
//!
//! A run draws `INPUTS` point sets from its seed and cycles through them.
//! How long a call takes depends on the input beyond its size: on eight
//! uniform inputs the fastest call ranged from 229 to 345 ms (standard
//! deviation 14% of the mean) while the busy time summed over workers
//! stayed within 3%, because the top splits decide how evenly the two
//! workers share the work. The mean over many inputs keeps that effect
//! from deciding a run.

use crate::trace::Tracer;
use crate::{alloc, fnv1a, layers, metric, probe, stats, Ctx, Metric, SplitMix, Tally, Workload};
use sepdc_core::{
    kdtree_all_knn, parallel_knn, KnnDcConfig, KnnResult, ParallelDcOutput, RunReport,
};
use sepdc_geom::Point;
use sepdc_workloads::Workload as Gen;
use std::time::Instant;

/// Input size of every workload (the repository's acceptance case).
pub const N: usize = 100_000;
pub const K: usize = 4;
/// The program's own D&C seed. Fixed: only the inputs vary with `--seed`.
pub const KNN_SEED: u64 = 3;
/// Point sets per run: with 16, the per-input effect above leaves the
/// mean a standard deviation of about 3.5% from seed to seed.
const INPUTS: usize = 16;
/// Inputs whose peak heap is measured, by one untimed call each.
const MEM_INPUTS: usize = 4;

pub fn make(name: &str, seed: u64) -> Box<dyn Workload> {
    let mut r = SplitMix(seed);
    let seeds: Vec<u64> = (0..INPUTS).map(|_| r.next_u64()).collect();
    match name {
        "knn-uniform2d" => Box::new(Knn::<2, 3>::new(
            "knn-uniform2d",
            seeds
                .iter()
                .map(|&s| Gen::UniformCube.generate::<2>(N, s))
                .collect(),
        )),
        "knn-clusters3d" => Box::new(Knn::<3, 4>::new(
            "knn-clusters3d",
            seeds
                .iter()
                .map(|&s| Gen::Clusters.generate::<3>(N, s))
                .collect(),
        )),
        _ => Box::new(Knn::<2, 3>::new(
            "knn-snapped2d",
            seeds.into_iter().map(snapped).collect(),
        )),
    }
}

/// Uniform points in which every 20th row had its coordinates snapped to
/// a default (the origin): 5% of the input is one bundle of coincident
/// points, which no separator can split.
pub fn snapped(seed: u64) -> Vec<Point<2>> {
    let mut pts = Gen::UniformCube.generate::<2>(N, seed);
    for p in pts.iter_mut().step_by(20) {
        *p = Point([0.0, 0.0]);
    }
    pts
}

/// FNV-1a over every `(idx, dist_sq bits)` of the lists, in row order:
/// equal hashes mean byte-identical answers.
pub fn knn_hash(knn: &KnnResult) -> u64 {
    fnv1a((0..knn.len()).flat_map(|i| knn.neighbors(i)).flat_map(|n| {
        n.idx
            .to_le_bytes()
            .into_iter()
            .chain(n.dist_sq.to_bits().to_le_bytes())
    }))
}

/// One point set: the file a user would hand to the program, the points
/// it holds, the oracle's answer, and the calls timed on it: wall
/// seconds, and the same scaled to the reference host speed.
struct Input<const D: usize> {
    csv: String,
    points: Vec<Point<D>>,
    oracle: u64,
    call_s: Vec<f64>,
    scaled_s: Vec<f64>,
}

pub struct Knn<const D: usize, const E: usize> {
    name: &'static str,
    inputs: Vec<Input<D>>,
    next: usize,
    cfg: KnnDcConfig,
    /// Threads of the compute probe: the pool `parallel_knn` runs on.
    threads: usize,
    /// Parse times: wall, and scaled like the calls.
    parse_s: Vec<f64>,
    parse_scaled_s: Vec<f64>,
    probe_s: Vec<f64>,
    /// Peak heap bytes of the untimed calls on the first `MEM_INPUTS`
    /// inputs.
    peak_bytes: Vec<f64>,
    tally: Tally,
    /// Run reports of the traced calls, and the last traced call's input
    /// and output.
    reports: Vec<RunReport>,
    last: Option<(usize, ParallelDcOutput<D>)>,
}

impl<const D: usize, const E: usize> Knn<D, E> {
    pub fn new(name: &'static str, point_sets: Vec<Vec<Point<D>>>) -> Self {
        let inputs = point_sets
            .into_iter()
            .map(|points| Input {
                csv: sepdc_cli::io::format_points(&points),
                oracle: knn_hash(&kdtree_all_knn(&points, K)),
                points,
                call_s: Vec::new(),
                scaled_s: Vec::new(),
            })
            .collect();
        let mut w = Knn {
            name,
            inputs,
            next: 0,
            cfg: KnnDcConfig::new(K).with_seed(KNN_SEED),
            threads: rayon::current_num_threads(),
            parse_s: Vec::new(),
            parse_scaled_s: Vec::new(),
            probe_s: Vec::new(),
            peak_bytes: Vec::new(),
            tally: Tally::default(),
            reports: Vec::new(),
            last: None,
        };
        // Untimed calls warm the process and count a call's peak heap,
        // which varies a little with how the two workers interleave their
        // allocations.
        for i in 0..MEM_INPUTS.min(w.inputs.len()) {
            let (out, peak) =
                alloc::peak_bytes(|| parallel_knn::<D, E>(&w.inputs[i].points, &w.cfg));
            w.peak_bytes.push(peak as f64);
            w.tally.add(w.check(i, &out));
        }
        w
    }

    /// Set-up is what a user pays before the first k-NN call: parsing the
    /// point file. It is timed once per repetition, next to the call, and
    /// its output is checked too. Returns its wall seconds.
    fn parse(&mut self, i: usize) -> f64 {
        let input = &self.inputs[i];
        let t = Instant::now();
        let parsed = sepdc_cli::io::parse_points::<D>(&input.csv);
        let secs = t.elapsed().as_secs_f64();
        self.tally.add(parsed.as_ref() == Ok(&input.points));
        secs
    }

    fn check(&self, i: usize, out: &ParallelDcOutput<D>) -> bool {
        knn_hash(&out.knn) == self.inputs[i].oracle && out.meter.unsafe_margin_hits == 0
    }

    /// Mean over the inputs of each input's median call.
    fn mean_call_s(&self, calls: fn(&Input<D>) -> &[f64]) -> f64 {
        let per_input: Vec<f64> = self
            .inputs
            .iter()
            .map(|i| stats::median(calls(i)))
            .collect();
        stats::mean(&per_input)
    }
}

impl<const D: usize, const E: usize> Workload for Knn<D, E> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn min_reps(&self) -> usize {
        // Two calls on each input.
        2 * self.inputs.len()
    }

    /// One call and one parse of the next input, between two probes.
    fn rep(&mut self, _ctx: &Ctx, trace: Option<(&mut Tracer, usize)>) -> f64 {
        let i = self.next;
        self.next = (i + 1) % self.inputs.len();
        let started = Instant::now();
        let before = probe::compute_s(self.threads);
        let start = Instant::now();
        let out = parallel_knn::<D, E>(&self.inputs[i].points, &self.cfg);
        let end = Instant::now();
        let parse_s = self.parse(i);
        let after = probe::compute_s(self.threads);
        let scale = probe::scale(probe::COMPUTE_REFERENCE_S, before, after);
        let call_s = (end - start).as_secs_f64();
        self.inputs[i].call_s.push(call_s);
        self.inputs[i].scaled_s.push(call_s * scale);
        self.parse_s.push(parse_s);
        self.parse_scaled_s.push(parse_s * scale);
        self.probe_s.extend([before, after]);
        self.tally.add(self.check(i, &out));
        if let Some((t, parent)) = trace {
            let id = self.tally.attempted;
            t.record("parallel_knn", "knn", Some(parent), Some(id), start, end);
            self.reports.push(out.report.clone());
            self.last = Some((i, out));
        }
        started.elapsed().as_secs_f64()
    }

    /// Times are scaled to the reference host speed (`probe.rs`). A call
    /// is the median over its input's calls, averaged over the inputs;
    /// set-up is the fastest decile of the parses, which from run to run
    /// spread by 4–14% against 6–26% for their median.
    fn end_to_end(&self) -> Vec<Metric> {
        vec![
            metric("setup_s", stats::best_low(&self.parse_scaled_s), "s"),
            metric("latency_ms", self.mean_call_s(|i| &i.scaled_s) * 1e3, "ms"),
            metric(
                "peak_mem_mib",
                stats::mean(&self.peak_bytes) / (1 << 20) as f64,
                "MiB",
            ),
        ]
    }

    fn extras(&self) -> Vec<Metric> {
        let calls: Vec<f64> = self
            .inputs
            .iter()
            .flat_map(|i| i.call_s.iter().copied())
            .collect();
        let level = stats::tail_level(calls.len());
        vec![
            metric(
                "latency_wall_ms",
                self.mean_call_s(|i| &i.call_s) * 1e3,
                "ms",
            ),
            metric("setup_wall_s", stats::best_low(&self.parse_s), "s"),
            metric("host_probe_ms", stats::median(&self.probe_s) * 1e3, "ms"),
            metric("inputs", self.inputs.len() as f64, "count"),
            metric("calls", calls.len() as f64, "count"),
            metric("call_p50_ms", stats::median(&calls) * 1e3, "ms"),
            metric("call_tail_percentile", level * 100.0, "%"),
            metric("call_tail_ms", stats::percentile(&calls, level) * 1e3, "ms"),
        ]
    }

    fn layers(&mut self, ctx: &Ctx, t: &mut Tracer, parent: usize) -> Vec<Metric> {
        let (i, out) = self
            .last
            .as_ref()
            .expect("a trace run makes traced calls first");
        let points = &self.inputs[*i].points;
        let mut ms = layers::knn_layers::<D, E>(points, &self.cfg, &self.reports, out, t, parent);
        ms.extend(layers::stack_layers::<D, E>(
            ctx,
            points,
            None,
            &mut self.tally,
            t,
            parent,
        ));
        ms
    }

    fn tally(&self) -> Tally {
        self.tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_round_passes_the_oracle_and_reports_every_metric() {
        let ctx = Ctx {
            seed: 1,
            sepdc: Default::default(),
            tmp: Default::default(),
        };
        let sets = vec![snapped(1)[..2_000].to_vec(), snapped(2)[..1_500].to_vec()];
        let mut w = Knn::<2, 3>::new("knn-snapped2d", sets);
        for _ in 0..4 {
            assert!(w.rep(&ctx, None) > 0.0);
        }
        let t = w.tally();
        // An untimed call per input (both inputs are below MEM_INPUTS),
        // and four timed calls, each with its parse.
        assert_eq!((t.attempted, t.failed), (10, 0));
        assert!(
            w.inputs.iter().all(|i| i.call_s.len() == 2),
            "calls alternate inputs"
        );
        let names: Vec<_> = w.end_to_end().iter().map(|m| m.name).collect();
        assert_eq!(names, ["setup_s", "latency_ms", "peak_mem_mib"]);
        // A wrong oracle is caught.
        w.inputs[0].oracle ^= 1;
        w.rep(&ctx, None);
        assert_eq!(w.tally().failed, 1);
    }
}
