//! Splitter-backend shootout over the adversarial workloads.
//!
//! ```sh
//! cargo run --release -p sepdc-bench --bin bench_splitters          # full
//! cargo run --release -p sepdc-bench --bin bench_splitters -- --smoke
//! ```
//!
//! Runs the Section 6 recursion under every split-decision backend
//! (`random`, `graph`) on the degenerate generators that stress
//! the tol gate — all-coincident, duplicate bundles, a tolerance-band
//! cluster, and the noisy-line workload — plus a uniform-cube control and
//! the outlier strip built against the widest-axis halving cut.
//! Every answer set must equal the brute-force oracle's (ids and distance
//! bits) before its row is recorded. Both modes run at least
//! `HALVING_FIRST_BELOW` points, so the root asks the backend first; a run
//! on a splittable input that never asked its backend fails.
//!
//! Writes `BENCH_splitters.json` (override with `SEPDC_BENCH_OUT`): the
//! table rows carry the crossing numbers (total + max at any node), tree
//! height, and the driver's halving/rescue counters per backend (nodes
//! below 2^14 points take the halving cut under both); the embedded
//! `"reports"` array holds each case's full [`sepdc_core::RunReport`], so
//! the per-depth crossing and candidate distributions travel with the
//! summary numbers.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sepdc_bench::harness::{host_info, json_str, timed, HostInfo, Table};
use sepdc_core::{brute_force_knn, parallel_knn, KnnDcConfig, SplitterKind, HALVING_FIRST_BELOW};
use sepdc_geom::Point;
use sepdc_workloads::degenerate::{
    all_coincident, duplicate_bundles, outlier_strip, tolerance_band_cluster,
};
use sepdc_workloads::Workload;

const SEED: u64 = 3;
const K: usize = 2;

/// The adversarial generator set: `(label, points)`.
fn workloads(n: usize) -> Vec<(&'static str, Vec<Point<2>>)> {
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    vec![
        ("all-coincident", all_coincident::<2>(n, 2.5)),
        (
            "duplicate-bundles",
            duplicate_bundles::<2, _>(n, 8, &mut rng),
        ),
        (
            "tolerance-band",
            tolerance_band_cluster::<2, _>(n, 1e-6, &mut rng),
        ),
        ("noisy-line", Workload::NoisyLine.generate::<2>(n, SEED)),
        ("uniform-cube", Workload::UniformCube.generate::<2>(n, SEED)),
        ("outlier-strip", outlier_strip::<2, _>(n, 0.01, &mut rng)),
    ]
}

/// One embedded run report: (row label, median seconds, RunReport JSON).
type CaseReport = (String, f64, String);

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (reps, n) = if smoke {
        (1, HALVING_FIRST_BELOW)
    } else {
        (3, 20_000)
    };

    let mut table = Table::new(
        "BENCH splitter backends on adversarial workloads",
        &[
            "case",
            "median ms",
            "height",
            "crossing",
            "max node x",
            "forced",
            "degen",
            "halving",
            "rescues",
            "graph",
        ],
    );
    let mut reports: Vec<CaseReport> = Vec::new();

    for (workload, pts) in workloads(n) {
        let oracle = brute_force_knn(&pts, K);
        for kind in [SplitterKind::Random, SplitterKind::Graph] {
            let cfg = KnnDcConfig::new(K).with_seed(SEED).with_splitter(kind);
            let mut secs = Vec::with_capacity(reps);
            let mut out = None;
            for _ in 0..reps {
                let (o, dt) = timed(|| parallel_knn::<2, 3>(&pts, &cfg));
                secs.push(dt);
                out = Some(o);
            }
            secs.sort_by(f64::total_cmp);
            let median = secs[secs.len() / 2];
            let out = out.unwrap();
            out.knn
                .identical_to(&oracle)
                .unwrap_or_else(|e| panic!("{workload}/{}: oracle mismatch: {e}", kind.name()));
            // A backend search adds at least one candidate, a halving cut
            // exactly one. No cut splits all-coincident input, and a node
            // no cut splits records no candidates.
            assert!(
                out.stats.candidates > out.stats.halving_splits || workload == "all-coincident",
                "{workload}/{}: the backend was never asked: {:?}",
                kind.name(),
                out.stats
            );
            let label = format!("{workload} n={n} splitter={}", kind.name());
            reports.push((label.clone(), median, out.report.to_json()));
            table.row(
                label,
                vec![
                    format!("{:.2}", median * 1e3),
                    out.stats.height.to_string(),
                    out.stats.total_crossing.to_string(),
                    out.stats.max_node_crossing.to_string(),
                    out.stats.forced_leaves.to_string(),
                    out.stats.degenerate_splits.to_string(),
                    out.stats.halving_splits.to_string(),
                    out.stats.halving_rescues.to_string(),
                    out.stats.graph_splits.to_string(),
                ],
            );
        }
    }

    table.note(format!(
        "reps={reps}, median reported; every row verified against the brute \
         oracle; k={K}, seed={SEED}; per-depth crossing/candidate \
         distributions live in the embedded run reports"
    ));
    if smoke {
        table.note(format!("--smoke run: n={n}, 1 rep (CI sanity only)"));
    }
    let host = host_info();
    table.note(host.describe());
    table.print();

    let out_path =
        std::env::var("SEPDC_BENCH_OUT").unwrap_or_else(|_| "BENCH_splitters.json".to_string());
    std::fs::write(&out_path, bench_json(&table, &reports, &host)).expect("write bench json");
    eprintln!("[wrote {out_path}]");
}

/// Combined artifact: the human-oriented table plus one full run report
/// per (workload, backend) case, same shape as the other bench bins.
fn bench_json(table: &Table, reports: &[CaseReport], host: &HostInfo) -> String {
    let mut s = String::from("{\n\"bench_splitters_version\": 1,\n\"host\": ");
    s.push_str(&host.to_json());
    s.push_str(",\n\"table\":\n");
    s.push_str(table.to_json().trim_end());
    s.push_str(",\n\"reports\": [\n");
    for (i, (label, median, report)) in reports.iter().enumerate() {
        s.push_str(&format!(
            "{{ \"label\": {}, \"median_ms\": {:.3}, \"report\":\n{} }}{}\n",
            json_str(label),
            median * 1e3,
            report.trim_end(),
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    s.push_str("]\n}\n");
    s
}
