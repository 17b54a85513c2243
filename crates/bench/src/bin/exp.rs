//! Experiment driver: regenerates every table/figure of EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p sepdc-bench --bin exp -- all
//! cargo run --release -p sepdc-bench --bin exp -- exp3 exp5
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: exp <exp1..exp13 | all>...");
        eprintln!("  exp1  separator quality (Theorem 2.1)");
        eprintln!("  exp2  query structure costs (Lemma 3.1 / Theorem 3.1)");
        eprintln!("  exp3  hyperplane vs sphere crossing numbers (§1 motivation)");
        eprintln!("  exp4  all-k-NN algorithm comparison (work claim)");
        eprintln!("  exp5  depth scaling O(log n) vs O(log² n) (Thm 6.1 / Lemma 5.1)");
        eprintln!("  exp6  punting lemma tails (Lemma 4.1)");
        eprintln!("  exp7  intersection tails for reused separators (Lemma 6.4)");
        eprintln!("  exp8  strong scaling across threads");
        eprintln!("  exp9  density lemma ply bounds (Lemma 2.1)");
        eprintln!("  exp10 success rates, marching load, punt frequency");
        eprintln!("  exp11 vertex separators of the k-NN graph (abstract, §1)");
        eprintln!("  exp12 ablations of the design choices");
        eprintln!("  exp13 neighborhood query baselines (§3.1 comparison)");
        std::process::exit(2);
    }
    for id in &args {
        let t0 = std::time::Instant::now();
        if !sepdc_bench::experiments::run(id) {
            eprintln!("unknown experiment id: {id}");
            std::process::exit(2);
        }
        eprintln!("[{id} finished in {:.1?}]", t0.elapsed());
    }
}
