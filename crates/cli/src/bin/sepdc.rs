//! The `sepdc` command-line tool.
//!
//! ```text
//! sepdc generate --workload uniform-cube --n 1000 --dim 2 --seed 1 --out pts.csv
//! sepdc knn --input pts.csv --k 3 --algo parallel --edges-out edges.csv
//! sepdc separator --input pts.csv --k 1
//! sepdc figure --input pts.csv --k 1 --out fig.svg
//! ```

use sepdc_cli::args::Args;
use sepdc_cli::daemon::{run_daemon, DaemonConfig};
use sepdc_cli::{commands, CliResult};
use std::io::Write;

/// Print to stdout, treating a closed pipe (e.g. `sepdc help | head`) as a
/// clean exit instead of a panic.
fn print_pipe_safe(content: &str) {
    let mut out = std::io::stdout().lock();
    if out.write_all(content.as_bytes()).is_err() {
        std::process::exit(0);
    }
}

const USAGE: &str = "\
sepdc — separator based divide and conquer in computational geometry

USAGE:
  sepdc generate  --workload NAME --n N [--dim D] [--seed S] [--out FILE]
  sepdc knn       --input FILE [--dim D] [--k K] [--algo parallel|simple|kdtree|brute]
                  [--seed S] [--epsilon E] [--edges-out FILE] [--report FILE]
  sepdc query     --input FILE [--dim D] [--k K] [--probes FILE |
                  --probe-workload NAME --probe-n N] [--interior]
                  [--chunk N] [--seed S] [--epsilon E] [--out FILE]
                  [--report FILE]
  sepdc report    --input FILE
  sepdc index build   --input FILE --out FILE [--dim D] [--k K] [--seed S]
                      [--epsilon E] [--sharded [--staging N]]
  sepdc index inspect --input FILE
  sepdc serve     --index FILE [--interior] [--chunk N] [--batch-max N]
  sepdc separator --input FILE [--dim D] [--k K] [--seed S]
  sepdc figure    --input FILE [--k K] [--seed S] [--out FILE]   (2D only)

Workloads: uniform-cube, uniform-ball, sphere-shell, clusters, grid,
two-slabs, noisy-line. Point files: one point per line, comma or
whitespace separated; '#' comments allowed. --dim is inferred from the
first data line when omitted.

`knn --report FILE` saves a versioned JSON run report (phase timings,
counters, per-depth histograms) for the parallel and simple algorithms;
`sepdc report --input FILE` pretty-prints one.

`query` builds the Section 3 search structure over the input's k-NN
neighborhood system and serves a probe batch against it in parallel
(probes from --probes, or generated by --probe-workload/--probe-n);
--interior switches to the open-interior predicate, --out writes the
per-probe hit lists, --report saves the serve run report.

`index build` freezes the query structure into a versioned binary
snapshot — with `--sharded` a batch-dynamic sharded index (staging
buffer capacity `--staging`, default 256) that also accepts daemon
mutations; `index inspect` prints its section table and validates every
checksum; `serve` loads a snapshot and answers newline-delimited probe
batches over stdin/stdout (rows match `sepdc query --out`; control
lines: `swap PATH` installs a new snapshot atomically, `insert X,…,R`
and `delete ID` edit a sharded index in place, `stats`, `quit`).

`--epsilon E` (0 < E ≤ 1) opts into (1+ε)-approximate answers: knn
relaxes correction radii and runs the exact algorithm alongside to
measure an error certificate; query serves with an ε-relaxed cover
predicate. Snapshots remember ε.";

fn read_text_file(path: &str) -> CliResult<String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    sepdc_cli::io::decode_text(&bytes).map_err(|e| format!("cannot read {path}: {e}"))
}

fn read_input(args: &Args) -> CliResult<String> {
    read_text_file(args.require("input")?)
}

fn write_or_print(path: Option<&str>, content: &str) -> CliResult<()> {
    match path {
        Some(p) => std::fs::write(p, content).map_err(|e| format!("cannot write {p}: {e}")),
        None => {
            print_pipe_safe(content);
            Ok(())
        }
    }
}

/// Replace the file at `path` with `bytes` so that a crash mid-write
/// leaves the previous file intact: write a sibling temp file, fsync it,
/// rename it over the target, then fsync the directory so the rename
/// itself survives a crash.
fn write_atomic(path: &str, bytes: &[u8]) -> std::io::Result<()> {
    let target = std::path::Path::new(path);
    let name = target
        .file_name()
        .ok_or_else(|| std::io::Error::other("not a file path"))?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(format!(".{}.tmp", std::process::id()));
    let tmp = target.with_file_name(tmp_name);
    let written = std::fs::File::create(&tmp).and_then(|mut f| {
        f.write_all(bytes)?;
        f.sync_all()
    });
    if let Err(e) = written.and_then(|()| std::fs::rename(&tmp, target)) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    let dir = target.parent().filter(|d| !d.as_os_str().is_empty());
    std::fs::File::open(dir.unwrap_or(std::path::Path::new(".")))?.sync_all()
}

fn dim_flag(args: &Args) -> CliResult<Option<usize>> {
    match args.get_or("dim", "") {
        "" => Ok(None),
        v => v
            .parse()
            .map(Some)
            .map_err(|_| format!("--dim: cannot parse '{v}'")),
    }
}

fn run() -> CliResult<()> {
    // `index build` / `index inspect` are two-word subcommands; fold the
    // pair into one token so the flag parser sees a single command.
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("index") {
        match argv.get(1).map(String::as_str) {
            Some(sub @ ("build" | "inspect")) => {
                argv[0] = format!("index-{sub}");
                argv.remove(1);
            }
            _ => return Err(format!("usage: sepdc index build|inspect …\n\n{USAGE}")),
        }
    }
    let args = Args::parse(argv)?;
    match args.command.as_str() {
        "generate" => {
            let unknown = args.unknown_flags(&["workload", "n", "dim", "seed", "out"]);
            if !unknown.is_empty() {
                return Err(format!("unknown flags: {}", unknown.join(", ")));
            }
            let csv = commands::generate(
                args.require("workload")?,
                args.num_or("n", 1000)?,
                args.num_or("dim", 2)?,
                args.num_or("seed", 42)?,
            )?;
            write_or_print(args.flags_out(), &csv)
        }
        "knn" => {
            let unknown = args.unknown_flags(&[
                "input",
                "dim",
                "k",
                "algo",
                "seed",
                "epsilon",
                "edges-out",
                "report",
            ]);
            if !unknown.is_empty() {
                return Err(format!("unknown flags: {}", unknown.join(", ")));
            }
            let input = read_input(&args)?;
            let out = commands::knn(
                &input,
                dim_flag(&args)?,
                args.num_or("k", 1)?,
                args.get_or("algo", "parallel"),
                args.num_or("seed", 42)?,
                args.num_or("epsilon", 0.0)?,
            )?;
            eprintln!("{}", out.summary);
            match args.get_or("report", "") {
                "" => {}
                p => {
                    let json = out.report_json.as_deref().ok_or_else(|| {
                        format!(
                            "--report: algorithm '{}' does not produce a run report \
                             (use parallel or simple)",
                            args.get_or("algo", "parallel")
                        )
                    })?;
                    std::fs::write(p, json).map_err(|e| format!("cannot write {p}: {e}"))?;
                }
            }
            match args.get_or("edges-out", "") {
                "" => Ok(()),
                p => write_or_print(Some(p), &out.edges_csv),
            }
        }
        "query" => {
            let unknown = args.unknown_flags(&[
                "input",
                "dim",
                "k",
                "probes",
                "probe-workload",
                "probe-n",
                "interior",
                "chunk",
                "seed",
                "epsilon",
                "out",
                "report",
            ]);
            if !unknown.is_empty() {
                return Err(format!("unknown flags: {}", unknown.join(", ")));
            }
            let input = read_input(&args)?;
            let probes_text = match args.get_or("probes", "") {
                "" => None,
                p => Some(read_text_file(p)?),
            };
            let out = commands::query(
                &input,
                dim_flag(&args)?,
                args.num_or("k", 1)?,
                probes_text.as_deref(),
                args.get_or("probe-workload", "uniform-cube"),
                args.num_or("probe-n", 1000)?,
                args.bool("interior"),
                args.num_or("seed", 42)?,
                args.num_or("chunk", 1024)?,
                args.num_or("epsilon", 0.0)?,
            )?;
            eprintln!("{}", out.summary);
            match args.get_or("report", "") {
                "" => {}
                p => std::fs::write(p, &out.report_json)
                    .map_err(|e| format!("cannot write {p}: {e}"))?,
            }
            match args.flags_out() {
                None => Ok(()),
                Some(p) => write_or_print(Some(p), &out.hits_csv),
            }
        }
        "report" => {
            let unknown = args.unknown_flags(&["input"]);
            if !unknown.is_empty() {
                return Err(format!("unknown flags: {}", unknown.join(", ")));
            }
            let input = read_input(&args)?;
            let rendered = commands::report(&input)?;
            print_pipe_safe(&rendered);
            Ok(())
        }
        "index-build" => {
            let unknown = args.unknown_flags(&[
                "input", "dim", "k", "seed", "epsilon", "out", "sharded", "staging",
            ]);
            if !unknown.is_empty() {
                return Err(format!("unknown flags: {}", unknown.join(", ")));
            }
            let input = read_input(&args)?;
            let out_path = args.require("out")?;
            let sharded = if args.bool("sharded") {
                Some(args.num_or("staging", 256)?)
            } else if args.get_or("staging", "").is_empty() {
                None
            } else {
                return Err("--staging requires --sharded".to_string());
            };
            let built = commands::index_build(
                &input,
                dim_flag(&args)?,
                args.num_or("k", 1)?,
                args.num_or("seed", 42)?,
                sharded,
                Default::default(),
                Default::default(),
                args.num_or("epsilon", 0.0)?,
            )?;
            write_atomic(out_path, &built.snapshot)
                .map_err(|e| format!("cannot write {out_path}: {e}"))?;
            eprintln!("{}", built.summary);
            Ok(())
        }
        "index-inspect" => {
            let unknown = args.unknown_flags(&["input"]);
            if !unknown.is_empty() {
                return Err(format!("unknown flags: {}", unknown.join(", ")));
            }
            let path = args.require("input")?;
            let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let rendered = commands::index_inspect(&bytes)?;
            print_pipe_safe(&rendered);
            Ok(())
        }
        "serve" => {
            let unknown = args.unknown_flags(&["index", "interior", "chunk", "batch-max"]);
            if !unknown.is_empty() {
                return Err(format!("unknown flags: {}", unknown.join(", ")));
            }
            let cfg = DaemonConfig {
                interior: args.bool("interior"),
                chunk: args.num_or("chunk", 1024)?,
                batch_max: args.num_or("batch-max", 4096)?,
                fail_batch: None,
            };
            let stats = run_daemon(
                std::io::BufReader::new(std::io::stdin()),
                std::io::stdout().lock(),
                args.require("index")?,
                &cfg,
            )?;
            eprintln!(
                "sepdc serve: exiting after {} probes in {} batches ({} swaps)",
                stats.probes, stats.batches, stats.swaps
            );
            Ok(())
        }
        "separator" => {
            let input = read_input(&args)?;
            let report = commands::separator(
                &input,
                dim_flag(&args)?,
                args.num_or("k", 1)?,
                args.num_or("seed", 42)?,
            )?;
            print_pipe_safe(&format!("{report}\n"));
            Ok(())
        }
        "figure" => {
            let input = read_input(&args)?;
            let svg = commands::figure(&input, args.num_or("k", 1)?, args.num_or("seed", 42)?)?;
            write_or_print(args.flags_out(), &svg)
        }
        "" | "help" | "--help" | "-h" => {
            print_pipe_safe(&format!("{USAGE}\n"));
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

/// Small extension so `--out` handling reads naturally above.
trait OutFlag {
    fn flags_out(&self) -> Option<&str>;
}
impl OutFlag for Args {
    fn flags_out(&self) -> Option<&str> {
        match self.get_or("out", "") {
            "" => None,
            p => Some(p),
        }
    }
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
