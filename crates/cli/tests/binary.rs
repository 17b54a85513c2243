//! Process-level tests of the `sepdc` binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sepdc"))
}

/// Run `sepdc` with `args`, requiring a zero exit status.
fn run_ok(args: &[&str]) -> std::process::Output {
    let out = bin().args(args).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sepdc_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("generate"));
}

#[test]
fn unknown_command_fails_with_message() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn generate_knn_figure_pipeline() {
    let dir = tmpdir("pipeline");
    let pts = dir.join("pts.csv");
    let edges = dir.join("edges.csv");
    let fig = dir.join("fig.svg");

    run_ok(&[
        "generate",
        "--workload",
        "clusters",
        "--n",
        "300",
        "--dim",
        "2",
        "--seed",
        "5",
        "--out",
        pts.to_str().unwrap(),
    ]);
    assert_eq!(std::fs::read_to_string(&pts).unwrap().lines().count(), 300);

    let out = run_ok(&[
        "knn",
        "--input",
        pts.to_str().unwrap(),
        "--k",
        "2",
        "--algo",
        "parallel",
        "--edges-out",
        edges.to_str().unwrap(),
    ]);
    let summary = String::from_utf8_lossy(&out.stderr);
    assert!(summary.contains("300 points (d=2)"), "{summary}");
    let edge_text = std::fs::read_to_string(&edges).unwrap();
    assert!(edge_text.lines().count() > 300);

    run_ok(&[
        "figure",
        "--input",
        pts.to_str().unwrap(),
        "--out",
        fig.to_str().unwrap(),
    ]);
    assert!(std::fs::read_to_string(&fig).unwrap().starts_with("<svg"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn separator_reports_to_stdout() {
    let dir = tmpdir("sep");
    let pts = dir.join("pts.csv");
    bin()
        .args([
            "generate",
            "--workload",
            "uniform-cube",
            "--n",
            "400",
            "--out",
            pts.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let out = run_ok(&["separator", "--input", pts.to_str().unwrap(), "--k", "1"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("split"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn knn_report_flag_then_pretty_printer() {
    let dir = tmpdir("report");
    let pts = dir.join("pts.csv");
    let report = dir.join("run.json");

    run_ok(&[
        "generate",
        "--workload",
        "uniform-cube",
        "--n",
        "500",
        "--dim",
        "2",
        "--seed",
        "11",
        "--out",
        pts.to_str().unwrap(),
    ]);

    let out = run_ok(&[
        "knn",
        "--input",
        pts.to_str().unwrap(),
        "--k",
        "2",
        "--algo",
        "parallel",
        "--report",
        report.to_str().unwrap(),
    ]);
    // Summary surfaces the fallback counters (satellite fix).
    let summary = String::from_utf8_lossy(&out.stderr);
    assert!(summary.contains("forced leaves"), "{summary}");
    assert!(summary.contains("degenerate splits"), "{summary}");

    let json = std::fs::read_to_string(&report).unwrap();
    assert!(json.contains("\"run_report_version\": 1"), "{json}");
    assert!(json.contains("\"phases\""), "{json}");
    assert!(json.contains("\"depth\""), "{json}");

    let out = run_ok(&["report", "--input", report.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("run report v1"), "{text}");
    assert!(text.contains("per-depth histogram"), "{text}");

    // --report with an uninstrumented algorithm is a clean error.
    let out = bin()
        .args([
            "knn",
            "--input",
            pts.to_str().unwrap(),
            "--algo",
            "brute",
            "--report",
            report.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("does not produce a run report"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_serves_probes_end_to_end() {
    let dir = tmpdir("query");
    let pts = dir.join("pts.csv");
    let hits = dir.join("hits.csv");
    let report = dir.join("serve.json");

    run_ok(&[
        "generate",
        "--workload",
        "uniform-cube",
        "--n",
        "400",
        "--dim",
        "2",
        "--seed",
        "9",
        "--out",
        pts.to_str().unwrap(),
    ]);

    let out = run_ok(&[
        "query",
        "--input",
        pts.to_str().unwrap(),
        "--k",
        "2",
        "--probe-workload",
        "clusters",
        "--probe-n",
        "150",
        "--interior",
        "--chunk",
        "64",
        "--out",
        hits.to_str().unwrap(),
        "--report",
        report.to_str().unwrap(),
    ]);
    let summary = String::from_utf8_lossy(&out.stderr);
    assert!(summary.contains("served 150 probes"), "{summary}");
    assert!(summary.contains("open predicate"), "{summary}");

    // Hit lists: header + one row per probe.
    let csv = std::fs::read_to_string(&hits).unwrap();
    assert_eq!(csv.lines().count(), 151, "{csv}");
    assert!(csv.starts_with("# probe,count,ball_ids"), "{csv}");

    // Serve run report round-trips through the pretty-printer.
    let json = std::fs::read_to_string(&report).unwrap();
    assert!(json.contains("\"algo\": \"query-serve\""), "{json}");
    let out = run_ok(&["report", "--input", report.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("query-serve"), "{text}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_input_is_a_clean_error() {
    let out = bin()
        .args(["knn", "--input", "/nonexistent/file.csv"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn index_build_inspect_serve_pipeline() {
    use std::io::{BufRead, BufReader, Write};
    use std::process::Stdio;

    let dir = tmpdir("index");
    let pts = dir.join("pts.csv");
    let probes = dir.join("probes.csv");
    let snap = dir.join("index.snap");
    let hits = dir.join("hits.csv");

    for (workload, n, seed, path) in [
        ("uniform-cube", "500", "9", &pts),
        ("clusters", "80", "3", &probes),
    ] {
        run_ok(&[
            "generate",
            "--workload",
            workload,
            "--n",
            n,
            "--dim",
            "2",
            "--seed",
            seed,
            "--out",
            path.to_str().unwrap(),
        ]);
    }

    // Build a snapshot, then inspect it.
    let out = run_ok(&[
        "index",
        "build",
        "--input",
        pts.to_str().unwrap(),
        "--k",
        "2",
        "--seed",
        "5",
        "--out",
        snap.to_str().unwrap(),
    ]);
    let summary = String::from_utf8_lossy(&out.stderr);
    assert!(summary.contains("500 balls"), "{summary}");

    let out = run_ok(&["index", "inspect", "--input", snap.to_str().unwrap()]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("query-tree"), "{text}");
    assert!(text.contains("fnv1a64"), "{text}");

    // The reference answers from the one-shot query command.
    run_ok(&[
        "query",
        "--input",
        pts.to_str().unwrap(),
        "--k",
        "2",
        "--seed",
        "5",
        "--probes",
        probes.to_str().unwrap(),
        "--out",
        hits.to_str().unwrap(),
    ]);
    let want: Vec<String> = std::fs::read_to_string(&hits)
        .unwrap()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(String::from)
        .collect();

    // The daemon over the same probes must produce identical rows.
    let mut child = bin()
        .args(["serve", "--index", snap.to_str().unwrap()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    {
        let mut stdin = child.stdin.take().unwrap();
        stdin
            .write_all(std::fs::read(&probes).unwrap().as_slice())
            .unwrap();
        stdin.write_all(b"stats\nquit\n").unwrap();
    }
    let reader = BufReader::new(child.stdout.take().unwrap());
    let lines: Vec<String> = reader.lines().map(Result::unwrap).collect();
    assert!(child.wait().unwrap().success());
    assert_eq!(&lines[..80], &want[..], "daemon rows must match query rows");
    assert!(
        lines[80].starts_with("ok generation=1 n=500"),
        "{}",
        lines[80]
    );
    assert_eq!(lines[81], "ok bye");

    // `index frobnicate` is a clean usage error.
    let out = bin().args(["index", "frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("index build|inspect"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn index_rebuild_replaces_snapshot_atomically() {
    let dir = tmpdir("rebuild");
    let (pts, snap) = (dir.join("pts.csv"), dir.join("index.snap"));
    let (pts, snap) = (pts.to_str().unwrap(), snap.to_str().unwrap());
    run_ok(&[
        "generate",
        "--workload",
        "uniform-cube",
        "--n",
        "300",
        "--out",
        pts,
    ]);
    let build = |seed| {
        run_ok(&[
            "index", "build", "--input", pts, "--seed", seed, "--out", snap,
        ]);
        std::fs::read(snap).unwrap()
    };
    let first = build("5");
    // The rebuild writes over the existing snapshot: the target ends up
    // holding exactly the new bytes and no temp sibling is left behind.
    let second = build("6");
    assert_ne!(first, second, "different seeds must build different trees");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names, ["index.snap", "pts.csv"]);
    run_ok(&["index", "inspect", "--input", snap]);
    let _ = std::fs::remove_dir_all(&dir);
}
