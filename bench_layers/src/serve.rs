//! The two daemon workloads. Each session spawns the real `sepdc serve`
//! on a snapshot written by `sepdc index build`'s library entry point and
//! drives it from one client thread over one pipe: a closed loop that
//! keeps `WINDOW` requests outstanding. Every reply line is checked
//! against an in-process replay of the same script. The client and the
//! daemon share one CPU (`affinity.rs`), and every session is timed
//! between two message probes (`probe.rs`).

use crate::affinity::Pinned;
use crate::knn::{knn_hash, K, KNN_SEED, N};
use crate::trace::Tracer;
use crate::{fnv1a, layers, metric, probe, stats, Ctx, Metric, SplitMix, Tally, Workload};
use sepdc_cli::commands::index_build;
use sepdc_core::serve::{CoverPredicate, ServeConfig};
use sepdc_core::snapshot::{load_query_tree, load_sharded_index};
use sepdc_core::{kdtree_all_knn, parallel_knn, KnnDcConfig, Precision, QueryTree, SplitterKind};
use sepdc_geom::ball::Ball;
use sepdc_geom::Point;
use sepdc_workloads::Workload as Gen;
use std::fmt::Display;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Seed of the served index (a program setting, fixed across runs).
pub const INDEX_SEED: u64 = 5;
/// Staging capacity of the sharded index (`index build --staging`).
pub const STAGING: usize = 256;
/// Requests per session.
const READ_REQUESTS: usize = 100_000;
const CHURN_REQUESTS: usize = 20_000;
/// Sessions between two timed index builds, so that set-up is sampled
/// through the whole run like the sessions are.
const BUILD_EVERY: usize = 5;
/// Requests in flight: the client sends the next one only when one of
/// these is answered.
const WINDOW: usize = 32;
/// Request spans a traced session records (its first requests), so that
/// every traced session pays the same bookkeeping.
const REQUEST_SPANS: usize = 20_000;

/// Uniform probes, seeded apart from the base points.
pub fn probes<const D: usize>(seed: u64, count: usize) -> Vec<Point<D>> {
    Gen::UniformCube.generate::<D>(count, seed ^ 0x5EED_0011)
}

/// Fresh balls for inserts: uniform centers, radii near the k-NN radius
/// of the base points.
pub fn fresh_balls<const D: usize>(seed: u64, count: usize) -> Vec<Ball<D>> {
    Gen::UniformCube
        .generate::<D>(count, seed ^ 0x1115_E127)
        .into_iter()
        .enumerate()
        .map(|(i, c)| Ball::new(c, 0.001 * (1 + i % 5) as f64))
        .collect()
}

/// `count` distinct ids from `0..n`, seeded (partial Fisher-Yates).
pub fn distinct_ids(seed: u64, n: usize, count: usize) -> Vec<u64> {
    let mut ids: Vec<u64> = (0..n as u64).collect();
    let mut rng = SplitMix(seed ^ 0x0DE1_E7E5);
    for i in 0..count.min(n) {
        let j = i + (rng.next_u64() % (n - i) as u64) as usize;
        ids.swap(i, j);
    }
    ids.truncate(count.min(n));
    ids
}

fn csv<T: Display>(xs: impl IntoIterator<Item = T>, sep: &str) -> String {
    xs.into_iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(sep)
}

/// A probe as a request line (Rust's float formatting round-trips).
pub fn probe_line<const D: usize>(p: &Point<D>) -> String {
    csv(p.0, ",")
}

/// The daemon's reply row for probe number `seq`.
fn hit_row<T: Display>(seq: u64, hits: &[T]) -> String {
    format!("{seq},{},{}", hits.len(), csv(hits, " "))
}

/// Request lines, the hash of each expected reply, and which are writes.
#[derive(Default)]
pub struct Script {
    lines: Vec<String>,
    expected: Vec<u64>,
    write: Vec<bool>,
}

impl Script {
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    fn push(&mut self, line: String, reply: &str, write: bool) {
        self.lines.push(line);
        self.expected.push(fnv1a(reply.bytes()));
        self.write.push(write);
    }
}

/// Read-only script; expected rows come from `try_serve` on `tree`.
pub fn read_script<const D: usize>(tree: &QueryTree<D>, probes: &[Point<D>]) -> Script {
    let served = tree
        .try_serve(probes, CoverPredicate::Closed, &ServeConfig::default())
        .expect("finite probes serve");
    let mut s = Script::default();
    for (i, (p, hits)) in probes.iter().zip(served.result.iter()).enumerate() {
        s.push(probe_line(p), &hit_row(i as u64, hits), false);
    }
    s
}

/// Churn script over a sharded snapshot of `n` base balls: 90% probes,
/// 5% inserts of fresh balls, 5% deletes of distinct base ids, spread
/// evenly. Expected replies come from replaying it on the loaded index.
fn churn_script(snapshot: &[u8], n: usize, seed: u64, count: usize) -> Script {
    let mut index = load_sharded_index::<2>(snapshot).expect("a fresh snapshot loads");
    let writes = count / 20 + 1;
    let fresh = fresh_balls::<2>(seed, writes);
    let victims = distinct_ids(seed, n, writes);
    let probes = probes::<2>(seed, count);
    let cfg = ServeConfig::default();
    let mut s = Script::default();
    let (mut seq, mut generation) = (0u64, 1u64);
    let mut i = 0;
    while i < count {
        match i % 20 {
            0 => {
                let id = victims[i / 20];
                let reply = if index.delete_batch(&[id])[0] {
                    format!(
                        "ok deleted id={id} n={} generation={generation}",
                        index.len()
                    )
                } else {
                    format!("error: id {id} not found")
                };
                s.push(format!("delete {id}"), &reply, true);
                i += 1;
            }
            10 => {
                let ball = fresh[i / 20];
                let before = index.stats().rebuilds;
                let id = index
                    .try_insert_batch::<3>(&[ball])
                    .expect("finite ball inserts")[0];
                generation += u64::from(index.stats().rebuilds != before);
                let reply = format!(
                    "ok inserted id={id} n={} generation={generation}",
                    index.len()
                );
                let line = format!("insert {},{}", probe_line(&ball.center), ball.radius);
                s.push(line, &reply, true);
                i += 1;
            }
            _ => {
                // Probes up to the next write are answered as one batch;
                // answers do not depend on how probes are batched.
                let end = (i + 10 - i % 10).min(count);
                let served = index
                    .try_covering_batch(&probes[i..end], CoverPredicate::Closed, &cfg)
                    .expect("finite probes serve");
                for (p, hits) in probes[i..end].iter().zip(served.iter()) {
                    s.push(probe_line(p), &hit_row(seq, hits), false);
                    seq += 1;
                }
                i = end;
            }
        }
    }
    s
}

/// Counters from the daemon's final `stats` line, plus its start-up time.
#[derive(Clone, Copy, Debug, Default)]
pub struct DaemonCounters {
    pub ready_s: f64,
    pub probes: u64,
    pub batches: u64,
    pub swaps: u64,
}

/// A running daemon; dropping it kills and reaps the process.
struct Daemon {
    child: Child,
    input: BufWriter<ChildStdin>,
    output: BufReader<ChildStdout>,
    line: String,
}

impl Daemon {
    fn spawn(sepdc: &Path, index: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(sepdc)
            .arg("serve")
            .arg("--index")
            .arg(index)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", sepdc.display()))?;
        let input = BufWriter::new(child.stdin.take().expect("stdin is piped"));
        let output = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Daemon {
            child,
            input,
            output,
            line: String::new(),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.input
            .write_all(line.as_bytes())
            .and_then(|()| self.input.write_all(b"\n"))
            .map_err(|e| format!("daemon input closed: {e}"))
    }

    fn flush(&mut self) -> Result<(), String> {
        self.input
            .flush()
            .map_err(|e| format!("daemon input closed: {e}"))
    }

    /// Next reply line, without its newline.
    fn recv(&mut self) -> Result<&str, String> {
        self.line.clear();
        match self.output.read_line(&mut self.line) {
            Ok(0) => Err("daemon closed its output".to_string()),
            Ok(_) => Ok(self.line.trim_end_matches('\n')),
            Err(e) => Err(format!("daemon output: {e}")),
        }
    }

    fn buffered_line(&self) -> bool {
        self.output.buffer().contains(&b'\n')
    }

    fn ask(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.flush()?;
        self.recv().map(str::to_string)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One measured session.
pub struct Session {
    pub latency_s: Vec<f64>,
    /// Seconds from the first request to the last reply.
    pub elapsed_s: f64,
    pub failed: u64,
    pub rss_mib: f64,
    pub counters: DaemonCounters,
    /// The message probe right before the daemon started and right after
    /// it quit, on the session's CPU.
    pub probe_s: (f64, f64),
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
fn vm_hwm_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line["VmHWM:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

fn stat(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
        .unwrap_or(0)
}

/// Start a daemon on `index`, play `script` through it, read its
/// counters and peak RSS, and shut it down; all on one CPU, between two
/// probes.
pub fn run_session(
    ctx: &Ctx,
    index: &Path,
    script: &Script,
    mut trace: Option<(&mut Tracer, usize)>,
) -> Result<Session, String> {
    let pinned = Pinned::first_cpu();
    let probe_before = probe::switch_s();
    let spawned = Instant::now();
    let mut d = Daemon::spawn(&ctx.sepdc, index)?;
    let ready = d.ask("stats")?;
    if !ready.starts_with("ok generation=1 ") {
        return Err(format!("unexpected first reply: {ready}"));
    }
    let ready_s = spawned.elapsed().as_secs_f64();

    let n = script.len();
    let mut sent = vec![spawned; n];
    let mut latency_s = vec![0.0; n];
    let mut failed = 0;
    let (mut next, mut done) = (0, 0);
    let start = Instant::now();
    while done < n {
        let first = next;
        while next < n && next - done < WINDOW {
            d.send(&script.lines[next])?;
            next += 1;
        }
        if next > first {
            d.flush()?;
            sent[first..next].fill(Instant::now());
        }
        // One blocking read, then whatever replies are already buffered.
        loop {
            let ok = fnv1a(d.recv()?.bytes()) == script.expected[done];
            latency_s[done] = sent[done].elapsed().as_secs_f64();
            failed += u64::from(!ok);
            done += 1;
            if done == n || !d.buffered_line() {
                break;
            }
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();

    let stats_line = d.ask("stats")?;
    let rss_mib = vm_hwm_mib(d.child.id()).unwrap_or(f64::NAN);
    let bye = d.ask("quit")?;
    if bye != "ok bye" {
        return Err(format!("unexpected reply to quit: {bye}"));
    }
    drop(d);
    let probe_after = probe::switch_s();
    drop(pinned);
    if let Some((t, parent)) = trace.as_mut() {
        let session = t.record(
            "session",
            "daemon",
            Some(*parent),
            None,
            spawned,
            Instant::now(),
        );
        t.record("ready", "daemon", Some(session), None, spawned, start);
        for (i, (&at, &lat)) in sent.iter().zip(&latency_s).enumerate().take(REQUEST_SPANS) {
            let end = at + std::time::Duration::from_secs_f64(lat);
            t.record("request", "daemon", Some(session), Some(i as u64), at, end);
        }
    }
    Ok(Session {
        latency_s,
        elapsed_s,
        failed,
        rss_mib,
        counters: DaemonCounters {
            ready_s,
            probes: stat(&stats_line, "probes"),
            batches: stat(&stats_line, "batches"),
            swaps: stat(&stats_line, "swaps"),
        },
        probe_s: (probe_before, probe_after),
    })
}

/// Per-session numbers, reported as medians over sessions. `*_scaled`
/// values are taken to the reference host speed by the session's probes.
struct Summary {
    p50_s: f64,
    p50_scaled_s: f64,
    rate_scaled: f64,
    probe_p50_s: f64,
    probe_p99_s: f64,
    write_p50_s: f64,
    write_p99_s: f64,
    rss_mib: f64,
    probe_s: f64,
}

pub struct Serve {
    name: &'static str,
    churn: bool,
    /// The point file `index build` reads.
    csv: String,
    snapshot: std::path::PathBuf,
    snapshot_hash: u64,
    points: Vec<Point<2>>,
    script: Script,
    /// Set-up times: `index build` plus the snapshot write, and the
    /// daemon's start until its first reply; wall and scaled.
    build_s: Vec<f64>,
    build_scaled_s: Vec<f64>,
    ready_s: Vec<f64>,
    ready_scaled_s: Vec<f64>,
    sessions: Vec<Summary>,
    counters: DaemonCounters,
    tally: Tally,
}

impl Serve {
    pub fn new(ctx: &Ctx, churn: bool) -> Result<Serve, String> {
        let points = Gen::UniformCube.generate::<2>(N, ctx.seed);
        let name = if churn { "serve-churn" } else { "serve-read" };
        let mut w = Serve {
            name,
            churn,
            csv: sepdc_cli::io::format_points(&points),
            snapshot: ctx.tmp.join(format!("{name}.snap")),
            snapshot_hash: 0,
            points,
            script: Script::default(),
            build_s: Vec::new(),
            build_scaled_s: Vec::new(),
            ready_s: Vec::new(),
            ready_scaled_s: Vec::new(),
            sessions: Vec::new(),
            counters: DaemonCounters::default(),
            tally: Tally::default(),
        };
        let bytes = w.build()?;
        w.snapshot_hash = fnv1a(bytes.iter().copied());
        w.script = if churn {
            churn_script(&bytes, N, ctx.seed, CHURN_REQUESTS)
        } else {
            let tree = load_query_tree::<2>(&bytes).map_err(|e| e.to_string())?;
            read_script(&tree, &probes::<2>(ctx.seed, READ_REQUESTS))
        };
        Ok(w)
    }

    /// Set-up as a user pays it: `index build` of the point file and the
    /// snapshot write (the daemon's start-up is timed per session). The
    /// build computes on every CPU, so the compute probe scales it.
    fn build(&mut self) -> Result<Vec<u8>, String> {
        let threads = rayon::current_num_threads();
        let before = probe::compute_s(threads);
        let t = Instant::now();
        let built = index_build(
            &self.csv,
            Some(2),
            K,
            INDEX_SEED,
            self.churn.then_some(STAGING),
            SplitterKind::Random,
            Precision::default(),
            0.0,
        )?;
        std::fs::write(&self.snapshot, &built.snapshot)
            .map_err(|e| format!("cannot write {}: {e}", self.snapshot.display()))?;
        let secs = t.elapsed().as_secs_f64();
        let scale = probe::scale(
            probe::COMPUTE_REFERENCE_S,
            before,
            probe::compute_s(threads),
        );
        self.build_s.push(secs);
        self.build_scaled_s.push(secs * scale);
        Ok(built.snapshot)
    }

    /// Median over sessions of one per-session number.
    fn med(&self, f: fn(&Summary) -> f64) -> f64 {
        stats::median(&self.sessions.iter().map(f).collect::<Vec<_>>())
    }
}

impl Workload for Serve {
    fn name(&self) -> &'static str {
        self.name
    }

    fn min_reps(&self) -> usize {
        5
    }

    fn rep(&mut self, ctx: &Ctx, trace: Option<(&mut Tracer, usize)>) -> f64 {
        let started = Instant::now();
        if self.ready_s.len() % BUILD_EVERY == BUILD_EVERY - 1 {
            // A rebuild must reproduce the snapshot byte for byte.
            let same = self
                .build()
                .is_ok_and(|bytes| fnv1a(bytes.iter().copied()) == self.snapshot_hash);
            self.tally.add(same);
        }
        let n = self.script.len() as u64;
        self.tally.attempted += n;
        match run_session(ctx, &self.snapshot, &self.script, trace) {
            Ok(s) => {
                self.tally.failed += s.failed;
                let (before, after) = s.probe_s;
                let scale = probe::scale(probe::SWITCH_REFERENCE_S, before, after);
                let p50_s = stats::percentile(&s.latency_s, 0.5);
                let pick = |write: bool| -> Vec<f64> {
                    s.latency_s
                        .iter()
                        .zip(&self.script.write)
                        .filter(|(_, &w)| w == write)
                        .map(|(&l, _)| l)
                        .collect()
                };
                let (probes, writes) = (pick(false), pick(true));
                self.sessions.push(Summary {
                    p50_s,
                    p50_scaled_s: p50_s * scale,
                    rate_scaled: s.latency_s.len() as f64 / (s.elapsed_s * scale),
                    probe_p50_s: stats::percentile(&probes, 0.5),
                    probe_p99_s: stats::percentile(&probes, 0.99),
                    write_p50_s: stats::percentile(&writes, 0.5),
                    write_p99_s: stats::percentile(&writes, 0.99),
                    rss_mib: s.rss_mib,
                    probe_s: before.min(after),
                });
                self.ready_s.push(s.counters.ready_s);
                self.ready_scaled_s.push(s.counters.ready_s * scale);
                self.counters = s.counters;
            }
            Err(e) => {
                eprintln!("{}: session failed: {e}", self.name);
                self.tally.failed += n;
            }
        }
        started.elapsed().as_secs_f64()
    }

    /// Times are scaled to the reference host speed (`probe.rs`).
    /// Latency is the median over sessions of each session's median
    /// reply time; set-up is the fastest build plus the fastest daemon
    /// start of the run.
    fn end_to_end(&self) -> Vec<Metric> {
        vec![
            metric(
                "setup_s",
                stats::best_low(&self.build_scaled_s) + stats::best_low(&self.ready_scaled_s),
                "s",
            ),
            metric("latency_ms", self.med(|s| s.p50_scaled_s) * 1e3, "ms"),
            metric("peak_mem_mib", self.med(|s| s.rss_mib), "MiB"),
        ]
    }

    /// Throughput is not gated: with `WINDOW` requests always in flight it
    /// is `WINDOW` over the mean reply time (Little's law), so it moves
    /// with `latency_ms`.
    fn extras(&self) -> Vec<Metric> {
        let med = |f: fn(&Summary) -> f64| self.med(f);
        let mut ms = vec![
            metric("throughput_per_s", med(|s| s.rate_scaled), "1/s"),
            metric("latency_wall_ms", med(|s| s.p50_s) * 1e3, "ms"),
            metric(
                "setup_wall_s",
                stats::best_low(&self.build_s) + stats::best_low(&self.ready_s),
                "s",
            ),
            metric("host_probe_ms", med(|s| s.probe_s) * 1e3, "ms"),
            metric("sessions", self.sessions.len() as f64, "count"),
            metric("requests_per_session", self.script.len() as f64, "count"),
            metric("probe_p50_us", med(|s| s.probe_p50_s) * 1e6, "us"),
            metric("probe_p99_us", med(|s| s.probe_p99_s) * 1e6, "us"),
        ];
        if self.churn {
            ms.push(metric("write_p50_us", med(|s| s.write_p50_s) * 1e6, "us"));
            ms.push(metric("write_p99_us", med(|s| s.write_p99_s) * 1e6, "us"));
        }
        ms
    }

    fn layers(&mut self, ctx: &Ctx, t: &mut Tracer, parent: usize) -> Vec<Metric> {
        let cfg = KnnDcConfig::new(K).with_seed(KNN_SEED);
        let oracle = knn_hash(&kdtree_all_knn(&self.points, K));
        let mut reports = Vec::new();
        let mut last = None;
        for i in 0..3 {
            let start = Instant::now();
            let out = parallel_knn::<2, 3>(&self.points, &cfg);
            t.record(
                "parallel_knn",
                "knn",
                Some(parent),
                Some(i),
                start,
                Instant::now(),
            );
            self.tally
                .add(knn_hash(&out.knn) == oracle && out.meter.unsafe_margin_hits == 0);
            reports.push(out.report.clone());
            last = Some(out);
        }
        let out = last.expect("three traced calls ran");
        let mut ms = layers::knn_layers::<2, 3>(&self.points, &cfg, &reports, &out, t, parent);
        let own = DaemonCounters {
            ready_s: stats::median(&self.ready_s),
            ..self.counters
        };
        ms.extend(layers::stack_layers::<2, 3>(
            ctx,
            &self.points,
            Some(&own),
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
    use sepdc_core::{QueryTreeConfig, ShardedConfig, ShardedIndex};

    fn small_sharded(n: usize) -> Vec<u8> {
        let pts = Gen::UniformCube.generate::<2>(n, 1);
        let text = sepdc_cli::io::format_points(&pts);
        index_build(
            &text,
            Some(2),
            K,
            INDEX_SEED,
            Some(16),
            SplitterKind::Random,
            Precision::default(),
            0.0,
        )
        .expect("small index builds")
        .snapshot
    }

    #[test]
    fn churn_script_is_a_function_of_the_seed() {
        let snap = small_sharded(500);
        let a = churn_script(&snap, 500, 9, 400);
        let b = churn_script(&snap, 500, 9, 400);
        let c = churn_script(&snap, 500, 10, 400);
        assert_eq!(a.lines, b.lines);
        assert_eq!(a.expected, b.expected);
        assert_ne!(a.lines, c.lines);
        // 5% inserts and 5% deletes, spread evenly.
        let writes = a.write.iter().filter(|&&w| w).count();
        assert_eq!(writes, 40);
        assert!(a.lines[0].starts_with("delete ") && a.lines[10].starts_with("insert "));
        // Deleted ids are distinct, so every delete is acknowledged.
        let ids = distinct_ids(9, 500, 21);
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
    }

    #[test]
    fn churn_script_expects_what_a_private_replay_answers() {
        let snap = small_sharded(300);
        let s = churn_script(&snap, 300, 4, 60);
        // Replay the first delete and the probes before the first insert
        // on an index built the same way, outside the script code.
        let pts = Gen::UniformCube.generate::<2>(300, 1);
        let balls = sepdc_core::NeighborhoodSystem::from_knn(&pts, &kdtree_all_knn(&pts, K))
            .balls()
            .to_vec();
        let cfg = ShardedConfig {
            staging_cap: 16,
            tree: QueryTreeConfig::default(),
        };
        let mut index = ShardedIndex::<2>::from_balls::<3>(&balls, cfg, INDEX_SEED).unwrap();
        let id: u64 = s.lines[0]["delete ".len()..].parse().unwrap();
        assert!(index.delete_batch(&[id])[0]);
        let reply = format!("ok deleted id={id} n=299 generation=1");
        assert_eq!(s.expected[0], fnv1a(reply.bytes()));
        let probes = probes::<2>(4, 60);
        let hits = index.try_covering(&probes[1]).unwrap();
        assert_eq!(s.expected[1], fnv1a(hit_row(0, &hits).bytes()));
    }
}
