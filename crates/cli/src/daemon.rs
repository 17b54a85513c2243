//! The `sepdc serve` daemon: load a snapshot once, answer probe batches
//! forever.
//!
//! ## Protocol (newline-delimited, UTF-8, over stdin/stdout)
//!
//! One request per line; one response line per request, in request order:
//!
//! * **Probe** — a point in the input CSV format (`x,y,…` or
//!   whitespace-separated, exactly `dim` coordinates). Response:
//!   `seq,count,id id id…` — the same row shape `sepdc query --out`
//!   writes, with `seq` the global probe sequence number since startup.
//! * **`insert X,Y,…,R`** — add a ball (`dim` coordinates + radius) to a
//!   sharded index. Response: `ok inserted id=I n=N generation=G` (the
//!   generation bumps only when the insert triggered a shard rebuild — a
//!   warm swap of the carried shards) or `error: …`. Serving a plain
//!   query-tree snapshot answers `error:` — build with
//!   `sepdc index build --sharded` for mutability.
//! * **`delete ID`** — tombstone the ball with that global id. Response:
//!   `ok deleted id=I n=N generation=G`, or `error: id I not found` for
//!   unknown or already-deleted ids.
//! * **`swap PATH`** — load, validate, and atomically install a new
//!   snapshot (query-tree or sharded-index, same dimension). Response:
//!   `ok swapped generation=G n=N` or `error: …` (the old index keeps
//!   serving on failure; in-flight batches finish on the generation they
//!   started with — old generations drain as their handles drop).
//! * **`stats`** — `ok generation=G n=N dim=D probes=P batches=B swaps=S
//!   kind=K`.
//! * **`quit`** — `ok bye`, then exit. EOF on stdin also exits.
//! * Blank lines and `#` comments are ignored without a response, so a
//!   generated point file can be piped in unmodified.
//! * A malformed probe line — wrong arity, unparsable or non-finite
//!   fields, even invalid UTF-8 bytes — answers `error: …` and poisons
//!   nothing.
//!
//! ## Admission batching
//!
//! A reader thread feeds a bounded channel; the serving loop blocks for
//! the first pending request, then drains whatever else has already
//! arrived — coalescing small requests into one batch, capped at a
//! `chunk_size`-aligned maximum — and answers the whole batch through
//! the deterministic CSR serve engine. Answers are byte-identical to
//! `sepdc query` over the same probes no matter how requests were
//! coalesced or how many threads serve them; a sharded index additionally
//! answers independently of its shard layout.
//!
//! ## Fault containment
//!
//! One request must never take the daemon down. The generation cell
//! recovers from lock poisoning (the `Arc` inside is swapped atomically,
//! never left half-written), and the batch serve path runs under
//! `catch_unwind`: a panic (or typed serve error) answers every in-flight
//! probe of that batch with `error: …` — without consuming their sequence
//! numbers — and the loop keeps serving.

use crate::io::{parse_ball, parse_points};
use crate::CliResult;
use sepdc_core::serve::{CoverPredicate, ServeConfig};
use sepdc_core::snapshot::{self, SnapshotKind};
use sepdc_core::{QueryTree, ShardedIndex};
use sepdc_geom::ball::Ball;
use sepdc_geom::Point;
use std::io::{BufRead, BufWriter, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, PoisonError, RwLock};

/// Daemon tunables (`sepdc serve` flags).
#[derive(Clone, Copy, Debug)]
pub struct DaemonConfig {
    /// Serve the open-interior predicate instead of the closed one.
    pub interior: bool,
    /// Chunk size of the underlying CSR engine ([`ServeConfig::chunk_size`]).
    pub chunk: usize,
    /// Maximum probes coalesced into one served batch; rounded down to a
    /// multiple of `chunk` (and up to at least one chunk) so admission
    /// batches stay chunk-aligned.
    pub batch_max: usize,
    /// Test hook: panic while serving the batch with this zero-based
    /// number, exercising the fault-containment path (the regression test
    /// for "one panicking handler must not kill the daemon"). `None` in
    /// production.
    pub fail_batch: Option<u64>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            interior: false,
            chunk: 1024,
            batch_max: 4096,
            fail_batch: None,
        }
    }
}

impl DaemonConfig {
    /// The chunk-aligned admission cap.
    fn aligned_cap(&self) -> usize {
        let chunk = self.chunk.max(1);
        (self.batch_max / chunk).max(1) * chunk
    }
}

/// Counters the daemon reports on `stats` and returns at exit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Probes answered.
    pub probes: u64,
    /// Batches attempted (each one serve call, including contained
    /// failures).
    pub batches: u64,
    /// Generation bumps: explicit `swap`s plus rebuild-triggering inserts.
    pub swaps: u64,
}

/// What the daemon is serving: a frozen query tree, or a batch-dynamic
/// sharded index that additionally accepts `insert`/`delete` lines.
enum ServingIndex<const D: usize> {
    Single(QueryTree<D>),
    Sharded(ShardedIndex<D>),
}

impl<const D: usize> ServingIndex<D> {
    fn len(&self) -> usize {
        match self {
            ServingIndex::Single(tree) => tree.len(),
            ServingIndex::Sharded(index) => index.len(),
        }
    }

    fn kind_name(&self) -> &'static str {
        match self {
            ServingIndex::Single(_) => SnapshotKind::QueryTree.name(),
            ServingIndex::Sharded(_) => SnapshotKind::ShardedIndex.name(),
        }
    }

    /// Serve one admission batch, returning a `count,id id…` row per
    /// probe. Both arms ride the deterministic CSR engine; the sharded
    /// arm scatters across shards and gathers ascending by global id,
    /// which coincides with the single-tree row order (leaf id lists are
    /// ascending), so the two kinds answer byte-identically over the same
    /// ball set.
    fn serve_rows(
        &self,
        probes: &[Point<D>],
        pred: CoverPredicate,
        cfg: &ServeConfig,
    ) -> Result<Vec<String>, sepdc_core::SepdcError> {
        fn row<T: std::fmt::Display>(hits: &[T]) -> String {
            let ids: Vec<String> = hits.iter().map(T::to_string).collect();
            format!("{},{}", hits.len(), ids.join(" "))
        }
        match self {
            ServingIndex::Single(tree) => {
                let served = tree.try_serve(probes, pred, cfg)?;
                Ok(served.result.iter().map(row).collect())
            }
            ServingIndex::Sharded(index) => {
                let served = index.try_covering_batch(probes, pred, cfg)?;
                Ok(served.iter().map(row).collect())
            }
        }
    }
}

/// Load snapshot bytes into whichever serving kind they hold.
fn load_serving<const D: usize>(bytes: &[u8]) -> Result<ServingIndex<D>, String> {
    let info = snapshot::inspect(bytes).map_err(|e| e.to_string())?;
    match info.kind {
        SnapshotKind::QueryTree => snapshot::load_query_tree::<D>(bytes)
            .map(ServingIndex::Single)
            .map_err(|e| e.to_string()),
        SnapshotKind::ShardedIndex => snapshot::load_sharded_index::<D>(bytes)
            .map(ServingIndex::Sharded)
            .map_err(|e| e.to_string()),
    }
}

/// One loaded snapshot generation: the index plus its provenance.
struct Generation<const D: usize> {
    index: ServingIndex<D>,
    number: u64,
}

/// `ArcSwap`-style cell: readers clone the current `Arc` and keep serving
/// on it while an install publishes a new generation; the old generation
/// is freed when its last in-flight handle drops (drains, never torn down
/// mid-batch). Lock poisoning is recovered via `PoisonError::into_inner`:
/// the guarded value is a plain `Arc` that is replaced in one assignment,
/// so a panicking holder can never leave it half-written.
struct IndexCell<const D: usize> {
    inner: RwLock<Arc<Generation<D>>>,
}

impl<const D: usize> IndexCell<D> {
    fn new(index: ServingIndex<D>) -> Self {
        IndexCell {
            inner: RwLock::new(Arc::new(Generation { index, number: 1 })),
        }
    }

    fn current(&self) -> Arc<Generation<D>> {
        Arc::clone(&self.inner.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publish `index` as the served structure. The generation number
    /// bumps only when `bump` — an explicit `swap` or a rebuild-carrying
    /// insert; plain staging inserts and tombstone deletes keep the
    /// number (the structure is the same build, with edits).
    fn install(&self, index: ServingIndex<D>, bump: bool) -> u64 {
        let mut slot = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let number = slot.number + u64::from(bump);
        *slot = Arc::new(Generation { index, number });
        number
    }
}

/// Run the daemon over arbitrary line-based transports. The binary passes
/// stdin/stdout; tests pass in-memory buffers. Returns the final counters
/// when the input ends (EOF, `quit`, or the client closing the response
/// pipe).
pub fn run_daemon<R, W>(
    input: R,
    output: W,
    index_path: &str,
    cfg: &DaemonConfig,
) -> CliResult<DaemonStats>
where
    R: BufRead + Send + 'static,
    W: Write,
{
    let bytes = std::fs::read(index_path).map_err(|e| format!("cannot read {index_path}: {e}"))?;
    let info = snapshot::inspect(&bytes).map_err(|e| format!("{index_path}: {e}"))?;
    if !matches!(
        info.kind,
        SnapshotKind::QueryTree | SnapshotKind::ShardedIndex
    ) {
        return Err(format!(
            "{index_path}: holds a {}, the daemon serves query-tree or sharded-index snapshots",
            info.kind.name()
        ));
    }
    fn run<const D: usize, const E: usize>(
        bytes: &[u8],
        input: impl BufRead + Send + 'static,
        output: impl Write,
        cfg: &DaemonConfig,
    ) -> CliResult<DaemonStats> {
        let index = load_serving::<D>(bytes)?;
        serve_loop::<D, E>(index, input, output, cfg)
    }
    match info.dim {
        1 => run::<1, 2>(&bytes, input, output, cfg),
        2 => run::<2, 3>(&bytes, input, output, cfg),
        3 => run::<3, 4>(&bytes, input, output, cfg),
        4 => run::<4, 5>(&bytes, input, output, cfg),
        5 => run::<5, 6>(&bytes, input, output, cfg),
        d => Err(format!(
            "unsupported snapshot dimension {d} (supported: 1..=5)"
        )),
    }
}

/// What one request line asks for.
enum Request<const D: usize> {
    Probe(Point<D>),
    Insert(Ball<D>),
    Delete(u64),
    Malformed(String),
    Swap(String),
    Stats,
    Quit,
}

fn classify<const D: usize>(line: &str) -> Option<Request<D>> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    if let Some(path) = line.strip_prefix("swap ") {
        return Some(Request::Swap(path.trim().to_string()));
    }
    if let Some(row) = line.strip_prefix("insert ") {
        return Some(match parse_ball::<D>(row) {
            Ok(ball) => Request::Insert(ball),
            Err(e) => Request::Malformed(format!("insert: {e}")),
        });
    }
    if let Some(id) = line.strip_prefix("delete ") {
        return Some(match id.trim().parse::<u64>() {
            Ok(id) => Request::Delete(id),
            Err(_) => Request::Malformed(format!("delete: cannot parse id '{}'", id.trim())),
        });
    }
    match line {
        "stats" => Some(Request::Stats),
        "quit" => Some(Request::Quit),
        _ => Some(match parse_points::<D>(line) {
            Ok(pts) if pts.len() == 1 => Request::Probe(pts[0]),
            Ok(_) => Request::Malformed("expected exactly one probe per line".to_string()),
            Err(e) => Request::Malformed(e),
        }),
    }
}

fn serve_loop<const D: usize, const E: usize>(
    index: ServingIndex<D>,
    input: impl BufRead + Send + 'static,
    output: impl Write,
    cfg: &DaemonConfig,
) -> CliResult<DaemonStats> {
    let pred = if cfg.interior {
        CoverPredicate::Open
    } else {
        CoverPredicate::Closed
    };
    let serve_cfg = ServeConfig {
        chunk_size: cfg.chunk,
        ..ServeConfig::default()
    };
    serve_cfg.validate().map_err(|e| e.to_string())?;
    let cap = cfg.aligned_cap();
    let cell = IndexCell::new(index);
    {
        let gen = cell.current();
        eprintln!(
            "sepdc serve: {} balls (dim {D}, {}), generation {}, \
             {} predicate, chunk {}, admission cap {cap}",
            gen.index.len(),
            gen.index.kind_name(),
            gen.number,
            pred.name(),
            serve_cfg.chunk_size,
        );
    }

    // Reader thread: pull raw byte lines off the transport into a bounded
    // queue. Decoding happens here so a non-UTF8 line becomes an
    // addressable error response instead of silently ending the stream.
    let (tx, rx) = mpsc::sync_channel::<Result<String, String>>(2 * cap);
    std::thread::spawn(move || {
        let mut input = input;
        let mut lineno: u64 = 0;
        loop {
            let mut buf = Vec::new();
            match input.read_until(b'\n', &mut buf) {
                Ok(0) => break,
                Ok(_) => {
                    lineno += 1;
                    if buf.last() == Some(&b'\n') {
                        buf.pop();
                    }
                    let msg = String::from_utf8(buf)
                        .map_err(|_| format!("line {lineno}: invalid UTF-8 byte sequence"));
                    if tx.send(msg).is_err() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    });

    let mut out = BufWriter::new(output);
    let mut stats = DaemonStats::default();
    let mut seq: u64 = 0;
    let mut batch: Vec<Point<D>> = Vec::new();

    // Serve the buffered probes as one batch; write one CSR row per probe.
    // A panic or typed serve error is contained: every probe of the batch
    // answers `error:` (sequence numbers unconsumed) and serving
    // continues. A write error means the client hung up — finish cleanly.
    let flush_batch = |batch: &mut Vec<Point<D>>,
                       out: &mut BufWriter<_>,
                       seq: &mut u64,
                       stats: &mut DaemonStats|
     -> bool {
        if batch.is_empty() {
            return true;
        }
        let gen = cell.current();
        let inject = cfg.fail_batch == Some(stats.batches);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic!("injected failure (DaemonConfig::fail_batch test hook)");
            }
            gen.index.serve_rows(batch, pred, &serve_cfg)
        }));
        stats.batches += 1;
        let err = match outcome {
            Ok(Ok(rows)) => {
                for row in rows {
                    if writeln!(out, "{seq},{row}").is_err() {
                        return false;
                    }
                    *seq += 1;
                }
                stats.probes += batch.len() as u64;
                batch.clear();
                return true;
            }
            Ok(Err(e)) => format!("serving batch failed: {e}"),
            Err(payload) => {
                let what = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".to_string());
                format!("serving batch panicked: {what}")
            }
        };
        for _ in 0..batch.len() {
            if writeln!(out, "error: {err}").is_err() {
                return false;
            }
        }
        batch.clear();
        true
    };

    // Block for the first pending request, then drain what's queued.
    'serve: while let Ok(first) = rx.recv() {
        let mut lines = vec![first];
        while let Ok(line) = rx.try_recv() {
            lines.push(line);
        }
        for line in &lines {
            let req = match line {
                Ok(text) => match classify::<D>(text) {
                    Some(req) => req,
                    None => continue,
                },
                Err(msg) => Request::Malformed(msg.clone()),
            };
            // Control requests and errors flush first so responses stay
            // in request order.
            let control = !matches!(req, Request::Probe(_));
            if control && !flush_batch(&mut batch, &mut out, &mut seq, &mut stats) {
                break 'serve;
            }
            let ok = match req {
                Request::Probe(p) => {
                    batch.push(p);
                    if batch.len() >= cap
                        && !flush_batch(&mut batch, &mut out, &mut seq, &mut stats)
                    {
                        break 'serve;
                    }
                    true
                }
                Request::Malformed(msg) => writeln!(out, "error: {msg}").is_ok(),
                Request::Stats => {
                    let gen = cell.current();
                    writeln!(
                        out,
                        "ok generation={} n={} dim={D} probes={} batches={} swaps={} kind={}",
                        gen.number,
                        gen.index.len(),
                        stats.probes,
                        stats.batches,
                        stats.swaps,
                        gen.index.kind_name(),
                    )
                    .is_ok()
                }
                Request::Insert(ball) => {
                    let gen = cell.current();
                    match &gen.index {
                        ServingIndex::Single(_) => writeln!(
                            out,
                            "error: insert requires a sharded index \
                             (build with `sepdc index build --sharded`)"
                        )
                        .is_ok(),
                        ServingIndex::Sharded(index) => {
                            let mut next = index.clone();
                            let before = next.stats().rebuilds;
                            match next.try_insert_batch::<E>(std::slice::from_ref(&ball)) {
                                Ok(ids) => {
                                    let rebuilt = next.stats().rebuilds != before;
                                    let n = next.len();
                                    let number = cell.install(ServingIndex::Sharded(next), rebuilt);
                                    if rebuilt {
                                        stats.swaps += 1;
                                    }
                                    writeln!(
                                        out,
                                        "ok inserted id={} n={n} generation={number}",
                                        ids[0]
                                    )
                                    .is_ok()
                                }
                                Err(e) => writeln!(out, "error: {e}").is_ok(),
                            }
                        }
                    }
                }
                Request::Delete(id) => {
                    let gen = cell.current();
                    match &gen.index {
                        ServingIndex::Single(_) => writeln!(
                            out,
                            "error: delete requires a sharded index \
                             (build with `sepdc index build --sharded`)"
                        )
                        .is_ok(),
                        ServingIndex::Sharded(index) => {
                            let mut next = index.clone();
                            if next.delete_batch(std::slice::from_ref(&id))[0] {
                                let n = next.len();
                                let number = cell.install(ServingIndex::Sharded(next), false);
                                writeln!(out, "ok deleted id={id} n={n} generation={number}")
                                    .is_ok()
                            } else {
                                writeln!(out, "error: id {id} not found").is_ok()
                            }
                        }
                    }
                }
                Request::Swap(path) => {
                    match std::fs::read(&path)
                        .map_err(|e| format!("cannot read {path}: {e}"))
                        .and_then(|bytes| {
                            load_serving::<D>(&bytes).map_err(|e| format!("{path}: {e}"))
                        }) {
                        Ok(index) => {
                            let n = index.len();
                            let number = cell.install(index, true);
                            stats.swaps += 1;
                            writeln!(out, "ok swapped generation={number} n={n}").is_ok()
                        }
                        Err(e) => writeln!(out, "error: {e}").is_ok(),
                    }
                }
                Request::Quit => {
                    let _ = writeln!(out, "ok bye");
                    let _ = out.flush();
                    return Ok(stats);
                }
            };
            if !ok {
                break 'serve;
            }
        }
        if !flush_batch(&mut batch, &mut out, &mut seq, &mut stats) {
            break;
        }
        if out.flush().is_err() {
            break;
        }
    }
    flush_batch(&mut batch, &mut out, &mut seq, &mut stats);
    let _ = out.flush();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands;
    use sepdc_core::{Precision, SplitterKind};
    use std::io::Cursor;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sepdc-daemon-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Build a small snapshot on disk plus the matching in-process hit
    /// rows for the same probes. `staging` selects the sharded layout.
    fn fixture_kind(
        dir: &std::path::Path,
        staging: Option<usize>,
    ) -> (String, String, Vec<String>) {
        let pts = commands::generate("uniform-cube", 400, 2, 3).unwrap();
        let probes = commands::generate("clusters", 120, 2, 9).unwrap();
        let built = commands::index_build(
            &pts,
            Some(2),
            2,
            5,
            staging,
            SplitterKind::Random,
            Precision,
            0.0,
        )
        .unwrap();
        let snap = dir.join("index.snap");
        std::fs::write(&snap, &built.snapshot).unwrap();
        let q = commands::query(
            &pts,
            Some(2),
            2,
            Some(&probes),
            "uniform-cube",
            0,
            false,
            5,
            1024,
            0.0,
        )
        .unwrap();
        let rows: Vec<String> = q
            .hits_csv
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(String::from)
            .collect();
        (snap.to_string_lossy().into_owned(), probes, rows)
    }

    fn fixture(dir: &std::path::Path) -> (String, String, Vec<String>) {
        fixture_kind(dir, None)
    }

    #[test]
    fn daemon_rows_match_in_process_answers() {
        let dir = tmpdir("parity");
        let (snap, probes, want) = fixture(&dir);
        // Pipe the raw probe file through, with control lines mixed in.
        let input = format!("stats\n{probes}quit\n");
        let mut out = Vec::new();
        let stats = run_daemon(
            Cursor::new(input.into_bytes()),
            &mut out,
            &snap,
            &DaemonConfig::default(),
        )
        .unwrap();
        assert_eq!(stats.probes, 120);
        let text = String::from_utf8(out).unwrap();
        let mut lines = text.lines();
        let first = lines.next().unwrap();
        assert!(first.starts_with("ok generation=1 n=400 dim=2"), "{first}");
        let rows: Vec<&str> = lines.clone().take(120).collect();
        assert_eq!(rows, want, "daemon CSR rows must match sepdc query");
        assert_eq!(lines.nth(120), Some("ok bye"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batching_is_invisible_in_the_answers() {
        let dir = tmpdir("batching");
        let (snap, probes, want) = fixture(&dir);
        // Tiny admission cap: many small batches, identical rows.
        let cfg = DaemonConfig {
            chunk: 7,
            batch_max: 7,
            ..DaemonConfig::default()
        };
        let mut out = Vec::new();
        let stats = run_daemon(Cursor::new(probes.into_bytes()), &mut out, &snap, &cfg).unwrap();
        assert_eq!(stats.probes, 120);
        assert!(stats.batches >= 120 / 7, "cap must bound batch size");
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().collect::<Vec<_>>(), want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn swap_and_errors() {
        let dir = tmpdir("swap");
        let (snap, _, _) = fixture(&dir);
        // A second, different snapshot to swap in.
        let pts2 = commands::generate("grid", 200, 2, 21).unwrap();
        let built2 = commands::index_build(
            &pts2,
            Some(2),
            2,
            5,
            None,
            SplitterKind::Random,
            Precision,
            0.0,
        )
        .unwrap();
        let snap2 = dir.join("index2.snap");
        std::fs::write(&snap2, &built2.snapshot).unwrap();
        // A corrupt file the swap must reject while the old index serves on.
        let garbage = dir.join("garbage.snap");
        std::fs::write(&garbage, b"not a snapshot").unwrap();

        let input = format!(
            "0.5,0.5\nswap {missing}\nswap {garbage}\nnot,a,probe\n0.5,0.5\nswap {snap2}\nstats\n",
            missing = dir.join("missing.snap").display(),
            garbage = garbage.display(),
            snap2 = snap2.display(),
        );
        let mut out = Vec::new();
        let stats = run_daemon(
            Cursor::new(input.into_bytes()),
            &mut out,
            &snap,
            &DaemonConfig::default(),
        )
        .unwrap();
        assert_eq!(stats.swaps, 1);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("0,"), "probe row first: {}", lines[0]);
        assert!(lines[1].starts_with("error: cannot read"), "{}", lines[1]);
        assert!(lines[2].starts_with("error:"), "{}", lines[2]);
        assert!(lines[3].starts_with("error:"), "{}", lines[3]);
        assert!(lines[4].starts_with("1,"), "probe rows keep numbering");
        assert_eq!(lines[5], "ok swapped generation=2 n=200");
        assert!(
            lines[6].starts_with("ok generation=2 n=200"),
            "{}",
            lines[6]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_dimension_swap_is_rejected() {
        let dir = tmpdir("dim");
        let (snap, _, _) = fixture(&dir);
        let pts3 = commands::generate("uniform-cube", 100, 3, 4).unwrap();
        let built3 = commands::index_build(
            &pts3,
            Some(3),
            2,
            5,
            None,
            SplitterKind::Random,
            Precision,
            0.0,
        )
        .unwrap();
        let snap3 = dir.join("index3.snap");
        std::fs::write(&snap3, &built3.snapshot).unwrap();
        let input = format!("swap {}\nstats\n", snap3.display());
        let mut out = Vec::new();
        run_daemon(
            Cursor::new(input.into_bytes()),
            &mut out,
            &snap,
            &DaemonConfig::default(),
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines[0].starts_with("error:") && lines[0].contains("dimension"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].starts_with("ok generation=1"),
            "old index serves on"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_panic_answers_errors_and_keeps_serving() {
        let dir = tmpdir("panic");
        let (snap, _, _) = fixture(&dir);
        let cfg = DaemonConfig {
            fail_batch: Some(0),
            ..DaemonConfig::default()
        };
        // The stats line forces the first probe into its own (panicking)
        // batch; the second probe then serves on a fresh batch.
        let input = "0.5,0.5\nstats\n0.25,0.75\nquit\n";
        let mut out = Vec::new();
        let stats = run_daemon(
            Cursor::new(input.as_bytes().to_vec()),
            &mut out,
            &snap,
            &cfg,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines[0].starts_with("error: serving batch panicked"),
            "in-flight line answers error: {}",
            lines[0]
        );
        assert!(
            lines[1].starts_with("ok generation=1"),
            "stats still served after the panic: {}",
            lines[1]
        );
        assert!(
            lines[2].starts_with("0,"),
            "next batch serves, sequence numbers unconsumed: {}",
            lines[2]
        );
        assert_eq!(lines[3], "ok bye");
        assert_eq!(stats.probes, 1, "only the served probe counts");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_utf8_line_answers_error_and_serves_on() {
        let dir = tmpdir("utf8");
        let (snap, _, _) = fixture(&dir);
        let mut input: Vec<u8> = Vec::new();
        input.extend_from_slice(b"\xff\xfe\n0.5,0.5\nquit\n");
        let mut out = Vec::new();
        let stats = run_daemon(
            Cursor::new(input),
            &mut out,
            &snap,
            &DaemonConfig::default(),
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines[0].starts_with("error:") && lines[0].contains("UTF-8"),
            "{}",
            lines[0]
        );
        assert!(lines[1].starts_with("0,"), "{}", lines[1]);
        assert_eq!(lines[2], "ok bye");
        assert_eq!(stats.probes, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_daemon_matches_query_rows_and_churns() {
        let dir = tmpdir("sharded");
        let (snap, probes, want) = fixture_kind(&dir, Some(64));

        // Phase 1: straight probe parity — the sharded gather must answer
        // byte-identically to `sepdc query` over the same ball set.
        let input = format!("{probes}quit\n");
        let mut out = Vec::new();
        let stats = run_daemon(
            Cursor::new(input.into_bytes()),
            &mut out,
            &snap,
            &DaemonConfig::default(),
        )
        .unwrap();
        assert_eq!(stats.probes, 120);
        let text = String::from_utf8(out).unwrap();
        let rows: Vec<&str> = text.lines().take(120).collect();
        assert_eq!(rows, want, "sharded rows must match sepdc query");

        // Phase 2: churn — insert a far-away ball, probe it, delete it,
        // probe again; the daemon must answer through every edit.
        let input = "insert 50,50,1\n50,50\ndelete 400\n50,50\nstats\nquit\n".to_string();
        let mut out = Vec::new();
        run_daemon(
            Cursor::new(input.into_bytes()),
            &mut out,
            &snap,
            &DaemonConfig::default(),
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "ok inserted id=400 n=401 generation=1");
        assert_eq!(lines[1], "0,1,400", "probe hits the inserted ball");
        assert_eq!(lines[2], "ok deleted id=400 n=400 generation=1");
        assert_eq!(lines[3], "1,0,", "deleted ball no longer answers");
        assert!(lines[4].contains("kind=sharded-index"), "{}", lines[4]);
        assert_eq!(lines[5], "ok bye");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn insert_rebuild_bumps_generation_and_keeps_ids() {
        let dir = tmpdir("rebuild");
        // Tiny staging capacity: build leaves staging nearly full, so a
        // couple of inserts force a carry (shard rebuild) mid-session.
        let pts = commands::generate("uniform-cube", 40, 2, 3).unwrap();
        let built = commands::index_build(
            &pts,
            Some(2),
            1,
            5,
            Some(4),
            SplitterKind::Random,
            Precision,
            0.0,
        )
        .unwrap();
        let snap = dir.join("tiny.snap");
        std::fs::write(&snap, &built.snapshot).unwrap();
        let input = "insert 9,9,0.5\ninsert 9.1,9.1,0.5\ninsert 9.2,9.2,0.5\n\
                     insert 9.3,9.3,0.5\n9,9\nstats\nquit\n";
        let mut out = Vec::new();
        let stats = run_daemon(
            Cursor::new(input.as_bytes().to_vec()),
            &mut out,
            snap.to_str().unwrap(),
            &DaemonConfig::default(),
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // 4 inserts at staging capacity 4: at least one triggered a carry,
        // so the generation advanced past 1 and swaps counted it.
        assert!(stats.swaps >= 1, "a carry must bump the generation");
        let last_insert = lines[3];
        assert!(
            last_insert.starts_with("ok inserted id=43 n=44"),
            "{last_insert}"
        );
        assert!(!last_insert.ends_with("generation=0"), "{last_insert}");
        // The probe sees all four inserted balls, ids assigned in order.
        assert_eq!(lines[4], "0,4,40 41 42 43", "{}", lines[4]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_insert_and_delete_answer_errors() {
        let dir = tmpdir("badmut");
        let (sharded, _, _) = fixture_kind(&dir, Some(64));
        let input = "insert 1,2\ninsert 1,2,NaN\ninsert 1,2,-1\ndelete xyz\ndelete 99999\n\
                     insert 0.5,0.5,0.1\nquit\n";
        let mut out = Vec::new();
        run_daemon(
            Cursor::new(input.as_bytes().to_vec()),
            &mut out,
            &sharded,
            &DaemonConfig::default(),
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("error: insert:"), "{}", lines[0]);
        assert!(lines[1].starts_with("error: insert:"), "{}", lines[1]);
        assert!(lines[2].starts_with("error: insert:"), "{}", lines[2]);
        assert!(lines[3].starts_with("error: delete:"), "{}", lines[3]);
        assert_eq!(lines[4], "error: id 99999 not found");
        assert!(lines[5].starts_with("ok inserted id=400"), "{}", lines[5]);

        // A plain query-tree daemon rejects mutation lines outright.
        let (single, _, _) = fixture(&tmpdir("badmut-single"));
        let input = "insert 0.5,0.5,0.1\ndelete 3\nquit\n";
        let mut out = Vec::new();
        run_daemon(
            Cursor::new(input.as_bytes().to_vec()),
            &mut out,
            &single,
            &DaemonConfig::default(),
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines[0].starts_with("error:") && lines[0].contains("sharded"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].starts_with("error:") && lines[1].contains("sharded"),
            "{}",
            lines[1]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
