//! The CLI's row parser against the line-by-line parser it replaced, and
//! the daemon's read loop against the ways a client's bytes arrive.
//!
//! `oracle_parse_points` is the former `sepdc_cli::io::parse_points`,
//! kept verbatim: one `Vec<&str>` of fields per line, split at `,` and
//! at `char::is_whitespace`. The row parser must return the same points,
//! bit for bit, or the same error string, on any text and at any pool
//! size, including texts that are cut into several parallel chunks.
//!
//! The daemon must answer the same bytes however its input is cut into
//! reads, and must answer what has arrived before it waits for more.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sepdc::geom::Point;
use sepdc_cli::daemon::{run_daemon, DaemonConfig};
use sepdc_cli::io::{parse_ball, parse_points, PARSE_CHUNK_BYTES};
use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::time::Duration;

fn oracle_parse_points<const D: usize>(text: &str) -> Result<Vec<Point<D>>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line
            .split(|c: char| c == ',' || c.is_whitespace())
            .filter(|f| !f.is_empty())
            .collect();
        if fields.len() != D {
            return Err(format!(
                "line {}: expected {D} coordinates, found {}",
                lineno + 1,
                fields.len()
            ));
        }
        let mut coords = [0.0f64; D];
        for (i, f) in fields.iter().enumerate() {
            coords[i] = f
                .parse()
                .map_err(|_| format!("line {}: cannot parse '{f}'", lineno + 1))?;
        }
        let p = Point(coords);
        if !p.is_finite() {
            return Err(format!("line {}: non-finite coordinate", lineno + 1));
        }
        out.push(p);
    }
    Ok(out)
}

/// Separators between fields, ASCII and not.
const SEPARATORS: &[&str] = &[
    ",", " ", "\t", "\r", "\u{b}", "\u{c}", ", ", " ,\t", "\u{a0}", "\u{2003}", "\u{85}",
];

/// Tokens that break a line when they land in it.
const JUNK: &[&str] = &[
    "x", "inf", "NaN", "#", "-", "+", "e", ".", "1e", "--1", ",", "\n", "1.2.3", "\u{a0}",
    "\u{85}", "\u{2003}", "\u{b}", "\u{c}", "\r",
];

fn pick<'a>(rng: &mut ChaCha8Rng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

/// A number as a point file might spell it: signs, decimals, exponents,
/// subnormals; with chance `bad`, a non-finite one.
fn number(rng: &mut ChaCha8Rng, bad: f64, out: &mut String) {
    out.push_str(pick(rng, &["", "", "-", "+"]));
    if rng.gen_bool(bad) {
        out.push_str(pick(rng, &["inf", "NaN", "infinity", "1e999"]));
        return;
    }
    let body = match rng.gen_range(0..10) {
        0 => format!("{}", rng.gen_range(0..1000)),
        1 => format!(".{}", rng.gen_range(0..100)),
        2 => format!("{}.", rng.gen_range(0..100)),
        3 => format!(
            "{}e{}{}",
            rng.gen_range(0..100),
            pick(rng, &["", "-", "+"]),
            rng.gen_range(0..30)
        ),
        4 => format!("{}E-{}", rng.gen::<f64>(), rng.gen_range(300..400)),
        5 => pick(rng, &["0", "0.0", "00.5", "1e-330", "9e307"]).to_string(),
        _ => format!("{}", rng.gen::<f64>() * 10f64.powi(rng.gen_range(-5..5))),
    };
    out.push_str(&body);
}

/// A point file of `lines` lines for dimension `dim`: mostly data lines
/// with mixed separators, line ends and padding, some blank and comment
/// lines, and on each line a `bad` chance of a wrong arity or a junk
/// token. Line `plant` (0-based), when there is one, ends in junk.
fn point_text(seed: u64, lines: usize, dim: usize, bad: f64, plant: usize) -> String {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut text = String::new();
    for line in 0..lines {
        if line == plant {
            text.push_str(pick(&mut rng, &["1", "x", "inf", "1,2,3,4"]));
        }
        match rng.gen_range(0..20) {
            0 => text.push_str(pick(&mut rng, &["", " ", "\t\u{a0}", "\u{b}\u{c}"])),
            1 => text.push_str(pick(&mut rng, &["# x,y", " #c", "#"])),
            _ => {
                if rng.gen_bool(0.2) {
                    text.push_str(pick(&mut rng, SEPARATORS));
                }
                let fields = if rng.gen_bool(bad) {
                    [dim - 1, dim + 1][rng.gen_range(0..2usize)]
                } else {
                    dim
                };
                for f in 0..fields {
                    if f > 0 {
                        text.push_str(pick(&mut rng, SEPARATORS));
                    }
                    number(&mut rng, bad, &mut text);
                }
                if rng.gen_bool(bad) {
                    text.push_str(pick(&mut rng, JUNK));
                }
                if rng.gen_bool(0.2) {
                    text.push_str(pick(&mut rng, SEPARATORS));
                }
            }
        }
        text.push_str(pick(&mut rng, &["\n", "\n", "\r\n"]));
    }
    if rng.gen_bool(0.5) {
        text.pop();
    }
    text
}

fn bits<const D: usize>(parsed: Result<Vec<Point<D>>, String>) -> Result<Vec<[u64; D]>, String> {
    parsed.map(|pts| pts.iter().map(|p| p.0.map(f64::to_bits)).collect())
}

fn in_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

fn check<const D: usize>(text: &str) -> Result<(), TestCaseError> {
    let want = bits(oracle_parse_points::<D>(text));
    for threads in [1, 2, 7] {
        let got = bits(in_pool(threads, || parse_points::<D>(text)));
        prop_assert_eq!(&got, &want, "{} threads, {} bytes", threads, text.len());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn row_parser_matches_the_line_by_line_oracle(
        seed in any::<u64>(),
        lines in 0usize..10000,
        bad in 0usize..5,
        plant in 0.0f64..1.25,
    ) {
        // Error rates from none to one line in ten: clean texts parse to
        // the end across chunk boundaries, dirty ones fail early. A bad
        // line planted at a uniform share of the text lands in any chunk
        // (in a fifth of the texts it falls past the end).
        let bad = [0.0, 0.0, 1e-5, 1e-3, 0.1][bad];
        let plant = (plant * lines as f64) as usize;
        check::<2>(&point_text(seed, lines, 2, bad, plant))?;
        check::<3>(&point_text(seed ^ 1, lines / 2, 3, bad, plant / 2))?;
    }

    #[test]
    fn row_parser_matches_the_oracle_on_short_token_soup(tokens in proptest::collection::vec(0usize..64, 0..40)) {
        let mut text = String::new();
        for t in tokens {
            text.push_str(match t {
                0..=18 => JUNK[t],
                19..=29 => SEPARATORS[t - 19],
                30..=39 => ["0", "1", "7", "42", "-3", "+2", "1.5", "2.5e-3", ".5", "9e9"][t - 30],
                _ => ["\n", "\r\n", "1,2\n", "3 4\n"][t % 4],
            });
        }
        check::<1>(&text)?;
        check::<2>(&text)?;
    }
}

#[test]
fn an_error_in_the_last_chunk_keeps_its_line_number() {
    let good = "0.5,-1.25e-3\n";
    let lines = 3 * PARSE_CHUNK_BYTES / good.len() + 17;
    let mut text = good.repeat(lines);
    text.push_str("\n# tail comment\n0.5,x\n1,2\n");
    let bad_line = lines + 3;
    for threads in [1, 2, 7] {
        let err = in_pool(threads, || parse_points::<2>(&text)).unwrap_err();
        assert_eq!(
            err,
            format!("line {bad_line}: cannot parse 'x'"),
            "{threads} threads"
        );
        let clean = &text[..text.len() - "0.5,x\n1,2\n".len()];
        let pts = in_pool(threads, || parse_points::<2>(clean)).unwrap();
        assert_eq!(pts.len(), lines, "{threads} threads");
    }
    assert_eq!(
        oracle_parse_points::<2>(&text).unwrap_err(),
        format!("line {bad_line}: cannot parse 'x'")
    );
}

#[test]
fn ball_rows_keep_their_messages() {
    let cases = [
        ("1,2", "expected 3 fields (2 coordinates + radius), found 2"),
        (
            "1 2 3 4",
            "expected 3 fields (2 coordinates + radius), found 4",
        ),
        (
            "x,2,y,4",
            "expected 3 fields (2 coordinates + radius), found 4",
        ),
        ("1,y,x", "cannot parse 'y'"),
        ("1,2,x", "cannot parse 'x'"),
        ("NaN,2,0.1", "non-finite coordinate"),
        ("1,inf,0.1", "non-finite coordinate"),
        ("1,2,-0.5", "invalid radius -0.5"),
        ("1,2,inf", "invalid radius inf"),
        ("1,2,NaN", "invalid radius NaN"),
    ];
    for (row, want) in cases {
        assert_eq!(parse_ball::<2>(row).unwrap_err(), want, "{row:?}");
    }
    let ball = parse_ball::<2>("\u{a0}0.5,\u{b}0.25\u{85}0.125\r").unwrap();
    assert_eq!((ball.center, ball.radius), (Point([0.5, 0.25]), 0.125));
}

/// A snapshot of 300 uniform balls in a temporary directory (sharded with
/// staging capacity 16 when `sharded`), and 40 probe lines.
fn daemon_fixture(name: &str, sharded: bool) -> (std::path::PathBuf, String, Vec<String>) {
    let dir = std::env::temp_dir().join(format!("sepdc-text-io-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let points = sepdc_cli::commands::generate("uniform-cube", 300, 2, 3).unwrap();
    let built = sepdc_cli::commands::index_build(
        &points,
        Some(2),
        2,
        5,
        sharded.then_some(16),
        Default::default(),
        Default::default(),
        0.0,
    )
    .unwrap();
    let snap = dir.join("index.snap");
    std::fs::write(&snap, &built.snapshot).unwrap();
    let probes = sepdc_cli::commands::generate("clusters", 40, 2, 9).unwrap();
    let probes = probes.lines().map(String::from).collect();
    (dir, snap.to_str().unwrap().to_string(), probes)
}

#[test]
fn malformed_probes_answer_the_same_error_rows() {
    let (dir, snap, _) = daemon_fixture("malformed", false);

    let input = "1,2,3\r\n\
                 0.5,x\n\
                 inf,0.5\n\
                 0.5\u{a0}0.5\n\
                 0.5\u{b}0.5\r\n\
                 \t0.5 , 0.5\t\n\
                 \u{85}\n\
                 # comment\n\
                 insert 1,2\n\
                 y\u{2003}x\n\
                 quit\n";
    let mut out = Vec::new();
    run_daemon(
        Cursor::new(input.as_bytes().to_vec()),
        &mut out,
        &snap,
        &DaemonConfig::default(),
    )
    .unwrap();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 9, "{text}");
    assert_eq!(lines[0], "error: line 1: expected 2 coordinates, found 3");
    assert_eq!(lines[1], "error: line 1: cannot parse 'x'");
    assert_eq!(lines[2], "error: line 1: non-finite coordinate");
    // The three spellings of one probe answer one row, numbered on.
    let row = lines[3].split_once(',').unwrap().1;
    assert!(lines[3].starts_with("0,"), "{}", lines[3]);
    assert_eq!(lines[4], format!("1,{row}"));
    assert_eq!(lines[5], format!("2,{row}"));
    assert_eq!(
        lines[6],
        "error: insert: expected 3 fields (2 coordinates + radius), found 2"
    );
    assert_eq!(lines[7], "error: line 1: cannot parse 'y'");
    assert_eq!(lines[8], "ok bye");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hands out the bytes of `data` 1–7 at a time, as a client's writes
/// might arrive through a pipe.
struct Trickle {
    data: Vec<u8>,
    at: usize,
    rng: ChaCha8Rng,
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self
            .rng
            .gen_range(1..8usize)
            .min(buf.len())
            .min(self.data.len() - self.at);
        buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

#[test]
fn fragmented_reads_give_the_same_replies() {
    let (dir, snap, probes) = daemon_fixture("fragments", true);
    // Probes in CRLF and LF, with blank and comment lines, an invalid
    // UTF-8 line, and `stats`, `insert` and `delete` between them; the
    // last line has no newline.
    let mut input: Vec<u8> = b"# x,y\r\n\r\n".to_vec();
    let mut bad_line = 0;
    for (i, probe) in probes.iter().enumerate() {
        input.extend_from_slice(probe.as_bytes());
        input.extend_from_slice(if i % 3 == 0 { b"\r\n" } else { b"\n" });
        match i {
            4 => input.extend_from_slice(b"stats\n"),
            9 => input.extend_from_slice(b"insert 0.5,0.5,0.25\r\n\n"),
            14 => {
                bad_line = input.iter().filter(|&&b| b == b'\n').count() + 1;
                input.extend_from_slice(b"0.5,\xff0.5\n  # comment\n");
            }
            19 => input.extend_from_slice(b"delete 7\nstats\r\n"),
            24 => input.extend_from_slice(b"delete 300\n\t\n"),
            _ => {}
        }
    }
    input.extend_from_slice(b"stats\n0.5,0.5");
    // One probe a batch, so the `stats` lines count the same batches
    // however the reads cut the input.
    let cfg = DaemonConfig {
        chunk: 1,
        batch_max: 1,
        ..DaemonConfig::default()
    };
    let serve = |input: &mut dyn Read| {
        let mut out = Vec::new();
        run_daemon(input, &mut out, &snap, &cfg).unwrap();
        String::from_utf8(out).unwrap()
    };
    let want = in_pool(1, || serve(&mut Cursor::new(input.clone())));
    let rows: Vec<&str> = want.lines().collect();
    assert_eq!(rows.len(), 41 + 7, "{want}");
    assert_eq!(
        rows[17],
        format!("error: line {bad_line}: invalid UTF-8 byte sequence")
    );
    assert!(
        rows[11].starts_with("ok inserted id=300 n=301"),
        "{}",
        rows[11]
    );
    assert!(
        rows[23].starts_with("ok deleted id=7 n=300"),
        "{}",
        rows[23]
    );
    assert!(
        rows[30].starts_with("ok deleted id=300 n=299"),
        "{}",
        rows[30]
    );
    assert!(rows[46].contains(" probes=40 batches=40 "), "{}", rows[46]);
    assert!(rows[47].starts_with("40,"), "the last line is answered");
    for threads in [1, 2] {
        for seed in 0..4 {
            let mut trickle = Trickle {
                data: input.clone(),
                at: 0,
                rng: ChaCha8Rng::seed_from_u64(seed),
            };
            let got = in_pool(threads, || serve(&mut trickle));
            assert_eq!(got, want, "{threads} threads, seed {seed}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_interactive_client_gets_each_reply_before_it_writes_again() {
    let (dir, snap, probes) = daemon_fixture("interactive", false);
    let mut want = Vec::new();
    let all = probes.join("\n") + "\n0.5,0.5\n";
    run_daemon(Cursor::new(all), &mut want, &snap, &DaemonConfig::default()).unwrap();
    let want: Vec<String> = String::from_utf8(want)
        .unwrap()
        .lines()
        .map(String::from)
        .collect();

    let (input, mut client) = std::io::pipe().unwrap();
    let (replies, output) = std::io::pipe().unwrap();
    let daemon = std::thread::spawn(move || {
        run_daemon(input, output, &snap, &DaemonConfig::default()).unwrap()
    });
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(replies).lines() {
            if tx.send(line.unwrap()).is_err() {
                break;
            }
        }
    });
    let reply = || {
        rx.recv_timeout(Duration::from_secs(10))
            .expect("no reply in 10 s: the daemon read on before answering")
    };
    let (last, probes) = probes.split_last().unwrap();
    for (probe, row) in probes.iter().zip(&want) {
        client.write_all(format!("{probe}\n").as_bytes()).unwrap();
        assert_eq!(&reply(), row);
    }
    // The start of the next line arrives with the last probe: the probe is
    // answered while that part waits in the buffer for the rest.
    client
        .write_all(format!("{last}\n0.5,").as_bytes())
        .unwrap();
    assert_eq!(reply(), want[39]);
    client.write_all(b"0.5\n").unwrap();
    assert_eq!(reply(), want[40]);
    client.write_all(b"stats\n").unwrap();
    assert!(reply().contains(" probes=41 batches=41 "));
    drop(client);
    let stats = daemon.join().unwrap();
    reader.join().unwrap();
    assert_eq!((stats.probes, stats.batches), (41, 41));
    let _ = std::fs::remove_dir_all(&dir);
}
