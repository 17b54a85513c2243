//! Point-set and edge-list text formats.
//!
//! Points: one point per line, coordinates separated by commas or
//! whitespace; `#`-prefixed lines and blank lines ignored. Edges:
//! `a,b[,dist]` per line.
//!
//! **Rows in.** One row parser reads every numeric row the CLI accepts:
//! point-file lines, the daemon's probe lines and its `insert` balls. It
//! allocates nothing. An ASCII row is split byte by byte at `,` and at
//! the six ASCII bytes `char::is_whitespace` accepts; a row with any
//! other byte falls back to a `char` split, so Unicode spaces such as
//! U+00A0 and U+0085 still separate fields. Each field goes through
//! `str::parse::<f64>`. A point file is cut at line ends into chunks of
//! [`PARSE_CHUNK_BYTES`] that parse under `rayon::join`; a bad line is
//! reported with its number in the whole file.
//!
//! **Rows out.** One writer appends each output row to a byte buffer
//! with no allocation of its own: `sepdc serve` replies, `sepdc query
//! --out` hit rows and `sepdc knn --edges-out` edges.

use crate::CliResult;
use sepdc_geom::ball::Ball;
use sepdc_geom::Point;
use std::io::Write;

/// Decode raw file bytes as UTF-8 in place, reporting the first offending
/// line instead of the `io::Error` blob `read_to_string` produces (point
/// files are adversarial input, and the totality contract wants line
/// numbers).
pub fn decode_text(bytes: Vec<u8>) -> CliResult<String> {
    String::from_utf8(bytes).map_err(|e| {
        let valid = &e.as_bytes()[..e.utf8_error().valid_up_to()];
        let lineno = valid.iter().filter(|&&b| b == b'\n').count() + 1;
        format!("line {lineno}: invalid UTF-8 byte sequence")
    })
}

/// Bytes of point-file text one parse task takes: [`parse_points`] cuts
/// its input at the first line end at or after every this many bytes.
pub const PARSE_CHUNK_BYTES: usize = 1 << 16;

/// `,` and the six ASCII bytes `char::is_whitespace` accepts: tab, LF,
/// VT, FF, CR and space (`u8::is_ascii_whitespace` leaves out VT).
fn is_separator_byte(b: u8) -> bool {
    matches!(b, b',' | b'\t' | b'\n' | 0x0B | 0x0C | b'\r' | b' ')
}

fn is_separator(c: char) -> bool {
    c == ',' || c.is_whitespace()
}

/// The fields of a row: maximal runs of characters that are neither `,`
/// nor whitespace.
struct Fields<'a> {
    row: &'a str,
    at: usize,
    ascii: bool,
}

fn fields(row: &str) -> Fields<'_> {
    Fields {
        row,
        at: 0,
        ascii: row.is_ascii(),
    }
}

impl<'a> Iterator for Fields<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let rest = &self.row[self.at..];
        let (start, end) = if self.ascii {
            let bytes = rest.as_bytes();
            let start = bytes.iter().position(|&b| !is_separator_byte(b))?;
            let len = bytes[start..].iter().position(|&b| is_separator_byte(b));
            (start, len.map_or(rest.len(), |len| start + len))
        } else {
            let start = rest.find(|c: char| !is_separator(c))?;
            let len = rest[start..].find(is_separator);
            (start, len.map_or(rest.len(), |len| start + len))
        };
        self.at += end;
        Some(&rest[start..end])
    }
}

/// Why a row did not yield its numbers.
enum RowError<'a> {
    /// The row has this many fields, not the number asked for.
    Arity(usize),
    /// The first field `str::parse::<f64>` rejects.
    Unparsable(&'a str),
}

/// Parse a row of exactly `want` numbers, handing the `i`-th to
/// `put(i, value)`. The field count is checked before any field is
/// reported unparsable, so a row with the wrong arity always says so.
fn parse_row<'a>(
    row: &'a str,
    want: usize,
    mut put: impl FnMut(usize, f64),
) -> Result<(), RowError<'a>> {
    let mut found = 0;
    let mut unparsable = None;
    for field in fields(row) {
        if found < want && unparsable.is_none() {
            match field.parse() {
                Ok(v) => put(found, v),
                Err(_) => unparsable = Some(field),
            }
        }
        found += 1;
    }
    match unparsable {
        _ if found != want => Err(RowError::Arity(found)),
        Some(field) => Err(RowError::Unparsable(field)),
        None => Ok(()),
    }
}

/// Parse one data line (trimmed, neither blank nor a comment) of a point
/// file as a point. Errors read `what` without the `line N: ` prefix.
fn parse_point<const D: usize>(line: &str) -> Result<Point<D>, String> {
    let mut coords = [0.0f64; D];
    parse_row(line, D, |i, v| coords[i] = v).map_err(|e| match e {
        RowError::Arity(found) => format!("expected {D} coordinates, found {found}"),
        RowError::Unparsable(f) => format!("cannot parse '{f}'"),
    })?;
    let p = Point(coords);
    if !p.is_finite() {
        return Err("non-finite coordinate".to_string());
    }
    Ok(p)
}

/// Parse a daemon probe line (trimmed, neither blank nor a comment). Its
/// errors read like a one-line point file's: `line 1: …`.
pub(crate) fn parse_probe<const D: usize>(line: &str) -> CliResult<Point<D>> {
    parse_point(line).map_err(|what| format!("line 1: {what}"))
}

/// One chunk's points and line count, or its first bad line (numbered
/// from 1 within the chunk) with the error.
type Chunk<const D: usize> = Result<(Vec<Point<D>>, usize), (usize, String)>;

fn parse_chunk<const D: usize>(text: &str) -> Chunk<D> {
    let mut points = Vec::new();
    let mut lines = 0;
    for line in text.lines() {
        lines += 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        points.push(parse_point(line).map_err(|what| (lines, what))?);
    }
    Ok((points, lines))
}

fn parse_chunks<const D: usize>(chunks: &[&str]) -> Vec<Chunk<D>> {
    match chunks {
        [chunk] => vec![parse_chunk(chunk)],
        _ => {
            let (left, right) = chunks.split_at(chunks.len() / 2);
            let (mut left, right) =
                rayon::join(|| parse_chunks::<D>(left), || parse_chunks::<D>(right));
            left.extend(right);
            left
        }
    }
}

/// Parse a point file's contents into fixed-dimension points.
///
/// Every data line must have exactly `D` coordinates. Text longer than
/// [`PARSE_CHUNK_BYTES`] is cut at line ends into chunks that parse in
/// parallel; the first bad line is reported with its number in `text`,
/// the chunk's own line number plus the lines of every chunk before it.
pub fn parse_points<const D: usize>(text: &str) -> CliResult<Vec<Point<D>>> {
    let at_line = |line: usize, what: String| format!("line {line}: {what}");
    if text.len() <= PARSE_CHUNK_BYTES {
        return parse_chunk(text)
            .map(|(points, _)| points)
            .map_err(|(line, what)| at_line(line, what));
    }
    let mut chunks = Vec::new();
    let mut rest = text;
    while !rest.is_empty() {
        let cut = rest
            .as_bytes()
            .get(PARSE_CHUNK_BYTES..)
            .and_then(|tail| tail.iter().position(|&b| b == b'\n'))
            .map_or(rest.len(), |i| PARSE_CHUNK_BYTES + i + 1);
        let (chunk, tail) = rest.split_at(cut);
        chunks.push(chunk);
        rest = tail;
    }
    let mut lines_before = 0;
    let mut parts = Vec::with_capacity(chunks.len());
    for chunk in parse_chunks::<D>(&chunks) {
        let (points, lines) = chunk.map_err(|(line, what)| at_line(lines_before + line, what))?;
        lines_before += lines;
        parts.push(points);
    }
    Ok(parts.concat())
}

/// Parse one ball row — `D` coordinates then a radius, comma or
/// whitespace separated — for the daemon's `insert` control line. Total:
/// wrong arity, unparsable fields, non-finite coordinates, and
/// non-finite/negative radii all come back as typed messages.
pub fn parse_ball<const D: usize>(row: &str) -> CliResult<Ball<D>> {
    let mut center = Point([0.0f64; D]);
    let mut radius = 0.0;
    parse_row(row, D + 1, |i, v| match center.0.get_mut(i) {
        Some(c) => *c = v,
        None => radius = v,
    })
    .map_err(|e| match e {
        RowError::Arity(found) => format!(
            "expected {} fields ({D} coordinates + radius), found {found}",
            D + 1
        ),
        RowError::Unparsable(f) => format!("cannot parse '{f}'"),
    })?;
    if !center.is_finite() {
        return Err("non-finite coordinate".to_string());
    }
    if !radius.is_finite() || radius < 0.0 {
        return Err(format!("invalid radius {radius}"));
    }
    Ok(Ball { center, radius })
}

/// Number of coordinates on the first data line (for `--dim auto`).
pub fn sniff_dimension(text: &str) -> Option<usize> {
    text.lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| fields(l).count())
}

/// Serialize points as CSV.
pub fn format_points<const D: usize>(points: &[Point<D>]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for p in points {
        for (i, c) in p.coords().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "{c}").expect("writing to a String cannot fail");
        }
        out.push('\n');
    }
    out
}

/// Append `v` in decimal.
fn push_uint(buf: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[at..]);
}

/// Append one hit row and its line end: `seq,count,id id…`, the row
/// `sepdc query --out` writes and `sepdc serve` answers.
pub(crate) fn push_hit_row<T: Copy + Into<u64>>(buf: &mut Vec<u8>, seq: u64, hits: &[T]) {
    push_uint(buf, seq);
    buf.push(b',');
    push_uint(buf, hits.len() as u64);
    buf.push(b',');
    for (i, &id) in hits.iter().enumerate() {
        if i > 0 {
            buf.push(b' ');
        }
        push_uint(buf, id.into());
    }
    buf.push(b'\n');
}

/// Append one edge row and its line end: `a,b,distance`, the distance in
/// `f64`'s `Display` form.
fn push_edge_row(buf: &mut Vec<u8>, a: u32, b: u32, dist: f64) {
    push_uint(buf, a.into());
    buf.push(b',');
    push_uint(buf, b.into());
    buf.push(b',');
    write!(buf, "{dist}").expect("writing to a Vec cannot fail");
    buf.push(b'\n');
}

/// Stream an edge list (with distances) as CSV into `w`: a
/// `# source,target,distance` header, then one row per edge, each
/// formatted into one reused buffer.
pub(crate) fn write_edges(
    w: &mut dyn Write,
    edges: impl IntoIterator<Item = (u32, u32, f64)>,
) -> std::io::Result<()> {
    w.write_all(b"# source,target,distance\n")?;
    let mut row = Vec::new();
    for (a, b, dist) in edges {
        row.clear();
        push_edge_row(&mut row, a, b, dist);
        w.write_all(&row)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_csv_and_whitespace() {
        let pts = parse_points::<2>("1,2\n3.5 4.5\n# comment\n\n5,6\n").unwrap();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[1], Point::from([3.5, 4.5]));
        // VT and the Unicode spaces separate fields, as `char::is_whitespace`
        // says; U+001C does not.
        for row in ["1\u{b}2", "1\u{c}2", "1\u{a0}2", "1\u{85}2", " 1 ,, 2\r"] {
            assert_eq!(parse_points::<2>(row).unwrap(), [Point::from([1.0, 2.0])]);
        }
        assert!(parse_points::<2>("1\u{1c}2")
            .unwrap_err()
            .contains("found 1"));
    }

    #[test]
    fn roundtrip() {
        let pts = vec![Point::<3>::from([1.0, -2.5, 0.125])];
        let text = format_points(&pts);
        let back = parse_points::<3>(&text).unwrap();
        assert_eq!(back, pts);
    }

    #[test]
    fn wrong_arity_reported_with_line() {
        let err = parse_points::<2>("1,2\n1,2,3\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        // The arity is checked before any field is parsed.
        let err = parse_probe::<2>("x,1,2").unwrap_err();
        assert_eq!(err, "line 1: expected 2 coordinates, found 3");
    }

    #[test]
    fn bad_number_reported() {
        let err = parse_points::<1>("abc\n").unwrap_err();
        assert!(err.contains("cannot parse"), "{err}");
    }

    #[test]
    fn non_finite_rejected() {
        assert!(parse_points::<1>("inf\n").is_err());
        assert!(parse_points::<1>("NaN\n").is_err());
    }

    #[test]
    fn sniff() {
        assert_eq!(sniff_dimension("# c\n1,2,3\n"), Some(3));
        assert_eq!(sniff_dimension("1 2\n"), Some(2));
        assert_eq!(sniff_dimension("1\u{a0}2\u{b}3\n"), Some(3));
        assert_eq!(sniff_dimension("# only comments\n"), None);
    }

    #[test]
    fn decode_reports_first_bad_line() {
        assert_eq!(decode_text(b"1,2\n3,4\n".to_vec()).unwrap(), "1,2\n3,4\n");
        let err = decode_text(b"1,2\n\xff\xfe\n5,6\n".to_vec()).unwrap_err();
        assert_eq!(err, "line 2: invalid UTF-8 byte sequence");
        let err = decode_text(b"\x80".to_vec()).unwrap_err();
        assert_eq!(err, "line 1: invalid UTF-8 byte sequence");
    }

    #[test]
    fn parse_ball_totality() {
        let b = parse_ball::<2>("0.5, 0.25  0.1").unwrap();
        assert_eq!(b.center, Point::from([0.5, 0.25]));
        assert_eq!(b.radius, 0.1);
        assert!(parse_ball::<2>("1,2").unwrap_err().contains("3 fields"));
        assert!(parse_ball::<2>("1,2,x").unwrap_err().contains("'x'"));
        assert!(parse_ball::<2>("NaN,2,0.1")
            .unwrap_err()
            .contains("non-finite"));
        assert!(parse_ball::<2>("1,2,-0.5").unwrap_err().contains("radius"));
        assert!(parse_ball::<2>("1,2,inf").unwrap_err().contains("radius"));
    }

    #[test]
    fn rows_out() {
        let mut buf = Vec::new();
        push_hit_row::<u32>(&mut buf, 0, &[]);
        push_hit_row(&mut buf, 7, &[3u32, 10, 4_000_000_000]);
        push_hit_row(&mut buf, u64::MAX, &[u64::MAX]);
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            format!("0,0,\n7,3,3 10 4000000000\n{0},1,{0}\n", u64::MAX)
        );
        let mut csv = Vec::new();
        write_edges(&mut csv, [(0, 1, 0.5), (2, 3, 1.0), (4, 5, 1e-7)]).unwrap();
        assert_eq!(
            String::from_utf8(csv).unwrap(),
            "# source,target,distance\n0,1,0.5\n2,3,1\n4,5,0.0000001\n"
        );
    }
}
