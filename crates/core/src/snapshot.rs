//! Persistent index snapshots: a versioned on-disk format for
//! [`QueryTree`] and [`ShardedIndex`].
//!
//! Over the 100k-point acceptance balls the query structure answers a
//! probe in under a microsecond but takes about half a second to build
//! (`bench_layers`' `serve.replay_ns_per_probe` and `index.build_s`), so a
//! process that rebuilds on startup pays for some 600,000 probes before it
//! answers one. A snapshot turns that startup into a validate + copy of
//! flat columns (`snapshot.load_s`, about 12 ms).
//!
//! ## Container layout
//!
//! Hand-rolled (no serde — the build is offline), every field explicit
//! little-endian fixed width:
//!
//! ```text
//! header   magic [u8; 8] = "SEPDCSNP"
//!          version       u32   (SNAPSHOT_VERSION)
//!          kind          u32   (1 = query tree, 3 = sharded index;
//!                               2 is retired)
//!          dim           u32   (const D of the tree)
//!          section_count u32
//! table    section_count × { tag [u8; 4], offset u64, len u64, checksum u64 }
//! bodies   concatenated section bodies, in table order
//! ```
//!
//! `offset` is absolute from the start of the file; `checksum` is FNV-1a 64
//! over the body bytes. Flat arrays inside a body are length-prefixed
//! (`u64` element count, then the elements); `f64` values are stored as
//! the little-endian bytes of their IEEE-754 bit pattern, so floats
//! round-trip bit-exactly and a loaded tree answers byte-identically to
//! the tree that was saved (the serve determinism contract extends across
//! the save/load boundary).
//!
//! ## Trust model
//!
//! Snapshot bytes are adversarial input — a file on disk anyone may have
//! truncated, bit-flipped, or crafted. Loading therefore never panics:
//! every structural defect (bad magic, version drift, checksum mismatch,
//! out-of-bounds child index or leaf range, non-finite geometry, orphan
//! or doubly-referenced nodes) maps to a typed [`SnapshotError`], and the
//! query-tree rebuild is iterative (children strictly precede parents in
//! the node array), so a crafted deep chain cannot overflow the stack.

use crate::error::SepdcError;
use crate::query::{QNode, QueryTree, QueryTreeConfig, QueryTreeStats};
use crate::sharded::{ShardedConfig, ShardedIndex};
use sepdc_geom::ball::Ball;
use sepdc_geom::halfspace::Hyperplane;
use sepdc_geom::point::Point;
use sepdc_geom::shape::Separator;
use sepdc_geom::sphere::Sphere;
use sepdc_scan::CostProfile;

/// The 8-byte magic at offset 0 of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"SEPDCSNP";

/// Current container version. Bumped on any layout change; loading a
/// different version is [`SnapshotError::UnsupportedVersion`], never a
/// best-effort guess.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Fixed header length: magic + version + kind + dim + section_count.
pub const HEADER_LEN: usize = 8 + 4 + 4 + 4 + 4;

/// Length of one section-table entry: tag + offset + len + checksum.
pub const TABLE_ENTRY_LEN: usize = 4 + 8 + 8 + 8;

/// What structure a snapshot holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotKind {
    /// A [`QueryTree`] (§3 neighborhood query structure + its ball array).
    QueryTree,
    /// A [`ShardedIndex`] (logarithmic-method shard manifest wrapping
    /// nested query-tree snapshots, tombstone bitmaps, and the staging
    /// array).
    ShardedIndex,
}

impl SnapshotKind {
    fn code(self) -> u32 {
        match self {
            SnapshotKind::QueryTree => 1,
            SnapshotKind::ShardedIndex => 3,
        }
    }

    fn from_code(code: u32) -> Option<Self> {
        match code {
            1 => Some(SnapshotKind::QueryTree),
            3 => Some(SnapshotKind::ShardedIndex),
            _ => None,
        }
    }

    /// Human-readable kind name (`index inspect` output).
    pub fn name(self) -> &'static str {
        match self {
            SnapshotKind::QueryTree => "query-tree",
            SnapshotKind::ShardedIndex => "sharded-index",
        }
    }
}

/// Why a snapshot failed to decode. Every variant is a structural fact
/// about the bytes, suitable for logs and daemon error responses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file ended before a required field. `context` names what was
    /// being read.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// The first 8 bytes are not [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The container version differs from [`SNAPSHOT_VERSION`].
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// The kind code is not a known [`SnapshotKind`].
    BadKind {
        /// The unrecognized kind code.
        found: u32,
    },
    /// The snapshot holds a different structure than the caller asked for.
    KindMismatch {
        /// Kind found in the header.
        found: SnapshotKind,
        /// Kind the load function expected.
        expected: SnapshotKind,
    },
    /// The snapshot's dimension differs from the `const D` of the load
    /// call site.
    DimensionMismatch {
        /// Dimension in the header.
        found: u32,
        /// Dimension the caller instantiated.
        expected: u32,
    },
    /// A required section is absent from the table.
    MissingSection {
        /// Tag of the missing section.
        tag: &'static str,
    },
    /// A section body's FNV-1a 64 does not match its table entry.
    ChecksumMismatch {
        /// Tag of the damaged section.
        tag: &'static str,
    },
    /// A section decoded but its contents are structurally invalid
    /// (out-of-bounds index, non-finite geometry, inconsistent counts…).
    Corrupt {
        /// Tag of the offending section.
        tag: &'static str,
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated { context } => {
                write!(f, "truncated while reading {context}")
            }
            SnapshotError::BadMagic => write!(f, "bad magic (not a sepdc snapshot)"),
            SnapshotError::UnsupportedVersion { found, expected } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (expected {expected})"
                )
            }
            SnapshotError::BadKind { found } => write!(f, "unknown snapshot kind code {found}"),
            SnapshotError::KindMismatch { found, expected } => {
                write!(
                    f,
                    "snapshot holds a {} but a {} was requested",
                    found.name(),
                    expected.name()
                )
            }
            SnapshotError::DimensionMismatch { found, expected } => {
                write!(
                    f,
                    "snapshot dimension {found} != requested dimension {expected}"
                )
            }
            SnapshotError::MissingSection { tag } => write!(f, "missing section {tag:?}"),
            SnapshotError::ChecksumMismatch { tag } => {
                write!(f, "checksum mismatch in section {tag:?}")
            }
            SnapshotError::Corrupt { tag, detail } => {
                write!(f, "corrupt section {tag:?}: {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit — the per-section checksum. Public so tests (and external
/// tools) can re-seal a section after patching bytes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Section tags
// ---------------------------------------------------------------------------

const TAG_META: &[u8; 4] = b"META";
const TAG_BALL: &[u8; 4] = b"BALL";
const TAG_NODE: &[u8; 4] = b"NODE";
const TAG_LFID: &[u8; 4] = b"LFID";
const TAG_SMET: &[u8; 4] = b"SMET";
const TAG_SHRD: &[u8; 4] = b"SHRD";
const TAG_GIDS: &[u8; 4] = b"GIDS";
const TAG_TOMB: &[u8; 4] = b"TOMB";
const TAG_STAG: &[u8; 4] = b"STAG";

const NODE_LEAF: u8 = 0;
const NODE_SPHERE: u8 = 1;
const NODE_HALFSPACE: u8 = 2;

// ---------------------------------------------------------------------------
// Writer primitives
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Length-prefixed flat `f64` array.
fn put_f64_array(buf: &mut Vec<u8>, vals: impl ExactSizeIterator<Item = f64>) {
    put_u64(buf, vals.len() as u64);
    for v in vals {
        put_f64(buf, v);
    }
}

/// Length-prefixed flat `u32` array.
fn put_u32_array(buf: &mut Vec<u8>, vals: &[u32]) {
    put_u64(buf, vals.len() as u64);
    for &v in vals {
        put_u32(buf, v);
    }
}

/// Length-prefixed flat `u64` array.
fn put_u64_array(buf: &mut Vec<u8>, vals: &[u64]) {
    put_u64(buf, vals.len() as u64);
    for &v in vals {
        put_u64(buf, v);
    }
}

/// Assemble header + section table + bodies from `(tag, body)` pairs.
fn assemble_container(kind: SnapshotKind, dim: u32, sections: &[(&[u8; 4], Vec<u8>)]) -> Vec<u8> {
    let table_len = sections.len() * TABLE_ENTRY_LEN;
    let bodies_len: usize = sections.iter().map(|(_, b)| b.len()).sum();
    let mut out = Vec::with_capacity(HEADER_LEN + table_len + bodies_len);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    put_u32(&mut out, SNAPSHOT_VERSION);
    put_u32(&mut out, kind.code());
    put_u32(&mut out, dim);
    put_u32(&mut out, sections.len() as u32);
    let mut offset = (HEADER_LEN + table_len) as u64;
    for (tag, body) in sections {
        out.extend_from_slice(&tag[..]);
        put_u64(&mut out, offset);
        put_u64(&mut out, body.len() as u64);
        put_u64(&mut out, fnv1a64(body));
        offset += body.len() as u64;
    }
    for (_, body) in sections {
        out.extend_from_slice(body);
    }
    out
}

// ---------------------------------------------------------------------------
// Reader primitives
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over one section body.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    tag: &'static str,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8], tag: &'static str) -> Self {
        Cursor { bytes, pos: 0, tag }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated { context: self.tag });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length prefix for elements of `elem_size` bytes, rejecting
    /// counts the remaining bytes cannot possibly hold — an adversarial
    /// prefix must not drive a huge allocation.
    fn array_len(&mut self, elem_size: usize) -> Result<usize, SnapshotError> {
        let count = self.u64()?;
        let fits = usize::try_from(count).ok().filter(|&n| {
            n.checked_mul(elem_size)
                .is_some_and(|b| b <= self.remaining())
        });
        fits.ok_or(SnapshotError::Corrupt {
            tag: self.tag,
            detail: format!("array length {count} exceeds section size"),
        })
    }

    fn f64_array(&mut self) -> Result<Vec<f64>, SnapshotError> {
        let n = self.array_len(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }

    fn u32_array(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let n = self.array_len(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    fn u64_array(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let n = self.array_len(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    /// Reject trailing bytes — a valid writer never leaves any.
    fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Corrupt {
                tag: self.tag,
                detail: format!("{} trailing bytes", self.remaining()),
            });
        }
        Ok(())
    }
}

fn corrupt(tag: &'static str, detail: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt {
        tag,
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------------------
// Container parsing (header + table)
// ---------------------------------------------------------------------------

struct Section<'a> {
    tag: [u8; 4],
    offset: u64,
    body: &'a [u8],
    checksum: u64,
}

struct Container<'a> {
    kind: SnapshotKind,
    dim: u32,
    sections: Vec<Section<'a>>,
}

fn parse_container(bytes: &[u8]) -> Result<Container<'_>, SnapshotError> {
    if bytes.len() < 8 {
        return Err(SnapshotError::Truncated { context: "magic" });
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::Truncated { context: "header" });
    }
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let version = word(8);
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            expected: SNAPSHOT_VERSION,
        });
    }
    let kind_code = word(12);
    let kind =
        SnapshotKind::from_code(kind_code).ok_or(SnapshotError::BadKind { found: kind_code })?;
    let dim = word(16);
    let count = word(20) as usize;
    let table_end = HEADER_LEN
        .checked_add(
            count
                .checked_mul(TABLE_ENTRY_LEN)
                .ok_or(SnapshotError::Truncated {
                    context: "section table",
                })?,
        )
        .ok_or(SnapshotError::Truncated {
            context: "section table",
        })?;
    if bytes.len() < table_end {
        return Err(SnapshotError::Truncated {
            context: "section table",
        });
    }
    let mut sections = Vec::with_capacity(count);
    for i in 0..count {
        let at = HEADER_LEN + i * TABLE_ENTRY_LEN;
        let tag: [u8; 4] = bytes[at..at + 4].try_into().unwrap();
        let offset = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[at + 12..at + 20].try_into().unwrap());
        let checksum = u64::from_le_bytes(bytes[at + 20..at + 28].try_into().unwrap());
        let start = usize::try_from(offset).ok();
        let body = start
            .zip(usize::try_from(len).ok())
            .and_then(|(s, l)| s.checked_add(l).map(|end| (s, end)))
            .filter(|&(s, end)| s >= table_end && end <= bytes.len())
            .map(|(s, end)| &bytes[s..end])
            .ok_or(SnapshotError::Truncated {
                context: "section body",
            })?;
        sections.push(Section {
            tag,
            offset,
            body,
            checksum,
        });
    }
    Ok(Container {
        kind,
        dim,
        sections,
    })
}

impl<'a> Container<'a> {
    /// Find a section by tag and verify its checksum.
    fn section(
        &self,
        tag: &'static [u8; 4],
        name: &'static str,
    ) -> Result<&'a [u8], SnapshotError> {
        let s = self
            .sections
            .iter()
            .find(|s| &s.tag == tag)
            .ok_or(SnapshotError::MissingSection { tag: name })?;
        if fnv1a64(s.body) != s.checksum {
            return Err(SnapshotError::ChecksumMismatch { tag: name });
        }
        Ok(s.body)
    }
}

// ---------------------------------------------------------------------------
// Inspection
// ---------------------------------------------------------------------------

/// One section-table row, as reported by [`inspect`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SectionInfo {
    /// Four-character section tag.
    pub tag: String,
    /// Absolute byte offset of the body.
    pub offset: u64,
    /// Body length in bytes.
    pub len: u64,
    /// FNV-1a 64 checksum recorded in the table (verified by `inspect`).
    pub checksum: u64,
}

/// Validated summary of a snapshot's container, without reconstructing
/// the tree — what `sepdc index inspect` prints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Container version.
    pub version: u32,
    /// What structure the snapshot holds.
    pub kind: SnapshotKind,
    /// Dimension `D` of the stored tree.
    pub dim: u32,
    /// Total file length in bytes.
    pub total_len: u64,
    /// Section table, in file order. Checksums have been verified.
    pub sections: Vec<SectionInfo>,
}

/// Parse and validate a snapshot's header, section table, and every
/// section checksum — without reconstructing the structure.
pub fn inspect(bytes: &[u8]) -> Result<SnapshotInfo, SepdcError> {
    let c = parse_container(bytes)?;
    let mut sections = Vec::with_capacity(c.sections.len());
    for s in &c.sections {
        if fnv1a64(s.body) != s.checksum {
            // The tag came off disk; report it lossily but typed.
            return Err(SnapshotError::ChecksumMismatch {
                tag: tag_name(&s.tag),
            }
            .into());
        }
        sections.push(SectionInfo {
            tag: String::from_utf8_lossy(&s.tag).into_owned(),
            offset: s.offset,
            len: s.body.len() as u64,
            checksum: s.checksum,
        });
    }
    Ok(SnapshotInfo {
        version: SNAPSHOT_VERSION,
        kind: c.kind,
        dim: c.dim,
        total_len: bytes.len() as u64,
        sections,
    })
}

/// The kind and dimension a snapshot's header declares, after the header
/// and section-table checks of [`inspect`] but without its checksum pass:
/// enough to choose a loader, which then verifies every section once.
pub fn kind_and_dim(bytes: &[u8]) -> Result<(SnapshotKind, u32), SepdcError> {
    let c = parse_container(bytes)?;
    Ok((c.kind, c.dim))
}

/// Map an on-disk tag to its static name (unknown tags report as `"????"`).
fn tag_name(tag: &[u8; 4]) -> &'static str {
    match tag {
        TAG_META => "META",
        TAG_BALL => "BALL",
        TAG_NODE => "NODE",
        TAG_LFID => "LFID",
        TAG_SMET => "SMET",
        TAG_SHRD => "SHRD",
        TAG_GIDS => "GIDS",
        TAG_TOMB => "TOMB",
        TAG_STAG => "STAG",
        _ => "????",
    }
}

// ---------------------------------------------------------------------------
// QueryTree save/load
// ---------------------------------------------------------------------------

/// Serialize a [`QueryTree`] into snapshot bytes.
///
/// Sections: `META` (16 `u64` words: seed, ball count, the seven stats,
/// the five cost-profile fields, a splitter word that is always 0, ε bits),
/// `BALL` (the center coordinates as `D` columns, then the radii),
/// `NODE` (the tree flattened postorder, children before
/// parents, root last), `LFID` (concatenated leaf ball-id lists).
pub fn save_query_tree<const D: usize>(tree: &QueryTree<D>) -> Vec<u8> {
    let stats = tree.stats();
    let cost = tree.build_cost();

    let mut meta = Vec::with_capacity(16 * 8);
    put_u64(&mut meta, tree.run_report().seed);
    put_u64(&mut meta, tree.len() as u64);
    for v in [
        stats.height as u64,
        stats.leaves as u64,
        stats.internals as u64,
        stats.stored_balls as u64,
        stats.candidates,
        stats.fallbacks as u64,
        stats.forced_leaves as u64,
        cost.work,
        cost.depth,
        cost.scan_ops,
        cost.separator_candidates,
        cost.punts,
        0,
        tree.epsilon().to_bits(),
    ] {
        put_u64(&mut meta, v);
    }

    // Ball columns: each center coordinate, then the radii.
    let balls = tree.balls();
    let mut ball = Vec::with_capacity((D + 1) * (8 + 8 * balls.len()));
    for d in 0..D {
        put_f64_array(&mut ball, balls.iter().map(|b| b.center.0[d]));
    }
    put_f64_array(&mut ball, balls.iter().map(|b| b.radius));

    // Flatten the boxed tree: iterative postorder, children emitted
    // before their parent, root last (the PartitionTree arena convention).
    enum Frame<'a, const D: usize> {
        Visit(&'a QNode<D>),
        Emit(&'a QNode<D>),
    }
    let mut node_buf = Vec::new();
    let mut leaf_ids: Vec<u32> = Vec::new();
    let mut idx_stack: Vec<u32> = Vec::new();
    let mut count: u64 = 0;
    let mut stack = vec![Frame::Visit(tree.root())];
    while let Some(frame) = stack.pop() {
        match frame {
            Frame::Visit(n) => match n {
                QNode::Leaf { ball_ids } => {
                    node_buf.push(NODE_LEAF);
                    put_u64(&mut node_buf, leaf_ids.len() as u64);
                    put_u64(&mut node_buf, ball_ids.len() as u64);
                    leaf_ids.extend_from_slice(ball_ids);
                    idx_stack.push(count as u32);
                    count += 1;
                }
                QNode::Internal { left, right, .. } => {
                    stack.push(Frame::Emit(n));
                    stack.push(Frame::Visit(right));
                    stack.push(Frame::Visit(left));
                }
            },
            Frame::Emit(n) => {
                let QNode::Internal { sep, .. } = n else {
                    unreachable!("Emit frames are only pushed for internal nodes")
                };
                let right = idx_stack.pop().expect("postorder child index");
                let left = idx_stack.pop().expect("postorder child index");
                match sep {
                    Separator::Sphere(s) => {
                        node_buf.push(NODE_SPHERE);
                        put_u32(&mut node_buf, left);
                        put_u32(&mut node_buf, right);
                        for d in 0..D {
                            put_f64(&mut node_buf, s.center.0[d]);
                        }
                        put_f64(&mut node_buf, s.radius);
                    }
                    Separator::Halfspace(h) => {
                        node_buf.push(NODE_HALFSPACE);
                        put_u32(&mut node_buf, left);
                        put_u32(&mut node_buf, right);
                        for d in 0..D {
                            put_f64(&mut node_buf, h.normal.0[d]);
                        }
                        put_f64(&mut node_buf, h.offset);
                    }
                }
                idx_stack.push(count as u32);
                count += 1;
            }
        }
    }
    let mut node = Vec::with_capacity(8 + node_buf.len());
    put_u64(&mut node, count);
    node.extend_from_slice(&node_buf);

    let mut lfid = Vec::new();
    put_u32_array(&mut lfid, &leaf_ids);

    assemble_container(
        SnapshotKind::QueryTree,
        D as u32,
        &[
            (TAG_META, meta),
            (TAG_BALL, ball),
            (TAG_NODE, node),
            (TAG_LFID, lfid),
        ],
    )
}

/// Decoded `META` section of a query-tree snapshot.
struct QueryMeta {
    seed: u64,
    n_balls: u64,
    stats: QueryTreeStats,
    cost: CostProfile,
    epsilon: f64,
}

fn load_query_meta(body: &[u8]) -> Result<QueryMeta, SnapshotError> {
    let mut c = Cursor::new(body, "META");
    let seed = c.u64()?;
    let n_balls = c.u64()?;
    let as_usize = |v: u64| -> Result<usize, SnapshotError> {
        usize::try_from(v).map_err(|_| corrupt("META", format!("count {v} overflows usize")))
    };
    let stats = QueryTreeStats {
        height: as_usize(c.u64()?)?,
        leaves: as_usize(c.u64()?)?,
        internals: as_usize(c.u64()?)?,
        stored_balls: as_usize(c.u64()?)?,
        candidates: c.u64()?,
        fallbacks: as_usize(c.u64()?)?,
        forced_leaves: as_usize(c.u64()?)?,
    };
    let cost = CostProfile {
        work: c.u64()?,
        depth: c.u64()?,
        scan_ops: c.u64()?,
        separator_candidates: c.u64()?,
        punts: c.u64()?,
    };
    // The splitter word: 0 is the random sphere search, the only backend.
    // Codes 1 and 2 named retired backends.
    let code = c.u64()?;
    if code != 0 {
        return Err(corrupt("META", format!("unknown splitter code {code}")));
    }
    let epsilon = f64::from_bits(c.u64()?);
    if !epsilon.is_finite() || !(0.0..=1.0).contains(&epsilon) {
        return Err(corrupt("META", format!("epsilon {epsilon} outside [0, 1]")));
    }
    c.finish()?;
    Ok(QueryMeta {
        seed,
        n_balls,
        stats,
        cost,
        epsilon,
    })
}

/// Reconstruct a [`QueryTree`] from snapshot bytes.
///
/// Validates everything before touching a constructor that could panic:
/// magic/version/kind/dim, per-section checksums, column lengths, float
/// finiteness, leaf ranges, ball ids, child indices (strictly smaller
/// than the parent's — the rebuild is an iterative bottom-up pass, so
/// adversarial depth cannot overflow the stack), and single-use of every
/// non-root node. Structural stats are recomputed from the decoded tree
/// and cross-checked against `META`.
pub fn load_query_tree<const D: usize>(bytes: &[u8]) -> Result<QueryTree<D>, SepdcError> {
    let t0 = std::time::Instant::now();
    let c = parse_container(bytes)?;
    if c.kind != SnapshotKind::QueryTree {
        return Err(SnapshotError::KindMismatch {
            found: c.kind,
            expected: SnapshotKind::QueryTree,
        }
        .into());
    }
    if c.dim != D as u32 {
        return Err(SnapshotError::DimensionMismatch {
            found: c.dim,
            expected: D as u32,
        }
        .into());
    }

    let meta = load_query_meta(c.section(TAG_META, "META")?)?;
    let n = usize::try_from(meta.n_balls)
        .map_err(|_| corrupt("META", format!("n_balls {} overflows usize", meta.n_balls)))?;

    // BALL: D center columns + radii, all exactly n long, all finite.
    let mut cur = Cursor::new(c.section(TAG_BALL, "BALL")?, "BALL");
    let mut cols: Vec<Vec<f64>> = Vec::with_capacity(D);
    for d in 0..D {
        let col = cur.f64_array()?;
        if col.len() != n {
            return Err(corrupt(
                "BALL",
                format!("column {d} has {} entries, expected {n}", col.len()),
            )
            .into());
        }
        if let Some(i) = col.iter().position(|v| !v.is_finite()) {
            return Err(
                corrupt("BALL", format!("non-finite center coordinate at ball {i}")).into(),
            );
        }
        cols.push(col);
    }
    let radii = cur.f64_array()?;
    if radii.len() != n {
        return Err(corrupt(
            "BALL",
            format!("radius column has {} entries, expected {n}", radii.len()),
        )
        .into());
    }
    if let Some(i) = radii.iter().position(|r| !r.is_finite() || *r < 0.0) {
        return Err(corrupt("BALL", format!("non-finite or negative radius at ball {i}")).into());
    }
    cur.finish()?;

    // LFID: flat leaf ball ids, each a valid ball index.
    let mut cur = Cursor::new(c.section(TAG_LFID, "LFID")?, "LFID");
    let leaf_ids = cur.u32_array()?;
    cur.finish()?;
    if let Some(i) = leaf_ids.iter().position(|&id| (id as usize) >= n) {
        return Err(corrupt(
            "LFID",
            format!(
                "leaf id {} at position {i} out of bounds (n = {n})",
                leaf_ids[i]
            ),
        )
        .into());
    }

    // NODE: bottom-up iterative rebuild (children strictly precede
    // parents), consuming each child exactly once.
    let mut cur = Cursor::new(c.section(TAG_NODE, "NODE")?, "NODE");
    let count = cur.array_len(1)?; // each node record is at least 1 byte
    if count == 0 {
        return Err(corrupt("NODE", "empty node array").into());
    }
    let mut built: Vec<Option<QNode<D>>> = Vec::with_capacity(count);
    let mut heights: Vec<usize> = Vec::with_capacity(count);
    let mut recomputed = QueryTreeStats::default();
    for i in 0..count {
        match cur.u8()? {
            NODE_LEAF => {
                let start = cur.u64()?;
                let len = cur.u64()?;
                let end = start
                    .checked_add(len)
                    .filter(|&e| e <= leaf_ids.len() as u64);
                let Some(end) = end else {
                    return Err(corrupt(
                        "NODE",
                        format!("leaf {i} range {start}+{len} out of bounds"),
                    )
                    .into());
                };
                let ball_ids = leaf_ids[start as usize..end as usize].to_vec();
                recomputed.leaves += 1;
                recomputed.stored_balls += ball_ids.len();
                built.push(Some(QNode::Leaf { ball_ids }));
                heights.push(0);
            }
            tag @ (NODE_SPHERE | NODE_HALFSPACE) => {
                let left = cur.u32()? as usize;
                let right = cur.u32()? as usize;
                if left >= i || right >= i || left == right {
                    return Err(corrupt(
                        "NODE",
                        format!("internal {i} has invalid children ({left}, {right})"),
                    )
                    .into());
                }
                let mut coords = [0.0f64; D];
                for c in &mut coords {
                    *c = cur.f64()?;
                }
                let scalar = cur.f64()?;
                let finite = coords.iter().all(|v| v.is_finite()) && scalar.is_finite();
                let sep = if tag == NODE_SPHERE {
                    if !finite || scalar <= 0.0 {
                        return Err(corrupt(
                            "NODE",
                            format!("internal {i} has a degenerate sphere separator"),
                        )
                        .into());
                    }
                    Separator::Sphere(Sphere {
                        center: Point(coords),
                        radius: scalar,
                    })
                } else {
                    if !finite {
                        return Err(corrupt(
                            "NODE",
                            format!("internal {i} has a non-finite halfspace separator"),
                        )
                        .into());
                    }
                    Separator::Halfspace(Hyperplane {
                        normal: Point(coords),
                        offset: scalar,
                    })
                };
                let take_child = |built: &mut Vec<Option<QNode<D>>>, c: usize| {
                    built[c].take().ok_or_else(|| {
                        corrupt(
                            "NODE",
                            format!("node {c} referenced by more than one parent"),
                        )
                    })
                };
                let l = take_child(&mut built, left)?;
                let r = take_child(&mut built, right)?;
                recomputed.internals += 1;
                let h = 1 + heights[left].max(heights[right]);
                built.push(Some(QNode::Internal {
                    sep,
                    left: Box::new(l),
                    right: Box::new(r),
                }));
                heights.push(h);
            }
            other => {
                return Err(corrupt("NODE", format!("unknown node tag {other} at node {i}")).into())
            }
        }
    }
    cur.finish()?;
    let root = built[count - 1]
        .take()
        .expect("root cannot be referenced: children indices are strictly smaller");
    if let Some(orphan) = built.iter().position(Option::is_some) {
        return Err(corrupt(
            "NODE",
            format!("node {orphan} is unreachable from the root"),
        )
        .into());
    }
    recomputed.height = heights[count - 1];
    recomputed.candidates = meta.stats.candidates;
    recomputed.fallbacks = meta.stats.fallbacks;
    recomputed.forced_leaves = meta.stats.forced_leaves;
    if recomputed != meta.stats {
        return Err(corrupt(
            "META",
            format!(
                "stored stats {:?} disagree with decoded structure {:?}",
                meta.stats, recomputed
            ),
        )
        .into());
    }

    // Reassemble the ball array from the columns, bit for bit.
    let balls: Vec<Ball<D>> = (0..n)
        .map(|i| Ball {
            center: Point(std::array::from_fn(|d| cols[d][i])),
            radius: radii[i],
        })
        .collect();

    Ok(QueryTree::from_snapshot_parts(
        root,
        balls,
        meta.stats,
        meta.cost,
        meta.seed,
        meta.epsilon,
        t0.elapsed(),
    ))
}

// ---------------------------------------------------------------------------
// ShardedIndex save/load
// ---------------------------------------------------------------------------

/// The logarithmic method never occupies a slot at or above 64 — slot `i`
/// holds up to `staging_cap · 2^i` balls, so slot 64 would require more
/// balls than `u64` ids can name. Bounding it also caps the allocation an
/// adversarial `slot_count` can drive.
const MAX_SLOTS: u64 = 64;

/// Serialize a [`ShardedIndex`] into snapshot bytes.
///
/// Sections: `SMET` (staging capacity, master seed, id/epoch/rebuild
/// counters, slot count, live-ball cross-check), `SHRD` (the shard
/// manifest — per occupied slot, the slot index and a complete nested
/// query-tree snapshot, checksummed container and all, so shard payloads
/// reuse the kind-1 codec verbatim), `GIDS` (per-shard ascending global-id
/// columns), `TOMB` (per-shard tombstone bitmap words), `STAG` (the
/// staging entries `(id, center, radius)`, ascending by id).
pub fn save_sharded_index<const D: usize>(index: &ShardedIndex<D>) -> Vec<u8> {
    let (seed, next_id, epoch, rebuilds, rebuilt_balls, slot_count) = index.meta_for_snapshot();
    let stats = index.stats();

    let mut smet = Vec::with_capacity(8 * 8);
    put_u64(&mut smet, index.config().staging_cap as u64);
    put_u64(&mut smet, seed);
    put_u64(&mut smet, next_id);
    put_u64(&mut smet, epoch);
    put_u64(&mut smet, rebuilds);
    put_u64(&mut smet, rebuilt_balls);
    put_u64(&mut smet, slot_count);
    put_u64(&mut smet, stats.live as u64);

    let shards = index.shards_for_snapshot();
    let mut shrd = Vec::new();
    put_u64(&mut shrd, shards.len() as u64);
    let mut gids = Vec::new();
    put_u64(&mut gids, shards.len() as u64);
    let mut tomb = Vec::new();
    put_u64(&mut tomb, shards.len() as u64);
    for (slot, shard) in &shards {
        put_u64(&mut shrd, *slot as u64);
        let nested = save_query_tree(&shard.core.tree);
        put_u64(&mut shrd, nested.len() as u64);
        shrd.extend_from_slice(&nested);
        put_u64_array(&mut gids, &shard.core.ids);
        put_u64_array(&mut tomb, &shard.tombs);
    }

    let staging = index.staging_for_snapshot();
    let mut stag = Vec::with_capacity(8 + staging.len() * (8 + (D + 1) * 8));
    put_u64(&mut stag, staging.len() as u64);
    for (id, ball) in staging {
        put_u64(&mut stag, *id);
        for d in 0..D {
            put_f64(&mut stag, ball.center.0[d]);
        }
        put_f64(&mut stag, ball.radius);
    }

    assemble_container(
        SnapshotKind::ShardedIndex,
        D as u32,
        &[
            (TAG_SMET, smet),
            (TAG_SHRD, shrd),
            (TAG_GIDS, gids),
            (TAG_TOMB, tomb),
            (TAG_STAG, stag),
        ],
    )
}

/// Reconstruct a [`ShardedIndex`] from snapshot bytes.
///
/// Validates the full shard-manifest invariant set before constructing
/// anything: strictly increasing slot indices below the recorded slot
/// count, per-slot capacity (`n ≤ staging_cap · 2^slot`), each nested
/// query-tree snapshot through the complete kind-1 validation path,
/// strictly increasing global-id columns matching tree sizes, tombstone
/// bitmaps of exactly the right width with no bits set past the end,
/// sorted finite staging entries under capacity, global-id disjointness
/// across every shard and the staging array, all ids below `next_id`, and
/// the recorded live count against the decoded population.
pub fn load_sharded_index<const D: usize>(bytes: &[u8]) -> Result<ShardedIndex<D>, SepdcError> {
    let c = parse_container(bytes)?;
    if c.kind != SnapshotKind::ShardedIndex {
        return Err(SnapshotError::KindMismatch {
            found: c.kind,
            expected: SnapshotKind::ShardedIndex,
        }
        .into());
    }
    if c.dim != D as u32 {
        return Err(SnapshotError::DimensionMismatch {
            found: c.dim,
            expected: D as u32,
        }
        .into());
    }

    let mut cur = Cursor::new(c.section(TAG_SMET, "SMET")?, "SMET");
    let raw_cap = cur.u64()?;
    let seed = cur.u64()?;
    let next_id = cur.u64()?;
    let epoch = cur.u64()?;
    let rebuilds = cur.u64()?;
    let rebuilt_balls = cur.u64()?;
    let slot_count = cur.u64()?;
    let live = cur.u64()?;
    cur.finish()?;
    let staging_cap = usize::try_from(raw_cap)
        .ok()
        .filter(|&cap| cap >= 1)
        .ok_or_else(|| corrupt("SMET", format!("staging capacity {raw_cap} is invalid")))?;
    if slot_count > MAX_SLOTS {
        return Err(corrupt(
            "SMET",
            format!("slot count {slot_count} exceeds the {MAX_SLOTS}-slot bound"),
        )
        .into());
    }
    let slot_count = slot_count as usize;

    // SHRD: slot indices + nested kind-1 snapshots, each fully validated
    // by `load_query_tree` (checksums, geometry, structure).
    let mut cur = Cursor::new(c.section(TAG_SHRD, "SHRD")?, "SHRD");
    let n_shards = cur.array_len(16)?; // ≥ 16 bytes per shard: slot + nested length
    let mut shards: crate::sharded::ShardParts<D> = Vec::with_capacity(n_shards);
    let mut prev_slot: Option<usize> = None;
    for i in 0..n_shards {
        let raw_slot = cur.u64()?;
        let slot = usize::try_from(raw_slot)
            .ok()
            .filter(|&s| s < slot_count)
            .ok_or_else(|| {
                corrupt(
                    "SHRD",
                    format!("shard {i} slot {raw_slot} out of range (slot count {slot_count})"),
                )
            })?;
        if prev_slot.is_some_and(|p| slot <= p) {
            return Err(corrupt(
                "SHRD",
                format!("shard slots not strictly increasing at shard {i} (slot {slot})"),
            )
            .into());
        }
        prev_slot = Some(slot);
        let nested_len = cur.u64()?;
        let nested_len = usize::try_from(nested_len)
            .ok()
            .filter(|&l| l <= cur.remaining())
            .ok_or_else(|| {
                corrupt(
                    "SHRD",
                    format!(
                        "shard at slot {slot}: nested snapshot length {nested_len} exceeds section"
                    ),
                )
            })?;
        let tree = load_query_tree::<D>(cur.take(nested_len)?)
            .map_err(|e| corrupt("SHRD", format!("shard at slot {slot}: {e}")))?;
        let n = tree.len();
        if n == 0 {
            return Err(corrupt("SHRD", format!("shard at slot {slot} is empty")).into());
        }
        // slot < MAX_SLOTS = 64, so the u128 shift cannot overflow.
        if (n as u128) > (staging_cap as u128) << slot {
            return Err(corrupt(
                "SHRD",
                format!(
                    "shard at slot {slot} holds {n} balls, over its capacity {staging_cap}·2^{slot}"
                ),
            )
            .into());
        }
        shards.push((slot, tree, Vec::new(), Vec::new(), 0));
    }
    cur.finish()?;

    // GIDS: one ascending global-id column per shard, aligned with the
    // shard's ball order.
    let mut cur = Cursor::new(c.section(TAG_GIDS, "GIDS")?, "GIDS");
    let n_gids = cur.array_len(8)?;
    if n_gids != n_shards {
        return Err(corrupt("GIDS", format!("{n_gids} id columns for {n_shards} shards")).into());
    }
    for (slot, tree, ids, _, _) in &mut shards {
        let col = cur.u64_array()?;
        if col.len() != tree.len() {
            return Err(corrupt(
                "GIDS",
                format!(
                    "shard at slot {slot}: {} ids for {} balls",
                    col.len(),
                    tree.len()
                ),
            )
            .into());
        }
        if let Some(w) = col.windows(2).position(|w| w[0] >= w[1]) {
            return Err(corrupt(
                "GIDS",
                format!("shard at slot {slot}: ids not strictly increasing at position {w}"),
            )
            .into());
        }
        if col.last().is_some_and(|&id| id >= next_id) {
            return Err(corrupt(
                "GIDS",
                format!("shard at slot {slot}: id at or above next_id {next_id}"),
            )
            .into());
        }
        *ids = col;
    }
    cur.finish()?;

    // TOMB: one bitmap per shard, exactly ceil(n/64) words, no bit set at
    // or past the shard length.
    let mut cur = Cursor::new(c.section(TAG_TOMB, "TOMB")?, "TOMB");
    let n_tomb = cur.array_len(8)?;
    if n_tomb != n_shards {
        return Err(corrupt("TOMB", format!("{n_tomb} bitmaps for {n_shards} shards")).into());
    }
    for (slot, tree, _, tombs, dead) in &mut shards {
        let words = cur.u64_array()?;
        let n = tree.len();
        if words.len() != n.div_ceil(64) {
            return Err(corrupt(
                "TOMB",
                format!(
                    "shard at slot {slot}: {} bitmap words for {n} balls",
                    words.len()
                ),
            )
            .into());
        }
        let tail_bits = n % 64;
        if tail_bits != 0 && words.last().is_some_and(|&w| w >> tail_bits != 0) {
            return Err(corrupt(
                "TOMB",
                format!("shard at slot {slot}: tombstone bit set past the shard length"),
            )
            .into());
        }
        *dead = words.iter().map(|w| w.count_ones() as usize).sum();
        *tombs = words;
    }
    cur.finish()?;

    // STAG: sorted finite staging entries strictly under capacity (the
    // writer carries the moment staging reaches `staging_cap`).
    let mut cur = Cursor::new(c.section(TAG_STAG, "STAG")?, "STAG");
    let n_stag = cur.array_len(8 + (D + 1) * 8)?;
    if n_stag >= staging_cap {
        return Err(corrupt(
            "STAG",
            format!("{n_stag} staged entries at or above capacity {staging_cap}"),
        )
        .into());
    }
    let mut staging: Vec<(u64, Ball<D>)> = Vec::with_capacity(n_stag);
    for i in 0..n_stag {
        let id = cur.u64()?;
        if id >= next_id {
            return Err(corrupt(
                "STAG",
                format!("staged id {id} at or above next_id {next_id}"),
            )
            .into());
        }
        if staging.last().is_some_and(|(prev, _)| id <= *prev) {
            return Err(corrupt(
                "STAG",
                format!("staged ids not strictly increasing at entry {i}"),
            )
            .into());
        }
        let mut coords = [0.0f64; D];
        for v in &mut coords {
            *v = cur.f64()?;
        }
        let radius = cur.f64()?;
        if !coords.iter().all(|v| v.is_finite()) || !radius.is_finite() || radius < 0.0 {
            return Err(corrupt("STAG", format!("staged ball {i} is non-finite")).into());
        }
        staging.push((
            id,
            Ball {
                center: Point(coords),
                radius,
            },
        ));
    }
    cur.finish()?;

    // Global ids must be disjoint across every shard and the staging
    // array — each column is sorted, so one merge-sort pass over the
    // concatenation finds any collision.
    let mut all_ids: Vec<u64> = Vec::new();
    for (_, _, ids, _, _) in &shards {
        all_ids.extend_from_slice(ids);
    }
    all_ids.extend(staging.iter().map(|(id, _)| *id));
    all_ids.sort_unstable();
    if let Some(w) = all_ids.windows(2).position(|w| w[0] == w[1]) {
        return Err(corrupt(
            "GIDS",
            format!("global id {} appears in more than one shard", all_ids[w]),
        )
        .into());
    }

    let decoded_live: usize = shards
        .iter()
        .map(|(_, tree, _, _, dead)| tree.len() - dead)
        .sum::<usize>()
        + staging.len();
    if decoded_live as u64 != live {
        return Err(corrupt(
            "SMET",
            format!("recorded live count {live} disagrees with decoded population {decoded_live}"),
        )
        .into());
    }

    Ok(ShardedIndex::from_snapshot_parts(
        ShardedConfig {
            staging_cap,
            tree: QueryTreeConfig::default(),
        },
        seed,
        slot_count,
        shards,
        staging,
        next_id,
        epoch,
        rebuilds,
        rebuilt_balls,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighborhood::NeighborhoodSystem;
    use crate::query::QueryTreeConfig;
    use crate::serve::CoverPredicate;
    use crate::ServeConfig;
    use sepdc_workloads::Workload;

    fn sample_tree(n: usize) -> QueryTree<2> {
        let points = Workload::UniformCube.generate::<2>(n, 42);
        let knn = crate::kdtree::kdtree_all_knn::<2>(&points, 3);
        let system = NeighborhoodSystem::from_knn(&points, &knn);
        QueryTree::build::<3>(system.balls(), QueryTreeConfig::default(), 7)
    }

    #[test]
    fn query_tree_round_trips_and_serves_identically() {
        let tree = sample_tree(400);
        let bytes = save_query_tree(&tree);
        let loaded = load_query_tree::<2>(&bytes).unwrap();
        assert_eq!(loaded.stats(), tree.stats());
        assert_eq!(loaded.build_cost(), tree.build_cost());
        assert_eq!(loaded.len(), tree.len());
        assert_eq!(loaded.run_report().algo, "query-load");
        assert_eq!(loaded.run_report().seed, tree.run_report().seed);

        let probes = Workload::Clusters.generate::<2>(300, 11);
        for pred in [CoverPredicate::Closed, CoverPredicate::Open] {
            let a = tree
                .try_serve(&probes, pred, &ServeConfig::default())
                .unwrap();
            let b = loaded
                .try_serve(&probes, pred, &ServeConfig::default())
                .unwrap();
            assert_eq!(a.result.offsets(), b.result.offsets());
            assert_eq!(a.result.ids(), b.result.ids());
        }
        // Saving the loaded tree reproduces the exact bytes.
        assert_eq!(save_query_tree(&loaded), bytes);
    }

    #[test]
    fn empty_query_tree_round_trips() {
        let tree = QueryTree::<2>::build::<3>(&[], QueryTreeConfig::default(), 1);
        let bytes = save_query_tree(&tree);
        let loaded = load_query_tree::<2>(&bytes).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(loaded.stats(), tree.stats());
    }

    #[test]
    fn inspect_reports_sections() {
        let tree = sample_tree(200);
        let bytes = save_query_tree(&tree);
        let info = inspect(&bytes).unwrap();
        assert_eq!(info.version, SNAPSHOT_VERSION);
        assert_eq!(info.kind, SnapshotKind::QueryTree);
        assert_eq!(info.dim, 2);
        assert_eq!(info.total_len, bytes.len() as u64);
        let tags: Vec<&str> = info.sections.iter().map(|s| s.tag.as_str()).collect();
        assert_eq!(tags, ["META", "BALL", "NODE", "LFID"]);
        for s in &info.sections {
            let body = &bytes[s.offset as usize..(s.offset + s.len) as usize];
            assert_eq!(fnv1a64(body), s.checksum);
        }
    }

    #[test]
    fn kind_and_dim_mismatches_are_typed() {
        let tree = sample_tree(100);
        let bytes = save_query_tree(&tree);
        assert_eq!(
            load_sharded_index::<2>(&bytes).map(|i| i.len()),
            Err(SepdcError::Snapshot(SnapshotError::KindMismatch {
                found: SnapshotKind::QueryTree,
                expected: SnapshotKind::ShardedIndex,
            }))
        );
        assert_eq!(
            load_query_tree::<3>(&bytes).map(|t| t.len()),
            Err(SepdcError::Snapshot(SnapshotError::DimensionMismatch {
                found: 2,
                expected: 3,
            }))
        );
    }

    /// An index with occupied shards, live tombstones, and a non-empty
    /// staging array — every section of the kind-3 layout exercised.
    fn sample_sharded(n: usize, staging_cap: usize) -> ShardedIndex<2> {
        let points = Workload::UniformCube.generate::<2>(n, 5);
        let balls: Vec<Ball<2>> = points
            .iter()
            .map(|&p| Ball {
                center: p,
                radius: 0.05,
            })
            .collect();
        let cfg = ShardedConfig {
            staging_cap,
            tree: QueryTreeConfig::default(),
        };
        let mut idx = ShardedIndex::new(cfg, 99).unwrap();
        idx.try_insert_batch::<3>(&balls).unwrap();
        idx.delete_batch(&[0, 3, 7, 50]);
        idx
    }

    /// Rebuild `bytes` with one section body rewritten (checksums are
    /// recomputed, so the mutation reaches the semantic validators rather
    /// than tripping the checksum gate).
    fn patch_sharded(bytes: &[u8], target: &[u8; 4], f: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let c = parse_container(bytes).unwrap();
        let mut f = Some(f);
        let mut sections: Vec<(&[u8; 4], Vec<u8>)> = Vec::new();
        for s in &c.sections {
            let tag: &'static [u8; 4] = match &s.tag {
                b"SMET" => TAG_SMET,
                b"SHRD" => TAG_SHRD,
                b"GIDS" => TAG_GIDS,
                b"TOMB" => TAG_TOMB,
                b"STAG" => TAG_STAG,
                other => panic!("unexpected tag {other:?}"),
            };
            let mut body = s.body.to_vec();
            if tag == target {
                (f.take().unwrap())(&mut body);
            }
            sections.push((tag, body));
        }
        assert!(f.is_none(), "target section not found");
        assemble_container(SnapshotKind::ShardedIndex, c.dim, &sections)
    }

    #[test]
    fn sharded_index_round_trips_byte_identically() {
        let idx = sample_sharded(100, 32);
        let stats = idx.stats();
        assert!(stats.shards > 0 && stats.staged > 0 && stats.dead > 0);

        let bytes = save_sharded_index(&idx);
        let loaded = load_sharded_index::<2>(&bytes).unwrap();
        assert_eq!(loaded.stats(), stats);
        assert_eq!(loaded.seed(), idx.seed());
        assert_eq!(loaded.config().staging_cap, idx.config().staging_cap);
        assert_eq!(loaded.shard_sizes(), idx.shard_sizes());

        let probes = Workload::Clusters.generate::<2>(64, 11);
        for p in &probes {
            assert_eq!(
                loaded.try_covering(p).unwrap(),
                idx.try_covering(p).unwrap()
            );
            let a = loaded.try_knn(p, 3).unwrap();
            let b = idx.try_knn(p, 3).unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!((x.id, x.dist_sq.to_bits()), (y.id, y.dist_sq.to_bits()));
            }
        }
        // Saving the loaded index reproduces the exact bytes.
        assert_eq!(save_sharded_index(&loaded), bytes);

        let info = inspect(&bytes).unwrap();
        assert_eq!(info.kind, SnapshotKind::ShardedIndex);
        let tags: Vec<&str> = info.sections.iter().map(|s| s.tag.as_str()).collect();
        assert_eq!(tags, ["SMET", "SHRD", "GIDS", "TOMB", "STAG"]);
    }

    #[test]
    fn staging_only_sharded_index_round_trips() {
        let idx = sample_sharded(10, 64); // everything fits in staging
        assert_eq!(idx.stats().shards, 0);
        let bytes = save_sharded_index(&idx);
        let loaded = load_sharded_index::<2>(&bytes).unwrap();
        assert_eq!(loaded.stats(), idx.stats());
        assert_eq!(save_sharded_index(&loaded), bytes);
    }

    #[test]
    fn sharded_kind_and_dim_mismatches_are_typed() {
        let bytes = save_sharded_index(&sample_sharded(50, 16));
        assert_eq!(
            load_query_tree::<2>(&bytes).map(|t| t.len()),
            Err(SepdcError::Snapshot(SnapshotError::KindMismatch {
                found: SnapshotKind::ShardedIndex,
                expected: SnapshotKind::QueryTree,
            }))
        );
        assert_eq!(
            load_sharded_index::<3>(&bytes).map(|i| i.len()),
            Err(SepdcError::Snapshot(SnapshotError::DimensionMismatch {
                found: 2,
                expected: 3,
            }))
        );
        let tree_bytes = save_query_tree(&sample_tree(50));
        assert_eq!(
            load_sharded_index::<2>(&tree_bytes).map(|i| i.len()),
            Err(SepdcError::Snapshot(SnapshotError::KindMismatch {
                found: SnapshotKind::QueryTree,
                expected: SnapshotKind::ShardedIndex,
            }))
        );
    }

    #[test]
    fn sharded_adversarial_defects_are_rejected() {
        let bytes = save_sharded_index(&sample_sharded(100, 32));
        let expect_corrupt = |mutated: Vec<u8>, tag: &str| match load_sharded_index::<2>(&mutated)
            .map(|i| i.len())
        {
            Err(SepdcError::Snapshot(SnapshotError::Corrupt { tag: t, .. })) => {
                assert_eq!(t, tag)
            }
            other => panic!("expected Corrupt({tag}), got {other:?}"),
        };

        // A bit flip inside a nested shard snapshot fails that shard's
        // checksummed kind-1 validation, reported against SHRD.
        expect_corrupt(patch_sharded(&bytes, TAG_SHRD, |b| b[40] ^= 0xff), "SHRD");
        // Recorded live count disagreeing with the decoded population.
        expect_corrupt(
            patch_sharded(&bytes, TAG_SMET, |b| {
                let at = b.len() - 8;
                b[at..].copy_from_slice(&u64::MAX.to_le_bytes());
            }),
            "SMET",
        );
        // Duplicated global id (first id overwritten with the second).
        expect_corrupt(
            patch_sharded(&bytes, TAG_GIDS, |b| {
                let second = b[24..32].to_vec();
                b[16..24].copy_from_slice(&second);
            }),
            "GIDS",
        );
        // Tombstone word with every bit set: either a bit past the shard
        // length or a live-count disagreement, both typed.
        let mutated = patch_sharded(&bytes, TAG_TOMB, |b| {
            b[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        });
        assert!(matches!(
            load_sharded_index::<2>(&mutated).map(|i| i.len()),
            Err(SepdcError::Snapshot(SnapshotError::Corrupt { .. }))
        ));
        // Staged id at or above next_id.
        expect_corrupt(
            patch_sharded(&bytes, TAG_STAG, |b| {
                b[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
            }),
            "STAG",
        );
        // Truncation anywhere is typed, never a panic.
        for cut in [7, HEADER_LEN - 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(load_sharded_index::<2>(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
