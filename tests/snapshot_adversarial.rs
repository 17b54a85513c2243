//! Snapshot bytes are adversarial input: a file off disk, a daemon `swap`
//! request. This suite attacks the container — truncation at every
//! length, flipped magic, version drift, corrupted bodies, resealed
//! structural lies — and requires a typed [`SepdcError`] for every one,
//! never a panic, never an unbounded allocation. The property tests then
//! pin the other half of the contract: a loaded tree is byte-identical to
//! the tree it was saved from, on every thread count.

use proptest::prelude::*;
use sepdc::core::serve::{CoverPredicate, ServeConfig};
use sepdc::core::snapshot::{self, HEADER_LEN, TABLE_ENTRY_LEN};
use sepdc::core::{
    kdtree_all_knn, load_partition_tree, load_query_tree, parallel_knn, save_partition_tree,
    save_query_tree, KnnDcConfig, NeighborhoodSystem, QueryTree, QueryTreeConfig, SepdcError,
    SnapshotError, SNAPSHOT_VERSION,
};
use sepdc::workloads::Workload;

fn build_tree(n: usize, k: usize, seed: u64) -> QueryTree<2> {
    let pts = Workload::Clusters.generate::<2>(n, seed);
    let knn = kdtree_all_knn(&pts, k);
    let sys = NeighborhoodSystem::from_knn(&pts, &knn);
    QueryTree::build::<3>(sys.balls(), QueryTreeConfig::default(), seed)
}

fn fixture_bytes() -> Vec<u8> {
    save_query_tree(&build_tree(300, 2, 11))
}

/// Every decode path a hostile snapshot can reach, in one place. Returns
/// the typed error (panics are what this suite exists to rule out).
fn try_all_loads(bytes: &[u8]) -> Vec<Result<(), SepdcError>> {
    vec![
        snapshot::inspect(bytes).map(drop),
        load_query_tree::<2>(bytes).map(drop),
        load_partition_tree::<2>(bytes).map(drop),
        // Wrong dimension on purpose: dimension checks must also be typed.
        load_query_tree::<3>(bytes).map(drop),
    ]
}

/// Locate section `tag`'s table entry and body range inside `bytes`.
fn find_section(bytes: &[u8], tag: &[u8; 4]) -> (usize, std::ops::Range<usize>) {
    let count = u32::from_le_bytes(bytes[20..24].try_into().unwrap()) as usize;
    for i in 0..count {
        let at = HEADER_LEN + i * TABLE_ENTRY_LEN;
        if &bytes[at..at + 4] == tag {
            let offset = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
            let len = u64::from_le_bytes(bytes[at + 12..at + 20].try_into().unwrap()) as usize;
            return (at, offset..offset + len);
        }
    }
    panic!("section {:?} not found", std::str::from_utf8(tag));
}

/// Recompute and rewrite the table checksum for `tag` — the attacker who
/// edits a body and reseals it, so only semantic validation can object.
fn reseal(bytes: &mut [u8], tag: &[u8; 4]) {
    let (entry, body) = find_section(bytes, tag);
    let sum = snapshot::fnv1a64(&bytes[body]);
    bytes[entry + 20..entry + 28].copy_from_slice(&sum.to_le_bytes());
}

/// Replace section `tag`'s body with `body`, shift the offsets of the
/// bodies behind it, and reseal — a well-formed container around a hostile
/// section of a different length.
fn replace_section(bytes: &[u8], tag: &[u8; 4], body: &[u8]) -> Vec<u8> {
    let (entry, old) = find_section(bytes, tag);
    let mut out = [&bytes[..old.start], body, &bytes[old.end..]].concat();
    let count = u32::from_le_bytes(out[20..24].try_into().unwrap()) as usize;
    for i in 0..count {
        let at = HEADER_LEN + i * TABLE_ENTRY_LEN + 4;
        let offset = u64::from_le_bytes(out[at..at + 8].try_into().unwrap());
        if offset as usize > old.start {
            let moved = offset + body.len() as u64 - old.len() as u64;
            out[at..at + 8].copy_from_slice(&moved.to_le_bytes());
        }
    }
    out[entry + 12..entry + 20].copy_from_slice(&(body.len() as u64).to_le_bytes());
    reseal(&mut out, tag);
    out
}

#[test]
fn every_truncation_is_a_typed_error() {
    let bytes = fixture_bytes();
    // Every length through the header and table, then a coprime stride
    // through the bodies so cut points land on every alignment class.
    let dense_until = HEADER_LEN + 4 * TABLE_ENTRY_LEN + 64;
    let mut lengths: Vec<usize> = (0..dense_until.min(bytes.len())).collect();
    lengths.extend((dense_until..bytes.len()).step_by(7));
    for len in lengths {
        for r in try_all_loads(&bytes[..len]) {
            assert!(r.is_err(), "truncation to {len} bytes decoded successfully");
        }
    }
}

#[test]
fn flipped_magic_is_bad_magic() {
    let mut bytes = fixture_bytes();
    bytes[0] ^= 0x40;
    for r in try_all_loads(&bytes) {
        assert_eq!(r, Err(SepdcError::Snapshot(SnapshotError::BadMagic)));
    }
}

#[test]
fn version_drift_is_typed() {
    let mut bytes = fixture_bytes();
    let next = SNAPSHOT_VERSION + 1;
    bytes[8..12].copy_from_slice(&next.to_le_bytes());
    for r in try_all_loads(&bytes) {
        assert_eq!(
            r,
            Err(SepdcError::Snapshot(SnapshotError::UnsupportedVersion {
                found: next,
                expected: SNAPSHOT_VERSION,
            }))
        );
    }
}

#[test]
fn corrupting_any_section_body_is_a_checksum_mismatch() {
    let clean = fixture_bytes();
    for tag in [b"META", b"BALL", b"NODE", b"LFID"] {
        let mut bytes = clean.clone();
        let (_, body) = find_section(&bytes, tag);
        bytes[body.start + body.len() / 2] ^= 0x01;
        let err = load_query_tree::<2>(&bytes).map(drop).unwrap_err();
        let SepdcError::Snapshot(SnapshotError::ChecksumMismatch { tag: got }) = err else {
            panic!("{:?}: expected ChecksumMismatch, got {err:?}", tag);
        };
        assert_eq!(got.as_bytes(), tag);
        // `inspect` catches it too, without reconstructing anything.
        assert!(snapshot::inspect(&bytes).is_err());
    }
}

#[test]
fn resealed_out_of_bounds_leaf_id_is_corrupt() {
    let mut bytes = fixture_bytes();
    // LFID body: u64 count, then u32 ids — overwrite the first id with an
    // index far past n and reseal so the checksum is clean.
    let (_, body) = find_section(&bytes, b"LFID");
    bytes[body.start + 8..body.start + 12].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut bytes, b"LFID");
    let err = load_query_tree::<2>(&bytes).map(drop).unwrap_err();
    assert!(
        matches!(
            &err,
            SepdcError::Snapshot(SnapshotError::Corrupt { tag: "LFID", .. })
        ),
        "{err:?}"
    );
}

#[test]
fn resealed_forward_child_reference_is_corrupt() {
    let mut bytes = fixture_bytes();
    // NODE body: u64 count, then records — leaf: tag 0, start u64, len
    // u64; internal: tag 1|2, left u32, right u32, (D+1) f64. Walk to the
    // first internal record and point its left child at the root (a
    // forward reference the bottom-up rebuild must reject).
    let (_, body) = find_section(&bytes, b"NODE");
    let count = u64::from_le_bytes(bytes[body.start..body.start + 8].try_into().unwrap());
    let mut at = body.start + 8;
    loop {
        assert!(at < body.end, "no internal node in fixture");
        match bytes[at] {
            0 => at += 1 + 16,
            1 | 2 => break,
            t => panic!("unknown node tag {t}"),
        }
    }
    bytes[at + 1..at + 5].copy_from_slice(&((count - 1) as u32).to_le_bytes());
    reseal(&mut bytes, b"NODE");
    let err = load_query_tree::<2>(&bytes).map(drop).unwrap_err();
    assert!(
        matches!(
            &err,
            SepdcError::Snapshot(SnapshotError::Corrupt { tag: "NODE", .. })
        ),
        "{err:?}"
    );
}

#[test]
fn resealed_huge_array_length_cannot_allocate() {
    let mut bytes = fixture_bytes();
    // Claim 2^61 leaf ids: the reader must reject the count against the
    // remaining byte budget instead of trying to reserve the memory.
    let (_, body) = find_section(&bytes, b"LFID");
    bytes[body.start..body.start + 8].copy_from_slice(&(1u64 << 61).to_le_bytes());
    reseal(&mut bytes, b"LFID");
    let err = load_query_tree::<2>(&bytes).map(drop).unwrap_err();
    let SepdcError::Snapshot(SnapshotError::Corrupt {
        tag: "LFID",
        detail,
    }) = &err
    else {
        panic!("{err:?}");
    };
    assert!(detail.contains("exceeds section size"), "{detail}");
}

#[test]
fn resealed_short_meta_is_truncated() {
    // The query-tree META is a fixed 17 words. A 15-word META (missing
    // the precision words) is a typed error, not a defaulted load.
    let bytes = fixture_bytes();
    let (_, body) = find_section(&bytes, b"META");
    assert_eq!(body.len(), 17 * 8);
    let short = replace_section(&bytes, b"META", &bytes[body.start..body.start + 15 * 8]);
    assert!(
        snapshot::inspect(&short).is_ok(),
        "container must stay well-formed"
    );
    assert_eq!(
        load_query_tree::<2>(&short).map(drop),
        Err(SepdcError::Snapshot(SnapshotError::Truncated {
            context: "META"
        }))
    );
}

#[test]
fn resealed_retired_splitter_code_is_corrupt() {
    // META word 15 is the splitter code; code 1 belonged to a backend that
    // no longer exists.
    let mut bytes = fixture_bytes();
    let (_, body) = find_section(&bytes, b"META");
    let at = body.start + 14 * 8;
    bytes[at..at + 8].copy_from_slice(&1u64.to_le_bytes());
    reseal(&mut bytes, b"META");
    let err = load_query_tree::<2>(&bytes).map(drop).unwrap_err();
    let SepdcError::Snapshot(SnapshotError::Corrupt {
        tag: "META",
        detail,
    }) = &err
    else {
        panic!("{err:?}");
    };
    assert!(detail.contains("unknown splitter code 1"), "{detail}");
}

#[test]
fn random_garbage_never_panics() {
    use rand::{RngCore, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xC0FFEE);
    for len in [0usize, 1, 8, 24, 52, 200, 4096] {
        for _ in 0..50 {
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u32() as u8).collect();
            for r in try_all_loads(&bytes) {
                assert!(r.is_err());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// build → save → load → serve is byte-identical to serving the fresh
    /// tree, for every predicate and thread count — the acceptance
    /// parity sweep (1/2/7-thread pools), extended across the disk
    /// boundary.
    #[test]
    fn loaded_tree_serves_byte_identically(
        n in 20usize..400,
        k in 1usize..4,
        seed in 0u64..1000,
        chunk in 16usize..96,
    ) {
        let fresh = build_tree(n, k, seed);
        let bytes = save_query_tree(&fresh);
        let loaded = load_query_tree::<2>(&bytes).unwrap();
        // Saving the loaded tree reproduces the file bit for bit.
        prop_assert_eq!(&save_query_tree(&loaded), &bytes);

        let probes = Workload::UniformCube.generate::<2>(200, seed ^ 0x5eed);
        let cfg = ServeConfig { chunk_size: chunk, parallel_threshold: 0, ..ServeConfig::default() };
        for pred in [CoverPredicate::Closed, CoverPredicate::Open] {
            let want = fresh.try_serve(&probes, pred, &cfg).unwrap();
            for threads in [1usize, 2, 7] {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                let got = pool.install(|| loaded.try_serve(&probes, pred, &cfg)).unwrap();
                prop_assert_eq!(
                    got.result.offsets(), want.result.offsets(),
                    "{} predicate, {} threads", pred.name(), threads);
                prop_assert_eq!(
                    got.result.ids(), want.result.ids(),
                    "{} predicate, {} threads", pred.name(), threads);
            }
        }
    }

    /// Partition trees round-trip exactly too: same arena, same
    /// permutation, same leaf assignment for every point.
    #[test]
    fn partition_tree_round_trips(
        n in 20usize..300,
        k in 1usize..3,
        seed in 0u64..1000,
    ) {
        let pts = Workload::Clusters.generate::<2>(n, seed);
        let out = parallel_knn::<2, 3>(&pts, &KnnDcConfig::new(k).with_seed(seed));
        let bytes = save_partition_tree(&out.tree);
        let loaded = load_partition_tree::<2>(&bytes).unwrap();
        prop_assert_eq!(&save_partition_tree(&loaded), &bytes);
        prop_assert_eq!(loaded.perm(), out.tree.perm());
        prop_assert_eq!(loaded.nodes().len(), out.tree.nodes().len());
        prop_assert_eq!(loaded.size(), out.tree.size());
        prop_assert_eq!(loaded.height(), out.tree.height());
        prop_assert_eq!(loaded.leaves(), out.tree.leaves());
    }
}
