//! Churn oracle for [`sepdc_core::ShardedIndex`]: random
//! insert/delete/query interleavings checked three ways —
//!
//! 1. every query answer equals a brute multiset oracle over the balls
//!    alive at that instant (closed covering, interior covering, k-NN by
//!    the `(dist_sq.to_bits(), id)` total order);
//! 2. the full query transcript and the churned index's snapshot bytes
//!    are identical across 1-, 2- and 7-thread rayon pools (determinism at
//!    every thread count; answers do not depend on the shard layout, so
//!    only the bytes show a rebuild that does);
//! 3. the post-churn index answers identically to *fresh* builds over the
//!    surviving entries — another incremental layout, a bulk
//!    `from_entries` layout, and a plain single [`QueryTree`] — so shard
//!    layout is unobservable through the query API.

use proptest::prelude::*;
use sepdc_core::serve::{CoverPredicate, ServeConfig};
use sepdc_core::{save_sharded_index, QueryTree, QueryTreeConfig, ShardedConfig, ShardedIndex};
use sepdc_geom::ball::Ball;
use sepdc_geom::Point;

const POOLS: [usize; 3] = [1, 2, 7];
const MASTER_SEED: u64 = 42;

/// One scripted operation, decoded from raw proptest draws.
#[derive(Clone, Debug)]
enum Op {
    Insert(Ball<2>),
    /// Delete the i-th (mod live count) surviving entry.
    Delete(usize),
    /// Probe with covering + interior covering + k-NN.
    Query(Point<2>, usize),
}

/// Decode raw `(selector, [x, y, r], aux)` tuples into a churn script.
/// Inserts get double weight so scripts grow and carries actually fire.
fn decode(raw: &[(u32, [f64; 3], usize)]) -> Vec<Op> {
    raw.iter()
        .map(|&(sel, [x, y, r], aux)| match sel % 4 {
            0 | 1 => Op::Insert(Ball::new(Point::from([x, y]), 0.02 + 0.25 * r)),
            2 => Op::Delete(aux),
            _ => Op::Query(Point::from([x, y]), 1 + aux % 5),
        })
        .collect()
}

/// Brute oracle answers over the live `(id, ball)` multiset.
fn oracle_covering(live: &[(u64, Ball<2>)], p: &Point<2>, open: bool) -> Vec<u64> {
    let mut out: Vec<u64> = live
        .iter()
        .filter(|(_, b)| {
            if open {
                b.contains_interior(p)
            } else {
                b.contains(p)
            }
        })
        .map(|(id, _)| *id)
        .collect();
    out.sort_unstable();
    out
}

fn oracle_knn(live: &[(u64, Ball<2>)], p: &Point<2>, k: usize) -> Vec<(u64, u64)> {
    let mut keys: Vec<(u64, u64)> = live
        .iter()
        .map(|(id, b)| (b.center.dist_sq(p).to_bits(), *id))
        .collect();
    keys.sort_unstable();
    keys.truncate(k);
    keys
}

/// Everything one scripted run leaves behind.
struct Run {
    /// The serialized query answers, in script order.
    transcript: Vec<String>,
    /// `save_sharded_index` of the churned index.
    snapshot: Vec<u8>,
    index: ShardedIndex<2>,
    /// The surviving `(id, ball)` entries.
    live: Vec<(u64, Ball<2>)>,
}

/// Run the script inside a pool of `threads` workers, checking every
/// query against the oracle as it happens.
fn run_script(ops: &[Op], staging_cap: usize, threads: usize) -> Run {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(|| {
        let cfg = ShardedConfig {
            staging_cap,
            ..ShardedConfig::default()
        };
        let mut idx = ShardedIndex::new(cfg, MASTER_SEED).unwrap();
        let mut live: Vec<(u64, Ball<2>)> = Vec::new();
        let mut transcript = Vec::new();
        for op in ops {
            match op {
                Op::Insert(b) => {
                    let ids = idx.try_insert_batch::<3>(std::slice::from_ref(b)).unwrap();
                    live.push((ids[0], *b));
                }
                Op::Delete(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (id, _) = live.remove(i % live.len());
                    assert!(idx.delete_batch(&[id])[0], "live id {id} must delete");
                }
                Op::Query(p, k) => {
                    let cov = idx.try_covering(p).unwrap();
                    assert_eq!(cov, oracle_covering(&live, p, false), "covering at {p:?}");
                    let int = idx.try_covering_interior(p).unwrap();
                    assert_eq!(int, oracle_covering(&live, p, true), "interior at {p:?}");
                    let knn: Vec<(u64, u64)> = idx
                        .try_knn(p, *k)
                        .unwrap()
                        .iter()
                        .map(|n| (n.dist_sq.to_bits(), n.id))
                        .collect();
                    assert_eq!(knn, oracle_knn(&live, p, *k), "knn at {p:?}");
                    transcript.push(format!("{cov:?}|{int:?}|{knn:?}"));
                }
            }
        }
        Run {
            transcript,
            snapshot: save_sharded_index(&idx),
            index: idx,
            live,
        }
    })
}

/// Answers of one index over a probe set, in a layout-free serialization
/// (covering rows are ascending global ids by contract).
fn fingerprint(idx: &ShardedIndex<2>, probes: &[Point<2>]) -> Vec<String> {
    let batch = idx
        .try_covering_batch(probes, CoverPredicate::Closed, &ServeConfig::default())
        .unwrap();
    probes
        .iter()
        .enumerate()
        .map(|(i, p)| {
            assert_eq!(
                batch.hits(i),
                idx.try_covering(p).unwrap(),
                "batch and single-probe paths must agree"
            );
            let knn: Vec<(u64, u64)> = idx
                .try_knn(p, 3)
                .unwrap()
                .iter()
                .map(|n| (n.dist_sq.to_bits(), n.id))
                .collect();
            format!("{:?}|{knn:?}", batch.hits(i))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn churn_is_oracle_correct_thread_deterministic_and_layout_free(
        raw in proptest::collection::vec(
            (0u32..1024, [0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0], 0usize..4096),
            40..120,
        ),
        staging_cap in 1usize..9,
    ) {
        let ops = decode(&raw);

        // (1) + (2): oracle checks run inside every pool; transcripts and
        // snapshots must agree bit for bit across thread counts.
        let Run { transcript, snapshot, index: idx, live } =
            run_script(&ops, staging_cap, POOLS[0]);
        for &threads in &POOLS[1..] {
            let run = run_script(&ops, staging_cap, threads);
            prop_assert_eq!(&run.transcript, &transcript, "transcript differs at {} threads", threads);
            prop_assert!(run.snapshot == snapshot, "snapshot bytes differ at {} threads", threads);
        }

        // (3) layout independence: the churned index vs fresh builds over
        // the survivors. `from_entries` sorts into one compact shard; a
        // different staging capacity produces yet another slot layout.
        let mut entries = live.clone();
        entries.sort_unstable_by_key(|(id, _)| *id);
        let probes: Vec<Point<2>> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Query(p, _) => Some(*p),
                _ => None,
            })
            .chain([Point::from([0.5, 0.5]), Point::from([0.05, 0.95])])
            .collect();
        let base_fp = fingerprint(&idx, &probes);
        let bulk =
            ShardedIndex::from_entries::<3>(&entries, idx.config(), MASTER_SEED).unwrap();
        prop_assert_eq!(&fingerprint(&bulk, &probes), &base_fp);
        let other_cap = ShardedIndex::from_entries::<3>(
            &entries,
            ShardedConfig { staging_cap: staging_cap + 3, ..ShardedConfig::default() },
            MASTER_SEED + 1,
        )
        .unwrap();
        prop_assert_eq!(&fingerprint(&other_cap, &probes), &base_fp);

        // A plain single-tree build over the survivors answers the same
        // covering sets once its local indices map back to global ids.
        if !entries.is_empty() {
            let balls: Vec<Ball<2>> = entries.iter().map(|(_, b)| *b).collect();
            let tree =
                QueryTree::try_build::<3>(&balls, QueryTreeConfig::default(), 7).unwrap();
            for p in &probes {
                let mut got: Vec<u64> = tree
                    .try_covering(p)
                    .unwrap()
                    .into_iter()
                    .map(|local| entries[local as usize].0)
                    .collect();
                got.sort_unstable();
                prop_assert_eq!(got, idx.try_covering(p).unwrap(), "probe {:?}", p);
            }
        }
    }
}
