//! The scheduling guarantees of the vendored `rayon` pool. Each test
//! forces its interleaving with flags and a bounded wait, never a sleep,
//! so an interleaving the pool cannot produce fails the test after
//! [`PATIENCE`] instead of hanging.
//!
//! - Nested steal: a `join` inside a `join` still offers its right half
//!   to an idle worker.
//! - Panics: a panic beside a stolen half waits for it, and a panic in a
//!   stolen half resumes on the caller.
//! - Two outside threads in one pool: one holds the pool, the other runs
//!   inline, and both get the sequential answer.
//! - An idle pool sleeps instead of spinning.
//! - A 1-thread pool runs everything on the calling thread.
//! - `ThreadPool::install` is scoped to the calling thread, and pool
//!   workers report their own pool's size.
//!
//! Every test holds [`SERIAL`], so no two of them share a pool at once.

use rayon::prelude::*;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

/// How long a forced interleaving may take before the test fails.
const PATIENCE: Duration = Duration::from_secs(10);

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn pool(n: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .unwrap()
}

/// Yields until `flag` is set; `false` once [`PATIENCE`] runs out.
fn wait_for(flag: &AtomicBool) -> bool {
    let start = Instant::now();
    while !flag.load(Ordering::Acquire) {
        if start.elapsed() > PATIENCE {
            return false;
        }
        thread::yield_now();
    }
    true
}

fn message(payload: &(dyn Any + Send)) -> Option<&str> {
    payload.downcast_ref::<&str>().copied()
}

#[test]
fn an_idle_worker_steals_from_a_nested_join() {
    let _serial = serial();
    let b_ran = AtomicBool::new(false);
    let ((), (a_saw_b, ())) = pool(2).install(|| {
        rayon::join(
            || (),
            || rayon::join(|| wait_for(&b_ran), || b_ran.store(true, Ordering::Release)),
        )
    });
    assert!(
        a_saw_b,
        "the nested join's right half did not run while its left half waited"
    );
}

#[test]
fn a_panic_beside_a_stolen_half_waits_for_it() {
    let _serial = serial();
    let b_started = AtomicBool::new(false);
    let a_panicking = AtomicBool::new(false);
    let b_finished = AtomicBool::new(false);
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        pool(2).install(|| {
            rayon::join(
                || {
                    assert!(wait_for(&b_started), "the right half was not stolen");
                    a_panicking.store(true, Ordering::Release);
                    panic!("left half");
                },
                || {
                    b_started.store(true, Ordering::Release);
                    // Keep running well after the left half panics.
                    wait_for(&a_panicking);
                    for _ in 0..1_000 {
                        thread::yield_now();
                    }
                    b_finished.store(true, Ordering::Release);
                },
            )
        })
    }));
    let payload = caught.expect_err("the left half's panic must resume");
    assert_eq!(message(payload.as_ref()), Some("left half"));
    assert!(
        b_finished.load(Ordering::Acquire),
        "join unwound while its stolen right half was still running"
    );
}

#[test]
fn a_panic_in_a_stolen_half_resumes_on_the_caller() {
    let _serial = serial();
    let b_started = AtomicBool::new(false);
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        pool(2).install(|| {
            rayon::join(
                || assert!(wait_for(&b_started), "the right half was not stolen"),
                || {
                    b_started.store(true, Ordering::Release);
                    panic!("right half");
                },
            )
        })
    }));
    let payload = caught.expect_err("the right half's panic must resume");
    assert_eq!(message(payload.as_ref()), Some("right half"));

    // The worker that caught the panic still takes jobs.
    let flag = AtomicBool::new(false);
    let (stolen, ()) =
        pool(2).install(|| rayon::join(|| wait_for(&flag), || flag.store(true, Ordering::Release)));
    assert!(stolen, "no worker took a job after a panic");
}

#[test]
fn two_outside_threads_share_one_pool() {
    let _serial = serial();
    let xs: Vec<u64> = (0..100_000).collect();
    let seq: Vec<u64> = xs.iter().map(|&x| x * 3 + 1).collect();
    let (pool, barrier) = (pool(2), Barrier::new(2));
    thread::scope(|s| {
        let runs: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    pool.install(|| {
                        barrier.wait();
                        xs.par_iter().map(|&x| x * 3 + 1).collect::<Vec<u64>>()
                    })
                })
            })
            .collect();
        for run in runs {
            assert_eq!(run.join().unwrap(), seq);
        }
    });
}

/// This process's user plus system CPU time, in `/proc` clock ticks
/// (USER_HZ, 100 per second).
#[cfg(target_os = "linux")]
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
    // The fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 1..]
        .split_whitespace()
        .collect();
    fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap()
}

#[cfg(target_os = "linux")]
#[test]
fn an_idle_pool_sleeps() {
    let _serial = serial();
    pool(2).install(|| rayon::join(|| (), || ()));
    let (start, ticks) = (Instant::now(), cpu_ticks());
    thread::sleep(Duration::from_millis(500));
    let busy_s = (cpu_ticks() - ticks) as f64 / 100.0;
    let wall_s = start.elapsed().as_secs_f64();
    assert!(
        busy_s < 0.1 * wall_s,
        "an idle pool used {busy_s} s of CPU over {wall_s} s"
    );
}

#[test]
fn a_one_thread_pool_runs_both_halves_on_the_caller() {
    let _serial = serial();
    let me = thread::current().id();
    let (a, b) =
        pool(1).install(|| rayon::join(|| thread::current().id(), || thread::current().id()));
    assert_eq!((a, b), (me, me));
    let ids: Vec<_> = pool(1).install(|| {
        (0..1_000)
            .into_par_iter()
            .map(|_| thread::current().id())
            .collect()
    });
    assert!(ids.iter().all(|&id| id == me));
}

#[test]
fn install_is_scoped_to_the_calling_thread() {
    let _serial = serial();
    let barrier = Barrier::new(2);
    thread::scope(|s| {
        let runs: Vec<_> = [2, 3]
            .into_iter()
            .map(|n| {
                let barrier = &barrier;
                s.spawn(move || {
                    pool(n).install(|| {
                        // Both pools are installed before either thread
                        // reads its count.
                        barrier.wait();
                        let seen = rayon::current_num_threads();
                        barrier.wait();
                        (n, seen)
                    })
                })
            })
            .collect();
        for run in runs {
            let (n, seen) = run.join().unwrap();
            assert_eq!(seen, n, "a thread that installed {n} threads saw {seen}");
        }
    });
}

#[test]
fn a_worker_reports_its_own_pool_size() {
    let _serial = serial();
    let me = thread::current().id();
    let b_ran = AtomicBool::new(false);
    let (stolen, (id, n)) = pool(3).install(|| {
        rayon::join(
            || wait_for(&b_ran),
            || {
                b_ran.store(true, Ordering::Release);
                (thread::current().id(), rayon::current_num_threads())
            },
        )
    });
    assert!(stolen, "the right half was not stolen");
    assert_ne!(id, me, "the right half ran on the caller");
    assert_eq!(n, 3);
}
