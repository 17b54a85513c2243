//! Host-speed probes: fixed computations of the benchmark's own, timed
//! right before and right after every measured operation.
//!
//! The host is a shared virtual machine whose speed drifts by up to 1.8x
//! over minutes, and how much a slow stretch costs depends on what the
//! code does: over ten runs, the message probe below spread by 15–35%
//! (interquartile range over median) while the arithmetic one spread by
//! 4–8%. So each kind of workload has the probe
//! that does what it spends its time on: the k-NN calls compute on every
//! CPU, the daemon sessions pass short messages between threads on one
//! CPU. An operation's time, divided by the faster of its two probes and
//! multiplied by the probe's reference time, is its time on a host where
//! the probe takes the reference time. No change to the program can move
//! a probe, so a change's effect survives the scaling.

use std::hint::black_box;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::Instant;

/// Time of [`compute_s`] at the reference host speed (near its time on
/// the 2-vCPU host the measured sets in `BENCHMARK.md` come from).
pub const COMPUTE_REFERENCE_S: f64 = 0.005;
/// Time of [`switch_s`] at the reference host speed.
pub const SWITCH_REFERENCE_S: f64 = 0.016;

/// Steps of the dependent floating-point chain (about 5 ms on a 2 GHz
/// core).
const STEPS: u64 = 1_000_000;
/// Round trips of the message probe.
const ROUND_TRIPS: usize = 2_000;

fn chain() -> f64 {
    let mut x = 1.0f64;
    for i in 0..STEPS {
        x = black_box(x * 1.000_000_1 + (i & 7) as f64 * 1e-9);
    }
    x
}

/// Wall seconds of the chain run at once on `threads` threads.
pub fn compute_s(threads: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|_| s.spawn(chain)).collect();
        black_box(chain());
        for o in others {
            black_box(o.join().expect("the probe thread does not panic"));
        }
    });
    start.elapsed().as_secs_f64()
}

/// Wall seconds of `ROUND_TRIPS` 64-byte round trips over a socket pair
/// between the calling thread and one it starts (which shares the
/// caller's CPU when the caller is pinned).
pub fn switch_s() -> f64 {
    let (mut a, mut b) = UnixStream::pair().expect("a socket pair opens");
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut buf = [0u8; 64];
            for _ in 0..ROUND_TRIPS {
                b.read_exact(&mut buf).expect("the probe peer answers");
                b.write_all(&buf).expect("the probe peer answers");
            }
        });
        let mut buf = [7u8; 64];
        for _ in 0..ROUND_TRIPS {
            a.write_all(&buf).expect("the probe peer reads");
            a.read_exact(&mut buf).expect("the probe peer reads");
        }
    });
    start.elapsed().as_secs_f64()
}

/// Factor that takes times measured between two probes of one kind to
/// the reference host speed.
pub fn scale(reference_s: f64, before_s: f64, after_s: f64) -> f64 {
    reference_s / before_s.min(after_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_take_time_and_scale_by_the_faster_one() {
        assert!(compute_s(2) > 0.0 && switch_s() > 0.0);
        assert_eq!(scale(0.005, 0.010, 0.0125), 0.5);
        assert_eq!(scale(0.005, 0.0025, 0.004), 2.0);
    }
}
