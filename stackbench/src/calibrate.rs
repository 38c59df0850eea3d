//! Host-speed calibration.
//!
//! On a shared host the speed of memory-bound code drifts by a third and
//! more within a minute, as neighbours load the caches and memory the
//! machine shares: the same n-queens(10) solve takes 46 ms in one run and
//! 71 ms in the next. A run of 30 s cannot average that away, so two
//! runs of the same code disagree by more than any useful bound.
//!
//! The drift is common to all code that works like the stack, so the
//! benchmark measures it. A [`Kernel`] is fixed work of the same kind
//! (hash-map inserts into a table of a few MB, small boxed allocations
//! through a queue, and a branchy integer loop where the workload
//! searches), shaped like one workload: on as many threads as it runs,
//! meeting at barriers about as often as it waits at them. The kernel
//! is part of the benchmark, not of the program. Timed samples are
//! taken between two kernel runs, and [`Speed::scale`] turns a sample's
//! wall time into wall time at the reference speed, the one at which the
//! kernel takes its `reference_s`.
//!
//! On a 2-vCPU shared Xeon VM, five 30-s `queens_seq` runs whose median
//! solve times spread by 0.34 of their median as measured spread by 0.01
//! once scaled (README.md has the details). A change to the program
//! moves the samples but not the kernel, so the scaled figures move with
//! the program as the raw ones would on a steady host.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// Boxed values held in a kernel thread's queue at once.
const QUEUED: usize = 4096;

/// A calibration kernel shaped like one workload: `threads` threads at
/// once, each making `keys` hash-map inserts into a fresh, growing table
/// (100,000 keys make about 3 MB), pushing as many small boxes through a
/// queue and running `branchy` steps of a branchy integer loop, split
/// into `rounds` equal rounds with a barrier wait after each.
#[derive(Clone, Copy)]
pub struct Kernel {
    pub threads: usize,
    pub keys: u64,
    pub branchy: u64,
    pub rounds: u64,
    /// The kernel's wall time at the reference speed: about its time on
    /// a 2-vCPU shared Xeon VM with quiet neighbours, so that scaled
    /// figures read like raw ones there.
    pub reference_s: f64,
}

impl Kernel {
    /// Wall time of one run of the kernel. One of its threads is the
    /// calling one, so a one-thread kernel runs on the CPU that the
    /// caller's samples run on; the CPUs of a shared host can differ in
    /// speed at the same moment.
    pub fn time_s(&self) -> f64 {
        let barrier = Barrier::new(self.threads);
        let t = Instant::now();
        std::thread::scope(|scope| {
            for _ in 1..self.threads {
                scope.spawn(|| black_box(self.work(&barrier)));
            }
            black_box(self.work(&barrier));
        });
        t.elapsed().as_secs_f64()
    }

    /// One thread's share.
    fn work(&self, barrier: &Barrier) -> u64 {
        let mut map = HashMap::new();
        let mut queue: VecDeque<Box<[u64; 6]>> = VecDeque::with_capacity(QUEUED + 1);
        let mut sum = 0u64;
        for i in 0..self.keys {
            map.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i);
            queue.push_back(Box::new([i; 6]));
            if queue.len() > QUEUED {
                sum = sum.wrapping_add(queue.pop_front().map_or(0, |b| b[5]));
            }
            if (i + 1) % (self.keys / self.rounds) == 0 {
                sum = sum.wrapping_add(branchy(self.branchy / self.rounds, sum));
                barrier.wait();
            }
        }
        sum.wrapping_add(map.len() as u64)
    }
}

/// `steps` steps of a xorshift generator that branch on its low bits:
/// compute-bound work with unpredictable branches, like a DPLL search's.
fn branchy(steps: u64, seed: u64) -> u64 {
    let mut z = black_box(seed) | 1;
    let mut acc = 0u64;
    for i in 0..steps {
        z ^= z << 13;
        z ^= z >> 7;
        z ^= z << 17;
        match z & 7 {
            1 => acc = acc.wrapping_add(z >> 3),
            2 => acc ^= i,
            _ => acc = acc.rotate_left(3),
        }
    }
    acc
}

/// The host's speed around timed samples, from runs of a kernel just
/// before and just after them.
#[derive(Clone, Copy)]
pub struct Speed {
    kernel: Kernel,
    before_s: f64,
    after_s: f64,
}

impl Speed {
    pub fn new(kernel: Kernel, before_s: f64, after_s: f64) -> Speed {
        Speed {
            kernel,
            before_s,
            after_s,
        }
    }

    /// The kernel's mean time around the samples.
    pub fn kernel_s(&self) -> f64 {
        (self.before_s + self.after_s) / 2.0
    }

    /// A wall time (in any unit) at the reference speed.
    pub fn scale(&self, wall: f64) -> f64 {
        wall * self.kernel.reference_s / self.kernel_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KERNEL: Kernel = Kernel {
        threads: 2,
        keys: 1000,
        branchy: 1000,
        rounds: 10,
        reference_s: 0.5,
    };

    #[test]
    fn scaling_is_relative_to_the_kernel_around_the_samples() {
        assert_eq!(Speed::new(KERNEL, 0.5, 0.5).scale(0.25), 0.25);
        // A host twice as slow as the reference halves the figure.
        assert!((Speed::new(KERNEL, 0.5, 1.5).scale(0.25) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn kernel_runs_on_its_threads() {
        assert!(KERNEL.time_s() > 0.0);
    }
}
