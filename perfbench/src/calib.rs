//! Machine-speed calibration.
//!
//! The benchmark runs on shared virtual machines whose CPU speed drifts as
//! other tenants come and go. On a 2-core x86-64 VM, one fixed integer loop
//! took 60–100 ms per 3-second window. Over ten seeds, identical benchmark
//! work had a 13–39% quartile spread of wall time, and longer runs did not
//! narrow it. The drift differs between the two cores at the same moment.
//!
//! So a sampler thread on the *same* core as the benchmark times a fixed
//! kernel every 100 ms. Each reported time is scaled by the reference kernel
//! time over the mean kernel time while that work ran. In two tests of nine
//! consecutive cold passes, the quartile spread of pass times went from 12%
//! raw to 10% scaled, and from 12% to 3%. In a ten-seed set of `cold_mid`
//! runs whose durations ranged from 20 s to 31 s, scaled `wall_s` had a 14%
//! spread. A kernel timed between batches on the benchmark's own thread,
//! rather than by a sampler, did not reduce the spread at all.
//!
//! The kernel first reads its 4 MiB buffer sequentially, then does random
//! read-modify-writes on it. The first step means its timing does not
//! depend on what the benchmark left in the caches. The sampler costs the
//! measured thread about 1% of the core. Sampling every 25 ms instead did
//! not steady the short windows (the 3-second set-up, the half-second warm
//! re-verification of a round) in seven alternating pairs of runs. The
//! kernel is benchmark code: a change to the program cannot change its
//! speed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Kernel time that maps to a scale factor of 1: about the kernel's mean on
/// the 2-core VM the nominal round times were measured on.
const REFERENCE_S: f64 = 160e-6;

/// Time between two kernel timings.
const INTERVAL: Duration = Duration::from_millis(100);

/// Random read-modify-writes per kernel timing.
const ITERATIONS: u32 = 20_000;

type Timings = Arc<Mutex<Vec<(Instant, f64)>>>;

/// A running sampler thread; stopped and joined on drop.
pub struct Sampler {
    timings: Timings,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Starts the sampler. It inherits the calling thread's CPU affinity, so
    /// pin that thread to one CPU first.
    pub fn start() -> Sampler {
        let timings: Timings = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let (timings, stop) = (timings.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut buf = vec![1u32; 1 << 20];
                while !stop.load(Ordering::Relaxed) {
                    let t = kernel_s(&mut buf);
                    timings
                        .lock()
                        .expect("sampler lock poisoned")
                        .push((Instant::now(), t));
                    std::thread::sleep(INTERVAL);
                }
            })
        };
        Sampler {
            timings,
            stop,
            handle: Some(handle),
        }
    }

    /// Mean kernel time of the timings taken between `from` and `to`, or of
    /// all timings if none fell in that window.
    fn mean_kernel_s(&self, from: Instant, to: Instant) -> f64 {
        let timings = self.timings.lock().expect("sampler lock poisoned");
        let mean = |ts: Vec<f64>| ts.iter().sum::<f64>() / ts.len() as f64;
        let window: Vec<f64> = timings
            .iter()
            .filter(|(at, _)| (from..=to).contains(at))
            .map(|&(_, t)| t)
            .collect();
        if window.is_empty() {
            mean(timings.iter().map(|&(_, t)| t).collect())
        } else {
            mean(window)
        }
    }

    /// Scale factor for work done between `from` and `to`: the reference
    /// kernel time over the mean kernel time meanwhile. 1 before the first
    /// timing.
    pub fn factor(&self, from: Instant, to: Instant) -> f64 {
        let mean = self.mean_kernel_s(from, to);
        if mean.is_finite() && mean > 0.0 {
            REFERENCE_S / mean
        } else {
            1.0
        }
    }

    /// Number of kernel timings so far.
    pub fn timings(&self) -> usize {
        self.timings.lock().expect("sampler lock poisoned").len()
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.join().ok();
        }
    }
}

/// One kernel timing, in seconds: a sequential read of the whole buffer
/// (untimed), then random read-modify-writes (timed).
fn kernel_s(buf: &mut [u32]) -> f64 {
    let mut warm = 0u32;
    for line in buf.iter().step_by(16) {
        warm = warm.wrapping_add(*line);
    }
    std::hint::black_box(warm);
    let start = Instant::now();
    let mut x: u32 = 0x9e37_79b9;
    let mut acc = 0u32;
    let n = buf.len();
    for _ in 0..ITERATIONS {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let i = x as usize % n;
        acc = acc.wrapping_add(buf[i]);
        buf[i] = acc ^ x;
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}
