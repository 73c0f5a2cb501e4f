//! Host-speed probe: the timings are reported at a fixed reference speed.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts by
//! tens of percent over seconds to minutes, and every timing of a run moves
//! with it. A thread's CPU time does not help (the thread is on its core
//! almost the whole time; the core itself runs slower), and neither does a
//! best-of statistic (the slow spells outlast a run). So a fixed, CPU-bound
//! kernel of the benchmark's own — sorting [`PROBE_LEN`] pseudo-random
//! integers, which stay in L1 — is timed between requests, and a duration
//! measured meanwhile is multiplied by [`REFERENCE_S`] over the median probe
//! time. It then reads as on a host where the probe takes `REFERENCE_S`. The
//! probe runs no library code, so a change to the library moves the scaled
//! timings as it moves the work of a request. Each run of the probe sorts
//! the next array of one fixed stream: sorting one array again and again
//! would let the branch predictor learn it, and the probe would then run
//! faster back to back than between requests. A workload whose timings do
//! not follow the probe keeps them wall-clock (`Workload::scaled`).

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// Integers the probe sorts: 2 KiB, well inside L1.
const PROBE_LEN: usize = 512;

/// The probe's time at reference speed: about its median time between
/// requests on a 2.1 GHz Xeon (Emerald Rapids) vCPU, so scaled timings stay
/// close to wall-clock ones there.
pub const REFERENCE_S: f64 = 10e-6;

/// Between requests, the probe runs when this long has passed since it last
/// ran; it takes at most about half a percent of a client thread's time.
const PROBE_EVERY: Duration = Duration::from_millis(2);

pub struct Probe {
    /// State of the SplitMix64 stream the arrays are drawn from.
    state: u64,
    buf: Vec<u32>,
    samples: Vec<f64>,
    last: Instant,
}

impl Probe {
    pub fn new() -> Probe {
        Probe {
            state: 0,
            buf: vec![0; PROBE_LEN],
            samples: Vec::new(),
            last: Instant::now(),
        }
    }

    /// Run the kernel once and record its time; returns the seconds spent.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        for x in self.buf.iter_mut() {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *x = (z ^ (z >> 31)) as u32;
        }
        black_box(&mut self.buf).sort_unstable();
        black_box(&self.buf);
        self.last = Instant::now();
        let dt = (self.last - t0).as_secs_f64();
        self.samples.push(dt);
        dt
    }

    /// Whether [`PROBE_EVERY`] has passed since the probe last ran.
    pub fn due(&self) -> bool {
        self.last.elapsed() >= PROBE_EVERY
    }

    /// Run the kernel back to back for `d`.
    pub fn sample_for(&mut self, d: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < d {
            self.sample();
        }
    }

    /// The factor that takes a duration measured since the previous call to
    /// reference speed: [`REFERENCE_S`] over the median probe time since then
    /// (running the probe once if it has not run).
    pub fn take_scale(&mut self) -> f64 {
        if self.samples.is_empty() {
            self.sample();
        }
        let scale = REFERENCE_S / median(&self.samples);
        self.samples.clear();
        scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_follows_the_median_probe_time() {
        let mut p = Probe::new();
        p.samples = vec![4.0 * REFERENCE_S, REFERENCE_S, 2.0 * REFERENCE_S];
        assert_eq!(p.take_scale(), 0.5);
        // The samples went with the call; the next scale rests on a fresh one.
        assert!(p.samples.is_empty());
        assert!(p.take_scale() > 0.0);
    }

    #[test]
    fn probe_sorts_one_fixed_stream() {
        let (mut a, mut b) = (Probe::new(), Probe::new());
        a.sample();
        let first = a.buf.clone();
        a.sample();
        b.sample();
        b.sample();
        assert_eq!(a.buf, b.buf);
        assert_ne!(a.buf, first);
        assert!(a.buf.windows(2).all(|w| w[0] <= w[1]));
    }
}
