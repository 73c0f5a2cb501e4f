//! The closed-loop client loop shared by every workload.
//!
//! Each client thread cycles its own seeded lap of requests, sending the
//! next request only when the previous one returned, and stops at the first
//! lap boundary after the run's time is up (after one lap at least), so
//! every run serves whole laps of the same request mix. A request's latency covers exactly the call
//! into the library; its output check and its per-layer counters run
//! afterwards, outside that span.
//!
//! Every request has a kind (a corpus cell, a tenant's replan step, ...)
//! that recurs once or more per lap. The latency quantiles are taken over
//! requests with each request valued at its kind's median latency in the
//! run: the work per kind is deterministic, so this keeps the spread
//! between kinds and drops the host's interference on single instances,
//! which otherwise sets a shared machine's tail.
//!
//! Unless the workload keeps wall-clock timings ([`Workload::scaled`]),
//! every duration that feeds an end-to-end metric is taken to reference
//! speed when its lap closes, with the factor the host-speed probe measured
//! during that lap (see `speed`); the probe's own time is left out of the
//! lap.
//!
//! In a traced run, clients alternate untraced and traced laps. Both see
//! the same request mix, so the ratio of their throughputs is the tracing
//! overhead.

use std::time::Instant;

use crate::gen::Gen;
use crate::speed::Probe;
use crate::stats::median;
use crate::{alloc, trace};

/// Latency samples kept per request kind and client (a uniform sample once
/// a kind recurs more often), so the benchmark's own memory stays flat.
const KIND_SAMPLES: usize = 256;

/// One workload: set-up has built every input and every expected output.
pub trait Workload: Sync {
    type Req: Sync;
    type Out;

    /// One lap of requests per client thread.
    fn laps(&self) -> &[Vec<Self::Req>];

    /// Number of request kinds.
    fn kinds(&self) -> usize;

    /// The kind of `req`, in `0..kinds()`.
    fn kind(&self, req: &Self::Req) -> usize;

    /// Serve one request. `traced` requests record layer spans and may enter
    /// a layer through its instrumentable entry point; the work is the same.
    fn run(&self, req: &Self::Req, traced: bool) -> Result<Self::Out, String>;

    /// Compare the output with the value set-up computed for this request.
    fn check(&self, req: &Self::Req, out: &Self::Out) -> Result<(), String>;

    /// Add the per-layer counters of a traced request.
    fn count(&self, _req: &Self::Req, _out: &Self::Out) {}

    /// Run-wide check after every client stopped, for accounting identities
    /// that span requests. A violation counts as one failed request.
    fn finish(&self) -> Result<(), String> {
        Ok(())
    }

    /// Whether the measured phase's timings are taken to reference speed.
    /// A workload whose wall-clock timings do not follow the speed probe
    /// keeps them wall-clock, since scaling would add the probe's swings.
    fn scaled(&self) -> bool {
        true
    }

    /// Geometric means of the simulated samples/s that set-up's outputs
    /// deliver: `(plan throughput, goodput)`.
    fn simulated(&self) -> (f64, f64);

    /// Per-layer values taken over the whole measured phase rather than
    /// summed over traced requests.
    fn run_metrics(&self, _m: &Measured) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// What the measured phase produced.
#[derive(Default)]
pub struct Measured {
    /// Per request kind: latency samples of untraced requests (seconds at
    /// reference speed) and the number of untraced requests.
    pub kind_samples: Vec<Vec<f64>>,
    pub kind_counts: Vec<u64>,
    /// Request counts and latency sums (at reference speed) of the untraced
    /// and traced laps.
    pub untraced_requests: u64,
    pub untraced_busy_s: f64,
    pub traced_requests: u64,
    pub traced_busy_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Wall-clock seconds of the measured phase.
    pub wall_s: f64,
    /// Median over a client's untraced laps of requests per second at
    /// reference speed, summed over clients.
    pub throughput_rps: f64,
    /// Every lap's factor from wall-clock to reference-speed seconds; empty
    /// when the workload keeps wall-clock timings.
    pub lap_scales: Vec<f64>,
    pub first_error: Option<String>,
    pub totals: trace::Totals,
}

impl Measured {
    fn new(kinds: usize) -> Measured {
        Measured {
            kind_samples: vec![Vec::new(); kinds],
            kind_counts: vec![0; kinds],
            ..Measured::default()
        }
    }

    fn merge(&mut self, other: Measured) {
        for (mine, theirs) in self.kind_samples.iter_mut().zip(other.kind_samples) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.kind_counts.iter_mut().zip(other.kind_counts) {
            *mine += theirs;
        }
        self.untraced_requests += other.untraced_requests;
        self.untraced_busy_s += other.untraced_busy_s;
        self.traced_requests += other.traced_requests;
        self.traced_busy_s += other.traced_busy_s;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.throughput_rps += other.throughput_rps;
        self.lap_scales.extend(other.lap_scales);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
        self.totals.merge(other.totals);
    }

    /// Add an untraced request's latency to its kind's sample.
    fn record(&mut self, kind: usize, latency_s: f64, reservoir: &mut Gen) {
        let (samples, seen) = (&mut self.kind_samples[kind], self.kind_counts[kind]);
        if samples.len() < KIND_SAMPLES {
            samples.push(latency_s);
        } else {
            let j = reservoir.below(seen as usize + 1);
            if j < KIND_SAMPLES {
                samples[j] = latency_s;
            }
        }
        self.kind_counts[kind] += 1;
    }

    fn fail(&mut self, err: String) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(err);
        }
    }

    /// `(median latency, untraced request count)` of every kind that ran.
    pub fn kind_medians(&self) -> Vec<(f64, u64)> {
        self.kind_samples
            .iter()
            .zip(&self.kind_counts)
            .filter(|(s, _)| !s.is_empty())
            .map(|(s, &n)| (median(s), n))
            .collect()
    }
}

/// Serve `w`'s laps closed-loop for `seconds`, one thread per lap.
pub fn drive<W: Workload>(w: &W, seconds: f64, traced_run: bool) -> Measured {
    let start = Instant::now();
    let mut total = Measured::new(w.kinds());
    std::thread::scope(|scope| {
        let clients: Vec<_> = w
            .laps()
            .iter()
            .enumerate()
            .map(|(c, lap)| {
                scope.spawn(move || client(w, c as u64, lap, start, seconds, traced_run))
            })
            .collect();
        for h in clients {
            total.merge(h.join().expect("client thread panicked"));
        }
    });
    total.wall_s = start.elapsed().as_secs_f64();
    if let Err(e) = w.finish() {
        total.fail(e);
    }
    total
}

fn client<W: Workload>(
    w: &W,
    client: u64,
    lap: &[W::Req],
    start: Instant,
    seconds: f64,
    traced_run: bool,
) -> Measured {
    let mut m = Measured::new(w.kinds());
    let mut reservoir = Gen::new(client, "latency reservoir");
    let mut probe = w.scaled().then(Probe::new);
    let mut lap_rates = Vec::new();
    // The lap in flight: its start, whether it is traced, the seconds spent
    // in requests and in the probe, and its untraced `(kind, latency)`s.
    let mut lap_start = Instant::now();
    let mut traced = false;
    let (mut busy_s, mut probe_s) = (0.0, 0.0);
    let mut latencies: Vec<(usize, f64)> = Vec::with_capacity(lap.len());
    let mut i = 0usize;
    loop {
        if i.is_multiple_of(lap.len()) {
            if i > 0 {
                let scale = probe.as_mut().map_or(1.0, Probe::take_scale);
                if probe.is_some() {
                    m.lap_scales.push(scale);
                }
                if traced {
                    m.traced_busy_s += busy_s * scale;
                } else {
                    m.untraced_busy_s += busy_s * scale;
                    for (kind, dt) in latencies.drain(..) {
                        m.record(kind, dt * scale, &mut reservoir);
                    }
                }
                if !traced_run {
                    let wall = lap_start.elapsed().as_secs_f64() - probe_s;
                    lap_rates.push(lap.len() as f64 / (wall * scale));
                }
                if start.elapsed().as_secs_f64() >= seconds {
                    break;
                }
            }
            traced = traced_run && (i / lap.len()) % 2 == 1;
            lap_start = Instant::now();
            busy_s = 0.0;
            probe_s = probe.as_mut().map_or(0.0, Probe::sample);
        } else if let Some(p) = probe.as_mut().filter(|p| p.due()) {
            probe_s += p.sample();
        }
        let req = &lap[i % lap.len()];
        let id = client << 48 | i as u64;
        i += 1;

        if traced {
            trace::begin_request(id);
        }
        let allocs = alloc::events();
        let t0 = Instant::now();
        let out = w.run(req, traced);
        let dt = t0.elapsed().as_secs_f64();
        let allocs = alloc::events() - allocs;
        busy_s += dt;
        if traced {
            trace::end_request();
            trace::count("alloc.per_req", allocs as f64);
            m.traced_requests += 1;
        } else {
            latencies.push((w.kind(req), dt));
            m.untraced_requests += 1;
        }
        m.attempted += 1;
        match out.and_then(|o| w.check(req, &o).map(|()| o)) {
            Ok(o) if traced => w.count(req, &o),
            Ok(_) => {}
            Err(e) => m.fail(e),
        }
    }
    if !lap_rates.is_empty() {
        m.throughput_rps = median(&lap_rates);
    }
    m.totals = trace::take();
    m
}
