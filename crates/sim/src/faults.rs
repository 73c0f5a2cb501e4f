//! Deterministic fault injection for the cluster simulator.
//!
//! Production clusters fail in characteristic ways: a GPU is preempted or
//! dies, a device throttles thermally and later recovers, the network gets
//! congested by a co-tenant, a drained node is returned to the pool. The M6
//! runs described in §5 of the paper ride out exactly this drift; nothing in
//! the repo exercised it until now. [`FaultTrace::generate`] turns
//! MTBF/MTTR parameters and a [`SplitMix64`] seed into a reproducible
//! timeline of [`whale_hardware::ClusterDelta`]s at *sample offsets* — the
//! same seed always yields the bit-identical trace, so every recovery test
//! and benchmark built on top is replayable.
//!
//! Fault times live on the **processed-samples axis**: the cumulative number
//! of samples the cluster has worked on, including work later discarded by a
//! rollback. Unlike committed progress, that axis is monotone even when a
//! recovery loses samples, so a trace terminates any consumer — including a
//! restart-from-scratch baseline that repeatedly loses all progress.

use whale_hardware::{Cluster, ClusterDelta, GpuModel, LinkKind};

use crate::error::{Result, SimError};
use crate::rng::SplitMix64;

/// Most events an exponential generator may be asked to draw in
/// expectation: 2²⁰, the same cap `whale_hardware::MAX_GPUS` puts on a
/// cluster spec. A constant, not an option.
pub(crate) const MAX_EXPECTED_EVENTS: f64 = (1u64 << 20) as f64;

/// Most retries a [`crate::recovery::RecoveryPolicy`] may ask for. Each
/// retry re-runs a deterministic replan, so a delta that cannot apply spins
/// through all of them; at a few microseconds per attempt, 64 of them cost
/// well under a millisecond. A constant, not an option.
pub(crate) const MAX_RETRIES: u32 = 64;

/// Refuse an exponential event stream that cannot be drawn in bounded time
/// and memory: its mean gap must be positive and finite, and its expected
/// event count `horizon / mean` at most [`MAX_EXPECTED_EVENTS`].
///
/// `FleetSim` runs it on its job arrivals and, through
/// [`FaultModel::check`], on its pool faults before drawing either.
pub(crate) fn check_event_stream(what: &str, mean: f64, horizon: f64) -> Result<()> {
    if !(mean > 0.0 && mean.is_finite()) {
        return Err(SimError::BadPlan(format!(
            "{what} must be positive and finite, got {mean}"
        )));
    }
    let expected = horizon / mean;
    if expected.is_nan() || expected > MAX_EXPECTED_EVENTS {
        return Err(SimError::BadPlan(format!(
            "{what} {mean} over a horizon of {horizon} expects {expected:.3e} events, \
             more than {MAX_EXPECTED_EVENTS}"
        )));
    }
    Ok(())
}

/// The kind of an injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Permanent GPU loss ([`ClusterDelta::GpuRemoved`]): preemption, an
    /// XID error, a drained node.
    Crash,
    /// Transient throughput degradation ([`ClusterDelta::GpuDegraded`]):
    /// thermal throttling, a noisy co-tenant. Heals after roughly the MTTR.
    Degrade,
    /// A transient fault heals ([`ClusterDelta::GpuRestored`] or a
    /// [`ClusterDelta::LinkBandwidth`] back to the base rate).
    Restore,
    /// Cross-node network congestion ([`ClusterDelta::LinkBandwidth`]).
    /// Heals after roughly the MTTR.
    Congestion,
    /// A GPU joins the cluster ([`ClusterDelta::GpuAdded`]): capacity
    /// returned by the scheduler, elastic scale-up.
    Join,
}

impl FaultKind {
    /// Transient faults are expected to heal on their own; the recovery
    /// runtime retries them with bounded backoff instead of giving up on
    /// the first failed recovery attempt.
    pub fn is_transient(self) -> bool {
        matches!(
            self,
            FaultKind::Degrade | FaultKind::Restore | FaultKind::Congestion
        )
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Degrade => "degrade",
            FaultKind::Restore => "restore",
            FaultKind::Congestion => "congestion",
            FaultKind::Join => "join",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One scheduled fault: a cluster change striking at a sample offset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Offset on the processed-samples axis at which the fault strikes.
    pub at_samples: f64,
    /// What class of fault this is.
    pub kind: FaultKind,
    /// The cluster change the fault inflicts.
    pub delta: ClusterDelta,
}

/// Parameters of the fault generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    /// Mean samples between fault arrivals (exponential inter-arrival).
    pub mtbf_samples: f64,
    /// Mean samples until a transient fault heals (exponential).
    pub mttr_samples: f64,
    /// PRNG seed; equal seeds produce bit-identical traces.
    pub seed: u64,
}

impl FaultModel {
    /// Check that this model generates over `horizon` in bounded time and
    /// memory, before [`FaultTrace::generate`] runs: the MTBF must be
    /// positive and finite with at most 2²⁰ faults expected (`horizon /
    /// MTBF`), and the MTTR positive and finite. Heals follow their faults
    /// one for one, so the MTTR bounds no event count; a zero horizon
    /// checks only the mean.
    pub fn check(&self, horizon: f64) -> Result<()> {
        check_event_stream("mtbf", self.mtbf_samples, horizon)?;
        check_event_stream("mttr", self.mttr_samples, 0.0)
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel {
            mtbf_samples: 2e5,
            mttr_samples: 5e4,
            seed: 0,
        }
    }
}

/// A deterministic timeline of cluster faults, ordered by sample offset.
///
/// Every delta in the trace is valid when applied in order to the starting
/// cluster: the generator tracks a shadow copy of the topology, renumbers
/// pending heals when a crash compacts GPU ids, and drops heals whose
/// target crashed before recovering.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultTrace {
    /// Events in non-decreasing `at_samples` order.
    pub events: Vec<FaultEvent>,
}

/// A degradation or congestion waiting to heal.
struct PendingHeal {
    at: f64,
    event: FaultEvent,
}

impl FaultTrace {
    /// Generate the fault timeline for `cluster` over `horizon_samples`
    /// processed samples.
    ///
    /// Fault arrivals are exponential with mean `model.mtbf_samples`; each
    /// arrival draws a kind (degradation 45%, crash 20%, congestion 20%,
    /// join 15%) and a target that is legal on the shadow cluster at that
    /// point in the timeline. Degradations and congestions schedule their
    /// own heal an exponential `model.mttr_samples` later. Arrivals that
    /// cannot strike legally (every GPU already degraded, a congestion
    /// already active, the cluster down to one GPU) are skipped, not
    /// re-drawn, so the RNG stream — and therefore the trace — depends only
    /// on `(cluster, model, horizon_samples)`.
    pub fn generate(cluster: &Cluster, model: &FaultModel, horizon_samples: f64) -> FaultTrace {
        let mut rng = SplitMix64::seed_from_u64(model.seed);
        let mut shadow = cluster.clone();
        let base_network_bw = shadow.interconnect.network_bw;
        let mut events: Vec<FaultEvent> = Vec::new();
        let mut heals: Vec<PendingHeal> = Vec::new();
        let mtbf = model.mtbf_samples.max(1.0);
        let mttr = model.mttr_samples.max(1.0);

        let mut t = 0.0;
        loop {
            t += exponential(&mut rng, mtbf);
            if t >= horizon_samples || t.is_nan() {
                break;
            }
            // Heals scheduled before this arrival fire first.
            flush_heals(&mut heals, &mut shadow, &mut events, t);

            let roll = rng.next_f64();
            if roll < 0.45 {
                // Degrade a currently full-speed GPU.
                let healthy: Vec<usize> = shadow
                    .gpus()
                    .iter()
                    .filter(|g| g.throughput_scale >= 1.0)
                    .map(|g| g.id)
                    .collect();
                let scale = rng.range_f64(0.2, 0.8);
                let heal_after = exponential(&mut rng, mttr);
                if healthy.is_empty() {
                    continue;
                }
                let id = healthy[rng.index(healthy.len())];
                let strike = FaultEvent {
                    at_samples: t,
                    kind: FaultKind::Degrade,
                    delta: ClusterDelta::GpuDegraded { id, scale },
                };
                shadow.apply_delta(strike.delta).expect("legal degrade");
                events.push(strike);
                heals.push(PendingHeal {
                    at: t + heal_after,
                    event: FaultEvent {
                        at_samples: t + heal_after,
                        kind: FaultKind::Restore,
                        delta: ClusterDelta::GpuRestored { id },
                    },
                });
            } else if roll < 0.65 {
                // Crash: remove a GPU, keeping at least two alive so the
                // trace stays applicable (capacity policy aborts are the
                // runtime's decision, not the generator's).
                if shadow.num_gpus() <= 2 {
                    let _ = rng.next_u64();
                    continue;
                }
                let id = rng.index(shadow.num_gpus());
                let strike = FaultEvent {
                    at_samples: t,
                    kind: FaultKind::Crash,
                    delta: ClusterDelta::GpuRemoved { id },
                };
                shadow.apply_delta(strike.delta).expect("legal removal");
                events.push(strike);
                // Surviving GPUs were renumbered: fix up pending heals.
                heals.retain_mut(|h| match &mut h.event.delta {
                    ClusterDelta::GpuRestored { id: healing } => {
                        if *healing == id {
                            return false;
                        }
                        if *healing > id {
                            *healing -= 1;
                        }
                        true
                    }
                    _ => true,
                });
            } else if roll < 0.85 {
                // Network congestion; at most one active at a time.
                let factor = rng.range_f64(0.25, 0.75);
                let heal_after = exponential(&mut rng, mttr);
                let active = heals
                    .iter()
                    .any(|h| matches!(h.event.delta, ClusterDelta::LinkBandwidth { .. }));
                if active {
                    continue;
                }
                let strike = FaultEvent {
                    at_samples: t,
                    kind: FaultKind::Congestion,
                    delta: ClusterDelta::LinkBandwidth {
                        kind: LinkKind::Network,
                        bytes_per_sec: base_network_bw * factor,
                    },
                };
                shadow.apply_delta(strike.delta).expect("legal congestion");
                events.push(strike);
                heals.push(PendingHeal {
                    at: t + heal_after,
                    event: FaultEvent {
                        at_samples: t + heal_after,
                        kind: FaultKind::Restore,
                        delta: ClusterDelta::LinkBandwidth {
                            kind: LinkKind::Network,
                            bytes_per_sec: base_network_bw,
                        },
                    },
                });
            } else {
                // Join: a GPU of a model already present on the node comes
                // back (a replacement part, returned preemption).
                let node = rng.index(shadow.num_nodes());
                let model: GpuModel = {
                    let first = shadow.nodes()[node].gpu_ids[0];
                    shadow.gpus()[first].model
                };
                let strike = FaultEvent {
                    at_samples: t,
                    kind: FaultKind::Join,
                    delta: ClusterDelta::GpuAdded { node, model },
                };
                shadow.apply_delta(strike.delta).expect("legal join");
                events.push(strike);
            }
        }
        // Heals scheduled inside the horizon still fire.
        flush_heals(&mut heals, &mut shadow, &mut events, horizon_samples);
        FaultTrace { events }
    }

    /// Number of events in the trace.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Count of events per kind, in a stable order.
    pub fn census(&self) -> Vec<(FaultKind, usize)> {
        [
            FaultKind::Crash,
            FaultKind::Degrade,
            FaultKind::Restore,
            FaultKind::Congestion,
            FaultKind::Join,
        ]
        .into_iter()
        .map(|k| (k, self.events.iter().filter(|e| e.kind == k).count()))
        .filter(|&(_, n)| n > 0)
        .collect()
    }
}

/// Exponentially distributed draw with the given mean (inverse CDF).
pub(crate) fn exponential(rng: &mut SplitMix64, mean: f64) -> f64 {
    // next_f64 ∈ [0, 1) so 1 - u ∈ (0, 1] and the log is finite.
    -mean * (1.0 - rng.next_f64()).ln()
}

/// Apply and emit every pending heal scheduled strictly before `now`,
/// in timeline order.
fn flush_heals(
    heals: &mut Vec<PendingHeal>,
    shadow: &mut Cluster,
    events: &mut Vec<FaultEvent>,
    now: f64,
) {
    while let Some(i) = heals
        .iter()
        .enumerate()
        .filter(|(_, h)| h.at < now)
        .min_by(|(_, a), (_, b)| a.at.total_cmp(&b.at))
        .map(|(i, _)| i)
    {
        let heal = heals.remove(i);
        shadow.apply_delta(heal.event.delta).expect("legal heal");
        events.push(heal.event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(seed: u64) -> FaultModel {
        FaultModel {
            mtbf_samples: 1e5,
            mttr_samples: 3e4,
            seed,
        }
    }

    #[test]
    fn same_seed_bit_identical_trace() {
        let cluster = Cluster::parse("2x(8xV100)+2x(8xP100)").unwrap();
        let a = FaultTrace::generate(&cluster, &model(42), 2e6);
        let b = FaultTrace::generate(&cluster, &model(42), 2e6);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "expected faults over 20 MTBFs");
    }

    #[test]
    fn different_seeds_differ() {
        let cluster = Cluster::parse("2x(8xV100)+2x(8xP100)").unwrap();
        let a = FaultTrace::generate(&cluster, &model(1), 2e6);
        let b = FaultTrace::generate(&cluster, &model(2), 2e6);
        assert_ne!(a, b);
    }

    #[test]
    fn events_are_ordered_and_legal_in_sequence() {
        let cluster = Cluster::parse("2x(4xV100)").unwrap();
        let trace = FaultTrace::generate(&cluster, &model(7), 3e6);
        let mut replay = cluster.clone();
        let mut prev = 0.0;
        for e in &trace.events {
            assert!(
                e.at_samples >= prev,
                "events out of order: {} after {prev}",
                e.at_samples
            );
            prev = e.at_samples;
            e.delta
                .validate(&replay)
                .unwrap_or_else(|err| panic!("illegal event {e:?}: {err}"));
            replay.apply_delta(e.delta).unwrap();
        }
        assert!(
            replay.num_gpus() >= 2,
            "generator never empties the cluster"
        );
    }

    #[test]
    fn transient_faults_schedule_heals() {
        let cluster = Cluster::parse("2x(8xV100)").unwrap();
        let trace = FaultTrace::generate(&cluster, &model(11), 5e6);
        let census: std::collections::HashMap<_, _> = trace.census().into_iter().collect();
        let degrades = census.get(&FaultKind::Degrade).copied().unwrap_or(0);
        let restores = census.get(&FaultKind::Restore).copied().unwrap_or(0);
        assert!(degrades > 0);
        assert!(
            restores > 0
                && restores <= degrades + census.get(&FaultKind::Congestion).copied().unwrap_or(0),
            "restores ({restores}) must pair with transients"
        );
    }

    #[test]
    fn zero_horizon_is_empty() {
        let cluster = Cluster::parse("4xV100").unwrap();
        let trace = FaultTrace::generate(&cluster, &model(5), 0.0);
        assert!(trace.is_empty());
    }

    #[test]
    fn event_streams_are_bounded_before_they_run() {
        assert!(check_event_stream("mtbf", 1.0, MAX_EXPECTED_EVENTS).is_ok());
        assert!(check_event_stream("mtbf", 1.0, 2.0 * MAX_EXPECTED_EVENTS).is_err());
        assert!(check_event_stream("mtbf", 1.0, f64::NAN).is_err());
        for mean in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(check_event_stream("mtbf", mean, 10.0).is_err(), "{mean}");
        }
        assert!(model(0).check(1e6).is_ok());
        let no_heal = FaultModel {
            mttr_samples: 0.0,
            ..model(0)
        };
        assert!(no_heal.check(1e6).is_err());
    }

    #[test]
    fn transience_classification() {
        assert!(FaultKind::Degrade.is_transient());
        assert!(FaultKind::Congestion.is_transient());
        assert!(FaultKind::Restore.is_transient());
        assert!(!FaultKind::Crash.is_transient());
        assert!(!FaultKind::Join.is_transient());
    }
}
