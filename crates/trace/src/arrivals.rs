//! Open-loop request arrival processes for the serving plane.
//!
//! A batch workload issues its next access as soon as the core is ready —
//! a *closed* loop whose offered load collapses under slowdown. A serving
//! system faces the opposite: requests arrive on the clients' schedule,
//! whether or not the machine keeps up, and overload shows up as queueing,
//! shed load and blown deadlines. This module generates those schedules
//! deterministically in the cycle domain: per-lane arrival cycles that are
//! a pure function of `(profile, rate, lane, seed)`, never of anything the
//! engine does — the purity a serving trial's reproducibility rests on.
//!
//! Three shapes (rd-hashd-style load profiles, scaled to cycles):
//!
//! * **poisson** — a stationary Poisson process at the regulator's rate;
//! * **bursty** — a square wave: short windows at a multiple of the mean
//!   rate, quiet troughs between them (tail-latency stress);
//! * **diurnal** — a triangular ramp up to a peak and back down each
//!   period (slow load swing, exercises admission at the crest).
//!
//! Non-stationary shapes are sampled by *thinning*: candidates are drawn
//! from a homogeneous process at the shape's peak intensity and accepted
//! with probability `ρ(t)/ρ_max`, where `ρ` is the relative intensity
//! (mean 1.0 over a period). Rates are expressed in requests per million
//! CPU cycles per lane, matching the fault plane's rate unit.

use silcfm_types::rng::{Rng, SplitMix64, Xoshiro256StarStar};

/// Stream salt decorrelating arrival draws from every other consumer of
/// the run seed (workload generation, fault schedules, placement).
const ARRIVAL_SALT: u64 = 0xA771;

/// The shape of an arrival process (its relative intensity over time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Stationary: constant intensity.
    Poisson,
    /// Square-wave bursts: for the first `duty_pct`% of each `period`,
    /// intensity is `peak_x10`/10 times the mean; the trough between
    /// bursts is scaled down so the period mean stays 1.0.
    Bursty {
        /// Cycles per burst period.
        period: u64,
        /// Percent of the period spent in the burst (0 < duty < 100).
        duty_pct: u8,
        /// Burst intensity as a multiple of the mean, times 10.
        peak_x10: u8,
    },
    /// Triangular ramp: intensity climbs linearly from a trough to a crest
    /// at mid-`period` and back — a compressed diurnal load swing.
    DiurnalRamp {
        /// Cycles per full up-and-down swing.
        period: u64,
    },
}

/// A named arrival shape, analogous to [`crate::profiles`]' workload table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrivalProfile {
    /// Short identifier used in artifacts and on the command line.
    pub name: &'static str,
    /// The intensity shape.
    pub kind: ArrivalKind,
}

/// Diurnal trough intensity relative to the mean (crest is chosen so the
/// period mean is exactly 1.0: crest = 2 − trough).
const DIURNAL_TROUGH: f64 = 0.25;

const PROFILES: &[ArrivalProfile] = &[
    ArrivalProfile {
        name: "poisson",
        kind: ArrivalKind::Poisson,
    },
    ArrivalProfile {
        name: "bursty",
        kind: ArrivalKind::Bursty {
            period: 200_000,
            duty_pct: 25,
            peak_x10: 30,
        },
    },
    ArrivalProfile {
        name: "diurnal",
        kind: ArrivalKind::DiurnalRamp { period: 400_000 },
    },
];

/// Every calibrated arrival profile.
pub fn all() -> &'static [ArrivalProfile] {
    PROFILES
}

/// Looks an arrival profile up by its short name.
pub fn by_name(name: &str) -> Option<&'static ArrivalProfile> {
    PROFILES.iter().find(|p| p.name == name)
}

impl ArrivalKind {
    /// Peak relative intensity `ρ_max` (the thinning envelope).
    fn peak_relative(&self) -> f64 {
        match self {
            ArrivalKind::Poisson => 1.0,
            ArrivalKind::Bursty { peak_x10, .. } => f64::from(*peak_x10) / 10.0,
            ArrivalKind::DiurnalRamp { .. } => 2.0 - DIURNAL_TROUGH,
        }
    }

    /// Relative intensity `ρ(t)` (period mean 1.0).
    fn relative(&self, t: u64) -> f64 {
        match self {
            ArrivalKind::Poisson => 1.0,
            ArrivalKind::Bursty {
                period,
                duty_pct,
                peak_x10,
            } => {
                let period = (*period).max(1);
                let duty = f64::from((*duty_pct).clamp(1, 99)) / 100.0;
                let peak = f64::from(*peak_x10) / 10.0;
                let phase = (t % period) as f64 / period as f64;
                if phase < duty {
                    peak
                } else {
                    // Trough level keeping the period mean at exactly 1.
                    ((1.0 - peak * duty) / (1.0 - duty)).max(0.0)
                }
            }
            ArrivalKind::DiurnalRamp { period } => {
                let period = (*period).max(1);
                let phase = (t % period) as f64 / period as f64;
                // Triangle 0 → 1 → 0 across the period.
                let tri = 1.0 - (2.0 * phase - 1.0).abs();
                DIURNAL_TROUGH + 2.0 * (1.0 - DIURNAL_TROUGH) * tri
            }
        }
    }
}

/// One lane's deterministic arrival clock: successive calls to
/// [`next_arrival`] yield a non-decreasing sequence of request arrival
/// cycles, a pure function of `(kind, rate, lane, seed)`.
///
/// [`next_arrival`]: ArrivalGen::next_arrival
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    kind: ArrivalKind,
    /// Mean arrival rate, requests per million cycles (per lane).
    rate_per_m: u64,
    rng: Xoshiro256StarStar,
    clock: u64,
}

impl ArrivalGen {
    /// Creates lane `lane`'s arrival stream at `rate_per_m` requests per
    /// million cycles. A zero rate is clamped to 1 (a truly silent lane
    /// would never terminate the admission planner's scan).
    pub fn new(profile: &ArrivalProfile, rate_per_m: u64, lane: u16, seed: u64) -> Self {
        let stream = SplitMix64::new(seed)
            .split(ARRIVAL_SALT)
            .wrapping_add(u64::from(lane).wrapping_mul(0xD1B5_4A32_D192_ED03));
        Self {
            kind: profile.kind,
            rate_per_m: rate_per_m.max(1),
            rng: Xoshiro256StarStar::seed_from_u64(stream),
            clock: 0,
        }
    }

    /// The mean rate in requests per million cycles.
    pub const fn rate_per_m(&self) -> u64 {
        self.rate_per_m
    }

    /// Draws the next arrival cycle (strictly increasing: simultaneous
    /// arrivals are separated by one cycle, which keeps per-lane request
    /// order total and the planner's backlog recursion well-defined).
    pub fn next_arrival(&mut self) -> u64 {
        let peak = self.kind.peak_relative().max(f64::MIN_POSITIVE);
        // Candidate intensity per cycle at the thinning envelope.
        let lambda_max = self.rate_per_m as f64 * peak / 1_000_000.0;
        loop {
            // Exponential gap via inversion; `1 - u` keeps the log finite.
            let u = self.rng.next_f64();
            let gap = (-(1.0 - u).ln() / lambda_max).ceil();
            // Cap one draw at ~u64 range; pathological rates saturate
            // rather than wrap.
            let gap = if gap.is_finite() && gap >= 1.0 {
                gap as u64
            } else {
                1
            };
            self.clock = self.clock.saturating_add(gap);
            let accept = self.kind.relative(self.clock) / peak;
            if accept >= 1.0 || self.rng.next_f64() < accept {
                return self.clock;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrivals(name: &str, rate: u64, lane: u16, seed: u64, n: usize) -> Vec<u64> {
        let mut g = ArrivalGen::new(by_name(name).unwrap(), rate, lane, seed);
        (0..n).map(|_| g.next_arrival()).collect()
    }

    #[test]
    fn profiles_resolve_by_name() {
        assert_eq!(all().len(), 3);
        for p in all() {
            assert_eq!(by_name(p.name).unwrap().kind, p.kind);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn same_seed_same_schedule() {
        for name in ["poisson", "bursty", "diurnal"] {
            assert_eq!(
                arrivals(name, 50, 2, 42, 500),
                arrivals(name, 50, 2, 42, 500),
                "{name}"
            );
        }
    }

    #[test]
    fn lanes_and_seeds_decorrelate() {
        let a = arrivals("poisson", 50, 0, 42, 200);
        let b = arrivals("poisson", 50, 1, 42, 200);
        let c = arrivals("poisson", 50, 0, 43, 200);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_strictly_increase() {
        for name in ["poisson", "bursty", "diurnal"] {
            let seq = arrivals(name, 200, 1, 7, 1_000);
            assert!(seq.windows(2).all(|w| w[1] > w[0]), "{name}");
        }
    }

    #[test]
    fn mean_rate_is_respected() {
        // 80 req/Mcycle over many arrivals: the empirical rate should land
        // within a few percent for every shape (thinning preserves means).
        for name in ["poisson", "bursty", "diurnal"] {
            let n = 20_000;
            let seq = arrivals(name, 80, 0, 11, n);
            let span = *seq.last().unwrap() as f64;
            let rate = n as f64 / span * 1_000_000.0;
            assert!(
                (rate - 80.0).abs() < 8.0,
                "{name}: empirical rate {rate:.2} per Mcycle"
            );
        }
    }

    #[test]
    fn bursty_concentrates_arrivals_in_the_duty_window() {
        let (period, duty_pct) = match by_name("bursty").unwrap().kind {
            ArrivalKind::Bursty {
                period, duty_pct, ..
            } => (period, duty_pct),
            _ => unreachable!(),
        };
        let seq = arrivals("bursty", 100, 0, 3, 20_000);
        let in_burst = seq
            .iter()
            .filter(|&&t| (t % period) as f64 / (period as f64) < f64::from(duty_pct) / 100.0)
            .count();
        let frac = in_burst as f64 / seq.len() as f64;
        // 25% of the time at 3x the mean rate → 75% of arrivals.
        assert!(
            frac > 0.65,
            "burst window should dominate arrivals: {frac:.3}"
        );
    }

    #[test]
    fn diurnal_peaks_mid_period() {
        let period = match by_name("diurnal").unwrap().kind {
            ArrivalKind::DiurnalRamp { period } => period,
            _ => unreachable!(),
        };
        let seq = arrivals("diurnal", 100, 0, 5, 20_000);
        let crest = seq
            .iter()
            .filter(|&&t| {
                let phase = (t % period) as f64 / period as f64;
                (0.25..0.75).contains(&phase)
            })
            .count();
        let frac = crest as f64 / seq.len() as f64;
        // The middle half of the period carries the intensity crest.
        assert!(frac > 0.60, "crest half should dominate: {frac:.3}");
    }
}
