//! The host-speed probe that calibrates the end-to-end times.
//!
//! On a shared host the simulator's speed moves with how much of the
//! shared last-level cache other tenants leave it: its batches slow by up
//! to 1.8x for seconds to minutes at a time, while compute-bound loops
//! and DRAM-latency chases barely move (see `README.md`). The probe is a
//! fixed piece of the benchmark's own code with the same sensitivity: a
//! 16-way set-associative tag lookup with move-to-front over 6 MiB of
//! tags, kept warm between batches. It never calls the simulator, so a
//! change to the simulator does not move it, short of one whose resident
//! set grows to crowd the probe's tags out of the host's L3.

use std::time::Instant;

use crate::report::median;

/// Ways per set of the probe's tag store.
const WAYS: usize = 16;

/// Bytes of tags the probe walks (larger than a core's L2, well inside
/// the host's shared L3).
const TAG_BYTES: usize = 6 << 20;

/// Lookups per timing: about 5 ms on the development host.
const LOOKUPS: u32 = 150_000;

/// Distinct line addresses the lookups draw from.
const LINES: u64 = 1 << 22;

/// The probe time spent after each batch, as a share of the batch's wall
/// time: a long batch gets several timings, so one disturbed timing
/// cannot stand for it.
const SHARE: f64 = 0.03;

/// A warm tag store and the generator that drives lookups into it.
pub struct HostProbe {
    tags: Vec<u64>,
    state: u64,
}

impl HostProbe {
    /// The probe's time on the development host when it runs undisturbed.
    /// Calibrated times are the times the host would have given at this
    /// probe speed.
    pub const REFERENCE_S: f64 = 0.005;

    /// An empty tag store. Its pages are touched by the first timing, so
    /// building it does not raise the peak resident set.
    pub fn new() -> Self {
        Self {
            tags: vec![0; TAG_BYTES / 8],
            state: 0x2545_f491_4f6c_dd1d,
        }
    }

    /// Host seconds for one round of lookups.
    fn time(&mut self) -> f64 {
        let sets = self.tags.len() / WAYS;
        let mut x = self.state;
        let mut hits = 0u64;
        let start = Instant::now();
        for _ in 0..LOOKUPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = (x >> 6) % LINES;
            let set = (line % sets as u64) as usize;
            let ways = &mut self.tags[set * WAYS..(set + 1) * WAYS];
            match ways.iter().position(|&t| t == line) {
                Some(w) => {
                    hits += 1;
                    ways[..=w].rotate_right(1);
                }
                None => {
                    ways.rotate_right(1);
                    ways[0] = line;
                }
            }
        }
        let s = start.elapsed().as_secs_f64();
        std::hint::black_box(hits);
        self.state = x;
        s
    }

    /// The median of as many timings as fit in [`SHARE`] of
    /// `batch_wall_s` (at least one): the host's speed just after a batch.
    pub fn after_batch(&mut self, batch_wall_s: f64) -> f64 {
        let mut times = vec![self.time()];
        while times.iter().sum::<f64>() < SHARE * batch_wall_s {
            times.push(self.time());
        }
        median(&times)
    }

    /// The factor that turns a host time taken next to a probe timing of
    /// `probe_s` into a calibrated time (below 1 on a slowed host).
    pub fn scale(probe_s: f64) -> f64 {
        Self::REFERENCE_S / probe_s
    }
}
