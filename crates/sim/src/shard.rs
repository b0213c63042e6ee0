//! A serial compatibility spelling of [`System::run_with_feed_tapped`].
//!
//! Everything here exists only because the benchmark package (`simbench/`,
//! which is kept frozen between benchmark revisions) still calls
//! [`run_system_sharded_tapped`]; no crate, bin or example of the workspace
//! uses it. Call [`System::run_with_feed_tapped`] with a [`StreamFeed`]
//! instead. The next benchmark revision deletes this module.

use silcfm_types::obs::Tracer;

use crate::system::{LaneSource, ServiceTap, StreamFeed, System, SystemOutcome};

/// Run options of [`run_system_sharded_tapped`]. It has none; the type
/// exists only for that function's signature.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardParams;

impl ShardParams {
    /// The (only) value. `threads` is ignored: every run is serial.
    pub const fn with_threads(_threads: usize) -> Self {
        Self
    }
}

/// What [`run_system_sharded_tapped`] reports beyond the outcome: nothing.
/// The type exists only for that function's signature.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardReport;

/// Runs `system` over `source`'s lane streams with `tap` observing every
/// serviced record: exactly [`System::run_with_feed_tapped`] over a
/// [`StreamFeed`]. Kept only for the benchmark package's call.
pub fn run_system_sharded_tapped<T: Tracer, L: LaneSource, S: ServiceTap>(
    system: &mut System<T>,
    source: &L,
    accesses_per_core: u64,
    _shard: &ShardParams,
    tap: &mut S,
) -> (SystemOutcome, ShardReport) {
    let mut feed = StreamFeed::new(source, system.core_count());
    let outcome = system.run_with_feed_tapped(&mut feed, accesses_per_core, tap);
    (outcome, ShardReport)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{NullTap, WorkloadSource};
    use silcfm_baselines::RandomStatic;
    use silcfm_trace::{profiles, PlacementPolicy};
    use silcfm_types::{AddressSpace, SystemConfig};

    fn space() -> AddressSpace {
        AddressSpace::new(2048 * 2048, 4 * 2048 * 2048)
    }

    fn system() -> System {
        System::new(
            SystemConfig::small(),
            space(),
            PlacementPolicy::RandomSeeded(1),
            Box::new(RandomStatic::new(space())),
        )
    }

    #[test]
    fn compatibility_wrapper_matches_system_run() {
        let profile = profiles::scaled(profiles::by_name("dealii").unwrap(), 0.1);
        let mut serial = system();
        let want = serial.run(&profile, 2_000, 42);

        let mut wrapped = system();
        let (got, _) = run_system_sharded_tapped(
            &mut wrapped,
            &WorkloadSource {
                profile: &profile,
                seed: 42,
            },
            2_000,
            &ShardParams::with_threads(4),
            &mut NullTap,
        );
        assert_eq!(got, want);
        assert_eq!(wrapped.tally(), serial.tally());
    }
}
