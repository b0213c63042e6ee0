//! Golden pin of the request-plane digest: one fixed serving trial, its
//! full digest string (ledger + latency sketch + epoch series) hashed and
//! compared against a committed literal.
//!
//! If this test fails, either the engine's timing, the arrival generator,
//! the admission model, or the tracker changed behavior — all of which
//! invalidate every artifact in `results/`. Regenerate deliberately (the
//! failure message prints the new hash) and re-run the benches.

use std::hash::Hasher as _;

use silcfm_serve::{run_serve, ServeParams};
use silcfm_sim::{RunParams, SchemeKind};
use silcfm_trace::{arrivals, profiles};
use silcfm_types::{FxHasher, SystemConfig};

/// FxHash of the trial's digest string at the pinned configuration.
const GOLDEN_DIGEST_HASH: u64 = 0x2968_0976_fd52_7675;

#[test]
fn request_plane_digest_is_pinned() {
    let digest = run_serve(
        profiles::by_name("mcf").unwrap(),
        SchemeKind::silcfm(),
        &SystemConfig::small(),
        &RunParams::smoke(),
        &ServeParams::default_plane(),
        arrivals::by_name("bursty").unwrap(),
        35,
        None,
    )
    .unwrap()
    .digest();
    let mut h = FxHasher::default();
    h.write(digest.as_bytes());
    let got = h.finish();
    assert_eq!(
        got, GOLDEN_DIGEST_HASH,
        "request-plane digest drifted: update GOLDEN_DIGEST_HASH to {got:#018x} \
         only if the behavior change is intentional"
    );
}
