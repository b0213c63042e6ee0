//! `silcfm-serve`: the request-serving SLO plane for the SILC-FM
//! simulator.
//!
//! Every harness so far drives the engine *closed-loop*: cores issue their
//! next access as soon as they can, so offered load shrinks exactly when
//! the memory system slows down — the opposite of how a serving system
//! experiences a failed channel or a migration storm. This crate adds the
//! *open-loop* view the paper's datacenter framing implies:
//!
//! * **arrivals** live in [`silcfm_trace::arrivals`]: seeded Poisson /
//!   bursty / diurnal request schedules in the cycle domain;
//! * **admission** ([`plan`]) sheds requests whose predicted queueing
//!   would blow their deadline — decided entirely in the arrival domain,
//!   so admitted streams stay pure functions of their seeds and every
//!   trial is reproducible byte for byte;
//! * **tracking** ([`tracker`]) groups serviced records back into
//!   requests via the engine's [`silcfm_sim::ServiceTap`], resolves
//!   channel-NACKed requests through a cycle-domain exponential-backoff
//!   retry ladder against the fault schedule, and buckets everything into
//!   the `obs.slo.*` epoch series;
//! * **the ledger** ([`ledger`]) enforces conservation: `offered =
//!   completed + shed + timed_out + failed`, on every run;
//! * **regulation** ([`regulator`]) is an AIMD search for the maximum
//!   sustainable rate under a p99 SLO, trial by trial;
//! * **journaling** ([`journal`]) makes a killed search resumable by
//!   replaying recorded verdicts through fresh regulators.
//!
//! # Example
//!
//! ```
//! use silcfm_serve::{run_serve, ServeParams};
//! use silcfm_sim::{RunParams, SchemeKind};
//! use silcfm_trace::{arrivals, profiles};
//! use silcfm_types::SystemConfig;
//!
//! let profile = profiles::by_name("milc").unwrap();
//! let arrival = arrivals::by_name("poisson").unwrap();
//! let report = run_serve(
//!     profile,
//!     SchemeKind::silcfm(),
//!     &SystemConfig::small(),
//!     &RunParams::smoke(),
//!     &ServeParams::default_plane(),
//!     arrival,
//!     8,
//!     None,
//! )
//! .unwrap();
//! assert!(report.stats.ledger.conserved());
//! ```

pub mod journal;
pub mod ledger;
pub mod plan;
pub mod regulator;
pub mod runner;
pub mod tracker;

pub use journal::{search_digest, SloJournalWriter, TrialRecord};
pub use ledger::RequestLedger;
pub use plan::{plan_lane, LanePlan, ServeLaneGen, ServeParams, ServeSource};
pub use regulator::{Aimd, AimdParams};
pub use runner::{plan_trial, run_serve, ServeReport};
pub use tracker::{
    classify_retry, Disposition, FailureTimeline, NackedRequest, RequestTracker, Resolution,
    ServeRunStats,
};
