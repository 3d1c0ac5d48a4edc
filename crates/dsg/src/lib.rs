//! # dsg — Dynamic Skip Graphs (locally self-adjusting skip graphs)
//!
//! A from-scratch reproduction of the **DSG** algorithm of Huq & Ghosh,
//! *"Locally Self-Adjusting Skip Graphs"*, ICDCS 2017 (arXiv:1704.00830).
//!
//! DSG is a distributed self-adjusting algorithm for skip graphs: upon each
//! communication request `(u, v)` it first routes the request with the
//! standard skip graph routing and then **locally and partially
//! reconstructs** the topology so that `u` and `v` end up directly linked,
//! while
//!
//! * the skip graph height stays `O(log n)` (the a-balance property is
//!   repaired with dummy nodes when necessary),
//! * distances inside *non-communicating* groups never grow (the working-set
//!   property of the paper keeps holding), and
//! * every step respects the CONGEST model (`O(log n)`-bit messages,
//!   `O(log n)` bits of state per node).
//!
//! The mechanism is the paper's combination of **per-level group-ids and
//! timestamps** (rules P1–P4 and T1–T6), an **approximate median** computed
//! by the distributed AMF algorithm (Section V), and per-level splits driven
//! by comparing node priorities against that median (Cases 1 and 2 of
//! Section IV-C).
//!
//! # Crate layout
//!
//! | module | paper reference | contents |
//! |--------|-----------------|----------|
//! | [`state`] | §IV-B | per-node timestamps, group-ids, is-dominating flags, group-base |
//! | [`priority`] | §IV-C rules P1–P4 | the priority lattice and rule evaluation |
//! | [`amf`] | §V, Lemma 1 | [`MedianFinder`] trait, the AMF simulation, an exact-median oracle |
//! | [`transform`] | §IV-C/D, Alg. 1 | the per-level split engine (Cases 1 and 2) |
//! | [`timestamps`] | §IV-E rules T1–T6 | timestamp reassignment |
//! | [`groups`] | §IV-D, App. C | group-id / group-base reassignment below `α` |
//! | [`dummy`] | §IV-F | a-balance repair via dummy nodes |
//! | [`cost`] | §III, Theorem 3 | round-cost accounting per request |
//! | [`dsg`] | Alg. 1 | [`DynamicSkipGraph`], the epoch engine |
//! | [`policy`] | §III (amortized argument) | frequency sketch + admission gate deciding which communicates earn a restructure |
//! | [`request`] | — | the unified typed [`Request`] vocabulary |
//! | [`session`] | — | [`DsgSession`] / [`DsgBuilder`], the public entry point |
//! | [`service`] | — | [`DsgService`], the fault-contained concurrent ingest front-end |
//! | [`overload`] | — | sojourn-based load shedding, brownout degradation, and the stall watchdog behind [`ServiceConfig::overload`](service::ServiceConfig::overload) |
//! | [`persist`] | — | durable write-ahead journal + snapshot checkpoints behind [`DsgService::open`](service::DsgService::open) |
//! | [`observer`] | — | [`DsgObserver`] progress hooks |
//! | [`fixtures`] | Fig. 4 | the worked S₈ example instance |
//!
//! # Example
//!
//! ```rust
//! use dsg::prelude::*;
//!
//! # fn main() -> Result<(), DsgError> {
//! // Build a session over a self-adjusting skip graph of 32 peers.
//! let mut session = DsgSession::builder().peers(0..32).seed(7).build()?;
//!
//! // A skewed workload: peers 3 and 29 talk repeatedly.
//! let first = session.submit(Request::communicate(3, 29))?;
//! let later = session.submit(Request::communicate(3, 29))?;
//!
//! // After the first request the pair is directly linked, so the
//! // subsequent request routes in a single hop.
//! let (first, later) = (
//!     first.request_outcome().unwrap().clone(),
//!     later.request_outcome().unwrap().clone(),
//! );
//! assert!(later.routing_cost <= 1);
//! assert!(first.total_cost() >= later.routing_cost);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod amf;
pub mod config;
pub mod cost;
pub mod dsg;
pub mod dummy;
pub mod error;
pub mod fixtures;
pub mod groups;
pub mod observer;
pub mod overload;
pub mod persist;
pub mod policy;
pub mod priority;
pub mod request;
pub mod service;
pub mod session;
pub mod state;
pub mod timestamps;
pub mod transform;

pub use amf::{AmfMedian, ExactMedian, MedianFinder, MedianOutcome};
pub use config::{AdaptPolicy, DsgConfig, InstallStrategy, MedianStrategy, PolicyConfig};
pub use cost::{CostBreakdown, EpochCounters, RunStats};
pub use dsg::{
    DynamicSkipGraph, EpochPhase, EpochReport, Generation, RecoveryReport, RequestOutcome,
};
pub use error::DsgError;
pub use observer::{
    AuditEvent, DsgObserver, EpochEvent, OverloadEvent, SharedObserver, StallEvent,
};
pub use overload::{OverloadConfig, OverloadController, OverloadState, RetryPolicy};
pub use persist::{DurableStore, EngineImage, PersistConfig, PersistError};
pub use policy::{Admission, AdmissionGate, ClusterSignal, FreqSketch};
pub use priority::Priority;
pub use request::Request;
pub use service::{
    DsgService, OpenReport, ServiceConfig, ServiceMetrics, ServiceStatus, ShutdownPolicy,
    SubmitError, Ticket,
};
pub use session::{BatchOutcome, DsgBuilder, DsgSession, SubmitOutcome};
pub use state::{NodeState, StateTable};

/// Fail-point registry of the substrate, re-exported so applications and
/// tests arm the engine's named fault-injection sites without depending on
/// `dsg-skipgraph` directly.
pub use dsg_skipgraph::failpoint;

/// The canonical import surface of the crate.
///
/// ```rust
/// use dsg::prelude::*;
/// # fn main() -> Result<(), DsgError> {
/// let mut session = DsgSession::builder().peers(0..8).seed(1).build()?;
/// session.submit(Request::communicate(0, 5))?;
/// # Ok(())
/// # }
/// ```
///
/// Everything a library user needs to build and drive a session: the
/// builder/session pair, the typed [`Request`] vocabulary, outcomes,
/// configuration, observers, and the error type. The umbrella crate
/// (`dsg-repro`) re-exports this module, so downstream code can depend on
/// either and write `use dsg::prelude::*;` / `use dsg_repro::prelude::*;`
/// interchangeably. The engine type ([`DynamicSkipGraph`]) is included for
/// inspection APIs; it is built only through [`DsgSession::builder`] (or
/// rebuilt from a snapshot by [`DynamicSkipGraph::restore_image`]).
pub mod prelude {
    pub use crate::config::{
        AdaptPolicy, DsgConfig, InstallStrategy, MedianStrategy, PolicyConfig,
    };
    pub use crate::cost::{CostBreakdown, EpochCounters, RunStats};
    pub use crate::dsg::{
        DynamicSkipGraph, EpochPhase, EpochReport, RecoveryReport, RequestOutcome,
    };
    pub use crate::error::DsgError;
    pub use crate::observer::{
        AuditEvent, DsgObserver, EpochEvent, OverloadEvent, SharedObserver, StallEvent,
    };
    pub use crate::overload::{OverloadConfig, OverloadState, RetryPolicy};
    pub use crate::persist::{PersistConfig, PersistError};
    pub use crate::request::Request;
    pub use crate::service::{
        DsgService, OpenReport, ServiceConfig, ServiceMetrics, ServiceStatus, ShutdownPolicy,
        SubmitError, Ticket,
    };
    pub use crate::session::{BatchOutcome, DsgBuilder, DsgSession, SubmitOutcome};
}

/// Convenience result alias used across the crate.
pub type Result<T, E = DsgError> = std::result::Result<T, E>;
