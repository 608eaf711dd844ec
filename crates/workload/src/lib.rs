//! Client worlds and experiment scenarios.
//!
//! The `workload` crate provides everything outside the simulated server
//! machine:
//!
//! - [`clients`]: configurable closed-loop HTTP clients with per-class
//!   latency metrics, persistent-connection support, and S-Client-style
//!   abandon-and-retry behaviour (Banga & Druschel '97) so that offered
//!   load is sustained even when the server drops SYNs.
//! - [`synflood`]: an open-loop SYN generator cycling through a source
//!   address block — the "malicious clients" of §5.7.
//! - [`composite`]: combine several worlds behind one kernel, routing
//!   packets by source address and partitioning the timer tag space.
//! - [`metrics`]: per-class latency summaries and throughput counters.
//! - [`scenarios`]: one self-contained driver per experiment in the
//!   paper's evaluation — §5.3 baseline throughput, Figure 11 prioritized
//!   clients, Figures 12/13 CGI control, Figure 14 SYN-flood immunity, and
//!   the §5.8 virtual-server isolation experiment — each returning a
//!   structured result the registry reports and the tests assert against.
//! - [`registry`]: the named-scenario table behind the `rcbench` CLI —
//!   every experiment with uniform arguments, structured outcomes (text
//!   reports, trace sessions), and per-run self-checks.

pub mod clients;
pub mod composite;
pub mod metrics;
pub mod registry;
pub mod scenarios;
pub mod synflood;

pub use clients::{ClientSpec, HttpClients};
pub use composite::CompositeWorld;
pub use metrics::ClientMetrics;
pub use registry::{vs, Check, Outcome, Report, ScenarioArgs, ScenarioRegistry, ScenarioSpec};
pub use synflood::SynFlood;
