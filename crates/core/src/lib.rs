//! The DR-tree: a self-stabilizing peer-to-peer overlay of spatial
//! filters.
//!
//! This crate is the primary contribution of the reproduced paper
//! (*"Stabilizing Peer-to-Peer Spatial Filters"*, Bianchi, Datta, Felber,
//! Gradinariu — ICDCS 2007): a distributed R-tree in which **every tree
//! node is owned by a subscriber process**. Subscribers self-organize
//! into a height-balanced virtual tree driven by the semantic
//! (containment) relations between their filters, tolerate churn and
//! memory corruption through periodic self-stabilizing checks, and route
//! published events with no false negatives and few false positives.
//!
//! # Structure of the implementation
//!
//! | Paper element | Module |
//! |---|---|
//! | per-level node state (`parent`, `C_l`, `mbr`, `underloaded`) | [`NodeState`]/[`LevelState`] |
//! | join protocol (Fig. 8) | [`protocol::join`] |
//! | controlled departures (Fig. 9) | [`protocol::leave`] |
//! | split + root election (Fig. 6, §3.2) | [`protocol::split`] |
//! | stabilization modules CHECK_* (Figs. 10–14) | [`protocol::stabilize`] |
//! | event dissemination (§2.3, §3) | [`protocol::dissemination`] |
//! | FP-driven reorganization (§3.2) | [`protocol::reorg`] |
//! | legal state, Def. 3.1/3.2 | [`legal`] |
//! | churn resistance, Lemma 3.7 | [`churn`] |
//! | adversarial corruption for Lemma 3.6 | [`corruption`] |
//! | scripted fault schedules + convergence/SLO harness | [`adversary`] |
//!
//! # Level numbering
//!
//! The paper numbers tree levels from the root downward; this crate
//! numbers them **from the leaves upward** (leaf instances at level 0,
//! children of a level-`l` instance at level `l−1`), so a root split
//! simply adds a level on top without renumbering. A subscriber internal
//! at level `l` is recursively its own child down to its leaf instance —
//! its instances always occupy the contiguous range `0..=top`.
//!
//! # Quick start
//!
//! ```
//! use drtree_core::{DrTreeCluster, DrTreeConfig};
//! use drtree_spatial::{Point, Rect};
//!
//! let mut cluster: DrTreeCluster<2> =
//!     DrTreeCluster::new(DrTreeConfig::default(), 42);
//! // Subscribe 50 processes with random-ish rectangles.
//! let mut ids = Vec::new();
//! for i in 0..50u32 {
//!     let x = f64::from(i % 10) * 10.0;
//!     let y = f64::from(i / 10) * 10.0;
//!     ids.push(cluster.add_subscriber(Rect::new([x, y], [x + 15.0, y + 15.0])));
//! }
//! cluster.stabilize(200).expect("converges to a legal configuration");
//! assert!(cluster.check_legal().is_ok());
//!
//! // Publish an event from the first subscriber: nobody interested is
//! // missed (no false negatives — paper §2.3).
//! let report = cluster.publish_from(ids[0], Point::new([5.0, 5.0]));
//! assert!(report.false_negatives.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod bulk;
pub mod churn;
mod cluster;
mod cluster_async;
mod config;
pub mod corruption;
pub mod federation;
mod harness;
pub mod legal;
mod message;
pub mod protocol;
pub mod snapshot;
mod state;

pub use adversary::{
    run_convergence, ConvergenceConfig, ConvergenceReport, FaultEvent, FaultSchedule,
    LatencyDistribution, TimedFault,
};
pub use cluster::{DrTreeCluster, PublishReport};
pub use cluster_async::AsyncDrTreeCluster;
pub use config::{DrTreeConfig, FpReorgConfig};
pub use federation::{entry_fingerprint, FedMessage, FedOp, RangeSummary};
pub use message::{ChildSummary, DrtMessage, DrtTimer, LevelTransfer, PubEvent};
pub use protocol::node::DrtNode;
pub use snapshot::TreeView;
pub use state::{Level, LevelState, NodeState};

/// Re-export: degree bounds / split-method configuration shared with the
/// centralized R-tree.
pub use drtree_rtree::{RTreeConfig, SplitMethod};
/// Re-export: the message fault knobs (loss / duplication / reordering)
/// of the simulation substrate, used by [`adversary`] schedules.
pub use drtree_sim::FaultProfile;
/// Re-export: process identifiers of the simulation substrate.
pub use drtree_sim::ProcessId;
