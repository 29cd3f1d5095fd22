//! High-level harness: a whole DR-tree overlay in one value.
//!
//! [`DrTreeCluster`] wraps the synchronous round engine with everything
//! an experiment needs: subscribing (the join protocol, Fig. 8),
//! controlled departures (Fig. 9) and crashes, publishing events with
//! delivery accounting (§2.3 dissemination), the contact oracle
//! (§3.2), the Definition-3.1/3.2 legality check driven by the
//! CHECK_\* stabilization modules (Figs. 10–14), and structural
//! statistics (height, degrees, memory — Lemma 3.1). Rounds are the
//! paper's "steps": every process runs its periodic checks once per
//! round and messages take one round per hop.
//!
//! Publishing comes in two shapes:
//!
//! * [`DrTreeCluster::publish_from`] — the paper's measurement unit:
//!   one event, drained to quiescence before the next may enter.
//! * [`DrTreeCluster::publish_pipeline`] — the scaling path: a sliding
//!   window of events disseminates concurrently, sharing rounds, while
//!   tagged message accounting keeps every per-event figure exact (see
//!   [`drtree_sim::MsgTag`]).

use rand::rngs::StdRng;

use drtree_sim::{Metrics, ProcessId, RoundNetwork};
use drtree_spatial::{Point, Rect};

use crate::config::DrTreeConfig;
use crate::corruption::CorruptionKind;
use crate::harness::Harness;
use crate::legal::{self, Snapshot, Violation};
use crate::message::{DrtMessage, DrtTimer};
use crate::protocol::node::DrtNode;
use crate::state::NodeState;

/// Outcome of a single published event (the measurement unit of the
/// false-positive/false-negative experiments).
#[derive(Debug, Clone)]
pub struct PublishReport {
    /// The event id assigned by the cluster.
    pub event_id: u64,
    /// Every process that received the event (publisher excluded).
    pub receivers: Vec<ProcessId>,
    /// Subscribers whose filter matches the event (publisher excluded).
    pub matching: Vec<ProcessId>,
    /// Receivers whose filter does not match (§2.3 false positives).
    pub false_positives: Vec<ProcessId>,
    /// Matching subscribers that did not receive the event (§2.3 false
    /// negatives — zero in legitimate configurations).
    pub false_negatives: Vec<ProcessId>,
    /// `PubDown`/`PubUp` messages spent on this event. Tag-scoped:
    /// exact for this event even when dissemination of several events
    /// overlaps in the network ([`DrTreeCluster::publish_pipeline`]).
    pub messages: u64,
    /// Rounds the dissemination took: the fixed drain budget for
    /// [`DrTreeCluster::publish_from`], the measured injection-to-
    /// quiescence span for [`DrTreeCluster::publish_pipeline`].
    pub rounds: u64,
}

impl PublishReport {
    /// False-positive rate among receivers (0 when nobody received).
    pub fn false_positive_rate(&self) -> f64 {
        if self.receivers.is_empty() {
            return 0.0;
        }
        self.false_positives.len() as f64 / self.receivers.len() as f64
    }
}

/// A complete simulated DR-tree overlay (round-based engine).
///
/// See the [crate documentation](crate) for a quick-start example.
///
/// # Example: sequential vs pipelined publish
///
/// ```
/// use drtree_core::{DrTreeCluster, DrTreeConfig};
/// use drtree_spatial::{Point, Rect};
///
/// let filters: Vec<Rect<2>> = (0..12)
///     .map(|i| {
///         let x = f64::from(i % 4) * 10.0;
///         let y = f64::from(i / 4) * 10.0;
///         Rect::new([x, y], [x + 12.0, y + 12.0])
///     })
///     .collect();
/// // `build_bulk` materializes a legal overlay without protocol joins.
/// let mut sequential: DrTreeCluster<2> =
///     DrTreeCluster::build_bulk(DrTreeConfig::default(), 7, &filters);
/// let mut pipelined = sequential.clone();
/// let ids = sequential.ids();
/// let events: Vec<_> = (0..6)
///     .map(|i| (ids[i], Point::new([3.0 * i as f64 + 1.0, 11.0])))
///     .collect();
///
/// // The paper's measurement mode: one event at a time, each drained
/// // to quiescence before the next enters the network.
/// let before = sequential.round();
/// let seq: Vec<_> = events
///     .iter()
///     .map(|&(publisher, point)| sequential.publish_from(publisher, point))
///     .collect();
/// let seq_rounds = sequential.round() - before;
///
/// // The scaling mode: a window of events shares dissemination rounds.
/// let before = pipelined.round();
/// let pipe = pipelined.publish_pipeline_from(&events, 4);
/// let pipe_rounds = pipelined.round() - before;
///
/// // Same deliveries and per-event message bills, fewer total rounds.
/// for (a, b) in seq.iter().zip(&pipe) {
///     assert_eq!(a.receivers, b.receivers);
///     assert_eq!(a.messages, b.messages);
/// }
/// assert!(pipe_rounds < seq_rounds);
/// ```
#[derive(Clone)]
pub struct DrTreeCluster<const D: usize> {
    pub(crate) net: RoundNetwork<DrtNode<D>>,
    config: DrTreeConfig,
    /// Contact oracle, hints and delivery accounting.
    pub(crate) harness: Harness<D>,
}

impl<const D: usize> DrTreeCluster<D> {
    /// Upper bound on the [`DrTreeCluster::publish_pipeline`] window.
    ///
    /// Delivery accounting reads each node's recently-seen event ring
    /// at quiescence time; a busy interior node (the root sees every
    /// event) observes up to roughly three windows of newer events
    /// before the oldest in-flight event is accounted, so the window
    /// must stay well below the ring capacity (1024 entries).
    pub const MAX_PUBLISH_WINDOW: usize = 256;

    /// Creates an empty overlay with deterministic seed.
    pub fn new(config: DrTreeConfig, seed: u64) -> Self {
        Self {
            net: RoundNetwork::with_tick(seed, DrtTimer::Tick),
            config,
            harness: Harness::default(),
        }
    }

    /// The overlay configuration.
    pub fn config(&self) -> &DrTreeConfig {
        &self.config
    }

    /// Number of live subscribers.
    pub fn len(&self) -> usize {
        self.net.len()
    }

    /// `true` when no subscriber is live.
    pub fn is_empty(&self) -> bool {
        self.net.is_empty()
    }

    /// Ids of live subscribers.
    pub fn ids(&self) -> Vec<ProcessId> {
        self.net.ids()
    }

    /// Rounds executed so far.
    pub fn round(&self) -> u64 {
        self.net.round()
    }

    /// Message metrics of the underlying network.
    pub fn metrics(&self) -> &Metrics {
        self.net.metrics()
    }

    /// Resets message metrics (between experiment phases).
    pub fn reset_metrics(&mut self) {
        self.net.reset_metrics();
    }

    /// Deterministic randomness for harness decisions.
    pub fn rng(&mut self) -> &mut StdRng {
        self.net.rng()
    }

    /// Shared view of one subscriber process.
    pub fn node(&self, id: ProcessId) -> Option<&DrtNode<D>> {
        self.net.process(id)
    }

    /// Adds a subscriber with `filter`. It joins the overlay through the
    /// contact oracle during the following rounds.
    pub fn add_subscriber(&mut self, filter: Rect<D>) -> ProcessId {
        let id = self.net.add_process(DrtNode::new(self.config, filter));
        self.harness.add(id, filter);
        id
    }

    /// Adds a subscriber and runs rounds until it is attached to the
    /// main tree (or `max_rounds` elapse). Returns the id.
    pub fn add_subscriber_stable(&mut self, filter: Rect<D>) -> ProcessId {
        let id = self.add_subscriber(filter);
        let max_rounds = 40 + 4 * (self.height() as u64 + 2) + self.config.join_retry;
        for _ in 0..max_rounds {
            let contact = self.root();
            let joined = self
                .node(id)
                .is_some_and(|n| !n.believes_root() || contact == Some(id));
            if joined {
                break;
            }
            self.run_round();
        }
        id
    }

    /// Builds an overlay over `filters`, one stable join at a time, and
    /// stabilizes it. Panics if the overlay cannot reach a legal
    /// configuration — construction from a quiescent state always can.
    pub fn build(config: DrTreeConfig, seed: u64, filters: &[Rect<D>]) -> Self {
        let mut cluster = Self::new(config, seed);
        for f in filters {
            cluster.add_subscriber_stable(*f);
        }
        cluster
            .stabilize(10_000 + 50 * filters.len() as u64)
            .expect("freshly built overlay stabilizes");
        cluster
    }

    /// Builds an overlay over `filters` by materializing a legitimate
    /// configuration directly (Hilbert-ordered grouping, largest-MBR
    /// owners — see [`crate::bulk`]) instead of running one join
    /// protocol instance per subscriber.
    ///
    /// Protocol-equivalent from the outside: the result passes
    /// [`DrTreeCluster::check_legal`] (asserted), so every subsequent
    /// operation — publishes, churn, corruption, stabilization — runs
    /// the unmodified protocol on it. [`DrTreeCluster::build`] costs
    /// `O(N²)` simulation work and dominates large experiments; this
    /// path is `O(N log N)` and makes 10k+-subscriber benches
    /// practical.
    ///
    /// # Panics
    ///
    /// Panics if the materialized configuration is not legal (a bug,
    /// not an input condition: any finite filter set has one).
    pub fn build_bulk(config: DrTreeConfig, seed: u64, filters: &[Rect<D>]) -> Self {
        let mut cluster = Self::new(config, seed);
        let ids: Vec<ProcessId> = filters.iter().map(|&f| cluster.add_subscriber(f)).collect();
        for (id, state) in crate::bulk::bulk_states(&config, &ids, filters) {
            if let Some(node) = cluster.net.process_mut(id) {
                *node.state_mut() = state;
            }
        }
        // Two rounds warm the heartbeat caches; on a legal state the
        // CHECK_* modules are no-ops.
        cluster.run_rounds(2);
        if let Err(v) = cluster.check_legal() {
            panic!("bulk-built overlay is not legal: {v:?}");
        }
        cluster
    }

    /// Suspends or resumes the periodic stabilization tick (the ∆
    /// windows of Lemma 3.7 are simulated by suspending it).
    pub fn set_stabilization_enabled(&mut self, enabled: bool) {
        self.net.set_tick(enabled.then_some(DrtTimer::Tick));
    }

    /// Executes one round. Every node's contact hint holds the contact
    /// oracle's answer for the state the round starts from.
    pub fn run_round(&mut self) {
        self.harness.step(&mut self.net, RoundNetwork::run_round);
    }

    /// Executes `n` rounds.
    pub fn run_rounds(&mut self, n: u64) {
        for _ in 0..n {
            self.run_round();
        }
    }

    /// Runs until the configuration is legitimate (Definition 3.2).
    /// Returns the number of rounds needed, or `None` on timeout.
    pub fn stabilize(&mut self, max_rounds: u64) -> Option<u64> {
        for executed in 0..=max_rounds {
            if self.check_legal().is_ok() {
                return Some(executed);
            }
            if executed == max_rounds {
                break;
            }
            self.run_round();
        }
        None
    }

    /// Checks Definition 3.1/3.2 on the current global state.
    ///
    /// # Errors
    ///
    /// Returns every violated condition.
    pub fn check_legal(&self) -> Result<(), Vec<Violation>> {
        let v = legal::check_legal(&self.harness.states(&self.net), &self.config);
        if v.is_empty() {
            Ok(())
        } else {
            Err(v)
        }
    }

    /// Clones the state of every live process.
    pub fn snapshot(&self) -> Snapshot<D> {
        self.net
            .iter()
            .map(|(id, n)| (id, n.state().clone()))
            .collect()
    }

    /// The contact oracle (§3.2): the root of the largest tree
    /// component — "a subscriber already in the structure". Computed
    /// afresh from every live node's state, in O(N).
    pub fn contact(&self) -> Option<ProcessId> {
        self.harness.compute_contact(&self.net)
    }

    /// The overlay root (the contact, in a legal configuration): the
    /// contact the last round's pass computed, unless the harness has
    /// changed the state since.
    pub fn root(&self) -> Option<ProcessId> {
        self.harness.current_contact(&self.net)
    }

    /// Height of the main tree: the root's topmost level (leaf-only
    /// root = 0). Lemma 3.1 bounds this by `O(log_m N)`.
    pub fn height(&self) -> u32 {
        self.root()
            .and_then(|r| self.node(r))
            .map_or(0, |n| n.top())
    }

    /// Controlled departure (Fig. 9): the subscriber announces `LEAVE`
    /// to its parent, then disconnects.
    pub fn controlled_leave(&mut self, id: ProcessId) {
        if !self.net.is_alive(id) {
            return;
        }
        self.net.send_external(id, DrtMessage::DepartRequest);
        // One round for the request to arrive and the LEAVE to be sent …
        self.run_round();
        self.run_round();
        // … then the process is gone.
        self.crash(id);
    }

    /// Uncontrolled departure (crash failure): the subscriber vanishes
    /// silently.
    pub fn crash(&mut self, id: ProcessId) {
        self.net.crash(id);
        self.harness.touch(&self.net, id);
    }

    /// Applies an adversarial corruption to one subscriber's memory
    /// (Lemma 3.6's transient faults). Returns `false` if it is dead.
    pub fn corrupt(&mut self, id: ProcessId, kind: CorruptionKind) -> bool {
        let universe = &self.harness.all_ids;
        let alive = self
            .net
            .corrupt(id, |node, rng| kind.apply(node.state_mut(), universe, rng));
        self.harness.touch(&self.net, id);
        alive
    }

    /// Replaces the network fault profile (message loss, duplication,
    /// reordering) at runtime — see [`drtree_sim::FaultProfile`]. The
    /// scripted fault windows of [`crate::adversary`] open and close
    /// through this.
    pub fn set_faults(&mut self, faults: drtree_sim::FaultProfile) {
        self.net.set_faults(faults);
    }

    /// Installs a network partition between the given groups (both
    /// directions of every cross-group link are cut; successive calls
    /// compose). See [`RoundNetwork::partition`].
    pub fn partition(&mut self, groups: &[Vec<ProcessId>]) {
        self.net.partition(groups);
    }

    /// Heals every partition cut. Manual [`DrTreeCluster::block_link`]
    /// blocks survive.
    pub fn heal(&mut self) {
        self.net.heal();
    }

    /// Blocks the directed link `from → to`.
    pub fn block_link(&mut self, from: ProcessId, to: ProcessId) {
        self.net.block_link(from, to);
    }

    /// Unblocks the directed link `from → to` (inverse of a single
    /// [`DrTreeCluster::block_link`]; also removes a partition cut on
    /// that link).
    pub fn unblock_link(&mut self, from: ProcessId, to: ProcessId) {
        self.net.unblock_link(from, to);
    }

    /// Removes all link blocks, manual and partition-installed.
    pub fn unblock_all(&mut self) {
        self.net.unblock_all();
    }

    /// Direct mutable access to a subscriber's state for custom faults.
    pub fn corrupt_with(
        &mut self,
        id: ProcessId,
        f: impl FnOnce(&mut NodeState<D>, &mut StdRng),
    ) -> bool {
        let alive = self.net.corrupt(id, |node, rng| f(node.state_mut(), rng));
        self.harness.touch(&self.net, id);
        alive
    }

    /// Replaces a live subscriber's filter in place — the mobility
    /// command of the moving-subscription experiments. The filter is
    /// "constant non-corruptible data" in the paper's model (§3.2), so
    /// a move is modeled as atomically swapping that constant: the
    /// leaf instance's MBR is re-pinned to the new filter, and the
    /// stale ancestor MBR/filter caches repair through the regular
    /// heartbeat + `Compute_MBR` stabilization — exactly the machinery
    /// that absorbs a transient corruption (Lemma 3.6), which is why
    /// no new protocol is needed. Run [`DrTreeCluster::stabilize`]
    /// afterwards to let the repair converge before the next publish.
    /// Returns `false` if the subscriber is dead.
    pub fn move_subscriber(&mut self, id: ProcessId, filter: Rect<D>) -> bool {
        let alive = self.net.corrupt(id, |node, _| {
            let state = node.state_mut();
            state.filter = filter;
            if let Some(leaf) = state.level_mut(0) {
                leaf.mbr = filter;
            }
        });
        self.harness.touch(&self.net, id);
        alive
    }

    /// Publishes `point` from `publisher` and accounts the outcome.
    ///
    /// Runs enough rounds for the event to traverse the tree twice over
    /// (up and down) in a steady state. The message bill is tag-scoped
    /// (exactly this event's `PubUp`/`PubDown` sends), so it stays
    /// correct even if traffic of an earlier event is still in flight.
    pub fn publish_from(&mut self, publisher: ProcessId, point: Point<D>) -> PublishReport {
        let event_id = self.inject(publisher, point);
        let rounds = 2 * (u64::from(self.height()) + 2) + 2;
        self.run_rounds(rounds);
        let report = self
            .harness
            .finalize(&mut self.net, publisher, point, event_id, rounds);
        // If the drain budget did not suffice (corrupted overlays),
        // retire the id so late traffic cannot re-create counters.
        self.retire_events();
        report
    }

    /// Publishes a stream of events through a sliding window of
    /// `window` concurrently disseminating events — the pipelined
    /// counterpart of calling [`DrTreeCluster::publish_from`] in a
    /// loop. All events are published by `publisher`; see
    /// [`DrTreeCluster::publish_pipeline_from`] for per-event
    /// publishers.
    pub fn publish_pipeline(
        &mut self,
        publisher: ProcessId,
        points: &[Point<D>],
        window: usize,
    ) -> Vec<PublishReport> {
        let events: Vec<(ProcessId, Point<D>)> = points.iter().map(|&p| (publisher, p)).collect();
        self.publish_pipeline_from(&events, window)
    }

    /// Publishes `events` (publisher, point pairs) through a sliding
    /// window: up to `window` events disseminate concurrently, sharing
    /// rounds, their `PubUp`/`PubDown` traffic interleaved in the same
    /// inboxes. Per-event accounting stays exact: every message is
    /// tagged with its event id ([`drtree_sim::MsgTag`]), each event
    /// completes when its own tag has no messages in flight (per-tag
    /// quiescence instead of a whole-network drain), and its report
    /// charges only its own messages and its own injection-to-
    /// quiescence rounds.
    ///
    /// Reports are returned in input order. In a legitimate
    /// configuration the delivery sets equal a sequential
    /// [`DrTreeCluster::publish_from`] reference for every window size
    /// (property-tested); total rounds shrink by up to `min(window,
    /// rounds-per-event)` since the per-round simulation work is shared
    /// by every in-flight event.
    ///
    /// `window` is clamped to `1..=`[`DrTreeCluster::MAX_PUBLISH_WINDOW`].
    pub fn publish_pipeline_from(
        &mut self,
        events: &[(ProcessId, Point<D>)],
        window: usize,
    ) -> Vec<PublishReport> {
        let window = window.clamp(1, Self::MAX_PUBLISH_WINDOW);
        let mut reports: Vec<Option<PublishReport>> = Vec::new();
        reports.resize_with(events.len(), || None);
        // (input index, event id, injection round) per in-flight event.
        let mut live: Vec<(usize, u64, u64)> = Vec::with_capacity(window);
        let mut next = 0usize;
        // Dissemination is self-limiting (per-node dedup), so every tag
        // drains; the deadline only guards adversarially corrupted
        // configurations, force-finalizing whatever is still in flight.
        let per_event = 2 * (u64::from(self.height()) + 2) + 2;
        let deadline = self.round() + (events.len() as u64 + 1) * (per_event + 4) + 64;
        while next < events.len() || !live.is_empty() {
            while live.len() < window && next < events.len() {
                let (publisher, point) = events[next];
                let event_id = self.inject(publisher, point);
                live.push((next, event_id, self.round()));
                next += 1;
            }
            self.run_round();
            let expired = self.round() >= deadline;
            let mut i = 0;
            while i < live.len() {
                let (idx, event_id, injected) = live[i];
                if !expired && self.net.metrics().tag_inflight(event_id) > 0 {
                    i += 1;
                    continue;
                }
                let (publisher, point) = events[idx];
                let rounds = self.round() - injected;
                reports[idx] =
                    Some(
                        self.harness
                            .finalize(&mut self.net, publisher, point, event_id, rounds),
                    );
                live.swap_remove(i);
            }
        }
        // Every tag this call allocated is finalized; retiring the id
        // range keeps traffic of force-finalized events that still
        // circulates in a corrupted overlay from re-creating per-tag
        // counter entries nobody would ever clear.
        self.retire_events();
        reports
            .into_iter()
            .map(|r| r.expect("every event finalized"))
            .collect()
    }

    /// Allocates an event id and injects the publish request. Crate-
    /// visible so the adversary harness ([`crate::adversary`]) can
    /// drive its own pipeline loop interleaved with fault injection.
    pub(crate) fn inject(&mut self, publisher: ProcessId, point: Point<D>) -> u64 {
        let event = self.harness.open(publisher, point);
        let event_id = event.id;
        self.net
            .send_external(publisher, DrtMessage::PublishRequest { event });
        event_id
    }

    /// Drops an injected event without accounting its delivery (its
    /// receipts and message counters are forgotten).
    pub(crate) fn forget_event(&mut self, event_id: u64) {
        self.harness.forget(&mut self.net, event_id);
    }

    /// Retires every event id allocated so far: late traffic can no
    /// longer re-create message counters or receipt lists.
    pub(crate) fn retire_events(&mut self) {
        self.harness.retire(&mut self.net);
    }

    /// Maximum and mean per-process memory entries (Lemma 3.1's
    /// `O(M log² N / log m)` quantity).
    pub fn memory_stats(&self) -> (usize, f64) {
        let mut max = 0usize;
        let mut total = 0usize;
        let mut count = 0usize;
        for (_, n) in self.net.iter() {
            let entries = n.state().memory_entries();
            max = max.max(entries);
            total += entries;
            count += 1;
        }
        let mean = if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        };
        (max, mean)
    }

    /// Maximum instance degree across the overlay.
    pub fn max_degree_observed(&self) -> usize {
        self.net
            .iter()
            .flat_map(|(_, n)| n.state().levels.values().map(|l| l.degree()))
            .max()
            .unwrap_or(0)
    }
}

impl<const D: usize> std::fmt::Debug for DrTreeCluster<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DrTreeCluster")
            .field("processes", &self.len())
            .field("round", &self.round())
            .field("height", &self.height())
            .finish()
    }
}
