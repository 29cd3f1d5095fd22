//! Harness bookkeeping shared by both cluster façades
//! ([`crate::DrTreeCluster`] on the round engine,
//! [`crate::AsyncDrTreeCluster`] on the event engine): the contact
//! oracle (§3.2), the contact hints it feeds, and per-event delivery
//! accounting.
//!
//! All of it is dense and linear. The clusters allocate ids from 0
//! without reuse, so every column here is indexed by raw
//! [`ProcessId`]. Once per round (or tick step) [`Harness::step`] makes
//! one pass over the live nodes. The pass reads each node's top-level
//! parent and drains its receipt log (the first receipts logged by
//! [`DrtNode`]). Roots are then resolved by a memoized walk, which is
//! O(N) even on corrupted states with cycles. Accounting an event
//! ([`Harness::finalize`]) costs O(receivers) node reads plus one scan
//! of the dense filter column; it never visits the other nodes.

use std::collections::BTreeMap;

use drtree_sim::{EventNetwork, Metrics, ProcessId, RoundNetwork};
use drtree_spatial::{Point, Rect};

use crate::cluster::PublishReport;
use crate::message::PubEvent;
use crate::protocol::node::DrtNode;
use crate::state::NodeState;

/// What the shared bookkeeping needs from a simulation engine.
pub(crate) trait Engine<const D: usize> {
    fn node(&self, id: ProcessId) -> Option<&DrtNode<D>>;
    fn node_mut(&mut self, id: ProcessId) -> Option<&mut DrtNode<D>>;
    fn metrics(&self) -> &Metrics;
    fn clear_tag(&mut self, tag: u64);
    fn retire_tags_below(&mut self, floor: u64);
}

impl<const D: usize> Engine<D> for RoundNetwork<DrtNode<D>> {
    fn node(&self, id: ProcessId) -> Option<&DrtNode<D>> {
        self.process(id)
    }
    fn node_mut(&mut self, id: ProcessId) -> Option<&mut DrtNode<D>> {
        self.process_mut(id)
    }
    fn metrics(&self) -> &Metrics {
        self.metrics()
    }
    fn clear_tag(&mut self, tag: u64) {
        self.clear_tag(tag);
    }
    fn retire_tags_below(&mut self, floor: u64) {
        self.retire_tags_below(floor);
    }
}

impl<const D: usize> Engine<D> for EventNetwork<DrtNode<D>> {
    fn node(&self, id: ProcessId) -> Option<&DrtNode<D>> {
        self.process(id)
    }
    fn node_mut(&mut self, id: ProcessId) -> Option<&mut DrtNode<D>> {
        self.process_mut(id)
    }
    fn metrics(&self) -> &Metrics {
        self.metrics()
    }
    fn clear_tag(&mut self, tag: u64) {
        self.clear_tag(tag);
    }
    fn retire_tags_below(&mut self, floor: u64) {
        self.retire_tags_below(floor);
    }
}

/// Per-cluster harness state. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub(crate) struct Harness<const D: usize> {
    /// Every id ever allocated, `all_ids[raw]` (the universe adversarial
    /// corruption draws forged references from).
    pub(crate) all_ids: Vec<ProcessId>,
    /// `filters[raw]`: the live subscriber's filter, `None` once gone.
    filters: Vec<Option<Rect<D>>>,
    /// The contact computed by the last pass. Valid while `fresh`: no
    /// node was added, crashed or mutated by the harness since.
    contact: Option<ProcessId>,
    fresh: bool,
    /// The contact every live node's hint holds; `None` forces the next
    /// pass to rewrite every hint.
    hinted: Option<ProcessId>,
    /// The next event id to allocate.
    next_event_id: u64,
    /// Receivers drained so far, per open (injected, not yet accounted)
    /// event. Receipts of other events are dropped at drain time.
    receipts: BTreeMap<u64, Vec<ProcessId>>,
    /// Scratch columns of the contact walk, reused across passes.
    walk: Walk,
}

impl<const D: usize> Harness<D> {
    /// Registers a freshly added subscriber.
    pub(crate) fn add(&mut self, id: ProcessId, filter: Rect<D>) {
        debug_assert_eq!(id.raw(), self.all_ids.len() as u64, "ids are dense");
        self.all_ids.push(id);
        self.filters.push(Some(filter));
        self.fresh = false;
        self.hinted = None;
    }

    /// Re-reads `id` after the harness changed its state or liveness
    /// (crash, move, corruption): syncs the filter column and
    /// invalidates the cached contact.
    pub(crate) fn touch<E: Engine<D>>(&mut self, engine: &E, id: ProcessId) {
        if let Some(slot) = self.filters.get_mut(id.raw() as usize) {
            *slot = engine.node(id).map(DrtNode::filter);
        }
        self.fresh = false;
    }

    /// The contact as of the current state: the cached answer of the
    /// last pass when still valid, else a fresh computation.
    pub(crate) fn current_contact<E: Engine<D>>(&self, engine: &E) -> Option<ProcessId> {
        if self.fresh {
            self.contact
        } else {
            self.compute_contact(engine)
        }
    }

    /// The contact oracle (§3.2): the root of the largest tree
    /// component, ties to the smallest root id. Read-only; O(N).
    pub(crate) fn compute_contact<E: Engine<D>>(&self, engine: &E) -> Option<ProcessId> {
        let mut walk = Walk::default();
        walk.parent.reserve(self.all_ids.len());
        for &id in &self.all_ids {
            walk.push(engine.node(id).map(|n| n.parent_of(n.top())));
        }
        walk.contact()
    }

    /// Borrowed states of every live node, keyed by id — the input of
    /// [`crate::legal::check_legal`] without cloning.
    pub(crate) fn states<'a, E: Engine<D>>(
        &self,
        engine: &'a E,
    ) -> BTreeMap<ProcessId, &'a NodeState<D>> {
        self.all_ids
            .iter()
            .filter_map(|&id| engine.node(id).map(|n| (id, n.state())))
            .collect()
    }

    /// Runs one round (or tick step) of `engine` inside the harness
    /// pass: hints are brought up to date first (only needed when the
    /// harness touched the state since the last pass), and the pass
    /// after the round drains the receipts and refreshes the contact
    /// and hints for the next one.
    pub(crate) fn step<E: Engine<D>>(&mut self, engine: &mut E, run: impl FnOnce(&mut E)) {
        if !self.fresh {
            self.pass(engine);
        }
        run(engine);
        self.pass(engine);
    }

    /// The per-round pass: one sweep over the live nodes, reading each
    /// top-level parent and draining each receipt log, then the dense
    /// contact walk, then the hint sweep — only when the contact
    /// changed or a node joined, since the protocol never writes hints.
    fn pass<E: Engine<D>>(&mut self, engine: &mut E) {
        self.walk.parent.clear();
        for &id in &self.all_ids {
            let node = engine.node_mut(id);
            self.walk.push(node.as_ref().map(|n| n.parent_of(n.top())));
            let Some(node) = node else { continue };
            for event in node.receipts.drain(..) {
                if let Some(receivers) = self.receipts.get_mut(&event) {
                    receivers.push(id);
                }
            }
        }
        self.contact = self.walk.contact();
        self.fresh = true;
        if self.hinted != self.contact {
            for &id in &self.all_ids {
                if let Some(node) = engine.node_mut(id) {
                    node.set_contact_hint(self.contact);
                }
            }
            self.hinted = self.contact;
        }
    }

    /// Allocates the next event id and starts collecting receipts of
    /// the event the caller is about to inject.
    pub(crate) fn open(&mut self, publisher: ProcessId, point: Point<D>) -> PubEvent<D> {
        let id = self.next_event_id;
        self.next_event_id += 1;
        self.receipts.insert(id, Vec::new());
        PubEvent {
            id,
            point,
            publisher,
        }
    }

    /// Stops collecting receipts of `event_id` without accounting it,
    /// and forgets its message counters.
    pub(crate) fn forget<E: Engine<D>>(&mut self, engine: &mut E, event_id: u64) {
        self.receipts.remove(&event_id);
        engine.clear_tag(event_id);
    }

    /// Retires every event id allocated so far: late traffic can no
    /// longer re-create message counters, and open receipt lists are
    /// dropped.
    pub(crate) fn retire<E: Engine<D>>(&mut self, engine: &mut E) {
        engine.retire_tags_below(self.next_event_id);
        self.receipts.clear();
    }

    /// Accounts one completed event: who received it, who should have,
    /// and its tag-scoped message bill (the tag is then forgotten).
    ///
    /// The receivers are the drained receipts, kept only while the
    /// receiver is still live and still remembers the event, so they
    /// equal a scan of every live node's `has_seen`. Matching comes from
    /// the dense filter column; false positives and negatives from a
    /// sorted merge of the two lists.
    pub(crate) fn finalize<E: Engine<D>>(
        &mut self,
        engine: &mut E,
        publisher: ProcessId,
        point: Point<D>,
        event_id: u64,
        rounds: u64,
    ) -> PublishReport {
        let mut receivers = self.receipts.remove(&event_id).unwrap_or_default();
        receivers.retain(|&id| {
            id != publisher
                && engine
                    .node(id)
                    .is_some_and(|n| n.pubsub().has_seen(event_id))
        });
        // A receiver appears twice only if it re-received the event
        // after its ring had evicted it.
        receivers.sort_unstable();
        receivers.dedup();
        let matching: Vec<ProcessId> = self
            .all_ids
            .iter()
            .zip(&self.filters)
            .filter(|&(&id, f)| id != publisher && f.is_some_and(|f| f.contains_point(&point)))
            .map(|(&id, _)| id)
            .collect();
        let (false_positives, false_negatives) = sorted_differences(&receivers, &matching);
        let report = PublishReport {
            event_id,
            receivers,
            matching,
            false_positives,
            false_negatives,
            messages: engine.metrics().tag_count(event_id),
            rounds,
        };
        #[cfg(test)]
        tests::assert_matches_full_scan(&*engine, &self.all_ids, publisher, point, &report);
        engine.clear_tag(event_id);
        report
    }
}

/// `(a \ b, b \ a)` of two ascending, duplicate-free id lists.
fn sorted_differences(a: &[ProcessId], b: &[ProcessId]) -> (Vec<ProcessId>, Vec<ProcessId>) {
    let (mut only_a, mut only_b) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                only_a.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                only_b.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    only_a.extend_from_slice(&a[i..]);
    only_b.extend_from_slice(&b[j..]);
    (only_a, only_b)
}

/// Marks a dead slot in [`Walk::parent`].
const DEAD: u32 = u32::MAX;
/// `Walk::cycle` of a node whose walk ends at a terminal.
const NO_CYCLE: u32 = u32::MAX;

/// The dense contact walk over a functional graph: `parent[raw]` is
/// each live node's top-level parent.
///
/// The walk from a node stops at a *terminal* — a node whose parent is
/// itself, dead or out of range — or, on a cycle of corrupted parent
/// pointers, after `L + 1` hops for `L` live nodes. Memoization keeps
/// the whole resolution O(N): a node's endpoint is its parent's, and a
/// node `d` hops from a cycle carries the virtual cycle position
/// `entry - d`, so its endpoint after `L + 1` hops is one modular
/// lookup.
#[derive(Debug, Clone, Default)]
struct Walk {
    /// `parent[raw]`, `DEAD` for dead slots; out-of-range parents are
    /// stored as self-loops (both end the walk).
    parent: Vec<u32>,
    /// Per node: 0 unvisited, 1 on the current walk, 2 resolved.
    mark: Vec<u8>,
    /// Resolved walk endpoint of every live node.
    root: Vec<u32>,
    /// Cycle index of nodes whose walk enters a cycle, else `NO_CYCLE`.
    cycle: Vec<u32>,
    /// Virtual position on that cycle (stack index while on the walk).
    pos: Vec<i64>,
    /// `(start, len)` of each cycle in `cycle_nodes`, in parent order.
    cycles: Vec<(usize, usize)>,
    cycle_nodes: Vec<u32>,
    stack: Vec<u32>,
    /// Component sizes by root.
    size: Vec<u32>,
}

impl Walk {
    /// Appends the next raw id's entry: its top-level parent when live.
    /// Parents out of range are ranged in [`Walk::contact`], once the
    /// column is complete.
    fn push(&mut self, parent: Option<ProcessId>) {
        let raw = self.parent.len() as u32;
        debug_assert!(raw < DEAD, "raw ids fit the dense columns");
        self.parent.push(match parent {
            None => DEAD,
            Some(p) => u32::try_from(p.raw()).map_or(raw, |p| if p == DEAD { raw } else { p }),
        });
    }

    /// Resolves every walk and returns the root of the largest
    /// component (ties: smallest root id), `None` when nothing is live.
    fn contact(&mut self) -> Option<ProcessId> {
        let n = self.parent.len();
        for raw in 0..n {
            let p = self.parent[raw];
            if p != DEAD && p as usize >= n {
                self.parent[raw] = raw as u32;
            }
        }
        let live = self.parent.iter().filter(|&&p| p != DEAD).count();
        let hops = live as i64 + 1;
        self.mark.clear();
        self.mark.resize(n, 0);
        self.root.clear();
        self.root.resize(n, DEAD);
        self.cycle.clear();
        self.cycle.resize(n, NO_CYCLE);
        self.pos.clear();
        self.pos.resize(n, 0);
        self.cycles.clear();
        self.cycle_nodes.clear();
        for start in 0..n {
            if self.parent[start] == DEAD || self.mark[start] != 0 {
                continue;
            }
            self.stack.clear();
            let mut cur = start;
            // Climb until a terminal, a resolved node, or a node already
            // on this walk (a cycle).
            let (end, on_cycle) = loop {
                match self.mark[cur] {
                    2 => break (cur, false),
                    1 => break (cur, true),
                    _ => {}
                }
                self.mark[cur] = 1;
                self.pos[cur] = self.stack.len() as i64;
                self.stack.push(cur as u32);
                let p = self.parent[cur] as usize;
                if p == cur || self.parent[p] == DEAD {
                    // Terminal: the walk ends here.
                    self.root[cur] = cur as u32;
                    self.mark[cur] = 2;
                    self.stack.pop();
                    break (cur, false);
                }
                cur = p;
            };
            let mut tail = self.stack.len();
            if on_cycle {
                let first = self.pos[end] as usize;
                let len = tail - first;
                let k = self.cycles.len() as u32;
                self.cycles.push((self.cycle_nodes.len(), len));
                self.cycle_nodes.extend_from_slice(&self.stack[first..]);
                for j in 0..len {
                    let s = self.stack[first + j] as usize;
                    self.cycle[s] = k;
                    self.pos[s] = j as i64;
                    self.root[s] = self.on_cycle(k, j as i64 + hops);
                    self.mark[s] = 2;
                }
                tail = first;
            }
            // Everything below the end inherits from its parent.
            for idx in (0..tail).rev() {
                let s = self.stack[idx] as usize;
                let p = self.parent[s] as usize;
                let k = self.cycle[p];
                if k == NO_CYCLE {
                    self.root[s] = self.root[p];
                } else {
                    self.cycle[s] = k;
                    self.pos[s] = self.pos[p] - 1;
                    self.root[s] = self.on_cycle(k, self.pos[s] + hops);
                }
                self.mark[s] = 2;
            }
        }
        self.size.clear();
        self.size.resize(n, 0);
        for raw in 0..n {
            if self.parent[raw] != DEAD {
                self.size[self.root[raw] as usize] += 1;
            }
        }
        let mut best: Option<(usize, u32)> = None;
        for (raw, &size) in self.size.iter().enumerate() {
            if size > 0 && best.is_none_or(|(_, b)| size > b) {
                best = Some((raw, size));
            }
        }
        best.map(|(raw, _)| ProcessId::from_raw(raw as u64))
    }

    /// The node at virtual position `pos` of cycle `k`.
    fn on_cycle(&self, k: u32, pos: i64) -> u32 {
        let (start, len) = self.cycles[k as usize];
        self.cycle_nodes[start + pos.rem_euclid(len as i64) as usize]
    }
}

#[cfg(test)]
mod tests {
    //! Exactness pins. In test builds every [`Harness::finalize`] also
    //! runs the full-scan reference below and asserts equality, so the
    //! scenario tests only have to reach interesting states: pipelines
    //! at every window, and crashes, departures, moves and corruption
    //! while events are in flight, on both engines.

    use std::collections::BTreeMap;

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use drtree_sim::{LatencyModel, NetConfig, ProcessId};
    use drtree_spatial::{Point, Rect};

    use super::{Engine, Walk};
    use crate::corruption::CorruptionKind;
    use crate::{AsyncDrTreeCluster, DrTreeCluster, DrTreeConfig, PublishReport};

    /// The accounting `finalize` replaced: a scan of every live node.
    pub(super) fn assert_matches_full_scan<const D: usize, E: Engine<D>>(
        engine: &E,
        all_ids: &[ProcessId],
        publisher: ProcessId,
        point: Point<D>,
        report: &PublishReport,
    ) {
        let (mut receivers, mut matching) = (Vec::new(), Vec::new());
        let (mut false_positives, mut false_negatives) = (Vec::new(), Vec::new());
        for &id in all_ids {
            let Some(node) = engine.node(id) else {
                continue;
            };
            if id == publisher {
                continue;
            }
            let received = node.pubsub().has_seen(report.event_id);
            let matches = node.filter().contains_point(&point);
            if received {
                receivers.push(id);
            }
            if matches {
                matching.push(id);
            }
            if received && !matches {
                false_positives.push(id);
            }
            if matches && !received {
                false_negatives.push(id);
            }
        }
        assert_eq!(
            (
                &report.receivers,
                &report.matching,
                &report.false_positives,
                &report.false_negatives
            ),
            (&receivers, &matching, &false_positives, &false_negatives),
            "event {}: receipt-driven accounting differs from the full scan",
            report.event_id
        );
    }

    /// The contact oracle the dense walk replaced: a `BTreeMap` of
    /// top-level parents, walked from every node with a hop bound.
    fn contact_reference(tops: &BTreeMap<ProcessId, ProcessId>) -> Option<ProcessId> {
        let mut sizes: BTreeMap<ProcessId, usize> = BTreeMap::new();
        for &start in tops.keys() {
            let mut cur = start;
            let mut hops = 0;
            loop {
                let parent = tops.get(&cur).copied();
                match parent {
                    Some(p) if p != cur && tops.contains_key(&p) && hops <= tops.len() => {
                        cur = p;
                        hops += 1;
                    }
                    _ => break,
                }
            }
            *sizes.entry(cur).or_insert(0) += 1;
        }
        sizes
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(root, _)| root)
    }

    /// The reference contact of a live engine state.
    fn reference_of<const D: usize, E: Engine<D>>(
        engine: &E,
        all_ids: &[ProcessId],
    ) -> Option<ProcessId> {
        let tops = all_ids
            .iter()
            .filter_map(|&id| engine.node(id).map(|n| (id, n.parent_of(n.top()))))
            .collect();
        contact_reference(&tops)
    }

    /// A random parent map over `n` slots: dead slots, self-loops,
    /// parents that are dead or out of range, cycles, and (in forest
    /// mode) acyclic components of often equal size, so ties are
    /// common.
    fn random_tops(n: usize, seed: u64) -> Vec<Option<ProcessId>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let dead_share = rng.gen_range(0.0..0.5);
        let forest = rng.gen_bool(0.5);
        (0..n)
            .map(|raw| {
                if rng.gen_bool(dead_share) {
                    return None;
                }
                let parent = match rng.gen_range(0..10) {
                    0 => raw as u64,
                    1 => (n + rng.gen_range(0..4)) as u64,
                    2 => u64::MAX,
                    _ if forest => rng.gen_range(0..=raw) as u64,
                    _ => rng.gen_range(0..n) as u64,
                };
                Some(ProcessId::from_raw(parent))
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The dense memoized walk returns exactly what the `BTreeMap`
        /// walk returns, cycles and ties included.
        #[test]
        fn dense_contact_equals_btree_walk(n in 0usize..60, seed in any::<u64>()) {
            let tops = random_tops(n, seed);
            let mut walk = Walk::default();
            for &parent in &tops {
                walk.push(parent);
            }
            let reference: BTreeMap<ProcessId, ProcessId> = tops
                .iter()
                .enumerate()
                .filter_map(|(raw, p)| p.map(|p| (ProcessId::from_raw(raw as u64), p)))
                .collect();
            prop_assert_eq!(walk.contact(), contact_reference(&reference));
        }
    }

    fn arb_filters() -> impl Strategy<Value = Vec<Rect<2>>> {
        prop::collection::vec(
            (0.0f64..80.0, 0.0f64..80.0, 4.0f64..30.0, 4.0f64..30.0)
                .prop_map(|(x, y, w, h)| Rect::new([x, y], [x + w, y + h])),
            8..36,
        )
    }

    /// One harness-touching fault: crash, controlled departure, move, or
    /// corruption of a random live subscriber.
    #[derive(Debug, Clone, Copy)]
    enum Fault {
        Crash,
        Leave,
        Move,
        Corrupt(CorruptionKind),
    }

    fn random_fault(rng: &mut StdRng, with_move: bool) -> Fault {
        match rng.gen_range(0..4) {
            0 => Fault::Crash,
            1 => Fault::Leave,
            2 if with_move => Fault::Move,
            _ => Fault::Corrupt(CorruptionKind::ALL[rng.gen_range(0..CorruptionKind::ALL.len())]),
        }
    }

    fn random_event(rng: &mut StdRng, ids: &[ProcessId]) -> (ProcessId, Point<2>) {
        let publisher = ids[rng.gen_range(0..ids.len())];
        let point = Point::new([rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)]);
        (publisher, point)
    }

    /// The two clusters behind one interface, for the scenario driver.
    trait Overlay {
        fn live(&self) -> Vec<ProcessId>;
        fn step(&mut self);
        fn inject(&mut self, publisher: ProcessId, point: Point<2>) -> u64;
        fn inflight(&self, event_id: u64) -> u64;
        fn finalize(
            &mut self,
            publisher: ProcessId,
            point: Point<2>,
            event_id: u64,
        ) -> PublishReport;
        fn fault(&mut self, fault: Fault, id: ProcessId, rng: &mut StdRng);
        fn pipeline(
            &mut self,
            events: &[(ProcessId, Point<2>)],
            window: usize,
        ) -> Vec<PublishReport>;
        fn check_contact(&self);
        fn retire(&mut self);
    }

    impl Overlay for DrTreeCluster<2> {
        fn live(&self) -> Vec<ProcessId> {
            self.ids()
        }
        fn step(&mut self) {
            self.run_round();
        }
        fn inject(&mut self, publisher: ProcessId, point: Point<2>) -> u64 {
            DrTreeCluster::inject(self, publisher, point)
        }
        fn inflight(&self, event_id: u64) -> u64 {
            self.metrics().tag_inflight(event_id)
        }
        fn finalize(
            &mut self,
            publisher: ProcessId,
            point: Point<2>,
            event_id: u64,
        ) -> PublishReport {
            self.harness
                .finalize(&mut self.net, publisher, point, event_id, 0)
        }
        fn fault(&mut self, fault: Fault, id: ProcessId, rng: &mut StdRng) {
            match fault {
                Fault::Crash => self.crash(id),
                Fault::Leave => self.controlled_leave(id),
                Fault::Move => {
                    let (x, y) = (rng.gen_range(0.0..80.0), rng.gen_range(0.0..80.0));
                    self.move_subscriber(id, Rect::new([x, y], [x + 15.0, y + 15.0]));
                }
                Fault::Corrupt(kind) => {
                    self.corrupt(id, kind);
                }
            }
        }
        fn pipeline(
            &mut self,
            events: &[(ProcessId, Point<2>)],
            window: usize,
        ) -> Vec<PublishReport> {
            self.publish_pipeline_from(events, window)
        }
        fn check_contact(&self) {
            let reference = reference_of(&self.net, &self.harness.all_ids);
            assert_eq!(self.contact(), reference);
            assert_eq!(self.root(), reference);
        }
        fn retire(&mut self) {
            self.retire_events();
        }
    }

    impl Overlay for AsyncDrTreeCluster<2> {
        fn live(&self) -> Vec<ProcessId> {
            self.ids()
        }
        fn step(&mut self) {
            self.run_for(self.config().tick_interval);
        }
        fn inject(&mut self, publisher: ProcessId, point: Point<2>) -> u64 {
            AsyncDrTreeCluster::inject(self, publisher, point)
        }
        fn inflight(&self, event_id: u64) -> u64 {
            self.metrics().tag_inflight(event_id)
        }
        fn finalize(
            &mut self,
            publisher: ProcessId,
            point: Point<2>,
            event_id: u64,
        ) -> PublishReport {
            self.harness
                .finalize(&mut self.net, publisher, point, event_id, 0)
        }
        fn fault(&mut self, fault: Fault, id: ProcessId, _rng: &mut StdRng) {
            match fault {
                Fault::Crash | Fault::Move => self.crash(id),
                Fault::Leave => self.controlled_leave(id),
                Fault::Corrupt(kind) => {
                    self.corrupt(id, kind);
                }
            }
        }
        fn pipeline(
            &mut self,
            events: &[(ProcessId, Point<2>)],
            window: usize,
        ) -> Vec<PublishReport> {
            self.publish_pipeline_from(events, window)
        }
        fn check_contact(&self) {
            let reference = reference_of(&self.net, &self.harness.all_ids);
            assert_eq!(self.contact(), reference);
            assert_eq!(self.root(), reference);
        }
        fn retire(&mut self) {
            self.retire_events();
        }
    }

    /// A pipelined stream at `window`, then a stream with faults
    /// injected while events are in flight (each quiescent event is
    /// accounted right away, stragglers at the end), then a final
    /// pipelined stream on the faulted overlay. Every accounting is
    /// checked against the full scan inside `finalize`, and the contact
    /// against the `BTreeMap` walk after every step.
    fn drive(overlay: &mut impl Overlay, window: usize, seed: u64, with_move: bool) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ids = overlay.live();
        let events: Vec<_> = (0..24).map(|_| random_event(&mut rng, &ids)).collect();
        let reports = overlay.pipeline(&events, window);
        assert!(
            reports.iter().all(|r| r.false_negatives.is_empty()),
            "legal overlay"
        );

        let mut live: Vec<(ProcessId, Point<2>, u64)> = Vec::new();
        for step in 0..36 {
            let ids = overlay.live();
            if ids.len() < 3 {
                break;
            }
            for _ in 0..rng.gen_range(0..4) {
                if live.len() < window {
                    let (publisher, point) = random_event(&mut rng, &ids);
                    live.push((publisher, point, overlay.inject(publisher, point)));
                }
            }
            if step % 5 == 2 {
                let victim = ids[rng.gen_range(0..ids.len())];
                overlay.fault(random_fault(&mut rng, with_move), victim, &mut rng);
            }
            overlay.step();
            overlay.check_contact();
            let mut i = 0;
            while i < live.len() {
                let (publisher, point, event_id) = live[i];
                if overlay.inflight(event_id) == 0 || (step == 35 && rng.gen_bool(0.5)) {
                    overlay.finalize(publisher, point, event_id);
                    live.swap_remove(i);
                } else {
                    i += 1;
                }
            }
        }
        for (publisher, point, event_id) in live.drain(..) {
            overlay.finalize(publisher, point, event_id);
        }
        overlay.retire();

        let ids = overlay.live();
        let events: Vec<_> = (0..12).map(|_| random_event(&mut rng, &ids)).collect();
        overlay.pipeline(&events, window);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Round engine: receipt-driven accounting equals the full scan
        /// for every window and under mid-stream crash, departure, move
        /// and corruption.
        #[test]
        fn finalize_equals_full_scan_on_round_engine(
            filters in arb_filters(),
            window in 1usize..=256,
            seed in any::<u64>(),
        ) {
            let mut cluster = DrTreeCluster::build_bulk(DrTreeConfig::default(), seed, &filters);
            drive(&mut cluster, window, seed, true);
        }

        /// Event engine: the same, with latency jitter (moves are a
        /// round-engine command; the async driver crashes instead).
        #[test]
        fn finalize_equals_full_scan_on_event_engine(
            filters in arb_filters(),
            window in 1usize..=256,
            seed in any::<u64>(),
        ) {
            let config = DrTreeConfig {
                tick_interval: 8,
                failure_timeout: 40,
                join_retry: 32,
                ..DrTreeConfig::default()
            };
            let net = NetConfig {
                latency: LatencyModel::Uniform { min: 1, max: 4 },
                ..NetConfig::default()
            };
            let mut cluster = AsyncDrTreeCluster::build_bulk(config, net, seed, &filters);
            drive(&mut cluster, window, seed, false);
        }
    }

    #[test]
    fn receipts_evicted_from_the_seen_ring_are_not_deliveries() {
        // Every subscriber matches everything, so every node receives
        // every event; `held` stays open while more than a ring's worth
        // of newer events passes, so nobody remembers it any more.
        let filters: Vec<Rect<2>> = (0..12)
            .map(|i| Rect::new([-f64::from(i), 0.0], [100.0, 100.0 + f64::from(i)]))
            .collect();
        let mut cluster = DrTreeCluster::build_bulk(DrTreeConfig::default(), 5, &filters);
        let ids = cluster.ids();
        let point = Point::new([50.0, 50.0]);
        let held = cluster.inject(ids[0], point);
        while cluster.metrics().tag_inflight(held) > 0 {
            cluster.run_round();
        }
        for chunk in 0..(crate::protocol::node::RECENT_EVENTS / 128 + 1) {
            let publisher = ids[1 + chunk % (ids.len() - 1)];
            let batch: Vec<u64> = (0..128).map(|_| cluster.inject(publisher, point)).collect();
            while batch.iter().any(|&e| cluster.metrics().tag_inflight(e) > 0) {
                cluster.run_round();
            }
            for event_id in batch {
                let report = Overlay::finalize(&mut cluster, publisher, point, event_id);
                assert_eq!(report.receivers.len(), ids.len() - 1);
            }
        }
        let report = Overlay::finalize(&mut cluster, ids[0], point, held);
        assert!(report.receivers.is_empty(), "{:?}", report.receivers);
        assert_eq!(report.false_negatives, report.matching);
    }

    #[test]
    fn receipts_of_forgotten_and_retired_events_are_dropped() {
        let filters: Vec<Rect<2>> = (0..16)
            .map(|i| {
                let (x, y) = (f64::from(i % 4) * 20.0, f64::from(i / 4) * 20.0);
                Rect::new([x, y], [x + 30.0, y + 30.0])
            })
            .collect();
        let mut cluster = DrTreeCluster::build_bulk(DrTreeConfig::default(), 3, &filters);
        let ids = cluster.ids();
        let point = Point::new([25.0, 25.0]);
        let forgotten = cluster.inject(ids[0], point);
        let retired = cluster.inject(ids[1], point);
        cluster.run_rounds(20);
        cluster.forget_event(forgotten);
        cluster.retire_events();
        assert!(cluster.harness.receipts.is_empty());
        cluster.run_rounds(2);
        assert!(
            cluster.harness.receipts.is_empty(),
            "late receipts find no list"
        );
        let report = cluster.publish_from(ids[2], point);
        assert!(!report.receivers.is_empty());
        assert!(report.event_id > retired);
        assert!(cluster.harness.receipts.is_empty());
    }
}
