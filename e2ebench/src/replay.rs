//! Replays a traced run's oracle traffic against standalone
//! [`ShardedOracle`]s, one call at a time, to attribute time to the
//! `shard` layer: the broker's own oracle is private, and in release
//! builds a static publish never probes it.

use std::time::Instant;

use drtree_core::ProcessId;
use drtree_pubsub::ShardedOracle;
use drtree_spatial::{Point, Rect};

use crate::stats::ratio;
use crate::Outcome;

/// One oracle call of a replay log.
#[derive(Debug, Clone, Copy)]
pub enum ReplayOp {
    /// A matching probe (one publication).
    Probe(Point<2>),
    /// A new subscription.
    Insert(ProcessId, Rect<2>),
    /// A departed subscription.
    Remove(ProcessId, Rect<2>),
    /// A moved subscription (old, new).
    Move(ProcessId, Rect<2>, Rect<2>),
    /// Delta-layer maintenance (what the broker runs before a commit).
    Flush,
}

/// Call counts and summed call times of a replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct OracleReplay {
    build_ns: u64,
    probes: u64,
    probe_ns: u64,
    hits: u64,
    inserts: u64,
    insert_ns: u64,
    removes: u64,
    remove_ns: u64,
    moves: u64,
    move_ns: u64,
    moved_in_place: u64,
    flushes: u64,
    flush_ns: u64,
}

impl OracleReplay {
    /// Builds a `shards`-shard oracle over `start` the way a broker
    /// does (insert everything, then flush), then applies `log` in
    /// order, timing every call.
    pub fn run(shards: usize, start: &[(ProcessId, Rect<2>)], log: &[ReplayOp]) -> Self {
        let mut r = Self::default();
        let t0 = Instant::now();
        let mut oracle = ShardedOracle::new(shards);
        for &(id, rect) in start {
            oracle.insert(id, rect);
        }
        oracle.flush();
        r.build_ns = t0.elapsed().as_nanos() as u64;
        let mut hits = Vec::new();
        for op in log {
            let t = Instant::now();
            match *op {
                ReplayOp::Probe(p) => {
                    oracle.match_point_into(&p, &mut hits);
                    r.probe_ns += t.elapsed().as_nanos() as u64;
                    r.probes += 1;
                    r.hits += hits.len() as u64;
                }
                ReplayOp::Insert(id, rect) => {
                    oracle.insert(id, rect);
                    r.insert_ns += t.elapsed().as_nanos() as u64;
                    r.inserts += 1;
                }
                ReplayOp::Remove(id, rect) => {
                    let removed = oracle.remove(id, &rect);
                    r.remove_ns += t.elapsed().as_nanos() as u64;
                    r.removes += 1;
                    debug_assert!(removed, "replayed remove of an absent entry");
                }
                ReplayOp::Move(id, old, new) => {
                    let moved = oracle.move_entry(id, &old, new);
                    r.move_ns += t.elapsed().as_nanos() as u64;
                    r.moves += 1;
                    debug_assert!(moved, "replayed move of an absent entry");
                }
                ReplayOp::Flush => {
                    oracle.flush();
                    r.flush_ns += t.elapsed().as_nanos() as u64;
                    r.flushes += 1;
                }
            }
        }
        r.moved_in_place = oracle.moved_in_place_total();
        r
    }

    /// Sums two replays (one per fabric range).
    pub fn merge(mut self, o: &Self) -> Self {
        self.build_ns += o.build_ns;
        self.probes += o.probes;
        self.probe_ns += o.probe_ns;
        self.hits += o.hits;
        self.inserts += o.inserts;
        self.insert_ns += o.insert_ns;
        self.removes += o.removes;
        self.remove_ns += o.remove_ns;
        self.moves += o.moves;
        self.move_ns += o.move_ns;
        self.moved_in_place += o.moved_in_place;
        self.flushes += o.flushes;
        self.flush_ns += o.flush_ns;
        self
    }

    /// Records the `shard.*` metrics.
    pub fn report(&self, o: &mut Outcome) {
        let per = |ns: u64, n: u64| ratio(ns as f64, n as f64);
        o.set("shard.match_ns", per(self.probe_ns, self.probes));
        o.set("shard.insert_ns", per(self.insert_ns, self.inserts));
        o.set("shard.remove_ns", per(self.remove_ns, self.removes));
        o.set("shard.move_ns", per(self.move_ns, self.moves));
        o.set("shard.flush_ms", per(self.flush_ns, self.flushes) / 1e6);
        o.set("shard.bulk_build_s", self.build_ns as f64 / 1e9);
        o.set("shard.hits_per_probe", per(self.hits, self.probes));
        o.set(
            "shard.moved_in_place_frac",
            per(self.moved_in_place, self.moves),
        );
    }
}
