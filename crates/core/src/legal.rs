//! Legal-state checking (paper Definitions 3.1 and 3.2).
//!
//! "The DR-tree is in a legal state iff: each non-root and non-leaf node
//! has at most M and at least m children; for each process the parent
//! and children variables are coherent (both directions); for each node
//! there is no child offering a better cover; the MBR value of each
//! non-leaf node is the union of the MBR values of its children." A
//! *legitimate configuration* additionally requires the virtual
//! structure to be one legal DR-tree — here: a single root from which
//! every live process is reachable.
//!
//! [`check_legal`] evaluates all of it on a global snapshot; the
//! stabilization experiments (Lemmas 3.2–3.6) count the rounds until it
//! returns no violations.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use drtree_sim::ProcessId;

use crate::config::DrTreeConfig;
use crate::state::{Level, NodeState};

/// One violated condition of Definition 3.1/3.2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// No live process believes it is the root.
    NoRoot,
    /// More than one live process believes it is the root.
    MultipleRoots {
        /// The believed roots.
        roots: Vec<ProcessId>,
    },
    /// A live process is not part of the tree rooted at the root.
    Unreachable {
        /// The stranded process.
        id: ProcessId,
    },
    /// A parent/children reference is incoherent.
    Incoherent {
        /// The instance owner whose reference is broken.
        id: ProcessId,
        /// The instance level.
        level: Level,
        /// The process referenced.
        other: ProcessId,
        /// What went wrong.
        reason: &'static str,
    },
    /// A non-root internal instance violates the `m ≤ degree ≤ M`
    /// bounds.
    DegreeOutOfBounds {
        /// Owner.
        id: ProcessId,
        /// Instance level.
        level: Level,
        /// Offending degree.
        degree: usize,
    },
    /// The root instance has fewer than two children.
    RootDegree {
        /// The root process.
        id: ProcessId,
        /// Offending degree.
        degree: usize,
    },
    /// A locally-checkable invariant is broken (contiguity, self-child
    /// chain, leaf cleanliness).
    LocalInvariant {
        /// Owner.
        id: ProcessId,
        /// What is broken.
        reason: &'static str,
    },
    /// An instance's MBR is not the union of its children's actual MBRs
    /// (Fig. 10 not converged).
    WrongMbr {
        /// Owner.
        id: ProcessId,
        /// Instance level.
        level: Level,
    },
    /// A cached child summary disagrees with the child's actual state.
    StaleCache {
        /// The caching parent.
        id: ProcessId,
        /// Instance level of the parent.
        level: Level,
        /// The summarized child.
        child: ProcessId,
    },
    /// A child provides strictly better coverage than the node's own
    /// instance below — CHECK_COVER (Fig. 13) has not converged.
    CoverViolation {
        /// Owner of the instance.
        id: ProcessId,
        /// Instance level.
        level: Level,
        /// The better-covering child.
        child: ProcessId,
    },
    /// An `underloaded` flag disagrees with the actual degree (Fig. 12).
    WrongUnderloaded {
        /// Owner.
        id: ProcessId,
        /// Instance level.
        level: Level,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::NoRoot => write!(f, "no process believes it is the root"),
            Violation::MultipleRoots { roots } => write!(f, "multiple roots: {roots:?}"),
            Violation::Unreachable { id } => write!(f, "{id} unreachable from the root"),
            Violation::Incoherent {
                id,
                level,
                other,
                reason,
            } => write!(f, "{id}@{level} ↔ {other}: {reason}"),
            Violation::DegreeOutOfBounds { id, level, degree } => {
                write!(f, "{id}@{level} has degree {degree} (out of [m, M])")
            }
            Violation::RootDegree { id, degree } => {
                write!(f, "root {id} has degree {degree} (< 2)")
            }
            Violation::LocalInvariant { id, reason } => write!(f, "{id}: {reason}"),
            Violation::WrongMbr { id, level } => {
                write!(f, "{id}@{level}: MBR is not the union of its children")
            }
            Violation::StaleCache { id, level, child } => {
                write!(f, "{id}@{level}: cached summary for {child} is stale")
            }
            Violation::CoverViolation { id, level, child } => {
                write!(f, "{id}@{level}: child {child} offers better cover")
            }
            Violation::WrongUnderloaded { id, level } => {
                write!(f, "{id}@{level}: underloaded flag incorrect")
            }
        }
    }
}

/// A snapshot of every live process's state, keyed by id.
pub type Snapshot<const D: usize> = BTreeMap<ProcessId, NodeState<D>>;

/// Checks Definition 3.1/3.2 on a snapshot. Empty result = legitimate
/// configuration.
///
/// The states may be owned (a [`Snapshot`]) or borrowed (a map of
/// `&NodeState`, as the clusters pass to avoid cloning every state).
pub fn check_legal<const D: usize, V: Borrow<NodeState<D>>>(
    snapshot: &BTreeMap<ProcessId, V>,
    config: &DrTreeConfig,
) -> Vec<Violation> {
    let mut v = Vec::new();
    if snapshot.is_empty() {
        return v;
    }
    let m = config.min_degree();
    let max = config.max_degree();

    // ---- local invariants ------------------------------------------------
    for (&id, st) in snapshot {
        let st = st.borrow();
        // contiguity 0..=top
        let contiguous = st.levels.keys().enumerate().all(|(i, &l)| l == i as Level);
        if !contiguous {
            v.push(Violation::LocalInvariant {
                id,
                reason: "instance levels are not contiguous from 0",
            });
        }
        match st.level(0) {
            None => v.push(Violation::LocalInvariant {
                id,
                reason: "missing leaf instance at level 0",
            }),
            Some(leaf) => {
                if !leaf.children.is_empty() {
                    v.push(Violation::LocalInvariant {
                        id,
                        reason: "leaf instance has children",
                    });
                }
                if leaf.mbr != st.filter {
                    v.push(Violation::LocalInvariant {
                        id,
                        reason: "leaf MBR differs from filter",
                    });
                }
            }
        }
        let top = st.top();
        for l in 1..=top {
            let Some(inst) = st.level(l) else { continue };
            if !inst.children.contains_key(&id) {
                v.push(Violation::LocalInvariant {
                    id,
                    reason: "internal instance missing its self-child",
                });
            }
            if l < top && inst.parent != id {
                v.push(Violation::LocalInvariant {
                    id,
                    reason: "non-topmost instance not parented to self",
                });
            }
        }
    }

    // ---- single root ------------------------------------------------------
    let roots: Vec<ProcessId> = snapshot
        .iter()
        .filter(|(&id, st)| (*st).borrow().believes_root(id))
        .map(|(&id, _)| id)
        .collect();
    match roots.as_slice() {
        [] => v.push(Violation::NoRoot),
        [_single] => {}
        many => v.push(Violation::MultipleRoots {
            roots: many.to_vec(),
        }),
    }

    // ---- reference coherence + structural checks --------------------------
    for (&id, st) in snapshot {
        let st = st.borrow();
        let top = st.top();
        for (&l, inst) in &st.levels {
            if l == 0 {
                continue;
            }
            let is_root_inst = l == top && inst.parent == id;
            let degree = inst.degree();
            if is_root_inst {
                if degree < 2 || degree > max {
                    v.push(Violation::RootDegree { id, degree });
                }
            } else if (l <= top) && (degree < m || degree > max) {
                v.push(Violation::DegreeOutOfBounds {
                    id,
                    level: l,
                    degree,
                });
            }
            if inst.underloaded != (degree < m) {
                v.push(Violation::WrongUnderloaded { id, level: l });
            }

            // children coherence + caches + exact MBR + cover
            let mut actual_union: Option<drtree_spatial::Rect<D>> = None;
            let mut own_below_area = f64::NEG_INFINITY;
            if let Some(own) = st.summary_at(id, l - 1) {
                own_below_area = own.mbr.area();
            }
            for (&c, info) in &inst.children {
                if c == id {
                    // self-child: actual = own instance below
                    match st.summary_at(id, l - 1) {
                        None => v.push(Violation::Incoherent {
                            id,
                            level: l,
                            other: c,
                            reason: "self-child instance missing",
                        }),
                        Some(s) => {
                            if s.mbr != info.mbr {
                                v.push(Violation::StaleCache {
                                    id,
                                    level: l,
                                    child: c,
                                });
                            }
                            actual_union = Some(match actual_union {
                                None => s.mbr,
                                Some(u) => u.union(&s.mbr),
                            });
                        }
                    }
                    continue;
                }
                match snapshot.get(&c).map(Borrow::borrow) {
                    None => v.push(Violation::Incoherent {
                        id,
                        level: l,
                        other: c,
                        reason: "child process not alive",
                    }),
                    Some(cst) => {
                        if cst.top() != l - 1 {
                            v.push(Violation::Incoherent {
                                id,
                                level: l,
                                other: c,
                                reason: "child's topmost instance is not one level below",
                            });
                            continue;
                        }
                        let Some(cinst) = cst.level(l - 1) else {
                            continue;
                        };
                        if cinst.parent != id {
                            v.push(Violation::Incoherent {
                                id,
                                level: l,
                                other: c,
                                reason: "child's parent pointer disagrees",
                            });
                        }
                        let actual = cst.summary_at(c, l - 1).expect("instance exists");
                        if actual.mbr != info.mbr || actual.count != info.count {
                            v.push(Violation::StaleCache {
                                id,
                                level: l,
                                child: c,
                            });
                        }
                        if config.cover_swap && actual.mbr.area() > own_below_area {
                            v.push(Violation::CoverViolation {
                                id,
                                level: l,
                                child: c,
                            });
                        }
                        actual_union = Some(match actual_union {
                            None => actual.mbr,
                            Some(u) => u.union(&actual.mbr),
                        });
                    }
                }
            }
            if let Some(u) = actual_union {
                if u != inst.mbr {
                    v.push(Violation::WrongMbr { id, level: l });
                }
            }
        }

        // upward coherence of the topmost instance
        if let Some(inst) = st.level(top) {
            if inst.parent != id {
                match snapshot.get(&inst.parent).map(Borrow::borrow) {
                    None => v.push(Violation::Incoherent {
                        id,
                        level: top,
                        other: inst.parent,
                        reason: "parent process not alive",
                    }),
                    Some(pst) => {
                        let listed = pst
                            .level(top + 1)
                            .is_some_and(|pi| pi.children.contains_key(&id));
                        if !listed {
                            v.push(Violation::Incoherent {
                                id,
                                level: top,
                                other: inst.parent,
                                reason: "parent does not list this child",
                            });
                        }
                    }
                }
            }
        }
    }

    // ---- reachability from the root ---------------------------------------
    if let [root] = roots.as_slice() {
        let mut reached: BTreeSet<ProcessId> = BTreeSet::new();
        let mut queue = VecDeque::from([*root]);
        while let Some(p) = queue.pop_front() {
            if !reached.insert(p) {
                continue;
            }
            if let Some(st) = snapshot.get(&p).map(Borrow::borrow) {
                for inst in st.levels.values() {
                    for &c in inst.children.keys() {
                        if c != p && snapshot.contains_key(&c) {
                            queue.push_back(c);
                        }
                    }
                }
            }
        }
        for &id in snapshot.keys() {
            if !reached.contains(&id) {
                v.push(Violation::Unreachable { id });
            }
        }
    }

    v
}

/// `true` iff the snapshot is a legitimate configuration.
pub fn is_legal<const D: usize, V: Borrow<NodeState<D>>>(
    snapshot: &BTreeMap<ProcessId, V>,
    config: &DrTreeConfig,
) -> bool {
    check_legal(snapshot, config).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use drtree_spatial::Rect;

    fn pid(raw: u64) -> ProcessId {
        ProcessId::from_raw(raw)
    }

    #[test]
    fn empty_snapshot_is_legal() {
        let snap: Snapshot<2> = BTreeMap::new();
        assert!(is_legal(&snap, &DrTreeConfig::default()));
    }

    #[test]
    fn singleton_is_legal() {
        let mut snap: Snapshot<2> = BTreeMap::new();
        snap.insert(
            pid(0),
            NodeState::new_leaf(pid(0), Rect::new([0.0, 0.0], [1.0, 1.0])),
        );
        let v = check_legal(&snap, &DrTreeConfig::default());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn two_leaf_roots_are_illegal() {
        let mut snap: Snapshot<2> = BTreeMap::new();
        for raw in 0..2 {
            snap.insert(
                pid(raw),
                NodeState::new_leaf(pid(raw), Rect::new([0.0, 0.0], [1.0, 1.0])),
            );
        }
        let v = check_legal(&snap, &DrTreeConfig::default());
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::MultipleRoots { .. })));
    }

    #[test]
    fn missing_leaf_instance_is_flagged() {
        let mut snap: Snapshot<2> = BTreeMap::new();
        let mut st = NodeState::new_leaf(pid(0), Rect::new([0.0, 0.0], [1.0, 1.0]));
        st.levels.clear();
        snap.insert(pid(0), st);
        let v = check_legal(&snap, &DrTreeConfig::default());
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::LocalInvariant { .. })));
    }

    #[test]
    fn violation_display() {
        let s = Violation::Unreachable { id: pid(3) }.to_string();
        assert!(s.contains("p3"));
    }
}
