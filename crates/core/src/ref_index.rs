//! Reverse-reference index: which objects reference a given oid.
//!
//! Referential-integrity checking (consistency condition on `Value::Oid`
//! references, Definitions 5.2–5.4) is inherently bidirectional: an
//! update to object `i` can only break the references *held by* `i`, but
//! a termination of `i` can break the references of every object
//! *pointing at* `i`. The seed implementation answered the latter by
//! scanning the whole database. This index maintains, incrementally on
//! every mutation, the inverse of the reference graph so both directions
//! are `O(affected)`.

use std::collections::BTreeSet;

use crate::ident::{Oid, OidMap};
use crate::object::Object;

/// The inverse reference graph: built whole by [`RefIndex::build`],
/// maintained by [`RefIndex::update`] / [`RefIndex::add_refs`] after
/// each object mutation.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct RefIndex {
    /// Referrer → sorted distinct oids it references (anywhere in its
    /// state, past runs included). Cached so an update only diffs.
    fwd: OidMap<Vec<Oid>>,
    /// Target → set of referrers.
    rev: OidMap<BTreeSet<Oid>>,
}

impl RefIndex {
    /// The index of a whole object population: one pass collects every
    /// object's reference set, one sort groups the edges by target.
    pub(crate) fn build<'a>(objects: impl Iterator<Item = &'a Object>) -> RefIndex {
        let mut fwd = OidMap::default();
        let mut edges: Vec<(Oid, Oid)> = Vec::new();
        for o in objects {
            let refs = o.all_refs();
            if !refs.is_empty() {
                edges.extend(refs.iter().map(|&target| (target, o.oid)));
                fwd.insert(o.oid, refs);
            }
        }
        edges.sort_unstable();
        let mut rev = OidMap::default();
        let mut rest = edges.as_slice();
        while let Some(&(target, _)) = rest.first() {
            // Sorted by target first: its edges are a prefix of the rest.
            let (group, others) = rest.split_at(rest.partition_point(|e| e.0 == target));
            rev.insert(target, group.iter().map(|&(_, referrer)| referrer).collect());
            rest = others;
        }
        RefIndex { fwd, rev }
    }

    /// Reconcile the index with `referrer`'s current outgoing reference
    /// set (`new_refs` must be sorted and distinct, as produced by
    /// `Object::all_refs`). Cost is linear in the two reference lists.
    pub(crate) fn update(&mut self, referrer: Oid, new_refs: Vec<Oid>) {
        let old = self.fwd.get(&referrer).map(Vec::as_slice).unwrap_or(&[]);
        // Diff two sorted lists.
        let (mut a, mut b) = (0, 0);
        let mut added: Vec<Oid> = Vec::new();
        let mut removed: Vec<Oid> = Vec::new();
        while a < old.len() || b < new_refs.len() {
            match (old.get(a), new_refs.get(b)) {
                (Some(&o), Some(&n)) if o == n => {
                    a += 1;
                    b += 1;
                }
                (Some(&o), Some(&n)) if o < n => {
                    removed.push(o);
                    a += 1;
                }
                (Some(_), Some(&n)) => {
                    added.push(n);
                    b += 1;
                }
                (Some(&o), None) => {
                    removed.push(o);
                    a += 1;
                }
                (None, Some(&n)) => {
                    added.push(n);
                    b += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        for t in removed {
            if let Some(set) = self.rev.get_mut(&t) {
                set.remove(&referrer);
                if set.is_empty() {
                    self.rev.remove(&t);
                }
            }
        }
        for t in added {
            self.rev.entry(t).or_default().insert(referrer);
        }
        if new_refs.is_empty() {
            self.fwd.remove(&referrer);
        } else {
            self.fwd.insert(referrer, new_refs);
        }
    }

    /// Merge additional reference targets of `referrer` into the index
    /// without recomputing its full reference set. Sound whenever the
    /// mutation cannot have *removed* references (the common case:
    /// temporal histories only grow), since the indexed sets are unions
    /// over the whole recorded state. Cost is `O(|added| · log)` plus
    /// insertion shifts — independent of the object's history length.
    pub(crate) fn add_refs(&mut self, referrer: Oid, mut added: Vec<Oid>) {
        added.sort_unstable();
        added.dedup();
        if added.is_empty() {
            return;
        }
        let fwd = self.fwd.entry(referrer).or_default();
        for t in added {
            if let Err(pos) = fwd.binary_search(&t) {
                fwd.insert(pos, t);
                self.rev.entry(t).or_default().insert(referrer);
            }
        }
    }

    /// The objects referencing `target` (sorted).
    pub(crate) fn referrers_of(&self, target: Oid) -> impl Iterator<Item = Oid> + '_ {
        self.rev.get(&target).into_iter().flatten().copied()
    }

    /// The cached outgoing reference set of `referrer` (sorted).
    #[cfg(test)]
    pub(crate) fn targets_of(&self, referrer: Oid) -> &[Oid] {
        self.fwd.get(&referrer).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Deterministic corruption hook for scrubber tests: damage the
    /// derived index in a way a fresh rebuild comparison is guaranteed to
    /// detect. `r` seeds the choice of damage.
    #[cfg(any(test, feature = "testing"))]
    pub(crate) fn corrupt_for_test(&mut self, r: u64) {
        match r % 3 {
            // A phantom edge: a referrer that references nothing.
            0 => {
                self.rev
                    .entry(Oid(u64::MAX - 2))
                    .or_default()
                    .insert(Oid(u64::MAX - 3));
            }
            // Drop a genuine forward entry (its rev edges go stale too).
            1 if !self.fwd.is_empty() => {
                let victim = *self
                    .fwd
                    .keys()
                    .nth((r as usize / 3) % self.fwd.len())
                    .expect("non-empty");
                self.fwd.remove(&victim);
            }
            // Append a bogus forward target for an existing referrer.
            2 if !self.fwd.is_empty() => {
                let victim = *self
                    .fwd
                    .keys()
                    .nth((r as usize / 3) % self.fwd.len())
                    .expect("non-empty");
                if let Some(targets) = self.fwd.get_mut(&victim) {
                    targets.push(Oid(u64::MAX - 4));
                }
            }
            _ => {
                self.rev
                    .entry(Oid(u64::MAX - 2))
                    .or_default()
                    .insert(Oid(u64::MAX - 3));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn referrers(ix: &RefIndex, t: Oid) -> Vec<Oid> {
        ix.referrers_of(t).collect()
    }

    #[test]
    fn update_diffs_and_inverts() {
        let mut ix = RefIndex::default();
        ix.update(Oid(1), vec![Oid(10), Oid(20)]);
        ix.update(Oid(2), vec![Oid(20)]);
        assert_eq!(referrers(&ix, Oid(10)), vec![Oid(1)]);
        assert_eq!(referrers(&ix, Oid(20)), vec![Oid(1), Oid(2)]);

        // Drop 10, add 30.
        ix.update(Oid(1), vec![Oid(20), Oid(30)]);
        assert_eq!(referrers(&ix, Oid(10)), Vec::<Oid>::new());
        assert_eq!(referrers(&ix, Oid(30)), vec![Oid(1)]);
        assert_eq!(referrers(&ix, Oid(20)), vec![Oid(1), Oid(2)]);
        assert_eq!(ix.targets_of(Oid(1)), &[Oid(20), Oid(30)]);

        // Clear everything from 1.
        ix.update(Oid(1), vec![]);
        assert_eq!(referrers(&ix, Oid(20)), vec![Oid(2)]);
        assert_eq!(referrers(&ix, Oid(30)), Vec::<Oid>::new());
        assert!(ix.targets_of(Oid(1)).is_empty());
    }

    #[test]
    fn add_refs_merges_without_recompute() {
        let mut ix = RefIndex::default();
        ix.update(Oid(1), vec![Oid(10), Oid(30)]);
        ix.add_refs(Oid(1), vec![Oid(20), Oid(10), Oid(20)]);
        assert_eq!(ix.targets_of(Oid(1)), &[Oid(10), Oid(20), Oid(30)]);
        assert_eq!(referrers(&ix, Oid(20)), vec![Oid(1)]);
        // No-ops leave the index untouched.
        ix.add_refs(Oid(1), vec![]);
        ix.add_refs(Oid(2), vec![]);
        assert_eq!(ix.targets_of(Oid(1)), &[Oid(10), Oid(20), Oid(30)]);
        assert!(ix.targets_of(Oid(2)).is_empty());
    }

    #[test]
    fn bulk_build_equals_one_update_per_object() {
        use crate::value::Value;
        let object = |oid: u64, refs: &[u64]| Object {
            oid: Oid(oid),
            lifespan: tchimera_temporal::Lifespan::starting_at(tchimera_temporal::Instant(0)),
            attrs: [("refs".into(), Value::set(refs.iter().map(|&r| Value::Oid(Oid(r)))))].into(),
            class_history: Default::default(),
        };
        let objects = [
            object(1, &[10, 20]),
            object(2, &[20]),
            object(3, &[]),
            object(4, &[20, 10, 4]),
        ];
        let bulk = RefIndex::build(objects.iter());
        let mut incremental = RefIndex::default();
        for o in &objects {
            incremental.update(o.oid, o.all_refs());
        }
        assert_eq!(bulk, incremental);
        assert_eq!(referrers(&bulk, Oid(20)), vec![Oid(1), Oid(2), Oid(4)]);
        assert!(bulk.targets_of(Oid(3)).is_empty());
        assert_eq!(RefIndex::build([].iter()), RefIndex::default());
    }

    #[test]
    fn idempotent_updates() {
        let mut ix = RefIndex::default();
        ix.update(Oid(5), vec![Oid(6)]);
        ix.update(Oid(5), vec![Oid(6)]);
        assert_eq!(referrers(&ix, Oid(6)), vec![Oid(5)]);
    }
}
