//! The pending-write set with value cache.
//!
//! The paper's `pending_write_set` holds the tags of pre-written but not
//! yet written values. Ours additionally caches the **value** announced by
//! each pre-write: that is what lets steady-state `write` ring messages be
//! tag-only (the piggyback optimization of §4.2) — on commit, the value is
//! resolved locally instead of crossing the wire a second time.
//!
//! A register has one write in flight almost always, so the set keeps a
//! single entry inline and owns no heap once emptied (see
//! [`SmallMap`](crate::small::SmallMap)).

use hts_types::{ServerId, Tag, Value};

use crate::small::SmallMap;

/// Pre-written, not-yet-committed writes known to one server.
///
/// # Examples
///
/// ```
/// use hts_core::PendingSet;
/// use hts_types::{ServerId, Tag, Value};
///
/// let mut pending = PendingSet::new();
/// pending.insert(Tag::new(1, ServerId(0)), Value::from_u64(10));
/// pending.insert(Tag::new(2, ServerId(1)), Value::from_u64(20));
/// assert_eq!(pending.max_tag(), Some(Tag::new(2, ServerId(1))));
///
/// // Committing tag [2,s1] subsumes everything at or below it.
/// let committed = pending.remove_le(Tag::new(2, ServerId(1)));
/// assert_eq!(committed.len(), 2);
/// assert!(pending.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PendingSet {
    map: SmallMap<Tag, Value>,
}

impl PendingSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        PendingSet::default()
    }

    /// Records a pre-written `value` under `tag` (idempotent).
    pub fn insert(&mut self, tag: Tag, value: Value) {
        self.map.insert(tag, value);
    }

    /// Removes exactly `tag`, returning its cached value.
    pub fn remove(&mut self, tag: Tag) -> Option<Value> {
        self.map.remove(&tag)
    }

    /// Removes every entry with tag `<= bound` (the subsumption rule: a
    /// committed write at `bound` proves no earlier pre-write can ever be
    /// read). Returns the removed entries in ascending tag order.
    pub fn remove_le(&mut self, bound: Tag) -> Vec<(Tag, Value)> {
        std::iter::from_fn(|| self.pop_le(bound)).collect()
    }

    /// Removes and returns the lowest entry if its tag is `<= bound` —
    /// [`remove_le`](Self::remove_le) one entry at a time, for callers
    /// that need no list of what went.
    pub(crate) fn pop_le(&mut self, bound: Tag) -> Option<(Tag, Value)> {
        self.map.pop_first_le(&bound)
    }

    /// The cached value of `tag`, if pending.
    pub fn get(&self, tag: Tag) -> Option<&Value> {
        self.map.get(&tag)
    }

    /// Whether `tag` is pending.
    pub fn contains(&self, tag: Tag) -> bool {
        self.map.get(&tag).is_some()
    }

    /// The highest pending tag (`maxlex(pending_write_set)`).
    pub fn max_tag(&self) -> Option<Tag> {
        self.map.iter().next_back().map(|(t, _)| *t)
    }

    /// Whether no write is pending.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of pending writes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Iterates over `(tag, value)` in ascending tag order.
    pub fn iter(&self) -> impl Iterator<Item = (Tag, &Value)> {
        self.map.iter().map(|(t, v)| (*t, v))
    }

    /// The pending entries initiated by `origin`, ascending.
    pub fn with_origin(&self, origin: ServerId) -> Vec<(Tag, Value)> {
        self.map
            .iter()
            .filter(|(t, _)| t.origin == origin)
            .map(|(t, v)| (*t, v.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ts: u64, o: u16) -> Tag {
        Tag::new(ts, ServerId(o))
    }

    fn v(n: u64) -> Value {
        Value::from_u64(n)
    }

    #[test]
    fn insert_get_remove() {
        let mut p = PendingSet::new();
        assert!(p.is_empty());
        p.insert(t(1, 0), v(10));
        assert!(p.contains(t(1, 0)));
        assert_eq!(p.get(t(1, 0)), Some(&v(10)));
        assert_eq!(p.len(), 1);
        assert_eq!(p.remove(t(1, 0)), Some(v(10)));
        assert!(p.is_empty());
        assert_eq!(p.remove(t(1, 0)), None);
    }

    #[test]
    fn max_tag_is_lexicographic() {
        let mut p = PendingSet::new();
        p.insert(t(2, 0), v(1));
        p.insert(t(1, 9), v(2));
        p.insert(t(2, 1), v(3));
        assert_eq!(p.max_tag(), Some(t(2, 1)));
    }

    #[test]
    fn remove_le_is_inclusive_and_ordered() {
        let mut p = PendingSet::new();
        for (ts, o, val) in [(1, 0, 1), (2, 0, 2), (2, 1, 3), (3, 0, 4)] {
            p.insert(t(ts, o), v(val));
        }
        let removed = p.remove_le(t(2, 0));
        assert_eq!(
            removed,
            vec![(t(1, 0), v(1)), (t(2, 0), v(2))] // ascending, inclusive
        );
        assert_eq!(p.len(), 2);
        assert!(p.contains(t(2, 1)));
        assert!(p.contains(t(3, 0)));
    }

    #[test]
    fn remove_le_with_absent_bound() {
        let mut p = PendingSet::new();
        p.insert(t(1, 0), v(1));
        p.insert(t(3, 0), v(3));
        let removed = p.remove_le(t(2, 5));
        assert_eq!(removed, vec![(t(1, 0), v(1))]);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn with_origin_filters() {
        let mut p = PendingSet::new();
        p.insert(t(1, 0), v(1));
        p.insert(t(2, 1), v(2));
        p.insert(t(3, 0), v(3));
        assert_eq!(
            p.with_origin(ServerId(0)),
            vec![(t(1, 0), v(1)), (t(3, 0), v(3))]
        );
        assert_eq!(p.with_origin(ServerId(9)), vec![]);
    }

    #[test]
    fn insert_is_idempotent_overwrite() {
        let mut p = PendingSet::new();
        p.insert(t(1, 0), v(1));
        p.insert(t(1, 0), v(1));
        assert_eq!(p.len(), 1);
        let all: Vec<(Tag, &Value)> = p.iter().collect();
        assert_eq!(all.len(), 1);
    }
}
