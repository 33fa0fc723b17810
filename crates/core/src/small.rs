//! Collections that hold their first element inline.
//!
//! A register's core keeps a handful of queues and maps that are empty
//! while the register rests and hold one element while its write is in
//! flight — the common case, since a client waits for the ack before it
//! writes the same register again. A `VecDeque` or `BTreeMap` allocates
//! for that one element, and once emptied keeps its buffer or leaf: per
//! register, on every server, for good. These two keep the first element
//! inline and spill into the std collection only from the second on.
//!
//! A spill, once made, is kept until the collection empties, not merely
//! until it is back to one element: a contended register whose queue
//! swings between one and a few entries allocates once per busy period,
//! not once per swing. So an emptied collection owns no heap, and one
//! element in flight never allocates.

use std::collections::{BTreeMap, VecDeque};

/// An ordered map whose single entry lives inline.
#[derive(Debug, Clone)]
pub(crate) enum SmallMap<K, V> {
    /// Exactly one entry, never spilled since the map was last empty.
    One(K, V),
    /// No entry (a never-allocated map), or the spill: entered at the
    /// second entry, left only when the last one goes.
    Many(BTreeMap<K, V>),
}

impl<K, V> Default for SmallMap<K, V> {
    fn default() -> Self {
        SmallMap::Many(BTreeMap::new())
    }
}

impl<K: PartialEq, V: PartialEq> PartialEq for SmallMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        // One entry can sit inline or in a kept spill: compare entries.
        self.entries().eq(other.entries())
    }
}

impl<K: Eq, V: Eq> Eq for SmallMap<K, V> {}

impl<K, V> SmallMap<K, V> {
    /// Entries in ascending key order (walking them needs no `Ord`).
    fn entries(&self) -> impl DoubleEndedIterator<Item = (&K, &V)> {
        let (one, many) = match self {
            SmallMap::One(k, v) => (Some((k, v)), None),
            SmallMap::Many(map) => (None, Some(map.iter())),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }
}

impl<K: Ord, V> SmallMap<K, V> {
    pub(crate) fn len(&self) -> usize {
        match self {
            SmallMap::One(..) => 1,
            SmallMap::Many(map) => map.len(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        match self {
            SmallMap::One(k, v) => (k == key).then_some(v),
            SmallMap::Many(map) => map.get(key),
        }
    }

    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self {
            SmallMap::One(k, v) => (k == key).then_some(v),
            SmallMap::Many(map) => map.get_mut(key),
        }
    }

    /// Entries in ascending key order.
    pub(crate) fn iter(&self) -> impl DoubleEndedIterator<Item = (&K, &V)> {
        self.entries()
    }

    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self {
            SmallMap::Many(map) if !map.is_empty() => map.insert(key, value),
            SmallMap::One(k, v) if *k == key => Some(std::mem::replace(v, value)),
            SmallMap::One(..) | SmallMap::Many(_) => {
                *self = match std::mem::take(self) {
                    SmallMap::One(k, v) => SmallMap::Many(BTreeMap::from([(k, v), (key, value)])),
                    SmallMap::Many(_) => SmallMap::One(key, value),
                };
                None
            }
        }
    }

    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        let removed = match self {
            SmallMap::One(k, _) if *k == *key => self.take_one().map(|(_, v)| v),
            SmallMap::One(..) => None,
            SmallMap::Many(map) => map.remove(key),
        };
        self.release_if_empty();
        removed
    }

    /// Removes and returns the first entry if its key is `<= bound`.
    pub(crate) fn pop_first_le(&mut self, bound: &K) -> Option<(K, V)> {
        let popped = match self {
            SmallMap::One(k, _) if *k <= *bound => self.take_one(),
            SmallMap::One(..) => None,
            SmallMap::Many(map) => match map.first_key_value() {
                Some((k, _)) if k <= bound => map.pop_first(),
                _ => None,
            },
        };
        self.release_if_empty();
        popped
    }

    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        match self {
            SmallMap::One(k, v) => {
                if !keep(k, v) {
                    *self = SmallMap::default();
                }
            }
            SmallMap::Many(map) => map.retain(|k, v| keep(k, v)),
        }
        self.release_if_empty();
    }

    fn take_one(&mut self) -> Option<(K, V)> {
        match std::mem::take(self) {
            SmallMap::One(k, v) => Some((k, v)),
            many => {
                *self = many;
                None
            }
        }
    }

    /// Drops an emptied spill: `BTreeMap` keeps its leaf when its last
    /// entry goes.
    fn release_if_empty(&mut self) {
        if matches!(self, SmallMap::Many(map) if map.is_empty()) {
            *self = SmallMap::default();
        }
    }
}

/// A FIFO queue whose front element lives inline.
#[derive(Debug, Clone)]
pub(crate) struct SmallQueue<T> {
    head: Option<T>,
    /// Everything behind `head` (so empty whenever `head` is). Its buffer
    /// is kept while the queue is non-empty and released once it empties.
    rest: VecDeque<T>,
}

impl<T> Default for SmallQueue<T> {
    fn default() -> Self {
        SmallQueue {
            head: None,
            rest: VecDeque::new(),
        }
    }
}

impl<T> SmallQueue<T> {
    pub(crate) fn len(&self) -> usize {
        usize::from(self.head.is_some()) + self.rest.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.head.is_none()
    }

    pub(crate) fn front(&self) -> Option<&T> {
        self.head.as_ref()
    }

    /// Front to back.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.head.iter().chain(&self.rest)
    }

    pub(crate) fn push_back(&mut self, item: T) {
        if self.head.is_none() {
            self.head = Some(item);
        } else {
            self.rest.push_back(item);
        }
    }

    pub(crate) fn push_front(&mut self, item: T) {
        if let Some(old) = self.head.replace(item) {
            self.rest.push_front(old);
        }
    }

    pub(crate) fn pop_front(&mut self) -> Option<T> {
        let next = self.rest.pop_front();
        let item = std::mem::replace(&mut self.head, next);
        if self.head.is_none() && self.rest.capacity() > 0 {
            self.rest = VecDeque::new();
        }
        item
    }

    pub(crate) fn clear(&mut self) {
        *self = SmallQueue::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_moves_between_inline_and_spilled() {
        let mut m = SmallMap::default();
        assert!(m.is_empty());
        m.insert(3, 'c');
        assert!(matches!(m, SmallMap::One(3, 'c')));
        assert_eq!(m.insert(3, 'C'), Some('c'));
        m.insert(1, 'a');
        m.insert(2, 'b');
        assert_eq!(m.len(), 3);
        assert_eq!(m.iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(m.iter().next_back(), Some((&3, &'C')));
        assert_eq!(m.pop_first_le(&1), Some((1, 'a')));
        assert_eq!(m.pop_first_le(&1), None);
        assert_eq!(m.remove(&2), Some('b'));
        assert!(
            matches!(&m, SmallMap::Many(map) if map.len() == 1),
            "one left keeps the spill"
        );
        let mut inline = SmallMap::default();
        inline.insert(3, 'C');
        assert_eq!(m, inline, "equality is by entries, not by form");
        *m.get_mut(&3).unwrap() = 'z';
        assert_eq!(m.get(&3), Some(&'z'));
        assert_eq!(m.remove(&9), None);
        assert_eq!(m.pop_first_le(&3), Some((3, 'z')));
        assert!(
            matches!(&m, SmallMap::Many(map) if map.is_empty()),
            "an emptied spill is released"
        );
        assert_eq!(m, SmallMap::default());
    }

    #[test]
    fn map_retain_releases_only_an_emptied_spill() {
        let mut m: SmallMap<u8, ()> = (0..5).fold(SmallMap::default(), |mut m, k| {
            m.insert(k, ());
            m
        });
        m.retain(|k, _| *k == 4);
        assert_eq!(m.iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![4]);
        m.retain(|_, _| false);
        assert_eq!(m, SmallMap::default());
        m.insert(7, ());
        m.retain(|_, _| false);
        assert!(m.is_empty());
    }

    #[test]
    fn queue_is_fifo_across_the_spill() {
        let mut q = SmallQueue::default();
        assert!(q.is_empty());
        q.push_back(2);
        q.push_back(3);
        q.push_front(1);
        q.push_back(4);
        assert_eq!(q.len(), 4);
        assert_eq!(q.front(), Some(&1));
        assert_eq!(q.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        for expected in 1..=3 {
            assert_eq!(q.pop_front(), Some(expected));
        }
        assert!(q.rest.capacity() > 0, "a non-empty queue keeps its spill");
        q.push_back(5);
        assert_eq!(q.pop_front(), Some(4));
        assert_eq!(q.pop_front(), Some(5));
        assert_eq!(q.rest.capacity(), 0, "an emptied queue holds no buffer");
        assert_eq!(q.pop_front(), None);
        q.push_back(6);
        q.clear();
        assert!(q.is_empty());
    }
}
