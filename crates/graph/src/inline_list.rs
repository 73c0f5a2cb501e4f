//! Short lists stored inline: an op's inputs, a tensor's dims and a block
//! instance's external producers.
//!
//! Every op of every zoo graph reads at most four producers (two in the
//! forward graphs, four after autodiff) and every tensor has rank at most
//! four, so holding these lists inline makes an op's only heap block its
//! name. Longer lists spill to a `Vec` and behave the same.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Entries an [`InlineList`] holds before it spills to the heap.
pub const INLINE_CAPACITY: usize = 4;

/// A list of `Copy` values, inline up to [`INLINE_CAPACITY`] entries and on
/// the heap past that. It derefs to a slice, and compares, hashes and
/// prints (`{:?}`) exactly as that slice, so it reads like the `Vec` it
/// stands in for whichever way it is stored.
#[derive(Clone)]
pub struct InlineList<T>(Repr<T>);

#[derive(Clone)]
enum Repr<T> {
    /// `buf[..len]` holds the entries, with `len <= INLINE_CAPACITY`; the
    /// tail is padding.
    Inline {
        len: u8,
        buf: [T; INLINE_CAPACITY],
    },
    Heap(Vec<T>),
}

impl<T: Copy + Default> InlineList<T> {
    /// An empty list (inline, no allocation).
    pub fn new() -> InlineList<T> {
        InlineList(Repr::Inline {
            len: 0,
            buf: [T::default(); INLINE_CAPACITY],
        })
    }

    /// A copy of `items`, allocating only past the inline capacity.
    pub fn from_slice(items: &[T]) -> InlineList<T> {
        if items.len() > INLINE_CAPACITY {
            return InlineList(Repr::Heap(items.to_vec()));
        }
        let mut buf = [T::default(); INLINE_CAPACITY];
        buf[..items.len()].copy_from_slice(items);
        InlineList(Repr::Inline {
            len: items.len() as u8,
            buf,
        })
    }

    /// Append an entry, spilling to the heap past the inline capacity.
    pub fn push(&mut self, item: T) {
        match &mut self.0 {
            Repr::Inline { len, buf } if usize::from(*len) < INLINE_CAPACITY => {
                buf[usize::from(*len)] = item;
                *len += 1;
            }
            Repr::Inline { buf, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_CAPACITY);
                spilled.extend_from_slice(buf);
                spilled.push(item);
                self.0 = Repr::Heap(spilled);
            }
            Repr::Heap(items) => items.push(item),
        }
    }

    /// Whether the entries live on the heap.
    #[cfg(test)]
    pub(crate) fn spilled(&self) -> bool {
        matches!(self.0, Repr::Heap(_))
    }
}

impl<T: Copy + Default> Default for InlineList<T> {
    fn default() -> InlineList<T> {
        InlineList::new()
    }
}

impl<T> Deref for InlineList<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Heap(items) => items,
        }
    }
}

impl<T> DerefMut for InlineList<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, buf } => &mut buf[..usize::from(*len)],
            Repr::Heap(items) => items,
        }
    }
}

impl<T: PartialEq> PartialEq for InlineList<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for InlineList<T> {}

impl<T: Hash> Hash for InlineList<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl<T: fmt::Debug> fmt::Debug for InlineList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: Copy + Default> FromIterator<T> for InlineList<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> InlineList<T> {
        let mut list = InlineList::new();
        for item in iter {
            list.push(item);
        }
        list
    }
}

impl<'a, T> IntoIterator for &'a InlineList<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(value: &impl Hash) -> u64 {
        let mut hasher = DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn reads_like_a_vec_either_way() {
        for n in [0, 2, INLINE_CAPACITY, INLINE_CAPACITY + 2] {
            let v: Vec<u32> = (10..10 + n as u32).collect();
            let list = InlineList::from_slice(&v);
            assert_eq!(list.spilled(), n > INLINE_CAPACITY);
            assert_eq!(format!("{list:?}"), format!("{v:?}"));
            assert_eq!(format!("{list:#?}"), format!("{v:#?}"));
            assert_eq!(hash_of(&list), hash_of(&v));
            assert_eq!(list.iter().copied().collect::<Vec<_>>(), v);
        }
    }
}
