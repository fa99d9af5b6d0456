//! A list held in place up to a fixed length.
//!
//! A certificate carries `f + 1` signature shares, two at `f = 1`:
//! building, cloning and decoding one must not allocate, and every message
//! and engine effect that carries one is as wide as its share list.
//! [`Inline`] keeps up to `N` elements in place and moves them all to a
//! `Vec` at the `N + 1`-th. As an enum it is no wider than its `N`
//! elements, the `Vec` sharing their bytes; a spill `Vec` beside them, as
//! [`Few`](crate::Few) keeps, would add 24.

/// An ordered list that allocates only from its `N + 1`-th element on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Inline<T, const N: usize> {
    /// At most `N` elements, `Some` up to the list's length.
    Held([Option<T>; N]),
    /// More than `N`.
    Spilled(Vec<T>),
}

impl<T, const N: usize> Default for Inline<T, N> {
    fn default() -> Self {
        Inline::Held(std::array::from_fn(|_| None))
    }
}

impl<T, const N: usize> Inline<T, N> {
    /// Appends `item`.
    pub fn push(&mut self, item: T) {
        match self {
            Inline::Held(held) => match held.iter_mut().find(|h| h.is_none()) {
                Some(free) => *free = Some(item),
                None => {
                    let mut items = Vec::with_capacity(2 * N);
                    items.extend(held.iter_mut().filter_map(Option::take));
                    items.push(item);
                    *self = Inline::Spilled(items);
                }
            },
            Inline::Spilled(items) => items.push(item),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// The elements in push order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (held, spilled): (&[Option<T>], &[T]) = match self {
            Inline::Held(held) => (held, &[]),
            Inline::Spilled(items) => (&[], items),
        };
        held.iter().flatten().chain(spilled)
    }
}

impl<T, const N: usize> FromIterator<T> for Inline<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let mut list = Inline::default();
        items.into_iter().for_each(|item| list.push(item));
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn n_elements_stay_in_place_and_the_next_moves_them_all() {
        let mut list = Inline::<u32, 2>::default();
        assert!(list.is_empty());
        for i in 0..5u32 {
            list.push(i);
            assert_eq!(list.len(), i as usize + 1);
            assert_eq!(list.iter().copied().collect::<Vec<_>>(), (0..=i).collect::<Vec<_>>());
            assert_eq!(matches!(list, Inline::Held(_)), i < 2, "after {} elements", i + 1);
        }
        assert_eq!((0..5).collect::<Inline<u32, 2>>(), list);
    }

    /// The `Vec` shares the bytes of the elements held in place.
    #[test]
    fn it_is_no_wider_than_its_elements() {
        type Share = (Option<u32>, [u8; 32]);
        assert_eq!(size_of::<Inline<Share, 2>>(), size_of::<[Option<Share>; 2]>());
    }
}
