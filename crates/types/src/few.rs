//! A list whose first element lives inline.
//!
//! A channel send issues one write and a receiver poll finds one message
//! in all but the rarest calls (a flush draining a staged burst, a poll
//! catching up after a stall). Their results are lists so those calls stay
//! expressible, but the common call must not pay a heap allocation to say
//! "one": [`Few`] keeps the first element in the struct and spills only
//! the rest to a `Vec`.

/// An ordered list that allocates only from its second element on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Few<T> {
    first: Option<T>,
    rest: Vec<T>,
}

impl<T> Default for Few<T> {
    fn default() -> Self {
        Few { first: None, rest: Vec::new() }
    }
}

impl<T> Few<T> {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `item`.
    pub fn push(&mut self, item: T) {
        if self.first.is_none() {
            debug_assert!(self.rest.is_empty());
            self.first = Some(item);
        } else {
            self.rest.push(item);
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.first.is_some() as usize + self.rest.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    /// The most recently pushed element.
    pub fn last(&self) -> Option<&T> {
        self.rest.last().or(self.first.as_ref())
    }

    /// The elements in push order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.first.iter().chain(&self.rest)
    }
}

impl<T> IntoIterator for Few<T> {
    type Item = T;
    type IntoIter = core::iter::Chain<core::option::IntoIter<T>, std::vec::IntoIter<T>>;

    fn into_iter(self) -> Self::IntoIter {
        self.first.into_iter().chain(self.rest)
    }
}

impl<T> FromIterator<T> for Few<T> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let mut few = Few::new();
        for item in items {
            few.push(item);
        }
        few
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behaves_like_a_vec() {
        let mut few = Few::new();
        assert!(few.is_empty());
        assert_eq!((few.len(), few.last()), (0, None));
        for i in 0..4u32 {
            few.push(i);
            assert_eq!((few.len(), few.last()), (i as usize + 1, Some(&i)));
        }
        assert!(!few.is_empty());
        assert_eq!(few.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(few.clone().into_iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!((0..4u32).collect::<Few<_>>(), few);
    }

    #[test]
    fn one_element_stays_inline() {
        let mut few = Few::new();
        few.push(7u64);
        assert_eq!(few.rest.capacity(), 0, "the first element must not touch the heap");
    }
}
