//! An effect list that hands its vectors out and takes them back.
//!
//! A sans-IO state machine answers each input with the effects it caused,
//! as a `Vec` its driver owns. A fresh `Vec` per input is an allocation per
//! input; [`Outbox`] keeps the vectors the driver has drained and handed
//! back ([`Outbox::recycle`]) and builds the next input's effects in one of
//! them. A driver that never hands one back allocates exactly as it would
//! for a fresh `Vec`.

/// The most drained vectors an [`Outbox`] keeps: effects carried out one
/// input at a time need one, and each input nested in the carrying out of
/// another's (a delivery's, a broadcast's) one more.
pub const SPARES: usize = 4;

/// The effects of the input under way, and the drained vectors that wait
/// to hold the next input's.
///
/// # Example
///
/// ```
/// use ubft_types::Outbox;
///
/// let mut out = Outbox::new();
/// out.push(1);
/// let fx = out.take();
/// let buffer = fx.as_ptr();
/// out.recycle(fx);
/// out.push(2);
/// assert_eq!(out.take().as_ptr(), buffer);
/// ```
#[derive(Clone, Debug)]
pub struct Outbox<T> {
    out: Vec<T>,
    spare: Vec<Vec<T>>,
}

impl<T> Default for Outbox<T> {
    fn default() -> Self {
        Outbox { out: Vec::new(), spare: Vec::new() }
    }
}

impl<T> Outbox<T> {
    /// An empty outbox with no vector to reuse.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `item`; the input's first effect goes into a vector handed
    /// back earlier, if one waits.
    #[inline]
    pub fn push(&mut self, item: T) {
        if self.out.capacity() == 0 {
            if let Some(spare) = self.spare.pop() {
                self.out = spare;
            }
        }
        self.out.push(item);
    }

    /// Hands over the effects pushed since the last call, in order. An
    /// input that pushed nothing gets an empty `Vec` that owns no buffer.
    pub fn take(&mut self) -> Vec<T> {
        std::mem::take(&mut self.out)
    }

    /// Takes back a vector [`Outbox::take`] handed out, drained or not: it
    /// is emptied and kept for reuse while fewer than [`SPARES`] wait.
    pub fn recycle(&mut self, mut drained: Vec<T>) {
        if drained.capacity() > 0 && self.spare.len() < SPARES {
            drained.clear();
            self.spare.push(drained);
        }
    }

    /// How many drained vectors wait for reuse.
    pub fn spares(&self) -> usize {
        self.spare.len()
    }
}
