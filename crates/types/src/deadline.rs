//! A per-operation timeout as a mark on the operation's own state.
//!
//! A timer per operation costs one input per operation, and under load
//! nearly all of them fire long after their operation finished. A
//! [`Deadline`] instead marks the operation where it is kept, and one
//! [`Sweep`] per kind of timeout reads every mark: its timer fires once a
//! period and is armed only while some mark is set, and a firing acts on
//! the operations that were already pending at the one before. An
//! operation has waited at least one period when it is acted on, and less
//! than two; exactly one when it found the timer idle.

/// How long an operation has waited, in firings of the sweep that reads
/// its mark.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Deadline {
    /// Not waiting.
    #[default]
    Unset,
    /// Started waiting after the sweep's last firing.
    Fresh,
    /// Already waiting at the last firing: the next one acts on it.
    Due,
}

impl Deadline {
    /// The operation starts waiting, unless it waits already: a mark is
    /// never postponed.
    fn start(&mut self) {
        if *self == Deadline::Unset {
            *self = Deadline::Fresh;
        }
    }

    /// One firing of the sweep, for an operation that is still `pending`
    /// or not: says whether its wait is over, which clears the mark. A
    /// fresh mark of a pending operation becomes due; a settled
    /// operation's mark is cleared.
    fn sweep(&mut self, pending: bool) -> bool {
        let over = pending && *self == Deadline::Due;
        *self = if pending && *self == Deadline::Fresh { Deadline::Due } else { Deadline::Unset };
        over
    }
}

/// The one timer of a kind of timeout, and whether it is armed: it is while
/// some mark it reads is set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sweep {
    armed: bool,
}

impl Sweep {
    /// Starts `mark`'s wait, unless it waits already. Says whether the
    /// timer must be armed: it was idle.
    pub fn start(&mut self, mark: &mut Deadline) -> bool {
        mark.start();
        !std::mem::replace(&mut self.armed, true)
    }

    /// The timer fired, over every `(key, pending, mark)` the sweep reads:
    /// returns the keys whose wait is over, in the order given, and whether
    /// to arm the timer again — some mark is still set.
    pub fn fire<'a, K>(
        &mut self,
        marks: impl IntoIterator<Item = (K, bool, &'a mut Deadline)>,
    ) -> (Vec<K>, bool) {
        let mut over = Vec::new();
        self.armed = false;
        for (key, pending, mark) in marks {
            if mark.sweep(pending) {
                over.push(key);
            }
            self.armed |= *mark == Deadline::Due;
        }
        (over, self.armed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pending_operation_is_over_at_the_second_firing_after_its_mark() {
        let (mut sweep, mut d) = (Sweep::default(), Deadline::default());
        assert_eq!(sweep.fire([(0, true, &mut d)]), (vec![], false), "nothing was marked");
        assert!(sweep.start(&mut d), "an idle timer is armed");
        assert_eq!(sweep.fire([(0, true, &mut d)]), (vec![], true), "over at the first firing");
        assert!(!sweep.start(&mut d), "armed twice");
        assert_eq!(d, Deadline::Due, "a second start postponed the mark");
        assert_eq!(sweep.fire([(0, true, &mut d)]), (vec![0], false));
        assert_eq!(d, Deadline::Unset);
    }

    #[test]
    fn a_settled_operation_clears_its_mark_at_any_firing() {
        for firings_pending in 0..2 {
            let (mut sweep, mut d) = (Sweep::default(), Deadline::default());
            assert!(sweep.start(&mut d));
            for _ in 0..firings_pending {
                assert_eq!(sweep.fire([(0, true, &mut d)]), (vec![], true));
            }
            assert_eq!(sweep.fire([(0, false, &mut d)]), (vec![], false));
            assert_eq!(d, Deadline::Unset, "after {firings_pending} firings pending");
            assert!(sweep.start(&mut d), "an idle timer is armed again");
        }
    }
}
