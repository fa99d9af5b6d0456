//! Memory regions with 8-byte-granularity torn-write modelling.
//!
//! RDMA guarantees atomicity only per 8-byte word (§3.2 "data accesses can be
//! inconsistent, since RDMA provides only 8-byte atomicity"). We model a
//! write as streaming into the region word by word over a short application
//! window; a read sampling the region mid-window observes a prefix of new
//! words followed by old words — a *torn* value. The SWMR register layer must
//! detect this via checksums, and the tests there rely on this model being
//! faithful.

use ubft_types::{Duration, Time};

/// A write still streaming into memory.
#[derive(Clone, Debug)]
struct InflightWrite {
    offset: usize,
    data: Vec<u8>,
    start: Time,
    /// Virtual time between consecutive word flips.
    word_gap: Duration,
}

impl InflightWrite {
    /// Number of words whose new value is visible at `t`.
    fn words_visible(&self, t: Time) -> usize {
        if t < self.start {
            return 0;
        }
        let n_words = self.data.len().div_ceil(8);
        if self.word_gap == Duration::ZERO {
            return n_words;
        }
        let elapsed = t.since(self.start).as_nanos();
        let visible = (elapsed / self.word_gap.as_nanos().max(1)) as usize;
        visible.min(n_words)
    }

    fn fully_applied_at(&self) -> Time {
        let n_words = self.data.len().div_ceil(8) as u64;
        self.start + Duration::from_nanos(self.word_gap.as_nanos() * n_words)
    }
}

/// A byte region of host memory exposed over the fabric.
#[derive(Clone, Debug)]
pub(crate) struct Region {
    size: usize,
    /// The settled image. Empty — reading as zeros — until the first write
    /// begins: a deployment registers tens of MiB of channel buffers, and
    /// zeroing them all up front was most of its construction time.
    committed: Vec<u8>,
    inflight: Vec<InflightWrite>,
}

impl Region {
    pub(crate) fn new(size: usize) -> Self {
        Region { size, committed: Vec::new(), inflight: Vec::new() }
    }

    pub(crate) fn len(&self) -> usize {
        self.size
    }

    fn materialize(&mut self) {
        self.committed.resize(self.size, 0);
    }

    /// Begins applying `data` at `offset` starting at time `start`, taking
    /// `spread` of virtual time to stream in word by word.
    pub(crate) fn begin_write(
        &mut self,
        offset: usize,
        data: Vec<u8>,
        start: Time,
        spread: Duration,
    ) {
        debug_assert!(offset + data.len() <= self.size);
        self.materialize();
        self.compact(start);
        let n_words = data.len().div_ceil(8).max(1) as u64;
        let word_gap = Duration::from_nanos(spread.as_nanos() / n_words);
        self.inflight.push(InflightWrite { offset, data, start, word_gap });
    }

    /// Folds fully-applied writes into the committed image.
    fn compact(&mut self, now: Time) {
        // Writes must fold in arrival order to preserve last-writer-wins.
        let mut remaining = Vec::new();
        let inflight = std::mem::take(&mut self.inflight);
        let mut still_pending = false;
        for w in inflight {
            if !still_pending && w.fully_applied_at() <= now {
                let end = w.offset + w.data.len();
                self.committed[w.offset..end].copy_from_slice(&w.data);
            } else {
                // Once one write is still pending, keep all later writes
                // in-flight too so ordering is preserved.
                still_pending = true;
                remaining.push(w);
            }
        }
        self.inflight = remaining;
    }

    /// Samples `len` bytes at `offset` as they appear at time `t`, applying
    /// the torn-word model for any in-flight writes.
    pub(crate) fn sample(&mut self, offset: usize, len: usize, t: Time) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.sample_into(offset, &mut out, t);
        out
    }

    /// [`Region::sample`] into a caller-provided buffer (`out.len()` bytes
    /// at `offset`), so a reader that only wants a header allocates nothing.
    pub(crate) fn sample_into(&mut self, offset: usize, out: &mut [u8], t: Time) {
        if self.committed.is_empty() {
            out.fill(0); // never written
            return;
        }
        self.compact(t);
        let len = out.len();
        out.copy_from_slice(&self.committed[offset..offset + len]);
        for w in self.inflight.iter() {
            let visible_words = w.words_visible(t);
            let visible_bytes = (visible_words * 8).min(w.data.len());
            // Overlap of [w.offset, w.offset + visible_bytes) with the read.
            let w_start = w.offset;
            let w_end = w.offset + visible_bytes;
            let r_start = offset;
            let r_end = offset + len;
            let lo = w_start.max(r_start);
            let hi = w_end.min(r_end);
            if lo < hi {
                out[lo - r_start..hi - r_start]
                    .copy_from_slice(&w.data[lo - w_start..hi - w_start]);
            }
        }
    }

    /// The final contents once every in-flight write has landed (test/debug
    /// helper; equivalent to sampling at `Time::MAX`).
    pub(crate) fn settled(&mut self) -> &[u8] {
        self.materialize();
        self.compact(Time::MAX);
        // A write with word_gap 0 folds immediately; Time::MAX folds the rest.
        debug_assert!(self.inflight.is_empty());
        &self.committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> Time {
        Time::from_nanos(ns)
    }

    #[test]
    fn instant_write_visible_immediately() {
        let mut r = Region::new(16);
        r.begin_write(0, vec![7u8; 16], t(10), Duration::ZERO);
        assert_eq!(r.sample(0, 16, t(10)), vec![7u8; 16]);
    }

    #[test]
    fn torn_read_mixes_words() {
        let mut r = Region::new(32);
        r.begin_write(0, vec![0x11u8; 32], t(0), Duration::ZERO);
        // Second write streams in over 40 ns: one word per 10 ns.
        r.begin_write(0, vec![0x22u8; 32], t(100), Duration::from_nanos(40));
        // At t=100 nothing of the new write is visible.
        assert_eq!(r.sample(0, 32, t(100)), vec![0x11u8; 32]);
        // At t=115, one word (8 bytes) flipped.
        let mid = r.sample(0, 32, t(115));
        assert_eq!(&mid[..8], &[0x22u8; 8][..]);
        assert_eq!(&mid[8..], &[0x11u8; 24][..]);
        // At t=140 everything flipped.
        assert_eq!(r.sample(0, 32, t(140)), vec![0x22u8; 32]);
    }

    #[test]
    fn reads_before_write_see_old() {
        let mut r = Region::new(8);
        r.begin_write(0, vec![9u8; 8], t(50), Duration::from_nanos(8));
        assert_eq!(r.sample(0, 8, t(49)), vec![0u8; 8]);
    }

    #[test]
    fn unwritten_region_reads_as_zeros() {
        let mut r = Region::new(24);
        assert_eq!(r.len(), 24);
        assert_eq!(r.sample(4, 12, t(7)), vec![0u8; 12]);
        assert_eq!(r.settled(), &[0u8; 24][..]);
    }

    #[test]
    fn sample_into_matches_sample_mid_write() {
        let mut r = Region::new(32);
        r.begin_write(0, vec![0x11u8; 32], t(0), Duration::ZERO);
        r.begin_write(8, vec![0x22u8; 16], t(100), Duration::from_nanos(20));
        let mut header = [0u8; 12];
        r.sample_into(4, &mut header, t(110));
        assert_eq!(header.to_vec(), r.sample(4, 12, t(110)));
        assert_eq!(&header[..4], &[0x11u8; 4][..]);
        assert_eq!(&header[4..], &[0x22u8; 8][..]);
    }

    #[test]
    fn partial_range_sampling() {
        let mut r = Region::new(24);
        r.begin_write(8, vec![5u8; 8], t(0), Duration::ZERO);
        let s = r.sample(4, 12, t(0));
        assert_eq!(&s[..4], &[0u8; 4][..]);
        assert_eq!(&s[4..12], &[5u8; 8][..]);
    }

    #[test]
    fn later_write_wins_after_settle() {
        let mut r = Region::new(8);
        r.begin_write(0, vec![1u8; 8], t(0), Duration::from_nanos(100));
        r.begin_write(0, vec![2u8; 8], t(1), Duration::from_nanos(100));
        assert_eq!(r.settled(), &[2u8; 8][..]);
    }

    #[test]
    fn ordering_preserved_when_first_still_pending() {
        let mut r = Region::new(8);
        // First write streams slowly; second is instant but arrives later.
        r.begin_write(0, vec![1u8; 8], t(0), Duration::from_nanos(1000));
        r.begin_write(0, vec![2u8; 8], t(10), Duration::ZERO);
        // Sampling far in the future must show the *second* write, not let
        // the slow first write clobber it out of order.
        assert_eq!(r.sample(0, 8, t(10_000)), vec![2u8; 8]);
    }

    #[test]
    fn sub_word_write() {
        let mut r = Region::new(8);
        r.begin_write(0, vec![0xAB; 3], t(0), Duration::from_nanos(5));
        assert_eq!(r.sample(0, 3, t(5)), vec![0xAB; 3]);
    }
}
