//! Memory regions with 8-byte-granularity torn-write modelling.
//!
//! RDMA guarantees atomicity only per 8-byte word (§3.2 "data accesses can be
//! inconsistent, since RDMA provides only 8-byte atomicity"). We model a
//! write as streaming into the region word by word over a short application
//! window; a read sampling the region mid-window observes a prefix of new
//! words followed by old words — a *torn* value. The SWMR register layer must
//! detect this via checksums, and the tests there rely on this model being
//! faithful.

use std::collections::VecDeque;
use std::ops::Range;

use ubft_types::{Duration, Time};

/// Bytes per page of a region's settled image. A circular-buffer slot is
/// sized for the largest message (KiBs) but usually carries about a hundred
/// bytes, so a page holds a typical message and little more.
const PAGE: usize = 512;

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

/// Splits the `len` bytes at region offset `offset` at page boundaries:
/// for each page touched, its index, where in it the bytes start, and which
/// part of the `len` bytes they are.
fn page_spans(offset: usize, len: usize) -> impl Iterator<Item = (usize, usize, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        let (page, at) = ((offset + done) / PAGE, (offset + done) % PAGE);
        let n = (PAGE - at).min(len - done);
        let span = done..done + n;
        done += n;
        (n > 0).then_some((page, at, span))
    })
}

/// A region's settled image and its size. Until the first write lands in
/// it, it holds nothing and reads as zeros.
#[derive(Clone, Debug)]
enum Image {
    /// A region of at most one [`PAGE`] (every SWMR register): its bytes,
    /// one buffer of its size.
    Whole { size: u32, bytes: Vec<u8> },
    /// A larger one, one entry per [`PAGE`] bytes. A page exists from the
    /// first write that touches it; until then it reads as zeros. A
    /// deployment registers tens of MiB of channel buffers and writes a
    /// small part of each, so neither registering a region nor its first
    /// write zero-fills it. The table itself is empty until the first write.
    Paged { size: u32, pages: Vec<Option<Box<[u8; PAGE]>>> },
}

/// A byte region of host memory exposed over the fabric. The size lives in
/// the image, whose padding holds it: a deployment registers thousands of
/// regions, and each byte of one is copied as it is registered.
#[derive(Clone, Debug)]
pub(crate) struct Region {
    image: Image,
    /// Writes not yet folded into the image, in arrival order.
    inflight: VecDeque<InflightWrite>,
}

impl Region {
    pub(crate) fn new(size: usize) -> Self {
        let (size, small) = (u32::try_from(size).expect("a region under 4 GiB"), size <= PAGE);
        let image = if small {
            Image::Whole { size, bytes: Vec::new() }
        } else {
            Image::Paged { size, pages: Vec::new() }
        };
        Region { image, inflight: VecDeque::new() }
    }

    pub(crate) fn len(&self) -> usize {
        match self.image {
            Image::Whole { size, .. } | Image::Paged { size, .. } => size as usize,
        }
    }

    /// Begins applying `data` at `offset` starting at time `start`, taking
    /// `spread` of virtual time to stream in word by word. The region keeps
    /// `data` itself until a read finds that the write has landed, and then
    /// hands the buffer back ([`Region::sample_into`]).
    ///
    /// Nothing is folded here: `start` is the write's *arrival*, a hop in
    /// the future of whoever posts it, and folding up to it would show
    /// every earlier write that lands before then to a reader that samples
    /// the region in the meantime — a message picked up before it arrived.
    /// Only a read knows what time it is ([`Region::sample_into`]).
    ///
    /// Returns when the write has fully landed: a read from then on shows
    /// all of it.
    pub(crate) fn begin_write(
        &mut self,
        offset: usize,
        data: Vec<u8>,
        start: Time,
        spread: Duration,
    ) -> Time {
        debug_assert!(offset + data.len() <= self.len());
        let n_words = data.len().div_ceil(8).max(1) as u64;
        let word_gap = Duration::from_nanos(spread.as_nanos() / n_words);
        let write = InflightWrite { offset, data, start, word_gap };
        let landed = write.fully_applied_at();
        self.inflight.push_back(write);
        landed
    }

    /// Folds fully-applied writes into the settled image, pushing each
    /// folded write's buffer onto `spent`. Writes fold in arrival order to
    /// preserve last-writer-wins: once one is still pending, every later
    /// write stays in flight too.
    fn compact(&mut self, now: Time, spent: &mut Vec<Vec<u8>>) {
        while self.inflight.front().is_some_and(|w| w.fully_applied_at() <= now) {
            let w = self.inflight.pop_front().expect("front was just checked");
            self.settle(w.offset, &w.data);
            spent.push(w.data);
        }
    }

    /// Copies `data` into the settled image at `offset`, creating what of
    /// it the bytes touch.
    fn settle(&mut self, offset: usize, data: &[u8]) {
        match &mut self.image {
            Image::Whole { size, bytes } => {
                bytes.resize(*size as usize, 0);
                bytes[offset..offset + data.len()].copy_from_slice(data);
            }
            Image::Paged { size, pages } => {
                if pages.is_empty() {
                    pages.resize_with((*size as usize).div_ceil(PAGE), || None);
                }
                for (page, at, span) in page_spans(offset, data.len()) {
                    let page = pages[page].get_or_insert_with(|| Box::new([0; PAGE]));
                    page[at..at + span.len()].copy_from_slice(&data[span]);
                }
            }
        }
    }

    /// Samples `len` bytes at `offset` as they appear at time `t`, applying
    /// the torn-word model for any in-flight writes (test/debug helper: the
    /// buffers of the writes it folds are dropped).
    #[cfg(test)]
    pub(crate) fn sample(&mut self, offset: usize, len: usize, t: Time) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.sample_into(offset, &mut out, t, &mut Vec::new());
        out
    }

    /// Samples into a caller-provided buffer (`out.len()` bytes
    /// at `offset`), so a reader that only wants a header allocates nothing.
    /// The buffers of the writes that have landed by `t` go onto `spent`.
    pub(crate) fn sample_into(
        &mut self,
        offset: usize,
        out: &mut [u8],
        t: Time,
        spent: &mut Vec<Vec<u8>>,
    ) {
        self.compact(t, spent);
        let len = out.len();
        match &self.image {
            Image::Whole { bytes, .. } if !bytes.is_empty() => {
                out.copy_from_slice(&bytes[offset..offset + len])
            }
            Image::Whole { .. } => out.fill(0), // never written
            Image::Paged { pages, .. } => {
                for (page, at, span) in page_spans(offset, len) {
                    match pages.get(page) {
                        Some(Some(page)) => {
                            out[span.clone()].copy_from_slice(&page[at..at + span.len()])
                        }
                        _ => out[span].fill(0), // never written
                    }
                }
            }
        }
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

    /// A paged region's page table (test helper).
    #[cfg(test)]
    pub(crate) fn pages(&self) -> &[Option<Box<[u8; PAGE]>>] {
        match &self.image {
            Image::Paged { pages, .. } => pages,
            Image::Whole { .. } => &[],
        }
    }

    /// Number of writes not yet folded into the settled image.
    #[cfg(test)]
    pub(crate) fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// The final contents once every in-flight write has landed (test/debug
    /// helper; equivalent to sampling the whole region at `Time::MAX`).
    #[cfg(test)]
    pub(crate) fn settled(&mut self) -> Vec<u8> {
        self.sample(0, self.len(), Time::MAX)
    }
}

#[cfg(test)]
pub(crate) mod tests {
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
        assert_eq!(r.settled(), vec![0u8; 24]);
    }

    #[test]
    fn sample_into_matches_sample_mid_write() {
        let mut r = Region::new(32);
        r.begin_write(0, vec![0x11u8; 32], t(0), Duration::ZERO);
        r.begin_write(8, vec![0x22u8; 16], t(100), Duration::from_nanos(20));
        let mut header = [0u8; 12];
        r.sample_into(4, &mut header, t(110), &mut Vec::new());
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
        assert_eq!(r.settled(), vec![2u8; 8]);
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
    fn a_later_write_does_not_land_an_earlier_one_early() {
        // Two messages posted back to back into neighbouring slots, arriving
        // at t=900 and t=1000. Posting the second must not fold the first:
        // a poll at t=500 — scheduled for some older message — sees neither.
        let mut r = Region::new(16);
        r.begin_write(0, vec![1u8; 8], t(900), Duration::ZERO);
        r.begin_write(8, vec![2u8; 8], t(1_000), Duration::ZERO);
        assert_eq!(r.sample(0, 16, t(500)), vec![0u8; 16]);
        let first_only = r.sample(0, 16, t(950));
        assert_eq!((&first_only[..8], &first_only[8..]), (&[1u8; 8][..], &[0u8; 8][..]));
        assert_eq!(r.sample(8, 8, t(1_000)), vec![2u8; 8]);
    }

    /// The region as it was before its settled image was paged: one dense
    /// buffer, and an in-flight list rebuilt on every compaction. Kept as
    /// the reference the paged region (and the fabric's pooled write
    /// images) are checked against.
    pub(crate) struct DenseRegion {
        committed: Vec<u8>,
        inflight: Vec<InflightWrite>,
    }

    impl DenseRegion {
        pub(crate) fn new(size: usize) -> Self {
            DenseRegion { committed: vec![0; size], inflight: Vec::new() }
        }

        pub(crate) fn begin_write(
            &mut self,
            offset: usize,
            data: Vec<u8>,
            start: Time,
            spread: Duration,
        ) {
            let n_words = data.len().div_ceil(8).max(1) as u64;
            let word_gap = Duration::from_nanos(spread.as_nanos() / n_words);
            self.inflight.push(InflightWrite { offset, data, start, word_gap });
        }

        fn compact(&mut self, now: Time) {
            let mut remaining = Vec::new();
            let mut still_pending = false;
            for w in std::mem::take(&mut self.inflight) {
                if !still_pending && w.fully_applied_at() <= now {
                    self.committed[w.offset..w.offset + w.data.len()].copy_from_slice(&w.data);
                } else {
                    still_pending = true;
                    remaining.push(w);
                }
            }
            self.inflight = remaining;
        }

        pub(crate) fn sample(&mut self, offset: usize, len: usize, t: Time) -> Vec<u8> {
            self.compact(t);
            let mut out = self.committed[offset..offset + len].to_vec();
            for w in &self.inflight {
                let visible = (w.words_visible(t) * 8).min(w.data.len());
                let lo = w.offset.max(offset);
                let hi = (w.offset + visible).min(offset + len);
                if lo < hi {
                    out[lo - offset..hi - offset]
                        .copy_from_slice(&w.data[lo - w.offset..hi - w.offset]);
                }
            }
            out
        }
    }

    /// A paged region and its dense reference, fed the same writes; every
    /// sample must read the same bytes from both.
    struct Both {
        paged: Region,
        dense: DenseRegion,
    }

    impl Both {
        fn new(size: usize) -> Self {
            Both { paged: Region::new(size), dense: DenseRegion::new(size) }
        }

        fn begin_write(&mut self, offset: usize, data: Vec<u8>, start: Time, spread: Duration) {
            self.paged.begin_write(offset, data.clone(), start, spread);
            self.dense.begin_write(offset, data, start, spread);
        }

        fn sample(&mut self, offset: usize, len: usize, at: Time) -> Vec<u8> {
            let paged = self.paged.sample(offset, len, at);
            assert_eq!(
                paged,
                self.dense.sample(offset, len, at),
                "{len} bytes at {offset}, {at:?}"
            );
            paged
        }
    }

    /// Sixteen bytes before a page edge: a 32-byte write there has two
    /// words on each side.
    const EDGE: usize = PAGE - 16;

    #[test]
    fn torn_read_mixes_words_across_a_page_edge() {
        let mut r = Both::new(3 * PAGE);
        r.begin_write(EDGE, vec![0x11u8; 32], t(0), Duration::ZERO);
        // Second write streams in over 40 ns: one word per 10 ns.
        r.begin_write(EDGE, vec![0x22u8; 32], t(100), Duration::from_nanos(40));
        assert_eq!(r.sample(EDGE, 32, t(100)), vec![0x11u8; 32]);
        // At t=125 the two words on the first page flipped; at t=135 one
        // word on the second page did too.
        for (at, flipped) in [(115, 8), (125, 16), (135, 24), (140, 32)] {
            let mid = r.sample(EDGE, 32, t(at));
            assert_eq!(&mid[..flipped], &vec![0x22u8; flipped][..], "t={at}");
            assert_eq!(&mid[flipped..], &vec![0x11u8; 32 - flipped][..], "t={at}");
        }
        // The settled image on both pages, and the untouched bytes around.
        assert_eq!(r.sample(EDGE - 8, 48, t(1_000))[..8], [0u8; 8]);
        assert_eq!(r.sample(0, 3 * PAGE, t(1_000))[EDGE..EDGE + 32], [0x22u8; 32]);
    }

    #[test]
    fn ordering_preserved_when_first_still_pending_across_a_page_edge() {
        let mut r = Both::new(2 * PAGE);
        // First write streams slowly; second is instant but arrives later.
        r.begin_write(EDGE, vec![1u8; 32], t(0), Duration::from_nanos(4_000));
        r.begin_write(EDGE + 8, vec![2u8; 16], t(10), Duration::ZERO);
        // Mid-window: the slow write's first word, then the instant write
        // over words the slow one has not reached, on both pages.
        let mid = r.sample(EDGE, 32, t(1_500));
        assert_eq!(
            (&mid[..8], &mid[8..24], &mid[24..]),
            (&[1u8; 8][..], &[2u8; 16][..], &[0u8; 8][..])
        );
        // Far in the future the *second* write still shows where they
        // overlap: the slow first write must not clobber it out of order.
        let late = r.sample(EDGE, 32, t(100_000));
        assert_eq!(
            (&late[..8], &late[8..24], &late[24..]),
            (&[1u8; 8][..], &[2u8; 16][..], &[1u8; 8][..])
        );
    }

    #[test]
    fn sample_into_matches_sample_mid_write_across_a_page_edge() {
        let mut r = Both::new(2 * PAGE);
        r.begin_write(EDGE, vec![0x11u8; 32], t(0), Duration::ZERO);
        r.begin_write(EDGE + 8, vec![0x22u8; 16], t(100), Duration::from_nanos(20));
        // Twelve bytes from four before the second write: its first word is
        // visible at t=110, and is the last word of the first page.
        let mut header = [0u8; 12];
        r.paged.sample_into(EDGE + 4, &mut header, t(110), &mut Vec::new());
        assert_eq!(header.to_vec(), r.sample(EDGE + 4, 12, t(110)));
        assert_eq!(&header[..4], &[0x11u8; 4][..]);
        assert_eq!(&header[4..], &[0x22u8; 8][..]);
        // A read that starts on the second page sees the second word only
        // once it has flipped.
        assert_eq!(r.sample(PAGE, 8, t(110)), vec![0x11u8; 8]);
        assert_eq!(r.sample(PAGE, 8, t(120)), vec![0x22u8; 8]);
    }

    /// Bytes of the region a [`schedule`] runs on.
    pub(crate) const SCHEDULE_SIZE: usize = 4 * PAGE + 40;

    /// One access of a [`schedule`]: `len` bytes at `offset` at `at` ns, a
    /// read, or a write of `len` copies of `fill` streaming in over
    /// `spread` ns.
    #[derive(Debug)]
    pub(crate) struct Access {
        pub(crate) at: u64,
        pub(crate) offset: usize,
        pub(crate) len: usize,
        pub(crate) write: Option<(u8, u64)>,
    }

    /// A seeded random schedule of 200 overlapping slow and instant writes
    /// and reads of every alignment, clustered around page edges, at
    /// non-decreasing times; one write in nine is up to two pages long.
    pub(crate) fn schedule(seed: u64) -> impl Iterator<Item = Access> {
        let mut rng = ubft_sim::SimRng::new(seed);
        let mut now = 0u64;
        (0..200u64).map(move |step| {
            now += rng.gen_range(40);
            let len = 1 + rng.gen_range(if step % 9 == 0 { 2 * PAGE as u64 } else { 48 });
            let len = (len as usize).min(SCHEDULE_SIZE);
            let near = (1 + rng.gen_range(4)) as usize * PAGE;
            let offset = (near + rng.gen_range(64) as usize).saturating_sub(32 + len / 2);
            let offset = offset.min(SCHEDULE_SIZE - len);
            let write = (rng.gen_range(3) != 0)
                .then(|| (step as u8 + 1, [0, 0, 30, 400][rng.gen_range(4) as usize]));
            Access { at: now, offset, len, write }
        })
    }

    /// The seeded schedules: the paged region reads exactly what the dense
    /// one does.
    #[test]
    fn paged_region_matches_the_dense_model() {
        for seed in 0..64 {
            let mut r = Both::new(SCHEDULE_SIZE);
            for a in schedule(seed) {
                match a.write {
                    None => {
                        r.sample(a.offset, a.len, t(a.at));
                    }
                    Some((fill, spread)) => r.begin_write(
                        a.offset,
                        vec![fill; a.len],
                        t(a.at),
                        Duration::from_nanos(spread),
                    ),
                }
            }
            let dense = r.dense.sample(0, SCHEDULE_SIZE, Time::MAX);
            assert_eq!(r.paged.settled(), dense, "seed {seed}");
        }
    }

    #[test]
    fn only_touched_pages_exist() {
        let mut r = Region::new(64 * PAGE);
        assert!(r.pages().is_empty(), "an unwritten region holds no page table");
        r.begin_write(5 * PAGE - 8, vec![7u8; 16], t(0), Duration::ZERO);
        assert_eq!(r.sample(5 * PAGE - 8, 16, t(1)), vec![7u8; 16]);
        let touched: Vec<usize> =
            r.pages().iter().enumerate().filter_map(|(i, p)| p.as_ref().map(|_| i)).collect();
        assert_eq!(touched, vec![4, 5]);
        assert_eq!(r.len(), 64 * PAGE);
    }

    /// A region of at most one page — an SWMR register's, 176 bytes —
    /// reads what a paged one does, mid-write and settled, and keeps its
    /// image in one buffer of its size, made at the first write that lands.
    #[test]
    fn a_region_of_one_page_reads_as_a_paged_one_from_one_buffer() {
        const SIZE: usize = 176;
        let (mut whole, mut paged) = (Region::new(SIZE), Region::new(2 * PAGE));
        let writes = [(0, 0x11, 0, 0), (88, 0x22, 50, 40), (0, 0x33, 60, 200), (40, 0x44, 100, 0)];
        for (offset, fill, at, spread) in writes {
            for r in [&mut whole, &mut paged] {
                r.begin_write(offset, vec![fill; 88], t(at), Duration::from_nanos(spread));
            }
        }
        let image = |r: &Region| match &r.image {
            Image::Whole { bytes, .. } => (bytes.len(), bytes.capacity()),
            Image::Paged { .. } => panic!("a region of one page is paged"),
        };
        assert_eq!(image(&whole), (0, 0), "nothing has landed");
        for at in (0..320).step_by(5) {
            for (offset, len) in [(0, SIZE), (4, 12), (84, 16), (170, 6)] {
                let mid = whole.sample(offset, len, t(at));
                assert_eq!(
                    mid,
                    paged.sample(offset, len, t(at)),
                    "{len} bytes at {offset}, t={at}"
                );
            }
        }
        assert_eq!(whole.settled(), paged.sample(0, SIZE, Time::MAX));
        assert_eq!(image(&whole), (SIZE, SIZE));
        assert!(size_of::<Region>() <= 64, "thousands of regions are registered");
    }

    #[test]
    fn sub_word_write() {
        let mut r = Region::new(8);
        r.begin_write(0, vec![0xAB; 3], t(0), Duration::from_nanos(5));
        assert_eq!(r.sample(0, 3, t(5)), vec![0xAB; 3]);
    }
}
