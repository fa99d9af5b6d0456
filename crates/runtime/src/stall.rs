//! Why a run stalled. Each replica's explanation of itself
//! ([`EngineDiag`]: its oldest undecided slot with its evidence, its
//! streams, the first gate that is shut) is joined with what only the
//! driver knows — what CTBcast delivered on each stream, the summary-stall
//! watchdog's ticks, whether the host crashed or was replaced — and the
//! group is classified by one rule per catalogued liveness corner of
//! ROADMAP item 1 (ARCHITECTURE.md, "Why a run stalled").
//! [`Cluster::diag_lines`](crate::Cluster::diag_lines) prints the report,
//! and so does the panic of a stalled [`Cluster::run`](crate::Cluster::run).

use std::collections::BTreeSet;
use std::fmt;

use ubft_core::engine::{EngineDiag, Gate, Standing};
use ubft_types::{SeqId, View};

/// One replica's row: its engine's explanation and the driver's facts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaStall {
    /// The engine's explanation of itself.
    pub diag: EngineDiag,
    /// The replica's host is down, or the plan has it Byzantine: its
    /// explanation does not count toward a rule.
    pub faulty: bool,
    /// A replacement node has taken over the replica's id.
    pub replaced: bool,
    /// Per stream, the highest CTBcast id delivered here.
    pub delivered: Vec<SeqId>,
    /// Retransmission ticks the summary-stall watchdog counted at its
    /// current boundary (it fires only past `summary_half` unsummarized
    /// messages).
    pub watchdog_ticks: u32,
    /// The engine's summary interval: a stream below its first boundary
    /// has no certified summary to repair a gap with.
    pub summary_half: u64,
    /// Peers this replica branded Byzantine, with the evidence.
    pub branded: Vec<(u32, String)>,
    /// State transfers that found no donor snapshot: the replica
    /// fast-forwarded, so its state may have diverged.
    pub transfer_misses: u64,
}

impl ReplicaStall {
    /// `node`'s row: its engine's explanation, what its event loop knows, and
    /// the two facts only a deployment knows.
    pub(crate) fn of(node: &crate::node::ReplicaNode, faulty: bool, replaced: bool) -> Self {
        ReplicaStall {
            diag: node.engine.diag(),
            faulty,
            replaced,
            delivered: node.ctbs.iter().map(|ctb| ctb.max_delivered()).collect(),
            watchdog_ticks: node.summary_stall.1,
            summary_half: node.engine.summary_half(),
            branded: node.branded.clone(),
            transfer_misses: node.transfer_misses,
        }
    }
}

/// A catalogued liveness corner of ROADMAP item 1, by its letter. Each
/// variant's rule holds for a group when some correct replica's row
/// matches it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Corner {
    /// 1(b): a replica with no pending work, while a peer is in or is
    /// sealing a later view. It never seals, and a view change needs
    /// `f + 1` sealers.
    B,
    /// 1(e): the view-0 leader holds requests it neither queued nor
    /// proposed, waiting on their echoes, while it suspects a follower.
    E,
    /// 1(f): a broadcaster shut at its CTBcast summary gate.
    F,
    /// 1(g): a stream whose view is behind the COMMITs it carries, which
    /// only a gap-filling summary that skipped the stream's SEAL_VIEW
    /// brings about.
    G,
    /// 1(h): a receiver held at a FIFO id below what CTBcast delivered, on
    /// a correct broadcaster's stream short of its first summary boundary.
    H,
}

/// The corners one group's rows match; empty is `unclassified`.
pub fn classify(rows: &[ReplicaStall]) -> BTreeSet<Corner> {
    let (n, live) = (rows.len(), || rows.iter().enumerate().filter(|(_, r)| !r.faulty));
    let ahead = |v: View| live().any(|(_, p)| p.diag.sealing > Some(v) || p.diag.view > v);
    let waits_on_echoes = |i: usize, d: &EngineDiag| {
        let unproposed = d.outstanding > 0 && d.propose_queue == 0 && d.in_flight == 0;
        d.view == View(0)
            && d.view.leader(n).0 as usize == i
            && unproposed
            && !d.suspected.is_empty()
    };
    let held_below_delivery = |r: &ReplicaStall| {
        let mut streams = r.diag.streams.iter().zip(&r.delivered).enumerate();
        streams.any(|(b, (s, d))| !rows[b].faulty && s.fifo_next < *d && d.0 < r.summary_half)
    };
    let mut corners = BTreeSet::new();
    for (i, r) in live() {
        let d = &r.diag;
        let rules = [
            (Corner::B, !d.has_pending_work && ahead(d.view)),
            (Corner::E, waits_on_echoes(i, d)),
            (Corner::F, matches!(d.gate, Some(Gate::Summary(..)))),
            (Corner::G, d.streams.iter().any(|s| s.commit_view > Some(s.view))),
            (Corner::H, held_below_delivery(r)),
        ];
        corners.extend(rules.into_iter().filter(|(_, holds)| *holds).map(|(c, _)| c));
    }
    corners
}

/// Why a deployment is where it is: every group's rows, by replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StallReport {
    /// By group, then by replica.
    pub groups: Vec<Vec<ReplicaStall>>,
}

impl StallReport {
    /// The deployment's class: the corners any group matches, as
    /// `1(b)+(h)`, or `unclassified`.
    pub fn class(&self) -> String {
        let corners: BTreeSet<Corner> = self.groups.iter().flat_map(|g| classify(g)).collect();
        let letters: Vec<String> =
            corners.iter().map(|c| format!("({c:?})").to_lowercase()).collect();
        let class = (!letters.is_empty()).then(|| format!("1{}", letters.join("+")));
        class.unwrap_or_else(|| "unclassified".into())
    }
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "  stall class: {}", self.class())?;
        for (g, rows) in self.groups.iter().enumerate() {
            if self.groups.len() > 1 {
                writeln!(f, " group {g}:")?;
            }
            for (r, row) in rows.iter().enumerate() {
                let host = [["up", "replaced"], ["faulty"; 2]][usize::from(row.faulty)]
                    [usize::from(row.replaced)];
                writeln!(f, "  r{r} {host}: {}", row.diag)?;
                let streams: Vec<String> = (row.diag.streams.iter().zip(&row.delivered))
                    .map(|(s, d)| {
                        let commits =
                            s.commit_view.map_or(String::new(), |v| format!(" commits v{}", v.0));
                        let st = match s.standing {
                            Standing::Trusted => "",
                            Standing::Suspected => " suspected",
                            Standing::Branded(_) => " branded",
                        };
                        format!("v{} fifo {} dlv {}{commits}{st}", s.view.0, s.fifo_next.0, d.0)
                    })
                    .collect();
                let ticks = row.watchdog_ticks;
                writeln!(f, "     streams [{}], watchdog {ticks} ticks", streams.join(" | "))?;
                for (culprit, why) in &row.branded {
                    writeln!(f, "  r{r} branded r{culprit} byzantine: {why}")?;
                }
                if row.transfer_misses > 0 {
                    let misses = row.transfer_misses;
                    let what = "found no donor snapshot (state may have diverged)";
                    writeln!(f, "  r{r}: {misses} state transfer(s) {what}")?;
                }
            }
        }
        Ok(())
    }
}
