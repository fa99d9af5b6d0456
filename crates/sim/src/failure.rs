//! Failure injection plans for experiments and tests.
//!
//! A [`FailurePlan`] is a declarative schedule of faults — replica crashes,
//! memory-node crashes, Byzantine behaviour activations, and asynchrony
//! phases — that the runtime applies when building a deployment. Every
//! fault names the consensus group it lands in, so one plan describes a
//! whole deployment, and the deployment refuses a plan that names a group
//! it does not have. Keeping plans declarative means an experiment's fault
//! schedule is part of its reproducible configuration.

use ubft_types::{Duration, Time};

/// The kind of misbehaviour a Byzantine replica exhibits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ByzantineMode {
    /// Sends different proposals to different receivers under one CTBcast
    /// id (the attack CTBcast exists to stop): every odd receiver is told
    /// one poisoned `PREPARE` in place of each of the replica's own, at
    /// that message's id, in the fast path's `LOCK` and in the slow path's
    /// `SIGNED` alike, the latter under the replica's valid signature;
    /// retransmissions repeat the lie. The replica driver rewrites each
    /// frame where it sends it, so the simulator and the scripted
    /// node-level net run the one adversary.
    EquivocateProposals,
    /// Stops transmitting entirely but keeps receiving (indistinguishable
    /// from a crash to its peers): its frames and replies are lost.
    Silent,
    /// A leader that never proposes client requests (censorship — must
    /// trigger a view change).
    CensorRequests,
    /// Stores a garbled fingerprint under an honest checksum in its own
    /// SWMR register entries, so readers must reject the entry by its
    /// signature and deliver anyway. The §6.1 checksum attack (a writer
    /// storing a bogus checksum) is exercised by `ubft_dmem`'s
    /// `RegisterWriter::write_corrupt` tests instead.
    CorruptRegisters,
    /// Delays every outgoing message by a fixed amount (slow but correct —
    /// a gray failure).
    Laggard,
}

/// One scheduled fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Replica `index` crashes at `at`.
    ReplicaCrash {
        /// Replica index.
        index: usize,
        /// Crash time.
        at: Time,
    },
    /// Memory node `index` crashes at `at`.
    MemNodeCrash {
        /// Memory node index.
        index: usize,
        /// Crash time.
        at: Time,
    },
    /// Replica `index` behaves Byzantine in `mode` from time `from`.
    Byzantine {
        /// Replica index.
        index: usize,
        /// Behaviour exhibited.
        mode: ByzantineMode,
        /// Activation time.
        from: Time,
    },
    /// Replica `index` crashes at `crash_at` and a fresh replacement node
    /// (same replica id, new host) boots at `rejoin_at`, reconstructing its
    /// state from the memory nodes and a join handshake (uBFT extended
    /// version, §replacement — what lets `2f + 1` deployments survive
    /// churn).
    Replace {
        /// Replica index.
        index: usize,
        /// Crash time of the original node.
        crash_at: Time,
        /// Boot time of the replacement node (must be after `crash_at`).
        rejoin_at: Time,
    },
    /// Replicas `a` and `b` cannot exchange messages during `[from, until)`,
    /// whichever hosts they run on (a replacement inherits the cut).
    Partition {
        /// One endpoint (replica index).
        a: usize,
        /// The other endpoint (replica index).
        b: usize,
        /// Partition start.
        from: Time,
        /// Partition end (healed from here on).
        until: Time,
    },
}

/// A declarative fault schedule for a deployment of one or more consensus
/// groups. The builders address group 0 — all a one-group deployment has
/// — and [`FailurePlan::in_group`] addresses any other; the asynchrony
/// phase is the whole deployment's.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FailurePlan {
    /// `(group, fault)` pairs, in schedule order.
    pub(crate) faults: Vec<(usize, Fault)>,
    /// Global stabilization time (network is asynchronous before this).
    pub gst: Time,
    /// Extra per-hop delay bound before GST.
    pub pre_gst_extra: Duration,
}

impl FailurePlan {
    /// A failure-free, synchronous-from-the-start plan.
    pub fn none() -> Self {
        FailurePlan::default()
    }

    /// Adds a replica crash.
    #[must_use]
    pub fn crash_replica(self, index: usize, at: Time) -> Self {
        self.with_fault(Fault::ReplicaCrash { index, at })
    }

    /// Adds a memory-node crash. Memory nodes are shared by every group, so
    /// the node crashes for the whole deployment whichever group names it.
    #[must_use]
    pub fn crash_mem_node(self, index: usize, at: Time) -> Self {
        self.with_fault(Fault::MemNodeCrash { index, at })
    }

    /// Makes a replica Byzantine.
    #[must_use]
    pub fn byzantine(self, index: usize, mode: ByzantineMode, from: Time) -> Self {
        self.with_fault(Fault::Byzantine { index, mode, from })
    }

    /// Crashes replica `index` at `crash_at` and boots a fresh replacement
    /// node for the same replica id at `rejoin_at`.
    ///
    /// # Panics
    ///
    /// Panics if `rejoin_at <= crash_at` (the replacement must strictly
    /// follow the crash) or if the plan already schedules a crash or
    /// replacement for `index` (one lifecycle per replica per plan).
    #[must_use]
    pub fn replace_replica(self, index: usize, crash_at: Time, rejoin_at: Time) -> Self {
        assert!(rejoin_at > crash_at, "replacement must boot after the crash");
        assert!(
            self.replica_crash_time(index).is_none(),
            "replica {index} already has a scheduled crash or replacement"
        );
        self.with_fault(Fault::Replace { index, crash_at, rejoin_at })
    }

    /// Sets an initial asynchronous period ending at `gst`.
    #[must_use]
    pub fn with_asynchrony(mut self, gst: Time, extra: Duration) -> Self {
        self.gst = gst;
        self.pre_gst_extra = extra;
        self
    }

    /// Severs replicas `a` and `b` during `[from, until)`.
    #[must_use]
    pub fn partition(self, a: usize, b: usize, from: Time, until: Time) -> Self {
        self.with_fault(Fault::Partition { a, b, from, until })
    }

    /// Adds an already-constructed fault to group 0.
    #[must_use]
    pub fn with_fault(mut self, fault: Fault) -> Self {
        self.faults.push((0, fault));
        self
    }

    /// Adds every fault of `plan` to group `g` instead of group 0 — the one
    /// builder that reaches past the first group. `plan`'s own asynchrony
    /// phase is not read: a deployment has one, and it is this plan's.
    #[must_use]
    pub fn in_group(mut self, g: usize, plan: FailurePlan) -> Self {
        self.faults.extend(plan.faults.into_iter().map(|(_, f)| (g, f)));
        self
    }

    /// Group `g`'s share of the schedule as a plan of its own: its faults,
    /// addressed to group 0, and the deployment-wide asynchrony phase. Each
    /// group's runtime and the auditor read this plan, and the replica
    /// queries below read group 0 of whatever plan they are asked.
    pub fn group(&self, g: usize) -> FailurePlan {
        FailurePlan {
            faults: self.faults.iter().filter(|(fg, _)| *fg == g).map(|(_, f)| (0, *f)).collect(),
            gst: self.gst,
            pre_gst_extra: self.pre_gst_extra,
        }
    }

    /// How many groups the plan reaches: one past the highest group a fault
    /// names, and 1 when none does.
    pub fn groups(&self) -> usize {
        self.faults.iter().map(|(g, _)| g + 1).max().unwrap_or(1)
    }

    /// Every scheduled fault with the group it lands in, in schedule order.
    pub fn faults(&self) -> &[(usize, Fault)] {
        &self.faults
    }

    /// When the plan's last fault takes effect or ends, in any group: a
    /// crash, a Byzantine activation, a replacement's boot, the end of a
    /// partition, or GST, whichever is latest.
    pub fn last_fault_end(&self) -> Time {
        let ends = self.faults.iter().map(|(_, f)| match *f {
            Fault::ReplicaCrash { at, .. } | Fault::MemNodeCrash { at, .. } => at,
            Fault::Byzantine { from, .. } => from,
            Fault::Replace { rejoin_at, .. } => rejoin_at,
            Fault::Partition { until, .. } => until,
        });
        ends.fold(self.gst, Time::max)
    }

    /// Group 0's faults, in schedule order.
    fn local(&self) -> impl DoubleEndedIterator<Item = &Fault> {
        self.faults.iter().filter(|(g, _)| *g == 0).map(|(_, f)| f)
    }

    /// Group 0's partitions as `(a, b, from, until)` tuples.
    pub fn partitions(&self) -> impl Iterator<Item = (usize, usize, Time, Time)> + '_ {
        self.local().filter_map(|f| match f {
            Fault::Partition { a, b, from, until } => Some((*a, *b, *from, *until)),
            _ => None,
        })
    }

    /// The Byzantine mode of group 0's replica `index` active at time `t`,
    /// if any.
    pub fn byzantine_mode(&self, index: usize, t: Time) -> Option<ByzantineMode> {
        self.local().rev().find_map(|f| match f {
            Fault::Byzantine { index: i, mode, from } if *i == index && t >= *from => Some(*mode),
            _ => None,
        })
    }

    /// Crash time of group 0's replica `index`, if scheduled — a
    /// [`Fault::Replace`] schedules a crash exactly like
    /// [`Fault::ReplicaCrash`] does (the rejoin is a separate, later event).
    pub fn replica_crash_time(&self, index: usize) -> Option<Time> {
        self.local().find_map(|f| match f {
            Fault::ReplicaCrash { index: i, at } if *i == index => Some(*at),
            Fault::Replace { index: i, crash_at, .. } if *i == index => Some(*crash_at),
            _ => None,
        })
    }

    /// Group 0's replacements as `(index, crash_at, rejoin_at)` tuples, in
    /// schedule order.
    pub fn replacements(&self) -> impl Iterator<Item = (usize, Time, Time)> + '_ {
        self.local().filter_map(|f| match f {
            Fault::Replace { index, crash_at, rejoin_at } => Some((*index, *crash_at, *rejoin_at)),
            _ => None,
        })
    }

    /// The earliest crash of memory node `index` any group schedules.
    pub fn mem_node_crash_time(&self, index: usize) -> Option<Time> {
        (self.faults.iter())
            .filter_map(|(_, f)| match f {
                Fault::MemNodeCrash { index: i, at } if *i == index => Some(*at),
                _ => None,
            })
            .min()
    }

    /// Number of group 0's replicas that are *concurrently* faulty at the
    /// worst instant of this plan, for sanity-checking against the group's
    /// `f`.
    ///
    /// A plain crash or a Byzantine activation makes its replica faulty
    /// from its scheduled time onward. A [`Fault::Replace`] makes its
    /// replica faulty only during `[crash_at, rejoin_at)` — once the
    /// replacement node boots, the replica id is healthy again, so a later
    /// fault on a *different* replica does not double-count against the
    /// `f` budget. (Historically every faulted index counted forever,
    /// which rejected replace-then-crash schedules that are in fact
    /// `f`-tolerable.)
    pub fn faulty_replica_count(&self) -> usize {
        self.peak_concurrent_faulty(Duration::ZERO)
    }

    /// Like [`FailurePlan::faulty_replica_count`], but a replaced replica
    /// keeps counting as faulty for `recovery_margin` past its rejoin —
    /// the boot instant is not the recovered instant (the join handshake
    /// and state transfer need `f + 1` *live* peers to complete), so
    /// liveness-minded plan generators budget the margin too.
    pub fn peak_concurrent_faulty(&self, recovery_margin: Duration) -> usize {
        // Per replica index: the time intervals during which it is faulty.
        // `None` ends mean "forever".
        let mut per_index: std::collections::BTreeMap<usize, Vec<(Time, Option<Time>)>> =
            std::collections::BTreeMap::new();
        for f in self.local() {
            match f {
                Fault::ReplicaCrash { index, at } => {
                    per_index.entry(*index).or_default().push((*at, None));
                }
                Fault::Byzantine { index, from, .. } => {
                    per_index.entry(*index).or_default().push((*from, None));
                }
                Fault::Replace { index, crash_at, rejoin_at } => {
                    per_index
                        .entry(*index)
                        .or_default()
                        .push((*crash_at, Some(*rejoin_at + recovery_margin)));
                }
                // Partitioned replicas are correct — the network is at
                // fault, and eventual synchrony says it heals. Memory
                // nodes have their own budget (`f_m`).
                Fault::MemNodeCrash { .. } | Fault::Partition { .. } => {}
            }
        }
        // Merge each index's intervals so it is never counted twice, then
        // sweep all indices' disjoint intervals for the peak overlap.
        let mut events: Vec<(Time, bool)> = Vec::new(); // (time, is_start)
        for (_idx, mut ivs) in per_index {
            ivs.sort_by_key(|(s, _)| *s);
            let mut merged: Vec<(Time, Option<Time>)> = Vec::new();
            for (s, e) in ivs {
                match merged.last_mut() {
                    Some((_ms, me)) if me.is_none_or(|t| t >= s) => {
                        // Overlaps (or an open interval swallows the rest).
                        if me.is_some() {
                            *me = match (*me, e) {
                                (Some(a), Some(b)) => Some(a.max(b)),
                                _ => None,
                            };
                        }
                    }
                    _ => merged.push((s, e)),
                }
            }
            for (s, e) in merged {
                events.push((s, true));
                if let Some(e) = e {
                    events.push((e, false));
                }
            }
        }
        // Starts sort before ends at the same instant: the boundary moment
        // counts both parties, the conservative reading.
        events.sort_by_key(|(t, is_start)| (*t, !*is_start));
        let (mut cur, mut peak) = (0usize, 0usize);
        for (_t, is_start) in events {
            if is_start {
                cur += 1;
                peak = peak.max(cur);
            } else {
                cur -= 1;
            }
        }
        peak
    }

    /// Number of distinct memory nodes this plan crashes, whichever groups
    /// name them, for sanity-checking against the deployment's `f_m`.
    pub fn faulty_mem_node_count(&self) -> usize {
        let mut idx: Vec<usize> = self
            .faults
            .iter()
            .filter_map(|(_, f)| match f {
                Fault::MemNodeCrash { index, .. } => Some(*index),
                _ => None,
            })
            .collect();
        idx.sort_unstable();
        idx.dedup();
        idx.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> Time {
        Time::ZERO + Duration::from_micros(us)
    }

    #[test]
    fn empty_plan() {
        let p = FailurePlan::none();
        assert!(p.faults().is_empty());
        assert_eq!(p.faulty_replica_count(), 0);
        assert_eq!(p.byzantine_mode(0, t(100)), None);
    }

    #[test]
    fn byzantine_activation_time() {
        let p = FailurePlan::none().byzantine(1, ByzantineMode::EquivocateProposals, t(50));
        assert_eq!(p.byzantine_mode(1, t(49)), None);
        assert_eq!(p.byzantine_mode(1, t(50)), Some(ByzantineMode::EquivocateProposals));
        assert_eq!(p.byzantine_mode(0, t(50)), None);
    }

    #[test]
    fn latest_byzantine_mode_wins() {
        let p = FailurePlan::none().byzantine(0, ByzantineMode::Silent, t(10)).byzantine(
            0,
            ByzantineMode::CensorRequests,
            t(20),
        );
        assert_eq!(p.byzantine_mode(0, t(15)), Some(ByzantineMode::Silent));
        assert_eq!(p.byzantine_mode(0, t(25)), Some(ByzantineMode::CensorRequests));
    }

    #[test]
    fn crash_lookup() {
        let p = FailurePlan::none().crash_replica(2, t(5)).crash_mem_node(0, t(7));
        assert_eq!(p.replica_crash_time(2), Some(t(5)));
        assert_eq!(p.replica_crash_time(0), None);
        assert_eq!(p.mem_node_crash_time(0), Some(t(7)));
        assert_eq!(p.faulty_replica_count(), 1);
    }

    #[test]
    fn faulty_count_dedups() {
        let p = FailurePlan::none()
            .crash_replica(1, t(5))
            .byzantine(1, ByzantineMode::Silent, t(1))
            .byzantine(2, ByzantineMode::Laggard, t(1));
        assert_eq!(p.faulty_replica_count(), 2);
    }

    #[test]
    fn partitions_are_not_replica_faults() {
        let p = FailurePlan::none().partition(0, 2, t(10), t(50));
        assert_eq!(p.faulty_replica_count(), 0);
        let parts: Vec<_> = p.partitions().collect();
        assert_eq!(parts, vec![(0, 2, t(10), t(50))]);
    }

    #[test]
    fn replacement_schedules_crash_and_rejoin() {
        let p = FailurePlan::none().replace_replica(1, t(100), t(400));
        assert_eq!(p.replica_crash_time(1), Some(t(100)));
        assert_eq!(p.replacements().collect::<Vec<_>>(), vec![(1, t(100), t(400))]);
        assert_eq!(p.faulty_replica_count(), 1);
    }

    #[test]
    #[should_panic(expected = "boot after the crash")]
    fn replacement_must_follow_crash() {
        let _ = FailurePlan::none().replace_replica(0, t(10), t(10));
    }

    #[test]
    #[should_panic(expected = "already has a scheduled crash")]
    fn one_lifecycle_per_replica() {
        let _ = FailurePlan::none().crash_replica(2, t(5)).replace_replica(2, t(10), t(20));
    }

    #[test]
    fn replaced_then_healthy_is_not_double_counted() {
        // Replica 1 is faulty only during [100, 400); replica 2 crashes at
        // 900, well after the replacement healed. At no instant are two
        // replicas faulty, so the plan fits an f = 1 budget.
        let p = FailurePlan::none().replace_replica(1, t(100), t(400)).crash_replica(2, t(900));
        assert_eq!(p.faulty_replica_count(), 1);
        // The same schedule with an overlapping crash does count 2.
        let q = FailurePlan::none().replace_replica(1, t(100), t(400)).crash_replica(2, t(250));
        assert_eq!(q.faulty_replica_count(), 2);
        // A crash landing exactly at the rejoin instant is counted as
        // concurrent (conservative boundary reading).
        let r = FailurePlan::none().replace_replica(1, t(100), t(400)).crash_replica(2, t(400));
        assert_eq!(r.faulty_replica_count(), 2);
    }

    #[test]
    fn recovery_margin_extends_the_faulty_interval() {
        let p = FailurePlan::none().replace_replica(1, t(100), t(400)).crash_replica(2, t(600));
        assert_eq!(p.peak_concurrent_faulty(Duration::ZERO), 1);
        // With a 300 µs recovery margin the replacement still counts as
        // faulty at 600, overlapping the crash.
        assert_eq!(p.peak_concurrent_faulty(Duration::from_micros(300)), 2);
    }

    #[test]
    fn byzantine_and_replace_on_one_index_count_once() {
        // Pathological overlap on one index must never count it twice.
        let p = FailurePlan::none().replace_replica(0, t(100), t(200)).byzantine(
            0,
            ByzantineMode::Silent,
            t(150),
        );
        assert_eq!(p.faulty_replica_count(), 1);
    }

    #[test]
    fn mem_node_budget_is_separate() {
        let p = FailurePlan::none().crash_mem_node(0, t(5)).crash_mem_node(2, t(9));
        assert_eq!(p.faulty_replica_count(), 0);
        assert_eq!(p.faulty_mem_node_count(), 2);
        // Crashing the same node twice is one faulty node.
        let q = FailurePlan::none().crash_mem_node(1, t(5)).crash_mem_node(1, t(9));
        assert_eq!(q.faulty_mem_node_count(), 1);
    }

    #[test]
    fn in_group_addresses_another_group() {
        let p = FailurePlan::none()
            .crash_replica(0, t(5))
            .in_group(2, FailurePlan::none().crash_replica(1, t(7)).crash_mem_node(0, t(3)))
            .crash_mem_node(0, t(9))
            .with_asynchrony(t(100), Duration::from_micros(10));
        assert_eq!(p.groups(), 3);
        assert_eq!(FailurePlan::none().groups(), 1);
        // Replica queries read group 0; `group(g)` is group g's own plan,
        // asynchrony included.
        assert_eq!(p.replica_crash_time(1), None);
        let g2 = p.group(2);
        assert_eq!(g2.replica_crash_time(1), Some(t(7)));
        assert_eq!(g2.replica_crash_time(0), None);
        assert_eq!((g2.gst, g2.pre_gst_extra), (t(100), Duration::from_micros(10)));
        assert!(p.group(1).faults().is_empty());
        // Memory nodes are shared: the earliest crash any group names.
        assert_eq!(p.mem_node_crash_time(0), Some(t(3)));
        assert_eq!(p.faulty_mem_node_count(), 1);
    }

    #[test]
    fn asynchrony_phase() {
        let p = FailurePlan::none().with_asynchrony(t(1000), Duration::from_micros(100));
        assert_eq!(p.gst, t(1000));
        assert_eq!(p.pre_gst_extra, Duration::from_micros(100));
    }
}
