//! Runs repetitions of the chosen workloads round-robin, so that a slow phase
//! of the host hits all of them alike, and applies the correctness gates.

use std::time::Instant;

use crate::metrics::Outcome;
use crate::spans::Spans;
use crate::workloads::{run_sim, run_wall, Clock, SimExact, SimRep, WallRep, Workload};

/// Fewest measured repetitions of a workload, however short the run.
const MIN_REPS: usize = 3;
/// Measured repetitions of the smoke run.
const QUICK_REPS: usize = 2;

/// What to run.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The workloads, in reporting order.
    pub workloads: Vec<&'static Workload>,
    /// Seed of the simulator and of the request stream.
    pub seed: u64,
    /// Host seconds of measured repetitions per workload.
    pub seconds: f64,
    /// Whether every second repetition records spans.
    pub trace: bool,
    /// Tiny request counts and two repetitions: the smoke run.
    pub quick: bool,
}

struct Lane {
    outcome: Outcome,
    /// The warm-up repetition's exact figures, which every later one must equal.
    reference: Option<SimExact>,
    /// Repetitions started, the warm-up one included.
    rounds: usize,
    spent_s: f64,
}

impl Lane {
    fn measured(&self) -> usize {
        self.rounds.saturating_sub(1)
    }

    fn done(&self, plan: &Plan) -> bool {
        if plan.quick {
            self.measured() >= QUICK_REPS
        } else {
            self.measured() >= MIN_REPS && self.spent_s >= plan.seconds
        }
    }

    /// Counts a repetition's requests, and as failed those that did not
    /// complete or whose repetition failed a gate.
    fn account(&mut self, plan: &Plan, completed: u64, violations: &[String]) {
        let (requests, warmup) = self.outcome.workload.sized(plan.quick);
        let total = requests + warmup;
        self.outcome.attempted += total;
        if !violations.is_empty() {
            self.outcome.failed += total;
        } else if completed < total {
            self.outcome.failed += total - completed;
            self.outcome
                .violations
                .push(format!("repetition {}: completed {completed} of {total}", self.rounds));
        }
        let round = self.rounds;
        self.outcome
            .violations
            .extend(violations.iter().map(|v| format!("repetition {round}: {v}")));
    }

    fn sim_rep(&mut self, plan: &Plan, spans: &mut Spans) -> SimRep {
        let mut rep = run_sim(self.outcome.workload, plan.seed, plan.quick, spans);
        match &self.reference {
            None => self.reference = Some(rep.exact.clone()),
            Some(first) if *first != rep.exact => rep.violations.push(
                "virtual metrics, counters or digests differ from the first repetition".into(),
            ),
            Some(_) => {}
        }
        self.account(plan, rep.exact.completed, &rep.violations);
        rep
    }

    fn wall_rep(&mut self, plan: &Plan, spans: &mut Spans) -> WallRep {
        let rep = run_wall(self.outcome.workload, plan.seed, plan.quick, spans);
        self.account(plan, rep.completed, &rep.violations);
        rep
    }

    /// One repetition: the first is the discarded warm-up, and of the rest
    /// every second one records spans when tracing.
    fn step(&mut self, plan: &Plan, spans: &mut Spans) {
        let warmup = self.rounds == 0;
        let traced = plan.trace && !warmup && self.rounds.is_multiple_of(2);
        spans.set_enabled(traced);
        spans.set_workload(self.outcome.workload.name);
        let started = Instant::now();
        let span = spans.enter(&format!("rep:{}", self.rounds));
        match self.outcome.workload.clock {
            Clock::Virtual => {
                let rep = self.sim_rep(plan, spans);
                if !warmup {
                    self.outcome.sim.push(rep);
                    self.outcome.traced.push(traced);
                }
            }
            Clock::Wall => {
                let rep = self.wall_rep(plan, spans);
                if !warmup {
                    self.outcome.wall.push(rep);
                    self.outcome.traced.push(traced);
                }
                // The twin on the model repeats exactly: twice is enough to
                // show it.
                if self.rounds < 2 {
                    let twin = self.sim_rep(plan, spans);
                    if !warmup {
                        self.outcome.sim.push(twin);
                    }
                }
            }
        }
        spans.exit(span);
        spans.set_enabled(false);
        if !warmup {
            self.spent_s += started.elapsed().as_secs_f64();
        }
        self.rounds += 1;
    }
}

/// Runs the plan and returns one outcome per workload, in plan order.
pub fn run_set(plan: &Plan, spans: &mut Spans) -> Vec<Outcome> {
    let mut lanes: Vec<Lane> = plan
        .workloads
        .iter()
        .map(|&workload| Lane {
            outcome: Outcome {
                workload,
                sim: Vec::new(),
                wall: Vec::new(),
                traced: Vec::new(),
                attempted: 0,
                failed: 0,
                violations: Vec::new(),
            },
            reference: None,
            rounds: 0,
            spent_s: 0.0,
        })
        .collect();
    while lanes.iter().any(|l| !l.done(plan)) {
        for lane in lanes.iter_mut().filter(|l| !l.done(plan)) {
            lane.step(plan, spans);
        }
    }
    lanes.into_iter().map(|l| l.outcome).collect()
}
