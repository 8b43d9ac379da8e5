//! Exhaustive exploration of a program's state space.
//!
//! The explorer enumerates every reachable canonical state of a
//! [`Program`] by depth-first search over [`State::choices`], deduping
//! on [`State::fingerprint`]. Collapsing the diamonds that independent
//! transitions generate is the partial-order reduction doing the heavy
//! lifting here: two independent actions fired in either order land in
//! the same canonical state, so only one interleaving's *suffix* is
//! explored (see DESIGN.md for why the fingerprint's exclusions keep
//! this sound).
//!
//! Exploration is deterministic and `--jobs`-independent: a serial
//! breadth-first phase grows a frontier of at most [`FRONTIER_TARGET`]
//! states, each frontier state becomes one cell of a
//! [`sbrp_harness::sweep`] run, and cell results are merged in cell
//! order. The same cell decomposition is used at every job count, so
//! `jobs = 1` and `jobs = N` produce byte-identical reports.

use crate::sig::ExecutionSig;
use crate::spec::{
    Choice, Evidence, Invariant, McReport, ObsCond, Program, Spec, Violation, ViolationKind,
};
use crate::state::State;
use sbrp_core::fingerprint::Fingerprint;
use sbrp_harness::sweep::{sweep, CellOutcome, SweepCell, SweepOpts};
use sbrp_isa::BlockIndex;
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Serial BFS stops (and the parallel phase starts) once the frontier
/// holds this many unexpanded states. Fixed — NOT derived from the job
/// count — so the cell decomposition, and therefore the merged report,
/// is identical at every `--jobs` value.
const FRONTIER_TARGET: usize = 64;

/// A set of state digests. The digests are [`Fingerprint`] outputs,
/// already mixed, so the set keys its table with the digest itself
/// instead of re-hashing it.
type DigestSet = HashSet<u64, BuildHasherDefault<DigestHasher>>;

/// The identity hasher behind [`DigestSet`]; it takes only `u64` keys.
#[derive(Default)]
struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a DigestSet holds only u64 digests")
    }

    fn write_u64(&mut self, digest: u64) {
        self.0 = digest;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Exploration limits and parallelism.
#[derive(Clone, Copy, Debug)]
pub struct McOpts {
    /// Worker threads for the parallel frontier (`0` = hardware
    /// parallelism, `1` = serial). The report is identical at every
    /// value.
    pub jobs: usize,
    /// Safety valve: panic after this many distinct states (per phase /
    /// per cell) rather than exploring forever.
    pub max_states: u64,
}

impl Default for McOpts {
    fn default() -> Self {
        McOpts {
            jobs: 0,
            max_states: 10_000_000,
        }
    }
}

/// One exploration phase's accumulated result (serial prefix or one
/// cell); merged into the final [`McReport`] in deterministic order.
#[derive(Clone)]
struct Acc {
    states: u64,
    transitions: u64,
    dedup_hits: u64,
    complete: u64,
    violations: Vec<Violation>,
    reached: Vec<Option<Vec<Choice>>>,
    evidence: Evidence,
    signatures: BTreeSet<ExecutionSig>,
}

impl Acc {
    fn new(spec: &Spec) -> Acc {
        Acc {
            states: 0,
            transitions: 0,
            dedup_hits: 0,
            complete: 0,
            violations: Vec::new(),
            reached: vec![None; spec.reach.len()],
            evidence: Evidence::new(),
            signatures: BTreeSet::new(),
        }
    }

    fn merge(&mut self, other: &Acc) {
        self.states += other.states;
        self.transitions += other.transitions;
        self.dedup_hits += other.dedup_hits;
        self.complete += other.complete;
        self.violations.extend(other.violations.iter().cloned());
        for (mine, theirs) in self.reached.iter_mut().zip(&other.reached) {
            if mine.is_none() {
                mine.clone_from(theirs);
            }
        }
        self.evidence.merge(&other.evidence);
        self.signatures.extend(other.signatures.iter().cloned());
    }
}

/// Runs the spec-level checks that apply to a state *as such* (apply-time
/// checks — crash cuts, dFence completion — live in [`State::apply`]):
/// invariants in every state, PMO expectations in complete states, and
/// deadlock where nothing is enabled. `choices_empty` is passed in so
/// callers that already enumerated choices don't enumerate twice.
fn static_checks(
    st: &State,
    program: &Program,
    spec: &Spec,
    choices_empty: bool,
    out: &mut Vec<Violation>,
) {
    for inv in &spec.invariants {
        let broken = match *inv {
            Invariant::AddrImplies {
                if_durable,
                then_durable,
            } => {
                st.durable_addrs().contains(&if_durable)
                    && !st.durable_addrs().contains(&then_durable)
            }
            Invariant::DurableAtExit { addr } => {
                st.all_done() && !st.durable_addrs().contains(&addr)
            }
            Invariant::NoPending => !st.pending.is_empty(),
        };
        if broken {
            out.push(Violation {
                kind: match inv {
                    Invariant::AddrImplies { .. } => ViolationKind::AddrImplies,
                    Invariant::DurableAtExit { .. } => ViolationKind::DurableAtExit,
                    Invariant::NoPending => ViolationKind::NoPending,
                },
                message: format!("invariant {inv:?} broken"),
                schedule: st.schedule().to_vec(),
            });
        }
    }
    if choices_empty && !st.complete() {
        out.push(Violation {
            kind: ViolationKind::Deadlock,
            message: "no transition enabled in an incomplete state".into(),
            schedule: st.schedule().to_vec(),
        });
    }
    if st.complete() && !spec.expectations.is_empty() {
        let graph = st.graph();
        for e in &spec.expectations {
            let applies = match e.when {
                ObsCond::Always => true,
                ObsCond::Observed => st.observations() > 0,
                ObsCond::Unobserved => st.observations() == 0,
            };
            if !applies {
                continue;
            }
            let before = st.persist_event(e.before.thread, e.before.nth);
            let after = st.persist_event(e.after.thread, e.after.nth);
            match (before, after) {
                (Some(b), Some(a)) => {
                    let holds = graph.pmo_holds(b, a);
                    if holds != e.ordered {
                        out.push(Violation {
                            kind: ViolationKind::Expectation,
                            message: format!(
                                "expected {} →pmo {} to {}, but it does {}",
                                b,
                                a,
                                if e.ordered { "hold" } else { "not hold" },
                                if holds { "hold" } else { "not hold" },
                            ),
                            schedule: st.schedule().to_vec(),
                        });
                    }
                }
                _ => out.push(Violation {
                    kind: ViolationKind::Expectation,
                    message: format!(
                        "expectation references persist #{} of {} / #{} of {}, \
                         not issued in this execution",
                        e.before.nth, e.before.thread, e.after.nth, e.after.thread,
                    ),
                    schedule: st.schedule().to_vec(),
                }),
            }
        }
    }
    let _ = program;
}

/// Bookkeeping for a newly-discovered state: spec checks, reach targets,
/// complete-execution counters and evidence.
fn note_state(st: &State, program: &Program, spec: &Spec, choices_empty: bool, acc: &mut Acc) {
    acc.states += 1;
    static_checks(st, program, spec, choices_empty, &mut acc.violations);
    for (i, r) in spec.reach.iter().enumerate() {
        if acc.reached[i].is_none()
            && st.durable_addrs().contains(&r.durable)
            && !st.durable_addrs().contains(&r.not_durable)
        {
            acc.reached[i] = Some(st.schedule().to_vec());
        }
    }
    if st.complete() {
        acc.complete += 1;
        let d = st.warps[0].dfences_fired;
        acc.evidence.min_dfences = acc.evidence.min_dfences.min(d);
        acc.evidence.max_dfences = acc.evidence.max_dfences.max(d);
        acc.signatures.insert(ExecutionSig::from_graph(
            &st.graph(),
            st.durable_addrs().iter().copied(),
        ));
    }
}

/// Depth-first exhaustion from `start`, deduping against `base` (states
/// the serial phase already visited) plus a local visited set. `start`
/// itself has already been noted by the caller.
fn explore_from(
    start: &State,
    program: &Program,
    spec: &Spec,
    bidx: &BlockIndex,
    base: &DigestSet,
    max_states: u64,
) -> Acc {
    let mut acc = Acc::new(spec);
    let mut visited = DigestSet::default();
    let mut stack = vec![start.clone()];
    while let Some(st) = stack.pop() {
        let choices = st.choices(program);
        for choice in choices {
            let mut next = st.clone();
            next.apply(program, choice, &mut acc.evidence, &mut acc.violations);
            acc.transitions += 1;
            let fp = next.fingerprint(program, bidx);
            if base.contains(&fp) || !visited.insert(fp) {
                acc.dedup_hits += 1;
                continue;
            }
            let empty = next.choices(program).is_empty();
            note_state(&next, program, spec, empty, &mut acc);
            assert!(
                acc.states <= max_states,
                "mc: exceeded {max_states} states exploring `{}`; raise McOpts::max_states",
                program.kernel.name(),
            );
            stack.push(next);
        }
    }
    acc
}

/// One frontier state's exhaustive sub-exploration, run on the harness
/// worker pool. Cells never cache (a run is cheaper than serializing a
/// state) and carry everything they need by value.
#[derive(Clone)]
struct McCell {
    idx: usize,
    program: Program,
    spec: Spec,
    start: State,
    start_fp: u64,
    base: Arc<DigestSet>,
    max_states: u64,
}

impl SweepCell for McCell {
    type Out = Acc;

    fn name(&self) -> String {
        format!("{}/cell{:02}", self.program.kernel.name(), self.idx)
    }

    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_str(self.program.kernel.name());
        fp.write_u64(self.idx as u64);
        fp.write_u64(self.start_fp);
        fp.finish()
    }

    fn run(&self) -> Acc {
        let bidx = self.program.kernel.block_index();
        explore_from(
            &self.start,
            &self.program,
            &self.spec,
            &bidx,
            &self.base,
            self.max_states,
        )
    }
}

/// Exhausts `program`'s state space, checking `spec` plus the built-in
/// model checks over every reachable state, and returns the verdict.
///
/// Crash-cut coverage falls out of reachability: every reachable state
/// *is* a crash cut (the machine may lose power anywhere), and every
/// durability-set change re-validates downward closure, so "all states
/// visited" subsumes "all crash cuts checked".
#[must_use]
pub fn explore(program: &Program, spec: &Spec, opts: &McOpts) -> McReport {
    let bidx = program.kernel.block_index();
    let mut acc = Acc::new(spec);
    let mut visited = DigestSet::default();
    let mut queue: VecDeque<State> = VecDeque::new();

    let init = State::initial(program);
    visited.insert(init.fingerprint(program, &bidx));
    let empty = init.choices(program).is_empty();
    note_state(&init, program, spec, empty, &mut acc);
    queue.push_back(init);

    // Serial BFS until the frontier is wide enough to parallelize.
    while queue.len() < FRONTIER_TARGET {
        let Some(st) = queue.pop_front() else {
            break;
        };
        for choice in st.choices(program) {
            let mut next = st.clone();
            next.apply(program, choice, &mut acc.evidence, &mut acc.violations);
            acc.transitions += 1;
            let fp = next.fingerprint(program, &bidx);
            if !visited.insert(fp) {
                acc.dedup_hits += 1;
                continue;
            }
            let empty = next.choices(program).is_empty();
            note_state(&next, program, spec, empty, &mut acc);
            assert!(
                acc.states <= opts.max_states,
                "mc: exceeded {} states exploring `{}`; raise McOpts::max_states",
                opts.max_states,
                program.kernel.name(),
            );
            queue.push_back(next);
        }
    }

    if !queue.is_empty() {
        let base = Arc::new(visited);
        let cells: Vec<McCell> = queue
            .into_iter()
            .enumerate()
            .map(|(idx, start)| {
                let start_fp = start.fingerprint(program, &bidx);
                McCell {
                    idx,
                    program: program.clone(),
                    spec: spec.clone(),
                    start,
                    start_fp,
                    base: Arc::clone(&base),
                    max_states: opts.max_states,
                }
            })
            .collect();
        let sweep_opts = SweepOpts {
            jobs: opts.jobs,
            ..SweepOpts::serial()
        };
        let (outcomes, _) = sweep(&sweep_opts, &cells);
        for (i, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                CellOutcome::Ok(cell_acc) => acc.merge(&cell_acc),
                CellOutcome::Err { message, .. } | CellOutcome::Panicked { message, .. } => {
                    panic!("mc cell {i} did not complete: {message}")
                }
                CellOutcome::DeadlineExceeded { limit_millis, .. } => {
                    panic!("mc cell {i} exceeded its {limit_millis} ms deadline")
                }
            }
        }
    }

    McReport {
        states: acc.states,
        transitions: acc.transitions,
        dedup_hits: acc.dedup_hits,
        complete_executions: acc.complete,
        violations: acc.violations,
        reached: acc.reached,
        evidence: acc.evidence,
        signatures: acc.signatures,
    }
}

/// Breadth-first search from the initial state for the *shortest*
/// schedule reaching a state on which `stop` holds. `stop` sees each
/// state with the violations its transition raised (none for the
/// initial state), and it is asked even for already-visited states: a
/// different predecessor can make a different transition into them.
/// Choices are tried in their canonical [`State::choices`] order, so
/// the result is also lexicographically least among the shortest.
/// `search` names the search in the panic past `opts.max_states`.
fn shortest_schedule(
    program: &Program,
    opts: &McOpts,
    search: &str,
    mut stop: impl FnMut(&State, Vec<Violation>) -> bool,
) -> Option<Vec<Choice>> {
    let bidx = program.kernel.block_index();
    let init = State::initial(program);
    if stop(&init, Vec::new()) {
        return Some(Vec::new());
    }
    let mut visited = DigestSet::default();
    visited.insert(init.fingerprint(program, &bidx));
    let mut queue = VecDeque::from([init]);
    let mut states: u64 = 0;
    while let Some(st) = queue.pop_front() {
        for choice in st.choices(program) {
            let mut next = st.clone();
            let mut vios = Vec::new();
            next.apply(program, choice, &mut Evidence::new(), &mut vios);
            if stop(&next, vios) {
                return Some(next.schedule().to_vec());
            }
            if visited.insert(next.fingerprint(program, &bidx)) {
                states += 1;
                assert!(
                    states <= opts.max_states,
                    "mc: exceeded {} states {search} `{}`",
                    opts.max_states,
                    program.kernel.name(),
                );
                queue.push_back(next);
            }
        }
    }
    None
}

/// Breadth-first search for the *shortest* schedule producing a
/// violation of `kind` (the lexicographically least among the
/// shortest). Serial and deterministic by construction; returns `None`
/// if no schedule up to `opts.max_states` states violates.
#[must_use]
pub fn shrink(
    program: &Program,
    spec: &Spec,
    kind: ViolationKind,
    opts: &McOpts,
) -> Option<Vec<Choice>> {
    shortest_schedule(program, opts, "shrinking", |st, mut vios| {
        // Apply-time violations belong to the *transition*; the static
        // checks add the state's own.
        let empty = st.choices(program).is_empty();
        static_checks(st, program, spec, empty, &mut vios);
        vios.iter().any(|v| v.kind == kind)
    })
}

/// The state predicate a lint hazard names: one persist durable while
/// another is lost. Since every reachable state is a crash cut, a
/// schedule reaching such a state *is* the crash scenario the lint
/// diagnostic warns about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WitnessTarget {
    /// `durable`'s `(block, tid_in_block, nth)` persist has drained
    /// while `lost`'s has not (it may still be buffered, or not yet
    /// issued at all — a crash loses it either way).
    Marks {
        /// Mark of the persist that survived.
        durable: (u32, u32, u32),
        /// Mark of the persist a crash would lose.
        lost: (u32, u32, u32),
    },
    /// Address-granular form, for hazards whose persists are not
    /// statically definite marks.
    Addrs {
        /// Address with a durable write.
        durable: u64,
        /// Address with no durable write.
        lost: u64,
    },
}

impl WitnessTarget {
    fn holds(self, st: &State) -> bool {
        match self {
            WitnessTarget::Marks { durable, lost } => {
                st.mark_durable(durable) && !st.mark_durable(lost)
            }
            WitnessTarget::Addrs { durable, lost } => {
                st.durable_addrs().contains(&durable) && !st.durable_addrs().contains(&lost)
            }
        }
    }
}

/// Breadth-first search for the *shortest* schedule reaching a state
/// where `target` holds, or `None` when no reachable state matches
/// (the hazard the lint claimed is spurious under this model).
///
/// Serial like [`shrink`], and for the same reason: shortest-path
/// structure matters more than throughput at witness sizes.
#[must_use]
pub fn witness_reach(
    program: &Program,
    target: WitnessTarget,
    opts: &McOpts,
) -> Option<Vec<Choice>> {
    shortest_schedule(program, opts, "searching for a witness in", |st, _| {
        target.holds(st)
    })
}

/// Replays `schedule` from the initial state, returning the resulting
/// state and every violation the built-in and spec-level checks raise
/// along the way — the reproduction tool for a counterexample from
/// [`explore`] or [`shrink`].
///
/// # Panics
/// Panics if a choice in `schedule` is not enabled when its turn comes.
#[must_use]
pub fn replay(program: &Program, spec: &Spec, schedule: &[Choice]) -> (State, Vec<Violation>) {
    let mut st = State::initial(program);
    let mut vios = Vec::new();
    let mut ev = Evidence::new();
    static_checks(
        &st,
        program,
        spec,
        st.choices(program).is_empty(),
        &mut vios,
    );
    for (i, &choice) in schedule.iter().enumerate() {
        assert!(
            st.choices(program).contains(&choice),
            "replay: step {i} ({choice}) is not enabled",
        );
        st.apply(program, choice, &mut ev, &mut vios);
        static_checks(
            &st,
            program,
            spec,
            st.choices(program).is_empty(),
            &mut vios,
        );
    }
    (st, vios)
}

/// Runs `program` to completion under the *canonical schedule*:
/// producer-first (the lowest-index runnable warp that is enabled),
/// falling back to the lowest drainable line, then to the lowest
/// enabled warp. Deterministic; used to derive reference traces for
/// litmus shapes from their kernels.
///
/// # Panics
/// Panics if the canonical schedule deadlocks (a well-formed litmus
/// kernel never does: consumers spin until producers publish).
#[must_use]
pub fn canonical_run(program: &Program) -> State {
    let mut st = State::initial(program);
    let mut ev = Evidence::new();
    let mut vios = Vec::new();
    while !st.complete() {
        let choices = st.choices(program);
        assert!(
            !choices.is_empty(),
            "canonical run of `{}` deadlocked after {} steps",
            program.kernel.name(),
            st.schedule().len(),
        );
        // Lowest-index warp that still has work, if enabled right now.
        let preferred = choices
            .iter()
            .copied()
            .find(|c| matches!(c, Choice::Warp(_)))
            .filter(|&c| {
                let first_runnable = (0..st.warps.len() as u32)
                    .find(|&w| !st.warps[w as usize].done && !st.warps[w as usize].arrived);
                matches!((c, first_runnable), (Choice::Warp(w), Some(f)) if w == f)
            });
        let drain = choices
            .iter()
            .copied()
            .find(|c| matches!(c, Choice::Drain(_)));
        let pick = preferred.or(drain).unwrap_or(choices[0]);
        st.apply(program, pick, &mut ev, &mut vios);
    }
    st
}
