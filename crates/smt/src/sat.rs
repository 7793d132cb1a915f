//! A CDCL SAT solver: two-watched-literal propagation, first-UIP clause
//! learning, VSIDS-style variable activities, phase saving, configurable
//! (Luby or geometric) restarts and LBD-based learned-clause database
//! management.
//!
//! The solver is the Boolean half of the online DPLL(T) engine in
//! [`crate::incremental`]: [`SatSolver::solve_under_theory`] calls a
//! [`Theory`] hook at every propagation fixpoint with the trail and the
//! length of its prefix that is unchanged since the previous call, and once
//! more on every complete assignment. A theory conflict is a clause whose
//! literals are all false; it goes through first-UIP analysis and a backjump
//! exactly like a Boolean conflict, except that a clause with a single
//! literal at its highest decision level asserts that literal directly.
//!
//! # Learned-clause deletion and soundness
//!
//! Clauses learned by first-UIP analysis are resolvents of input clauses,
//! learned clauses and theory conflict clauses (valid theory lemmas), so they
//! are logically implied and *deleting* them can never change a verdict — it
//! only costs re-derivation (the theory hook re-detects a theory conflict the
//! moment its literals are assigned again). Two clause categories are
//! therefore never deleted by `reduce_db`:
//!
//! * **input clauses** (including the activation-literal-guarded scope
//!   clauses of [`crate::incremental`]) — they define the problem;
//! * **locked clauses** — the current reason of an assigned literal — and
//!   **glue clauses** (LBD ≤ [`ClauseDbOptions::glue_lbd`]), following the
//!   Glucose heuristic that low-LBD clauses are worth keeping forever.
//!
//! Deletion is tombstone-based: a deleted clause keeps its index (indices are
//! used as `reason` handles and in watch lists) but drops its literals; watch
//! lists shed dead indices lazily during propagation.

use std::fmt;

/// The restart schedule of the CDCL search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RestartPolicy {
    /// Restart after `unit * luby(i)` conflicts, where `luby` is the Luby
    /// sequence 1,1,2,1,1,2,4,… — the de-facto standard schedule: frequent
    /// cheap restarts interleaved with exponentially growing deep dives.
    Luby {
        /// Base number of conflicts multiplied by the Luby sequence.
        unit: u64,
    },
    /// The legacy schedule: first restart after `start` conflicts, each
    /// subsequent limit 1.5× the previous.
    Geometric {
        /// Conflicts before the first restart.
        start: u64,
    },
}

/// Learned-clause database management knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClauseDbOptions {
    /// Whether periodic deletion runs at all (off reproduces the legacy
    /// keep-everything behaviour).
    pub enabled: bool,
    /// Conflicts before the first `reduce_db` run.
    pub first_reduce: u64,
    /// How much the reduction interval grows after every reduction.
    pub reduce_inc: u64,
    /// Clauses with an LBD at or below this are *glue* and never deleted.
    pub glue_lbd: u32,
}

/// Tuning options of the SAT core (restart schedule + clause database).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SatOptions {
    /// Restart schedule.
    pub restart: RestartPolicy,
    /// Learned-clause database management.
    pub clause_db: ClauseDbOptions,
}

impl Default for SatOptions {
    /// The tuned profile: Luby restarts and LBD-based clause deletion.
    fn default() -> SatOptions {
        SatOptions {
            restart: RestartPolicy::Luby { unit: 100 },
            clause_db: ClauseDbOptions {
                enabled: true,
                first_reduce: 2000,
                reduce_inc: 300,
                glue_lbd: 2,
            },
        }
    }
}

impl SatOptions {
    /// The pre-tuning behaviour: geometric restarts, no clause deletion.
    pub fn legacy() -> SatOptions {
        SatOptions {
            restart: RestartPolicy::Geometric { start: 100 },
            clause_db: ClauseDbOptions {
                enabled: false,
                first_reduce: u64::MAX,
                reduce_inc: 0,
                glue_lbd: 2,
            },
        }
    }
}

/// The Luby sequence 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,… (1-indexed).
fn luby(i: u64) -> u64 {
    // Find the smallest k with 2^k - 1 >= i; i at the end of such a block is
    // 2^(k-1), anywhere else recurse into the repeated prefix.
    let mut x = i;
    loop {
        let mut k = 1u32;
        while (1u64 << k) - 1 < x {
            k += 1;
        }
        if (1u64 << k) - 1 == x {
            return 1u64 << (k - 1);
        }
        x -= (1u64 << (k - 1)) - 1;
    }
}

/// A propositional variable index.
pub type Var = u32;

/// A literal: a variable together with a polarity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Creates a literal for `var`, positive if `positive` is true.
    pub fn new(var: Var, positive: bool) -> Lit {
        Lit(var << 1 | (if positive { 0 } else { 1 }))
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        self.0 >> 1
    }

    /// True if this is the positive literal of its variable.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "v{}", self.var())
        } else {
            write!(f, "~v{}", self.var())
        }
    }
}

/// Result of a (propositional or full SMT) satisfiability check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// A satisfying assignment / model was found.
    Sat,
    /// The problem is unsatisfiable.
    Unsat,
    /// The solver gave up (resource limit, incomplete fragment).
    Unknown,
}

/// A theory's answer to one [`Theory::check`] call.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TheoryVerdict {
    /// The assigned literals are consistent in the theory.
    Consistent,
    /// A theory conflict: a clause whose literals are all false under the
    /// current assignment (the negation of an inconsistent literal subset).
    Conflict(Vec<Lit>),
    /// The theory gave up (resource limit); the search stops with
    /// [`SatResult::Unknown`].
    Unknown,
}

/// The theory hook of [`SatSolver::solve_under_theory`].
pub trait Theory {
    /// Checks the assignment `trail` (every assigned literal, in assignment
    /// order). `trail[..stable]` is unchanged since the previous call of this
    /// search; everything after it is new. `complete` is false at a
    /// propagation fixpoint with variables still unassigned, and true on a
    /// complete assignment, where a `Consistent` answer ends the search.
    fn check(&mut self, trail: &[Lit], stable: usize, complete: bool) -> TheoryVerdict;
}

/// The empty theory: every assignment is consistent (plain SAT solving).
struct NoTheory;

impl Theory for NoTheory {
    fn check(&mut self, _: &[Lit], _: usize, _: bool) -> TheoryVerdict {
        TheoryVerdict::Consistent
    }
}

/// The conflict [`SatSolver::analyze`] starts from.
#[derive(Clone, Copy)]
enum ConflictRef<'a> {
    /// A clause of the database.
    Clause(usize),
    /// A theory conflict clause, not in the database.
    Lits(&'a [Lit]),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Value {
    True,
    False,
    Unassigned,
}

#[derive(Clone, Debug)]
struct Clause {
    lits: Vec<Lit>,
    /// Learned clauses are the ones [`SatSolver::reduce_db`] may delete
    /// (see the module documentation).
    learned: bool,
    /// Tombstone: the clause is logically gone but keeps its index so that
    /// `reason` handles and watch lists stay valid; `lits` is emptied.
    deleted: bool,
    /// Literal-block distance at learning time (0 for input clauses).
    lbd: u32,
    /// Bump-and-decay activity, the deletion tie-breaker within an LBD band.
    activity: f64,
}

/// The CDCL SAT solver.
///
/// # Example
/// ```
/// use ids_smt::sat::{SatSolver, Lit, SatResult};
/// let mut s = SatSolver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(vec![Lit::new(a, true), Lit::new(b, true)]);
/// s.add_clause(vec![Lit::new(a, false)]);
/// assert_eq!(s.solve(), SatResult::Sat);
/// assert_eq!(s.value(b), Some(true));
/// ```
#[derive(Clone, Debug, Default)]
pub struct SatSolver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<usize>>, // indexed by literal
    assign: Vec<Value>,
    level: Vec<u32>,
    reason: Vec<Option<usize>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    activity: Vec<f64>,
    act_inc: f64,
    /// Max-heap of (activity bits, var) used to pick decision variables
    /// without scanning every variable. Entries may be stale (the activity
    /// may have changed since insertion); staleness only degrades the
    /// heuristic, never correctness, because every unassigned variable is
    /// guaranteed to have at least one entry.
    order: std::collections::BinaryHeap<(u64, Var)>,
    phase: Vec<bool>,
    /// Literals assumed true for the duration of one `solve_under` call.
    /// Assumptions are decided before any free decision; conflict analysis
    /// never resolves on them, so learned clauses stay globally valid.
    assumptions: Vec<Lit>,
    ok: bool,
    options: SatOptions,
    /// Clause-activity increment (decayed geometrically per conflict).
    cla_inc: f64,
    /// Conflicts seen since the last `reduce_db` run.
    conflicts_since_reduce: u64,
    /// Conflict count that triggers the next `reduce_db` run.
    reduce_limit: u64,
    /// Restarts performed since the current `solve` began.
    restarts_this_solve: u64,
    /// Conflict count that triggers the next restart (advances along the
    /// schedule with `restarts_this_solve`).
    restart_limit: u64,
    /// Conflicts (Boolean and theory) since the last restart.
    conflicts_since_restart: u64,
    /// Length of the trail prefix the theory hook has seen unchanged: set to
    /// the trail length at every hook call, lowered by every backtrack.
    theory_head: usize,
    /// Per-variable marks of `analyze`, all false between calls.
    seen: Vec<bool>,
    /// Scratch buffer of `lbd_of`.
    lbd_buf: Vec<u32>,
    /// The unsat core of the most recent [`SatResult::Unsat`] answer from
    /// [`SatSolver::solve_under`] / [`SatSolver::solve_under_theory`]: a
    /// subset of the assumption literals sufficient for unsatisfiability.
    /// Empty when the clause set is unsatisfiable on its own.
    pub unsat_core: Vec<Lit>,
    /// Number of Boolean conflicts encountered (for statistics).
    pub conflicts: u64,
    /// Number of theory conflicts handled (for statistics).
    pub theory_conflicts: u64,
    /// Number of decisions made (for statistics).
    pub decisions: u64,
    /// Number of unit propagations performed (for statistics).
    pub propagations: u64,
    /// Number of restarts performed (for statistics).
    pub restarts: u64,
    /// Learned clauses deleted by database reductions (for statistics).
    pub learned_deleted: u64,
    /// Largest literal-block distance of any learned clause (for statistics).
    pub max_lbd: u32,
}

impl SatSolver {
    /// Creates an empty solver with the tuned default options.
    pub fn new() -> SatSolver {
        SatSolver::with_options(SatOptions::default())
    }

    /// Creates an empty solver with explicit restart/clause-db options.
    pub fn with_options(options: SatOptions) -> SatSolver {
        SatSolver {
            act_inc: 1.0,
            cla_inc: 1.0,
            ok: true,
            reduce_limit: options.clause_db.first_reduce,
            options,
            ..Default::default()
        }
    }

    /// Allocates a fresh propositional variable.
    pub fn new_var(&mut self) -> Var {
        let v = self.assign.len() as Var;
        self.assign.push(Value::Unassigned);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.push((0, v));
        v
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    fn lit_value(&self, l: Lit) -> Value {
        match self.assign[l.var() as usize] {
            Value::Unassigned => Value::Unassigned,
            Value::True => {
                if l.is_positive() {
                    Value::True
                } else {
                    Value::False
                }
            }
            Value::False => {
                if l.is_positive() {
                    Value::False
                } else {
                    Value::True
                }
            }
        }
    }

    /// The current value of a variable, if assigned.
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.assign[v as usize] {
            Value::True => Some(true),
            Value::False => Some(false),
            Value::Unassigned => None,
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause. Returns `false` if the clause system became trivially
    /// unsatisfiable (empty clause at level 0). A unit clause is assigned at
    /// once but propagated by the next solve.
    pub fn add_clause(&mut self, mut lits: Vec<Lit>) -> bool {
        if !self.ok {
            return false;
        }
        // Clauses arrive between searches, possibly over a complete
        // assignment. Backtrack to the root level so that clause insertion
        // stays simple and correct.
        self.backtrack(0);
        lits.sort();
        lits.dedup();
        // Remove clauses satisfied at level 0 and false literals.
        let mut i = 0;
        while i < lits.len() {
            if i + 1 < lits.len() && lits[i].var() == lits[i + 1].var() {
                return true; // contains l and ~l: tautology
            }
            match self.lit_value(lits[i]) {
                Value::True => return true,
                Value::False => {
                    lits.remove(i);
                }
                Value::Unassigned => i += 1,
            }
        }
        match lits.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                // Propagated by the next solve, whose counters then cover it.
                self.enqueue(lits[0], None);
                true
            }
            _ => {
                self.attach_clause(lits, false, 0);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>, learned: bool, lbd: u32) -> usize {
        let idx = self.clauses.len();
        self.watches[lits[0].negate().index()].push(idx);
        self.watches[lits[1].negate().index()].push(idx);
        self.clauses.push(Clause {
            lits,
            learned,
            deleted: false,
            lbd,
            activity: 0.0,
        });
        idx
    }

    /// The number of distinct decision levels among a clause's literals — the
    /// Glucose "literal block distance" quality measure (lower is better).
    fn lbd_of(&mut self, lits: &[Lit]) -> u32 {
        let mut levels = std::mem::take(&mut self.lbd_buf);
        levels.clear();
        levels.extend(lits.iter().map(|l| self.level[l.var() as usize]));
        levels.sort_unstable();
        levels.dedup();
        let lbd = levels.len() as u32;
        self.lbd_buf = levels;
        lbd
    }

    fn bump_clause(&mut self, ci: usize) {
        if !self.clauses[ci].learned {
            return;
        }
        self.clauses[ci].activity += self.cla_inc;
        if self.clauses[ci].activity > 1e20 {
            for c in &mut self.clauses {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn enqueue(&mut self, l: Lit, reason: Option<usize>) {
        debug_assert_eq!(self.lit_value(l), Value::Unassigned);
        let v = l.var() as usize;
        self.assign[v] = if l.is_positive() {
            Value::True
        } else {
            Value::False
        };
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.phase[v] = l.is_positive();
        self.trail.push(l);
    }

    /// Unit propagation; returns the index of a conflicting clause if any.
    fn propagate(&mut self) -> Option<usize> {
        while self.prop_head < self.trail.len() {
            let l = self.trail[self.prop_head];
            self.prop_head += 1;
            self.propagations += 1;
            // Clauses watching ~l need attention (we store watches under the
            // literal that, when made true, might falsify the watched lit).
            // The list is compacted in place: `kept` entries stay, the rest
            // moved to another literal's list.
            let mut watch_list = std::mem::take(&mut self.watches[l.index()]);
            let mut kept = 0;
            let mut conflict = None;
            let mut wi = 0;
            while wi < watch_list.len() {
                let ci = watch_list[wi];
                wi += 1;
                if self.clauses[ci].deleted {
                    // Lazy watch-list cleanup: dead indices are dropped the
                    // first time propagation visits them.
                    continue;
                }
                let watched_false = l.negate();
                // Ensure the false literal is at position 1.
                if self.clauses[ci].lits[0] == watched_false {
                    self.clauses[ci].lits.swap(0, 1);
                }
                let first = self.clauses[ci].lits[0];
                if self.lit_value(first) == Value::True {
                    watch_list[kept] = ci;
                    kept += 1;
                    continue;
                }
                // Find a new literal to watch.
                let mut moved = false;
                for k in 2..self.clauses[ci].lits.len() {
                    let cand = self.clauses[ci].lits[k];
                    if self.lit_value(cand) != Value::False {
                        self.clauses[ci].lits.swap(1, k);
                        self.watches[cand.negate().index()].push(ci);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                watch_list[kept] = ci;
                kept += 1;
                if self.lit_value(first) == Value::False {
                    // Conflict: keep the unvisited rest of the list.
                    watch_list.copy_within(wi.., kept);
                    kept += watch_list.len() - wi;
                    conflict = Some(ci);
                    break;
                } else {
                    self.enqueue(first, Some(ci));
                }
            }
            watch_list.truncate(kept);
            // No clause moves its watch onto `l` itself (that would need `~l`
            // and `l` in one clause), but keep anything that arrived.
            watch_list.append(&mut self.watches[l.index()]);
            self.watches[l.index()] = watch_list;
            if conflict.is_some() {
                self.prop_head = self.trail.len();
                return conflict;
            }
        }
        None
    }

    fn bump(&mut self, v: Var) {
        self.activity[v as usize] += self.act_inc;
        if self.activity[v as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.act_inc *= 1e-100;
        }
        self.order.push((self.activity[v as usize].to_bits(), v));
    }

    /// First-UIP conflict analysis at the current decision level, which must
    /// hold at least one literal of the conflict. Returns the learned clause
    /// (asserting literal first) and the level to backjump to.
    fn analyze(&mut self, conflict: ConflictRef<'_>) -> (Vec<Lit>, u32) {
        // Index 0 is reserved for the first-UIP literal.
        let mut learned: Vec<Lit> = vec![Lit(0)];
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut next = conflict;
        let mut trail_pos = self.trail.len();
        let cur_level = self.decision_level();

        loop {
            match next {
                ConflictRef::Lits(lits) => {
                    for &q in lits {
                        self.analyze_visit(q, cur_level, &mut counter, &mut learned);
                    }
                }
                ConflictRef::Clause(ci) => {
                    self.bump_clause(ci);
                    for k in 0..self.clauses[ci].lits.len() {
                        let q = self.clauses[ci].lits[k];
                        // Skip the literal we are currently resolving on (it
                        // occurs in its own reason clause with the opposite
                        // polarity).
                        if p.is_some_and(|pl| pl.var() == q.var()) {
                            continue;
                        }
                        self.analyze_visit(q, cur_level, &mut counter, &mut learned);
                    }
                }
            }
            // Find the next literal on the trail (at current level) to resolve.
            loop {
                trail_pos -= 1;
                let l = self.trail[trail_pos];
                if self.seen[l.var() as usize] {
                    p = Some(l.negate());
                    self.seen[l.var() as usize] = false;
                    counter -= 1;
                    if counter > 0 {
                        next = ConflictRef::Clause(
                            self.reason[l.var() as usize].expect("reason for implied lit"),
                        );
                    }
                    break;
                }
            }
            if counter == 0 {
                break;
            }
        }
        learned[0] = p.expect("first UIP literal");
        for l in &learned[1..] {
            self.seen[l.var() as usize] = false;
        }
        // Backjump level = max level among the other literals.
        let bj = learned[1..]
            .iter()
            .map(|l| self.level[l.var() as usize])
            .max()
            .unwrap_or(0);
        (learned, bj)
    }

    /// One literal of a clause being resolved by `analyze`: marks it, bumps
    /// its variable, and counts it (current level) or keeps it (lower level).
    fn analyze_visit(
        &mut self,
        q: Lit,
        cur_level: u32,
        counter: &mut usize,
        learned: &mut Vec<Lit>,
    ) {
        let v = q.var() as usize;
        if !self.seen[v] && self.level[v] > 0 {
            self.seen[v] = true;
            self.bump(q.var());
            if self.level[v] == cur_level {
                *counter += 1;
            } else {
                learned.push(q);
            }
        }
    }

    /// Learns a clause whose literals are all false except `lits[0]`, which
    /// is unassigned after the backjump to `bj` and is asserted here.
    fn learn(&mut self, lits: Vec<Lit>, bj: u32) {
        self.backtrack(bj);
        if lits.len() == 1 {
            self.enqueue(lits[0], None);
        } else {
            // LBD is computed after the backjump, when every literal of the
            // learned clause is assigned (the asserting literal is about to
            // be, at the backjump level).
            let lbd = self.lbd_of(&lits[1..]).saturating_add(1);
            self.max_lbd = self.max_lbd.max(lbd);
            let first = lits[0];
            let ci = self.attach_clause(lits, true, lbd);
            self.bump_clause(ci);
            self.enqueue(first, Some(ci));
        }
    }

    /// Resolves a theory conflict clause (every literal false). Returns
    /// false when the conflict lies at the root level, which makes the clause
    /// set unsatisfiable.
    ///
    /// The search backtracks to the clause's highest decision level first: a
    /// final-check conflict may only involve literals far below the current
    /// level. A clause with a single literal at that level asserts it
    /// directly at the second-highest level; otherwise first-UIP analysis
    /// learns an asserting resolvent, as for a Boolean conflict.
    fn resolve_theory_conflict(&mut self, mut lits: Vec<Lit>) -> bool {
        let level = |s: &Self, l: &Lit| s.level[l.var() as usize];
        let top = lits.iter().map(|l| level(self, l)).max().unwrap_or(0);
        if top == 0 {
            return false;
        }
        self.backtrack(top);
        if lits.iter().filter(|l| level(self, l) == top).count() > 1 {
            let (learned, bj) = self.analyze(ConflictRef::Lits(&lits));
            self.learn(learned, bj);
            return true;
        }
        // Asserting as it stands: highest level first, root literals out.
        lits.retain(|l| level(self, l) > 0);
        lits.sort_unstable_by_key(|l| (std::cmp::Reverse(level(self, l)), *l));
        lits.dedup();
        for &l in &lits {
            self.bump(l.var());
        }
        let bj = lits.get(1).map_or(0, |l| level(self, l));
        self.learn(lits, bj);
        true
    }

    fn backtrack(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let target = self.trail_lim[level as usize];
        while self.trail.len() > target {
            let l = self.trail.pop().unwrap();
            let v = l.var() as usize;
            self.assign[v] = Value::Unassigned;
            self.reason[v] = None;
            self.order.push((self.activity[v].to_bits(), l.var()));
        }
        self.trail_lim.truncate(level as usize);
        self.prop_head = self.trail.len();
        self.theory_head = self.theory_head.min(target);
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some((_, v)) = self.order.pop() {
            if self.assign[v as usize] == Value::Unassigned {
                return Some(v);
            }
        }
        None
    }

    /// Searches for a satisfying assignment of the current clause set.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_budget(u64::MAX)
    }

    /// Searches with a conflict budget; returns [`SatResult::Unknown`] when
    /// the budget is exhausted.
    pub fn solve_with_budget(&mut self, max_conflicts: u64) -> SatResult {
        self.solve_inner(&[], &mut NoTheory, max_conflicts)
    }

    /// Solves under temporary assumptions: the given literals are decided
    /// before any free decision, and [`SatResult::Unsat`] means *unsatisfiable
    /// together with the assumptions* (the solver itself stays consistent and
    /// usable — clauses learned along the way are globally valid, because
    /// conflict analysis resolves input/learned clauses and valid theory
    /// lemmas only).
    ///
    /// This is the building block of the push/pop incremental solver: a scope's
    /// clauses carry a negated activation literal, and the scope is enabled by
    /// assuming the activation literal here.
    pub fn solve_under(&mut self, assumptions: &[Lit]) -> SatResult {
        self.solve_under_theory(assumptions, &mut NoTheory)
    }

    /// Like [`SatSolver::solve_under`], with `theory` consulted at every
    /// propagation fixpoint and on every complete assignment (see
    /// [`Theory::check`]). [`SatResult::Sat`] means the final assignment is
    /// propositionally satisfying and theory-consistent.
    pub fn solve_under_theory<T: Theory>(
        &mut self,
        assumptions: &[Lit],
        theory: &mut T,
    ) -> SatResult {
        self.solve_inner(assumptions, theory, u64::MAX)
    }

    fn solve_inner<T: Theory>(
        &mut self,
        assumptions: &[Lit],
        theory: &mut T,
        max_conflicts: u64,
    ) -> SatResult {
        self.unsat_core.clear();
        if !self.ok {
            return SatResult::Unsat;
        }
        self.reset_search_schedule();
        self.backtrack(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SatResult::Unsat;
        }
        // The theory starts each search from the whole trail.
        self.theory_head = 0;
        self.assumptions = assumptions.to_vec();
        let r = self.search(theory, max_conflicts);
        self.assumptions.clear();
        r
    }

    /// Rewinds the restart schedule (and with it the `reduce_db` cadence's
    /// trigger points) to its beginning, at the start of every solve.
    fn reset_search_schedule(&mut self) {
        self.restarts_this_solve = 0;
        self.conflicts_since_restart = 0;
        self.restart_limit = match self.options.restart {
            RestartPolicy::Luby { unit } => unit.max(1) * luby(1),
            RestartPolicy::Geometric { start } => start.max(1),
        };
    }

    /// The CDCL search loop over the current trail.
    fn search<T: Theory>(&mut self, theory: &mut T, max_conflicts: u64) -> SatResult {
        let mut conflicts_here = 0u64;
        // One trace span per search call, segmented at restarts; the guard's
        // drop keeps Begin/End matched on every return path below.
        let mut obs_span = ids_obs::SegmentedSpan::new("sat");
        let heartbeat_every = ids_obs::heartbeat_interval();
        // Histogram sampling (restart-segment duration, conflict
        // inter-arrival) is snapshotted once per search call: disarmed runs
        // pay one relaxed load here and zero clock reads in the loop.
        let metrics = ids_obs::metrics_active();
        let mut seg_start = metrics.then(std::time::Instant::now);
        let mut last_conflict: Option<std::time::Instant> = None;
        loop {
            if let Some(conf) = self.propagate() {
                self.conflicts += 1;
                conflicts_here += 1;
                if metrics {
                    let now = std::time::Instant::now();
                    if let Some(prev) = last_conflict.replace(now) {
                        ids_obs::record_metric(
                            ids_obs::Metric::ConflictGapUs,
                            now.duration_since(prev).as_micros() as u64,
                        );
                    }
                }
                if heartbeat_every != 0 && self.conflicts.is_multiple_of(heartbeat_every) {
                    self.emit_heartbeat();
                }
                if conflicts_here > max_conflicts {
                    return SatResult::Unknown;
                }
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SatResult::Unsat;
                }
                let (learned, bj) = self.analyze(ConflictRef::Clause(conf));
                self.learn(learned, bj);
                self.after_conflict(&mut obs_span, &mut seg_start);
                continue;
            }
            // A propagation fixpoint: let the theory see the new literals
            // before the next decision.
            let mut complete = false;
            if self.theory_head == self.trail.len() {
                match self.next_decision() {
                    Ok(Some(l)) => {
                        self.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(l, None);
                        continue;
                    }
                    Ok(None) => complete = true,
                    Err(failed) => {
                        // An assumption implied false by clauses and earlier
                        // assumptions alone: unsatisfiable under the
                        // assumptions. The clause set itself stays consistent
                        // (`ok` untouched).
                        self.unsat_core = self.analyze_final(failed);
                        return SatResult::Unsat;
                    }
                }
            }
            let stable = std::mem::replace(&mut self.theory_head, self.trail.len());
            match theory.check(&self.trail, stable, complete) {
                TheoryVerdict::Consistent if complete => return SatResult::Sat,
                TheoryVerdict::Consistent => {}
                TheoryVerdict::Unknown => return SatResult::Unknown,
                TheoryVerdict::Conflict(lits) => {
                    self.theory_conflicts += 1;
                    if !self.resolve_theory_conflict(lits) {
                        self.ok = false;
                        return SatResult::Unsat;
                    }
                    self.after_conflict(&mut obs_span, &mut seg_start);
                }
            }
        }
    }

    /// The next decision literal: the first assumption not yet true, or a
    /// free variable at its saved phase (`None`: the assignment is complete).
    /// Assumptions are (re-)decided before any free decision, since a
    /// backjump or restart may have undone some of them; an assumption that
    /// is already false is returned as the error.
    fn next_decision(&mut self) -> Result<Option<Lit>, Lit> {
        for i in 0..self.assumptions.len() {
            let a = self.assumptions[i];
            match self.lit_value(a) {
                Value::True => continue,
                Value::False => return Err(a),
                Value::Unassigned => return Ok(Some(a)),
            }
        }
        Ok(self
            .pick_branch_var()
            .map(|v| Lit::new(v, self.phase[v as usize])))
    }

    /// Bookkeeping after any learned conflict (Boolean or theory): activity
    /// decay, and the restart and clause-deletion schedule.
    fn after_conflict(
        &mut self,
        obs_span: &mut ids_obs::SegmentedSpan,
        seg_start: &mut Option<std::time::Instant>,
    ) {
        self.act_inc *= 1.05;
        self.cla_inc *= 1.001;
        self.conflicts_since_reduce += 1;
        self.conflicts_since_restart += 1;
        if self.conflicts_since_restart <= self.restart_limit {
            return;
        }
        self.conflicts_since_restart = 0;
        self.restarts_this_solve += 1;
        self.restarts += 1;
        let restarts_here = self.restarts_this_solve;
        obs_span.restart(|| format!("restart {restarts_here}"));
        if let Some(start) = seg_start.replace(std::time::Instant::now()) {
            ids_obs::record_metric(
                ids_obs::Metric::RestartSegmentUs,
                start.elapsed().as_micros() as u64,
            );
        }
        if ids_obs::heartbeat_interval() != 0 {
            self.emit_heartbeat();
        }
        self.restart_limit = match self.options.restart {
            RestartPolicy::Luby { unit } => unit.max(1) * luby(self.restarts_this_solve + 1),
            RestartPolicy::Geometric { .. } => self.restart_limit + self.restart_limit / 2,
        };
        self.backtrack(0);
        if self.options.clause_db.enabled && self.conflicts_since_reduce >= self.reduce_limit {
            self.reduce_db();
        }
    }

    /// MiniSat-style `analyzeFinal`: given an assumption literal found false
    /// under the current trail, walks the implication graph backwards and
    /// collects the subset of assumptions responsible — the unsat core.
    ///
    /// Soundness rests on the decision discipline of `search`: assumptions
    /// are (re-)decided before any free decision, and a free decision can
    /// only be on the trail while *every* assumption is assigned true — so
    /// when an assumption evaluates false, every `reason == None` ancestor
    /// above level 0 is itself an assumption. Level-0 implications hold
    /// unconditionally and contribute nothing.
    fn analyze_final(&self, failed: Lit) -> Vec<Lit> {
        let mut core = vec![failed];
        let mut seen = vec![false; self.num_vars()];
        seen[failed.var() as usize] = true;
        for &l in self.trail.iter().rev() {
            let v = l.var() as usize;
            if !seen[v] {
                continue;
            }
            seen[v] = false;
            if self.level[v] == 0 {
                continue;
            }
            match self.reason[v] {
                None => core.push(l),
                Some(ci) => {
                    for &q in &self.clauses[ci].lits {
                        if q.var() as usize != v && self.level[q.var() as usize] > 0 {
                            seen[q.var() as usize] = true;
                        }
                    }
                }
            }
        }
        core.sort();
        core.dedup();
        core
    }

    /// Deletes the worst half of the learned clauses: highest LBD first,
    /// lowest activity as the tie-breaker. Glue clauses
    /// (LBD ≤ [`ClauseDbOptions::glue_lbd`]), locked clauses (the reason of
    /// an assigned literal) and input clauses are kept — see the module
    /// documentation for why each class is safe or necessary to keep.
    fn reduce_db(&mut self) {
        self.conflicts_since_reduce = 0;
        self.reduce_limit = self
            .reduce_limit
            .saturating_add(self.options.clause_db.reduce_inc);
        let locked: std::collections::HashSet<usize> = self
            .trail
            .iter()
            .filter_map(|l| self.reason[l.var() as usize])
            .collect();
        let glue = self.options.clause_db.glue_lbd;
        let mut cands: Vec<usize> = (0..self.clauses.len())
            .filter(|&ci| {
                let c = &self.clauses[ci];
                c.learned && !c.deleted && c.lbd > glue && !locked.contains(&ci)
            })
            .collect();
        // Worst first: high LBD, then low activity (ties by index for
        // determinism — f64 activities of distinct clauses rarely tie, but
        // the sort must be total either way).
        cands.sort_unstable_by(|&a, &b| {
            let (ca, cb) = (&self.clauses[a], &self.clauses[b]);
            cb.lbd
                .cmp(&ca.lbd)
                .then(ca.activity.total_cmp(&cb.activity))
                .then(a.cmp(&b))
        });
        for &ci in &cands[..cands.len() / 2] {
            let c = &mut self.clauses[ci];
            c.deleted = true;
            c.lits = Vec::new();
            self.learned_deleted += 1;
        }
    }

    /// Number of live clauses currently stored (original + learned).
    pub fn num_clauses(&self) -> usize {
        self.clauses.iter().filter(|c| !c.deleted).count()
    }

    /// Number of live learned clauses currently stored.
    pub fn num_learned(&self) -> usize {
        self.clauses
            .iter()
            .filter(|c| c.learned && !c.deleted)
            .count()
    }

    /// Delivers a liveness heartbeat with the core's cumulative counters to
    /// the observer registered with [`ids_obs`] (called from the search loop
    /// every [`ids_obs::heartbeat_interval`] conflicts and at each restart).
    fn emit_heartbeat(&self) {
        ids_obs::emit_heartbeat(ids_obs::Heartbeat {
            conflicts: self.conflicts,
            decisions: self.decisions,
            propagations: self.propagations,
            restarts: self.restarts,
            learned: self.num_learned() as u64,
            ..ids_obs::Heartbeat::default()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: Var, b: bool) -> Lit {
        Lit::new(v, b)
    }

    #[test]
    fn lit_encoding() {
        let l = Lit::new(3, true);
        assert_eq!(l.var(), 3);
        assert!(l.is_positive());
        assert!(!l.negate().is_positive());
        assert_eq!(l.negate().negate(), l);
    }

    #[test]
    fn trivial_sat() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(vec![lit(a, true)]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        s.add_clause(vec![lit(a, true)]);
        assert!(!s.add_clause(vec![lit(a, false)]) || s.solve() == SatResult::Unsat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = SatSolver::new();
        let vars: Vec<Var> = (0..10).map(|_| s.new_var()).collect();
        for w in vars.windows(2) {
            s.add_clause(vec![lit(w[0], false), lit(w[1], true)]);
        }
        s.add_clause(vec![lit(vars[0], true)]);
        assert_eq!(s.solve(), SatResult::Sat);
        for &v in &vars {
            assert_eq!(s.value(v), Some(true));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: unsat. Variables p[i][j] = pigeon i in hole j.
        let mut s = SatSolver::new();
        let mut p = vec![];
        for _ in 0..3 {
            p.push(vec![s.new_var(), s.new_var()]);
        }
        for row in &p {
            s.add_clause(vec![lit(row[0], true), lit(row[1], true)]);
        }
        for i in 0..3 {
            for k in (i + 1)..3 {
                let (pi, pk) = (p[i].clone(), p[k].clone());
                for (&a, &b) in pi.iter().zip(pk.iter()) {
                    s.add_clause(vec![lit(a, false), lit(b, false)]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(vec![lit(a, true), lit(b, true)]);
        assert_eq!(s.solve(), SatResult::Sat);
        s.add_clause(vec![lit(a, false)]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
        s.add_clause(vec![lit(b, false)]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn assumptions_are_retractable() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        // (~a | b) & (~a | ~b): unsat exactly when a is assumed.
        s.add_clause(vec![lit(a, false), lit(b, true)]);
        s.add_clause(vec![lit(a, false), lit(b, false)]);
        assert_eq!(s.solve_under(&[lit(a, true)]), SatResult::Unsat);
        // The solver stays usable: globally the clauses are satisfiable.
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(a), Some(false));
        assert_eq!(s.solve_under(&[lit(a, false)]), SatResult::Sat);
        // Unsat under assumptions again, twice in a row.
        assert_eq!(s.solve_under(&[lit(a, true)]), SatResult::Unsat);
        assert_eq!(s.solve_under(&[lit(a, true)]), SatResult::Unsat);
    }

    #[test]
    fn conflicting_assumptions_detected() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(vec![lit(a, true), lit(b, true)]);
        assert_eq!(
            s.solve_under(&[lit(a, false), lit(b, false)]),
            SatResult::Unsat
        );
        assert_eq!(
            s.solve_under(&[lit(a, true), lit(b, false)]),
            SatResult::Sat
        );
        assert_eq!(s.value(a), Some(true));
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn random_3sat_consistency() {
        // Small random instances: whatever the result, if SAT then the model
        // must satisfy every clause. Deterministic xorshift so the test is
        // reproducible without an external rand crate.
        let mut state = 42u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..30 {
            let mut s = SatSolver::new();
            let n = 12;
            let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
            let mut clauses = vec![];
            for _ in 0..40 {
                let c: Vec<Lit> = (0..3)
                    .map(|_| lit(vars[next() as usize % n], next() % 2 == 0))
                    .collect();
                clauses.push(c.clone());
                s.add_clause(c);
            }
            if s.solve() == SatResult::Sat {
                for c in &clauses {
                    assert!(c.iter().any(|l| {
                        let v = s.value(l.var());
                        v == Some(l.is_positive())
                    }));
                }
            }
        }
    }

    #[test]
    fn unsat_core_is_a_sufficient_assumption_subset() {
        let mut s = SatSolver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        let x = s.new_var();
        // a -> x, b -> ~x: assuming {a, b} is unsat; c is irrelevant.
        s.add_clause(vec![lit(a, false), lit(x, true)]);
        s.add_clause(vec![lit(b, false), lit(x, false)]);
        assert_eq!(
            s.solve_under(&[lit(a, true), lit(b, true), lit(c, true)]),
            SatResult::Unsat
        );
        let core = s.unsat_core.clone();
        assert!(core.contains(&lit(a, true)), "core {:?} must blame a", core);
        assert!(core.contains(&lit(b, true)), "core {:?} must blame b", core);
        assert!(
            !core.contains(&lit(c, true)),
            "core {:?} must not blame the irrelevant assumption c",
            core
        );
        // Re-solving under the core alone must still be unsat (sufficiency).
        assert_eq!(s.solve_under(&core), SatResult::Unsat);
        // A satisfiable call leaves no stale core behind.
        assert_eq!(s.solve_under(&[lit(a, true)]), SatResult::Sat);
        assert!(s.unsat_core.is_empty());
        // Directly conflicting assumptions blame both polarities.
        assert_eq!(
            s.solve_under(&[lit(a, true), lit(a, false)]),
            SatResult::Unsat
        );
        assert_eq!(s.unsat_core, vec![lit(a, true), lit(a, false)]);
        // A clause-set-level unsat (no assumptions involved) has an empty
        // core: nothing to retract would help.
        s.add_clause(vec![lit(x, true)]);
        s.add_clause(vec![lit(x, false)]);
        assert_eq!(s.solve_under(&[lit(c, true)]), SatResult::Unsat);
        assert!(s.unsat_core.is_empty());
    }

    /// A test theory: refutes the first `budget` complete assignments by
    /// blocking the values of `vars` (the way a final-check simplex conflict
    /// blames literals decided long before), then accepts.
    struct ModelBlocker {
        vars: Vec<Var>,
        budget: usize,
        blocked: usize,
    }

    impl Theory for ModelBlocker {
        fn check(&mut self, trail: &[Lit], _: usize, complete: bool) -> TheoryVerdict {
            if !complete || self.blocked == self.budget {
                return TheoryVerdict::Consistent;
            }
            self.blocked += 1;
            let value = |v: Var| trail.iter().find(|l| l.var() == v).map(|l| l.is_positive());
            TheoryVerdict::Conflict(
                self.vars
                    .iter()
                    .map(|&v| lit(v, value(v) != Some(true)))
                    .collect(),
            )
        }
    }

    /// The restart schedule and the clause-deletion cadence advance with
    /// theory conflicts too: a theory-bound search whose Boolean part never
    /// conflicts must still restart and reduce its clause database.
    #[test]
    fn schedule_advances_across_theory_conflicts() {
        let options = SatOptions {
            restart: RestartPolicy::Luby { unit: 2 },
            clause_db: ClauseDbOptions {
                enabled: true,
                first_reduce: 8,
                reduce_inc: 0,
                glue_lbd: 1,
            },
        };
        let mut s = SatSolver::with_options(options);
        // A conflict-rich but solution-rich random 3-SAT instance
        // (deterministic xorshift, as in `random_3sat_consistency`).
        let n = 24;
        let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        let mut state = 7u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..72 {
            let c: Vec<Lit> = (0..3)
                .map(|_| lit(vars[next() as usize % n], next() % 2 == 0))
                .collect();
            s.add_clause(c);
        }
        let act = s.new_var();
        let mut theory = ModelBlocker {
            vars: vars[..8].to_vec(),
            budget: 60,
            blocked: 0,
        };
        let r = s.solve_under_theory(&[lit(act, true)], &mut theory);
        assert_eq!(s.theory_conflicts, theory.blocked as u64);
        assert!(theory.blocked > 5, "need a genuinely theory-bound run");
        if r == SatResult::Sat {
            assert_eq!(theory.blocked, theory.budget);
        }
        assert!(
            s.restarts > 0,
            "theory conflicts must reach the restart schedule (theory conflicts {})",
            s.theory_conflicts
        );
        assert!(
            s.learned_deleted > 0,
            "clause deletion must fire on theory conflicts (restarts {})",
            s.restarts
        );
    }

    /// A final-check theory conflict whose highest level lies below the
    /// current decision level. With one literal at that level, the clause
    /// asserts it after a backjump; here that refutes an assumption, so the
    /// solve is Unsat with exactly the blamed assumptions as its core.
    #[test]
    fn theory_conflict_below_the_current_level_backjumps() {
        let mut s = SatSolver::new();
        let xs: Vec<Var> = (0..6).map(|_| s.new_var()).collect();
        // x0..x3 are decided at levels 1..4, x4 and x5 freely after them.
        let assumptions: Vec<Lit> = xs[..4].iter().map(|&v| lit(v, true)).collect();
        let mut theory = ModelBlocker {
            vars: xs[..2].to_vec(),
            budget: usize::MAX,
            blocked: 0,
        };
        let r = s.solve_under_theory(&assumptions, &mut theory);
        assert_eq!(r, SatResult::Unsat);
        assert_eq!(theory.blocked, 1, "one conflict, resolved by a backjump");
        assert_eq!(s.unsat_core, vec![lit(xs[0], true), lit(xs[1], true)]);
        // The learned unit-at-level-1 clause ~x0 | ~x1 persists: assuming
        // only x0 now propagates ~x1 without consulting the theory.
        let mut quiet = ModelBlocker {
            vars: Vec::new(),
            budget: 0,
            blocked: 0,
        };
        assert_eq!(
            s.solve_under_theory(&assumptions[..1], &mut quiet),
            SatResult::Sat
        );
        assert_eq!(s.value(xs[1]), Some(false));
    }

    /// A theory conflict with two literals at its highest level goes through
    /// first-UIP analysis: `x0 -> y` puts `y` at `x0`'s level, and the theory
    /// refutes `x0 & y`, so the learned clause is the unit `~x0`.
    #[test]
    fn theory_conflict_with_two_top_level_literals_is_analyzed() {
        let mut s = SatSolver::new();
        let x0 = s.new_var();
        let y = s.new_var();
        let z = s.new_var();
        s.add_clause(vec![lit(x0, false), lit(y, true)]);
        let mut theory = ModelBlocker {
            vars: vec![x0, y],
            budget: usize::MAX,
            blocked: 0,
        };
        let r = s.solve_under_theory(&[lit(x0, true), lit(z, true)], &mut theory);
        assert_eq!(r, SatResult::Unsat);
        assert_eq!(s.unsat_core, vec![lit(x0, true)]);
        // ~x0 was learned as a root-level unit.
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(x0), Some(false));
    }

    /// A fresh solve rewinds the restart schedule to its beginning.
    #[test]
    fn fresh_solve_rewinds_restart_schedule() {
        let options = SatOptions {
            restart: RestartPolicy::Luby { unit: 1 },
            ..SatOptions::default()
        };
        let mut s = SatSolver::with_options(options);
        let n = 24;
        let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        let mut state = 7u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..72 {
            let c: Vec<Lit> = (0..3)
                .map(|_| lit(vars[next() as usize % n], next() % 2 == 0))
                .collect();
            s.add_clause(c);
        }
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.restarts_this_solve > 0, "conflicts {}", s.conflicts);
        // A zero-budget fresh solve resets the schedule before any restart
        // could advance it again.
        let _ = s.solve_with_budget(0);
        assert_eq!(s.restarts_this_solve, 0);
    }
}
