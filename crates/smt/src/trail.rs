//! Trail-based persistent theory state for the incremental DPLL(T) loop.
//!
//! The batch [`crate::theory::TheoryChecker`] rebuilds congruence closure and
//! a fresh simplex tableau for every propositional model the SAT core hands
//! over. On heavyweight VCs the models of consecutive rounds share almost all
//! of their literals (CDCL backjumps keep a long trail prefix), so nearly all
//! of that work is re-derivation of state the previous round already had.
//!
//! [`TheorySession`] keeps the theory state alive across rounds and processes
//! only the *delta*: the previous trail past its longest common prefix with
//! the new literal list is retracted, the rest of the list asserted. Nothing
//! else is undone, even after a conflict: the SAT backjump retracts a
//! conflict literal, and the next round pops exactly what the SAT trail
//! changed. Retraction is exact undo —
//!
//! * EUF is a union-find **without path compression** (so links can be
//!   unwound), with union-by-size, a proof forest for explanations, per-class
//!   use-lists for incremental congruence, and an exact signature table in
//!   which *every* mutation is recorded on an undo trail. Popping a literal
//!   restores the structure bit-for-bit: the state, and so every conflict
//!   explanation, equals a fresh replay of the round's literals.
//! * Simplex keeps its tableau, basis and slack variables across rounds
//!   (warm restart); retraction only rolls back bound tightenings via
//!   [`crate::simplex::Simplex::undo_to`]. Slack variables are reused across
//!   re-assertions of the same linear form so the tableau does not grow with
//!   the number of rounds.
//!
//! Simplex parts are loaded after the EUF phase, so an EUF conflict leaves
//! the new literals unloaded. Loaded entries always form a prefix of the
//! trail; the rest have `simplex_mark == usize::MAX`. Each simplex phase
//! loads from that watermark on, and a load conflict unloads only the
//! literal that failed.
//!
//! Verdicts are identical to the batch path: congruence closure reaches the
//! same fixpoint regardless of merge order, simplex verdicts are independent
//! of pivot history, and the EUF-derived equality propagation is restricted
//! to exactly the numeric leaf terms of the *currently asserted* literals
//! (the same set the batch path derives per round). Conflict *explanations*
//! may differ from the batch path's (different merge/pivot order picks a
//! different valid inconsistent subset), which is fine for DPLL(T): any
//! inconsistent subset yields a sound theory lemma.

use std::collections::HashMap;

use crate::euf::{EufTemplate, Reason};
use crate::fxmap::FxHashMap;
use crate::rational::Rat;
use crate::simplex::{ArithOutcome, LinExpr, PivotRule, Rel, Simplex};
use crate::term::{TermId, TermManager};
use crate::theory::{AtomKind, LinForm, TheoryChecker, TheoryTelemetry, AXIOM_TAG};

/// Tags at or above this refer to per-round EUF-derived equalities; their
/// explanations (trail tags) replace them in conflicts. Trail indices are far
/// below this for any conceivable literal count.
const DERIVED_BASE: usize = usize::MAX / 2;

/// One reversible mutation of [`EufState`], undone in reverse order.
#[derive(Clone, Debug)]
enum UndoOp {
    /// A class merge: `loser_root`'s class was absorbed into `winner_root`'s,
    /// and the proof-forest edge `pf_child -> …` was added after re-rooting
    /// `pf_child`'s tree (whose old root is recorded for the reverse re-root).
    Merge {
        pf_child: usize,
        old_pf_root: usize,
        loser_root: usize,
        winner_root: usize,
        winner_use_len: usize,
    },
    /// A fresh signature-table entry under this key (entries are never
    /// overwritten: a colliding key means congruent nodes, which get merged).
    SigInsert(Vec<u32>),
    /// A pushed disequality.
    Diseq,
    /// A pushed asserted-equation tag.
    EqTag,
}

/// Backtrackable congruence closure: the incremental, exact-undo counterpart
/// of the batch [`crate::euf::Euf`] solver. Congruence is maintained eagerly
/// on every assertion (use-list driven), so there is no per-round fixpoint
/// pass over all application nodes.
#[derive(Clone, Debug)]
pub(crate) struct EufState {
    template: EufTemplate,
    /// Union-find links; no path compression so that [`EufState::undo_to`]
    /// can restore them exactly.
    parent: Vec<usize>,
    /// Class sizes (union by size keeps find paths logarithmic without
    /// compression).
    size: Vec<usize>,
    /// Proof forest for explanations, exactly as in the batch solver.
    pf_parent: Vec<Option<(usize, Reason)>>,
    /// `use_lists[r]`: application nodes with at least one argument in the
    /// class rooted at `r` (maintained by appending the loser's list to the
    /// winner's on merge; undo truncates the winner's list).
    use_lists: Vec<Vec<u32>>,
    /// Exact signature table: `[op, rep(arg0), rep(arg1), …]` → application
    /// index. A lookup hit means true congruence (no hashing ambiguity).
    /// Keys containing a merged-away root are unreachable until the merge is
    /// undone, at which point the table has been restored to match.
    sig_table: FxHashMap<Vec<u32>, u32>,
    diseqs: Vec<(usize, usize, usize)>,
    eq_tags: Vec<usize>,
    undo: Vec<UndoOp>,
    explain_incomplete: bool,
}

impl EufState {
    fn new(checker: &TheoryChecker) -> EufState {
        let template = checker.template.clone();
        let n = template.terms.len();
        let mut st = EufState {
            parent: (0..n).collect(),
            size: vec![1; n],
            pf_parent: vec![None; n],
            use_lists: vec![Vec::new(); n],
            sig_table: FxHashMap::default(),
            diseqs: Vec::new(),
            eq_tags: Vec::new(),
            undo: Vec::new(),
            explain_incomplete: false,
            template,
        };
        for (ai, app) in st.template.app_nodes.iter().enumerate() {
            for &arg in &app.args {
                st.use_lists[arg].push(ai as u32);
            }
        }
        // Seed the signature table. Terms are hash-consed, so two distinct
        // application nodes cannot collide while every class is a singleton;
        // the merge arm is defensive.
        for ai in 0..st.template.app_nodes.len() {
            let key = st.sig(ai);
            match st.sig_table.get(&key).copied() {
                Some(aj) => {
                    let ni = st.template.app_nodes[ai].node;
                    let nj = st.template.app_nodes[aj as usize].node;
                    st.merge_classes(ni, nj, Reason::Congruence(ni, nj));
                }
                None => {
                    st.undo.push(UndoOp::SigInsert(key.clone()));
                    st.sig_table.insert(key, ai as u32);
                }
            }
        }
        st.assert_neq(checker.tru, checker.fls, AXIOM_TAG);
        st
    }

    fn node(&self, t: TermId) -> usize {
        *self
            .template
            .node_of_term
            .get(&t)
            .unwrap_or_else(|| panic!("term {:?} not in EUF universe", t))
    }

    /// Union-find lookup without path compression (undo safety).
    fn find(&self, mut x: usize) -> usize {
        while self.parent[x] != x {
            x = self.parent[x];
        }
        x
    }

    /// Exact signature of an application node under the current classes.
    fn sig(&self, ai: usize) -> Vec<u32> {
        let app = &self.template.app_nodes[ai];
        let mut key = Vec::with_capacity(app.args.len() + 1);
        key.push(app.op);
        for &arg in &app.args {
            key.push(self.find(arg) as u32);
        }
        key
    }

    fn pf_root(&self, mut x: usize) -> usize {
        while let Some((p, _)) = &self.pf_parent[x] {
            x = *p;
        }
        x
    }

    /// A restore point for [`EufState::undo_to`].
    fn mark(&self) -> usize {
        self.undo.len()
    }

    fn undo_to(&mut self, mark: usize) {
        while self.undo.len() > mark {
            match self.undo.pop().expect("undo above mark") {
                UndoOp::Merge {
                    pf_child,
                    old_pf_root,
                    loser_root,
                    winner_root,
                    winner_use_len,
                } => {
                    self.use_lists[winner_root].truncate(winner_use_len);
                    self.size[winner_root] -= self.size[loser_root];
                    self.parent[loser_root] = loser_root;
                    self.pf_parent[pf_child] = None;
                    self.reroot(old_pf_root);
                }
                UndoOp::SigInsert(key) => {
                    self.sig_table.remove(&key);
                }
                UndoOp::Diseq => {
                    self.diseqs.pop();
                }
                UndoOp::EqTag => {
                    self.eq_tags.pop();
                }
            }
        }
    }

    fn assert_eq(&mut self, a: TermId, b: TermId, tag: usize) {
        let (na, nb) = (self.node(a), self.node(b));
        self.eq_tags.push(tag);
        self.undo.push(UndoOp::EqTag);
        self.merge_classes(na, nb, Reason::Asserted(tag));
    }

    fn assert_neq(&mut self, a: TermId, b: TermId, tag: usize) {
        let (na, nb) = (self.node(a), self.node(b));
        self.diseqs.push((na, nb, tag));
        self.undo.push(UndoOp::Diseq);
    }

    /// Merges the classes of nodes `a` and `b` and eagerly processes the
    /// congruence cascade via the use-lists.
    fn merge_classes(&mut self, a: usize, b: usize, reason: Reason) {
        let mut pending: Vec<(usize, usize, Reason)> = vec![(a, b, reason)];
        while let Some((x, y, reason)) = pending.pop() {
            let (rx, ry) = (self.find(x), self.find(y));
            if rx == ry {
                continue;
            }
            // Union by size; the proof-forest edge always connects the two
            // *nodes* whose equality was derived, independent of which root
            // wins.
            let (winner, loser, pf_child, pf_other) = if self.size[rx] >= self.size[ry] {
                (rx, ry, x, y)
            } else {
                (ry, rx, y, x)
            };
            self.undo.push(UndoOp::Merge {
                pf_child,
                old_pf_root: self.pf_root(pf_child),
                loser_root: loser,
                winner_root: winner,
                winner_use_len: self.use_lists[winner].len(),
            });
            self.reroot(pf_child);
            self.pf_parent[pf_child] = Some((pf_other, reason));
            self.parent[loser] = winner;
            self.size[winner] += self.size[loser];
            // Re-hash every application with an argument in the absorbed
            // class: a signature-table hit is a true congruence (exact keys),
            // a miss records the new signature. The loser's list is kept
            // intact (undo restores by truncating the winner's).
            let lost = std::mem::take(&mut self.use_lists[loser]);
            for &ai_u in &lost {
                let ai = ai_u as usize;
                let key = self.sig(ai);
                match self.sig_table.get(&key).copied() {
                    Some(aj) => {
                        let ni = self.template.app_nodes[ai].node;
                        let nj = self.template.app_nodes[aj as usize].node;
                        if self.find(ni) != self.find(nj) {
                            pending.push((ni, nj, Reason::Congruence(ni, nj)));
                        }
                    }
                    None => {
                        self.undo.push(UndoOp::SigInsert(key.clone()));
                        self.sig_table.insert(key, ai_u);
                    }
                }
            }
            self.use_lists[winner].extend(lost.iter().copied());
            self.use_lists[loser] = lost;
        }
    }

    fn reroot(&mut self, a: usize) {
        let mut path = vec![a];
        let mut cur = a;
        while let Some((p, _)) = &self.pf_parent[cur] {
            cur = *p;
            path.push(cur);
        }
        for i in (1..path.len()).rev() {
            let child = path[i - 1];
            let parent = path[i];
            let (_, reason) = self.pf_parent[child].clone().expect("edge on path");
            self.pf_parent[parent] = Some((child, reason));
        }
        self.pf_parent[a] = None;
    }

    /// Scans the disequalities (in assertion order, like the batch solver)
    /// and returns the conflict tags of the first violated one.
    fn check_diseqs(&mut self, tm: &TermManager) -> Option<Vec<usize>> {
        for k in 0..self.diseqs.len() {
            let (a, b, tag) = self.diseqs[k];
            if self.find(a) == self.find(b) {
                self.explain_incomplete = false;
                let mut tags = self.explain(tm, a, b);
                if self.explain_incomplete {
                    // Sound fallback: blame every asserted equation.
                    tags = self.eq_tags.clone();
                }
                tags.push(tag);
                tags.sort_unstable();
                tags.dedup();
                return Some(tags);
            }
        }
        None
    }

    /// A canonical class index for `t` (comparable only within one state).
    fn class_index(&self, t: TermId) -> Option<usize> {
        let n = *self.template.node_of_term.get(&t)?;
        Some(self.find(n))
    }

    /// Explains why two equal terms are equal: the tags of the asserted
    /// equations used (all of them if the explanation was incomplete).
    fn explain_terms(&mut self, tm: &TermManager, a: TermId, b: TermId) -> Vec<usize> {
        self.explain_incomplete = false;
        let (na, nb) = (self.node(a), self.node(b));
        let tags = self.explain(tm, na, nb);
        if self.explain_incomplete {
            self.eq_tags.clone()
        } else {
            tags
        }
    }

    fn explain(&mut self, tm: &TermManager, a: usize, b: usize) -> Vec<usize> {
        let mut tags = Vec::new();
        self.explain_rec(tm, a, b, &mut tags, 0);
        tags
    }

    fn explain_rec(
        &mut self,
        tm: &TermManager,
        a: usize,
        b: usize,
        tags: &mut Vec<usize>,
        depth: usize,
    ) {
        if a == b {
            return;
        }
        if depth > 10_000 {
            self.explain_incomplete = true;
            return;
        }
        let mut ancestors_a = HashMap::new();
        let mut cur = a;
        let mut idx = 0usize;
        ancestors_a.insert(cur, idx);
        while let Some((p, _)) = &self.pf_parent[cur] {
            cur = *p;
            idx += 1;
            ancestors_a.insert(cur, idx);
        }
        let mut lca = b;
        while !ancestors_a.contains_key(&lca) {
            match &self.pf_parent[lca] {
                Some((p, _)) => lca = *p,
                None => {
                    self.explain_incomplete = true;
                    return;
                }
            }
        }
        let walk =
            |mut x: usize, stop: usize, this: &mut Self, tags: &mut Vec<usize>, depth: usize| {
                while x != stop {
                    let (p, reason) = this.pf_parent[x].clone().expect("path to lca");
                    match reason {
                        Reason::Asserted(t) => tags.push(t),
                        Reason::Congruence(u, v) => {
                            let (tu, tv) = (this.template.terms[u], this.template.terms[v]);
                            let args_u = tm.term(tu).args.clone();
                            let args_v = tm.term(tv).args.clone();
                            for (x_arg, y_arg) in args_u.iter().zip(args_v.iter()) {
                                let (nu, nv) = (this.node(*x_arg), this.node(*y_arg));
                                this.explain_rec(tm, nu, nv, tags, depth + 1);
                            }
                        }
                    }
                    x = p;
                }
            };
        walk(a, lca, self, tags, depth);
        walk(b, lca, self, tags, depth);
    }
}

/// One asserted literal on the session trail, with the restore points that
/// retract it.
#[derive(Clone, Debug)]
struct TrailEntry {
    atom: TermId,
    positive: bool,
    /// EUF undo-trail length before this literal's EUF assertions.
    euf_mark: usize,
    /// Simplex bound-trail length before this literal's bound assertions, or
    /// `usize::MAX` while its simplex part is not loaded. Loaded entries
    /// always form a prefix of the trail (the simplex watermark).
    simplex_mark: usize,
    /// Numeric leaf terms of the literal's simplex constraint, `None` if it
    /// has none. `Some(empty)` (`0 < 0`, the negation of `x <= x`) still goes
    /// to the simplex, which refutes it by its constant. EUF-derived equalities
    /// are propagated between these terms only, as in the batch path.
    arith_terms: Option<Vec<TermId>>,
}

/// The literals one round retracted from the previous trail and asserted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct RoundDelta {
    pub(crate) retracted: u64,
    pub(crate) asserted: u64,
}

/// Result of one [`TheorySession::check_round`], with conflicts already
/// mapped back to `(atom, polarity)` literal pairs (trail indices are an
/// internal detail of the session).
#[derive(Clone, Debug)]
pub(crate) enum SessionCheck {
    /// The asserted literal set is consistent.
    Consistent,
    /// Inconsistent; a jointly inconsistent subset of the asserted literals.
    Conflict(Vec<(TermId, bool)>),
    /// Inconclusive (integer branching limit).
    Unknown,
}

/// Persistent theory state for one [`crate::IncrementalSolver`]: EUF and
/// simplex survive across DPLL(T) rounds, and each round asserts/retracts
/// only the literals that changed since the previous propositional model.
#[derive(Clone, Debug)]
pub(crate) struct TheorySession {
    euf: Option<EufState>,
    simplex: Simplex,
    /// Simplex variable per numeric leaf term, persistent across rounds.
    var_of_term: FxHashMap<TermId, usize>,
    trail: Vec<TrailEntry>,
    /// Number of atoms the checker knew when the session state was built;
    /// a differing count means the atom universe changed (new atoms pushed,
    /// or a method scope popped) and the session rebuilds from the template.
    known_atoms: usize,
    pivot: PivotRule,
}

impl TheorySession {
    /// An empty session; state is materialized lazily on the first round.
    pub(crate) fn new(pivot: PivotRule) -> TheorySession {
        TheorySession {
            euf: None,
            simplex: Simplex::with_rule(pivot),
            var_of_term: FxHashMap::default(),
            trail: Vec::new(),
            known_atoms: 0,
            pivot,
        }
    }

    /// Number of literals currently asserted on the session trail.
    pub(crate) fn trail_len(&self) -> usize {
        self.trail.len()
    }

    /// Drops all per-session state and rebuilds from the checker's current
    /// template. The cumulative pivot counter is carried over so telemetry
    /// deltas stay monotonic.
    fn rebuild(&mut self, checker: &TheoryChecker) {
        self.euf = Some(EufState::new(checker));
        let mut simplex = Simplex::with_rule(self.pivot);
        simplex.enable_slack_reuse();
        simplex.pivots = self.simplex.pivots;
        self.simplex = simplex;
        self.var_of_term.clear();
        self.trail.clear();
        self.known_atoms = checker.kinds.len();
    }

    /// Checks the conjunction of `literals` for consistency, reusing the
    /// state left by the previous round. `literals` must be in a stable
    /// assignment order (the SAT trail order): the longest common prefix
    /// with the previous round's literals is kept asserted, the rest of the
    /// old trail is retracted and the rest of `literals` asserted. Whatever
    /// the verdict, every literal stays on the trail afterwards.
    ///
    /// Returns the verdict, the round's telemetry, and how many literals
    /// were retracted and asserted.
    pub(crate) fn check_round(
        &mut self,
        tm: &TermManager,
        checker: &TheoryChecker,
        literals: &[(TermId, bool)],
    ) -> (SessionCheck, TheoryTelemetry, RoundDelta) {
        let mut tel = TheoryTelemetry::default();

        // ------------------------------------------------------------ EUF phase
        let euf_start = std::time::Instant::now();
        let euf_span = ids_obs::span("euf");

        if self.euf.is_none() || checker.kinds.len() != self.known_atoms {
            self.rebuild(checker);
        }
        let pivots_before = self.simplex.pivots;

        let TheorySession {
            euf,
            simplex,
            var_of_term,
            trail,
            ..
        } = self;
        let euf = euf.as_mut().expect("session rebuilt above");

        // Longest common prefix with the previous round's trail.
        let mut common = 0;
        while common < trail.len()
            && common < literals.len()
            && (trail[common].atom, trail[common].positive) == literals[common]
        {
            common += 1;
        }
        let delta = RoundDelta {
            retracted: (trail.len() - common) as u64,
            asserted: (literals.len() - common) as u64,
        };
        if common < trail.len() {
            euf.undo_to(trail[common].euf_mark);
            // Loaded entries form a prefix: if this one is not loaded, no
            // later one is either.
            if trail[common].simplex_mark != usize::MAX {
                simplex.undo_to(trail[common].simplex_mark);
            }
            trail.truncate(common);
        }

        // Assert the EUF part of each new literal. Simplex parts are loaded
        // after the disequality check, because EUF equalities over numeric
        // terms must be propagated into the simplex.
        let leaves =
            |form: &LinForm| -> Vec<TermId> { form.terms.iter().map(|&(t, _)| t).collect() };
        for (i, &(atom, positive)) in literals.iter().enumerate().skip(common) {
            let euf_mark = euf.mark();
            let arith_terms = match checker.kinds.get(&atom) {
                Some(AtomKind::Eq { a, b, lin }) if positive => {
                    euf.assert_eq(*a, *b, i);
                    lin.as_ref().map(leaves)
                }
                // Negative numeric equalities are covered by the trichotomy
                // lemmas added during lowering.
                Some(AtomKind::Eq { a, b, .. }) => {
                    euf.assert_neq(*a, *b, i);
                    None
                }
                Some(AtomKind::Ineq { lin, .. }) => Some(leaves(lin)),
                Some(AtomKind::Pred) | None => {
                    let target = if positive { checker.tru } else { checker.fls };
                    euf.assert_eq(atom, target, i);
                    None
                }
            };
            trail.push(TrailEntry {
                atom,
                positive,
                euf_mark,
                simplex_mark: usize::MAX,
                arith_terms,
            });
        }

        if let Some(tags) = euf.check_diseqs(tm) {
            // The trail stays: the next round pops only what changed.
            tel.euf_time = euf_start.elapsed();
            let conflict = conflict_lits(trail, &tags, &[]);
            return (SessionCheck::Conflict(conflict), tel, delta);
        }
        drop(euf_span);
        tel.euf_time = euf_start.elapsed();

        // ------------------------------------------------------- simplex phase
        if trail.iter().all(|e| e.arith_terms.is_none()) {
            return (SessionCheck::Consistent, tel, delta);
        }

        let simplex_start = std::time::Instant::now();
        let mut simplex_span = ids_obs::span("simplex");

        // Load the simplex parts from the watermark on: a previous round may
        // have stopped at an EUF conflict or a load conflict.
        let loaded = trail.partition_point(|e| e.simplex_mark != usize::MAX);
        let mut load_error: Option<Vec<usize>> = None;
        for (i, entry) in trail.iter_mut().enumerate().skip(loaded) {
            entry.simplex_mark = simplex.mark();
            // `form rel 0`, negated for a negative inequality: the negation
            // of `a ≤ b` (`a − b ≤ 0`) is `−(a − b) < 0`.
            let (form, negate, rel, both_int) = match checker.kinds.get(&entry.atom) {
                Some(AtomKind::Eq { lin: Some(f), .. }) if entry.positive => {
                    (f, false, Rel::Eq, false)
                }
                Some(AtomKind::Ineq {
                    lin,
                    strict,
                    both_int,
                }) => {
                    let rel = if *strict == entry.positive {
                        Rel::Lt
                    } else {
                        Rel::Le
                    };
                    (lin, !entry.positive, rel, *both_int)
                }
                _ => continue,
            };
            let sign = |q: Rat| if negate { -q } else { q };
            let mut expr = LinExpr::zero();
            expr.constant = sign(form.constant);
            for &(leaf, coeff) in &form.terms {
                let v = *var_of_term.entry(leaf).or_insert_with(|| {
                    simplex.new_var(*checker.leaf_is_int.get(&leaf).unwrap_or(&false))
                });
                expr.add_term(sign(coeff), v);
            }
            // Strict integer inequalities are tightened to non-strict ones
            // (`a < b` becomes `a + 1 <= b`), exactly like the batch path.
            let rel = if rel == Rel::Lt && both_int {
                expr.constant += Rat::ONE;
                Rel::Le
            } else {
                rel
            };
            if let Err(tags) = simplex.add_constraint(&expr, rel, i) {
                // Undo the half-loaded literal (an equality asserts two
                // bounds), keeping the loaded entries a prefix.
                simplex.undo_to(entry.simplex_mark);
                entry.simplex_mark = usize::MAX;
                load_error = Some(tags);
                break;
            }
        }
        if let Some(tags) = load_error {
            let round_pivots = simplex.pivots - pivots_before;
            simplex_span.note(|| format!("pivots={}", round_pivots));
            tel.pivots = round_pivots;
            tel.simplex_time = simplex_start.elapsed();
            let conflict = conflict_lits(trail, &tags, &[]);
            return (SessionCheck::Conflict(conflict), tel, delta);
        }

        // Propagate EUF-derived equalities between the numeric leaf terms of
        // the currently asserted literals. These are justified by the current
        // congruence classes, so they never outlive the round: they are
        // always popped below, whatever the verdict.
        let derived_mark = simplex.mark();
        let mut derived_explanations: Vec<Vec<usize>> = Vec::new();
        let mut seen: FxHashMap<TermId, ()> = FxHashMap::default();
        let mut terms_in_order: Vec<TermId> = Vec::new();
        for &t in trail.iter().flat_map(|e| e.arith_terms.iter().flatten()) {
            if seen.insert(t, ()).is_none() {
                terms_in_order.push(t);
            }
        }
        let mut by_class: FxHashMap<usize, Vec<TermId>> = FxHashMap::default();
        for &t in &terms_in_order {
            if let Some(c) = euf.class_index(t) {
                by_class.entry(c).or_default().push(t);
            }
        }
        let mut derived_error: Option<Vec<usize>> = None;
        'groups: for (_, group) in by_class {
            if group.len() < 2 {
                continue;
            }
            for w in group.windows(2) {
                let (a, b) = (w[0], w[1]);
                let explanation = euf.explain_terms(tm, a, b);
                let derived_tag = DERIVED_BASE + derived_explanations.len();
                derived_explanations.push(explanation);
                let mut expr = LinExpr::variable(var_of_term[&a]);
                expr.add_term(-Rat::ONE, var_of_term[&b]);
                if let Err(tags) = simplex.add_constraint(&expr, Rel::Eq, derived_tag) {
                    derived_error = Some(tags);
                    break 'groups;
                }
            }
        }

        let outcome = if let Some(tags) = derived_error {
            SessionCheck::Conflict(conflict_lits(trail, &tags, &derived_explanations))
        } else {
            match simplex.check() {
                ArithOutcome::Sat(_) => SessionCheck::Consistent,
                ArithOutcome::Conflict(tags) => {
                    SessionCheck::Conflict(conflict_lits(trail, &tags, &derived_explanations))
                }
                ArithOutcome::Unknown => SessionCheck::Unknown,
            }
        };
        // Retract the derived equalities; the trail literals themselves are
        // fully asserted and stay.
        simplex.undo_to(derived_mark);
        let round_pivots = simplex.pivots - pivots_before;
        simplex_span.note(|| format!("pivots={}", round_pivots));
        tel.pivots = round_pivots;
        tel.simplex_time = simplex_start.elapsed();
        (outcome, tel, delta)
    }
}

/// Maps conflict tags (trail indices, derived tags, the axiom sentinel) back
/// to `(atom, polarity)` pairs of asserted literals.
fn conflict_lits(
    trail: &[TrailEntry],
    tags: &[usize],
    derived: &[Vec<usize>],
) -> Vec<(TermId, bool)> {
    let mut idxs: Vec<usize> = Vec::new();
    for &t in tags {
        if t == AXIOM_TAG {
            continue;
        }
        if t >= DERIVED_BASE {
            for &u in &derived[t - DERIVED_BASE] {
                if u != AXIOM_TAG {
                    idxs.push(u);
                }
            }
        } else {
            idxs.push(t);
        }
    }
    idxs.sort_unstable();
    idxs.dedup();
    idxs.into_iter()
        .map(|t| (trail[t].atom, trail[t].positive))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Sort;
    use crate::theory::TheoryCheck;

    /// Deterministic xorshift generator for the differential fuzz.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.next() % 100 < percent
        }
    }

    fn verdict_name(c: &SessionCheck) -> &'static str {
        match c {
            SessionCheck::Consistent => "consistent",
            SessionCheck::Conflict(_) => "conflict",
            SessionCheck::Unknown => "unknown",
        }
    }

    fn batch_verdict_name(c: &TheoryCheck) -> &'static str {
        match c {
            TheoryCheck::Consistent => "consistent",
            TheoryCheck::Conflict(_) => "conflict",
            TheoryCheck::Unknown => "unknown",
        }
    }

    /// A mixed EUF + arithmetic atom universe exercising congruence chains,
    /// predicates, derived-equality propagation and integer tightening.
    fn mixed_universe() -> (TermManager, Vec<TermId>) {
        let mut tm = TermManager::new();
        let locs: Vec<TermId> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| tm.var(n, Sort::Loc))
            .collect();
        let keys: Vec<TermId> = locs
            .iter()
            .map(|&l| tm.app("key", vec![l], Sort::Int))
            .collect();
        let mut atoms = Vec::new();
        for i in 0..locs.len() {
            for j in (i + 1)..locs.len() {
                atoms.push(tm.eq(locs[i], locs[j]));
            }
        }
        let fa = tm.app("f", vec![locs[0]], Sort::Loc);
        let fb = tm.app("f", vec![locs[1]], Sort::Loc);
        atoms.push(tm.eq(fa, fb));
        atoms.push(tm.app("p", vec![locs[0]], Sort::Bool));
        atoms.push(tm.app("p", vec![locs[2]], Sort::Bool));
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                atoms.push(tm.le(keys[i], keys[j]));
            }
        }
        let five = tm.int(5);
        let seven = tm.int(7);
        atoms.push(tm.le(keys[0], five));
        atoms.push(tm.ge(keys[1], seven));
        atoms.push(tm.lt(keys[2], keys[3]));
        atoms.push(tm.eq(keys[0], keys[3]));
        (tm, atoms)
    }

    /// An EUF-only universe (no arithmetic atoms), where the trail engine and
    /// a fresh rebuild are bit-exact — verdicts AND conflict explanations.
    fn euf_universe() -> (TermManager, Vec<TermId>) {
        let mut tm = TermManager::new();
        let vars: Vec<TermId> = ["x", "y", "z", "w"]
            .iter()
            .map(|n| tm.var(n, Sort::Loc))
            .collect();
        let apps: Vec<TermId> = vars
            .iter()
            .map(|&v| tm.app("g", vec![v], Sort::Loc))
            .collect();
        let nested: Vec<TermId> = apps
            .iter()
            .map(|&a| tm.app("g", vec![a], Sort::Loc))
            .collect();
        let mut atoms = Vec::new();
        for i in 0..vars.len() {
            for j in (i + 1)..vars.len() {
                atoms.push(tm.eq(vars[i], vars[j]));
            }
        }
        for i in 0..apps.len() {
            for j in (i + 1)..apps.len() {
                atoms.push(tm.eq(apps[i], apps[j]));
            }
        }
        atoms.push(tm.eq(nested[0], nested[2]));
        atoms.push(tm.app("q", vec![vars[0]], Sort::Bool));
        atoms.push(tm.app("q", vec![vars[3]], Sort::Bool));
        (tm, atoms)
    }

    /// Evolves a literal sequence like a CDCL trail: pop a random suffix,
    /// then append random fresh literals (each atom at most once).
    fn evolve(rng: &mut Rng, atoms: &[TermId], current: &mut Vec<(TermId, bool)>) {
        let keep = if current.is_empty() {
            0
        } else {
            rng.below(current.len() + 1)
        };
        current.truncate(keep);
        let used: Vec<TermId> = current.iter().map(|&(a, _)| a).collect();
        let mut candidates: Vec<TermId> = atoms
            .iter()
            .copied()
            .filter(|a| !used.contains(a))
            .collect();
        let add = rng.below(candidates.len() + 1);
        for _ in 0..add {
            if candidates.is_empty() {
                break;
            }
            let k = rng.below(candidates.len());
            let atom = candidates.swap_remove(k);
            current.push((atom, rng.chance(60)));
        }
    }

    /// Asserting exactly the reported conflict literals must itself be
    /// inconsistent (checked with the independent batch path): every
    /// explanation the session returns is a true theory lemma.
    fn assert_conflict_valid(
        tm: &TermManager,
        checker: &TheoryChecker,
        conflict: &[(TermId, bool)],
        context: &str,
    ) {
        assert!(
            !conflict.is_empty(),
            "{context}: empty conflict (would be the trivially-unsat clause)"
        );
        match checker.check(tm, conflict) {
            TheoryCheck::Conflict(_) => {}
            other => panic!("{context}: reported conflict is not inconsistent: {other:?}"),
        }
    }

    /// Differential fuzz, mixed theories: the persistent session must agree
    /// on the verdict with (a) the batch rebuild-per-round checker and
    /// (b) a fresh session asserting the same literals in one shot, on every
    /// round of a long random assert/retract schedule; every conflict either
    /// engine reports must be independently valid.
    #[test]
    fn fuzz_session_agrees_with_rebuild_mixed() {
        let (tm, atoms) = mixed_universe();
        let mut tm = tm;
        let checker = TheoryChecker::new(&mut tm, &atoms);
        let mut rng = Rng(0x5eed_cafe_f00d_0001);
        let mut session = TheorySession::new(PivotRule::Bland);
        let mut literals: Vec<(TermId, bool)> = Vec::new();
        for round in 0..400 {
            evolve(&mut rng, &atoms, &mut literals);
            let (got, _, _) = session.check_round(&tm, &checker, &literals);
            let (want, _) = checker.check_with(&tm, &literals, PivotRule::Bland);
            assert_eq!(
                verdict_name(&got),
                batch_verdict_name(&want),
                "round {round}: session vs batch on {literals:?}"
            );
            let mut fresh = TheorySession::new(PivotRule::Bland);
            let (replay, _, _) = fresh.check_round(&tm, &checker, &literals);
            assert_eq!(
                verdict_name(&got),
                verdict_name(&replay),
                "round {round}: session vs fresh replay on {literals:?}"
            );
            if let SessionCheck::Conflict(c) = &got {
                assert_conflict_valid(&tm, &checker, c, &format!("round {round} session"));
            }
            if let SessionCheck::Conflict(c) = &replay {
                assert_conflict_valid(&tm, &checker, c, &format!("round {round} replay"));
            }
        }
    }

    /// Differential fuzz, EUF only: with no simplex involved the persistent
    /// session and a fresh rebuild are bit-exact, so verdicts AND conflict
    /// explanations must be identical on every round.
    #[test]
    fn fuzz_euf_explanations_identical_to_rebuild() {
        let (tm, atoms) = euf_universe();
        let mut tm = tm;
        let checker = TheoryChecker::new(&mut tm, &atoms);
        let mut rng = Rng(0xdead_beef_0000_0042);
        let mut session = TheorySession::new(PivotRule::Bland);
        let mut literals: Vec<(TermId, bool)> = Vec::new();
        let mut conflicts_seen = 0;
        for round in 0..400 {
            evolve(&mut rng, &atoms, &mut literals);
            let (got, _, _) = session.check_round(&tm, &checker, &literals);
            let mut fresh = TheorySession::new(PivotRule::Bland);
            let (replay, _, _) = fresh.check_round(&tm, &checker, &literals);
            match (&got, &replay) {
                (SessionCheck::Consistent, SessionCheck::Consistent) => {}
                (SessionCheck::Conflict(a), SessionCheck::Conflict(b)) => {
                    assert_eq!(a, b, "round {round}: explanations diverged on {literals:?}");
                    assert_conflict_valid(&tm, &checker, a, &format!("round {round}"));
                    conflicts_seen += 1;
                }
                other => panic!("round {round}: verdicts diverged: {other:?}"),
            }
            let (want, _) = checker.check_with(&tm, &literals, PivotRule::Bland);
            assert_eq!(
                verdict_name(&got),
                batch_verdict_name(&want),
                "round {round}"
            );
        }
        assert!(
            conflicts_seen >= 20,
            "fuzz schedule too tame: only {conflicts_seen} conflicts"
        );
    }

    /// Asserts that two sessions hold identical EUF structures.
    fn assert_same_euf(a: &TheorySession, b: &TheorySession, context: &str) {
        let (a, b) = (a.euf.as_ref().expect("euf"), b.euf.as_ref().expect("euf"));
        assert_eq!(a.parent, b.parent, "{context}: union-find links");
        assert_eq!(a.size, b.size, "{context}: class sizes");
        assert_eq!(a.use_lists, b.use_lists, "{context}: use lists");
        assert_eq!(a.sig_table, b.sig_table, "{context}: signature table");
        assert_eq!(a.diseqs, b.diseqs, "{context}: disequalities");
        assert_eq!(a.eq_tags, b.eq_tags, "{context}: equation tags");
        assert_eq!(a.undo.len(), b.undo.len(), "{context}: undo trail length");
    }

    /// Length of the loaded simplex prefix; checks that it is a prefix.
    fn simplex_watermark(s: &TheorySession) -> usize {
        let loaded = s.trail.partition_point(|e| e.simplex_mark != usize::MAX);
        let rest = &s.trail[loaded..];
        assert!(
            rest.iter().all(|e| e.simplex_mark == usize::MAX),
            "not a prefix"
        );
        loaded
    }

    /// Exact-undo check on the internals: push a round, retract it by running
    /// a round with the old literals, and compare every EUF structure field
    /// against a snapshot taken before the push. Conflicting rounds are
    /// compared too: their literals stay on the trail.
    #[test]
    fn undo_restores_euf_state_exactly() {
        let (tm, atoms) = mixed_universe();
        let mut tm = tm;
        let checker = TheoryChecker::new(&mut tm, &atoms);
        let mut rng = Rng(0x0123_4567_89ab_cdef);
        let mut session = TheorySession::new(PivotRule::Bland);
        let mut literals: Vec<(TermId, bool)> = Vec::new();
        let (mut conflicts, mut simplex_compared) = (0, 0);
        for round in 0..400 {
            evolve(&mut rng, &atoms, &mut literals);
            let (res, _, _) = session.check_round(&tm, &checker, &literals);
            conflicts += matches!(res, SessionCheck::Conflict(_)) as usize;
            let snapshot = session.clone();
            let mut extended = literals.clone();
            evolve(&mut rng, &atoms, &mut extended);
            session.check_round(&tm, &checker, &extended);
            // Retract by re-checking the original sequence.
            session.check_round(&tm, &checker, &literals);
            assert_same_euf(&session, &snapshot, &format!("round {round}"));
            assert_eq!(session.trail_len(), literals.len(), "round {round}");
            // After an EUF conflict the loaded simplex prefix depends on what
            // earlier rounds loaded; equal prefixes must hold equal bounds.
            if simplex_watermark(&session) == simplex_watermark(&snapshot) {
                let marks = (session.simplex.mark(), snapshot.simplex.mark());
                assert_eq!(marks.0, marks.1, "round {round}: simplex bound trail");
                simplex_compared += 1;
            }
        }
        assert!(conflicts >= 20, "too few conflict rounds: {conflicts}");
        assert!(simplex_compared >= 30, "too few simplex comparisons");
    }

    /// Directed regression: a linear form whose terms cancel entirely (the
    /// negation of `x <= x` is `0 < 0`) carries no numeric leaf terms, but
    /// its constant constraint must still reach the simplex and conflict by
    /// itself. An early version skipped the simplex phase whenever no trail
    /// literal had leaf terms, wrongly declaring such rounds consistent.
    #[test]
    fn constant_infeasible_ineq_conflicts_alone() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Int);
        let le_xx = tm.le(x, x);
        let checker = TheoryChecker::new(&mut tm, &[le_xx]);
        let mut session = TheorySession::new(PivotRule::Bland);
        let lits = vec![(le_xx, false)];
        let (res, _, _) = session.check_round(&tm, &checker, &lits);
        match res {
            SessionCheck::Conflict(c) => assert_eq!(c, vec![(le_xx, false)]),
            other => panic!("expected conflict, got {other:?}"),
        }
        // And the positive polarity (0 <= 0) is consistent.
        let lits = vec![(le_xx, true)];
        let (res, _, _) = session.check_round(&tm, &checker, &lits);
        assert!(matches!(res, SessionCheck::Consistent), "{res:?}");
    }

    /// Directed: a congruence conflict discovered only after a retraction
    /// swapped which equality chain is asserted, then retracted in turn.
    #[test]
    fn congruence_conflict_across_retraction() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        let y = tm.var("y", Sort::Loc);
        let z = tm.var("z", Sort::Loc);
        let fx = tm.app("f", vec![x], Sort::Loc);
        let fz = tm.app("f", vec![z], Sort::Loc);
        let eq_xy = tm.eq(x, y);
        let eq_yz = tm.eq(y, z);
        let eq_f = tm.eq(fx, fz);
        let checker = TheoryChecker::new(&mut tm, &[eq_xy, eq_yz, eq_f]);
        let mut session = TheorySession::new(PivotRule::Bland);
        // Round 1: x=y alone, consistent.
        let r1 = vec![(eq_xy, true), (eq_f, false)];
        let (res, _, _) = session.check_round(&tm, &checker, &r1);
        assert!(matches!(res, SessionCheck::Consistent), "{res:?}");
        // Round 2: retract f(x)!=f(z), assert y=z and f(x)!=f(z) again after
        // it — the congruence f(x)=f(z) now follows and conflicts.
        let r2 = vec![(eq_xy, true), (eq_yz, true), (eq_f, false)];
        let (res, _, delta) = session.check_round(&tm, &checker, &r2);
        match res {
            SessionCheck::Conflict(mut c) => {
                c.sort();
                let mut want = vec![(eq_xy, true), (eq_yz, true), (eq_f, false)];
                want.sort();
                assert_eq!(c, want);
            }
            other => panic!("expected conflict, got {other:?}"),
        }
        // Old trail shared the [(eq_xy, true)] prefix: popped 1, pushed 2.
        assert_eq!((delta.retracted, delta.asserted), (1, 2));
        // Round 3: the conflict left its literals asserted, so dropping the
        // last one is a delta of one, and the state equals a fresh replay.
        let (res, _, delta) = session.check_round(&tm, &checker, &r2[..2]);
        assert!(matches!(res, SessionCheck::Consistent), "{res:?}");
        assert_eq!((delta.retracted, delta.asserted), (1, 0));
        let mut fresh = TheorySession::new(PivotRule::Bland);
        fresh.check_round(&tm, &checker, &r2[..2]);
        assert_same_euf(&session, &fresh, "after the retraction");
    }

    /// Directed: warm simplex restart keeps bounds of retained literals and
    /// retracts only the popped ones. `x = 5` asserts `x <= 5`, then
    /// `x >= 5`, which conflicts with `x <= 3`: only the equality is left
    /// unloaded, and retracting it leaves the bounds of a fresh replay.
    #[test]
    fn simplex_bounds_retract_with_their_literals() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Int);
        let y = tm.var("y", Sort::Int);
        let three = tm.int(3);
        let five = tm.int(5);
        let le3 = tm.le(x, three);
        let y_ge3 = tm.ge(y, three);
        let eq5 = tm.eq(x, five);
        let checker = TheoryChecker::new(&mut tm, &[le3, y_ge3, eq5]);
        let mut session = TheorySession::new(PivotRule::Bland);
        let lits = [(le3, true), (y_ge3, true), (eq5, true)];
        let (res, _, _) = session.check_round(&tm, &checker, &lits);
        let SessionCheck::Conflict(mut c) = res else {
            panic!("expected conflict, got {res:?}")
        };
        c.sort();
        assert_eq!(c, vec![(le3, true), (eq5, true)]);
        assert_eq!(simplex_watermark(&session), 2, "only the equality unloaded");
        // Retract the equality alone: consistent, with a fresh replay's bounds.
        let (res, _, delta) = session.check_round(&tm, &checker, &lits[..2]);
        assert!(matches!(res, SessionCheck::Consistent), "{res:?}");
        assert_eq!((delta.retracted, delta.asserted), (1, 0));
        let mut fresh = TheorySession::new(PivotRule::Bland);
        fresh.check_round(&tm, &checker, &lits[..2]);
        assert_eq!(session.simplex.mark(), fresh.simplex.mark());
        // Retract x <= 3, keep x = 5: consistent again — the old bound must
        // not linger in the warm-restarted tableau.
        let (res, _, _) = session.check_round(&tm, &checker, &lits[1..]);
        assert!(matches!(res, SessionCheck::Consistent), "{res:?}");
    }

    /// The session detects checker growth (new atoms pushed mid-scope) and
    /// rebuilds instead of answering from a stale template.
    #[test]
    fn rebuilds_when_checker_learns_new_atoms() {
        let mut tm = TermManager::new();
        let x = tm.var("x", Sort::Loc);
        let y = tm.var("y", Sort::Loc);
        let eq_xy = tm.eq(x, y);
        let mut checker = TheoryChecker::new(&mut tm, &[eq_xy]);
        let mut session = TheorySession::new(PivotRule::Bland);
        let (res, _, _) = session.check_round(&tm, &checker, &[(eq_xy, true)]);
        assert!(matches!(res, SessionCheck::Consistent));
        // New atoms arrive (a later assertion batch).
        let fx = tm.app("f", vec![x], Sort::Loc);
        let fy = tm.app("f", vec![y], Sort::Loc);
        let eq_f = tm.eq(fx, fy);
        checker.extend(&tm, &[eq_f]);
        let lits = vec![(eq_xy, true), (eq_f, false)];
        let (res, _, _) = session.check_round(&tm, &checker, &lits);
        match res {
            SessionCheck::Conflict(mut c) => {
                c.sort();
                let mut want = lits.clone();
                want.sort();
                assert_eq!(c, want);
            }
            other => panic!("expected congruence conflict, got {other:?}"),
        }
    }
}
