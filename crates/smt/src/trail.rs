//! Trail-based persistent theory state for the online DPLL(T) engine.
//!
//! [`TheorySession`] is the theory side of the SAT core's theory hook
//! ([`crate::sat::Theory`]). The SAT core calls it at every propagation
//! fixpoint and on every complete assignment, with its trail and the length
//! of the trail prefix that is unchanged since the previous call. The session
//! keeps the literals of that prefix asserted, retracts its own entries past
//! it, and asserts the new suffix; only live theory atoms are asserted
//! (Tseitin variables and dead atoms are skipped). At a fixpoint it then
//! runs the EUF check alone; on a complete assignment it also loads the
//! simplex and propagates EUF-derived equalities into it. Nothing is undone
//! after a conflict: the SAT backjump retracts a conflict literal, and the
//! next call pops exactly what the SAT trail changed. Retraction is exact
//! undo —
//!
//! * EUF is a union-find **without path compression** (so links can be
//!   unwound), with union-by-size, a proof forest for explanations, per-class
//!   use-lists for incremental congruence, an exact signature table and
//!   per-class disequality lists, in which *every* mutation is recorded on an
//!   undo trail. Popping a literal restores the structure bit-for-bit: the
//!   state, and so every conflict explanation, equals a fresh replay of the
//!   asserted literals.
//! * Asserting a literal allocates nothing once the buffers have grown:
//!   signature keys are fixed-size arrays for arity ≤ 3, the merge worklist
//!   is a reused buffer, proof-forest re-rooting reverses the path in place,
//!   and explanations find common ancestors with a stamped array.
//! * Disequalities are checked incrementally: a merge scans the disequality
//!   list of one of the two classes and records each disequality it
//!   violates, so a check only looks at the violations recorded since the
//!   state was last consistent, not at every disequality.
//! * Simplex keeps its tableau, basis and slack variables across checks
//!   (warm restart); retraction only rolls back bound tightenings via
//!   [`crate::simplex::Simplex::undo_to`]. Slack variables are reused across
//!   re-assertions of the same linear form so the tableau does not grow with
//!   the number of checks.
//!
//! Simplex parts are loaded only by complete checks, after the EUF phase.
//! Loaded entries always form a prefix of the trail; the rest have
//! `simplex_mark == usize::MAX`. Each simplex phase loads from that
//! watermark on, and a load conflict unloads only the literal that failed.
//!
//! Verdicts are identical to the batch path: congruence closure reaches the
//! same fixpoint regardless of merge order, simplex verdicts are independent
//! of pivot history, and the EUF-derived equality propagation is restricted
//! to exactly the numeric leaf terms of the *currently asserted* literals
//! (the same set the batch path derives per check). Conflict *explanations*
//! may differ from the batch path's (different merge/pivot order picks a
//! different valid inconsistent subset), which is fine for DPLL(T): any
//! inconsistent subset yields a sound theory lemma.

use crate::euf::{EufTemplate, Reason};
use crate::fxmap::FxHashMap;
use crate::rational::Rat;
use crate::sat::Lit;
use crate::simplex::{ArithOutcome, LinExpr, PivotRule, Rel, Simplex};
use crate::term::TermId;
use crate::theory::{AtomKind, LinForm, TheoryChecker, TheoryTelemetry, AXIOM_TAG};

/// Tags at or above this refer to per-check EUF-derived equalities; their
/// explanations (trail tags) replace them in conflicts. Trail indices are far
/// below this for any conceivable literal count.
const DERIVED_BASE: usize = usize::MAX / 2;

/// An exact congruence signature: the interned operator and the class roots
/// of the arguments. Arity ≤ 3 (every built-in operator) fits a fixed array
/// padded with `u32::MAX`, so hashing and trailing it allocates nothing.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum SigKey {
    Short([u32; 4]),
    Long(Box<[u32]>),
}

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
        winner_diseq_len: usize,
    },
    /// A fresh signature-table entry under this key (entries are never
    /// overwritten: a colliding key means congruent nodes, which get merged).
    SigInsert(SigKey),
    /// A pushed disequality, listed under the classes rooted at `ra` and
    /// `rb` (once if they are equal).
    Diseq { ra: usize, rb: usize },
    /// A pushed asserted-equation tag.
    EqTag,
}

/// Backtrackable congruence closure: the incremental, exact-undo counterpart
/// of the batch [`crate::euf::Euf`] solver. Congruence is maintained eagerly
/// on every assertion (use-list driven), so there is no fixpoint pass over
/// all application nodes.
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
    /// The application index of each node (`u32::MAX` for non-applications).
    app_of: Vec<u32>,
    /// Exact signature table: [`SigKey`] → application index. A lookup hit
    /// means true congruence (no hashing ambiguity). Keys containing a
    /// merged-away root are unreachable until the merge is undone, at which
    /// point the table has been restored to match.
    sig_table: FxHashMap<SigKey, u32>,
    /// Asserted disequalities: nodes and tag.
    diseqs: Vec<(usize, usize, usize)>,
    /// `diseq_lists[r]`: indices of the disequalities with an endpoint in the
    /// class rooted at `r`, merged and undone like `use_lists`.
    diseq_lists: Vec<Vec<u32>>,
    /// Violated disequalities in detection order, each with the index of the
    /// undo entry that violated it (undoing that entry clears it).
    violated: Vec<(u32, usize)>,
    eq_tags: Vec<usize>,
    undo: Vec<UndoOp>,
    /// The merge worklist, kept to reuse its buffer.
    pending: Vec<(usize, usize, Reason)>,
    /// Stamps of the nodes visited by the current explanation step.
    stamp: Vec<u32>,
    stamp_gen: u32,
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
            app_of: vec![u32::MAX; n],
            sig_table: FxHashMap::default(),
            diseqs: Vec::new(),
            diseq_lists: vec![Vec::new(); n],
            violated: Vec::new(),
            eq_tags: Vec::new(),
            undo: Vec::new(),
            pending: Vec::new(),
            stamp: vec![0; n],
            stamp_gen: 0,
            explain_incomplete: false,
            template,
        };
        for (ai, app) in st.template.app_nodes.iter().enumerate() {
            st.app_of[app.node] = ai as u32;
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
    fn sig(&self, ai: usize) -> SigKey {
        let app = &self.template.app_nodes[ai];
        if app.args.len() < 4 {
            let mut key = [u32::MAX; 4];
            key[0] = app.op;
            for (k, &arg) in app.args.iter().enumerate() {
                key[k + 1] = self.find(arg) as u32;
            }
            SigKey::Short(key)
        } else {
            let roots = app.args.iter().map(|&arg| self.find(arg) as u32);
            SigKey::Long(std::iter::once(app.op).chain(roots).collect())
        }
    }

    fn pf_root(&self, mut x: usize) -> usize {
        while let Some((p, _)) = self.pf_parent[x] {
            x = p;
        }
        x
    }

    /// A restore point for [`EufState::undo_to`].
    fn mark(&self) -> usize {
        self.undo.len()
    }

    fn undo_to(&mut self, mark: usize) {
        while self.violated.last().is_some_and(|&(_, at)| at >= mark) {
            self.violated.pop();
        }
        while self.undo.len() > mark {
            match self.undo.pop().expect("undo above mark") {
                UndoOp::Merge {
                    pf_child,
                    old_pf_root,
                    loser_root,
                    winner_root,
                    winner_use_len,
                    winner_diseq_len,
                } => {
                    self.use_lists[winner_root].truncate(winner_use_len);
                    self.diseq_lists[winner_root].truncate(winner_diseq_len);
                    self.size[winner_root] -= self.size[loser_root];
                    self.parent[loser_root] = loser_root;
                    self.pf_parent[pf_child] = None;
                    self.reroot(old_pf_root);
                }
                UndoOp::SigInsert(key) => {
                    self.sig_table.remove(&key);
                }
                UndoOp::Diseq { ra, rb } => {
                    self.diseqs.pop();
                    self.diseq_lists[ra].pop();
                    if rb != ra {
                        self.diseq_lists[rb].pop();
                    }
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
        let (ra, rb) = (self.find(na), self.find(nb));
        let d = self.diseqs.len() as u32;
        self.diseqs.push((na, nb, tag));
        self.diseq_lists[ra].push(d);
        if rb != ra {
            self.diseq_lists[rb].push(d);
        } else {
            self.violated.push((d, self.undo.len()));
        }
        self.undo.push(UndoOp::Diseq { ra, rb });
    }

    /// Merges the classes of nodes `a` and `b` and eagerly processes the
    /// congruence cascade via the use-lists.
    fn merge_classes(&mut self, a: usize, b: usize, reason: Reason) {
        let mut pending = std::mem::take(&mut self.pending);
        pending.push((a, b, reason));
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
            // Disequalities between the two classes become violated. Each
            // is listed under both classes, so the shorter list finds all.
            let merge_at = self.undo.len();
            let scan = if self.diseq_lists[loser].len() <= self.diseq_lists[winner].len() {
                loser
            } else {
                winner
            };
            for k in 0..self.diseq_lists[scan].len() {
                let d = self.diseq_lists[scan][k];
                let (da, db, _) = self.diseqs[d as usize];
                let (ra, rb) = (self.find(da), self.find(db));
                if (ra == winner && rb == loser) || (ra == loser && rb == winner) {
                    self.violated.push((d, merge_at));
                }
            }
            self.undo.push(UndoOp::Merge {
                pf_child,
                old_pf_root: self.pf_root(pf_child),
                loser_root: loser,
                winner_root: winner,
                winner_use_len: self.use_lists[winner].len(),
                winner_diseq_len: self.diseq_lists[winner].len(),
            });
            self.reroot(pf_child);
            self.pf_parent[pf_child] = Some((pf_other, reason));
            self.parent[loser] = winner;
            self.size[winner] += self.size[loser];
            // Re-hash every application with an argument in the absorbed
            // class: a signature-table hit is a true congruence (exact keys),
            // a miss records the new signature. The loser's lists are kept
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
            self.use_lists[winner].extend_from_slice(&lost);
            self.use_lists[loser] = lost;
            let lost = std::mem::take(&mut self.diseq_lists[loser]);
            self.diseq_lists[winner].extend_from_slice(&lost);
            self.diseq_lists[loser] = lost;
        }
        self.pending = pending;
    }

    /// Makes `a` the root of its proof tree by reversing the path from `a`
    /// to the old root in place.
    fn reroot(&mut self, a: usize) {
        let mut prev: Option<(usize, Reason)> = None;
        let mut cur = a;
        loop {
            let next = std::mem::replace(&mut self.pf_parent[cur], prev);
            match next {
                Some((p, reason)) => {
                    prev = Some((cur, reason));
                    cur = p;
                }
                None => break,
            }
        }
    }

    /// The conflict tags of the first violated disequality, if any.
    fn conflict(&mut self) -> Option<Vec<usize>> {
        let &(d, _) = self.violated.first()?;
        let (a, b, tag) = self.diseqs[d as usize];
        let mut tags = self.explain(a, b);
        tags.push(tag);
        tags.sort_unstable();
        tags.dedup();
        Some(tags)
    }

    /// A canonical class index for `t` (comparable only within one state).
    fn class_index(&self, t: TermId) -> Option<usize> {
        let n = *self.template.node_of_term.get(&t)?;
        Some(self.find(n))
    }

    /// Explains why two equal terms are equal: the tags of the asserted
    /// equations used (all of them if the explanation was incomplete).
    fn explain_terms(&mut self, a: TermId, b: TermId) -> Vec<usize> {
        let (na, nb) = (self.node(a), self.node(b));
        self.explain(na, nb)
    }

    /// The tags of the asserted equations that make nodes `a` and `b` equal
    /// (all of them if the explanation was incomplete).
    fn explain(&mut self, a: usize, b: usize) -> Vec<usize> {
        self.explain_incomplete = false;
        let mut tags = Vec::new();
        self.explain_rec(a, b, &mut tags, 0);
        if self.explain_incomplete {
            // Sound fallback: blame every asserted equation.
            return self.eq_tags.clone();
        }
        tags
    }

    fn explain_rec(&mut self, a: usize, b: usize, tags: &mut Vec<usize>, depth: usize) {
        if a == b {
            return;
        }
        if depth > 10_000 {
            self.explain_incomplete = true;
            return;
        }
        // Stamp `a`'s ancestors; the first stamped ancestor of `b` is the
        // lowest common one.
        if self.stamp_gen == u32::MAX {
            self.stamp.fill(0);
            self.stamp_gen = 0;
        }
        self.stamp_gen += 1;
        let gen = self.stamp_gen;
        let mut cur = a;
        self.stamp[cur] = gen;
        while let Some((p, _)) = self.pf_parent[cur] {
            cur = p;
            self.stamp[cur] = gen;
        }
        let mut lca = b;
        while self.stamp[lca] != gen {
            match self.pf_parent[lca] {
                Some((p, _)) => lca = p,
                None => {
                    self.explain_incomplete = true;
                    return;
                }
            }
        }
        self.explain_path(a, lca, tags, depth);
        self.explain_path(b, lca, tags, depth);
    }

    /// Collects the reasons of the proof-forest edges from `x` up to `stop`.
    fn explain_path(&mut self, mut x: usize, stop: usize, tags: &mut Vec<usize>, depth: usize) {
        while x != stop {
            let (p, reason) = self.pf_parent[x].expect("path to lca");
            match reason {
                Reason::Asserted(t) => tags.push(t),
                Reason::Congruence(u, v) => {
                    let (au, av) = (self.app_of[u] as usize, self.app_of[v] as usize);
                    for k in 0..self.template.app_nodes[au].args.len() {
                        let nu = self.template.app_nodes[au].args[k];
                        let nv = self.template.app_nodes[av].args[k];
                        self.explain_rec(nu, nv, tags, depth + 1);
                    }
                }
            }
            x = p;
        }
    }
}

/// One asserted literal on the session trail, with the restore points that
/// retract it.
#[derive(Clone, Debug)]
struct TrailEntry {
    /// The SAT literal and its position on the SAT trail.
    lit: Lit,
    sat_pos: usize,
    atom: TermId,
    /// EUF undo-trail length before this literal's EUF assertions.
    euf_mark: usize,
    /// Simplex bound-trail length before this literal's bound assertions, or
    /// `usize::MAX` while its simplex part is not loaded. Loaded entries
    /// always form a prefix of the trail (the simplex watermark).
    simplex_mark: usize,
    /// Whether the literal has a simplex constraint. One whose terms cancel
    /// (`0 < 0`, the negation of `x <= x`) still goes to the simplex, which
    /// refutes it by its constant.
    arith: bool,
}

/// The literals one check retracted from the session trail and asserted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct RoundDelta {
    pub(crate) retracted: u64,
    pub(crate) asserted: u64,
}

/// Result of one [`TheorySession::check`], with conflicts already mapped
/// back to the asserted SAT literals (trail indices are an internal detail
/// of the session).
#[derive(Clone, Debug)]
pub(crate) enum SessionCheck {
    /// The asserted literal set is consistent.
    Consistent,
    /// Inconsistent; a jointly inconsistent subset of the asserted literals.
    Conflict(Vec<Lit>),
    /// Inconclusive (integer branching limit).
    Unknown,
}

/// The simplex constraint of an asserted literal: `form rel 0`, negated for a
/// negative inequality (the negation of `a ≤ b`, `a − b ≤ 0`, is
/// `−(a − b) < 0`), with whether both sides are integers. `None` if the
/// literal has no arithmetic part: negative numeric equalities are covered
/// by the trichotomy lemmas added during lowering.
fn arith_part(
    checker: &TheoryChecker,
    atom: TermId,
    positive: bool,
) -> Option<(&LinForm, bool, Rel, bool)> {
    match checker.kinds.get(&atom) {
        Some(AtomKind::Eq { lin: Some(f), .. }) if positive => Some((f, false, Rel::Eq, false)),
        Some(AtomKind::Ineq {
            lin,
            strict,
            both_int,
        }) => {
            let rel = if *strict == positive {
                Rel::Lt
            } else {
                Rel::Le
            };
            Some((lin, !positive, rel, *both_int))
        }
        _ => None,
    }
}

/// Persistent theory state for one [`crate::IncrementalSolver`]: EUF and
/// simplex survive across theory checks and solver checks, and each check
/// asserts/retracts only the literals the SAT trail changed since the
/// previous one.
#[derive(Clone, Debug)]
pub(crate) struct TheorySession {
    euf: Option<EufState>,
    simplex: Simplex,
    /// Simplex variable per numeric leaf term, persistent across checks.
    var_of_term: FxHashMap<TermId, usize>,
    trail: Vec<TrailEntry>,
    /// Number of atoms the checker knew when the session state was built;
    /// a differing count means the atom universe changed (new atoms pushed,
    /// or a method scope popped) and the session rebuilds from the template.
    known_atoms: usize,
    pivot: PivotRule,
}

impl TheorySession {
    /// An empty session; state is materialized lazily on the first check.
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

    /// The asserted literals, as `(atom, polarity)` pairs in trail order.
    pub(crate) fn literals(&self) -> Vec<(TermId, bool)> {
        self.trail
            .iter()
            .map(|e| (e.atom, e.lit.is_positive()))
            .collect()
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

    /// Brings the session trail in line with the SAT trail `sat_trail`,
    /// whose literals of SAT variable `v` are asserted when `live[v]` names
    /// their atom. Entries below `stable` are kept as they are; past it the
    /// session keeps the longest prefix that still matches the SAT trail,
    /// retracts the rest and asserts the EUF part of each new literal.
    fn sync(
        &mut self,
        checker: &TheoryChecker,
        sat_trail: &[Lit],
        stable: usize,
        live: &[Option<TermId>],
    ) -> RoundDelta {
        let mut stable = stable;
        if self.euf.is_none() || checker.kinds.len() != self.known_atoms {
            self.rebuild(checker);
            stable = 0;
        }
        let TheorySession {
            euf,
            simplex,
            trail,
            ..
        } = self;
        let euf = euf.as_mut().expect("session rebuilt above");
        let atom_of = |l: Lit| live.get(l.var() as usize).copied().flatten();

        let mut keep = trail.partition_point(|e| e.sat_pos < stable);
        let mut pos = stable.min(sat_trail.len());
        while pos < sat_trail.len() {
            let l = sat_trail[pos];
            let entry = trail.get(keep).filter(|e| e.sat_pos == pos);
            match (atom_of(l), entry) {
                (None, None) => {}
                (Some(atom), Some(e)) if e.lit == l && e.atom == atom => keep += 1,
                _ => break,
            }
            pos += 1;
        }
        let retracted = (trail.len() - keep) as u64;
        if keep < trail.len() {
            euf.undo_to(trail[keep].euf_mark);
            // Loaded entries form a prefix: if this one is not loaded, no
            // later one is either.
            if trail[keep].simplex_mark != usize::MAX {
                simplex.undo_to(trail[keep].simplex_mark);
            }
            trail.truncate(keep);
        }

        // Simplex parts are loaded by complete checks only, after the
        // disequality check, because EUF equalities over numeric terms must
        // be propagated into the simplex.
        for (sat_pos, &lit) in sat_trail.iter().enumerate().skip(pos) {
            let Some(atom) = atom_of(lit) else { continue };
            let positive = lit.is_positive();
            let tag = trail.len();
            let euf_mark = euf.mark();
            let arith = match checker.kinds.get(&atom) {
                Some(AtomKind::Eq { a, b, lin }) if positive => {
                    euf.assert_eq(*a, *b, tag);
                    lin.is_some()
                }
                Some(AtomKind::Eq { a, b, .. }) => {
                    euf.assert_neq(*a, *b, tag);
                    false
                }
                Some(AtomKind::Ineq { .. }) => true,
                Some(AtomKind::Pred) | None => {
                    let target = if positive { checker.tru } else { checker.fls };
                    euf.assert_eq(atom, target, tag);
                    false
                }
            };
            trail.push(TrailEntry {
                lit,
                sat_pos,
                atom,
                euf_mark,
                simplex_mark: usize::MAX,
                arith,
            });
        }
        RoundDelta {
            retracted,
            asserted: (trail.len() - keep) as u64,
        }
    }

    /// Checks the live literals of the SAT trail `sat_trail` for consistency
    /// (see [`TheorySession::sync`] for `stable` and `live`): EUF alone
    /// unless `complete`, EUF then simplex on a complete assignment. Whatever
    /// the verdict, every literal stays asserted afterwards.
    ///
    /// Returns the verdict, the check's simplex telemetry (EUF time is the
    /// caller's to measure: a partial check is all EUF), and how many
    /// literals were retracted and asserted.
    pub(crate) fn check(
        &mut self,
        checker: &TheoryChecker,
        sat_trail: &[Lit],
        stable: usize,
        live: &[Option<TermId>],
        complete: bool,
    ) -> (SessionCheck, TheoryTelemetry, RoundDelta) {
        let mut tel = TheoryTelemetry::default();
        // Only complete checks open spans: partial checks are too frequent
        // for a trace.
        let euf_span = complete.then(|| ids_obs::span("euf"));
        let delta = self.sync(checker, sat_trail, stable, live);
        let TheorySession {
            euf,
            simplex,
            var_of_term,
            trail,
            ..
        } = self;
        let euf = euf.as_mut().expect("session synced above");
        if let Some(tags) = euf.conflict() {
            // The trail stays: the next check pops only what changed.
            return (
                SessionCheck::Conflict(conflict_lits(trail, &tags, &[])),
                tel,
                delta,
            );
        }
        drop(euf_span);
        if !complete || !trail.iter().any(|e| e.arith) {
            return (SessionCheck::Consistent, tel, delta);
        }

        // ------------------------------------------------------- simplex phase
        let simplex_start = std::time::Instant::now();
        let mut simplex_span = ids_obs::span("simplex");
        let pivots_before = simplex.pivots;

        // Load the simplex parts from the watermark on: a previous check may
        // have stopped at an EUF conflict or a load conflict.
        let loaded = trail.partition_point(|e| e.simplex_mark != usize::MAX);
        let mut load_error: Option<Vec<usize>> = None;
        for (i, entry) in trail.iter_mut().enumerate().skip(loaded) {
            entry.simplex_mark = simplex.mark();
            let Some((form, negate, rel, both_int)) =
                arith_part(checker, entry.atom, entry.lit.is_positive())
            else {
                continue;
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
            let pivots = simplex.pivots - pivots_before;
            simplex_span.note(|| format!("pivots={}", pivots));
            tel.pivots = pivots;
            tel.simplex_time = simplex_start.elapsed();
            return (
                SessionCheck::Conflict(conflict_lits(trail, &tags, &[])),
                tel,
                delta,
            );
        }

        // Propagate EUF-derived equalities between the numeric leaf terms of
        // the currently asserted literals. These are justified by the current
        // congruence classes, so they never outlive the check: they are
        // always popped below, whatever the verdict.
        let derived_mark = simplex.mark();
        let mut derived_explanations: Vec<Vec<usize>> = Vec::new();
        let mut seen: FxHashMap<TermId, ()> = FxHashMap::default();
        let mut terms_in_order: Vec<TermId> = Vec::new();
        for e in trail.iter().filter(|e| e.arith) {
            let (form, ..) = arith_part(checker, e.atom, e.lit.is_positive()).expect("arith");
            for &(t, _) in &form.terms {
                if seen.insert(t, ()).is_none() {
                    terms_in_order.push(t);
                }
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
                let explanation = euf.explain_terms(a, b);
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
        let pivots = simplex.pivots - pivots_before;
        simplex_span.note(|| format!("pivots={}", pivots));
        tel.pivots = pivots;
        tel.simplex_time = simplex_start.elapsed();
        (outcome, tel, delta)
    }
}

/// Maps conflict tags (trail indices, derived tags, the axiom sentinel) back
/// to the asserted SAT literals.
fn conflict_lits(trail: &[TrailEntry], tags: &[usize], derived: &[Vec<usize>]) -> Vec<Lit> {
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
    idxs.into_iter().map(|t| trail[t].lit).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::Var;
    use crate::term::{Sort, TermManager};
    use crate::theory::TheoryCheck;

    /// A session verdict with conflicts as `(atom, polarity)` pairs.
    #[derive(Clone, Debug)]
    enum Check {
        Consistent,
        Conflict(Vec<(TermId, bool)>),
        Unknown,
    }

    /// Stands in for the SAT core: gives every atom a SAT variable, lays a
    /// literal list out as a SAT trail with a Tseitin (dead) literal after
    /// each atom literal, and maps conflicts back to literal pairs.
    #[derive(Clone, Default)]
    struct Sat {
        atoms: Vec<TermId>,
        live: Vec<Option<TermId>>,
    }

    impl Sat {
        fn var(&mut self, atom: TermId) -> Var {
            let i = match self.atoms.iter().position(|&a| a == atom) {
                Some(i) => i,
                None => {
                    self.atoms.push(atom);
                    self.live.extend([Some(atom), None]);
                    self.atoms.len() - 1
                }
            };
            2 * i as Var
        }

        fn trail(&mut self, literals: &[(TermId, bool)]) -> Vec<Lit> {
            let mut trail = Vec::new();
            for &(atom, positive) in literals {
                let v = self.var(atom);
                trail.push(Lit::new(v, positive));
                trail.push(Lit::new(v + 1, true));
            }
            trail
        }

        /// One check of `literals`, trusting the session's entries for the
        /// first `stable` SAT-trail positions.
        fn check(
            &mut self,
            session: &mut TheorySession,
            checker: &TheoryChecker,
            literals: &[(TermId, bool)],
            stable: usize,
            complete: bool,
        ) -> (Check, TheoryTelemetry, RoundDelta) {
            let trail = self.trail(literals);
            let (res, tel, delta) = session.check(checker, &trail, stable, &self.live, complete);
            let res = match res {
                SessionCheck::Consistent => Check::Consistent,
                SessionCheck::Unknown => Check::Unknown,
                SessionCheck::Conflict(lits) => Check::Conflict(
                    lits.iter()
                        .map(|l| (self.live[l.var() as usize].expect("live"), l.is_positive()))
                        .collect(),
                ),
            };
            (res, tel, delta)
        }

        /// A complete check from scratch: the session finds what it can
        /// keep by matching its trail against the SAT trail.
        fn round(
            &mut self,
            session: &mut TheorySession,
            checker: &TheoryChecker,
            literals: &[(TermId, bool)],
        ) -> (Check, TheoryTelemetry, RoundDelta) {
            self.check(session, checker, literals, 0, true)
        }
    }

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

    fn verdict_name(c: &Check) -> &'static str {
        match c {
            Check::Consistent => "consistent",
            Check::Conflict(_) => "conflict",
            Check::Unknown => "unknown",
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
        let mut sat = Sat::default();
        let mut literals: Vec<(TermId, bool)> = Vec::new();
        for round in 0..400 {
            evolve(&mut rng, &atoms, &mut literals);
            let (got, _, _) = sat.round(&mut session, &checker, &literals);
            let want = checker.check_with(&tm, &literals, PivotRule::Bland);
            assert_eq!(
                verdict_name(&got),
                batch_verdict_name(&want),
                "round {round}: session vs batch on {literals:?}"
            );
            let mut fresh = TheorySession::new(PivotRule::Bland);
            let (replay, _, _) = sat.round(&mut fresh, &checker, &literals);
            assert_eq!(
                verdict_name(&got),
                verdict_name(&replay),
                "round {round}: session vs fresh replay on {literals:?}"
            );
            if let Check::Conflict(c) = &got {
                assert_conflict_valid(&tm, &checker, c, &format!("round {round} session"));
            }
            if let Check::Conflict(c) = &replay {
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
        let mut sat = Sat::default();
        let mut literals: Vec<(TermId, bool)> = Vec::new();
        let mut conflicts_seen = 0;
        for round in 0..400 {
            evolve(&mut rng, &atoms, &mut literals);
            let (got, _, _) = sat.round(&mut session, &checker, &literals);
            let mut fresh = TheorySession::new(PivotRule::Bland);
            let (replay, _, _) = sat.round(&mut fresh, &checker, &literals);
            match (&got, &replay) {
                (Check::Consistent, Check::Consistent) => {}
                (Check::Conflict(a), Check::Conflict(b)) => {
                    assert_eq!(a, b, "round {round}: explanations diverged on {literals:?}");
                    assert_conflict_valid(&tm, &checker, a, &format!("round {round}"));
                    conflicts_seen += 1;
                }
                other => panic!("round {round}: verdicts diverged: {other:?}"),
            }
            let want = checker.check_with(&tm, &literals, PivotRule::Bland);
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

    /// Differential fuzz of the online path: EUF-only (partial) checks
    /// interleaved with complete ones, each trusting an arbitrary prefix of
    /// the SAT trail at or below the one that really is unchanged (a SAT
    /// backjump may undo more than the literal lists differ by). Every
    /// verdict must match the batch checker — `check_with` for the EUF-only
    /// universe, `check_euf` for partial checks of the mixed one — every
    /// conflict must be valid, and the EUF state must equal a fresh replay.
    #[test]
    fn fuzz_partial_checks_at_arbitrary_undo_points() {
        for (seed, (tm, atoms)) in [(11u64, euf_universe()), (12, mixed_universe())] {
            let mut tm = tm;
            let checker = TheoryChecker::new(&mut tm, &atoms);
            let euf_only = seed == 11;
            let mut rng = Rng(0x0b5e_55ed_0000_0000 + seed);
            let mut session = TheorySession::new(PivotRule::Bland);
            let mut sat = Sat::default();
            let mut literals: Vec<(TermId, bool)> = Vec::new();
            let (mut conflicts, mut partial) = (0, 0);
            for round in 0..600 {
                let before = literals.clone();
                evolve(&mut rng, &atoms, &mut literals);
                let common = before
                    .iter()
                    .zip(&literals)
                    .take_while(|(a, b)| a == b)
                    .count();
                // Two SAT-trail positions per literal (atom + Tseitin).
                let stable = rng.below(2 * common + 1);
                let complete = rng.chance(25);
                partial += !complete as usize;
                let (got, _, _) = sat.check(&mut session, &checker, &literals, stable, complete);
                let want = if complete || euf_only {
                    checker.check_with(&tm, &literals, PivotRule::Bland)
                } else {
                    checker.check_euf(&tm, &literals)
                };
                let context =
                    format!("seed {seed} round {round} (stable {stable}, complete {complete})");
                assert_eq!(
                    verdict_name(&got),
                    batch_verdict_name(&want),
                    "{context}: session vs batch on {literals:?}"
                );
                if let Check::Conflict(c) = &got {
                    assert_conflict_valid(&tm, &checker, c, &context);
                    conflicts += 1;
                }
                let mut fresh = TheorySession::new(PivotRule::Bland);
                sat.clone().check(&mut fresh, &checker, &literals, 0, false);
                assert_same_euf(&session, &fresh, &context);
            }
            assert!(conflicts >= 20, "seed {seed}: only {conflicts} conflicts");
            assert!(partial >= 300, "seed {seed}: only {partial} partial checks");
        }
    }

    /// Directed: two classes that each carry many disequalities merge, and
    /// exactly one disequality between them becomes violated. The merge
    /// records it once, the conflict blames its whole equality chain, and
    /// retracting the merge clears it.
    #[test]
    fn merge_of_classes_with_many_diseqs_finds_the_violated_one() {
        let mut tm = TermManager::new();
        let mut loc = |name: String| tm.var(&name, Sort::Loc);
        let xs: Vec<TermId> = (0..6).map(|i| loc(format!("x{i}"))).collect();
        let ys: Vec<TermId> = (0..6).map(|i| loc(format!("y{i}"))).collect();
        let zs: Vec<TermId> = (0..8).map(|i| loc(format!("z{i}"))).collect();
        let mut lits: Vec<(TermId, bool)> = Vec::new();
        // Two chains: x0 = x1 = … = x5 and y0 = … = y5.
        for chain in [&xs, &ys] {
            for w in chain.windows(2) {
                lits.push((tm.eq(w[0], w[1]), true));
            }
        }
        // Many disequalities on each side that the merge does not violate.
        for &z in &zs {
            lits.push((tm.eq(xs[2], z), false));
            lits.push((tm.eq(ys[3], z), false));
        }
        // The one that the merge violates, then the merge.
        let violated = tm.eq(xs[4], ys[1]);
        lits.push((violated, false));
        let merge = tm.eq(xs[0], ys[5]);
        lits.push((merge, true));
        let atoms: Vec<TermId> = lits.iter().map(|&(a, _)| a).collect();
        let checker = TheoryChecker::new(&mut tm, &atoms);
        let mut session = TheorySession::new(PivotRule::Bland);
        let mut sat = Sat::default();

        let n = lits.len();
        let (res, _, _) = sat.check(&mut session, &checker, &lits[..n - 1], 0, false);
        assert!(matches!(res, Check::Consistent), "{res:?}");
        let (res, _, _) = sat.check(&mut session, &checker, &lits, 2 * (n - 1), false);
        let Check::Conflict(mut c) = res else {
            panic!("expected a conflict, got {res:?}")
        };
        assert_eq!(session.euf.as_ref().expect("euf").violated.len(), 1);
        c.sort();
        // x4..x0, the merge, y5..y1 and the disequality: nothing from zs.
        let mut want: Vec<(TermId, bool)> = lits[..4].to_vec();
        want.extend_from_slice(&lits[6..10]);
        want.push((violated, false));
        want.push((merge, true));
        want.sort();
        assert_eq!(c, want);
        assert_conflict_valid(&tm, &checker, &c, "directed");
        // Retract the merge: consistent, and bit-exact with a fresh replay.
        let (res, _, delta) = sat.check(&mut session, &checker, &lits[..n - 1], 2 * (n - 1), false);
        assert!(matches!(res, Check::Consistent), "{res:?}");
        assert_eq!((delta.retracted, delta.asserted), (1, 0));
        assert!(session.euf.as_ref().expect("euf").violated.is_empty());
        let mut fresh = TheorySession::new(PivotRule::Bland);
        sat.check(&mut fresh, &checker, &lits[..n - 1], 0, false);
        assert_same_euf(&session, &fresh, "after retracting the merge");
    }

    /// Asserts that two sessions hold identical EUF structures.
    fn assert_same_euf(a: &TheorySession, b: &TheorySession, context: &str) {
        let (a, b) = (a.euf.as_ref().expect("euf"), b.euf.as_ref().expect("euf"));
        assert_eq!(a.parent, b.parent, "{context}: union-find links");
        assert_eq!(a.size, b.size, "{context}: class sizes");
        assert_eq!(a.use_lists, b.use_lists, "{context}: use lists");
        assert_eq!(a.sig_table, b.sig_table, "{context}: signature table");
        assert_eq!(a.diseqs, b.diseqs, "{context}: disequalities");
        assert_eq!(a.diseq_lists, b.diseq_lists, "{context}: disequality lists");
        assert_eq!(a.violated, b.violated, "{context}: violated disequalities");
        assert_eq!(a.pf_parent, b.pf_parent, "{context}: proof forest");
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
        let mut sat = Sat::default();
        let mut literals: Vec<(TermId, bool)> = Vec::new();
        let (mut conflicts, mut simplex_compared) = (0, 0);
        for round in 0..400 {
            evolve(&mut rng, &atoms, &mut literals);
            let (res, _, _) = sat.round(&mut session, &checker, &literals);
            conflicts += matches!(res, Check::Conflict(_)) as usize;
            let snapshot = session.clone();
            let mut extended = literals.clone();
            evolve(&mut rng, &atoms, &mut extended);
            sat.round(&mut session, &checker, &extended);
            // Retract by re-checking the original sequence.
            sat.round(&mut session, &checker, &literals);
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
        let mut sat = Sat::default();
        let lits = vec![(le_xx, false)];
        let (res, _, _) = sat.round(&mut session, &checker, &lits);
        match res {
            Check::Conflict(c) => assert_eq!(c, vec![(le_xx, false)]),
            other => panic!("expected conflict, got {other:?}"),
        }
        // And the positive polarity (0 <= 0) is consistent.
        let lits = vec![(le_xx, true)];
        let (res, _, _) = sat.round(&mut session, &checker, &lits);
        assert!(matches!(res, Check::Consistent), "{res:?}");
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
        let mut sat = Sat::default();
        // Round 1: x=y alone, consistent.
        let r1 = vec![(eq_xy, true), (eq_f, false)];
        let (res, _, _) = sat.round(&mut session, &checker, &r1);
        assert!(matches!(res, Check::Consistent), "{res:?}");
        // Round 2: retract f(x)!=f(z), assert y=z and f(x)!=f(z) again after
        // it — the congruence f(x)=f(z) now follows and conflicts.
        let r2 = vec![(eq_xy, true), (eq_yz, true), (eq_f, false)];
        let (res, _, delta) = sat.round(&mut session, &checker, &r2);
        match res {
            Check::Conflict(mut c) => {
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
        let (res, _, delta) = sat.round(&mut session, &checker, &r2[..2]);
        assert!(matches!(res, Check::Consistent), "{res:?}");
        assert_eq!((delta.retracted, delta.asserted), (1, 0));
        let mut fresh = TheorySession::new(PivotRule::Bland);
        sat.round(&mut fresh, &checker, &r2[..2]);
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
        let mut sat = Sat::default();
        let lits = [(le3, true), (y_ge3, true), (eq5, true)];
        let (res, _, _) = sat.round(&mut session, &checker, &lits);
        let Check::Conflict(mut c) = res else {
            panic!("expected conflict, got {res:?}")
        };
        c.sort();
        assert_eq!(c, vec![(le3, true), (eq5, true)]);
        assert_eq!(simplex_watermark(&session), 2, "only the equality unloaded");
        // Retract the equality alone: consistent, with a fresh replay's bounds.
        let (res, _, delta) = sat.round(&mut session, &checker, &lits[..2]);
        assert!(matches!(res, Check::Consistent), "{res:?}");
        assert_eq!((delta.retracted, delta.asserted), (1, 0));
        let mut fresh = TheorySession::new(PivotRule::Bland);
        sat.round(&mut fresh, &checker, &lits[..2]);
        assert_eq!(session.simplex.mark(), fresh.simplex.mark());
        // Retract x <= 3, keep x = 5: consistent again — the old bound must
        // not linger in the warm-restarted tableau.
        let (res, _, _) = sat.round(&mut session, &checker, &lits[1..]);
        assert!(matches!(res, Check::Consistent), "{res:?}");
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
        let mut sat = Sat::default();
        let (res, _, _) = sat.round(&mut session, &checker, &[(eq_xy, true)]);
        assert!(matches!(res, Check::Consistent));
        // New atoms arrive (a later assertion batch).
        let fx = tm.app("f", vec![x], Sort::Loc);
        let fy = tm.app("f", vec![y], Sort::Loc);
        let eq_f = tm.eq(fx, fy);
        checker.extend(&tm, &[eq_f]);
        let lits = vec![(eq_xy, true), (eq_f, false)];
        let (res, _, _) = sat.round(&mut session, &checker, &lits);
        match res {
            Check::Conflict(mut c) => {
                c.sort();
                let mut want = lits.clone();
                want.sort();
                assert_eq!(c, want);
            }
            other => panic!("expected congruence conflict, got {other:?}"),
        }
    }
}
