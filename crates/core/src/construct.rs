//! The y/z/s-packet construction — our realization of the paper's
//! "well-defined construction [9]".
//!
//! # What must hold
//!
//! Let `x ∈ GF(256)^N` be the x-packet pool, `K_i` the set of packets
//! terminal `i` knows, and `W` the `M×N` coefficient matrix of the
//! y-packets (`y = W·x`; row supports are public, contents are not).
//! Phase 2 publishes `z = C·y` (contents!) and announces `s = D·y`
//! (coefficients only), with `[C; D]` invertible `M×M`.
//!
//! *Decodability*: terminal `i` directly computes the rows with support
//! `⊆ K_i` (call them `J_i`, `M_i = |J_i|`); it recovers the rest from the
//! `M−L` z-packets provided `C[:, J̄_i]` has full column rank — guaranteed
//! here because `[C;D]` is a Cauchy matrix (every square submatrix
//! invertible), with an explicit check-and-redraw fallback when `M > 128`
//! forces random matrices.
//!
//! *Secrecy*: everything Eve has is linear in `x`: her received packets
//! (unit rows on her set `E`) plus the published `z` rows `C·W`. Writing
//! `U` for the packets Eve misses, the group secret `s` is perfectly
//! secret **iff `rank(W|_U) = M`** (restriction to the `U` columns):
//! since `[C;D]` is invertible, `rank([units(E); C·W; D·W]) −
//! rank([units(E); C·W]) = rank(W|_U) − rank((C·W)|_U)`, and
//! `rank((C·W)|_U) ≥ rank(W|_U) − L` with equality forced by genericity of
//! `C`; the difference equals `L` exactly when `rank(W|_U) = M`.
//!
//! *When does `rank(W|_U) = M` hold?* For generic (random) coefficients,
//! by the Lovász/Rado generic-rank theorem it holds iff **Hall's
//! condition** does: every subset `J` of rows satisfies
//! `|⋃_{r∈J} supp(r) ∩ U| ≥ |J|`. Alice cannot see `U`, so she enforces
//! Hall against every *candidate* Eve the estimator proposes
//! ([`crate::estimate::EveView`]), via incremental bipartite matchings
//! (one per view): a row is only admitted if, in every view, it can be
//! assigned `row_demand` units of capacity from the packets of its
//! support, displacing earlier assignments if necessary (augmenting
//! paths). Whenever the realized Eve misses at least what the estimator
//! assumed, Hall transfers to the true `U` and the measured reliability is
//! 1; when the estimator was too optimistic (few terminals, unlucky
//! placement) reliability degrades — exactly the mechanism behind the
//! paper's Figure 2.
//!
//! # Why supports are shared (the paper's y₁)
//!
//! Rows with support inside an *intersection* `K_i ∩ K_j` are decodable by
//! both terminals and count toward both `M_i` and `M_j` while consuming
//! Eve-unknown budget once — the reason the paper's 3-terminal example
//! gives Bob and Calvin a common y₁. The greedy below therefore builds
//! supports from the deepest intersections outward.

use std::collections::BTreeSet;

use rand::Rng;
use thinair_gf::{add_assign_scaled, Gf256, Matrix};
use thinair_mds::cauchy_matrix;

use crate::error::ProtocolError;
use crate::estimate::{Estimator, EveView};

/// One y-packet: a sparse coefficient row over the x-pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct YRow {
    /// Sorted x-packet indices.
    pub support: Vec<usize>,
    /// Coefficients parallel to `support`.
    pub coeffs: Vec<Gf256>,
}

impl YRow {
    /// Densifies the row into an `n_packets`-wide coefficient vector.
    pub fn dense(&self, n_packets: usize) -> Vec<Gf256> {
        let mut v = vec![Gf256::ZERO; n_packets];
        for (&j, &c) in self.support.iter().zip(self.coeffs.iter()) {
            v[j] = c;
        }
        v
    }
}

/// The full coefficient plan for one protocol round.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Number of packets in the x-pool.
    pub n_packets: usize,
    /// Index of the coordinating terminal ("Alice").
    pub coordinator: usize,
    /// The y-rows, in construction order.
    pub rows: Vec<YRow>,
    /// Dense `M×N` coefficient matrix (`y = w·x`).
    pub w: Matrix,
    /// `decodable[i]`: indices of rows terminal `i` can compute directly.
    pub decodable: Vec<Vec<usize>>,
    /// The pairwise budgets `m_i` the estimator granted (coordinator slot
    /// is 0 by convention).
    pub budgets: Vec<usize>,
    /// Group-secret length `L = min_i M_i` over non-coordinator terminals.
    pub l: usize,
    /// z-packet map: `(M−L)×M`, contents published.
    pub c_mat: Matrix,
    /// s-packet map: `L×M`, identities-only published.
    pub d_mat: Matrix,
}

impl Plan {
    /// Number of y-packets.
    pub fn m(&self) -> usize {
        self.rows.len()
    }

    /// The group-secret coefficient rows in x-coordinates (`D·W`, `L×N`).
    pub fn secret_rows_x(&self) -> Matrix {
        &self.d_mat * &self.w
    }

    /// The published z rows in x-coordinates (`C·W`, `(M−L)×N`).
    pub fn z_rows_x(&self) -> Matrix {
        &self.c_mat * &self.w
    }

    /// The map from what terminal `t` holds to its group secret.
    ///
    /// Terminal `t` holds the x-packets of its directly decodable rows
    /// and `k` fountain combos with payloads `P = Q·z = G·y`, where `Q`
    /// (`combo_coeffs`, `k × (M−L)`) holds each combo's coefficients over
    /// the z-packets and `G = Q·C`. Split the y-rows into `have =
    /// decodable[t]` and `miss`. When `A = G[:, miss]` is invertible,
    /// `y_miss = A⁻¹·(P + G[:, have]·y_have)` (characteristic 2: `−` is
    /// `+`), so the secret `s = D·y` is `E·x + F·P` with
    ///
    /// * `F = D[:, miss]·A⁻¹` (`L × k`),
    /// * `E = (D + F·G)·W` (`L × N`): `D + F·G` vanishes on the `miss`
    ///   columns, so `E` only reads the x-packets of `have` rows.
    ///
    /// Returns `[E | F]` (`L × (N + k)`), to be applied to the stacked
    /// sources `[x ; P]`; with no missing rows (`k = 0`) that is `D·W`.
    /// Returns `None` when `A` is not square and invertible, i.e. the
    /// combos do not pin the missing rows down.
    ///
    /// All work is on coefficient rows (about `L·M·N` byte products at
    /// most); no payload is touched.
    pub fn secret_map(&self, terminal: usize, combo_coeffs: &Matrix) -> Option<Matrix> {
        let have = &self.decodable[terminal];
        let miss: Vec<usize> = (0..self.m()).filter(|r| !have.contains(r)).collect();
        let k = combo_coeffs.rows();
        if k != miss.len() {
            return None;
        }
        if k == 0 {
            return Some(self.secret_rows_x());
        }
        if combo_coeffs.cols() != self.c_mat.rows() {
            return None;
        }
        let g = combo_coeffs * &self.c_mat;
        let f = &self.d_mat.select_columns(&miss) * &g.select_columns(&miss).inverse()?;
        let mut t = self.d_mat.clone();
        for r in 0..t.rows() {
            for i in 0..k {
                add_assign_scaled(t.row_mut(r), g.row(i), f[(r, i)]);
            }
        }
        let e = &t * &self.w;
        let n = self.n_packets;
        Some(Matrix::from_fn(self.l, n + k, |r, c| if c < n { e[(r, c)] } else { f[(r, c - n)] }))
    }

    /// An empty plan (no secret possible this round).
    pub fn empty(n_packets: usize, coordinator: usize, n_terminals: usize) -> Self {
        Plan {
            n_packets,
            coordinator,
            rows: Vec::new(),
            w: Matrix::zero(0, n_packets),
            decodable: vec![Vec::new(); n_terminals],
            budgets: vec![0; n_terminals],
            l: 0,
            c_mat: Matrix::zero(0, 0),
            d_mat: Matrix::zero(0, 0),
        }
    }
}

// ---------------------------------------------------------------------------
// Packet sets.
// ---------------------------------------------------------------------------

/// A set of x-packet indices as a fixed-width bitset: bit `j % 64` of
/// word `j / 64` marks packet `j`. The construction intersects and
/// subset-tests these sets thousands of times per plan; on words that is
/// a handful of `and`s instead of a tree walk per element.
#[derive(Clone, Debug, PartialEq, Eq)]
struct PacketSet {
    words: Vec<u64>,
}

impl PacketSet {
    /// The set of `indices`, sized for an `n_packets` pool (an index past
    /// the pool widens the set rather than being lost).
    fn from_indices(n_packets: usize, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut words = vec![0u64; n_packets.div_ceil(64)];
        for j in indices {
            if j / 64 >= words.len() {
                words.resize(j / 64 + 1, 0);
            }
            words[j / 64] |= 1 << (j % 64);
        }
        PacketSet { words }
    }

    fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Keeps only the packets `other` also holds.
    fn intersect_with(&mut self, other: &PacketSet) {
        for (k, w) in self.words.iter_mut().enumerate() {
            *w &= other.words.get(k).copied().unwrap_or(0);
        }
    }

    /// Whether every packet of `self` is in `other`.
    fn is_subset(&self, other: &PacketSet) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(k, &w)| w & !other.words.get(k).copied().unwrap_or(0) == 0)
    }

    /// The members, ascending.
    fn indices(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.len());
        for (k, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                out.push(k * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Hall ledger: incremental per-view matchings.
// ---------------------------------------------------------------------------

/// Incremental feasibility checker for the Hall condition against a set of
/// [`EveView`]s.
#[derive(Clone, Debug)]
pub struct HallLedger {
    views: Vec<ViewState>,
}

#[derive(Clone, Debug)]
struct ViewState {
    cap: Vec<u32>,
    used: Vec<u32>,
    row_demand: u32,
    concede: Option<PacketSet>,
    /// Per admitted (non-conceded) row: its support and its flow
    /// assignment `(packet, units)`.
    rows: Vec<FlowRow>,
    /// Every change since the ledger last committed a row, oldest first:
    /// a row that some view turns down is taken back by replaying this
    /// log in reverse instead of restoring a copy of the whole view.
    undo: Vec<Undo>,
}

#[derive(Clone, Debug)]
struct FlowRow {
    support: Vec<usize>,
    flow: Vec<(usize, u32)>,
}

/// One reversible change to a [`ViewState`].
#[derive(Clone, Copy, Debug)]
enum Undo {
    /// A row was pushed.
    Row,
    /// One unit of capacity at this packet was taken.
    Used(usize),
    /// One unit of `row`'s flow at `packet` was added (`up`) or removed.
    Flow { row: usize, packet: usize, up: bool },
}

impl ViewState {
    fn new(view: &EveView) -> Self {
        let n_packets = view.miss_capacity.len();
        ViewState {
            cap: view.miss_capacity.clone(),
            used: vec![0; n_packets],
            row_demand: view.row_demand,
            concede: view
                .concede
                .as_ref()
                .map(|k| PacketSet::from_indices(n_packets, k.iter().copied())),
            rows: Vec::new(),
            undo: Vec::new(),
        }
    }

    fn conceded(&self, support: &PacketSet) -> bool {
        self.concede.as_ref().is_some_and(|k| support.is_subset(k))
    }

    /// Moves one unit of `row`'s flow at `packet` up or down.
    fn shift_flow(rows: &mut [FlowRow], row: usize, packet: usize, up: bool) {
        let flow = &mut rows[row].flow;
        let pos = match flow.iter().position(|&(p, _)| p == packet) {
            Some(pos) => pos,
            None => {
                flow.push((packet, 0));
                flow.len() - 1
            }
        };
        if up {
            flow[pos].1 += 1;
        } else {
            flow[pos].1 -= 1;
        }
    }

    fn logged_shift(&mut self, row: usize, packet: usize, up: bool) {
        Self::shift_flow(&mut self.rows, row, packet, up);
        self.undo.push(Undo::Flow { row, packet, up });
    }

    /// Routes one unit of flow for row `r`, displacing other rows via
    /// augmenting paths. `visited` guards against cycles.
    fn place_unit(&mut self, r: usize, visited: &mut Vec<bool>) -> bool {
        // Direct free capacity first.
        for si in 0..self.rows[r].support.len() {
            let p = self.rows[r].support[si];
            if self.used[p] < self.cap[p] {
                self.used[p] += 1;
                self.undo.push(Undo::Used(p));
                self.logged_shift(r, p, true);
                return true;
            }
        }
        // Displacement: steal a unit at p from some other row that can
        // re-place it elsewhere.
        for si in 0..self.rows[r].support.len() {
            let p = self.rows[r].support[si];
            for r2 in 0..self.rows.len() {
                if r2 == r || visited[r2] {
                    continue;
                }
                let has_flow = self.rows[r2].flow.iter().any(|&(pp, u)| pp == p && u > 0);
                if !has_flow {
                    continue;
                }
                visited[r2] = true;
                if self.place_unit(r2, visited) {
                    self.logged_shift(r2, p, false);
                    self.logged_shift(r, p, true);
                    return true;
                }
            }
        }
        false
    }

    /// Attempts to admit a row; takes it back and returns `Rejected` on
    /// failure. `Conceded` means the view does not constrain the row
    /// (the candidate is a legitimate decoder of it).
    fn try_add(&mut self, support: &[usize], set: &PacketSet) -> AddResult {
        if self.conceded(set) {
            return AddResult::Conceded;
        }
        self.rows.push(FlowRow { support: support.to_vec(), flow: Vec::new() });
        self.undo.push(Undo::Row);
        let r = self.rows.len() - 1;
        for _ in 0..self.row_demand {
            let mut visited = vec![false; self.rows.len()];
            visited[r] = true;
            if !self.place_unit(r, &mut visited) {
                self.rollback();
                return AddResult::Rejected;
            }
        }
        AddResult::Matched
    }

    /// Reverts every change since the last commit.
    fn rollback(&mut self) {
        while let Some(op) = self.undo.pop() {
            match op {
                Undo::Row => {
                    self.rows.pop();
                }
                Undo::Used(p) => self.used[p] -= 1,
                Undo::Flow { row, packet, up } => {
                    Self::shift_flow(&mut self.rows, row, packet, !up)
                }
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum AddResult {
    /// The view admitted the row by assigning it Eve-unknown capacity.
    Matched,
    /// The view does not constrain the row (candidate is a decoder).
    Conceded,
    /// The view has no capacity left for the row.
    Rejected,
}

impl HallLedger {
    /// Builds a ledger from the estimator's views.
    pub fn new(views: &[EveView]) -> Self {
        HallLedger { views: views.iter().map(ViewState::new).collect() }
    }

    /// Atomically admits a row into every view, or none.
    ///
    /// A row is admitted only when (a) every view either concedes it or
    /// matches it, **and** (b) at least one view actually matched it. A
    /// row conceded by *every* view has no evidence of secrecy at all —
    /// under the estimator's own hypotheses Eve knows its entire support —
    /// so it is rejected. (Concretely: with the leave-one-out estimator, a
    /// packet received by every terminal is presumed received by Eve too.)
    pub fn try_add(&mut self, support: &[usize]) -> bool {
        self.try_add_set(support, &PacketSet::from_indices(0, support.iter().copied()))
    }

    /// [`HallLedger::try_add`] for a support given both as sorted indices
    /// and as a set.
    fn try_add_set(&mut self, support: &[usize], set: &PacketSet) -> bool {
        for v in &mut self.views {
            v.undo.clear();
        }
        let mut matched_any = false;
        for i in 0..self.views.len() {
            match self.views[i].try_add(support, set) {
                AddResult::Matched => matched_any = true,
                AddResult::Conceded => {}
                AddResult::Rejected => {
                    self.views[..i].iter_mut().for_each(ViewState::rollback);
                    return false;
                }
            }
        }
        if !matched_any {
            self.views.iter_mut().for_each(ViewState::rollback);
            return false;
        }
        true
    }

    /// A support's estimated Eve-unknown capacity: the minimum, over the
    /// views that constrain it, of the capacity the view assigns to it,
    /// scaled by the estimator's conservatism factor. `None` when no view
    /// constrains it (the row would be conceded everywhere — compromised
    /// under the estimator's own hypotheses).
    fn support_capacity(&self, support: &[usize], set: &PacketSet, scale: f64) -> Option<usize> {
        let mut best: Option<usize> = None;
        for view in &self.views {
            if view.conceded(set) {
                continue; // this view does not constrain it
            }
            let units: u32 = support.iter().map(|&j| view.cap.get(j).copied().unwrap_or(0)).sum();
            let cap = ((units / view.row_demand) as f64 * scale).floor() as usize;
            best = Some(best.map_or(cap, |b: usize| b.min(cap)));
        }
        best
    }
}

// ---------------------------------------------------------------------------
// The greedy builder.
// ---------------------------------------------------------------------------

/// Upper bound on the number of y-rows (keeps the `[C;D]` matrix within
/// Cauchy range and the round cheap).
pub const DEFAULT_MAX_ROWS: usize = 120;

/// Tunables of the greedy construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanParams {
    /// Cap on the number of y-rows (must stay ≤ 128 so `[C;D]` is a
    /// Cauchy matrix).
    pub max_rows: usize,
    /// Minimum support size for a y-row. Small supports carry no
    /// statistical safety margin: a row over a 1-packet support is secret
    /// only if that one packet escaped Eve — a coin flip, not a
    /// concentration bound. The paper's construction always combines a
    /// whole shared set; this floor keeps the greedy honest when deep
    /// intersections shrink.
    pub support_floor: usize,
    /// Safety margin subtracted from each support's estimated Eve-unknown
    /// capacity before rows are allocated on it (absorbs the statistical
    /// fluctuation between the candidate proxies and the real Eve; the
    /// "more or less conservative" knob of §3.3).
    pub support_slack: usize,
}

impl Default for PlanParams {
    fn default() -> Self {
        PlanParams { max_rows: DEFAULT_MAX_ROWS, support_floor: 4, support_slack: 1 }
    }
}

impl PlanParams {
    /// Parameters with no conservatism — appropriate for the oracle
    /// estimator, whose capacities are exact.
    pub fn exact() -> Self {
        PlanParams { max_rows: DEFAULT_MAX_ROWS, support_floor: 1, support_slack: 0 }
    }
}

/// How many times coefficients are redrawn before giving up.
const MAX_REDRAWS: usize = 32;

/// Builds the full plan for one round.
///
/// * `known_sets[i]` — packets terminal `i` knows (own + received).
/// * `coordinator` — the terminal playing Alice.
/// * `estimator` — how Eve's erasures are bounded.
pub fn build_plan(
    known_sets: &[BTreeSet<usize>],
    coordinator: usize,
    n_packets: usize,
    estimator: &Estimator,
    rng: &mut impl Rng,
    params: PlanParams,
) -> Result<Plan, ProtocolError> {
    let n = known_sets.len();
    if n < 2 {
        return Err(ProtocolError::BadConfig("need at least two terminals"));
    }
    if coordinator >= n {
        return Err(ProtocolError::BadConfig("coordinator out of range"));
    }
    let others: Vec<usize> = (0..n).filter(|&i| i != coordinator).collect();

    // 1. Pairwise budgets (the paper's M_i sizing).
    let mut budgets = vec![0usize; n];
    for &i in &others {
        let shared: BTreeSet<usize> =
            known_sets[coordinator].intersection(&known_sets[i]).copied().collect();
        budgets[i] = estimator.pair_budget(&shared, known_sets, coordinator, i);
    }
    if others.iter().any(|&i| budgets[i] == 0) {
        // Worst-case scenario of §3.2: some pairwise secret is empty, so
        // the group secret is too. (Role rotation at the session layer is
        // the paper's mitigation.)
        return Ok(Plan::empty(n_packets, coordinator, n));
    }
    // The group secret is L = min_i M_i: rows beyond the weakest budget
    // would add z-packet cost without adding a single secret bit, so cap
    // every budget at the common minimum ("phase 2 does not increase the
    // amount of secret information ... it redistributes it").
    let l_target = others.iter().map(|&i| budgets[i]).min().unwrap_or(0);
    for &i in &others {
        budgets[i] = budgets[i].min(l_target);
    }

    // Packet sets are bitsets from here on.
    let known: Vec<PacketSet> =
        known_sets.iter().map(|k| PacketSet::from_indices(n_packets, k.iter().copied())).collect();

    // 2. Hall ledger over the estimator's candidate-Eve views.
    let views = estimator.views(known_sets, n_packets);
    let mut hall = HallLedger::new(&views);
    let scale = estimator.tuning().scale;

    // 3. Greedy support selection: deepest intersections first. Every
    //    distinct support is kept once, in discovery order; a row is an
    //    index into that list.
    let mut distinct: Vec<(Vec<usize>, PacketSet)> = Vec::new();
    let mut row_support: Vec<usize> = Vec::new(); // chosen rows
    let mut counts = vec![0usize; n]; // rows decodable per terminal
    'levels: for g in (1..=others.len()).rev() {
        // All supports arising as K_c ∩ ⋂_{i ∈ S} K_i for |S| = g, as
        // (index into `distinct`, decoders).
        let mut level: Vec<(usize, Vec<usize>)> = Vec::new();
        for mask in 1u32..(1 << others.len()) {
            if mask.count_ones() as usize != g {
                continue;
            }
            let mut t = known[coordinator].clone();
            for (bit, &i) in others.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    t.intersect_with(&known[i]);
                }
            }
            if t.len() < params.support_floor.max(1) {
                continue;
            }
            // Decoders may exceed S; process each support exactly once, at
            // the level equal to its true decoder count.
            let decoders: Vec<usize> =
                others.iter().copied().filter(|&i| t.is_subset(&known[i])).collect();
            if decoders.len() != g || distinct.iter().any(|(_, seen)| *seen == t) {
                continue;
            }
            distinct.push((t.indices(), t));
            level.push((distinct.len() - 1, decoders));
        }
        // Widest supports first: more Eve-unknown budget per row.
        level.sort_by_key(|&(d, _)| std::cmp::Reverse(distinct[d].0.len()));
        for (d, decoders) in level {
            let (support, set) = &distinct[d];
            // Statistical safety: never allocate more rows on a support
            // than its estimated capacity minus the slack margin.
            let cap = match hall.support_capacity(support, set, scale) {
                Some(c) => c.saturating_sub(params.support_slack),
                None => 0,
            };
            let mut used_here = 0usize;
            while used_here < cap {
                let any_deficient = decoders.iter().any(|&i| counts[i] < budgets[i]);
                if !any_deficient {
                    break;
                }
                if row_support.len() >= params.max_rows {
                    break 'levels;
                }
                if !hall.try_add_set(support, set) {
                    break;
                }
                row_support.push(d);
                used_here += 1;
                for &i in &decoders {
                    counts[i] += 1;
                }
            }
        }
    }

    // 4. Decodable sets from the final supports (incidental decodability
    //    included).
    let decoded_by: Vec<Vec<bool>> = distinct
        .iter()
        .map(|(_, set)| (0..n).map(|i| i == coordinator || set.is_subset(&known[i])).collect())
        .collect();
    let decodable: Vec<Vec<usize>> = (0..n)
        .map(|i| (0..row_support.len()).filter(|&r| decoded_by[row_support[r]][i]).collect())
        .collect();
    let l = others.iter().map(|&i| decodable[i].len()).min().unwrap_or(0);
    if l == 0 {
        return Ok(Plan::empty(n_packets, coordinator, n));
    }
    let m = row_support.len();
    let row_sets: Vec<&PacketSet> = row_support.iter().map(|&d| &distinct[d].1).collect();

    // 5. Coefficients: random, verified, redrawn on bad luck.
    let mut w = Matrix::zero(m, n_packets);
    let mut rows: Vec<YRow> = Vec::with_capacity(m);
    let mut ok = false;
    for _ in 0..MAX_REDRAWS {
        rows.clear();
        for (r, &d) in row_support.iter().enumerate() {
            let support = &distinct[d].0;
            let coeffs: Vec<Gf256> = loop {
                let c: Vec<Gf256> = (0..support.len()).map(|_| Gf256(rng.gen())).collect();
                if c.iter().any(|x| !x.is_zero()) {
                    break c;
                }
            };
            let dense = w.row_mut(r);
            for (&j, &c) in support.iter().zip(coeffs.iter()) {
                dense[j] = c;
            }
            rows.push(YRow { support: support.clone(), coeffs });
        }
        if generic_ranks_hold(&w, &row_sets, &hall.views) {
            ok = true;
            break;
        }
    }
    if !ok {
        return Err(ProtocolError::ConstructionFailed("could not draw full-rank y coefficients"));
    }

    // 6. The phase-2 matrices: an invertible M×M split into C (top M−L)
    //    and D (bottom L).
    let cd = build_cd(m, l, &decodable, &others, rng)?;
    let c_mat = cd.select_rows(&(0..m - l).collect::<Vec<_>>());
    let d_mat = cd.select_rows(&(m - l..m).collect::<Vec<_>>());

    Ok(Plan { n_packets, coordinator, rows, w, decodable, budgets, l, c_mat, d_mat })
}

/// Checks that the drawn coefficients realize the generic ranks the Hall
/// argument promises, for every candidate view we can express as a column
/// restriction. (Used by the unicast baseline for its pad blocks.)
pub(crate) fn verify_coefficients(w: &Matrix, rows: &[YRow], views: &[EveView]) -> bool {
    let sets: Vec<PacketSet> =
        rows.iter().map(|r| PacketSet::from_indices(w.cols(), r.support.iter().copied())).collect();
    let row_sets: Vec<&PacketSet> = sets.iter().collect();
    generic_ranks_hold(w, &row_sets, &HallLedger::new(views).views)
}

/// [`verify_coefficients`] over the ledger's views, with row `r`'s
/// support given as the set `row_sets[r]`.
fn generic_ranks_hold(w: &Matrix, row_sets: &[&PacketSet], views: &[ViewState]) -> bool {
    if w.rows() > 0 && w.rank() < w.rows() {
        return false;
    }
    for view in views {
        if view.row_demand != 1 {
            continue; // fractional views have no single column set to test
        }
        let unknown_cols: Vec<usize> =
            (0..w.cols()).filter(|&j| view.cap.get(j).copied().unwrap_or(0) > 0).collect();
        let active_rows: Vec<usize> =
            (0..row_sets.len()).filter(|&r| !view.conceded(row_sets[r])).collect();
        if active_rows.is_empty() {
            continue;
        }
        let sub = Matrix::from_fn(active_rows.len(), unknown_cols.len(), |r, c| {
            w[(active_rows[r], unknown_cols[c])]
        });
        if sub.rank() < active_rows.len() {
            return false;
        }
    }
    true
}

/// Builds the invertible `[C; D]` matrix with the per-terminal decode
/// properties.
fn build_cd(
    m: usize,
    l: usize,
    decodable: &[Vec<usize>],
    others: &[usize],
    rng: &mut impl Rng,
) -> Result<Matrix, ProtocolError> {
    debug_assert!(l <= m);
    // Cauchy when it fits: superregularity gives every property without
    // sampling.
    if 2 * m <= 256 {
        let cd = cauchy_matrix(m, m).expect("2m <= 256 checked");
        debug_assert!(cd.inverse().is_some());
        return Ok(cd);
    }
    // Fallback: random with verification.
    for _ in 0..MAX_REDRAWS {
        let cd = Matrix::random(m, m, rng);
        if cd.inverse().is_none() {
            continue;
        }
        let c = cd.select_rows(&(0..m - l).collect::<Vec<_>>());
        let all_decode = others.iter().all(|&i| {
            let missing: Vec<usize> = (0..m).filter(|r| !decodable[i].contains(r)).collect();
            missing.is_empty() || c.select_columns(&missing).rank() == missing.len()
        });
        if all_decode {
            return Ok(cd);
        }
    }
    Err(ProtocolError::ConstructionFailed("could not build C/D matrices"))
}

/// The *naive* per-terminal construction the paper warns about in §3.1
/// ("not any linear combinations of x-packets will do"): one independent
/// Cauchy block per terminal over its shared set, no support sharing, no
/// Hall condition across blocks. Kept as an ablation — it can leak once
/// phase 2 publishes z-packets.
pub fn build_block_plan(
    known_sets: &[BTreeSet<usize>],
    coordinator: usize,
    n_packets: usize,
    estimator: &Estimator,
    rng: &mut impl Rng,
    max_rows: usize,
) -> Result<Plan, ProtocolError> {
    let n = known_sets.len();
    if n < 2 || coordinator >= n {
        return Err(ProtocolError::BadConfig("bad terminal layout"));
    }
    let others: Vec<usize> = (0..n).filter(|&i| i != coordinator).collect();
    let mut budgets = vec![0usize; n];
    let mut rows: Vec<YRow> = Vec::new();
    for &i in &others {
        let shared: Vec<usize> =
            known_sets[coordinator].intersection(&known_sets[i]).copied().collect();
        let shared_set: BTreeSet<usize> = shared.iter().copied().collect();
        let mi = estimator.pair_budget(&shared_set, known_sets, coordinator, i).min(shared.len());
        budgets[i] = mi;
        if mi == 0 {
            return Ok(Plan::empty(n_packets, coordinator, n));
        }
        for _ in 0..mi {
            if rows.len() >= max_rows {
                break;
            }
            let coeffs: Vec<Gf256> = (0..shared.len()).map(|_| Gf256(rng.gen())).collect();
            rows.push(YRow { support: shared.clone(), coeffs });
        }
    }
    let m = rows.len();
    let mut w = Matrix::zero(0, n_packets);
    for r in &rows {
        w.push_row(&r.dense(n_packets));
    }
    let decodable: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            rows.iter()
                .enumerate()
                .filter(|(_, r)| {
                    i == coordinator || r.support.iter().all(|j| known_sets[i].contains(j))
                })
                .map(|(idx, _)| idx)
                .collect()
        })
        .collect();
    let l = others.iter().map(|&i| decodable[i].len()).min().unwrap_or(0);
    if l == 0 || m == 0 {
        return Ok(Plan::empty(n_packets, coordinator, n));
    }
    let cd = build_cd(m, l, &decodable, &others, rng)?;
    Ok(Plan {
        n_packets,
        coordinator,
        rows,
        w: w.clone(),
        decodable,
        budgets,
        l,
        c_mat: cd.select_rows(&(0..m - l).collect::<Vec<_>>()),
        d_mat: cd.select_rows(&(m - l..m).collect::<Vec<_>>()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::Tuning;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use thinair_gf::rank_increase;

    fn set(v: &[usize]) -> BTreeSet<usize> {
        v.iter().copied().collect()
    }

    /// Eve's knowledge matrix for a plan: unit rows on her received set
    /// plus the published z rows.
    fn eve_knowledge(plan: &Plan, eve_known: &BTreeSet<usize>) -> Matrix {
        let mut k = Matrix::zero(0, plan.n_packets);
        for &j in eve_known {
            let mut row = vec![Gf256::ZERO; plan.n_packets];
            row[j] = Gf256::ONE;
            k.push_row(&row);
        }
        k.vstack(&plan.z_rows_x())
    }

    fn measured_secret_dims(plan: &Plan, eve_known: &BTreeSet<usize>) -> usize {
        rank_increase(&eve_knowledge(plan, eve_known), &plan.secret_rows_x())
    }

    #[test]
    fn paper_three_terminal_example_shape() {
        // Alice = 0 knows 0..6; Bob knows {0,1,2,3}, Calvin {0,1,4,5}.
        // Intersection {0,1} should host shared rows (the paper's y1).
        let known = vec![set(&[0, 1, 2, 3, 4, 5]), set(&[0, 1, 2, 3]), set(&[0, 1, 4, 5])];
        let eve = set(&[]); // Eve heard nothing
        let est = Estimator::Oracle { eve_known: eve.clone() };
        let mut rng = StdRng::seed_from_u64(1);
        let plan = build_plan(
            &known,
            0,
            6,
            &est,
            &mut rng,
            PlanParams { max_rows: 32, ..PlanParams::exact() },
        )
        .unwrap();
        assert!(plan.l > 0);
        // Some row must be decodable by both Bob and Calvin.
        let both: Vec<usize> =
            plan.decodable[1].iter().filter(|r| plan.decodable[2].contains(r)).copied().collect();
        assert!(!both.is_empty(), "expected a shared y-row: {:?}", plan.rows);
        // Perfect secrecy (Eve heard nothing).
        assert_eq!(measured_secret_dims(&plan, &eve), plan.l);
    }

    #[test]
    fn oracle_plan_is_always_perfectly_secret() {
        // Randomized reception patterns; with the oracle estimator the
        // measured secrecy must equal L every time.
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..30 {
            let n_packets = 24;
            let n_terminals = 4;
            let mut known: Vec<BTreeSet<usize>> = Vec::new();
            // Terminal 0 (Alice) knows everything (she sent it).
            known.push((0..n_packets).collect());
            for _ in 1..n_terminals {
                known.push((0..n_packets).filter(|_| rng.gen_bool(0.6)).collect());
            }
            let eve: BTreeSet<usize> = (0..n_packets).filter(|_| rng.gen_bool(0.5)).collect();
            let est = Estimator::Oracle { eve_known: eve.clone() };
            let plan = build_plan(
                &known,
                0,
                n_packets,
                &est,
                &mut rng,
                PlanParams { max_rows: 64, ..PlanParams::exact() },
            )
            .unwrap();
            if plan.l == 0 {
                continue;
            }
            assert_eq!(
                measured_secret_dims(&plan, &eve),
                plan.l,
                "trial {trial}: leak with oracle estimator"
            );
        }
    }

    #[test]
    fn leave_one_out_protects_against_weak_eve_but_not_collocated_eve() {
        let mut rng = StdRng::seed_from_u64(11);
        let n_packets = 20;
        let known = vec![
            (0..n_packets).collect::<BTreeSet<_>>(),
            set(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
            set(&[5, 6, 7, 8, 9, 10, 11, 12, 13, 14]),
            set(&[0, 2, 4, 6, 8, 10, 12, 14, 16, 18]),
        ];
        let est = Estimator::LeaveOneOut(Tuning::default());
        let plan = build_plan(
            &known,
            0,
            n_packets,
            &est,
            &mut rng,
            PlanParams { max_rows: 64, ..PlanParams::exact() },
        )
        .unwrap();
        assert!(plan.l > 0);

        // A weak Eve (heard almost nothing): the construction keeps the
        // full secret uniform.
        let weak_eve = set(&[3, 11]);
        assert_eq!(measured_secret_dims(&plan, &weak_eve), plan.l);

        // An Eve collocated with terminal 3 (she heard exactly what T3
        // heard) decodes whatever T3 decodes, then reconstructs the rest
        // from the z-packets — no group-secret protocol can prevent this.
        // The measured reliability must expose the leak, not hide it.
        let collocated_eve = known[3].clone();
        assert!(
            measured_secret_dims(&plan, &collocated_eve) < plan.l,
            "a member-equivalent Eve must defeat the group secret"
        );
    }

    #[test]
    fn budget_zero_yields_empty_plan() {
        // Eve (oracle) heard everything: no secret is possible.
        let known = vec![set(&[0, 1, 2, 3]), set(&[0, 1, 2])];
        let est = Estimator::Oracle { eve_known: set(&[0, 1, 2, 3]) };
        let mut rng = StdRng::seed_from_u64(3);
        let plan = build_plan(
            &known,
            0,
            4,
            &est,
            &mut rng,
            PlanParams { max_rows: 16, ..PlanParams::exact() },
        )
        .unwrap();
        assert_eq!(plan.l, 0);
        assert!(plan.rows.is_empty());
    }

    #[test]
    fn decode_matrices_have_full_column_rank() {
        let mut rng = StdRng::seed_from_u64(13);
        let n_packets = 30;
        let known: Vec<BTreeSet<usize>> = vec![
            (0..n_packets).collect(),
            (0..n_packets).filter(|j| j % 2 == 0).collect(),
            (0..n_packets).filter(|j| j % 3 != 0).collect(),
            (0..n_packets).filter(|&j| j < 20).collect(),
        ];
        let est = Estimator::Oracle { eve_known: set(&[0, 3, 6, 9, 12]) };
        let plan = build_plan(
            &known,
            0,
            n_packets,
            &est,
            &mut rng,
            PlanParams { max_rows: 64, ..PlanParams::exact() },
        )
        .unwrap();
        assert!(plan.l > 0);
        let m = plan.m();
        for i in 1..4 {
            let missing: Vec<usize> = (0..m).filter(|r| !plan.decodable[i].contains(r)).collect();
            assert!(missing.len() <= m - plan.l, "terminal {i}");
            if !missing.is_empty() {
                assert_eq!(
                    plan.c_mat.select_columns(&missing).rank(),
                    missing.len(),
                    "terminal {i} cannot invert its z system"
                );
            }
        }
        // [C; D] invertible.
        let cd = plan.c_mat.vstack(&plan.d_mat);
        assert!(cd.inverse().is_some());
    }

    #[test]
    fn hall_ledger_respects_unit_capacities() {
        // Two packets of capacity, three rows on the same 2-packet
        // support: third must be rejected.
        let view = EveView { miss_capacity: vec![1, 1, 0, 0], row_demand: 1, concede: None };
        let mut hall = HallLedger::new(&[view]);
        assert!(hall.try_add(&[0, 1, 2]));
        assert!(hall.try_add(&[0, 1, 3]));
        assert!(!hall.try_add(&[0, 1]));
    }

    #[test]
    fn hall_ledger_uses_augmenting_paths() {
        // Row A fits on packet 0 or 1; row B only on 0. Add A (takes 0),
        // then B must displace A to packet 1.
        let view = EveView { miss_capacity: vec![1, 1], row_demand: 1, concede: None };
        let mut hall = HallLedger::new(&[view]);
        assert!(hall.try_add(&[0, 1]));
        assert!(hall.try_add(&[0]));
        // Both packets now saturated.
        assert!(!hall.try_add(&[0, 1]));
    }

    #[test]
    fn hall_ledger_concedes_contained_supports() {
        // Candidate view concedes rows inside {0,1}; a second
        // (oracle-like) view provides the actual secrecy evidence.
        let candidate =
            EveView { miss_capacity: vec![0, 0, 1], row_demand: 1, concede: Some(set(&[0, 1])) };
        let oracle = EveView { miss_capacity: vec![1, 1, 1], row_demand: 1, concede: None };
        let mut hall = HallLedger::new(&[candidate, oracle]);
        // Inside the candidate's knowledge: conceded there, matched in the
        // oracle view; consumes oracle capacity only.
        assert!(hall.try_add(&[0, 1]));
        assert!(hall.try_add(&[0, 1]));
        // Outside: needs capacity in both views.
        assert!(hall.try_add(&[1, 2]));
        assert!(!hall.try_add(&[1, 2]));
    }

    #[test]
    fn rows_conceded_by_every_view_are_rejected() {
        // Under the estimator's own hypotheses a row inside every
        // candidate's knowledge is compromised: it must not be admitted,
        // however "free" it looks.
        let v1 =
            EveView { miss_capacity: vec![0, 0, 1], row_demand: 1, concede: Some(set(&[0, 1])) };
        let v2 =
            EveView { miss_capacity: vec![0, 1, 0], row_demand: 1, concede: Some(set(&[0, 1, 2])) };
        let mut hall = HallLedger::new(&[v1, v2]);
        assert!(!hall.try_add(&[0, 1]));
        // And an empty view list rejects everything.
        let mut empty = HallLedger::new(&[]);
        assert!(!empty.try_add(&[0]));
    }

    #[test]
    fn hall_ledger_fractional_demand() {
        // fraction 1/2 with scale 16: each packet supplies 8 units, a row
        // needs 16 → a row needs at least 2 packets of support.
        let view = EveView { miss_capacity: vec![8, 8, 8, 8], row_demand: 16, concede: None };
        let mut hall = HallLedger::new(&[view]);
        assert!(!hall.try_add(&[0]));
        assert!(hall.try_add(&[0, 1]));
        assert!(hall.try_add(&[2, 3]));
        assert!(!hall.try_add(&[0, 1, 2, 3]));
    }

    #[test]
    fn rollback_on_multi_view_failure_is_clean() {
        // View 1 admits the row, view 2 rejects it: view 1 must roll back
        // so a subsequent feasible row still fits.
        let v1 = EveView { miss_capacity: vec![1, 0], row_demand: 1, concede: None };
        let v2 = EveView { miss_capacity: vec![0, 0], row_demand: 1, concede: None };
        let mut hall = HallLedger::new(&[v1.clone(), v2]);
        assert!(!hall.try_add(&[0]));
        // Replace second view by a permissive one and verify capacity in
        // view 1 was not consumed by the failed attempt.
        let v2b = EveView { miss_capacity: vec![1, 1], row_demand: 1, concede: None };
        let mut hall = HallLedger::new(&[v1, v2b]);
        assert!(hall.try_add(&[0]));
        assert!(!hall.try_add(&[0]));
    }

    #[test]
    fn block_construction_can_leak_where_aligned_does_not() {
        // Overlapping receptions with a *tight* Eve: the naive per-terminal
        // blocks spend more rows than Eve's unknown budget, so publishing
        // z-packets reveals part of the secret; the aligned construction
        // shares supports and stays within budget.
        let mut rng = StdRng::seed_from_u64(17);
        let n_packets = 12;
        let known = vec![
            (0..n_packets).collect::<BTreeSet<_>>(),
            set(&[0, 1, 2, 3, 4, 5, 6, 7]),
            set(&[0, 1, 2, 3, 4, 5, 6, 7]),
            set(&[0, 1, 2, 3, 4, 5, 6, 7]),
        ];
        // Eve misses exactly {0, 1, 2} of the shared packets.
        let eve: BTreeSet<usize> = (3..n_packets).collect();
        let est = Estimator::Oracle { eve_known: eve.clone() };

        let aligned = build_plan(
            &known,
            0,
            n_packets,
            &est,
            &mut rng,
            PlanParams { max_rows: 64, ..PlanParams::exact() },
        )
        .unwrap();
        assert!(aligned.l > 0);
        assert_eq!(measured_secret_dims(&aligned, &eve), aligned.l);

        let block = build_block_plan(&known, 0, n_packets, &est, &mut rng, 64).unwrap();
        assert!(block.l > 0);
        // 3 terminals × 3 rows = 9 rows but Eve misses only 3 packets:
        // rank(W|U) <= 3 < M, so z-packets leak.
        let dims = measured_secret_dims(&block, &eve);
        assert!(dims < block.l, "naive construction unexpectedly secret: {dims} of {}", block.l);
    }

    #[test]
    fn bad_configs_are_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let est = Estimator::Oracle { eve_known: set(&[]) };
        assert!(matches!(
            build_plan(&[set(&[0])], 0, 2, &est, &mut rng, PlanParams::exact()),
            Err(ProtocolError::BadConfig(_))
        ));
        assert!(matches!(
            build_plan(&[set(&[0]), set(&[0])], 5, 2, &est, &mut rng, PlanParams::exact()),
            Err(ProtocolError::BadConfig(_))
        ));
    }

    #[test]
    fn max_rows_is_respected() {
        let mut rng = StdRng::seed_from_u64(5);
        let n_packets = 40;
        let known: Vec<BTreeSet<usize>> =
            vec![(0..n_packets).collect(), (0..30).collect(), (10..40).collect()];
        let est = Estimator::Oracle { eve_known: set(&[]) };
        let plan = build_plan(
            &known,
            0,
            n_packets,
            &est,
            &mut rng,
            PlanParams { max_rows: 7, ..PlanParams::exact() },
        )
        .unwrap();
        assert!(plan.m() <= 7, "m = {}", plan.m());
    }

    #[test]
    fn dense_row_roundtrip() {
        let r = YRow { support: vec![1, 3], coeffs: vec![Gf256(7), Gf256(9)] };
        let d = r.dense(5);
        assert_eq!(d, vec![Gf256(0), Gf256(7), Gf256(0), Gf256(9), Gf256(0)]);
    }
}
