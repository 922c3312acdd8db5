//! The exhaustive interleaving explorer: model-checking-lite over the
//! *real* coordinator/terminal state machines.
//!
//! The soak harness ([`crate::soak`]) samples fault schedules; this
//! module *enumerates* them. For a small configuration (2–3 terminals,
//! a short x-pool, bounded drop budgets) it drives one session through
//! every meaningfully distinct delivery interleaving and fault
//! placement, audits each execution against the safety invariant
//! ([`crate::soak::audit_session`]), and — on a violation — shrinks the
//! schedule to a minimal frame-level counterexample.
//!
//! # How an execution runs
//!
//! Each execution is a fresh, fully deterministic run of the unmodified
//! state machines:
//!
//! * the [`thinair_net::SimNet`] transport runs in **stepped mode**
//!   ([`thinair_net::SimNet::stepper`]): transmitted frames park in a
//!   pending set instead of landing in receiver queues, and the
//!   explorer decides which pending delivery fires next (or is
//!   dropped — the explorer-placed erasure);
//! * the runtime runs under a **virtual clock**
//!   ([`thinair_net::rt::block_on_virtual`]): whenever every task
//!   blocks, the explorer's stall hook makes the next scheduling
//!   decision; only when the pending set is empty does time jump to the
//!   earliest timer deadline ("maximal progress" — frames are never
//!   held across a timer firing, which is itself a partial-order
//!   reduction: delay behaviors are the RTO/retransmit layer's job and
//!   the soak grid's, not this enumerator's).
//!
//! An execution is therefore a pure function of the *choice path* — the
//! sequence of decisions the hook makes — which makes stateless replay,
//! DFS expansion and schedule shrinking all trivial.
//!
//! # Partial-order reduction
//!
//! Nodes observe only their own delivery order, so two deliveries to
//! *different* destinations commute: interleaving them one way or the
//! other yields identical per-node observation sequences. The explorer
//! canonicalizes away that redundancy: at each decision point it only
//! branches over the pending frames addressed to the **lowest-numbered
//! destination** with anything pending (`Deliver` any of them, or
//! `Drop` any of them while the drop budget lasts). Every combination
//! of per-destination delivery orders and drop placements is still
//! reachable — the choices merely arrive in a canonical global order.
//! Alternatives skipped by the rule are counted (`por_pruned`), as are
//! subtrees cut because an execution's behavior fingerprint (per-node
//! delivery sequences + drops + outcomes) was already seen
//! (`fp_pruned`); together they give the reported reduction factor.
//!
//! # Shrinking
//!
//! A violating path is reduced to its *deviations* — the decisions that
//! differ from the FIFO default. Greedy single-deviation removal runs
//! to fixpoint, then a delta-debugging (ddmin) pass removes whole
//! chunks greedy can miss. Every candidate subset is validated by
//! re-running it; a deviation whose decision point no longer offers the
//! recorded choice decays to the default, so subsets are always
//! executable. The minimal schedule is rendered as a frame-level causal
//! trace (control-plane milestones plus every deviation, retransmission
//! duplicates collapsed) and as TraceEvent JSONL from the telemetry
//! ring.

use std::collections::BTreeSet;
use std::io;
use std::ops::Range;
use std::path::Path;
use std::time::Duration;

use thinair_core::estimate::Estimator;
use thinair_core::round::XSchedule;
use thinair_net::driver::task_seed;
use thinair_net::rt;
use thinair_net::session::SessionConfig;
use thinair_net::{Node, PendingDelivery, SessionOutcome, SimNet, StepHandle};
use thinair_netsim::IidMedium;
use thinair_testbed::parallel_map;

use crate::report::{f6, json_escape};
use crate::run::ScenarioError;
use crate::soak::{audit_session, SessionVerdict};

/// Explore artifact schema tag.
pub const EXPLORE_SCHEMA: &str = "thinair-explore/1";

/// Hard per-execution ceiling on scheduling decisions — a circuit
/// breaker against runaway retransmission storms, far above any real
/// run of the small configs this module accepts. Past it the hook stops
/// delivering; pending frames starve and the session aborts at its
/// (virtual) deadline, so the execution still terminates cleanly.
const STEP_CAP: usize = 100_000;

/// One small configuration to enumerate exhaustively.
#[derive(Clone, Debug, PartialEq)]
pub struct ExploreSpec {
    /// Human-readable name (unique within a batch).
    pub name: String,
    /// Protocol nodes, coordinator included (`>= 2`, keep it small —
    /// the tree is exponential in everything).
    pub terminals: u8,
    /// x-packets the coordinator broadcasts in phase 1.
    pub x_packets: usize,
    /// Payload bytes per packet.
    pub payload_len: usize,
    /// Decision horizon: only the first `depth` scheduling decisions
    /// branch; beyond it every execution continues with the FIFO
    /// default. Bounds the DFS.
    pub depth: usize,
    /// Most explorer-placed frame drops per execution.
    pub drop_budget: usize,
    /// Ceiling on executions (a budget, not a target; `exhausted` in
    /// the result says whether the tree was fully enumerated under it).
    pub max_executions: u64,
    /// Stop exploring once this many violations have been found and
    /// shrunk (0 behaves as 1).
    pub max_violations: usize,
    /// Root seed for payloads and plan seeds.
    pub seed: u64,
    /// Per-session deadline in **virtual** milliseconds.
    pub deadline_ms: u64,
    /// Plant the seeded ordering bug
    /// ([`SessionConfig::bug_premature_plan`]) — the explorer
    /// self-test: the run must find and shrink it.
    pub seeded_bug: bool,
}

impl Default for ExploreSpec {
    fn default() -> Self {
        ExploreSpec {
            name: "explore".into(),
            terminals: 3,
            x_packets: 4,
            payload_len: 4,
            depth: 18,
            drop_budget: 2,
            max_executions: 200_000,
            max_violations: 1,
            seed: 1,
            deadline_ms: 2_000,
            seeded_bug: false,
        }
    }
}

impl ExploreSpec {
    /// Validates the spec against protocol limits and tree-size sanity.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.terminals < 2 {
            return Err("need at least two nodes");
        }
        if self.terminals > 4 {
            return Err("explore is exponential; keep it to at most 4 nodes");
        }
        if self.x_packets == 0 || self.x_packets > 16 {
            return Err("x_packets must be in 1..=16 (the tree is exponential)");
        }
        if self.payload_len == 0 {
            return Err("payload_len must be nonzero");
        }
        if self.depth == 0 {
            return Err("depth must be nonzero");
        }
        if self.max_executions == 0 {
            return Err("max_executions must be nonzero");
        }
        if self.deadline_ms < 500 {
            return Err("deadline_ms must be at least 500");
        }
        self.session_config().validate().map_err(|_| "session config rejected")?;
        Ok(())
    }

    /// The session configuration an execution runs: lossless medium (the
    /// explorer itself places every drop), tight timers so retransmit
    /// behavior shows up within the decision horizon, and a small
    /// attempt budget so explorer-starved frames abort cleanly instead
    /// of retransmitting forever.
    pub fn session_config(&self) -> SessionConfig {
        SessionConfig {
            n_nodes: self.terminals,
            coordinator: 0,
            schedule: XSchedule::CoordinatorOnly(self.x_packets),
            payload_len: self.payload_len,
            // Fixed-fraction Eve estimate: with a lossless medium the
            // leave-one-out estimator would conclude Eve heard
            // everything and set l = 0 on every branch — making all
            // plans trivially identical. Assuming Eve misses half keeps
            // real secrets (and real plan divergence) in play.
            estimator: Estimator::FixedFraction { fraction: 0.5 },
            drop_prob: 0.0,
            drop_seed: self.seed,
            drop_models: None,
            retransmit: Duration::from_millis(25),
            rto_cap: Duration::from_millis(400),
            x_settle: Duration::from_millis(40),
            deadline: Duration::from_millis(self.deadline_ms),
            max_attempts: 12,
            z_budget: 64,
            bug_premature_plan: self.seeded_bug,
            ..SessionConfig::default()
        }
    }
}

/// One scheduling decision: which of the canonical candidates (pending
/// frames addressed to the lowest-numbered destination, oldest first)
/// to act on. `Deliver(0)` is the FIFO default.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Choice {
    /// Fire candidate `rank`.
    Deliver(usize),
    /// Drop candidate `rank` (consumes drop budget).
    Drop(usize),
}

const DEFAULT_CHOICE: Choice = Choice::Deliver(0);

/// One frame-level event of a rendered counterexample.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExploreEvent {
    /// `"deliver"` or `"drop"`.
    pub action: &'static str,
    /// Sending node.
    pub src: u8,
    /// Receiving node.
    pub dst: u8,
    /// Payload kind ([`thinair_net::NetPayload::kind_name`]).
    pub kind: &'static str,
    /// Frame sequence number.
    pub seq: u32,
    /// Whether this event deviates from the FIFO default.
    pub deviation: bool,
    /// Identical events collapsed into this one (retransmissions).
    pub repeats: u32,
}

/// A shrunk, rendered safety violation.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The audit's description of what diverged.
    pub what: String,
    /// Deviations from FIFO delivery in the minimal schedule.
    pub deviations: usize,
    /// The minimal frame-level trace: every deviation plus the
    /// control-plane milestones, duplicates collapsed.
    pub events: Vec<ExploreEvent>,
    /// Human-readable causal rendering of `events`.
    pub explanation: String,
    /// The telemetry trace of the minimal execution, one JSON object
    /// per line (the event sequence is deterministic; `ts_us` stamps
    /// are timing-class).
    pub trace_jsonl: String,
}

/// Aggregated exploration measurements for one spec.
#[derive(Clone, Debug)]
pub struct ExploreResult {
    /// The spec that produced it.
    pub spec: ExploreSpec,
    /// Executions run (each a complete session under one schedule).
    pub executions: u64,
    /// Distinct behavior fingerprints among them.
    pub distinct_schedules: u64,
    /// Total scheduling decisions taken across executions ("states
    /// visited").
    pub states_visited: u64,
    /// Alternatives never enqueued because they commute with a chosen
    /// delivery (the partial-order reduction).
    pub por_pruned: u64,
    /// Alternatives never enqueued because the execution's fingerprint
    /// had already been seen.
    pub fp_pruned: u64,
    /// `(executions + por_pruned + fp_pruned) / executions` — a lower
    /// bound on the blowup the reductions avoided (each pruned
    /// alternative roots a whole subtree).
    pub reduction_factor: f64,
    /// Whether the tree was fully enumerated (no budget cut it short).
    pub exhausted: bool,
    /// Executions that hit the per-run step ceiling (must be 0).
    pub truncated_runs: u64,
    /// Shrunk violations (must be empty for a correct protocol).
    pub violations: Vec<Counterexample>,
    /// Wall-clock duration in ms (timing-class; the virtual clock makes
    /// every other field deterministic).
    pub wall_ms: f64,
}

// ---------------------------------------------------------------------------
// One execution
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
struct DecisionRecord {
    /// Canonical candidates at this point (pending @ lowest dst).
    candidates: usize,
    /// Total pending deliveries (for POR accounting).
    pending: usize,
    /// Whether drop alternatives were available.
    drop_allowed: bool,
    taken: Choice,
}

struct RunRecord {
    taken: Vec<Choice>,
    decisions: Vec<DecisionRecord>,
    events: Vec<ExploreEvent>,
    /// Per-destination rolling hash of the delivered frame identities.
    dst_hashes: Vec<u64>,
    /// Order-independent hash of the dropped frame identities.
    drop_hash: u64,
    drops_used: usize,
    truncated: bool,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
    }
    h
}

fn frame_identity(p: &PendingDelivery) -> Vec<u8> {
    let mut id = vec![p.src, p.dst];
    id.extend_from_slice(p.frame.payload.kind_name().as_bytes());
    id.extend_from_slice(&p.frame.seq.to_le_bytes());
    id
}

impl RunRecord {
    fn new(n: usize) -> Self {
        RunRecord {
            taken: Vec::new(),
            decisions: Vec::new(),
            events: Vec::new(),
            dst_hashes: vec![FNV_OFFSET; n],
            drop_hash: 0,
            drops_used: 0,
            truncated: false,
        }
    }

    /// The behavior fingerprint: per-node observation sequences, the
    /// dropped set, and every node's outcome. Executions with equal
    /// fingerprints are behaviorally identical (each node saw the same
    /// frames in the same order), so their subtrees are redundant.
    fn fingerprint(&self, outcomes: &[SessionOutcome]) -> u64 {
        let mut h = FNV_OFFSET;
        for dh in &self.dst_hashes {
            h = fnv_fold(h, &dh.to_le_bytes());
        }
        h = fnv_fold(h, &self.drop_hash.to_le_bytes());
        for o in outcomes {
            h = fnv_fold(h, &[u8::from(o.completed())]);
            h = fnv_fold(h, &(o.l as u64).to_le_bytes());
            h = fnv_fold(h, &(o.m as u64).to_le_bytes());
            if let Some(reason) = &o.abort {
                h = fnv_fold(h, reason.kind().as_bytes());
            }
            for row in &o.secret {
                for g in row {
                    h = fnv_fold(h, &[g.0]);
                }
            }
        }
        h
    }
}

/// The stall hook's body: one scheduling decision. Returns `false`
/// (advance virtual time) only when nothing is pending.
fn step_once(
    spec: &ExploreSpec,
    path: &[Choice],
    step: &StepHandle<IidMedium>,
    rec: &mut RunRecord,
) -> bool {
    let pending = step.pending();
    if pending.is_empty() {
        return false;
    }
    if rec.decisions.len() >= STEP_CAP {
        rec.truncated = true;
        return false;
    }
    let dst_min = pending.iter().map(|(_, p)| p.dst).min().expect("nonempty pending");
    let cands: Vec<&(u64, PendingDelivery)> =
        pending.iter().filter(|(_, p)| p.dst == dst_min).collect();
    let d = rec.decisions.len();
    let drop_allowed = rec.drops_used < spec.drop_budget && d < spec.depth;
    // Forced choices replay exactly (same prefix ⇒ same pending set);
    // out-of-range deviations — which only arise when shrinking mutates
    // the path — decay to the FIFO default and become inert.
    let taken = match path.get(d).copied().unwrap_or(DEFAULT_CHOICE) {
        Choice::Deliver(r) if r < cands.len() => Choice::Deliver(r),
        Choice::Drop(r) if drop_allowed && r < cands.len() => Choice::Drop(r),
        _ => DEFAULT_CHOICE,
    };
    rec.decisions.push(DecisionRecord {
        candidates: cands.len(),
        pending: pending.len(),
        drop_allowed,
        taken,
    });
    rec.taken.push(taken);
    let deviation = taken != DEFAULT_CHOICE;
    match taken {
        Choice::Deliver(r) => {
            let (id, p) = cands[r];
            rec.events.push(ExploreEvent {
                action: "deliver",
                src: p.src,
                dst: p.dst,
                kind: p.frame.payload.kind_name(),
                seq: p.frame.seq,
                deviation,
                repeats: 1,
            });
            rec.dst_hashes[p.dst as usize] =
                fnv_fold(rec.dst_hashes[p.dst as usize], &frame_identity(p));
            step.deliver(*id);
        }
        Choice::Drop(r) => {
            let (id, p) = cands[r];
            rec.events.push(ExploreEvent {
                action: "drop",
                src: p.src,
                dst: p.dst,
                kind: p.frame.payload.kind_name(),
                seq: p.frame.seq,
                deviation: true,
                repeats: 1,
            });
            rec.drop_hash ^= fnv_fold(FNV_OFFSET, &frame_identity(p));
            rec.drops_used += 1;
            step.drop_frame(*id);
        }
    }
    true
}

/// Runs one session to completion under the given choice path (FIFO
/// default past its end). Deterministic: same spec + path ⇒ identical
/// record and outcomes. `base` seeds the virtual clock — every run in a
/// batch shares the caller's stopwatch base, so `run_one` itself never
/// reads the wall clock.
fn run_one(
    spec: &ExploreSpec,
    path: &[Choice],
    base: std::time::Instant,
) -> (RunRecord, Vec<SessionOutcome>) {
    let cfg = spec.session_config();
    let n = cfg.n_nodes as usize;
    let net = SimNet::new(IidMedium::symmetric(n, 0.0, spec.seed), n);
    let step = net.stepper();
    let nodes: Vec<Node<_>> = (0..n).map(|i| Node::new(net.transport(i as u8))).collect();
    let mut rec = RunRecord::new(n);
    let session = 1u64;
    let seed = spec.seed;
    let outcomes = {
        let mut hook = || step_once(spec, path, &step, &mut rec);
        rt::block_on_virtual(
            async move {
                for node in &nodes {
                    node.start_pump();
                }
                let mut handles = Vec::with_capacity(n);
                for (i, node) in nodes.iter().enumerate() {
                    let node = node.clone();
                    let cfg = cfg.clone();
                    let ts = task_seed(seed, session, i as u8);
                    let coord = i as u8 == cfg.coordinator;
                    handles.push(rt::spawn(async move {
                        if coord {
                            node.coordinate(session, cfg, ts).await
                        } else {
                            node.participate(session, cfg, ts).await
                        }
                    }));
                }
                let mut outs = Vec::with_capacity(n);
                for h in handles {
                    outs.push(h.await.expect("virtual sessions terminate cleanly"));
                }
                outs
            },
            base,
            &mut hook,
        )
    };
    (rec, outcomes)
}

// ---------------------------------------------------------------------------
// The DFS
// ---------------------------------------------------------------------------

fn alternatives_of(dec: &DecisionRecord) -> Vec<Choice> {
    let mut alts = Vec::new();
    for r in 0..dec.candidates {
        let c = Choice::Deliver(r);
        if c != dec.taken {
            alts.push(c);
        }
    }
    if dec.drop_allowed {
        for r in 0..dec.candidates {
            let c = Choice::Drop(r);
            if c != dec.taken {
                alts.push(c);
            }
        }
    }
    alts
}

/// Alternatives a run would enqueue below the forced prefix — the count
/// skipped when a repeated fingerprint prunes the subtree.
fn alternatives_below(rec: &RunRecord, from: usize, depth: usize) -> u64 {
    let horizon = rec.decisions.len().min(depth);
    rec.decisions[from.min(horizon)..horizon]
        .iter()
        .map(|dec| alternatives_of(dec).len() as u64)
        .sum()
}

/// Exhaustively enumerates the spec's schedule tree, auditing every
/// execution; violations are shrunk to minimal counterexamples.
pub fn explore(spec: &ExploreSpec) -> Result<ExploreResult, ScenarioError> {
    spec.validate().map_err(ScenarioError::Invalid)?;
    let clock = crate::timing::Stopwatch::start();
    let mut stack: Vec<Vec<Choice>> = vec![Vec::new()];
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let (mut executions, mut states_visited) = (0u64, 0u64);
    let (mut por_pruned, mut fp_pruned) = (0u64, 0u64);
    let mut truncated_runs = 0u64;
    let mut violations: Vec<Counterexample> = Vec::new();
    let mut exhausted = true;
    let violation_cap = spec.max_violations.max(1);

    while let Some(path) = stack.pop() {
        if executions >= spec.max_executions {
            exhausted = false;
            break;
        }
        let (rec, outcomes) = run_one(spec, &path, clock.base());
        executions += 1;
        states_visited += rec.decisions.len() as u64;
        if rec.truncated {
            truncated_runs += 1;
        }
        if let SessionVerdict::Violation { what } = audit_session(&outcomes) {
            violations.push(shrink_and_render(spec, &rec.taken, what, clock.base()));
            if violations.len() >= violation_cap {
                exhausted = false;
                break;
            }
            continue; // don't grow the tree below a violating schedule
        }
        if !seen.insert(rec.fingerprint(&outcomes)) {
            fp_pruned += alternatives_below(&rec, path.len(), spec.depth);
            continue;
        }
        let horizon = rec.decisions.len().min(spec.depth);
        for d in path.len()..horizon {
            let dec = &rec.decisions[d];
            // Deliveries to other destinations commute with the chosen
            // one; their Deliver (and Drop) alternatives are the POR cut.
            let commuting = (dec.pending - dec.candidates) as u64;
            por_pruned += commuting * if dec.drop_allowed { 2 } else { 1 };
            for alt in alternatives_of(dec) {
                let mut child = rec.taken[..d].to_vec();
                child.push(alt);
                stack.push(child);
            }
        }
    }

    let wall_ms = clock.elapsed_ms();
    Ok(ExploreResult {
        spec: spec.clone(),
        executions,
        distinct_schedules: seen.len() as u64,
        states_visited,
        por_pruned,
        fp_pruned,
        reduction_factor: (executions + por_pruned + fp_pruned) as f64 / executions.max(1) as f64,
        exhausted,
        truncated_runs,
        violations,
        wall_ms,
    })
}

/// Runs a batch of explore specs sharded across worker threads.
pub fn run_explore_specs(specs: &[ExploreSpec]) -> Vec<Result<ExploreResult, ScenarioError>> {
    parallel_map(specs, explore)
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

/// The non-default decisions of a taken path, as `(index, choice)`.
fn deviations_of(taken: &[Choice]) -> Vec<(usize, Choice)> {
    taken.iter().enumerate().filter(|(_, c)| **c != DEFAULT_CHOICE).map(|(d, c)| (d, *c)).collect()
}

fn path_from(devs: &[(usize, Choice)]) -> Vec<Choice> {
    let len = devs.iter().map(|(d, _)| d + 1).max().unwrap_or(0);
    let mut path = vec![DEFAULT_CHOICE; len];
    for (d, c) in devs {
        path[*d] = *c;
    }
    path
}

fn violates(
    spec: &ExploreSpec,
    devs: &[(usize, Choice)],
    base: std::time::Instant,
) -> Option<(RunRecord, String)> {
    let (rec, outcomes) = run_one(spec, &path_from(devs), base);
    match audit_session(&outcomes) {
        SessionVerdict::Violation { what } => Some((rec, what)),
        _ => None,
    }
}

/// Greedy single-deviation removal to fixpoint, then a ddmin pass for
/// the chunk removals greedy misses. Every step re-runs and re-audits.
fn shrink(
    spec: &ExploreSpec,
    mut devs: Vec<(usize, Choice)>,
    base: std::time::Instant,
) -> Vec<(usize, Choice)> {
    'greedy: loop {
        for i in 0..devs.len() {
            let mut t = devs.clone();
            t.remove(i);
            if violates(spec, &t, base).is_some() {
                devs = t;
                continue 'greedy;
            }
        }
        break;
    }
    // ddmin: remove complement-of-chunk subsets at doubling granularity.
    let mut n = 2usize;
    while devs.len() >= 2 {
        let chunk = devs.len().div_ceil(n);
        let mut reduced = false;
        for start in (0..devs.len()).step_by(chunk) {
            let end = (start + chunk).min(devs.len());
            let t: Vec<_> = devs[..start].iter().chain(devs[end..].iter()).cloned().collect();
            if violates(spec, &t, base).is_some() {
                devs = t;
                n = 2.max(n - 1);
                reduced = true;
                break;
            }
        }
        if !reduced {
            if n >= devs.len() {
                break;
            }
            n = (n * 2).min(devs.len());
        }
    }
    devs
}

/// The control-plane milestones a counterexample keeps alongside its
/// deviations (x-packets and ACKs are noise at counterexample scale).
const MILESTONES: [&str; 7] =
    ["Start", "ReceptionReport", "PlanAnnounce", "YAnnounce", "SAnnounce", "Done", "Fin"];

fn filter_events(events: &[ExploreEvent]) -> Vec<ExploreEvent> {
    let mut out: Vec<ExploreEvent> = Vec::new();
    for e in events {
        if !e.deviation && !MILESTONES.contains(&e.kind) {
            continue;
        }
        // Collapse retransmissions: same action on the same frame.
        if let Some(prev) = out.iter_mut().find(|p| {
            p.action == e.action
                && p.src == e.src
                && p.dst == e.dst
                && p.kind == e.kind
                && p.seq == e.seq
        }) {
            prev.repeats += 1;
            prev.deviation |= e.deviation;
            continue;
        }
        out.push(e.clone());
    }
    out
}

fn render_explanation(what: &str, deviations: usize, events: &[ExploreEvent]) -> String {
    let mut out = String::new();
    out.push_str(&format!("violation: {what}\n"));
    out.push_str(&format!(
        "minimal schedule: {deviations} deviation(s) from FIFO delivery; \
         frame-level trace ({} events, milestones + deviations):\n",
        events.len()
    ));
    for (i, e) in events.iter().enumerate() {
        let action = if e.action == "drop" { "DROP   " } else { "deliver" };
        let reps = if e.repeats > 1 { format!("  (x{})", e.repeats) } else { String::new() };
        let mark = if e.deviation { "   <- deviation" } else { "" };
        out.push_str(&format!(
            "{:>3}. {action} {:<16} n{} -> n{}  seq {}{reps}{mark}\n",
            i + 1,
            e.kind,
            e.src,
            e.dst,
            e.seq,
        ));
    }
    out.push_str(
        "every event not shown followed FIFO order; the deviation(s) above are the \
         complete cause of the divergence.\n",
    );
    out
}

fn shrink_and_render(
    spec: &ExploreSpec,
    taken: &[Choice],
    what: String,
    base: std::time::Instant,
) -> Counterexample {
    let minimal = shrink(spec, deviations_of(taken), base);
    // Final run of the minimal schedule, with the telemetry trace on so
    // the counterexample ships machine-readable JSONL alongside the
    // frame-level rendering.
    thinair_net::telemetry::enable_trace(thinair_net::telemetry::DEFAULT_TRACE_CAPACITY);
    let (rec, what) = violates(spec, &minimal, base)
        .unwrap_or_else(|| (run_one(spec, &path_from(&minimal), base).0, what));
    let trace_jsonl = thinair_net::telemetry::take_events()
        .iter()
        .map(|e| e.to_jsonl())
        .collect::<Vec<_>>()
        .join("\n");
    let events = filter_events(&rec.events);
    let explanation = render_explanation(&what, minimal.len(), &events);
    Counterexample { what, deviations: minimal.len(), events, explanation, trace_jsonl }
}

// ---------------------------------------------------------------------------
// Presets
// ---------------------------------------------------------------------------

/// The committed-artifact configuration: two terminals plus the
/// coordinator over a short pool, enumerated exhaustively (tens of
/// thousands of distinct schedules).
pub fn explore_default_spec(seed: u64) -> ExploreSpec {
    ExploreSpec {
        name: format!("explore_2term_pool4_s{seed}"),
        depth: 15,
        drop_budget: 2,
        seed,
        ..ExploreSpec::default()
    }
}

/// The CI smoke configuration: the same shape, a shallower horizon.
pub fn explore_smoke_spec(seed: u64) -> ExploreSpec {
    ExploreSpec {
        name: format!("explore_smoke_s{seed}"),
        depth: 12,
        drop_budget: 1,
        seed,
        ..ExploreSpec::default()
    }
}

/// The seeded-bug self-test configuration: the premature-plan ordering
/// bug is planted and the explorer must find and shrink it.
pub fn explore_bug_spec(seed: u64) -> ExploreSpec {
    ExploreSpec {
        name: format!("explore_seeded_bug_s{seed}"),
        depth: 18,
        drop_budget: 2,
        seeded_bug: true,
        seed,
        ..ExploreSpec::default()
    }
}

/// One spec per seed in `seeds` (the CLI's `--seed-range A..B`).
pub fn explore_range_specs(base: &ExploreSpec, seeds: Range<u64>) -> Vec<ExploreSpec> {
    let stem =
        base.name.strip_suffix(&format!("_s{}", base.seed)).unwrap_or(&base.name).to_string();
    seeds
        .map(|seed| ExploreSpec { name: format!("{stem}_s{seed}"), seed, ..base.clone() })
        .collect()
}

// ---------------------------------------------------------------------------
// The artifact
// ---------------------------------------------------------------------------

fn event_json(e: &ExploreEvent) -> String {
    format!(
        "{{\"action\": \"{}\", \"kind\": \"{}\", \"src\": {}, \"dst\": {}, \"seq\": {}, \
         \"deviation\": {}, \"repeats\": {}}}",
        e.action, e.kind, e.src, e.dst, e.seq, e.deviation, e.repeats
    )
}

fn counterexample_json(cx: &Counterexample) -> String {
    let events = cx.events.iter().map(event_json).collect::<Vec<_>>().join(", ");
    format!(
        "{{\"what\": \"{}\", \"deviations\": {}, \"events\": [{events}]}}",
        json_escape(&cx.what),
        cx.deviations
    )
}

fn result_json(r: &ExploreResult, include_timing: bool) -> String {
    let spec = &r.spec;
    let counterexamples =
        r.violations.iter().map(counterexample_json).collect::<Vec<_>>().join(", ");
    let mut fields = vec![
        format!("\"name\": \"{}\"", json_escape(&spec.name)),
        format!("\"terminals\": {}", spec.terminals),
        format!("\"x_packets\": {}", spec.x_packets),
        format!("\"payload_len\": {}", spec.payload_len),
        format!("\"depth\": {}", spec.depth),
        format!("\"drop_budget\": {}", spec.drop_budget),
        format!("\"seed\": {}", spec.seed),
        format!("\"seeded_bug\": {}", spec.seeded_bug),
        format!("\"executions\": {}", r.executions),
        format!("\"distinct_schedules\": {}", r.distinct_schedules),
        format!("\"states_visited\": {}", r.states_visited),
        format!("\"por_pruned\": {}", r.por_pruned),
        format!("\"fp_pruned\": {}", r.fp_pruned),
        format!("\"reduction_factor\": {}", f6(r.reduction_factor)),
        format!("\"exhausted\": {}", r.exhausted),
        format!("\"truncated_runs\": {}", r.truncated_runs),
        format!("\"violations\": {}", r.violations.len()),
        format!("\"counterexamples\": [{counterexamples}]"),
    ];
    if include_timing {
        fields.push(format!("\"wall_ms\": {:.1}", r.wall_ms));
    }
    format!("    {{{}}}", fields.join(", "))
}

/// Renders the explore artifact. With `include_timing = false` the
/// output is a pure function of the specs (virtual time makes even the
/// schedule counts deterministic; only `wall_ms` is timing-class).
pub fn render_explore_json(results: &[ExploreResult], include_timing: bool) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{EXPLORE_SCHEMA}\",\n"));
    out.push_str("  \"results\": [\n");
    let rows: Vec<String> = results.iter().map(|r| result_json(r, include_timing)).collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Writes the explore artifact to `path` (timing fields included).
pub fn write_explore_json(path: &Path, results: &[ExploreResult]) -> io::Result<()> {
    std::fs::write(path, render_explore_json(results, true))
}

/// A fixed-width console summary, one line per explored spec.
pub fn explore_summary_table(results: &[ExploreResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>10} {:>10} {:>10} {:>9} {:>10} {:>10}\n",
        "explore spec", "executions", "distinct", "states", "reduction", "exhausted", "violations"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<28} {:>10} {:>10} {:>10} {:>9.2} {:>10} {:>10}\n",
            r.spec.name,
            r.executions,
            r.distinct_schedules,
            r.states_visited,
            r.reduction_factor,
            r.exhausted,
            r.violations.len(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert_eq!(explore_default_spec(1).validate(), Ok(()));
        assert_eq!(explore_smoke_spec(1).validate(), Ok(()));
        assert_eq!(explore_bug_spec(1).validate(), Ok(()));
    }

    #[test]
    fn validation_catches_bad_specs() {
        let bad = ExploreSpec { terminals: 1, ..ExploreSpec::default() };
        assert!(bad.validate().is_err());
        let bad = ExploreSpec { terminals: 9, ..ExploreSpec::default() };
        assert!(bad.validate().is_err());
        let bad = ExploreSpec { x_packets: 0, ..ExploreSpec::default() };
        assert!(bad.validate().is_err());
        let bad = ExploreSpec { depth: 0, ..ExploreSpec::default() };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn default_schedule_completes_cleanly() {
        let spec = ExploreSpec::default();
        let (rec, outcomes) = run_one(&spec, &[], std::time::Instant::now());
        assert!(!rec.truncated);
        assert!(rec.decisions.iter().all(|d| d.taken == DEFAULT_CHOICE));
        assert!(matches!(audit_session(&outcomes), SessionVerdict::Agreed { .. }));
    }

    #[test]
    fn executions_replay_deterministically() {
        let spec = ExploreSpec::default();
        let path = [Choice::Deliver(0), Choice::Drop(0)];
        // Different wall-clock bases on purpose: the record must not
        // depend on the base instant.
        let (a, outs_a) = run_one(&spec, &path, std::time::Instant::now());
        let (b, outs_b) = run_one(&spec, &path, std::time::Instant::now());
        assert_eq!(a.taken, b.taken);
        assert_eq!(a.events, b.events);
        assert_eq!(a.fingerprint(&outs_a), b.fingerprint(&outs_b));
    }

    #[test]
    fn small_exploration_is_exhaustive_and_clean() {
        let spec =
            ExploreSpec { name: "tiny".into(), depth: 8, drop_budget: 1, ..ExploreSpec::default() };
        let r = explore(&spec).expect("explores");
        assert!(r.exhausted, "tiny tree must be fully enumerated");
        assert!(r.violations.is_empty(), "the protocol must be safe under every schedule");
        assert_eq!(r.truncated_runs, 0);
        assert!(r.executions > 8, "got only {} executions", r.executions);
        assert!(r.distinct_schedules > 1);
        assert!(r.reduction_factor >= 1.0);
    }

    /// Runs `spec` with every delivery `lost` selects turned into a drop,
    /// one decision at a time: the replayed prefix is deterministic, so
    /// each run extends the last.
    fn run_losing(
        spec: &ExploreSpec,
        base: std::time::Instant,
        lost: impl Fn(&ExploreEvent) -> bool,
    ) -> (RunRecord, Vec<SessionOutcome>) {
        let mut path: Vec<Choice> = Vec::new();
        loop {
            let (rec, outcomes) = run_one(spec, &path, base);
            let Some(d) = rec.events.iter().position(|e| e.action == "deliver" && lost(e)) else {
                return (rec, outcomes);
            };
            let Choice::Deliver(rank) = rec.taken[d] else { unreachable!("a delivery") };
            path = rec.taken[..d].to_vec();
            path.push(Choice::Drop(rank));
        }
    }

    #[test]
    fn a_terminal_that_loses_the_whole_opening_burst_completes_on_top_ups() {
        use thinair_net::coordinator::opening_burst;
        use thinair_net::session::derive_plan;

        let spec = ExploreSpec {
            name: "burst_lost".into(),
            x_packets: 12,
            depth: usize::MAX,
            drop_budget: usize::MAX,
            ..ExploreSpec::default()
        };
        let base = std::time::Instant::now();
        // x-packets go out with consecutive seqs. Terminal 1 loses the
        // first four and terminal 2 the next four, so each decodes rows
        // the other cannot and both need z-combos.
        let (rec, _) = run_one(&spec, &[], base);
        let mut x_seqs: Vec<u32> =
            rec.events.iter().filter(|e| e.kind == "XPacket").map(|e| e.seq).collect();
        x_seqs.sort_unstable();
        x_seqs.dedup();
        let x_lost = |e: &ExploreEvent| {
            let rank = x_seqs.iter().position(|&s| s == e.seq).unwrap_or(usize::MAX);
            e.kind == "XPacket"
                && ((e.dst == 1 && rank < 4) || (e.dst == 2 && (4..8).contains(&rank)))
        };
        let (_, outcomes) = run_losing(&spec, base, x_lost);
        let cfg = spec.session_config();
        let trace = outcomes[0].trace.as_ref().expect("coordinator trace");
        let plan = derive_plan(&cfg, &trace.reports, trace.plan_seed).expect("plan rebuilds");
        assert!(plan.m() > plan.decodable[1].len(), "terminal 1 must need combos");
        let burst = opening_burst(&cfg, &plan, &trace.reports);
        // Now terminal 1 also loses every combo of the opening burst.
        let burst_lost = |e: &ExploreEvent| e.kind == "ZPacket" && e.dst == 1 && e.seq < burst;
        let (rec, outcomes) = run_losing(&spec, base, |e| x_lost(e) || burst_lost(e));
        let dropped = rec.events.iter().filter(|e| e.action == "drop" && burst_lost(e)).count();
        assert_eq!(dropped, burst as usize, "the whole opening burst is lost for terminal 1");
        assert!(
            rec.events.iter().any(|e| e.action == "deliver"
                && e.kind == "ZPacket"
                && e.dst == 1
                && e.seq >= burst),
            "terminal 1 is served by top-ups"
        );
        assert!(
            matches!(audit_session(&outcomes), SessionVerdict::Agreed { .. }),
            "top-ups complete the session: {:?}",
            outcomes.iter().map(|o| &o.abort).collect::<Vec<_>>()
        );
    }

    #[test]
    fn seeded_bug_is_found_and_shrunk_to_a_minimal_trace() {
        let r = explore(&explore_bug_spec(1)).expect("explores");
        assert!(
            !r.violations.is_empty(),
            "the planted premature-plan bug must be found (ran {} schedules)",
            r.executions
        );
        let cx = &r.violations[0];
        assert!(cx.deviations >= 1, "a violation needs at least one deviation");
        assert!(
            cx.deviations <= 2,
            "shrinking must reduce to <= 2 deviations, got {}",
            cx.deviations
        );
        assert!(
            cx.events.len() <= 15,
            "minimal frame-level trace must be <= 15 events, got {}",
            cx.events.len()
        );
        assert!(cx.events.iter().any(|e| e.deviation), "the trace must show the deviation");
        assert!(!cx.trace_jsonl.is_empty(), "counterexample ships a telemetry trace");
        assert!(cx.explanation.contains("deviation"));
    }
}
