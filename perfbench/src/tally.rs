//! Audits every session and sorts the window's sessions into agreed and
//! failed.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use thinair_gf::Gf256;
use thinair_net::{AbortReason, SessionOutcome};
use thinair_scenario::{audit_session, SessionVerdict};

use crate::harness::SessionRecord;

/// The audited sessions of one run.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Window sessions with a verdict: `agreed + failed()`.
    pub attempted: u64,
    /// Agreed within the latency limit, finished inside the window.
    pub agreed: u64,
    /// Finished inside the window with a clean abort.
    pub aborted: u64,
    /// Finished inside the window agreed, but slower than the limit.
    pub over_limit: u64,
    /// Still running at the window's end, already past the limit.
    pub unfinished: u64,
    /// `Node::coordinate` returned an infrastructure error.
    pub errors: u64,
    /// Window sessions whose outcomes break the safety invariant.
    pub violations: u64,
    /// Still running at the window's end, within the limit: neither
    /// agreed nor failed.
    pub censored: u64,
    /// Violations among all sessions of the run, warm-up and grace
    /// included. Must be 0.
    pub violations_total: u64,
    /// What each violation was.
    pub violation_notes: Vec<String>,
    /// Abort-reason kind → window sessions affected.
    pub abort_reasons: BTreeMap<String, u64>,
    /// Launch-to-outcome latency of every window session that finished
    /// inside the window, ms, sorted.
    pub latencies_ms: Vec<f64>,
    /// Secret bytes agreed (`l × payload_len` over agreed sessions).
    pub secret_bytes: u64,
    /// Sums of the plan's `l` and `m` over agreed sessions.
    pub l_sum: u64,
    /// See `l_sum`.
    pub m_sum: u64,
    /// Daemon outcomes the agreed sessions lacked when the run ended.
    pub missing_daemon_outcomes: u64,
}

impl Tally {
    /// Window sessions that failed: aborts, violations, errors, sessions
    /// over the limit and sessions unfinished past it.
    pub fn failed(&self) -> u64 {
        self.aborted + self.over_limit + self.unfinished + self.errors + self.violations
    }

    /// The exact `p`-quantile (nearest rank) of the window latencies.
    pub fn latency_ms(&self, p: f64) -> f64 {
        percentile(&self.latencies_ms, p)
    }
}

/// Nearest-rank `p`-quantile of sorted values (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What the audit reads of one node's outcome, kept small: a run holds
/// tens of thousands of them, and the benchmark's own memory is part of
/// `peak_rss_mb`.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Session id.
    pub session: u64,
    /// Node that reported it.
    pub node: u8,
    /// Secret length in packets.
    pub l: usize,
    /// y-packets.
    pub m: usize,
    /// x-pool size.
    pub n_packets: usize,
    /// `SessionOutcome::key`: the 32-byte key derived from the secret.
    pub key: Option<[u8; 32]>,
    /// Why the session aborted, if it did.
    pub abort: Option<AbortReason>,
}

impl Summary {
    /// Summarises an outcome.
    pub fn of(out: &SessionOutcome) -> Self {
        Summary {
            session: out.session,
            node: out.node,
            l: out.l,
            m: out.m,
            n_packets: out.n_packets,
            key: out.key(),
            abort: out.abort.clone(),
        }
    }

    /// An outcome for `audit_session` whose secret is the key. Two
    /// outcomes hold equal secrets exactly when their keys are equal (up
    /// to a KDF collision), so the audit reaches the same verdict.
    fn outcome(&self) -> SessionOutcome {
        let secret = self.key.map(|k| vec![k.iter().map(|&b| Gf256(b)).collect()]);
        SessionOutcome {
            session: self.session,
            node: self.node,
            l: self.l,
            m: self.m,
            n_packets: self.n_packets,
            secret: secret.unwrap_or_default(),
            abort: self.abort.clone(),
            trace: None,
        }
    }
}

/// The audit verdict of one session over its coordinator outcome and
/// whatever daemon outcomes exist for it.
pub fn audit(coord: &Summary, daemons: &[&Summary]) -> SessionVerdict {
    let mut outs: Vec<SessionOutcome> = daemons.iter().map(|o| o.outcome()).collect();
    outs.push(coord.outcome());
    audit_session(&outs)
}

/// The audit verdict of a session over its daemon outcomes alone, for
/// a session without a coordinator outcome. `daemons` must not be empty.
pub fn audit_daemons(daemons: &[&Summary]) -> SessionVerdict {
    let outs: Vec<SessionOutcome> = daemons.iter().map(|o| o.outcome()).collect();
    audit_session(&outs)
}

fn note_violation(t: &mut Tally, session: u64, verdict: &SessionVerdict) {
    if let SessionVerdict::Violation { what } = verdict {
        t.violations_total += 1;
        t.violation_notes.push(format!("session {session}: {what}"));
    }
}

/// Audits every session of a run and tallies the window `[t0, t1)`:
/// sessions launched in it, judged by how they stood at `t1`. A session
/// without a coordinator outcome (an error, no return yet, or no record)
/// is still audited over its daemon outcomes.
pub fn tally(
    records: &[SessionRecord],
    daemon_outcomes: &[Summary],
    window: (Instant, Instant),
    limit: Duration,
    nodes: u8,
    payload_len: usize,
) -> Tally {
    let (t0, t1) = window;
    let mut by_session: BTreeMap<u64, Vec<&Summary>> = BTreeMap::new();
    for out in daemon_outcomes {
        by_session.entry(out.session).or_default().push(out);
    }
    let mut t = Tally::default();
    for rec in records {
        let daemons = by_session.remove(&rec.id).unwrap_or_default();
        let verdict = match &rec.outcome {
            Some(Ok(out)) => Some(audit(out, &daemons)),
            // Without the coordinator's outcome only a violation among
            // the daemons is a verdict.
            _ if !daemons.is_empty() => Some(audit_daemons(&daemons))
                .filter(|v| matches!(v, SessionVerdict::Violation { .. })),
            _ => None,
        };
        if let Some(v) = &verdict {
            note_violation(&mut t, rec.id, v);
        }
        if rec.launched < t0 || rec.launched >= t1 {
            continue;
        }
        let done = rec.finished.filter(|&f| f < t1);
        let Some(finished) = done else {
            if t1 - rec.launched > limit {
                t.unfinished += 1;
            } else {
                t.censored += 1;
            }
            continue;
        };
        let latency = finished - rec.launched;
        t.latencies_ms.push(latency.as_secs_f64() * 1e3);
        match verdict {
            Some(SessionVerdict::Violation { .. }) => t.violations += 1,
            Some(SessionVerdict::Agreed { l, m }) => {
                if latency > limit {
                    t.over_limit += 1;
                    continue;
                }
                t.agreed += 1;
                t.l_sum += l as u64;
                t.m_sum += m as u64;
                t.secret_bytes += (l * payload_len) as u64;
                t.missing_daemon_outcomes +=
                    (nodes as usize - 1).saturating_sub(daemons.len()) as u64;
            }
            Some(SessionVerdict::AbortedClean { reasons }) => {
                t.aborted += 1;
                for kind in reasons.keys() {
                    *t.abort_reasons.entry(kind.clone()).or_insert(0) += 1;
                }
            }
            None => t.errors += 1,
        }
    }
    // Daemon outcomes of sessions the coordinator never recorded.
    for (session, daemons) in &by_session {
        note_violation(&mut t, *session, &audit_daemons(daemons));
    }
    t.attempted = t.agreed + t.failed();
    t.latencies_ms.sort_by(f64::total_cmp);
    t
}
