//! The asynchronous terminal state machine.
//!
//! The mirror image of [`crate::coordinator`]: acknowledges the start
//! barrier (checking the configuration digest), contributes its share
//! of x-packets (when the schedule rotates transmission), reliably
//! reports its receptions, rebuilds the coordinator's plan from the
//! shared reports plus the announced seed, drinks from the z fountain
//! until its missing y-rows reach full rank, derives the group secret
//! locally, and signals `Done`.
//!
//! Frames arrive in any order — a z-combo can outrun the plan
//! announcement, a peer's report can outrun `Start` — so every handler
//! is phase-independent and out-of-order data is buffered.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use thinair_core::wire::Message;

use crate::frame::{Frame, NetPayload};
use crate::reliable::{Dedup, Reliable, RetransmitPolicy};
use crate::rt;
use crate::rt::chan::Receiver;
use crate::session::{
    accept_report, derive_plan, AbortReason, DataKind, NetError, Reconstructor, SessionConfig,
    SessionOutcome, XState,
};
use crate::transport::{SharedTransport, Transport};

/// Runs one session as terminal `me`. `seed` feeds the terminal's own
/// x payloads (only used when the schedule gives it packets).
///
/// Sessions that cannot complete — deadline passed, a peer's attempt
/// budget exhausted, a configuration or plan mismatch — terminate with
/// a *clean abort*: an `Ok` outcome whose [`SessionOutcome::abort`]
/// names the structured reason. A terminal that derived a secret but
/// never saw `Fin` aborts and **discards** the secret: without the
/// final barrier it cannot know the group converged. `Err` is reserved
/// for infrastructure failures.
pub async fn run_terminal<T: Transport>(
    t: SharedTransport<T>,
    mut rx: Receiver<Frame>,
    session: u64,
    cfg: SessionConfig,
    seed: u64,
) -> Result<SessionOutcome, NetError> {
    let me = t.local_node();
    // Wire-width bounds abort cleanly (mirroring the coordinator): the
    // u16 fields cannot carry this session's parameters.
    if let Err(reason) = cfg.plan_bounds() {
        return Ok(SessionOutcome::aborted(session, me, cfg.n_packets(), reason, None));
    }
    cfg.validate()?;
    assert_ne!(me, cfg.coordinator, "coordinator must run run_coordinator");
    let n = cfg.n_nodes;
    let peers: Vec<u8> = (0..n).filter(|&p| p != me).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rel = Reliable::with_policy(RetransmitPolicy {
        initial_rto: cfg.retransmit,
        cap: cfg.rto_cap,
        max_attempts: cfg.max_attempts,
        seed,
    });
    let mut dedup = Dedup::new(n as usize);

    let mut xs = XState::new(&cfg, session, me);
    let n_packets = xs.n_packets();
    let mut reports: Vec<Option<Vec<u8>>> = vec![None; n as usize];
    let mut announce: Option<(u64, usize, usize)> = None; // (seed, m, l)
    let mut z_buffer: Vec<(Vec<u8>, Vec<u8>)> = Vec::new(); // pre-plan combos
    let mut recon: Option<Reconstructor> = None;
    let mut outcome: Option<SessionOutcome> = None;
    let mut started = false;
    let mut report_at: Option<Instant> = None;
    let mut report_sent = false;
    let mut fin_seen = false;
    let mut linger_until: Option<Instant> = None;

    let deadline = rt::now() + cfg.deadline;
    let tick = cfg.retransmit.min(Duration::from_millis(10));

    let aborted = |reason: AbortReason| {
        crate::telemetry::trace_abort(session, me, reason.kind());
        crate::telemetry::trace_end(session, me, false, 0);
        SessionOutcome::aborted(session, me, n_packets, reason, None)
    };

    let mut cur_phase = phase_name(false, false, false, false);
    let mut phase_entered = rt::now();
    crate::telemetry::trace_session_start(session, me, "terminal");
    crate::telemetry::trace_phase(session, me, cur_phase);

    loop {
        if rt::now() > deadline {
            // A terminal that derived its secret AND saw Fin has a
            // converged round — the deadline firing mid-linger must not
            // retroactively abort it.
            if fin_seen {
                if let Some(out) = outcome.take() {
                    note_complete(session, me, cur_phase, phase_entered, out.l as u32);
                    return Ok(out);
                }
            }
            let phase = phase_name(started, report_sent, announce.is_some(), outcome.is_some());
            return Ok(aborted(AbortReason::Deadline { phase }));
        }

        match rt::timeout(tick, rx.recv()).await {
            Err(rt::Elapsed) => {}
            Ok(None) => return Err(NetError::Closed),
            Ok(Some(frame)) => {
                let fresh = dedup.admit(&t, &frame)?;
                match frame.payload {
                    NetPayload::Ack { seq } => rel.on_ack(frame.sender, seq),
                    NetPayload::Start { digest } if frame.sender == cfg.coordinator => {
                        let want = cfg.digest();
                        if digest != want {
                            return Ok(aborted(AbortReason::ConfigMismatch { got: digest, want }));
                        }
                        if !started {
                            started = true;
                            // Contribute this terminal's x share, if any.
                            xs.broadcast_own(&t, &mut rel, &mut rng)?;
                            report_at = Some(rt::now() + cfg.x_settle);
                        }
                    }
                    NetPayload::Proto(Message::XPacket { id, owner, payload }) => {
                        xs.on_x_packet(frame.sender, id, owner, payload)
                    }
                    NetPayload::Proto(Message::ReceptionReport {
                        terminal,
                        n_packets: np,
                        bitmap,
                    }) => {
                        accept_report(
                            &mut reports,
                            n_packets,
                            fresh,
                            frame.sender,
                            terminal,
                            np,
                            bitmap,
                        );
                    }
                    NetPayload::Proto(Message::PlanAnnounce { seed, m, l })
                        if fresh && frame.sender == cfg.coordinator =>
                    {
                        announce = Some((seed, m as usize, l as usize));
                    }
                    NetPayload::Proto(Message::ZPacket { index, coeffs, payload })
                        if frame.sender == cfg.coordinator
                            && !xs.drops(DataKind::Z, index as u64) =>
                    {
                        match recon.as_mut() {
                            Some(r) => {
                                r.offer(coeffs, payload);
                            }
                            None if buffers_combo(
                                outcome.is_some(),
                                z_buffer.len(),
                                cfg.plan_params.max_rows,
                            ) =>
                            {
                                z_buffer.push((coeffs, payload))
                            }
                            None => {}
                        }
                    }
                    NetPayload::Fin if frame.sender == cfg.coordinator => {
                        fin_seen = true;
                    }
                    _ => {}
                }
            }
        }

        let now = rt::now();

        // Reception report, once the x phase has settled.
        if let Some(at) = report_at {
            if !report_sent && now >= at {
                let bitmap = xs.seal_report();
                reports[me as usize] = Some(bitmap.clone());
                let msg = Message::ReceptionReport {
                    terminal: me,
                    // In range: plan_bounds() aborted on entry otherwise.
                    n_packets: u16::try_from(n_packets).expect("bounded by plan_bounds"),
                    bitmap,
                };
                rel.send(&t, session, NetPayload::Proto(msg), &peers)?;
                report_sent = true;
            }
        }

        // Plan reconstruction, once every report and the announcement
        // are in. The seeded explorer-validation bug
        // (`cfg.bug_premature_plan`) relaxes the gate: it builds the
        // plan as soon as the announcement lands, substituting all-zero
        // bitmaps for reports it has not seen — an ordering bug only a
        // reordered/dropped report schedule can expose.
        let reports_ready =
            reports.iter().all(|r| r.is_some()) || (cfg.bug_premature_plan && announce.is_some());
        if recon.is_none() && outcome.is_none() && report_sent && reports_ready {
            if let Some((plan_seed, m, l)) = announce {
                let flat: Vec<Vec<u8>> = reports
                    .iter()
                    .map(|r| r.clone().unwrap_or_else(|| vec![0u8; n_packets.div_ceil(8)]))
                    .collect();
                let plan = derive_plan(&cfg, &flat, plan_seed)?;
                // The seeded bug also skips the dimension cross-check —
                // the safety net that would otherwise turn its premature
                // plan into a clean PlanMismatch abort.
                if !cfg.bug_premature_plan && (plan.m() != m || plan.l != l) {
                    return Ok(aborted(AbortReason::PlanMismatch));
                }
                if l == 0 {
                    // No secret this round; report completion directly.
                    outcome = Some(SessionOutcome {
                        session,
                        node: me,
                        l: 0,
                        m,
                        n_packets,
                        secret: Vec::new(),
                        abort: None,
                        trace: None,
                    });
                    rel.send(&t, session, NetPayload::Done, &[cfg.coordinator])?;
                } else {
                    let store = std::mem::take(&mut xs.store);
                    let mut r = Reconstructor::new(plan, cfg.payload_len, me, store);
                    for (coeffs, payload) in z_buffer.drain(..) {
                        r.offer(coeffs, payload);
                    }
                    recon = Some(r);
                }
                xs.release_store();
            }
        }

        // Secret derivation, once the fountain has filled the gap.
        if let Some(r) = recon.as_ref() {
            if r.complete() {
                let r = recon.take().expect("checked");
                let (m, l) = (r.plan().m(), r.plan().l);
                // Compute time, so a wall clock even under virtual time.
                let decode_start = Instant::now();
                let secret = r.secret(me)?;
                let decode_us = decode_start.elapsed().as_micros() as u64;
                crate::telemetry::observe("session.decode_us", decode_us);
                outcome = Some(SessionOutcome {
                    session,
                    node: me,
                    l,
                    m,
                    n_packets,
                    secret,
                    abort: None,
                    trace: None,
                });
                rel.send(&t, session, NetPayload::Done, &[cfg.coordinator])?;
            }
        }

        // The terminal's phases are implicit in its flags; diff the
        // derived name once per iteration so spans and the trace follow
        // the same milestones the deadline abort reports.
        let phase_now = phase_name(started, report_sent, announce.is_some(), outcome.is_some());
        if phase_now != cur_phase {
            crate::telemetry::observe(
                crate::telemetry::phase_metric("term", cur_phase),
                phase_entered.elapsed().as_micros() as u64,
            );
            phase_entered = rt::now();
            cur_phase = phase_now;
            crate::telemetry::trace_phase(session, me, cur_phase);
        }

        // After Fin, linger briefly (re-acking Fin retransmissions via
        // `dedup.admit`) so a lost Fin-ack cannot strand the
        // coordinator's fin barrier — the UDP equivalent of TIME_WAIT.
        if fin_seen && outcome.is_some() {
            match linger_until {
                None => linger_until = Some(now + cfg.retransmit * 12),
                Some(until) if now >= until => {
                    let out = outcome.take().expect("outcome set");
                    note_complete(session, me, cur_phase, phase_entered, out.l as u32);
                    return Ok(out);
                }
                Some(_) => {}
            }
        }

        if let Err(u) = rel.tick(&t, rt::now())? {
            // Same convergence guard as the deadline exit: after Fin the
            // round is known converged, so an exhausted attempt budget
            // (e.g. a permanently killed Done-ACK) must not discard the
            // secret.
            if fin_seen {
                if let Some(out) = outcome.take() {
                    note_complete(session, me, cur_phase, phase_entered, out.l as u32);
                    return Ok(out);
                }
            }
            let reason = AbortReason::Unreachable { missing: u.missing, attempts: u.attempts };
            return Ok(aborted(reason));
        }
    }
}

/// Whether a z-combo that arrives with no reconstructor goes into the
/// pre-plan buffer, given whether this terminal already holds its
/// outcome and how many combos wait there. The solver can use at most M
/// innovative combos, so the buffer is capped at twice the row cap and a
/// spoofed z-stream cannot grow it without bound. Once the outcome
/// exists nothing reads a combo again, so the burst's surplus is dropped
/// instead of being held through the post-`Fin` linger.
fn buffers_combo(derived: bool, buffered: usize, max_rows: usize) -> bool {
    !derived && buffered < 2 * max_rows
}

/// Settles telemetry for a completed terminal session: the final
/// phase's span lands in its `phase.term.*` histogram and the trace
/// records the successful end.
fn note_complete(session: u64, me: u8, phase: &'static str, entered: Instant, l: u32) {
    crate::telemetry::observe(
        crate::telemetry::phase_metric("term", phase),
        entered.elapsed().as_micros() as u64,
    );
    crate::telemetry::trace_end(session, me, true, l);
}

fn phase_name(started: bool, report_sent: bool, announced: bool, derived: bool) -> &'static str {
    if !started {
        "await start"
    } else if !report_sent {
        "x settle"
    } else if !announced {
        "await plan"
    } else if !derived {
        "z fountain"
    } else {
        "await fin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combos_are_buffered_only_before_the_outcome() {
        // Before the plan: buffered up to twice the row cap.
        assert!(buffers_combo(false, 0, 120));
        assert!(buffers_combo(false, 239, 120));
        assert!(!buffers_combo(false, 240, 120));
        // After the secret (or an l = 0 round): surplus burst combos are
        // dropped, not held through the linger.
        assert!(!buffers_combo(true, 0, 120));
    }
}
