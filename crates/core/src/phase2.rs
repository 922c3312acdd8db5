//! Phase 1 step 3–4 and phase 2: y/z/s announcement, reconciliation and
//! the group secret.
//!
//! The coordinator has a [`Plan`] (from [`crate::construct`]) and the
//! ground-truth x-pool. She:
//!
//! 1. reliably broadcasts the y-rows' *identities* (supports +
//!    coefficients, no contents) — paper phase 1 step 3;
//! 2. reliably broadcasts the `M−L` z-packets *with contents* — phase 2
//!    step 1 (Eve is conservatively assumed to receive these; her ledger
//!    records the corresponding x-space rows);
//! 3. reliably broadcasts the s-rows' identities — phase 2 step 3.
//!
//! Every terminal then computes the s-packets — the group secret — in
//! one product over the x-packets it knows and the fountain combos it
//! kept, through the map [`Plan::secret_map`] derives from the plan and
//! the combos' coefficients. No y-packet is ever materialized on a
//! terminal.

use thinair_gf::{kernel, Gf256, Matrix, PayloadPlane};
use thinair_netsim::stats::TxClass;
use thinair_netsim::{Medium, TxStats};

use crate::transport::reliable_message;

use crate::construct::Plan;
use crate::error::ProtocolError;
use crate::eve::EveLedger;
use crate::packet::Payload;
use crate::phase1::XPool;
use crate::wire::Message;

/// What phase 2 produced.
#[derive(Clone, Debug)]
pub struct Phase2Output {
    /// Ground-truth y payloads (coordinator side).
    pub y_payloads: Vec<Payload>,
    /// The group secret as each terminal computed it (index = terminal).
    pub secrets: Vec<Vec<Payload>>,
}

impl Phase2Output {
    /// True iff every terminal derived the identical group secret.
    pub fn all_agree(&self) -> bool {
        self.secrets.windows(2).all(|w| w[0] == w[1])
    }
}

/// Runs announcement, reconciliation and extraction for a built plan.
///
/// `medium` nodes `0..n_terminals` are terminals; `eve` records the
/// published z rows (contents reach her by the paper's conservative
/// assumption, so her channel is irrelevant here).
pub fn run_phase2(
    mut medium: impl Medium,
    stats: &mut TxStats,
    eve: &mut EveLedger,
    plan: &Plan,
    pool: &XPool,
    max_attempts: u32,
) -> Result<Phase2Output, ProtocolError> {
    let n_terminals = pool.known.len();
    let coordinator = plan.coordinator;
    let m = plan.m();
    let _l = plan.l;
    let targets: Vec<usize> = (0..n_terminals).filter(|&t| t != coordinator).collect();

    // Ground-truth y payloads (the coordinator can compute them all: every
    // support is inside her known set), one contiguous plane row per y.
    let y_plane = plan.w.mul_plane(&pool.payloads);

    // 1. Plan announcement. The construction is a deterministic function
    // of the reception reports (now shared by all) and a seed, so the
    // "identities of the x-packets she used" (paper, phase 1 step 3 and
    // phase 2 step 3) compress to the seed plus (M, L).
    let plan_msg = Message::PlanAnnounce {
        seed: 0, // simulated terminals share the Plan object; bits are what matter
        m: plan.m() as u16,
        l: plan.l as u16,
    };
    reliable_message(
        &mut medium,
        stats,
        coordinator,
        plan_msg.bits(),
        &targets,
        TxClass::Control,
        max_attempts,
    )?;

    // 2. z distribution, fountain-style. Any vector in the z row space is
    // as good as any other for reconciliation, so instead of pushing each
    // of the `M − L` z-packets to each terminal (coupon-collector
    // endgame), the coordinator broadcasts *random linear combinations*
    // of the z-packets. Every reception is innovative for every
    // still-needy terminal with overwhelming probability, so the number
    // of transmissions tracks the worst single terminal's demand. The
    // combination coefficients ride in the packet. Secrecy is untouched:
    // every combo lies in the span of the `C·W` rows that Eve is already
    // conservatively assumed to know in full (paper §2).
    let z_plane = plan.c_mat.mul_plane(&y_plane);
    let z_rows_x = plan.z_rows_x();
    let z_count = z_plane.rows();
    for k in 0..z_count {
        eve.note_public_row(z_rows_x.row(k));
    }
    // Per-terminal solvability tracking: terminal t is done when the
    // collected combos, projected onto its missing y-columns, reach full
    // rank.
    let missing_rows: Vec<Vec<usize>> = (0..n_terminals)
        .map(|t| {
            if t == coordinator {
                Vec::new()
            } else {
                (0..m).filter(|r| !plan.decodable[t].contains(r)).collect()
            }
        })
        .collect();
    let mut trackers: Vec<thinair_gf::RowEchelon> =
        missing_rows.iter().map(|mr| thinair_gf::RowEchelon::new(mr.len())).collect();
    let mut collected: Vec<Vec<(Vec<Gf256>, Vec<u8>)>> = vec![Vec::new(); n_terminals];
    let mut seq = 0u64;
    let mut attempts = 0u32;
    // Deterministic combo coefficients from a per-round counter (the
    // receiver reads them from the packet; we derive them reproducibly).
    let combo_coeff = |seq: u64, k: usize| -> Gf256 {
        // Small multiplicative hash onto GF(256); quality is irrelevant,
        // only genericity, which the rank tracker verifies per receiver.
        let h = (seq.wrapping_mul(0x9E3779B97F4A7C15)
            ^ (k as u64).wrapping_mul(0xC2B2AE3D27D4EB4F))
        .wrapping_mul(0xD6E8FEB86659FD93);
        Gf256((h >> 56) as u8)
    };
    while z_count > 0 && (0..n_terminals).any(|t| trackers[t].rank() < missing_rows[t].len()) {
        if attempts >= max_attempts {
            let mut missing: Vec<usize> =
                (0..n_terminals).filter(|&t| trackers[t].rank() < missing_rows[t].len()).collect();
            missing.sort_unstable();
            return Err(ProtocolError::Reliable(thinair_netsim::ReliableError::Unreachable {
                missing,
                attempts,
            }));
        }
        attempts += 1;
        let q: Vec<Gf256> = (0..z_count).map(|k| combo_coeff(seq, k)).collect();
        let payload = {
            let mut acc = vec![0u8; pool.payload_len];
            for (k, &qk) in q.iter().enumerate() {
                kernel::axpy(&mut acc, z_plane.row(k), qk.value());
            }
            acc
        };
        let msg = Message::ZPacket {
            index: seq as u16,
            coeffs: q.iter().map(|c| c.value()).collect(),
            payload: payload.clone(),
        };
        let bits = msg.bits();
        let delivery = medium.transmit(coordinator, bits);
        stats.record(coordinator, TxClass::Control, bits);
        let mut progress = false;
        for t in 0..n_terminals {
            if t == coordinator || !delivery.got(t) {
                continue;
            }
            if trackers[t].rank() >= missing_rows[t].len() {
                continue;
            }
            // Projection of q·C onto this terminal's missing columns.
            let qc: Vec<Gf256> = missing_rows[t]
                .iter()
                .map(|&col| (0..z_count).map(|k| q[k] * plan.c_mat[(k, col)]).sum::<Gf256>())
                .collect();
            if trackers[t].insert(&qc) {
                progress = true;
                collected[t].push((q.clone(), payload.clone()));
            }
        }
        if !progress {
            // Nobody needy reached anything new: likely a jammed slot.
            medium.tick();
        }
        seq += 1;
    }
    // One completion block-ACK per terminal for the z phase.
    for &t in &targets {
        stats.record(t, TxClass::Ack, thinair_netsim::ACK_BITS);
    }

    // 3. s identities: already pinned by the plan announcement — with the
    // canonical Cauchy split, rows M−L..M of the [C;D] matrix are the
    // s-rows. Nothing further goes on the air.

    // 4. Every terminal decodes from its known x-packets and the combos
    // it collected.
    let mut secrets: Vec<Vec<Payload>> = Vec::with_capacity(n_terminals);
    for (t, combos) in collected.iter().enumerate() {
        let secret_plane = if t == coordinator {
            plan.d_mat.mul_plane(&y_plane)
        } else {
            decode_secret(plan, pool, t, combos)?
        };
        secrets.push(secret_plane.to_payloads());
    }

    Ok(Phase2Output { y_payloads: y_plane.to_payloads(), secrets })
}

/// A terminal's group secret `E·x + F·P` ([`Plan::secret_map`]) from
/// the x-packets it knows and the fountain combos it collected
/// (`(coeffs over z-space, payload)` pairs).
fn decode_secret(
    plan: &Plan,
    pool: &XPool,
    terminal: usize,
    combos: &[(Vec<Gf256>, Vec<u8>)],
) -> Result<PayloadPlane, ProtocolError> {
    let coeffs = Matrix::from_rows(&combos.iter().map(|(q, _)| q.clone()).collect::<Vec<_>>());
    let map = plan
        .secret_map(terminal, &coeffs)
        .ok_or(ProtocolError::DecodeFailed { terminal, what: "y-packets from z system" })?;
    let n = plan.n_packets;
    let known = &pool.known[terminal];
    map.mul_rows(pool.payload_len, |j| {
        if j < n {
            known.contains(&j).then(|| pool.payloads.row(j))
        } else {
            combos.get(j - n).map(|(_, p)| p.as_slice())
        }
    })
    .ok_or(ProtocolError::DecodeFailed { terminal, what: "x-packet outside the known set" })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{build_plan, PlanParams, YRow};
    use crate::estimate::Estimator;
    use crate::eve::EveLedger;
    use crate::phase1::{run_phase1, Phase1Config};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeSet;
    use thinair_netsim::IidMedium;

    /// End-to-end phase1 + construction + phase2 over an iid medium.
    fn run_once(
        n_terminals: usize,
        p: f64,
        n_packets: usize,
        seed: u64,
    ) -> (Plan, Phase2Output, EveLedger, XPool) {
        let mut medium = IidMedium::symmetric(n_terminals + 1, p, seed);
        let mut stats = TxStats::new(n_terminals + 1);
        let mut eve = EveLedger::new(n_packets);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let cfg = Phase1Config {
            x_per_terminal: {
                let mut v = vec![0; n_terminals];
                v[0] = n_packets;
                v
            },
            payload_len: 16,
            max_attempts: 100_000,
        };
        let pool =
            run_phase1(&mut medium, &mut stats, &mut eve, &cfg, n_terminals, 0, &mut rng).unwrap();
        let est = Estimator::Oracle { eve_known: eve.received().clone() };
        let plan = build_plan(
            &pool.known,
            0,
            n_packets,
            &est,
            &mut rng,
            PlanParams { max_rows: 64, ..PlanParams::exact() },
        )
        .unwrap();
        let out = run_phase2(&mut medium, &mut stats, &mut eve, &plan, &pool, 100_000).unwrap();
        (plan, out, eve, pool)
    }

    /// The literal decode route of the paper, kept as the reference the
    /// one-pass decode is checked against: the y-rows terminal `terminal`
    /// computes directly from its known x-packets, the rest by solving the
    /// system given by the fountain combos it collected (`(coeffs over
    /// z-space, payload)` pairs), then `s = D·y`.
    fn reference_secret(
        plan: &Plan,
        pool: &XPool,
        terminal: usize,
        combos: &[(Vec<Gf256>, Vec<u8>)],
    ) -> Result<PayloadPlane, ProtocolError> {
        let m = plan.m();
        let mut y = PayloadPlane::zero(m, pool.payload_len);
        let mut have = vec![false; m];
        // Direct rows.
        for &r in &plan.decodable[terminal] {
            let row = &plan.rows[r];
            debug_assert!(row.support.iter().all(|j| pool.known[terminal].contains(j)));
            let acc = y.row_mut(r);
            for (&j, &c) in row.support.iter().zip(row.coeffs.iter()) {
                kernel::axpy(acc, pool.payloads.row(j), c.value());
            }
            have[r] = true;
        }
        let missing: Vec<usize> = (0..m).filter(|r| !have[*r]).collect();
        if !missing.is_empty() {
            if combos.len() < missing.len() {
                return Err(ProtocolError::DecodeFailed {
                    terminal,
                    what: "not enough z combos received",
                });
            }
            let z_count = plan.c_mat.rows();
            // Coefficient rows of the received combos over y-space: q·C.
            let mut a = Matrix::zero(0, missing.len());
            let mut rhs = PayloadPlane::with_capacity(combos.len(), pool.payload_len);
            for (q, payload) in combos {
                let row: Vec<Gf256> = missing
                    .iter()
                    .map(|&col| (0..z_count).map(|k| q[k] * plan.c_mat[(k, col)]).sum::<Gf256>())
                    .collect();
                a.push_row(&row);
                // rhs = payload - sum over known y's of (q·C)[j]·y_j.
                let mut acc = payload.clone();
                for (j, &have_j) in have.iter().enumerate() {
                    if have_j {
                        let qc_j: Gf256 = (0..z_count).map(|k| q[k] * plan.c_mat[(k, j)]).sum();
                        kernel::axpy(&mut acc, y.row(j), qc_j.value());
                    }
                }
                rhs.push_row(&acc);
            }
            let solved = a
                .solve_plane(&rhs)
                .ok_or(ProtocolError::DecodeFailed { terminal, what: "y-packets from z system" })?;
            for (pos, &r) in missing.iter().enumerate() {
                y.row_mut(r).copy_from_slice(solved.row(pos));
            }
        }
        Ok(plan.d_mat.mul_plane(&y))
    }

    /// `k` fountain combos drawn as the coordinator draws them: random
    /// coefficients `q` over the z-packets, payload `q·z`.
    fn draw_combos(
        plan: &Plan,
        pool: &XPool,
        k: usize,
        rng: &mut StdRng,
    ) -> Vec<(Vec<Gf256>, Vec<u8>)> {
        use rand::Rng;
        let z = plan.z_rows_x().mul_plane(&pool.payloads);
        (0..k)
            .map(|_| {
                let q: Vec<Gf256> = (0..z.rows()).map(|_| Gf256(rng.gen())).collect();
                let mut payload = vec![0u8; z.width()];
                for (i, qi) in q.iter().enumerate() {
                    kernel::axpy(&mut payload, z.row(i), qi.value());
                }
                (q, payload)
            })
            .collect()
    }

    /// Number of y-rows `terminal` cannot compute directly.
    fn missing(plan: &Plan, terminal: usize) -> usize {
        plan.m() - plan.decodable[terminal].len()
    }

    #[test]
    fn one_pass_decode_matches_reference_on_built_plans() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut decoded = 0;
        for seed in 0..8 {
            let (plan, _, _, pool) = run_once(4, 0.4, 30, seed);
            for t in 0..pool.known.len() {
                let combos = draw_combos(&plan, &pool, missing(&plan, t), &mut rng);
                let want = reference_secret(&plan, &pool, t, &combos).ok();
                assert_eq!(decode_secret(&plan, &pool, t, &combos).ok(), want, "seed {seed} t {t}");
                decoded += usize::from(want.is_some() && plan.l > 0);
            }
        }
        assert!(decoded > 0, "no nonempty secret was decoded");
    }

    /// How the synthetic terminal's directly decodable rows are chosen.
    #[derive(Clone, Copy, Debug)]
    enum Have {
        /// Every row: no combos needed (`k = 0`).
        All,
        /// A random subset, leaving at most `M − L` rows missing.
        Some,
        /// No row: every y-row must come from the combos (`k = M`).
        None,
    }

    /// A two-terminal plan over `n` x-packets with `m` random sparse
    /// y-rows, a Cauchy `[C; D]` and the given decodable split for
    /// terminal 1, plus a pool in which terminal 1 knows exactly the
    /// supports of its decodable rows.
    fn synthetic(
        n: usize,
        m: usize,
        l: usize,
        width: usize,
        have: Have,
        rng: &mut StdRng,
    ) -> (Plan, XPool) {
        use rand::Rng;
        let rows: Vec<YRow> = (0..m)
            .map(|_| {
                let support: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.4)).collect();
                let coeffs = support.iter().map(|_| Gf256(rng.gen())).collect();
                YRow { support, coeffs }
            })
            .collect();
        let mut w = Matrix::zero(0, n);
        for r in &rows {
            w.push_row(&r.dense(n));
        }
        let decodable: Vec<usize> = match have {
            Have::All => (0..m).collect(),
            Have::None => Vec::new(),
            Have::Some => {
                let mut d: Vec<usize> = (0..m).filter(|_| rng.gen_bool(0.5)).collect();
                for r in 0..m {
                    if d.len() + (m - l) >= m {
                        break;
                    }
                    if !d.contains(&r) {
                        d.push(r);
                    }
                }
                d.sort_unstable();
                d
            }
        };
        let known: BTreeSet<usize> =
            decodable.iter().flat_map(|&r| rows[r].support.iter().copied()).collect();
        let cd = thinair_mds::cauchy_matrix(m, m).unwrap();
        let plan = Plan {
            n_packets: n,
            coordinator: 0,
            rows,
            w,
            decodable: vec![(0..m).collect(), decodable],
            budgets: vec![0, l],
            l,
            c_mat: cd.select_rows(&(0..m - l).collect::<Vec<_>>()),
            d_mat: cd.select_rows(&(m - l..m).collect::<Vec<_>>()),
        };
        let mut payloads = PayloadPlane::zero(n, width);
        for j in 0..n {
            payloads.row_mut(j).iter_mut().for_each(|b| *b = rng.gen());
        }
        let pool = XPool {
            n_packets: n,
            payload_len: width,
            payloads,
            owner: vec![0; n],
            known: vec![(0..n).collect(), known],
        };
        (plan, pool)
    }

    proptest! {
        #[test]
        fn one_pass_decode_matches_reference_on_random_plans(
            seed in any::<u64>(),
            n in 1usize..24,
            m in 1usize..12,
            l_frac in 0.0f64..=1.0,
            width in 0usize..9,
            have in prop_oneof![Just(Have::All), Just(Have::Some), Just(Have::None)],
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let l = (l_frac * m as f64).round() as usize;
            let (plan, pool) = synthetic(n, m, l, width, have, &mut rng);
            let combos = draw_combos(&plan, &pool, missing(&plan, 1), &mut rng);
            let want = reference_secret(&plan, &pool, 1, &combos).ok();
            prop_assert_eq!(decode_secret(&plan, &pool, 1, &combos).ok(), want.clone());
            // With every row missing, the M − L z-packets can pin all M
            // y-rows down only when the secret is empty.
            if let Have::None = have {
                prop_assert!(want.is_none() || l == 0);
            }
        }
    }

    #[test]
    fn all_terminals_agree_on_the_secret() {
        for seed in 0..5 {
            let (plan, out, _, _) = run_once(4, 0.4, 30, seed);
            if plan.l == 0 {
                continue;
            }
            assert!(out.all_agree(), "seed {seed}");
            assert_eq!(out.secrets[0].len(), plan.l);
        }
    }

    #[test]
    fn oracle_estimator_yields_perfect_reliability() {
        let mut nonzero = 0;
        for seed in 10..20 {
            let (plan, _, eve, _) = run_once(3, 0.5, 40, seed);
            if plan.l == 0 {
                continue;
            }
            nonzero += 1;
            let r = eve.reliability(&plan.secret_rows_x());
            assert!((r - 1.0).abs() < 1e-12, "seed {seed}: reliability {r} with oracle estimator");
        }
        assert!(nonzero >= 5, "too few successful rounds to be meaningful");
    }

    #[test]
    fn secret_matches_coordinator_ground_truth() {
        let mut checked = 0;
        for seed in [42, 43, 44, 45] {
            let (plan, out, _, pool) = run_once(3, 0.3, 24, seed);
            if plan.l == 0 {
                continue;
            }
            // s = (D·W)·x straight from the ground-truth x payloads.
            let truth = plan.secret_rows_x().mul_plane(&pool.payloads).to_payloads();
            for (t, secret) in out.secrets.iter().enumerate() {
                assert_eq!(secret, &truth, "seed {seed} terminal {t}");
            }
            checked += 1;
        }
        assert!(checked > 0, "no round produced a secret");
    }

    #[test]
    fn eve_ledger_accumulates_z_rows() {
        let (plan, _, eve, _) = run_once(4, 0.45, 32, 77);
        if plan.m() == plan.l {
            return; // no z-packets this time
        }
        // Eve's rank must be at least the number of independent z rows
        // beyond her received x's — at minimum her knowledge is non-trivial.
        assert!(eve.knowledge_rank() >= plan.m() - plan.l);
    }
}
