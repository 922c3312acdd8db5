//! Golden digest of `derive_plan` outputs.
//!
//! Every node rebuilds the coordinator's plan from the shared reports
//! and the announced seed, so `derive_plan` must stay bit-identical
//! across any rewrite of the construction: a faster `build_plan` that
//! picks one different support, coefficient or decodable row would
//! split a live group. This test folds every field of several hundred
//! plans per configuration into one FNV-1a digest and pins it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use thinair_core::construct::Plan;
use thinair_core::estimate::{Estimator, Tuning};
use thinair_core::round::XSchedule;
use thinair_core::wire::bitmap_from_received;
use thinair_net::session::derive_plan;
use thinair_net::SessionConfig;

/// Report sets drawn per configuration.
const REPORT_SETS: u64 = 200;

/// Receiver loss rates the report sets cycle through, so the pinned
/// plans cover sparse and dense reception, not just one operating point.
const LOSS: [f64; 4] = [0.1, 0.25, 0.4, 0.6];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn fold_plan(h: &mut Fnv, plan: &Plan) {
    h.fold(plan.m() as u64);
    h.fold(plan.l as u64);
    for &b in &plan.budgets {
        h.fold(b as u64);
    }
    for rows in &plan.decodable {
        h.fold(rows.len() as u64);
        for &r in rows {
            h.fold(r as u64);
        }
    }
    for row in &plan.rows {
        h.fold(row.support.len() as u64);
        for (&j, &c) in row.support.iter().zip(row.coeffs.iter()) {
            h.fold(j as u64);
            h.fold(c.value() as u64);
        }
    }
    for mat in [&plan.w, &plan.c_mat, &plan.d_mat] {
        h.fold(mat.rows() as u64);
        h.fold(mat.cols() as u64);
        for row in mat.rows_iter() {
            for g in row {
                h.fold(g.value() as u64);
            }
        }
    }
}

/// Digest of `REPORT_SETS` plans derived under `cfg`, each from a seeded
/// set of reception reports and a seeded plan seed. Also checks that the
/// digest pins real constructions: at least a quarter of the plans carry
/// a secret.
fn digest(cfg: &SessionConfig, seed: u64) -> u64 {
    let owners = cfg.owners();
    let n_packets = owners.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = Fnv::new();
    let mut with_secret = 0u64;
    for set in 0..REPORT_SETS {
        let loss = LOSS[(set % LOSS.len() as u64) as usize];
        let reports: Vec<Vec<u8>> = (0..cfg.n_nodes as usize)
            .map(|node| {
                let heard: Vec<usize> =
                    (0..n_packets).filter(|&j| owners[j] != node && !rng.gen_bool(loss)).collect();
                bitmap_from_received(n_packets, heard.into_iter())
            })
            .collect();
        let plan_seed: u64 = rng.gen();
        match derive_plan(cfg, &reports, plan_seed) {
            Ok(plan) => {
                with_secret += u64::from(plan.l > 0);
                fold_plan(&mut h, &plan);
            }
            Err(e) => {
                h.fold(u64::MAX);
                for b in e.to_string().bytes() {
                    h.fold(b as u64);
                }
            }
        }
    }
    assert!(4 * with_secret >= REPORT_SETS, "only {with_secret} plans carry a secret");
    h.0
}

fn shaped(n_nodes: u8, x_packets: usize, payload_len: usize) -> SessionConfig {
    SessionConfig {
        n_nodes,
        schedule: XSchedule::CoordinatorOnly(x_packets),
        payload_len,
        drop_prob: 0.25,
        ..SessionConfig::default()
    }
}

#[test]
fn bulk_session_plans_are_pinned() {
    assert_eq!(digest(&shaped(4, 128, 4096), 1), 0xC63C_4C14_07D5_4AC4);
}

#[test]
fn light_session_plans_are_pinned() {
    assert_eq!(digest(&shaped(4, 10, 8), 2), 0x5961_DAB0_7737_E4EF);
}

#[test]
fn overload_session_plans_are_pinned() {
    assert_eq!(digest(&shaped(3, 12, 8), 3), 0xC496_3B70_F0A4_E065);
}

#[test]
fn default_config_plans_are_pinned() {
    assert_eq!(digest(&SessionConfig::default(), 4), 0x00FF_3D22_03AA_AA1C);
}

#[test]
fn rotating_schedule_plans_are_pinned() {
    let cfg = SessionConfig { schedule: XSchedule::Uniform(16), ..SessionConfig::default() };
    assert_eq!(digest(&cfg, 5), 0x509B_6A6E_EF9B_AB36);
}

#[test]
fn k_collusion_plans_are_pinned() {
    let cfg = SessionConfig {
        n_nodes: 5,
        estimator: Estimator::KCollusion { k: 2, tuning: Tuning::default() },
        ..SessionConfig::default()
    };
    assert_eq!(digest(&cfg, 6), 0xED94_358D_CAED_86BD);
}

#[test]
fn fixed_fraction_plans_are_pinned() {
    let cfg = SessionConfig {
        schedule: XSchedule::CoordinatorOnly(40),
        estimator: Estimator::FixedFraction { fraction: 0.5 },
        ..SessionConfig::default()
    };
    assert_eq!(digest(&cfg, 7), 0xD335_B823_CAE6_C5F3);
}
