//! **M** — Criterion micro-benchmarks for the protocol's primitives.
//!
//! The paper claims the protocol is "of polynomial complexity ...
//! implementable in simple wireless devices"; these benchmarks put
//! numbers on the building blocks: GF(2^8) kernels, dense linear algebra,
//! Reed–Solomon coding, the y/z/s construction, one session's payload
//! encode and decode, a full protocol round, and the datagram codec
//! every packet on the wire goes through.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;

use thinair_core::construct::{build_plan, PlanParams};
use thinair_core::round::{run_group_round, RoundConfig, XSchedule};
use thinair_core::wire::{bitmap_from_received, received_from_bitmap, Message};
use thinair_core::{Estimator, Tuning};
use thinair_gf::{kernel, Gf256, Matrix, PayloadPlane};
use thinair_mds::ReedSolomon;
use thinair_net::frame::{crc32, Frame, NetPayload};
use thinair_net::session::{derive_plan, Reconstructor};
use thinair_net::SessionConfig;
use thinair_netsim::IidMedium;

fn bench_gf_kernels(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let a: Vec<Gf256> = (0..1024).map(|_| Gf256(rng.gen())).collect();
    let b: Vec<Gf256> = (0..1024).map(|_| Gf256(rng.gen())).collect();
    c.bench_function("gf/dot_1k", |bench| {
        bench.iter(|| thinair_gf::dot(black_box(&a), black_box(&b)))
    });
    // The byte-plane axpy: 1 KiB of symbols, the protocol's hot-path op.
    let ab: Vec<u8> = a.iter().map(|x| x.value()).collect();
    let bb: Vec<u8> = b.iter().map(|x| x.value()).collect();
    c.bench_function("gf/axpy_1k", |bench| {
        bench.iter_batched(
            || ab.clone(),
            |mut dst| kernel::axpy(&mut dst, &bb, 0x53),
            BatchSize::SmallInput,
        )
    });
    // Same op through the legacy `&[Gf256]` wrapper.
    c.bench_function("gf/axpy_gf256_1k", |bench| {
        bench.iter_batched(
            || a.clone(),
            |mut dst| thinair_gf::add_assign_scaled(&mut dst, &b, Gf256(0x53)),
            BatchSize::SmallInput,
        )
    });
    // GF(2^8) addition (the c = 1 lane).
    c.bench_function("gf/xor_1k", |bench| {
        bench.iter_batched(
            || ab.clone(),
            |mut dst| kernel::xor_into(&mut dst, &bb),
            BatchSize::SmallInput,
        )
    });
}

fn bench_matrix(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let m64 = Matrix::random(64, 64, &mut rng);
    c.bench_function("matrix/rank_64x64", |bench| bench.iter(|| black_box(&m64).rank()));
    c.bench_function("matrix/inverse_64x64", |bench| bench.iter(|| black_box(&m64).inverse()));
    let m128 = Matrix::random(120, 160, &mut rng);
    c.bench_function("matrix/rank_120x160", |bench| bench.iter(|| black_box(&m128).rank()));

    // Payload-bundle application: the y/z/s hot path (64 coefficient rows
    // acting on 64 payloads of 1 KiB each).
    let plane = PayloadPlane::from_byte_rows(
        &(0..64).map(|_| (0..1024).map(|_| rng.gen()).collect()).collect::<Vec<_>>(),
    );
    c.bench_function("plane/mul_plane_64x64_1k", |bench| {
        bench.iter(|| black_box(&m64).mul_plane(black_box(&plane)))
    });
    let rhs_plane = m64.mul_plane(&plane);
    c.bench_function("plane/solve_plane_64x64_1k", |bench| {
        bench.iter(|| black_box(&m64).solve_plane(black_box(&rhs_plane)).unwrap())
    });
}

fn bench_rs(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let rs = ReedSolomon::new(16, 24).unwrap();
    let data: Vec<Vec<Gf256>> =
        (0..16).map(|_| (0..100).map(|_| Gf256(rng.gen())).collect()).collect();
    let coded = rs.encode(&data);
    c.bench_function("rs/encode_16_24_100B", |bench| bench.iter(|| rs.encode(black_box(&data))));
    let shares: Vec<(usize, Vec<Gf256>)> = (8..24).map(|i| (i, coded[i].clone())).collect();
    c.bench_function("rs/decode_all_parity", |bench| {
        bench.iter(|| rs.decode(black_box(&shares)).unwrap())
    });
    // Direct plane forms (no Vec<Vec<_>> conversion at the boundary).
    let data_plane = PayloadPlane::from_payloads(&data);
    c.bench_function("rs/encode_plane_16_24_100B", |bench| {
        bench.iter(|| rs.encode_plane(black_box(&data_plane)))
    });
    let share_idx: Vec<usize> = (8..24).collect();
    let share_plane = rs.encode_plane(&data_plane).select_rows(&share_idx);
    c.bench_function("rs/decode_plane_all_parity", |bench| {
        bench.iter(|| rs.decode_plane(black_box(&share_idx), black_box(&share_plane)).unwrap())
    });
}

fn bench_construction(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let n_packets = 120;
    let known: Vec<BTreeSet<usize>> = (0..6)
        .map(|i| {
            if i == 0 {
                (0..n_packets).collect()
            } else {
                (0..n_packets).filter(|_| rng.gen_bool(0.55)).collect()
            }
        })
        .collect();
    let est = Estimator::LeaveOneOut(Tuning::default());
    c.bench_function("construct/build_plan_n6_120pkts", |bench| {
        bench.iter(|| {
            let mut r = StdRng::seed_from_u64(7);
            build_plan(black_box(&known), 0, n_packets, &est, &mut r, PlanParams::default())
                .unwrap()
        })
    });

    // What every node of a `bulk`-shaped session runs once per session.
    let (cfg, reports, _) = bulk_session(&mut rng);
    c.bench_function("construct/derive_plan_bulk_4n_128pkts", |bench| {
        bench.iter(|| derive_plan(black_box(&cfg), black_box(&reports), 7).unwrap())
    });
}

/// The bulk session shape (4 nodes, a 128-packet coordinator-only pool
/// of 4 KiB payloads) with 25 % receiver loss: its config, the nodes'
/// reception reports, and the x payloads.
fn bulk_session(rng: &mut StdRng) -> (SessionConfig, Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let cfg = SessionConfig {
        n_nodes: 4,
        schedule: XSchedule::CoordinatorOnly(128),
        payload_len: 4096,
        drop_prob: 0.25,
        ..SessionConfig::default()
    };
    let reports: Vec<Vec<u8>> = (0..4)
        .map(|node| {
            let heard = (0..128).filter(|_| node != 0 && !rng.gen_bool(0.25));
            bitmap_from_received(128, heard)
        })
        .collect();
    let x: Vec<Vec<u8>> = (0..128).map(|_| (0..4096).map(|_| rng.gen()).collect()).collect();
    (cfg, reports, x)
}

fn bench_session(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let (cfg, reports, x) = bulk_session(&mut rng);
    let plan = derive_plan(&cfg, &reports, 7).unwrap();
    let coord_store: BTreeMap<usize, Vec<u8>> = x.iter().cloned().enumerate().collect();
    // What the coordinator computes once the plan stands: y, then the
    // z-packets the fountain combines and its own copy of the secret.
    c.bench_function("session/coord_encode_bulk_4n_128pkts", |bench| {
        bench.iter(|| {
            let y = plan.w.mul_rows(4096, |j| coord_store.get(&j).map(Vec::as_slice)).unwrap();
            (plan.c_mat.mul_plane(&y), plan.d_mat.mul_plane(&y))
        })
    });
    // Terminal 1's side: its store of heard packets, and enough fountain
    // combos (random coefficients over the z-packets) to fill its gap.
    let heard = received_from_bitmap(128, &reports[1]);
    let store: BTreeMap<usize, Vec<u8>> = heard.iter().map(|&j| (j, x[j].clone())).collect();
    let z = plan.c_mat.mul_plane(&plan.w.mul_plane(&PayloadPlane::from_byte_rows(&x)));
    let combos: Vec<(Vec<u8>, Vec<u8>)> = (0..plan.m())
        .map(|_| {
            let q: Vec<u8> = (0..z.rows()).map(|_| rng.gen()).collect();
            let mut payload = vec![0u8; 4096];
            for (k, &qk) in q.iter().enumerate() {
                kernel::axpy(&mut payload, z.row(k), qk);
            }
            (q, payload)
        })
        .collect();
    // Everything a terminal does with payloads from plan to secret.
    c.bench_function("session/reconstruct_bulk_4n_128pkts", |bench| {
        bench.iter_batched(
            || (store.clone(), combos.clone()),
            |(store, combos)| {
                let mut r = Reconstructor::new(plan.clone(), 4096, 1, store);
                for (q, payload) in combos {
                    if r.complete() {
                        break;
                    }
                    r.offer(q, payload);
                }
                r.secret(1).unwrap()
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_full_round(c: &mut Criterion) {
    let cfg = RoundConfig {
        schedule: XSchedule::CoordinatorOnly(60),
        payload_len: 100,
        estimator: Estimator::LeaveOneOut(Tuning::default()),
        ..RoundConfig::default()
    };
    c.bench_function("round/group_n5_60pkts_iid", |bench| {
        bench.iter(|| {
            let medium = IidMedium::symmetric(6, 0.5, 11);
            let mut rng = StdRng::seed_from_u64(13);
            run_group_round(medium, 5, 0, black_box(&cfg), &mut rng).unwrap()
        })
    });
}

fn bench_frame_codec(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    // A data-plane frame as the bulk workload sends it: a 4 KiB z-combo.
    let payload: Vec<u8> = (0..4096).map(|_| rng.gen()).collect();
    c.bench_function("frame_codec/crc32_4k", |bench| bench.iter(|| crc32(black_box(&payload))));
    let coeffs: Vec<u8> = (0..8).map(|_| rng.gen()).collect();
    let frame = Frame {
        flags: 0,
        sender: 0,
        session: 42,
        seq: 7,
        payload: NetPayload::Proto(Message::ZPacket { index: 7, coeffs, payload }),
    };
    c.bench_function("frame_codec/encode_zpacket_4k", |bench| {
        bench.iter(|| black_box(&frame).encode())
    });
    let wire = frame.encode();
    c.bench_function("frame_codec/decode_zpacket_4k", |bench| {
        bench.iter(|| Frame::decode(black_box(&wire)).unwrap())
    });
}

fn criterion_config() -> Criterion {
    // Keep `cargo bench` wall-time reasonable: these are smoke-level
    // latency measurements, not publication-grade statistics.
    Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2))
}

criterion_group! {
    name = benches;
    config = criterion_config();
    targets = bench_gf_kernels, bench_matrix, bench_rs, bench_construction, bench_session,
        bench_full_round, bench_frame_codec
}
criterion_main!(benches);
