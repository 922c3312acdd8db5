//! Property tests pinning the byte-plane kernels and `PayloadPlane`
//! operations to the scalar `Gf256` reference arithmetic: the wide
//! kernels are pure refactors of the same field math, so every output
//! must be bit-identical to the one-symbol-at-a-time computation.

use proptest::prelude::*;
use thinair_gf::{kernel, Gf256, Matrix, PayloadPlane};

/// Scalar reference product straight from the field's operator impl
/// (log/exp tables), independent of the kernel tables.
fn mul_ref(a: u8, b: u8) -> u8 {
    (Gf256(a) * Gf256(b)).value()
}

fn bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..max_len)
}

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(any::<u8>(), rows * cols)
        .prop_map(move |d| Matrix::from_fn(rows, cols, |i, j| Gf256(d[i * cols + j])))
}

proptest! {
    // --- kernels vs scalar reference ---------------------------------------

    #[test]
    fn gf_mul_matches_field(a in any::<u8>(), b in any::<u8>()) {
        prop_assert_eq!(kernel::gf_mul(a, b), mul_ref(a, b));
    }

    #[test]
    fn axpy_matches_scalar(dst in bytes(70), c in any::<u8>(), seed in any::<u8>()) {
        let src: Vec<u8> =
            (0..dst.len()).map(|i| (i as u8).wrapping_mul(163).wrapping_add(seed)).collect();
        let expect: Vec<u8> =
            dst.iter().zip(src.iter()).map(|(&d, &s)| d ^ mul_ref(c, s)).collect();
        let mut got = dst.clone();
        kernel::axpy(&mut got, &src, c);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn xor_into_matches_scalar(dst in bytes(70), seed in any::<u8>()) {
        let src: Vec<u8> =
            (0..dst.len()).map(|i| (i as u8).wrapping_mul(59).wrapping_add(seed)).collect();
        let expect: Vec<u8> = dst.iter().zip(src.iter()).map(|(&d, &s)| d ^ s).collect();
        let mut got = dst.clone();
        kernel::xor_into(&mut got, &src);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn scale_matches_scalar(v in bytes(70), c in any::<u8>()) {
        let expect: Vec<u8> = v.iter().map(|&x| mul_ref(c, x)).collect();
        let mut got = v.clone();
        kernel::scale_in_place(&mut got, c);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn dot_matches_scalar(a in bytes(70), seed in any::<u8>()) {
        let b: Vec<u8> =
            (0..a.len()).map(|i| (i as u8).wrapping_mul(101).wrapping_add(seed)).collect();
        let expect = a.iter().zip(b.iter()).fold(0u8, |acc, (&x, &y)| acc ^ mul_ref(x, y));
        prop_assert_eq!(kernel::dot(&a, &b), expect);
    }

    #[test]
    fn doubles_equal_axpy_for_every_coeff(src in bytes(40), c in any::<u8>()) {
        let mut doubles = kernel::Doubles::new();
        doubles.set_from(&src);
        let mut via_axpy = vec![0x5Au8; src.len()];
        let mut via_doubles = via_axpy.clone();
        kernel::axpy(&mut via_axpy, &src, c);
        doubles.accumulate(&mut via_doubles, c);
        prop_assert_eq!(via_axpy, via_doubles);
    }

    // --- plane ops vs per-symbol reference ---------------------------------

    #[test]
    fn mul_plane_matches_per_symbol_mul_vec(
        (m, p) in (1usize..=5, 1usize..=5).prop_flat_map(|(r, c)| {
            (matrix(r, c), plane_exact(c, 9))
        })
    ) {
        let out = m.mul_plane(&p);
        prop_assert_eq!(out.rows(), m.rows());
        prop_assert_eq!(out.width(), p.width());
        for k in 0..p.width() {
            let col: Vec<Gf256> = (0..p.rows()).map(|r| Gf256(p.row(r)[k])).collect();
            let expect = m.mul_vec(&col);
            for (r, want) in expect.iter().enumerate() {
                prop_assert_eq!(Gf256(out.row(r)[k]), *want, "row {} sym {}", r, k);
            }
        }
    }

    #[test]
    fn mul_rows_equals_mul_plane(
        (m, p, zero_cols) in (1usize..=5, 1usize..=5).prop_flat_map(|(r, c)| {
            (matrix(r, c), plane_exact(c, 9), proptest::collection::vec(any::<bool>(), c))
        })
    ) {
        // Blank some columns: their source rows are then withheld, and
        // must never be asked for.
        let m = Matrix::from_fn(m.rows(), m.cols(), |r, c| {
            if zero_cols[c] { Gf256::ZERO } else { m[(r, c)] }
        });
        let needed = |c: usize| (0..m.rows()).any(|r| !m[(r, c)].is_zero());
        let via_rows = m.mul_rows(p.width(), |c| needed(c).then(|| p.row(c)));
        prop_assert_eq!(via_rows, Some(m.mul_plane(&p)));
        // Withholding a row that is needed fails instead.
        if let Some(gap) = (0..m.cols()).find(|&c| needed(c)) {
            prop_assert!(m.mul_rows(p.width(), |c| (c != gap).then(|| p.row(c))).is_none());
        }
    }

    #[test]
    fn solve_plane_round_trips(seed in any::<u64>(), width in 0usize..9) {
        use rand::{Rng, SeedableRng, rngs::StdRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..6);
        let m = Matrix::random(n, n, &mut rng);
        let mut x = PayloadPlane::zero(n, width);
        for r in 0..n {
            for k in 0..width {
                x.row_mut(r)[k] = rng.gen();
            }
        }
        let b = m.mul_plane(&x);
        match m.solve_plane(&b) {
            Some(got) => prop_assert_eq!(got, x),
            None => prop_assert!(m.rank() < n),
        }
    }

    #[test]
    fn solve_plane_matches_scalar_solve_per_symbol(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng, rngs::StdRng};
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51CE);
        let n = rng.gen_range(1..6);
        let m = Matrix::random(n, n, &mut rng);
        let width = rng.gen_range(1..6);
        let mut b = PayloadPlane::zero(n, width);
        for r in 0..n {
            for k in 0..width {
                b.row_mut(r)[k] = rng.gen();
            }
        }
        let plane_solution = m.solve_plane(&b);
        // Column-by-column scalar solves must agree exactly.
        for k in 0..width {
            let col: Vec<Gf256> = (0..n).map(|r| Gf256(b.row(r)[k])).collect();
            let scalar = m.solve(&col);
            match (&plane_solution, scalar) {
                (Some(p), Some(s)) => {
                    for (r, want) in s.iter().enumerate() {
                        prop_assert_eq!(Gf256(p.row(r)[k]), *want);
                    }
                }
                (None, None) => {}
                (p, s) => prop_assert!(
                    false,
                    "solver disagreement at symbol {}: plane {:?} scalar {:?}",
                    k, p.is_some(), s.is_some()
                ),
            }
        }
    }
}

/// An exact-shape random plane strategy (proptest helper).
fn plane_exact(rows: usize, max_width: usize) -> impl Strategy<Value = PayloadPlane> {
    (0..=max_width).prop_flat_map(move |w| {
        proptest::collection::vec(any::<u8>(), rows * w).prop_map(move |data| {
            let mut p = PayloadPlane::zero(rows, w);
            for (r, chunk) in data.chunks(w.max(1)).take(rows).enumerate() {
                if w > 0 {
                    p.row_mut(r).copy_from_slice(chunk);
                }
            }
            p
        })
    })
}
