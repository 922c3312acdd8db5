//! Property-based tests for the GF(2^8) field and its linear algebra.

use proptest::prelude::*;
use thinair_gf::{rank_increase, Gf256, Matrix, Poly, RowEchelon};

fn gf() -> impl Strategy<Value = Gf256> {
    any::<u8>().prop_map(Gf256)
}

fn gf_nonzero() -> impl Strategy<Value = Gf256> {
    (1u8..=255).prop_map(Gf256)
}

fn matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(any::<u8>(), r * c)
            .prop_map(move |data| Matrix::from_fn(r, c, |i, j| Gf256(data[i * c + j])))
    })
}

proptest! {
    // --- field axioms -----------------------------------------------------

    #[test]
    fn add_commutative(a in gf(), b in gf()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn add_associative(a in gf(), b in gf(), c in gf()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn mul_commutative(a in gf(), b in gf()) {
        prop_assert_eq!(a * b, b * a);
    }

    #[test]
    fn mul_associative(a in gf(), b in gf(), c in gf()) {
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn distributive(a in gf(), b in gf(), c in gf()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn additive_inverse_is_self(a in gf()) {
        prop_assert_eq!(a + a, Gf256::ZERO);
        prop_assert_eq!(-a, a);
    }

    #[test]
    fn multiplicative_inverse(a in gf_nonzero()) {
        prop_assert_eq!(a * a.inv(), Gf256::ONE);
    }

    #[test]
    fn division_consistent(a in gf(), b in gf_nonzero()) {
        prop_assert_eq!((a / b) * b, a);
    }

    #[test]
    fn pow_adds_exponents(a in gf_nonzero(), e1 in 0usize..600, e2 in 0usize..600) {
        prop_assert_eq!(a.pow(e1) * a.pow(e2), a.pow(e1 + e2));
    }

    #[test]
    fn frobenius_is_additive(a in gf(), b in gf()) {
        // In characteristic 2, squaring is a field automorphism.
        prop_assert_eq!((a + b).pow(2), a.pow(2) + b.pow(2));
    }

    // --- matrices ----------------------------------------------------------

    #[test]
    fn rank_bounded_by_dims(m in matrix(8)) {
        let r = m.rank();
        prop_assert!(r <= m.rows().min(m.cols()));
    }

    #[test]
    fn rank_matches_rref_pivot_count(m in matrix(12)) {
        let mut reduced = m.clone();
        prop_assert_eq!(m.rank(), reduced.rref_in_place().len());
    }

    #[test]
    fn rank_matches_rref_on_sparse_and_low_rank_matrices(
        (sparse, a, b) in (1usize..=12, 1usize..=12, 1usize..=4).prop_flat_map(|(r, c, k)| {
            (
                // Mostly-zero entries: zero columns and dependent rows.
                proptest::collection::vec(any::<u8>(), r * c).prop_map(move |d| {
                    Matrix::from_fn(r, c, |i, j| {
                        let x = d[i * c + j];
                        Gf256(if x < 200 { 0 } else { x })
                    })
                }),
                proptest::collection::vec(any::<u8>(), r * k)
                    .prop_map(move |d| Matrix::from_fn(r, k, |i, j| Gf256(d[i * k + j]))),
                proptest::collection::vec(any::<u8>(), k * c)
                    .prop_map(move |d| Matrix::from_fn(k, c, |i, j| Gf256(d[i * c + j]))),
            )
        })
    ) {
        // `a * b` has rank at most k: rectangular and rank-deficient.
        for m in [sparse, &a * &b] {
            let mut reduced = m.clone();
            prop_assert_eq!(m.rank(), reduced.rref_in_place().len());
        }
    }

    #[test]
    fn rank_invariant_under_transpose(m in matrix(7)) {
        prop_assert_eq!(m.rank(), m.transpose().rank());
    }

    #[test]
    fn product_rank_bounded(
        (a, b) in (1usize..=6, 1usize..=6, 1usize..=6).prop_flat_map(|(r, k, c)| {
            (
                proptest::collection::vec(any::<u8>(), r * k)
                    .prop_map(move |d| Matrix::from_fn(r, k, |i, j| Gf256(d[i * k + j]))),
                proptest::collection::vec(any::<u8>(), k * c)
                    .prop_map(move |d| Matrix::from_fn(k, c, |i, j| Gf256(d[i * c + j]))),
            )
        })
    ) {
        let p = &a * &b;
        prop_assert!(p.rank() <= a.rank().min(b.rank()));
    }

    #[test]
    fn inverse_round_trips(seed in any::<u64>()) {
        use rand::{SeedableRng, rngs::StdRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let m = Matrix::random(5, 5, &mut rng);
        if let Some(inv) = m.inverse() {
            prop_assert_eq!(&m * &inv, Matrix::identity(5));
        } else {
            prop_assert!(m.rank() < 5);
        }
    }

    #[test]
    fn solve_recovers_solution(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng, rngs::StdRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let m = Matrix::random(6, 6, &mut rng);
        let x: Vec<Gf256> = (0..6).map(|_| Gf256(rng.gen())).collect();
        let b = m.mul_vec(&x);
        match m.solve(&b) {
            Some(got) => prop_assert_eq!(got, x),
            None => prop_assert!(m.rank() < 6),
        }
    }

    #[test]
    fn echelon_rank_matches_dense(m in matrix(8)) {
        let mut re = RowEchelon::new(m.cols());
        re.insert_matrix(&m);
        prop_assert_eq!(re.rank(), m.rank());
    }

    #[test]
    fn rank_increase_subadditive(
        (a, b) in (1usize..=6, 1usize..=6, 1usize..=6).prop_flat_map(|(ra, rb, c)| {
            (
                proptest::collection::vec(any::<u8>(), ra * c)
                    .prop_map(move |d| Matrix::from_fn(ra, c, |i, j| Gf256(d[i * c + j]))),
                proptest::collection::vec(any::<u8>(), rb * c)
                    .prop_map(move |d| Matrix::from_fn(rb, c, |i, j| Gf256(d[i * c + j]))),
            )
        })
    ) {
        let inc = rank_increase(&a, &b);
        prop_assert!(inc <= b.rank());
        prop_assert_eq!(a.vstack(&b).rank(), a.rank() + inc);
    }

    // --- polynomials -------------------------------------------------------

    #[test]
    fn poly_eval_is_ring_hom(
        a in proptest::collection::vec(any::<u8>(), 0..8),
        b in proptest::collection::vec(any::<u8>(), 0..8),
        x in gf(),
    ) {
        let pa = Poly::from_coeffs(a.into_iter().map(Gf256).collect());
        let pb = Poly::from_coeffs(b.into_iter().map(Gf256).collect());
        prop_assert_eq!(pa.add(&pb).eval(x), pa.eval(x) + pb.eval(x));
        prop_assert_eq!(pa.mul(&pb).eval(x), pa.eval(x) * pb.eval(x));
    }

    #[test]
    fn poly_div_rem_invariant(
        a in proptest::collection::vec(any::<u8>(), 0..10),
        b in proptest::collection::vec(any::<u8>(), 1..6),
    ) {
        let pa = Poly::from_coeffs(a.into_iter().map(Gf256).collect());
        let pb = Poly::from_coeffs(b.into_iter().map(Gf256).collect());
        prop_assume!(!pb.is_zero());
        let (q, r) = pa.div_rem(&pb);
        prop_assert_eq!(q.mul(&pb).add(&r), pa);
    }

    #[test]
    fn interpolation_round_trip(coeffs in proptest::collection::vec(any::<u8>(), 1..8)) {
        let f = Poly::from_coeffs(coeffs.into_iter().map(Gf256).collect());
        let n = f.coeffs().len().max(1);
        let pts: Vec<(Gf256, Gf256)> =
            (0..n as u8).map(|i| (Gf256(i), f.eval(Gf256(i)))).collect();
        let g = Poly::interpolate(&pts);
        for x in Gf256::all().take(32) {
            prop_assert_eq!(f.eval(x), g.eval(x));
        }
    }
}
