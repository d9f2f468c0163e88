//! Monte Carlo oracle for the probability model `Estimate` states.
//!
//! Each triplet is sampled as the triangular distribution on `[lo, hi]`
//! with mode `likely`, by inverse-CDF draws written here independently of
//! `Estimate::probability_le`. The tests check that CDF on single triplets
//! and pin what a triplet sum means: exact for comonotone terms of one
//! shape, and for independent terms pessimistic above the sum's mean and
//! optimistic below it.

use chop_stat::Estimate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws per sampled distribution.
const SAMPLES: usize = 200_000;

/// Largest allowed gap between `probability_le` and a sampled share: about
/// 4.5 standard errors of a 200k-sample proportion at p = 0.5.
const TOLERANCE: f64 = 0.005;

fn triplet(lo: f64, likely: f64, hi: f64) -> Estimate {
    Estimate::new(lo, likely, hi).expect("ordered triplet")
}

/// The triangular quantile of `e` at `u` in `[0, 1)`.
fn quantile(e: &Estimate, u: f64) -> f64 {
    let (a, c, b) = (e.lo(), e.likely(), e.hi());
    if u * (b - a) < c - a {
        a + (u * (b - a) * (c - a)).sqrt()
    } else {
        b - ((1.0 - u) * (b - a) * (b - c)).sqrt()
    }
}

/// `SAMPLES` draws of `draw`, sorted so shares below a limit are cheap.
fn sorted_samples(seed: u64, mut draw: impl FnMut(&mut StdRng) -> f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut xs: Vec<f64> = (0..SAMPLES).map(|_| draw(&mut rng)).collect();
    xs.sort_by(f64::total_cmp);
    xs
}

/// Share of `sorted` at most `limit`.
fn share_le(sorted: &[f64], limit: f64) -> f64 {
    sorted.partition_point(|&x| x <= limit) as f64 / sorted.len() as f64
}

/// Checks `e.probability_le` against the sampled `sorted` at seven limits
/// spread over `(lo, hi)`.
fn assert_cdf_matches(what: &str, e: &Estimate, sorted: &[f64]) {
    for k in 1..8 {
        let limit = e.lo() + (e.hi() - e.lo()) * f64::from(k) / 8.0;
        let model = e.probability_le(limit).value();
        let sampled = share_le(sorted, limit);
        assert!(
            (model - sampled).abs() < TOLERANCE,
            "{what} {e} at {limit}: probability_le {model} vs sampled {sampled}"
        );
    }
}

#[test]
fn probability_le_matches_sampling_on_single_triplets() {
    let cases = [
        ("symmetric", triplet(0.0, 5.0, 10.0)),
        ("skewed", triplet(85.0, 100.0, 130.0)),
        ("lo == likely", triplet(5.0, 5.0, 15.0)),
        ("likely == hi", triplet(5.0, 15.0, 15.0)),
    ];
    for (seed, (name, e)) in (1..).zip(cases) {
        assert_cdf_matches(name, &e, &sorted_samples(seed, |rng| quantile(&e, rng.gen())));
    }
}

#[test]
fn sum_of_comonotone_terms_of_one_shape_is_exact() {
    // Copies of one triplet, and three triplets whose modes all sit 40 % of
    // the way from lo to hi; one uniform drives every term of a draw.
    let copies = [triplet(90.0, 100.0, 115.0); 5];
    let scaled =
        [triplet(90.0, 100.0, 115.0), triplet(180.0, 200.0, 230.0), triplet(10.0, 20.0, 35.0)];
    for (seed, terms) in [(11, &copies[..]), (12, &scaled[..])] {
        let sum: Estimate = terms.iter().copied().sum();
        let xs = sorted_samples(seed, |rng| {
            let u = rng.gen();
            terms.iter().map(|t| quantile(t, u)).sum()
        });
        assert_cdf_matches("comonotone sum", &sum, &xs);
    }
}

#[test]
fn sum_of_independent_terms_is_pessimistic_above_its_mean_and_optimistic_below() {
    // (terms, limit, triplet-sum P to 3 places, sampled P to 2 places).
    let cases = [
        // Five × (90, 100, 115), +5 % over the summed mode; the mean is 508.3.
        ([triplet(90.0, 100.0, 115.0); 5], 525.0, 0.733, 0.92),
        // Five × (85, 100, 130), +2 % over the summed mode, below the mean 525.
        ([triplet(85.0, 100.0, 130.0); 5], 510.0, 0.419, 0.245),
        // The same terms above their mean.
        ([triplet(85.0, 100.0, 130.0); 5], 545.0, 0.673, 0.83),
        // Symmetric terms below their mean, which is the summed mode.
        ([triplet(90.0, 100.0, 110.0); 5], 490.0, 0.320, 0.14),
    ];
    for (seed, (terms, limit, model_p, sampled_p)) in (21..).zip(cases) {
        let sum: Estimate = terms.iter().copied().sum();
        let mean = (sum.lo() + sum.likely() + sum.hi()) / 3.0;
        let model = sum.probability_le(limit).value();
        let xs = sorted_samples(seed, |rng| terms.iter().map(|t| quantile(t, rng.gen())).sum());
        let sampled = share_le(&xs, limit);
        assert!((model - model_p).abs() < 5e-4, "{sum} at {limit}: probability_le {model}");
        assert!((sampled - sampled_p).abs() < 0.01, "{sum} at {limit}: sampled {sampled}");
        if limit > mean {
            assert!(
                model < sampled - 0.05,
                "{sum} at {limit} above the mean: {model} vs {sampled}"
            );
        } else {
            assert!(
                model > sampled + 0.05,
                "{sum} at {limit} below the mean: {model} vs {sampled}"
            );
        }
    }
}
