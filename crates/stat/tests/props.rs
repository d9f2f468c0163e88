//! Property-based tests for the statistical environment.

use chop_stat::{Estimate, FeasibilityThreshold, Probability};
use proptest::prelude::*;

fn arb_estimate() -> impl Strategy<Value = Estimate> {
    (0.0f64..1e6, 0.0f64..1.0, 0.0f64..2.0)
        .prop_map(|(likely, below, above)| Estimate::with_spreads(likely, below, above))
}

proptest! {
    #[test]
    fn estimate_bounds_ordered(e in arb_estimate()) {
        prop_assert!(e.lo() <= e.likely());
        prop_assert!(e.likely() <= e.hi());
    }

    #[test]
    fn sum_preserves_ordering(a in arb_estimate(), b in arb_estimate()) {
        let s = a + b;
        prop_assert!(s.lo() <= s.likely() && s.likely() <= s.hi());
        prop_assert_eq!(s.lo(), a.lo() + b.lo());
        prop_assert_eq!(s.likely(), a.likely() + b.likely());
        prop_assert_eq!(s.hi(), a.hi() + b.hi());
    }

    #[test]
    fn probability_le_monotone_in_limit(e in arb_estimate(), x in 0.0f64..2e6, y in 0.0f64..2e6) {
        let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
        prop_assert!(e.probability_le(lo) <= e.probability_le(hi));
    }

    #[test]
    fn probability_le_bracket(e in arb_estimate()) {
        prop_assert_eq!(e.probability_le(e.hi()).value(), 1.0);
        if e.lo() > 0.0 {
            prop_assert_eq!(e.probability_le(e.lo() * 0.5).value(), 0.0);
        }
    }

    #[test]
    fn probability_meets_is_monotone(p in 0.0f64..1.0, t in 0.0f64..1.0) {
        let prob = Probability::new(p);
        let thr = FeasibilityThreshold::new(t);
        if prob.meets(thr) {
            // Any weaker threshold is also met.
            prop_assert!(prob.meets(FeasibilityThreshold::new(t * 0.5)));
        }
    }
}
