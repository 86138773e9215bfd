//! Brute-force oracle for the fair-set algebra: enumerate *all*
//! subsets of a small attributed set, keep the fair & maximal ones by
//! definition, and compare against `Combination` / `CombinationPro`.

use fair_biclique::fairset::{is_fair, is_fair_pro, max_fair_subsets};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// All maximal (pro-)fair subsets of `items` by exhaustive search.
fn oracle_max_fair_subsets(
    groups: &[Vec<u32>],
    k: u32,
    delta: u32,
    theta: Option<f64>,
) -> BTreeSet<Vec<u32>> {
    let items: Vec<(u32, usize)> = groups
        .iter()
        .enumerate()
        .flat_map(|(a, g)| g.iter().map(move |&v| (v, a)))
        .collect();
    let n = items.len();
    assert!(n <= 16);
    let n_attrs = groups.len();
    let feasible = |mask: u32| -> bool {
        let mut counts = vec![0u32; n_attrs];
        for (i, &(_, a)) in items.iter().enumerate() {
            if mask & (1 << i) != 0 {
                counts[a] += 1;
            }
        }
        match theta {
            None => is_fair(&counts, k, delta),
            Some(t) => is_fair_pro(&counts, k, delta, t),
        }
    };
    let mut out = BTreeSet::new();
    for mask in 0u32..(1 << n) {
        if !feasible(mask) {
            continue;
        }
        // Maximal: no feasible strict superset.
        let complement = !mask & ((1u32 << n) - 1);
        let mut maximal = true;
        // It suffices to scan supersets formed by adding subsets of the
        // complement; enumerate them via the standard trick.
        let mut add = complement;
        loop {
            if add != 0 && feasible(mask | add) {
                maximal = false;
                break;
            }
            if add == 0 {
                break;
            }
            add = (add - 1) & complement;
        }
        if maximal && mask != 0 {
            let set: Vec<u32> = items
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &(v, _))| v)
                .collect();
            let mut set = set;
            set.sort_unstable();
            out.insert(set);
        }
    }
    out
}

fn groups_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
    (1usize..6, 0usize..6).prop_map(|(a, b)| {
        let g0: Vec<u32> = (0..a as u32).collect();
        let g1: Vec<u32> = (100..100 + b as u32).collect();
        vec![g0, g1]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn combination_matches_subset_oracle(
        groups in groups_strategy(),
        k in 1u32..4,
        delta in 0u32..4,
    ) {
        let refs: Vec<&[u32]> = groups.iter().map(|g| g.as_slice()).collect();
        let got: BTreeSet<Vec<u32>> = max_fair_subsets(&refs, k, delta, None)
            .into_iter()
            .filter(|s| !s.is_empty())
            .collect();
        let want = oracle_max_fair_subsets(&groups, k, delta, None);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn combination_pro_matches_subset_oracle(
        groups in groups_strategy(),
        k in 1u32..3,
        delta in 0u32..3,
        theta in prop_oneof![Just(0.0), Just(0.25), Just(0.4), Just(0.5)],
    ) {
        let refs: Vec<&[u32]> = groups.iter().map(|g| g.as_slice()).collect();
        let got: BTreeSet<Vec<u32>> = max_fair_subsets(&refs, k, delta, Some(theta))
            .into_iter()
            .filter(|s| !s.is_empty())
            .collect();
        let want = oracle_max_fair_subsets(&groups, k, delta, Some(theta));
        prop_assert_eq!(got, want);
    }

    #[test]
    fn combination_three_attr_groups(
        a in 1usize..4,
        b in 1usize..4,
        c in 0usize..4,
        delta in 0u32..3,
    ) {
        let groups = vec![
            (0..a as u32).collect::<Vec<_>>(),
            (100..100 + b as u32).collect::<Vec<_>>(),
            (200..200 + c as u32).collect::<Vec<_>>(),
        ];
        let refs: Vec<&[u32]> = groups.iter().map(|g| g.as_slice()).collect();
        let got: BTreeSet<Vec<u32>> = max_fair_subsets(&refs, 1, delta, None)
            .into_iter()
            .filter(|s| !s.is_empty())
            .collect();
        let want = oracle_max_fair_subsets(&groups, 1, delta, None);
        prop_assert_eq!(got, want);
    }
}
