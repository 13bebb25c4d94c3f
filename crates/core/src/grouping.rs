//! Matrix multiplication grouping (§4.2, Figure 6, Algorithm 4).
//!
//! A sparse convolution has one GEMM per kernel offset, with wildly uneven
//! row counts (Figure 12). Grouping batches several offsets into one padded
//! `bmm` to raise GPU utilization, trading redundant FLOPs (padding) for
//! regularity. This module turns a layer's per-offset map sizes into an
//! execution plan:
//!
//! - [`GroupingStrategy::Separate`]: one `mm` per offset (the baseline).
//! - [`GroupingStrategy::Symmetric`]: batch each mirror pair (`batch = 2`,
//!   zero padding, §4.2.1) — only for odd-kernel stride-1 layers.
//! - [`GroupingStrategy::Fixed`]: three handcrafted groups (§4.2.2).
//! - [`GroupingStrategy::Adaptive`]: the two-pointer scan of Algorithm 4,
//!   opening a new group whenever the redundancy ratio
//!   `1 - n_min / n_max` would exceed `epsilon`, then choosing `bmm` vs
//!   `mm` per group by the workload threshold `S`.

use crate::config::GroupingStrategy;

/// One group of kernel offsets executed together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecGroup {
    /// The kernel-offset indices in this group.
    pub offsets: Vec<usize>,
    /// Row count each member is padded to (`n_max` of the group).
    pub padded_rows: usize,
    /// Execute as one batched `bmm` (true) or as per-offset `mm`s (false).
    pub use_bmm: bool,
}

impl ExecGroup {
    /// Actual (useful) map entries in the group.
    pub(crate) fn useful_rows(&self, map_sizes: &[usize]) -> usize {
        self.offsets.iter().map(|&n| map_sizes[n]).sum()
    }

    /// GEMM kernel launches this group implies: one `bmm`, or one `mm` per
    /// member offset.
    pub(crate) fn kernel_count(&self) -> usize {
        if self.use_bmm {
            1
        } else {
            self.offsets.len()
        }
    }

    /// Total rows including padding when batched.
    pub(crate) fn total_rows(&self) -> usize {
        self.padded_rows * self.offsets.len()
    }

    /// Redundant-computation ratio `1 - useful / total` (0 for `mm` groups).
    #[cfg(test)]
    pub(crate) fn redundancy(&self, map_sizes: &[usize]) -> f64 {
        if !self.use_bmm || self.total_rows() == 0 {
            return 0.0;
        }
        1.0 - self.useful_rows(map_sizes) as f64 / self.total_rows() as f64
    }
}

/// A layer's grouped execution plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupPlan {
    /// The groups, covering every offset with a nonzero map exactly once.
    pub groups: Vec<ExecGroup>,
}

impl GroupPlan {
    /// Number of GEMM kernel launches the plan implies.
    #[cfg(test)]
    pub(crate) fn kernel_count(&self) -> usize {
        self.groups.iter().map(ExecGroup::kernel_count).sum()
    }

    /// Total padded rows across batched groups plus exact rows of mm groups.
    pub fn executed_rows(&self, map_sizes: &[usize]) -> usize {
        self.groups
            .iter()
            .map(|g| if g.use_bmm { g.total_rows() } else { g.useful_rows(map_sizes) })
            .sum()
    }

    /// Checks the plan covers each nonempty offset exactly once.
    #[cfg(test)]
    pub(crate) fn covers_exactly(&self, map_sizes: &[usize]) -> bool {
        let mut seen = vec![false; map_sizes.len()];
        for g in &self.groups {
            for &n in &g.offsets {
                if n >= seen.len() || seen[n] {
                    return false;
                }
                seen[n] = true;
            }
        }
        seen.iter().enumerate().all(|(n, &s)| s || map_sizes[n] == 0)
    }
}

/// Builds the execution plan for a layer.
///
/// `submanifold` is true for odd-kernel stride-1 layers, where the mirror
/// property guarantees `sizes[n] == sizes[V-1-n]` and the center offset is
/// the identity map (processed separately since it needs no data movement,
/// §4.2.1).
pub fn plan_groups(
    map_sizes: &[usize],
    submanifold: bool,
    strategy: GroupingStrategy,
) -> GroupPlan {
    let volume = map_sizes.len();
    match strategy {
        GroupingStrategy::Separate => separate(map_sizes),
        GroupingStrategy::Symmetric => {
            if submanifold {
                symmetric(map_sizes)
            } else {
                separate(map_sizes)
            }
        }
        GroupingStrategy::Fixed => {
            if submanifold {
                let center = (volume - 1) / 2;
                let first: Vec<usize> = (0..center).filter(|&n| map_sizes[n] > 0).collect();
                let second: Vec<usize> =
                    (center + 1..volume).filter(|&n| map_sizes[n] > 0).collect();
                let mut groups = Vec::new();
                push_bmm_group(&mut groups, first, map_sizes);
                if map_sizes[center] > 0 {
                    groups.push(ExecGroup {
                        offsets: vec![center],
                        padded_rows: map_sizes[center],
                        use_bmm: false,
                    });
                }
                push_bmm_group(&mut groups, second, map_sizes);
                GroupPlan { groups }
            } else {
                // Downsampling layers: all offsets have similar sizes; one group.
                let all: Vec<usize> = (0..volume).filter(|&n| map_sizes[n] > 0).collect();
                let mut groups = Vec::new();
                push_bmm_group(&mut groups, all, map_sizes);
                GroupPlan { groups }
            }
        }
        GroupingStrategy::Adaptive { epsilon, s_threshold } => {
            adaptive(map_sizes, submanifold, epsilon, s_threshold)
        }
    }
}

fn separate(map_sizes: &[usize]) -> GroupPlan {
    let groups = map_sizes
        .iter()
        .enumerate()
        .filter(|(_, &s)| s > 0)
        .map(|(n, &s)| ExecGroup { offsets: vec![n], padded_rows: s, use_bmm: false })
        .collect();
    GroupPlan { groups }
}

fn symmetric(map_sizes: &[usize]) -> GroupPlan {
    let volume = map_sizes.len();
    let center = (volume - 1) / 2;
    let mut groups = Vec::new();
    for n in 0..center {
        let m = volume - 1 - n;
        let pair: Vec<usize> = [n, m].into_iter().filter(|&i| map_sizes[i] > 0).collect();
        if pair.len() == 2 {
            groups.push(ExecGroup {
                offsets: pair,
                padded_rows: map_sizes[n].max(map_sizes[m]),
                use_bmm: true,
            });
        } else if let Some(&i) = pair.first() {
            groups.push(ExecGroup { offsets: vec![i], padded_rows: map_sizes[i], use_bmm: false });
        }
    }
    if map_sizes[center] > 0 {
        groups.push(ExecGroup {
            offsets: vec![center],
            padded_rows: map_sizes[center],
            use_bmm: false,
        });
    }
    GroupPlan { groups }
}

/// Algorithm 4's two-pointer partition.
///
/// For submanifold layers the scan runs over mirror pairs (each unit brings
/// both offsets, a natural batch of 2); for downsampling layers it runs over
/// all offsets individually.
fn adaptive(map_sizes: &[usize], submanifold: bool, epsilon: f64, s_threshold: usize) -> GroupPlan {
    let volume = map_sizes.len();
    // Units: (representative size, offsets brought along).
    let units: Vec<(usize, Vec<usize>)> = if submanifold {
        let center = (volume - 1) / 2;
        (0..center)
            .map(|n| (map_sizes[n], vec![n, volume - 1 - n]))
            .filter(|(s, _)| *s > 0)
            .collect()
    } else {
        (0..volume).map(|n| (map_sizes[n], vec![n])).filter(|(s, _)| *s > 0).collect()
    };

    let mut groups = Vec::new();
    let mut i = 0;
    while i < units.len() {
        let mut n_min = units[i].0;
        let mut n_max = units[i].0;
        let mut members: Vec<usize> = units[i].1.clone();
        let mut j = i + 1;
        while j < units.len() {
            let s = units[j].0;
            let cand_min = n_min.min(s);
            let cand_max = n_max.max(s);
            // Push the unit into the group only if redundancy stays within
            // epsilon (Algorithm 4's check).
            if 1.0 - cand_min as f64 / cand_max as f64 <= epsilon {
                n_min = cand_min;
                n_max = cand_max;
                members.extend_from_slice(&units[j].1);
                j += 1;
            } else {
                break;
            }
        }
        i = j;
        // bmm below the workload threshold S, otherwise per-offset mm.
        let use_bmm = n_max < s_threshold && members.len() > 1;
        groups.push(ExecGroup { offsets: members, padded_rows: n_max, use_bmm });
    }

    // The center offset of a submanifold layer is processed separately
    // (no data movement, §4.2.1).
    if submanifold {
        let center = (volume - 1) / 2;
        if map_sizes[center] > 0 {
            groups.push(ExecGroup {
                offsets: vec![center],
                padded_rows: map_sizes[center],
                use_bmm: false,
            });
        }
    }
    GroupPlan { groups }
}

fn push_bmm_group(groups: &mut Vec<ExecGroup>, offsets: Vec<usize>, map_sizes: &[usize]) {
    if offsets.is_empty() {
        return;
    }
    let padded = offsets.iter().map(|&n| map_sizes[n]).max().unwrap_or(0);
    let use_bmm = offsets.len() > 1;
    groups.push(ExecGroup { offsets, padded_rows: padded, use_bmm });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plausible submanifold size profile: mirror-symmetric, center = N.
    fn submanifold_sizes() -> Vec<usize> {
        let mut sizes = vec![0usize; 27];
        for n in 0..13 {
            let s = 4000 + 800 * (n % 4);
            sizes[n] = s;
            sizes[26 - n] = s;
        }
        sizes[13] = 10_000;
        sizes
    }

    #[test]
    fn separate_one_group_per_offset() {
        let sizes = submanifold_sizes();
        let plan = plan_groups(&sizes, true, GroupingStrategy::Separate);
        assert_eq!(plan.groups.len(), 27);
        assert!(plan.groups.iter().all(|g| !g.use_bmm && g.offsets.len() == 1));
        assert!(plan.covers_exactly(&sizes));
        assert_eq!(plan.executed_rows(&sizes), sizes.iter().sum::<usize>());
    }

    #[test]
    fn separate_skips_empty_maps() {
        let mut sizes = vec![5usize; 27];
        sizes[3] = 0;
        let plan = plan_groups(&sizes, true, GroupingStrategy::Separate);
        assert_eq!(plan.groups.len(), 26);
        assert!(plan.covers_exactly(&sizes));
    }

    #[test]
    fn symmetric_pairs_have_no_padding() {
        let sizes = submanifold_sizes();
        let plan = plan_groups(&sizes, true, GroupingStrategy::Symmetric);
        // 13 pairs + center = 14 groups.
        assert_eq!(plan.groups.len(), 14);
        assert!(plan.covers_exactly(&sizes));
        for g in &plan.groups {
            assert!(g.redundancy(&sizes) < 1e-9, "symmetric groups are padding-free");
        }
        // The paper: symmetric grouping yields batch size 2.
        assert!(plan.groups.iter().filter(|g| g.use_bmm).all(|g| g.offsets.len() == 2));
    }

    #[test]
    fn symmetric_falls_back_for_downsample() {
        let sizes = vec![100usize; 8];
        let plan = plan_groups(&sizes, false, GroupingStrategy::Symmetric);
        assert!(plan.groups.iter().all(|g| !g.use_bmm));
    }

    #[test]
    fn fixed_three_groups_submanifold() {
        let sizes = submanifold_sizes();
        let plan = plan_groups(&sizes, true, GroupingStrategy::Fixed);
        assert_eq!(plan.groups.len(), 3);
        assert!(plan.covers_exactly(&sizes));
        assert_eq!(plan.groups[1].offsets, vec![13]);
    }

    #[test]
    fn fixed_single_group_downsample() {
        let sizes = vec![700usize; 8];
        let plan = plan_groups(&sizes, false, GroupingStrategy::Fixed);
        assert_eq!(plan.groups.len(), 1);
        assert!(plan.groups[0].use_bmm);
        assert_eq!(plan.groups[0].redundancy(&sizes), 0.0, "equal sizes need no padding");
    }

    #[test]
    fn adaptive_respects_epsilon() {
        let sizes = submanifold_sizes();
        for epsilon in [0.0, 0.1, 0.3, 0.7] {
            let plan = plan_groups(
                &sizes,
                true,
                GroupingStrategy::Adaptive { epsilon, s_threshold: usize::MAX },
            );
            assert!(plan.covers_exactly(&sizes), "epsilon {epsilon}");
            for g in &plan.groups {
                assert!(
                    g.redundancy(&sizes) <= epsilon + 1e-9,
                    "group {g:?} exceeds epsilon {epsilon}"
                );
            }
        }
    }

    #[test]
    fn adaptive_epsilon_zero_equals_symmetric() {
        // §4.2.3: (epsilon=0, S=inf) degenerates to symmetric grouping for
        // submanifold layers with distinct pair sizes.
        let mut sizes = vec![0usize; 27];
        for n in 0..13 {
            let s = 1000 + 137 * n; // all pairs distinct
            sizes[n] = s;
            sizes[26 - n] = s;
        }
        sizes[13] = 9999;
        let plan = plan_groups(
            &sizes,
            true,
            GroupingStrategy::Adaptive { epsilon: 0.0, s_threshold: usize::MAX },
        );
        let sym = plan_groups(&sizes, true, GroupingStrategy::Symmetric);
        assert_eq!(plan.kernel_count(), sym.kernel_count());
        assert_eq!(plan.executed_rows(&sizes), sym.executed_rows(&sizes));
    }

    #[test]
    fn adaptive_s_zero_equals_separate() {
        // (S=0) degenerates to separate computation: every group runs mm.
        let sizes = submanifold_sizes();
        let plan =
            plan_groups(&sizes, true, GroupingStrategy::Adaptive { epsilon: 1.0, s_threshold: 0 });
        assert!(plan.groups.iter().all(|g| !g.use_bmm));
        assert_eq!(plan.executed_rows(&sizes), sizes.iter().sum::<usize>());
    }

    #[test]
    fn adaptive_epsilon_one_groups_everything() {
        // (epsilon=1, S=inf) approaches dense batching: a single group for
        // all non-center offsets.
        let sizes = submanifold_sizes();
        let plan = plan_groups(
            &sizes,
            true,
            GroupingStrategy::Adaptive { epsilon: 1.0, s_threshold: usize::MAX },
        );
        // One merged group + the center.
        assert_eq!(plan.groups.len(), 2);
        assert!(plan.groups[0].use_bmm);
        assert!(plan.covers_exactly(&sizes));
    }

    #[test]
    fn adaptive_downsample_units_are_single_offsets() {
        let sizes = vec![500, 520, 480, 510, 505, 495, 515, 490];
        let plan = plan_groups(
            &sizes,
            false,
            GroupingStrategy::Adaptive { epsilon: 0.2, s_threshold: usize::MAX },
        );
        assert_eq!(plan.groups.len(), 1, "similar sizes merge into one group");
        assert!(plan.covers_exactly(&sizes));
    }

    #[test]
    fn adaptive_heterogeneous_splits() {
        // A sharp size cliff must split groups at epsilon = 0.2.
        let sizes = vec![1000, 1000, 1000, 100, 100, 100, 100, 100];
        let plan = plan_groups(
            &sizes,
            false,
            GroupingStrategy::Adaptive { epsilon: 0.2, s_threshold: usize::MAX },
        );
        assert_eq!(plan.groups.len(), 2);
        assert_eq!(plan.groups[0].offsets, vec![0, 1, 2]);
    }

    #[test]
    fn kernel_count_reflects_batching() {
        let sizes = submanifold_sizes();
        let sep = plan_groups(&sizes, true, GroupingStrategy::Separate);
        let adp = plan_groups(
            &sizes,
            true,
            GroupingStrategy::Adaptive { epsilon: 0.3, s_threshold: usize::MAX },
        );
        assert!(adp.kernel_count() < sep.kernel_count());
    }
}
