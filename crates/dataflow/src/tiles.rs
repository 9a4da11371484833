//! Tile-size selection: concretising a dataflow pattern onto a PE budget.
//!
//! The paper fixes tile sizes per dataflow/dataset so that "static utilization is
//! nearly 100% of the PEs" (Section V-A3). This module implements that selection:
//! a [`PhasePolicy`] says which dimensions to grow (and how), and
//! [`choose_tiling`] grows power-of-two tiles until the PE budget or the dimension
//! extents are exhausted.
//!
//! Power-of-two tiles keep products exact against the (power-of-two) PE counts the
//! paper evaluates (512, 2048), which is what makes ~100% static utilisation
//! reachable whenever the workload dimensions allow.

use serde::Serialize;

use crate::{
    Dim, GnnDataflow, GnnDataflowPattern, IntraPattern, IntraTiling, MappingSpec, Phase, PhaseOrder,
};

/// Workload dimensions the tile chooser needs.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct TileContext {
    /// Vertices `V` (both phases' output rows).
    pub v: usize,
    /// Aggregation feature width (input features `F` for AC; `G` for CA).
    pub f_agg: usize,
    /// Combination reduction width (`F` for AC; also `F` for CA, where Combination
    /// runs first on the raw features).
    pub f_cmb: usize,
    /// Combination output width `G`.
    pub g: usize,
    /// Mean vertex degree (drives the spatial-`N` tile).
    pub n_mean: f64,
    /// Maximum vertex degree (upper bound for `T_N`).
    pub n_max: usize,
}

impl TileContext {
    /// Builds the context for a workload with the given matrix dimensions.
    ///
    /// `phase_order` decides which width the Aggregation phase sees: under CA the
    /// aggregation input is the Combination output (`G` wide).
    pub fn new(
        phase_order: PhaseOrder,
        v: usize,
        f: usize,
        g: usize,
        n_mean: f64,
        n_max: usize,
    ) -> Self {
        let f_agg = match phase_order {
            PhaseOrder::AC => f,
            PhaseOrder::CA => g,
        };
        TileContext { v, f_agg, f_cmb: f, g, n_mean, n_max }
    }

    /// Extent of dimension `d` in `phase`.
    pub fn extent(&self, phase: Phase, d: Dim) -> usize {
        match (phase, d) {
            (_, Dim::V) => self.v,
            (Phase::Aggregation, Dim::F) => self.f_agg,
            (Phase::Aggregation, Dim::N) => self.n_max,
            (Phase::Combination, Dim::F) => self.f_cmb,
            (Phase::Combination, Dim::G) => self.g,
            _ => 1,
        }
    }
}

/// Upper bound applied to one grown dimension.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Cap {
    /// No cap beyond extent and budget.
    Unbounded,
    /// Absolute cap.
    Fixed(usize),
    /// Cap at `budget / denominator` (e.g. `BudgetFrac(8)` keeps `T_V ≤ PEs/8`,
    /// the "high but not extreme" regime of SP2).
    BudgetFrac(usize),
    /// Cap near half the mean degree (nearest power of two) — the sweet spot for
    /// the spatial-`N` tile: larger tiles waste PE-steps on the `ceil(deg/T_N)`
    /// remainder of most rows, smaller ones under-exploit dense rows.
    MeanDegreePow2,
}

/// One dimension to grow, with its cap.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct GrowthRule {
    /// The dimension to grow.
    pub dim: Dim,
    /// Its cap.
    pub cap: Cap,
}

impl GrowthRule {
    /// Uncapped growth rule.
    pub fn free(dim: Dim) -> Self {
        GrowthRule { dim, cap: Cap::Unbounded }
    }

    /// Capped growth rule.
    pub fn capped(dim: Dim, cap: Cap) -> Self {
        GrowthRule { dim, cap }
    }
}

/// How the listed dimensions share the PE budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum GrowthMode {
    /// Fill each dimension to its cap before moving to the next ("high `T_F`"
    /// style presets).
    Greedy,
    /// Double tiles in rotation for a balanced split (Seq-style presets).
    RoundRobin,
}

/// Tile-growth policy for one phase.
#[derive(Debug, Clone, Serialize)]
pub struct PhasePolicy {
    /// Budget-sharing mode.
    pub mode: GrowthMode,
    /// Dimensions to grow, in priority order. Unlisted dims keep tile 1.
    pub rules: Vec<GrowthRule>,
}

impl PhasePolicy {
    /// Greedy policy over `dims`, uncapped.
    pub fn greedy(dims: &[Dim]) -> Self {
        PhasePolicy { mode: GrowthMode::Greedy, rules: dims.iter().map(|&d| GrowthRule::free(d)).collect() }
    }

    /// Round-robin policy over `dims`, uncapped.
    pub fn round_robin(dims: &[Dim]) -> Self {
        PhasePolicy {
            mode: GrowthMode::RoundRobin,
            rules: dims.iter().map(|&d| GrowthRule::free(d)).collect(),
        }
    }

    /// The balanced policy the explorers concretise every enumerated pattern
    /// with: round-robin growth over the dims `pattern` allows to be spatial,
    /// the neighbour tile capped at the mean degree.
    pub fn balanced(pattern: &IntraPattern) -> Self {
        let dims: Vec<Dim> = pattern
            .order()
            .dims()
            .into_iter()
            .zip(pattern.maps())
            .filter(|&(_, m)| m != MappingSpec::Temporal)
            .map(|(d, _)| d)
            .collect();
        Self::round_robin(&dims).with_cap(Dim::N, Cap::MeanDegreePow2)
    }

    /// Returns a copy with a cap applied to `dim` (adding the rule if absent).
    pub fn with_cap(mut self, dim: Dim, cap: Cap) -> Self {
        if let Some(r) = self.rules.iter_mut().find(|r| r.dim == dim) {
            r.cap = cap;
        } else {
            self.rules.push(GrowthRule::capped(dim, cap));
        }
        self
    }
}

/// Largest power of two ≤ `x` (`x ≥ 1`).
pub fn prev_pow2(x: usize) -> usize {
    debug_assert!(x >= 1);
    1usize << (usize::BITS - 1 - x.leading_zeros())
}

/// Smallest power of two ≥ `x` (`x ≥ 1`).
pub fn next_pow2(x: usize) -> usize {
    x.next_power_of_two()
}

/// Power of two nearest to `x` in log space (`x ≥ 1`).
pub fn nearest_pow2(x: f64) -> usize {
    1usize << (x.max(1.0).log2().round().max(0.0) as u32)
}

/// Chooses tile sizes instantiating `pattern` within `pe_budget` PEs.
///
/// * Dimensions with a `Temporal` spec keep tile 1.
/// * Dimensions with a `Spatial` spec are seeded at 2 (if extent and budget allow)
///   so the produced tiling actually instantiates the pattern.
/// * Listed dimensions then grow in powers of two per the policy until the budget,
///   their extent, or their cap stops them.
pub fn choose_tiling(
    pattern: &IntraPattern,
    ctx: &TileContext,
    pe_budget: usize,
    policy: &PhasePolicy,
) -> IntraTiling {
    let phase = pattern.phase();
    let dims = pattern.order().dims();
    let mut tiles: [usize; 3] = [1, 1, 1];
    let mut budget = pe_budget.max(1);

    let cap_of = |rule: &GrowthRule| -> usize {
        match rule.cap {
            Cap::Unbounded => usize::MAX,
            Cap::Fixed(k) => k.max(1),
            Cap::BudgetFrac(d) => (pe_budget / d.max(1)).max(1),
            Cap::MeanDegreePow2 => nearest_pow2((ctx.n_mean / 2.0).max(2.0)),
        }
    };

    // Seed required-spatial dims at 2 so the pattern is honoured.
    for (i, &d) in dims.iter().enumerate() {
        if pattern.maps()[i] == MappingSpec::Spatial && ctx.extent(phase, d) >= 2 && budget >= 2 {
            tiles[i] = 2;
            budget /= 2;
        }
    }

    let growable: Vec<(usize, GrowthRule)> = policy
        .rules
        .iter()
        .filter_map(|rule| {
            let i = dims.iter().position(|&d| d == rule.dim)?;
            // Never grow a dim the pattern pins temporal.
            (pattern.maps()[i] != MappingSpec::Temporal).then_some((i, *rule))
        })
        .collect();

    match policy.mode {
        GrowthMode::Greedy => {
            for &(i, rule) in &growable {
                while budget >= 2 && tiles[i] * 2 <= ctx.extent(phase, dims[i]).max(1) && tiles[i] * 2 <= cap_of(&rule)
                {
                    tiles[i] *= 2;
                    budget /= 2;
                }
            }
        }
        GrowthMode::RoundRobin => {
            let mut progressed = true;
            while progressed {
                progressed = false;
                for &(i, rule) in &growable {
                    if budget >= 2
                        && tiles[i] * 2 <= ctx.extent(phase, dims[i]).max(1)
                        && tiles[i] * 2 <= cap_of(&rule)
                    {
                        tiles[i] *= 2;
                        budget /= 2;
                        progressed = true;
                    }
                }
            }
        }
    }

    IntraTiling::new(phase, pattern.order(), tiles)
}

impl GnnDataflowPattern {
    /// Concretises the pattern for a workload with [`PhasePolicy::balanced`]
    /// tiles within the given per-phase PE budgets — the pattern-space
    /// counterpart of [`crate::presets::Preset::concretize`], with the same
    /// budget convention (the full array twice for Seq/SP, the two partition
    /// sizes for PP).
    pub fn concretize(&self, ctx: &TileContext, agg_pes: usize, cmb_pes: usize) -> GnnDataflow {
        GnnDataflow {
            inter: self.inter,
            phase_order: self.phase_order,
            agg: choose_tiling(&self.agg, ctx, agg_pes, &PhasePolicy::balanced(&self.agg)),
            cmb: choose_tiling(&self.cmb, ctx, cmb_pes, &PhasePolicy::balanced(&self.cmb)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LoopOrder;

    fn ctx() -> TileContext {
        TileContext::new(PhaseOrder::AC, 3327, 3703, 16, 3.8, 100)
    }

    fn pattern(phase: Phase, s: &str) -> IntraPattern {
        let chars: Vec<char> = s.chars().collect();
        let dims = [0, 1, 2].map(|i| Dim::from_letter(chars[2 * i]).unwrap());
        let maps = [0, 1, 2].map(|i| MappingSpec::from_letter(chars[2 * i + 1]).unwrap());
        IntraPattern::new(phase, LoopOrder::new(phase, dims).unwrap(), maps)
    }

    #[test]
    fn pow2_helpers() {
        assert_eq!(prev_pow2(1), 1);
        assert_eq!(prev_pow2(2), 2);
        assert_eq!(prev_pow2(28), 16);
        assert_eq!(prev_pow2(512), 512);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(16), 16);
    }

    #[test]
    fn greedy_fills_first_dim_first() {
        // SP1 style: high T_F, temporal N.
        let p = pattern(Phase::Aggregation, "VxFsNt");
        let t = choose_tiling(&p, &ctx(), 512, &PhasePolicy::greedy(&[Dim::F, Dim::V]));
        assert_eq!(t.tile_of(Dim::F), 512); // F=3703 allows full fill
        assert_eq!(t.tile_of(Dim::V), 1);
        assert_eq!(t.tile_of(Dim::N), 1);
        assert_eq!(t.pe_footprint(), 512);
        assert!(p.admits(&t));
    }

    #[test]
    fn greedy_respects_extent_and_spills_to_next_dim() {
        // Mutag-like: F = 28 → T_F caps at 16, rest goes to V.
        let small = TileContext::new(PhaseOrder::AC, 1147, 28, 16, 3.2, 12);
        let p = pattern(Phase::Aggregation, "VxFsNt");
        let t = choose_tiling(&p, &small, 512, &PhasePolicy::greedy(&[Dim::F, Dim::V]));
        assert_eq!(t.tile_of(Dim::F), 16);
        assert_eq!(t.tile_of(Dim::V), 32);
        assert_eq!(t.pe_footprint(), 512);
    }

    #[test]
    fn round_robin_balances() {
        let p = pattern(Phase::Combination, "VxGxFx");
        let t = choose_tiling(&p, &ctx(), 512, &PhasePolicy::round_robin(&[Dim::V, Dim::G]));
        // G = 16 caps; V picks up the rest: 32 × 16 = 512.
        assert_eq!(t.tile_of(Dim::G), 16);
        assert_eq!(t.tile_of(Dim::V), 32);
        assert_eq!(t.pe_footprint(), 512);
    }

    #[test]
    fn budget_frac_cap() {
        let p = pattern(Phase::Aggregation, "VxFxNt");
        let policy = PhasePolicy::greedy(&[Dim::V, Dim::F]).with_cap(Dim::V, Cap::BudgetFrac(8));
        let t = choose_tiling(&p, &ctx(), 512, &policy);
        assert_eq!(t.tile_of(Dim::V), 64);
        assert_eq!(t.tile_of(Dim::F), 8);
    }

    #[test]
    fn mean_degree_cap_for_spatial_n() {
        let dense = TileContext::new(PhaseOrder::AC, 4766, 492, 16, 60.0, 200);
        let p = pattern(Phase::Aggregation, "VxFxNs");
        let policy = PhasePolicy::greedy(&[Dim::N, Dim::F, Dim::V]).with_cap(Dim::N, Cap::MeanDegreePow2);
        let t = choose_tiling(&p, &dense, 512, &policy);
        assert_eq!(t.tile_of(Dim::N), 32); // nearest_pow2(60 / 2)
        assert_eq!(t.pe_footprint(), 512);
        assert!(p.admits(&t));
    }

    #[test]
    fn nearest_pow2_rounds_in_log_space() {
        assert_eq!(nearest_pow2(1.0), 1);
        assert_eq!(nearest_pow2(2.9), 4); // log2(2.9) = 1.54 rounds to 2 → 4
        assert_eq!(nearest_pow2(33.0), 32);
        assert_eq!(nearest_pow2(48.0), 64); // log2(48)=5.58 → 64
        assert_eq!(nearest_pow2(0.5), 1);
    }

    #[test]
    fn spatial_spec_is_seeded_even_without_rule() {
        let p = pattern(Phase::Aggregation, "VxFxNs");
        // No rule for N, but the pattern demands spatial.
        let t = choose_tiling(&p, &ctx(), 512, &PhasePolicy::greedy(&[Dim::V]));
        assert_eq!(t.tile_of(Dim::N), 2);
        assert!(p.admits(&t));
    }

    #[test]
    fn temporal_spec_never_grows() {
        let p = pattern(Phase::Aggregation, "VxFxNt");
        let policy = PhasePolicy::greedy(&[Dim::N, Dim::V]);
        let t = choose_tiling(&p, &ctx(), 512, &policy);
        assert_eq!(t.tile_of(Dim::N), 1);
        assert_eq!(t.tile_of(Dim::V), 512);
    }

    #[test]
    fn tiny_budget_keeps_everything_temporal() {
        let p = pattern(Phase::Aggregation, "VxFxNt");
        let t = choose_tiling(&p, &ctx(), 1, &PhasePolicy::greedy(&[Dim::V, Dim::F]));
        assert_eq!(t.pe_footprint(), 1);
    }

    #[test]
    fn extent_one_dim_stays_one() {
        let narrow = TileContext::new(PhaseOrder::AC, 100, 1, 1, 2.0, 4);
        let p = pattern(Phase::Combination, "VxGxFx");
        let t = choose_tiling(&p, &narrow, 64, &PhasePolicy::round_robin(&[Dim::V, Dim::G, Dim::F]));
        assert_eq!(t.tile_of(Dim::G), 1);
        assert_eq!(t.tile_of(Dim::F), 1);
        assert_eq!(t.tile_of(Dim::V), 64);
    }

    #[test]
    fn ca_context_swaps_agg_width() {
        let c = TileContext::new(PhaseOrder::CA, 100, 1433, 16, 4.0, 50);
        assert_eq!(c.extent(Phase::Aggregation, Dim::F), 16); // agg consumes G-wide rows
        assert_eq!(c.extent(Phase::Combination, Dim::F), 1433);
        assert_eq!(c.extent(Phase::Combination, Dim::G), 16);
    }
}
