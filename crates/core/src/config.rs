//! Configuration for the divide-and-conquer k-NN algorithms.

use crate::error::SepdcError;
use crate::query::QueryTreeConfig;
use crate::splitter::SplitterKind;
use sepdc_separator::SeparatorConfig;

/// Distance-evaluation tier for the candidate-filtering passes
/// (DESIGN.md §17).
///
/// * [`Precision::Mixed`] (the default): candidates are first screened by
///   the blocked f32 shadow kernels with a certified error bound
///   ([`sepdc_geom::F32Bound`]); only survivors pay an exact f64
///   evaluation. Answers are **byte-identical** to the exact tier — the
///   bound makes every f32 reject provably safe — so this is on by
///   default.
/// * [`Precision::Exact`]: every candidate is evaluated in f64 directly
///   (the pre-tier behavior, kept selectable for A/B measurement and as
///   the reference the certificate of ε-mode is measured against).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Precision {
    /// f64 everywhere; no f32 screening.
    Exact,
    /// f32 screening with certified-safe rejects, f64 confirmation.
    #[default]
    Mixed,
}

impl Precision {
    /// Stable CLI / config-echo name.
    pub fn name(self) -> &'static str {
        match self {
            Precision::Exact => "exact",
            Precision::Mixed => "mixed",
        }
    }

    /// Parse a CLI name (`exact` | `mixed`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "exact" => Some(Precision::Exact),
            "mixed" => Some(Precision::Mixed),
            _ => None,
        }
    }

    /// Stable wire code (snapshot META, config echoes).
    pub fn code(self) -> u64 {
        match self {
            Precision::Exact => 0,
            Precision::Mixed => 1,
        }
    }

    /// Inverse of [`Precision::code`].
    pub fn from_code(code: u64) -> Option<Self> {
        match code {
            0 => Some(Precision::Exact),
            1 => Some(Precision::Mixed),
            _ => None,
        }
    }

    /// `true` for the f32-screening tier.
    pub fn is_mixed(self) -> bool {
        self == Precision::Mixed
    }
}

/// Radius multiplier `1 / (1+ε)` applied to crossing-ball radii in
/// ε-approximate mode. Exactly `1.0` when `ε = 0`, so the exact path's
/// arithmetic is untouched (multiplying a radius by 1.0 is an IEEE-754
/// identity).
pub fn eps_radius_scale(epsilon: f64) -> f64 {
    1.0 / (1.0 + epsilon)
}

/// Squared-threshold multiplier `1 / (1+ε)²` applied to cover-filter
/// radii in ε-approximate mode. Exactly `1.0` when `ε = 0`.
pub fn eps_cover_scale(epsilon: f64) -> f64 {
    let s = 1.0 + epsilon;
    1.0 / (s * s)
}

/// Shared configuration of the Section 5 and Section 6 algorithms.
#[derive(Clone, Copy, Debug)]
pub struct KnnDcConfig {
    /// Neighbors per point.
    pub k: usize,
    /// Base-case size: subsets of at most this many points are solved by
    /// the all-pairs base case ("if m ≤ log n, deterministically compute …
    /// by testing all pairs"). `None` selects
    /// `max(32, ceil(1.5(k+1)/(1-δ)), ceil(log₂ n))` automatically — the
    /// `k`-dependent floor guarantees that every side of a `δ`-split above
    /// the base case still holds more than `k` points, so subset
    /// neighborhood balls stay bounded.
    pub base_case: Option<usize>,
    /// Exponent slack for the punt threshold `m^μ`,
    /// `μ = (d-1)/d + mu_epsilon` (paper: `μ = (d-1)/d + ε`).
    pub mu_epsilon: f64,
    /// Constant multiplier on the `m^μ` punt threshold — the hidden
    /// constant of the paper's `O(k^{1/d} m^μ)` intersection bound. Too
    /// small a value punts at every shallow node; the default keeps the
    /// fast path dominant on benign inputs while still punting on genuine
    /// outliers.
    pub punt_slack: f64,
    /// The `η` of Lemma 6.2: the fast-correction march aborts (punts) when
    /// some level holds more than `marching_slack · m^{1-η}` active balls.
    pub eta: f64,
    /// Multiplier on the `m^{1-η}` marching limit (constant headroom).
    pub marching_slack: f64,
    /// Separator search configuration for the partition steps.
    pub separator: SeparatorConfig,
    /// Which split-decision backend cuts the nodes of at least 2^14 items
    /// ([`crate::splitter`]); smaller nodes try the halving cut first. The
    /// default [`SplitterKind::Random`] is the paper's engine.
    pub splitter: SplitterKind,
    /// Distance-evaluation tier for the correction candidate filters
    /// (owner-distance gathers, fast-correction fix loop). Answers are
    /// byte-identical across tiers; see [`Precision`].
    pub precision: Precision,
    /// Approximation slack ε ≥ 0 for the opt-in `(1+ε)`-approximate mode:
    /// crossing-ball radii are shrunk by `1/(1+ε)` before correction, so
    /// every reported k-th neighbor distance is at most `(1+ε)` times the
    /// exact one (certificate measured, never assumed — see
    /// [`KnnResult::error_certificate`](crate::KnnResult::error_certificate)).
    /// `0.0` (the default) is exact mode and leaves the arithmetic
    /// untouched.
    pub epsilon: f64,
    /// Query-structure configuration for the punt path.
    pub query: QueryTreeConfig,
    /// Subtree size below which recursion stops forking rayon tasks.
    pub parallel_cutoff: usize,
    /// Explicit recursion depth bound. `None` (the default) selects an
    /// automatic limit of `8·⌈log₂ n⌉ + 64` — far above the `O(log n)`
    /// height any accepted `δ`-split sequence can produce — and a subset
    /// still unsolved at that depth is finished by a brute-force leaf, so
    /// the algorithm stays total. `Some(limit)` is strict mode: exceeding
    /// `limit` aborts with [`SepdcError::RecursionDepthExceeded`] instead
    /// of absorbing a potentially quadratic leaf solve.
    pub max_depth: Option<usize>,
    /// Master seed; all randomness derives from it deterministically.
    pub seed: u64,
    /// Whether to record the observability [`RunReport`](crate::RunReport):
    /// wall-clock phase timings and per-depth histograms. `false` skips
    /// every clock read and histogram update, leaving only a predicted
    /// branch per event on the hot path; the returned report then carries
    /// the (always-computed) stats/meter/cost counters with empty `phases`
    /// and `depth` sections.
    pub record: bool,
}

/// Tuning knobs of the batch serving engine ([`crate::serve`]).
///
/// The engine's output is a pure function of `(tree, probes)` — none of
/// these knobs can change a single returned id; they only move work
/// between threads and allocations. That invariant is pinned by the
/// thread-count / chunk-size parity tests in `tests/serve_parity.rs`.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Probes per work unit. Each chunk is served by one task that reuses
    /// a single output arena across all its probes (no per-probe `Vec`),
    /// so larger chunks amortize allocation further while smaller chunks
    /// load-balance better across threads. Must be nonzero
    /// ([`SepdcError::InvalidConfig`] otherwise).
    pub chunk_size: usize,
    /// Batch size below which the engine stays on the calling thread:
    /// forking rayon tasks for a handful of `O(log n + m₀)` descents
    /// costs more than it buys.
    pub parallel_threshold: usize,
    /// Whether to record the `serve` phase timing and the query-cost
    /// histogram into the returned [`RunReport`](crate::RunReport).
    /// Defaults to `false`: a high-throughput read path should not pay
    /// two clock reads per chunk unless asked to explain itself.
    pub record: bool,
    /// Distance-evaluation tier for the per-leaf cover filter. The
    /// returned id lists are byte-identical across tiers (the f32 reject
    /// is certified safe), preserving the pure-function contract above.
    pub precision: Precision,
    /// Approximation slack ε ≥ 0 for relaxed covering: a probe is
    /// reported covered only when `dist_sq <= r² / (1+ε)²`, and each ball
    /// the exact predicate admits but the relaxed one skips is counted in
    /// `precision.eps_skips`. `0.0` (the default) is the exact predicate.
    /// Nonzero ε is the one serve knob that *does* change answers — it is
    /// opt-in and certificate-counted.
    pub epsilon: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            chunk_size: 1024,
            parallel_threshold: 1024,
            record: false,
            precision: Precision::default(),
            epsilon: 0.0,
        }
    }
}

impl ServeConfig {
    /// Validate the tunables (called once per batch by the serve engine).
    pub fn validate(&self) -> Result<(), SepdcError> {
        if self.chunk_size == 0 {
            return Err(SepdcError::InvalidConfig {
                param: "serve.chunk_size",
                value: 0.0,
            });
        }
        if !self.epsilon.is_finite() || !(0.0..=1.0).contains(&self.epsilon) {
            return Err(SepdcError::InvalidConfig {
                param: "serve.epsilon",
                value: self.epsilon,
            });
        }
        Ok(())
    }
}

impl KnnDcConfig {
    /// Default configuration for a given `k`.
    pub fn new(k: usize) -> Self {
        KnnDcConfig {
            k,
            base_case: None,
            mu_epsilon: 0.05,
            punt_slack: 4.0,
            eta: 0.3,
            marching_slack: 8.0,
            separator: SeparatorConfig::default(),
            splitter: SplitterKind::Random,
            precision: Precision::default(),
            epsilon: 0.0,
            query: QueryTreeConfig::default(),
            parallel_cutoff: 2048,
            max_depth: None,
            seed: 0xC0FFEE,
            record: true,
        }
    }

    /// With a specific seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// With a specific split-decision backend, applied to both the main
    /// recursion and the punt-path query structure.
    pub fn with_splitter(mut self, kind: SplitterKind) -> Self {
        self.splitter = kind;
        self.query.splitter = kind;
        self
    }

    /// With a specific distance-evaluation tier, applied to both the
    /// correction filters and the punt-path query structure.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self.query.precision = precision;
        self
    }

    /// With an approximation slack ε (see [`KnnDcConfig::epsilon`]).
    ///
    /// Applied only to the top-level correction: the punt-path query
    /// structure is built over *already-shrunk* crossing balls, so
    /// `query.epsilon` stays 0 — setting both would relax twice.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Resolve the base-case size for an input of `n` points in
    /// dimension `d`.
    pub fn resolve_base_case(&self, n: usize, d: usize) -> usize {
        match self.base_case {
            Some(b) => b.max(self.k + 1),
            None => {
                let logn = (n.max(2) as f64).log2().ceil() as usize;
                let delta = self.separator.delta(d);
                let floor = (1.5 * (self.k as f64 + 1.0) / (1.0 - delta)).ceil() as usize;
                32usize.max(floor).max(logn)
            }
        }
    }

    /// The punt threshold `punt_slack · m^μ` for a subset of size `m` in
    /// dimension `d`.
    pub fn punt_threshold(&self, m: usize, d: usize) -> f64 {
        let mu = (d as f64 - 1.0) / d as f64 + self.mu_epsilon;
        self.punt_slack * (m as f64).powf(mu)
    }

    /// The marching active-ball limit `marching_slack · m^{1-η}`.
    pub fn marching_limit(&self, m: usize) -> usize {
        (self.marching_slack * (m as f64).powf(1.0 - self.eta)).ceil() as usize
    }

    /// Resolve the recursion depth limit for an input of `n` points: the
    /// explicit [`Self::max_depth`], or the automatic `8·⌈log₂ n⌉ + 64`.
    pub fn resolve_depth_limit(&self, n: usize) -> usize {
        match self.max_depth {
            Some(limit) => limit,
            None => 8 * ((n.max(2) as f64).log2().ceil() as usize) + 64,
        }
    }

    /// Validate every tunable against its analyzed range. All `try_*`
    /// entry points call this once before touching the points, so nonsense
    /// thresholds (`punt_threshold`, `marching_limit`) can never silently
    /// corrupt a run.
    pub fn validate(&self) -> Result<(), SepdcError> {
        crate::error::validate_k(self.k)?;
        let bad = |param: &'static str, value: f64| SepdcError::InvalidConfig { param, value };
        // μ = (d-1)/d + mu_epsilon must stay a real exponent ≤ ~1.
        if !self.mu_epsilon.is_finite() || !(0.0..=1.0).contains(&self.mu_epsilon) {
            return Err(bad("mu_epsilon", self.mu_epsilon));
        }
        // η ∈ [0, 1]: the marching limit m^{1-η} interpolates between
        // constant and linear.
        if !self.eta.is_finite() || !(0.0..=1.0).contains(&self.eta) {
            return Err(bad("eta", self.eta));
        }
        if !self.punt_slack.is_finite() || self.punt_slack <= 0.0 {
            return Err(bad("punt_slack", self.punt_slack));
        }
        if !self.marching_slack.is_finite() || self.marching_slack <= 0.0 {
            return Err(bad("marching_slack", self.marching_slack));
        }
        if !self.separator.epsilon.is_finite() || self.separator.epsilon < 0.0 {
            return Err(bad("separator.epsilon", self.separator.epsilon));
        }
        if !self.separator.tol.is_finite() || self.separator.tol < 0.0 {
            return Err(bad("separator.tol", self.separator.tol));
        }
        // ε ∈ [0, 1]: the certificate bound (1+ε)·r is only meaningful
        // for modest slack, and larger values are always a config typo.
        if !self.epsilon.is_finite() || !(0.0..=1.0).contains(&self.epsilon) {
            return Err(bad("epsilon", self.epsilon));
        }
        if !self.query.epsilon.is_finite() || !(0.0..=1.0).contains(&self.query.epsilon) {
            return Err(bad("query.epsilon", self.query.epsilon));
        }
        if self.query.leaf_size == 0 {
            return Err(bad("query.leaf_size", 0.0));
        }
        if self.max_depth == Some(0) {
            return Err(bad("max_depth", 0.0));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_case_floor_scales_with_k() {
        let cfg = KnnDcConfig::new(1);
        assert_eq!(cfg.resolve_base_case(1000, 2), 32);
        let cfg8 = KnnDcConfig::new(8);
        // 1.5 · 9 / (1 - δ₂) with δ₂ = 0.75 + 0.04: ceil(13.5/0.21) = 65.
        assert!(cfg8.resolve_base_case(1000, 2) >= 8 * (8 + 1) / 2);
    }

    #[test]
    fn base_case_grows_with_log_n() {
        let cfg = KnnDcConfig::new(1);
        assert_eq!(cfg.resolve_base_case(1 << 40, 2), 40);
    }

    #[test]
    fn base_case_grows_with_dimension() {
        let cfg = KnnDcConfig::new(4);
        assert!(cfg.resolve_base_case(1000, 4) >= cfg.resolve_base_case(1000, 2));
    }

    #[test]
    fn explicit_base_case_respects_k() {
        let cfg = KnnDcConfig {
            base_case: Some(2),
            ..KnnDcConfig::new(5)
        };
        assert_eq!(cfg.resolve_base_case(100, 2), 6);
    }

    #[test]
    fn punt_threshold_sublinear() {
        let cfg = KnnDcConfig::new(1);
        let t = cfg.punt_threshold(10_000, 2);
        assert!(t > 100.0 && t < 10_000.0, "threshold {t}");
    }

    #[test]
    fn marching_limit_sublinear() {
        let cfg = KnnDcConfig::new(1);
        let l = cfg.marching_limit(10_000);
        assert!(l > 100 && l < 10_000, "limit {l}");
    }

    #[test]
    fn default_config_validates() {
        for k in [1usize, 4, 1000] {
            KnnDcConfig::new(k).validate().unwrap();
        }
    }

    #[test]
    fn zero_k_rejected() {
        assert_eq!(
            KnnDcConfig::new(0).validate(),
            Err(crate::SepdcError::InvalidK { k: 0 })
        );
    }

    #[test]
    fn nonsense_tunables_rejected() {
        let base = KnnDcConfig::new(2);
        let cases: Vec<(KnnDcConfig, &str)> = vec![
            (
                KnnDcConfig {
                    mu_epsilon: f64::NAN,
                    ..base
                },
                "mu_epsilon",
            ),
            (
                KnnDcConfig {
                    mu_epsilon: -0.1,
                    ..base
                },
                "mu_epsilon",
            ),
            (KnnDcConfig { eta: 1.5, ..base }, "eta"),
            (
                KnnDcConfig {
                    eta: f64::NEG_INFINITY,
                    ..base
                },
                "eta",
            ),
            (
                KnnDcConfig {
                    punt_slack: 0.0,
                    ..base
                },
                "punt_slack",
            ),
            (
                KnnDcConfig {
                    punt_slack: f64::NAN,
                    ..base
                },
                "punt_slack",
            ),
            (
                KnnDcConfig {
                    marching_slack: -8.0,
                    ..base
                },
                "marching_slack",
            ),
            (
                KnnDcConfig {
                    max_depth: Some(0),
                    ..base
                },
                "max_depth",
            ),
        ];
        for (cfg, want) in cases {
            match cfg.validate() {
                Err(crate::SepdcError::InvalidConfig { param, .. }) => {
                    assert_eq!(param, want);
                }
                other => panic!("{want}: expected InvalidConfig, got {other:?}"),
            }
        }
        // Bad nested configs are caught too.
        let mut sep_bad = base;
        sep_bad.separator.tol = f64::NAN;
        assert!(matches!(
            sep_bad.validate(),
            Err(crate::SepdcError::InvalidConfig {
                param: "separator.tol",
                ..
            })
        ));
        let mut query_bad = base;
        query_bad.query.leaf_size = 0;
        assert!(query_bad.validate().is_err());
    }

    #[test]
    fn precision_and_epsilon_knobs() {
        // Mixed is the default tier at every layer (byte-identical answers).
        let cfg = KnnDcConfig::new(1);
        assert_eq!(cfg.precision, Precision::Mixed);
        assert_eq!(cfg.query.precision, Precision::Mixed);
        assert_eq!(cfg.epsilon, 0.0);
        let exact = cfg.with_precision(Precision::Exact);
        assert_eq!(exact.precision, Precision::Exact);
        assert_eq!(exact.query.precision, Precision::Exact);
        // with_epsilon relaxes only the top level (punt-path balls are
        // already shrunk).
        let eps = KnnDcConfig::new(1).with_epsilon(0.25);
        assert_eq!(eps.epsilon, 0.25);
        assert_eq!(eps.query.epsilon, 0.0);
        eps.validate().unwrap();
        // Out-of-range ε is a typed config error at both layers.
        for bad_eps in [f64::NAN, -0.1, 1.5] {
            let bad = KnnDcConfig::new(1).with_epsilon(bad_eps);
            assert!(
                matches!(
                    bad.validate(),
                    Err(crate::SepdcError::InvalidConfig { param: "epsilon", .. })
                ),
                "eps {bad_eps}"
            );
            let sbad = ServeConfig {
                epsilon: bad_eps,
                ..ServeConfig::default()
            };
            assert!(sbad.validate().is_err(), "serve eps {bad_eps}");
        }
        let mut qbad = KnnDcConfig::new(1);
        qbad.query.epsilon = 2.0;
        assert!(matches!(
            qbad.validate(),
            Err(crate::SepdcError::InvalidConfig {
                param: "query.epsilon",
                ..
            })
        ));
    }

    #[test]
    fn precision_names_and_codes_round_trip() {
        for p in [Precision::Exact, Precision::Mixed] {
            assert_eq!(Precision::parse(p.name()), Some(p));
            assert_eq!(Precision::from_code(p.code()), Some(p));
        }
        assert_eq!(Precision::parse("f16"), None);
        assert_eq!(Precision::from_code(7), None);
        assert!(Precision::Mixed.is_mixed() && !Precision::Exact.is_mixed());
    }

    #[test]
    fn eps_scales_are_exact_identities_at_zero() {
        assert_eq!(eps_radius_scale(0.0), 1.0);
        assert_eq!(eps_cover_scale(0.0), 1.0);
        assert!(eps_radius_scale(0.5) < 1.0);
        assert!((eps_cover_scale(0.5) - 1.0 / 2.25).abs() < 1e-15);
    }

    #[test]
    fn with_splitter_sets_both_layers() {
        let cfg = KnnDcConfig::new(1).with_splitter(SplitterKind::Graph);
        assert_eq!(cfg.splitter, SplitterKind::Graph);
        assert_eq!(cfg.query.splitter, SplitterKind::Graph);
        // Default stays the paper's engine.
        assert_eq!(KnnDcConfig::new(1).splitter, SplitterKind::Random);
    }

    #[test]
    fn depth_limit_resolution() {
        let cfg = KnnDcConfig::new(1);
        // Automatic limit is generous: far above the ~3.5·log₂ n heights
        // real runs produce, but still O(log n).
        assert_eq!(cfg.resolve_depth_limit(1 << 10), 8 * 10 + 64);
        assert_eq!(cfg.resolve_depth_limit(0), 8 + 64);
        let strict = KnnDcConfig {
            max_depth: Some(5),
            ..cfg
        };
        assert_eq!(strict.resolve_depth_limit(1 << 20), 5);
    }
}
