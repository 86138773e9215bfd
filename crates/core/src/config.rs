//! Parameters and run configuration for the fair biclique models.

pub use bigraph::candidate::Substrate;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cooperative cancellation handle shared between a run and its
/// controller (e.g. the `fbe-service` admission layer, or a signal
/// handler).
///
/// Cloning shares the flag. Attach it to a run with
/// [`Budget::with_cancel`]; every enumeration clock — the maximal-
/// biclique walker's and all expansion stages', serial or parallel —
/// checks the flag at branch granularity (each budget-clock tick),
/// so a cancelled run stops within a handful of branch expansions and
/// reports [`StopReason::Cancelled`]. Cancellation is one-way and
/// sticky: there is no reset.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation (idempotent, thread-safe).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Why a run stopped before exhausting the search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StopReason {
    /// The [`Budget::max_nodes`] cap tripped.
    NodeCap,
    /// The [`Budget::max_time`] deadline passed.
    Deadline,
    /// The [`Budget::max_results`] cap tripped.
    ResultCap,
    /// The run's [`CancelToken`] was cancelled.
    Cancelled,
}

impl StopReason {
    const CODES: [StopReason; 4] = [
        StopReason::NodeCap,
        StopReason::Deadline,
        StopReason::ResultCap,
        StopReason::Cancelled,
    ];

    fn code(self) -> u8 {
        1 + Self::CODES.iter().position(|&r| r == self).expect("listed") as u8
    }

    fn from_code(code: u8) -> Option<StopReason> {
        (code != 0).then(|| Self::CODES[(code - 1) as usize])
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StopReason::NodeCap => "node-cap",
            StopReason::Deadline => "deadline",
            StopReason::ResultCap => "result-cap",
            StopReason::Cancelled => "cancelled",
        })
    }
}

/// The three integer thresholds of the absolute fairness models
/// (Definitions 3 and 4 of the paper).
///
/// * `alpha` — minimum size of the non-fair side (SSFBC) or per-
///   attribute minimum on the upper side (BSFBC).
/// * `beta` — per-attribute minimum on the lower (fair) side.
/// * `delta` — maximum pairwise difference between attribute counts on
///   a fair side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FairParams {
    /// `α ≥ 1`.
    pub alpha: u32,
    /// `β ≥ 0`.
    pub beta: u32,
    /// `δ ≥ 0`.
    pub delta: u32,
}

/// Parameter validation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamError {
    /// `alpha` must be at least 1 (an empty non-fair side is degenerate).
    AlphaZero,
    /// `theta` must lie in `[0, 0.5]` (the paper derives `θ ≤ 0.5` for
    /// two attribute values; above `1/n` no set can be proportional).
    ThetaOutOfRange(f64),
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::AlphaZero => f.write_str("alpha must be >= 1"),
            ParamError::ThetaOutOfRange(t) => write!(f, "theta {t} outside [0, 0.5]"),
        }
    }
}

impl std::error::Error for ParamError {}

impl FairParams {
    /// Validated constructor.
    pub fn new(alpha: u32, beta: u32, delta: u32) -> Result<Self, ParamError> {
        if alpha == 0 {
            return Err(ParamError::AlphaZero);
        }
        Ok(FairParams { alpha, beta, delta })
    }

    /// Unchecked constructor for tests and sweeps (still asserts in
    /// debug builds).
    pub fn unchecked(alpha: u32, beta: u32, delta: u32) -> Self {
        debug_assert!(alpha >= 1);
        FairParams { alpha, beta, delta }
    }
}

impl std::fmt::Display for FairParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "α={} β={} δ={}", self.alpha, self.beta, self.delta)
    }
}

/// Parameters of the proportion models (Definitions 5 and 6): the
/// absolute thresholds plus the fairness-ratio threshold `θ`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProParams {
    /// Absolute thresholds.
    pub base: FairParams,
    /// Ratio threshold `θ ∈ [0, 0.5]`: every attribute value must make
    /// up at least a `θ` fraction of its fair side.
    pub theta: f64,
}

impl ProParams {
    /// Validated constructor.
    pub fn new(alpha: u32, beta: u32, delta: u32, theta: f64) -> Result<Self, ParamError> {
        let base = FairParams::new(alpha, beta, delta)?;
        if !(0.0..=0.5).contains(&theta) {
            return Err(ParamError::ThetaOutOfRange(theta));
        }
        Ok(ProParams { base, theta })
    }
}

impl std::fmt::Display for ProParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} θ={}", self.base, self.theta)
    }
}

/// Which pruning stage to run before enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PruneKind {
    /// No pruning (baseline for the pruning-effect experiments).
    None,
    /// Fair α-β core only (Algorithm 1 / BFCore for bi-side runs).
    FCore,
    /// Colorful fair α-β core (Algorithm 2 / BCFCore for bi-side runs);
    /// the paper's default.
    #[default]
    Colorful,
}

/// Vertex selection order for the branch-and-bound search
/// (`IDOrd` / `DegOrd` in the paper's Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum VertexOrder {
    /// Ascending vertex id (`IDOrd`).
    IdAsc,
    /// Non-increasing degree, ties by id (`DegOrd`); the paper's
    /// recommended ordering.
    #[default]
    DegreeDesc,
}

/// Resource limits for a single enumeration run.
///
/// The paper uses a 24-hour wall-clock limit and prints `INF` for runs
/// that exceed it; [`Budget`] supports a deadline, a deterministic
/// search-node cap (what most tests use), and a hard cap on emitted
/// results.
///
/// All three limits are **global** to a run: a multi-threaded run
/// draws every worker's ticks from one shared countdown (see
/// [`crate::parallel`]), so `max_results = K` yields at most `K`
/// results regardless of the thread count.
///
/// A budget may additionally carry a [`CancelToken`]
/// ([`Budget::with_cancel`]) that an external controller flips to stop
/// the run cooperatively; the run then reports
/// [`StopReason::Cancelled`].
///
/// The same budget also bounds preparation
/// ([`crate::prepared::PreparedQuery::prepare_rec`]), where only
/// `max_time` and `cancel` apply: the prune cascade probes them at its
/// stage boundaries and periodically inside the peel loops, and aborts
/// with [`StopReason::Deadline`] / [`StopReason::Cancelled`].
/// `max_nodes` and `max_results` bound enumeration only and never
/// interrupt preparation.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    /// Abort after visiting this many search-tree nodes.
    pub max_nodes: Option<u64>,
    /// Abort after this much wall-clock time.
    pub max_time: Option<Duration>,
    /// Emit at most this many results, then abort.
    pub max_results: Option<u64>,
    /// Cooperative external cancellation (checked every branch).
    pub cancel: Option<CancelToken>,
}

impl Budget {
    /// No limits.
    pub const UNLIMITED: Budget = Budget {
        max_nodes: None,
        max_time: None,
        max_results: None,
        cancel: None,
    };

    /// Only a node cap.
    pub fn nodes(max_nodes: u64) -> Budget {
        Budget {
            max_nodes: Some(max_nodes),
            ..Self::UNLIMITED
        }
    }

    /// Only a wall-clock cap.
    pub fn time(max_time: Duration) -> Budget {
        Budget {
            max_time: Some(max_time),
            ..Self::UNLIMITED
        }
    }

    /// Only a result cap: emit at most `max_results` results.
    pub fn results(max_results: u64) -> Budget {
        Budget {
            max_results: Some(max_results),
            ..Self::UNLIMITED
        }
    }

    /// This budget with a cooperative [`CancelToken`] attached.
    pub fn with_cancel(self, cancel: CancelToken) -> Budget {
        Budget {
            cancel: Some(cancel),
            ..self
        }
    }

    pub(crate) fn start(&self) -> BudgetClock {
        BudgetClock {
            max_nodes: self.max_nodes.unwrap_or(u64::MAX),
            deadline: self.max_time.map(|d| Instant::now() + d),
            nodes: 0,
            exhausted: false,
            stop: None,
            max_results: self.max_results.unwrap_or(u64::MAX),
            results: 0,
            results_exempt: false,
            cancel: self.cancel.clone(),
            shared: None,
        }
    }
}

/// Which shared countdown a clock's node ticks draw from.
///
/// Mirroring the serial enumerators — where the maximal-biclique
/// walker and the combinatorial expander each start their own
/// [`BudgetClock`] from the same [`Budget`] — a shared budget keeps
/// two independent node countdowns, one per role. Results always
/// share a single countdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BudgetLane {
    /// Search-tree nodes of the maximal-biclique walk.
    Walk,
    /// Expansion steps (`Combination` subsets and fair-set checks).
    Expand,
}

/// Atomic countdowns shared by every worker of a parallel run.
///
/// `tick`/`try_result` acquire from these *before* doing work, so the
/// totals are exact: across all workers at most `max_nodes` node
/// ticks succeed per lane and at most `max_results` results are
/// emitted, regardless of the thread count. Once any limit trips, the
/// sticky `exhausted` flag stops every other worker at its next tick.
#[derive(Debug)]
pub(crate) struct SharedBudget {
    walk_nodes: AtomicU64,
    expand_nodes: AtomicU64,
    results: AtomicU64,
    max_nodes: u64,
    max_results: u64,
    deadline: Option<Instant>,
    exhausted: AtomicBool,
    /// First tripped [`StopReason`] (0 = still running), for
    /// `RunReport::truncated_by`.
    reason: AtomicU8,
    cancel: Option<CancelToken>,
}

impl SharedBudget {
    pub(crate) fn new(budget: Budget) -> Arc<SharedBudget> {
        Arc::new(SharedBudget {
            walk_nodes: AtomicU64::new(0),
            expand_nodes: AtomicU64::new(0),
            results: AtomicU64::new(0),
            max_nodes: budget.max_nodes.unwrap_or(u64::MAX),
            max_results: budget.max_results.unwrap_or(u64::MAX),
            deadline: budget.max_time.map(|d| Instant::now() + d),
            exhausted: AtomicBool::new(false),
            reason: AtomicU8::new(0),
            cancel: budget.cancel,
        })
    }

    /// A worker-local clock drawing node ticks from `lane`.
    pub(crate) fn clock(self: &Arc<Self>, lane: BudgetLane) -> BudgetClock {
        BudgetClock {
            max_nodes: u64::MAX, // enforced via the shared countdown
            deadline: self.deadline,
            nodes: 0,
            exhausted: false,
            stop: None,
            max_results: u64::MAX,
            results: 0,
            results_exempt: false,
            cancel: self.cancel.clone(),
            shared: Some((Arc::clone(self), lane)),
        }
    }

    /// True once any global limit has tripped.
    pub(crate) fn is_exhausted(&self) -> bool {
        self.exhausted.load(Ordering::Relaxed)
    }

    /// The first limit that tripped (None while running).
    pub(crate) fn stop_reason(&self) -> Option<StopReason> {
        StopReason::from_code(self.reason.load(Ordering::Relaxed))
    }

    fn trip(&self, reason: StopReason) {
        // First reason wins; later trips keep the original cause.
        let _ =
            self.reason
                .compare_exchange(0, reason.code(), Ordering::Relaxed, Ordering::Relaxed);
        self.exhausted.store(true, Ordering::Relaxed);
    }

    /// Acquire one node tick from `lane`; false when the cap is spent.
    fn acquire_node(&self, lane: BudgetLane) -> bool {
        let ctr = match lane {
            BudgetLane::Walk => &self.walk_nodes,
            BudgetLane::Expand => &self.expand_nodes,
        };
        if ctr.fetch_add(1, Ordering::Relaxed) >= self.max_nodes {
            self.trip(StopReason::NodeCap);
            return false;
        }
        true
    }

    /// Acquire the right to emit one result; false when spent.
    fn acquire_result(&self) -> bool {
        if self.results.fetch_add(1, Ordering::Relaxed) >= self.max_results {
            self.trip(StopReason::ResultCap);
            return false;
        }
        true
    }
}

/// Running budget state threaded through the enumerators.
///
/// Standalone by default; [`SharedBudget::clock`] produces clocks
/// whose ticks draw from a run-global atomic countdown instead, so
/// concurrent workers stop together. `nodes` always counts this
/// clock's local tick attempts (per-worker statistics).
#[derive(Debug, Clone)]
pub(crate) struct BudgetClock {
    max_nodes: u64,
    deadline: Option<Instant>,
    pub(crate) nodes: u64,
    pub(crate) exhausted: bool,
    /// Why this clock stopped (local cause; see
    /// [`BudgetClock::stop_reason`] for the run-wide answer).
    stop: Option<StopReason>,
    max_results: u64,
    results: u64,
    /// When set, `try_result` does not draw from the result budget
    /// (this clock feeds an intermediate stage, not final output).
    results_exempt: bool,
    /// Cooperative cancellation, checked on every tick.
    cancel: Option<CancelToken>,
    shared: Option<(Arc<SharedBudget>, BudgetLane)>,
}

impl BudgetClock {
    /// True when no deadline and no cancel token is attached, so
    /// [`BudgetClock::interrupted`] can never fire and preparation
    /// skips its in-loop probes.
    pub(crate) fn never_interrupted(&self) -> bool {
        self.deadline.is_none() && self.cancel.is_none()
    }

    /// Preparation probe: the cancel token, then the deadline (node and
    /// result caps bound enumeration only). Reads the clock, so hot
    /// loops gate calls on a step counter (the prune cascade probes
    /// every few thousand peel steps and at every stage boundary).
    pub(crate) fn interrupted(&self) -> Option<StopReason> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(StopReason::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(StopReason::Deadline);
        }
        None
    }

    /// This clock with result accounting disabled (intermediate
    /// stages still honor node/time limits and the global stop flag).
    pub(crate) fn exempt_results(mut self) -> Self {
        self.results_exempt = true;
        self
    }

    /// Why the run stopped: this clock's own cause, or — for shared
    /// clocks — whatever limit tripped run-wide first.
    pub(crate) fn stop_reason(&self) -> Option<StopReason> {
        self.stop
            .or_else(|| self.shared.as_ref().and_then(|(s, _)| s.stop_reason()))
    }

    /// Fold this clock's stop state into a run's statistics (the
    /// first recorded cause wins).
    pub(crate) fn settle(&self, stats: &mut crate::biclique::EnumStats) {
        stats.aborted |= self.exhausted;
        stats.stop = stats.stop.or_else(|| self.stop_reason());
    }

    /// Stop this clock for `reason`, propagating to the shared budget
    /// (and thereby every sibling worker) when there is one.
    #[cold]
    fn fail(&mut self, reason: StopReason) -> bool {
        self.exhausted = true;
        if self.stop.is_none() {
            self.stop = Some(reason);
        }
        if let Some((shared, _)) = &self.shared {
            shared.trip(reason);
        }
        false
    }

    /// Record one search node; returns false when the budget is spent.
    #[inline]
    pub(crate) fn tick(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                return self.fail(StopReason::Cancelled);
            }
        }
        self.nodes += 1;
        if let Some((shared, lane)) = &self.shared {
            if shared.is_exhausted() || !shared.acquire_node(*lane) {
                self.exhausted = true;
                self.stop = self.stop.or_else(|| shared.stop_reason());
                return false;
            }
        } else if self.nodes > self.max_nodes {
            return self.fail(StopReason::NodeCap);
        }
        // Check the clock rarely; Instant::now is not free.
        if self.nodes % 1024 == 0 {
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    return self.fail(StopReason::Deadline);
                }
            }
        }
        true
    }

    /// Acquire the right to emit one result. Emission sites call this
    /// *before* `sink.emit`, so a result cap of `K` yields exactly
    /// `min(K, total)` results — globally, when the clock is shared.
    #[inline]
    pub(crate) fn try_result(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        if self.results_exempt {
            if let Some((shared, _)) = &self.shared {
                if shared.is_exhausted() {
                    self.exhausted = true;
                    self.stop = self.stop.or_else(|| shared.stop_reason());
                    return false;
                }
            }
            return true;
        }
        if let Some((shared, _)) = &self.shared {
            if shared.is_exhausted() || !shared.acquire_result() {
                self.exhausted = true;
                self.stop = self.stop.or_else(|| shared.stop_reason());
                return false;
            }
        } else {
            if self.results >= self.max_results {
                return self.fail(StopReason::ResultCap);
            }
            self.results += 1;
        }
        true
    }
}

/// Full configuration of an enumeration run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Pruning stage (default: colorful core, the paper's setting).
    pub prune: PruneKind,
    /// Vertex selection order (default: `DegOrd`).
    pub order: VertexOrder,
    /// Resource limits (default: unlimited).
    pub budget: Budget,
    /// Worker threads for the collected pipelines (default 1 =
    /// serial). Values above 1 run `FairBCEM++` / `BFairBCEM++` / the
    /// proportion enumerators / maximum search on the work-stealing
    /// engine in [`crate::parallel`]. The engine clamps the actual
    /// worker count to the available work and a hard cap of 512.
    pub threads: usize,
    /// Opt-in deterministic output: sort results into the canonical
    /// order ([`crate::results::canonical_order`]) so collected runs
    /// are byte-identical across thread counts (default off —
    /// discovery order).
    pub sorted: bool,
    /// Candidate-set substrate for the enumeration hot path (default
    /// [`Substrate::Auto`]: bitset rows when the pruned core is small
    /// and dense, sorted-vec merge otherwise). Results are identical
    /// across substrates — only speed and memory differ.
    pub substrate: Substrate,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            prune: PruneKind::default(),
            order: VertexOrder::default(),
            budget: Budget::default(),
            threads: 1,
            sorted: false,
            substrate: Substrate::Auto,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_validation() {
        assert!(FairParams::new(1, 0, 0).is_ok());
        assert_eq!(FairParams::new(0, 1, 1), Err(ParamError::AlphaZero));
        assert!(ProParams::new(1, 1, 1, 0.5).is_ok());
        assert!(ProParams::new(1, 1, 1, 0.0).is_ok());
        assert!(matches!(
            ProParams::new(1, 1, 1, 0.6),
            Err(ParamError::ThetaOutOfRange(_))
        ));
        assert!(matches!(
            ProParams::new(1, 1, 1, -0.1),
            Err(ParamError::ThetaOutOfRange(_))
        ));
        assert!(FairParams::new(0, 0, 0)
            .unwrap_err()
            .to_string()
            .contains("alpha"));
    }

    #[test]
    fn budget_node_cap() {
        let mut c = Budget::nodes(3).start();
        assert!(c.tick());
        assert!(c.tick());
        assert!(c.tick());
        assert!(!c.tick());
        assert!(c.exhausted);
        assert!(!c.tick()); // stays exhausted
        assert_eq!(c.nodes, 4);
    }

    #[test]
    fn budget_unlimited() {
        let mut c = Budget::UNLIMITED.start();
        for _ in 0..10_000 {
            assert!(c.tick());
        }
        assert!(!c.exhausted);
    }

    #[test]
    fn budget_deadline_expires() {
        let mut c = Budget::time(Duration::from_millis(0)).start();
        // Deadline is checked every 1024 nodes.
        let mut ok = true;
        for _ in 0..2048 {
            ok = c.tick();
            if !ok {
                break;
            }
        }
        assert!(!ok);
    }

    #[test]
    fn budget_result_cap_is_exact() {
        let mut c = Budget::results(2).start();
        assert!(c.try_result());
        assert!(c.try_result());
        assert!(!c.try_result(), "third result must be refused");
        assert!(c.exhausted);
        assert!(!c.tick(), "exhaustion is sticky across limits");

        let mut z = Budget::results(0).start();
        assert!(!z.try_result(), "zero budget admits nothing");
    }

    #[test]
    fn unlimited_results_never_trip() {
        let mut c = Budget::UNLIMITED.start();
        for _ in 0..10_000 {
            assert!(c.try_result());
        }
        assert!(!c.exhausted);
    }

    #[test]
    fn shared_budget_counts_globally() {
        let shared = SharedBudget::new(Budget::nodes(5));
        let mut a = shared.clock(BudgetLane::Walk);
        let mut b = shared.clock(BudgetLane::Walk);
        let mut ok = 0;
        for _ in 0..4 {
            ok += usize::from(a.tick());
            ok += usize::from(b.tick());
        }
        assert_eq!(ok, 5, "exactly max_nodes ticks succeed across clocks");
        assert!(shared.is_exhausted());
        assert!(!shared.clock(BudgetLane::Walk).tick(), "new clocks see it");
        // The expand lane has its own countdown but shares the trip.
        assert!(!shared.clock(BudgetLane::Expand).tick());
    }

    #[test]
    fn shared_budget_lanes_are_independent() {
        let shared = SharedBudget::new(Budget::nodes(3));
        let mut w = shared.clock(BudgetLane::Walk);
        let mut e = shared.clock(BudgetLane::Expand);
        for _ in 0..3 {
            assert!(w.tick());
            assert!(e.tick());
        }
        assert!(!shared.is_exhausted(), "3 + 3 ticks fit in separate lanes");
    }

    #[test]
    fn shared_budget_results_are_exact_across_clocks() {
        let shared = SharedBudget::new(Budget::results(3));
        let mut a = shared.clock(BudgetLane::Expand);
        let mut b = shared.clock(BudgetLane::Expand);
        let mut emitted = 0;
        for _ in 0..10 {
            emitted += usize::from(a.try_result());
            emitted += usize::from(b.try_result());
        }
        assert_eq!(emitted, 3);
    }

    #[test]
    fn cancel_token_stops_standalone_and_shared_clocks() {
        let token = CancelToken::new();
        assert!(!token.is_cancelled());
        let mut c = Budget::UNLIMITED.with_cancel(token.clone()).start();
        assert!(c.tick());
        token.cancel();
        assert!(token.is_cancelled());
        assert!(!c.tick(), "cancelled at the very next branch");
        assert_eq!(c.stop_reason(), Some(StopReason::Cancelled));

        let token = CancelToken::new();
        let shared = SharedBudget::new(Budget::UNLIMITED.with_cancel(token.clone()));
        let mut a = shared.clock(BudgetLane::Walk);
        let mut b = shared.clock(BudgetLane::Expand);
        assert!(a.tick() && b.tick());
        token.cancel();
        assert!(!a.tick());
        assert!(!b.tick());
        assert!(shared.is_exhausted(), "cancellation trips the whole run");
        assert_eq!(shared.stop_reason(), Some(StopReason::Cancelled));
    }

    #[test]
    fn stop_reasons_are_recorded() {
        let mut c = Budget::nodes(1).start();
        assert!(c.tick());
        assert!(!c.tick());
        assert_eq!(c.stop_reason(), Some(StopReason::NodeCap));

        let mut r = Budget::results(0).start();
        assert!(!r.try_result());
        assert_eq!(r.stop_reason(), Some(StopReason::ResultCap));

        let mut d = Budget::time(Duration::from_millis(0)).start();
        while d.tick() {}
        assert_eq!(d.stop_reason(), Some(StopReason::Deadline));

        // Shared: first reason wins, and every sibling clock sees it.
        let shared = SharedBudget::new(Budget::results(1));
        let mut a = shared.clock(BudgetLane::Expand);
        assert!(a.try_result());
        assert!(!a.try_result());
        assert_eq!(shared.stop_reason(), Some(StopReason::ResultCap));
        let mut b = shared.clock(BudgetLane::Walk);
        assert!(!b.tick());
        assert_eq!(b.stop_reason(), Some(StopReason::ResultCap));
    }

    #[test]
    fn stop_reason_display_and_codes() {
        for r in StopReason::CODES {
            assert_eq!(StopReason::from_code(r.code()), Some(r));
            assert!(!r.to_string().is_empty());
        }
        assert_eq!(StopReason::from_code(0), None);
        assert_eq!(StopReason::Deadline.to_string(), "deadline");
    }

    #[test]
    fn run_config_defaults() {
        let cfg = RunConfig::default();
        assert_eq!(cfg.threads, 1);
        assert!(!cfg.sorted);
        assert_eq!(cfg.substrate, Substrate::Auto);
    }

    #[test]
    fn display_formats() {
        assert_eq!(FairParams::unchecked(2, 3, 1).to_string(), "α=2 β=3 δ=1");
        let p = ProParams::new(2, 3, 1, 0.4).unwrap();
        assert!(p.to_string().contains("θ=0.4"));
    }
}
