//! Resource budgets for exploration: deadlines, trial caps and graceful
//! E→I degradation.
//!
//! A [`SearchBudget`] bounds what one [`Session::explore`] call may spend.
//! Budgets are *cooperative*: the heuristics check the budget between
//! trials and stop early, returning the partial result found so far tagged
//! with a [`Completion`] status — a tripped budget is a normal outcome, not
//! an error.
//!
//! [`Session::explore`]: crate::Session::explore

use std::fmt;
use std::time::{Duration, Instant};

/// How many combinations heuristic E is allowed before a default budget
/// degrades the search to heuristic I.
pub const DEFAULT_DEGRADE_THRESHOLD: u128 = 1_000_000;

/// How a search run ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Completion {
    /// The search examined the whole (heuristic-defined) space.
    #[default]
    Complete,
    /// The wall-clock deadline tripped; the outcome is partial.
    TruncatedDeadline,
    /// A count budget (max trials or max retained points) tripped; the
    /// outcome is partial.
    TruncatedTrials,
    /// Heuristic E's predicted combination count exceeded the degradation
    /// threshold, so heuristic I ran instead — the outcome is complete
    /// *for heuristic I*.
    DegradedToIterative,
}

impl Completion {
    /// Whether the search stopped before finishing its space — the outcome
    /// may be missing feasible implementations.
    #[must_use]
    pub fn is_truncated(self) -> bool {
        matches!(self, Completion::TruncatedDeadline | Completion::TruncatedTrials)
    }
}

impl fmt::Display for Completion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Completion::Complete => write!(f, "complete"),
            Completion::TruncatedDeadline => write!(f, "truncated: deadline exceeded"),
            Completion::TruncatedTrials => write!(f, "truncated: trial/point budget exhausted"),
            Completion::DegradedToIterative => {
                write!(f, "degraded: enumeration too large, ran iterative heuristic")
            }
        }
    }
}

/// Bounds on one exploration run.
///
/// The default budget is unlimited in time and trial count but degrades
/// heuristic E to heuristic I past [`DEFAULT_DEGRADE_THRESHOLD`] predicted
/// combinations; [`SearchBudget::unlimited`] disables even that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchBudget {
    /// Wall-clock limit for the whole run (prediction + search).
    pub deadline: Option<Duration>,
    /// Maximum global combinations to examine.
    pub max_trials: Option<usize>,
    /// Maximum design points to retain (feasible implementations plus
    /// keep-all recordings). Tripping reports [`Completion::TruncatedTrials`].
    pub max_points: Option<usize>,
    /// Degrade heuristic E to I when its predicted combination count
    /// exceeds this; `None` never degrades.
    pub degrade_threshold: Option<u128>,
}

impl Default for SearchBudget {
    fn default() -> Self {
        Self {
            deadline: None,
            max_trials: None,
            max_points: None,
            degrade_threshold: Some(DEFAULT_DEGRADE_THRESHOLD),
        }
    }
}

impl SearchBudget {
    /// A budget with no limits at all (no deadline, no caps, no
    /// degradation) — the pre-budget behavior.
    #[must_use]
    pub fn unlimited() -> Self {
        Self { deadline: None, max_trials: None, max_points: None, degrade_threshold: None }
    }

    /// Sets a wall-clock deadline for the whole run.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps the number of global combinations examined.
    #[must_use]
    pub fn with_max_trials(mut self, max_trials: usize) -> Self {
        self.max_trials = Some(max_trials);
        self
    }

    /// Caps the number of retained design points.
    #[must_use]
    pub fn with_max_points(mut self, max_points: usize) -> Self {
        self.max_points = Some(max_points);
        self
    }

    /// Sets the E→I degradation threshold.
    #[must_use]
    pub fn with_degrade_threshold(mut self, combinations: u128) -> Self {
        self.degrade_threshold = Some(combinations);
        self
    }

    /// Never degrade E to I, however large the combination space.
    #[must_use]
    pub fn without_degradation(mut self) -> Self {
        self.degrade_threshold = None;
        self
    }

    /// Whether heuristic E over `combinations` predicted combinations
    /// should degrade to heuristic I under this budget.
    #[must_use]
    pub fn should_degrade(&self, combinations: u128) -> bool {
        self.degrade_threshold.is_some_and(|t| combinations > t)
    }
}

/// A running budget: the limits plus the run's start instant.
///
/// Heuristics call [`BudgetTimer::check`] between trials; `Some` means
/// stop now and report the returned status.
#[derive(Debug, Clone, Copy)]
pub struct BudgetTimer {
    budget: SearchBudget,
    started: Instant,
}

impl BudgetTimer {
    /// Starts the clock on a budget.
    #[must_use]
    pub fn start(budget: SearchBudget) -> Self {
        Self { budget, started: Instant::now() }
    }

    /// A timer that never trips (for callers without a budget).
    #[must_use]
    pub fn unlimited() -> Self {
        Self::start(SearchBudget::unlimited())
    }

    /// The budget being enforced.
    #[must_use]
    pub fn budget(&self) -> &SearchBudget {
        &self.budget
    }

    /// Time since the run started.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Whether the wall-clock deadline alone has passed.
    #[must_use]
    pub fn deadline_exceeded(&self) -> bool {
        self.budget.deadline.is_some_and(|d| self.started.elapsed() >= d)
    }

    /// The cooperative cancellation point: given the trials spent and the
    /// design points retained so far, decides whether the search must stop.
    /// The deadline is checked first so a late check never masks it.
    #[must_use]
    pub fn check(&self, trials: usize, retained_points: usize) -> Option<Completion> {
        if self.deadline_exceeded() {
            return Some(Completion::TruncatedDeadline);
        }
        if self.budget.max_trials.is_some_and(|m| trials >= m)
            || self.budget.max_points.is_some_and(|m| retained_points >= m)
        {
            return Some(Completion::TruncatedTrials);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_only_degrades() {
        let b = SearchBudget::default();
        assert!(b.deadline.is_none());
        assert!(b.max_trials.is_none());
        assert!(b.max_points.is_none());
        assert!(!b.should_degrade(DEFAULT_DEGRADE_THRESHOLD));
        assert!(b.should_degrade(DEFAULT_DEGRADE_THRESHOLD + 1));
    }

    #[test]
    fn unlimited_never_trips() {
        let t = BudgetTimer::unlimited();
        assert_eq!(t.check(usize::MAX, usize::MAX), None);
        assert!(!t.budget().should_degrade(u128::MAX));
    }

    #[test]
    fn trial_cap_trips_at_exact_count() {
        let t = BudgetTimer::start(SearchBudget::default().with_max_trials(10));
        assert_eq!(t.check(9, 0), None);
        assert_eq!(t.check(10, 0), Some(Completion::TruncatedTrials));
    }

    #[test]
    fn point_cap_trips() {
        let t = BudgetTimer::start(SearchBudget::default().with_max_points(5));
        assert_eq!(t.check(0, 4), None);
        assert_eq!(t.check(0, 5), Some(Completion::TruncatedTrials));
    }

    #[test]
    fn zero_deadline_trips_immediately_and_wins_over_trials() {
        let t = BudgetTimer::start(
            SearchBudget::default().with_deadline(Duration::ZERO).with_max_trials(0),
        );
        assert!(t.deadline_exceeded());
        assert_eq!(t.check(usize::MAX, 0), Some(Completion::TruncatedDeadline));
    }

    #[test]
    fn completion_flags_truncation() {
        assert!(!Completion::Complete.is_truncated());
        assert!(!Completion::DegradedToIterative.is_truncated());
        assert!(Completion::TruncatedDeadline.is_truncated());
        assert!(Completion::TruncatedTrials.is_truncated());
    }

    #[test]
    fn display_names_reason() {
        assert!(Completion::TruncatedDeadline.to_string().contains("deadline"));
        assert!(Completion::DegradedToIterative.to_string().contains("iterative"));
    }
}
