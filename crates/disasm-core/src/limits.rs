//! Resource budgets and graceful degradation.
//!
//! The paper's threat model is hostile by construction: stripped binaries
//! with embedded data and no metadata. On adversarial or degenerate input a
//! production pipeline must return a *partial, honestly-labeled* result —
//! never a panic and never a runaway fixpoint. This module supplies the
//! vocabulary for that contract:
//!
//! * [`Limits`] — per-run budgets (superset candidates, viability and
//!   error-correction fixpoint iterations, jump-table entries followed,
//!   statistical training tokens, a wall-clock deadline). Every budget
//!   defaults to "unlimited" except the jump-table entry cap, which keeps
//!   its long-standing default of 4096.
//! * [`Deadline`] — a started wall clock (an [`obs::Stopwatch`]) paired
//!   with the budget; phases poll [`Deadline::exceeded`] at coarse
//!   intervals so the check itself stays off the hot path.
//! * [`Degradation`] — the structured record a phase leaves behind when it
//!   hits a budget: which phase, which limit, and how much work completed.
//!   Degradations accumulate in [`crate::PipelineTrace::degradations`] and
//!   are serialized in the `metadis.trace.*` records.
//!
//! The invariant every limited phase preserves: hitting a budget only ever
//! *shrinks* the evidence a later phase sees (fewer candidates, fewer
//! kills, fewer tables, fewer acceptances). The final leftovers-are-data
//! rule always runs to completion, so the resulting [`crate::Disassembly`]
//! still classifies every text byte.

use obs::Stopwatch;

/// Which budget a phase ran into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LimitKind {
    /// [`Limits::max_superset_candidates`]: superset decode stopped early.
    SupersetCandidates,
    /// [`Limits::max_viability_iterations`]: the backward fixpoint stopped
    /// propagating (remaining candidates stay conservatively viable).
    ViabilityIterations,
    /// [`Limits::max_correction_steps`]: the error-correction engine stopped
    /// accepting new candidates (undecided bytes fall to the data default).
    CorrectionSteps,
    /// [`Limits::max_table_entries`]: a jump table without a recovered
    /// bounds check was cut off at the entry cap.
    JumpTableEntries,
    /// [`Limits::max_train_tokens`]: statistical self-training stopped
    /// ingesting tokens early.
    TrainTokens,
    /// [`Limits::deadline_ms`]: the wall-clock deadline expired mid-phase.
    Deadline,
    /// A pipeline phase panicked; the run degraded to the linear-sweep
    /// fallback (see [`crate::Disassembler::disassemble`]).
    PhasePanicked,
}

impl LimitKind {
    /// Stable lowercase name used by the `metadis.trace.*` records.
    pub fn name(self) -> &'static str {
        match self {
            LimitKind::SupersetCandidates => "superset_candidates",
            LimitKind::ViabilityIterations => "viability_iterations",
            LimitKind::CorrectionSteps => "correction_steps",
            LimitKind::JumpTableEntries => "jump_table_entries",
            LimitKind::TrainTokens => "train_tokens",
            LimitKind::Deadline => "deadline",
            LimitKind::PhasePanicked => "phase_panicked",
        }
    }
}

/// One structured record of a phase stopping early: the budget it hit and
/// the work it completed before stopping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Degradation {
    /// Phase that hit the budget (a stable phase name, see
    /// [`crate::trace`]; `pipeline` for whole-run events).
    pub phase: &'static str,
    /// The budget that was hit.
    pub limit: LimitKind,
    /// Work completed before the phase stopped (phase-specific units:
    /// offsets decoded, worklist pops, acceptance steps, capped tables...).
    pub completed: u64,
}

/// Per-run resource budgets. `None` means unlimited. The default is fully
/// permissive — identical behavior to the pre-budget pipeline — so limits
/// are strictly opt-in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Limits {
    /// Maximum *valid* superset candidates decoded; offsets beyond the cap
    /// are treated as invalid decodes.
    pub max_superset_candidates: Option<u64>,
    /// Maximum worklist pops of the viability backward fixpoint.
    pub max_viability_iterations: Option<u64>,
    /// Maximum acceptance/propagation steps of the prioritized error
    /// correction engine (anchor, structural and statistical phases share
    /// the budget).
    pub max_correction_steps: Option<u64>,
    /// Upper bound on jump-table entries followed when no bounds check is
    /// recovered.
    pub max_table_entries: u32,
    /// Maximum class tokens ingested while self-training the statistical
    /// model.
    pub max_train_tokens: Option<u64>,
    /// Wall-clock deadline for the whole run, in milliseconds.
    pub deadline_ms: Option<u64>,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_superset_candidates: None,
            max_viability_iterations: None,
            max_correction_steps: None,
            max_table_entries: 4096,
            max_train_tokens: None,
            deadline_ms: None,
        }
    }
}

impl Limits {
    /// Fully permissive limits (the default).
    pub fn unlimited() -> Limits {
        Limits::default()
    }

    /// Default budgets with a wall-clock deadline.
    pub fn with_deadline_ms(ms: u64) -> Limits {
        Limits {
            deadline_ms: Some(ms),
            ..Limits::default()
        }
    }
}

/// A started wall clock plus its budget. Copyable so every phase can carry
/// one; [`Deadline::exceeded`] performs one monotonic clock read, so
/// callers poll it at coarse intervals (every few thousand loop steps).
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    sw: Stopwatch,
    budget_ns: u64,
}

impl Deadline {
    /// Start the clock with the budget from `limits` (unlimited when
    /// `limits.deadline_ms` is `None`).
    pub fn start(limits: &Limits) -> Deadline {
        Deadline {
            sw: Stopwatch::start(),
            budget_ns: limits
                .deadline_ms
                .map(|ms| ms.saturating_mul(1_000_000))
                .unwrap_or(u64::MAX),
        }
    }

    /// A deadline that never expires.
    pub fn unlimited() -> Deadline {
        Deadline {
            sw: Stopwatch::start(),
            budget_ns: u64::MAX,
        }
    }

    /// Start the clock with an explicit nanosecond budget. The serve layer
    /// uses this for per-client budgets that are not tied to a [`Limits`]
    /// value (`u64::MAX` means unlimited).
    pub fn with_budget_ns(budget_ns: u64) -> Deadline {
        Deadline {
            sw: Stopwatch::start(),
            budget_ns,
        }
    }

    /// Nanoseconds of budget left: `u64::MAX` when unlimited, saturating
    /// at 0 once spent. Lets a consumer hand the *remaining* budget down to
    /// a nested phase (e.g. serve subtracts queue-wait time from a client's
    /// deadline before starting analysis).
    pub fn remaining_ns(&self) -> u64 {
        if self.budget_ns == u64::MAX {
            return u64::MAX;
        }
        self.budget_ns.saturating_sub(self.sw.elapsed_ns())
    }

    /// `true` once the budget is spent. Free (no clock read) when the
    /// deadline is unlimited.
    pub fn exceeded(&self) -> bool {
        self.budget_ns != u64::MAX && self.sw.elapsed_ns() >= self.budget_ns
    }

    /// Nanoseconds elapsed since the deadline started.
    pub fn elapsed_ns(&self) -> u64 {
        self.sw.elapsed_ns()
    }

    /// `true` when the deadline can never expire (no budget was set).
    /// Parallel phases use this to pick the shard layout: an unlimited
    /// deadline needs no cooperative polling.
    pub fn is_unlimited(&self) -> bool {
        self.budget_ns == u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unlimited() {
        let l = Limits::default();
        assert_eq!(l.max_superset_candidates, None);
        assert_eq!(l.max_viability_iterations, None);
        assert_eq!(l.max_correction_steps, None);
        assert_eq!(l.max_table_entries, 4096);
        assert_eq!(l.max_train_tokens, None);
        assert_eq!(l.deadline_ms, None);
        assert_eq!(l, Limits::unlimited());
    }

    #[test]
    fn unlimited_deadline_never_expires() {
        let d = Deadline::unlimited();
        assert!(!d.exceeded());
        let d = Deadline::start(&Limits::default());
        assert!(!d.exceeded());
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        let d = Deadline::start(&Limits::with_deadline_ms(0));
        assert!(d.exceeded());
    }

    #[test]
    fn generous_deadline_does_not_expire_instantly() {
        let d = Deadline::start(&Limits::with_deadline_ms(60_000));
        assert!(!d.exceeded());
    }

    #[test]
    fn remaining_budget_saturates_and_stays_max_when_unlimited() {
        let d = Deadline::unlimited();
        assert_eq!(d.remaining_ns(), u64::MAX);
        let d = Deadline::with_budget_ns(0);
        assert!(d.exceeded());
        assert_eq!(d.remaining_ns(), 0);
        let d = Deadline::with_budget_ns(u64::MAX);
        assert!(d.is_unlimited());
        let d = Deadline::with_budget_ns(60_000_000_000);
        assert!(!d.exceeded());
        assert!(d.remaining_ns() > 0);
        assert!(d.remaining_ns() <= 60_000_000_000);
    }

    #[test]
    fn limit_kind_names_are_stable() {
        for (k, n) in [
            (LimitKind::SupersetCandidates, "superset_candidates"),
            (LimitKind::ViabilityIterations, "viability_iterations"),
            (LimitKind::CorrectionSteps, "correction_steps"),
            (LimitKind::JumpTableEntries, "jump_table_entries"),
            (LimitKind::TrainTokens, "train_tokens"),
            (LimitKind::Deadline, "deadline"),
            (LimitKind::PhasePanicked, "phase_panicked"),
        ] {
            assert_eq!(k.name(), n);
        }
    }
}
