//! Fault classification, bounded retry, and the write-path circuit
//! breaker.
//!
//! The engine's durability guarantees (§8 of `DESIGN.md`) say what a
//! *crash* may do; this module says what a *fault* may do while the
//! process keeps running. Three pieces:
//!
//! * [`FaultKind`] splits I/O failures into `Transient` (worth retrying:
//!   an interrupted syscall, a momentary timeout) and `Permanent` (the
//!   disk is gone, permission was lost — retrying is wasted work and
//!   delayed honesty);
//! * [`RETRY_ATTEMPTS`] bounds how hard a write is retried. Retry is
//!   fully deterministic — attempts are counted, nothing sleeps — so the
//!   simulated fault scenarios replay identically every run;
//! * [`CircuitBreaker`] degrades the engine to read-only after a run of
//!   consecutive write failures, instead of letting every request grind
//!   against a dead disk. `trip`/half-open probing follow the classic
//!   three-state machine (`DESIGN.md` §10).
//!
//! Every retry, trip, probe and reset is visible in the metrics
//! snapshot (`storage.retry.*`, `storage.breaker.*` — §9.2).

use std::io;

use crate::log::LogError;

/// POSIX errno for "no space left on device".
pub(crate) const ENOSPC: i32 = 28;

/// How a failed I/O operation should be treated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Plausibly momentary (interrupted syscall, timeout, would-block):
    /// retrying may succeed and is worth the bounded attempts.
    Transient,
    /// Structural (disk gone, permission lost):
    /// retrying cannot help; fail now and let the breaker count it.
    Permanent,
}

impl FaultKind {
    /// Classify a raw I/O error.
    ///
    /// A full disk (`ENOSPC`) is transient: space comes back when a
    /// compaction, log rotation or operator intervention frees it, and
    /// the breaker's half-open probe re-admits writes once it does —
    /// treating it as permanent would turn every full-disk blip into a
    /// restart. (`ErrorKind::StorageFull` is not stable on our MSRV, so
    /// the raw errno is matched.)
    #[must_use]
    pub fn of_io(e: &io::Error) -> FaultKind {
        if e.raw_os_error() == Some(ENOSPC) {
            return FaultKind::Transient;
        }
        match e.kind() {
            io::ErrorKind::Interrupted
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut => FaultKind::Transient,
            _ => FaultKind::Permanent,
        }
    }

    /// Classify a log error by the kind of its I/O error.
    #[must_use]
    pub fn of_log_error(e: &LogError) -> FaultKind {
        match e {
            LogError::Io(e) => FaultKind::of_io(e),
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Transient => write!(f, "transient"),
            FaultKind::Permanent => write!(f, "permanent"),
        }
    }
}

/// Attempts per write-path I/O operation (log append, fsync), the first
/// included. Retries follow each other at once, with no wall-clock
/// sleep, so tests replay bit-identically.
pub const RETRY_ATTEMPTS: u32 = 4;

/// Consecutive surfaced write failures (post-retry) that open an
/// engine's breaker.
pub const BREAKER_THRESHOLD: u32 = 3;

/// Why a retried operation ultimately failed.
#[derive(Debug)]
pub struct RetryExhausted {
    /// Classification of the final error.
    pub fault: FaultKind,
    /// Attempts performed (including the first).
    pub attempts: u32,
    /// The final error.
    pub source: LogError,
}

/// Run `f`: transient failures are retried up to [`RETRY_ATTEMPTS`]
/// total attempts, permanent failures return immediately.
/// Every retry increments `storage.retry.attempts`; giving up on a
/// transient fault increments `storage.retry.exhausted`.
pub(crate) fn retry<T>(mut f: impl FnMut() -> Result<T, LogError>) -> Result<T, RetryExhausted> {
    let mut attempt = 1u32;
    loop {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) => {
                let fault = FaultKind::of_log_error(&e);
                if fault == FaultKind::Transient && attempt < RETRY_ATTEMPTS {
                    tchimera_obs::counter!("storage.retry.attempts").inc();
                    attempt += 1;
                    continue;
                }
                if fault == FaultKind::Transient {
                    tchimera_obs::counter!("storage.retry.exhausted").inc();
                }
                return Err(RetryExhausted {
                    fault,
                    attempts: attempt,
                    source: e,
                });
            }
        }
    }
}

/// The circuit-breaker state machine (`DESIGN.md` §10).
///
/// Encoded in the `storage.breaker.state` gauge as `Closed = 0`,
/// `HalfOpen = 1`, `Open = 2`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: writes flow.
    Closed,
    /// Probing: a reset was requested; the next write-path I/O decides.
    HalfOpen,
    /// Degraded: writes fail fast, reads keep working.
    Open,
}

impl BreakerState {
    fn gauge_value(self) -> i64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::HalfOpen => write!(f, "half-open"),
            BreakerState::Open => write!(f, "open"),
        }
    }
}

/// Write-path circuit breaker: counts consecutive surfaced write
/// failures and flips the engine read-only at the threshold.
///
/// Transitions (all mirrored into the `storage.breaker.state` gauge):
///
/// ```text
///        N consecutive failures            try_reset()
/// Closed ───────────────────────► Open ───────────────► HalfOpen
///    ▲                             ▲                        │
///    │        probe / write ok     │   probe / write fails  │
///    └─────────────────────────────┴────────────────────────┘
/// ```
#[derive(Debug)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    threshold: u32,
}

impl CircuitBreaker {
    /// A closed breaker that opens after `threshold` consecutive
    /// failures (clamped to ≥ 1).
    #[must_use]
    pub fn new(threshold: u32) -> CircuitBreaker {
        let breaker = CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            threshold: threshold.max(1),
        };
        tchimera_obs::gauge!("storage.breaker.state").set(breaker.state.gauge_value());
        breaker
    }

    /// The current state.
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Consecutive surfaced write failures since the last success.
    #[must_use]
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// `true` while writes may proceed (closed or half-open).
    #[must_use]
    pub fn allows_writes(&self) -> bool {
        self.state != BreakerState::Open
    }

    fn transition(&mut self, to: BreakerState) {
        if self.state == to {
            return;
        }
        match to {
            BreakerState::Open => {
                tchimera_obs::counter!("storage.breaker.trips").inc();
                tchimera_obs::event!("storage.breaker.trip", level = "warn");
            }
            BreakerState::Closed => {
                tchimera_obs::counter!("storage.breaker.resets").inc();
            }
            BreakerState::HalfOpen => {}
        }
        self.state = to;
        tchimera_obs::gauge!("storage.breaker.state").set(to.gauge_value());
    }

    /// Record a successful write-path I/O: clears the failure run and
    /// closes a half-open breaker.
    pub fn note_success(&mut self) {
        self.consecutive_failures = 0;
        if self.state == BreakerState::HalfOpen {
            self.transition(BreakerState::Closed);
        }
    }

    /// Record a surfaced write-path failure (post-retry). A half-open
    /// breaker re-opens immediately; a closed one opens at the
    /// threshold.
    pub fn note_failure(&mut self) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        match self.state {
            BreakerState::HalfOpen => self.transition(BreakerState::Open),
            BreakerState::Closed if self.consecutive_failures >= self.threshold => {
                self.transition(BreakerState::Open);
            }
            _ => {}
        }
    }

    /// Force the breaker open (manual degradation, or a divergence the
    /// engine cannot repair).
    pub fn trip(&mut self) {
        self.consecutive_failures = self.consecutive_failures.max(self.threshold);
        self.transition(BreakerState::Open);
    }

    /// Move an open breaker to half-open ahead of a probe. Returns
    /// `true` if a probe should run (the breaker was open or already
    /// half-open); `false` if the breaker is closed (nothing to reset).
    pub fn begin_probe(&mut self) -> bool {
        match self.state {
            BreakerState::Closed => false,
            BreakerState::Open | BreakerState::HalfOpen => {
                tchimera_obs::counter!("storage.breaker.probes").inc();
                self.transition(BreakerState::HalfOpen);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_error_kind() {
        for kind in [
            io::ErrorKind::Interrupted,
            io::ErrorKind::WouldBlock,
            io::ErrorKind::TimedOut,
        ] {
            let e = io::Error::new(kind, "flaky");
            assert_eq!(FaultKind::of_io(&e), FaultKind::Transient, "{kind:?}");
        }
        let e = io::Error::other("dead disk");
        assert_eq!(FaultKind::of_io(&e), FaultKind::Permanent);
    }

    #[test]
    fn retry_recovers_from_transient_runs_shorter_than_the_budget() {
        let mut failures_left = 2;
        let out = retry(|| {
            if failures_left > 0 {
                failures_left -= 1;
                Err(LogError::Io(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "blip",
                )))
            } else {
                Ok(7u32)
            }
        });
        assert_eq!(out.unwrap(), 7);
    }

    #[test]
    fn retry_exhausts_on_long_transient_runs_and_fails_fast_on_permanent() {
        let mut calls = 0u32;
        let err = retry(|| -> Result<(), LogError> {
            calls += 1;
            Err(LogError::Io(io::Error::new(
                io::ErrorKind::TimedOut,
                "stuck",
            )))
        })
        .unwrap_err();
        assert_eq!(calls, RETRY_ATTEMPTS);
        assert_eq!(err.attempts, RETRY_ATTEMPTS);
        assert_eq!(err.fault, FaultKind::Transient);

        let mut calls = 0u32;
        let err = retry(|| -> Result<(), LogError> {
            calls += 1;
            Err(LogError::Io(io::Error::other("gone")))
        })
        .unwrap_err();
        assert_eq!(calls, 1, "permanent faults are never retried");
        assert_eq!(err.fault, FaultKind::Permanent);
    }

    #[test]
    fn breaker_state_machine() {
        let mut b = CircuitBreaker::new(3);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allows_writes());
        b.note_failure();
        b.note_failure();
        assert_eq!(b.state(), BreakerState::Closed, "below threshold");
        b.note_success();
        b.note_failure();
        b.note_failure();
        assert_eq!(b.state(), BreakerState::Closed, "success resets the run");
        b.note_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allows_writes());
        // Half-open probe that fails re-opens.
        assert!(b.begin_probe());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(b.allows_writes());
        b.note_failure();
        assert_eq!(b.state(), BreakerState::Open);
        // Half-open probe that succeeds closes.
        assert!(b.begin_probe());
        b.note_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.consecutive_failures(), 0);
        // Nothing to probe while closed.
        assert!(!b.begin_probe());
        // Manual trip.
        b.trip();
        assert_eq!(b.state(), BreakerState::Open);
    }
}
