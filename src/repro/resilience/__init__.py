"""repro.resilience — fault injection, crash-safe resume, degradation.

Three cooperating layers (see docs/robustness.md):

* :mod:`repro.resilience.chaos` — deterministic, seeded fault
  injection at named points throughout the pipeline (``--chaos SPEC``
  / ``$REPRO_CHAOS``), so every failure scenario is reproducible.
* :mod:`repro.resilience.journal` — CRC-self-checked NDJSON lines,
  the format of every result-store record and serve journal line, so
  a torn or corrupt write reads as a miss, never as data.
* :mod:`repro.resilience.policy` — bounded retries with deterministic
  jittered backoff, the executor's step-budget watchdog, and the
  strict/salvage switch that decides whether quarantines fail the run.
"""

from repro.errors import (ChaosFault, StepBudgetExceeded,
                          StrictModeViolation)
from repro.resilience.chaos import (CRASH_EXIT_CODE, FAULT_POINTS,
                                    PIPELINE_FAULT_POINTS,
                                    SERVE_FAULT_POINTS, ChaosPolicy,
                                    ChaosSpecError)
from repro.resilience.journal import journal_line, parse_journal_line
from repro.resilience.policy import (DEFAULT_STEP_BUDGET, RetryPolicy,
                                     default_retry_policy,
                                     forced_step_budget, forced_strict,
                                     quarantine_or_raise, set_step_budget,
                                     set_strict, step_budget,
                                     strict_mode)

__all__ = [
    # chaos
    "ChaosPolicy", "ChaosSpecError", "ChaosFault", "FAULT_POINTS",
    "PIPELINE_FAULT_POINTS", "SERVE_FAULT_POINTS", "CRASH_EXIT_CODE",
    # journal
    "journal_line", "parse_journal_line",
    # policy
    "RetryPolicy", "default_retry_policy", "DEFAULT_STEP_BUDGET",
    "step_budget", "set_step_budget", "forced_step_budget",
    "strict_mode", "set_strict", "forced_strict",
    "quarantine_or_raise",
    # errors
    "StepBudgetExceeded", "StrictModeViolation",
]
