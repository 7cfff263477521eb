"""Benchmark-regression guard: diff fresh BENCH_E*.json against baselines.

``bench_e14_e21.py`` saves each E14–E21 table as JSON: ``rows`` holds
one dict per table row, keyed by column name.  This script walks a
fresh results directory and a baseline directory in parallel and flags
any tracked cell, in any row, that regressed beyond a tolerance factor:
throughput columns (``users_per_s``, E18's ``items_per_s``) must not
fall below ``baseline / tolerance``, latency columns (``wall_s``,
``snapshot_ms``, ``merge_ms``, ``finalize_ms``, ``recovery_s``) must not
rise above ``baseline * tolerance``.  A zero cell, in a column that
does not apply to its row, passes both rules.  Error columns
(``mean_abs_err``, ``mean_win_err``) must not rise above
``baseline * ERROR_TOLERANCE``; a lower error always passes.  A dropped
row or column is a schema change.

Two deliberate design points:

* **Comparable populations only.**  A fresh run at a different
  ``users`` scale than its baseline is skipped (scales are not
  comparable); CI therefore keeps small-scale baselines under
  ``benchmarks/results/smoke/`` generated at the same
  ``REPRO_BENCH_USERS`` the workflow smoke runs use.
* **Calibrated tolerance.**  CI runners and dev laptops differ by
  small integer factors.  Payloads saved by ``benchmarks/conftest.py``
  carry a ``machine_score`` — seconds for the fixed micro-kernel in
  ``_machine_score.py`` on the producing runner.  When both fresh and
  baseline payloads carry one, the guard scales its band by the
  fresh/baseline score ratio and tightens the base tolerance to 4× —
  enough slack for run-to-run noise *and* for core-count differences
  (the score is single-threaded, but the E14/E15 thread-backend wall
  metrics scale with cores), tight enough to catch a real
  constant-factor regression.  Without calibration data it falls back
  to the historical blanket 8× (which only catches *complexity*
  regressions: an accidental O(panes·state) snapshot, a quadratic
  merge).  An explicit ``--tolerance`` disables auto-selection.

Exit status 0 when every tracked metric is within tolerance, 1
otherwise; ``--update-baselines`` instead copies the fresh JSONs over
the baselines (run it after an intentional perf-affecting change).

Usage::

    python benchmarks/check_bench_regression.py \
        --fresh benchmarks/results --baseline benchmarks/results/smoke
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys

BENCH_IDS = ("E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21")

#: Columns where larger is better (fail when fresh < baseline / tol).
THROUGHPUT_KEYS = {"users_per_s", "items_per_s"}
#: Columns where smaller is better (fail when fresh > baseline * tol),
#: mapped to their noise floor *in the column's own unit*: timings below
#: the floor are scheduler/GC noise at smoke scale (a single paused
#: window easily jumps 10x inside a millisecond) and never count as
#: regressions — the throughput columns carry the guard at that scale.
LATENCY_KEYS = {
    "wall_s": 1e-2,
    "snapshot_ms": 1.0,
    "merge_ms": 1.0,
    "finalize_ms": 1.0,
    # Supervisor restart latency: close crashed combiner, restore the
    # checkpoint, rebind the port.  Sub-second restores are all I/O +
    # scheduler noise at smoke scale.
    "recovery_s": 0.5,
}
#: Estimation-error columns (smaller is better; fail when fresh >
#: baseline · ``ERROR_TOLERANCE``).  Seeds are fixed, so at unchanged
#: code these cells repeat exactly, on any machine: the band is not
#: scaled by the machine score.  It only has to absorb a change in how
#: the RNG is consumed.  Six other seeds moved the 49 smoke cells of
#: E14–E17 and E19 by 0.77–1.48×, while OLH estimates that skip their
#: debiasing step raised every nonzero cell 9–39×.  A zero
#: baseline (a column that does not apply to its row) admits only zero.
ERROR_KEYS = {"mean_abs_err", "mean_win_err"}
ERROR_TOLERANCE = 2.0


def _walk(fresh, baseline, path, findings):
    """Recurse aligned JSON trees, comparing tracked numeric leaves."""
    if isinstance(baseline, dict):
        if not isinstance(fresh, dict):
            findings.append((path, "shape", None, None, False))
            return
        for key, base_value in baseline.items():
            if key not in fresh:
                findings.append((f"{path}.{key}", "missing", None, None, False))
                continue
            _walk(fresh[key], base_value, f"{path}.{key}", findings)
        return
    if isinstance(baseline, list):
        if not isinstance(fresh, list) or len(fresh) != len(baseline):
            findings.append((path, "shape", None, None, False))
            return
        for i, (f, b) in enumerate(zip(fresh, baseline)):
            _walk(f, b, f"{path}[{i}]", findings)
        return
    key = path.rsplit(".", 1)[-1].split("[")[0]
    if key in THROUGHPUT_KEYS or key in LATENCY_KEYS or key in ERROR_KEYS:
        if isinstance(fresh, (int, float)) and not isinstance(fresh, bool):
            findings.append((path, key, float(fresh), float(baseline), True))
        else:
            # Tracked leaf became a container/null: a schema change to
            # report, not a crash.
            findings.append((path, "shape", None, None, False))


#: Base tolerance when both payloads carry a calibration score.  The
#: score is a *single-threaded* micro-kernel, so it normalizes per-core
#: speed but not core count; the calibrated base stays at 4x (not lower)
#: because the thread-backend wall metrics can legitimately differ by a
#: small core-count factor between runners the score rates as equal.
CALIBRATED_TOLERANCE = 4.0
UNCALIBRATED_TOLERANCE = 8.0

#: Floor on the scaled band: a fresh runner whose score comes back much
#: *faster* than the baseline's (score noise, a baseline taken under
#: load) would otherwise shrink the band toward 1x and fail on ordinary
#: run-to-run jitter.  Tightening stops here.
MIN_EFFECTIVE_TOLERANCE = 2.0

#: Calibration ratios outside this band are treated as a broken score
#: (a stalled runner, a unit change) and clamped so the guard still
#: guards.
_RATIO_CLAMP = 8.0


def effective_tolerance(
    fresh: dict, baseline: dict, tolerance: float | None
) -> tuple[float, str]:
    """The tolerance factor for one payload pair, plus a description.

    With an explicit ``tolerance`` it is used as-is.  Otherwise, when
    both payloads carry a ``machine_score``, the calibrated base (4×)
    is scaled by the fresh/baseline machine-speed ratio — a fresh
    runner that is 2× slower on the fixed micro-kernel is allowed 2×
    slower benchmarks before the same band applies; a faster runner
    gets a proportionally *tighter* band.  Without scores the blanket
    8× applies.
    """
    if tolerance is not None:
        return tolerance, f"{tolerance:g}x (explicit)"
    f_score = fresh.get("machine_score")
    b_score = baseline.get("machine_score")
    if (
        isinstance(f_score, (int, float))
        and isinstance(b_score, (int, float))
        and f_score > 0
        and b_score > 0
    ):
        ratio = min(max(f_score / b_score, 1.0 / _RATIO_CLAMP), _RATIO_CLAMP)
        eff = max(CALIBRATED_TOLERANCE * ratio, MIN_EFFECTIVE_TOLERANCE)
        return eff, (
            f"{eff:.2f}x (calibrated: base {CALIBRATED_TOLERANCE:g}x · "
            f"machine ratio {ratio:.2f})"
        )
    return UNCALIBRATED_TOLERANCE, (
        f"{UNCALIBRATED_TOLERANCE:g}x (uncalibrated: no machine_score)"
    )


def compare_payloads(fresh: dict, baseline: dict, tolerance: float | None):
    """Compare one benchmark's fresh/baseline JSON.

    Returns ``(rows, violations, skipped_reason, tolerance_note)`` where
    each row is ``(path, metric, fresh, baseline, ok)``.
    """
    if fresh.get("users") != baseline.get("users"):
        return [], [], (
            f"population mismatch (fresh {fresh.get('users')} vs baseline "
            f"{baseline.get('users')}) — not comparable"
        ), ""
    eff_tolerance, note = effective_tolerance(fresh, baseline, tolerance)
    findings: list = []
    _walk(fresh, baseline, "$", findings)
    rows, violations = [], []
    for path, key, f, b, comparable in findings:
        if not comparable:
            violations.append((path, key, f, b))
            rows.append((path, key, f, b, False))
            continue
        if key in THROUGHPUT_KEYS:
            ok = b <= 0.0 or f >= b / eff_tolerance
        elif key in ERROR_KEYS:
            ok = f <= b * ERROR_TOLERANCE
        else:
            ok = f <= b * eff_tolerance or f <= LATENCY_KEYS[key]
        rows.append((path, key, f, b, ok))
        if not ok:
            violations.append((path, key, f, b))
    return rows, violations, None, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh",
        type=pathlib.Path,
        default=pathlib.Path("benchmarks/results"),
        help="directory holding the freshly generated BENCH_E*.json",
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=pathlib.Path("benchmarks/results/smoke"),
        help="directory holding the committed baseline BENCH_E*.json",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="explicit slowdown factor before a metric counts as "
        "regressed; omit to auto-select (4x scaled by the machine_score "
        "calibration ratio when both payloads carry one, 8x otherwise)",
    )
    parser.add_argument(
        "--update-baselines",
        action="store_true",
        help="copy fresh JSONs over the baselines instead of comparing",
    )
    parser.add_argument(
        "--allow-scale-mismatch",
        action="store_true",
        help="tolerate fresh/baseline population mismatches (local runs "
        "against full-scale results); CI omits this so a scale drift "
        "fails loudly instead of silently disabling the gate",
    )
    args = parser.parse_args(argv)
    if args.tolerance is not None and args.tolerance <= 1.0:
        parser.error("--tolerance must be > 1")

    exit_code = 0
    compared = 0
    mismatched = 0
    for bench_id in BENCH_IDS:
        name = f"BENCH_{bench_id}.json"
        fresh_path = args.fresh / name
        base_path = args.baseline / name
        if not fresh_path.exists():
            print(f"{bench_id}: no fresh results at {fresh_path} — skipped")
            continue
        if args.update_baselines:
            args.baseline.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(fresh_path, base_path)
            print(f"{bench_id}: baseline updated from {fresh_path}")
            continue
        if not base_path.exists():
            print(
                f"{bench_id}: no baseline at {base_path} — run with "
                "--update-baselines to create one"
            )
            exit_code = 1
            continue
        fresh = json.loads(fresh_path.read_text())
        baseline = json.loads(base_path.read_text())
        rows, violations, skipped, tol_note = compare_payloads(
            fresh, baseline, args.tolerance
        )
        if skipped:
            print(f"{bench_id}: skipped — {skipped}")
            mismatched += 1
            if not args.allow_scale_mismatch:
                exit_code = 1
            continue
        compared += 1
        worst = ""
        if violations:
            exit_code = 1
            for path, key, f, b in violations:
                if f is None:
                    print(f"{bench_id}: SCHEMA CHANGE at {path} — "
                          "update the baselines")
                else:
                    band = (
                        f"error band {ERROR_TOLERANCE:g}x"
                        if key in ERROR_KEYS
                        else f"tolerance {tol_note}"
                    )
                    print(
                        f"{bench_id}: REGRESSION {path} ({key}): "
                        f"fresh {f:.4g} vs baseline {b:.4g} ({band})"
                    )
        else:
            errors = sum(1 for r in rows if r[1] in ERROR_KEYS)
            checked = sum(1 for r in rows if r[2] is not None) - errors
            worst = _worst_ratio(rows)
            print(
                f"{bench_id}: ok — {checked} metrics within {tol_note}"
                f"{f', {errors} errors within {ERROR_TOLERANCE:g}x' if errors else ''}"
                f"{worst}"
            )
    if not args.update_baselines and compared == 0:
        if args.allow_scale_mismatch and mismatched > 0:
            print("note: nothing compared (scale mismatch allowed)")
        else:
            # A guard that guards nothing must not pass: every benchmark
            # missing or scale-mismatched means the gate is disabled.
            print("error: nothing compared (missing files or scale mismatch)")
            exit_code = 1
    return exit_code


def _worst_ratio(rows) -> str:
    """Human summary of the closest-to-the-line metric."""
    worst, worst_path = 0.0, ""
    for path, key, f, b, _ok in rows:
        if f is None or b is None or b <= 0 or f <= 0:
            continue
        ratio = b / f if key in THROUGHPUT_KEYS else f / b
        if ratio > worst:
            worst, worst_path = ratio, path
    if not worst_path:
        return ""
    return f" (worst {worst:.2f}x at {worst_path})"


if __name__ == "__main__":
    sys.exit(main())
