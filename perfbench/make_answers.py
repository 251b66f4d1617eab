"""Write perfbench/answers.json, the known answers of check-mix and zone-grid.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_answers.py

The answers come from the region engine (`regions.find_lasso`, the
reference the tests check the zone engine against), never from the zone
engine.  Where the region engine does not finish one candidate within
ORACLE_BUDGET nodes, that candidate's verdict is the zone engine's at the
commit this script ran on, and the answer is marked "seed-commit".
A witness-scale answer is derived by hand in workloads.py instead.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from pnta import (  # noqa: E402
    candidate_parameters,
    emptiness_fixed,
    find_lasso,
    is_nrtta,
    prepare_fixed,
    ta_to_nrtta,
)
from pnta.errors import RegionBudgetExceeded  # noqa: E402

import workloads  # noqa: E402
from run import git_commit  # noqa: E402

ORACLE_BUDGET = 100_000


def region_verdict(a, mu) -> tuple[bool, bool]:
    """(nonempty, decided by the region engine) at one parameter value."""
    scaled, m, _ = prepare_fixed(a, mu)
    try:
        return find_lasso(scaled, m, ORACLE_BUDGET) is not None, True
    except RegionBudgetExceeded:
        return emptiness_fixed(a, mu, include_lasso=False).nonempty, False
    finally:
        workloads.clear_caches()


def parametric_answer(a) -> dict:
    """The first candidate, in ascending order, with a nonempty language."""
    b = a if is_nrtta(a) else ta_to_nrtta(a)
    values = [None] if not b.params else [c.value for c in candidate_parameters(b).candidates]
    exact = True
    for mu in values:
        nonempty, decided = region_verdict(b, mu)
        exact = exact and decided
        if nonempty:
            return {"verdict": "Nonempty", "mu": None if mu is None else str(mu),
                    "source": "regions" if exact else "seed-commit"}
    return {"verdict": "Empty", "mu": None, "source": "regions" if exact else "seed-commit"}


def main() -> int:
    t0 = time.perf_counter()
    check_mix = {}
    for key, a, _ in workloads.check_mix_inputs():
        check_mix[key] = parametric_answer(a)
        print(key, check_mix[key], f"{time.perf_counter() - t0:.1f}s", flush=True)
    zone_grid = {}
    for key, a, gaps in workloads.zone_grid_pool():
        answers = {}
        for _, mus in gaps:
            for mu in mus:
                nonempty, decided = region_verdict(a, mu)
                answers[str(mu)] = [nonempty, "regions" if decided else "seed-commit"]
        zone_grid[key] = answers
        print(key, f"{len(answers)} values, {time.perf_counter() - t0:.1f}s", flush=True)
    doc = {
        "oracle": f"regions.find_lasso, {ORACLE_BUDGET} nodes per candidate",
        "fallback": "seed-commit: the zone engine's verdict where the oracle hit its budget",
        "commit": git_commit(HERE.parent),
        "check_mix": check_mix,
        "zone_grid": zone_grid,
    }
    with open(workloads.ANSWERS, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
