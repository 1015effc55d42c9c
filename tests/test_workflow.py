"""The CI workflow runs the tier-1 suite and the bench, and no check of its own.

A check written as an inline shell step runs only on the CI host; as a test
it runs wherever tier-1 runs.  The workflow is read as text, since CI
installs no YAML parser.
"""

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"

# each kind of run: step the workflow may have, as a full-line pattern
RUN_STEPS = {
    "install": r"python -m pip install pytest hypothesis",
    "tier-1": r"PYTHONPATH=src\$\{PYTHONPATH:\+:\$PYTHONPATH\} python -m pytest -q "
              r"--continue-on-collection-errors( --durations=\d+)?",
    "bench tests": r"python -m pytest bench",
    "bench run": r"python3 bench/run\.py .+",
}


def test_workflow_runs_only_tier1_and_the_bench():
    runs = re.findall(r"^\s*(?:- )?run:(.*)$", WORKFLOW.read_text(encoding="utf-8"), re.M)
    kinds = []
    for run in runs:
        kind = [name for name, pattern in RUN_STEPS.items() if re.fullmatch(pattern, run.strip())]
        assert kind, f"a run: step that is not tier-1 or the bench: {run.strip()!r}"
        kinds += kind
    assert set(kinds) == set(RUN_STEPS), kinds
