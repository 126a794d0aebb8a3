import pytest

from wshm.diagnostics import normality_report
from wshm.operators import full_realization
from wshm.spaces import builtin_space


@pytest.fixture(scope="module")
def da_defect_terms():
    """p -> the per-level terms of the Drury-Arveson m=2 defect's Schatten-p
    table to level 128, for p = 2 and 2.5, from one normality report."""
    rep = normality_report(full_realization(builtin_space("da", 2), 130), 128, [2.0, 2.5])
    tables = {t.name: t for t in rep.tables}
    return {p: [row[1] for row in tables[f"schatten_defect_p{p}"].rows] for p in (2.0, 2.5)}
