"""Results shared across test modules within one session.

Acceptance verdict lines are gathered in ``VERDICTS`` and echoed in the
terminal summary by ``conftest.py``, where capture no longer hides them.
Several tests bisect the same frozen sweep onto its critical parameter;
``shared_critical_bisect`` runs each such bisection once per session.  The
module's name is unique across the repository's test suites, so test
modules import it by name even when another suite's ``conftest`` is loaded
in the same session.
"""

from chaoskit import critical_bisect

VERDICTS = []
_CRITICAL = {}


def record_verdict(line):
    VERDICTS.append(line)


def shared_critical_bisect(*args, estimator="variational"):
    """critical_bisect(*args, estimator=estimator), computed once per session
    for each set of arguments.  Callers must not modify the result."""
    key = (*args, estimator)
    if key not in _CRITICAL:
        _CRITICAL[key] = critical_bisect(*args, estimator=estimator)
    return _CRITICAL[key]
