"""The nine immutable records: frozen fields, equality and hashing by
field values, the prefix sums of ``EllipticSequence``, and an import of
the command line that loads neither ``dataclasses`` nor ``inspect``."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from singlab import (
    Cycle,
    Vertex,
    check_minus_one_chains,
    chi_nonnegative_check,
    classify_gorenstein_elliptic_ideals,
    elliptic_sequence,
    normal_hilbert_data,
    parse_graph,
    serialize_graph,
)
from singlab.corpus import fig2312
from singlab.verify import CheckResult

SRC = Path(__file__).resolve().parent.parent / "src"


def _report(g):
    return classify_gorenstein_elliptic_ideals(g, 2)


# record type -> (its field names, the record computed on a graph)
RECORDS = {
    "Vertex": (("id", "self_int", "genus"), lambda g: g.vertices[-1]),
    "ChiSweep": (("exhaustive", "checked", "min_chi", "witness"), chi_nonnegative_check),
    "MinusOneChainReport": (("minus_one_indices", "chain"),
                            lambda g: check_minus_one_chains(g, elliptic_sequence(g))),
    "EllipticSequence": (("graph", "supports", "cycles"), elliptic_sequence),
    "AfStructure": (("gamma", "beta", "af", "maximal"), lambda g: _report(g).af),
    "EllipticIdealClass": (("t", "cycle", "colength", "e0", "kz", "chi", "eb2", "q", "kind"),
                           lambda g: _report(g).ideals[0]),
    "ClassificationReport": (("af", "ideals", "zeta", "m", "p_g", "note"), _report),
    "HilbertData": (("e0bar", "e1bar", "e2bar", "q_sequence", "colengths", "br"),
                    lambda g: normal_hilbert_data(g, elliptic_sequence(g).partial_sum(0), 2, 1)),
    "CheckResult": (("name", "passed", "detail", "internal"),
                    lambda g: CheckResult("graph", True, serialize_graph(g))),
}


def _fresh_graph():
    """fig2312(2) parsed anew, so no object is shared between two calls."""
    return parse_graph(serialize_graph(fig2312(2)))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_fields_are_frozen(name):
    fields, make = RECORDS[name]
    record = make(_fresh_graph())
    assert type(record).__name__ == name
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_fields_give_equal_records_and_hashes(name):
    fields, make = RECORDS[name]
    first, second = make(_fresh_graph()), make(_fresh_graph())
    assert first is not second
    assert first == second and hash(first) == hash(second)
    rebuilt = type(first)(**{field: getattr(second, field) for field in fields})
    assert rebuilt == first and hash(rebuilt) == hash(first)


def test_record_defaults_and_inequality():
    assert Vertex("A", -2) == Vertex("A", -2, 0) != Vertex("A", -2, 1)
    assert CheckResult("c", False, "d").internal is False
    assert CheckResult("c", False, "d") != CheckResult("c", False, "d", internal=True)
    report = _report(fig2312(1))
    assert type(report)(report.af, report.ideals, report.zeta, report.m, report.p_g).note is None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_partial_and_tail_sums_are_explicit_sums(n):
    g = fig2312(n)
    seq = elliptic_sequence(g)
    zero = Cycle.zero(g)
    for t in range(-1, seq.m + 1):
        assert seq.partial_sum(t) == sum(seq.cycles[:t + 1], zero)
    for t in range(seq.m + 2):
        assert seq.tail_sum(t) == sum(seq.cycles[t:], zero)


def test_cli_import_loads_no_dataclasses_or_inspect():
    # -S keeps site (and whatever it imports) out, so only the program's
    # own imports are seen
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import singlab.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
