"""The package's records: immutable, compared by their fields, and light to
import.

Ten records are namedtuple subclasses with no instance dict; SNFResult is
a plain class whose == and hash leave out its operation logs.  Importing
the CLI loads none of dataclasses, inspect and typing.  Pencil's check of
its degrees is tested in test_fibration.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import starnet
from starnet.aomoto import (SNFResult, aomoto_complex, h2_torsion, os2_basis,
                            snf)
from starnet.arrangement import builtin
from starnet.field import trig_constants
from starnet.fibration import analyze, translated_component
from starnet.multinet import (builtin_pencil, check_multinet,
                              enumerate_multinets)

SRC = Path(starnet.__file__).parent.parent


def _double_star():
    A = builtin("double_star")
    rep = analyze(A, builtin_pencil("double_star"))
    return A, rep


def _b3_report():
    net = enumerate_multinets(builtin("b3"))[0]
    return check_multinet(net.arrangement, net.classes, net.mult)


def _h2():
    cx = aomoto_complex(builtin("double_star_affine"), [1] * 5 + [-1] * 5)
    return cx, h2_torsion(cx)


# record name -> (instance, the fields == and hash cover)
RECORDS = {
    "Multinet": (lambda: enumerate_multinets(builtin("b3"))[0],
                 "arrangement classes mult kappa base_locus n_x"),
    "MultinetReport": (_b3_report, "conditions multinet"),
    "Pencil": (lambda: builtin_pencil("b3"), "g1 g2 combos"),
    "FiberAnalysis": (lambda: _double_star()[1].fibers[0],
                      "lam arrangement_part residual mu root"),
    "FibrationReport": (lambda: _double_star()[1], "fibers hypotheses"),
    "V1Component": (lambda: translated_component(*_double_star()),
                    "rho_exponents t_exponents torsion_order dimension"),
    "OS2Basis": (lambda: os2_basis(builtin("double_star_affine")),
                 "points elements index"),
    "AomotoComplex": (lambda: _h2()[0], "omega d2 basis"),
    "SNFResult": (lambda: _h2()[1].snf, "divisors rank shape diagonal"),
    "H2Report": (lambda: _h2()[1],
                 "snf b2 h2_free_rank h2_torsion h1_rank"),
    "TrigConstants": (trig_constants, "sin_t cos_t sin_2t cos_2t ratio"),
}


def _rebuilt(rec, **changes):
    """A new record of rec's type from its fields, some of them changed."""
    if type(rec) is SNFResult:
        names = ("divisors", "rank", "shape", "diagonal", "row_ops",
                 "col_ops")
        return SNFResult(**{n: changes.get(n, getattr(rec, n))
                            for n in names})
    return rec._replace(**changes)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable_and_compared_by_their_fields(name):
    make, covered = RECORDS[name]
    rec = make()
    covered = covered.split()
    assert type(rec).__name__ == name
    for attr in covered + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(rec, attr, None)
    assert _rebuilt(rec) == rec
    for attr in covered:
        assert _rebuilt(rec, **{attr: object()}) != rec, attr
    key = tuple(getattr(rec, attr) for attr in covered)
    try:
        expected = hash(key)
    except TypeError:
        # a dict field makes the record unhashable, as it did before
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == expected == hash(_rebuilt(rec))
    if type(rec) is not SNFResult:
        # the one change from frozen dataclasses: a namedtuple record
        # iterates, indexes and equals the plain tuple of its values
        assert rec._fields == tuple(covered)
        assert tuple(rec) == key == rec and rec[0] is key[0]


def test_snf_equality_ignores_the_logs():
    M = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    res = snf(M)
    U, V = res.U, res.V
    UMV = [[sum(U[i][a] * M[a][b] * V[b][j] for a in range(3)
                for b in range(3)) for j in range(3)] for i in range(3)]
    assert UMV == [[d if i == j else 0 for j in range(3)]
                   for i, d in enumerate(res.diagonal)]
    other = _rebuilt(res, row_ops=(), col_ops=())
    assert other == res and hash(other) == hash(res)
    assert other.U != U


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import starnet.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} "
            "& set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True,
                         timeout=60)
    assert out.stdout.strip() == "[]"
