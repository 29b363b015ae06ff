import sys

import pytest

from quadrica.brauer import add_classes, residue_profile
from quadrica.funfield import surface
from quadrica.poly import Poly, parse_poly

P2_VARS = ("x", "y", "z")
P1XP1_VARS = ("x0", "x1", "y0", "y1")

F_TEXT = "x^2+y^2+z^2-2*(x*y+x*z+y*z)"
H_TEXT = "x1^2*y0^2+x0^2*y1^2+x0^2*y0^2-2*(x1*y1*x0*y0+x1*x0*y0^2+y1*y0*x0^2)"


def clear_residue_memos():
    """Empty the pair-profile and Hensel memos, so the next certificate
    computes every residue and Hensel row again."""
    from quadrica.brauer import _pair_profile
    from quadrica.funfield import hensel_report
    _pair_profile.cache_clear()
    hensel_report.cache_clear()


def same_class(u, v, s):
    """Equality of Brauer classes on the rational model s: the unramified
    2-torsion Brauer group of P^2 and of P^1 x P^1 vanishes, so u = v
    exactly when u + v has an empty residue profile."""
    return residue_profile(add_classes(u, v), s).is_empty


@pytest.fixture(scope="session")
def p2():
    return surface("p2")


@pytest.fixture(scope="session")
def p1xp1():
    return surface("p1xp1")


@pytest.fixture(scope="session")
def xyz():
    return tuple(Poly.var(P2_VARS, v) for v in P2_VARS)


@pytest.fixture(scope="session")
def F():
    return parse_poly(F_TEXT, P2_VARS)


@pytest.fixture(scope="session")
def Fb(F):
    """The chart quadric F(x, y, 1)."""
    return F.substitute({"z": 1})


@pytest.fixture(scope="session")
def hpoly():
    return parse_poly(H_TEXT, P1XP1_VARS)


@pytest.fixture(scope="session")
def x4():
    return tuple(Poly.var(P1XP1_VARS, v) for v in P1XP1_VARS)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, *names) wraps each named function of the module
    in every quadrica namespace that binds it and returns the live dict of
    call counts."""
    counts = {}

    def install(module, *names):
        spaces = [m for k, m in list(sys.modules.items())
                  if k == "quadrica" or k.startswith("quadrica.")]
        for name in names:
            fn = getattr(module, name)
            counts[name] = 0

            def wrapped(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            for space in spaces:
                if getattr(space, name, None) is fn:
                    monkeypatch.setattr(space, name, wrapped)
        return counts
    return install
