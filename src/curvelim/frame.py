"""Moving-frame formalism: the fixed symbol table, the registry of printed
equations, the derivation operators along the frame directions, and the
nondegeneracy assumptions.

Symbols (ASCII names for the frame quantities):

  H             mean curvature (the eliminated principal curvature is -2*H)
  R, c          scalar curvature and ambient curvature, constants
  lam2..lam4    remaining principal curvatures
  u2,u3,u4      connection coefficients w22_1, w33_1, w44_1
  v3,v4         w33_2, w44_2
  o223,o224,    w22_3, w22_4, w33_4, w44_3 (needed by the full curvature
  o334,o443     component equations and the direction-3/4 replays)
  w243,w342,    w24_3, w34_2, w43_2
  w432
  h1            the derivative of H along the distinguished direction e1
  K             product lam2*lam3*lam4 (tied by a defining relation)
  s             u2+u3+u4 (tied by a defining relation)
  d2v3, ...     opaque second-derivative symbols, e.g. d2v3 = e2(w33_2)
  d2_u2_1, ...  deterministic fresh symbols minted for underdetermined
                derivatives (e2(u2), e3(u3), e4(u4))

Weighted degrees (wt 1 for frame quantities, wt 2 for their first e1/e2
derivatives and the constants c, R, wt 3 for K) make every pipeline relation
weighted-homogeneous, which the ideal layer exploits for degree truncation.
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter
from typing import Callable, Dict, List, Sequence, Set, Tuple

from .exactpoly import Polynomial, PolyError, VarTable, parse_polynomial
from .ideal import SaturationRecord

ENGINE_VERSION = "0.1.0"

_SYMBOLS: List[Tuple[str, int, str]] = [
    ("H", 1, "mean curvature"),
    ("R", 2, "scalar curvature, constant"),
    ("c", 2, "ambient curvature constant"),
    ("lam2", 1, "principal curvature"),
    ("lam3", 1, "principal curvature"),
    ("lam4", 1, "principal curvature"),
    ("u2", 1, "connection coefficient w22_1"),
    ("u3", 1, "connection coefficient w33_1"),
    ("u4", 1, "connection coefficient w44_1"),
    ("v3", 1, "connection coefficient w33_2"),
    ("v4", 1, "connection coefficient w44_2"),
    ("o223", 1, "connection coefficient w22_3"),
    ("o224", 1, "connection coefficient w22_4"),
    ("o334", 1, "connection coefficient w33_4"),
    ("o443", 1, "connection coefficient w44_3"),
    ("w243", 1, "connection coefficient w24_3"),
    ("w342", 1, "connection coefficient w34_2"),
    ("w432", 1, "connection coefficient w43_2"),
    ("h1", 2, "derivative of H along e1"),
    ("K", 3, "product lam2*lam3*lam4"),
    ("s", 1, "sum u2+u3+u4"),
    ("d2v3", 2, "e2(w33_2), opaque"),
    ("d2v4", 2, "e2(w44_2), opaque"),
    ("d3o223", 2, "e3(w22_3), opaque"),
    ("d3o443", 2, "e3(w44_3), opaque"),
    ("d4o224", 2, "e4(w22_4), opaque"),
    ("d4o334", 2, "e4(w33_4), opaque"),
    ("d2_u2_1", 2, "fresh: e2(u2)"),
    ("d3_u3_1", 2, "fresh: e3(u3)"),
    ("d4_u4_1", 2, "fresh: e4(u4)"),
]


class SymbolTable:
    """The fixed pipeline variable table plus semantic annotations."""

    def __init__(self):
        names = [n for n, _, _ in _SYMBOLS]
        weights = [w for _, w, _ in _SYMBOLS]
        self.table = VarTable(names, weights)
        self.annotations = {n: a for n, _, a in _SYMBOLS}

    def poly(self, text: str) -> Polynomial:
        return parse_polynomial(text, self.table)

    def var(self, name: str) -> Polynomial:
        return Polynomial.var(self.table, name)


def load_paper_symbols() -> SymbolTable:
    """The fixed symbol table; deterministic (two loads compare equal)."""
    return SymbolTable()


# ---------------------------------------------------------------------------
# equation registry
# ---------------------------------------------------------------------------

class RegistryEntry(namedtuple("RegistryEntry", "eid text citation quote role note",
                               defaults=("",))):
    """One printed equation: ``text`` in exactpoly syntax (None for
    rule-identity entries) and ``role`` one of constraint |
    curvature-component | biharmonic | codazzi | derived | definition |
    rule-identity."""

    __slots__ = ()


_REGISTRY: List[RegistryEntry] = [
    RegistryEntry("eq_3_3", "lam2^2 + lam3^2 + lam4^2 - (12*c + 12*H^2 - R)",
                  "eq (3.3) with (3.2)", "R=12c+16H^2-B", "constraint"),
    RegistryEntry("eq_3_11", "lam2 + lam3 + lam4 - 6*H",
                  "eq (3.11)", "\\lambda_2+\\lambda_3+\\lambda_4=6H", "constraint"),
    RegistryEntry("K_def", "K - lam2*lam3*lam4",
                  "eq (3.62)", "where K=\\lambda_2\\lambda_3\\lambda_4", "definition"),
    RegistryEntry("s_def", "s - (u2 + u3 + u4)",
                  "eq (3.27)", "(\\omega_{22}^1+\\omega_{33}^1+\\omega_{44}^1)e_1(H)", "definition"),
    RegistryEntry("eq_3_24",
                  "-(d2v3) - d3o223 + o224*o334 + o223^2 + v3^2 + u2*u3"
                  " - w243*w342 - w243*w432 + w342*w432 + c + lam2*lam3",
                  "eq (3.24)",
                  "-e_2(\\omega_{33}^2)-e_3(\\omega_{22}^3)+\\omega_{22}^4\\omega_{33}^4"
                  "+(\\omega_{22}^3)^2+(\\omega_{33}^2)^2+\\omega_{22}^1\\omega_{33}^1"
                  "-\\omega_{24}^3\\omega_{34}^2-\\omega_{24}^3\\omega_{43}^2"
                  "+\\omega_{34}^2\\omega_{43}^2=-(c+\\lambda_2\\lambda_3)",
                  "curvature-component"),
    RegistryEntry("eq_3_25",
                  "-(d4o224) - d2v4 + o223*o443 + o224^2 + v4^2 + u2*u4"
                  " + w243*w342 + w243*w432 + w342*w432 + c + lam2*lam4",
                  "eq (3.25)",
                  "-e_4(\\omega_{22}^4)-e_2(\\omega_{44}^2)+\\omega_{22}^3\\omega_{44}^3"
                  "+(\\omega_{22}^4)^2+(\\omega_{44}^2)^2+\\omega_{22}^1\\omega_{44}^1"
                  "+\\omega_{24}^3\\omega_{34}^2+\\omega_{24}^3\\omega_{43}^2"
                  "+\\omega_{34}^2\\omega_{43}^2=-(c+\\lambda_2\\lambda_4)",
                  "curvature-component"),
    RegistryEntry("eq_3_26",
                  "-(d3o443) - d4o334 + v3*v4 + o334^2 + o443^2 + u3*u4"
                  " + w243*w342 - w243*w432 - w342*w432 + c + lam3*lam4",
                  "eq (3.26)",
                  "-e_3(\\omega_{44}^3)-e_4(\\omega_{33}^4)+\\omega_{33}^2\\omega_{44}^2"
                  "+(\\omega_{33}^4)^2+(\\omega_{44}^3)^2+\\omega_{33}^1\\omega_{44}^1"
                  "+\\omega_{24}^3\\omega_{34}^2-\\omega_{24}^3\\omega_{43}^2"
                  "-\\omega_{34}^2\\omega_{43}^2=-(c+\\lambda_3\\lambda_4)",
                  "curvature-component"),
    RegistryEntry("eq_3_29", "d2_u2_1 + (u3 - u2)*v3 + (u4 - u2)*v4",
                  "eq (3.29)", "e_2(\\omega_{22}^1+\\omega_{33}^1+\\omega_{44}^1)=0",
                  "constraint",
                  "stored as the e2-image of u2+u3+u4 with the minted symbol d2_u2_1;"
                  " the source derivation implicitly commutes e_2 past e_1e_1(H)"),
    RegistryEntry("eq_3_46", "w243*w342 - w243*w432 + w342*w432",
                  "eq (3.46)",
                  "\\omega_{24}^3\\omega_{34}^2=\\omega_{24}^3\\omega_{43}^2"
                  "-\\omega_{34}^2\\omega_{43}^2", "codazzi"),
    RegistryEntry("eq_3_47", "(lam3 - lam4)*w243 - (lam2 - lam4)*w342",
                  "eq (3.47)",
                  "(\\lambda_3-\\lambda_4)\\omega_{24}^3=(\\lambda_2-\\lambda_4)\\omega_{34}^2",
                  "codazzi"),
    # -- derived match targets -------------------------------------------------
    RegistryEntry("eq_3_30",
                  "(-2*H - lam2)*u2 + (-2*H - lam3)*u3 + (-2*H - lam4)*u4 + 6*h1",
                  "eq (3.30)",
                  "(\\lambda_1-\\lambda_2)\\omega_{22}^1+(\\lambda_1-\\lambda_3)\\omega_{33}^1"
                  "+(\\lambda_1-\\lambda_4)\\omega_{44}^1=-6e_1(H)", "derived"),
    RegistryEntry("eq_3_33",
                  "(lam2 - lam3)*(u2 - u3)*v3 + (lam2 - lam4)*(u2 - u4)*v4",
                  "eq (3.33)",
                  "(\\lambda_2-\\lambda_3)(\\omega_{22}^1-\\omega_{33}^1)\\omega_{33}^2"
                  "+(\\lambda_2-\\lambda_4)(\\omega_{22}^1-\\omega_{44}^1)\\omega_{44}^2=0",
                  "derived"),
    RegistryEntry("eq_3_34",
                  "(lam2 - lam3)^2*v3 + (lam2 - lam4)^2*v4",
                  "eq (3.34)",
                  "(\\lambda_2-\\lambda_3)^2\\omega_{33}^2+(\\lambda_2-\\lambda_4)^2\\omega_{44}^2=0",
                  "derived"),
    RegistryEntry("eq_3_35",
                  "(lam2 - lam3)*(2*(-2*H - lam2)*u2 - (-4*H + lam2 - 3*lam3)*u3)*v3"
                  " + (lam2 - lam4)*(2*(-2*H - lam2)*u2 - (-4*H + lam2 - 3*lam4)*u4)*v4",
                  "eq (3.35)",
                  "(\\lambda_2-\\lambda_3)[2(\\lambda_1-\\lambda_2)\\omega_{22}^1"
                  "-(2\\lambda_1+\\lambda_2-3\\lambda_3)\\omega_{33}^1]\\omega_{33}^2+...=0",
                  "derived"),
    RegistryEntry("eq_3_36",
                  "(lam3 - lam4)*u2 - (lam2 - lam4)*u3 + (lam2 - lam3)*u4",
                  "eq (3.36)",
                  "(\\lambda_3-\\lambda_4)\\omega_{22}^1-(\\lambda_2-\\lambda_4)\\omega_{33}^1"
                  "+(\\lambda_2-\\lambda_3)\\omega_{44}^1=0", "derived"),
    RegistryEntry("eq_3_37",
                  "2*(-2*H - lam2)*(lam3 - lam4)*u2 - (lam2 - lam4)*(-4*H + lam2 - 3*lam3)*u3"
                  " + (lam2 - lam3)*(-4*H + lam2 - 3*lam4)*u4",
                  "eq (3.37)",
                  "2(\\lambda_1-\\lambda_2)(\\lambda_3-\\lambda_4)\\omega_{22}^1"
                  "-(\\lambda_2-\\lambda_4)(2\\lambda_1+\\lambda_2-3\\lambda_3)\\omega_{33}^1"
                  "+(\\lambda_2-\\lambda_3)(2\\lambda_1+\\lambda_2-3\\lambda_4)\\omega_{44}^1=0",
                  "derived"),
    RegistryEntry("disp_3_38",
                  "3*(lam2 - lam3)*(lam2 - lam4)*(u3 - u4)",
                  "display before eq (3.38)",
                  "3(\\lambda_2-\\lambda_3)(\\lambda_2-\\lambda_4)"
                  "(\\omega_{33}^1-\\omega_{44}^1)=0", "derived"),
    RegistryEntry("eq_3_38", "u3 - u4", "eq (3.38)",
                  "\\omega_{33}^1=\\omega_{44}^1", "derived"),
    RegistryEntry("eq_3_39", "u2 - u3", "eq (3.39)",
                  "\\omega_{22}^1=\\omega_{33}^1", "derived"),
    RegistryEntry("eq_3_40",
                  "(-2*H - lam2)*(2*lam2 - lam3 - lam4)*u2"
                  " - (-2*H - lam3)*(lam2 - 2*lam3 + lam4)*u3"
                  " - (-2*H - lam4)*(lam2 + lam3 - 2*lam4)*u4",
                  "eq (3.40)",
                  "(\\lambda_1-\\lambda_2)(2\\lambda_2-\\lambda_3-\\lambda_4)\\omega_{22}^1"
                  "-(\\lambda_1-\\lambda_3)(\\lambda_2-2\\lambda_3+\\lambda_4)\\omega_{33}^1"
                  "-(\\lambda_1-\\lambda_4)(\\lambda_2+\\lambda_3-2\\lambda_4)\\omega_{44}^1=0",
                  "derived"),
    RegistryEntry("eq_3_41",
                  "((lam2 - lam3)^2 + (lam2 - lam4)^2 + (lam3 - lam4)^2)*u2",
                  "eq (3.41)",
                  "[(\\lambda_2-\\lambda_3)^2+(\\lambda_2-\\lambda_4)^2"
                  "+(\\lambda_3-\\lambda_4)^2]\\omega_{22}^1=0", "derived"),
    RegistryEntry("eq_3_42a", "u2", "eq (3.42)",
                  "\\omega_{22}^1=\\omega_{33}^1=\\omega_{44}^1=0", "derived"),
    RegistryEntry("eq_3_42b", "u3", "eq (3.42)",
                  "\\omega_{22}^1=\\omega_{33}^1=\\omega_{44}^1=0", "derived"),
    RegistryEntry("eq_3_42c", "u4", "eq (3.42)",
                  "\\omega_{22}^1=\\omega_{33}^1=\\omega_{44}^1=0", "derived"),
    RegistryEntry("eq_3_43",
                  "u2*u3 - w243*w342 - w243*w432 + w342*w432 + c + lam2*lam3",
                  "eq (3.43)",
                  "\\omega_{22}^1\\omega_{33}^1-\\omega_{24}^3\\omega_{34}^2"
                  "-\\omega_{24}^3\\omega_{43}^2+\\omega_{34}^2\\omega_{43}^2"
                  "=-(c+\\lambda_2\\lambda_3)", "derived"),
    RegistryEntry("eq_3_44",
                  "u2*u4 + w243*w342 + w243*w432 + w342*w432 + c + lam2*lam4",
                  "eq (3.44)",
                  "\\omega_{22}^1\\omega_{44}^1+\\omega_{24}^3\\omega_{34}^2"
                  "+\\omega_{24}^3\\omega_{43}^2+\\omega_{34}^2\\omega_{43}^2"
                  "=-(c+\\lambda_2\\lambda_4)", "derived"),
    RegistryEntry("eq_3_45",
                  "u3*u4 + w243*w342 - w243*w432 - w342*w432 + c + lam3*lam4",
                  "eq (3.45)",
                  "\\omega_{33}^1\\omega_{44}^1+\\omega_{24}^3\\omega_{34}^2"
                  "-\\omega_{24}^3\\omega_{43}^2-\\omega_{34}^2\\omega_{43}^2"
                  "=-(c+\\lambda_3\\lambda_4)", "derived"),
    RegistryEntry("eq_3_48",
                  "2*u2*u3 + 2*u2*u4 + 2*u3*u4 + 24*H^2 - 6*c + R",
                  "eq (3.48)",
                  "\\omega_{22}^1\\omega_{33}^1+\\omega_{22}^1\\omega_{44}^1"
                  "+\\omega_{33}^1\\omega_{44}^1=-12H^2+3c-\\frac{1}{2}R", "derived",
                  "stored doubled (integer content-free form)"),
    RegistryEntry("eq_3_49",
                  "lam4*u2*u3 + lam3*u2*u4 + lam2*u3*u4 + 6*c*H + 3*lam2*lam3*lam4",
                  "eq (3.49)",
                  "\\lambda_3\\omega_{22}^1\\omega_{44}^1+\\lambda_2\\omega_{33}^1\\omega_{44}^1"
                  "+\\lambda_4\\omega_{22}^1\\omega_{33}^1=-6cH-3\\lambda_2\\lambda_3\\lambda_4",
                  "derived"),
    RegistryEntry("eq_3_50", None, "eq (3.50)",
                  "e_1e_1(\\lambda_2)+\\omega_{22}^1e_1(\\lambda_1)"
                  "+2(\\lambda_1-\\lambda_2)(\\omega_{22}^1)^2"
                  "+(\\lambda_1-\\lambda_2)(\\lambda_1\\lambda_2+c)=0", "rule-identity"),
    RegistryEntry("eq_3_51", None, "eq (3.51)",
                  "e_1e_1(\\lambda_3)+\\omega_{33}^1e_1(\\lambda_1)"
                  "+2(\\lambda_1-\\lambda_3)(\\omega_{33}^1)^2"
                  "+(\\lambda_1-\\lambda_3)(\\lambda_1\\lambda_3+c)=0", "rule-identity"),
    RegistryEntry("eq_3_52", None, "eq (3.52)",
                  "e_1e_1(\\lambda_4)+\\omega_{44}^1e_1(\\lambda_1)"
                  "+2(\\lambda_1-\\lambda_4)(\\omega_{44}^1)^2"
                  "+(\\lambda_1-\\lambda_4)(\\lambda_1\\lambda_4+c)=0", "rule-identity"),
    RegistryEntry("eq_3_53",
                  "4*s*h1 + 48*H^3 - 66*c*H + 9*R*H - 3*K",
                  "eq (3.53)",
                  "4(\\omega_{22}^1+\\omega_{33}^1+\\omega_{44}^1)e_1(H)"
                  "+48H^3-66cH+9RH-3\\lambda_2\\lambda_3\\lambda_4=0", "derived"),
    RegistryEntry("eq_3_54",
                  "4*(s*h1 + H*(8*c + 16*H^2 - R)) - (16*H^3 + 98*c*H - 13*R*H + 3*K)",
                  "eq (3.54)",
                  "4e_1e_1(H)-16H^3-98cH+13RH-3\\lambda_2\\lambda_3\\lambda_4=0", "derived",
                  "e_1e_1(H) spelled through the biharmonic rule; the ring polynomial"
                  " coincides with eq (3.53)"),
    RegistryEntry("eq_3_55",
                  "(lam2^2 - 4*H^2)*u2 + (lam3^2 - 4*H^2)*u3 + (lam4^2 - 4*H^2)*u4",
                  "eq (3.55)",
                  "(\\lambda_2^2-4H^2)\\omega_{22}^1+(\\lambda_3^2-4H^2)\\omega_{33}^1"
                  "+(\\lambda_4^2-4H^2)\\omega_{44}^1=0", "derived"),
    RegistryEntry("eq_3_56",
                  "2*lam3*lam4 - (R - 12*c + 24*H^2 - 12*H*lam2 + 2*lam2^2)",
                  "eq (3.56)",
                  "\\lambda_3\\lambda_4=\\frac{1}{2}R-6c+12H^2-6H\\lambda_2+\\lambda_2^2",
                  "derived", "stored doubled (integer content-free form)"),
    RegistryEntry("eq_3_57",
                  "2*lam2*lam4 - (R - 12*c + 24*H^2 - 12*H*lam3 + 2*lam3^2)",
                  "eq (3.57)",
                  "\\lambda_2\\lambda_4=\\frac{1}{2}R-6c+12H^2-6H\\lambda_3+\\lambda_3^2",
                  "derived", "stored doubled (integer content-free form)"),
    RegistryEntry("eq_3_58",
                  "2*lam2*lam3 - (R - 12*c + 24*H^2 - 12*H*lam4 + 2*lam4^2)",
                  "eq (3.58)",
                  "\\lambda_3\\lambda_4=\\frac{1}{2}R-6c+12H^2-6H\\lambda_4+\\lambda_4^2",
                  "derived",
                  "suspected typo in the printed left side (\\lambda_3\\lambda_4);"
                  " stored with the symmetry-consistent \\lambda_2\\lambda_3"),
    RegistryEntry("eq_3_59",
                  "lam3*lam4*(lam2 + 2*H)*u2 + lam2*lam4*(lam3 + 2*H)*u3"
                  " + lam2*lam3*(lam4 + 2*H)*u4"
                  " - ((56*H^3 + R*H - 12*c*H + K)*s - 72*H^2*h1)",
                  "eq (3.59)",
                  "e_1(\\lambda_2\\lambda_3\\lambda_4)=(56H^3+RH-12cH"
                  "+\\lambda_2\\lambda_3\\lambda_4)(\\omega_{22}^1+\\omega_{33}^1"
                  "+\\omega_{44}^1)-72H^2e_1(H)", "derived"),
    RegistryEntry("eq_3_60",
                  "(200*H^3 + 25*R*H - 200*c*H - 3*K)*s - (160*H^2 + 13*R - 78*c)*h1",
                  "eq (3.60)",
                  "(200H^3+25RH-200cH-3\\lambda_2\\lambda_3\\lambda_4)"
                  "(\\omega_{22}^1+\\omega_{33}^1+\\omega_{44}^1)=(160H^2+13R-78c)e_1(H)",
                  "derived"),
    RegistryEntry("eq_3_61",
                  "4*h1^2*(160*H^2 + 13*R - 78*c)"
                  " + (48*H^3 - 66*c*H + 9*R*H - 3*K)*(200*H^3 + 25*R*H - 200*c*H - 3*K)",
                  "eq (3.61)",
                  "4(e_1(H))^2(160H^2+13R-78c)=-(48H^3-66cH+9RH"
                  "-3\\lambda_2\\lambda_3\\lambda_4)(200H^3+25RH-200cH"
                  "-3\\lambda_2\\lambda_3\\lambda_4)", "derived"),
    RegistryEntry("eq_3_62",
                  "2040217600*H^10 + (659304960*R - 4882549760*c)*H^8"
                  " + (3730891264*c^2 - 1021023488*c*R + 69428224*R^2)*H^6"
                  " + (-987669696*c^3 - 55470688*c*R^2 + 407658368*c^2*R + 2493816*R^3)*H^4"
                  " + (115086816*c^4 - 55092024*c^3*R + 9593272*c^2*R^2 - 716326*c*R^3"
                  " + 19162*R^4)*H^2"
                  " - 74403840*H^7*K + (105242112*c - 15432192*R)*H^5*K"
                  " + (-927984*R^2 + 12200976*c*R - 38310432*c^2)*H^3*K"
                  " + (11289096*c^3 - 4544436*c^2*R + 602004*c*R^2 - 26364*R^3)*H*K"
                  " + 403200*H^4*K^2 + (133488*c + 16632*R)*H^2*K^2 + 8640*H*K^3"
                  " + (186732*c^2 - 54990*R*c + 3978*R^2)*K^2",
                  "eq (3.62)",
                  "2040217600H^{10}+... +(186732c^2-54990Rc+3978R^2)K^2=0",
                  "derived"),
    RegistryEntry("eq_3_64",
                  "(lam3*lam4*(lam2 + 2*H)*u2 + lam2*lam4*(lam3 + 2*H)*u3"
                  " + lam2*lam3*(lam4 + 2*H)*u4)*(200*H^3 + 25*R*H - 200*c*H - 3*K)"
                  " - h1*((56*H^3 + R*H - 12*c*H + K)*(160*H^2 + 13*R - 78*c)"
                  " - 72*H^2*(200*H^3 + 25*R*H - 200*c*H - 3*K))",
                  "eq (3.64)",
                  "e_1(K)/e_1(H)=(56H^3+RH-12cH+K)(160H^2+13R-78c)"
                  "/(200H^3+25RH-200cH-3K)-72H^2 (cross-multiplied)", "derived"),
    RegistryEntry("eq_3_65", None, "eq (3.65)",
                  "\\sum_{i=0}^4 q_i(H)K^i=0", "derived",
                  "the q_i are never printed; the engine archives its own"
                  " construction from (3.62) via (3.63)-(3.64)"),
]


class EquationRegistry:
    """Maps equation ids to their canonical polynomials (parsed once)."""

    def __init__(self, symbols: SymbolTable):
        self.symbols = symbols
        self.entries: Dict[str, RegistryEntry] = {e.eid: e for e in _REGISTRY}
        self._cache: Dict[str, Polynomial] = {}

    def __contains__(self, eid: str) -> bool:
        return eid in self.entries

    def entry(self, eid: str) -> RegistryEntry:
        if eid not in self.entries:
            raise PolyError(f"unknown registry id {eid!r}")
        return self.entries[eid]

    def poly(self, eid: str) -> Polynomial:
        if eid not in self._cache:
            entry = self.entry(eid)
            if entry.text is None:
                raise PolyError(f"registry id {eid!r} has no stored polynomial")
            p = parse_polynomial(entry.text, self.symbols.table)
            if p.is_zero():
                raise PolyError(f"registry polynomial {eid!r} is zero")
            self._cache[eid] = p
        return self._cache[eid]

    def ids(self) -> List[str]:
        return [e.eid for e in _REGISTRY]


class Axiom(namedtuple("Axiom", "aid poly citation quote role")):
    """A vanishing polynomial taken as input, with its citation and quote."""

    __slots__ = ()

    def __new__(cls, aid: str, poly: Polynomial, citation: str, quote: str, role: str):
        if poly.is_zero():
            raise PolyError(f"axiom {aid!r} is the zero polynomial")
        if not citation or not quote:
            raise PolyError(f"axiom {aid!r} misses citation or quote")
        return super().__new__(cls, aid, poly, citation, quote, role)


# the printed equations the replay assumes: constraints, curvature components, definitions
PAPER_AXIOM_IDS = ["eq_3_3", "eq_3_11", "K_def", "s_def", "eq_3_24", "eq_3_25",
                   "eq_3_26", "eq_3_29", "eq_3_46", "eq_3_47"]


def load_paper_axioms(symbols: SymbolTable) -> List[Axiom]:
    """The axioms ``PAPER_AXIOM_IDS``, each parsed with its citation and
    quote.  Derivative-shaped inputs ((3.17)-(3.23), (3.27),
    (3.28), (3.4)) live in the rule tables; the linear Codazzi system
    (3.6)-(3.9) lives in the dedicated first stage."""
    reg = EquationRegistry(symbols)
    out = []
    for aid in PAPER_AXIOM_IDS:
        e = reg.entry(aid)
        out.append(Axiom(aid, reg.poly(aid), e.citation, e.quote, e.role))
    return out


# ---------------------------------------------------------------------------
# index permutations (for the e3/e4 replays)
# ---------------------------------------------------------------------------

PERM_2_3 = {
    "lam2": "lam3", "lam3": "lam2",
    "u2": "u3", "u3": "u2",
    "v3": "o223", "o223": "v3",
    "v4": "o443", "o443": "v4",
    "d2_u2_1": "d3_u3_1", "d3_u3_1": "d2_u2_1",
    "d2v3": "d3o223", "d3o223": "d2v3",
    "d2v4": "d3o443", "d3o443": "d2v4",
}

PERM_2_4 = {
    "lam2": "lam4", "lam4": "lam2",
    "u2": "u4", "u4": "u2",
    "v3": "o334", "o334": "v3",
    "v4": "o224", "o224": "v4",
    "d2_u2_1": "d4_u4_1", "d4_u4_1": "d2_u2_1",
    "d2v3": "d4o334", "d4o334": "d2v3",
    "d2v4": "d4o224", "d4o224": "d2v4",
}


def permute_polynomial(p: Polynomial, mapping: Dict[str, str]) -> Polynomial:
    """Rename variables by the index permutation ``mapping``, a variable it
    does not name staying put; ValueError unless ``mapping`` is a bijection
    of the table's variables.  Each term is permuted by one ``itemgetter``
    call: field j of the image is the exponent of the variable mapped to j."""
    table = p.table
    image = [mapping.get(name, name) for name in table.names]
    if not mapping.keys() <= table.index.keys() or set(image) != table.index.keys():
        raise ValueError(f"{mapping!r} is not a permutation of the table's variables")
    if len(image) < 2:  # the identity is the only permutation
        return p
    source = [0] * len(image)
    for i, name in enumerate(image):
        source[table.index[name]] = i
    get = itemgetter(*source)
    return Polynomial(table, {get(m): coef for m, coef in p.terms.items()})


# the frame directions e2, e3, e4, each as the index permutation that carries
# the e2 replay to it
DIRECTIONS: Dict[int, Dict[str, str]] = {2: {}, 3: PERM_2_3, 4: PERM_2_4}


def transverse_pair(perm: Dict[str, str]) -> List[str]:
    """A direction's transverse coefficients, the images of v3 and v4, by name."""
    return sorted(perm.get(v, v) for v in ("v3", "v4"))


def permuted_saturation_ids(records: Sequence[SaturationRecord],
                            perm: Dict[str, str]) -> Dict[str, str]:
    """Where ``perm`` carries each saturation id: to the record whose
    multiplier is +- the permuted multiplier."""
    def sid_of(image: Polynomial) -> str:
        signed = (image, -image)
        return next(r.sid for r in records if r.multiplier in signed)

    return {r.sid: sid_of(permute_polynomial(r.multiplier, perm)) for r in records}


def curvature_difference_records(mk: Callable[[str], Polynomial]) -> List[SaturationRecord]:
    """The pairwise differences of the principal curvatures (with lam1 = -2H),
    parsed by ``mk`` over the caller's table."""
    diffs = [(f"lam{i}_m_lam1", f"lam{i} + 2*H") for i in (2, 3, 4)]
    diffs += [(f"lam{i}_m_lam{j}", f"lam{i} - lam{j}") for i, j in ((2, 3), (2, 4), (3, 4))]
    return [SaturationRecord(sid, mk(text), "principal curvatures mutually distinct")
            for sid, text in diffs]


def nondegeneracy_records(symbols: SymbolTable) -> List[SaturationRecord]:
    """The quantities the source derivation divides by: pairwise differences of the
    principal curvatures (with lam1 = -2H), e_1(H), the sum of squared
    differences (nonzero since the curvatures are mutually distinct reals), and
    each direction's transverse coefficients, nonzero as branch hypotheses."""
    mk = symbols.poly
    # an annotation ends with the frame name, e.g. "connection coefficient w33_2"
    branches = [SaturationRecord(f"{x}_nonzero", mk(x),
                                 f"branch hypothesis: {symbols.annotations[x].split()[-1]} != 0")
                for perm in DIRECTIONS.values() for x in transverse_pair(perm)]
    return curvature_difference_records(mk) + [
        SaturationRecord("h1_nonzero", mk("h1"), "e_1(H) != 0"),
        SaturationRecord("sos_distinct",
                         mk("(lam2 - lam3)^2 + (lam2 - lam4)^2 + (lam3 - lam4)^2"),
                         "sum of squares of differences of mutually distinct reals"),
    ] + branches


# ---------------------------------------------------------------------------
# derivation rule tables
# ---------------------------------------------------------------------------

class Fresh(namedtuple("Fresh", "symbol")):
    """Marker for an underdetermined derivative: a fixed opaque symbol is used."""

    __slots__ = ()


class DerivationRuleTable:
    """A derivation operator given by per-symbol images, Leibniz-extended.

    Missing symbols have no derivative rule; applying the operator to a
    polynomial containing one is a structural error (the replay never needs
    those derivatives).
    """

    def __init__(self, name: str, symbols: SymbolTable, rules: Dict[str, object]):
        self.name = name
        self.symbols = symbols
        self.rules: Dict[str, object] = {}
        for sym, img in rules.items():
            if sym not in symbols.table:
                raise PolyError(f"rule for unknown symbol {sym!r}")
            if isinstance(img, Fresh):
                if img.symbol not in symbols.table:
                    raise PolyError(f"fresh symbol {img.symbol!r} not in table")
                self.rules[sym] = img
            elif isinstance(img, str):
                self.rules[sym] = symbols.poly(img)
            else:
                self.rules[sym] = img

    def image_of(self, sym: str) -> Polynomial:
        img = self.rules[sym]
        if isinstance(img, Fresh):
            return self.symbols.var(img.symbol)
        return img

    def apply(self, p: Polynomial) -> Tuple[Polynomial, Set[str]]:
        """Leibniz extension: sum over symbols of d(p)/d(sym) * image(sym).
        Returns the image and the set of fresh symbols that the image uses."""
        fresh: Set[str] = set()
        out = Polynomial.zero(p.table)
        for sym in sorted(p.variables()):
            rule = self.rules.get(sym)
            if rule is None:
                raise PolyError(f"{self.name} has no rule for symbol {sym!r}")
            if isinstance(rule, Fresh):
                img = self.symbols.var(rule.symbol)
                fresh.add(rule.symbol)
            else:
                img = rule
            if img.is_zero():
                continue
            out = out + p.partial(sym) * img
        return out, fresh

    def permuted(self, name: str, perm: Dict[str, str]) -> "DerivationRuleTable":
        """The operator conjugated by the index permutation ``perm``: the rule
        for perm(x) is the permuted rule for x, a fresh symbol permuted too."""
        def image(img):
            if isinstance(img, Fresh):
                return Fresh(perm.get(img.symbol, img.symbol))
            return permute_polynomial(img, perm)

        return DerivationRuleTable(name, self.symbols, {
            perm.get(sym, sym): image(img) for sym, img in self.rules.items()})


def load_rule_tables(symbols: SymbolTable) -> Dict[str, DerivationRuleTable]:
    """The four derivation operators: D1 along e1 and D2/D3/D4 along e2/e3/e4
    (D3, D4 as D2 conjugated by each direction's index permutation, as the
    closing symmetry argument of the second lemma requires: "with some similar
    discussions").  The rows of the defined symbols K and s are computed:
    for a definition x - f in the registry, the row of x is the Leibniz
    image of f.  So are D1's rows of the direction-3/4 transverse
    coefficients: the row of perm(v) is the permuted row of v, for v3, v4
    and each direction's permutation."""
    # eqs (3.7), (3.17)-(3.21), (3.27); constants: R constant hypothesis
    d1 = DerivationRuleTable("D1", symbols, {
        "c": "0", "R": "0",
        "H": "h1",
        "lam2": "(lam2 + 2*H)*u2",
        "lam3": "(lam3 + 2*H)*u3",
        "lam4": "(lam4 + 2*H)*u4",
        "u2": "u2^2 - 2*H*lam2 + c",
        "u3": "u3^2 - 2*H*lam3 + c",
        "u4": "u4^2 - 2*H*lam4 + c",
        "v3": "u3*v3",
        "v4": "u4*v4",
        "h1": "(u2 + u3 + u4)*h1 + H*(8*c + 16*H^2 - R)",
    })
    # eqs (3.4), (3.7), (3.11), (3.22)-(3.23), (3.28)
    d2 = DerivationRuleTable("D2", symbols, {
        "c": "0", "R": "0",
        "H": "0",
        "h1": "0",
        "lam3": "-(lam2 - lam3)*v3",
        "lam4": "-(lam2 - lam4)*v4",
        "lam2": "(lam2 - lam3)*v3 + (lam2 - lam4)*v4",
        "u3": "(u3 - u2)*v3",
        "u4": "(u4 - u2)*v4",
        "u2": Fresh("d2_u2_1"),
        "v3": Fresh("d2v3"),
        "v4": Fresh("d2v4"),
    })
    for perm in DIRECTIONS.values():
        for v in ("v3", "v4"):
            if v in perm:
                d1.rules[perm[v]] = permute_polynomial(d1.rules[v], perm)
    registry = EquationRegistry(symbols)
    for table in (d1, d2):
        for sym, eid in (("K", "K_def"), ("s", "s_def")):
            table.rules[sym] = table.apply(symbols.var(sym) - registry.poly(eid))[0]
    return {"D1": d1, "D2": d2, **{f"D{k}": d2.permuted(f"D{k}", perm)
                                   for k, perm in DIRECTIONS.items() if perm}}
