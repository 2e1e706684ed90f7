"""CSV and JSON emission for solver results; every output file is written
here.

Numbers are serialized with 17 significant digits, as `format(x, ".17g")`
writes them, so parsing a CSV back reproduces the in-memory doubles bit for
bit.

`surface.csv` is formatted a block of levels at a time by `_g17_fields`, an
array kernel that gives the bytes of `format(x, ".17g")` for every double:

- Digits. With e = floor(log10 x) and p = 16 - e, the digits are
  D = round-half-even(x * 10**p). 10**p is held as H + L, two doubles
  built from exact integers on first use, within 2**-105 * 10**p. x * H
  is formed exactly as prod + err by Dekker's two-product on a Veltkamp
  split (Dekker 1971), since numpy has no fused multiply-add. From 2**53 up
  prod is an integer, so with t = err + x * L the integer part of the
  product is prod + floor(t) and its fraction t - floor(t), together within
  1e-14 of the exact x * 10**p.
- Certification. A value is certified when the fraction is not within 1e-6
  of 1/2 and the rounded D lies in [1e16, 1e17). No half-integer then lies
  between the computed and the exact product, so both round to the same D,
  and D has the 17 digits that `format` prints.
- Fallback. `format` itself writes every value outside 1e-280 <= x < 10:
  negatives, +-0, nan, +-inf, subnormals, x >= 10. So do near-ties, values
  whose log10 exponent is off by one (next to powers of ten), and a
  round-up to 10**17. A `run_solver` surface at M=400 holds no negative
  value; its 2672 zeros of 200,901 values and one more fall back.
- Layout. Below 10 there are two, with trailing zeros stripped.
  Scientific notation (e < -4, or e = 0 with no
  exponent) is the first digit, a point when a later digit is nonzero, and
  an exponent of at least two digits. Fixed notation below 1 (-4 <= e < 0)
  is "0.", -e - 1 zeros and the digits. A field is 32 bytes with NUL
  padding, a row is the level and node prefix and the v and V fields, and
  a block's bytes are its rows with the NULs dropped, since no CSV byte is
  NUL.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .analysis import Lemma1Report, StudyRow
from .scheme import SolverRun, price_at

__all__ = [
    "fmt",
    "write_json",
    "write_rows",
    "emit_boundary_csv",
    "emit_surface_csv",
    "emit_study_csv",
    "emit_summary",
]

_CHUNK_VALUES = 4096  # surface values formatted per block of levels
_WORD = np.dtype("<u8")  # a field is four little-endian words
_P_MIN, _P_MAX = 15, 297  # 10**p is tabulated; |x| in [1e-280, 10) needs 16..297
_E_MIN, _E_MAX = 16 - _P_MAX, 16 - _P_MIN  # the decimal exponents e = 16 - p
_VELTKAMP = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves
_COMMA = np.uint64(ord(",")) << np.uint64(56)  # the last byte of a word
_NEWLINE = np.uint64(ord("\n")) << np.uint64(56)


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_json(path: Path, payload: dict) -> None:
    """payload as indented JSON with sorted keys and a final newline."""
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_rows(path: Path, header: str, rows) -> None:
    """A CSV of the header line and one line per row of formatted fields."""
    lines = [header]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def emit_boundary_csv(run: SolverRun, path: Path) -> None:
    """Columns: n, tau, xf, Xstar (= E*xf); one row per time level."""
    E = run.params.E
    rows = (
        (str(n), fmt(n * run.grid.dtau), fmt(xf), fmt(E * xf))
        for n, xf in enumerate(run.surface.xf)
    )
    write_rows(path, "n,tau,xf,Xstar", rows)


@functools.cache
def _g17_tables():
    """The kernel's lookup tables, built when the first surface is written."""
    # 10**p as H + L: H is 10**p rounded to a double, L the rounded rest
    exact = [10**p for p in range(_P_MIN, _P_MAX + 1)]
    H = np.array([float(n) for n in exact])
    L = np.array([float(n - int(float(n))) for n in exact])
    c = _VELTKAMP * H
    H_hi = c - (c - H)
    powers = (H, H_hi, H - H_hi, L)

    # the word of each four-digit group '0000'..'9999', then the same words
    # with trailing zeros as NUL
    g = np.arange(10000)
    quads = np.zeros(20000, np.uint64)
    for i in range(4):
        char = (48 + g // 10 ** (3 - i) % 10).astype(np.uint64) << np.uint64(8 * i)
        quads[:10000] |= char
        quads[10000:] |= np.where(g % 10 ** (4 - i) == 0, 0, char).astype(np.uint64)

    # per decimal exponent: the head ("0." and the zeros of fixed notation
    # below 1), the point after the first digit (none below 1), and the
    # exponent of scientific notation
    es = range(_E_MIN, _E_MAX + 1)
    below_one = ["0." + "0" * (-e - 1) if -4 <= e < 0 else "" for e in es]
    heads = _words(below_one, 1)[:, 0]
    points = np.array([0 if h else ord(".") << 56 for h in below_one], np.uint64)
    tails = _words(["" if e >= -4 else f"e{e:+03d}" for e in es], 1)[:, 0]
    return powers, quads, heads, points, tails


def _g17_fields(x: np.ndarray, out: np.ndarray) -> int:
    """Write the bytes of format(xi, ".17g") for each xi of the 1-D array x
    into the rows of out, an (n, 4) array of little-endian words, with NUL
    as padding. Returns how many values the scalar fallback wrote.

    A field's bytes: 0-5 the head, 6 the first digit, 7 the point of
    scientific notation, 8-23 the other 16 digits with trailing zeros as
    NUL, 24-30 the exponent; byte 31 is left to the caller's separator."""
    powers, quads, heads, points, tails = _g17_tables()
    H, H_hi, H_lo, L = powers
    fast = (x >= 1e-280) & (x < 10)
    a = np.where(fast, x, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    ip = (16 - _P_MIN) - e  # the row of p = 16 - e; p = 15 if log10 rounds up to 1 below 10
    c = _VELTKAMP * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    h_hi, h_lo = H_hi[ip], H_lo[ip]
    prod = a * H[ip]
    t = ((a_hi * h_hi - prod) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo  # a * H - prod, exactly
    t += a * L[ip]
    floor_t = np.floor(t)
    t -= floor_t
    D = prod.astype(np.int64) + floor_t.astype(np.int64)
    fast &= (D >= 10**16) & (np.abs(t - 0.5) > 1e-6)
    D += t > 0.5
    fast &= D < 10**17  # a round-up to 10**17 falls back too
    ie = e - _E_MIN  # a value that falls back reads the row of e = 0 (a = 1)

    lead = D // 10**16
    D -= lead * 10**16
    hi = D // 10**8
    lo = D - hi * 10**8
    g0 = hi // 10**4
    g1 = hi - g0 * 10**4
    g2 = lo // 10**4
    g3 = lo - g2 * 10**4
    z3 = g3 == 0  # the groups after g2 are zero, so g2's trailing zeros strip
    z2 = z3 & (g2 == 0)
    z1 = z2 & (g1 == 0)
    w0 = heads[ie] | (lead.astype(np.uint64) + 48) << np.uint64(48)
    out[:, 0] = w0 | points[ie] * (D != 0)  # a point only when a digit follows it
    out[:, 1] = quads[g0 + 10000 * z1] | quads[g1 + 10000 * z2] << np.uint64(32)
    out[:, 2] = quads[g2 + 10000 * z3] | quads[g3 + 10000] << np.uint64(32)
    out[:, 3] = tails[ie]

    slow = np.flatnonzero(~fast)
    if slow.size:
        out[slow] = _words([format(xi, ".17g") for xi in x[slow].tolist()], 4)
    return slow.size


def _words(strings: list[str], width: int) -> np.ndarray:
    """ASCII strings as NUL-padded rows of `width` little-endian words."""
    data = "".join(s.ljust(8 * width, "\0") for s in strings).encode()
    return np.frombuffer(data, _WORD).reshape(len(strings), width)


def emit_surface_csv(run: SolverRun, path: Path) -> None:
    """Columns: n, m, y, v, V (= E*v); n ascending then m ascending.

    Blocks of levels are formatted by `_g17_fields` and streamed to a
    sibling file that replaces `path` only when complete, so a failed write
    leaves no truncated CSV."""
    E, v, nodes, levels = run.params.E, run.surface.v, run.surface.nodes, run.surface.levels
    # x*1.0 is x, bits and all, so V's fields are v's; any other E formats E*x
    reuse = E == 1.0
    node_text = [f"{m},{fmt(m * run.grid.dy)}," for m in range(nodes)]
    lw = -(-len(f"{levels - 1},") // 8)  # words of "n,"
    pw = lw + -(-max(map(len, node_text)) // 8)  # words of "n,m,y,"
    step = max(1, _CHUNK_VALUES // nodes)
    # a row: "n,", "m,y,", the field of v and ",", the field of V and "\n"
    rows = np.zeros((step, nodes, pw + 8), _WORD)
    rows[:, :, lw:pw] = _words(node_text, pw - lw)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"n,m,y,v,V\n")
            for n0 in range(0, levels, step):
                block = np.ascontiguousarray(v[n0 : n0 + step])
                k = len(block)
                rows[:k, :, :lw] = _words([f"{n}," for n in range(n0, n0 + k)], lw)[:, None]
                flat = rows[:k].reshape(k * nodes, pw + 8)
                x = block.ravel()
                _g17_fields(x, flat[:, pw : pw + 4])
                if reuse:
                    flat[:, pw + 4 :] = flat[:, pw : pw + 4]
                else:
                    _g17_fields(E * x, flat[:, pw + 4 :])
                flat[:, pw + 3] |= _COMMA
                flat[:, pw + 7] |= _NEWLINE
                fh.write(flat.tobytes().translate(None, b"\0"))  # no CSV byte is NUL
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)  # left only by a failed write


def emit_study_csv(rows: tuple[StudyRow, ...], path: Path) -> None:
    write_rows(
        path,
        "Y,M,xf_final",
        ((fmt(r.Y), str(r.M), fmt(r.xf_final)) for r in rows),
    )


def _lemma1_dict(rep: Lemma1Report) -> dict:
    return {
        "cond_convection": rep.cond_convection,
        "cond_timestep": rep.cond_timestep,
        "satisfied": rep.satisfied,
        "min_sign_upper": int(rep.coefficient_signs[:, 0].min()),
        "sign_diag": int(rep.coefficient_signs[:, 1].max()),
        "min_sign_lower": int(rep.coefficient_signs[:, 2].min()),
    }


def emit_summary(run: SolverRun, lemma1: Lemma1Report, path: Path) -> None:
    payload = {
        "params": asdict(run.params),
        "grid": asdict(run.grid),
        "achieved_horizon": run.achieved_horizon,
        "lemma1": _lemma1_dict(lemma1),
        "max_inner_iterations": run.max_inner_iterations,
        "denominator_warnings": list(run.denominator_warnings),
        "xf_final": float(run.surface.xf[-1]),
        "price_at_strike": price_at(run, run.params.E),
    }
    write_json(path, payload)
