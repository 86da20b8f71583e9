"""Command-line front end: one subcommand per scenario, CSV/JSON artifacts,
and a reproducibility manifest for every run.

The manifest's "reproducible" block is a complete re-run recipe: feeding a
manifest back through --config regenerates every artifact byte-for-byte
under the tool_version that wrote it, and any other version refuses it.  A
change that moves artifact bytes bumps oamring.__version__.  Wall-clock,
writing and creation times live in a separate "volatile" block that is
excluded from the manifest hash.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import COMPONENT_BAND, POTENTIAL_SAMPLES, PRESETS
from .config import RunConfig, SCENARIOS, parse_config
from .dynamics import (
    NORM_TOL,
    BunchingSpectrum,
    StateVector,
    bunching,
    default_initial_state,
    evolve,
    modes,
    observables,
    transitions,
)
from .errors import ConfigurationError, OamringError, ToleranceError
from .numerics import OdeControls, Trajectory
from .potential import (
    GRID_DOUBLING_TOL,
    FourierPotential,
    SystemParams,
    dispersion_coefficients,
    fourier_coefficients,
    pair_potential,
    rate_coefficients,
)
from .radiation import THETA_GRID, check_tables, count_lobes, pattern_from_bunching, phi_grid
from .rate_model import evolve_rates, ladder_transitions, seeded_rate_state
from .stability import K0_RHO_GRID, TOP_MODE, classify_regime, spectrum, spectrum_sweep

# Values turned into text at a time.  The writer's memory is bounded by this
# block, not by the table: formatting a 46k-row pattern by whole columns holds
# the text of every distinct value at once.
_VALUES_PER_WRITE = 8192

# The text of one value: at most _TEXT ASCII bytes, NUL-padded, with NULs
# wherever the layout below leaves a slot empty.  repr of a float64 takes at
# most 24 and of a 64-bit int at most 20.
_TEXT = 32
# Floats formatted by one _float_text call: its few dozen temporaries of this
# length stay small beside the block.
_FLOATS_PER_CALL = 2048
# CPython's float_repr writes a value without an exponent when its decimal
# point sits in this range: 0.000ddd (point -3) to dddddddddddddddd.d (16).
_POINT_MIN, _POINT_MAX = -3, 16
# Point forms a layout is keyed by: each point in that range, and one for any
# point below it and one for any point above.
_FORMS = _POINT_MAX - _POINT_MIN + 3
# A scaled endpoint or a rounding tie this close to an integer is left to
# repr.  The double-double scaling errs by under 1e-14 of a unit.
_MARGIN = 2.0**-32
_TENS = 10 ** np.arange(19, dtype=np.int64)  # 10^0 .. 10^18, exact
_MANTISSA = np.uint64((1 << 52) - 1)


@functools.cache
def _pow10(k: int) -> tuple[float, float, float, float]:
    """10**k as a double-double (hi, lo), then hi's Veltkamp split into two
    halves of 26 bits.  Built from exact integers: int-to-float conversion and
    int true division round correctly, and the exact remainder gives lo."""
    if k >= 0:
        hi = float(10**k)
        lo = float(10**k - int(hi))
    else:
        hi = 1 / 10**-k
        num, den = hi.as_integer_ratio()
        lo = (den - num * 10**-k) / (den * 10**-k)
    split = 134217729.0 * hi
    top = split - (split - hi)
    return hi, lo, top, hi - top


def _word(text: str) -> int:
    """Up to 8 ASCII characters as a little-endian uint64, NUL-padded."""
    return int.from_bytes(text.encode().ljust(8, b"\0"), "little")


@functools.cache
def _text_tables() -> tuple[np.ndarray, ...]:
    """The uint64 pieces _float_text assembles a text from.

    quads[n] is the four digits of n < 10000, and pairs[n] the two of
    n < 100 placed in bytes 6 and 7.  layouts[(18 sign + count) _FORMS + form]
    is the layout of a text of ``count`` digits, keyed by its sign and its
    point's form: ``form`` 1 to _FORMS - 2 is the point _POINT_MIN to
    _POINT_MAX, 0 is any point below and _FORMS - 1 any point above.  A
    layout holds the sign and "0.000" lead in bytes 0 to 5, the point's
    digit slot (17: no point), and the masks of the bytes the text fills in
    the first three words.  exponents[point + 256] is the exponent text, or 0
    for a point written without one."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint64)
    quads = (digit[:, None, None, None] | digit[:, None, None] << 8
             | digit[:, None] << 16 | digit << 24).ravel()

    sign, count, form = np.ix_(range(2), range(18), range(_FORMS))
    point = form - 1 + _POINT_MIN
    fixed = (form > 0) & (form < _FORMS - 1)
    # "0." and the zeros after it, for a point at 0 or below.
    zeros = np.where(fixed & (point <= 0), 1 - point, 0)
    leads = np.array([[_word(minus + ("0." + "0" * (n - 1) if n else ""))
                       for n in range(2 - _POINT_MIN)] for minus in ("", "-")], dtype=np.uint64)
    dot = np.where(fixed & (point > 0), point, np.where(fixed | (count == 1), 17, 1))
    shown = np.where(fixed & (point > 0), np.maximum(count, point + 1), count) + (dot < 17)
    masks = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
    filled = [np.minimum(shown + 6, 8), np.clip(shown - 2, 0, 8), np.clip(shown - 10, 0, 8)]
    layouts = np.stack(np.broadcast_arrays(leads[sign, zeros], dot.astype(np.uint64),
                                           *(masks[n] for n in filled)), axis=-1)

    point = np.arange(-256, 256)
    e = np.abs(point - 1)
    exponents = (np.uint64(ord("e")) | np.where(point < 1, ord("-"), ord("+")).astype(np.uint64) << 8
                 | np.where(e < 100, quads[e] >> 16, quads[e] >> 8) << 16)
    exponents[(point >= _POINT_MIN) & (point <= _POINT_MAX)] = 0
    return quads, quads[:100] >> 16 << 48, layouts.reshape(-1, 5), exponents


def _scaled(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """x 10^k, k = 16 - floor(log10 x), as p + t with p the rounded product,
    the half gaps of x's rounding interval above and below scaled alike, and
    k.  The products are double-double (Dekker's; numpy has no FMA) and err
    by under 1e-14.  The gaps are half an ulp, and a quarter ulp below a
    power of two."""
    # log10 may round across a power of ten: x 10^k then has 16 or 18 digits,
    # and every step after this still holds.
    k = 16 - np.floor(np.log10(x)).astype(np.int64)
    first = int(k.min())
    table = np.array([_pow10(e) for e in range(first, int(k.max()) + 1)])
    hi, lo, hi_top, hi_low = table.T[:, k - first]
    split = 134217729.0 * x
    x_top = split - (split - x)
    x_low = x - x_top
    p = x * hi
    t = ((x_top * hi_top - p) + x_top * hi_low + x_low * hi_top) + x_low * hi_low + x * lo
    half_ulp = 0.5 * np.spacing(x)
    above = half_ulp * hi + half_ulp * lo
    below = np.where(x.view(np.uint64) & _MANTISSA, above, 0.5 * above)
    return p, t, above, below, k


def _interval(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """x 10^k and the ends of x's rounding interval scaled alike (_scaled),
    each as an int64 whole part and a fraction: (mid, its fraction, top, its
    fraction, bottom, its fraction, k, fast).  fast is False where the whole
    parts are out of range or an end lies within _MARGIN of an integer."""
    p, t, above, below, k = _scaled(x)
    # p, at least 2^53, is a whole number.
    fast = (p >= 2.0**53) & (p < 2.0**62)
    whole = np.where(fast, p, 2.0**53).astype(np.int64)
    parts = []
    for fraction in (t, t + above, t - below):
        floor = np.floor(fraction)
        parts += [whole + floor.astype(np.int64), fraction - floor]
    for fraction in parts[3::2]:
        fast &= np.abs(fraction - 0.5) < 0.5 - _MARGIN
    return (*parts, k, fast)


def _shortest(magnitude: np.ndarray) -> tuple[np.ndarray, ...]:
    """The shortest digits of each of ``magnitude`` that read back to it, the
    nearest such to it: (digits as an int64, their count, the decimal point's
    position, plain).  The value is 0.digits x 10^point.  Where plain is
    False the value is left to repr, and the other entries are those of 0.

    The digits dropped from x 10^k are the largest j with a multiple of 10^j
    inside the scaled interval, and the digits are the multiple of 10^j
    nearest x 10^k that lies inside it.  A value within _MARGIN of a
    rounding tie, where round-half-even decides, is left to repr, as is every
    value outside [1e-250, 1e250] and every subnormal (Grisu3's design: a
    fast path that detects its own failures)."""
    fast = (magnitude >= 1e-250) & (magnitude <= 1e250)
    mid, mid_fraction, top, _, bottom, _, k, inside = _interval(
        np.where(fast, magnitude, 1.0))
    fast &= inside
    # Digits dropped: the largest j with a multiple of 10^j in (bottom, top],
    # that is with top % 10^j < top - bottom.  That width is 1 to 25, so j
    # passes 2 only where top's last two digits are under it, and then by
    # the zeros before them, counted 8, 4, 2 and 1 at a time.
    width = top - bottom
    last2 = top % 100
    dropped = (last2 % 10 < width).astype(np.int64) + (last2 < width)
    live = np.flatnonzero(last2 < width)
    head = top[live] // 100
    for run in (8, 4, 2, 1):
        cut = head // 10**run
        zeros = cut * 10**run == head
        head = np.where(zeros, cut, head)
        dropped[live] += run * zeros
    unit = _TENS[dropped]
    rest = mid % unit
    # Twice the distance of x 10^k past the midpoint between the multiples
    # of 10^j on either side: its sign picks the nearer one, and below a
    # power of two the nearer one may lie under the interval.  The whole
    # part converts exactly wherever the sum is near 0.
    past = (2 * rest - unit) + 2.0 * mid_fraction
    fast &= np.abs(past) > 2 * _MARGIN
    near = mid - rest + unit * (past > 0)
    near += unit * (near <= bottom)
    count = 17 - dropped + (near >= 10**17) - (near < 10**16)
    fast &= (count <= 17) & (magnitude > 0)
    return (np.where(fast, near // unit, 0), np.where(fast, count, 1),
            np.where(fast, count + dropped - k, 1), fast | (magnitude == 0))


def _digit_slots(digits: np.ndarray, count: np.ndarray, dot: np.ndarray) -> list[np.ndarray]:
    """The 18 digit slots of a text: its ``count`` digits left-aligned in 17
    slots, zero-filled, with a 0 opened up in slot ``dot`` for the point.
    Returned as the numbers in slots 0-1, 2-9 and 10-17."""
    left = digits * _TENS[17 - count]
    cut = _TENS[17 - dot]
    high = left // cut
    spaced = high * (10 * cut) + (left - high * cut)
    pair = spaced // 10**16
    low = spaced - pair * 10**16
    first8 = low // 10**8
    return [pair, first8, low - first8 * 10**8]


def _float_text(values: np.ndarray) -> np.ndarray:
    """The repr text of each float64 of ``values``: row i, NULs removed, is
    ``repr(float(values[i]))``, byte for byte.  The digits come from
    _shortest, or from ``repr`` itself where it cannot decide them.

    The text is laid out in four little-endian uint64 words, by CPython's
    float_repr rule: the sign and any "0.000" lead; 18 digit slots holding
    the digits, zero-filled to the point, with the point in its slot; the
    exponent.  A block's layouts are one gather from _text_tables' layouts,
    and slots past the text are NUL."""
    digits, count, point, plain = _shortest(np.abs(values))
    quads, pairs, layouts, exponents = _text_tables()
    form = np.minimum(np.maximum(point - (_POINT_MIN - 1), 0), _FORMS - 1)
    layout = layouts[(18 * np.signbit(values) + count) * _FORMS + form]
    dot = layout[:, 1].astype(np.int64)
    pair, *eights = _digit_slots(digits, count, dot)
    words = np.empty((len(values), 4), dtype="<u8")  # little-endian: byte i is text slot i
    words[:, 0] = layout[:, 0] | pairs[pair]
    for word, eight in enumerate(eights, 1):
        four = eight // 10**4
        words[:, word] = quads[four] | quads[eight - four * 10**4] << 32
    words[:, 3] = exponents[point + 256]
    text = words.view(np.uint8)
    text[np.arange(len(values)), 6 + dot] = ord(".")
    words[:, :3] &= layout[:, 2:]
    slow = np.flatnonzero(~plain)
    if slow.size:
        text[slow] = _repr_text(values[slow])
    return text


def _repr_text(values: np.ndarray) -> np.ndarray:
    """The repr text of each of ``values``, in rows of _TEXT bytes."""
    texts = np.array(list(map(repr, values.tolist())), dtype=f"S{_TEXT}")
    return texts.view(np.uint8).reshape(len(values), _TEXT)


def _cells(columns: list[np.ndarray]) -> np.ndarray:
    """The text of each cell of equal-length 1-D ``columns``, in rows of
    ``_TEXT + 1`` bytes that end in a free separator slot.

    The columns of each dtype are stacked and sorted once, keyed by dtype and
    bit pattern, so ``-0.0`` and ``0.0`` stay apart and an int column never
    meets a float one.  Each distinct value is formatted once, a float64 by
    _float_text and any other value by ``repr``, and the cells are gathered
    from that table."""
    rows = len(columns[0])
    index = np.empty((rows, len(columns)), dtype=np.intp)
    groups = []
    for dtype in dict.fromkeys(column.dtype for column in columns):
        at = [i for i, column in enumerate(columns) if column.dtype == dtype]
        values = np.stack([columns[i] for i in at], axis=1).ravel()
        keys = values.view(f"u{dtype.itemsize}") if dtype.kind == "f" else values
        distinct, inverse = np.unique(keys, return_inverse=True)
        index[:, at] = inverse.reshape(rows, -1) + sum(map(len, groups))
        groups.append(distinct.view(dtype))
    # Only the index and the distinct values stay while the texts are made.
    del values, keys, inverse
    table = np.zeros((sum(map(len, groups)), _TEXT + 1), dtype=np.uint8)
    start = 0
    for group in groups:
        floats = group.dtype == np.float64
        step = _FLOATS_PER_CALL if floats else len(group)
        for first in range(0, len(group), step):
            part = group[first : first + step]
            table[start : start + len(part), :_TEXT] = (
                _float_text(part) if floats else _repr_text(part))
            start += len(part)
    return table[index]


def _csv_lines(columns: list[np.ndarray]) -> bytes:
    """The CSV lines of equal-length 1-D ``columns``, ASCII-encoded: each
    row's cells (``_cells``) and separators, with the NULs dropped."""
    cells = _cells(columns)
    cells[:, :, _TEXT] = ord(",")
    cells[:, -1, _TEXT] = ord("\n")
    return cells.tobytes().translate(None, b"\0")


# A table of this many values or more is formatted on two CPUs.  In a fresh
# process _float_text formats a block in about 2.5 ms (fig4's pattern.csv) to
# 3.5 ms (fig3's rates.csv), where repr took 3.7 to 6.3 ms, while a fork, its
# reaping and its copy-on-write faults cost about 6 ms: the child's half must
# hold about two blocks to pay for itself.  fig3's rates.csv (6.3 blocks)
# forks, and its rate op reads about 4 ms faster for it; fig4's pattern.csv
# (3.4) does not.
_FORK_MIN_VALUES = 4 * _VALUES_PER_WRITE


def _cpus() -> int:
    """The CPUs this process may run on; neither a cgroup quota nor the load
    of other processes is counted."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _single_threaded() -> bool:
    """Whether this process runs one thread (False where /proc cannot say).
    A fork beside other threads may copy a lock one of them holds, and Python
    3.12 and later warn on it."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _fork_formatter(write, first: int, stop: int):
    """Fork a child that writes rows ``first:stop`` through ``write`` into an
    unlinked temporary file and leaves through ``os._exit``: exit 0 once the
    file holds them, 1 otherwise.  Return its pid and the file, or None when
    either cannot be had."""
    try:
        spill = tempfile.TemporaryFile()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        spill.close()
        return None
    if pid == 0:  # os._exit: no cleanup runs twice, no inherited buffer is flushed
        code = 1
        try:
            write(first, stop, spill)
            spill.flush()
            code = 0
        finally:
            os._exit(code)
    return pid, spill


def _write_table(handle, columns: list[np.ndarray]) -> None:
    """Write the rows of ``columns`` to the binary file ``handle`` in blocks of
    at most ``_VALUES_PER_WRITE`` values.

    A table of ``_FORK_MIN_VALUES`` values or more is formatted on two CPUs
    when ``os.fork`` exists, the process may run on two CPUs or more and it
    runs one thread: a forked child (``_fork_formatter``) formats the later
    half of the rows while this process formats and writes the earlier half.
    The child is reaped whatever happens here, and its bytes follow in
    fixed-size chunks.  The child calls no BLAS and starts no thread.  Every
    other table, every table whose temporary file or fork cannot be had, and
    the later half of a table whose child did not exit 0 are formatted here.
    Each row is the same text wherever a block starts, so the bytes are the
    same.
    """
    rows = len(columns[0])
    step = max(1, _VALUES_PER_WRITE // len(columns))

    def write(first: int, stop: int, out) -> None:
        for start in range(first, stop, step):
            end = min(start + step, stop)
            out.write(_csv_lines([col[start:end] for col in columns]))

    cut = rows // 2
    child = None
    if (rows * len(columns) >= _FORK_MIN_VALUES and hasattr(os, "fork")
            and _cpus() >= 2 and _single_threaded()):
        child = _fork_formatter(write, cut, rows)
    if child is None:
        write(0, rows, handle)
        return
    pid, spill = child
    with spill:
        try:
            write(0, cut, handle)
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status:  # the child wrote nothing under the output directory
            write(cut, rows, handle)
        else:
            spill.seek(0)
            shutil.copyfileobj(spill, handle)


def _write_artifacts(out: Path, mhash: str, files: dict[str, dict]) -> None:
    """Write each artifact under ``out``.  A ``.csv`` name maps column names
    to equal-length 1-D arrays: a CSV headed by a ``# manifest:`` line and
    the names.  Any other name holds a dict: a JSON file with a
    ``manifest_hash`` key.

    Every CSV column is checked before ``out`` is made, so a non-finite value
    raises ToleranceError and leaves no output directory.  Values are written
    as ``repr`` writes them: floats round-trip exactly and integer columns
    stay integers.  Rows go out in blocks of ``_VALUES_PER_WRITE`` values, and
    each distinct value of a block is formatted once (``_csv_lines``), a
    float64 by _float_text: the bytes are ``repr``'s, and the writer's memory
    is bounded by the block, not by the table.  A table of four blocks or more is formatted by this
    process and one short-lived forked child, which writes nothing under
    ``out``, when ``os.fork`` exists and a process of one thread may run on
    two CPUs or more; it is written in this process alone otherwise, and the
    child's rows are formatted here when the child fails (``_write_table``).
    """
    tables = {name: table for name, table in files.items() if name.endswith(".csv")}
    for name, table in tables.items():
        for column_name, column in table.items():
            if not np.isfinite(column).all():
                raise ToleranceError(
                    f"non-finite value reached output column {column_name} of {name}"
                )
    path = out
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, payload in files.items():
            path = out / name
            if name in tables:
                with path.open("wb") as handle:
                    handle.write(f"# manifest: {mhash}\n{','.join(payload)}\n".encode())
                    _write_table(handle, list(payload.values()))
            else:
                with path.open("w", encoding="utf-8", newline="\n") as handle:
                    json.dump({**payload, "manifest_hash": mhash}, handle,
                              indent=2, sort_keys=True)
                    handle.write("\n")
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc


def _manifest_hash(config: RunConfig) -> str:
    recipe = {
        "scenario": config.scenario,
        "tool_version": __version__,
        "config": config.resolved,
    }
    canon = json.dumps(recipe, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _gain_floor(params: SystemParams) -> float:
    """V_k is verified only to GRID_DOUBLING_TOL, so a gain g_k at or below
    this floor is not told apart from none."""
    return params.gamma * GRID_DOUBLING_TOL


def _g_table(fp: FourierPotential) -> dict:
    """The g_k table and its dominant channel, None when no gain is above the
    floor.  The table runs through k = 12, or through the dominant channel
    when that lies further out, so its gain is written once."""
    g = rate_coefficients(fp)
    dominant = int(np.argmax(g[1:])) + 1
    if not g[dominant] > _gain_floor(fp.params):
        dominant = None
    top = min(fp.k_max, max(TOP_MODE, dominant or 0))
    return {"g_k": {str(k): float(g[k]) for k in range(1, top + 1)}, "dominant_k": dominant}


def _fastest_mode(ms: np.ndarray, rates: np.ndarray, gamma: float) -> int | None:
    """The mode of the fastest growth rate |Re lambda_m| that is resolved, or
    None.  An error d in gamma V_m, at most gamma * GRID_DOUBLING_TOL, moves
    m |Im sqrt(m^2 + gamma V_m)| by at most m sqrt(d), so a rate at or below
    that is not told apart from none."""
    counted = np.where(rates > ms * np.sqrt(gamma * GRID_DOUBLING_TOL), rates, 0.0)
    return int(ms[np.argmax(counted)]) if counted.any() else None


def _lambda_summary(fp: FourierPotential) -> dict:
    """Growth rates of the tabled modes and the fastest resolved one."""
    ms = np.arange(1, min(TOP_MODE, fp.k_max) + 1)
    rates = np.abs(spectrum(fp, ms).real)
    m_star = _fastest_mode(ms, rates, fp.params.gamma)
    return {
        "growth_rates": {str(m): float(r) for m, r in zip(ms.tolist(), rates)},
        "argmax_m": m_star,
        "regime": (None if m_star is None
                   else classify_regime(m_star, fp.params.gamma, fp.coefficient(m_star))),
    }


def _run_potential(config: RunConfig) -> tuple[dict, dict, dict]:
    params = config.params
    fp = fourier_coefficients(params)
    g = rate_coefficients(fp)
    alpha = dispersion_coefficients(fp)

    phis = np.linspace(0.0, 2.0 * np.pi, POTENTIAL_SAMPLES, endpoint=False)
    v = fp.coefficients[fp.k_max :]
    files = {
        "samples.csv": {"phi": phis, "V": pair_potential(phis, params)},
        "coefficients.csv": {"k": np.arange(fp.k_max + 1), "re_Vk": v.real,
                             "im_Vk": v.imag, "g_k": g, "alpha_k": alpha},
    }
    # coefficients.csv holds every g_k, so the manifest names only the channel.
    return files, {"dominant_k": _g_table(fp)["dominant_k"]}, {}


def _run_spectrum(config: RunConfig) -> tuple[dict, dict, dict]:
    rates = spectrum_sweep(config.params)
    ms = np.arange(1, TOP_MODE + 1)
    rows = [{"k0_rho": kr, "argmax_m": _fastest_mode(ms, row, config.params.gamma)}
            for kr, row in zip(K0_RHO_GRID.tolist(), rates)]
    growth = {"k0_rho": K0_RHO_GRID}
    growth |= {f"m_{m}": column for m, column in zip(ms.tolist(), rates.T)}
    return {"growth_rates.csv": growth, "summary.json": {"rows": rows}}, {}, {}


def _timeseries(
    traj: Trajectory, snapshot_k: int | None
) -> tuple[dict, float, float, int, dict]:
    """The timeseries.csv columns of a lab-frame trajectory (tau, norm error,
    N_m, Re and Im of Phi_1..Phi_min(COMPONENT_BAND, 2 m_max), <omega>), its
    largest norm drift and band-edge occupancy, the index of the sample with
    the largest |Phi_snapshot_k| (the last sample when snapshot_k is None)
    and its transitions record.  Phi_0 is the norm sum_m N_m, whose distance
    from 1 is norm_error."""
    m_max = traj.states.shape[1] // 2
    phi_band = min(COMPONENT_BAND, 2 * m_max)
    obs = observables(traj.states, max(phi_band, snapshot_k or 0, m_max))
    phis = obs.phi[:, 1 : phi_band + 1].T
    columns = {"tau": traj.times, "norm_error": obs.drift}
    columns |= {f"N_{m}": n for m, n in zip(modes(m_max).tolist(), obs.populations.T)}
    columns |= {f"re_phi_{k}": phi.real for k, phi in enumerate(phis, 1)}
    columns |= {f"im_phi_{k}": phi.imag for k, phi in enumerate(phis, 1)}
    columns["mean_omega"] = obs.mean_omega
    if snapshot_k is None:
        snap_index = len(traj.times) - 1
    else:
        snap_index = int(np.argmax(np.abs(obs.phi[:, snapshot_k])))
    record = transitions(traj.times, obs)
    return columns, float(obs.drift.max()), float(obs.edge.max()), snap_index, record


def _run_evolve(config: RunConfig) -> tuple[dict, dict, dict]:
    params = config.params
    opts = config.options
    # |Phi_0| is the norm, equal at every sample up to rounding, so a lag of
    # 0 would pick the snapshot by noise.
    if opts["snapshot"] == "max_bunching" and not (
        1 <= opts["snapshot_k"] <= params.k_max
    ):
        raise ConfigurationError(
            f"evolve.snapshot_k={opts['snapshot_k']} outside the bunching lags "
            f"1..{params.k_max}"
        )
    fp = fourier_coefficients(params)
    state0 = default_initial_state(
        params,
        seed_amplitude=opts["seed_amplitude"],
        mode=opts["seed_mode"],
        rng_seed=opts["rng_seed"],
    )
    traj = evolve(
        state0,
        fp,
        tau_end=opts["tau_end"],
        controls=OdeControls(rel_tol=opts["rel_tol"], abs_tol=opts["abs_tol"]),
        stride=opts["stride"],
    )

    snapshot_k = opts["snapshot_k"] if opts["snapshot"] == "max_bunching" else None
    columns, drift_max, edge_max, snap_index, record = _timeseries(traj, snapshot_k)

    snap_amps = traj.states[snap_index]
    files = {
        "timeseries.csv": columns,
        "snapshot.json": {
            "tau": float(traj.times[snap_index]),
            "m_max": params.m_max,
            "params": asdict(params),
            "re": snap_amps.real.tolist(),
            "im": snap_amps.imag.tolist(),
        },
    }
    derived = {
        **_g_table(fp),
        "lambda": _lambda_summary(fp),
        "transitions": record,
    }
    diagnostics = {"max_norm_drift": drift_max, "max_band_edge": edge_max,
                   "attempts": traj.attempts, "rejected": traj.rejected}
    return files, derived, diagnostics


def _run_rate(config: RunConfig) -> tuple[dict, dict, dict]:
    params = config.params
    opts = config.options
    fp = fourier_coefficients(params)
    g = rate_coefficients(fp)
    alpha = dispersion_coefficients(fp)

    floor = _gain_floor(params)
    channel = opts["channel"]
    if channel:
        if not 1 <= channel <= params.m_max:
            raise ConfigurationError(
                f"rate.channel={channel} outside 1..params.m_max={params.m_max}"
            )
        if not g[channel] > floor:
            raise ConfigurationError(
                f"rate.channel={channel} has no resolved gain: g_{channel}="
                f"{g[channel]:.3g} is not above gamma * {GRID_DOUBLING_TOL:g}"
            )
        single = np.zeros_like(g)
        single[channel] = g[channel]
        g = single

    state0 = seeded_rate_state(params.m_max, opts["seed_population"])
    traj = evolve_rates(state0, g, alpha, tau_end=opts["tau_end"], controls=OdeControls(),
                        stride=opts["stride"])

    columns = {"tau": traj.times}
    columns |= {f"N_{m}": n for m, n in enumerate(traj.populations.T)}
    columns |= {f"phi_{m}": phase for m, phase in enumerate(traj.phases.T)}
    derived = {**_g_table(fp), "gamma_v0": float(2.0 * alpha[0]),
               "transitions": ladder_transitions(traj)}

    # The rate model is leading order in gamma|V_k|/k^2: each channel's
    # residual is how far its gain, corrected by alpha_k, misses the
    # linear-stability rate 2|Re lambda_k|.
    active = np.flatnonzero(g > floor)
    ks = active[active <= params.m_max]
    exact = 2.0 * np.abs(spectrum(fp, ks).real)
    residuals = np.abs(exact - g[ks] * (1.0 - alpha[ks] / ks**2)) / exact
    derived["validity"] = {
        str(k): {"regime": classify_regime(k, params.gamma, fp.coefficient(k)),
                 "residual": float(r)}
        for k, r in zip(ks.tolist(), residuals)
    }

    totals = traj.populations.sum(axis=1)
    diagnostics = {
        "max_population_drift": float(np.max(np.abs(totals - 1.0))),
        "final_mean_m": float(
            np.sum(np.arange(params.m_max + 1) * traj.populations[-1])
        ),
        "attempts": traj.attempts,
        "rejected": traj.rejected,
        "max_validity_residual": float(residuals.max()) if ks.size else None,
    }
    return {"rates.csv": columns}, derived, diagnostics


def _json_array(value, key: str, ndim: int, types=(int, float)) -> np.ndarray:
    """A JSON number (ndim 0) or ndim-deep list of numbers as floats, typed in one
    pass: true and false never pass, where float() reads 1 and 0."""
    values = np.array(value, dtype=object)
    if values.ndim != ndim or not set(map(type, values.flat)) <= set(types):
        kinds = " or ".join(t.__name__ for t in types)
        raise TypeError(f"{key} is not a JSON {kinds} at list depth {ndim}")
    return values.astype(float)


def _load_bunching(path: Path, params: SystemParams) -> BunchingSpectrum:
    """The bunching spectrum of a state snapshot (m_max, re, im, optional tau
    and params).  A snapshot is a normalized state, so the norm is checked
    too, and a snapshot's own ell and k0_rho, which set its far field, must be
    the run's.  The far field of its band, 2 m_max, is checked first:
    bunching takes time quadratic in m_max."""
    check_tables(params, params.k_max, f"params.m_max={params.m_max}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        re, im = (_json_array(payload[key], key, 1) for key in ("re", "im"))
        # Stacked, not re + 1j * im: an inf there would warn before any check.
        values = np.stack([re, im], axis=-1).view(complex)[:, 0]
        m_max = int(_json_array(payload["m_max"], "m_max", 0, (int,)))
        tau = float(_json_array(payload.get("tau", 0.0), "tau", 0))
        state = StateVector(tau=tau, amplitudes=values)
        if not m_max == state.m_max == params.m_max:
            raise ValueError(f"m_max={m_max} over {values.size} amplitudes, "
                             f"params.m_max={params.m_max}")
        for key in ("ell", "k0_rho") if "params" in payload else ():
            own, run = payload["params"][key], getattr(params, key)
            if float(_json_array(own, f"params.{key}", 0)) != run:
                raise ValueError(f"its params.{key}={own!r} is not the run's "
                                 f"params.{key}={run!r}")
        # Every |c_m| of a normalized state is at most 1; checked first, it
        # keeps |c_m|**2 from overflowing in the norm.
        top = float(np.abs(values).max())
        if top > 1.0 + NORM_TOL:
            raise ValueError(f"an entry has modulus {top:.6g} > 1 + {NORM_TOL:.0e}")
        drift = float(observables(values, 0).drift)
        if drift > NORM_TOL:
            raise ValueError(f"norm is off by {drift:.3e}, past {NORM_TOL:.0e}")
        return bunching(state)
    except (OSError, ValueError, KeyError, TypeError, OverflowError,
            RecursionError, ConfigurationError) as exc:
        raise ConfigurationError(f"cannot read state snapshot {path}: {exc}") from exc


def _run_radiate(config: RunConfig) -> tuple[dict, dict, dict]:
    params = config.params
    if not config.options["state"]:
        raise ConfigurationError("radiate needs radiate.state, a state snapshot to radiate")
    bunch = _load_bunching(Path(config.options["state"]), params)
    pattern = pattern_from_bunching(bunch, params)

    thetas, phis = np.meshgrid(THETA_GRID, phi_grid(bunch.band), indexing="ij")
    field = pattern.field.ravel()

    ms = modes(bunch.band)
    keep = np.abs(ms) <= COMPONENT_BAND
    averaged = {"theta": THETA_GRID, "total": pattern.components.sum(axis=1)}
    averaged |= {f"I_ellp_{params.ell + m}": weights
                 for m, weights in zip(ms[keep].tolist(), pattern.components[:, keep].T)}

    # The equator, theta = pi/2, and its strongest channel over the whole band.
    i_eq = THETA_GRID.size - 1
    m_eq = int(ms[np.argmax(pattern.components[i_eq])])
    files = {
        # The intensity is re_M**2 + im_M**2, so the file does not repeat it.
        "pattern.csv": {"theta": thetas.ravel(), "phi": phis.ravel(), "re_M": field.real,
                        "im_M": field.imag},
        "avg_intensity.csv": averaged,
        "components.json": {
            "dominant_ell_prime": params.ell + m_eq,
            "equator_lobes": count_lobes(np.abs(pattern.equator) ** 2),
        },
    }
    return files, {}, {}


_RUNNERS = {
    "potential": _run_potential,
    "spectrum": _run_spectrum,
    "evolve": _run_evolve,
    "rate": _run_rate,
    "radiate": _run_radiate,
}


def run_scenario(config: RunConfig) -> dict:
    """Execute one scenario, then write its artifacts and manifest.json last.

    Returns the manifest payload.  Artifact bytes are a pure function of the
    resolved configuration, so re-running from an emitted manifest reproduces
    them exactly.  Nothing is written until the run has succeeded.  The
    manifest's unhashed ``volatile`` block records the run's wall-clock time,
    the time spent writing the artifacts before manifest.json (``write_s``)
    and the creation time.
    """
    mhash = _manifest_hash(config)
    started = time.perf_counter()
    files, derived, diagnostics = _RUNNERS[config.scenario](config)
    computed = time.perf_counter()
    _write_artifacts(config.output_dir, mhash, files)
    written = time.perf_counter()
    manifest = {
        "manifest_hash": mhash,
        "reproducible": {
            "tool": "oamring",
            "tool_version": __version__,
            "scenario": config.scenario,
            "preset": config.preset,
            "overridden_preset_keys": list(config.overridden_preset_keys),
            "config": config.resolved,
            "derived": derived,
            "diagnostics": diagnostics,
        },
        "volatile": {
            "wall_clock_s": round(computed - started, 3),
            "write_s": round(written - computed, 4),
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
    }
    _write_artifacts(config.output_dir, mhash, {"manifest.json": manifest})
    return manifest


class _Parser(argparse.ArgumentParser):
    """An argument error raises ConfigurationError, so it ends in the same
    JSON record and exit code as every other error; subcommands inherit it."""

    def error(self, message: str):
        raise ConfigurationError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oamring",
        description=(
            "Superradiant OAM transfer in a ring trap: pair-potential spectra, "
            "stability maps, coupled-mode dynamics, rate cascades, and "
            "far-field radiation patterns."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="scenario", required=True)
    help_lines = {
        "potential": "dump V(phi), V_k, g_k, alpha_k tables",
        "spectrum": "growth-rate map over ring radius and mode number",
        "evolve": "integrate the full coupled-mode dynamics",
        "rate": "integrate the superradiant-cascade rate equations",
        "radiate": "far-field pattern and OAM decomposition of a state",
    }
    for name in SCENARIOS:
        cmd = sub.add_parser(name, help=help_lines[name])
        cmd.add_argument("--config", metavar="PATH", default=None,
                         help="key=value config file, or a manifest.json to re-run")
        cmd.add_argument("--preset", choices=sorted(PRESETS), default=None)
        cmd.add_argument("--out", metavar="DIR", default="oamring_out")
        cmd.add_argument("--set", metavar="SECTION.KEY=VALUE", action="append",
                         dest="overrides", default=[])
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = parse_config(
            scenario=args.scenario,
            config_path=args.config,
            preset=args.preset,
            overrides=args.overrides,
            output_dir=args.out,
        )
        manifest = run_scenario(config)
    except OamringError as exc:
        record = {
            "error": type(exc).__name__,
            "message": str(exc),
            "exit_code": exc.exit_code,
        }
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return exc.exit_code
    print(f"{args.scenario}: wrote {config.output_dir}  "
          f"[manifest {manifest['manifest_hash'][:12]}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
