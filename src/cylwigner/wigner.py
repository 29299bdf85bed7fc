"""Phase-space functions on the cylinder (angle x angular momentum).

The central object is the window matrix element

    V_mn(theta, p) = (1/2pi) exp(i(n-m)theta) sinc_pi(p - (m+n+2 delta)/2)

from which every quasi-probability here is built by contraction with
coefficient matrices: Wigner functions of pure states, Moyal functions
of state pairs, and densities of mixed states.  Both marginals, the
probability-extraction route, overlaps, observable expectations and
density-matrix reconstruction are evaluated *analytically* in the
momentum direction: integrals over all of p pair band-limited sinc
combinations, so they reduce exactly to finite sums (momentum-direction
truncation would cost three to four digits to the slow sinc tail).
The angle integral of the reconstruction is an exact equispaced sum,
taken by one real FFT.

Evaluation functions are pure and keep no shared mutable state.  CSV
export holds the text of the axes it formatted for later exports, which
never changes their bytes (see :func:`write_grid_csv`).
"""

import contextlib
import operator
import os
import stat
import warnings
from dataclasses import dataclass, field
from math import pi

import numpy as np

from ._g17 import g17_fields
from ._kernels import (
    _HERMITIAN_TOL,
    TWO_PI,
    _angle_rows,
    _check_grid,
    _check_momenta,
    _diagonal_sum,
    _exp_product,
    _held_with,
    phase_space_sum_grid,
    phase_space_sum_point,
    sinc_pi_array,
)
from .specfun import oscillation_order, sinc_pi
from .states import (
    DensityMatrix,
    FourierState,
    _check_bytes,
    _check_delta,
    _check_hbar,
    _check_index,
    _finite,
    _frozen_array,
    _dense_hermitian_residual,
    _number_field,
    _numbers_in,
    _on_window,
    _plain,
    _union,
)

__all__ = [
    "PhasePoint",
    "CardinalSeries",
    "WignerGrid",
    "wigner_matrix_element",
    "moyal_function",
    "wigner_function",
    "wigner_density",
    "wigner_grid",
    "moyal_grid",
    "default_theta_axis",
    "default_p_axis",
    "write_grid_csv",
    "marginal_angle",
    "marginal_momentum",
    "extract_probability",
    "overlap_from_wigner",
    "reconstruct_density",
    "expectation_via_phase_space",
    "identity_operator",
    "angular_momentum_operator",
    "cosine_operator",
    "sine_operator",
    "UncertaintyProduct",
    "uncertainty_product",
    "rescale_hbar",
]

_IMAG_RESIDUE_TOL = 1e-12
# a reconstruction window reaching |n| >= 2**20 must have momenta that hold
# delta exactly: a delta sweep (K = 1..13, 120 deltas, both signs) found the
# round trip within 5.8e-11 below 2**20 and up to 1.2e-10 below 2**21
_EXACT_WINDOW = 2**20


@dataclass(frozen=True)
class PhasePoint:
    """A point (theta, p).  ``theta`` is reduced mod 2 pi into [-pi, pi) for
    display; ``angle`` is the float angle as given, at which the point
    functions evaluate, as a grid on the axis ``[angle]`` does: their phases
    are exact at any angle, and the reduction by the float 2 pi would carry
    its rounding (1.7e-9 in a Wigner function at ``theta = 1e9 + 0.3``)."""

    theta: float
    p: float
    angle: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        theta = float(self.theta)
        p = float(self.p)
        if not (np.isfinite(theta) and np.isfinite(p)):
            raise ValueError("phase-space coordinates must be finite")
        object.__setattr__(self, "angle", theta)
        object.__setattr__(self, "theta", (theta + pi) % (2.0 * pi) - pi)
        object.__setattr__(self, "p", p)


def _as_point(at) -> PhasePoint:
    if isinstance(at, PhasePoint):
        return at
    theta, p = at
    return PhasePoint(theta, p)


@dataclass(frozen=True, eq=False)
class CardinalSeries:
    """Momentum marginal ``omega(p) = sum_m b_m sinc_pi(p - m - delta)``.

    Stored by its sample values ``b_m`` on the shifted integer grid;
    evaluation at ``p = m + delta`` returns ``b_m`` exactly because the
    shifted sinc family interpolates.  It is the grid kernel's angle-free
    row with weights ``b``, divided by 1 where a Wigner function divides by
    2 pi.
    """

    delta: float
    m_min: int
    b: np.ndarray

    def __post_init__(self):
        delta = _check_delta(self.delta)
        b = _frozen_array(self.b, np.float64)
        if b.ndim != 1 or b.size == 0 or not np.all(np.isfinite(b)):
            raise ValueError("b must be a finite non-empty 1-D array")
        if np.min(b) < -1e-12:
            raise ValueError("cardinal series samples must be non-negative")
        if np.min(b) <= 0.0:  # roundoff negatives and -0.0 are held as +0.0
            b = _frozen_array(np.clip(b, 0.0, None))
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "m_min", _check_index(self.m_min, "m_min"))
        object.__setattr__(self, "b", b)

    @property
    def m_max(self) -> int:
        return self.m_min + self.b.size - 1

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.m_min, self.m_max + 1)

    def __call__(self, p):
        """The series at scalar or array ``p``: a float for a scalar, an
        array of the shape of ``p`` otherwise."""
        values = _diagonal_sum(self.b, self.m_min, self.delta, _finite(p, "momenta").ravel(), 1.0)
        return values.item() if np.ndim(p) == 0 else values.reshape(np.shape(p))

    def _json_fields(self) -> dict:
        return {"delta": self.delta, "m_min": self.m_min, "b": self.b}

    def to_dict(self) -> dict:
        return _plain(self._json_fields())

    @classmethod
    def from_dict(cls, data: dict) -> "CardinalSeries":
        return cls(
            delta=_number_field(data, "delta", float),
            m_min=_number_field(data, "m_min", operator.index),
            b=_numbers_in(data.get("b"), 1, "b", pairs=False),
        )


@dataclass(frozen=True, eq=False)
class WignerGrid:
    """Values on a rectangular (theta, p) grid, row-major over theta."""

    theta_axis: np.ndarray
    p_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        theta_axis = _frozen_array(self.theta_axis, np.float64)
        p_axis = _frozen_array(self.p_axis, np.float64)
        values = _frozen_array(self.values)
        if values.shape != (theta_axis.size, p_axis.size):
            raise ValueError("values shape must be (len(theta_axis), len(p_axis))")
        object.__setattr__(self, "theta_axis", theta_axis)
        object.__setattr__(self, "p_axis", p_axis)
        object.__setattr__(self, "values", values)


def default_theta_axis(steps: int = 181) -> np.ndarray:
    return np.linspace(-pi, pi, steps)


def default_p_axis(p_min: float = -5.0, p_max: float = 5.0, steps: int = 401) -> np.ndarray:
    return np.linspace(p_min, p_max, steps)


def _require_real(values, tol: float = _IMAG_RESIDUE_TOL):
    """``values`` as real: real input as it is, complex input as its real
    part once the largest imaginary residue is at most ``tol``."""
    if np.isrealobj(values):
        return values
    residue = float(np.max(np.abs(np.imag(values)))) if np.size(values) else 0.0
    if residue > tol:
        raise ArithmeticError(
            f"imaginary residue {residue:.3e} exceeds {tol:.1e}; refusing to take real part"
        )
    return np.real(values)


def _window(obj, ket=None):
    """``(A, n_min, delta)`` with value = sum_{m,n} A_mn V_mn(theta, p), ``A``
    as the grid kernel takes it: a state ``obj`` as its factor pair
    ``(conj(c), c)`` (Hermitian by construction: no K x K matrix, scan or
    test), the pair ``(obj, ket)`` of states as the dense matrix on the
    union of their windows, and a density matrix ``obj`` as its 1-D
    diagonal (a diagonal window) or its entries transposed."""
    if isinstance(obj, DensityMatrix) and ket is None:
        if obj._weights is not None:
            return obj._weights, obj.n_min, obj.delta
        # tr[rho V] = sum_mn rho_mn V_nm; entries are read-only, so a view
        return obj.entries.T, obj.n_min, obj.delta
    if not isinstance(obj, FourierState):
        raise TypeError("expected a FourierState or DensityMatrix")
    if ket is None:
        return (obj.coeffs.conj(), obj.coeffs), obj.n_min, obj.delta
    n_min, n_max = _union(obj, ket)
    A = np.outer(_on_window(obj, n_min, n_max).conj(), _on_window(ket, n_min, n_max))
    return A, n_min, obj.delta


def _window_matrix(obj):
    """``_window(obj)`` with ``A`` expanded to its K x K matrix, for the
    readers that contract the whole window."""
    A, n_min, delta = _window(obj)
    if isinstance(A, tuple):
        A = np.outer(*A)
    elif A.ndim == 1:
        A = np.diag(A)
    return A, n_min, delta


def wigner_matrix_element(m: int, n: int, delta: float, at) -> complex:
    """Matrix element V_mn at a phase-space point; bounded by 1/2pi."""
    m, n, delta = _check_index(m, "m"), _check_index(n, "n"), _check_delta(delta)
    _check_momenta(min(m, n), max(m, n))
    pt = _as_point(at)
    s = sinc_pi_array((pt.p - 0.5 * (m + n)) - delta)  # rounded at its own scale
    return complex(_exp_product(float(n - m), pt.angle) * s / TWO_PI)


def moyal_function(bra: FourierState, ket: FourierState, at) -> complex:
    """Cross phase-space function of two states sharing one covering.

    For ``bra == ket`` the value is real (up to roundoff) and equals the
    Wigner function of the state.
    """
    pt = _as_point(at)
    A, n_min, delta = _window(bra, ket)
    return phase_space_sum_point(A, n_min, delta, pt.angle, pt.p)


def wigner_function(obj, at) -> float:
    """Wigner function of a pure state or of a density matrix,
    ``tr[rho V(theta, p)]``; real, bounded by 1/pi."""
    pt = _as_point(at)
    A, n_min, delta = _window(obj)
    value = phase_space_sum_point(A, n_min, delta, pt.angle, pt.p)
    return float(_require_real(value))


# the mixed-state name of the same function
wigner_density = wigner_function


def _grid_axes(theta_axis, p_axis):
    """The given axes as float arrays (the defaults where ``None``); every
    coordinate must be finite, as for :class:`PhasePoint`."""
    theta_axis = default_theta_axis() if theta_axis is None else theta_axis
    p_axis = default_p_axis() if p_axis is None else p_axis
    return _finite(theta_axis, "phase-space coordinates"), _finite(p_axis, "phase-space coordinates")


def moyal_grid(bra: FourierState, ket: FourierState, theta_axis=None, p_axis=None) -> WignerGrid:
    theta_axis, p_axis = _grid_axes(theta_axis, p_axis)
    _check_grid(theta_axis, p_axis, complex_grid=True)  # also when bra == ket gives the kernel's real grid
    A, n_min, delta = _window(bra, ket)
    values = phase_space_sum_grid(A, n_min, delta, theta_axis, p_axis)
    # a cross function is complex in general, also when bra == ket folds it real
    values = values.astype(np.complex128, copy=False)
    values.setflags(write=False)  # the kernel's fresh output: held, not copied
    return WignerGrid(theta_axis=theta_axis, p_axis=p_axis, values=values)


def wigner_grid(obj, theta_axis=None, p_axis=None) -> WignerGrid:
    """Real-valued Wigner grid of a state or density matrix."""
    theta_axis, p_axis = _grid_axes(theta_axis, p_axis)
    A, n_min, delta = _window(obj)
    values = _require_real(phase_space_sum_grid(A, n_min, delta, theta_axis, p_axis))
    values.setflags(write=False)  # the kernel's fresh output: held, not copied
    return WignerGrid(theta_axis=theta_axis, p_axis=p_axis, values=values)


# entries formatted and written at a time: whole theta rows, or slices of a
# row longer than this.  A block's arrays and text take a few hundred kB;
# over 100 rounds of the four benchmark exports the peak RSS grew by at most
# 0.5 MB with blocks of 2048 to 8192 entries.  (Blocks of 4096 entries of text built by
# "%" formatting, about 230 kB each, had crept up by about 30 MB over 100
# exports of one 72,581-entry row.)
_CSV_BLOCK = 4096
# entries of row text held for reuse (about 1.5 MB): a row whose values occur
# again later is formatted once and held until its last occurrence, and a
# repeat that finds no room under this cap is formatted again
_CSV_HOLD = 2**15
# the theta field of held row text, filled in at each occurrence; "%.17g"
# text never holds it
_OPEN = b"%"
_COMMA, _NEWLINE = ord(","), ord("\n")
# bytes of axis text held between exports
_AXIS_TEXT_BYTES = 4 * 2**20
# the line-ready text of the axes last exported, oldest first: (role,
# _CSV_BLOCK, shape, bytes) of an axis -> its read-only blocks.  An axis
# longer than one block is keyed by the SHA-256 digest of its bytes, which
# would hold 8 bytes a value, more than a third of its text.  The store is
# kept by _kernels._held_with, as the kernel keeps its phase plans
_held_axes = {}


def write_grid_csv(grid: WignerGrid, path) -> None:
    """CSV emission: header ``theta,p,value``, row-major over theta then p,
    17 significant digits (the bytes of ``"%.17g" % x``).  Output is
    deterministic for identical inputs.

    ``path`` is a file path, written in binary mode, or a text sink with
    ``write``, which gets the same bytes decoded as ASCII, once per write;
    lines end in ``"\\n"`` either way.  An existing file is written over in
    place and cut to length at the end (:func:`_overwrite`), not truncated
    first, so a re-export spares freeing the old file's pages and
    allocating them again.  A first export to a new path costs the same.
    A process killed while it writes can leave the old file's bytes past
    the new ones.

    The bytes are formatted in numpy and written in blocks of at most
    ``_CSV_BLOCK`` entries: whole theta rows, or slices of a longer row.
    Each line is laid out as its three fields side by side, NUL bytes
    among them, and the NULs are dropped in one compress, whose cost
    follows the runs of text in a line.  The newline opens each line (the
    header goes out without one, and one ends the last block), so the held
    axis text is line-ready: an angle as ``"\\ntheta,"`` at the right end of
    its field and a momentum as ``"p,"`` at the left end of its field give
    ``"\\ntheta,p,"`` in one run, and a value in exponent notation with all
    17 digits is one more.  On a 2-CPU Xeon the benchmark's figure_export
    went from 50.4-53.4 (median 52.3) to 57.6-62.9 (median 60.3) exports/s
    in 10 pairs of 20 s runs, with the same bytes.  Each axis is
    formatted once, and its text is held for later exports on the same
    axis, bit for bit: at most ``_AXIS_TEXT_BYTES`` (4 MiB) of it, the
    oldest axis dropped first, and an axis whose text alone is larger is
    not held.  Only a process that exports several grids on the same axes
    gains; a one-shot export formats each axis once either way.  A row
    whose values recur later in the grid, bit for bit (a theta-independent
    function, or the mirrored rows of a real state), is formatted once into
    bytes that leave only its theta open, filled in at each occurrence and
    dropped after the last; at most ``_CSV_HOLD`` entries are held so, and
    a repeat beyond them is formatted again.
    """
    if np.iscomplexobj(grid.values):
        raise ValueError("CSV emission requires a real-valued grid")
    if hasattr(path, "write"):
        _stream_grid_csv(grid, lambda data: path.write(str(data, "ascii")))
    else:
        with _overwrite(path, "wb") as fh:
            _stream_grid_csv(grid, fh.write)


@contextlib.contextmanager
def _overwrite(path, mode, **kw):
    """``open(path, mode, **kw)`` for writing, with the flags of ``open(path,
    "w")`` but ``O_TRUNC``: a new file is made as ``open`` makes it, and an
    existing one is written over in place.  On exit, also by an exception,
    the stream is flushed and a regular file is cut at its position, so it
    holds exactly the bytes written; ``/dev/null``, a FIFO or a character
    device, which cannot be cut, is written as ``open`` writes it."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, mode, **kw) as fh:
        try:
            yield fh
        finally:
            fh.flush()
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()


def _axis_fields(axis, role) -> tuple:
    """The line-ready text of an axis in the CSV field ``role``, ``"theta"``
    or ``"p"``, ``_CSV_BLOCK`` values at a time (:func:`_line_ready`): a
    tuple of read-only blocks, each as wide as its own text.  They are the
    held ones when an axis of the same shape and bytes was exported in the
    same role before with the same ``_CSV_BLOCK``.  A new axis is held after
    those held before, by :func:`_kernels._held_with`: the oldest are
    dropped while the total would pass ``_AXIS_TEXT_BYTES``, and an axis
    whose own text passes it serves its call only.
    """
    global _held_axes
    axis = np.ascontiguousarray(axis, dtype=np.float64)
    if axis.size <= _CSV_BLOCK:
        key = role, _CSV_BLOCK, axis.shape, axis.tobytes()
    else:  # imported here: a process without long axes never loads hashlib (about 4 ms)
        import hashlib

        key = role, _CSV_BLOCK, axis.shape, hashlib.sha256(axis).digest()
    held = _held_axes
    blocks = held.get(key)
    if blocks is not None:
        return blocks
    flat = axis.ravel()
    blocks = tuple(_line_ready(flat[lo : lo + _CSV_BLOCK], role == "theta") for lo in range(0, flat.size, _CSV_BLOCK))
    _held_axes = _held_with(held, key, blocks, _text_bytes, _AXIS_TEXT_BYTES)
    return blocks


def _line_ready(values, angle: bool) -> np.ndarray:
    """Read-only uint8 rows, one per value, as wide as the longest: an
    ``angle`` as ``"\\n"``, its ``"%.17g"`` text and ``","`` at the right
    end of its row, or a momentum as its text and ``","`` at the left end,
    with NUL bytes filling the rest."""
    fields = g17_fields(values)
    newline, comma = (np.full((len(fields), 1), byte, dtype=np.uint8) for byte in (_NEWLINE, _COMMA))
    # row lengths as a float32 product of the mask (exact: rows are far
    # shorter than 2**24), about a third of the time np.count_nonzero takes;
    # the mask, 4 bytes a byte, is made as float32 and freed at once
    lengths = np.not_equal(fields, 0, out=np.empty(fields.shape, dtype=np.float32)) @ np.ones(fields.shape[1], dtype=np.float32)
    lengths = lengths.astype(np.intp) + (2 if angle else 1)
    width = int(lengths.max(initial=0))
    # each row's filling as bytes 1, which no text holds, so that one
    # compress of the rows lays them out whole; then they are made NUL
    fill = (np.arange(width - int(lengths.min(initial=0))) < (width - lengths)[:, None]).view(np.uint8)
    rows = np.concatenate([fill, newline, fields, comma] if angle else [fields, comma, fill], axis=1)
    rows = rows[rows != 0].reshape(-1, width)
    rows[rows == 1] = 0
    rows.setflags(write=False)
    return rows


def _text_bytes(blocks) -> int:
    """The bytes of an axis' held text."""
    return sum(block.nbytes for block in blocks)


def _stream_grid_csv(grid: WignerGrid, write) -> None:
    """Write the CSV bytes of ``grid`` through ``write``, which takes any
    bytes-like object."""
    values = grid.values
    n_theta, n_p = values.shape
    span = max(1, min(n_p, _CSV_BLOCK))  # momenta of a block
    theta_blocks, p_blocks = _axis_fields(grid.theta_axis, "theta"), _axis_fields(grid.p_axis, "p")
    first_of, last_of = _repeated_rows(values)
    held = {}  # first row of a repeated row -> its bytes per block, theta left open
    room = _CSV_HOLD
    # the rows planned and not yet written, each as its theta text and the
    # held text it takes or fills (None: neither), and those to format
    plan, fresh = [], []
    write(b"theta,p,value")  # each line opens with its newline
    for i in range(n_theta):
        if i % _CSV_BLOCK == 0:  # the angles, _CSV_BLOCK at a time
            theta_fields = theta_blocks[i // _CSV_BLOCK]
        field = theta_fields[i % _CSV_BLOCK]
        first = first_of[i]
        texts = held.get(first)
        fill = texts is None and last_of[first] > i and n_p <= room
        if fill:
            texts = held[first] = []
            room -= n_p
        plan.append((None if texts is None else _field_text(field), texts))
        if texts is None or fill:
            fresh.append(i)
        if fill:  # its text is held with the theta field open
            if not theta_fields.flags.writeable:  # the held text is not changed
                theta_fields = theta_fields.copy()
            field = theta_fields[i % _CSV_BLOCK]
            field[:] = 0
            field[0] = _OPEN[0]
        if last_of[first] == i and first in held:
            del held[first]
            room += n_p
        if (len(fresh) + 1) * n_p > _CSV_BLOCK or i % _CSV_BLOCK == _CSV_BLOCK - 1 or i == n_theta - 1:
            _write_planned(write, plan, fresh, theta_fields, p_blocks, grid, span)
            plan, fresh = [], []
    write(b"\n")


def _write_planned(write, plan, fresh, theta_fields, p_blocks, grid, span) -> None:
    """Write the rows of ``plan`` in order, a block of ``span`` momenta at
    a time, each with its block of ``p_blocks``: the ``fresh`` rows from one
    ``_csv_lines`` call per block, the others from held bytes; a row that
    fills held bytes writes them too."""
    rows = np.array(fresh, dtype=np.intp)
    plain = all(texts is None for _, texts in plan)
    for piece, p_fields in enumerate(p_blocks):
        if fresh:
            start = piece * span
            lines = _csv_lines(
                theta_fields[rows % _CSV_BLOCK],
                p_fields,
                grid.values[rows, start : start + span],
            )
            if plain:
                write(lines[lines != 0])  # the text, without the NUL bytes
                continue
            # each fresh row's text from its own lines
            texts_of_fresh = (row[row != 0] for row in lines)
        for theta_text, texts in plan:
            if texts is None:
                write(next(texts_of_fresh))
                continue
            if len(texts) == piece:  # the row that fills it
                texts.append(next(texts_of_fresh).tobytes())
            write(texts[piece].replace(_OPEN, theta_text))


def _field_text(field) -> bytes:
    """The text of one row of line-ready axis text."""
    return field[field != 0].tobytes()


def _csv_lines(theta_fields, p_fields, values) -> np.ndarray:
    """The CSV lines of ``values`` (R x C) with NUL bytes among them, from
    the line-ready text of its R angles and C momenta: (R, C W) uint8, row
    ``r`` the lines of ``values[r]``, each its angle, momentum and
    ``g17_fields`` value side by side."""
    R, C = values.shape
    value_fields = g17_fields(values).reshape(R, C, -1)
    wt, wp = theta_fields.shape[1], p_fields.shape[1]
    lines = np.empty((R, C, wt + wp + value_fields.shape[2]), dtype=np.uint8)
    lines[:, :, :wt] = theta_fields[:, None, :]
    lines[:, :, wt : wt + wp] = p_fields
    lines[:, :, wt + wp :] = value_fields
    return lines.reshape(R, -1)


def _repeated_rows(values):
    """``(first_of, last_of)``: for each row of ``values`` the index of the
    first row with the same bytes, and for each such first row the index of
    its last occurrence.  Rows are keyed by the hash of their bytes and
    confirmed on a hit, so only one row's bytes are held at a time; a row
    whose hash meets different bytes is taken as a row of its own."""
    if len(values) == 1:  # no row can repeat: nothing to copy or hash
        return [0], {0: 0}
    seen = {}  # hash of a row's bytes -> the first row with that hash
    first_of, last_of = [], {}
    for i, row in enumerate(values):
        data = row.tobytes()
        first = seen.setdefault(hash(data), i)
        if first != i and values[first].tobytes() != data:
            first = i
        first_of.append(first)
        last_of[first] = i
    return first_of, last_of


def marginal_angle(obj, theta):
    """Angle marginal ``(1/2pi)|psi(theta)|^2`` (or the rho bilinear).

    Computed analytically from the coefficients, never by momentum
    quadrature.  Accepts scalar or array ``theta``; a non-finite angle
    raises ``ValueError``.  The phases ``exp(i k theta)``, ``k = n - n_min``,
    come from :func:`_kernels._angle_rows`: the common ``n_min + delta``
    drops out, however far from 0 the window lies.
    """
    A, _, _ = _window(obj)
    thetas = _finite(theta, "angles").ravel()
    if isinstance(A, tuple):
        values = _angle_rows(thetas, A[1].size, lambda P: np.abs(P @ A[1]) ** 2 / TWO_PI, np.float64)
    elif A.ndim == 1:
        # a diagonal window has no coherences: the constant trace / 2 pi
        values = np.full(thetas.shape, obj.trace() / TWO_PI)
    else:  # sum_mn e^{i m theta} rho_mn e^{-i n theta}, A = rho^T
        values = _angle_rows(thetas, A.shape[0], lambda P: np.sum(P * (P.conj() @ A), axis=1), np.complex128)
        values = _require_real(values) / TWO_PI
    return values.item() if np.ndim(theta) == 0 else values.reshape(np.shape(theta))


def marginal_momentum(obj) -> CardinalSeries:
    """Momentum marginal as a cardinal series with ``b_m = |c_m|^2``
    (pure state) or ``b_m = rho_mm`` (density matrix)."""
    if isinstance(obj, FourierState):
        return CardinalSeries(delta=obj.delta, m_min=obj.n_min, b=np.abs(obj.coeffs) ** 2)
    if isinstance(obj, DensityMatrix):
        return CardinalSeries(delta=obj.delta, m_min=obj.n_min, b=obj.diagonal())
    raise TypeError("expected a FourierState or DensityMatrix")


def extract_probability(omega: CardinalSeries, m: int) -> float:
    """Probability of momentum quantum number ``m``; 0 outside the window.

    Equals the full-line integral of ``omega(p) sinc_pi(p - m - delta)``
    by the orthonormality of unit-spaced sinc functions (cross-route:
    :func:`cylwigner.verify.extract_probability_via_quadrature`)."""
    m = _check_index(m, "m")
    if m < omega.m_min or m > omega.m_max:
        return 0.0
    return float(omega.b[m - omega.m_min])


def overlap_from_wigner(a: FourierState, b: FourierState) -> float:
    """``2 pi`` times the phase-space product integral of two Wigner
    functions, reduced analytically onto the coefficient windows; equals
    ``|(a, b)|^2``."""
    n_min, n_max = _union(a, b)
    return float(np.abs(np.vdot(_on_window(a, n_min, n_max), _on_window(b, n_min, n_max))) ** 2)


def _check_reconstruction_size(K: int) -> None:
    """``ValueError`` naming ``K`` when the complex128 ``K x K`` result of a
    reconstruction would exceed the dense budget (256 MiB)."""
    _check_bytes(f"reconstruction window K={K}", 16 * K**2)


def reconstruct_density(V, n_min: int, n_max: int, delta: float = 0.0) -> DensityMatrix:
    """Rebuild a density matrix from a Wigner density sampled on one grid.

    ``V`` is a grid sampler: called once with the axes pair
    ``(thetas, ps)``, it returns the real ``(len(thetas), len(ps))`` array
    of Wigner values.  For a state or density matrix ``obj`` the sampler is
    ``lambda axes: wigner_grid(obj, *axes).values``.  A sampler output of
    another shape, a complex dtype or a non-finite value raises
    ``ValueError``.

    Each entry is the phase-space pairing of ``V`` with the corresponding
    window element; the momentum integral collapses exactly (the theta
    integral of ``exp(i(l-k)theta) V`` is a cardinal series in p sampled on
    a unit-spaced grid containing the target point), leaving one angle
    integral per entry:

        rho_kl = int dtheta exp(i(l-k)theta) V(theta, (k+l)/2 + delta)

    At a fixed momentum ``V`` is a trigonometric polynomial in theta, so an
    ``N``-point equispaced sum takes this integral exactly while ``N``
    exceeds the source window plus ``K - 2``.  ``V`` is sampled on the
    ``N = oscillation_order(2(K - 1))`` angles ``-pi + 2 pi j / N`` times
    the ``2K - 1`` anti-diagonal momenta ``(k+l)/2 + delta``, and one real
    FFT along the angles gives every ``l - k >= 0``; ``l - k < 0`` is its
    conjugate, so the result is Hermitian by construction.  A trace deficit
    beyond 1e-6 (window too small for the source state) is reported as a
    warning on the returned matrix.

    A window that reaches ``|n| >= 2**20`` with a ``delta`` its float64
    momenta round (``0.3`` there, but not ``0``, ``0.5`` or the ``delta`` of
    a von Mises state, split from its float ``p_e``) raises ``ValueError``:
    the rounding moves the round trip by up to about ``5.5e-17 |n|``,
    ``5.8e-11`` inside the bound and past ``1e-10`` beyond it.  So does a
    window whose complex128 ``K x K`` result would exceed 256 MiB
    (``K > 4096``), naming K, before ``V`` is called: its sampled grid
    would be larger still.
    """
    n_min, n_max = _check_index(n_min, "n_min"), _check_index(n_max, "n_max")
    delta = _check_delta(delta)
    if n_max < n_min:
        raise ValueError("empty reconstruction window")
    _check_momenta(n_min, n_max)
    # every momentum is at most edge in size, so it holds delta exactly
    # when edge + delta does (a sum of float64 within a factor 2 of edge)
    edge = float(max(-n_min, n_max) + 1)
    if edge > _EXACT_WINDOW and (edge + delta) - edge != delta:
        raise ValueError(
            f"reconstruction window [{n_min}, {n_max}] reaches |n| >= 2**20, where float64 momenta "
            f"n + t/2 + delta round delta = {delta!r}: the round trip would exceed 1e-10"
        )
    K = n_max - n_min + 1
    _check_reconstruction_size(K)
    N = oscillation_order(2.0 * (K - 1))
    nodes = -pi + TWO_PI * np.arange(N) / N
    # distinct momentum samples (k+l)/2 + delta, one per anti-diagonal
    p_samples = n_min + 0.5 * np.arange(2 * K - 1) + delta
    vals = np.asarray(V((nodes, p_samples)))
    if vals.shape != (N, p_samples.size):
        raise ValueError(
            f"sampler returned shape {vals.shape}, expected {(N, p_samples.size)}"
        )
    if np.iscomplexobj(vals):
        raise ValueError("sampler returned complex values; a Wigner density is real")
    vals = vals.astype(np.float64, copy=False)
    if not np.all(np.isfinite(vals)):
        raise ValueError("sampler returned non-finite values")
    # W[nu, t] = (2 pi/N) sum_j exp(i nu theta_j) vals[j, t] for nu = 0..K-1,
    # where exp(i nu theta_j) = (-1)^nu exp(2 pi i nu j/N)
    signs = np.where(np.arange(K) % 2, -TWO_PI / N, TWO_PI / N)
    W = signs[:, None] * np.fft.rfft(vals, axis=0)[:K].conj()
    k, l = np.indices((K, K))
    rho = W[np.abs(l - k), k + l]
    rho = np.where(l < k, rho.conj(), rho)
    out = DensityMatrix(delta=delta, n_min=n_min, entries=rho)
    deficit = 1.0 - out.trace()
    if abs(deficit) > 1e-6:
        warnings.warn(
            f"reconstruction window [{n_min}, {n_max}] leaves a trace deficit of {deficit:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return out


def expectation_via_phase_space(rho: DensityMatrix, O: np.ndarray) -> float:
    """Expectation value via the phase-space trace-product pairing.

    The pairing ``2 pi int int tr[rho V] tr[O V]`` contracts the angle
    integral to a Kronecker delta and the momentum integral to sinc
    orthonormality, leaving the symmetrized window contraction
    ``(1/2) tr[rho O + O rho]``.  ``O`` must be Hermitian on the window
    of ``rho``."""
    O = np.asarray(O, dtype=np.complex128)
    if O.ndim != 2 or O.shape[0] != O.shape[1]:
        raise ValueError("operator must be a square matrix")
    if _dense_hermitian_residual(O) > _HERMITIAN_TOL:
        raise ValueError("operator must be Hermitian")
    E = rho.entries  # a diagonal window builds its entries on each read
    if O.shape != E.shape:
        raise ValueError("operator window must match the density-matrix window")
    value = 0.5 * (np.trace(E @ O) + np.trace(O @ E))
    return float(_require_real(value, tol=1e-10))


def _operator_size(n_min, n_max) -> int:
    """The size of the index window ``[n_min, n_max]``; ``ValueError`` for
    a bound that is not an integer or an empty window."""
    n_min, n_max = _check_index(n_min, "n_min"), _check_index(n_max, "n_max")
    if n_max < n_min:
        raise ValueError(f"operator window [{n_min}, {n_max}] is empty")
    return n_max - n_min + 1


def identity_operator(n_min: int, n_max: int) -> np.ndarray:
    return np.eye(_operator_size(n_min, n_max), dtype=np.complex128)


def angular_momentum_operator(n_min: int, n_max: int, delta: float = 0.0) -> np.ndarray:
    """Diagonal matrix of momentum eigenvalues ``n + delta``."""
    _operator_size(n_min, n_max)
    delta = _check_delta(delta)
    return np.diag((np.arange(n_min, n_max + 1) + delta).astype(np.complex128))


def cosine_operator(n_min: int, n_max: int) -> np.ndarray:
    """Tridiagonal matrix of ``cos(phi)``: 1/2 on both off-diagonals."""
    K = _operator_size(n_min, n_max)
    off = np.full(K - 1, 0.5, dtype=np.complex128)
    return np.diag(off, 1) + np.diag(off, -1)


def sine_operator(n_min: int, n_max: int) -> np.ndarray:
    """Tridiagonal matrix of ``sin(phi)``: -i/2 below, +i/2 above."""
    K = _operator_size(n_min, n_max)
    off = np.full(K - 1, 0.5j, dtype=np.complex128)
    return np.diag(off, 1) + np.diag(-off, -1)


@dataclass(frozen=True)
class UncertaintyProduct:
    """Both sides of the angle-momentum uncertainty inequality."""

    lhs: float
    rhs: float


def uncertainty_product(state: FourierState) -> UncertaintyProduct:
    """Evaluate ``(dS)^2 (dL)^2 >= cov_sym(S, L)^2 + |<[S, L]>|^2 / 4``
    for ``S = sin(phi)`` and the angular momentum ``L``.

    The window is padded so the tridiagonal action of ``S`` is exact: it
    is applied as two shifted slices, ``(S c)_j = (i/2) c_{j+1} - (i/2)
    c_{j-1}``, with no matrix.  Minimal-uncertainty states saturate the
    bound; momentum eigenstates send both sides to zero."""
    pad = 2
    n_min = state.n_min - pad
    n_max = state.n_max + pad
    c = _on_window(state, n_min, n_max)
    lvals = np.arange(n_min, n_max + 1) + state.delta
    # the padded ends are zero, so S c vanishes at the first and last index
    s_psi = np.zeros_like(c)
    s_psi[1:-1] = 0.5j * c[2:] - 0.5j * c[:-2]
    l_psi = lvals * c
    mean_s = float(np.vdot(c, s_psi).real)
    mean_l = float(np.vdot(c, l_psi).real)
    var_s = float(np.vdot(s_psi, s_psi).real) - mean_s**2
    var_l = float(np.vdot(l_psi, l_psi).real) - mean_l**2
    cross = np.vdot(s_psi, l_psi)  # (S psi, L psi)
    cov_sym = float(cross.real) - mean_s * mean_l
    commutator_sq = float(cross.imag) ** 2  # |<[S, L]>|^2 / 4
    return UncertaintyProduct(lhs=var_s * var_l, rhs=cov_sym**2 + commutator_sq)


def rescale_hbar(p_physical, hbar: float, m: int):
    """Momentum-rescaled sinc ``sinc_pi((p - hbar m)/hbar)``.

    At ``hbar = 1`` this is the usual ``sinc_pi(p - m)``; as
    ``hbar -> 0`` with ``hbar m`` fixed, ``(1/hbar)`` times the result
    concentrates its unit mass at ``p = hbar m``.  Where the scaled
    argument overflows (a finite ``p`` at an extreme ``hbar``) the value is
    sinc's limit 0, as ``|sinc| < 2e-309`` there.  An index outside ``|m| <
    2**51``, where float64 momenta no longer hold the half-integer lattice,
    is refused with ``ValueError``, as in :func:`wigner_matrix_element`."""
    hbar = _check_hbar(hbar)
    _check_momenta(m, m)
    p = np.asarray(p_physical, dtype=np.float64)
    with np.errstate(over="ignore"):
        x = (p - hbar * m) / hbar
    # sinc_pi vanishes exactly at the integer 1
    return sinc_pi(np.where(np.isinf(x) & np.isfinite(p), 1.0, x))
