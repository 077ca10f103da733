"""The six LAPACK routines lagrom calls, bound through ``ctypes`` to the
OpenBLAS that numpy's linear algebra already loads.

numpy's ``linalg._umath_linalg`` extension links OpenBLAS with its ILP64
LAPACK, as numpy's PyPI wheels ship it: 64-bit integers, and every symbol
named ``scipy_<routine>_64_``. A ``ctypes.CDLL`` handle on that extension
also finds the symbols of the libraries it links, so ``dgttrf``/``dgttrs``,
``dgetrf``/``dgetrs`` and ``dgeqrf``/``dormqr`` are called without loading
a second LAPACK or importing scipy. A missing symbol makes the import fail
with ``ImportError``; there is no other binding.

This module is the only one that knows the Fortran calling convention:
every argument is passed by pointer, integers are 64-bit, arrays are
Fortran-ordered, and each character argument is followed at the end of the
list by its hidden length. The factorizations return their ``info`` as
LAPACK does, so callers keep deciding what a zero pivot means.

A solve at desk size runs on a few hundred rows, so the per-call cost of
``ctypes`` matters. Each factor therefore builds every argument of its
solves, and of a tridiagonal ``refactor``, once, at construction: the
pointers to its factors and to a right-hand-side buffer, the sizes,
``info`` and the character flag; its factors and that buffer share one
float64 array (``_segments``). A solve
copies its right-hand side in, makes one foreign call and returns a copy.
Building a pointer per call costs more than the solve: on a 2-vCPU x86_64
host, a ``ctypes`` view of a fresh array took 0.5 µs, and a ``dgetrs`` solve
that built one, with a fresh ``info``, took 2.1 µs at r = 6 against 1.0 µs
with every argument cached (scipy's wrapper: 0.5 µs). For the same reason
the two solve routines are called without ``argtypes``, whose conversion
took 1.7 µs against 0.6 µs for the bare ``dgetrs`` call; every argument
they receive is a ``ctypes`` object built in this module.
"""

from __future__ import annotations

import ctypes

import numpy as np

_LIBRARY = ctypes.CDLL(np.linalg._umath_linalg.__file__)

_INT = ctypes.c_int64
_PTR = ctypes.c_void_p
# The hidden length of a character argument, passed after the last argument.
_CHAR_LENGTH = ctypes.c_size_t(1)
_NO_TRANSPOSE = ctypes.c_char_p(b"N")
_LEFT = ctypes.c_char_p(b"L")
# The array dtype of each argument type (np.dtype(ctype) takes 4 µs a call).
_DTYPES = {ctypes.c_double: np.dtype(np.float64), _INT: np.dtype(np.int64)}


def _numpy_lapack() -> str:
    """numpy's LAPACK as its build configuration names it."""
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    return f"{lapack['name']} {lapack.get('version', '')}".strip()


def _symbol(name: str, restype, argtypes=None):
    try:
        function = getattr(_LIBRARY, name)
    except AttributeError:
        raise ImportError(
            f"numpy's LAPACK ({_numpy_lapack()}) does not export {name}: lagrom needs numpy linked "
            "to OpenBLAS's ILP64 LAPACK, as numpy's PyPI wheels are"
        ) from None
    function.restype = restype
    if argtypes is not None:
        function.argtypes = argtypes
    return function


# Every array and integer argument is a pointer (_PTR); the character flags
# come first, their hidden lengths last.
_dgttrf = _symbol("scipy_dgttrf_64_", None, [_PTR] * 7)
_dgetrf = _symbol("scipy_dgetrf_64_", None, [_PTR] * 6)
_dgeqrf = _symbol("scipy_dgeqrf_64_", None, [_PTR] * 8)
_dormqr = _symbol("scipy_dormqr_64_", None, [ctypes.c_char_p] * 2 + [_PTR] * 11 + [ctypes.c_size_t] * 2)
# Hot path: no argtypes (see the module docstring).
_dgttrs = _symbol("scipy_dgttrs_64_", None)
_dgetrs = _symbol("scipy_dgetrs_64_", None)
_get_config = _symbol("scipy_openblas_get_config64_", ctypes.c_char_p, [])
_get_num_threads = _symbol("scipy_openblas_get_num_threads64_", ctypes.c_int, [])


def build() -> str:
    """The OpenBLAS build string of the loaded library."""
    return _get_config().decode()


def threads() -> int:
    """The thread count the loaded OpenBLAS runs with now."""
    return int(_get_num_threads())


def _ref(value: int):
    return ctypes.byref(_INT(value))


def _memory(x: np.ndarray, ctype=ctypes.c_double):
    """A ``ctypes`` array over the memory of ``x``, which must be a writable,
    Fortran-contiguous array of ``ctype``; LAPACK writes through it into
    ``x``, and it keeps ``x`` alive."""
    if not (x.flags.f_contiguous and x.flags.writeable and x.dtype == _DTYPES[ctype]):
        raise ValueError("LAPACK arguments must be writable Fortran-order arrays of the routine's type")
    # from_buffer takes C-contiguous memory; a Fortran-order array's transpose is that view.
    return (ctype * x.size).from_buffer(x.T) if x.size else (ctype * 1)()


def _segments(*sizes):
    """Consecutive zeroed float64 vectors of the given sizes in one new
    array, and a pointer to each. One ``ctypes`` view of the array serves
    every pointer, each an offset into it: a view costs a microsecond, an
    offset a fifth of one. The views keep the array alive, and so does each
    pointer."""
    store = np.zeros(sum(sizes) + 1)  # + 1: a pointer past a last empty vector stays inside
    whole = _memory(store)
    views, pointers, start = [], [], 0
    for size in sizes:
        views.append(store[start : start + size])
        pointers.append(ctypes.byref(whole, store.itemsize * start))
        start += size
    return views, pointers


class _Solves:
    """A factor's solves. ``_bind_solves`` builds every argument once; a
    solve copies its right-hand side into the factor's buffer ``_rhs``,
    makes one foreign call and returns a copy of the buffer. The solves of
    one factor share that buffer, so a factor serves one thread at a time."""

    n: int
    _rhs: np.ndarray

    def _bind_solves(self, routine, factors, rhs):
        self._routine = routine
        self._info = _INT()
        self._args = (
            _NO_TRANSPOSE,
            _ref(self.n),
            _ref(1),
            *factors,
            rhs,
            _ref(max(self.n, 1)),
            ctypes.byref(self._info),
            _CHAR_LENGTH,
        )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The solution for one right-hand side of shape (n,), in a new array."""
        if rhs.shape != self._rhs.shape:
            raise ValueError(f"right-hand side of shape {rhs.shape} for a {self.n}x{self.n} system")
        self._rhs[...] = rhs
        self._routine(*self._args)
        if self._info.value:
            raise ValueError(f"LAPACK rejected solve argument {-self._info.value}")
        return self._rhs.copy()


class TridiagonalLU(_Solves):
    """LU factors of an n x n tridiagonal matrix (``dgttrf``); ``solve`` is
    one ``dgttrs``. The bands ``sub`` and ``sup`` have n - 1 entries;
    ``refactor`` factors new bands of the same size in the same buffers."""

    def __init__(self, sub, diag, sup):
        n = self.n = diag.shape[0]
        off = max(n - 1, 0)
        (self.dl, self.d, self.du, self.du2, self._rhs), pointers = _segments(off, n, off, max(n - 2, 0), n)
        self.ipiv = np.zeros(n, dtype=np.int64)
        factors = (*pointers[:4], _memory(self.ipiv, _INT))
        self._factor_info = _INT()
        self._factor_args = (_ref(n), *factors, ctypes.byref(self._factor_info))
        self._bind_solves(_dgttrs, factors, pointers[4])
        self.refactor(sub, diag, sup)

    def refactor(self, sub, diag, sup) -> "TridiagonalLU":
        off = max(self.n - 1, 0)
        if np.shape(sub) != (off,) or np.shape(diag) != (self.n,) or np.shape(sup) != (off,):
            raise ValueError(f"bands of shapes {np.shape(sub)}, {np.shape(diag)}, {np.shape(sup)} for n = {self.n}")
        # dgttrf overwrites the copied bands with the factors.
        self.dl[...], self.d[...], self.du[...] = sub, diag, sup
        _dgttrf(*self._factor_args)
        self.info = self._factor_info.value
        return self


class DenseLU(_Solves):
    """LU factors with partial pivoting of a square matrix (``dgetrf``);
    ``solve`` is one ``dgetrs``."""

    def __init__(self, a):
        n = np.shape(a)[0]
        if np.shape(a) != (n, n):
            raise ValueError(f"an LU factorization needs a square matrix, not {np.shape(a)}")
        self.n = n
        (lu, self._rhs), (lu_pointer, rhs_pointer) = _segments(n * n, n)
        self.lu = lu.reshape((n, n), order="F")
        self.lu[...] = a
        self.ipiv = np.zeros(n, dtype=np.int64)
        size, pivots, info = _ref(n), _memory(self.ipiv, _INT), _INT()
        _dgetrf(size, size, lu_pointer, size, pivots, ctypes.byref(info))
        self.info = info.value
        self._bind_solves(_dgetrs, (lu_pointer, size, pivots), rhs_pointer)


def geqrf(a: np.ndarray):
    """Householder QR of the writable Fortran-order float64 array ``a`` in
    place (``dgeqrf``): the reflectors overwrite ``a``. The workspace is the
    optimal size a workspace query returns. Returns ``(tau, info)``."""
    m, n = a.shape
    tau = np.zeros(min(m, n))
    args = (_ref(m), _ref(n), _memory(a), _ref(max(m, 1)), _memory(tau))
    info, query = _INT(), ctypes.c_double()
    _dgeqrf(*args, ctypes.byref(query), _ref(-1), ctypes.byref(info))
    if info.value:
        return tau, info.value
    lwork = max(int(query.value), 1)
    _dgeqrf(*args, (ctypes.c_double * lwork)(), _ref(lwork), ctypes.byref(info))
    return tau, info.value


def ormqr(reflectors: np.ndarray, tau: np.ndarray, c: np.ndarray) -> int:
    """``c`` overwritten by Q c (``dormqr``, from the left, not transposed),
    where Q is the product of the ``tau.size`` reflectors that ``geqrf``
    left in ``reflectors``. ``c`` is a writable Fortran-order float64 array
    with as many rows as ``reflectors``. The workspace is the optimal size a
    workspace query returns. Returns ``info``."""
    m, n = c.shape
    if reflectors.shape[0] != m or not tau.size <= min(reflectors.shape[1], m):
        raise ValueError(f"{tau.size} reflectors in a {reflectors.shape} array for a {m}-row matrix")
    args = (
        _LEFT,
        _NO_TRANSPOSE,
        _ref(m),
        _ref(n),
        _ref(tau.size),
        _memory(reflectors),
        _ref(max(m, 1)),
        _memory(tau),
        _memory(c),
        _ref(max(m, 1)),
    )
    info, query = _INT(), ctypes.c_double()
    _dormqr(*args, ctypes.byref(query), _ref(-1), ctypes.byref(info), 1, 1)
    if info.value:
        return info.value
    lwork = max(int(query.value), 1)
    _dormqr(*args, (ctypes.c_double * lwork)(), _ref(lwork), ctypes.byref(info), 1, 1)
    return info.value
