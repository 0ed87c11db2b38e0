"""Every file hdgbem writes, and the mesh file it reads back.

In order: the text kernel, which prints whole arrays of reals as printf's
``%.16e``/``%.17e`` (``_format_e``) and joins them into rows (``_join``);
the interior field as legacy VTK and a coefficient CSV; the interface
densities, iteration log, study, sweep and mesh-report tables; and the
plain-text mesh format with its reader.
"""

import functools

import numpy as np

from .basis import TriangleBasis
from .errors import MeshingFailureError
from .geometry import TAG_INNER, TAG_OUTER, UnfittedMesh

# text tables, four chars to a uint32: "0000".."9999", and the exponents
# -399..399 as sign and three digits, 0 for a missing hundreds ("+", 0, "0", "5")
_DIGITS4 = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10
            + ord("0")).astype(np.uint8).view(np.uint32).ravel()
_EXPONENT4 = np.frombuffer(b"".join(t[:1] + b"\0" * (4 - len(t)) + t[1:] for t in (
    b"%+03d" % e for e in range(-399, 400))), np.uint32)
# values per pass of the float kernel, so that its temporaries stay in cache
_BLOCK = 1 << 14


@functools.lru_cache(maxsize=None)
def _pow10(s):
    """10^s as a double-double (hi, lo): hi + lo is within 2^-106 of it."""
    num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
    hi = num / den                       # int / int is correctly rounded
    a, b = hi.as_integer_ratio()
    return hi, (num * b - a * den) / (den * b)


def _split(a):
    """Dekker's split a = hi + lo into two 26-bit halves (exact)."""
    c = 134217729.0 * a                                      # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _scaled(v, s):
    """v 10^s as p + r: p = fl(v 10^s), r its tail to 4e-14 where v 10^s < 1e18.

    r is Dekker's TwoProduct error of v hi plus v lo, for 10^s = hi + lo.
    """
    base = int(s.min(initial=0))
    hi = np.zeros(int(s.max(initial=0)) - base + 1)
    lo = np.zeros_like(hi)
    for i in np.flatnonzero(np.bincount(s - base)):
        hi[i], lo[i] = _pow10(base + int(i))
    (hh, hl), k = _split(hi), s - base
    p = v * hi[k]
    vh, vl = _split(v)
    return p, (((vh * hh[k] - p) + vh * hl[k] + vl * hh[k]) + vl * hl[k]) + v * lo[k]


def _format_e(x, P):
    """``'%.{P}e' % x`` of every x as a char matrix x.shape + (P+8,), P 16 or 17.

    A row reads: sign, lead digit, '.', P digits, 'e', exponent sign and
    three exponent digits, with byte 0 for a character the text lacks (a
    plus sign, a third exponent digit below 100).  The digits are
    m = round(|x| 10^s) for s = P - floor(log10 |x|), a P+1 digit integer:
    in ``_scaled``, p is an integer and r its exact tail to 4e-14, so
    p + rint(r) is the correctly rounded m unless r lies within 1e-12 of
    a half.  Those (every exact tie among them), non-finite x and |x|
    outside [1e-280, 1e280] (where the split could overflow) are formatted
    by ``%`` one by one.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((x.size, P + 8), np.uint8)
    flat = x.ravel()
    for i in range(0, x.size, _BLOCK):
        _format_block(flat[i:i + _BLOCK], P, out[i:i + _BLOCK])
    return out.reshape(x.shape + (P + 8,))


def _format_block(x, P, out):
    """``_format_e`` of a 1-D block x into out (len(x), P+8)."""
    a = np.abs(x)
    zero = a == 0
    normal = (a >= 1e-280) & (a <= 1e280)
    v = np.where(normal, a, 1.0)          # a stand-in where % or zero writes the row
    s = P - np.floor(np.log10(v)).astype(np.int64)
    p, r = _scaled(v, s)
    while True:
        # log10 can miss by one next to a power of ten: step s until
        # 10^P - 0.03 <= v 10^s < 10^(P+1) - 0.1.  In the margins both
        # choices of s print the same digits, and they keep the two tests
        # from sending an entry back and forth.
        shift = ((p - 10.0 ** (P + 1)) + r >= -0.1).astype(np.int64) \
            - ((p - 10.0 ** P) + r < -0.03)
        bad = np.flatnonzero(shift)
        if not len(bad):
            break
        s[bad] -= shift[bad]
        p[bad], r[bad] = _scaled(v[bad], s[bad])
    n = np.rint(r)
    m = p.astype(np.int64) + n.astype(np.int64)
    carry = m == 10 ** (P + 1)                               # 9.99... rounds up
    np.putmask(m, carry, 10 ** P)
    np.putmask(m, zero, 0)
    e10 = P - s + carry

    out[:, 0] = np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
    groups = np.empty((len(x), P // 4), np.uint32)           # filled from the right
    for j in range(P // 4 - 1, -1, -1):
        last = m // 10000
        groups[:, j] = _DIGITS4[m - 10000 * last]
        m = last
    out[:, P % 4 + 3:P + 3] = groups.view(np.uint8)
    for j in range(P % 4 + 2, 2, -1):
        last = m // 10
        out[:, j] = m - 10 * last + ord("0")
        m = last
    out[:, 1] = m + ord("0")
    out[:, 2] = ord(".")
    out[:, P + 3] = ord("e")
    out[:, P + 4:] = _EXPONENT4[e10 + 399].view(np.uint8).reshape(-1, 4)
    for i in np.flatnonzero(~(normal | zero) | (np.abs(np.abs(r - n) - 0.5) < 1e-12)):
        text = (f"%.{P}e" % x[i]).encode()
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)


def _format_int(a):
    """Decimal text of non-negative integers as a char matrix a.shape + (w,), 0 = no character."""
    a = np.asarray(a, dtype=np.int64)
    w = len(str(int(a.max(initial=0))))
    out = np.empty(a.shape + (w,), np.uint8)
    rest = a
    for j in range(w - 1, -1, -1):
        last = rest // 10
        # a leading zero is no character; the ones digit always is one
        out[..., j] = np.where((a >= 10 ** (w - 1 - j)) | (j == w - 1),
                               rest - 10 * last + ord("0"), 0)
        rest = last
    return out


def _join(*columns):
    """The rows of side-by-side columns as one text, its 0 bytes dropped.

    A column is a char matrix (n, w), one row per output row, or a bytes
    literal repeated on every row.
    """
    n = next(len(col) for col in columns if not isinstance(col, bytes))
    cols = [np.frombuffer(col, np.uint8) if isinstance(col, bytes) else col
            for col in columns]
    table = np.empty((n, sum(col.shape[-1] for col in cols)), np.uint8)
    at = 0
    for col in cols:
        table[:, at:at + col.shape[-1]] = col
        at += col.shape[-1]
    flat = table.ravel()
    return flat[flat != 0].tobytes()


def _reference_lattice(r):
    """Lattice (i/r, j/r), i + j <= r, and its r^2 congruent triangles."""
    ij = [(i, j) for i in range(r + 1) for j in range(r + 1 - i)]
    idx = {p: n for n, p in enumerate(ij)}
    tris = []
    for i, j in ij:
        if i + j < r:
            tris.append((idx[(i, j)], idx[(i + 1, j)], idx[(i, j + 1)]))
        if i + j < r - 1:
            tris.append((idx[(i + 1, j)], idx[(i + 1, j + 1)], idx[(i, j + 1)]))
    return np.array(ij, dtype=float) / r, np.array(tris)


def write_vtk(field, path):
    """Legacy ASCII unstructured-grid file with u point data and q vectors.

    Each element is subdivided into k^2 congruent triangles (one for k = 0)
    and the discontinuous fields are written as per-element point data; the
    basis is evaluated once on the shared reference lattice.  Reals are
    printf's ``%.16e``, byte for byte (``_format_e``); each section is
    formatted as one array and written before the next is built.
    """
    mesh = field.mesh
    nodes, tris = _reference_lattice(max(field.k, 1))
    vals = TriangleBasis(field.k).eval(nodes)                        # (n, d)
    pts = mesh.physical_points(nodes).reshape(-1, 2)
    u = (field.U @ vals.T).ravel()
    q = np.swapaxes(field.Q @ vals.T, 1, 2).reshape(-1, 2)
    cells = (len(nodes) * np.arange(len(mesh.elements))[:, None, None] + tris).reshape(-1, 3)

    def xy_rows(a):                          # "%.16e %.16e 0.0\n" per row
        xy = _format_e(a, 16)
        return _join(xy[:, 0], b" ", xy[:, 1], b" 0.0\n")

    with open(path, "wb") as fh:
        fh.write(b"# vtk DataFile Version 3.0\ninterior field\nASCII\n"
                 b"DATASET UNSTRUCTURED_GRID\n" + f"POINTS {len(pts)} double\n".encode())
        fh.write(xy_rows(pts))
        fh.write(f"CELLS {len(cells)} {4 * len(cells)}\n".encode())
        ids = _format_int(cells)
        fh.write(_join(b"3 ", ids[:, 0], b" ", ids[:, 1], b" ", ids[:, 2], b"\n"))
        fh.write(f"CELL_TYPES {len(cells)}\n".encode() + b"5\n" * len(cells))
        fh.write(f"POINT_DATA {len(pts)}\nSCALARS u double 1\nLOOKUP_TABLE default\n".encode())
        fh.write(_join(_format_e(u, 16), b"\n"))
        fh.write(b"VECTORS q double\n")
        fh.write(xy_rows(q))


def write_coefficients_csv(field, path):
    """Regression dump: one row per element with its coefficient block.

    The columns are the element id, then Q's x and y blocks and U, each
    real as printf's ``%.17e`` (``_format_e``), which round-trips exactly.
    """
    M, d = field.U.shape
    header = ["element"] + [f"qx_{i}" for i in range(d)] \
        + [f"qy_{i}" for i in range(d)] + [f"u_{i}" for i in range(d)]
    vals = _format_e(np.concatenate([field.Q[:, 0], field.Q[:, 1], field.U], axis=1), 17)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.write(_join(_format_int(np.arange(M)),
                       *[col for j in range(3 * d) for col in (b",", vals[:, j])], b"\n"))


def write_density_csv(poly, path):
    """Rows of (mode index, cosine coefficient, sine coefficient), reals as ``%.17e``."""
    sin = np.zeros(poly.n + 1)
    sin[1:poly.n] = poly.sin
    vals = _format_e(np.column_stack([poly.cos, sin]), 17)
    with open(path, "wb") as fh:
        fh.write(b"mode,cos,sin\n")
        fh.write(_join(_format_int(np.arange(poly.n + 1)),
                       b",", vals[:, 0], b",", vals[:, 1], b"\n"))


def write_iteration_log(state, path):
    """CSV rows (iter, update-norm, u_inf estimate, interior residual).

    One row per iteration.  The interior residual is the worst residual of
    the solves behind the iteration's flux: uhat0's and those of the span
    of data directions that serves it (``InterfaceMap.apply``).  The
    closing trace of a converged run has no row: its true residual is the
    last entry of ``state.residual_history``.
    """
    with open(path, "w") as fh:
        fh.write("iter,update_norm,u_inf,interior_residual\n")
        for i, (upd, u_inf, res) in enumerate(zip(
                state.history, state.u_inf_history, state.residual_history), 1):
            fh.write(f"{i},{upd:.17e},{u_inf:.17e},{res:.3e}\n")


def write_study_csv(report, path, full=False):
    """A ``StudyReport`` as CSV, one row per level; ``full`` adds the mesh,
    density and convergence columns.  Rates are ``%.6f``, empty where
    ``report.rate`` is undefined; other reals ``%.10e``.
    """
    cols = list(report.columns)
    if full:
        cols += ["mesh_h", "n", "dofs", "err_g", "err_uinf", "converged"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for i, row in enumerate(report.rows):
            row = dict(row, level=i)
            for key in ("q", "u"):
                rate = report.rate(f"err_{key}", i)
                row[f"rate_{key}"] = "" if rate is None else f"{rate:.6f}"
            fh.write(",".join(f"{v:.10e}" if isinstance(v, float) else str(v)
                              for v in (row.get(c, "") for c in cols)) + "\n")


def write_sweep_csv(rows, path):
    with open(path, "w") as fh:
        fh.write("omega,converged,iterations,ratio\n")
        for r in rows:
            fh.write(f"{r['omega']:.6f},{int(r['converged'])},"
                     f"{r['iterations']},{r['ratio']:.10e}\n")


def write_mesh_report(mesh, proximity, h_target, path):
    """One-row CSV of a built mesh: target and achieved h, elements and ``proximity_parameter``."""
    with open(path, "w") as fh:
        fh.write("h_target,mesh_h,elements,R_h,normal_deviation\n")
        fh.write(f"{h_target:.10e},{mesh.h:.10e},{len(mesh.elements)},"
                 f"{proximity.R_h:.10e},{proximity.normal_deviation:.10e}\n")


# ---------------------------------------------------------------------------
# plain-text mesh format
# ---------------------------------------------------------------------------

def save_mesh(mesh, path):
    """Write the plain-text mesh format.

    Header ``vertices N / elements M / boundary B / fitted F`` with F 1 for
    a fitted mesh and 0 otherwise, then coordinate rows, 0-based element
    index triples, and boundary rows ``edge-id tag`` with tag 0 for
    outer-facing and 1 for inner-facing edges.  Edge ids refer to the
    canonical lexicographic edge ordering.
    """
    lines = [f"vertices {len(mesh.vertices)} / elements {len(mesh.elements)} "
             f"/ boundary {len(mesh.boundary_edge_ids)} / fitted {int(mesh.fitted)}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for tri in mesh.elements:
        lines.append(f"{tri[0]} {tri[1]} {tri[2]}")
    for e in mesh.boundary_edge_ids:
        lines.append(f"{e} {mesh.boundary_tags[e]}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mesh(path):
    """Read a mesh written by save_mesh and restore its boundary tags.

    A malformed file, a row past the declared tables, a non-finite vertex
    coordinate, an element vertex index outside the vertex table or a
    boundary tag other than 0 or 1 raises MeshingFailureError naming the file.
    """
    with open(path) as fh:
        header = fh.readline().split()
        try:
            n_v, n_e, n_b = int(header[1]), int(header[4]), int(header[7])
            fitted = {"fitted 0": False, "fitted 1": True}[" ".join(header[9:])]
        except (IndexError, KeyError, ValueError) as exc:
            raise MeshingFailureError(f"malformed mesh header in {path}") from exc

        def table(rows, cols, conv):
            return np.array([[conv(t) for t in fh.readline().split()] for _ in range(rows)],
                            dtype=conv).reshape(rows, cols)
        try:
            verts, elems, tags = table(n_v, 2, float), table(n_e, 3, int), table(n_b, 2, int)
            if fh.read().strip():
                raise ValueError("rows past the declared tables")
        except ValueError as exc:
            raise MeshingFailureError(f"truncated or malformed mesh body in {path}") from exc
    if not np.all(np.isfinite(verts)):
        raise MeshingFailureError(f"non-finite vertex coordinate in {path}")
    if np.any((elems < 0) | (elems >= n_v)):
        raise MeshingFailureError(f"element vertex index outside [0, {n_v}) in {path}")
    mesh = UnfittedMesh(verts, elems, fitted=fitted)
    if sorted(tags[:, 0].tolist()) != sorted(mesh.boundary_edge_ids.tolist()):
        raise MeshingFailureError(f"boundary rows in {path} do not match the mesh")
    if np.any((tags[:, 1] != TAG_OUTER) & (tags[:, 1] != TAG_INNER)):
        raise MeshingFailureError(f"boundary tag other than {TAG_OUTER} or {TAG_INNER} in {path}")
    mesh.boundary_tags[tags[:, 0]] = tags[:, 1]
    return mesh
