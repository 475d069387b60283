"""File exchange for matrices and benchmark records.

Matrices travel as MatrixMarket dense arrays: banner
``%%MatrixMarket matrix array real general``, optional ``%`` comment lines,
a ``rows cols`` size line, then rows*cols values in column-major order.
Values are written with 17 significant digits, so write -> read is
value-exact for every finite double.

Benchmark records travel as CSV under ``CSV_HEADER``, the field names of
``BenchRecord`` in order; column order is an external contract. The
``speedup`` column is derived from the two timings. The package only
writes records; reading them back is left to the consumer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DimensionMismatch, MalformedHeader, NonFiniteValue

MM_BANNER = "%%MatrixMarket matrix array real general"


@dataclass(frozen=True)
class BenchRecord:
    """One timed comparison: scratch QR solve vs the update path.

    Timings are nanoseconds from a monotonic clock; rel_forward_error is
    ``||x_update - x_scratch|| / ||x_scratch||``. speedup is not passed
    in: the record derives it as t_scratch_ns / t_woodbury_ns.
    """

    m: int
    n: int
    r: int
    rep: int
    seed: int
    t_scratch_ns: int
    t_woodbury_ns: int
    speedup: float = field(init=False)
    rel_forward_error: float

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.t_woodbury_ns <= 0 or self.t_scratch_ns <= 0:
            raise ValueError("timings must be positive")
        if not self.rel_forward_error >= 0:
            raise ValueError(
                f"rel_forward_error must be >= 0, got {self.rel_forward_error}"
            )
        object.__setattr__(self, "speedup", self.t_scratch_ns / self.t_woodbury_ns)


CSV_HEADER = ",".join(f.name for f in fields(BenchRecord))


def read_matrix(path) -> np.ndarray:
    """Read a MatrixMarket dense array file into an (rows, cols) array.

    Blank and ``%`` comment lines may come anywhere after the banner, and a
    line may hold any number of values.

    Raises MalformedHeader on a bad banner, size line, or value token;
    DimensionMismatch when the value count disagrees with the declared
    shape; NonFiniteValue on NaN or infinity.
    """
    with open(path, "r", encoding="ascii") as fh:
        banner = fh.readline()
        # banner tokens are case-insensitive by convention
        if [t.lower() for t in banner.split()] != [t.lower() for t in MM_BANNER.split()]:
            raise MalformedHeader(
                f"expected banner {MM_BANNER!r}, got {banner.strip()!r}"
            )
        lines = (ln for ln in map(str.strip, fh) if ln and not ln.startswith("%"))
        line = next(lines, None)
        if line is None:
            raise MalformedHeader("missing size line")
        try:
            rows, cols = map(int, line.split())
        except ValueError:
            raise MalformedHeader(
                f"size line must hold two integers, got {line!r}"
            ) from None
        if rows < 1 or cols < 1:
            raise MalformedHeader(f"dimensions must be positive, got {rows} x {cols}")
        try:
            values = [float(tok) for ln in lines for tok in ln.split()]
        except ValueError as err:
            raise MalformedHeader(f"unparseable value token ({err})") from None

    if len(values) != rows * cols:
        raise DimensionMismatch(
            f"file declares {rows} x {cols} = {rows * cols} entries "
            f"but holds {len(values)}"
        )
    data = np.array(values, dtype=np.float64)
    if not np.all(np.isfinite(data)):
        raise NonFiniteValue("matrix file contains NaN or infinite entries")
    return data.reshape((rows, cols), order="F")


def write_matrix(path, mat) -> None:
    """Write a matrix (or a vector, stored as one column) as MatrixMarket.

    Values go out column-major with 17 significant digits; reading the file
    back reproduces the input exactly.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim == 1:
        mat = mat[:, None]
    if mat.ndim != 2 or mat.shape[0] < 1 or mat.shape[1] < 1:
        raise DimensionMismatch(f"cannot write array of shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise NonFiniteValue("refusing to write NaN or infinite entries")
    rows, cols = mat.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(MM_BANNER + "\n")
        fh.write(f"{rows} {cols}\n")
        fh.writelines(f"{v:.16e}\n" for v in mat.ravel(order="F"))


def write_bench_csv(path, records) -> None:
    """Write benchmark records as CSV under the frozen header, in order."""
    records = list(records)
    if not records:
        raise ValueError("no benchmark records to write")
    names = CSV_HEADER.split(",")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            row = [getattr(rec, name) for name in names]
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
            fh.write("\n")
