"""The conjugacy classes that match Frobenius evidence, from the cycle types:
the test-side reference for `surface.frobenius_class`, which reads the same
predictions from the class table, used in test_surface_kernels.py."""

from delpezzo.permgroup import fixed_points_of_power


def prediction(row, kind: str, m: int) -> int:
    """What a class predicts for a measurement over GF(q^m): the lines that
    its m-th power fixes (kind "lines"), or 1 + its m-th power's trace on the
    root lattice (kind "traces")."""
    if kind == "lines":
        return fixed_points_of_power(row.cycle_type, m)
    return 1 + row.lattice_traces[m - 1]


def matching_classes(class_table, counts: dict[int, int], traces: dict[int, int]) -> list[int]:
    """The ids of the classes whose m-th power fixes counts[m] lines and has
    trace traces[m] - 1 on the root lattice, for every level m given."""
    measured = [("lines", m, c) for m, c in counts.items()] + [("traces", m, t) for m, t in traces.items()]
    return [row.class_id for row in class_table.rows
            if all(prediction(row, kind, m) == value for kind, m, value in measured)]
