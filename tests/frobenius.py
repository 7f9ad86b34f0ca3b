"""The conjugacy classes that match Frobenius evidence, from the cycle types:
the test-side reference for `surface.frobenius_class`, which reads the same
predictions from the class table, used in test_surface_kernels.py."""

from delpezzo.permgroup import fixed_points_of_power


def matching_classes(class_table, counts: dict[int, int], traces: dict[int, int]) -> list[int]:
    """The ids of the classes whose m-th power fixes counts[m] lines and has
    trace traces[m] - 1 on the root lattice, for every level m given."""
    out = []
    for row in class_table.rows:
        if any(fixed_points_of_power(row.cycle_type, m) != c for m, c in counts.items()):
            continue
        if any(1 + row.lattice_traces[m - 1] != t for m, t in traces.items()):
            continue
        out.append(row.class_id)
    return out
