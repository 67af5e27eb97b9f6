"""Sweep every valid discriminant up to 57 and print the classification.

Each discriminant r = 0, 1, 4 mod 8 in the range gets a canonical quartic
model (b, c), and classify_aut sorts it into one of four group types:

    Trivial   no automorphisms beyond the identity
    Z2        one extra involution
    Z2starZ2  two involutions generating an infinite dihedral group
    Z         a single infinite-order generator

Run with: python demos/partition_tour.py
"""
from quartaut import (
    QuarticLattice,
    admissible_discriminants,
    canonical_bc,
    classify_aut,
)


def main():
    admissible = admissible_discriminants().admissible
    buckets: dict[str, list[int]] = {}
    print(f"{'r':>4}  {'(b, c)':>10}  {'tag':<10}  gens  ample square-2 axes")
    for r in range(9, 58):
        if r % 8 not in (0, 1, 4):
            continue
        b, c = canonical_bc(r)
        L = QuarticLattice(b, c)
        kind = classify_aut(L)
        axes = list(kind.axes)
        note = "" if r in admissible else "   <- no quartic carries this r"
        if r in admissible:
            buckets.setdefault(kind.tag, []).append(r)
        print(
            f"{r:>4}  {str((b, c)):>10}  {kind.tag:<10}"
            f"  {len(kind.generators):>4}  {axes if axes else '-'}{note}"
        )

    print()
    print("partition of the admissible discriminants:")
    for tag in ("Trivial", "Z2", "Z2starZ2", "Z"):
        print(f"  {tag:<10} {sorted(buckets.get(tag, []))}")


if __name__ == "__main__":
    main()
