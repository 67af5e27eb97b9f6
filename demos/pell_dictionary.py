"""Walk through the dictionary between divisor classes and Pell equations.

On the lattice with Gram matrix ((4, b), (b, 2c)) a class D = x1*H + y*W
has square k exactly when x = 4*x1 + b*y solves x^2 - r*y^2 = 4k with
x = b*y mod 4. So questions about classes of fixed square (is there a
(-2)-class? a square-2 axis? a degree-11 genus-14 curve?) become Pell
solvability questions, which the solver settles exactly.

Run with: python demos/pell_dictionary.py
"""
from quartaut import (
    QuarticLattice,
    class_with_square_exists,
    find_curve_class,
    fundamental_solution,
    genus_degree,
    solution_class_reps,
    solve,
)


def main():
    L = QuarticLattice(1, -2)
    print(f"model (b, c) = (1, -2), discriminant r = {L.r}")
    print()

    print("even squares k and the corresponding equations x^2 - 17 y^2 = 4k:")
    for k in (-2, 2, 6):
        sol = solve(L.r, 4 * k)
        D = class_with_square_exists(L, k)
        if sol is None:
            print(f"  k = {k:>2}:  no solution, so no class of that square")
            continue
        cls = f" -> class {D} with D^2 = {L.dot(D, D)}" if D else " (congruence fails)"
        print(f"  k = {k:>2}:  smallest solution {sol}{cls}")
    print()

    x, y = fundamental_solution(L.r)
    print(f"fundamental unit of x^2 - {L.r} y^2 = 1: (x, y) = ({x}, {y})")
    print("orbit representatives for 4k = 8 under that unit:")
    for rep in solution_class_reps(L.r, 8):
        print(f"  {rep}")
    print()

    C = find_curve_class(L, (14, 11))
    g, d = genus_degree(L, C)
    print(f"curve class of genus 14 and degree 11: C = {C}")
    print(f"  check: (g, d) = {(g, d)}, C^2 = {L.dot(C, C)},"
          f" H.C = {L.dot((1, 0), C)}")
    print("  {H, C} spans the whole lattice, so this curve realizes the model")


if __name__ == "__main__":
    main()
