"""Verify the Lie axioms on windows and symbolically.

Run:  python3 demos/verification_sweeps.py
"""

from fractions import Fraction

from zzlie import (
    AlgebraSpec,
    check_antisymmetry,
    check_grading,
    check_jacobi,
    symbolic_jacobi,
    symbolic_jacobi_D,
    symbolic_jacobi_block,
    symbol,
)


def sweep(spec, window=3):
    reports = [
        check_antisymmetry(spec, window),
        check_jacobi(spec, window),
        check_grading(spec, window),
    ]
    label = f"{spec.family}({spec.alpha}" + (
        f",{spec.beta})" if spec.beta is not None else ")"
    )
    for r in reports:
        print(f"  {label:<16} {r.check:<13} checked={r.checked_count:<6} "
              f"{'ok' if r.ok else 'VIOLATED'}")


def main():
    print("symbolic Jacobi (zero polynomial in all index symbols and parameters):")
    print("  uniform two-parameter family:", symbolic_jacobi_D())
    alpha = symbol("alpha")
    vir = symbolic_jacobi(lambda i, j, k, ell: (k - i) + (ell - j) * alpha)
    print("  rank-2 Virasoro:             ", vir)
    print("  determinant form:            ", symbolic_jacobi_block())
    print()

    print("windowed sweeps, exact rational arithmetic:")
    sweep(AlgebraSpec("vir", Fraction(1, 2)))
    sweep(AlgebraSpec("d", 1, 3))
    sweep(AlgebraSpec("c", Fraction(2, 3)))
    sweep(AlgebraSpec("cbar", Fraction(2, 3)))

    # symbolic central parameters: one sweep certifies every value at once
    sym = AlgebraSpec("block", 1, 2,
                      a1=symbol("a1"), a2=symbol("a2"), a2p=symbol("a2p"))
    sweep(sym, window=2)


if __name__ == "__main__":
    main()
