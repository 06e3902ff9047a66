"""Walk through the algebra families and print small structure tables.

Run:  python3 demos/structure_tables.py
"""

from fractions import Fraction

from zzlie import AlgebraSpec, structure_table


def show(spec, window=1, limit=6):
    print(f"--- {spec.family} alpha={spec.alpha}"
          + (f" beta={spec.beta}" if spec.beta is not None else ""))
    shown = 0
    for row in structure_table(spec, window):
        if not row["result"]:
            continue
        print(f"  [L{row['left']}, L{row['right']}] = {row['result']}")
        shown += 1
        if shown >= limit:
            print("  ...")
            break
    print()


def main():
    show(AlgebraSpec("vir", Fraction(1, 2)))
    show(AlgebraSpec("d", 1, 3))

    # the determinant-form family has no basis vector at its two punctures:
    # a bracket landing on one gives that puncture's central generator
    block = AlgebraSpec("block", 1, 2, a1=1, a2=1, a2p=1)
    print("block punctures (central degrees):", block.central_degrees())
    show(block, window=2, limit=8)

    # the c family has an abelian ideal in degrees j <= -2
    c = AlgebraSpec("c", Fraction(2, 3))
    print("both arguments deep in the ideal bracket to zero:")
    print("  [L(1,-2), L(3,-3)] =", c.basis_bracket((1, -2), (3, -3)))
    show(c, window=1)


if __name__ == "__main__":
    main()
