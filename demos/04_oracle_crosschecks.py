"""Brute force versus closed forms over an explicit small field.

Every formula in the library is backed by a verification suite that
recomputes the same quantity by exhaustive linear algebra over F_q.  This
script shows two of those comparisons in miniature and then runs the
named suites end to end.
"""

from fractions import Fraction

from fqtraces import kostka, kostka_foulkes
from fqtraces.measures import extension_count
from fqtraces.oracle import (
    FqMatrix,
    count_fixed_flags,
    ext_enumerate,
    field_make,
    unipotent_class_of,
)
from fqtraces.partitions import n_stat, partitions_of
from fqtraces import verify

q = 2
field = field_make(q)

print("== classifying the 8 one-row extensions of a transvection ==")
g = FqMatrix(field, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
lam = unipotent_class_of(g)
tally = {}
for h in ext_enumerate(g, "GLU"):
    mu = unipotent_class_of(h)
    tally[mu] = tally.get(mu, 0) + 1
print(f"  Jordan type of g: {lam}")
for mu, count in sorted(tally.items(), reverse=True):
    formula = extension_count(lam, mu, q)
    print(f"  type {mu}: {count} extensions, formula gives {formula}")
    assert formula == count

print()
print("== flag counts vs charge polynomials for a regular unipotent ==")
j3 = FqMatrix(field, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
nu = unipotent_class_of(j3)
for mu in partitions_of(3):
    flags = count_fixed_flags(j3, mu)
    predicted = sum(
        kostka(lam, mu)
        * Fraction(q) ** n_stat(nu)
        * kostka_foulkes(lam, nu)(Fraction(1, q))
        for lam in partitions_of(3)
    )
    print(f"  flags of shape {mu}: {flags} counted, {predicted} predicted")
    assert flags == predicted

print()
print("== the full named suites ==")
for name in ("dimension-squares", "spherical", "class-coverage"):
    rows = verify.run_suite(name)
    passed = all(row["status"] == "pass" for row in rows)
    print(f"  {name}: {'PASS' if passed else 'FAIL'} ({len(rows)} checks)")
    assert passed
