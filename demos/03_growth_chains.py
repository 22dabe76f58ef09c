"""Central measures on infinite unipotent matrices as growth chains.

Conditioning a central measure on successive corners turns the Jordan
type into a Markov chain on Young diagrams: one box is added per level,
with probabilities combining parabolic extension counts and cylinder
ratios.  The uniform (Haar) family makes all cylinders at a level equal;
degenerate families give deterministic chains; and scaled row/column
lengths converge to the measure's frequency parameters.
"""

from fractions import Fraction

from fqtraces import MeasureParams, cyl_prob, sample_trajectory
from fqtraces.cli import main
from fqtraces.measures import transition_distribution
from fqtraces.partitions import partitions_of

haar = MeasureParams.haar(2)

print("== uniform measure: flat cylinders and the first growth step ==")
for lam in partitions_of(3):
    print(f"  cylinder of {lam}: {cyl_prob(haar, lam)}")
first = dict(transition_distribution(haar, (1,)))
print(f"  (1) -> (2) with {first[(2,)]}, (1) -> (1,1) with {first[(1, 1)]}")

print()
print("== degenerate families are deterministic ==")
delta = MeasureParams.delta_identity(2)
row = MeasureParams.single_row(2)
print("  column mass:", sample_trajectory(delta, 5, seed=0))
print("  row mass:   ", sample_trajectory(row, 5, seed=0))

print()
print("== a sampled uniform trajectory ==")
traj = sample_trajectory(haar, 12, seed=7)
for level, lam in enumerate(traj):
    print(f"  level {level:2d}: {lam}")

print()
print("== growth rows always sum to one, exactly ==")
mixed = MeasureParams((Fraction(1, 4),), (Fraction(1, 4),), 2)
for lam in [(3, 1), (2, 2, 1), (4, 2, 1)]:
    dist = transition_distribution(mixed, lam)
    total = sum(p for _, p in dist)
    print(f"  from {lam}: {[(mu, str(p)) for mu, p in dist]}  total {total}")
    assert total == 1

print()
print("== law of large numbers for the uniform measure (short run) ==")
main(["lln", "--q", "2", "--measure", "haar", "--nmax", "300", "--trials", "40",
      "--seed", "2024", "--track", "3"])
print()
