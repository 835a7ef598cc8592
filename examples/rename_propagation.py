"""Rename propagation and weighted distances.

Section 1: *"if name of a feature is changed, the natural way to recover
consistency is to change the name of that feature in all the remaining
configurations and in the feature model"* — the shape
``→F^i_{FM×CF^{k-1}}``.

This example also exercises the paper's future-work knob (implemented
here): *weighted* tuple distances. With a heavy weight on the feature
model, the cheapest repair flips back the user's rename instead of
propagating it — showing how weights steer which models absorb change.

Run:  python examples/rename_propagation.py
"""

from repro.enforce import TupleMetric, all_but, enforce
from repro.featuremodels import scenario_rename


def show(label: str, repair) -> None:
    print(f"{label}: distance {repair.distance}, changed "
          f"{', '.join(sorted(repair.changed)) or 'nothing'}")
    for param in sorted(repair.models):
        names = sorted(str(o.attr("name")) for o in repair.models[param].objects)
        print(f"    {param}: {names}")


def main() -> None:
    scenario = scenario_rename(k=2)
    transformation = scenario.transformation
    print(f"scenario: {scenario.description}")
    print()

    targets = all_but(transformation, "cf1")

    # Uniform weights: the paper's naive summed distance. The repair
    # renames 'core' -> 'kernel' in the feature model and cf2.
    repair = enforce(transformation, scenario.after_update, targets, engine="sat")
    show("uniform weights", repair)
    print()

    # Weighted: make feature-model changes five times as expensive. The
    # cheapest consistent tuple now *reverts* nothing in fm... unless
    # reverting is impossible — fm is a target, cf1 (the edited model)
    # is frozen, so the rename still has to propagate; the weights
    # change the *cost* but not the witness here. Contrast with making
    # configuration changes expensive instead.
    heavy_fm = TupleMetric({"fm": 5})
    repair = enforce(
        transformation, scenario.after_update, targets, engine="sat", metric=heavy_fm
    )
    show("fm changes x5", repair)
    print()

    heavy_cfs = TupleMetric({"cf2": 5})
    repair = enforce(
        transformation, scenario.after_update, targets, engine="sat", metric=heavy_cfs
    )
    show("cf2 changes x5", repair)

    # Least change alone does not determine the repair: enumerate the
    # whole optimum set (a reproduction finding — README claim table, E6).
    from repro.check import Checker
    from repro.enforce import enumerate_repairs
    from repro.solver.bounded import Scope

    cost, repairs = enumerate_repairs(
        Checker(transformation),
        scenario.after_update,
        targets,
        scope=Scope(extra_objects=1),
    )
    print(f"\nall minimal repairs (distance {cost}): {len(repairs)} distinct")
    for i, repaired in enumerate(repairs, start=1):
        fm = {
            str(o.attr("name")): bool(o.attr("mandatory"))
            for o in repaired["fm"].objects
        }
        cf2 = sorted(str(o.attr("name")) for o in repaired["cf2"].objects)
        print(f"  #{i}: fm={fm}  cf2={cf2}")


if __name__ == "__main__":
    main()
