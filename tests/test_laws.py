"""Law battery on a seeded random corpus, plus the frozen counterexample
documenting where the literal partition/fiber claims genuinely diverge."""

import hashlib
import json
import re
from itertools import islice

import pytest

from fsmabs import laws
from fsmabs.analysis import scope
from fsmabs.behavior import IntervalSpec, external_strings
from fsmabs.errors import InvalidSpec, NotAccepted
from fsmabs.fuzz import FuzzConfig, machine_stream, run_fuzz, shrink_counterexample
from fsmabs.laws import LAWS, Law, check_laws, fiber_partition
from fsmabs.machine import StateMachine, validate
from fsmabs.qba import is_fixed_point, partition_at
from fsmabs.relations import CanonicalKind, canonical_relation, inverse, verify_simulation

from .conftest import ACCEPTANCE_HEAD, UY, Y, five_state_machine, self_loop_machine
from .literal_laws import LITERAL_COMPANIONS

#: Literal forms whose equivalences do not hold on every accepted machine;
#: each has a corrected companion law in the battery that always does.
CONTESTED = set(LITERAL_COMPANIONS)

CORPUS_CONFIG = FuzzConfig(seed=1009, count=40, max_states=5, max_inputs=2, max_outputs=3)


@pytest.fixture(scope="module")
def corpus():
    return list(machine_stream(CORPUS_CONFIG))


def test_generator_is_deterministic():
    first = list(machine_stream(FuzzConfig(seed=5, count=8)))
    second = list(machine_stream(FuzzConfig(seed=5, count=8)))
    assert first == second


def test_generator_produces_accepted_machines(corpus):
    for machine in corpus:
        assert validate(machine).accepted


def test_sound_laws_hold_on_corpus(corpus):
    for machine in corpus:
        failures = [
            (name, detail)
            for name, detail in check_laws(machine, levels=(1, 2, 3))
            if name not in CONTESTED
        ]
        assert not failures, failures


def test_laws_hold_on_worked_examples():
    for machine in (five_state_machine(), self_loop_machine()):
        assert check_laws(machine, levels=(1, 2, 3)) == []


def frozen_fiber_counterexample() -> StateMachine:
    """Minimal accepted machine on which refinement splits strictly finer
    than the future-window fibers: s0 branches into two states whose window
    sets are nested, so the union over successors hides the branching."""
    return StateMachine(
        states=("s0", "s1", "s2"),
        inputs=("u0",),
        outputs=("y0", "y1"),
        initial=("s0",),
        transitions=(
            ("s0", "u0", "y0", "s1"),
            ("s0", "u0", "y0", "s2"),
            ("s1", "u0", "y0", "s2"),
            ("s2", "u0", "y0", "s2"),
            ("s2", "u0", "y1", "s2"),
        ),
    )


def test_fiber_counterexample_is_genuine():
    machine = frozen_fiber_counterexample()
    assert validate(machine).accepted
    # Identical future-window sets for s0 and s1 at l = 2 ...
    e = {
        x: set(external_strings(machine, Y, x, IntervalSpec(2, 2)))
        for x in machine.states
    }
    assert e["s0"] == e["s1"] != e["s2"]
    # ... yet the refinement separates them.
    assert partition_at(machine, 2).cells == (("s0",), ("s1",), ("s2",))
    assert fiber_partition(machine, 2).cells == (("s0", "s1"), ("s2",))
    # The refinement partition is a fixed point while the inverse cell map
    # is not a simulation, so the literal fixed-point characterization and
    # the literal cell/fiber equality both fail here.
    assert is_fixed_point(machine, partition_at(machine, 2))
    assert not is_fixed_point(machine, fiber_partition(machine, 2))
    canon = canonical_relation(CanonicalKind.STATE_TO_QUOTIENT, machine, l=2)
    assert not verify_simulation(canon.right, canon.left, Y, inverse(canon))
    failed = dict(check_laws(machine, levels=(2,)))
    assert set(failed) == {"quotient-backward", "partition-fibers"}


def frozen_diamond_prefix_counterexample() -> StateMachine:
    """Two initial branches emit different first symbols; the all-diamond
    prefix they share is not anchorable once the window anchor moves into
    the future, so the unrestricted joint predicate over-counts."""
    return StateMachine(
        states=("s0", "s1", "s2"),
        inputs=("u0",),
        outputs=("y0", "y1"),
        initial=("s0", "s1"),
        transitions=(
            ("s0", "u0", "y0", "s2"),
            ("s1", "u0", "y1", "s2"),
            ("s2", "u0", "y0", "s0"),
        ),
    )


def test_diamond_prefix_counterexample_is_genuine():
    from fsmabs.behavior import IntervalSpec, dominoes
    from fsmabs.laws import anchored_unique_extension
    from fsmabs.salca import is_future_unique, is_sbalc, joint_fu_sbalc

    machine = frozen_diamond_prefix_counterexample()
    assert validate(machine).accepted
    spec = IntervalSpec(2, 1)
    # The literal joint predicate fails only via the diamond-padded pair.
    assert not joint_fu_sbalc(machine, Y, spec)
    padded = [w for w in dominoes(machine, Y, 3) if str(w).startswith("<>.<>")]
    assert len(padded) == 2  # the offending shared-prefix pair
    # Both constituent predicates hold, as does the anchored form.
    assert is_future_unique(machine, Y, IntervalSpec(2, 2))
    assert is_sbalc(machine, Y, spec)
    assert anchored_unique_extension(machine, Y, spec)
    failed = {name for name, _ in check_laws(machine, levels=(2,))}
    assert "joint-predicate-conjunction" in failed
    assert "anchor-shift-backward" in failed
    assert "anchor-shift-backward-anchored" not in failed
    assert "joint-predicate-implications" not in failed


def small_diamond_prefix_counterexample() -> StateMachine:
    """The fewest-state form of the diamond-prefix counterexample: two
    initial states emit different first outputs into the same state."""
    return StateMachine(
        states=("s0", "s1"),
        inputs=("u0",),
        outputs=("y0", "y1"),
        initial=("s0", "s1"),
        transitions=(
            ("s0", "u0", "y0", "s0"),
            ("s1", "u0", "y1", "s0"),
        ),
    )


def test_small_diamond_prefix_counterexample_is_genuine():
    machine = small_diamond_prefix_counterexample()
    assert validate(machine).accepted
    failed = dict(check_laws(machine, (1, 2, 3)))
    # Their companions, anchor-shift-backward-anchored and
    # joint-predicate-implications, hold.
    assert set(failed) == {"anchor-shift-backward", "joint-predicate-conjunction"}
    for detail in failed.values():
        assert detail.endswith(" at mode=y l=2 m=1"), detail


def test_laws_search_for_no_relation_counterexample(monkeypatch):
    """The relation laws need a verdict, not a witness: over the head of
    the acceptance stream no law names a failing (pair, transition)."""
    from fsmabs import relations

    calls = 0
    real = relations._first_failure

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(relations, "_first_failure", counted)
    for machine in islice(machine_stream(ACCEPTANCE_HEAD), 10):
        with scope():
            check_laws(machine, (1, 2, 3))
    assert calls == 0


def test_forward_maps_verify_alike_over_outputs_and_full_labels(corpus):
    """``state-to-abstract-forward`` and ``quotient-forward`` check over the
    site's mode: at the outputs-only sites, full (u, y) labels give the same
    verdicts, so neither law depends on the label mode."""
    kinds = [(CanonicalKind.STATE_TO_ABSTRACT, l, m) for l in (1, 2, 3) for m in range(l + 1)]
    kinds += [(CanonicalKind.STATE_TO_QUOTIENT, l, 0) for l in (1, 2, 3)]
    verdicts = set()
    for machine in corpus:
        with scope():
            for kind, l, m in kinds:
                canon = canonical_relation(kind, machine, Y, l, m)
                over_y = bool(verify_simulation(canon.left, canon.right, Y, canon))
                assert over_y == bool(verify_simulation(canon.left, canon.right, UY, canon))
                verdicts.add(over_y)
    assert verdicts == {True, False}


def test_refinement_always_refines_fibers(corpus):
    for machine in corpus:
        for l in (1, 2, 3):
            fibers = [frozenset(c) for c in fiber_partition(machine, l).cells]
            for cell in partition_at(machine, l).cells:
                assert any(frozenset(cell) <= fiber for fiber in fibers)


def test_shrinking_preserves_failure():
    machine = frozen_fiber_counterexample()
    small = shrink_counterexample(machine, "partition-fibers", levels=(2,))
    assert validate(small).accepted
    failed = {name for name, _ in check_laws(small, levels=(2,))}
    assert "partition-fibers" in failed
    assert len(small.states) <= len(machine.states)
    assert len(small.transitions) <= len(machine.transitions)


def test_shrinking_names_an_unknown_law():
    with pytest.raises(InvalidSpec, match="^unknown law 'no-such-law'$"):
        shrink_counterexample(frozen_fiber_counterexample(), "no-such-law", levels=(2,))


def test_shrinking_propagates_a_crashing_law(monkeypatch):
    def crash(machine, levels):
        raise RuntimeError("law crashed")

    monkeypatch.setattr(laws, "LAWS", (Law("crashing", crash),))
    with pytest.raises(RuntimeError, match="law crashed"):
        shrink_counterexample(frozen_fiber_counterexample(), "crashing", levels=(2,))


def test_shrinking_skips_candidates_a_law_rejects(monkeypatch):
    def reject(machine, levels):
        raise NotAccepted("candidate rejected")

    monkeypatch.setattr(laws, "LAWS", (Law("rejecting", reject),))
    machine = frozen_fiber_counterexample()
    assert shrink_counterexample(machine, "rejecting", levels=(2,)) == machine


def test_run_fuzz_reports_counts():
    report = run_fuzz(FuzzConfig(seed=3, count=6, max_states=4), shrink=False)
    total = len(report.machines)
    assert total == 6
    for law in LAWS:
        assert 0 <= report.passes[law.name] <= total
        if law.name not in CONTESTED:
            assert report.passes[law.name] == total
    lines = report.summary_lines()
    assert any(line.startswith("realization-all-anchors: 6/6") for line in lines)


# -- pinned battery ----------------------------------------------------------------

#: sha256 of ``fsmabs fuzz --seed 20260809 --count 60 --l 3`` stdout,
#: shrinking on.
FUZZ_60_DIGEST = "51a88334bbeb911dda05121c66157f4996f56c9336470581a3c3c5c3e941921c"

#: sha256 of the JSON list of ``check_laws(m, (1, 2, 3))`` over the first
#: 20 battery machines with every odd-sized relation's verdict negated.
FLIPPED_BATTERY_DIGEST = "e150b809a1a6d970e515992b21e4dcc167327c898a5d3703a4fa070f7f8e0a34"


def test_fuzz_output_pinned(capsys):
    from fsmabs.cli import main

    assert main(["fuzz", "--seed", "20260809", "--count", "60", "--l", "3"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FUZZ_60_DIGEST


def test_relation_law_failures_pinned(monkeypatch):
    """Negating the verdict of every odd-sized relation makes the relation
    laws fail on varied sites, which pins each law's site order and
    detail text."""
    real = laws.verify_simulation

    def flipped(left, right, mode, relation, **kwargs):
        verdict = bool(real(left, right, mode, relation, **kwargs))
        return verdict != (len(relation) % 2 == 1)

    monkeypatch.setattr(laws, "verify_simulation", flipped)
    results = []
    for machine in machine_stream(FuzzConfig(seed=20260809, count=20)):
        with scope():
            results.append(check_laws(machine, (1, 2, 3)))
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert digest == FLIPPED_BATTERY_DIGEST


#: sha256 of the JSON list of ``check_laws(m, (1, 2, 3))`` over the first
#: 40 battery machines with the laws' callees perturbed
#: (``_perturb_callees``).
PERTURBED_BATTERY_DIGEST = "8ab36ac1b788a33c7548bf25e79611688c6c67e6add6f624463a6833feeb4577"


def _perturb_callees(monkeypatch):
    """Patch the ``laws`` module globals the laws call: negate predicate
    and ordering verdicts on a key of machine size and window length, and
    hand the laws altered partitions, successor tables, domino sets,
    standard realizations and quotient cells."""
    from fsmabs.behavior import DominoSet
    from fsmabs.qba import Partition
    from fsmabs.salca import AbstractMachine

    def size(machine):
        return len(machine.states)

    def flip(name, key):
        real = getattr(laws, name)

        def flipped(*args, **kwargs):
            return bool(real(*args, **kwargs)) != bool(key(*args))

        monkeypatch.setattr(laws, name, flipped)

    flip("verify_simulation",
         lambda left, right, mode, relation: (len(relation) + size(right)) % 3 == 0)
    flip("behavior_equal", lambda a, b, mode: size(a) % 2 == 1)
    flip("behavior_included", lambda a, b, mode: (size(a) + size(b)) % 3 == 0)
    flip("is_deterministic", lambda machine, mode: size(machine) % 4 == 1)
    flip("saturation_check", lambda machine, mode, l: (size(machine) + l) % 2 == 0)
    flip("is_future_unique", lambda machine, mode, s: (size(machine) + s.l + s.m) % 5 == 0)
    flip("is_sbalc", lambda machine, mode, s: (size(machine) + s.l) % 3 == 0)
    flip("joint_fu_sbalc", lambda machine, mode, s: (size(machine) + s.l + s.m) % 3 == 1)
    flip("is_domino_consistent", lambda machine, l: (size(machine) + l) % 2 == 0)
    flip("is_fixed_point", lambda machine, p: (size(machine) + len(p)) % 3 == 0)
    flip("bisimilar", lambda a, b, mode: size(b) % 3 == 0)
    flip("simulates", lambda a, b, mode: size(a) % 3 == 1)
    flip("_unique_extensions", lambda machine, mode, l, k: (size(machine) + l + k) % 4 == 0)

    def merged(partition):
        """The partition with its first two cells joined."""
        cells = partition.cells
        if len(cells) < 2:
            return partition
        return Partition((cells[0] + cells[1],) + cells[2:], partition.level)

    def patch(name, wrap):
        monkeypatch.setattr(laws, name, wrap(getattr(laws, name)))

    patch("partition_at", lambda real: lambda machine, l: (
        merged(real(machine, l)) if (size(machine) + l) % 3 == 2 else real(machine, l)))
    patch("refine", lambda real: lambda machine, p: (
        merged(real(machine, p)) if (size(machine) + p.level) % 4 == 3 else real(machine, p)))

    def split_fibers(real):
        def fiber_partition(machine, l):
            partition = real(machine, l)
            if (size(machine) + l) % 4 != 1:
                return partition
            for i, cell in enumerate(partition.cells):
                if len(cell) > 1:
                    cells = partition.cells[:i] + (cell[:-1], cell[-1:]) + partition.cells[i + 1:]
                    return Partition(cells, partition.level)
            return partition

        return fiber_partition

    patch("fiber_partition", split_fibers)

    def short_dominoes(real):
        def dominoes(machine, mode, n):
            found = real(machine, mode, n)
            if (size(machine) + n) % 3 != 1:
                return found
            middle = len(found.codes) // 2
            codes = found.codes[:middle] + found.codes[middle + 1:]
            return DominoSet(found.length, codes, found.codec)

        return dominoes

    patch("dominoes", short_dominoes)

    def clipped_successors(real):
        def successors(machine, mode):
            table = real(machine, mode)
            if size(machine) % 5 != 2:
                return table
            return table[:-1] + (table[-1][1:],)

        return successors

    patch("successors", clipped_successors)
    patch("standard_realization", lambda real: lambda machine, l: (
        real(machine, l - 1) if l > 1 and (size(machine) + l) % 3 == 0 else real(machine, l)))

    def rotated_quotient(real):
        def build_quotient_machine(machine, l):
            quotient = real(machine, l)
            if (size(machine) + l) % 2 == 0 or len(quotient.cells) < 2:
                return quotient
            return AbstractMachine._trusted(
                quotient.states, quotient.inputs, quotient.outputs, quotient._initial,
                quotient._rows, quotient.external, cells=quotient.cells[1:] + quotient.cells[:1],
                codec=quotient.codec, window_length=quotient.window_length,
            )

        return build_quotient_machine

    patch("build_quotient_machine", rotated_quotient)


def test_perturbed_battery_pinned(monkeypatch):
    """With the laws' callees perturbed, every law fails somewhere in 40
    battery machines, and every law whose steps are sites fails past its
    first site on some machine; the digest pins each law's site order,
    short-circuits and detail text."""
    _perturb_callees(monkeypatch)
    results = []
    for machine in machine_stream(FuzzConfig(seed=20260809, count=40)):
        with scope():
            results.append(check_laws(machine, (1, 2, 3)))
    failing = {}
    for failures in results:
        for name, detail in failures:
            failing.setdefault(name, []).append(detail)
    assert set(failing) == {law.name for law in LAWS}
    past_first = re.compile(r"mode=uy|\b[ln]=[23]\b")
    for name, details in failing.items():
        if name != "refinement-chain":
            assert any(past_first.search(detail) for detail in details), name
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    assert digest == PERTURBED_BATTERY_DIGEST
