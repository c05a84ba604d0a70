"""The SoA value store: kernels, store semantics, generation batching.

Pins the value layer under the evaluation hot path:

* every registered cell function's ``word_eval`` agrees with its scalar
  ``bit_eval`` oracle on every lane of a block of random words;
* :class:`repro.sim.ValueStore`'s one per-gate accessor, ``store[gid]``
  (constants included), agrees with the matrix rows ``value_rows``
  names, and simulate's rows are bit-identical to a verbatim port of
  the dict-based walk;
* ``resimulate_cone`` reuses covering stores and simulates diverged
  gate-ID sets in full, both matching ``simulate``; its event-driven
  walk equals ``simulate`` on value-neutral, PO-reaching, PO-rewire,
  constant, cell-only and crossover changes, on any vector count, and
  evaluates only the seeded gates when no value changes;
* ``evaluate_batch`` equals full ``evaluate`` per item across
  tie-heavy LAC generations, crossover generations, structure-diverged
  children, and ``jobs=2`` shard runs;
* ``evaluate_batch`` singles dedup shares one evaluation per full
  structure key;
* the reproduction PO-cone bitsets agree with ``transitive_fanin``;
* the NMED matmul agrees with the historical per-PO accumulation loop.
"""

from __future__ import annotations

import dataclasses
import pickle
import random

import numpy as np
import pytest

from reference_circuits import (
    build_adder,
    build_consumers_first_circuit,
    build_fig3_circuit,
)

from repro.cells import FUNCTIONS, default_library, split_cell_name
from repro.core import (
    EvalContext,
    LAC,
    applied_copy,
    circuit_reproduce,
    evaluate,
    evaluate_batch,
    evaluate_incremental,
    is_safe,
)
from repro.core.parallel import (
    _pack_eval,
    _unpack_eval,
    close_dispatcher,
    get_dispatcher,
)
from repro.core.reproduction import po_bits
from repro.netlist import (
    CONST0,
    CONST1,
    CircuitBuilder,
    PI_CELL,
    PO_CELL,
    relabel_compact,
    remove_dangling,
)
from repro.sim import (
    ErrorMode,
    ValueStore,
    best_switch,
    mean_error_distance,
    nmed,
    po_words,
    random_vectors,
    resimulate_cone,
    simulate,
)
from repro.sim import bitsim
from repro.sim.error import _unpack_matrix
from repro.sim.store import value_rows


@pytest.fixture(scope="module")
def library():
    return default_library()


def _ctx(circuit, library, seed=4, num_vectors=256):
    return EvalContext.build(
        circuit, library, ErrorMode.NMED, num_vectors=num_vectors, seed=seed
    )


def _legacy_simulate(circuit, vectors):
    """Verbatim port of the pre-store dict-based simulation walk."""
    values = {
        CONST0: np.zeros(vectors.num_words, dtype=np.uint64),
        CONST1: np.full(
            vectors.num_words, 0xFFFFFFFFFFFFFFFF, dtype=np.uint64
        ),
    }
    for row, pi in enumerate(circuit.pi_ids):
        values[pi] = vectors.words[row]
    for gid in circuit.topological_order():
        cell = circuit.cells[gid]
        if cell == PI_CELL:
            continue
        fis = circuit.fanins[gid]
        if cell == PO_CELL:
            values[gid] = values[fis[0]]
            continue
        function, _ = split_cell_name(cell)
        values[gid] = FUNCTIONS[function].word_eval(
            [values[fi] for fi in fis]
        )
    return values


def _lac_children(ctx, count, seed=3, allow_duplicates=False):
    """``count`` single-LAC children of the reference circuit."""
    rng = random.Random(seed)
    parent = ctx.reference_eval()
    circuit = ctx.reference
    children, seen = [], set()
    logic = circuit.logic_ids()
    attempts = 0
    while len(children) < count and attempts < 50 * count:
        attempts += 1
        target = logic[rng.randrange(len(logic))]
        found = best_switch(
            circuit, parent.values, target, ctx.vectors.num_vectors
        )
        if found is None:
            continue
        lac = LAC(target=target, switch=found[0])
        if not is_safe(circuit, lac):
            continue
        child = applied_copy(circuit, lac)
        key = child.structure_key()
        if not allow_duplicates and key in seen:
            continue
        seen.add(key)
        children.append(child)
    assert len(children) == count
    return children


def _assert_same_eval(a, b):
    assert a.fitness == b.fitness
    assert a.fd == b.fd
    assert a.fa == b.fa
    assert a.depth == b.depth
    assert a.area == b.area
    assert a.error == b.error
    assert a.per_po_error == b.per_po_error
    assert a.report.cpd == b.report.cpd
    ta, tb = a.report, b.report
    for gid in a.circuit.gate_ids():
        i, j = ta.index.row[gid], tb.index.row[gid]
        assert ta.arrival_a[i] == tb.arrival_a[j], gid
        assert ta.slew_a[i] == tb.slew_a[j], gid
        assert ta.unit_depth_a[i] == tb.unit_depth_a[j], gid
        assert (a.values[gid] == b.values[gid]).all(), gid


# ----------------------------------------------------------------------
# word kernels
# ----------------------------------------------------------------------
class TestWordEvalMany:
    """``word_eval`` over blocks of random words, lane by lane."""

    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    @pytest.mark.parametrize("batch", [1, 2, 7])
    def test_matches_word_eval_row_by_row(self, name, batch):
        fn = FUNCTIONS[name]
        rng = np.random.default_rng(sum(map(ord, name)) + batch)
        num_words = 3
        inputs = [
            rng.integers(0, 2**64, size=(batch, num_words), dtype=np.uint64)
            for _ in range(fn.arity)
        ]
        block = fn.word_eval(inputs)
        assert block.shape == (batch, num_words)
        ins = [np.unpackbits(x.view(np.uint8)) for x in inputs]
        out = np.unpackbits(block.view(np.uint8))
        for lane in range(out.size):
            bits = [int(x[lane]) for x in ins]
            assert out[lane] == fn.bit_eval(bits), (name, lane)


# ----------------------------------------------------------------------
# the store itself
# ----------------------------------------------------------------------
class TestValueStore:
    def test_simulate_matches_legacy_dict_walk(self, library):
        circuit = build_adder(6)
        vectors = random_vectors(len(circuit.pi_ids), 200, seed=9)
        store = simulate(circuit, vectors)
        legacy = _legacy_simulate(circuit, vectors)
        assert isinstance(store, ValueStore)
        for gid in legacy:
            assert np.array_equal(store[gid], legacy[gid]), gid

    def test_mapping_face(self):
        # ``store[gid]`` is the one per-gate accessor: gates through the
        # shared row index, constants through the two sentinel rows.
        circuit = build_fig3_circuit()
        vectors = random_vectors(len(circuit.pi_ids), 64, seed=0)
        store = simulate(circuit, vectors)
        rows = value_rows(store.index)
        assert set(circuit.fanins) | {CONST0, CONST1} == set(rows)
        assert len(store.matrix) == len(circuit.fanins) + 2
        assert CONST0 in rows and CONST1 in rows
        assert int(store[CONST0][0]) == 0
        assert int(store[CONST1][0]) == 0xFFFFFFFFFFFFFFFF
        with pytest.raises(KeyError):
            store[99999]
        # Bulk readers gather matrix rows; the accessor agrees with them.
        for gid, r in rows.items():
            assert np.array_equal(store[gid], store.matrix[r]), gid

    def test_rows_shared_with_timing_index(self, library):
        from repro.sta.store import timing_index

        circuit = build_adder(4)
        vectors = random_vectors(len(circuit.pi_ids), 64, seed=1)
        store = simulate(circuit, vectors)
        assert store.index is timing_index(circuit)
        rows = value_rows(store.index)
        assert rows[CONST0] == store.index.n
        assert rows[CONST1] == store.index.n + 1

    def test_pickle_round_trip(self, library):
        circuit = build_adder(4)
        vectors = random_vectors(len(circuit.pi_ids), 100, seed=2)
        store = simulate(circuit, vectors)
        clone = pickle.loads(pickle.dumps(store))
        assert isinstance(clone, ValueStore)
        assert np.array_equal(clone.matrix, store.matrix)
        for gid in circuit.fanins:
            assert np.array_equal(clone[gid], store[gid])

    def test_po_words_matches_stacking(self, library):
        circuit = build_adder(5)
        vectors = random_vectors(len(circuit.pi_ids), 120, seed=3)
        store = simulate(circuit, vectors)
        direct = po_words(circuit, store)
        stacked = np.stack([store[po] for po in circuit.po_ids])
        assert np.array_equal(direct, stacked)

    def test_resimulate_cone_store_path(self, library):
        circuit = build_adder(6)
        vectors = random_vectors(len(circuit.pi_ids), 256, seed=4)
        base = simulate(circuit, vectors)
        child = circuit.copy()
        changed = child.substitute(child.logic_ids()[4], CONST1)
        fast = resimulate_cone(child, vectors, base, changed)
        assert isinstance(fast, ValueStore)
        assert fast.matrix is not base.matrix  # read-only once published
        full = simulate(child, vectors)
        for gid in child.fanins:
            assert np.array_equal(fast[gid], full[gid]), gid

    def test_resimulate_cone_diverged_falls_back_to_dict(self, library):
        circuit = build_adder(6)
        vectors = random_vectors(len(circuit.pi_ids), 256, seed=5)
        base = simulate(circuit, vectors)
        child = circuit.copy()
        changed = child.substitute(child.logic_ids()[4], CONST0)
        remove_dangling(child)  # gate-ID set now differs from the base
        assert not base.covers(child)
        fast = resimulate_cone(child, vectors, base, changed)
        full = simulate(child, vectors)
        assert set(value_rows(fast.index)) == set(value_rows(full.index))
        for gid in value_rows(full.index):
            assert np.array_equal(fast[gid], full[gid]), gid


# ----------------------------------------------------------------------
# the event-driven value walk
# ----------------------------------------------------------------------
_SYMMETRIC = {"AND2", "OR2", "NAND2", "NOR2", "XOR2", "XNOR2"}


def _symmetric_gate(circuit):
    """The two-input gate with the widest fan-out cone among those
    whose function ignores pin order."""
    return max(
        (
            gid
            for gid in circuit.logic_ids()
            if split_cell_name(circuit.cells[gid])[0] in _SYMMETRIC
        ),
        key=lambda gid: len(circuit.transitive_fanout(gid)),
    )


def _declared(child, changed):
    """Fold ``child``'s edits, one write per changed gate, into its
    provenance record, so it derives its structure memos."""
    writes = len(changed)
    child.extend_provenance(changed, child.version - writes, writes)
    assert child.valid_provenance() is not None
    return child, changed


def _scratch(circuit):
    """A copy without provenance: its memos are built from scratch."""
    return pickle.loads(pickle.dumps(circuit))


def _swap_pins(circuit):
    """Child whose one changed gate reads its pins reversed."""
    child = circuit.copy()
    gid = _symmetric_gate(child)
    child.fanins[gid] = child.fanins[gid][::-1]
    return _declared(child, {gid})


def _upsize(circuit):
    """Child whose one changed gate only swaps its library cell."""
    child = circuit.copy()
    gid = _symmetric_gate(child)
    child.set_cell(gid, default_library().upsize(child.cells[gid]).name)
    return _declared(child, {gid})


def _to_constant(circuit):
    child = circuit.copy()
    return _declared(
        child, set(child.substitute(child.logic_ids()[3], CONST1))
    )


def _reach_pos(circuit):
    """Child that rewires the LSB carry to a PI: every carry changes."""
    child = circuit.copy()
    target = child.logic_ids()[1]
    return _declared(child, set(child.substitute(target, child.pi_ids[0])))


def _rewire_po(circuit):
    """Child whose first PO reads the second PO's driver."""
    child = circuit.copy()
    po, other = child.po_ids[0], child.po_ids[1]
    child.fanins[po] = child.fanins[other]
    return _declared(child, {po})


_CHANGES = [_swap_pins, _upsize, _to_constant, _reach_pos, _rewire_po]


class TestEventDrivenValueWalk:
    """``resimulate_cone`` == ``simulate`` bit for bit on the fan-out map
    a child derives from its parent's, and it stops where values stop
    changing."""

    @pytest.mark.parametrize("num_vectors", [256, 100])
    @pytest.mark.parametrize("change", _CHANGES)
    def test_matches_simulate(self, change, num_vectors):
        circuit = build_adder(6)
        vectors = random_vectors(len(circuit.pi_ids), num_vectors, seed=8)
        base = simulate(circuit, vectors)
        child, changed = change(circuit)
        full = simulate(child, vectors)
        fast = resimulate_cone(child, vectors, base, changed)
        assert fast.index is base.index
        assert np.array_equal(fast.matrix, full.matrix)
        assert child.fanouts() == _scratch(child).fanouts()

    def test_reconvergent_paths_of_unequal_length(self):
        # a reaches z directly and through x and w: z must wait for w,
        # which a queue in first-come order would not do.
        b = CircuitBuilder("reconverge")
        p, q = b.pis(2)
        a = b.and2(p, q)
        w = b.inv(b.inv(a))
        b.po(b.and2(a, w), "z")
        circuit = b.done()
        vectors = random_vectors(2, 64, seed=1)
        base = simulate(circuit, vectors)
        child = circuit.copy()
        child.set_cell(a, "OR2D1")
        fast = resimulate_cone(child, vectors, base, {a})
        full = simulate(child, vectors)
        assert not np.array_equal(full.matrix, base.matrix)
        assert np.array_equal(fast.matrix, full.matrix)

    def test_value_neutral_and_po_changes(self):
        circuit = build_adder(6)
        vectors = random_vectors(len(circuit.pi_ids), 256, seed=8)
        base = simulate(circuit, vectors)
        for change in (_swap_pins, _upsize):
            child, changed = change(circuit)
            fast = resimulate_cone(child, vectors, base, changed)
            assert np.array_equal(fast.matrix, base.matrix)
        child, changed = _reach_pos(circuit)
        fast = resimulate_cone(child, vectors, base, changed)
        assert not np.array_equal(
            po_words(child, fast), po_words(circuit, base)
        )

    def test_crossover_child_matches_simulate(self, library):
        ctx = _ctx(build_adder(6), library, seed=13, num_vectors=100)
        ref = ctx.reference_eval()
        rng = random.Random(13)
        evs = [
            evaluate_incremental(ctx, _random_lac_child(ref, rng), ref)
            for _ in range(4)
        ]
        for i, j in [(0, 1), (1, 2), (2, 3), (0, 3)]:
            kid = circuit_reproduce(evs[i], evs[j], ctx)
            prov = kid.valid_provenance()
            parent = next(e for e in evs if e.circuit is prov.parent)
            fast = resimulate_cone(
                kid, ctx.vectors, parent.values, prov.changed
            )
            full = simulate(kid, ctx.vectors)
            assert np.array_equal(fast.matrix, full.matrix)
            assert kid.valid_provenance() is prov
            assert kid.fanouts() == _scratch(kid).fanouts()

    @pytest.mark.parametrize("change", [_swap_pins, _upsize])
    def test_value_neutral_change_evaluates_only_seeds(
        self, change, monkeypatch
    ):
        circuit = build_adder(6)
        vectors = random_vectors(len(circuit.pi_ids), 256, seed=8)
        base = simulate(circuit, vectors)
        child, changed = change(circuit)
        (gid,) = changed
        # A TFO walk would re-evaluate every logic gate of this cone.
        assert len(
            [g for g in circuit.transitive_fanout(gid) if circuit.is_logic(g)]
        ) > 1
        calls = []

        def counting(fn):
            def word_eval(inputs):
                calls.append(fn.name)
                return fn.word_eval(inputs)

            return dataclasses.replace(fn, word_eval=word_eval)

        monkeypatch.setattr(
            bitsim,
            "FUNCTIONS",
            {name: counting(fn) for name, fn in FUNCTIONS.items()},
        )
        fast = resimulate_cone(child, vectors, base, changed)
        assert calls == [split_cell_name(child.cells[gid])[0]]
        assert np.array_equal(fast.matrix, base.matrix)


def _random_lac_child(parent_eval, rng):
    """A safe random LAC child of an evaluated circuit."""
    circuit = parent_eval.circuit
    logic = circuit.logic_ids()
    while True:
        target = rng.choice(logic)
        tfi = sorted(circuit.transitive_fanin(target))
        lac = LAC(target=target, switch=rng.choice(tfi + [CONST0, CONST1]))
        if is_safe(circuit, lac):
            return applied_copy(circuit, lac)


# ----------------------------------------------------------------------
# generation batching
# ----------------------------------------------------------------------
class TestStackedBatch:
    def test_tie_heavy_lac_generation_matches_incremental(self, library):
        """Many children on one parent, duplicates included: the batch
        must equal full evaluation bit for bit."""
        ctx = _ctx(build_adder(8), library)
        parent = ctx.reference_eval()
        children = _lac_children(ctx, 12, seed=21, allow_duplicates=True)
        clones = [c.copy() for c in children]
        got = evaluate_batch(ctx, [(c, (parent,)) for c in children])
        want = [evaluate(ctx, c) for c in clones]
        for g, w in zip(got, want):
            assert isinstance(g.values, ValueStore)
            _assert_same_eval(g, w)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_crossover_generation_matches_incremental(self, library, seed):
        ctx = _ctx(build_adder(8), library, seed=seed)
        parent = ctx.reference_eval()
        base = _lac_children(ctx, 6, seed=seed + 30)
        evals = evaluate_batch(ctx, [(c, (parent,)) for c in base])
        rng = random.Random(seed)
        items = []
        for _ in range(6):
            a, b = rng.sample(evals, 2)
            child = circuit_reproduce(a, b, ctx)
            items.append((child, (a, b)))
        clones = [c.copy() for c, _ in items]
        got = evaluate_batch(ctx, items)
        want = [evaluate(ctx, c) for c in clones]
        for g, w in zip(got, want):
            _assert_same_eval(g, w)

    def test_structure_diverged_child_falls_back(self, library):
        """A child with a changed gate-ID set takes full evaluation
        inside the batch; its siblings take the cone walk."""
        ctx = _ctx(build_adder(8), library)
        parent = ctx.reference_eval()
        ok_children = _lac_children(ctx, 3, seed=8)
        diverged = applied_copy(ctx.reference, LAC(
            ctx.reference.logic_ids()[-1], CONST0
        ))
        # Declare the deletions, so the child still matches its parent.
        since = diverged.version
        dead = diverged.dangling_gates()
        removed = remove_dangling(diverged)
        diverged.extend_provenance(dead, since, 2 * removed)
        assert removed and diverged.valid_provenance() is not None
        items = [(c, (parent,)) for c in ok_children]
        items.append((diverged, (parent,)))
        clones = [c.copy() for c, _ in items]
        got = evaluate_batch(ctx, items)
        want = [evaluate(ctx, c) for c in clones]
        for g, w in zip(got, want):
            _assert_same_eval(g, w)

    def test_jobs2_shard_run_matches_serial(self, library):
        ctx_serial = _ctx(build_adder(8), library)
        ctx_par = _ctx(build_adder(8), library)
        children = _lac_children(ctx_serial, 8, seed=13)
        par_children = _lac_children(ctx_par, 8, seed=13)
        parent_s = ctx_serial.reference_eval()
        parent_p = ctx_par.reference_eval()
        serial = evaluate_batch(
            ctx_serial, [(c, (parent_s,)) for c in children]
        )
        dispatcher = get_dispatcher(ctx_par, 2)
        try:
            parallel = dispatcher.evaluate_items(
                [(c, (parent_p,)) for c in par_children]
            )
        finally:
            close_dispatcher(ctx_par)
        for s, p in zip(serial, parallel):
            _assert_same_eval(s, p)

    def test_pack_eval_ships_dense_matrix(self, library):
        ctx = _ctx(build_adder(6), library)
        parent = ctx.reference_eval()
        child = _lac_children(ctx, 1, seed=17)[0]
        ev = evaluate_incremental(ctx, child, parent)
        assert isinstance(ev.values, ValueStore)
        packed = _pack_eval(ev)
        assert packed[2] is ev.values.matrix  # no per-gate key array
        clone = _unpack_eval(pickle.loads(pickle.dumps(packed)))
        _assert_same_eval(ev, clone)

    def test_singles_dedup_shares_one_evaluation(self, library):
        ctx = _ctx(build_adder(6), library)
        a = ctx.reference.copy()
        b = ctx.reference.copy()
        c = ctx.reference.copy()
        mutated = ctx.reference.copy()
        mutated.substitute(mutated.logic_ids()[0], CONST0)
        for circ in (a, b, c, mutated):
            circ.provenance = None  # force the singles path
        got = evaluate_batch(ctx, [(a, None), (b, None), (mutated, None), (c, None)])
        # Duplicates share the evaluated twin's report/values (one full
        # evaluation per key) but keep their own circuit at their index.
        assert got[1].values is got[0].values
        assert got[1].report is got[0].report
        assert got[3].values is got[0].values
        assert got[2].values is not got[0].values
        assert got[0].circuit is a
        assert got[1].circuit is b
        assert got[2].circuit is mutated
        assert got[3].circuit is c
        solo = evaluate(ctx, ctx.reference.copy())
        _assert_same_eval(got[0], solo)
        _assert_same_eval(got[1], solo)


# ----------------------------------------------------------------------
# reproduction cone masks
# ----------------------------------------------------------------------
class TestPOCones:
    def test_masks_match_transitive_fanin(self, library):
        # The consumers-first circuit, renumbered as it is on entry.
        renumbered, _ = relabel_compact(build_consumers_first_circuit())
        for circuit in (build_adder(8), renumbered):
            bits = po_bits(circuit)
            assert bits.keys() == circuit.fanins.keys()
            for slot, po in enumerate(circuit.po_ids):
                cone = circuit.transitive_fanin(po, include_self=True)
                for gid in circuit.fanins:
                    assert bool(bits[gid] >> slot & 1) == (gid in cone)

    def test_masks_memoized_per_version(self, library):
        circuit = build_adder(4)
        first = po_bits(circuit)
        assert po_bits(circuit) is first
        target = circuit.fanins[circuit.po_ids[0]][0]
        circuit.substitute(target, CONST0)
        second = po_bits(circuit)
        assert second is not first
        # The rebuilt bits describe the edited cone: the cut driver left
        # PO 0's cone.
        assert first[target] & 1
        assert not second[target] & 1

    def test_reproduce_children_still_bit_identical(self, library):
        """The mask-driven cone writes must not change any child."""
        ctx = _ctx(build_adder(8), library, seed=6)
        parent = ctx.reference_eval()
        base = _lac_children(ctx, 4, seed=40)
        evals = [evaluate_incremental(ctx, c, parent) for c in base]
        child = circuit_reproduce(evals[0], evals[1], ctx)
        # Every gate comes verbatim from one of the two parents.
        pa, pb = evals[0].circuit, evals[1].circuit
        for gid, fis in child.fanins.items():
            assert fis in (pa.fanins[gid], pb.fanins[gid])
        prov = child.valid_provenance()
        assert prov is not None
        inc = evaluate_incremental(ctx, child, (evals[0], evals[1]))
        full = evaluate(ctx, child.copy())
        _assert_same_eval(inc, full)


# ----------------------------------------------------------------------
# NMED matmul
# ----------------------------------------------------------------------
class TestNmedMatmul:
    def _reference_loop(self, ref, app, num_vectors, denom):
        rbits = _unpack_matrix(ref, num_vectors)
        abits = _unpack_matrix(app, num_vectors)
        acc = np.zeros(num_vectors, dtype=np.float64)
        for i in range(ref.shape[0]):
            acc += (
                rbits[i].astype(np.float64) - abits[i].astype(np.float64)
            ) * (float(2**i) / denom)
        return float(np.abs(acc).mean())

    def test_matches_per_po_loop(self, library):
        rng = np.random.default_rng(7)
        for num_pos, num_vectors in ((5, 64), (9, 200), (16, 130)):
            words = (num_vectors + 63) // 64
            ref = rng.integers(0, 2**64, size=(num_pos, words), dtype=np.uint64)
            app = rng.integers(0, 2**64, size=(num_pos, words), dtype=np.uint64)
            denom = float(2**num_pos - 1)
            got = nmed(ref, app, num_vectors)
            want = self._reference_loop(ref, app, num_vectors, denom)
            assert got == pytest.approx(want, abs=1e-12)
            got_med = mean_error_distance(ref, app, num_vectors)
            want_med = self._reference_loop(ref, app, num_vectors, 1.0)
            assert got_med == pytest.approx(want_med, rel=1e-12)

    def test_zero_and_full_error_exact(self):
        ref = np.array([[0]], dtype=np.uint64)
        app = np.array([[1]], dtype=np.uint64)
        assert nmed(ref, ref, 1) == 0.0
        assert nmed(ref, app, 1) == 1.0
