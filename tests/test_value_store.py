"""The SoA value store: kernels, store semantics, generation batching.

Pins the value layer under the evaluation hot path:

* every registered cell function's ``word_eval`` agrees with its scalar
  ``bit_eval`` oracle on every lane of random int rows;
* :class:`repro.sim.ValueStore`'s one per-gate accessor, ``store[gid]``
  (constants included), returns the rows ``value_rows`` names, and
  simulate's rows equal a dict-based walk that evaluates every gate
  lane by lane through ``bit_eval``;
* ``resimulate_cone`` reuses covering stores and simulates diverged
  gate-ID sets in full, both matching ``simulate``; its event-driven
  walk equals ``simulate`` on value-neutral, PO-reaching, PO-rewire,
  constant, cell-only and crossover changes, on any vector count, and
  evaluates only the seeded gates when no value changes;
* a child's store shares with its parent's exactly the row objects
  whose value did not change;
* at odd vector counts every row stays ``num_vectors`` bits wide, and
  the walks and the metrics equal a per-vector scalar computation;
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
from repro.core.fitness import eval_payload
from repro.core.parallel import close_dispatcher, get_dispatcher
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
    error_rate,
    evaluate_single,
    mean_error_distance,
    nmed,
    per_po_error,
    po_words,
    random_vectors,
    resimulate_cone,
    similarity,
    simulate,
)
from repro.sim import bitsim
from repro.sim.error import _unpack_matrix
from repro.sim.store import value_rows
from repro.sta import toggle_rate


@pytest.fixture(scope="module")
def library():
    return default_library()


def _ctx(circuit, library, seed=4, num_vectors=256):
    return EvalContext.build(
        circuit, library, ErrorMode.NMED, num_vectors=num_vectors, seed=seed
    )


def _lanes(words, num_vectors):
    """The 0/1 value of every vector in a packed uint64 word row."""
    return [int(words[k // 64]) >> (k % 64) & 1 for k in range(num_vectors)]


def _row(bits):
    """The value row (bit ``k`` is vector ``k``) of a list of 0/1 lanes."""
    return sum(bit << k for k, bit in enumerate(bits))


def _legacy_simulate(circuit, vectors):
    """The pre-store dict-based simulation walk, with every gate
    evaluated lane by lane through its scalar ``bit_eval`` oracle."""
    nv = vectors.num_vectors
    lanes = {CONST0: [0] * nv, CONST1: [1] * nv}
    for row, pi in enumerate(circuit.pi_ids):
        lanes[pi] = _lanes(vectors.words[row], nv)
    for gid in circuit.topological_order():
        cell = circuit.cells[gid]
        if cell == PI_CELL:
            continue
        fis = circuit.fanins[gid]
        if cell == PO_CELL:
            lanes[gid] = lanes[fis[0]]
            continue
        function, _ = split_cell_name(cell)
        bit_eval = FUNCTIONS[function].bit_eval
        lanes[gid] = [
            bit_eval([lanes[fi][k] for fi in fis]) for k in range(nv)
        ]
    return {gid: _row(bits) for gid, bits in lanes.items()}


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
        assert a.values[gid] == b.values[gid], gid


# ----------------------------------------------------------------------
# word kernels
# ----------------------------------------------------------------------
class TestWordEvalMany:
    """``word_eval`` over random int rows, lane by lane."""

    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    @pytest.mark.parametrize("batch", [1, 2, 7])
    def test_matches_word_eval_row_by_row(self, name, batch):
        # ``batch`` rows of 3 words each, as one row of 192 * batch
        # lanes less one, so the top lane of the last word is padding.
        fn = FUNCTIONS[name]
        rng = random.Random(sum(map(ord, name)) + batch)
        num_vectors = 192 * batch - 1
        ones = (1 << num_vectors) - 1
        inputs = [rng.getrandbits(num_vectors) for _ in range(fn.arity)]
        out = fn.word_eval(inputs, ones)
        assert 0 <= out <= ones
        for lane in range(num_vectors):
            bits = [x >> lane & 1 for x in inputs]
            assert out >> lane & 1 == fn.bit_eval(bits), (name, lane)


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
        assert isinstance(store.rows, tuple)
        for gid in legacy:
            assert store[gid] == legacy[gid], gid

    def test_mapping_face(self):
        # ``store[gid]`` is the one per-gate accessor: gates through the
        # shared row index, constants through the two sentinel rows.
        circuit = build_fig3_circuit()
        vectors = random_vectors(len(circuit.pi_ids), 64, seed=0)
        store = simulate(circuit, vectors)
        rows = value_rows(store.index)
        assert set(circuit.fanins) | {CONST0, CONST1} == set(rows)
        assert len(store.rows) == len(circuit.fanins) + 2
        assert CONST0 in rows and CONST1 in rows
        assert store[CONST0] == 0
        assert store[CONST1] == 0xFFFFFFFFFFFFFFFF
        assert store.num_vectors == 64
        with pytest.raises(KeyError):
            store[99999]
        # Bulk readers index the rows; the accessor returns those rows.
        for gid, r in rows.items():
            assert store[gid] is store.rows[r], gid

    def test_rows_shared_with_timing_index(self, library):
        from repro.sta.store import timing_index

        circuit = build_adder(4)
        vectors = random_vectors(len(circuit.pi_ids), 64, seed=1)
        store = simulate(circuit, vectors)
        assert store.index is timing_index(circuit)
        rows = value_rows(store.index)
        assert rows[CONST0] == store.index.n
        assert rows[CONST1] == store.index.n + 1

    def test_po_words_matches_stacking(self, library):
        circuit = build_adder(5)
        vectors = random_vectors(len(circuit.pi_ids), 120, seed=3)
        store = simulate(circuit, vectors)
        direct = po_words(circuit, store)
        # Word w of a PO holds vectors 64w .. 64w + 63; padding is 0.
        stacked = np.array(
            [
                [store[po] >> (64 * w) & (2**64 - 1) for w in range(2)]
                for po in circuit.po_ids
            ],
            dtype=np.uint64,
        )
        assert direct.dtype == np.uint64
        assert direct.shape == (len(circuit.po_ids), 2)
        assert np.array_equal(direct, stacked)
        assert not (direct[:, -1] >> np.uint64(120 - 64)).any()

    def test_resimulate_cone_store_path(self, library):
        circuit = build_adder(6)
        vectors = random_vectors(len(circuit.pi_ids), 256, seed=4)
        base = simulate(circuit, vectors)
        child = circuit.copy()
        changed = child.substitute(child.logic_ids()[4], CONST1)
        fast = resimulate_cone(child, vectors, base, changed)
        assert isinstance(fast, ValueStore)
        assert isinstance(fast.rows, tuple)  # read-only once published
        assert fast.rows is not base.rows
        full = simulate(child, vectors)
        for gid in child.fanins:
            assert fast[gid] == full[gid], gid

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
            assert fast[gid] == full[gid], gid


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
        assert fast.rows == full.rows
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
        assert full.rows != base.rows
        assert fast.rows == full.rows

    def test_value_neutral_and_po_changes(self):
        circuit = build_adder(6)
        vectors = random_vectors(len(circuit.pi_ids), 256, seed=8)
        base = simulate(circuit, vectors)
        for change in (_swap_pins, _upsize):
            child, changed = change(circuit)
            fast = resimulate_cone(child, vectors, base, changed)
            assert all(f is b for f, b in zip(fast.rows, base.rows))
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
            assert fast.rows == full.rows
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
            def word_eval(inputs, ones):
                calls.append(fn.name)
                return fn.word_eval(inputs, ones)

            return dataclasses.replace(fn, word_eval=word_eval)

        monkeypatch.setattr(
            bitsim,
            "FUNCTIONS",
            {name: counting(fn) for name, fn in FUNCTIONS.items()},
        )
        fast = resimulate_cone(child, vectors, base, changed)
        assert calls == [split_cell_name(child.cells[gid])[0]]
        assert all(f is b for f, b in zip(fast.rows, base.rows))


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
        payload = eval_payload(ev)
        # The store's own tuple of int rows; no per-gate key array.
        assert payload[5] is ev.values.rows
        assert type(payload[5]) is tuple
        assert len(payload[5]) == len(ev.circuit.fanins) + 2
        assert all(type(row) is int for row in payload[5])
        # A parent eval crosses the pipe pickled.
        clone = pickle.loads(pickle.dumps(ev))
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
# row sharing
# ----------------------------------------------------------------------
def _unshared_and_changed(child, parent, full):
    """Rows ``child`` does not share with ``parent``, and rows whose
    value in the full simulation ``full`` differs from the parent's."""
    pairs = list(enumerate(zip(child.rows, parent.rows)))
    unshared = {r for r, (c, p) in pairs if c is not p}
    changed = {
        r for r, (f, p) in enumerate(zip(full.rows, parent.rows)) if f != p
    }
    return unshared, changed


class TestRowSharing:
    """A child evaluated against its parent shares every row object it
    did not change, and only those."""

    def test_lac_and_crossover_children_share_unchanged_rows(self, library):
        ctx = _ctx(build_adder(8), library, seed=5)
        parent = ctx.reference_eval()
        lac = _lac_children(ctx, 8, seed=51)
        lac_evals = evaluate_batch(ctx, [(c, (parent,)) for c in lac])
        pairs = [(ev, parent) for ev in lac_evals]
        rng = random.Random(5)
        items, parents = [], []
        for _ in range(8):
            a, b = rng.sample(lac_evals, 2)
            kid = circuit_reproduce(a, b, ctx)
            prov = kid.valid_provenance()
            parents.append(next(e for e in (a, b) if e.circuit is prov.parent))
            items.append((kid, (a, b)))
        pairs += zip(evaluate_batch(ctx, items), parents)
        partly_shared = 0
        for ev, par in pairs:
            full = simulate(ev.circuit, ctx.vectors)
            assert ev.values.index is par.values.index
            assert ev.values.rows == full.rows
            unshared, changed = _unshared_and_changed(
                ev.values, par.values, full
            )
            assert unshared == changed
            partly_shared += 0 < len(unshared) < len(full.rows)
        assert partly_shared >= 8


# ----------------------------------------------------------------------
# odd vector counts
# ----------------------------------------------------------------------
def _lane_values(circuit, vectors):
    """``evaluate_single`` on every vector: one 0/1 dict per vector."""
    return [
        evaluate_single(circuit, dict(zip(circuit.pi_ids, vectors.vector(k))))
        for k in range(vectors.num_vectors)
    ]


class TestOddVectorCounts:
    """Rows are exactly ``num_vectors`` bits wide at any vector count,
    and every reader of them equals a per-vector scalar computation."""

    @pytest.mark.parametrize("num_vectors", [1, 63, 65, 100, 1000])
    def test_walks_and_metrics_match_scalar(self, num_vectors):
        circuit = build_adder(4)
        nv = num_vectors
        vectors = random_vectors(len(circuit.pi_ids), nv, seed=nv)
        base = simulate(circuit, vectors)
        child, changed = _reach_pos(circuit)
        fast = resimulate_cone(child, vectors, base, changed)
        for circ, store in ((circuit, base), (child, fast)):
            lanes = _lane_values(circ, vectors)
            assert store[CONST1] == (1 << nv) - 1
            assert all(0 <= row < 1 << nv for row in store.rows)
            for gid in circ.fanins:
                row = store[gid]
                for k in range(nv):
                    assert row >> k & 1 == lanes[k][gid], (gid, k)
        ref_lanes = _lane_values(circuit, vectors)
        app_lanes = _lane_values(child, vectors)
        pos = list(zip(circuit.po_ids, child.po_ids))
        ref, app = po_words(circuit, base), po_words(child, fast)
        # ER: vectors on which any PO differs.
        wrong = sum(
            any(r[p] != a[q] for p, q in pos)
            for r, a in zip(ref_lanes, app_lanes)
        )
        assert error_rate(ref, app, nv) == wrong / nv
        # Per-PO flip rates.
        flips = [
            sum(r[p] != a[q] for r, a in zip(ref_lanes, app_lanes)) / nv
            for p, q in pos
        ]
        assert per_po_error(ErrorMode.ER, ref, app, nv) == flips
        denom = 2 ** len(pos) - 1
        weighted = per_po_error(ErrorMode.NMED, ref, app, nv)
        for i, (got, rate) in enumerate(zip(weighted, flips)):
            assert got == pytest.approx(rate * 2**i / denom, rel=1e-15)
        # NMED: mean |V_ref - V_app| / (2^n - 1) over the vectors.
        distance = sum(
            abs(
                sum(r[p] << i for i, (p, _) in enumerate(pos))
                - sum(a[q] << i for i, (_, q) in enumerate(pos))
            )
            for r, a in zip(ref_lanes, app_lanes)
        )
        assert nmed(ref, app, nv) == pytest.approx(
            distance / denom / nv, rel=1e-12, abs=1e-15
        )
        # Similarity and toggle rate of every gate pair / gate.
        gids = sorted(circuit.fanins)
        for a, b in zip(gids, gids[1:]):
            agree = sum(lane[a] == lane[b] for lane in ref_lanes)
            assert similarity(base, a, b, nv) == 1.0 - (nv - agree) / nv
        for gid in gids:
            toggles = sum(
                ref_lanes[k][gid] != ref_lanes[k + 1][gid]
                for k in range(nv - 1)
            )
            want = toggles / (nv - 1) if nv > 1 else 0.0
            assert toggle_rate(base[gid], nv) == want, gid


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
