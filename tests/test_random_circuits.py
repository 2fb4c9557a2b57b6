"""Properties of random feed-forward circuits.

The strategy places one to six blocks of any kind in ``BLOCK_KINDS``.
Each block input is either joined to a free output of an earlier block
or left open and declared an external input; every output that no later
block consumes becomes an external output.  The graph is therefore
square: a lossless one has a unitary transfer matrix.
"""

import numpy as np
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from rfshaper.blocks import (BLOCK_KINDS, FrequencyGrid, PhaseShifterState,
                             RingParams, WaveguideParams)
from rfshaper.circuit import BlockInstance, CircuitGraph, Port, bind, evaluate
from rfshaper.errors import ShaperError, SingularityError
from rfshaper.netlist import document_to_text, parse_netlist
from rfshaper.rflink import (FORMAT_KINDS, LinkConfig, ModulationFormat,
                             RfResponse, back_to_back_reference, bind_tones,
                             detector, magnitude_db, rf_transmission_sweep)

GRID = FrequencyGrid.sweep(-40.0, 40.0, 2.0)
PROPERTY = settings(max_examples=60, deadline=None)


def params_for(spec, lossless: bool):
    """Strategy for the params of a block kind.

    Lossless rings have unit round-trip amplitude and a coupling of at
    least 0.05, so they keep away from the lossless uncoupled ring's
    pole; lossy ones take any coupling in [0, 1].
    """
    if spec.params_type is type(None):
        return st.none()
    if spec.params_type is PhaseShifterState:
        return st.builds(PhaseShifterState, st.floats(-10.0, 10.0))
    if spec.params_type is WaveguideParams:
        loss = st.just(0.0) if lossless else st.floats(0.0, 3.0)
        return st.builds(WaveguideParams, st.floats(1e-3, 0.02), loss,
                         st.floats(0.0, 2.0))
    kappa = st.floats(0.05, 0.95) if lossless else st.floats(0.0, 1.0)
    amplitude = st.just(1.0) if lossless else st.floats(0.5, 1.0)
    drop = kappa if "kappa_drop" in spec.required else st.none()
    return st.builds(RingParams, fsr_ghz=st.floats(10.0, 200.0), kappa=kappa,
                     kappa_drop=drop, round_trip_amplitude=amplitude,
                     detune_ghz=st.floats(-100.0, 100.0))


LARGEST = float(np.finfo(np.float64).max)
finite = st.floats(-LARGEST, LARGEST)
positive = st.floats(0.0, LARGEST, exclude_min=True)


def extreme_params(spec, lossless: bool):
    """Strategy for params that reach the ends of the finite floats: an
    FSR or a path length from the smallest subnormal to the largest
    float, and any finite detune."""
    if spec.params_type is WaveguideParams:
        return st.builds(WaveguideParams, positive)
    if spec.params_type is RingParams:
        kappa = st.floats(0.0, 1.0)
        drop = kappa if "kappa_drop" in spec.required else st.none()
        return st.builds(RingParams, fsr_ghz=positive, kappa=kappa,
                         kappa_drop=drop,
                         round_trip_amplitude=st.floats(0.5, 1.0),
                         detune_ghz=finite)
    return params_for(spec, lossless)


@st.composite
def graphs(draw, lossless: bool = False, params=params_for):
    """A random feed-forward graph with every open input declared
    external; ``params(spec, lossless)`` draws each block's params."""
    blocks, connections, inputs = [], [], {}
    free: list[Port] = []
    for i in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(sorted(BLOCK_KINDS)))
        spec = BLOCK_KINDS[kind]
        block_id = f"b{i}"
        blocks.append(BlockInstance(block_id, kind,
                                    draw(params(spec, lossless))))
        for name in spec.inputs:
            if free and draw(st.booleans()):
                src = free.pop(draw(st.integers(0, len(free) - 1)))
                connections.append((src, Port(block_id, name)))
            else:
                inputs[f"in{len(inputs)}"] = Port(block_id, name)
        free += [Port(block_id, name) for name in spec.outputs]
    outputs = {f"out{k}": port for k, port in enumerate(free)}
    return CircuitGraph(tuple(blocks), tuple(connections), inputs, outputs)


def transfer_matrix(graph: CircuitGraph, grid: FrequencyGrid) -> np.ndarray:
    """``H[k, o, i]``: the field at output ``o`` for a unit field at
    input ``i``, at grid point ``k``."""
    columns = []
    for name in sorted(graph.inputs):
        resp = evaluate(graph, grid, input_name=name)
        columns.append([resp.port(o) for o in sorted(graph.outputs)])
    return np.transpose(np.array(columns), (2, 1, 0))


def reversed_graph(graph: CircuitGraph) -> CircuitGraph:
    """The same blocks with every signal run backwards: block input ``j``
    and output ``j`` trade places, each connection ``a.out_k -> b.in_j``
    becomes ``b.out_j -> a.in_k``, and the external inputs and outputs
    swap roles under their names."""
    def swap(port: Port) -> Port:
        spec = BLOCK_KINDS[graph.block(port.block).kind]
        ins, outs = spec.inputs, spec.outputs
        if port.name in ins:
            return Port(port.block, outs[ins.index(port.name)])
        return Port(port.block, ins[outs.index(port.name)])

    return CircuitGraph(
        graph.blocks,
        tuple((swap(b), swap(a)) for a, b in graph.connections),
        {name: swap(p) for name, p in graph.outputs.items()},
        {name: swap(p) for name, p in graph.inputs.items()})


def heater_settings(graph: CircuitGraph, lo: float, hi: float):
    """Strategy for settings of any subset of the graph's heaters."""
    names = graph.heater_names()
    if not names:
        return st.just({})
    return st.dictionaries(st.sampled_from(names), st.floats(lo, hi))


def fields_or_error(fn):
    """``fn().fields``, or the type of the ShaperError it raises."""
    try:
        return fn().fields
    except ShaperError as exc:
        return type(exc)


def assert_finite_or_typed_error(graph, grid, heaters=None):
    for name in graph.inputs:
        fields = fields_or_error(lambda: evaluate(graph, grid, name, heaters))
        if isinstance(fields, dict):
            for port, f in fields.items():
                assert np.all(np.isfinite(f)), port


@given(graph=graphs(lossless=True))
@PROPERTY
def test_lossless_graph_columns_are_orthonormal(graph):
    h = transfer_matrix(graph, GRID)
    gram = np.conj(np.transpose(h, (0, 2, 1))) @ h
    assert np.max(np.abs(gram - np.eye(len(graph.inputs)))) <= 1e-12


def defined_transfer_matrix(graph, grid):
    """``transfer_matrix``, rejecting the example when a lossless
    uncoupled ring sits on resonance: that graph has no transfer matrix
    (``evaluate`` raises ``SingularityError``)."""
    try:
        return transfer_matrix(graph, grid)
    except SingularityError:
        reject()


@given(graph=graphs())
@PROPERTY
def test_lossy_graph_is_passive(graph):
    h = defined_transfer_matrix(graph, GRID)
    assert np.max(np.linalg.svd(h, compute_uv=False)) <= 1.0 + 1e-12


@given(graph=graphs())
@PROPERTY
def test_graph_response_is_reciprocal(graph):
    h = defined_transfer_matrix(graph, GRID)
    h_rev = defined_transfer_matrix(reversed_graph(graph), GRID)
    assert np.max(np.abs(h_rev - np.transpose(h, (0, 2, 1)))) <= 1e-12


offset_lists = st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8,
                        unique=True)


@given(graph=graphs(), offsets=offset_lists, data=st.data())
@PROPERTY
def test_result_is_finite_or_a_typed_error(graph, offsets, data):
    heaters = data.draw(heater_settings(graph, -1e3, 1e3), label="heaters")
    grid = FrequencyGrid(193.4, np.sort(offsets))
    assert_finite_or_typed_error(graph, grid, heaters)


@given(graph=graphs(params=extreme_params),
       offsets=st.lists(finite, min_size=1, max_size=8, unique=True))
@PROPERTY
def test_extreme_finite_values_give_finite_results_or_typed_errors(
        graph, offsets):
    grid = FrequencyGrid(193.4, np.sort(offsets))
    assert_finite_or_typed_error(graph, grid)


@given(graph=graphs())
@PROPERTY
def test_print_parse_evaluate_is_bit_identical(graph):
    text = document_to_text(graph)
    doc, errors = parse_netlist(text)
    assert not errors
    parsed = doc.to_graph()
    assert document_to_text(parsed) == text
    for name in graph.inputs:
        want = fields_or_error(lambda: evaluate(graph, GRID, name))
        got = fields_or_error(lambda: evaluate(parsed, GRID, name))
        if not isinstance(want, dict):
            assert got is want
            continue
        assert got.keys() == want.keys()
        for port in want:
            assert np.array_equal(got[port], want[port]), port


@given(graph=graphs(), data=st.data())
@PROPERTY
def test_bind_over_heater_subsets_equals_evaluate(graph, data):
    calls = data.draw(st.lists(heater_settings(graph, -10.0, 10.0),
                               min_size=1, max_size=4), label="calls")
    for name in graph.inputs:
        evaluate_at = bind(graph, GRID, name)
        for heaters in calls:
            want = fields_or_error(
                lambda: evaluate(graph.with_heaters(heaters), GRID, name))
            # the bound call and evaluate's own pass with heaters
            for got in (fields_or_error(lambda: evaluate_at(heaters)),
                        fields_or_error(
                            lambda: evaluate(graph, GRID, name, heaters))):
                if not isinstance(want, dict):
                    assert got is want
                    continue
                assert got.keys() == want.keys()
                for port in want:
                    assert np.array_equal(got[port], want[port]), port
                    assert not got[port].flags.writeable, port


def fed_from_one_input(graph: CircuitGraph) -> CircuitGraph:
    """``graph`` with each of its external inputs fed, through a chain of
    3 dB couplers, from one external input ``in``; the couplers' second
    inputs stay open."""
    ports = [graph.inputs[name] for name in sorted(graph.inputs)]
    if len(ports) == 1:
        return graph
    splitters, connections = [], []
    for k, port in enumerate(ports[:-1]):
        splitters.append(BlockInstance(f"s{k}", "coupler_3db"))
        rest = ports[-1] if k == len(ports) - 2 else Port(f"s{k + 1}", "in0")
        connections += [(Port(f"s{k}", "out0"), port),
                        (Port(f"s{k}", "out1"), rest)]
    return CircuitGraph(tuple(splitters) + graph.blocks,
                        graph.connections + tuple(connections),
                        {"in": Port("s0", "in0")}, graph.outputs)


def rf_outcome(fn):
    """``(mag_db, phase_rad)`` of ``fn()``, or the type and message of
    the ShaperError it raises."""
    try:
        resp = fn()
    except ShaperError as exc:
        return type(exc), str(exc)
    return resp.mag_db, resp.phase_rad


@given(graph=st.one_of(graphs(), graphs(params=extreme_params)),
       kind=st.sampled_from(FORMAT_KINDS), data=st.data())
@PROPERTY
def test_streamed_rf_sweep_equals_the_bound_tones(graph, kind, data):
    # extreme params make some blocks raise, so errors are compared too
    graph = fed_from_one_input(graph)
    port = data.draw(st.sampled_from(sorted(graph.outputs)), label="port")
    link = LinkConfig(ModulationFormat(kind, 0.1), graph, port)
    calls = data.draw(st.lists(heater_settings(graph, -10.0, 10.0),
                               min_size=1, max_size=3), label="calls")
    lo, hi, step = 1.0, 39.0, 2.0
    fs = FrequencyGrid.sweep(lo, hi, step).offsets_ghz
    tones = bind_tones(link, fs)

    def bound(heaters):
        phasor = detector(link.fmt)(*tones(heaters))
        return RfResponse(fs, magnitude_db(phasor,
                                           back_to_back_reference(link.fmt)),
                          np.unwrap(np.angle(phasor)))

    for heaters in calls:
        want = rf_outcome(lambda: bound(heaters))
        got = rf_outcome(
            lambda: rf_transmission_sweep(link, lo, hi, step, heaters))
        if isinstance(want[0], type):
            assert isinstance(got[0], type) and got == want
            continue
        assert not isinstance(got[0], type), got
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def outcome(fn):
    """``fn().fields``, or the type and message of the ShaperError it
    raises."""
    try:
        return fn().fields
    except ShaperError as exc:
        return type(exc), str(exc)


heater_values = st.one_of(st.floats(-10.0, 10.0),
                          st.floats(allow_nan=True, allow_infinity=True),
                          # a NumPy scalar is read as the float it equals
                          st.one_of(st.sampled_from([np.nan, np.inf, -np.inf]),
                                    st.floats(-10.0, 10.0)).map(np.float64))


@given(graph=st.one_of(graphs(), graphs(params=extreme_params)),
       k=st.integers(1, 5), data=st.data())
@PROPERTY
def test_batched_heaters_give_the_float_calls_row_by_row(graph, k, data):
    names = graph.heater_names()
    assume(names)
    chosen = data.draw(st.lists(st.sampled_from(names), min_size=1,
                                unique=True), label="heaters")
    batched = {}
    for name in chosen:
        if data.draw(st.booleans(), label=f"{name} is an array"):
            batched[name] = np.array(data.draw(
                st.lists(heater_values, min_size=k, max_size=k), label=name))
        else:
            batched[name] = data.draw(heater_values, label=name)
    if not any(isinstance(v, np.ndarray) for v in batched.values()):
        batched[chosen[0]] = np.full(k, float(batched[chosen[0]]))
    rows = [{n: float(v[i]) if isinstance(v, np.ndarray) else v
             for n, v in batched.items()} for i in range(k)]
    for name in graph.inputs:
        evaluate_at = bind(graph, GRID, name)
        for call in (evaluate_at,
                     lambda h: evaluate(graph, GRID, name, h)):
            want = [outcome(lambda: call(row)) for row in rows]
            got = outcome(lambda: call(batched))
            errors = [w for w in want if not isinstance(w, dict)]
            if errors:
                # the first row that fails at the first failing step
                assert got in errors
                continue
            assert isinstance(got, dict), got
            for port, field in got.items():
                assert field.shape == (k, len(GRID)), port
                assert not field.flags.writeable, port
                for i in range(k):
                    assert np.array_equal(field[i], want[i][port]), (port, i)


def bits_or_error(fn):
    """Each field's shape and bytes from ``fn()``, or the type and
    message of the ShaperError it raises."""
    try:
        return {port: (f.shape, f.tobytes()) for port, f in fn().fields.items()}
    except ShaperError as exc:
        return type(exc), str(exc)


@given(graph=st.one_of(graphs(), graphs(params=extreme_params)),
       k=st.one_of(st.none(), st.integers(1, 4)), data=st.data())
@PROPERTY
def test_the_order_of_the_settings_changes_no_field_and_no_error(graph, k,
                                                                data):
    names = graph.heater_names()
    assume(names)
    chosen = data.draw(st.lists(st.sampled_from(names), min_size=1,
                                unique=True), label="heaters")
    # bad values are drawn often, so that two heaters fail together
    value = st.one_of(st.sampled_from([np.nan, np.inf, 1e308]), heater_values)
    values = value if k is None else st.builds(
        np.array, st.lists(value, min_size=k, max_size=k))
    settings = {name: data.draw(values, label=name) for name in chosen}
    permuted = dict(data.draw(st.permutations(list(settings.items())),
                              label="order"))
    for name in graph.inputs:
        evaluate_at = bind(graph, GRID, name)
        for call in (evaluate_at, lambda h: evaluate(graph, GRID, name, h)):
            assert (bits_or_error(lambda: call(settings))
                    == bits_or_error(lambda: call(permuted)))
