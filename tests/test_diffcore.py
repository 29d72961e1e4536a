import numpy as np
import pytest

from deephedge import diffcore as dc
from oracles import central_diff_gradient, central_diff_gradient_map

RNG = np.random.default_rng(20240917)


def scalar_through(op_builder, x0):
    """Wrap a primitive so it maps a raw array to a float via sum-of-entries."""
    def f(x):
        tape = dc.Tape()
        xn = tape.parameter("x", x)
        out = op_builder(tape, xn)
        return float(dc.total(out).value[0, 0])
    return f


def tape_gradient(op_builder, x0):
    tape = dc.Tape()
    xn = tape.parameter("x", x0)
    out = op_builder(tape, xn)
    return dc.backward(dc.total(out))["x"]


def square(x):
    return dc.multiply(x, x)


UNARY_CASES = {
    "symexp": lambda tape, x: dc.symexp(x),
    "scale": lambda tape, x: dc.scale(x, -2.5),
    "sum_all": lambda tape, x: dc.total(x),
    "mean_all": lambda tape, x: dc.mean(x),
    "variance": lambda tape, x: dc.variance(x),
    "slice": lambda tape, x: dc.slice_cols(square(x), 1, 3),
}


@pytest.mark.parametrize("name", sorted(UNARY_CASES))
def test_unary_primitives_match_finite_differences(name):
    build = UNARY_CASES[name]
    x0 = RNG.normal(size=(4, 3)) * 0.8 + 0.3  # keep |x| away from abs kink
    g = tape_gradient(build, x0)
    g_fd = central_diff_gradient(scalar_through(build, x0), x0.copy())
    assert np.abs(g - g_fd).max() < 1e-5 * max(1.0, np.abs(g_fd).max())


@pytest.mark.parametrize("shape_b", [(4, 3), (1, 3), (4, 1), (1, 1)])
@pytest.mark.parametrize("op", [dc.add, dc.sub, dc.multiply])
def test_binary_broadcast_gradients(op, shape_b):
    # The tape does not broadcast: an operand of another shape is refused,
    # on either side, and operands of one shape differentiate.
    a0 = RNG.normal(size=(4, 3))
    b0 = RNG.normal(size=shape_b)
    if shape_b != a0.shape:
        tape = dc.Tape()
        a = tape.parameter("a", a0)
        b = tape.parameter("b", b0)
        for x, y in ((a, b), (b, a)):
            with pytest.raises(dc.DiffError, match="differ$"):
                op(x, y)
        return

    def run(params):
        tape = dc.Tape()
        a = tape.parameter("a", params["a"])
        b = tape.parameter("b", params["b"])
        return float(dc.total(square(op(a, b))).value[0, 0])

    tape = dc.Tape()
    a = tape.parameter("a", a0)
    b = tape.parameter("b", b0)
    grads = dc.backward(dc.total(square(op(a, b))))
    fd = central_diff_gradient_map(run, {"a": a0, "b": b0})
    for k in ("a", "b"):
        assert np.abs(grads[k] - fd[k]).max() < 1e-5


def test_concat_and_rms_normalize_gradients():
    x0 = RNG.normal(size=(5, 4))
    y0 = RNG.normal(size=(5, 2))
    g0 = RNG.normal(size=(1, 6)) + 2.0

    def run(params):
        tape = dc.Tape()
        x = tape.parameter("x", params["x"])
        y = tape.parameter("y", params["y"])
        g = tape.parameter("g", params["g"])
        z = dc.rms_normalize(dc.concat([x, y]), g)
        return float(dc.total(dc.symexp(z)).value[0, 0])

    tape = dc.Tape()
    x = tape.parameter("x", x0)
    y = tape.parameter("y", y0)
    g = tape.parameter("g", g0)
    loss = dc.total(dc.symexp(dc.rms_normalize(dc.concat([x, y]), g)))
    grads = dc.backward(loss)
    fd = central_diff_gradient_map(run, {"x": x0, "y": y0, "g": g0})
    for k in fd:
        assert np.abs(grads[k] - fd[k]).max() < 1e-6


def test_affine_gradient_and_hook_capture():
    x0 = RNG.normal(size=(6, 3))
    w0 = RNG.normal(size=(2, 4))

    def run(params):
        tape = dc.Tape()
        x = tape.parameter("x", params["x"])
        w = tape.parameter("w", params["w"])
        return float(dc.total(square(dc.affine(x, w))).value[0, 0])

    tape = dc.Tape()
    x = tape.parameter("x", x0)
    w = tape.parameter("w", w0)
    ch = dc.HookChannel("lin")
    loss = dc.total(square(dc.affine(x, w, channel=ch)))
    grads = dc.backward(loss, hooks=[ch])
    fd = central_diff_gradient_map(run, {"x": x0, "w": w0})
    assert np.abs(grads["x"] - fd["x"]).max() < 1e-6
    assert np.abs(grads["w"] - fd["w"]).max() < 1e-6
    # hook reconstruction equals the tape gradient
    assert len(ch.activations) == 1
    assert np.abs(ch.weight_gradient() - grads["w"]).max() < 1e-12
    # the recorded input carries the homogeneous 1
    assert np.allclose(ch.activations[0][:, -1], 1.0)


def test_symexp_point_values():
    tape = dc.Tape()
    x = tape.constant([[0.0, 1.0, -1.0]])
    y = dc.symexp(x).value
    assert y[0, 0] == 0.0
    assert abs(y[0, 1] - (np.e - 1.0)) < 1e-12
    assert abs(y[0, 2] + (np.e - 1.0)) < 1e-12


def test_rms_normalize_of_zero_vector_is_zero():
    tape = dc.Tape()
    x = tape.constant(np.zeros((2, 5)))
    g = tape.constant(np.ones((1, 5)))
    out = dc.rms_normalize(x, g)
    assert np.all(out.value == 0.0)


def test_quadratic_identity_gradient():
    # d sum(x * x) / dx = 2x; x reaches the product twice, so backward must
    # add two deposits into one parent. At the identity this is exactly 2I.
    tape = dc.Tape()
    x = tape.parameter("x", np.eye(2))
    grads = dc.backward(dc.total(dc.multiply(x, x)))
    assert np.array_equal(grads["x"], 2.0 * np.eye(2))


def test_linear_recurrence_matches_finite_differences():
    # u_t = w * u_{t-1} + x_t unrolled three steps, then squared sum.
    x_in = RNG.normal(size=(1, 3))

    def run(params):
        tape = dc.Tape()
        w = tape.parameter("w", params["w"])
        u = tape.constant([[0.0]])
        for t in range(3):
            xt = tape.constant([[x_in[0, t]]])
            u = dc.add(dc.multiply(w, u), xt)
        return float(dc.total(square(u)).value[0, 0])

    w0 = np.array([[0.9]])
    tape = dc.Tape()
    w = tape.parameter("w", w0)
    u = tape.constant([[0.0]])
    for t in range(3):
        u = dc.add(dc.multiply(w, u), tape.constant([[x_in[0, t]]]))
    grads = dc.backward(dc.total(square(u)))
    fd = central_diff_gradient_map(run, {"w": w0})
    rel = abs(grads["w"][0, 0] - fd["w"][0, 0]) / abs(fd["w"][0, 0])
    assert rel < 1e-7


def test_hook_sum_identity_two_layer_unroll():
    # 2-layer net applied at 4 timesteps with shared weights.
    w1 = RNG.normal(size=(3, 4)) * 0.5
    w2 = RNG.normal(size=(2, 4)) * 0.5
    xs = [RNG.normal(size=(5, 3)) for _ in range(4)]

    tape = dc.Tape()
    w1n = tape.parameter("w1", w1)
    w2n = tape.parameter("w2", w2)
    ch1, ch2 = dc.HookChannel("l1"), dc.HookChannel("l2")
    acc = None
    for t in range(4):
        h = dc.symexp(dc.affine(tape.constant(xs[t]), w1n, channel=ch1))
        y = dc.affine(h, w2n, channel=ch2)
        s = dc.total(square(y))
        acc = s if acc is None else dc.add(acc, s)
    grads = dc.backward(acc, hooks=[ch1, ch2])

    assert len(ch1.activations) == 4 and len(ch2.activations) == 4
    assert np.abs(ch1.weight_gradient() - grads["w1"]).max() < 1e-12
    assert np.abs(ch2.weight_gradient() - grads["w2"]).max() < 1e-12


def test_backward_linear_in_seed():
    x0 = RNG.normal(size=(3, 3))

    def build():
        tape = dc.Tape()
        x = tape.parameter("x", x0)
        return tape, dc.total(square(dc.symexp(x)))

    tape1, loss1 = build()
    g1 = dc.backward(loss1)["x"]
    tape2, loss2 = build()
    g2 = dc.backward(dc.scale(loss2, 2.0))["x"]
    assert np.array_equal(g2, 2.0 * g1)


def test_shape_mismatch_raises():
    tape = dc.Tape()
    a = tape.constant(np.ones((2, 3)))
    b = tape.constant(np.ones((2, 2)))
    with pytest.raises(dc.DiffError):
        dc.multiply(a, b)
    with pytest.raises(dc.DiffError):
        dc.add(a, tape.constant(np.ones((3, 2))))


def _overflowing_graph(tape):
    # exp(800) overflows at the symexp, node 2; the sum after it is node 4.
    x = tape.parameter("x", [[1.0, 2.0]])
    big = tape.constant([[800.0, 0.0]])
    return dc.total(dc.multiply(x, dc.symexp(big)))


def test_recording_tape_names_the_same_node_at_backward():
    loss = _overflowing_graph(dc.Tape())  # no check while recording
    with pytest.raises(dc.DiffError, match=r"'symexp' at tape node 2$"):
        dc.backward(loss)


def test_overflowing_gradient_names_the_parameter():
    # symexp(1e10 x) at x = 7e-8 is about e^700, finite; its derivative is
    # 1e10 times that and overflows.
    tape = dc.Tape()
    x = tape.parameter("x", [[7e-8]])
    loss = dc.total(dc.symexp(dc.scale(x, 1e10)))
    assert np.isfinite(loss.value).all()
    with np.errstate(over="ignore"), pytest.raises(dc.DiffError,
                                                  match="gradient of parameter 'x'"):
        dc.backward(loss)


def test_backward_requires_scalar_seed():
    tape = dc.Tape()
    x = tape.parameter("x", np.ones((2, 2)))
    y = square(x)
    with pytest.raises(dc.DiffError, match="scalar"):
        dc.backward(y)


def test_unused_parameter_gets_zero_gradient():
    tape = dc.Tape()
    x = tape.parameter("x", np.ones((1, 2)))
    z = tape.parameter("unused", np.ones((2, 2)))
    grads = dc.backward(dc.total(square(x)))
    assert np.array_equal(grads["unused"], np.zeros((2, 2)))


def _lstm_loss(params, r, channel=None):
    tape = dc.Tape()
    nodes = {k: tape.parameter(k, v) for k, v in params.items()}
    out = dc.lstm_cell(nodes["x"], nodes["hc"], nodes["w"], channel=channel)
    # a nonlinear read-out of both halves of the output
    return dc.total(square(dc.multiply(out, tape.constant(r))))


def test_lstm_cell_matches_finite_differences_and_its_hook():
    batch, h = 5, 3
    params = {"x": RNG.normal(size=(batch, h)), "hc": RNG.normal(size=(batch, 2 * h)),
              "w": RNG.normal(size=(4 * h, 2 * h + 1)) * 0.7}
    r = RNG.normal(size=(batch, 2 * h))
    ch = dc.HookChannel("cell")
    grads = dc.backward(_lstm_loss(params, r, ch), hooks=[ch])
    fd = central_diff_gradient_map(lambda p: float(_lstm_loss(p, r).value[0, 0]), params)
    # x, the h half and the c half of the previous state, the gate matrix
    for name, cols in (("x", slice(None)), ("hc", slice(0, h)), ("hc", slice(h, 2 * h)),
                       ("w", slice(None))):
        err = np.abs(grads[name][:, cols] - fd[name][:, cols]).max()
        assert err < 1e-6 * max(1.0, np.abs(fd[name]).max()), (name, cols)
    assert ch.activations[0].shape == (batch, 2 * h + 1)
    assert ch.grads[0].shape == (batch, 4 * h)
    assert np.array_equal(ch.weight_gradient(), grads["w"])
