"""A small reverse-mode autodiff engine on numpy arrays.

The paper trains EHNA with a stacked LSTM, batch normalization, two custom
attention mechanisms and Adam.  PyTorch is not available in this offline
environment, so this module provides the required machinery from scratch:
:class:`Tensor` wraps an ``ndarray``, records the computation graph, and
``backward()`` propagates gradients with full broadcasting support.

Design notes
------------
- dtype-preserving: a tensor built from a floating array keeps that array's
  dtype, every op produces outputs in the operands' dtype, and scalars /
  non-float inputs are coerced to the *default* ``float64``.  The precision
  policy (:mod:`repro.nn.dtypes`) decides which floating dtype a model
  allocates its parameters in; the engine then carries it through the whole
  graph — ``float64`` (the reference mode, bitwise-identical to the
  historical hard-coded behavior, with 1e-6 gradcheck tolerances) or
  ``float32`` (the fast mode, validated under the policy's loosened
  tolerances).
- the graph is built eagerly by the arithmetic ops below; ``backward`` does an
  iterative topological sort, so deep BPTT chains cannot hit the recursion
  limit.
- gradients of broadcast operands are reduced back to the operand's shape by
  :func:`_unbroadcast`.
"""

from __future__ import annotations

import numpy as np

#: Dtype for tensors built from scalars and non-floating arrays.
DEFAULT_DTYPE = np.dtype(np.float64)


def _coerce_array(value, dtype=None) -> np.ndarray:
    """``value`` as a floating ndarray.

    Floating inputs keep their dtype unless ``dtype`` overrides it; scalars,
    integer and boolean inputs become ``dtype`` (default ``float64``).  This
    is the single place the engine decides dtypes, so constants entering a
    ``float32`` graph adopt ``float32`` instead of silently promoting the
    whole downstream computation to ``float64``.
    """
    arr = np.asarray(value)
    if dtype is not None:
        return np.asarray(arr, dtype=dtype)
    if arr.dtype.kind != "f":
        return arr.astype(DEFAULT_DTYPE)
    return arr


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were stretched from size 1.
    squeeze = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if squeeze:
        grad = grad.sum(axis=squeeze, keepdims=True)
    return grad.reshape(shape)


def _as_tensor(value, dtype=None) -> "Tensor":
    """Coerce scalars/arrays into constant (non-differentiable) tensors.

    ``dtype`` is the dtype non-tensor operands adopt — binary ops pass their
    own dtype so mixing a tensor with a Python scalar or plain array never
    promotes the result (tensor operands always keep their own dtype).
    """
    if isinstance(value, Tensor):
        return value
    return Tensor(_coerce_array(value, dtype), requires_grad=False)


class Tensor:
    """An ndarray with an optional gradient and a backward rule.

    Only tensors with ``requires_grad=True`` (or downstream of one) record
    graph edges, so constants stay cheap.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _coerce_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    # -- graph construction -------------------------------------------------
    @staticmethod
    def _make(data, parents, backward) -> "Tensor":
        """Internal node constructor; drops the graph if no parent needs grad."""
        needs = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=needs)
        if needs:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # A copy, never a view: one backward hands the same ``grad``
            # array to several parents (``__add__``), and each accumulates
            # into its own in place later.
            self.grad = np.array(np.broadcast_to(grad, self.data.shape), dtype=self.data.dtype)
        else:
            self.grad += grad

    # -- public helpers ------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions of the underlying array."""
        return self.data.ndim

    @property
    def dtype(self) -> np.dtype:
        """Dtype of the underlying array (set by the precision policy)."""
        return self.data.dtype

    def detach(self) -> "Tensor":
        """A constant tensor sharing this one's data (cuts the graph)."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Drop any accumulated gradient."""
        self.grad = None

    def item(self) -> float:
        """The value of a scalar tensor as a Python float."""
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """A copy of the underlying data."""
        return self.data.copy()

    def backward(self, gradient=None) -> None:
        """Backpropagate from this tensor.

        ``gradient`` defaults to 1 for scalar outputs (the usual loss case)
        and must be supplied explicitly for non-scalar roots.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if gradient is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without gradient on non-scalar tensor")
            gradient = np.ones_like(self.data)
        else:
            gradient = np.asarray(gradient, dtype=self.data.dtype)
            if gradient.shape != self.data.shape:
                raise ValueError("gradient shape must match tensor shape")

        # Iterative topological sort (DFS with explicit stack).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(gradient)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic -----------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = _as_tensor(other, self.data.dtype)
        out_data = self.data + other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g):
            if self.requires_grad:
                self._accumulate(-g)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-_as_tensor(other, self.data.dtype))

    def __rsub__(self, other) -> "Tensor":
        return _as_tensor(other, self.data.dtype) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = _as_tensor(other, self.data.dtype)
        out_data = self.data * other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _as_tensor(other, self.data.dtype)
        out_data = self.data / other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / (other.data**2), other.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return _as_tensor(other, self.data.dtype) / self

    def __pow__(self, exponent) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = _as_tensor(other, self.data.dtype)
        if self.ndim != 2 or other.ndim != 2:
            raise ValueError("matmul supports 2-D tensors only")
        out_data = self.data @ other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(g @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ g)

        return Tensor._make(out_data, (self, other), backward)

    # -- shape ops -------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        """Reshape (gradient reshapes back)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.reshape(self.shape))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self) -> "Tensor":
        """2-D transpose."""
        if self.ndim != 2:
            raise ValueError("transpose supports 2-D tensors only")

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.T)

        return Tensor._make(self.data.T, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(g):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, g)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    # -- reductions --------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all axes when None)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if not self.requires_grad:
                return
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.shape).copy())
                return
            if not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over ``axis``."""
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    # -- elementwise nonlinearities ------------------------------------------------
    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        out_data = np.exp(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        """Elementwise natural log."""
        out_data = np.log(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        return self**0.5

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        out_data = np.tanh(self.data)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid (numerically stable)."""
        x = self.data
        out_data = np.empty_like(x)
        pos = x >= 0
        out_data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out_data[~pos] = ex / (1.0 + ex)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        """Elementwise ``max(0, x)``."""
        mask = self.data > 0
        out_data = self.data * mask

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * mask)

        return Tensor._make(out_data, (self,), backward)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


# ---------------------------------------------------------------------------
# free functions over tensors
# ---------------------------------------------------------------------------
def apply_op(data, parents, backward) -> Tensor:
    """Build a custom autograd node: ``data`` with a hand-written backward.

    This is the public hook for *fused kernels* — operations whose forward is
    computed outside the elementwise op vocabulary (e.g. a whole BPTT unroll
    in one numpy loop) and whose backward is derived by hand.  ``parents``
    are the tensors the node depends on; ``backward(g)`` receives the
    upstream gradient and must call ``parent._accumulate`` on every parent
    with ``requires_grad`` (checking the flag itself, exactly like the
    built-in ops).  If no parent requires grad the graph edge is dropped and
    ``backward`` is never invoked.
    """
    return Tensor._make(data, tuple(parents), backward)


def concat(tensors, axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (the paper's ``[·||·]`` operator)."""
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        pieces = np.split(g, splits, axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(piece)

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors, axis: int = 0) -> Tensor:
    """Stack equal-shaped tensors along a new ``axis``."""
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        pieces = np.split(g, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``.

    The max shift is treated as a constant: softmax is shift-invariant, so the
    gradient is unaffected.
    """
    shift = np.max(x.data, axis=axis, keepdims=True)
    e = (x - Tensor(shift)).exp()
    return e / e.sum(axis=axis, keepdims=True)


def squared_distance(a: Tensor, b: Tensor, axis: int = -1) -> Tensor:
    """``||a - b||²₂`` along ``axis`` — the metric of Eq. 3–7."""
    d = a - b
    return (d * d).sum(axis=axis)
