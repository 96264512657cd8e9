"""Time integration of the coupled field-matter system.

The semi-discrete system is

    du/dt = -(1/eta) B u + (extension of the matter source)
    dv/dt = F(v, u restricted to the domain)

with eta = 1 for the plain system. Two steppers: classical RK4 on the
whole right-hand side (CFL-limited), and a Lawson scheme that applies
the exact free propagator to the stiff skew part and RK4 to the rest
(constant coefficients only, no CFL).

A :class:`SimState` holds its field in one form, physical or spectral.
:func:`run` checks finiteness on the form held and hands monitors and
channels the state as held; only a snapshot gets a physical view. The
standard readers work from either form: :meth:`SimSystem.em_norm` is a
Parseval sum on a spectrum, :meth:`SimSystem.coupled_field` a box
inverse, and :meth:`SimSystem.constraint_residual` makes no whole-grid
transform of a spectral state.

The steppers run on the field in the form the weights allow. With
constant coefficients it stays in rfft layout: B and the free
propagator are per-mode multipliers, and the matter law reads only the
coupled 3-vector on the matter voxels. A stage transforms just that
3-vector, and only over the domain's bounding box: its inverse on the
box for the matter law, and the forward transform of its source from a
box-sized block (:meth:`SimSystem.sample`, :meth:`SimSystem.source_hat`).
So a step from a spectral state makes 24 scalar 3-D transforms in 8 FFT
calls, all of them box transforms (27 from a physical state: its
6-component whole-grid forward transform, and its first stage samples
it directly), and returns a spectral state. The Lawson step applies the
half-step propagator four times, one of them to a 3-vector and one
computing only the coupled slot. With variable coefficients only RK4
steps, in physical space: B of one slot is a 3-vector forward
transform, the curl multiplier, a 3-vector inverse transform and the
division by that slot's weight, 48 scalar whole-grid transforms in 16
calls per step.

The RK4 tableau lives in one place, :func:`_rk4_update`, one stage's
share of the arithmetic of one array. Every stepper runs on it: the
field step, the Lawson step, whose field stages are RK4's in the frame
of the half step, and the matter-only path (:func:`_rk4_path`).

One RK4 step serves both forms (:func:`_rk4_step`). A stage evaluates
the matter law on the calling thread. The two output slots of B u read
only each other's input slot, so then each slot's tendency
(:meth:`SimSystem.slot_tendency`, the one place that forms a stage's
matter source, in the field's form) and its share of the stage arithmetic
run as one task, which writes its slot of the next stage
argument; that argument alternates between two buffers, so no task
writes what the other still reads. The two tasks go to
:func:`cores._split`, which decides whether one of them runs on the
single process-wide helper thread, as it does for the two output slots
of the free propagator that the Lawson step applies and for the
potential solves. The stage buffers and both stage arguments, shaped to
the form, and in physical form a curl buffer per slot, are work arrays
that the system keeps per thread (:meth:`SimSystem._step_buffers`). The
stage sum accumulates in the first stage's buffer in the textbook order,
so the only six-component field a step allocates is its result (and the
spectrum of a physical state on constant weights), which is
bit-identical to the textbook expression with or without the helper,
and with one transform worker or two.

The divergence constraint is monitored, never enforced: the curl-free
content of u - shift(v) is a linear functional annihilated by the exact
right-hand side, so any Runge-Kutta step transports it to roundoff. A
drifting residual is an integrator or operator bug, which is precisely
what the monitor is for.

Also here: constraint-consistent initial data, a matter-only integrator
for closed-form cross-checks, and the mollified Picard construction that
rebuilds the solution from the free propagator and time quadrature
alone.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cores import _split
from .grid import (
    Coefficients,
    DomainMask,
    Grid3,
    extend_by_zero,
    matter_l2_norm,
    weighted_norm,
)
from .helmholtz import _curl_free_norm, _each_slot, constraint_residual, project_complement
from .models import MatterModel
from .spectral import (
    FourierWorkspace,
    FreePropagator,
    MollifierSpec,
    apply_B_slot,
    spectral_weighted_norm,
)


class NumericalAbort(RuntimeError):
    """A state stopped being finite mid-run."""


class FixedPointError(RuntimeError):
    """The Picard iteration failed to converge."""


class ContractionError(FixedPointError):
    """Iterate distances grew; the window is too long for a contraction."""


# Largest rk4 step as a fraction of the time a wave takes to cross one cell.
CFL_FACTOR = 0.5


class SimState:
    """Time ``t``, EM field and matter state ``v`` (dim, m) of a run.

    The field is held in exactly one form: physical ``(6, n, n, n)``, as
    ``SimState(t, u, v)`` builds it, or the rfft-layout spectrum
    ``u_hat`` with the workspace ``ws`` that inverts it, as
    :meth:`spectral` builds it and the constant-coefficient steppers
    return it. ``u`` reads the physical field in either case; on a
    spectral state every read is a fresh 6-component inverse transform
    and the state is left as it was, so threads may share it. Monitors
    and channels of :func:`run` see the form held, so a reader that needs
    less than the whole physical field should use the form-aware readers
    of :class:`SimSystem` instead of ``u``.
    """

    def __init__(self, t: float, u: np.ndarray, v: np.ndarray):
        self.t = t
        self._u = u
        self.v = v
        self.u_hat = None
        self.ws = None

    @classmethod
    def spectral(
        cls, t: float, u_hat: np.ndarray, v: np.ndarray, ws: FourierWorkspace
    ) -> "SimState":
        state = cls(t, None, v)
        state.u_hat, state.ws = u_hat, ws
        return state

    @property
    def u(self) -> np.ndarray:
        return self._u if self.u_hat is None else self.ws.inverse(self.u_hat)

    def spectrum(self, ws: FourierWorkspace) -> np.ndarray:
        """The field in rfft layout: the one held, or the forward transform of ``u``."""
        return self.u_hat if self.u_hat is not None else ws.forward(self._u)

    def physical(self) -> "SimState":
        """This state if its field is physical, else a physical copy of it."""
        return self if self.u_hat is None else SimState(self.t, self.u, self.v)

    def is_finite(self) -> bool:
        """Whether the held field and the matter are finite; a non-finite
        spectrum is a non-finite field."""
        field = self._u if self.u_hat is None else self.u_hat
        return bool(np.isfinite(field).all() and np.isfinite(self.v).all())

    def copy(self) -> "SimState":
        """A deep copy in the same form."""
        if self.u_hat is None:
            return SimState(self.t, self._u.copy(), self.v.copy())
        return SimState.spectral(self.t, self.u_hat.copy(), self.v.copy(), self.ws)


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    t_end: float
    scheme: str = "rk4"

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0 <= self.t_end / self.dt < 2**53:
            raise ValueError(f"t_end/dt must lie in [0, 2**53), got {self.t_end}/{self.dt}")
        if self.scheme not in ("rk4", "lawson_exp"):
            raise ValueError(f"unknown scheme {self.scheme!r}; use 'rk4' or 'lawson_exp'")

    @property
    def n_steps(self) -> int:
        steps = int(round(self.t_end / self.dt))
        if abs(steps * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError(f"t_end={self.t_end} is not a multiple of dt={self.dt}")
        return steps


class SimSystem:
    """Grid, coefficients, domain, matter model, and their cached glue.

    ``eta`` scales the skew part as -(1/eta) B u; eta = 1 recovers the
    plain system. Construction wires the Fourier workspace, the coupled
    EM slot ``slot`` and its coefficient field ``kappa``, and the
    restriction ``kappa_d`` of that field to the domain voxels. The
    matter-side transforms of the spectral paths run over the domain's
    bounding box only (:meth:`sample_hat`, :meth:`source_hat`); whole-field
    users keep the workspace's ``forward`` and ``inverse``.
    """

    def __init__(
        self,
        grid: Grid3,
        coeffs: Coefficients,
        domain: DomainMask,
        model: MatterModel,
        eta: float = 1.0,
    ):
        if coeffs.kappa1.shape != grid.shape:
            raise ValueError("coefficients do not live on the given grid")
        if domain.grid.shape != grid.shape:
            raise ValueError("domain mask does not live on the given grid")
        if eta <= 0:
            raise ValueError(f"eta must be positive, got {eta}")
        self.grid = grid
        self.coeffs = coeffs
        self.domain = domain
        self.model = model
        self.eta = float(eta)
        self.ws = FourierWorkspace(grid)
        self.slot = slice(0, 3) if model.em_slot == 1 else slice(3, 6)
        # the coupled slot over the domain's bounding box, as one index
        self._slot_box = (self.slot,) + domain.box
        self.kappa = coeffs.component(model.em_slot)
        self.kappa_d = self.kappa[domain.mask]
        self._work = threading.local()

    def _step_buffers(self) -> tuple[np.ndarray, ...]:
        """Work arrays that RK4 steps reuse, in the form the weights step
        in (spectral on constant weights, physical on variable ones): four
        (6, ...) fields, the first stage's tendency, where the stage sum
        accumulates, the later stages' tendency and two stage arguments
        that alternate, then one curl buffer per output slot, a (3, ...)
        half-spectrum in physical form and None in spectral form, where
        B's multiplier writes straight into the tendency.

        They are made on first use and kept per thread, so copies of the
        system (:func:`quasistatic.with_eta`) share them only within one
        thread, where steps run one at a time. The helper thread of
        :func:`cores._split` writes slot slices of the calling thread's field
        arrays and, in physical form, one of its curl buffers, and only
        while that thread waits for it. Made afresh at every step they left
        the allocator growing and trimming its heap: a 32^3 physical step
        took 964 or 3088-3664 minor page faults, depending on the heap's
        state, where kept ones take 0-364 (1732 with the fresh temporaries
        of textbook RK4), on a 2-core x86-64 guest. The fields, and the
        curl buffers, are one allocation each: with four and two, a 32^3
        physical step of three 60-step runs in one process took 44 minor
        faults, with one each 23.
        """
        bufs = getattr(self._work, "rk4", None)
        if bufs is None:
            if self.coeffs.is_constant:
                fields = np.empty((4, 6) + self.ws.spectral_shape, dtype=complex)
                curls = (None, None)
            else:
                fields = np.empty((4, 6) + self.grid.shape)
                curls = tuple(np.empty((2, 3) + self.ws.spectral_shape, dtype=complex))
            bufs = self._work.rk4 = (*fields, *curls)
        return bufs

    def matter_state(self, v) -> np.ndarray:
        """``v`` as a float (dim, m) matter array; a ValueError names a wrong shape."""
        v = np.atleast_2d(np.asarray(v, dtype=float))
        want = (self.model.dim, self.domain.count)
        if v.shape != want:
            raise ValueError(f"matter state must have shape {want}, got {v.shape}")
        return v

    def source_field(self, w: np.ndarray) -> np.ndarray:
        """Weighted coupling of a matter array as a coupled-slot field, zero off the domain."""
        return extend_by_zero(self.model.source_from_matter(w, self.kappa_d), self.domain)

    def source_block(self, w: np.ndarray) -> np.ndarray:
        """:meth:`source_field` on the domain's bounding box only, (3, *box shape)."""
        block = np.zeros((3,) + self.domain.cropped_mask.shape)
        block[:, self.domain.cropped_mask] = self.model.source_from_matter(w, self.kappa_d)
        return block

    def source_hat(self, w: np.ndarray) -> np.ndarray:
        """Half-spectrum of :meth:`source_field`, transformed from the box alone."""
        return self.ws.forward_box(self.source_block(w), self.domain.box)

    def sample_hat(self, field_hat: np.ndarray) -> np.ndarray:
        """The (3, m) domain-voxel sample of a coupled-slot field given its
        half-spectrum, inverse-transformed on the box alone."""
        on_box = self.ws.inverse_box(field_hat, self.domain.box)
        return on_box[:, self.domain.cropped_mask]

    def matter_to_field(self, w: np.ndarray) -> np.ndarray:
        """:meth:`source_field` placed into an otherwise zero EM stack.

        Applied to the matter tendency this is the field source; applied
        to the state it is the shift whose curl-free part the constraint
        compares against.
        """
        out = np.zeros((6,) + self.grid.shape)
        out[self.slot] = self.source_field(w)
        return out

    def coupled_tendency(self, sample: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Matter tendency at the coupled slot's (3, m) domain-voxel ``sample``.

        The model reads no other slot, so the sample it sees is zero there.
        """
        em = np.zeros((6, self.domain.count))
        em[self.slot] = sample
        return self.model.eval_F(v, em)

    def sample(self, u: np.ndarray) -> np.ndarray:
        """The coupled slot of a (6, ...) field on the domain voxels, (3, m):
        read off a physical field through the bounding box, or sampled
        from that slot of a spectrum (:meth:`sample_hat`)."""
        if np.iscomplexobj(u):
            return self.sample_hat(u[self.slot])
        return u[self._slot_box][:, self.domain.cropped_mask]

    def matter_tendency(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self.coupled_tendency(self.sample(u), v)

    def tendencies(
        self, u: np.ndarray, v: np.ndarray, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Field and matter tendencies of a physical state.

        The field's, -(1/eta) B u plus the matter source, is written into
        ``out``, a (6, n, n, n) buffer that is not read, or a new array,
        one :meth:`slot_tendency` per slot; the two share one curl buffer.
        """
        f = self.matter_tendency(u, v)
        if out is None:
            out = np.empty_like(u)
        curl_buf = np.empty((3,) + self.ws.spectral_shape, dtype=complex)
        for dst in (slice(0, 3), slice(3, 6)):
            self.slot_tendency(u, dst, out, f, curl_buf)
        return out, f

    def slot_tendency(
        self,
        u: np.ndarray,
        dst: slice,
        out: np.ndarray,
        f: np.ndarray,
        curl_buf: np.ndarray | None = None,
    ) -> np.ndarray:
        """Slot ``dst`` of the field tendency of ``u``, a physical field or,
        on constant weights, its spectrum, written into ``out[dst]`` (same
        form) and returned; ``f`` is the (dim, m) matter tendency.

        That is :func:`spectral.apply_B_slot` with the sign of -1/eta in
        its curl multiplier, times 1/eta when eta is not 1, plus, in the
        coupled slot, the source that ``f`` feeds, in the form of ``u``:
        :meth:`source_hat` on a spectrum, and on a physical field
        ``model.source_from_matter`` added on the domain voxels. This is
        the only code that forms an RK4 stage's source. The sign and the 1/eta
        factor are exact, so the result is bit-identical to multiplying
        B u by -1/eta. It reads only the other slot of ``u``, so the two
        slots may be computed at once, each with its own ``curl_buf`` (see
        :func:`spectral.apply_B_slot`).
        """
        du = apply_B_slot(u, self.coeffs, self.ws, dst, out, -1.0, curl_buf)
        if self.eta != 1.0:
            du *= 1.0 / self.eta
        if dst == self.slot:
            if np.iscomplexobj(du):
                du += self.source_hat(f)
            else:
                source = self.model.source_from_matter(f, self.kappa_d)
                du[(slice(None),) + self.domain.box][:, self.domain.cropped_mask] += source
        return du

    def coupled_field(self, state: "SimState") -> np.ndarray:
        """:meth:`sample` of the state's field in the form held."""
        return self.sample(state.u if state.u_hat is None else state.u_hat)

    def em_norm(self, state: SimState) -> float:
        """Weighted norm of the state's field, from the form held: a Parseval
        sum of a spectrum, a grid sum of a physical field."""
        if state.u_hat is None:
            return weighted_norm(state.u, self.coeffs, self.grid)
        return spectral_weighted_norm(state.u_hat, *self.coeffs.constant_values(), self.ws)

    def shift_norm(self, v: np.ndarray) -> float:
        """Weighted norm of the matter shift :meth:`matter_to_field` of ``v``,
        summed over the domain voxels, where it is supported."""
        src = self.model.source_from_matter(v, self.kappa_d)
        sq = float(np.sum(self.kappa_d * np.einsum("cm,cm->m", src, src)))
        return float(np.sqrt(sq * self.grid.cell_volume))

    def constraint_residual(self, state: SimState) -> float:
        """:func:`helmholtz.constraint_residual` of the field against the
        matter shift of ``state.v``, from the field in the form held.

        A physical field goes to :func:`helmholtz.constraint_residual` with
        :meth:`matter_to_field`. On a spectral state the scale is
        :meth:`em_norm` plus :meth:`shift_norm`, and the potential source
        of each slot, b = -div(k (u - shift)), is the held spectrum's
        divergence minus, in the coupled slot, that of :meth:`source_hat`:
        3 box transforms and no whole-grid one.
        """
        ws = self.ws
        if state.u_hat is None:
            return constraint_residual(state.u, self.matter_to_field(state.v), self.coeffs, ws)
        scale = self.em_norm(state) + self.shift_norm(state.v)
        if scale == 0.0:
            return 0.0
        k = self.coeffs.constant_values()
        sources = [ws.div_hat(state.u_hat[0:3], -k[0]), ws.div_hat(state.u_hat[3:6], -k[1])]
        c = self.model.em_slot - 1
        sources[c] -= ws.div_hat(self.source_hat(state.v), -k[c])
        return _curl_free_norm(sources, self.coeffs, ws) / scale

    def cfl_limit(self) -> float:
        speed_weight = float(np.sqrt((self.coeffs.kappa1 * self.coeffs.kappa2).min()))
        return CFL_FACTOR * self.eta * self.grid.spacing * speed_weight

    @cached_property
    def propagator(self) -> FreePropagator:
        """exp(-t B), built on first use; it does not depend on eta, so
        copies with another eta may share it."""
        return FreePropagator(self.coeffs, self.ws)


def make_initial(
    system: SimSystem, v_init: np.ndarray, u_free: np.ndarray | None = None
) -> SimState:
    """Constraint-consistent state: divergence-free seed plus matter shift.

    u = shift + P(u_free - shift), that is P(u_free) + (Id - P)(shift of
    v_init): the seed's curl-free content is replaced by the matter's, so
    the constraint residual starts at solver tolerance. Without a seed
    only the coupled slot is projected; P keeps the other one zero. With
    one, each slot subtracts its own curl-free part in place, the two
    split as :func:`helmholtz._each_slot` does.
    """
    v_init = system.matter_state(v_init)
    shape = (6,) + system.grid.shape
    if u_free is not None and np.shape(u_free) != shape:
        raise ValueError(f"u_free must have shape {shape}, got {np.shape(u_free)}")
    u = np.zeros(shape) if u_free is None else np.array(u_free, dtype=float)
    shift = system.source_field(v_init)

    def project(i: int, s: slice, kappa: np.ndarray) -> None:
        u[s] -= project_complement(u[s], kappa, system.ws)

    u[system.slot] -= shift
    if u_free is None:
        project(system.model.em_slot - 1, system.slot, system.kappa)
    else:
        _each_slot(project, system.coeffs)
    u[system.slot] += shift
    return SimState(t=0.0, u=u, v=v_init.copy())


# Stage i of RK4 (i = 0, 1, 2) feeds stage i + 1 the argument y + c_i dt k_i.
_RK4_NODES = (0.5, 0.5, 1.0)


def _rk4_update(i: int, k: np.ndarray, acc: np.ndarray, y: np.ndarray, out, dt: float):
    """Stage ``i``'s share (i = 0..3) of the RK4 arithmetic of one array:
    a field, a slot of one, the coupled slot's 3-vector spectrum in the
    Lawson step, or a matter state.

    ``k`` is stage i's tendency and ``acc`` stage 0's, where the weighted
    sum accumulates; ``y`` is only read. Stages 0-2 write the next stage
    argument y + c k into ``out`` (c = dt/2, dt/2, dt), and stages 1 and 2
    then add 2 k to ``acc``, doubling k in place. Stage 3 adds k, scales
    by dt/6 and writes y + that sum into ``out``, or a new array when
    ``out`` is None. Returns ``out``. The terms accumulate in the textbook
    order, so the result is bit-identical to the textbook expression.
    """
    if i == 3:
        np.add(acc, k, out=acc)
        np.multiply(acc, dt / 6.0, out=acc)
        return np.add(acc, y, out=out)
    np.multiply(k, _RK4_NODES[i] * dt, out=out)
    out += y
    if i > 0:
        np.add(acc, np.multiply(k, 2.0, out=k), out=acc)
    return out


def _sampler(stride: int, n_steps: int):
    """Predicate on step indices: step 0, every ``stride``-th step and step ``n_steps``."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    return lambda i: i % stride == 0 or i == n_steps


def _rk4_path(f, v0: np.ndarray, n_steps: int, dt: float, stride: int):
    """RK4 on v' = f(v), sampled as :func:`_sampler` says.

    The stages run through :func:`_rk4_update`: their arguments go to one
    buffer for the whole path and the sum accumulates in k1, so f may
    return the same array at every call after a step's first, but not
    k1's. Each step's result is a new array. Returns (times, values);
    raises :class:`NumericalAbort` as soon as the state stops being
    finite.
    """
    sampled = _sampler(stride, n_steps)
    v = v0.copy()
    arg = np.empty_like(v)
    times, values = [], []
    for i in range(n_steps + 1):
        if i > 0:
            k1 = k = f(v)
            for s in range(3):
                k = f(_rk4_update(s, k, k1, v, arg, dt))
            v = _rk4_update(3, k, k1, v, None, dt)
            if not np.isfinite(v).all():
                raise NumericalAbort(f"non-finite matter state at t={i * dt:.6g} (step {i})")
        if sampled(i):
            times.append(i * dt)
            values.append(v.copy())
    return np.asarray(times), np.asarray(values)


def _rk4_step(system: SimSystem, state: SimState, dt: float) -> SimState:
    """One classical RK4 step of the whole system, in the field form the
    weights allow.

    On constant weights B is a per-mode multiplier, so the stages run on
    the rfft-layout field and a stage transforms only the coupled 3-vector
    over the domain's bounding box: its inverse for the matter law and
    the forward transform of its source (:meth:`SimSystem.sample`,
    :meth:`SimSystem.source_hat`), 4 * (3 + 3) = 24 scalar box transforms
    from a spectral state. A physical state adds its 6-component
    whole-grid forward transform, and stage 1 samples it without an
    inverse: 27. The result is spectral. On variable weights the stages
    run on the physical field: per stage and slot a 3-vector forward and
    inverse transform, 16 calls and 48 scalar transforms per step. The
    result is physical.

    A stage evaluates the matter law at the coupled sample of its
    argument on the calling thread. Then one task per output slot computes
    that slot's tendency (:meth:`SimSystem.slot_tendency`: B's slot with
    the sign of -1/eta, the 1/eta scale and, in the coupled slot, the
    source of the matter tendency, in the field's form) and that slot's
    share of the stage arithmetic (:func:`_rk4_update`). A task reads the
    other slot of the argument and writes its own slot of the next one,
    so the stage arguments alternate between two buffers and no task
    writes what the other still reads. Both tasks go to
    :func:`cores._split`, which may run one on the helper thread. The
    tendencies go to the first stage's buffer, where the sum accumulates,
    and then to one buffer the later stages share; all are
    :meth:`SimSystem._step_buffers`. Once both tasks are done, the matter
    takes its share of the stage arithmetic, which doubles the matter
    tendency that the source read.
    All of the arithmetic is :func:`_rk4_update`'s and B's sign and 1/eta
    are exact, so the result, a new array, is bit-identical to the
    textbook step in either form, with either thread count.
    """
    spectral = system.coeffs.is_constant
    u = state.spectrum(system.ws) if spectral else state.u
    v = state.v
    acc, k, *args, curl1, curl2 = system._step_buffers()
    un = np.empty_like(u)
    x, w, w_arg = u, v, np.empty_like(v)
    for i in range(4):
        f = system.coupled_tendency(system.coupled_field(state) if i == 0 else system.sample(x), w)
        kk = acc if i == 0 else k
        nxt = args[i % 2] if i < 3 else un

        # runs before the loop moves on, so it sees this stage's names
        def slot_stage(slot: tuple) -> None:
            dst, curl_buf = slot
            system.slot_tendency(x, dst, kk, f, curl_buf)
            _rk4_update(i, kk[dst], acc[dst], u[dst], nxt[dst], dt)

        _split(system.ws.points, slot_stage, (slice(0, 3), curl1), (slice(3, 6), curl2))
        if i == 0:
            f_acc = f
        w = _rk4_update(i, f, f_acc, v, w_arg if i < 3 else None, dt)
        x = nxt
    if spectral:
        return SimState.spectral(state.t + dt, un, w, system.ws)
    return SimState(state.t + dt, un, w)


def _lawson_step(system: SimSystem, state: SimState, dt: float) -> SimState:
    """One step of the Lawson(RK4) exponential integrator: classical RK4
    on the field in the frame of the half step.

    With P = exp(-(h/2) B / eta), y = P u_n and c_k the field source of
    stage k, the tendencies are K_1 = P c_1, K_2 = c_2, K_3 = c_3 and
    K_4 = c_4, stage 4 samples P(y + h K_3), and

        u_{n+1} = P(y + (h/6)(K_1 + 2 K_2 + 2 K_3)) + (h/6) K_4,

    which by the linearity of P is the textbook P^2 u_n + (h/6)(P^2 c_1 +
    2 P c_2 + 2 P c_3 + c_4). Matter has no free part: its stages are
    plain RK4. Every stage argument, field and matter, and both sums are
    :func:`_rk4_update`'s: the matter's whole step, and the field's stage
    arguments and K_1 + 2 K_2 + 2 K_3 in the coupled slot, where K_2 to
    K_4 live, accumulated in K_1's stack; (h/6) times that sum is added to
    y, and (h/6) K_4 after the last application. So the step is the
    textbook expression to the bit. Each c_k is taken before the matter
    update doubles f_k.

    P is applied four times, on spectra with the half-step phases computed
    once: to u_n, giving y, and to the folded sum, whole stacks; to c_1, a
    3-vector; and to stage 4's argument, computing its coupled slot only.
    That argument is built in y's coupled slot, which is saved before and
    restored after its application, and K_1 is released before the last
    application, so a 64^3 step never holds a copy of a stack.

    A stage inverse-transforms its coupled 3-vector on the domain's
    bounding box for the matter law (stage 1 of a physical state samples
    the state itself) and forward-transforms its source from a box-sized
    block: 4*3 + 4*3 = 24 scalar box transforms from a spectral state, 27
    from a physical one, which adds its 6-component whole-grid forward
    transform and saves stage 1's inverse. The result is spectral.
    """
    prop, ws, slot = system.propagator, system.ws, system.slot
    phases = prop.phases(0.5 * dt / system.eta)
    v, w, w_arg = state.v, state.v, np.empty_like(state.v)
    y = prop.apply_hat(state.spectrum(ws), phases)
    for i in range(4):
        f = system.coupled_tendency(system.sample_hat(x) if i else system.coupled_field(state), w)
        if i == 0:
            acc, f_acc = prop.apply_hat(system.source_hat(f), phases, slot=slot), f
            x = np.empty_like(acc[slot])
        if i < 2:
            _rk4_update(i, acc[slot] if i == 0 else system.source_hat(f), acc[slot], y[slot], x, dt)
        elif i == 2:
            # stage 4's argument goes to y's coupled slot, which x saves
            # and then restores: a copy of the stack would raise the peak
            x[...] = y[slot]
            _rk4_update(2, system.source_hat(f), acc[slot], x, y[slot], dt)
            x, y[slot] = prop.apply_hat(y, phases, out_slot=slot), x
        w = _rk4_update(i, f, f_acc, v, w_arg if i < 3 else None, dt)
    y += np.multiply(acc, dt / 6.0, out=acc)
    del acc, x
    un = prop.apply_hat(y, phases)
    un[slot] += (dt / 6.0) * system.source_hat(f)
    return SimState.spectral(state.t + dt, un, w, ws)


def step(system: SimSystem, state: SimState, cfg: IntegratorConfig) -> SimState:
    """Advance one step with the configured scheme."""
    if cfg.scheme == "rk4":
        return _rk4_step(system, state, cfg.dt)
    return _lawson_step(system, state, cfg.dt)


def _check_cfl(system: SimSystem, cfg: IntegratorConfig) -> None:
    if cfg.scheme != "rk4":
        return
    limit = system.cfl_limit()
    if cfg.dt > limit:
        raise ValueError(
            f"dt={cfg.dt} exceeds the rk4 stability limit {limit:.3e} "
            f"(eta={system.eta}); reduce dt or use scheme='lawson_exp'"
        )


def run(
    system: SimSystem,
    state: SimState,
    cfg: IntegratorConfig,
    monitors: dict | None = None,
    stride: int = 1,
    channels: dict | None = None,
    snapshot_cb=None,
    snapshot_stride: int = 0,
):
    """Integrate to cfg.t_end, sampling monitors along the way.

    ``monitors`` maps column names to callables (system, state) -> float,
    evaluated at t=0, every ``stride`` steps, and at the final time.
    ``channels`` has the same signature but is sampled at every step
    boundary (for time-quadrature of rates). ``snapshot_cb(system,
    state, step)`` is called on the monitor rule with ``snapshot_stride``
    in place of ``stride``, and never when that is 0. Monitors and
    channels see the state in the form it is held: after a
    constant-coefficient step that is a spectrum, on which each ``u``
    read is one 6-component inverse transform. Only ``snapshot_cb`` gets
    a physical view, made at its own steps. Returns (final_state, records,
    channel_series) where records is a list of dicts and channel_series
    maps names to arrays over all step times; the final state holds its
    field in the form the last step left it.
    """
    monitors = monitors or {}
    channels = channels or {}
    n_steps = cfg.n_steps
    sampled = _sampler(stride, n_steps)
    snap = snapshot_cb is not None and snapshot_stride != 0 and _sampler(snapshot_stride, n_steps)
    _check_cfl(system, cfg)

    records: list[dict] = []
    series: dict[str, list[float]] = {name: [] for name in channels}
    state = state.copy()
    t0 = state.t
    for i in range(n_steps + 1):
        if i > 0:
            state = step(system, state, cfg)
            state.t = t0 + i * cfg.dt
            if not state.is_finite():
                raise NumericalAbort(f"non-finite state at t={state.t:.6g} (step {i})")
        for name, fn in channels.items():
            series[name].append(float(fn(system, state)))
        if sampled(i):
            row = {"t": state.t, "step": i}
            for name, fn in monitors.items():
                row[name] = float(fn(system, state))
            records.append(row)
        if snap and snap(i):
            snapshot_cb(system, state.physical(), i)

    channel_arrays = {name: np.asarray(vals) for name, vals in series.items()}
    return state, records, channel_arrays


def integrate_matter(
    model: MatterModel,
    v0: np.ndarray,
    em: np.ndarray,
    t_end: float,
    dt: float,
    sample_stride: int = 1,
):
    """RK4 on the matter law alone, with a frozen field sample.

    Returns (times, values) with values[k] the state at times[k]. Used
    for closed-form cross-checks where the field back-reaction is off.
    Raises :class:`NumericalAbort` on a non-finite state.
    """
    v0 = np.atleast_2d(np.asarray(v0, dtype=float))
    em = np.atleast_2d(np.asarray(em, dtype=float))
    n_steps = IntegratorConfig(dt, t_end).n_steps
    return _rk4_path(lambda v: model.eval_F(v, em), v0, n_steps, dt, sample_stride)


@dataclass(frozen=True)
class FixedPointConfig:
    n_mol: int
    window: float
    n_steps: int
    tol: float = 1e-10
    max_iter: int = 60

    def __post_init__(self):
        if self.n_mol < 1:
            raise ValueError(f"low-pass index must be >= 1, got {self.n_mol}")
        if not 0 < self.window < np.inf:
            raise ValueError(f"window must be positive and finite, got {self.window}")
        if self.n_steps < 2:
            raise ValueError(f"need at least 2 quadrature steps, got {self.n_steps}")
        if not 0 < self.tol < 1:
            raise ValueError(f"tol out of range: {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class FixedPointResult:
    state: SimState
    distances: list[float]
    iterations: int

    @property
    def contraction_ratios(self) -> list[float]:
        return [
            b / a for a, b in zip(self.distances[:-1], self.distances[1:]) if a > 0
        ]


def mollified_fixed_point(
    system: SimSystem, state0: SimState, cfg: FixedPointConfig
) -> FixedPointResult:
    """Picard iteration on the integral form of the system.

    Each sweep maps a trajectory {(u_j, v_j)} on the window to

        u(t) = exp(-tB) u0 + int_0^t exp(-(t-s)B) source(v(s), Ru(s)) ds
        v(t) = v0 + int_0^t F(v(s), Ru(s)|domain) ds

    with R the spectral low-pass of index cfg.n_mol and trapezoidal
    quadrature on the step grid. The field trajectory is kept in Fourier
    space, where the propagator is a phase multiplier and the Duhamel
    integral accumulates in O(1) work per node. Constant coefficients
    required.

    Raises :class:`ContractionError` when iterate distances stop
    shrinking, and :class:`FixedPointError` when max_iter runs out.
    """
    prop = system.propagator  # raises ValueError on variable coefficients
    k1, k2 = prop.kappa1, prop.kappa2
    ws, slot = system.ws, system.slot
    spec = MollifierSpec(cfg.n_mol)
    symbol = spec.symbol(ws)
    eta = system.eta

    J = cfg.n_steps
    dt = cfg.window / J
    times = dt * np.arange(J + 1)

    u0_hat = state0.spectrum(ws)
    v0 = state0.v.copy()

    # The node phases are the same in every sweep; exp(+t B) takes the
    # same cos factors and negated rotation factors (sin is odd).
    phases = [prop.phases(t / eta) for t in times]

    def back_phases(j: int) -> tuple:
        c, par, rot1, rot2 = phases[j]
        return c, par, -rot1, -rot2

    # Starting guess: the free flow with frozen matter. When the matter
    # tendency vanishes identically this is already the fixed point.
    traj_hat = np.empty((J + 1,) + u0_hat.shape, dtype=complex)
    for j in range(J + 1):
        traj_hat[j] = prop.apply_hat(u0_hat, phases[j])
    traj_v = np.tile(v0, (J + 1, 1, 1))

    scale = spectral_weighted_norm(u0_hat, k1, k2, ws) + matter_l2_norm(
        v0, system.grid
    )
    scale = max(scale, 1e-30)
    floor = 5e-14 * scale

    # The matter law reads only the coupled slot of R u, and the source
    # lives only there: each node transforms two 3-vectors, both over the
    # domain's bounding box. Returns exp(+t_j B) of node j's source, and
    # its matter tendency.
    def phased_source(j: int, u_hat_j: np.ndarray, v_j: np.ndarray) -> tuple:
        f = system.coupled_tendency(system.sample_hat(symbol * u_hat_j[slot]), v_j)
        return prop.apply_hat(system.source_hat(f), back_phases(j), slot=slot), f

    distances: list[float] = []
    for it in range(1, cfg.max_iter + 1):
        new_hat = np.empty_like(traj_hat)
        new_v = np.empty_like(traj_v)
        new_hat[0] = u0_hat
        new_v[0] = v0

        phased_prev, f_prev = phased_source(0, traj_hat[0], traj_v[0])
        s_accum = np.zeros_like(u0_hat)
        dist_u = 0.0
        dist_v = 0.0
        for j in range(1, J + 1):
            phased, f_j = phased_source(j, traj_hat[j], traj_v[j])
            s_accum += (0.5 * dt) * (phased_prev + phased)
            phased_prev = phased
            new_hat[j] = prop.apply_hat(u0_hat + s_accum, phases[j])
            new_v[j] = new_v[j - 1] + (0.5 * dt) * (f_prev + f_j)
            f_prev = f_j
            dist_u = max(
                dist_u, spectral_weighted_norm(new_hat[j] - traj_hat[j], k1, k2, ws)
            )
            dist_v = max(dist_v, matter_l2_norm(new_v[j] - traj_v[j], system.grid))
        d = dist_u + dist_v
        distances.append(d)
        traj_hat, traj_v = new_hat, new_v

        if d <= cfg.tol * scale:
            final = SimState(
                t=state0.t + cfg.window, u=ws.inverse(traj_hat[J]), v=traj_v[J].copy()
            )
            return FixedPointResult(state=final, distances=distances, iterations=it)
        if len(distances) >= 2 and d >= distances[-2] and d > floor:
            raise ContractionError(
                f"iterate distances grew ({distances[-2]:.3e} -> {d:.3e}); "
                f"the window {cfg.window} is too long for a contraction, reduce it"
            )
    raise FixedPointError(
        f"no convergence to tol={cfg.tol} within {cfg.max_iter} sweeps "
        f"(last distance {distances[-1]:.3e}, scale {scale:.3e})"
    )
