"""Rigid-body transformations in SE(3).

Point cloud registration estimates a 4x4 homogeneous transformation matrix
``M = [[R, t], [0, 1]]`` (paper Eq. 1) consisting of a 3x3 rotation ``R``
and a 3x1 translation ``t``, covering all six degrees of freedom.  This
module provides the construction, composition, inversion, and application
utilities the registration pipeline builds on, plus conversions between
rotation parameterizations (matrix, axis-angle, Euler, quaternion) used by
the solvers and by the synthetic trajectory generator.

It also implements the matrix Lie-group maps :func:`exp` and :func:`log`
between SE(3) and its tangent space se(3).  Twists are 6-vectors
``[rho, phi]`` — translation part first, rotation part last — which is
the minimal parameterization the pose-graph optimizer in
:mod:`repro.mapping.pose_graph` perturbs and the right representation
for interpolating or averaging rigid transforms.  Both maps switch to
Taylor expansions near the identity so tiny updates round-trip stably.

All functions accept and return ``numpy`` arrays with ``float64`` dtype and
never mutate their inputs.  :func:`invert`, :func:`orthonormalize_rotation`,
:func:`skew`, :func:`exp`, :func:`log`, :func:`adjoint`,
:func:`left_jacobian` and :func:`left_jacobian_inv` (and :func:`compose`,
through ``@``) also take a leading stack axis — ``(N, 4, 4)`` transforms,
``(N, 6)`` twists — and a single item is computed as a stack of one.  Each
stacked result equals the lone item's bit for bit: per item they make the
same BLAS/LAPACK calls on the same memory layouts, a norm is ``sqrt`` of one
``ddot``, and powers go through C ``pow`` (:func:`numpy.float_power`, which
Python's float ``**`` also calls; numpy's own ``**`` differs in last bits).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "identity",
    "make_transform",
    "rotation_part",
    "translation_part",
    "apply_transform",
    "compose",
    "invert",
    "is_valid_rotation",
    "is_valid_transform",
    "orthonormalize_rotation",
    "rot_x",
    "rot_y",
    "rot_z",
    "euler_to_rotation",
    "rotation_to_euler",
    "axis_angle_to_rotation",
    "rotation_to_axis_angle",
    "rotation_angle",
    "skew",
    "exp",
    "log",
    "adjoint",
    "left_jacobian",
    "left_jacobian_inv",
    "quaternion_to_rotation",
    "rotation_to_quaternion",
    "random_rotation",
    "random_transform",
    "small_transform",
    "transform_distance",
]


def identity() -> np.ndarray:
    """Return the 4x4 identity transformation."""
    return np.eye(4, dtype=np.float64)


def make_transform(rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """Assemble a 4x4 homogeneous transform from ``R`` (3x3) and ``t`` (3,).

    This is the matrix ``M`` of paper Eq. 1: ``X' = M @ X`` for homogeneous
    points ``X``.
    """
    rotation = np.asarray(rotation, dtype=np.float64)
    translation = np.asarray(translation, dtype=np.float64).reshape(3)
    if rotation.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {rotation.shape}")
    transform = np.eye(4, dtype=np.float64)
    transform[:3, :3] = rotation
    transform[:3, 3] = translation
    return transform


def rotation_part(transform: np.ndarray) -> np.ndarray:
    """Extract the 3x3 rotation block of a 4x4 transform."""
    return np.asarray(transform, dtype=np.float64)[:3, :3].copy()


def translation_part(transform: np.ndarray) -> np.ndarray:
    """Extract the translation vector of a 4x4 transform."""
    return np.asarray(transform, dtype=np.float64)[:3, 3].copy()


def apply_transform(transform: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Apply a 4x4 transform to an (N, 3) array of points.

    Implements ``X' = R X + t`` for every point, i.e. paper Eq. 1 without
    materializing homogeneous coordinates.
    """
    transform = np.asarray(transform, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    single = points.ndim == 1
    points_2d = np.atleast_2d(points)
    if points_2d.shape[1] != 3:
        raise ValueError(f"points must be (N, 3), got {points.shape}")
    transformed = points_2d @ transform[:3, :3].T + transform[:3, 3]
    return transformed[0] if single else transformed


def compose(*transforms: np.ndarray) -> np.ndarray:
    """Compose transforms left-to-right: ``compose(A, B)`` applies B first.

    ``apply(compose(A, B), x) == apply(A, apply(B, x))``.
    """
    if not transforms:
        return identity()
    result = np.asarray(transforms[0], dtype=np.float64)
    for transform in transforms[1:]:
        result = result @ np.asarray(transform, dtype=np.float64)
    return result


def _stack_of(array: np.ndarray, item_ndim: int) -> tuple[np.ndarray, bool]:
    """``array`` as a float64 stack of ``item_ndim``-dimensional items, and
    whether it was one item (then a stack of one)."""
    array = np.asarray(array, dtype=np.float64)
    if array.ndim == item_ndim:
        return array[None], True
    return array, False


def _transforms(rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """Stack of 4x4 transforms from ``(N, 3, 3)`` and ``(N, 3)`` parts."""
    result = np.zeros((len(rotation), 4, 4), dtype=np.float64)
    result[:, :3, :3] = rotation
    result[:, :3, 3] = translation
    result[:, 3, 3] = 1.0
    return result


def _norms(vectors: np.ndarray) -> np.ndarray:
    """Row norms of an ``(N, k)`` stack: ``sqrt`` of one BLAS ``ddot`` per
    row, the call a 1-D :func:`numpy.linalg.norm` makes."""
    return np.sqrt((vectors[:, None, :] @ vectors[:, :, None])[:, 0, 0])


def invert(transform: np.ndarray) -> np.ndarray:
    """Invert rigid transforms analytically: ``inv = [R.T, -R.T t]``.

    Takes one 4x4 transform or an ``(N, 4, 4)`` stack.
    """
    transforms, single = _stack_of(transform, 2)
    # Contiguous copies of both parts, so that each product is the gemv a
    # lone transform's copied parts make.
    rotation_t = transforms[:, :3, :3].copy().transpose(0, 2, 1)
    translation = transforms[:, :3, 3].copy()
    result = _transforms(
        rotation_t, (-rotation_t @ translation[:, :, None])[:, :, 0]
    )
    return result[0] if single else result


def is_valid_rotation(rotation: np.ndarray, atol: float = 1e-6) -> bool:
    """Check that a 3x3 matrix is a proper rotation (orthogonal, det +1)."""
    rotation = np.asarray(rotation, dtype=np.float64)
    if rotation.shape != (3, 3):
        return False
    if not np.allclose(rotation @ rotation.T, np.eye(3), atol=atol):
        return False
    return bool(np.isclose(np.linalg.det(rotation), 1.0, atol=atol))


def is_valid_transform(transform: np.ndarray, atol: float = 1e-6) -> bool:
    """Check that a 4x4 matrix is a rigid transform."""
    transform = np.asarray(transform, dtype=np.float64)
    if transform.shape != (4, 4):
        return False
    if not np.allclose(transform[3], [0.0, 0.0, 0.0, 1.0], atol=atol):
        return False
    return is_valid_rotation(transform[:3, :3], atol=atol)


def orthonormalize_rotation(rotation: np.ndarray) -> np.ndarray:
    """Project near-rotation matrices onto SO(3) via SVD.

    Used to clean up accumulated floating-point drift when chaining many
    incremental ICP updates.  Takes one 3x3 matrix or an ``(N, 3, 3)``
    stack.
    """
    rotations, single = _stack_of(rotation, 2)
    u, _, vt = np.linalg.svd(rotations)
    clean = u @ vt
    reflected = np.linalg.det(clean) < 0
    if reflected.any():
        u[reflected, :, -1] = -u[reflected, :, -1]
        clean[reflected] = u[reflected] @ vt[reflected]
    return clean[0] if single else clean


def rot_x(angle: float) -> np.ndarray:
    """Rotation about the x axis by ``angle`` radians."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]], dtype=np.float64)


def rot_y(angle: float) -> np.ndarray:
    """Rotation about the y axis by ``angle`` radians."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]], dtype=np.float64)


def rot_z(angle: float) -> np.ndarray:
    """Rotation about the z axis by ``angle`` radians."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=np.float64)


def euler_to_rotation(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Build a rotation from ZYX (yaw-pitch-roll) Euler angles in radians."""
    return rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)


def rotation_to_euler(rotation: np.ndarray) -> tuple[float, float, float]:
    """Recover (roll, pitch, yaw) from a ZYX Euler rotation matrix.

    Falls back to ``yaw = 0`` in the gimbal-lock case (|pitch| = pi/2).
    """
    rotation = np.asarray(rotation, dtype=np.float64)
    pitch = np.arcsin(np.clip(-rotation[2, 0], -1.0, 1.0))
    if np.isclose(np.abs(rotation[2, 0]), 1.0, atol=1e-9):
        yaw = 0.0
        roll = np.arctan2(-rotation[0, 1], rotation[1, 1])
    else:
        roll = np.arctan2(rotation[2, 1], rotation[2, 2])
        yaw = np.arctan2(rotation[1, 0], rotation[0, 0])
    return float(roll), float(pitch), float(yaw)


def axis_angle_to_rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues' formula: rotation by ``angle`` radians about ``axis``."""
    axis = np.asarray(axis, dtype=np.float64).reshape(3)
    norm = np.linalg.norm(axis)
    if norm < 1e-12:
        return np.eye(3, dtype=np.float64)
    axis = axis / norm
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ],
        dtype=np.float64,
    )
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def rotation_to_axis_angle(rotation: np.ndarray) -> tuple[np.ndarray, float]:
    """Recover (unit axis, angle in [0, pi]) from a rotation matrix."""
    rotation = np.asarray(rotation, dtype=np.float64)
    angle = rotation_angle(rotation)
    if angle < 1e-12:
        return np.array([1.0, 0.0, 0.0]), 0.0
    if np.isclose(angle, np.pi, atol=1e-7):
        # Near pi the off-diagonal extraction is ill-conditioned; take the
        # dominant column of (R + I) / 2, whose columns are axis * axis_i.
        m = (rotation + np.eye(3)) / 2.0
        axis = np.sqrt(np.clip(np.diag(m), 0.0, None))
        major = int(np.argmax(axis))
        if axis[major] > 1e-12:
            axis = m[:, major] / axis[major]
        norm = np.linalg.norm(axis)
        return (axis / norm if norm > 0 else np.array([1.0, 0.0, 0.0])), float(angle)
    vec = np.array(
        [
            rotation[2, 1] - rotation[1, 2],
            rotation[0, 2] - rotation[2, 0],
            rotation[1, 0] - rotation[0, 1],
        ]
    )
    return vec / (2.0 * np.sin(angle)), float(angle)


def rotation_angle(rotation: np.ndarray) -> float:
    """Geodesic angle of a rotation matrix, in radians, in [0, pi].

    This is the rotational-error measure used by the KITTI odometry
    benchmark (and hence the paper's rotational error metric).
    """
    rotation = np.asarray(rotation, dtype=np.float64)
    trace = np.clip((np.trace(rotation) - 1.0) / 2.0, -1.0, 1.0)
    return float(np.arccos(trace))


def skew(vector: np.ndarray) -> np.ndarray:
    """The 3x3 skew-symmetric (cross-product) matrix of a 3-vector.

    ``skew(a) @ b == np.cross(a, b)``; the Lie-algebra generator matrix
    underlying both :func:`exp` and :func:`axis_angle_to_rotation`.  An
    ``(..., 3)`` stack gives an ``(..., 3, 3)`` stack.
    """
    v = np.asarray(vector, dtype=np.float64)
    result = np.zeros(v.shape[:-1] + (3, 3), dtype=np.float64)
    result[..., 0, 1] = -v[..., 2]
    result[..., 0, 2] = v[..., 1]
    result[..., 1, 0] = v[..., 2]
    result[..., 1, 2] = -v[..., 0]
    result[..., 2, 0] = -v[..., 1]
    result[..., 2, 1] = v[..., 0]
    return result


# Below this rotation angle the closed-form exp/log coefficients lose
# precision to cancellation; both maps switch to their Taylor series.
_SMALL_ANGLE = 1e-6


def _so3_left_jacobian(
    theta: np.ndarray, k: np.ndarray, kk: np.ndarray
) -> np.ndarray:
    """The SO(3) left Jacobians V(phi): translation coupling of exp.

    ``theta``, ``k`` and ``kk`` are the stacked ``|phi|``, ``skew(phi)``
    and ``skew(phi) @ skew(phi)``.
    """
    result = np.empty_like(k)
    small = theta < _SMALL_ANGLE
    # V = I + K/2 + K^2/6 - ... truncated; exact to O(theta^3).
    result[small] = np.eye(3) + 0.5 * k[small] + kk[small] / 6.0
    t = theta[~small]
    a = (1.0 - np.cos(t)) / np.float_power(t, 2)
    b = (t - np.sin(t)) / np.float_power(t, 3)
    result[~small] = (
        np.eye(3) + a[:, None, None] * k[~small] + b[:, None, None] * kk[~small]
    )
    return result


def _so3_left_jacobian_inv(
    theta: np.ndarray, k: np.ndarray, kk: np.ndarray
) -> np.ndarray:
    """Inverse left Jacobians V^-1(phi), used by :func:`log`."""
    result = np.empty_like(k)
    small = theta < _SMALL_ANGLE
    result[small] = np.eye(3) - 0.5 * k[small] + kk[small] / 12.0
    t = theta[~small]
    # The (theta/2) cot(theta/2) form stays finite all the way to pi
    # (where sin(theta) alone would vanish).
    coefficient = (1.0 - 0.5 * t / np.tan(0.5 * t)) / np.float_power(t, 2)
    result[~small] = (
        np.eye(3) - 0.5 * k[~small] + coefficient[:, None, None] * kk[~small]
    )
    return result


def _rotation_terms(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(|phi|, skew(phi), skew(phi) @ skew(phi))`` of an ``(N, 3)`` stack."""
    k = skew(phi)
    return _norms(phi), k, k @ k


def exp(twist: np.ndarray) -> np.ndarray:
    """Exponential map se(3) -> SE(3).

    ``twist`` is ``[rho, phi]`` (translation part first): the rotation
    block is ``exp(skew(phi))`` via Rodrigues and the translation is
    ``V(phi) @ rho`` with the SO(3) left Jacobian ``V``.  Inverse of
    :func:`log` for rotation angles below pi; stable down to zero
    rotation (series coefficients, no axis normalization).  Takes one
    6-vector or an ``(N, 6)`` stack.
    """
    twists, single = _stack_of(twist, 1)
    rho, phi = twists[:, :3], twists[:, 3:]
    theta, k, kk = _rotation_terms(phi)
    a = np.empty_like(theta)
    b = np.empty_like(theta)
    small = theta < _SMALL_ANGLE
    # sin(t)/t and (1-cos(t))/t^2 as truncated series.
    t = theta[small]
    a[small] = 1.0 - np.float_power(t, 2) / 6.0
    b[small] = 0.5 - np.float_power(t, 2) / 24.0
    t = theta[~small]
    a[~small] = np.sin(t) / t
    b[~small] = (1.0 - np.cos(t)) / np.float_power(t, 2)
    rotation = np.eye(3) + a[:, None, None] * k + b[:, None, None] * kk
    translation = _so3_left_jacobian(theta, k, kk) @ rho[:, :, None]
    result = _transforms(rotation, translation[:, :, 0])
    return result[0] if single else result


def log(transform: np.ndarray) -> np.ndarray:
    """Logarithm map SE(3) -> se(3), returning the ``[rho, phi]`` twist.

    The rotation part is the principal rotation vector (angle in
    ``[0, pi]``); the translation part un-couples the rotation with the
    inverse left Jacobian.  ``exp(log(T))`` recovers ``T`` up to
    floating point for any rigid transform with rotation angle < pi.
    The angle comes from ``atan2`` of the skew-symmetric part — stable
    where the trace-based arccos collapses (tiny rotations) — with the
    axis-angle decomposition taking over near pi where the
    skew-symmetric part vanishes instead.  Takes one 4x4 transform or
    an ``(N, 4, 4)`` stack.
    """
    transforms, single = _stack_of(transform, 2)
    rotation = transforms[:, :3, :3]
    # vee((R - R^T) / 2) == sin(angle) * axis.
    sin_axis = 0.5 * np.stack(
        [
            rotation[:, 2, 1] - rotation[:, 1, 2],
            rotation[:, 0, 2] - rotation[:, 2, 0],
            rotation[:, 1, 0] - rotation[:, 0, 1],
        ],
        axis=1,
    )
    sine = _norms(sin_axis)
    # The trace summed left to right, as np.trace sums one matrix.
    trace = (rotation[:, 0, 0] + rotation[:, 1, 1]) + rotation[:, 2, 2]
    cosine = np.clip((trace - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arctan2(sine, cosine)
    phi = np.empty_like(sin_axis)
    small = theta < _SMALL_ANGLE
    # theta/sin(theta) -> 1 + theta^2/6; sin_axis is already ~phi.
    phi[small] = sin_axis[small] * (
        1.0 + np.float_power(theta[small], 2) / 6.0
    )[:, None]
    # Exact rescaling sin(t)*axis -> t*axis; the relative error of
    # sin_axis stays ~eps/sine, fine until within ~1e-8 of pi.
    regular = ~small & (sine > 1e-8)
    phi[regular] = sin_axis[regular] * (theta[regular] / sine[regular])[:, None]
    # Within ~1e-8 of pi the skew-symmetric part has vanished; the
    # diagonal-dominant extraction's O(sine) axis error is now below
    # floating-point significance.
    for index in np.flatnonzero(~small & ~regular):
        axis, angle = rotation_to_axis_angle(rotation[index])
        phi[index] = axis * angle
    rho = _so3_left_jacobian_inv(*_rotation_terms(phi)) @ transforms[:, :3, 3:]
    result = np.concatenate([rho[:, :, 0], phi], axis=1)
    return result[0] if single else result


def adjoint(transform: np.ndarray) -> np.ndarray:
    """The 6x6 adjoint of a rigid transform, for ``[rho, phi]`` twists.

    ``Ad(T)`` carries a twist across a frame change:
    ``T exp(xi) T^-1 == exp(Ad(T) xi)`` exactly.  With the translation
    part first it is the block matrix ``[[R, skew(t) R], [0, R]]``.
    The pose-graph linearization uses it to refer a perturbation of one
    edge endpoint to the other endpoint's frame.  Takes one 4x4
    transform or an ``(N, 4, 4)`` stack.
    """
    transforms, single = _stack_of(transform, 2)
    rotation = transforms[:, :3, :3]
    result = np.zeros((len(transforms), 6, 6), dtype=np.float64)
    result[:, :3, :3] = rotation
    result[:, 3:, 3:] = rotation
    result[:, :3, 3:] = skew(transforms[:, :3, 3]) @ rotation
    return result[0] if single else result


def _se3_q_matrix(rho: np.ndarray, theta: np.ndarray, px: np.ndarray) -> np.ndarray:
    """Barfoot's Q(rho, phi): the translation-rotation coupling block of
    the SE(3) left Jacobian (State Estimation for Robotics, eq. 7.86).

    ``theta`` and ``px`` are the stacked ``|phi|`` and ``skew(phi)``.
    Exact closed form for all rotation angles below 2*pi; the
    coefficients switch to truncated series near zero where their
    closed forms lose precision to cancellation.
    """
    c1 = np.empty_like(theta)
    c2 = np.empty_like(theta)
    c3 = np.empty_like(theta)
    small = theta < _SMALL_ANGLE
    t = theta[small]
    c1[small] = 1.0 / 6.0 - np.float_power(t, 2) / 120.0
    c2[small] = 1.0 / 24.0 - np.float_power(t, 2) / 720.0
    # (theta - sin - theta^3/6)/theta^5 -> -1/120 as theta -> 0.
    c3[small] = -0.5 * (1.0 / 24.0 + 3.0 / 120.0)
    t = theta[~small]
    large_c2 = (1.0 - np.float_power(t, 2) / 2.0 - np.cos(t)) / np.float_power(t, 4)
    c1[~small] = (t - np.sin(t)) / np.float_power(t, 3)
    c2[~small] = large_c2
    c3[~small] = -0.5 * (
        large_c2
        - 3.0 * (t - np.sin(t) - np.float_power(t, 3) / 6.0) / np.float_power(t, 5)
    )
    c1, c2, c3 = c1[:, None, None], c2[:, None, None], c3[:, None, None]
    rx = skew(rho)
    px_rx = px @ rx
    rx_px = rx @ px
    px_rx_px = px_rx @ px
    return (
        0.5 * rx
        + c1 * (px_rx + rx_px + px_rx_px)
        - c2 * (px @ px_rx + rx_px @ px - 3.0 * px_rx_px)
        + c3 * (px_rx_px @ px + px @ px_rx_px)
    )


def left_jacobian(twist: np.ndarray) -> np.ndarray:
    """The 6x6 SE(3) left Jacobian J_l of a ``[rho, phi]`` twist.

    Defining property (to first order in ``delta``):
    ``exp(twist + delta) == exp(J_l(twist) @ delta) @ exp(twist)``.
    Block upper-triangular: SO(3) left Jacobians on the diagonal and
    Barfoot's Q matrix coupling translation to rotation.  Takes one
    6-vector or an ``(N, 6)`` stack.
    """
    twists, single = _stack_of(twist, 1)
    rho, phi = twists[:, :3], twists[:, 3:]
    theta, k, kk = _rotation_terms(phi)
    j = _so3_left_jacobian(theta, k, kk)
    result = np.zeros((len(twists), 6, 6), dtype=np.float64)
    result[:, :3, :3] = j
    result[:, 3:, 3:] = j
    result[:, :3, 3:] = _se3_q_matrix(rho, theta, k)
    return result[0] if single else result


def left_jacobian_inv(twist: np.ndarray) -> np.ndarray:
    """The inverse 6x6 SE(3) left Jacobian of a ``[rho, phi]`` twist.

    Satisfies ``log(exp(delta) @ exp(twist)) == twist +
    J_l^-1(twist) @ delta`` to first order — the relation the
    pose-graph edge linearization is built on.  The right-Jacobian
    variants follow from ``J_r(xi) == J_l(-xi)``.  Computed in closed
    block form (not by inverting :func:`left_jacobian`): the inverse of
    an upper block-triangular matrix with equal diagonal blocks is
    ``[[J^-1, -J^-1 Q J^-1], [0, J^-1]]``.  Takes one 6-vector or an
    ``(N, 6)`` stack.
    """
    twists, single = _stack_of(twist, 1)
    rho, phi = twists[:, :3], twists[:, 3:]
    theta, k, kk = _rotation_terms(phi)
    j_inv = _so3_left_jacobian_inv(theta, k, kk)
    result = np.zeros((len(twists), 6, 6), dtype=np.float64)
    result[:, :3, :3] = j_inv
    result[:, 3:, 3:] = j_inv
    result[:, :3, 3:] = -j_inv @ _se3_q_matrix(rho, theta, k) @ j_inv
    return result[0] if single else result


def quaternion_to_rotation(quaternion: np.ndarray) -> np.ndarray:
    """Convert a (w, x, y, z) quaternion to a rotation matrix."""
    q = np.asarray(quaternion, dtype=np.float64).reshape(4)
    norm = np.linalg.norm(q)
    if norm < 1e-12:
        raise ValueError("zero-norm quaternion")
    w, x, y, z = q / norm
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ],
        dtype=np.float64,
    )


def rotation_to_quaternion(rotation: np.ndarray) -> np.ndarray:
    """Convert a rotation matrix to a unit (w, x, y, z) quaternion, w >= 0."""
    rotation = np.asarray(rotation, dtype=np.float64)
    trace = np.trace(rotation)
    if trace > 0:
        s = np.sqrt(trace + 1.0) * 2.0
        quaternion = np.array(
            [
                0.25 * s,
                (rotation[2, 1] - rotation[1, 2]) / s,
                (rotation[0, 2] - rotation[2, 0]) / s,
                (rotation[1, 0] - rotation[0, 1]) / s,
            ]
        )
    else:
        i = int(np.argmax(np.diag(rotation)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(rotation[i, i] - rotation[j, j] - rotation[k, k] + 1.0, 0.0)) * 2.0
        quaternion = np.empty(4)
        quaternion[0] = (rotation[k, j] - rotation[j, k]) / s
        quaternion[1 + i] = 0.25 * s
        quaternion[1 + j] = (rotation[j, i] + rotation[i, j]) / s
        quaternion[1 + k] = (rotation[k, i] + rotation[i, k]) / s
    quaternion = quaternion / np.linalg.norm(quaternion)
    if quaternion[0] < 0:
        quaternion = -quaternion
    return quaternion


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Draw a rotation uniformly from SO(3) (via a random unit quaternion)."""
    quaternion = rng.normal(size=4)
    return quaternion_to_rotation(quaternion)


def random_transform(
    rng: np.random.Generator, max_translation: float = 1.0
) -> np.ndarray:
    """Draw a random rigid transform with bounded translation magnitude."""
    translation = rng.uniform(-max_translation, max_translation, size=3)
    return make_transform(random_rotation(rng), translation)


def small_transform(
    rng: np.random.Generator,
    max_angle: float = 0.05,
    max_translation: float = 0.1,
) -> np.ndarray:
    """Draw a small perturbation transform, useful as an ICP initial guess."""
    axis = rng.normal(size=3)
    angle = rng.uniform(-max_angle, max_angle)
    translation = rng.uniform(-max_translation, max_translation, size=3)
    return make_transform(axis_angle_to_rotation(axis, angle), translation)


def transform_distance(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Return (rotation angle in radians, translation distance) between two
    transforms, i.e. the magnitude of ``a^-1 @ b``."""
    delta = compose(invert(a), b)
    return rotation_angle(rotation_part(delta)), float(
        np.linalg.norm(translation_part(delta))
    )
